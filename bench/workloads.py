"""The four seeded workloads: their items, how each runs, how each is checked.

Every workload is a closed loop in one process: items run one at a time and
the next starts when the previous one returns.  ``cli-batch`` starts one
child interpreter per item and waits for it.  Items look their functions up
on the module at call time (``localize.grassmannian_pairing(...)``, never a
name bound at set-up), so the traced run's wrappers see every call.

Each workload's seed draws only inputs whose cost does not depend on the
draw (a rational scale of each class, relation scalars, generator sets, the
item order, small residue instances), so runs on different seeds measure the
same amount of work.  See NOTES.md for why each workload exists.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

import oracles

# Gr(k, n) rungs of the ladder; every class sigma_1^a (z_1...z_k)^m with
# a + k m = k (n - k) is an item, so each pass does the same work.
LADDER = ((2, 4), (2, 5), (2, 6), (3, 6), (3, 7), (4, 7), (4, 8))
# Through three routes, Gr(4,8) with m = 0 and m = 1 costs 7 s and 3 s per
# pass, more than a run allows; those two classes stay in schubert-ladder.
JK_SKIP = {(4, 8, 0), (4, 8, 1)}
RESIDUE_BATCH = 40  # instances of each residue property per pass
RING_LADDER = tuple((1, n) for n in range(3, 10)) + tuple((2, n) for n in range(3, 10)) + (
    (3, 4), (3, 5), (3, 6))
# Cheap inputs appear COPIES times, each copy with its own seeded scale; the
# heaviest (a multiple of COPIES of them) appear once.  The median and the
# tail percentile then fall in the middle of a block of equal-cost items, not
# on the jump between two inputs of different cost, which keeps them steady
# from run to run.
COPIES = 3
SINGLE = {
    "schubert-ladder": {(4, 8, 0), (4, 8, 1), (4, 8, 2), (4, 7, 0), (4, 7, 1), (4, 7, 2)},
    "jk-pairing": {(4, 7, 0), (4, 7, 1), (4, 7, 2), (4, 8, 2), (4, 8, 3), (3, 7, 0)},
    "ring-betti": {(3, 4), (3, 5), (3, 6)},
}
CHILD_TIMEOUT_S = 60


class Item:
    """One unit of work: ``run()`` returns an answer, ``check(answer)`` returns
    None when it is right and a one-line reason when it is not."""

    def __init__(self, name, params, run, check, mode=None, replay=None):
        self.name = name
        self.params = params
        self.run = run
        self.check = check
        self.mode = mode
        self.replay = replay


def scale_factor(rng):
    """A nonzero rational with denominator > 1, so every class carries
    genuine fractions whatever the seed."""
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(2, 9))
        if value.denominator > 1:
            return value


def _expect_equal(expected):
    def check(answer):
        if answer != expected:
            return "expected %s, got %s" % (expected, answer)
        return None

    return check


def _schubert_class(polyring, k, n, m, scale):
    """scale * sigma_1^a * (z_1...z_k)^m with a + k m = k (n - k), expanded by
    the multinomial theorem so that building inputs costs next to nothing."""
    a = k * (n - k) - k * m
    terms = {}
    for combo in combinations_with_replacement(range(k), a):
        expo = [0] * k
        for i in combo:
            expo[i] += 1
        coeff = math.factorial(a)
        for e in expo:
            coeff //= math.factorial(e)
        terms[tuple(e + m for e in expo)] = scale * coeff
    return polyring.MultiPoly(k, terms)


def _copies(workload, key):
    return range(1 if key in SINGLE[workload] else COPIES)


def _grid():
    for k, n in LADDER:
        for m in range(n - k + 1):
            yield k, n, m


# -- schubert-ladder ----------------------------------------------------------


def schubert_ladder(mods, rng, workdir):
    polyring, localize = mods["polyring"], mods["localize"]
    items = []
    for k, n, m in _grid():
        for copy in _copies("schubert-ladder", (k, n, m)):
            c = scale_factor(rng)
            phi = _schubert_class(polyring, k, n, m, c)
            expected = c * oracles.grassmannian_number(k, n, m)
            items.append(Item(
                "gr(%d,%d)m%d#%d" % (k, n, m, copy),
                {"k": k, "n": n, "m": m, "a": k * (n - k) - k * m, "scale": str(c)},
                lambda k=k, n=n, phi=phi: localize.grassmannian_pairing(k, n, phi),
                _expect_equal(expected),
            ))
    for n in range(2, 9):
        for copy in _copies("schubert-ladder", (1, n)):
            c = scale_factor(rng)
            phi = polyring.MultiPoly.variable(1, 0, n - 1) * c
            items.append(Item(
                "flag(1,%d)#%d" % (n, copy),
                {"k": 1, "n": n, "exponent": n - 1, "scale": str(c)},
                lambda n=n, phi=phi: localize.flag_pairing(1, n, phi),
                _expect_equal(c),
            ))
    return items


# -- jk-pairing ---------------------------------------------------------------


def _uk_model(mods, k, n):
    """U(k) acting on k x n matrices: one fixed point, S_k Weyl group."""
    polyring, groupdata, localize = mods["polyring"], mods["groupdata"], mods["localize"]
    roots = [
        [1 if c == i else -1 if c == j else 0 for c in range(k)]
        for i in range(k) for j in range(i + 1, k)
    ]
    gens = []
    for i in range(k - 1):
        perm = list(range(k))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(tuple(perm))
    group = groupdata.GroupData(
        rank=k, positive_roots=roots, weyl_generators=gens,
        weyl_order=math.factorial(k),
    )
    unit = [[int(c == i) for c in range(k)] for i in range(k)]
    origin = localize.FixedPointComponent(
        "origin", [(polyring.LinearForm(u), n) for u in unit], is_min=True
    )
    cone = groupdata.ConeChoice(tuple(range(k, 0, -1)))
    return group, origin, cone


def _three_routes(mods, group, origin, cone, cls):
    groupdata, localize = mods["groupdata"], mods["localize"]
    problem = localize.PairingProblem(
        group=group, fixed_points=[origin], class_eta=cls, cone=cone
    )
    reductive = localize.integrate_reductive(problem)
    nonreductive = localize.integrate_nonreductive(problem)
    torus = localize.torus_pairing_fn([origin], cone=cone)
    abelianized = localize.integrate_abelianized(
        torus, cls, groupdata.euler_class_nonreductive(group), group.weyl_order
    )
    return reductive, nonreductive, abelianized


def _graded_datasets(mods, c):
    """The P^1 and P^3 datasets of the non-reductive demo, class scaled by c."""
    polyring, groupdata, localize = mods["polyring"], mods["groupdata"], mods["localize"]
    LinearForm, MultiPoly = polyring.LinearForm, polyring.MultiPoly
    FPC = localize.FixedPointComponent
    circle = groupdata.GroupData(rank=1, grading=(1,))
    p1 = localize.PairingProblem(
        group=circle,
        fixed_points=[
            FPC("min", [(LinearForm([1]), 1)], lambda_weight=0, is_min=True),
            FPC("max", [(LinearForm([-1]), 1)], lambda_weight=1),
        ],
        class_eta=MultiPoly.constant(1, c),
    )
    p1_min = localize.PairingProblem(
        group=circle, fixed_points=p1.minimal_components(), class_eta=p1.class_eta
    )
    ext = groupdata.GroupData(rank=1, unipotent_weights=[LinearForm([2])], grading=(1,))
    minimal = FPC(
        "w=-3",
        [(LinearForm([6]), 1), (LinearForm([4]), 1), (LinearForm([2]), 1)],
        restriction=MultiPoly.variable(1, 0) * (3 * c),
        lambda_weight=-3,
        is_min=True,
    )
    p3 = localize.PairingProblem(group=ext, fixed_points=[minimal], normalization=2)
    return (("P1", p1, p1_min, c), ("P3", p3, p3, c / 4))


def _random_integrand(polyring, rng, off_wall=False):
    """A random rank-2 integrand of degree -2, as in acceptance criterion 9."""
    LinearForm, MultiPoly = polyring.LinearForm, polyring.MultiPoly
    nden = rng.randint(2, 4)
    den = []
    for _ in range(nden):
        a = rng.choice([1, 2, 3]) if off_wall else rng.choice([0, 1, 2])
        b = rng.randint(-3, 3)
        if a == 0 and b == 0:
            b = 1
        den.append((LinearForm([a, b]), 1))
    deg = nden - 2
    terms = {(i, deg - i): Fraction(rng.randint(-6, 6)) for i in range(deg + 1)}
    num = MultiPoly(2, terms)
    if num.is_zero():
        num = MultiPoly(2, {(deg, 0): 1})
    return polyring.RationalFn(num, den)


def _residue_batch(mods, rng):
    """Linearity, degree selection and first-form shear covariance: the
    residue properties that acceptance criterion 9 pins."""
    polyring, residue, groupdata = mods["polyring"], mods["residue"], mods["groupdata"]
    LinearForm, MultiPoly, RationalFn = polyring.LinearForm, polyring.MultiPoly, polyring.RationalFn

    def jk(fn, cone=None, basis=None):
        return residue.jk_residue(residue.ResidueProblem(integrand=fn, cone=cone, basis=basis))

    z0, z1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    items = []
    for i in range(RESIDUE_BATCH):
        f, g = _random_integrand(polyring, rng), _random_integrand(polyring, rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        h = f * a + g * b

        def check(answer, a=a, b=b):
            combined, fv, gv = answer
            if combined != a * fv + b * gv:
                return "jk(a f + b g) = %s but a jk(f) + b jk(g) = %s" % (combined, a * fv + b * gv)
            return None

        items.append(Item(
            "res-linear-%02d" % i,
            {"f": f.render(), "g": g.render(), "a": str(a), "b": str(b)},
            lambda f=f, g=g, h=h: (jk(h), jk(f), jk(g)),
            check,
        ))
    for i in range(RESIDUE_BATCH):
        f = _random_integrand(polyring, rng)
        shift = rng.randint(-3, 3)
        bad = f * MultiPoly(2, {(1, 0): 1, (0, 1): shift})
        items.append(Item(
            "res-degree-%02d" % i,
            {"integrand": bad.render()},
            lambda bad=bad: jk(bad),
            _expect_equal(0),
        ))
    for i in range(RESIDUE_BATCH):
        if i % 2 == 0:
            a = rng.randint(2, 4)
            u = rng.randint(0, 1) if a >= 3 else 0
            phi = (z0 * z1) ** u * (z0 + z1) ** (2 * a - 4 - 2 * u)
            f = RationalFn(
                phi * (z0 - z1) * (z1 - z0),
                [(LinearForm([1, 0]), a), (LinearForm([0, 1]), a)],
            )
            cone, base = None, None
        else:
            f = _random_integrand(polyring, rng, off_wall=True)
            cone = groupdata.ConeChoice((1, 0))
            base = (LinearForm([1, 0]), LinearForm([0, 1]))
        m = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        sheared = (LinearForm([1, m]), LinearForm([0, 1]))

        def check(answer):
            if answer[0] != answer[1]:
                return "standard basis gives %s, sheared basis gives %s" % answer
            return None

        items.append(Item(
            "res-shear-%02d" % i,
            {"integrand": f.render(), "cone": None if cone is None else [str(x) for x in cone.xi],
             "shear": str(m)},
            lambda f=f, cone=cone, base=base, sheared=sheared: (
                jk(f, cone, base), jk(f, cone, sheared)),
            check,
        ))
    return items


def jk_pairing(mods, rng, workdir):
    items = []
    models = {}
    for k, n, m in _grid():
        if (k, n, m) in JK_SKIP:
            continue
        if (k, n) not in models:
            models[k, n] = _uk_model(mods, k, n)
        group, origin, cone = models[k, n]
        for copy in _copies("jk-pairing", (k, n, m)):
            c = scale_factor(rng)
            cls = _schubert_class(mods["polyring"], k, n, m, c)
            expected = c * oracles.grassmannian_number(k, n, m)
            items.append(Item(
                "routes-gr(%d,%d)m%d#%d" % (k, n, m, copy),
                {"k": k, "n": n, "m": m, "a": k * (n - k) - k * m, "scale": str(c)},
                lambda g=group, o=origin, cone=cone, cls=cls: _three_routes(mods, g, o, cone, cls),
                _expect_equal((expected,) * 3),
            ))
    localize = mods["localize"]
    for label, uhat_problem, general_problem, expected in _graded_datasets(mods, scale_factor(rng)):
        items.append(Item(
            "graded-%s" % label,
            {"dataset": label, "expected": str(expected)},
            lambda p=uhat_problem, q=general_problem: (
                localize.integrate_uhat(p), localize.integrate_nonreductive(q)),
            _expect_equal((expected, expected)),
        ))
    return items + _residue_batch(mods, rng)


# -- ring-betti ---------------------------------------------------------------


def ring_betti(mods, rng, workdir):
    polyring, groupdata, cohring = mods["polyring"], mods["groupdata"], mods["cohring"]
    items = []
    for k, n in RING_LADDER:
        top = k * (n - 1)
        _, invariant, annihilator = oracles.box_ring_tables(k, n)
        expected = (
            tuple(oracles.grassmannian_series(k, n, 2 * top)),
            tuple(invariant),
            tuple(annihilator),
        )
        z = [polyring.MultiPoly.variable(k, i) for i in range(k)]
        for copy in _copies("ring-betti", (k, n)):
            scalars = [scale_factor(rng) for _ in range(k)]
            relations = [v ** n * s for v, s in zip(z, scalars)]
            sign = rng.choice((1, -1))
            roots = [
                [sign if c == i else -sign if c == j else 0 for c in range(k)]
                for i in range(k) for j in range(i + 1, k)
            ]
            if k >= 3 and rng.random() < 0.5:
                gens = [(1, 0) + tuple(range(2, k)), tuple(range(1, k)) + (0,)]
            else:
                gens = []
                for i in range(k - 1):
                    perm = list(range(k))
                    perm[i], perm[i + 1] = perm[i + 1], perm[i]
                    gens.append(tuple(perm))
            group = groupdata.GroupData(
                rank=k, positive_roots=roots, weyl_generators=gens,
                weyl_order=math.factorial(k),
            )

            def run(k=k, relations=relations, top=top, group=group):
                ring = cohring.GradedRingPresentation.polynomial_quotient(k, relations, top)
                weyl = (group.weyl_generators, group.weyl_order)
                series = cohring.quotient_presentation_betti(ring, weyl, group)
                inv = cohring.invariant_basis(ring, weyl)
                ann = cohring.annihilator_dims(ring, groupdata.euler_class_nonreductive(group))
                return (
                    tuple(series.coeffs),
                    tuple(len(inv.get(d, [])) for d in range(top + 1)),
                    tuple(ann),
                )

            items.append(Item(
                "ring(%d,%d)#%d" % (k, n, copy),
                {"k": k, "n": n, "relation_scalars": [str(s) for s in scalars],
                 "root_sign": sign, "generators": [list(g) for g in gens]},
                run,
                _expect_equal(expected),
            ))
    return items


# -- cli-batch ----------------------------------------------------------------


def _terms(poly):
    return [
        {"coeff": oracles.rational_text(c), "exp": list(e)}
        for e, c in sorted(poly.terms.items())
    ]


U2_GROUP = {
    "rank": 2, "positive_roots": [["1", "-1"]], "unipotent_weights": [],
    "weyl_generators": [[1, 0]], "weyl_order": 2,
}


def _u2_pairing(mode, n, cls_terms, cone=("2", "1")):
    return {
        "mode": mode,
        "group": U2_GROUP,
        "fixed_points": [{
            "name": "origin",
            "normal_weights": [[["1", "0"], n], [["0", "1"], n]],
            "lambda_weight": "0",
            "is_min": True,
        }],
        "class": cls_terms,
        "cone": list(cone),
    }


def _cli_problems(mods, rng):
    """Problem documents for all eleven modes, with their expected results.

    Returns ``{mode: (document, expected result)}``; a result is
    ``("rational", value)`` or ``("series", coeffs, bound, extras)``.
    """
    polyring = mods["polyring"]
    MultiPoly = polyring.MultiPoly
    docs = {}

    def gr2():
        n = rng.randint(4, 6)
        m = rng.randint(0, n - 2)
        c = scale_factor(rng)
        cls = _schubert_class(polyring, 2, n, m, c)
        return n, m, c, cls, c * oracles.grassmannian_number(2, n, m)

    for mode in ("pair_reductive", "pair_nonreductive", "pair_abelianized"):
        n, m, c, cls, value = gr2()
        docs[mode] = (_u2_pairing(mode, n, _terms(cls)), ("rational", value))
    c = scale_factor(rng)
    docs["pair_uhat"] = ({
        "mode": "pair_uhat",
        "group": {"rank": 1, "grading": ["1"]},
        "fixed_points": [
            {"name": "min", "normal_weights": [[["1"], 1]], "lambda_weight": "0", "is_min": True},
            {"name": "max", "normal_weights": [[["-1"], 1]], "lambda_weight": "1", "is_min": False},
        ],
        "class": [{"coeff": oracles.rational_text(c), "exp": [0]}],
    }, ("rational", c))
    for mode in ("betti_uhat", "betti_H"):
        dim_zmin = rng.randint(0, 2)
        dim_u = rng.randint(1, 3)
        dim_x = dim_zmin + dim_u + rng.randint(1, 4)
        bound = 2 * dim_x
        zmin = [rng.randint(0, 2) for _ in range(rng.randint(1, bound + 1))]
        zmin[0] = 1
        coeffs = oracles.series_product(
            zmin + [0] * (bound + 1 - len(zmin)),
            oracles.kernel_series(dim_x - dim_u - dim_zmin, bound), bound)
        docs[mode] = ({
            "mode": mode,
            "dims": {"dim_x": dim_x, "dim_u": dim_u, "dim_zmin": dim_zmin},
            "zmin_series": zmin,
            "options": {"truncation_bound": bound},
        }, ("series", coeffs, bound, {}))
    bound = rng.randint(6, 10)
    strata = []
    total = [0] * (bound + 1)
    for _ in range(rng.randint(2, 4)):
        codim = rng.randint(0, bound // 2)
        series = [rng.randint(0, 2) for _ in range(rng.randint(1, bound + 1))]
        strata.append({"codim": codim, "series": series})
        for e, x in enumerate(series):
            if e + 2 * codim <= bound:
                total[e + 2 * codim] += x
    docs["morse"] = ({
        "mode": "morse", "strata": strata, "total_series": total,
        "options": {"truncation_bound": bound},
    }, ("series", total, bound, {
        "perfection": {"perfect": True, "remainder": "0", "nonnegative": True}}))
    n = rng.randint(3, 6)
    scalars = [scale_factor(rng), scale_factor(rng)]
    top = 2 * (n - 1)
    graded, invariant, annihilator = oracles.box_ring_tables(2, n)
    docs["ring"] = ({
        "mode": "ring",
        "group": {"rank": 2, "positive_roots": [["1", "-1"]],
                  "weyl_generators": [[1, 0]], "weyl_order": 2},
        "ring": {
            "nvars": 2,
            "relations": [
                [{"coeff": oracles.rational_text(scalars[0]), "exp": [n, 0]}],
                [{"coeff": oracles.rational_text(scalars[1]), "exp": [0, n]}],
            ],
            "top_degree": top,
        },
    }, ("series", oracles.grassmannian_series(2, n, 2 * top), 2 * top, {"tables": {
        "graded_dims": graded, "invariant_dims": invariant, "annihilator_dims": annihilator}}))
    n, m, c, cls, value = gr2()
    euler = (MultiPoly.variable(2, 0) - MultiPoly.variable(2, 1)) * (
        MultiPoly.variable(2, 1) - MultiPoly.variable(2, 0))
    docs["residue"] = ({
        "mode": "residue",
        "rank": 2,
        "integrand": {
            "numerator": _terms(cls * euler),
            "denominator": [[["1", "0"], n], [["0", "1"], n]],
        },
        "cone": ["2", "1"],
    }, ("rational", 2 * value))
    n, m, c, cls, value = gr2()
    docs["grassmannian"] = (
        {"mode": "grassmannian", "k": 2, "n": n, "phi": _terms(cls)}, ("rational", value))
    n = rng.randint(2, 8)
    c = scale_factor(rng)
    docs["flag"] = ({
        "mode": "flag", "k": 1, "n": n,
        "phi": [{"coeff": oracles.rational_text(c), "exp": [n - 1]}],
    }, ("rational", c))
    return docs


def _render(expected, mode, fmt):
    """The stdout the CLI must print for an expected result."""
    if expected[0] == "rational":
        value = expected[1]
        if fmt == "json":
            return {"kind": "rational", "mode": mode, "value": oracles.rational_text(value)}
        text = oracles.rational_latex(value) if fmt == "latex" else oracles.rational_text(value)
        return text + "\n"
    _, coeffs, bound, extras = expected
    if fmt == "json":
        doc = {"kind": "series", "mode": mode, "coeffs": list(coeffs), "bound": bound}
        doc.update(extras)
        return doc
    lines = [oracles.series_text(coeffs, latex=fmt == "latex")]
    if fmt == "text":
        for name, values in extras.get("tables", {}).items():
            lines.append("%s: %s" % (name, " ".join(str(v) for v in values)))
        if "perfection" in extras:
            info = extras["perfection"]
            lines.append("perfect: %s, remainder: %s, nonnegative: %s"
                         % (info["perfect"], info["remainder"], info["nonnegative"]))
    return "\n".join(lines) + "\n"


def _cli_check(code, stdout=None, stderr_lines=(), error_has=None):
    """Check (exit code, stdout, stderr) of one CLI call.

    ``stdout`` is a string compared exactly, a dict compared with the parsed
    JSON output, or None for "must be empty".  Error calls must print exactly
    one stderr line containing ``error_has``.
    """

    def check(answer):
        got_code, out, err = answer
        if got_code != code:
            return "exit %s, expected %s; stderr %r" % (got_code, code, err[-200:])
        if "Traceback" in err:
            return "traceback on stderr"
        if isinstance(stdout, dict):
            try:
                doc = json.loads(out)
            except ValueError:
                return "stdout is not JSON: %r" % out[:200]
            if doc != stdout:
                return "json %r, expected %r" % (doc, stdout)
        elif (stdout or "") != out:
            return "stdout %r, expected %r" % (out[:200], (stdout or "")[:200])
        if error_has is not None:
            lines = err.splitlines()
            if len(lines) != 1 or error_has not in lines[0]:
                return "stderr %r should be one line containing %r" % (err[:200], error_has)
        elif err.splitlines() != list(stderr_lines):
            return "stderr %r, expected %r" % (err[:200], list(stderr_lines))
        return None

    return check


def _child_env(src):
    env = dict(os.environ)
    env.pop("NRQUOT_OUTPUT_DIR", None)
    env["PYTHONPATH"] = src
    return env


def _child(argv, cwd, env):
    proc = subprocess.run(
        [sys.executable, "-m", "nrquot"] + argv,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _in_process(cli, argv):
    """The same call through ``cli.main`` in this process, for the trace."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_batch(mods, rng, workdir):
    cli = mods["cli"]
    os.makedirs(workdir, exist_ok=True)
    env = _child_env(mods["src"])
    docs = _cli_problems(mods, rng)

    def write(stem, content):
        path = os.path.join(workdir, stem + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content if isinstance(content, str) else json.dumps(content, indent=1))
        return path

    calls = []  # (name, argv, check, mode)
    paths = {}
    for mode, (doc, expected) in docs.items():
        paths[mode] = write(mode, doc)
        for fmt in ("text", "json", "latex"):
            calls.append(("%s.%s" % (mode, fmt), [paths[mode], "--format", fmt],
                          _cli_check(0, _render(expected, mode, fmt)), mode))
    calls.append(("pair_reductive.check-invariants",
                  [paths["pair_reductive"], "--format", "json", "--check-invariants"],
                  _cli_check(0, _render(docs["pair_reductive"][1], "pair_reductive", "json"),
                             ["invariant check: linearity in the class ok"]), "pair_reductive"))
    calls.append(("betti_uhat.check-invariants",
                  [paths["betti_uhat"], "--check-invariants"],
                  _cli_check(0, _render(docs["betti_uhat"][1], "betti_uhat", "text"),
                             ["invariant check: nonnegative coefficients ok"]), "betti_uhat"))
    for mode in ("grassmannian", "ring"):
        rendered = json.dumps(_render(docs[mode][1], mode, "json"), sort_keys=True, indent=2) + "\n"
        calls.append(("reemit.%s" % mode, [write("result_" + mode, rendered), "--reemit"],
                      _cli_check(0, rendered), None))
    n = rng.randint(4, 6)
    z0 = mods["polyring"].MultiPoly.variable(2, 0)
    broken = {
        "bad_json": ('{"mode": "grassmannian", "k": 2, "n": %d,' % n, 1, "invalid JSON"),
        "bad_mode": ({"mode": "pair_everything", "k": 2}, 1, "$.mode"),
        "bad_exponent": ({"mode": "grassmannian", "k": 2, "n": n,
                          "phi": [{"coeff": "1", "exp": [1, 1, 0]}]}, 1, "$.phi[0].exp"),
        "bad_rank": (dict(_u2_pairing("pair_reductive", n, []),
                          group=dict(U2_GROUP, rank="two")), 1, "$.group.rank"),
        "not_symmetric": ({"mode": "grassmannian", "k": 2, "n": n,
                           "phi": _terms(z0 ** (2 * n - 4))}, 2, "not symmetric"),
        "cone_on_wall": (_u2_pairing("pair_reductive", n, docs["pair_reductive"][0]["class"],
                                     cone=("1", "0")), 2, "wall"),
    }
    for stem, (doc, code, fragment) in broken.items():
        calls.append(("malformed.%s" % stem, [write(stem, doc)],
                      _cli_check(code, None, error_has=fragment), None))
    calls.append(("malformed.reemit_kind",
                  [write("bad_result", {"kind": "matrix"}), "--reemit"],
                  _cli_check(1, None, error_has="$.kind"), None))
    return [
        Item(name, {"argv": [os.path.basename(a) if a.endswith(".json") else a for a in argv]},
             lambda argv=argv: _child(argv, workdir, env), check, mode=mode,
             replay=lambda argv=argv: _in_process(cli, argv))
        for name, argv, check, mode in calls
    ]


WORKLOADS = {
    "schubert-ladder": schubert_ladder,
    "jk-pairing": jk_pairing,
    "ring-betti": ring_betti,
    "cli-batch": cli_batch,
}

# One cheap item per workload runs at set-up, untimed, so that the first
# timed item does not pay for first-call work; set-up stays mostly import.
WARMUP = {
    "schubert-ladder": "flag(1,2)#0",
    "jk-pairing": "graded-P1",
    "ring-betti": "ring(1,3)#0",
    "cli-batch": "flag.text",
}


def build(name, mods, seed, workdir):
    """The workload's items in their seeded order."""
    rng = random.Random("%s:%d" % (name, seed))
    items = WORKLOADS[name](mods, rng, workdir)
    rng.shuffle(items)
    return items
