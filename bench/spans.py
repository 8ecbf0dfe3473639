"""Spans around the calls into each layer, installed from outside the package.

A :class:`Tracer` replaces each target function or method with a wrapper
that times the call and records its parent span, then restores the
originals.  A module-level function is also rebound in every module of the
package that imported it by name (``localize.jk_residue``,
``cli.invariant_basis``, ...), so no consumer keeps calling the unwrapped
original.  Spans are aggregated per name as they close (calls, total time
of the outermost call, self time = duration minus child spans); only these
sums are kept, so memory does not grow with the number of calls.

``exactnum.as_fraction`` runs about a million times per large pairing, so
its wrapper only counts calls.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "nrquot"

# (module, class or None, attribute) of every wrapped callable.
TARGETS = (
    ("exactnum", None, "as_fraction"),
    ("polyring", "MultiPoly", "__init__"),
    ("polyring", "MultiPoly", "__mul__"),
    ("polyring", "MultiPoly", "__add__"),
    ("polyring", "MultiPoly", "substitute_linear"),
    ("polyring", None, "weyl_act"),
    ("residue", None, "residue_at_zero"),
    ("residue", None, "residue_at_infinity"),
    ("residue", None, "res_plus"),
    ("residue", None, "iterated_residue_at_zero"),
    ("residue", None, "jk_residue"),
    ("localize", None, "grassmannian_pairing"),
    ("localize", None, "flag_pairing"),
    ("localize", None, "integrate_reductive"),
    ("localize", None, "integrate_nonreductive"),
    ("localize", None, "integrate_abelianized"),
    ("localize", None, "integrate_uhat"),
    ("localize", "FixedPointComponent", "term"),
    ("groupdata", "GroupData", "weyl_elements"),
    ("groupdata", None, "euler_class_nonreductive"),
    ("cohring", "GradedRingPresentation", "polynomial_quotient"),
    ("cohring", "GradedRingPresentation", "reduce"),
    ("cohring", None, "invariant_basis"),
    ("cohring", None, "annihilator_dims"),
    ("cohring", None, "quotient_presentation_betti"),
    ("_linalg", None, "rref"),
    ("_linalg", None, "rank"),
    ("_linalg", None, "independent_subset"),
    ("betti", None, "poincare_uhat"),
    ("betti", None, "poincare_H"),
    ("betti", None, "morse_assemble"),
    ("problemfile", None, "parse"),
    ("cli", None, "run"),
    ("cli", None, "render_result"),
    ("cli", None, "reemit"),
)
COUNT_ONLY = {"exactnum.as_fraction"}


def target_name(module, cls, attr):
    return ".".join(p for p in (module, cls, attr) if p)


def package_modules():
    """Short name -> module for the package and every loaded submodule."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == PACKAGE:
            out[PACKAGE] = module
        elif name.startswith(PACKAGE + "."):
            out[name[len(PACKAGE) + 1:]] = module
    return out


def _coeff_bits(poly):
    return max(
        (max(abs(c.numerator).bit_length(), c.denominator.bit_length())
         for c in poly.terms.values()),
        default=0,
    )


# -- size counters, computed after a call returns, with tracing paused --------


def _after_mul(t, args, kwargs, result, parent):
    left, right = args[0], args[1]
    if result is NotImplemented:
        return
    rhs = len(right.terms) if isinstance(right, type(left)) else 1
    t.counters["mul.term_products"] += len(left.terms) * rhs
    t.counters["mul.result_terms"] += len(result.terms)


def _after_add(t, args, kwargs, result, parent):
    if result is not NotImplemented:
        t.counters["add.terms_copied"] += len(args[0].terms)


def _after_residue(t, args, kwargs, result, parent):
    var = args[1] if len(args) > 1 else kwargs["var"]
    terms, bits = len(result.num.terms), _coeff_bits(result.num)
    for key in ("", ".var%d" % var):
        t.maxima["out_terms" + key] = max(t.maxima["out_terms" + key], terms)
        t.maxima["coeff_bits" + key] = max(t.maxima["coeff_bits" + key], bits)


def _after_invariant_basis(t, args, kwargs, result, parent):
    ring = args[0]
    t.counters["invariant.kept"] += sum(len(v) for v in result.values())
    t.counters["invariant.projected"] += sum(
        ring.dimension(d) for d in range(ring.top_degree + 1)
    )


def _after_rref(t, args, kwargs, result, parent):
    rows = args[0]
    if rows:
        t.counters["rref.cells"] += len(rows) * len(rows[0])


def _after_rank(t, args, kwargs, result, parent):
    if parent == "_linalg.independent_subset":
        t.counters["subset.rank_calls"] += 1


def _after_subset(t, args, kwargs, result, parent):
    t.counters["subset.scanned"] += len(args[0])


AFTER = {
    "polyring.MultiPoly.__mul__": _after_mul,
    "polyring.MultiPoly.__add__": _after_add,
    "residue.residue_at_zero": _after_residue,
    "residue.residue_at_infinity": _after_residue,
    "cohring.invariant_basis": _after_invariant_basis,
    "_linalg.rref": _after_rref,
    "_linalg.rank": _after_rank,
    "_linalg.independent_subset": _after_subset,
}


class Tracer:
    """Install wrappers, aggregate spans, remove wrappers, check both steps."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.top_level_s = 0.0
        self.absent = {}  # target name -> reason
        self._stack = []  # [name, child_s] of open spans
        self._depth = defaultdict(int)
        self._paused = False
        self._patches = []  # (owner, attribute, original)
        self._originals = {}  # id -> target name

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if not self._paused:
                    stats[0] += 1
                return fn(*args, **kwargs)

            counted.__bench_span__ = name
            return counted
        after = AFTER.get(name)
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            outer = depth[name] == 0
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[name] -= 1
                stack.pop()
                stats[0] += 1
                if outer:
                    stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
            if after is not None:
                self._paused = True
                try:
                    after(self, args, kwargs, result, parent)
                finally:
                    self._paused = False
            return result

        timed.__bench_span__ = name
        return timed

    def _set(self, owner, attr, value, original):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every target and rebind consumers; returns binding errors."""
        modules = package_modules()
        for module_name, cls_name, attr in TARGETS:
            name = target_name(module_name, cls_name, attr)
            owner = modules.get(module_name)
            if owner is not None and cls_name is not None:
                owner = vars(owner).get(cls_name)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent[name] = "not defined in this version of the package"
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__))
            else:
                wrapper = self._wrap(name, original)
            self._originals[id(original)] = name
            self._set(owner, attr, wrapper, original)
            if cls_name is None:
                for consumer in modules.values():
                    for key, value in list(vars(consumer).items()):
                        if value is original:
                            self._set(consumer, key, wrapper, original)
        return self._stale(modules)

    def _stale(self, modules):
        errors = []
        for short, module in modules.items():
            for key, value in vars(module).items():
                if id(value) in self._originals:
                    errors.append("%s.%s still bound to the unwrapped %s"
                                  % (short, key, self._originals[id(value)]))
        for owner, attr, original in self._patches:
            if not hasattr(_unwrap(vars(owner).get(attr)), "__bench_span__"):
                errors.append("%s.%s was not patched" % (owner.__name__, attr))
        return errors

    def uninstall(self):
        """Restore every original; returns wrappers that are still bound."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        errors = []
        for short, module in package_modules().items():
            for key, value in vars(module).items():
                if hasattr(_unwrap(value), "__bench_span__"):
                    errors.append("%s.%s is still a wrapper" % (short, key))
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if hasattr(_unwrap(member), "__bench_span__"):
                            errors.append("%s.%s.%s is still a wrapper" % (short, key, attr))
        return errors

    # -- results ---------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0])[0]


def _unwrap(value):
    return getattr(value, "__func__", value)
