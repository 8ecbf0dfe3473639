import contextlib
import copy
import importlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nrquot
from nrquot import cli, groupdata, localize, problemfile, schema
from nrquot.exactnum import TruncSeries

REPO = Path(__file__).resolve().parent.parent
PROBLEMS = REPO / "problems"

# One small problem for each mode that problems/ has no sample of.
MODE_DOCS = {
    "grassmannian": {
        "mode": "grassmannian",
        "k": 2,
        "n": 4,
        "phi": [
            {"coeff": "1", "exp": [4, 0]},
            {"coeff": "4", "exp": [3, 1]},
            {"coeff": "6", "exp": [2, 2]},
            {"coeff": "4", "exp": [1, 3]},
            {"coeff": "1", "exp": [0, 4]},
        ],
    },
    "pair_uhat": {
        "mode": "pair_uhat",
        "group": {"rank": 1, "grading": ["1"]},
        "fixed_points": [
            {
                "name": "min",
                "normal_weights": [[["1"], 1]],
                "lambda_weight": "0",
                "is_min": True,
            },
            {
                "name": "max",
                "normal_weights": [[["-1"], 1]],
                "lambda_weight": "1",
                "is_min": False,
            },
        ],
        "class": [{"coeff": "1", "exp": [0]}],
    },
    "pair_nonreductive": {
        "mode": "pair_nonreductive",
        "group": {"rank": 1, "unipotent_weights": [["2"]], "grading": ["1"]},
        "fixed_points": [
            {
                "name": "--",
                "normal_weights": [[["2"], 1], [["2"], 1]],
                "lambda_weight": "-2",
                "is_min": True,
            }
        ],
        "class": [{"coeff": "1", "exp": [0]}],
        "options": {"normalization": "2"},
    },
    "betti_H": {
        "mode": "betti_H",
        "dims": {"dim_x": 6, "dim_u": 3, "dim_zmin": 1},
        "zmin_series": [1],
        "options": {"truncation_bound": 12},
    },
    "morse": {
        "mode": "morse",
        "strata": [
            {"codim": 0, "series": [1, 0, 1]},
            {"codim": 2, "series": [1]},
        ],
        "total_series": [1, 0, 1, 0, 1],
        "options": {"truncation_bound": 4},
    },
    "ring": {
        "mode": "ring",
        "group": {
            "rank": 2,
            "positive_roots": [["1", "-1"]],
            "weyl_generators": [[1, 0]],
            "weyl_order": 2,
        },
        "ring": {
            "nvars": 2,
            "relations": [
                [{"coeff": "1", "exp": [3, 0]}],
                [{"coeff": "1", "exp": [0, 3]}],
            ],
            "top_degree": 4,
        },
    },
    "residue": {
        "mode": "residue",
        "rank": 1,
        "integrand": {
            "numerator": [{"coeff": "1", "exp": [2]}],
            "denominator": [[["1"], 3]],
        },
    },
}


MOMENT_CHECK = {
    "point": [[1.0, 0.0], [0.0, 0.0]],
    "matrix": [
        [[0.0, 6.283185307179586], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, -6.283185307179586]],
    ],
    "weight": 1,
}


def moment_problem(**fields):
    """The flag sample with one moment check; a field given as None is removed."""
    doc = json.loads((PROBLEMS / "flag_pairing.json").read_text())
    check = dict(MOMENT_CHECK, **fields)
    doc["moment_checks"] = [{k: v for k, v in check.items() if v is not None}]
    return doc


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "nrquot.cli", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=timeout,
    )


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_sample_grassmannian_pairing():
    out = run_cli(str(PROBLEMS / "gr24_pairing.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "2"


def test_sample_borel_betti():
    out = run_cli(str(PROBLEMS / "borel_sl3_betti.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "1 + t^2 + t^4"


def test_sample_flag_pairing():
    out = run_cli(str(PROBLEMS / "flag_pairing.json"))
    assert out.returncode == 0
    assert out.stdout.strip() == "-1"


def test_grassmannian_quick_mode(tmp_path):
    doc = MODE_DOCS["grassmannian"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout.strip() == "2"


def test_latex_and_json_formats():
    latex = run_cli(str(PROBLEMS / "borel_sl3_betti.json"), "--format", "latex")
    assert latex.stdout.strip() == "1 + t^{2} + t^{4}"
    out = run_cli(str(PROBLEMS / "gr24_pairing.json"), "--format", "json")
    doc = json.loads(out.stdout)
    assert doc == {"kind": "rational", "mode": "pair_reductive", "value": "2"}


def test_json_roundtrip_bit_for_bit(tmp_path):
    for sample in ("gr24_pairing.json", "borel_sl3_betti.json", "flag_pairing.json"):
        out = run_cli(str(PROBLEMS / sample), "--format", "json")
        assert out.returncode == 0
        path = tmp_path / "out.json"
        path.write_text(out.stdout)
        re_emitted = run_cli(str(path), "--reemit")
        assert re_emitted.returncode == 0
        assert re_emitted.stdout == out.stdout


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"coeffs": ["1/2", 0, 1]}, "$.coeffs[0]"),
        ({"coeffs": [1, 0, 1.5]}, "$.coeffs[2]"),
        ({"coeffs": 5}, "$.coeffs"),
        ({"coeffs": None}, "$.coeffs"),
        ({"coeffs": [1, 0, 1, 0, 1, 0]}, "$.coeffs"),
        ({"coeffs": [1, -1, 1]}, "$.coeffs[1]"),
        ({"bound": -1}, "$.bound"),
        ({"bound": "4"}, "$.bound"),
        ({"bound": None}, "$.bound"),
    ],
    ids=[
        "rational-string", "float", "scalar", "no-coeffs", "too-many", "negative",
        "negative-bound", "string-bound", "no-bound",
    ],
)
def test_reemit_rejects_malformed_series(tmp_path, fields, path):
    doc = {"kind": "series", "mode": "betti_uhat", "coeffs": [1, 0, 1], "bound": 4}
    doc.update(fields)
    doc = {k: v for k, v in doc.items() if v is not None}
    out = run_cli(write_problem(tmp_path, doc), "--reemit")
    assert out.returncode == 1
    assert out.stderr.startswith("error: %s: " % path)
    assert out.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "doc, path",
    [([1, 2], "$"), ({"kind": "rational", "value": [1]}, "$.value")],
    ids=["not-an-object", "array-value"],
)
def test_reemit_rejects_malformed_document(tmp_path, doc, path):
    out = run_cli(write_problem(tmp_path, doc), "--reemit")
    assert out.returncode == 1
    assert out.stderr.startswith("error: %s: " % path)
    assert out.stderr.count("\n") == 1


PERFECTION = {"perfect": True, "remainder": "0", "nonnegative": True}
SERIES_RESULT = {"kind": "series", "coeffs": [1, 0, 1], "bound": 4}
RING_RESULT = dict(SERIES_RESULT, mode="ring", tables={"graded_dims": [1, 2, 1]})
MORSE_RESULT = dict(SERIES_RESULT, mode="morse", perfection=PERFECTION)


def reemit_error(capsys, tmp_path, base, fields):
    """The stderr of --reemit on ``base`` updated by ``fields``, where a field
    given as None is removed; it must fail with exit 1 and print nothing."""
    doc = {k: v for k, v in dict(base, **fields).items() if v is not None}
    code, out, err = run_main(capsys, tmp_path, doc, "--reemit")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"mode": [1, 2]}, "$.mode"),
        ({"mode": "pair_everything"}, "$.mode"),
        ({"mode": None}, "$.mode"),
        ({"tables": 5}, "$.tables"),
        ({"tables": {"betti": [1]}}, "$.tables.betti"),
        ({"tables": {"graded_dims": 3}}, "$.tables.graded_dims"),
        ({"tables": {"graded_dims": [1, 2, -1]}}, "$.tables.graded_dims[2]"),
        ({"tables": {"annihilator_dims": [1, "2"]}}, "$.tables.annihilator_dims[1]"),
        ({"tables": {"invariant_dims": [True]}}, "$.tables.invariant_dims[0]"),
        ({"perfection": [1]}, "$.perfection"),
        ({"perfection": {"perfect": True}}, "$.perfection"),
        ({"perfection": dict(PERFECTION, extra=1)}, "$.perfection"),
        ({"perfection": dict(PERFECTION, perfect=1)}, "$.perfection.perfect"),
        ({"perfection": dict(PERFECTION, remainder=0)}, "$.perfection.remainder"),
        ({"perfection": dict(PERFECTION, nonnegative="yes")}, "$.perfection.nonnegative"),
    ],
)
def test_reemit_rejects_malformed_mode_tables_and_perfection(tmp_path, capsys, fields, path):
    # tables belong to a ring result, a perfection report to a morse result
    base = MORSE_RESULT if "perfection" in fields else RING_RESULT
    assert reemit_error(capsys, tmp_path, base, fields).startswith("error: %s: " % path)


@pytest.mark.parametrize(
    "base, fields, path",
    [
        (RING_RESULT, {"perfection": PERFECTION}, "$.perfection"),
        (MORSE_RESULT, {"tables": {"graded_dims": [1]}}, "$.tables"),
        (SERIES_RESULT, {"mode": "betti_uhat", "tables": {}}, "$.tables"),
        (SERIES_RESULT, {"mode": "pair_uhat"}, "$.kind"),
        ({"kind": "rational", "value": "2"}, {"mode": "ring", "extra": 1}, "$.kind"),
        ({"kind": "rational", "value": "2"}, {"mode": "flag", "extra": 1}, "$.extra"),
        (RING_RESULT, {"value": "2"}, "$.value"),
        ({"kind": "matrix"}, {"mode": "ring"}, "$.kind"),
    ],
    ids=["perfection-on-ring", "tables-on-morse", "tables-on-betti", "series-from-pairing",
         "rational-from-ring", "extra-key", "value-on-series", "unknown-kind-first"],
)
def test_reemit_rejects_a_kind_or_key_its_mode_does_not_write(
    tmp_path, capsys, base, fields, path
):
    assert reemit_error(capsys, tmp_path, base, fields).startswith("error: %s: " % path)


# The fields that hold a result's value, by kind.
VALUE_KEYS = {"rational": {"value"}, "series": {"coeffs", "bound"}}
EXTRA_KEYS = {key for entry in problemfile.MODES.values() for key in entry.extras}


@pytest.mark.parametrize("mode", sorted(problemfile.MODES))
def test_a_result_holds_the_kind_and_extras_its_mode_entry_names(tmp_path, capsys, mode):
    entry = problemfile.MODES[mode]
    code, rendered, _ = run_main(capsys, tmp_path, mode_documents()[mode], "--format", "json")
    assert code == 0
    result = json.loads(rendered)
    assert result["kind"] == entry.kind and result["mode"] == mode
    assert set(result) == {"kind", "mode"} | VALUE_KEYS[entry.kind] | set(entry.extras)
    # the same document as the other kind, with that kind's fields
    other = ({"kind": "series", "coeffs": [1], "bound": 0} if entry.kind == "rational"
             else {"kind": "rational", "value": "0"})
    flipped = {k: v for k, v in result.items() if k not in VALUE_KEYS[entry.kind]}
    assert reemit_error(capsys, tmp_path, flipped, other).startswith(
        "error: $.kind: mode %s does not write a %s" % (mode, other["kind"]))
    for key in EXTRA_KEYS - set(entry.extras):
        assert reemit_error(capsys, tmp_path, result, {key: {}}).startswith(
            "error: $.%s: mode %s does not write this key" % (key, mode))


@pytest.mark.parametrize("mode", sorted(MODE_DOCS))
def test_reemit_round_trips_every_mode_bit_for_bit(tmp_path, capsys, monkeypatch, mode):
    monkeypatch.delenv("NRQUOT_OUTPUT_DIR", raising=False)
    code, rendered, _ = run_main(capsys, tmp_path, MODE_DOCS[mode], "--format", "json")
    assert code == 0
    path = tmp_path / "result.json"
    path.write_text(rendered)
    assert cli.main([str(path), "--reemit"]) == 0
    assert capsys.readouterr() == (rendered, "")


def test_reemit_writes_into_the_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("NRQUOT_OUTPUT_DIR", raising=False)
    rendered = run_main(capsys, tmp_path, MODE_DOCS["ring"], "--format", "json")[1]
    source = tmp_path / "result.json"
    source.write_text(rendered)
    outdir = tmp_path / "out"
    outdir.mkdir()
    monkeypatch.setenv("NRQUOT_OUTPUT_DIR", str(outdir))
    assert cli.main([str(source), "--reemit"]) == 0
    assert capsys.readouterr() == (rendered, "")
    assert (outdir / "result.json").read_text() == rendered
    # a directory that cannot be written to is a computation-stage failure
    missing = tmp_path / "missing"
    monkeypatch.setenv("NRQUOT_OUTPUT_DIR", str(missing))
    assert cli.main([str(source), "--reemit"]) == 2
    out, err = capsys.readouterr()
    assert out == rendered
    assert err.startswith("error: cannot write %s: " % (missing / "result.json"))
    assert err.count("\n") == 1


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")], ids=["array", "object"])
@pytest.mark.parametrize("flags", [(), ("--reemit",)], ids=["problem", "reemit"])
def test_deeply_nested_json_is_rejected_in_one_line(tmp_path, opening, closing, flags):
    depth = 10 ** 5
    path = tmp_path / "deep.json"
    path.write_text(opening * depth + ("1" if closing == "}" else "") + closing * depth)
    out = run_cli(str(path), *flags)
    assert out.returncode == 1
    assert out.stderr.startswith("error: invalid JSON: ")
    assert out.stderr.count("\n") == 1
    assert out.stdout == ""


@pytest.mark.parametrize("flags", [(), ("--reemit",)], ids=["problem", "reemit"])
def test_malformed_json_is_reported_as_invalid_json(tmp_path, flags):
    path = tmp_path / "bad.json"
    path.write_text("[")
    out = run_cli(str(path), *flags)
    assert out.returncode == 1
    assert out.stderr == "error: invalid JSON: Expecting value: line 1 column 2 (char 1)\n"
    assert out.stdout == ""


@pytest.mark.parametrize(
    "content, detail",
    [
        (b'{"mode": "\xff"}',
         "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"),
        (b"[" + b"1" * 5000 + b"]", "Exceeds the limit (4300 digits) for integer string"),
    ],
    ids=["not-utf8", "long-integer"],
)
@pytest.mark.parametrize("flags", [(), ("--reemit",)], ids=["problem", "reemit"])
def test_undecodable_json_is_reported_as_invalid_json(tmp_path, flags, content, detail):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    out = run_cli(str(path), *flags)
    assert out.returncode == 1
    assert out.stderr.startswith("error: invalid JSON: " + detail)
    assert out.stderr.count("\n") == 1
    assert out.stdout == ""


@pytest.mark.parametrize("flags", [(), ("--reemit",)], ids=["problem", "reemit"])
def test_unreadable_file_names_its_path(tmp_path, flags):
    path = str(tmp_path / "missing.json")
    out = run_cli(path, *flags)
    assert out.returncode == 1
    assert out.stderr == ("error: cannot read %s: [Errno 2] No such file or directory: %r\n"
                          % (path, path))
    assert out.stdout == ""


def test_unexpected_failure_is_one_line_with_exit_2(monkeypatch, capsys):
    def broken(problem):
        raise TypeError("boom")

    entry = problemfile.MODES["pair_reductive"]._replace(run=broken)
    monkeypatch.setitem(problemfile.MODES, "pair_reductive", entry)
    assert cli.main([str(PROBLEMS / "gr24_pairing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: internal error: TypeError: boom\n"
    assert captured.out == ""


@pytest.mark.parametrize("mode", ["pair_reductive", "pair_nonreductive"])
def test_pairing_modes_reject_a_class_that_is_not_weyl_invariant(tmp_path, mode):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc["mode"] = mode
    doc["class"] = [{"coeff": "1", "exp": [4, 0]}]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 2
    assert out.stderr == "error: class is not Weyl-invariant; witness generator #0: (1, 0)\n"
    assert out.stdout == ""


def test_pair_uhat_checks_the_class_against_its_weyl_generators(tmp_path, capsys):
    # pair_uhat runs the nonreductive route over the minimal components, so
    # like every other pairing route it rejects a class that a Weyl generator
    # moves: here z under z -> -z.  An invariant class is divided by |W| = 2.
    doc = copy.deepcopy(MODE_DOCS["pair_uhat"])
    doc["group"].update(weyl_generators=[[[-1]]], weyl_order=2)
    assert run_main(capsys, tmp_path, doc) == (0, "1/2\n", "")
    doc["class"] = [{"coeff": "1", "exp": [1]}]
    assert run_main(capsys, tmp_path, doc) == (
        2, "", "error: class is not Weyl-invariant; witness generator #0: "
        "((Fraction(-1, 1),),)\n")


def test_grassmannian_mode_rejects_a_class_that_is_not_symmetric(tmp_path):
    doc = dict(MODE_DOCS["grassmannian"], phi=[{"coeff": "1", "exp": [4, 0]}])
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 2
    assert out.stderr.count("\n") == 1 and "not symmetric" in out.stderr
    assert out.stdout == ""


def test_output_is_deterministic():
    first = run_cli(str(PROBLEMS / "gr24_pairing.json"), "--format", "json")
    second = run_cli(str(PROBLEMS / "gr24_pairing.json"), "--format", "json")
    assert first.stdout == second.stdout


def test_schema_error_reports_field_path(tmp_path):
    doc = {"mode": "grassmannian", "k": 2, "n": 4, "phi": [{"coeff": "1", "exp": [4]}]}
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert "$.phi[0].exp" in out.stderr


def test_invalid_cone_is_a_computation_error(tmp_path):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc["cone"] = ["1", "0"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 2
    assert "wall" in out.stderr


@pytest.mark.parametrize(
    "group, message",
    [
        ({"weyl_order": 3}, "$.group.weyl_order: Weyl generators produce a group "
         "of order 2, declared 3"),
        ({"weyl_generators": [[[2, 0], [0, 1]]]}, "$.group.weyl_order: Weyl closure "
         "exceeds the declared order; data inconsistent"),
        ({"weyl_generators": [[1, 2]]}, "$.group.weyl_generators: generator is not "
         "a permutation of 0..1"),
        ({"weyl_generators": [[[0, 1], 1]]}, "$.group.weyl_generators[0][1]: expected "
         "an array of rationals"),
        ({"weyl_order": 5041}, "$.group.weyl_order: must be at most 5040"),
    ],
    ids=["wrong-order", "infinite-order", "not-a-permutation", "ragged-matrix", "over-budget"],
)
def test_contradictory_weyl_data_rejected(tmp_path, group, message):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc["group"].update(group)
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr == "error: %s\n" % message


def test_ring_mode_closes_the_weyl_group_once(tmp_path, monkeypatch, capsys):
    calls = []
    closure = groupdata._weyl_closure

    def spy(*args):
        calls.append(args)
        return closure(*args)

    monkeypatch.setattr(groupdata, "_weyl_closure", spy)
    assert cli.main([write_problem(tmp_path, MODE_DOCS["ring"])]) == 0
    assert capsys.readouterr().out.startswith("1 + t^2 + t^4\n")
    assert len(calls) == 1


def spy_on_products(monkeypatch):
    """Record every expansion of a product of linear forms."""
    calls = []
    build = groupdata._product

    def spy(factors, nvars):
        calls.append(len(factors))
        return build(factors, nvars)

    # every module that binds it: groupdata builds e(H), localize the
    # Grassmannian's Vandermonde product
    for module in (groupdata, localize):
        monkeypatch.setattr(module, "_product", spy)
    return calls


def test_ring_mode_builds_the_euler_class_once(tmp_path, monkeypatch, capsys):
    calls = spy_on_products(monkeypatch)
    assert cli.main([write_problem(tmp_path, MODE_DOCS["ring"])]) == 0
    assert capsys.readouterr().out.endswith("annihilator_dims: 0 0 2 2 1\n")
    assert calls == [2]


def box_ring_doc(k, n):
    """Q[z_0..z_{k-1}]/(z_i^n) with S_k by adjacent transpositions and the
    GL(k) roots."""
    swaps = []
    for i in range(k - 1):
        perm = list(range(k))
        perm[i], perm[i + 1] = i + 1, i
        swaps.append(perm)
    return {
        "mode": "ring",
        "group": {
            "rank": k,
            "positive_roots": [
                [1 if c == i else -1 if c == j else 0 for c in range(k)]
                for i in range(k) for j in range(i + 1, k)
            ],
            "weyl_generators": swaps,
            "weyl_order": math.factorial(k),
        },
        "ring": {
            "nvars": k,
            "relations": [
                [{"coeff": "1", "exp": [n if c == i else 0 for c in range(k)]}]
                for i in range(k)
            ],
            "top_degree": k * (n - 1),
        },
    }


# Q[z0,z1] modulo the quadrics: the class -(z0 - z1)^2 has degree top + 1
QUADRIC_RING = dict(MODE_DOCS["ring"], ring={
    "nvars": 2,
    "relations": [[{"coeff": "1", "exp": e}] for e in ([2, 0], [1, 1], [0, 2])],
    "top_degree": 1,
})


@pytest.mark.parametrize(
    "doc, tables",
    [
        # the class has degree 20 and the ring vanishes above degree 5
        (box_ring_doc(5, 2), ["graded_dims: 1 5 10 10 5 1", "invariant_dims: 1 1 1 1 1 1",
                              "annihilator_dims: 1 5 10 10 5 1"]),
        (QUADRIC_RING, ["graded_dims: 1 2", "invariant_dims: 1 1", "annihilator_dims: 1 2"]),
    ],
    ids=["S5", "degree-top-plus-one"],
)
def test_ring_mode_never_expands_an_euler_class_above_the_top_degree(
    tmp_path, monkeypatch, capsys, doc, tables
):
    calls = spy_on_products(monkeypatch)
    assert cli.main([write_problem(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == "\n".join(["0"] + tables) + "\n"
    assert calls == []


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda doc: doc["dims"].update(dim_u=2),
         "$.dims.dim_u: expected 3, the number of group.unipotent_weights"),
        (lambda doc: doc["group"].update(grading=["1", "1", "-2"]),
         "$.group.grading: unipotent weight z0 - z1 pairs to 0 with the grading; "
         "it must be positive"),
        (lambda doc: doc["group"].update(grading=["1", "2", "3"]),
         "$.group.grading: unipotent weight z0 - z1 pairs to -1 with the grading; "
         "it must be positive"),
        (lambda doc: doc["dims"].update(dim_x="a"), "$.dims.dim_x: expected an integer"),
    ],
    ids=["dim_u-mismatch", "zero-pairing", "negative-pairing", "dim_x-not-an-integer"],
)
@pytest.mark.parametrize("mode", ["betti_uhat", "betti_H"])
def test_betti_modes_check_the_group_hypotheses(tmp_path, mode, change, message):
    doc = json.loads((PROBLEMS / "borel_sl3_betti.json").read_text())
    doc["mode"] = mode
    change(doc)
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr == "error: %s\n" % message


@pytest.mark.parametrize(
    "doc, message",
    [([1], "$: problem file must be a JSON object"), (dict(MODE_DOCS["betti_H"], options=5),
                                                      "$.options: expected an object")],
    ids=["document", "options"],
)
@pytest.mark.parametrize("flag", ["--truncate=3", "--sign-flip"])
def test_option_flags_leave_a_malformed_document_to_the_parser(
    tmp_path, capsys, doc, message, flag
):
    assert run_main(capsys, tmp_path, doc, flag) == (1, "", "error: %s\n" % message)


def test_truncation_bound_is_budgeted():
    out = run_cli(str(PROBLEMS / "borel_sl3_betti.json"), "--truncate", "100000000000")
    assert out.returncode == 1
    assert out.stderr == "error: $.options.truncation_bound: must be at most 1000000\n"


def test_reemit_series_bound_is_budgeted(tmp_path, capsys):
    doc = {"kind": "series", "mode": "betti_uhat", "coeffs": [1], "bound": 10 ** 7}
    assert run_main(capsys, tmp_path, doc, "--reemit") == (
        1, "", "error: $.bound: must be at most %d\n" % problemfile.MAX_TRUNCATION_BOUND
    )


def test_polynomial_degree_is_budgeted(tmp_path, capsys):
    # z0^N / ((z0 + z1)(z0 + 2 z1)(z0 + 3 z1) z1^(N-1)): the residue expands
    # a series of degree N in each variable
    n = 6000
    doc = residue_doc(2, integrand={
        "numerator": [{"coeff": "1", "exp": [n, 0]}],
        "denominator": [[["1", str(a)], 1] for a in (1, 2, 3)] + [[["0", "1"], n - 1]],
    })
    assert run_main(capsys, tmp_path, doc) == (
        1, "", "error: $.integrand.numerator[0].exp: more than %d monomials in degrees 0..%d\n"
        % (schema.MAX_POLY_MONOMIALS, n),
    )


@pytest.mark.parametrize("mode", ["grassmannian", "flag"])
def test_schubert_k_is_budgeted(tmp_path, capsys, mode):
    k = schema.MAX_SCHUBERT_K + 1
    doc = {"mode": mode, "k": k, "n": k, "phi": [{"coeff": "1", "exp": [0] * k}]}
    assert run_main(capsys, tmp_path, doc) == (
        1, "", "error: $.k: must be at most %d\n" % schema.MAX_SCHUBERT_K
    )


def test_huge_dim_x_needs_only_the_truncated_terms(tmp_path):
    doc = json.loads((PROBLEMS / "borel_sl3_betti.json").read_text())
    doc["dims"]["dim_x"] = 10 ** 11
    bounded = run_cli(write_problem(tmp_path, doc))
    assert bounded.returncode == 0
    assert bounded.stdout == "1 + t^2 + t^4 + t^6 + t^8 + t^10 + t^12\n"
    del doc["options"]
    unbounded = run_cli(write_problem(tmp_path, doc))
    assert unbounded.returncode == 1
    assert unbounded.stderr.startswith("error: $.dims.dim_x: ")


# Documents of a few KB that once ran for tens of seconds or ran out of
# memory: (document, the path it must fail at, or None if it must succeed).
# A pole of order 2 * 10**10 leaves no residue, so both such documents give 0.
TINY_DOCUMENTS = {
    "betti-long-kernel": (
        {"mode": "betti_uhat", "dims": {"dim_x": 500000, "dim_u": 0, "dim_zmin": 0},
         "zmin_series": [1] * 1000},
        None,
    ),
    "group-rank": (
        {"mode": "betti_uhat", "group": {"rank": 10 ** 9},
         "dims": {"dim_x": 2, "dim_u": 0, "dim_zmin": 0}},
        "$.group.rank",
    ),
    "residue-rank": (
        {"mode": "residue", "rank": 10 ** 8, "integrand": {"numerator": [], "denominator": []}},
        "$.rank",
    ),
    "morse-strata": (
        {"mode": "morse", "strata": [{"codim": 0}] * 300,
         "options": {"truncation_bound": 10 ** 6}},
        "$.strata",
    ),
    "reductive-pole-order": (
        {"mode": "pair_reductive", "group": {"rank": 1},
         "fixed_points": [{"normal_weights": [[["3"], 2 * 10 ** 10]]}],
         "class": [{"coeff": "1", "exp": [0]}]},
        None,
    ),
    "residue-pole-order": (
        {"mode": "residue", "rank": 1,
         "integrand": {"numerator": [{"coeff": "1", "exp": [0]}],
                       "denominator": [[["2"], 2 * 10 ** 10]]}},
        None,
    ),
}


@pytest.mark.parametrize("doc, path", TINY_DOCUMENTS.values(), ids=TINY_DOCUMENTS)
def test_tiny_documents_end_within_seconds(tmp_path, doc, path):
    out = run_cli(write_problem(tmp_path, doc), "--format", "json", timeout=15)
    if path is not None:
        assert out.returncode == 1
        assert out.stderr.startswith("error: %s: " % path) and out.stderr.count("\n") == 1
        return
    assert out.returncode == 0 and out.stderr == ""
    result = json.loads(out.stdout)
    if result["kind"] == "rational":
        assert result["value"] == "0"
        return
    coeffs = result["coeffs"]
    assert len(coeffs) == 10 ** 6 + 1
    for e in (0, 1, 2, 998, 999, 1000, 1001, 500000, 999998, 999999, 10 ** 6):
        # (1 + t + ... + t^999)(1 + t^2 + ... + t^999998), coefficient of t^e
        expected = sum(1 for i in range(min(e, 999) + 1) if (e - i) % 2 == 0 and e - i < 10 ** 6)
        assert coeffs[e] == expected


@pytest.mark.parametrize("rank", [schema.MAX_RANK, schema.MAX_RANK + 1])
def test_torus_rank_is_budgeted(tmp_path, capsys, rank):
    residue = run_main(capsys, tmp_path, residue_doc(rank))
    betti = run_main(capsys, tmp_path, {
        "mode": "betti_uhat", "group": {"rank": rank},
        "dims": {"dim_x": 2, "dim_u": 0, "dim_zmin": 0},
    })
    if rank <= schema.MAX_RANK:
        assert residue == (0, "%s\n" % Fraction(2, 3), "")
        assert betti == (0, "1 + t^2\n", "")
    else:
        message = ": must be at most %d\n" % schema.MAX_RANK
        assert residue == (1, "", "error: $.rank" + message)
        assert betti == (1, "", "error: $.group.rank" + message)


def test_morse_series_are_budgeted_when_a_bound_is_set(tmp_path, capsys):
    # nine strata and the total series at bound b store 10 (b + 1) coefficients
    bound = schema.MAX_MORSE_COEFFICIENTS // 10
    doc = {"mode": "morse", "strata": [{"codim": 0}] * 9,
           "options": {"truncation_bound": bound}}
    assert run_main(capsys, tmp_path, doc) == (
        1, "", "error: $.strata: 9 strata and the total series at truncation bound %d "
        "exceed %d coefficients\n" % (bound, schema.MAX_MORSE_COEFFICIENTS),
    )
    # without a bound the series are held to the last exponent they reach
    del doc["options"]
    assert run_main(capsys, tmp_path, doc) == (0, "9\n", "")


@pytest.mark.parametrize(
    "strata, message",
    [
        ([{"codim": 500001}], "the default truncation bound 1000002 exceeds 1000000; "
         "set options.truncation_bound"),
        ([{"codim": 500000}] * 9, "9 strata and the total series at truncation bound 1000000 "
         "exceed 10000000 coefficients"),
    ],
    ids=["bound", "coefficients"],
)
def test_morse_default_bound_is_budgeted(tmp_path, capsys, strata, message):
    doc = {"mode": "morse", "strata": strata}
    assert run_main(capsys, tmp_path, doc) == (1, "", "error: $.strata: %s\n" % message)


def test_morse_reads_every_series_at_one_bound(tmp_path, capsys):
    # Without options.truncation_bound the bound is the last exponent of the
    # total and of every stratum series shifted by 2 * codim, so a stratum
    # with a short series cuts no other series short.
    doc = {"mode": "morse", "strata": [{"codim": 0, "series": [1, 0, 1]}, {"codim": 1}]}
    assert run_main(capsys, tmp_path, doc) == (0, "1 + 2*t^2\n", "")
    doc["total_series"] = [1, 0, 2, 0, 0, 0]
    code, out, err = run_main(capsys, tmp_path, doc, "--format", "json")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["coeffs"], result["bound"]) == ([1, 0, 2, 0, 0, 0], 5)
    assert result["perfection"] == {"perfect": True, "remainder": "0", "nonnegative": True}


@pytest.mark.parametrize(
    "strata, total, message",
    [
        ([{"codim": 0, "series": [1, 0, 1]}], [1, 0, 2],
         "Morse defect is not divisible by (1 + t); residue -1"),
        ([{"codim": 0}], [2], "Morse defect is a nonzero constant"),
    ],
    ids=["not-divisible", "constant"],
)
def test_a_total_series_the_strata_contradict_fails_at_its_path(
    tmp_path, capsys, strata, total, message
):
    doc = {"mode": "morse", "strata": strata, "total_series": total}
    assert run_main(capsys, tmp_path, doc) == (1, "", "error: $.total_series: %s\n" % message)


@pytest.mark.parametrize(
    "doc, path",
    [
        (dict(MODE_DOCS["betti_H"], zmin_series=[1, 0, -1]), "$.zmin_series[2]"),
        (dict(MODE_DOCS["morse"], strata=[{"codim": 0}, {"codim": 1, "series": [1, -1]}]),
         "$.strata[1].series[1]"),
        (dict(MODE_DOCS["morse"], total_series=[1, -1]), "$.total_series[1]"),
    ],
    ids=["zmin", "stratum", "total"],
)
def test_a_negative_series_coefficient_fails_at_its_path(tmp_path, capsys, doc, path):
    # every series of a problem file is a Poincare series
    assert run_main(capsys, tmp_path, doc) == (1, "", "error: %s: must be at least 0\n" % path)


def test_readme_mode_table_names_every_mode():
    readme = (REPO / "README.md").read_text()
    table = readme.split("Modes and their sections:\n\n")[1].split("\n\n")[0]
    rows = table.splitlines()[2:]
    named = [m for row in rows for m in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(named) == sorted(problemfile.MODES)


def test_unknown_mode_rejected(tmp_path):
    out = run_cli(write_problem(tmp_path, {"mode": "nope"}))
    assert out.returncode == 1
    assert "$.mode" in out.stderr
    # an unhashable mode cannot be looked up in the table; it is still a schema error
    with pytest.raises(problemfile.ProblemFileError, match=r"^\$\.mode: "):
        problemfile.parse({"mode": ["pair_uhat"]})


def test_pair_uhat_mode(tmp_path):
    doc = MODE_DOCS["pair_uhat"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout.strip() == "1"


def test_pair_uhat_rejects_a_higher_rank_group_at_its_path(tmp_path):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc["mode"] = "pair_uhat"
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr == (
        "error: $.group.rank: expected 1: the graded-extension pairing needs a rank 1 torus\n"
    )


def test_pair_uhat_rejects_roots_at_their_path(tmp_path, capsys):
    # the graded-extension Euler class is the product of the unipotent
    # weights alone, so a root has no place in it
    doc = json.loads(json.dumps(MODE_DOCS["pair_uhat"]))
    doc["group"].update(positive_roots=[["2"]], unipotent_weights=[["2"]])
    assert run_main(capsys, tmp_path, doc) == (
        1, "", "error: $.group.positive_roots: expected an empty array: "
        "the graded-extension pairing needs no roots\n")


@pytest.mark.parametrize(
    "flags, message",
    [
        ((False, True), "$.fixed_points[0].is_min: expected true: lambda_weight 0 is "
         "the least moment value"),
        ((True, True), "$.fixed_points[1].is_min: expected false: lambda_weight 1 is "
         "not the least moment value"),
    ],
    ids=["minimum-unflagged", "maximum-flagged"],
)
def test_pair_uhat_rejects_wrong_minimality_flags_at_their_path(tmp_path, flags, message):
    doc = json.loads(json.dumps(MODE_DOCS["pair_uhat"]))
    for point, flag in zip(doc["fixed_points"], flags):
        point["is_min"] = flag
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr == "error: %s\n" % message


def test_pair_nonreductive_mode_with_normalization(tmp_path):
    doc = MODE_DOCS["pair_nonreductive"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout.strip() == "1"


def test_pair_abelianized_mode(tmp_path):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc["mode"] = "pair_abelianized"
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout.strip() == "2"


@pytest.mark.parametrize("mode", ["pair_reductive", "pair_nonreductive", "pair_abelianized"])
def test_pairing_modes_apply_the_normalization(tmp_path, mode):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc.update(mode=mode, options={"normalization": "2"})
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout == "8\n"


@pytest.mark.parametrize("mode", ["pair_reductive", "pair_nonreductive", "pair_abelianized"])
def test_pairing_modes_agree_on_a_component_restriction(tmp_path, mode):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    doc["mode"] = mode
    doc["fixed_points"][0]["restriction"] = doc["class"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout == "2\n"


def test_betti_H_mode(tmp_path):
    doc = MODE_DOCS["betti_H"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout.strip() == "1 + t^2"


def test_truncate_flag_overrides_bound(tmp_path):
    doc = {
        "mode": "betti_uhat",
        "dims": {"dim_x": 6, "dim_u": 3, "dim_zmin": 0},
        "zmin_series": [1],
    }
    out = run_cli(write_problem(tmp_path, doc), "--truncate", "2", "--format", "json")
    parsed = json.loads(out.stdout)
    assert parsed["bound"] == 2 and parsed["coeffs"] == [1, 0, 1]


def test_morse_mode_with_perfection_check(tmp_path):
    doc = MODE_DOCS["morse"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0
    assert out.stdout.splitlines()[0] == "1 + t^2 + t^4"
    assert "perfect: True" in out.stdout


def test_ring_mode_tables(tmp_path):
    doc = MODE_DOCS["ring"]
    out = run_cli(write_problem(tmp_path, doc), "--format", "json")
    parsed = json.loads(out.stdout)
    assert parsed["coeffs"][:5] == [1, 0, 1, 0, 1]
    assert parsed["tables"]["graded_dims"] == [1, 2, 3, 2, 1]
    assert parsed["tables"]["invariant_dims"] == [1, 1, 2, 1, 1]
    text = run_cli(write_problem(tmp_path, doc))
    assert "invariant_dims: 1 1 2 1 1" in text.stdout


def test_ring_mode_rejects_explicit_dims(tmp_path):
    doc = dict(MODE_DOCS["ring"], ring={"dims": [1, 1, 2, 1, 1]})
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr == (
        "error: $.ring.dims: ring mode needs nvars, relations and top_degree\n"
    )


@pytest.mark.parametrize(
    "ring",
    [
        {"top_degree": 10 ** 30},
        {
            "nvars": 1,
            "relations": [[{"coeff": "1", "exp": [10 ** 8]}]],
            "top_degree": 10 ** 8 - 1,
        },
    ],
    ids=["huge-degree", "one-variable"],
)
def test_ring_size_is_budgeted(tmp_path, ring):
    doc = dict(MODE_DOCS["ring"])
    doc["ring"] = dict(doc["ring"], **ring)
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("error: $.ring.top_degree: more than %d monomials"
                                 % schema.MAX_RING_MONOMIALS)


@pytest.mark.parametrize(
    "ring",
    [
        {"nvars": 1, "relations": [[{"coeff": "1", "exp": [3]}]]},
        {
            "nvars": 3,
            "relations": [
                [{"coeff": "1", "exp": [3 if j == i else 0 for j in range(3)]}]
                for i in range(3)
            ],
            "top_degree": 6,
        },
    ],
    ids=["one-variable", "three-variables"],
)
def test_ring_nvars_must_match_group_rank(tmp_path, ring):
    doc = dict(MODE_DOCS["ring"])
    doc["ring"] = dict(doc["ring"], **ring)
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr == "error: $.ring.nvars: expected 2, the group rank\n"


def test_residue_mode_and_sign_flip(tmp_path):
    doc = MODE_DOCS["residue"]
    out = run_cli(write_problem(tmp_path, doc))
    assert out.stdout.strip() == "1"
    flipped = run_cli(write_problem(tmp_path, doc), "--sign-flip")
    assert flipped.stdout.strip() == "-1"


# -- orientation: one switch, applied to the final scalar of two modes --------------


def run_main(capsys, tmp_path, doc, *flags):
    """(exit code, stdout, stderr) of ``cli.main`` in this process."""
    code = cli.main([write_problem(tmp_path, doc), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def residue_doc(rank, **fields):
    """(2/3) / (z_0 ... z_{rank-1}), whose residue is 2/3."""
    unit = [[str(int(i == j)) for j in range(rank)] for i in range(rank)]
    return dict({
        "mode": "residue",
        "rank": rank,
        "integrand": {
            "numerator": [{"coeff": "2/3", "exp": [0] * rank}],
            "denominator": [[u, 1] for u in unit],
        },
    }, **fields)


def flipped(doc, how):
    """The document and flags that ask for the opposite orientation."""
    if how == "flag":
        return doc, ("--sign-flip",)
    return dict(doc, options=dict(doc.get("options", {}), sign_flip=True)), ()


@pytest.mark.parametrize("how", ["flag", "option"])
def test_sign_flip_negates_pair_uhat(tmp_path, capsys, how):
    doc, flags = flipped(MODE_DOCS["pair_uhat"], how)
    assert run_main(capsys, tmp_path, doc, *flags) == (0, "-1\n", "")


@pytest.mark.parametrize("basis", [False, True], ids=["standard", "basis"])
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("how", ["flag", "option"])
def test_sign_flip_multiplies_a_residue_by_minus_one_to_the_rank(
    tmp_path, capsys, how, rank, basis
):
    fields = {}
    value = Fraction(2, 3)
    if basis:
        # the last coordinate stretched by 3 divides the value by 3
        fields["basis"] = [[str(3 if i == j == rank - 1 else int(i == j)) for j in range(rank)]
                           for i in range(rank)]
        value /= 3
    doc = residue_doc(rank, **fields)
    plain = "%s\n" % value
    assert run_main(capsys, tmp_path, doc) == (0, plain, "")
    doc, flags = flipped(doc, how)
    assert run_main(capsys, tmp_path, doc, *flags) == (0, "%s\n" % ((-1) ** rank * value), "")


@pytest.mark.parametrize(
    "doc, value",
    [
        (json.loads((PROBLEMS / "flag_pairing.json").read_text()), "-1\n"),
        (json.loads((PROBLEMS / "gr24_pairing.json").read_text()), "2\n"),
        (MODE_DOCS["pair_nonreductive"], "1\n"),
        (MODE_DOCS["grassmannian"], "2\n"),
    ],
    ids=["flag", "pair_reductive", "pair_nonreductive", "grassmannian"],
)
@pytest.mark.parametrize("how", ["flag", "option"])
def test_sign_flip_leaves_the_other_modes_alone(tmp_path, capsys, how, doc, value):
    doc, flags = flipped(doc, how)
    assert run_main(capsys, tmp_path, doc, *flags) == (0, value, "")


@pytest.mark.parametrize("epsilon", [["-1", "0", "0"], ["0", "1", "-1/2"]], ids=["first", "last"])
@pytest.mark.parametrize("flags", [(), ("--sign-flip",)], ids=["plain", "flipped"])
def test_a_negative_epsilon_component_gives_zero(tmp_path, capsys, epsilon, flags):
    doc = residue_doc(3, epsilon=epsilon)
    assert run_main(capsys, tmp_path, doc, *flags) == (0, "0\n", "")


@pytest.mark.parametrize("flags, value", [((), "2/3\n"), (("--sign-flip",), "-2/3\n")],
                         ids=["plain", "flipped"])
def test_a_nonnegative_epsilon_changes_nothing(tmp_path, capsys, flags, value):
    doc = residue_doc(3, epsilon=["1", "0", "2"])
    assert run_main(capsys, tmp_path, doc, *flags) == (0, value, "")


@pytest.mark.parametrize("group", [{}, {"group": {"rank": 1}}], ids=["rank", "group"])
def test_residue_mode_divides_by_the_squared_basis_determinant(tmp_path, group):
    # 1/z in the coordinate w = 2z is 2/w; over det(B)^2 = 4
    doc = dict(MODE_DOCS["residue"], basis=[["2"]], **group)
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 0 and out.stdout == "1/2\n"


def test_sign_flip_survives_the_linearity_recheck(tmp_path):
    out = run_cli(write_problem(tmp_path, MODE_DOCS["pair_uhat"]), "--sign-flip",
                  "--check-invariants")
    assert (out.returncode, out.stdout, out.stderr) == (
        0, "-1\n", "invariant check: linearity in the class ok\n")


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cone": ["1", "2", "3"]}, "$.cone: expected length 2, got 3"),
        ({"basis": [["1", "0"]]}, "$.basis: expected length 2, got 1"),
    ],
    ids=["cone", "basis"],
)
def test_residue_cone_and_basis_lengths_are_checked_at_parse(tmp_path, capsys, fields, message):
    doc = residue_doc(2, **fields)
    assert run_main(capsys, tmp_path, doc) == (1, "", "error: %s\n" % message)


WALL = "$.cone: cone vector (1, 0) lies on the wall of z1"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cone": ["1", "0"]}, WALL),
        # a negative epsilon gives 0 only once the problem has parsed
        ({"cone": ["1", "0"], "epsilon": ["-1", "0"]}, WALL),
        ({"basis": [["1", "0"], ["2", "0"]]}, "$.basis: residue basis is not invertible"),
        ({"cone": ["1", "1"], "basis": [["1", "0"], ["0", "1"]]},
         "$.basis: basis is not normalised against the cone vector: "
         "expected values (1, 0, ..., 0), got (1, 1)"),
    ],
    ids=["cone-on-wall", "cone-on-wall-epsilon", "singular-basis", "basis-not-normalised"],
)
def test_residue_hypotheses_are_checked_at_parse(tmp_path, capsys, fields, message):
    # each at its field path while the document is read, before any residue is summed
    doc = residue_doc(2, **fields)
    assert run_main(capsys, tmp_path, doc) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("mode", ["pair_reductive", "residue"])
def test_group_inner_product_is_rejected(tmp_path, capsys, mode):
    doc = json.loads((PROBLEMS / "gr24_pairing.json").read_text())
    if mode == "residue":
        doc = dict(residue_doc(2), group=doc["group"])
        del doc["rank"]
    doc["group"]["inner_product"] = [["1", "0"], ["0", "1"]]
    code, out, err = run_main(capsys, tmp_path, doc)
    assert (code, out) == (1, "")
    assert err.startswith("error: $.group.inner_product: ") and err.count("\n") == 1


@pytest.mark.parametrize("denominator", [5, {"a": 1}], ids=["number", "object"])
def test_residue_denominator_must_be_an_array(tmp_path, denominator):
    doc = {
        "mode": "residue",
        "rank": 1,
        "integrand": {"numerator": [{"coeff": 1, "exp": [0]}], "denominator": denominator},
    }
    out = run_cli(write_problem(tmp_path, doc))
    assert out.returncode == 1
    assert out.stderr.count("\n") == 1
    assert out.stderr.startswith("error: $.integrand.denominator:")


def test_check_invariants_flag():
    out = run_cli(str(PROBLEMS / "gr24_pairing.json"), "--check-invariants")
    assert out.returncode == 0
    assert "linearity" in out.stderr


def test_check_moment_flag(tmp_path):
    out = run_cli(write_problem(tmp_path, moment_problem()), "--check-moment")
    assert out.returncode == 0
    assert "weight residual" in out.stderr and "ok" in out.stderr


def test_missing_file_is_validation_error():
    out = run_cli("no-such-file.json")
    assert out.returncode == 1


def test_output_directory_override(tmp_path):
    import os

    env = dict(os.environ, NRQUOT_OUTPUT_DIR=str(tmp_path))
    out = subprocess.run(
        [sys.executable, "-m", "nrquot.cli", str(PROBLEMS / "flag_pairing.json"),
         "--format", "json"],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert out.returncode == 0
    assert (tmp_path / "flag_pairing.json").read_text() == out.stdout


def test_python_m_nrquot_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "nrquot", str(PROBLEMS / "flag_pairing.json")],
        capture_output=True, text=True, cwd=REPO,
    )
    assert out.returncode == 0 and out.stdout.strip() == "-1"


# Runs nrquot.cli.main in one fresh interpreter on each argument list given as
# JSON in argv[2]; the last stdout line lists which of the modules named in
# argv[1] `import nrquot` had added to sys.modules, which `import nrquot.cli`
# then had, and which had been added after each call, with each call's exit
# code.
MODULE_PROBE = """
import json, sys
watched = json.loads(sys.argv[1])
before = set(sys.modules)
def added():
    return [m for m in watched if m in sys.modules and m not in before]
import nrquot
package = added()
import nrquot.cli
report = {"package": package, "import": added(), "calls": []}
for args in json.loads(sys.argv[2]):
    code = nrquot.cli.main(args)
    report["calls"].append([code, added()])
print(json.dumps(report))
"""

# Modules no run loads, --check-moment included: numpy serves only the tests
# and demos, and the others are what dataclasses pulls in at every start-up.
UNUSED_MODULES = ["dataclasses", "inspect", "ast", "dis", "numpy"]


def probe_modules(watched, *calls):
    out = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, json.dumps(watched), json.dumps(calls)],
        capture_output=True, text=True, cwd=REPO,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1]), out.stderr


def mode_documents():
    """One document of every mode: the samples in problems/ and MODE_DOCS."""
    docs = dict(MODE_DOCS)
    for path in PROBLEMS.glob("*.json"):
        doc = json.loads(path.read_text())
        docs[doc["mode"]] = doc
    docs["pair_abelianized"] = dict(docs["pair_reductive"], mode="pair_abelianized")
    return docs


def test_exact_modes_load_no_unused_module(tmp_path):
    paths = [write_problem(tmp_path, doc, mode + ".json")
             for mode, doc in sorted(mode_documents().items())]
    report, _ = probe_modules(UNUSED_MODULES, *([p, "--format", "json"] for p in paths))
    assert report == {"package": [], "import": [], "calls": [[0, []]] * len(paths)}


def test_check_moment_loads_numpy(tmp_path):
    # The moment diagnostics work in plain complex arithmetic: --check-moment
    # must load none of the unused modules, numpy included.
    path = write_problem(tmp_path, moment_problem())
    report, stderr = probe_modules(UNUSED_MODULES, [path, "--check-moment"])
    assert report == {"package": [], "import": [], "calls": [[0, []]]}
    assert stderr == "moment check 0: weight residual 0.000e+00 ok\n"


# The computation modules, and the modes that never load each of them: a run
# imports only the modules its mode calls.
COMPUTATION_MODULES = ["nrquot." + m for m in (
    "exactnum", "_linalg", "polyring", "groupdata", "residue", "localize", "betti", "cohring",
    "momentdiag")]
PAIRING_MODES = ("flag", "grassmannian", "pair_reductive", "pair_uhat", "pair_nonreductive",
                 "pair_abelianized")
SKIPPED_BY = {
    **dict.fromkeys(PAIRING_MODES, {"cohring", "betti", "momentdiag"}),
    **dict.fromkeys(("betti_uhat", "betti_H", "morse"),
                    {"localize", "residue", "cohring", "momentdiag"}),
    "ring": {"localize", "residue", "betti", "momentdiag"},
    "residue": {"localize", "cohring", "betti", "momentdiag"},
}


def test_import_nrquot_loads_no_submodule():
    io_layer = ["nrquot.schema", "nrquot.problemfile", "nrquot.cli"]
    report, _ = probe_modules(COMPUTATION_MODULES + io_layer)
    assert report["package"] == []
    # the command line loads the I/O layer and what every group or polynomial reader needs
    assert {m[len("nrquot."):] for m in report["import"]} == {
        "exactnum", "_linalg", "polyring", "groupdata", "schema", "problemfile", "cli"}


@pytest.mark.parametrize("mode", sorted(problemfile.MODES))
def test_a_mode_loads_none_of_the_modules_it_skips(tmp_path, mode):
    path = write_problem(tmp_path, mode_documents()[mode])
    for args in ([path], [path, "--format", "json", "--check-invariants"]):
        report, _ = probe_modules(COMPUTATION_MODULES, args)
        [[code, loaded]] = report["calls"]
        assert code == 0
        assert not {m[len("nrquot."):] for m in loaded} & SKIPPED_BY[mode]


def test_every_public_name_resolves_from_its_submodule():
    namespace = {}
    exec("from nrquot import *", namespace)
    assert set(nrquot.__all__) <= set(namespace)
    assert set(nrquot.__all__) <= set(dir(nrquot))
    for name in nrquot.__all__:
        owner = importlib.import_module("nrquot." + nrquot._EXPORTS[name])
        assert namespace[name] is getattr(nrquot, name) is getattr(owner, name)
        assert name in owner.__all__
    assert not hasattr(nrquot, "no_such_name")


def test_no_module_compile_dominates_the_import():
    # With no bytecode cache (PYTHONDONTWRITEBYTECODE=1), `import nrquot.cli`
    # compiles every module from source, and the largest compile peak sets
    # the process's memory high-water mark.
    peaks = {}
    for path in sorted((REPO / "src" / "nrquot").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    largest = max(peaks, key=peaks.get)
    assert peaks[largest] < 1.5e6, "compiling %s peaks at %d bytes" % (largest, peaks[largest])


def test_moment_weight_and_shift_accept_rationals(tmp_path):
    doc = moment_problem(weight="3/2", shift="1/2", tangent=[[0, 0], [1, 0]])
    out = run_cli(write_problem(tmp_path, doc), "--check-moment")
    assert out.returncode == 0
    assert out.stderr.splitlines() == [
        "moment check 0: weight residual 0.000e+00 ok",
        "moment check 0: derivative residual 0.000e+00 ok",
    ]


@pytest.mark.parametrize(
    "fields, path",
    [
        ({"point": None}, "$.moment_checks[0].point"),
        ({"point": []}, "$.moment_checks[0].point"),
        ({"point": [[1.0, 0.0]]}, "$.moment_checks[0].matrix"),
        ({"point": [[0, 0], [0.0, 0.0]]}, "$.moment_checks[0].point"),
        ({"point": [[1.0], [0.0, 0.0]]}, "$.moment_checks[0].point[0]"),
        ({"point": [["1", 0], [0, 0]]}, "$.moment_checks[0].point[0]"),
        ({"point": [[1, True], [0, 0]]}, "$.moment_checks[0].point[0][1]"),
        ({"point": [[10 ** 400, 0], [0, 0]]}, "$.moment_checks[0].point[0][0]"),
        ({"matrix": None}, "$.moment_checks[0].matrix"),
        ({"matrix": [[[0, 1], [0, 0]], [[0, 0]]]}, "$.moment_checks[0].matrix[1]"),
        ({"tangent": [[0, 1]]}, "$.moment_checks[0].tangent"),
        ({"weight": "one"}, "$.moment_checks[0].weight"),
        ({"weight": [1, 0]}, "$.moment_checks[0].weight"),
        ({"shift": {"re": 0}}, "$.moment_checks[0].shift"),
    ],
    ids=[
        "no-point", "empty-point", "matrix-side", "zero-point", "short-pair",
        "string-part", "boolean-part", "huge-part", "no-matrix", "ragged-matrix",
        "tangent-length", "weight-text", "weight-array", "shift-object",
    ],
)
def test_malformed_moment_check_is_validation_error(tmp_path, fields, path):
    out = run_cli(write_problem(tmp_path, moment_problem(**fields)), "--check-moment")
    assert out.returncode == 1
    assert out.stderr.startswith("error: %s: " % path)
    assert out.stderr.count("\n") == 1


def test_nonorthogonal_tangent_is_a_computation_error(tmp_path):
    doc = moment_problem(tangent=[[1, 0], [0, 0]])
    out = run_cli(write_problem(tmp_path, doc), "--check-moment")
    assert out.returncode == 2
    assert out.stderr.splitlines()[-1] == (
        "moment check error: tangent is not orthogonal to the point"
    )


def test_underflowing_point_is_a_computation_error(tmp_path):
    # |point|^2 underflows to zero in the denominator of the moment value
    out = run_cli(write_problem(tmp_path, moment_problem(point=[[1e-200, 0], [0, 0]])),
                  "--check-moment")
    assert (out.returncode, out.stdout) == (2, "-1\n")
    assert out.stderr == "moment check error: complex division by zero\n"


# -- series rendering -----------------------------------------------------------


def old_series_text(coeffs):
    """The text renderer as it was before text and LaTeX shared one loop."""
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            parts.append(("- " if c < 0 else "") + str(abs(c)))
            continue
        mag = "t" if e == 1 else "t^%d" % e
        if abs(c) != 1:
            mag = "%d*%s" % (abs(c), mag)
        if not parts:
            parts.append(("- " if c < 0 else "") + mag)
        else:
            parts.append(("- " if c < 0 else "+ ") + mag)
    return " ".join(parts) if parts else "0"


def old_series_latex(coeffs):
    """The LaTeX renderer as it was before text and LaTeX shared one loop."""
    parts = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            body = str(abs(c))
        else:
            body = "t" if e == 1 else "t^{%d}" % e
            if abs(c) != 1:
                body = "%d %s" % (abs(c), body)
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) if parts else "0"


@settings(deadline=None)
@given(st.lists(st.sampled_from([0, 0, 1, -1]) | st.integers(-12, 12), max_size=8))
def test_series_render_keeps_the_text_and_latex_spellings(coeffs):
    series = TruncSeries(coeffs, max(len(coeffs) - 1, 0))
    result = {"kind": "series", "value": series}
    assert cli.render_result(result, "text") == old_series_text(series.coeffs) + "\n"
    assert cli.render_result(result, "latex") == old_series_latex(series.coeffs) + "\n"


# -- exit discipline under mutated documents ------------------------------------

FUZZ_DOCS = [*MODE_DOCS.values()] + [
    json.loads(path.read_text()) for path in sorted(PROBLEMS.glob("*.json"))
]

# Small JSON values: integers stay tiny so that no mutated document runs long.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.sampled_from(["", "x", "1/2", "-1", "1/0", *problemfile.MODES]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["coeff", "exp", "rank", "x"]), inner, max_size=3),
    max_leaves=6,
)


def field_paths(value, prefix=()):
    """Every key path into nested objects and arrays."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_mutated_document_exits_0_1_or_2_with_at_most_one_error_line(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCS)))
    path = data.draw(st.sampled_from(list(field_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "problem.json"
        target.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(target)])
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert out.getvalue() == ""


# The mutation fuzz of every mode: one to four edits of a committed or
# MODE_DOCS document, each a value replaced by a value of another kind, a key
# deleted, an array element repeated up to 50 times or the mode swapped.  The
# large value is past every size budget, and as a pole order or coefficient
# it costs nothing; documents that cost time or memory are the subprocess
# cases of TINY_DOCUMENTS.
MUTANT_VALUES = st.sampled_from([
    10 ** 12, -2, -1.5, 0.5, "3/2", True, False, None, "x", [[1, "a"]], {"rank": [2]},
])


@st.composite
def mutated_documents(draw):
    """(document, flags): a mutated document and, one run in five,
    ``--check-invariants``."""
    doc = copy.deepcopy(draw(st.sampled_from(list(mode_documents().values()))))
    for _ in range(draw(st.integers(1, 4))):
        paths = list(field_paths(doc))
        edit = draw(st.sampled_from(["replace", "resize", "mode"]))
        if edit == "mode" or not paths:
            doc["mode"] = draw(st.sampled_from(list(problemfile.MODES)))
            continue
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if edit == "replace":
            parent[key] = copy.deepcopy(draw(MUTANT_VALUES))
        elif isinstance(parent, dict):  # resize: delete the key or repeat the element
            del parent[key]
        else:
            parent[key:key + 1] = [copy.deepcopy(parent[key])
                                   for _ in range(draw(st.integers(2, 50)))]
    return doc, ["--check-invariants"] if draw(st.integers(0, 4)) == 0 else []


@settings(max_examples=300, deadline=None)
@given(mutated_documents())
def test_every_mutated_document_ends_in_exit_0_1_or_2(case):
    doc, flags = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "problem.json"
        target.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(target), *flags])
    err = err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err
    if flags:
        return
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert out.getvalue() == ""
    else:
        assert err == ""
