"""Command-line front end: run a problem file, render the result.

A parsed problem runs through the handler of its mode in
``problemfile.MODES``, the table that also parses its sections and says what
its result holds; ``--reemit`` checks a result document against that table.
Both read the input file in one place: an unreadable file and undecodable,
malformed or over-deep JSON are validation errors.

Exit codes: 0 on success, 1 on a validation error (bad file or schema, or a
field that a handler finds inconsistent, named by its path), 2 on a
computation error (invalid cone, a class that is not Weyl invariant) or on
any unexpected internal error, reported as one ``error: internal error:
...`` line.  Results go to stdout; diagnostics go to stderr.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import problemfile
from .exactnum import _series_text
from .schema import MAX_TRUNCATION_BOUND, ProblemFileError, _expect, _int, _rational, _series

__all__ = ["main", "run", "render_result", "reemit"]


def _rational_latex(value):
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return r"%s\frac{%d}{%d}" % (sign, abs(value.numerator), value.denominator)


def render_result(result, fmt):
    """Render a result document in the requested format.

    ``result`` holds a ``kind`` of ``rational`` or ``series``, a ``value`` and
    the extras that its ``mode`` names in ``problemfile.MODES``; the JSON
    rendering is canonical (sorted keys), so re-rendering is byte-identical.
    """
    named = problemfile.MODES[result["mode"]].extras if "mode" in result else ()
    extras = [key for key in named if key in result]
    if fmt == "json":
        doc = {"kind": result["kind"], "mode": result.get("mode")}
        if result["kind"] == "rational":
            doc["value"] = str(Fraction(result["value"]))
        else:
            series = result["value"]
            doc["coeffs"] = list(series.coeffs)
            doc["bound"] = series.bound
        for key in extras:
            doc[key] = result[key]
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = []
    if result["kind"] == "rational":
        body = (
            _rational_latex(result["value"])
            if fmt == "latex"
            else str(Fraction(result["value"]))
        )
        lines.append(body)
    elif fmt == "latex":
        coeffs = result["value"].coeffs
        lines.append(_series_text(coeffs, lead_minus="-", times=" ", power="t^{%d}"))
    else:
        lines.append(str(result["value"]))
    if fmt == "text":
        # an extra prints each array field (a ring table) on a line, its scalars on one
        for key in extras:
            fields = result[key].items()
            lines += ["%s: %s" % (k, " ".join(map(str, v))) for k, v in fields
                      if isinstance(v, list)]
            scalars = ["%s: %s" % (k, v) for k, v in fields if not isinstance(v, list)]
            lines += [", ".join(scalars)] if scalars else []
    return "\n".join(lines) + "\n"


def reemit(text):
    """Re-render a JSON result document, checked against its mode's entry in MODES."""
    doc = json.loads(text)
    _expect(isinstance(doc, dict), "$", "result document must be a JSON object")
    kind = doc.get("kind")
    if kind == "rational":
        result = {"value": _rational(doc.get("value"), "$.value")}
        keys = {"kind", "mode", "value"}
    elif kind == "series":
        bound = _int(doc.get("bound"), "$.bound", minimum=0, maximum=MAX_TRUNCATION_BOUND)
        result = {"value": _series(doc.get("coeffs"), bound, "$.coeffs")}
        keys = {"kind", "mode", "coeffs", "bound"}
    else:
        raise ProblemFileError("$.kind", "not a result document")
    mode = problemfile._mode(doc)
    entry = problemfile.MODES[mode]
    _expect(kind == entry.kind, "$.kind", "mode %s does not write a %s" % (mode, kind))
    keys.update(entry.extras)
    for key in doc:
        _expect(key in keys, "$." + key, "mode %s does not write this key" % mode)
    for key, read in entry.extras.items():
        if key in doc:
            result[key] = read(doc[key], "$." + key)
    return render_result(dict(result, kind=kind, mode=mode), "json")


def run(problem):
    """Dispatch a parsed problem through its entry of ``problemfile.MODES``.

    Returns a result document: ``{"kind", "mode", "value", ...}``.
    """
    entry = problemfile.MODES[problem.mode]
    return dict(entry.run(problem), kind=entry.kind, mode=problem.mode)


def _moment_diagnostics(problem, stream):
    checks = problem.moment_checks
    if not checks:
        print("moment diagnostics: no matrix data in the problem file", file=stream)
        return True
    from .momentdiag import fixed_point_weight_residual, moment_derivative_check

    ok = True
    for i, check in enumerate(checks):
        for what, residual_of, data, tolerance in (
            ("weight", fixed_point_weight_residual, check.weight, 1e-8),
            ("derivative", moment_derivative_check, check.tangent, 1e-6),
        ):
            if data is not None:
                residual = residual_of(check.sample, data)
                good = residual < tolerance
                ok = ok and good
                print("moment check %d: %s residual %.3e %s"
                      % (i, what, residual, "ok" if good else "MISMATCH"), file=stream)
    return ok


def _invariant_checks(problem, result, stream):
    """Cheap runtime spot checks relevant to the mode that just ran."""
    if problem.pairing is not None and problem.pairing.class_eta is not None:
        scaled = problemfile.ProblemFile(_scale_class(problem.doc, 3))
        doubled = run(scaled)
        if doubled["value"] != 3 * result["value"]:
            print("invariant check FAILED: pairing is not linear in the class", file=stream)
            return False
        print("invariant check: linearity in the class ok", file=stream)
    if result["kind"] == "series":
        series = result["value"]
        if any(c < 0 for c in series.coeffs):
            print("invariant check FAILED: negative series coefficient", file=stream)
            return False
        print("invariant check: nonnegative coefficients ok", file=stream)
    return True


def _scale_class(doc, factor):
    import copy

    doc = copy.deepcopy(doc)
    for term in doc.get("class", []):
        term["coeff"] = str(Fraction(str(term["coeff"])) * factor)
    for point in doc.get("fixed_points", []):
        for term in point.get("restriction", []) or []:
            term["coeff"] = str(Fraction(str(term["coeff"])) * factor)
    return doc


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nrquot",
        description="Exact pairings, Betti series and ring data for GIT quotients "
        "from torus fixed-point and weight data.",
    )
    parser.add_argument("problem", help="JSON problem file (see the repo README)")
    parser.add_argument(
        "--format", choices=("text", "json", "latex"), default="text"
    )
    parser.add_argument(
        "--truncate", type=int, default=None, metavar="N",
        help="override the series truncation bound",
    )
    parser.add_argument(
        "--sign-flip", action="store_true",
        help="take residues at infinity with the opposite sign "
        "(pair_uhat and residue modes; sets options.sign_flip)",
    )
    parser.add_argument(
        "--check-invariants", action="store_true",
        help="run the property spot-checks relevant to this input",
    )
    parser.add_argument(
        "--check-moment", action="store_true",
        help="run the floating-point moment-map diagnostics, if data is present",
    )
    parser.add_argument(
        "--reemit", action="store_true",
        help="treat the input as a JSON result document and re-render it",
    )
    args = parser.parse_args(argv)
    try:
        return _main(args)
    except Exception as exc:  # last resort: one line and exit 2, never a traceback
        print("error: internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


def _main(args):
    try:
        with open(args.problem, "r", encoding="utf-8") as handle:
            text = handle.read()
        if args.reemit:
            rendered = reemit(text)
        else:
            doc = json.loads(text)
    except OSError as exc:
        print("error: cannot read %s: %s" % (args.problem, exc), file=sys.stderr)
        return 1
    except ProblemFileError as exc:  # a malformed result document
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:  # undecodable, malformed or too deep
        print("error: invalid JSON: %s" % exc, file=sys.stderr)
        return 1
    if args.reemit:
        return _emit(rendered, args.problem, "json", True)
    # The flags go into the document's options, so that a re-run of the
    # parsed document (as --check-invariants does) sees them too.  Options
    # that are not an object, or a sign_flip that is not a boolean, are left
    # for the parser to reject.
    options = doc.setdefault("options", {}) if isinstance(doc, dict) else None
    if isinstance(options, dict):
        if args.truncate is not None:
            options["truncation_bound"] = args.truncate
        if args.sign_flip and options.get("sign_flip", False) is False:
            options["sign_flip"] = True

    try:
        problem = problemfile.parse(doc)
    except ProblemFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    try:
        result = run(problem)
    except ProblemFileError as exc:  # a field the handler found inconsistent
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    ok = True
    if args.check_moment:
        try:
            ok = _moment_diagnostics(problem, sys.stderr) and ok
        except (ValueError, ArithmeticError) as exc:
            print("moment check error: %s" % exc, file=sys.stderr)
            ok = False
    if args.check_invariants:
        try:
            ok = _invariant_checks(problem, result, sys.stderr) and ok
        except (ValueError, ArithmeticError) as exc:
            print("invariant check error: %s" % exc, file=sys.stderr)
            ok = False

    return _emit(render_result(result, args.format), args.problem, args.format, ok)


def _emit(rendered, source, fmt, ok):
    """Print the rendered result and, when ``NRQUOT_OUTPUT_DIR`` is set, write
    it there as ``<stem of source>.<format extension>``; the exit code."""
    sys.stdout.write(rendered)
    outdir = os.environ.get("NRQUOT_OUTPUT_DIR")
    if outdir:
        stem = os.path.splitext(os.path.basename(source))[0]
        ext = {"text": "txt", "json": "json", "latex": "tex"}[fmt]
        target = os.path.join(outdir, "%s.%s" % (stem, ext))
        try:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(rendered)
        except OSError as exc:
            print("error: cannot write %s: %s" % (target, exc), file=sys.stderr)
            return 2
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
