"""The command line's exit code, stdout and stderr on one document of every
mode, in each format, plain and with ``--check-invariants``, and on each
document that breaks one pairing rule, in text with no flags, against the
outputs recorded in ``golden_cli.json``.

A change that means to alter an output regenerates the file from the
repository root with ``PYTHONPATH=src python tests/test_golden_cli.py`` and
shows the difference in its diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from nrquot import cli
from test_cli import graded_rule_breaks, mode_documents, pairing_faults

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
FLAGS = [[*fmt, *check] for fmt in ([], ["--format", "json"], ["--format", "latex"])
         for check in ([], ["--check-invariants"])]


def run(doc, flags):
    """``[exit code, stdout, stderr]`` of ``cli.main`` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([str(path), *flags])
    return [code, out.getvalue(), err.getvalue()]


def outputs():
    """Every recorded case, keyed by its mode and flags or by its fault."""
    cases = {" ".join([mode, *flags]): run(doc, flags)
             for mode, doc in sorted(mode_documents().items()) for flags in FLAGS}
    faults = {**graded_rule_breaks(), **pairing_faults()}
    cases.update(("fault " + name, run(doc, [])) for name, doc in faults.items())
    return cases


def test_cli_outputs_match_the_recorded_outputs():
    assert outputs() == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
