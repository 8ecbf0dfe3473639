"""Smoke test of the benchmark's contract with the package.

``bench/workloads.py`` is imported as it is and each workload is built at a
fixed seed; a few cheap items of each run through the same ``run`` (or, for
cli-batch, the in-process ``replay``) and ``check`` the benchmark uses.  A
renamed function, a changed signature or a wrong answer fails here before it
fails a benchmark run.  The traced run at seed 1 is run in full as well, as
its self-check also fails on a predicted span that stops firing.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCH = REPO / "bench"
SEED = 7

CHEAP_ITEMS = {
    "schubert-ladder": ["flag(1,2)#0", "flag(1,5)#0", "gr(2,4)m0#0", "gr(2,5)m1#0"],
    "jk-pairing": [
        "graded-P1", "graded-P3", "routes-gr(2,4)m0#0", "routes-gr(2,5)m2#0",
        "res-linear-00", "res-degree-00", "res-shear-00", "res-shear-01",
    ],
    "ring-betti": ["ring(1,3)#0", "ring(2,3)#0", "ring(3,4)#0", "ring(3,5)#0"],
    "cli-batch": [
        "flag.text", "grassmannian.latex", "pair_uhat.json", "residue.text", "ring.text",
        "pair_abelianized.json", "pair_reductive.check-invariants", "reemit.ring",
        "malformed.bad_json", "malformed.cone_on_wall", "malformed.reemit_kind",
    ],
}


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports the bench's own oracles by the name "oracles",
    # which the test suite's oracles module also has
    saved = sys.modules.get("oracles")
    sys.modules["oracles"] = _load("bench_oracles", BENCH / "oracles.py")
    try:
        return _load("bench_workloads", BENCH / "workloads.py")
    finally:
        if saved is None:
            del sys.modules["oracles"]
        else:
            sys.modules["oracles"] = saved


@pytest.fixture(scope="module")
def mods():
    """The modules the benchmark hands to its workloads."""
    out = {short: importlib.import_module("nrquot." + short)
           for short in ("polyring", "localize", "groupdata", "residue", "cohring", "cli")}
    out["src"] = str(REPO / "src")
    return out


def test_every_workload_is_covered(workloads):
    assert sorted(CHEAP_ITEMS) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(CHEAP_ITEMS))
def test_cheap_items_pass_their_checks(workloads, mods, tmp_path, name):
    items = {item.name: item for item in workloads.build(name, mods, SEED, str(tmp_path))}
    assert workloads.WARMUP[name] in items
    for key in CHEAP_ITEMS[name]:
        item = items[key]
        answer = item.replay() if name == "cli-batch" else item.run()
        assert item.check(answer) is None, key


def test_traced_run_passes_its_self_check(workloads):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "1", "--trace", "1"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    checked = [line.split()[0] for line in lines if "self-check ok" in line]
    assert sorted(checked) == sorted(workloads.WORKLOADS)
