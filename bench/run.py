"""The nrquot benchmark: seeded workloads, checked answers, timed end to end.

Run from the root of a checkout:

    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --workload jk-pairing --seed 7 --seconds 30 --trace 1

With ``--trace 0`` each pass over a workload's items runs in its own worker
process (``--worker``), one after another: the worker imports the package
from ``src/``, generates the inputs, warms up (its set-up time), runs the
pass and reports.  Passes continue until the next would end after
``--seconds``.  A fresh process per pass starts every pass from the same
state and measures the set-up once per pass.  With ``--trace 1`` one process runs
one untraced and one traced pass of the same items and reports the
per-layer metrics (see spans.py); ``--seconds`` does not apply, so the
counts repeat exactly for a given seed.  ``cli-batch`` traces an in-process
replay of its argv list through ``nrquot.cli.main``.

Every answer is checked against the naive oracles in oracles.py; a wrong
answer, an exception, or a wrong exit code or message fails that item and
the run goes on.  Human-readable lines with all six end-to-end figures
come first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics listed in BENCHMARK.json (``--trace 0``) or every per-layer metric
(``--trace 1``).  A record of the run (the generated items, versions,
commit, every latency, all figures) is written to ``.bench_out/`` in the
checkout.
"""

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
STARTUP_REPEATS = 5
RUN_LIMIT_S = 150  # a run must end within 180 s even if a pass hangs
UNITS = {"setup_s": "s", "wall_s": "s", "latency_ms.p50": "ms", "latency_ms.tail": "ms",
         "peak_rss_mb": "MB", "fail_frac": "ratio"}
TAIL_BEYOND = 10

import spans  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402


class BenchError(RuntimeError):
    """The package was imported from somewhere other than the checkout."""


def load_package():
    """Import nrquot from the checkout, never from site-packages."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("nrquot")
    if Path(package.__file__).resolve().parent != (SRC / "nrquot").resolve():
        raise BenchError("imported nrquot from %s, not from %s" % (package.__file__, SRC))
    mods = {short: importlib.import_module("nrquot." + short)
            for short in ("polyring", "localize", "groupdata", "residue", "cohring", "cli")}
    mods["src"] = str(SRC)
    return mods


def set_up(name, seed, started=None):
    """Import, generate the inputs and warm up; returns items and the time
    since ``started`` (a ``time.monotonic()`` reading, by default now)."""
    if started is None:
        started = time.monotonic()
    items = workloads.build(name, load_package(), seed, str(OUT / "work" / name))
    for item in items:
        if item.name == workloads.WARMUP[name]:
            try:
                item.run()
            except Exception:  # the measured pass records the failure
                pass
    elapsed = time.monotonic() - started
    # The inputs stay alive for the whole pass; freezing them keeps the
    # collector from re-scanning them during timed items.
    gc.collect()
    gc.freeze()
    return items, elapsed


class Pass:
    def __init__(self):
        self.wall_s = 0.0
        self.latencies = []
        self.answers = []
        self.failures = []
        self.observed = []  # (item, snapshot before, snapshot after)


def run_pass(items, replay=False, observe=None):
    """Run every item once, then check the answers outside the timed region.

    ``observe()``, when given, is called before and after each item and its
    two snapshots are kept in ``observed``.
    """
    result = Pass()
    start = time.perf_counter()
    for item in items:
        call = item.replay if replay else item.run
        before = observe() if observe else None
        t0 = time.perf_counter()
        try:
            answer = ("ok", call())
        except Exception as exc:  # a failing item never aborts the run
            answer = ("error", "%s: %s" % (type(exc).__name__, exc))
        result.latencies.append(time.perf_counter() - t0)
        if observe:
            result.observed.append((item, before, observe()))
        result.answers.append(answer)
    result.wall_s = time.perf_counter() - start
    for item, (status, value) in zip(items, result.answers):
        if status == "error":
            reason = value
        else:
            try:
                reason = item.check(value)
            except Exception as exc:
                reason = "checker raised %s: %s" % (type(exc).__name__, exc)
        if reason:
            result.failures.append((item.name, str(reason)[:300]))
    return result


def tail(latencies):
    """Highest whole percentile with at least TAIL_BEYOND items above it."""
    values = sorted(latencies)
    n = len(values)
    if n <= TAIL_BEYOND:
        return 100, values[-1], n
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    rank = max(1, math.ceil(pct * n / 100))
    return pct, values[rank - 1], n


def peak_rss_mb(name):
    """This process's peak resident set; for cli-batch, its largest child."""
    who = resource.RUSAGE_CHILDREN if name == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- provenance -----------------------------------------------------------------


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance():
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "python": sys.version,
        "numpy": getattr(numpy, "__version__", None),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


# -- untraced run -----------------------------------------------------------------


def worker(name, seed, spawned):
    """Set up and run one pass; print the figures as one JSON line.

    ``spawned`` is the parent's monotonic clock when it started this process
    (the clock is system-wide), so set-up includes interpreter start.
    """
    items, setup_s = set_up(name, seed, spawned)
    result = run_pass(items)
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": result.wall_s,
        "latencies_s": result.latencies,
        "failures": result.failures,
        "peak_rss_mb": peak_rss_mb(name),
        "items": [{"name": i.name, **i.params} for i in items],
    }, default=str))
    return 0


def _run_worker(name, seed, timeout_s):
    """Run one worker in its own process group; kill the group on timeout,
    so that a hung CLI child of the worker is stopped too."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
           "--worker", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "worker timed out after %d s" % timeout_s
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), None
    except ValueError:
        pass
    return None, "worker exited %d: %s" % (proc.returncode, err.strip()[-300:])


def measure(name, seed, seconds):
    passes, failures, attempted = [], [], 0
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        result, error = _run_worker(name, seed, max(10, RUN_LIMIT_S - (begun - start)))
        if error:
            failures.append(("pass %d" % (len(passes) + len(failures) + 1), error))
            attempted += 1
            break
        result["elapsed_s"] = time.perf_counter() - begun
        passes.append(result)
        failures += [tuple(f) for f in result["failures"]]
        attempted += len(result["latencies_s"])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["elapsed_s"] for p in passes) > seconds:
            break
    if not passes:
        return None, {}, attempted, failures, {"passes": []}
    setups = [p["setup_s"] for p in passes]
    # Passes and items are averaged over, not medianed: the sandbox switches
    # between a fast and a 1.7x slower state every few seconds, and a median
    # of a few samples jumps between the two where a mean moves smoothly.
    # Per-item figures also keep the percentiles independent of how many
    # passes fitted in the run.
    latencies = [statistics.mean(t) for t in zip(*(p["latencies_s"] for p in passes))]
    pct, tail_s, count = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.mean(p["wall_s"] for p in passes),
        "latency_ms.p50": statistics.median(latencies) * 1000,
        "latency_ms.tail": tail_s * 1000,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "fail_frac": len(failures) / attempted,
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (len(setups), ", ".join("%.3f" % s for s in setups)),
        "wall_s": "mean of %d passes of %d items" % (len(passes), count),
        "latency_ms.p50": "%d items, each its mean over %d passes" % (count, len(passes)),
        "latency_ms.tail": "p%d of %d items, %d beyond" % (pct, count, TAIL_BEYOND),
        "peak_rss_mb": "largest CLI child" if name == "cli-batch" else "largest worker",
        "fail_frac": "%d of %d items failed" % (len(failures), attempted),
    }
    record = {
        "items": passes[0]["items"],
        "passes": [{k: p[k] for k in ("setup_s", "wall_s", "elapsed_s", "latencies_s")}
                   for p in passes],
        "tail_percentile": pct,
    }
    return metrics, notes, attempted, failures, record


# -- traced run --------------------------------------------------------------------


def _median_ms(argv, env, repeats=STARTUP_REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable] + argv, env=env, cwd=str(ROOT),
                       capture_output=True, check=True, timeout=120)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def _numpy_import_ms(env):
    values = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import nrquot.cli"],
            env=env, cwd=str(ROOT), capture_output=True, text=True, check=True, timeout=120)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                values.append(int(fields[1]) / 1000.0)
    return statistics.median(values) if values else None


def startup_metrics():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    interp = _median_ms(["-c", "pass"], env)
    imported = _median_ms(["-c", "import nrquot.cli"], env)
    return {
        "startup.interp_ms": interp,
        "startup.import_ms": imported - interp,
        "startup.numpy_ms": _numpy_import_ms(env),
    }


def _ratio(num, den):
    return num / den if den else None


def metric_prefix(span):
    """Metric names start with a letter: ``_linalg.rref`` -> ``linalg.rref``."""
    return span.lstrip("_")


def layer_values(tracer, extra):
    """Every per-layer figure the trace can give, by metric name."""
    values = dict(extra)
    for name, (calls, total, own) in tracer.stats.items():
        values[metric_prefix(name) + ".calls"] = calls
        values[metric_prefix(name) + ".total_s"] = total
        values[metric_prefix(name) + ".self_s"] = own
    c = tracer.counters
    values["polyring.MultiPoly.__mul__.term_products"] = c["mul.term_products"]
    values["polyring.MultiPoly.__mul__.collapse_ratio"] = _ratio(
        c["mul.result_terms"], c["mul.term_products"])
    values["polyring.MultiPoly.__add__.terms_copied"] = c["add.terms_copied"]
    values["linalg.rref.cells"] = c["rref.cells"]
    values["linalg.rank_calls_per_scanned_vector"] = _ratio(
        c["subset.rank_calls"], c["subset.scanned"])
    values["cohring.invariant_keep_ratio"] = _ratio(
        c["invariant.kept"], c["invariant.projected"])
    for key, value in tracer.maxima.items():
        what, _, var = key.partition(".")
        values["residue.%s.max%s" % (what, "." + var if var else "")] = value
    return values


def traced(name, seed, layers):
    """Untraced pass, traced pass, untraced pass of the same items."""
    items, setup_s = set_up(name, seed)
    replay = name == "cli-batch"
    before = run_pass(items, replay=replay)
    tracer = spans.Tracer()
    checks = ["binding: " + e for e in tracer.install()]
    try:
        spanned = run_pass(items, replay=replay, observe=lambda: (
            tracer.top_level_s, tracer.calls("cohring.invariant_basis")))
    finally:
        checks += ["removal: " + e for e in tracer.uninstall()]
    after = run_pass(items, replay=replay)
    for untraced in (before, after):
        if spanned.answers != untraced.answers:
            differing = [i.name for i, a, b in zip(items, untraced.answers, spanned.answers)
                         if a != b]
            checks.append("answers: traced pass differs from untraced on %s"
                          % ", ".join(differing))

    ring_calls = [b[1] - a[1] for item, a, b in spanned.observed if item.mode == "ring"]
    extra = {
        "trace.overhead_ratio": spanned.wall_s / statistics.mean((before.wall_s, after.wall_s)),
        "trace.coverage": sum(b[0] - a[0] for _, a, b in spanned.observed)
        / sum(spanned.latencies),
        "cli.ring_invariant_basis.calls_per_item": (
            statistics.mean(ring_calls) if ring_calls else None),
    }
    extra.update(startup_metrics())
    values = layer_values(tracer, extra)

    predicted_on = {}
    for spec in layers["metrics"].values():
        if spec.get("span"):
            predicted_on.setdefault(spec["span"], set()).update(spec["workloads"])
    for span, predicted in sorted(predicted_on.items()):
        if name in predicted and span not in tracer.absent and tracer.calls(span) == 0:
            checks.append("fired: %s never called on %s" % (span, name))

    failures = before.failures + spanned.failures + after.failures
    attempted = 3 * len(items)
    record = {
        "items": [{"name": i.name, **i.params} for i in items],
        "setup_s": setup_s,
        "untraced_wall_s": [before.wall_s, after.wall_s],
        "traced_wall_s": spanned.wall_s,
        "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                  for k, v in sorted(tracer.stats.items())},
        "counters": dict(tracer.counters),
        "maxima": dict(tracer.maxima),
        "absent_spans": tracer.absent,
    }
    return values, attempted, failures, checks, record


# -- reporting -------------------------------------------------------------------


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    with open(BENCH / "layers.json", encoding="utf-8") as handle:
        layers = json.load(handle)
    return spec, layers


def report_untraced(name, seed, seconds, spec):
    """Print all six end-to-end figures; return those BENCHMARK.json bounds."""
    metrics, notes, attempted, failures, record = measure(name, seed, seconds)
    if metrics is None:
        return {}, attempted, failures, [], record
    for key, value in metrics.items():
        print("%-16s %-18s %12.6g %-5s %s" % (name, key, value, UNITS[key], notes[key]))
    record["measured"] = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    out = {m["name"]: record["measured"][m["name"]] for m in spec["end_to_end"]}
    return out, attempted, failures, [], record


def report_traced(name, seed, spec, layers):
    values, attempted, failures, checks, record = traced(name, seed, layers)
    out = {}
    absent = {}
    for metric in spec["per_layer"]:
        key, unit = metric["name"], metric["unit"]
        value = values.get(key)
        span = layers["metrics"].get(key, {}).get("span")
        if value is None or (span and values.get(metric_prefix(span) + ".calls", 0) == 0):
            if span and span in record["absent_spans"]:
                absent[key] = record["absent_spans"][span]
            else:
                predicted = layers["metrics"].get(key, {}).get("workloads", [])
                absent[key] = "not measured on %s (predicted on %s)" % (name, ", ".join(predicted))
            value = 0 if value is None else value
        out[key] = {"value": value, "unit": unit}
        flag = "  absent: " + absent[key] if key in absent else ""
        print("%-16s %-58s %14.6g %s%s" % (name, key, value, unit, flag))
    record["absent_metrics"] = absent
    for line in checks:
        print("%-16s SELF-CHECK FAILED %s" % (name, line))
    if not checks:
        print("%-16s self-check ok: wrappers fired, all bindings patched, answers "
              "identical, wrappers removed" % name)
    return out, attempted, failures, checks, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=float, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nrquot" / "__init__.py").is_file():
        print("bench: no package source at %s" % (SRC / "nrquot"), file=sys.stderr)
        return 2
    if args.worker is not None:
        return worker(args.workload, args.seed, args.worker)
    try:
        spec, layers = load_spec()
    except (OSError, ValueError) as exc:
        print("bench: cannot read the benchmark spec: %s" % exc, file=sys.stderr)
        return 2
    if args.trace:
        try:
            load_package()
        except Exception as exc:  # a package that cannot be imported cannot be traced
            print("bench: cannot import the package: %s: %s" % (type(exc).__name__, exc),
                  file=sys.stderr)
            return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]

    metrics, attempted, failed, problems = {}, 0, 0, 0
    runs = []
    for name in names:
        print("# %s seed %d trace %d" % (name, args.seed, args.trace))
        if args.trace:
            out, n, failures, checks, record = report_traced(name, args.seed, spec, layers)
        else:
            out, n, failures, checks, record = report_untraced(name, args.seed, seconds, spec)
        for item, reason in failures:
            print("%-16s FAILED %s: %s" % (name, item, reason))
        attempted += n
        failed += len(failures)
        problems += len(checks)
        if len(names) == 1:
            metrics = out
        else:
            metrics.update({"%s:%s" % (name, k): v for k, v in out.items()})
        record.update(workload=name, seed=args.seed, trace=args.trace, seconds=seconds,
                      attempted=n, failures=failures, self_check=checks, metrics=out)
        runs.append(record)

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"provenance": provenance(), "argv": sys.argv, "runs": runs},
                  handle, indent=1, default=str)
    print("record: %s" % path.relative_to(ROOT))
    print(json.dumps({
        "correct": failed == 0 and problems == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
