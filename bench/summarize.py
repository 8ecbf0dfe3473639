"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/summarize.py --workloads jk-pairing --seeds 1-5
    python3 bench/summarize.py --seeds 1-10 --out bench/baseline.json

For every workload and each of the six end-to-end figures it prints the
median, the quartiles as ``statistics.quantiles(values, n=4)`` gives them,
and the spread (q3 - q1) / median.  For a metric that BENCHMARK.json bounds,
a spread above a third of the bound is flagged: such a metric is too noisy
to detect a regression of the bound's size.  Runs go one after another, never
in parallel, so they do not compete for the machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import OUT, ROOT, UNITS, provenance


def seeds(text):
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out.extend(range(int(low), int(high or low) + 1))
    return out


def run_once(workload, seed, seconds):
    """One benchmark run; returns its result line and all six figures."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s"
                           % (workload, seed, proc.returncode, proc.stderr[-500:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / ("%s-seed%d-trace0.json" % (workload, seed))).read_text())
    return result, record["runs"][0]["measured"]


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    noisy = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in UNITS}
        correct = True
        for seed in args.seeds:
            result, measured = run_once(workload, seed, args.seconds)
            correct = correct and result["correct"]
            for name in UNITS:
                values[name].append(measured[name]["value"])
            print("%-16s seed %-3d %s" % (workload, seed, "  ".join(
                "%s=%.5g" % (n, v[-1]) for n, v in values.items())), flush=True)
        summary[workload] = {"correct": correct, "seeds": args.seeds, "metrics": {}}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            if name not in bounds:
                flag = "  (not bounded in BENCHMARK.json)"
            elif name != "setup_s" and spread > bounds[name] / 3:
                flag = "  NOISY (above a third of the bound)"
                noisy += 1
            else:
                flag = ""
            print("%-16s %-16s median %-10.5g q1 %-10.5g q3 %-10.5g spread %.4f%s"
                  % (workload, name, median, q1, q3, spread, flag), flush=True)
            summary[workload]["metrics"][name] = {
                "unit": UNITS[name], "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds.get(name), "values": vals}
    if args.out:
        args.out.write_text(json.dumps(
            {"provenance": provenance(), "run_seconds": args.seconds or spec["run_seconds"],
             "workloads": summary}, indent=1) + "\n")
    return 1 if noisy else 0


if __name__ == "__main__":
    sys.exit(main())
