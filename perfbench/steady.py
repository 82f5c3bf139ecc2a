"""Steadiness report: repeat each workload and summarise every metric.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 1]
    python3 perfbench/steady.py --drift

Runs ``run.py`` once per seed (first-seed, first-seed+1, ...), one process
at a time, and prints for every end-to-end metric the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and their distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
Raw results go to ``.perfbench_out/steady-<workload>.json``.

``--drift`` instead times a fixed 20k-term Fraction sum 60 times back to
back, a probe of host speed drift that involves no apolar code.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d failed (exit %d):\n%s\n%s"
                         % (workload, seed, proc.returncode, proc.stdout, proc.stderr))
    result = json.loads(lines[-1])
    result["process_wall_s"] = wall
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def drift(reps=60, terms=20000):
    values = [Fraction(k % 97 + 1, k % 89 + 1) for k in range(terms)]
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        sum(values, Fraction(0))
        times.append(1000 * (perf_counter() - t0))
    med, q1, q3, rel = spread(times)
    print("fixed %d-term Fraction sum, %d reps: min %.1f ms, q1 %.1f, median %.1f, "
          "q3 %.1f, max %.1f ms, IQR/median %.3f"
          % (terms, reps, min(times), q1, med, q3, max(times), rel))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--drift", action="store_true")
    args = p.parse_args()
    if args.drift:
        drift()
        return 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    OUT_DIR.mkdir(exist_ok=True)
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results = []
        for k in range(args.runs):
            seed = args.first_seed + k
            results.append(run_once(workload, seed, bench["run_seconds"]))
            print("  %s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (m, v["value"]) for m, v in results[-1]["metrics"].items())),
                flush=True)
        (OUT_DIR / ("steady-%s.json" % workload)).write_text(json.dumps(results))
        print("%s: %d runs, max process wall %.1f s" % (
            workload, len(results), max(r["process_wall_s"] for r in results)))
        print("  %-14s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            flag = "" if rel < bounds[name] / 3 else "  <- above bound/3"
            ok = ok and not flag
            print("  %-14s %12.5g %12.5g %12.5g %8.3f %8.2f%s"
                  % (name, med, q1, q3, rel, bounds[name], flag), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
