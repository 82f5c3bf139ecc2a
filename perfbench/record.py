"""Record the reference answers of every pool case (run once, at the seed commit).

    python3 perfbench/record.py [--smoke] [--workload NAME ...]

Each pool case is run, must pass every property check, and is stored as
digests of its input and of its canonical answer, plus a few small facts in
clear.  run.py compares every answer against these digests, so a later
change that alters any answer bit shows up as a failed case.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases as C  # noqa: E402
from run import WORKLOADS, fresh_import  # noqa: E402


def record(ap, workload, smoke):
    out = {}
    partner = None
    for case in C.pool(ap, workload, smoke):
        t0 = perf_counter()
        ans = C.run_case(ap, case)
        elapsed = perf_counter() - t0
        bad = C.check(ap, case, ans, partner)
        if bad:
            raise SystemExit("%s fails its checks: %s" % (case["id"], bad))
        partner = ans if case["field"] == "Q" else None
        out[case["id"]] = {
            "input": C.input_digest(case),
            "answer": C.digest(C.canonical(case, ans)),
            "summary": C.summary(case, ans),
        }
        print("%-40s %8.3f s %s" % (case["id"], elapsed, out[case["id"]]["summary"]), flush=True)
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args()
    ap = fresh_import()
    (HERE / "refs").mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        cases = record(ap, workload, args.smoke)
        path = HERE / "refs" / ("%s%s.json" % ("smoke-" if args.smoke else "", workload))
        with open(path, "w") as fh:
            json.dump({"workload": workload, "smoke": args.smoke, "cases": cases},
                      fh, indent=0, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
