"""Seeded closed-loop benchmark of the apolar library and CLI.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 20 --trace 0

One process, one thread.  Each case starts when the previous one returns.
The timed phase runs whole passes over the seed's case list for about
``--seconds`` of case time (at least one pass).  Every answer is checked by
independent properties (once per distinct case) and against the reference
digests recorded at the seed commit (every case), outside the timing.  The
checks call apolar code too, so the answers of the traced pass are checked
only after the wrappers are removed.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced pass over the same cases with ``--trace 1``.  Case and
set-up times are scaled to a reference host speed (see hostspeed.py); the
raw wall time of each pass is printed as well.  The exit code is 1 when any
case failed.
"""

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases as C  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

WORKLOADS = ("invariants", "orbits", "classify")
# set-ups per run, fixed per workload; setup_s is their median.  A set-up of
# invariants or orbits takes about 30 ms, and the host-speed scale of so short
# a call is noisy, so they need more repeats than classify's 2 s set-up.
SETUP_REPEATS = {"invariants": 20, "orbits": 20, "classify": 5}
WARMUP_CASES = 10
OUT_DIR = ROOT / ".perfbench_out"


def fresh_import():
    """Import apolar (and apolar.cli) from this checkout's src/, afresh."""
    src = str(ROOT / "src")
    for name in [m for m in sys.modules if m == "apolar" or m.startswith("apolar.")]:
        del sys.modules[name]
    if sys.path[0] != src:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    ap = importlib.import_module("apolar")
    importlib.import_module("apolar.cli")
    if not Path(ap.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError("apolar imported from %s, not from %s" % (ap.__file__, src))
    return ap


def load_refs(refs_dir, workload, smoke):
    path = Path(refs_dir) / ("%s%s.json" % ("smoke-" if smoke else "", workload))
    with open(path) as fh:
        return json.load(fh)["cases"]


def setup(args):
    """Import, seeded generation with hypothesis filtering, reference loading."""
    ap = fresh_import()
    cases = C.build(ap, args.workload, args.seed, args.smoke)
    refs = load_refs(args.refs, args.workload, args.smoke)
    return ap, cases, refs


class Verifier:
    """Counts failures: exceptions, exit codes, wrong or unrecorded answers."""

    def __init__(self, ap, refs):
        self.ap = ap
        self.refs = refs
        self.checked = set()
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.partner = None  # the Q answer an F_101 orbits case is compared with

    def case(self, case, ans, err):
        """Check one answer; cases come in pass order."""
        self.attempted += 1
        bad = [err] if err else self._problems(case, ans, self.partner)
        if bad:
            self.failed += 1
            self.problems.append("%s: %s" % (case["id"], "; ".join(bad)))
        self.partner = ans if case["field"] == "Q" else None

    def _problems(self, case, ans, partner):
        bad = []
        ref = self.refs.get(case["id"])
        if ref is None:
            return ["no recorded reference answer"]
        if ref["answer"] != C.digest(C.canonical(case, ans)):
            bad.append("answer differs from the recorded reference")
        if case["id"] not in self.checked:
            self.checked.add(case["id"])
            if ref["input"] != C.input_digest(case):
                bad.append("input differs from the recorded input")
            bad.extend(C.check(self.ap, case, ans, partner))
        return bad


def run_pass(ap, cases, sampler, done, tracer=None):
    """One closed-loop pass; returns per-case (wall, net, normalised) seconds.
    ``done(case, answer, error)`` takes each answer, outside the timing."""
    times = []
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case_id = i
        ans, exc, timing = sampler.measure(C.run_case, ap, case)
        if tracer is not None:
            tracer.case_id = -1
        times.append(timing)
        done(case, ans, None if exc is None else "%s: %s" % (type(exc).__name__, exc))
    return times


def end_to_end(times, n_pass, setups):
    """End-to-end metrics from normalised case and set-up times."""
    # the highest percentile with >= 10 cases beyond it in every run
    tail_pct = max(50, int(100 * (1 - 10 / n_pass)))
    tail = statistics.quantiles(times, n=100, method="inclusive")[tail_pct - 1]
    return {
        "cases_per_s": (len(times) / sum(times), "1/s"),
        "case_p50_ms": (1000 * statistics.median(times), "ms"),
        "case_tail_ms": (1000 * tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, tail_pct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    p.add_argument("--refs", default=str(HERE / "refs"), help="reference answer directory")
    args = p.parse_args(argv)

    with SpeedSampler() as sampler:
        setups = []
        for _ in range(1 if args.smoke else SETUP_REPEATS[args.workload]):
            result, exc, timing = sampler.measure(setup, args)
            if exc is not None:
                raise exc
            ap, cases, refs = result
            setups.append(timing[2])
            gc.collect()  # drop the previous import's modules before the next
        tracer = Tracer(ap)
        tracer.assert_clean()
        verifier = Verifier(ap, refs)
        if args.trace:
            # warm up on a few cases, then the traced pass, then the untraced
            # pass that trace.overhead_frac compares it with
            run_pass(ap, cases[:WARMUP_CASES], sampler, verifier.case)
            answers = []
            tracer.install()
            try:
                traced = run_pass(ap, cases, sampler, lambda *a: answers.append(a), tracer)
            finally:
                tracer.restore()
            for answer in answers:
                verifier.case(*answer)
            del answers
            untraced = run_pass(ap, cases, sampler, verifier.case)
        else:
            passes = []
            while True:
                passes.append(run_pass(ap, cases, sampler, verifier.case))
                spent = sum(t[1] for p in passes for t in p)
                if spent + sum(t[1] for t in passes[-1]) > args.seconds:
                    break
    tracer.assert_clean()

    if args.trace:
        walls = [t[0] for t in traced]
        member_ids = {i for i, c in enumerate(cases) if c["kind"] in ("member", "nonmember")}
        member_wall = sum(w for i, w in enumerate(walls) if i in member_ids)
        values = tracer.metrics(sum(t[2] for t in traced), sum(t[2] for t in untraced),
                                member_ids, member_wall)
        units = {m: u for m, u, _ in PER_LAYER}
        metrics = {m: {"value": values[m], "unit": units[m]} for m, _, _ in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / ("trace-%s-%d.json" % (args.workload, args.seed)),
                     [c["id"] for c in cases])
        print("traced pass: %d spans, self time %.3f s of %.3f s traced wall"
              % (values["trace.spans"], values["trace.self_sum_s"], sum(walls)))
    else:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / ("cases-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump({"ids": [c["id"] for c in cases], "passes": passes}, fh)
        times = [t[2] for p in passes for t in p]
        values, tail_pct = end_to_end(times, len(cases), setups)
        metrics = {m: {"value": v, "unit": u} for m, (v, u) in values.items()}
        print("%d cases in %d pass(es); case_tail_ms is p%d; wall s per pass: %s; "
              "at reference speed: %s" % (
                  len(times), len(passes), tail_pct,
                  " ".join("%.2f" % sum(t[0] for t in p) for p in passes),
                  " ".join("%.2f" % sum(t[2] for t in p) for p in passes)))

    fail_frac = verifier.failed / verifier.attempted
    for problem in verifier.problems[:20]:
        print("FAIL %s" % problem)
    for name, m in metrics.items():
        print("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-36s %14.6g %s" % ("fail_frac", fail_frac, "ratio"))
    print(json.dumps({
        "correct": verifier.failed == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()
    return 0 if verifier.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
