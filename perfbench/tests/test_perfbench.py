"""Self-tests of the benchmark (smoke-sized, a few seconds each).

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from tracer import COUNT_METRICS, Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seconds", "0.5", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def smoke_setup(workload, seed):
    args = run.argparse.Namespace(workload=workload, seed=seed, smoke=True, refs=str(HERE / "refs"))
    return run.setup(args)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    code, result = bench("--workload", workload, "--seed", "3")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [bench("--workload", workload, "--seed", "5", "--trace", "1") for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    first, second = (r["metrics"] for _, r in runs)
    for name in COUNT_METRICS:
        assert first[name] == second[name], name


def test_self_times_never_exceed_wall_time():
    ap, cases, refs = smoke_setup("classify", 7)
    tracer = Tracer(ap)
    verifier = run.Verifier(ap, refs)
    with SpeedSampler() as sampler:
        answers = []
        tracer.install()
        try:
            times = run.run_pass(ap, cases, sampler, lambda *a: answers.append(a), tracer)
        finally:
            tracer.restore()
    for answer in answers:
        verifier.case(*answer)
    selfs = tracer.self_times()
    assert verifier.failed == 0
    assert len(selfs) > 100
    # every span belongs to a case: no checker or set-up work was traced
    assert -1 not in tracer.case
    assert min(selfs) >= -1e-6
    assert sum(selfs) <= sum(wall for wall, _, _ in times)


def test_tracer_restores_every_original():
    ap, _, _ = smoke_setup("orbits", 1)
    original = ap.linalg.rref
    tracer = Tracer(ap)
    tracer.install()
    try:
        assert ap.linalg.rref is not original and ap.actions.rref is ap.linalg.rref
        with pytest.raises(RuntimeError):
            tracer.assert_clean()
    finally:
        tracer.restore()
    tracer.assert_clean()
    assert ap.linalg.rref is original and ap.actions.rref is original


def test_corrupted_reference_is_reported(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(HERE / "refs", refs)
    path = refs / "smoke-classify.json"
    data = json.loads(path.read_text())
    drawn = smoke_setup("classify", 3)[1][0]["id"]
    data["cases"][drawn]["answer"] = "0" * 32
    path.write_text(json.dumps(data))
    code, result = bench("--workload", "classify", "--seed", "3", "--refs", str(refs))
    assert code != 0
    assert not result["correct"] and result["failed"] / result["attempted"] > 0


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, result = bench("--workload", "classify", "--seed", "1", cwd=tmp_path,
                         script=tmp_path / "perfbench" / "run.py")
    assert code != 0 and result is None
