"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench

They run every workload briefly, so they take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_appears_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    if trace:
        assert result["metrics"]["acquisition.batch_fill_ratio"]["value"] == 1.0
        assert result["metrics"]["contraction.epochs"]["value"] == 150
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    for line in proc.stdout.splitlines():
        assert "MISMATCH" not in line and "MISSING" not in line, line


def _gradal_bindings():
    bindings = {}
    for name, module in sorted(sys.modules.items()):
        if name == "gradal" or name.startswith("gradal."):
            bindings.update({(name, k): v for k, v in vars(module).items()})
    from gradal.data import PoolState
    from gradal.numerics import Rng
    bindings["Rng.__init__"] = Rng.__dict__["__init__"]
    bindings["PoolState.acquire"] = PoolState.__dict__["acquire"]
    return bindings


def test_tracer_restores_the_original_functions(tmp_path):
    job = workloads.make_workload("pool-25k", 0, tmp_path)
    before = _gradal_bindings()
    tr = tracer.Tracer()
    with tr:
        wrapped = _gradal_bindings()
        assert wrapped[("gradal.al_loop", "train")] is not before[("gradal.al_loop", "train")]
        assert wrapped["Rng.__init__"] is not before["Rng.__init__"]
        with pytest.raises(RuntimeError):
            tr.install()
        job.job(0)
    assert tr.spans
    after = _gradal_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload, tmp_path):
    job = workloads.make_workload(workload, 0, tmp_path)
    counts, tracers, walls = [], [], []
    for k in range(2):
        tr = tracer.Tracer()
        walls.append(job.job(k, lambda: tr).wall_s)
        tracers.append(tr)
        metrics = tracer.layer_metrics(tr.spans)
        counts.append({name: metrics[name] for name in tracer.EXACT_COUNTS})
    assert counts[0] == counts[1]

    # the root spans cover the job's wall time but for the benchmark's own
    # bookkeeping between calls
    spans = tracers[1].spans
    roots = sum(s.end - s.start for s in spans if s.parent < 0)
    assert 0.0 < walls[1] - roots < 0.01 * walls[1]
    if workload == "desk-run":
        metrics = tracer.layer_metrics(spans)
        assert counts[0]["al_loop.train.calls"] == 110
        runs = sum(s.end - s.start for s in spans if s.name == "al_loop.run_experiment")
        phases = sum(metrics[f"al_loop.phase.{p}_s"] for p in ("train", "eval", "select"))
        assert phases + metrics["al_loop.self_s"] == pytest.approx(runs, rel=1e-9)


def test_batch_checks_catch_bad_batches():
    unlabeled = np.arange(10, 20)
    assert workloads.batch_problems([10, 11], [0.5, 0.1], unlabeled, 2) == []
    assert workloads.batch_problems([10, 10], None, unlabeled, 2)
    assert workloads.batch_problems([10, 3], None, unlabeled, 2)
    assert workloads.batch_problems([10], None, unlabeled, 2)
    assert workloads.batch_problems([10, 11], [np.nan, 0.1], unlabeled, 2)

    job = workloads.JobResult()
    assert job.repeat_problems("grad", "digest-a") == []
    assert job.repeat_problems("grad", "digest-a") == []
    assert job.repeat_problems("grad", "digest-b")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "desk-run", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
