"""The benchmark's workloads: set-up, one job, and the checks on its outputs.

Every workload is a closed loop of identical jobs: one client, the next job
starts when the previous one returns. Every job runs the A6 contraction
trace (1000 points, subset 0.1, 150 full-batch epochs, lr 1e-4, full scope,
hidden (64,)) ``TRACES_PER_JOB`` times, spread over the job, so that each
workload reports ``trace_s``: the full-batch SGD steps and full-scope
monitor on 1,000 rows. A trace takes about 0.2 s, short enough that a burst
of load on a shared host moves a single reading; the run's median over
several readings per job, taken at different times, is steadier.

- ``desk-run``: ``gradal run`` on the A5 shape (blobs 1200x10, 4 classes,
  spread 2.5, split 0.2, net 10-64-32-4, lr 0.01, 30 epochs, minibatch 8,
  all five methods, b=20, T=10, last-layer scope) with 2 experiment seeds,
  i.e. 110 train/evaluate rounds and 100 selections, then ``gradal
  compare`` on its output. Training-bound.
- ``pool-25k``: the ``gradal timing`` set-up (blobs with 10 classes and 20
  features, net 20-128-64-10 trained 3 epochs on 500 labeled points),
  ``select_batch`` calls over a 25,000-point pool at b=20 (grad, entropy and
  kcenter twice, badge and random once), and ``grad`` at full scope over
  5,000 of those points. Selection-bound, with the full-scope gradients
  setting peak memory.

A job returns the operations it attempted, the failures of its output
checks, its timings and the digests of its scientific outputs.
"""

import hashlib
import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Timed calls go through module attributes so that the traced run sees them.
from gradal import acquisition, cli, contraction
from gradal.acquisition import METHODS
from gradal.al_loop import evaluate_accuracy
from gradal.contraction import ContractionConfig
from gradal.data import Dataset, PoolState, SplitSpec, init_pool, make_blobs, split
from gradal.model import FULL, LAST_LAYER, ArchSpec, TrainConfig, init_model, train
from gradal.numerics import Rng, derive_seed

SELECTORS = ("grad", "entropy", "kcenter", "badge", "random")
TIMED_SELECTORS = SELECTORS[:4]  # random is sub-millisecond: no metric

# what a malformed output file raises while it is checked
MALFORMED = (KeyError, IndexError, TypeError, ValueError, AttributeError)

DESK_ROUNDS = 10
DESK_B = 20
TIMING_LABELED = 500
POOL_SIZE = 25_000
FULL_SCOPE_POOL = 5_000
POOL_B = 20
TRACES_PER_JOB = 3
REPEATED_SELECTORS = ("grad", "entropy", "kcenter")  # called twice per pool-25k job


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json_digest(payload) -> str:
    return _digest(json.dumps(payload, sort_keys=True).encode())


@dataclass
class JobResult:
    """Outcome of one job. Operations are named; an output digest is keyed
    by the name of the operation that produced it."""

    wall_s: float = 0.0
    ops: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    acquire_s: dict = field(default_factory=lambda: {m: [] for m in METHODS})
    trace_s: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    final_acc: float = 0.0  # desk-run only

    def check(self, op: str, problems: list):
        """Count one operation; it fails when its checks found problems."""
        self.ops.append(op)
        for problem in problems:
            self.fail(op, problem)

    def fail(self, op: str, problem: str):
        self.failures.setdefault(op, []).append(problem)

    def repeat_problems(self, op: str, digest: str) -> list:
        """Keep the first output digest of ``op``; a repeat of ``op`` in the
        same job must give the same digest."""
        if self.digests.setdefault(op, digest) != digest:
            return ["output differs from an earlier call in this job"]
        return []


def batch_problems(indices, scores, unlabeled, b) -> list:
    """Invariants of one selected batch against the pool it was drawn from."""
    indices = np.asarray(indices)
    problems = []
    if indices.size != min(b, unlabeled.size):
        problems.append(f"size {indices.size} != min(b, |U|) = {min(b, unlabeled.size)}")
    if np.unique(indices).size != indices.size:
        problems.append("duplicate indices")
    if not np.isin(indices, unlabeled).all():
        problems.append("indices outside the unlabeled pool")
    if scores is not None and not np.all(np.isfinite(scores)):
        problems.append("non-finite scores")
    return problems


# ------------------------------------------------------------------ A6 trace

def a6_setup(seed: int):
    base = make_blobs(1500, 3, 8, spread=1.0, seed=seed)
    dataset = Dataset(base.features * 3.0, base.labels, base.n_classes, name=base.name)
    cfg = ContractionConfig(s_size=1000, subset_fraction=0.1, epochs=150,
                            learning_rate=1e-4, seed=seed, scope=FULL,
                            hidden_widths=(64,))
    return dataset, cfg


def timed_call(fn, *args, **kwargs):
    """(result, seconds); a raised error is returned as the result."""
    started = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # a raised error is a failed operation
        result = exc
    return result, time.perf_counter() - started


def run_a6(a6):
    dataset, cfg = a6
    return timed_call(contraction.run_contraction_trace, cfg, dataset)


def check_a6(job: JobResult, traces: list):
    """Check each (report, seconds) of one job's traces; every repeat must
    give the first one's df_norms."""
    for report, seconds in traces:
        if isinstance(report, Exception):
            job.check("trace", [repr(report)])
            continue
        job.trace_s.append(seconds)
        df = np.asarray(report.df_norms)
        problems = []
        if df.shape != (150,):
            problems.append(f"df_norms has shape {df.shape}")
        if not np.all(np.isfinite(df)):
            problems.append("non-finite df_norms")
        problems += job.repeat_problems("trace", _digest(df.astype(np.float64).tobytes()))
        job.check("trace", problems)


# ------------------------------------------------------------------ desk-run

def _without_seconds(records: list) -> list:
    """Round records minus their wall time, A8's normalisation (results.json
    holds no other time field; the timestamps live in manifest.json)."""
    return [{k: v for k, v in rec.items() if k != "acquisition_seconds"}
            for rec in records]


class DeskRun:
    def __init__(self, seed: int, work: Path):
        self.seeds = [2 * seed, 2 * seed + 1]
        self.config = {
            "dataset": {"kind": "blobs", "n_samples": 1200, "n_classes": 4,
                        "n_features": 10, "spread": 2.5, "seed": seed},
            "split": {"test_fraction": 0.2, "seed": seed},
            "model": {"hidden_widths": [64, 32]},
            "train": {"learning_rate": 0.01, "epochs": 30, "minibatch_size": 8},
            "methods": list(METHODS),
            "seeds": self.seeds,
            "batch_size": DESK_B,
            "rounds": DESK_ROUNDS,
            "initial_size": DESK_B,
            "scope": LAST_LAYER,
        }
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.config_path = work / "desk-run.json"
        self.config_path.write_text(json.dumps(self.config), encoding="utf-8")
        cfg = self.config["dataset"]
        dataset = make_blobs(cfg["n_samples"], cfg["n_classes"], cfg["n_features"],
                             cfg["spread"], cfg["seed"])
        self.train_idx, _, _ = split(dataset, SplitSpec(test_fraction=0.2, seed=seed))
        self.a6 = a6_setup(seed)

    def job(self, k: int, measured=nullcontext) -> JobResult:
        """One job; only the part inside ``measured()`` is timed."""
        job = JobResult()
        out = self.work / f"job{k}"
        with measured():
            started = time.perf_counter()
            traces = [run_a6(self.a6)]
            rc_run = cli.main(["run", "--config", str(self.config_path),
                               "--out", str(out / "run")])
            traces += [run_a6(self.a6) for _ in range(TRACES_PER_JOB - 2)]
            rc_compare = cli.main(["compare", "--results", str(out / "run"),
                                   "--out", str(out / "compare")])
            traces.append(run_a6(self.a6))
            job.wall_s = time.perf_counter() - started
        check_a6(job, traces)
        self._check_run(job, rc_run, out / "run")
        self._check_compare(job, rc_compare, out / "compare")
        shutil.rmtree(out, ignore_errors=True)
        return job

    def _check_run(self, job: JobResult, rc: int, out: Path):
        schedules = [(m, s) for m in METHODS for s in self.seeds]
        paths = sorted(out.glob("*/results.json"))
        if rc != 0 or len(paths) != 1:
            for m, s in schedules:
                job.check(f"{m}/seed{s}", [f"run exited {rc} with {len(paths)} results.json"])
            return
        payload = json.loads(paths[0].read_text(encoding="utf-8"))
        finals = []
        for m, s in schedules:
            op = f"{m}/seed{s}"
            try:
                problems, records = self._schedule(payload, m, s)
                if records:
                    seconds = [rec["acquisition_seconds"] for rec in records[:-1]]
                    job.acquire_s[m].extend(seconds)
                    finals.append(records[-1]["test_accuracy"])
                    job.digests[op] = _json_digest(_without_seconds(records))
            except MALFORMED as exc:
                problems = [f"malformed results.json: {exc!r}"]
            job.check(op, problems)
        job.final_acc = float(np.mean(finals)) if finals else 0.0
        if len(finals) == len(schedules):
            for entry in payload["per_method"].values():
                entry["per_seed"] = [_without_seconds(seq) for seq in entry["per_seed"]]
            job.digests["results.json"] = _json_digest(payload)

    def final_acc(self, jobs) -> float:
        """Mean final-round test accuracy over methods x seeds."""
        return jobs[0].final_acc

    def _schedule(self, payload: dict, method: str, seed: int):
        """Check one (method, seed) schedule by replaying its pool."""
        entry = payload["per_method"].get(method)
        if entry is None or seed not in entry["seeds"]:
            return [f"missing from results.json ({entry and entry['seed_errors']})"], None
        records = entry["per_seed"][entry["seeds"].index(seed)]
        if len(records) != DESK_ROUNDS + 1:
            return [f"{len(records)} rounds recorded"], None
        problems = []
        labeled = init_pool(self.train_idx, DESK_B, seed).labeled
        for t, rec in enumerate(records):
            acc = rec["test_accuracy"]
            if not (np.isfinite(acc) and 0.0 <= acc <= 1.0):
                problems.append(f"round {t}: accuracy {acc}")
            if rec["round"] != t or rec["labeled_size"] != labeled.size:
                problems.append(f"round {t}: labeled size {rec['labeled_size']}")
            if t == DESK_ROUNDS:
                break
            batch = rec["batch"] or {}
            indices = np.asarray(batch.get("indices", []), dtype=np.int64)
            unlabeled = np.setdiff1d(self.train_idx, labeled)
            problems += [f"round {t}: {p}" for p in
                         batch_problems(indices, batch.get("scores"), unlabeled, DESK_B)]
            labeled = np.union1d(labeled, indices)
        return problems, records

    def _check_compare(self, job: JobResult, rc: int, out: Path):
        paths = sorted(out.glob("*/ppm.json"))
        if rc != 0 or len(paths) != 1:
            job.check("compare", [f"compare exited {rc} with {len(paths)} ppm.json"])
            return
        problems = []
        try:
            payload = json.loads(paths[0].read_text(encoding="utf-8"))
            values = np.asarray(payload["P"], dtype=float)
            if values.shape != (len(METHODS), len(METHODS)) or not np.all(np.isfinite(values)):
                problems.append("penalty matrix is not a finite 5x5 matrix")
            if not all(np.isfinite(v) for v in payload["loss_scores"].values()):
                problems.append("non-finite loss scores")
            job.digests["compare"] = _json_digest(payload)
        except MALFORMED as exc:
            problems.append(f"malformed ppm.json: {exc!r}")
        job.check("compare", problems)


# ------------------------------------------------------------- pool selection

class PoolSelection:
    """A ``gradal timing`` round plus full-scope scoring.

    The scored net follows ``gradal timing``: blobs with 10 classes and 20
    features, spread 2.0, a 20-128-64-10 net trained 3 epochs (lr 0.01) on
    500 labeled points. A job makes ``select_batch`` calls over the
    25,000-point pool -- a first round of every selector, then a second
    round of the sub-second ones so that their medians rest on more calls
    -- and one ``grad`` call at full scope over the pool's first 5,000
    points (5,000 x 11,594 per-example gradients; the whole pool would need
    about 7 GB), with the A6 traces spread between the calls.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.dataset = make_blobs(POOL_SIZE + TIMING_LABELED, 10, 20, 2.0, seed)
        base = init_pool(np.arange(self.dataset.n_samples), TIMING_LABELED, seed)
        self.pool = PoolState(labeled=base.labeled, unlabeled=base.unlabeled[:POOL_SIZE])
        full_pool = PoolState(labeled=base.labeled, unlabeled=base.unlabeled[:FULL_SCOPE_POOL])
        # (operation, selector, pool, scope)
        self.selections = [(m, m, self.pool, LAST_LAYER) for m in SELECTORS]
        self.selections += [(m, m, self.pool, LAST_LAYER) for m in REPEATED_SELECTORS]
        self.selections.append(("grad-full", "grad", full_pool, FULL))
        arch = ArchSpec(input_dim=20, n_classes=10, hidden_widths=(128, 64))
        model = init_model(arch, seed=derive_seed(seed, "init"))
        self.model = train(model, self.dataset, self.pool.labeled,
                           TrainConfig(learning_rate=0.01, epochs=3,
                                       seed=derive_seed(seed, "train")))
        self.a6 = a6_setup(seed)

    def final_acc(self, jobs) -> float:
        """Accuracy of the scored net on its pool."""
        return evaluate_accuracy(self.model, self.dataset, self.pool.unlabeled)

    def job(self, k: int, measured=nullcontext) -> JobResult:
        """One job; only the part inside ``measured()`` is timed."""
        job = JobResult()
        calls, traces = [], []
        # a trace before the first call, then one after each equal share of them
        trace_after = {len(self.selections) * (i + 1) // (TRACES_PER_JOB - 1) - 1
                       for i in range(TRACES_PER_JOB - 1)}
        with measured():
            started = time.perf_counter()
            traces.append(run_a6(self.a6))
            for i, (op, method, pool, scope) in enumerate(self.selections):
                rng = Rng(self.seed).derive(f"timing/{method}/round0")
                calls.append((op, pool, timed_call(acquisition.select_batch, method, self.model,
                                                   self.dataset, pool, POOL_B, rng, scope=scope)))
                if i in trace_after:
                    traces.append(run_a6(self.a6))
            job.wall_s = time.perf_counter() - started
        check_a6(job, traces)
        for op, pool, (batch, seconds) in calls:
            if isinstance(batch, Exception):
                job.check(op, [repr(batch)])
                continue
            if op in job.acquire_s:
                job.acquire_s[op].append(seconds)
            job.check(op, batch_problems(batch.indices, batch.scores, pool.unlabeled, POOL_B)
                      + job.repeat_problems(op, _digest(batch.indices.tobytes())))
        return job


def make_workload(name: str, seed: int, work: Path):
    if name == "desk-run":
        return DeskRun(seed, work)
    if name == "pool-25k":
        return PoolSelection(seed)
    raise ValueError(f"unknown workload {name!r}")
