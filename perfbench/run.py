"""gradal benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Each workload runs in fresh child processes,
one after another: ``SETUP_REPEATS`` children that only set up (import,
dataset, split, pool, scored net) and one child that sets up and then runs
the workload's job in a closed loop for ``--seconds``. ``setup_s`` is the
median, over all of them, of the time from spawning the child to the end of
its set-up. The measuring child's first job is a warm-up: its outputs are
checked, but its times are not reported. With ``--trace 1`` the measuring
child alternates untraced and traced jobs and reports the per-layer metrics
of the traced ones plus the tracing overhead (median traced minus median
untraced job wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, failed_frac, the environment, and each
output digest against the reference digests in ``reference_digests.json``
(compared at the default seed only). Full results, and the spans of a
traced run, are written under ``.perfbench/results/``.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("desk-run", "pool-25k")
DEFAULT_SEED = 0
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 150


def clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# ------------------------------------------------------------------ child

def _blas_threads() -> str:
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return str(getattr(lib, symbol)())
    return "unknown"


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
    }


def child(args) -> int:
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    workload = workloads.make_workload(args.workload, args.seed, Path(args.work))
    setup_end = clock()
    if args.role == "setup":
        print(json.dumps({"setup_end": setup_end}))
        return 0

    untraced, traced, layers, spans = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    longest = 0.0
    k = 0
    while True:
        started = time.perf_counter()
        if args.trace and k % 2 == 1:
            tr = tracer.Tracer()
            traced.append(workload.job(k, lambda: tr))
            layers.append(tracer.layer_metrics(tr.spans))
            spans.append([s.as_dict() for s in tr.spans])
        else:
            untraced.append(workload.job(k))
        longest = max(longest, time.perf_counter() - started)
        k += 1
        if len(untraced) < 2 or (args.trace and not traced):
            continue  # time at least one job after the warm-up
        if time.perf_counter() + longest > deadline:
            break

    jobs = untraced + traced
    timed = untraced[1:]  # untraced[0] is the warm-up
    # a job whose output differs from the first job's fails that operation
    for job in jobs[1:]:
        for op, digest in job.digests.items():
            if op in job.ops and digest != jobs[0].digests.get(op):
                job.fail(op, "output differs from the first job")
    result = {
        "setup_end": setup_end,
        "jobs": len(jobs),
        "attempted": sum(len(j.ops) for j in jobs),
        "failed": sum(len(j.failures) for j in jobs),
        "failures": [f"job {i}: {op}: {'; '.join(p)}" for i, j in enumerate(jobs)
                     for op, p in j.failures.items()][:20],
        "wall_s": [j.wall_s for j in timed],
        "traced_wall_s": [j.wall_s for j in traced],
        "acquire_s": {m: [s for j in timed for s in j.acquire_s[m]]
                      for m in workloads.TIMED_SELECTORS},
        "trace_s": [s for j in timed for s in j.trace_s],
        "final_acc": workload.final_acc(jobs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests": jobs[0].digests,
        "layers": {name: median([m[name] for m in layers]) for name in layers[0]} if layers else {},
        "environment": _environment(),
    }
    if spans:
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        path = OUT / "results" / f"{args.workload}-seed{args.seed}-spans.json"
        path.write_text(json.dumps(spans), encoding="utf-8")
    print(json.dumps(result))
    return 0


# ------------------------------------------------------------------ parent

def _spawn(role: str, args, work: Path) -> tuple:
    """Run one child; returns (its JSON result, spawn time)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)]
    spawned = clock()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} child for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _reference_check(workload: str, seed: int, digests: dict) -> dict:
    if seed != DEFAULT_SEED:
        return {name: "not compared (reference digests exist for seed "
                      f"{DEFAULT_SEED} only)" for name in digests}
    path = HERE / "reference_digests.json"
    reference = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    status = {}
    for name in sorted(set(reference) | set(digests)):
        if name not in reference:
            status[name] = "no reference"
        elif name not in digests:
            status[name] = "MISSING"
        else:
            status[name] = "match" if digests[name] == reference[name] else "MISMATCH"
    return status


def run_workload(args, spec: dict) -> dict:
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            res, spawned = _spawn("setup", args, work)
            setups.append(res["setup_end"] - spawned)
        res, spawned = _spawn("measure", args, work)
        setups.append(res["setup_end"] - spawned)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.wall_s"] = median(res["traced_wall_s"])
        metrics["trace.overhead_s"] = median(res["traced_wall_s"]) - median(res["wall_s"])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(res["wall_s"]),
            **{f"acquire_s.{m}": median(v) for m, v in res["acquire_s"].items()},
            "trace_s": median(res["trace_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "final_acc": res["final_acc"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    res["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    res["setup_samples_s"] = setups
    res["reference"] = _reference_check(args.workload, args.seed, res["digests"])
    return res


def _print_report(workload: str, args, res: dict, env: dict):
    failed_frac = res["failed"] / max(res["attempted"], 1)
    print(f"== {workload}  seed={args.seed}  seconds={args.seconds}  "
          f"trace={args.trace}  jobs={res['jobs']}")
    print(f"   environment {json.dumps({**env, **res['environment']}, sort_keys=True)}")
    for name, m in res["metrics"].items():
        print(f"   {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"   {'failed_frac':<44} {failed_frac:>16.6g} ratio "
          f"({res['failed']}/{res['attempted']} operations)")
    for line in res["failures"]:
        print(f"   FAILED {line}")
    for name, status in res["reference"].items():
        print(f"   digest {name:<37} {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        return child(args)

    if not (SRC / "gradal" / "__init__.py").is_file():
        print(f"error: gradal sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "loadavg_1min_at_start": os.getloadavg()[0],
    }
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        res = run_workload(args, spec)
        _print_report(name, args, res, env)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": {**env, **res["environment"]},
                  **{k: v for k, v in res.items() if k != "environment"}}
        OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
        OUT.joinpath("results", f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
        results[name] = res

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {name: r["metrics"] for name, r in results.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
