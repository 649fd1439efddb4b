"""Command-line entry points.

Verbs: run, compare, geometry, shift, contraction, timing. Each takes a
JSON config (--config), writes into <out>/<fingerprint>/ where the
fingerprint is a stable hash of the canonicalized config, and exits 0 on
success, 1 on runtime failure, 2 on config errors. The out directory
resolves as --out flag, then GRADAL_OUT, then the config's out_dir, then
./runs. All JSON is written with sorted keys so reruns are byte-stable;
CSVs start with a "# fingerprint=..." comment line, then a header row.
Outputs are written only after a verb succeeds, each file atomically,
manifest.json last: a directory without a manifest is not a finished run.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .acquisition import METHODS, df_scores, select_batch, timed_select
from .al_loop import ExperimentConfig, run_experiments
from .contraction import ContractionConfig, cumulative_df_bound_check, run_contraction_trace
from .data import (
    ColumnError,
    Dataset,
    PoolState,
    SplitSpec,
    init_pool,
    load_csv,
    make_blobs,
    make_shifted,
    split,
    standardized,
)
from .evaluation import (
    ComparisonSlice,
    build_ppm,
    curves_from_results,
    loss_scores,
)
from .model import (
    LAST_LAYER,
    SCOPES,
    ArchSpec,
    TrainConfig,
    diverged_error,
    grad_embeddings,
    init_model,
    train_stack,
)
from .numerics import Rng, derive_seed, pca_project

OUT_ENV_VAR = "GRADAL_OUT"
DEFAULT_OUT = "runs"


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# ---------------------------------------------------------------- config

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fingerprint_of(config: dict) -> str:
    """First 12 hex chars of the sha256 of the canonical config, with
    output-location fields excluded so moving outputs keeps identity."""
    trimmed = {k: v for k, v in config.items() if k != "out_dir"}
    return hashlib.sha256(canonical_json(trimmed).encode()).hexdigest()[:12]


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config: {path} is not UTF-8 text: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config: top level must be an object")
    return config


def _get(cfg: dict, name: str, kind, default=None, required=False, where="", minimum=None,
         choices=None):
    """Field ``name`` of ``cfg`` checked against ``kind``, ``minimum`` and
    ``choices``. A ``tuple`` kind reads a list of positive integers; a
    one-entry list kind such as ``[int]`` reads a nonempty list of distinct
    entries as a tuple, entry i checked as ``name[i]`` against the rest."""
    label = f"{where}{name}"
    if name not in cfg:
        if required:
            raise ConfigError(f"{label}: required field missing")
        return default
    value = cfg[name]
    if kind is tuple:
        if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) and v > 0 for v in value):
            raise ConfigError(f"{label}: expected a list of positive integers")
        return tuple(value)
    if isinstance(kind, list):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{label}: expected a nonempty list")
        entries = {f"{label}[{i}]": v for i, v in enumerate(value)}
        value = tuple(_get(entries, key, kind[0], minimum=minimum, choices=choices)
                      for key in entries)
        if len(set(value)) != len(value):
            raise ConfigError(f"{label}: duplicate entries")
        return value
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer past float64's range
            raise ConfigError(f"{label}: expected a finite number") from None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise ConfigError(f"{label}: expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{label}: expected a finite number, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{label}: must be >= {minimum}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{label}: must be one of {', '.join(choices)}, got {value!r}")
    return value


def _only(raw: dict, names, where=""):
    """Reject a key of ``raw`` that is not in ``names``, naming it, and an
    ``out_dir`` (a key of every verb) that is not a string."""
    unknown = sorted(set(raw) - set(names))
    if unknown:
        raise ConfigError(f"{where}{unknown[0]}: unknown field")
    _get(raw, "out_dir", str, where=where)


def _section(cls, config: dict, name: str, **given):
    """A ``cls`` dataclass from the section ``name`` of ``config``: each field
    not in ``given`` is read under its annotated type, an absent one takes the
    dataclass default, and any other key, a ``given`` field's included, is an
    error."""
    raw = _get(config, name, dict, {})
    read = [f for f in fields(cls) if f.name not in given]
    _only(raw, [f.name for f in read], f"{name}.")
    values = dict(given)
    for f in read:
        required = f.default is MISSING and f.default_factory is MISSING
        value = _get(raw, f.name, f.type, required=required, where=f"{name}.")
        if value is not None:
            values[f.name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def build_dataset(cfg: dict) -> Dataset:
    """The dataset of a ``dataset`` section; a field with no default is required."""
    def get(name, kind, default=None):
        return _get(cfg, name, kind, default, default is None, "dataset.")

    kind = get("kind", str)
    if kind == "blobs":
        _only(cfg, "kind n_samples n_classes n_features spread seed".split(), "dataset.")
        try:
            return make_blobs(get("n_samples", int), get("n_classes", int),
                              get("n_features", int), get("spread", float), get("seed", int, 0))
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from exc
    if kind == "csv":
        _only(cfg, "kind path label_column".split(), "dataset.")
        path, label = get("path", str), get("label_column", str, "label")
        try:
            return load_csv(path, label_column=label)
        except ColumnError as exc:
            raise ConfigError(f"dataset.label_column: {exc}") from exc
        except (OSError, ValueError) as exc:
            raise ConfigError(f"dataset.path: {exc}") from exc
    raise ConfigError(f"dataset.kind: unknown dataset kind {kind!r}")


def _learner(config: dict):
    """(dataset, arch, train config, scope) of a verb that trains."""
    dataset = build_dataset(_get(config, "dataset", dict, required=True))
    arch = _section(ArchSpec, config, "model",
                    input_dim=dataset.n_features, n_classes=dataset.n_classes)
    train_cfg = _section(TrainConfig, config, "train", seed=0)
    return dataset, arch, train_cfg, _get(config, "scope", str, LAST_LAYER, choices=SCOPES)


def _split(config: dict, dataset: Dataset):
    """The ``split`` section and the (train, validation, test) rows it carves."""
    spec = _section(SplitSpec, config, "split")
    try:
        return spec, split(dataset, spec)
    except ValueError as exc:
        raise ConfigError(f"split: {exc}") from exc


def _trained(arch: ArchSpec, dataset: Dataset, labeled, train_cfg: TrainConfig, seeds):
    """A verb's models, one per seed, trained on ``labeled`` as one stack:
    init keyed by (seed, "init"), shuffling keyed by (seed, "train")."""
    inits = [init_model(arch, seed=derive_seed(seed, "init")) for seed in seeds]
    params, diverged = train_stack(
        arch, [model.params for model in inits], [labeled] * len(seeds),
        [derive_seed(seed, "train") for seed in seeds], dataset, train_cfg.learning_rate,
        train_cfg.momentum, train_cfg.minibatch_size, train_cfg.epochs)
    if (diverged >= 0).any():
        raise diverged_error(diverged[diverged >= 0][0], train_cfg.learning_rate)
    return [replace(model, params=row) for model, row in zip(inits, params)]


def _arch_name(arch: ArchSpec) -> str:
    if not arch.hidden_widths:
        return "linear"
    return "mlp-" + "x".join(str(w) for w in arch.hidden_widths)


# ---------------------------------------------------------------- output

def resolve_out_dir(flag_value, config: dict) -> Path:
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return Path(env)
    return Path(config.get("out_dir") or DEFAULT_OUT)


@contextmanager
def _replacing(path: Path):
    """Text handle on a temp file beside ``path``; on a clean exit the temp
    file is flushed to disk and renamed over ``path``, so readers see the
    old file or the whole new one, never a partial write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _plain(value):
    """``json``'s fallback: numpy arrays and scalars as their Python values."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict):
    with _replacing(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2, default=_plain) + "\n")


def write_table(path: Path, fingerprint: str, header, rows):
    with _replacing(path) as fh:
        fh.write(f"# fingerprint={fingerprint}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _timestamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()) + "Z"


def _emit(command: str, config: dict, out_flag, started: str, files: dict,
          report=None) -> int:
    """Write a finished verb's outputs into <out>/<fingerprint>/.

    ``files`` maps file names to payloads: a dict is written as JSON with
    the embedded manifest block under "manifest" (a "manifest" dict in the
    payload adds fields to it); a (header, rows) pair is written as a CSV.
    The directory is created only now, after the verb's work succeeded;
    each file is replaced atomically and manifest.json goes last, so a
    directory is complete exactly when it holds a manifest. Prints
    ``report``, or "<command> complete: <dir>" when there is none.
    """
    fingerprint = fingerprint_of(config)
    out_dir = resolve_out_dir(out_flag, config) / fingerprint
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        if isinstance(payload, dict):
            embedded = {"fingerprint": fingerprint, "version": __version__,
                        "config": config, **payload.get("manifest", {})}
            write_json(out_dir / name, {**payload, "manifest": embedded})
        else:
            write_table(out_dir / name, fingerprint, *payload)
    write_json(out_dir / "manifest.json", {
        "command": command,
        "fingerprint": fingerprint,
        "version": __version__,
        "config": config,
        "outputs": sorted(str(out_dir / name) for name in files),
        "started": started,
        "finished": _timestamp(),
    })
    print(report if report is not None else f"{command} complete: {out_dir}")
    return 0


# ---------------------------------------------------------------- run

def cmd_run(config: dict, out_flag=None) -> int:
    started = _timestamp()
    _only(config, "out_dir dataset split model train methods scope seeds batch_size rounds "
                  "initial_size sweep_lr standardize".split())
    dataset, arch, train_cfg, scope = _learner(config)
    methods = _get(config, "methods", [str], METHODS, choices=METHODS)
    seeds = _get(config, "seeds", [int], (0,))
    b = _get(config, "batch_size", int, required=True, minimum=1)
    rounds = _get(config, "rounds", int, required=True, minimum=0)
    initial_size = _get(config, "initial_size", int, minimum=1)
    sweep_lr = _get(config, "sweep_lr", bool, False)
    standardize = _get(config, "standardize", bool, False)

    split_spec, (train_idx, val_idx, _) = _split(config, dataset)
    if sweep_lr and not val_idx.size:
        raise ConfigError("sweep_lr: needs a validation split (split.validation_fraction)")
    if standardize:
        dataset = standardized(dataset, train_idx)

    cfg = ExperimentConfig(
        arch=arch, train=train_cfg, methods=methods, b=b, rounds=rounds,
        seeds=seeds, initial_size=initial_size, scope=scope,
        split_spec=split_spec, sweep_lr=sweep_lr)
    if cfg.init_size + min(1, rounds) > train_idx.size:
        name = "batch_size" if initial_size is None else "initial_size"
        raise ConfigError(f"{name}: {cfg.init_size} initial points leave no pool "
                          f"in a training split of {train_idx.size}")
    per_method = dict(zip(methods, run_experiments(cfg, dataset)))

    # each entry holds the fields of ExperimentResult; its key is the method
    results = {
        "manifest": {"dataset_name": dataset.name, "arch_name": _arch_name(arch)},
        "per_method": {m: {k: v for k, v in asdict(r).items() if k != "method"}
                       for m, r in per_method.items()},
    }
    rows = []
    for m, r in per_method.items():
        for seed, records in zip(r.seeds, r.per_seed):
            for rec in records:
                rows.append([m, rec.round, rec.labeled_size, seed,
                             rec.test_accuracy, rec.acquisition_seconds])
    return _emit("run", config, out_flag, started, {
        "results.json": results,
        "rounds.csv": (["method", "round", "labeled_size", "seed", "accuracy",
                        "acq_seconds"], rows),
    })


# ---------------------------------------------------------------- compare

def parse_slice(text: str) -> ComparisonSlice:
    if text in ("all", "all_rounds"):
        return ComparisonSlice("all_rounds")
    if text in ("early", "late"):
        return ComparisonSlice(text)
    for prefix, kind in (("by-dataset:", "by_dataset"), ("by-arch:", "by_arch"),
                         ("dataset:", "by_dataset"), ("arch:", "by_arch")):
        if text.startswith(prefix) and text[len(prefix):]:
            return ComparisonSlice(kind, text[len(prefix):])
    raise ConfigError(
        f"slice: unknown slice {text!r} (use all|early|late|by-dataset:<name>|by-arch:<name>)")


def _results_paths(results_dir: Path) -> list:
    """Every results.json of a complete run (one whose directory also holds
    manifest.json), in sorted order."""
    paths = sorted(p for p in results_dir.glob("**/results.json")
                   if (p.parent / "manifest.json").is_file())
    if not paths:
        raise ConfigError(
            f"results_dir: no results.json with a manifest.json found under {results_dir}")
    return paths


def _curves_from_payload(path: Path, payload: dict):
    per_method = payload.get("per_method", {})
    if len(per_method) < 2:
        raise ValueError(f"{path}: needs at least two methods")
    # a (method, seed) that diverged left its method: pair on the seeds every method kept
    kept = [dict(zip(e["seeds"], e["per_seed"], strict=True)) for e in per_method.values()]
    seeds = [s for s in kept[0] if all(s in k for k in kept)]
    if not seeds:
        raise ValueError(f"{path}: no seed kept by every method")
    accuracies = {m: [[rec["test_accuracy"] for rec in k[s]] for s in seeds]
                  for m, k in zip(per_method, kept)}
    manifest = payload.get("manifest", {})
    return curves_from_results(accuracies, dataset=manifest.get("dataset_name", ""),
                               arch=manifest.get("arch_name", ""))


def cmd_compare(results_dir, slice_name: str, alpha: float, out_flag=None) -> int:
    started = _timestamp()
    comparison_slice = parse_slice(slice_name)
    if not (0.0 <= alpha <= 1.0):
        raise ConfigError("alpha: must be in [0, 1]")
    # a run found twice (a copied or re-rooted directory) counts once
    runs, experiments, bad = {}, [], []
    for path in _results_paths(Path(results_dir)):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            fingerprint = payload["manifest"]["fingerprint"]
            if fingerprint not in runs:
                experiments.append(_curves_from_payload(path, payload))
                runs[fingerprint] = path
        except (ValueError, KeyError, TypeError) as exc:
            bad.append(f"{path}: {exc}")
    if bad:
        raise RuntimeError("unusable result files:\n" + "\n".join(bad))
    try:
        ppm = build_ppm(experiments, comparison_slice, alpha)
    except ValueError as exc:
        raise RuntimeError(
            f"{exc}; experiments: " + ", ".join(str(p) for p in runs.values())) from exc
    scores = loss_scores(ppm)

    config = {
        "command": "compare",
        "slice": slice_name,
        "alpha": alpha,
        "inputs": sorted(runs),
    }
    return _emit("compare", config, out_flag, started, {
        "ppm.json": {**asdict(ppm), "loss_scores": scores},
        "ppm.csv": (["method"] + list(ppm.methods),
                    [[m] + [float(v) for v in ppm.P[i]] for i, m in enumerate(ppm.methods)]),
        "loss_scores.csv": (["method", "loss_score"], [[m, scores[m]] for m in ppm.methods]),
    })


# ---------------------------------------------------------------- geometry

def cmd_geometry(config: dict, out_flag=None) -> int:
    started = _timestamp()
    _only(config, "out_dir dataset model train methods scope seed initial_size batch_sizes".split())
    dataset, arch, train_cfg, scope = _learner(config)
    if dataset.n_features < 2:
        raise ConfigError("dataset: needs at least 2 features to project onto 2 axes")
    methods = _get(config, "methods", [str], METHODS, choices=METHODS)
    seed = _get(config, "seed", int, 0)
    initial_size = _get(config, "initial_size", int, 10)
    if not 1 <= initial_size < dataset.n_samples:
        raise ConfigError(f"initial_size: must be in [1, {dataset.n_samples - 1}]")
    batch_sizes = _get(config, "batch_sizes", [int], (10, 20, 40), minimum=1)

    pool = init_pool(np.arange(dataset.n_samples), initial_size, seed)
    [model] = _trained(arch, dataset, pool.labeled, train_cfg, (seed,))
    param_hash = hashlib.sha256(model.params.tobytes()).hexdigest()

    input_xy = pca_project(dataset.features, 2)
    emb = grad_embeddings(model, dataset.features, scope=scope)
    emb_xy = pca_project(emb, 2)

    batches, hashes, rows_input, rows_emb = {}, {}, [], []
    for method in methods:
        batches[method] = {}
        for b in batch_sizes:
            rng = Rng(seed, f"root/geometry/{method}/B{b}")
            batch = select_batch(method, model, dataset, pool, b, rng, scope=scope)
            batches[method][str(b)] = batch.indices
            hashes[f"{method}/B{b}"] = hashlib.sha256(model.params.tobytes()).hexdigest()
            roles = np.full(dataset.n_samples, "pool", dtype=object)
            roles[batch.indices], roles[pool.labeled] = "acquired", "initial"
            for i, role in enumerate(roles):
                rows_input.append([method, b, i, input_xy[i, 0], input_xy[i, 1], role])
                rows_emb.append([method, b, i, emb_xy[i, 0], emb_xy[i, 1], role])

    header = ["method", "batch_size", "index", "x", "y", "role"]
    return _emit("geometry", config, out_flag, started, {
        "geometry_input.csv": (header, rows_input),
        "geometry_embedding.csv": (header, rows_emb),
        "geometry.json": {
            "model_param_sha256": param_hash,
            "param_hash_per_acquisition": hashes,
            "initial": pool.labeled,
            "batches": batches,
        },
    })


# ---------------------------------------------------------------- shift

def _shift_vector(config: dict, dataset: Dataset) -> np.ndarray:
    raw = config.get("shift")
    if raw is None:
        raise ConfigError("shift: required field missing")
    if isinstance(raw, list):
        if len(raw) != dataset.n_features:
            raise ConfigError(f"shift: expected {dataset.n_features} entries")
        entries = {f"shift[{i}]": v for i, v in enumerate(raw)}
        return np.array([_get(entries, name, float) for name in entries])
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        spread = _get(config.get("dataset", {}), "spread", float, 1.0)
        direction = np.ones(dataset.n_features) / np.sqrt(dataset.n_features)
        return _get(config, "shift", float) * spread * direction
    raise ConfigError("shift: expected a number (sigma multiple) or a vector")


def cmd_shift(config: dict, out_flag=None) -> int:
    started = _timestamp()
    _only(config, "out_dir dataset split model train scope seeds shift eval_size".split())
    dataset, arch, train_cfg, scope = _learner(config)
    seeds = _get(config, "seeds", [int], (0,))
    shift = _shift_vector(config, dataset)
    try:
        shifted = make_shifted(dataset, shift)
    except ValueError as exc:  # features the shift takes past float64
        raise ConfigError(f"shift: {exc}") from exc

    _, (train_idx, _, test_idx) = _split(config, dataset)
    eval_size = _get(config, "eval_size", int, int(test_idx.size))
    if not 1 <= eval_size <= test_idx.size:
        raise ConfigError(f"eval_size: must be in [1, {test_idx.size}]")
    eval_idx = test_idx[:eval_size]

    per_seed, rows = [], []
    for seed, model in zip(seeds, _trained(arch, dataset, train_idx, train_cfg, seeds)):
        with np.errstate(over="ignore", invalid="ignore"):
            base_scores = df_scores(model, dataset, train_idx, eval_idx, scope=scope)
            shift_scores = df_scores(model, shifted, train_idx, eval_idx, scope=scope)
        if not np.isfinite([base_scores, shift_scores]).all():
            raise ConfigError("shift: scores overflow at this shift")
        per_seed.append({
            "seed": seed,
            "base_mean": base_scores.mean(),
            "base_median": np.median(base_scores),
            "shifted_mean": shift_scores.mean(),
            "shifted_median": np.median(shift_scores),
            "shifted_gt_base": shift_scores.mean() > base_scores.mean(),
        })
        for i, s in zip(eval_idx, base_scores):
            rows.append([int(seed), "base", int(i), float(s)])
        for i, s in zip(eval_idx, shift_scores):
            rows.append([int(seed), "shifted", int(i), float(s)])

    return _emit("shift", config, out_flag, started, {
        "scores.csv": (["seed", "set", "index", "score"], rows),
        "shift.json": {
            "shift": shift,
            "n_eval": eval_size,
            "per_seed": per_seed,
        },
    })


# ---------------------------------------------------------------- contraction

def cmd_contraction(config: dict, out_flag=None) -> int:
    started = _timestamp()
    _only(config, "out_dir dataset contraction".split())
    dataset = build_dataset(_get(config, "dataset", dict, required=True))
    trace_cfg = _section(ContractionConfig, config, "contraction")
    try:
        report = run_contraction_trace(trace_cfg, dataset)
    except ValueError as exc:
        raise ConfigError(f"contraction: {exc}") from exc

    bound = None
    if report.t0_estimate is not None:
        lhs, rhs = cumulative_df_bound_check(report.df_norms, report.t0_estimate)
        bound = {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs * (1 + 1e-12)}

    return _emit("contraction", config, out_flag, started, {
        "trace.csv": (["epoch", "df_norm"],
                      [[t, float(v)] for t, v in enumerate(report.df_norms)]),
        "report.json": {**asdict(report), "bound_check": bound},
    })


# ---------------------------------------------------------------- timing

def cmd_timing(config: dict, out_flag=None) -> int:
    started = _timestamp()
    _only(config, "out_dir pool_size batch_size rounds initial_size seed methods scope "
                  "dataset model train".split())
    pool_size = _get(config, "pool_size", int, 25000, minimum=1)
    batch_size = _get(config, "batch_size", int, 500, minimum=1)
    rounds = _get(config, "rounds", int, 5, minimum=1)
    initial_size = _get(config, "initial_size", int, batch_size, minimum=1)
    seed = _get(config, "seed", int, 0)
    methods = _get(config, "methods", [str], METHODS, choices=METHODS)
    if pool_size < batch_size * rounds:
        raise ConfigError("pool_size: too small for rounds x batch_size")

    need = pool_size + initial_size
    dataset_cfg = _get(config, "dataset", dict, {})
    if dataset_cfg.get("kind", "blobs") == "blobs":  # timing's defaults lie under the config
        dataset_cfg = {"kind": "blobs", "n_classes": 10, "n_features": 20, "spread": 2.0,
                       "n_samples": need, **dataset_cfg}
    dataset, arch, train_cfg, scope = _learner({
        "model": {"hidden_widths": [128, 64]}, "train": {"epochs": 3, "learning_rate": 0.01},
        **config, "dataset": dataset_cfg})
    if dataset.n_samples < need:
        raise ConfigError(f"dataset: {dataset.n_samples} rows < pool_size + initial_size = {need}")

    base = init_pool(np.arange(dataset.n_samples), initial_size, seed)
    start_pool = PoolState(labeled=base.labeled, unlabeled=base.unlabeled[:pool_size])
    [model] = _trained(arch, dataset, start_pool.labeled, train_cfg, (seed,))

    per_method = {}
    for method in methods:
        pool = start_pool
        seconds = []
        for r in range(rounds):
            rng = Rng(seed, f"root/timing/{method}/round{r}")
            batch, elapsed = timed_select(method, model, dataset, pool,
                                          batch_size, rng, scope=scope)
            seconds.append(elapsed)
            pool = pool.acquire(batch.indices)
        arr = np.asarray(seconds)
        per_method[method] = {
            "round_seconds": seconds,
            "mean_seconds": arr.mean(),
            "sd_seconds": arr.std(ddof=1) if arr.size > 1 else 0.0,
            "median_seconds": np.median(arr),  # one stalled round moves the mean, not this
        }

    ordering = None
    if "entropy" in per_method and "grad" in per_method:
        ordering = per_method["entropy"]["median_seconds"] < per_method["grad"]["median_seconds"]

    report = [f"{m}: {per_method[m]['mean_seconds']:.3f} +/- {per_method[m]['sd_seconds']:.3f} s, "
              f"median {per_method[m]['median_seconds']:.3f} s" for m in methods]
    if ordering is not None:
        report.append(f"entropy faster than grad: {ordering}")
    return _emit("timing", config, out_flag, started, {
        "timing.csv": (["method", "mean_seconds", "sd_seconds"],
                       [[m, per_method[m]["mean_seconds"], per_method[m]["sd_seconds"]]
                        for m in methods]),
        "timing.json": {
            "pool_size": pool_size,
            "batch_size": batch_size,
            "rounds": rounds,
            "per_method": per_method,
            "entropy_faster_than_grad": ordering,
            # the process's high-water mark so far (ru_maxrss is in KiB on Linux)
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }, report="\n".join(report))


# ---------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradal",
        description="Active-learning experiments with gradient-discrepancy acquisition.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_config_verb(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="output directory root")
        return p

    add_config_verb("run", "run acquisition experiments")

    cmp_p = sub.add_parser("compare", help="aggregate results into a penalty matrix")
    cmp_p.add_argument("--results", required=True, help="directory of results.json runs")
    cmp_p.add_argument("--slice", default="all",
                       help="all|early|late|by-dataset:<name>|by-arch:<name>")
    cmp_p.add_argument("--alpha", type=float, default=0.05, help="FDR level")
    cmp_p.add_argument("--out", default=None, help="output directory root")

    add_config_verb("geometry", "single-round acquisition geometry dump")
    add_config_verb("shift", "DF score distributions under covariate shift")
    add_config_verb("contraction", "gradient-discrepancy trace over training")
    add_config_verb("timing", "acquisition wall-time comparison")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "compare":
            return cmd_compare(args.results, args.slice, args.alpha, args.out)
        command = {"run": cmd_run, "geometry": cmd_geometry, "shift": cmd_shift,
                   "contraction": cmd_contraction, "timing": cmd_timing}[args.verb]
        return command(load_config(args.config), args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
