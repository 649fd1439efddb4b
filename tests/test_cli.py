import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from gradal.acquisition import timed_select
from gradal.cli import (
    ConfigError,
    canonical_json,
    cmd_compare,
    cmd_contraction,
    cmd_geometry,
    cmd_run,
    cmd_shift,
    cmd_timing,
    fingerprint_of,
    load_config,
    main,
    parse_slice,
    resolve_out_dir,
    write_json,
)
from gradal.contraction import ContractionConfig
from gradal.data import SplitSpec, make_blobs, write_csv
from gradal.model import ArchSpec, TrainConfig, init_model, train
from gradal.numerics import Rng, derive_seed

ROOT = Path(__file__).resolve().parents[1]
SCHEMA_DIR = ROOT / "src" / "gradal" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_config(rounds=1, methods=("random", "grad")):
    return {
        "dataset": {"kind": "blobs", "n_samples": 90, "n_classes": 3,
                    "n_features": 3, "spread": 0.8, "seed": 0},
        "split": {"test_fraction": 0.25, "seed": 0},
        "model": {"hidden_widths": [8]},
        "train": {"learning_rate": 0.01, "epochs": 2},
        "methods": list(methods),
        "seeds": [0, 1],
        "batch_size": 4,
        "rounds": rounds,
        "initial_size": 6,
    }


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ fingerprints

def test_fingerprint_ignores_out_dir_and_key_order():
    a = {"x": 1, "y": [2, 3], "out_dir": "here"}
    b = {"y": [2, 3], "x": 1, "out_dir": "elsewhere"}
    assert fingerprint_of(a) == fingerprint_of(b)
    assert len(fingerprint_of(a)) == 12
    c = {"x": 2, "y": [2, 3]}
    assert fingerprint_of(a) != fingerprint_of(c)


def test_canonical_json_is_stable():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_resolve_out_dir_precedence(monkeypatch):
    monkeypatch.delenv("GRADAL_OUT", raising=False)
    assert resolve_out_dir(None, {}) == Path("runs")
    assert resolve_out_dir(None, {"out_dir": "cfg"}) == Path("cfg")
    monkeypatch.setenv("GRADAL_OUT", "env")
    assert resolve_out_dir(None, {"out_dir": "cfg"}) == Path("env")
    assert resolve_out_dir("flag", {"out_dir": "cfg"}) == Path("flag")


# ------------------------------------------------------------ config load

def test_write_json_takes_numpy_values(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"array": np.arange(3), "matrix": np.eye(2), "int": np.int64(7),
                      "float": np.float64(0.1), "bool": np.bool_(True)})
    payload = read_json(path)
    assert payload == {"array": [0, 1, 2], "matrix": [[1.0, 0.0], [0.0, 1.0]],
                       "int": 7, "float": 0.1, "bool": True}
    assert [type(payload[k]) for k in ("int", "float", "bool")] == [int, float, bool]


@pytest.mark.parametrize("value", [Path("a"), SplitSpec()])
def test_write_json_rejects_other_objects(tmp_path, value):
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_json(tmp_path / "out.json", {"value": value})
    assert not list(tmp_path.iterdir())


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "none.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="top level"):
        load_config(arr)
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="^config: .* is not UTF-8 text"):
        load_config(latin)
    bom = tmp_path / "bom.json"
    bom.write_bytes(b"\xef\xbb\xbf" + b'{"seeds": [3]}')
    assert load_config(bom) == {"seeds": [3]}


def test_parse_slice_forms():
    assert parse_slice("all").kind == "all_rounds"
    assert parse_slice("all_rounds").kind == "all_rounds"
    assert parse_slice("early").kind == "early"
    assert parse_slice("by-dataset:blobs-a").name == "blobs-a"
    assert parse_slice("arch:mlp-8").kind == "by_arch"
    with pytest.raises(ConfigError, match="slice"):
        parse_slice("weekly")


# ------------------------------------------------------------ run

def test_run_writes_validated_outputs(tmp_path):
    config = run_config()
    assert cmd_run(config, out_flag=tmp_path) == 0
    fp = fingerprint_of(config)
    out = tmp_path / fp
    results = read_json(out / "results.json")
    manifest = read_json(out / "manifest.json")
    validate(results, "results")
    validate(manifest, "manifest")
    assert results["manifest"]["fingerprint"] == fp
    assert manifest["fingerprint"] == fp
    assert set(results["per_method"]) == {"random", "grad"}
    for entry in results["per_method"].values():
        assert len(entry["per_seed"]) == 2
        assert all(len(seq) == 2 for seq in entry["per_seed"])

    lines = (out / "rounds.csv").read_text().splitlines()
    assert lines[0] == f"# fingerprint={fp}"
    assert lines[1] == "method,round,labeled_size,seed,accuracy,acq_seconds"
    # 2 methods x 2 seeds x 2 rounds of records
    assert len(lines) == 2 + 2 * 2 * 2


def _normalized_results(path):
    payload = read_json(path)
    for entry in payload["per_method"].values():
        for seq in entry["per_seed"]:
            for rec in seq:
                rec["acquisition_seconds"] = 0.0
    return json.dumps(payload, sort_keys=True)


def test_rerun_identical_after_stripping_walltime(tmp_path):
    config = run_config()
    cmd_run(config, out_flag=tmp_path / "first")
    cmd_run(config, out_flag=tmp_path / "second")
    fp = fingerprint_of(config)
    a = _normalized_results(tmp_path / "first" / fp / "results.json")
    b = _normalized_results(tmp_path / "second" / fp / "results.json")
    assert a == b


def test_run_shares_initial_sets_across_methods(tmp_path):
    config = run_config(rounds=1, methods=("random", "entropy", "grad"))
    cmd_run(config, out_flag=tmp_path)
    results = read_json(tmp_path / fingerprint_of(config) / "results.json")
    # round-0 batches differ by method, but the round-0 labeled sizes agree
    # and the first acquisition draws from the same initial pool: identical
    # labeled_size schedule across methods
    sizes = {
        m: [rec["labeled_size"] for rec in entry["per_seed"][0]]
        for m, entry in results["per_method"].items()
    }
    assert len({tuple(v) for v in sizes.values()}) == 1


def test_run_unknown_method_exits_2_naming_field(tmp_path, capsys):
    config = run_config(methods=("random", "margin"))
    path = write_config(tmp_path, config)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "methods[1]" in captured.err


def test_run_missing_required_field_exits_2(tmp_path, capsys):
    config = run_config()
    del config["batch_size"]
    path = write_config(tmp_path, config)
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "batch_size" in capsys.readouterr().err


def test_main_run_smoke(tmp_path):
    path = write_config(tmp_path, run_config())
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0


def test_python_m_gradal_runs_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    def gradal(config):
        return subprocess.run(
            [sys.executable, "-m", "gradal", "contraction", "--config",
             str(write_config(tmp_path, config)), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)

    config = contraction_config()
    assert gradal(config).returncode == 0
    assert (tmp_path / "out" / fingerprint_of(config) / "manifest.json").is_file()
    config["epochs"] = 3
    done = gradal(config)
    assert done.returncode == 2
    assert done.stderr.startswith("config error: epochs: unknown field")


@pytest.mark.parametrize("verb, section, field, value, label", [
    ("run", "train", "learning_rate", float("nan"), "train.learning_rate"),
    ("run", "dataset", "spread", float("inf"), "dataset.spread"),
    ("shift", None, "shift", [0.0, float("-inf"), 0.0, 0.0], "shift[1]"),
])
def test_non_finite_config_number_exits_2_naming_field(tmp_path, capsys, verb, section,
                                                       field, value, label):
    config = run_config() if verb == "run" else shift_config()
    (config[section] if section else config)[field] = value
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([verb, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert label in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, path, value, label", [
    ("run", ("train", "learning_rate"), 10 ** 400, "train.learning_rate"),
    ("run", ("dataset", "spread"), 10 ** 400, "dataset.spread"),
    ("run", ("split", "test_fraction"), -10 ** 400, "split.test_fraction"),
    ("contraction", ("contraction", "subset_fraction"), 10 ** 400, "contraction.subset_fraction"),
    ("shift", ("shift",), 10 ** 400, "shift"),
    ("shift", ("shift",), [0.0, 10 ** 400, 0.0, 0.0], "shift[1]"),
], ids=["train.learning_rate", "dataset.spread", "split.test_fraction",
        "contraction.subset_fraction", "shift", "shift[1]"])
def test_integer_past_float64_in_a_float_field_exits_2_naming_it(tmp_path, capsys, verb, path,
                                                                  value, label):
    config = {"run": run_config, "contraction": contraction_config, "shift": shift_config}[verb]()
    section = config
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    out = tmp_path / "out"
    code = main([verb, "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {label}: expected a finite number\n"
    assert not out.exists()


@pytest.mark.parametrize("verb, field, value", [
    ("timing", "rounds", 0),
    ("timing", "batch_size", 0),
    ("geometry", "initial_size", 0),
    ("geometry", "initial_size", 5000),
    ("run", "batch_size", 0),
    ("run", "initial_size", 500),
    ("run", "sweep_lr", True),  # with no validation split
    ("run", "rounds", -1),
    ("run", "initial_size", 0),
])
def test_out_of_range_config_count_exits_2_naming_field(tmp_path, capsys, verb, field,
                                                        value):
    config = {"run": run_config, "geometry": geometry_config,
              "timing": timing_config}[verb]()
    config[field] = value
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([verb, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}: ")
    assert not out.exists()


@pytest.mark.parametrize("verb, section, field, value, label", [
    ("run", "model", "hidden_widths", [True], "model.hidden_widths"),
    ("contraction", "contraction", "hidden_widths", [1.5], "contraction.hidden_widths"),
    ("contraction", "contraction", "hidden_widths", ["a"], "contraction.hidden_widths"),
    ("geometry", None, "batch_sizes", [True], "batch_sizes"),
])
def test_non_count_in_a_count_list_exits_2_naming_field(tmp_path, capsys, verb, section,
                                                        field, value, label):
    config = {"run": run_config, "geometry": geometry_config,
              "contraction": contraction_config}[verb]()
    (config[section] if section else config)[field] = value
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([verb, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert label in capsys.readouterr().err
    assert not out.exists()


# a misspelt key names no field: without the check it would silently take
# the default (here train.learning_rate 0.001 instead of 0.01)
@pytest.mark.parametrize("verb, section, key", [
    ("shift", "train", "learning_rat"),
    ("shift", "split", "test_fractoin"),
    ("run", "model", "hidden_width"),
    ("contraction", "contraction", "learning_rat"),
])
def test_unknown_section_key_exits_2_naming_it(tmp_path, capsys, verb, section, key):
    config = {"run": run_config, "shift": shift_config,
              "contraction": contraction_config}[verb]()
    config[section][key] = 0.01
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([verb, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}.{key}: unknown field")
    assert not out.exists()


# a misspelt top-level key would otherwise silently take its default: shift
# with "sedes" scores seed 0 only; out_dir is a key of every verb
@pytest.mark.parametrize("verb, key, value", [
    ("run", "batchsize", 4),
    ("geometry", "batch_size", 5),
    ("shift", "sedes", [5]),
    ("contraction", "epochs", 3),
    ("timing", "pool", 60),
])
def test_unknown_top_level_key_exits_2_naming_it(tmp_path, capsys, monkeypatch, verb, key,
                                                 value):
    config = {"run": run_config, "geometry": geometry_config, "shift": shift_config,
              "contraction": contraction_config, "timing": timing_config}[verb]()
    config[key] = value
    out = tmp_path / "out"
    code = main([verb, "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: unknown field")
    assert not out.exists()

    monkeypatch.delenv("GRADAL_OUT", raising=False)
    del config[key]
    config["out_dir"] = str(out)
    assert main([verb, "--config", str(write_config(tmp_path, config))]) == 0
    assert (out / fingerprint_of(config) / "manifest.json").is_file()

@pytest.mark.parametrize("verb", ["run", "shift"])
def test_repeated_seeds_exit_2(tmp_path, capsys, verb):
    config = run_config() if verb == "run" else shift_config()
    config["seeds"] = [0, 0, 1]
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main([verb, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: seeds: duplicate entries")
    assert not out.exists()


@pytest.mark.parametrize("verb, field, value, label", [
    ("run", "scope", "middle", "scope"),
    ("geometry", "scope", "middle", "scope"),
    ("shift", "scope", "middle", "scope"),
    ("timing", "scope", "middle", "scope"),
    ("run", "methods", [], "methods"),
    ("run", "methods", ["grad", "grad"], "methods"),
    ("run", "seeds", [1.5], "seeds[0]"),
    ("run", "seeds", [True], "seeds[0]"),
    ("geometry", "batch_sizes", [10, 10], "batch_sizes"),
])
def test_bad_list_or_choice_exits_2_naming_field(tmp_path, capsys, verb, field, value, label):
    config = {"run": run_config, "geometry": geometry_config, "shift": shift_config,
              "timing": timing_config}[verb]()
    config[field] = value
    out = tmp_path / "out"
    code = main([verb, "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {label}: ")
    if field == "scope":
        assert "last_layer, full" in err
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "geometry", "shift", "contraction", "timing"])
def test_non_string_out_dir_exits_2_before_any_work(tmp_path, capsys, monkeypatch, verb):
    config = {"run": run_config, "geometry": geometry_config, "shift": shift_config,
              "contraction": contraction_config, "timing": timing_config}[verb]()
    config["out_dir"] = 5
    path = write_config(tmp_path, config)
    monkeypatch.delenv("GRADAL_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("gradal.cli.build_dataset", lambda *a, **k: pytest.fail("work started"))
    assert main([verb, "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: out_dir: expected str")
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


# a misspelt dataset key would otherwise silently take its default:
# "sede" generates the blobs of seed 0
@pytest.mark.parametrize("verb, kind", [
    *((verb, kind) for kind in ("blobs", "csv")
      for verb in ("run", "geometry", "shift", "contraction", "timing")),
    ("timing", "timing-defaults"),  # timing merges its blob defaults under the given keys
])
def test_unknown_dataset_key_exits_2_before_any_work(tmp_path, capsys, monkeypatch, verb, kind):
    config = {"run": run_config, "geometry": geometry_config, "shift": shift_config,
              "contraction": contraction_config, "timing": timing_config}[verb]()
    config["dataset"] = {"blobs": config["dataset"],
                         "csv": {"kind": "csv", "path": "data.csv", "label_column": "label"},
                         "timing-defaults": {"kind": "blobs"}}[kind]
    config["dataset"]["sede"] = 7
    monkeypatch.setattr("gradal.cli.make_blobs", lambda *a, **k: pytest.fail("work started"))
    monkeypatch.setattr("gradal.cli.load_csv", lambda *a, **k: pytest.fail("work started"))
    out = tmp_path / "out"
    code = main([verb, "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: dataset.sede: unknown field")
    assert not out.exists()


@pytest.mark.parametrize("verb, test_fraction", [("run", 0.1), ("shift", 0.9)])
def test_split_with_no_training_or_test_point_exits_2(tmp_path, capsys, monkeypatch, verb,
                                                      test_fraction):
    # 3 points per class: 0.1 rounds to no test point, 0.9 to no training point
    config = {"dataset": {"kind": "blobs", "n_samples": 9, "n_classes": 3, "n_features": 2,
                          "spread": 1.0, "seed": 0},
              "split": {"test_fraction": test_fraction}, "model": {"hidden_widths": [4]},
              "train": {"epochs": 1},
              **{"run": {"methods": ["random", "entropy"], "batch_size": 1, "rounds": 1,
                         "initial_size": 2},
                 "shift": {"shift": 1.0}}[verb]}
    for module in ("gradal.cli", "gradal.al_loop"):
        monkeypatch.setattr(f"{module}.train_stack", lambda *a, **k: pytest.fail("trained"))
    path = write_config(tmp_path, config)
    code = main([verb, "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: split: ")
    assert list(tmp_path.iterdir()) == [path]


def test_blob_generator_error_exits_2_naming_dataset(tmp_path, capsys):
    config = run_config()
    config["dataset"]["n_samples"] = 1
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: dataset: need at least one sample per class")
    assert not out.exists()


@pytest.mark.parametrize("text, label_column, field", [
    ("a,b,label\n1,2,0\n3,4,1\n", "lab", "label_column"),  # no such column
    ("a,b,label\n1,2,0\n3,x,1\n", "label", "path"),  # non-numeric cell
    ("a,b,label\n1,2,0\n3,4\n", "label", "path"),  # short row
    (None, "label", "path"),  # a directory
], ids=["missing-column", "non-numeric", "short-row", "directory"])
def test_bad_csv_exits_2_naming_field_and_writes_nothing(tmp_path, capsys, text, label_column,
                                                        field):
    data = tmp_path / "data.csv"
    if text is None:
        data.mkdir()
    else:
        data.write_text(text, encoding="utf-8")
    config = contraction_config()
    config["dataset"] = {"kind": "csv", "path": str(data), "label_column": label_column}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["contraction", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"config error: dataset.{field}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([data.name, path.name])


@pytest.mark.parametrize("text, detail", [
    ("", "empty file"),
    ("a,b,label\n", "no data rows"),
    ("a,b,label\n1,2,0\n3,nan,1\n", "row 3: non-finite feature value"),
], ids=["empty", "header-only", "nan-cell"])
def test_csv_without_finite_rows_exits_2_naming_path(tmp_path, capsys, text, detail):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    config = contraction_config()
    config["dataset"] = {"kind": "csv", "path": str(data)}
    out = tmp_path / "out"
    code = main(["contraction", "--config", str(write_config(tmp_path, config)),
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: dataset.path: ")
    assert f"{data}: {detail}" in err
    assert not out.exists()


def test_runtime_failure_exits_1_and_writes_nothing(tmp_path, capsys):
    config = run_config()
    config["train"]["learning_rate"] = 1e300  # every seed diverges
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 1
    assert "all seeds failed" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------ config walk

WALK_VALUES = [0, -1, 1, 2, 0.5, -0.5, 1.5, 1e300, True, None, "x", [], [0], [1, 1], {}]


def walk_config(verb):
    """A small valid config of ``verb`` that sets every field the verb reads."""
    dataset = {"kind": "blobs", "n_samples": 40, "n_classes": 2, "n_features": 2,
               "spread": 1.0, "seed": 0}
    split = {"test_fraction": 0.25, "validation_fraction": 0.25, "seed": 0, "stratified": True}
    learner = {"out_dir": "unused", "dataset": dataset, "model": {"hidden_widths": [3]},
               "train": {"learning_rate": 0.01, "epochs": 1, "momentum": 0.9,
                         "minibatch_size": 8}, "scope": "last_layer"}
    methods = ["grad", "entropy", "badge", "kcenter", "random"]
    return {
        "run": {**learner, "split": split, "methods": methods, "seeds": [0], "batch_size": 2,
                "rounds": 1, "initial_size": 4, "sweep_lr": False, "standardize": False},
        "geometry": {**learner, "methods": methods, "seed": 0, "initial_size": 4,
                     "batch_sizes": [2, 3]},
        "shift": {**learner, "split": split, "seeds": [0], "shift": 1.0, "eval_size": 5},
        "contraction": {"out_dir": "unused", "dataset": dataset, "contraction": {
            "s_size": 20, "subset_fraction": 0.25, "epochs": 1, "learning_rate": 0.01, "seed": 0,
            "scope": "full", "hidden_widths": [3], "momentum": 0.0, "minibatch_size": 0}},
        "timing": {**learner, "methods": methods, "pool_size": 20, "batch_size": 2, "rounds": 2,
                   "initial_size": 4, "seed": 0},
    }[verb]


def field_paths(config, prefix=()):
    """Every key path of ``config``, a section before its fields."""
    for key, value in config.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from field_paths(value, prefix + (key,))


# a field checked against another may be named by the other
CHECKED_AGAINST = {"dataset.n_samples": {"split", "initial_size", "contraction"}}


def walk_failures(tmp_path, capsys, verb, base, cases):
    """Each case sets one or more fields, as (path, value) pairs, in a copy of
    ``base``. A case passes when the verb succeeds, reports divergence, or
    names a field in a config error, and a failure writes nothing. A
    one-field case must name its field (its section, a field inside it, or a
    field it is checked against); a case of several fields may name any field
    of the config. Returns the cases that do not pass."""
    names = {".".join(path) for path in field_paths(base)}
    bad = []
    for case, settings in enumerate(cases, 1):
        config = json.loads(json.dumps(base))
        for path, value in settings:
            node = config
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        out = tmp_path / f"out{case}"
        code = main([verb, "--config", str(write_config(tmp_path, config)), "--out", str(out)])
        err = capsys.readouterr().err
        label = re.sub(r"\[\d+\]$", "", err.removeprefix("config error: ").split(": ")[0])
        if len(settings) == 1:
            [(path, _)] = settings
            name = ".".join(path)
            named = (label in (name, path[0]) or label.startswith(f"{name}.")
                     or label in CHECKED_AGAINST.get(name, ()))
        else:
            named = label in names
        ok = {0: (out / fingerprint_of(config) / "manifest.json").is_file(),
              1: "training diverged" in err,
              2: err.startswith("config error: ") and named}
        if not ok.get(code) or code and out.exists():
            shown = " ".join(f"{'.'.join(path)}={json.dumps(value)}" for path, value in settings)
            bad.append(f"{verb} {shown}: exit {code}: {err.strip()}")
    return bad


def one_field_cases(paths):
    return [((path, value),) for path in paths for value in WALK_VALUES]


@pytest.mark.parametrize("verb", ["run", "geometry", "shift", "contraction", "timing"])
def test_every_config_field_exits_0_or_2(tmp_path, capsys, verb):
    # no numpy warning escapes either: the suite turns warnings into errors
    config = walk_config(verb)
    bad = walk_failures(tmp_path, capsys, verb, config, one_field_cases(field_paths(config)))
    assert not bad, "\n".join(bad)


# fields that are checked against each other, walked two at a time
INTERACTING = [("dataset.n_samples", "initial_size"), ("dataset.n_samples", "split.test_fraction"),
               ("batch_size", "rounds"), ("batch_size", "pool_size"),
               ("dataset.n_features", "model.hidden_widths"),
               ("contraction.s_size", "contraction.subset_fraction")]
PAIR_VALUES = [0, -1, 2, 0.5, 1e300]


def pair_values(name):
    # a width list takes one-entry lists, so that [2] can pass
    return [[v] for v in PAIR_VALUES] if name == "model.hidden_widths" else PAIR_VALUES


@pytest.mark.parametrize("verb", ["run", "geometry", "shift", "contraction", "timing"])
def test_interacting_field_pairs_exit_0_or_2(tmp_path, capsys, verb):
    config = walk_config(verb)
    names = {".".join(path) for path in field_paths(config)}
    cases = [((tuple(first.split(".")), v), (tuple(second.split(".")), w))
             for first, second in INTERACTING if {first, second} <= names
             for v in pair_values(first) for w in pair_values(second)]
    assert cases
    bad = walk_failures(tmp_path, capsys, verb, config, cases)
    assert not bad, "\n".join(bad)


def test_every_csv_dataset_field_exits_0_or_2(tmp_path, capsys):
    # the blob walk cannot reach a csv dataset's fields: they need a file
    data = tmp_path / "data.csv"
    write_csv(make_blobs(40, 2, 2, spread=1.0, seed=0), data)
    bad = []
    for verb in ["run", "geometry", "shift", "contraction", "timing"]:
        config = walk_config(verb)
        config["dataset"] = {"kind": "csv", "path": str(data), "label_column": "label"}
        (tmp_path / verb).mkdir()
        valid = write_config(tmp_path / verb, config)
        assert main([verb, "--config", str(valid), "--out", str(tmp_path / verb / "valid")]) == 0
        bad += walk_failures(tmp_path / verb, capsys, verb, config,
                             one_field_cases([("dataset", "path"), ("dataset", "label_column")]))
    assert not bad, "\n".join(bad)


# ------------------------------------------------------------ compare

def planted_results(path, fingerprint, gap=0.1, n_seeds=6, n_points=5,
                    noise_seed=0, dataset="blobs-x", arch="mlp-8"):
    """Write a results.json with method A beating method B by `gap`."""
    rng = Rng(noise_seed, "planted-cli")
    base = 0.5 + 0.05 * rng.normal(size=(n_seeds, n_points))

    def entry(matrix):
        return {
            "seeds": list(range(n_seeds)),
            "learning_rate": 0.01,
            "truncated": False,
            "seed_errors": [],
            "per_seed": [
                [{"round": t, "labeled_size": 10 + 5 * t,
                  "test_accuracy": float(matrix[s, t]),
                  "acquisition_seconds": 0.0, "batch": None}
                 for t in range(n_points)]
                for s in range(n_seeds)
            ],
        }

    payload = {
        "manifest": {"fingerprint": fingerprint, "version": "0.0.0",
                     "config": {}, "dataset_name": dataset, "arch_name": arch},
        "per_method": {"grad": entry(base + gap), "random": entry(base)},
    }
    path.mkdir(parents=True, exist_ok=True)
    (path / "results.json").write_text(json.dumps(payload), encoding="utf-8")
    (path / "manifest.json").write_text(
        json.dumps({"command": "run", "fingerprint": fingerprint}), encoding="utf-8")


def test_compare_planted_dominance(tmp_path):
    results = tmp_path / "results"
    planted_results(results / "e1", "aaaaaaaaaaaa", noise_seed=0)
    planted_results(results / "e2", "bbbbbbbbbbbb", noise_seed=1)
    out = tmp_path / "out"
    assert cmd_compare(results, "all", 0.05, out_flag=out) == 0
    run_dirs = list(out.iterdir())
    assert len(run_dirs) == 1
    ppm = read_json(run_dirs[0] / "ppm.json")
    validate(ppm, "ppm")
    i = ppm["methods"].index("grad")
    j = ppm["methods"].index("random")
    assert ppm["P"][i][j] == 2.0
    assert ppm["P"][j][i] == 0.0
    assert ppm["experiments_counted"] == 2
    assert ppm["loss_scores"]["random"] == 1.0
    assert ppm["loss_scores"]["grad"] == 0.0

    lines = (run_dirs[0] / "ppm.csv").read_text().splitlines()
    assert lines[0].startswith("# fingerprint=")
    assert lines[1].split(",")[0] == "method"
    assert (run_dirs[0] / "loss_scores.csv").exists()


def test_compare_early_slice_clamps_to_available_rounds(tmp_path):
    # 2 post-acquisition rounds: early (first 3) must use both
    results = tmp_path / "results"
    planted_results(results / "e1", "cccccccccccc", n_points=3)
    out_early = tmp_path / "out_early"
    out_all = tmp_path / "out_all"
    cmd_compare(results, "early", 0.05, out_flag=out_early)
    cmd_compare(results, "all", 0.05, out_flag=out_all)
    early = read_json(next(out_early.iterdir()) / "ppm.json")
    full = read_json(next(out_all.iterdir()) / "ppm.json")
    assert early["P"] == full["P"]


def test_compare_alpha_zero_zero_matrix(tmp_path):
    results = tmp_path / "results"
    planted_results(results / "e1", "dddddddddddd")
    out = tmp_path / "out"
    assert cmd_compare(results, "all", 0.0, out_flag=out) == 0
    ppm = read_json(next(out.iterdir()) / "ppm.json")
    assert all(v == 0.0 for row in ppm["P"] for v in row)


def test_compare_alpha_out_of_range(tmp_path):
    results = tmp_path / "results"
    planted_results(results / "e1", "eeeeeeeeeeee")
    with pytest.raises(ConfigError, match="alpha"):
        cmd_compare(results, "all", 1.5, out_flag=tmp_path / "out")


def test_compare_by_dataset_slice(tmp_path):
    results = tmp_path / "results"
    planted_results(results / "e1", "ffffffffffff", dataset="blobs-x")
    planted_results(results / "e2", "111111111111", dataset="blobs-y",
                    noise_seed=2)
    out = tmp_path / "out"
    cmd_compare(results, "by-dataset:blobs-y", 0.05, out_flag=out)
    ppm = read_json(next(out.iterdir()) / "ppm.json")
    assert ppm["experiments_counted"] == 1


@pytest.mark.parametrize("text", ["by-dataset:", "by-arch:", "dataset:", "arch:"])
def test_compare_slice_without_a_name_exits_2(tmp_path, capsys, text):
    results = tmp_path / "results"
    planted_results(results / "e1", "666666666666")
    out = tmp_path / "out"
    code = main(["compare", "--results", str(results), "--slice", text, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: slice: ")
    assert not out.exists()


def test_compare_empty_results_dir_exits_2(tmp_path, capsys):
    code = main(["compare", "--results", str(tmp_path / "none"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "results_dir" in capsys.readouterr().err


def test_compare_reads_only_runs_with_a_manifest(tmp_path, capsys):
    results = tmp_path / "results"
    planted_results(results / "e1", "444444444444")
    planted_results(results / "e2", "555555555555", noise_seed=1)
    (results / "e2" / "manifest.json").unlink()
    out = tmp_path / "out"
    assert cmd_compare(results, "all", 0.05, out_flag=out) == 0
    ppm = read_json(next(out.iterdir()) / "ppm.json")
    assert ppm["experiments_counted"] == 1
    assert ppm["manifest"]["config"]["inputs"] == ["444444444444"]

    (results / "e1" / "manifest.json").unlink()
    code = main(["compare", "--results", str(results), "--out", str(tmp_path / "out2")])
    assert code == 2
    assert "results_dir" in capsys.readouterr().err
    assert not (tmp_path / "out2").exists()


def test_compare_names_a_results_file_that_is_not_json(tmp_path, capsys):
    results = tmp_path / "results"
    planted_results(results / "e1", "666666666666")
    planted_results(results / "e2", "777777777777", noise_seed=1)
    (results / "e2" / "results.json").write_text("{not json", encoding="utf-8")
    code = main(["compare", "--results", str(results), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "unusable result files" in err
    assert str(results / "e2" / "results.json") in err
    assert not (tmp_path / "out").exists()


def test_compare_counts_a_run_found_twice_once(tmp_path):
    single = tmp_path / "single"
    planted_results(single / "e1", "888888888888")
    results = tmp_path / "results"
    shutil.copytree(single / "e1", results / "a" / "e1")
    shutil.copytree(single / "e1", results / "b" / "e1")
    assert cmd_compare(single, "all", 0.05, out_flag=tmp_path / "out1") == 0
    assert cmd_compare(results, "all", 0.05, out_flag=tmp_path / "out2") == 0
    once = read_json(next((tmp_path / "out1").iterdir()) / "ppm.json")
    twice = read_json(next((tmp_path / "out2").iterdir()) / "ppm.json")
    assert twice["experiments_counted"] == 1
    assert twice["manifest"]["config"]["inputs"] == ["888888888888"]
    assert twice["P"] == once["P"]


def test_compare_names_a_results_file_with_one_method(tmp_path, capsys):
    results = tmp_path / "results"
    planted_results(results / "e1", "999999999999")
    payload = read_json(results / "e1" / "results.json")
    del payload["per_method"]["random"]
    (results / "e1" / "results.json").write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--results", str(results), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unusable result files" in err
    assert f"{results / 'e1' / 'results.json'}: needs at least two methods" in err
    assert not out.exists()


def test_compare_names_a_results_file_whose_methods_share_no_seed(tmp_path, capsys):
    results = tmp_path / "results"
    planted_results(results / "e1", "cdecdecdecde", n_seeds=4)
    payload = read_json(results / "e1" / "results.json")
    for entry, keep in zip(payload["per_method"].values(), (slice(0, 2), slice(2, 4))):
        entry["seeds"], entry["per_seed"] = entry["seeds"][keep], entry["per_seed"][keep]
    (results / "e1" / "results.json").write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--results", str(results), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "unusable result files" in err
    assert f"{results / 'e1' / 'results.json'}: no seed kept by every method" in err
    assert not out.exists()


def test_compare_slice_that_selects_nothing_exits_1_naming_the_runs(tmp_path, capsys):
    results = tmp_path / "results"
    planted_results(results / "e1", "abcabcabcabc")
    out = tmp_path / "out"
    code = main(["compare", "--results", str(results), "--slice", "by-dataset:absent",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "slice selects no experiments" in err
    assert str(results / "e1" / "results.json") in err
    assert not out.exists()


def test_compare_pairs_a_run_on_the_seeds_every_method_kept(tmp_path):
    # a (method, seed) that diverged is in its method's seed_errors, not its
    # seeds; compare reads the run as a run of the seeds every method kept
    three, two = run_config(rounds=2), run_config(rounds=2)
    three["seeds"] = [0, 1, 2]
    runs = {}
    for name, config in (("three", three), ("two", two)):
        assert cmd_run(config, out_flag=tmp_path / name) == 0
        runs[name] = tmp_path / name / fingerprint_of(config) / "results.json"
    payload = read_json(runs["three"])
    grad = payload["per_method"]["grad"]
    assert grad["seeds"].pop() == 2
    grad["per_seed"].pop()
    grad["seed_errors"] = [{"seed": 2, "error": "grad round 1: training diverged"}]
    runs["three"].write_text(json.dumps(payload), encoding="utf-8")

    # each seed keeps its bits in a wider stack
    kept = read_json(runs["two"])["per_method"]
    for method, entry in payload["per_method"].items():
        for seq, other in zip(entry["per_seed"][:2], kept[method]["per_seed"]):
            assert [r["test_accuracy"] for r in seq] == [r["test_accuracy"] for r in other]
            assert [r["batch"] for r in seq] == [r["batch"] for r in other]

    ppms = {}
    for name, path in runs.items():
        assert cmd_compare(path.parent, "all", 1.0, out_flag=tmp_path / f"compare-{name}") == 0
        ppms[name] = read_json(next((tmp_path / f"compare-{name}").iterdir()) / "ppm.json")
    assert ppms["three"]["P"] == ppms["two"]["P"]
    assert ppms["three"]["methods"] == ppms["two"]["methods"]
    assert ppms["three"]["experiments_counted"] == 1


def test_compare_grid_mismatch_exits_1(tmp_path, capsys):
    results = tmp_path / "results"
    planted_results(results / "e1", "222222222222", n_points=5)
    planted_results(results / "e2", "333333333333", n_points=4, noise_seed=1)
    # mismatched round grids across experiments are fine for build_ppm, so
    # force a same-file mismatch instead: uneven seeds inside one payload
    payload = read_json(results / "e2" / "results.json")
    payload["per_method"]["grad"]["per_seed"].pop()
    (results / "e2" / "results.json").write_text(json.dumps(payload))
    code = main(["compare", "--results", str(results),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "e2" in capsys.readouterr().err


# ------------------------------------------------------------ geometry

def geometry_config():
    return {
        "dataset": {"kind": "blobs", "n_samples": 60, "n_classes": 3,
                    "n_features": 4, "spread": 0.8, "seed": 1},
        "model": {"hidden_widths": [8]},
        "train": {"learning_rate": 0.01, "epochs": 3},
        "methods": ["entropy", "grad"],
        "seed": 0,
        "initial_size": 6,
        "batch_sizes": [5, 10],
    }


def test_geometry_outputs(tmp_path):
    config = geometry_config()
    assert cmd_geometry(config, out_flag=tmp_path) == 0
    out = tmp_path / fingerprint_of(config)
    geo = read_json(out / "geometry.json")
    validate(geo, "geometry")

    # batch sizes exact, duplicate-free, disjoint from the initial set
    initial = set(geo["initial"])
    assert len(initial) == 6
    for method in ("entropy", "grad"):
        for b in ("5", "10"):
            batch = geo["batches"][method][b]
            assert len(batch) == int(b)
            assert len(set(batch)) == int(b)
            assert not initial & set(batch)

    # one shared trained model: every acquisition saw identical parameters
    hashes = set(geo["param_hash_per_acquisition"].values())
    assert hashes == {geo["model_param_sha256"]}

    rows = (out / "geometry_input.csv").read_text().splitlines()
    # comment + header + methods x batch_sizes x n_samples
    assert len(rows) == 2 + 2 * 2 * 60
    emb_rows = (out / "geometry_embedding.csv").read_text().splitlines()
    assert len(emb_rows) == len(rows)
    assert rows[1] == "method,batch_size,index,x,y,role"

    roles = [line.split(",")[-1] for line in rows[2:]]
    assert set(roles) == {"initial", "acquired", "pool"}


def test_geometry_methods_differ(tmp_path):
    config = geometry_config()
    cmd_geometry(config, out_flag=tmp_path)
    geo = read_json(tmp_path / fingerprint_of(config) / "geometry.json")
    assert geo["batches"]["entropy"]["10"] != geo["batches"]["grad"]["10"]


def test_geometry_one_feature_exits_2_before_training(tmp_path, capsys, monkeypatch):
    # two principal axes need two features; a 1-feature dataset fails at once
    config = geometry_config()
    config["dataset"]["n_features"] = 1
    monkeypatch.setattr("gradal.cli._trained", lambda *a, **k: pytest.fail("work started"))
    out = tmp_path / "out"
    code = main(["geometry", "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: dataset: needs at least 2 features")
    assert not out.exists()


def test_geometry_rejects_bad_batch_sizes(tmp_path):
    config = geometry_config()
    config["batch_sizes"] = [5, 0]
    with pytest.raises(ConfigError, match="batch_sizes"):
        cmd_geometry(config, out_flag=tmp_path)


# ------------------------------------------------------------ shift

def shift_config(shift=3.0):
    return {
        "dataset": {"kind": "blobs", "n_samples": 80, "n_classes": 3,
                    "n_features": 4, "spread": 1.0, "seed": 2},
        "split": {"test_fraction": 0.25, "seed": 0},
        "model": {"hidden_widths": [8]},
        "train": {"learning_rate": 0.01, "epochs": 3},
        "seeds": [0, 1],
        "shift": shift,
    }


def test_shift_outputs(tmp_path):
    config = shift_config()
    assert cmd_shift(config, out_flag=tmp_path) == 0
    out = tmp_path / fingerprint_of(config)
    payload = read_json(out / "shift.json")
    validate(payload, "shift")
    assert len(payload["shift"]) == 4
    assert len(payload["per_seed"]) == 2
    n_eval = payload["n_eval"]
    rows = (out / "scores.csv").read_text().splitlines()
    assert len(rows) == 2 + 2 * 2 * n_eval  # seeds x {base, shifted} x eval
    assert rows[1] == "seed,set,index,score"


def test_shift_zero_vector_identical_scores(tmp_path):
    config = shift_config(shift=[0.0, 0.0, 0.0, 0.0])
    cmd_shift(config, out_flag=tmp_path)
    payload = read_json(tmp_path / fingerprint_of(config) / "shift.json")
    for row in payload["per_seed"]:
        assert row["base_mean"] == row["shifted_mean"]
        assert not row["shifted_gt_base"]


def test_shift_trains_its_seeds_as_one_stack(monkeypatch):
    # one train_stack call; each row has the bits of the seed's model alone
    import gradal.cli as cli

    calls = []
    real = cli.train_stack

    def spy(arch, params, *args, **kwargs):
        calls.append(len(params))
        return real(arch, params, *args, **kwargs)

    monkeypatch.setattr(cli, "train_stack", spy)
    ds = make_blobs(80, 3, 4, spread=1.0, seed=2)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,))
    cfg = TrainConfig(learning_rate=0.01, epochs=3, minibatch_size=4)
    labeled = np.arange(0, 80, 3)
    models = cli._trained(arch, ds, labeled, cfg, (0, 5, 9))
    assert calls == [3]
    for seed, trained in zip((0, 5, 9), models):
        alone = train(init_model(arch, seed=derive_seed(seed, "init")), ds, labeled,
                      replace(cfg, seed=derive_seed(seed, "train")))
        assert np.array_equal(trained.params, alone.params), seed


def test_shift_divergence_exits_1_naming_epoch_and_rate(tmp_path, capsys):
    config = shift_config()
    config["train"]["learning_rate"] = 1e300
    out = tmp_path / "out"
    code = main(["shift", "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 1
    assert re.match(r"error: training diverged at epoch \d+ at learning rate 1e\+300$",
                    capsys.readouterr().err)
    assert not out.exists()

@pytest.mark.parametrize("shift, spread", [(1e300, 1.0), (1e308, 2.0)],
                         ids=["scores-overflow", "features-overflow"])
def test_shift_past_float64_exits_2_naming_shift(tmp_path, capsys, shift, spread):
    config = shift_config(shift=shift)
    config["dataset"]["spread"] = spread
    out = tmp_path / "out"
    code = main(["shift", "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: shift: ")
    assert not out.exists()


def test_shift_vector_length_checked(tmp_path):
    config = shift_config(shift=[1.0, 2.0])
    with pytest.raises(ConfigError, match="shift"):
        cmd_shift(config, out_flag=tmp_path)


# ------------------------------------------------------------ contraction

def contraction_config():
    return {
        "dataset": {"kind": "blobs", "n_samples": 80, "n_classes": 2,
                    "n_features": 3, "spread": 0.7, "seed": 3},
        "contraction": {"s_size": 50, "subset_fraction": 0.2, "epochs": 6,
                        "learning_rate": 0.01, "seed": 0,
                        "hidden_widths": [8]},
    }


def test_contraction_outputs(tmp_path):
    config = contraction_config()
    assert cmd_contraction(config, out_flag=tmp_path) == 0
    out = tmp_path / fingerprint_of(config)
    report = read_json(out / "report.json")
    validate(report, "contraction")
    assert len(report["df_norms"]) == 6
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) == 2 + 6
    assert rows[1] == "epoch,df_norm"
    if report["t0_estimate"] is not None:
        assert report["bound_check"] is not None
        assert report["bound_check"]["lhs"] <= report["bound_check"]["rhs"] * (1 + 1e-9) \
            or not report["bound_check"]["holds"]


def test_rerun_into_existing_dir_replaces_files_in_place(tmp_path):
    config = contraction_config()
    out = tmp_path / fingerprint_of(config)
    assert cmd_contraction(config, out_flag=tmp_path) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert cmd_contraction(config, out_flag=tmp_path) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(second) == ["manifest.json", "report.json", "trace.csv"]
    manifests = [json.loads(files.pop("manifest.json")) for files in (first, second)]
    assert first == second
    for manifest in manifests:
        del manifest["started"], manifest["finished"]
    assert manifests[0] == manifests[1]


def test_contraction_invalid_section_exits_2(tmp_path, capsys):
    config = contraction_config()
    config["contraction"]["subset_fraction"] = 2.0
    path = write_config(tmp_path, config)
    code = main(["contraction", "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "contraction" in capsys.readouterr().err


# ------------------------------------------------------------ timing

def timing_config():
    return {
        "dataset": {"kind": "blobs", "n_samples": 120, "n_classes": 3,
                    "n_features": 4, "spread": 1.0, "seed": 4},
        "model": {"hidden_widths": [8]},
        "train": {"learning_rate": 0.01, "epochs": 2},
        "methods": ["entropy", "grad"],
        "pool_size": 60,
        "batch_size": 5,
        "rounds": 2,
        "initial_size": 10,
        "seed": 0,
    }


def test_timing_outputs(tmp_path, capsys):
    config = timing_config()
    assert cmd_timing(config, out_flag=tmp_path) == 0
    out = tmp_path / fingerprint_of(config)
    payload = read_json(out / "timing.json")
    validate(payload, "timing")
    for method in ("entropy", "grad"):
        entry = payload["per_method"][method]
        assert len(entry["round_seconds"]) == 2
        assert entry["mean_seconds"] >= 0.0
        assert entry["sd_seconds"] >= 0.0
    assert payload["entropy_faster_than_grad"] in (True, False)
    # the process's high-water mark: at least the numpy and Python it loaded
    assert 10.0 < payload["peak_rss_mb"] < 1e6

    stdout = capsys.readouterr().out
    assert "+/-" in stdout
    assert "entropy faster than grad:" in stdout

    rows = (out / "timing.csv").read_text().splitlines()
    assert rows[1] == "method,mean_seconds,sd_seconds"
    assert len(rows) == 2 + 2


def test_timing_reports_the_median_round_beside_a_stalled_one(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        batch, _ = timed_select(*args, **kwargs)
        return batch, next(stalls)

    monkeypatch.setattr("gradal.cli.timed_select", stalled)
    config = {**timing_config(), "methods": ["grad", "entropy"], "rounds": 3}
    stalls = iter([0.03, 0.86, 0.025, 0.02, 0.021, 0.022])  # grad's second round stalls
    assert cmd_timing(config, out_flag=tmp_path / "grad-stalls") == 0
    payload = read_json(tmp_path / "grad-stalls" / fingerprint_of(config) / "timing.json")
    validate(payload, "timing")
    grad, entropy = payload["per_method"]["grad"], payload["per_method"]["entropy"]
    assert grad["round_seconds"] == [0.03, 0.86, 0.025]
    assert grad["median_seconds"] == 0.03
    assert grad["mean_seconds"] == pytest.approx(0.305)
    assert entropy["median_seconds"] == 0.021
    assert payload["entropy_faster_than_grad"] is True
    stdout = capsys.readouterr().out
    assert "grad: 0.305 +/- 0.481 s, median 0.030 s" in stdout
    assert "entropy: 0.021 +/- 0.001 s, median 0.021 s" in stdout
    assert "entropy faster than grad: True" in stdout

    # a stall that puts the means in the other order does not flip the verdict
    for name, rounds, faster in (("entropy-stalls", [0.03, 0.031, 0.029, 0.02, 0.9, 0.021], True),
                                 ("grad-median-faster", [0.015, 0.9, 0.016, 0.02, 0.021, 0.022],
                                  False)):
        stalls = iter(rounds)
        assert cmd_timing(config, out_flag=tmp_path / name) == 0
        payload = read_json(tmp_path / name / fingerprint_of(config) / "timing.json")
        grad, entropy = payload["per_method"]["grad"], payload["per_method"]["entropy"]
        assert (entropy["mean_seconds"] < grad["mean_seconds"]) is not faster
        assert payload["entropy_faster_than_grad"] is faster
        assert f"entropy faster than grad: {faster}" in capsys.readouterr().out


def test_timing_pool_too_small_for_schedule(tmp_path):
    config = timing_config()
    config["pool_size"] = 9  # < rounds x batch_size
    with pytest.raises(ConfigError, match="pool_size"):
        cmd_timing(config, out_flag=tmp_path)


def test_timing_csv_smaller_than_its_pool_exits_2_naming_dataset(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_csv(make_blobs(40, 2, 2, spread=1.0, seed=0), data)
    config = {**timing_config(), "pool_size": 50,
              "dataset": {"kind": "csv", "path": str(data)}}
    out = tmp_path / "out"
    code = main(["timing", "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: dataset: 40 rows < pool_size + initial_size = 60")
    assert not out.exists()


# ------------------------------------------------------------ config sections

class Built(Exception):
    """Stops a verb once it has built its config objects."""


def built(monkeypatch, verb, config):
    """The arguments ``verb`` hands on once its config is read: to
    ``run_experiments`` (run), ``run_contraction_trace`` (contraction) or
    ``_trained`` (timing)."""
    import gradal.cli as cli

    def stop(*args):
        raise Built(*args)

    target = {"run": "run_experiments", "contraction": "run_contraction_trace",
              "timing": "_trained"}[verb]
    monkeypatch.setattr(cli, target, stop)
    with pytest.raises(Built) as caught:
        getattr(cli, f"cmd_{verb}")(config, out_flag="unused")
    return caught.value.args


# every field each section reads, at a value other than its default
NON_DEFAULT_SECTIONS = {
    "split": ({"test_fraction": 0.3, "validation_fraction": 0.1, "seed": 7,
               "stratified": False},
              SplitSpec(test_fraction=0.3, validation_fraction=0.1, seed=7,
                        stratified=False)),
    "train": ({"learning_rate": 0.02, "epochs": 3, "momentum": 0.5, "minibatch_size": 4},
              TrainConfig(learning_rate=0.02, epochs=3, momentum=0.5, minibatch_size=4)),
    "model": ({"hidden_widths": [7, 5]},
              ArchSpec(input_dim=3, n_classes=3, hidden_widths=(7, 5))),
    "contraction": ({"s_size": 40, "subset_fraction": 0.25, "epochs": 4,
                     "learning_rate": 0.02, "seed": 3, "scope": "last_layer",
                     "hidden_widths": [6, 4], "momentum": 0.5, "minibatch_size": 8},
                    ContractionConfig(s_size=40, subset_fraction=0.25, epochs=4,
                                      learning_rate=0.02, seed=3, scope="last_layer",
                                      hidden_widths=(6, 4), momentum=0.5, minibatch_size=8)),
}
# the fields a verb fills itself, from the dataset or the run's seeds
FILLED_FIELDS = {"model": {"input_dim", "n_classes"}, "train": {"seed"}}


@pytest.mark.parametrize("section", sorted(NON_DEFAULT_SECTIONS))
def test_section_reads_every_field_of_its_dataclass(monkeypatch, section):
    raw, expected = NON_DEFAULT_SECTIONS[section]
    names = {f.name for f in fields(expected)}
    assert set(raw) == names - FILLED_FIELDS.get(section, set())
    assert all(getattr(expected, f.name) != f.default for f in fields(expected) if f.name in raw)
    if section == "contraction":
        config = contraction_config()
        config["contraction"] = raw
        assert built(monkeypatch, "contraction", config)[0] == expected
    else:
        config = run_config()
        config[section] = raw
        cfg = built(monkeypatch, "run", config)[0]
        assert {"split": cfg.split_spec, "train": cfg.train, "model": cfg.arch}[section] == expected


def test_absent_sections_take_the_dataclass_defaults(monkeypatch):
    config = run_config()
    del config["split"], config["train"], config["model"]
    cfg = built(monkeypatch, "run", config)[0]
    assert cfg.split_spec == SplitSpec()
    assert cfg.train == TrainConfig()
    assert cfg.arch == ArchSpec(input_dim=3, n_classes=3)

    config = contraction_config()
    del config["contraction"]
    assert built(monkeypatch, "contraction", config)[0] == ContractionConfig()

    config = timing_config()
    del config["model"], config["train"]
    arch, _, _, train_cfg, _ = built(monkeypatch, "timing", config)
    assert arch == ArchSpec(input_dim=4, n_classes=3, hidden_widths=(128, 64))
    assert train_cfg == TrainConfig(learning_rate=0.01, epochs=3)


def rejected_run_key(tmp_path, capsys, section, key, value):
    """Whether a ``run`` config with ``section.key`` set exits 2 naming that
    key and writes nothing."""
    config = run_config()
    config[section][key] = value
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)])
    err = capsys.readouterr().err
    return code == 2 and err.startswith(f"config error: {section}.{key}: unknown field") \
        and not out.exists()


# a field the verb fills itself is not a key: setting it would change the
# fingerprint and not the run
def test_train_seed_is_not_read(tmp_path, capsys):
    assert rejected_run_key(tmp_path, capsys, "train", "seed", 5)


def test_model_input_dim_is_not_read(tmp_path, capsys):
    assert rejected_run_key(tmp_path, capsys, "model", "input_dim", 99)


def test_model_n_classes_is_not_read(tmp_path, capsys):
    assert rejected_run_key(tmp_path, capsys, "model", "n_classes", 3)


SECTION_CLASSES = {"split": SplitSpec, "train": TrainConfig, "model": ArchSpec,
                   "contraction": ContractionConfig}


def readme_config_table():
    """section -> (dataclass name, {key: stated default}) from README's
    "Config sections" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Config sections\n", 1)[1].split("\n### ", 1)[0]
    rows = {}
    for line in table.splitlines():
        row = re.fullmatch(r"\| `(\w+)` \| `(\w+)` \| (.*) \|", line)
        if row:
            keys = re.findall(r'`(\w+)` (\[[^\]]*\]|"[^"]*"|[^\s,]+)', row[3])
            rows[row[1]] = (row[2], {key: json.loads(value) for key, value in keys})
    return rows


def test_readme_config_table_is_what_each_section_reads():
    table = readme_config_table()
    assert set(table) == set(SECTION_CLASSES)
    for section, (name, stated) in table.items():
        cls = SECTION_CLASSES[section]
        assert name == cls.__name__
        assert set(stated) == {f.name for f in fields(cls)} - FILLED_FIELDS.get(section, set())
        for f in fields(cls):
            if f.name in stated:
                value = stated[f.name]
                assert (tuple(value) if isinstance(value, list) else value) == f.default, \
                    f"{section}.{f.name}"
