import json
import shutil
from pathlib import Path

import jsonschema
import numpy as np
import pytest

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
)
from gradal.numerics import Rng

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "gradal" / "schemas"


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


@pytest.mark.parametrize("verb, field, value", [
    ("timing", "rounds", 0),
    ("timing", "batch_size", 0),
    ("geometry", "initial_size", 0),
    ("geometry", "initial_size", 5000),
    ("run", "batch_size", 0),
    ("run", "initial_size", 500),
    ("run", "sweep_lr", True),  # with no validation split
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


def test_runtime_failure_exits_1_and_writes_nothing(tmp_path, capsys):
    config = run_config()
    config["train"]["learning_rate"] = 1e300  # every seed diverges
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", "--config", str(path), "--out", str(out)])
    assert code == 1
    assert "all seeds failed" in capsys.readouterr().err
    assert not out.exists()


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

    stdout = capsys.readouterr().out
    assert "+/-" in stdout
    assert "entropy faster than grad:" in stdout

    rows = (out / "timing.csv").read_text().splitlines()
    assert rows[1] == "method,mean_seconds,sd_seconds"
    assert len(rows) == 2 + 2


def test_timing_pool_too_small_for_schedule(tmp_path):
    config = timing_config()
    config["pool_size"] = 9  # < rounds x batch_size
    with pytest.raises(ConfigError, match="pool_size"):
        cmd_timing(config, out_flag=tmp_path)
