import time

import numpy as np
import pytest

import gradal.al_loop as al_loop
from gradal.al_loop import (
    ExperimentConfig,
    ExperimentResult,
    evaluate_accuracy,
    run_experiment,
    run_experiments,
)
from gradal.data import Dataset, SplitSpec, init_pool, make_blobs, split
from gradal.model import ArchSpec, ModelState, TrainConfig, init_model, predict_proba
from gradal.numerics import Rng


def small_config(methods=("random",), rounds=3, b=5, seeds=(0,), **overrides):
    base = dict(
        arch=ArchSpec(input_dim=3, n_classes=3, hidden_widths=(8,)),
        train=TrainConfig(learning_rate=0.01, epochs=3, seed=0),
        methods=methods,
        b=b,
        rounds=rounds,
        seeds=seeds,
        initial_size=6,
        split_spec=SplitSpec(test_fraction=0.25, seed=0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_dataset(n=120, seed=0):
    return make_blobs(n, 3, 3, spread=0.8, seed=seed)


# ------------------------------------------------------------ accuracy

def test_evaluate_accuracy_matches_recount():
    ds = small_dataset()
    model = init_model(ArchSpec(input_dim=3, n_classes=3, hidden_widths=(8,)), 0)
    test = np.arange(40)
    acc = evaluate_accuracy(model, ds, test)
    hits = 0
    for i in test:
        pred = int(np.argmax(predict_proba(model, ds.features[i])[0]))
        hits += pred == ds.labels[i]
    assert acc == hits / 40


def test_evaluate_accuracy_constant_predictor():
    # all-zero parameters predict class 0 everywhere; balanced 4-class test
    feats = Rng(0).normal(size=(40, 2))
    labels = np.repeat(np.arange(4), 10)
    ds = Dataset(feats, labels, 4)
    arch = ArchSpec(input_dim=2, n_classes=4, hidden_widths=(5,))
    model = ModelState(np.zeros(arch.n_params), arch)
    assert evaluate_accuracy(model, ds, np.arange(40)) == 0.25


def test_evaluate_accuracy_rejects_empty_test():
    ds = small_dataset()
    model = init_model(ArchSpec(input_dim=3, n_classes=3), 0)
    with pytest.raises(ValueError):
        evaluate_accuracy(model, ds, [])


# ------------------------------------------------------------ schedules

def test_labeled_size_schedule():
    cfg = small_config(methods=("random",), rounds=3, b=100, initial_size=100,
                       seeds=(0,))
    ds = make_blobs(700, 3, 3, spread=0.8, seed=1)
    result = run_experiment(cfg, ds)
    sizes = [rec.labeled_size for rec in result.per_seed[0]]
    assert sizes == [100, 200, 300, 400]
    rounds = [rec.round for rec in result.per_seed[0]]
    assert rounds == [0, 1, 2, 3]


def test_zero_rounds_is_single_evaluation():
    cfg = small_config(rounds=0)
    result = run_experiment(cfg, small_dataset())
    assert len(result.per_seed[0]) == 1
    rec = result.per_seed[0][0]
    assert rec.round == 0 and rec.batch is None
    assert 0.0 <= rec.test_accuracy <= 1.0


def test_curves_have_rounds_plus_one_points():
    cfg = small_config(rounds=4, seeds=(0, 1))
    result = run_experiment(cfg, small_dataset())
    assert all(len(seq) == 5 for seq in result.per_seed)


def test_pool_exhaustion_truncates_and_flags():
    # 90-sample train split, init 6, b=40: round 2 exhausts the pool
    cfg = small_config(methods=("random",), rounds=5, b=40)
    result = run_experiment(cfg, small_dataset())
    assert result.truncated
    sizes = [rec.labeled_size for rec in result.per_seed[0]]
    assert sizes[-1] == 90  # whole training split labeled
    assert len(sizes) < 6 + 1


def test_pool_conservation():
    ds = small_dataset()
    cfg = small_config(methods=("grad",), rounds=3, seeds=(0,))
    train_idx, _, _ = split(ds, cfg.split_spec)
    result = run_experiment(cfg, ds)
    seen = set(init_pool(train_idx, cfg.init_size, 0).labeled.tolist())
    for rec in result.per_seed[0]:
        assert rec.labeled_size == len(seen)
        if rec.batch is not None:
            batch = set(rec.batch.indices.tolist())
            assert not batch & seen  # acquisitions come from the unlabeled pool
            assert batch <= set(train_idx.tolist())
            seen |= batch


# ------------------------------------------------------------ seeding

def test_initial_set_shared_across_methods():
    ds = small_dataset()
    results = run_experiments(small_config(methods=("random", "grad", "entropy"), rounds=1), ds)
    # same seed => same round-0 labeled size and contents; contents are
    # checked via init_pool determinism below
    batches = {r.method: r.per_seed[0][0].labeled_size for r in results}
    assert len(set(batches.values())) == 1
    train_idx, _, _ = split(ds, small_config().split_spec)
    a = init_pool(train_idx, 6, seed=0)
    b = init_pool(train_idx, 6, seed=0)
    assert np.array_equal(a.labeled, b.labeled)


def test_full_reproducibility_excluding_walltime():
    ds = small_dataset()
    cfg = small_config(methods=("grad",), rounds=2, seeds=(0, 1))
    r1 = run_experiment(cfg, ds)
    r2 = run_experiment(cfg, ds)
    for seq1, seq2 in zip(r1.per_seed, r2.per_seed):
        for a, b in zip(seq1, seq2):
            assert a.round == b.round
            assert a.labeled_size == b.labeled_size
            assert a.test_accuracy == b.test_accuracy
            if a.batch is None:
                assert b.batch is None
            else:
                assert np.array_equal(a.batch.indices, b.batch.indices)


def test_lockstep_matches_single_runs():
    # 3 methods x 3 seeds in one stack against nine one-method, one-seed runs
    ds = small_dataset()
    methods, seeds = ("entropy", "grad", "kcenter"), (0, 1, 2)
    results = run_experiments(small_config(methods=methods, rounds=2, seeds=seeds), ds)
    assert [r.method for r in results] == list(methods)
    for result in results:
        assert result.seeds == seeds
        for seed, rows in zip(seeds, result.per_seed):
            alone = run_experiment(small_config(methods=(result.method,), rounds=2,
                                                seeds=(seed,)), ds)
            assert len(rows) == len(alone.per_seed[0]) == 3
            for a, b in zip(rows, alone.per_seed[0]):
                assert (a.round, a.labeled_size) == (b.round, b.labeled_size)
                assert a.test_accuracy == b.test_accuracy
                if b.batch is None:
                    assert a.batch is None
                else:
                    assert np.array_equal(a.batch.indices, b.batch.indices)
                    assert np.array_equal(a.batch.scores, b.batch.scores)


def test_round_zero_trains_one_stack_row_per_seed(monkeypatch):
    ds = small_dataset()
    stack_rows = []
    real = al_loop.train_stack

    def spy(arch, params, *args, **kwargs):
        stack_rows.append(len(params))
        return real(arch, params, *args, **kwargs)

    monkeypatch.setattr(al_loop, "train_stack", spy)
    run_experiments(small_config(methods=("random", "grad", "entropy"), rounds=2,
                                 seeds=(0, 1)), ds)
    assert stack_rows == [2, 6, 6]


def test_distinct_seeds_differ():
    ds = small_dataset()
    cfg = small_config(methods=("random",), rounds=1, seeds=(0, 1))
    result = run_experiment(cfg, ds)
    b0 = result.per_seed[0][0].batch.indices
    b1 = result.per_seed[1][0].batch.indices
    assert not np.array_equal(b0, b1)


# ------------------------------------------------------------ oracle honesty

def test_selection_ignores_unlabeled_true_labels():
    # non-stratified split so the carve-up itself cannot react to labels;
    # poison every train point outside the initial set and compare the
    # round-0 selection (later rounds legitimately diverge once the oracle
    # hands over the poisoned labels)
    ds = small_dataset()
    unstrat = SplitSpec(test_fraction=0.25, seed=0, stratified=False)
    cfg = small_config(methods=("grad",), rounds=2, split_spec=unstrat)
    train_idx, _, _ = split(ds, cfg.split_spec)
    initial = set(init_pool(train_idx, cfg.init_size, 0).labeled.tolist())

    poisoned_labels = ds.labels.copy()
    for i in train_idx:
        if i not in initial:
            poisoned_labels[i] = (poisoned_labels[i] + 1) % ds.n_classes
    poisoned = Dataset(ds.features, poisoned_labels, ds.n_classes)

    clean = run_experiment(cfg, ds)
    dirty = run_experiment(cfg, poisoned)
    a = clean.per_seed[0][0].batch.indices
    b = dirty.per_seed[0][0].batch.indices
    assert np.array_equal(a, b)


# ------------------------------------------------------------ timing

def test_acquisition_time_excludes_training(monkeypatch):
    ds = small_dataset()
    real_train = al_loop.train_stack

    def slow_train(*args, **kwargs):
        time.sleep(0.05)
        return real_train(*args, **kwargs)

    monkeypatch.setattr(al_loop, "train_stack", slow_train)
    cfg = small_config(methods=("entropy",), rounds=2)
    result = run_experiment(cfg, ds)
    for rec in result.per_seed[0]:
        assert rec.acquisition_seconds < 0.05


# ------------------------------------------------------------ validation

def test_config_validation():
    with pytest.raises(ValueError):
        small_config(methods=("margin",))
    with pytest.raises(ValueError, match="methods must be nonempty"):
        small_config(methods=())
    with pytest.raises(ValueError, match="methods must not repeat"):
        small_config(methods=("grad", "random", "grad"))
    with pytest.raises(ValueError):
        small_config(b=0)
    with pytest.raises(ValueError):
        small_config(rounds=-1)
    with pytest.raises(ValueError):
        small_config(seeds=())
    with pytest.raises(ValueError, match="seeds must not repeat"):
        small_config(seeds=(0, 0, 1))
    with pytest.raises(ValueError):
        small_config(initial_size=0)
    with pytest.raises(ValueError):
        small_config(scope="half")


@pytest.mark.parametrize("field, value", [("methods", "grad"), ("seeds", "01")])
def test_config_rejects_a_bare_string(field, value):
    # "grad" would be read as ('g', 'r', 'a', 'd'), and "01" as the seeds (0, 1)
    with pytest.raises(ValueError, match=f"{field} must be a sequence"):
        small_config(**{field: value})


def test_run_experiment_rejects_several_methods_before_training(monkeypatch):
    trained = []
    monkeypatch.setattr(al_loop, "train_stack", lambda *args: trained.append(args))
    with pytest.raises(ValueError, match=r"methods=\('random', 'grad'\)"):
        run_experiment(small_config(methods=("random", "grad")), small_dataset())
    assert trained == []


def test_initial_size_defaults_to_b():
    cfg = small_config(b=7, initial_size=None)
    assert cfg.init_size == 7


def test_train_split_must_cover_initial_set():
    cfg = small_config(initial_size=1000)
    with pytest.raises(ValueError, match="training split"):
        run_experiment(cfg, small_dataset())


def test_all_seeds_failing_raises():
    ds = small_dataset()
    cfg = small_config(methods=("random",), rounds=1,
                       train=TrainConfig(learning_rate=1e308, epochs=2, seed=0))
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="all seeds failed"):
        run_experiment(cfg, ds)


def test_divergence_error_names_method_round_and_learning_rate():
    ds = small_dataset()
    cfg = small_config(methods=("entropy",), rounds=1,
                       train=TrainConfig(learning_rate=1e300, epochs=2, seed=0))
    message = r"entropy round 0: training diverged at epoch \d+ at learning rate 1e\+300"
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=message):
        run_experiment(cfg, ds)


def test_sweep_lr_replaces_configured_rate():
    ds = small_dataset(n=160)
    cfg = small_config(
        methods=("random",), rounds=1, sweep_lr=True,
        split_spec=SplitSpec(test_fraction=0.2, validation_fraction=0.2, seed=0))
    result = run_experiment(cfg, ds)
    assert result.learning_rate in (0.0001, 0.0005, 0.001, 0.005, 0.01)


def test_sweep_lr_runs_once_per_run(monkeypatch):
    ds = small_dataset(n=160)
    calls = []
    real = al_loop.sweep_learning_rate

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(al_loop, "sweep_learning_rate", spy)
    split_spec = SplitSpec(test_fraction=0.2, validation_fraction=0.2, seed=0)
    results = run_experiments(small_config(methods=("random", "grad", "entropy"), rounds=1,
                                           sweep_lr=True, split_spec=split_spec), ds)
    assert len(calls) == 1
    assert len({r.learning_rate for r in results}) == 1


def test_sweep_lr_needs_validation_split():
    cfg = small_config(methods=("random",), rounds=1, sweep_lr=True)
    with pytest.raises(ValueError, match="validation"):
        run_experiment(cfg, small_dataset())


def test_result_carries_method_and_seeds():
    result = run_experiment(small_config(rounds=1), small_dataset())
    assert result.method == "random"
    assert result.seeds == (0,)
