from dataclasses import replace

import numpy as np
import pytest

from gradal.al_loop import sweep_learning_rate
from gradal.contraction import ContractionConfig, run_contraction_trace
from gradal.data import Dataset, make_blobs
from gradal.model import (
    CHUNK_ROWS,
    FULL,
    LAST_LAYER,
    TRAIN_DTYPE,
    ArchSpec,
    ModelState,
    TrainConfig,
    _forward,
    _grad_pass,
    _layers,
    _log_softmax,
    _output_error,
    _softmax,
    _stack_grad,
    _Workspace,
    grad_embedding,
    grad_embeddings,
    grad_products,
    init_model,
    last_layer_factors,
    loss_mean,
    mean_grad_embedding,
    penultimate,
    predict_proba,
    train,
    train_stack,
)
from gradal.numerics import Rng, derive_seed, l2_norm


def tiny_dataset(n=40, c=3, d=4, seed=2, spread=0.8):
    return make_blobs(n, c, d, spread=spread, seed=seed)


def tiny_arch(d=4, c=3, widths=(6, 5)):
    return ArchSpec(input_dim=d, n_classes=c, hidden_widths=widths)


def fd_gradient(f, params, eps=1e-5):
    """Central finite differences of a scalar function of the flat params."""
    g = np.zeros_like(params)
    for i in range(params.size):
        up = params.copy()
        dn = params.copy()
        up[i] += eps
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


# ---------------------------------------------------------------- init

def test_init_model_deterministic():
    arch = tiny_arch()
    a = init_model(arch, seed=5)
    b = init_model(arch, seed=5)
    assert np.array_equal(a.params, b.params)
    assert not np.array_equal(a.params, init_model(arch, seed=6).params)


def test_init_model_biases_zero():
    arch = tiny_arch()
    m = init_model(arch, seed=1)
    sizes = arch.layer_sizes
    offset = 0
    for i in range(len(sizes) - 1):
        offset += sizes[i + 1] * sizes[i]
        assert np.all(m.params[offset:offset + sizes[i + 1]] == 0.0)
        offset += sizes[i + 1]


def test_init_model_weight_scale_matches_fan_in():
    # U(-b, b) has std b/sqrt(3) with b = sqrt(1/fan_in)
    arch = ArchSpec(input_dim=50, n_classes=4, hidden_widths=(80,))
    stds = []
    for seed in range(10):
        m = init_model(arch, seed)
        w1 = m.params[: 80 * 50]
        stds.append(w1.std())
    expected = np.sqrt(1.0 / 50) / np.sqrt(3.0)
    assert abs(np.mean(stds) - expected) <= 0.2 * expected


def test_model_state_validates_length():
    with pytest.raises(ValueError):
        ModelState(params=np.zeros(3), arch=tiny_arch())


# ---------------------------------------------------------------- forward

def test_predict_proba_rows_sum_to_one():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 0)
    p = predict_proba(m, ds.features)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(p > 0) and np.all(p < 1)


def test_predict_proba_uniform_when_last_layer_zero():
    arch = tiny_arch()
    m = init_model(arch, 0)
    params = m.params.copy()
    last = (arch.penultimate_width + 1) * arch.n_classes
    params[-last:] = 0.0
    p = predict_proba(ModelState(params, arch), tiny_dataset().features)
    assert np.allclose(p, 1.0 / arch.n_classes, atol=1e-12)


def test_predict_proba_matches_naive_softmax():
    # 1-layer net so logits are x @ W.T + b and easy to recompute
    arch = ArchSpec(input_dim=3, n_classes=4, hidden_widths=())
    m = init_model(arch, 3)
    x = Rng(0).normal(size=(10, 3))
    w = m.params[:12].reshape(4, 3)
    b = m.params[12:]
    logits = x @ w.T + b
    naive = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    assert np.allclose(predict_proba(m, x), naive, atol=1e-12)


def test_predict_proba_stable_for_huge_logits():
    arch = ArchSpec(input_dim=2, n_classes=3, hidden_widths=())
    m = init_model(arch, 0)
    p = predict_proba(m, np.array([[1e8, -1e8]]))
    assert np.isfinite(p).all()
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_penultimate_nonnegative_and_deterministic():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 4)
    h1 = penultimate(m, ds.features)
    h2 = penultimate(m, ds.features)
    assert np.all(h1 >= 0.0)
    assert np.array_equal(h1, h2)
    assert h1.shape == (ds.n_samples, 5)


def test_penultimate_hand_computation():
    # one hidden unit: h = relu(2x + 1)
    arch = ArchSpec(input_dim=1, n_classes=2, hidden_widths=(1,))
    params = np.array([2.0, 1.0, 0.5, -0.5, 0.0, 0.0])  # W0=2, b0=1, W1, b1
    m = ModelState(params, arch)
    x = np.array([[1.0], [-2.0]])
    assert np.allclose(penultimate(m, x), [[3.0], [0.0]])


def test_penultimate_without_hidden_layers_is_input():
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=())
    m = init_model(arch, 0)
    x = Rng(1).normal(size=(5, 3))
    assert np.array_equal(penultimate(m, x), x)


# ---------------------------------------------------------------- loss

def test_loss_mean_uniform_is_log_k():
    ds = make_blobs(50, 10, 3, spread=1.0, seed=1)
    arch = ArchSpec(input_dim=3, n_classes=10, hidden_widths=(4,))
    m = init_model(arch, 0)
    params = m.params.copy()
    params[-(arch.penultimate_width + 1) * 10:] = 0.0
    loss = loss_mean(ModelState(params, arch), ds, np.arange(50))
    assert loss == pytest.approx(np.log(10.0), abs=1e-9)


def test_loss_mean_equals_per_example_average():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 7)
    idx = np.arange(ds.n_samples)
    per_example = [loss_mean(m, ds, [i]) for i in idx]
    assert loss_mean(m, ds, idx) == pytest.approx(np.mean(per_example), abs=1e-12)


def test_loss_mean_rejects_empty():
    with pytest.raises(ValueError):
        loss_mean(init_model(tiny_arch(), 0), tiny_dataset(), [])


def test_train_and_mean_grad_embedding_reject_empty_indices():
    ds, model = tiny_dataset(), init_model(tiny_arch(), 0)
    with pytest.raises(ValueError, match="indices must be nonempty"):
        train(model, ds, [], TrainConfig(learning_rate=0.01, epochs=1))
    with pytest.raises(ValueError, match="indices must be nonempty"):
        mean_grad_embedding(model, ds, [])


@pytest.mark.parametrize("input_dim, widths", [(0, (4,)), (3, (4, 0))],
                         ids=["no-input", "zero-width"])
def test_arch_spec_rejects_empty_layers(input_dim, widths):
    with pytest.raises(ValueError):
        ArchSpec(input_dim=input_dim, n_classes=3, hidden_widths=widths)


def test_embedding_dim_at_full_scope_is_every_parameter():
    arch = tiny_arch()
    assert arch.embedding_dim(FULL) == arch.n_params
    assert grad_embeddings(init_model(arch, 0), tiny_dataset().features[:2],
                           scope=FULL).shape == (2, arch.n_params)


def test_unknown_scope_raises_naming_it():
    arch = tiny_arch()
    with pytest.raises(ValueError, match="unknown scope 'middle'"):
        arch.embedding_dim("middle")
    with pytest.raises(ValueError, match="unknown scope 'middle'"):
        grad_embeddings(init_model(arch, 0), tiny_dataset().features[:2], scope="middle")


# ---------------------------------------------------------------- training

def test_train_descends_on_single_sample():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 1)
    cfg = TrainConfig(learning_rate=0.01, epochs=1, momentum=0.0, seed=0)
    before = loss_mean(m, ds, [0])
    after = loss_mean(train(m, ds, [0], cfg), ds, [0])
    assert after < before


def test_train_separable_blobs_high_accuracy():
    ds = make_blobs(300, 3, 2, spread=0.3, seed=0)
    arch = ArchSpec(input_dim=2, n_classes=3, hidden_widths=(16,))
    m = train(init_model(arch, 0), ds, np.arange(300),
              TrainConfig(learning_rate=0.01, epochs=30, seed=1))
    pred = np.argmax(predict_proba(m, ds.features), axis=1)
    assert np.mean(pred == ds.labels) >= 0.95


def test_train_deterministic():
    ds = tiny_dataset()
    cfg = TrainConfig(learning_rate=0.005, epochs=3, seed=9)
    a = train(init_model(tiny_arch(), 2), ds, np.arange(20), cfg)
    b = train(init_model(tiny_arch(), 2), ds, np.arange(20), cfg)
    assert np.array_equal(a.params, b.params)


def test_train_divergence_names_epoch():
    base = make_blobs(30, 2, 2, spread=0.5, seed=0)
    ds = Dataset(base.features * 1e4, base.labels, 2)
    arch = ArchSpec(input_dim=2, n_classes=2, hidden_widths=(8,))
    cfg = TrainConfig(learning_rate=1e12, epochs=3, minibatch_size=1, seed=0)
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match="diverged at epoch 0"):
        train(init_model(arch, 0), ds, np.arange(30), cfg)


def test_train_uses_incomplete_final_minibatch():
    # 5 points with batch 4: the trailing short minibatch must still train
    ds = tiny_dataset(n=40)
    idx = np.arange(5)
    cfg = TrainConfig(learning_rate=0.01, epochs=1, momentum=0.0,
                      minibatch_size=4, seed=3)
    full = train(init_model(tiny_arch(), 0), ds, idx, cfg)
    # same config but only the first 4 points available
    part = train(init_model(tiny_arch(), 0), ds, idx[:4], cfg)
    assert not np.array_equal(full.params, part.params)


# ---------------------------------------------------------------- lockstep engine

def _stack_args(cfg):
    return cfg.learning_rate, cfg.momentum, cfg.minibatch_size, cfg.epochs


def test_train_stack_rows_match_separate_train_calls():
    # distinct inits, seeds and labeled sets; 13 points in batches of 4
    # leave a one-point final minibatch every epoch
    ds = tiny_dataset(n=60)
    arch = tiny_arch()
    cfg = TrainConfig(learning_rate=0.05, epochs=4, minibatch_size=4, seed=0)
    inits = [init_model(arch, s) for s in range(4)]
    labeled = [np.arange(s, 60, 4)[:13] for s in range(4)]
    seeds = [11, 12, 13, 14]
    params, diverged = train_stack(arch, [m.params for m in inits], labeled, seeds, ds,
                                   *_stack_args(cfg))
    assert diverged.tolist() == [-1, -1, -1, -1]
    for m in range(4):
        alone = train(inits[m], ds, labeled[m], replace(cfg, seed=seeds[m]))
        assert np.array_equal(params[m], alone.params), m


def test_train_stack_draws_each_distinct_seeds_shuffle_once_an_epoch(monkeypatch):
    # rows 0, 2 and 3 share seed 5 and so its permutation: 2 draws an epoch, not 4
    ds = tiny_dataset(n=60)
    arch = tiny_arch()
    cfg = TrainConfig(learning_rate=0.05, epochs=3, minibatch_size=4, seed=0)
    inits = [init_model(arch, s) for s in range(4)]
    labeled = [np.arange(s, 60, 4)[:13] for s in range(4)]
    seeds = [5, 7, 5, 5]
    draws, permutation = [], Rng.permutation
    monkeypatch.setattr(Rng, "permutation", lambda rng, n: draws.append(rng.label) or permutation(rng, n))
    params, _ = train_stack(arch, [m.params for m in inits], labeled, seeds, ds, *_stack_args(cfg))
    assert len(draws) == 2 * cfg.epochs
    monkeypatch.undo()
    for m in range(4):
        alone = train(inits[m], ds, labeled[m], replace(cfg, seed=seeds[m]))
        assert np.array_equal(params[m], alone.params), m


@pytest.mark.parametrize("minibatch_size", [4, 0])
def test_train_stack_per_row_rates_match_separate_train_calls(minibatch_size):
    # rates and momentum are cast to TRAIN_DTYPE once, so a float64 rate vector
    # and float64 momentum step as the python floats of one-rate calls do
    ds = tiny_dataset(n=60)
    arch = tiny_arch()
    init, labeled = init_model(arch, 3), np.arange(0, 60, 3)
    rates = [0.3, 0.05, 0.001]
    params, diverged = train_stack(arch, [init.params] * 3, [labeled] * 3, [9] * 3, ds,
                                   np.array(rates), np.float64(0.9), minibatch_size, 5)
    assert diverged.tolist() == [-1, -1, -1]
    for m, rate in enumerate(rates):
        alone, _ = train_stack(arch, [init.params], [labeled], [9], ds, rate, 0.9,
                               minibatch_size, 5)
        assert np.array_equal(params[m], alone[0]), rate


def test_train_stack_and_train_step_in_train_dtype_and_return_float64():
    # the stored params are float64, and every value is one the float32 step gave
    ds = tiny_dataset(n=60)
    arch = tiny_arch()
    init, labeled = init_model(arch, 3), np.arange(0, 60, 3)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, momentum=0.9, minibatch_size=4, seed=9)
    seen = []
    params, _ = train_stack(arch, [init.params] * 2, [labeled] * 2, [9, 4], ds,
                            *_stack_args(cfg), on_epoch=lambda epoch, p, g: seen.append(p.dtype))
    model = train(init, ds, labeled, cfg)
    assert seen == [TRAIN_DTYPE] * cfg.epochs
    for trained in (params, model.params):
        assert trained.dtype == np.float64
        assert trained.astype(TRAIN_DTYPE).astype(np.float64).tobytes() == trained.tobytes()
    assert model.params.tobytes() == params[0].tobytes()
    assert not np.array_equal(params[0], params[1])
    assert not np.array_equal(model.params, init.params.astype(TRAIN_DTYPE))


def test_train_stack_casts_only_the_rows_it_reads_and_warns_nothing():
    # one float32 cast, of the distinct labeled rows; a row that overflows
    # float32 diverges without a numpy warning (the suite makes them errors)
    casts = []

    class Features(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            casts.append(self.shape)
            return super().astype(dtype, *args, **kwargs)

    base = tiny_dataset(n=60)
    ds = Dataset(np.where(np.arange(60)[:, None] < 50, base.features, 1e39), base.labels, 3)
    ds.features = ds.features.view(Features)
    arch = tiny_arch()
    labeled = [np.arange(0, 20, 2), np.arange(10, 60, 5)]  # row 1 reads rows 50 and 55
    _, diverged = train_stack(arch, [init_model(arch, s).params for s in range(2)], labeled,
                              [1, 2], ds, 0.05, 0.9, 4, 2)
    assert casts == [(len(np.union1d(*labeled)), 4)]
    assert diverged.tolist() == [-1, 0]


@pytest.mark.parametrize("dtype", [TRAIN_DTYPE, np.float64])
def test_passes_run_at_the_dtype_of_their_params(dtype):
    # a float32 stack's workspace, activations and gradient are float32 even
    # on float64 features; float64 params (inference, scoring) stay float64
    ds = tiny_dataset()
    arch = tiny_arch()
    params = init_model(arch, 0).params.astype(dtype)[None]
    x, y = ds.features[:5][None], ds.labels[:5][None]
    layers = _layers(params, arch)
    ws = _Workspace(layers, x.shape[:-1])
    assert {a.dtype for a in [*ws.outs, ws.row, *ws.outs_t]} == {np.dtype(dtype)}
    acts, logits = _forward(layers, x, ws)
    assert {a.dtype for a in [*acts, logits]} == {np.dtype(dtype)}
    for scope in (FULL, LAST_LAYER):
        assert _grad_pass(arch, params, x, y, scope)().dtype == dtype


def test_train_stack_diverging_row_leaves_other_rows_unchanged():
    # row 1 trains on points scaled by 1e20, which overflow float32 at this
    # rate; rows 0 and 2 train on unscaled points and stay finite
    base = make_blobs(80, 3, 4, spread=0.8, seed=2)
    features = base.features.copy()
    features[60:] *= 1e20
    ds = Dataset(features, base.labels, 3)
    arch = tiny_arch()
    cfg = TrainConfig(learning_rate=1e3, epochs=6, minibatch_size=4, seed=0)
    inits = [init_model(arch, s) for s in range(3)]
    labeled = [np.arange(0, 30, 2), np.arange(60, 75), np.arange(1, 31, 2)]
    seeds = [5, 6, 7]
    with np.errstate(all="ignore"):
        params, diverged = train_stack(arch, [m.params for m in inits], labeled, seeds, ds,
                                       *_stack_args(cfg))
        with pytest.raises(ArithmeticError) as lone:
            train(inits[1], ds, labeled[1], replace(cfg, seed=seeds[1]))
    assert diverged[0] == diverged[2] == -1 and diverged[1] >= 0
    assert f"diverged at epoch {diverged[1]} at learning rate 1000" in str(lone.value)
    for m in (0, 2):
        alone = train(inits[m], ds, labeled[m], replace(cfg, seed=seeds[m]))
        assert np.array_equal(params[m], alone.params), m


def _discrepancy(arch, ds, params, s, s_j, scope):
    """||mean_grad(S) - mean_grad(S_J)|| at the scope, at the dtype of the flat
    ``params`` (the monitor's precision for the engine's params)."""
    g_s, g_sj = (_grad_pass(arch, params[None], ds.features[rows][None].astype(params.dtype),
                            ds.labels[rows][None], scope)()[0] for rows in (s, s_j))
    return l2_norm(g_s - g_sj)


def test_train_stack_full_batch_reproduces_contraction_trace():
    # reference: one full-batch momentum step per epoch, written out
    ds = make_blobs(60, 2, 3, spread=0.7, seed=1)
    cfg = ContractionConfig(s_size=40, subset_fraction=0.25, epochs=8, learning_rate=0.01,
                            seed=0, scope=FULL, hidden_widths=(8,), momentum=0.5)
    s, s_j = np.arange(40), np.arange(0, 40, 4)
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=(8,))
    init = init_model(arch, seed=derive_seed(cfg.seed, "init"))

    def discrepancy(params):
        return _discrepancy(arch, ds, params, s, s_j, FULL)

    features = ds.features.astype(TRAIN_DTYPE)
    params, expected = init.params.astype(TRAIN_DTYPE), []
    velocity = np.zeros(arch.n_params, TRAIN_DTYPE)
    rate, momentum = TRAIN_DTYPE(cfg.learning_rate), TRAIN_DTYPE(cfg.momentum)
    for _ in range(cfg.epochs):
        grad = _grad_pass(arch, params[None], features[s][None], ds.labels[s][None], FULL)()[0]
        velocity = momentum * velocity + grad
        params = params - rate * velocity
        expected.append(discrepancy(params))

    seen = []
    stacked, diverged = train_stack(arch, [init.params], [s], [cfg.seed], ds, cfg.learning_rate,
                                    cfg.momentum, 0, cfg.epochs,
                                    on_epoch=lambda epoch, p, g: seen.append(discrepancy(p[0])))
    report = run_contraction_trace(cfg, ds, sample_indices=s, subset_indices=s_j)
    assert diverged.tolist() == [-1]
    assert stacked[0].tobytes() == params.astype(float).tobytes()
    assert seen == expected
    assert report.df_norms.tolist() == expected


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_train_stack_full_batch_hands_on_the_gradient_at_its_params(momentum):
    # the callback's grad is the next step's gradient: the mean gradient
    # over the labeled rows at the callback's params, the last epoch included
    ds = make_blobs(60, 2, 3, spread=0.7, seed=1)
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=(8, 5))
    s = np.arange(40)
    seen = []
    train_stack(arch, [init_model(arch, 0).params], [s], [0], ds, 0.01, momentum, 0, 6,
                on_epoch=lambda epoch, p, g: seen.append((epoch, p[0].copy(), g[0].copy())))
    assert [epoch for epoch, _, _ in seen] == list(range(6))
    for _, params, grad in seen:
        want = _grad_pass(arch, params[None], ds.features[s][None], ds.labels[s][None], FULL)()[0]
        assert np.array_equal(grad, want)


def test_train_stack_minibatch_hands_on_no_gradient():
    ds = make_blobs(60, 2, 3, spread=0.7, seed=1)
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=(8,))
    seen = []
    train_stack(arch, [init_model(arch, 0).params], [np.arange(40)], [0], ds, 0.01, 0.5, 8, 3,
                on_epoch=lambda epoch, p, g: seen.append(g))
    assert seen == [None, None, None]


def _reference_trace(ds, cfg, s, s_j):
    """A trace's df_norms, written out at the engine's precision: per epoch,
    reshuffled minibatches (one unshuffled full batch at minibatch_size 0),
    each a momentum step, then the discrepancy at cfg.scope."""
    arch = ArchSpec(input_dim=ds.n_features, n_classes=ds.n_classes,
                    hidden_widths=cfg.hidden_widths)
    params = init_model(arch, seed=derive_seed(cfg.seed, "init")).params.astype(TRAIN_DTYPE)
    velocity, shuffle = np.zeros(arch.n_params, TRAIN_DTYPE), Rng(cfg.seed, "shuffle")
    expected = []
    features = ds.features.astype(TRAIN_DTYPE)
    rate, momentum = TRAIN_DTYPE(cfg.learning_rate), TRAIN_DTYPE(cfg.momentum)
    step = cfg.minibatch_size or s.size
    for epoch in range(cfg.epochs):
        order = (shuffle.derive(f"epoch{epoch}").permutation(s.size) if cfg.minibatch_size
                 else np.arange(s.size))
        for start in range(0, s.size, step):
            batch = s[order[start:start + step]]
            grad = _grad_pass(arch, params[None], features[batch][None],
                              ds.labels[batch][None], FULL)()[0]
            velocity = momentum * velocity + grad
            params = params - rate * velocity
        expected.append(_discrepancy(arch, ds, params, s, s_j, cfg.scope))
    return expected


@pytest.mark.parametrize("scope, minibatch_size", [(FULL, 8), (LAST_LAYER, 0)])
def test_contraction_trace_reproduces_reference_loop(scope, minibatch_size):
    # minibatch mode computes mean_grad(S) in the monitor; the last-layer
    # full-batch monitor slices it from the engine's gradient
    ds = make_blobs(60, 2, 3, spread=0.7, seed=1)
    cfg = ContractionConfig(s_size=40, subset_fraction=0.25, epochs=6, learning_rate=0.01,
                            seed=0, scope=scope, hidden_widths=(8,), momentum=0.5,
                            minibatch_size=minibatch_size)
    s, s_j = np.arange(40), np.arange(0, 40, 4)
    report = run_contraction_trace(cfg, ds, sample_indices=s, subset_indices=s_j)
    assert report.df_norms.tolist() == _reference_trace(ds, cfg, s, s_j)


# ---------------------------------------------------------------- gradients

def test_last_layer_embedding_closed_form_shape():
    arch = tiny_arch()
    m = init_model(arch, 0)
    ds = tiny_dataset()
    emb = grad_embedding(m, ds.features[0], int(ds.labels[0]), scope=LAST_LAYER)
    assert emb.shape == ((arch.penultimate_width + 1) * arch.n_classes,)


def test_last_layer_embedding_zero_at_fitted_point():
    # drive p to (almost) one-hot at the true label via huge logits
    arch = ArchSpec(input_dim=1, n_classes=2, hidden_widths=(1,))
    params = np.array([1.0, 0.0, 100.0, -100.0, 0.0, 0.0])
    m = ModelState(params, arch)
    emb = grad_embedding(m, np.array([5.0]), 0, scope=LAST_LAYER)
    assert np.all(np.abs(emb) < 1e-10)


def test_last_layer_embedding_matches_finite_differences():
    rng = Rng(12)
    for trial in range(50):
        d = int(rng.integers(2, 6))
        c = int(rng.integers(2, 5))
        widths = tuple(int(w) for w in rng.integers(2, 7, size=int(rng.integers(1, 3))))
        arch = ArchSpec(input_dim=d, n_classes=c, hidden_widths=widths)
        m = init_model(arch, int(rng.integers(0, 10_000)))
        x = rng.normal(size=d)
        y = int(rng.integers(0, c))
        ds = Dataset(np.tile(x, (c, 1)), np.full(c, y), c)

        analytic = grad_embedding(m, x, y, scope=LAST_LAYER)
        n_last = (arch.penultimate_width + 1) * c

        def loss_at(p):
            return loss_mean(ModelState(p, arch), ds, [0])

        fd_last = fd_gradient(loss_at, m.params.copy())[-n_last:]
        denom = max(np.linalg.norm(fd_last), 1e-12)
        assert np.linalg.norm(analytic - fd_last) / denom <= 1e-4


def test_full_embedding_matches_finite_differences():
    rng = Rng(21)
    for trial in range(10):
        arch = ArchSpec(input_dim=3, n_classes=3,
                        hidden_widths=(int(rng.integers(2, 6)),))
        m = init_model(arch, int(rng.integers(0, 10_000)))
        x = rng.normal(size=3)
        y = int(rng.integers(0, 3))
        ds = Dataset(np.tile(x, (3, 1)), np.full(3, y), 3)
        analytic = grad_embedding(m, x, y, scope=FULL)

        def loss_at(p):
            return loss_mean(ModelState(p, arch), ds, [0])

        fd = fd_gradient(loss_at, m.params.copy())
        assert np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12) <= 1e-4


def test_last_layer_is_trailing_slice_of_full():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 3)
    x = ds.features[:7]
    y = ds.labels[:7]
    full = grad_embeddings(m, x, y, scope=FULL)
    last = grad_embeddings(m, x, y, scope=LAST_LAYER)
    n_last = last.shape[1]
    assert np.array_equal(full[:, -n_last:], last)


def test_grad_embeddings_chunking_consistent():
    # a row's embedding does not depend on the rows in its call: 30 rows in
    # one call equal the same rows computed 7 at a time, at both scopes
    ds = tiny_dataset(n=30)
    m = init_model(tiny_arch(), 5)
    for scope in (LAST_LAYER, FULL):
        whole = grad_embeddings(m, ds.features, ds.labels, scope=scope)
        parts = [grad_embeddings(m, ds.features[i:i + 7], ds.labels[i:i + 7], scope=scope)
                 for i in range(0, 30, 7)]
        assert whole.tobytes() == np.vstack(parts).tobytes()


def test_grad_embedding_label_out_of_range():
    m = init_model(tiny_arch(), 0)
    with pytest.raises(ValueError):
        grad_embedding(m, np.zeros(4), 3)


@pytest.mark.parametrize("scope", [LAST_LAYER, FULL])
@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_labels_raise_naming_the_label(scope, bad):
    # -1 would wrap to the last class in the one-hot lookup, 3 overrun it
    m = init_model(tiny_arch(c=3), 0)
    with pytest.raises(ValueError, match=f"label {bad} out of range"):
        grad_embeddings(m, np.zeros((2, 4)), [bad, 0], scope=scope)


@pytest.mark.parametrize("stacked", [False, True], ids=["one-model", "stack"])
@pytest.mark.parametrize("given", [False, True], ids=["pseudo-labels", "labels"])
def test_output_error_equals_one_hot_subtract_bitwise(stacked, given):
    arch = tiny_arch(c=3)
    rng = np.random.default_rng(5)
    # the zero net ties every class, so its pseudo-labels are all class 0
    params = np.stack([np.zeros(arch.n_params), init_model(arch, 1).params])
    x = rng.normal(size=(2, 9, 4))
    y = rng.integers(0, 3, size=(2, 9))
    if not stacked:
        params, x, y = params[1], x[1], y[1]
    layers = _layers(params, arch)
    acts, err = _output_error(layers, x, y if given else None)
    _, logits = _forward(layers, x)
    want = _softmax(logits)
    want -= np.eye(3)[y if given else np.argmax(want, axis=-1)]
    assert err.tobytes() == want.tobytes()
    assert acts[-1].tobytes() == _forward(layers, x)[0][-1].tobytes()


def _reference_full_embeddings(model, x, y=None):
    """Per-example full-parameter gradients, backprop written out."""
    w_layers = _layers(model.params, model.arch)
    acts, delta = _output_error(w_layers, x, y)
    out = np.empty((x.shape[0], model.arch.n_params))
    g_layers = _layers(out, model.arch)
    for i in range(len(w_layers) - 1, -1, -1):
        gw, gb = g_layers[i]
        np.einsum("no,ni->noi", delta, acts[i], out=gw)
        gb[:] = delta
        if i > 0:
            delta = delta @ w_layers[i][0]
            delta *= acts[i] > 0
    return out


def _reference_embeddings(model, x, y, scope):
    """Embeddings as separate code paths compute them from one forward pass
    over all rows: at last-layer scope the closed form, at full scope
    backprop written out."""
    if scope == FULL:
        return _reference_full_embeddings(model, x, y)
    w_layers = _layers(model.params, model.arch)
    acts, err = _output_error(w_layers, x, y)
    h1 = np.concatenate([acts[-1], np.ones((len(x), 1))], axis=1)
    n_classes, width = err.shape[1], h1.shape[1] - 1
    emb = np.empty((len(x), n_classes * (width + 1)))
    np.einsum("nc,nh->nch", err, h1[:, :-1],
              out=emb[:, :n_classes * width].reshape(len(x), n_classes, width))
    emb[:, n_classes * width:] = err
    return emb


@pytest.mark.parametrize("scope", [LAST_LAYER, FULL])
@pytest.mark.parametrize("labeled", [False, True])
def test_grad_embeddings_equal_reference_bitwise(scope, labeled):
    # 300 rows, more than one 256-row tile, in one call; the reference runs
    # one pass per row, as each row is the gradient of its example alone
    ds = make_blobs(300, 10, 20, spread=1.0, seed=3)
    arch = ArchSpec(input_dim=20, n_classes=10, hidden_widths=(128, 64))
    m = train(init_model(arch, 7), ds, np.arange(40), TrainConfig(learning_rate=0.05, epochs=3))
    expected = np.concatenate([
        _reference_embeddings(m, ds.features[[i]], ds.labels[[i]] if labeled else None, scope)
        for i in range(300)])
    got = grad_embeddings(m, ds.features, ds.labels if labeled else None, scope=scope)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("scope", [LAST_LAYER, FULL])
def test_grad_embeddings_row_is_its_example_mean_gradient_bytes(scope):
    # row i has the bytes of example i's mean gradient, signed zeros
    # included, whatever rows are beside it: alone, or in reversed order
    ds = make_blobs(50, 4, 10, spread=1.0, seed=2)
    arch = ArchSpec(input_dim=10, n_classes=4, hidden_widths=(16, 8))
    m = train(init_model(arch, 3), ds, np.arange(30), TrainConfig(learning_rate=0.05, epochs=3))
    rows = grad_embeddings(m, ds.features, ds.labels, scope=scope)
    flipped = grad_embeddings(m, ds.features[::-1], ds.labels[::-1], scope=scope)[::-1]
    for i in range(50):
        alone = grad_embeddings(m, ds.features[[i]], ds.labels[[i]], scope=scope)[0]
        assert rows[i].tobytes() == mean_grad_embedding(m, ds, [i], scope=scope).tobytes(), i
        assert rows[i].tobytes() == alone.tobytes() == flipped[i].tobytes(), i


def _reference_stack_grad(w_layers, g_layers, x, y):
    """The stacked mean gradient, backprop written out."""
    acts, delta = _output_error(w_layers, x, y)
    delta /= x.shape[-2]
    for i in range(len(w_layers) - 1, -1, -1):
        gw, gb = g_layers[i]
        np.matmul(np.swapaxes(delta, -1, -2), acts[i], out=gw)
        np.sum(delta, axis=-2, out=gb)
        if i > 0:
            delta = np.matmul(delta, w_layers[i][0])
            delta *= acts[i] > 0


@pytest.mark.parametrize("with_workspace", [False, True])
def test_stack_grad_equals_reference_bitwise(with_workspace):
    ds = make_blobs(120, 4, 10, spread=1.0, seed=2)
    arch = ArchSpec(input_dim=10, n_classes=4, hidden_widths=(64, 32))
    params = np.stack([init_model(arch, seed).params for seed in range(3)])
    rows = np.stack([np.arange(0, 40), np.arange(40, 80), np.arange(80, 120)])
    x, y = ds.features[rows], ds.labels[rows]
    expected, got = np.empty_like(params), np.empty_like(params)
    _reference_stack_grad(_layers(params, arch), _layers(expected, arch), x, y)
    w_layers, g_layers = _layers(params, arch), _layers(got, arch)
    ws = _Workspace(w_layers, x.shape[:-1]) if with_workspace else None
    # a reused workspace must give the same bits on its second pass
    for _ in range(2 if with_workspace else 1):
        got[:] = np.nan
        _stack_grad(w_layers, g_layers, x, y, ws)
        assert np.array_equal(got, expected)


def test_stack_grad_keeps_reference_bits_at_every_shape():
    # the bias gradients' einsum must add in np.sum's order at every shape the
    # engine meets; a numpy whose loop order changes fails here, not silently
    rng = np.random.default_rng(5)
    for widths in [(1,), (5, 1), (3,), (64,)]:
        arch = ArchSpec(input_dim=6, n_classes=3, hidden_widths=widths)
        for m in (1, 3, 10):
            for n in (1, 7, 8, 9, 100, 1000):
                for dtype in (np.float32, np.float64):
                    params = np.stack([init_model(arch, s).params for s in range(m)]).astype(dtype)
                    x = rng.normal(size=(m, n, 6)).astype(dtype)
                    y = rng.integers(3, size=(m, n))
                    expected, got = np.empty_like(params), np.empty_like(params)
                    _reference_stack_grad(_layers(params, arch), _layers(expected, arch), x, y)
                    _stack_grad(_layers(params, arch), _layers(got, arch), x, y)
                    assert got.tobytes() == expected.tobytes(), (
                        f"numpy {np.__version__}: bits differ first at hidden widths {widths}, "
                        f"{m} stack rows, {n} batch rows, {np.dtype(dtype).name}")


def _reference_softmax(logits):
    """Softmax with the row max taken by the reduction."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _reference_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _awkward_logits(c, stacked):
    """Random logits plus rows holding NaN, +-inf, tied maxima, signed zeros
    and values that underflow beside the max, as (rows, c) or (4, rows, c)."""
    rng = np.random.default_rng(c)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308, 5.0]
    rows = [rng.normal(size=c) * 10 for _ in range(20)]
    for value in special:
        for other in (0.0, -0.0, value, -800.0):
            row = np.full(c, other)
            row[rng.integers(c)] = value
            rows.append(row)
    rows += [np.full(c, 3.0), np.r_[-0.0, 0.0, np.full(c - 2, -1.0)],
             np.r_[0.0, -0.0, np.full(c - 2, -1.0)], np.r_[np.full(c - 1, -0.0), 0.0]]
    logits = np.array(rows)
    return np.stack([logits, logits[::-1], logits[:, ::-1], -0.5 * logits]) if stacked else logits


@pytest.mark.parametrize("stacked", [False, True], ids=["2d", "stack"])
@pytest.mark.parametrize("c", [2, 3, 4, 5, 6, 7, 8, 10])
def test_softmax_equals_reduction_form_bitwise(c, stacked):
    logits = _awkward_logits(c, stacked)
    with np.errstate(all="ignore"):
        want = _reference_softmax(logits)
        fresh = _softmax(logits)
        in_place = logits.copy()
        _softmax(in_place, in_place, np.empty(logits.shape[:-1]))
        log_want = _reference_log_softmax(logits)
        log_got = _log_softmax(logits)
    assert fresh.tobytes() == want.tobytes()
    assert in_place.tobytes() == want.tobytes()
    assert log_got.tobytes() == log_want.tobytes()


def test_softmax_equals_reduction_form_bitwise_on_the_trace_stack():
    # the contraction trace's full-batch step: one (1, 1000, 3) float32 stack
    logits = (np.random.default_rng(6).normal(size=(1, 1000, 3)) * 10).astype(np.float32)
    want = _reference_softmax(logits)
    in_place = logits.copy()
    _softmax(in_place, in_place, np.empty((1, 1000), np.float32))
    assert _softmax(logits).tobytes() == want.tobytes()
    assert in_place.tobytes() == want.tobytes()


def test_softmax_of_a_negative_nan_equals_reduction_form_up_to_the_nan_sign():
    # numpy's max reduction returns +NaN for a row that starts with a NaN of
    # either sign, where np.maximum keeps the NaN it meets: the two softmaxes
    # may differ in a NaN's sign bit, never in which entries are NaN
    logits = np.array([[-np.nan, 1.0, 2.0], [1.0, -np.nan, 2.0], [1.0, 2.0, -np.nan]])
    want, got = _reference_softmax(logits), _softmax(logits)
    assert np.array_equal(np.isnan(got), np.isnan(want)) and np.isnan(got).all()
    assert np.array_equal(_log_softmax(logits), _reference_log_softmax(logits), equal_nan=True)


def _reference_forward(model, x, tile=False):
    """The forward pass written out: per layer x @ W.T + b, the bias a
    broadcast row, ReLU between layers; the input, each hidden activation
    and the logits of x's rows. ``tile`` runs x zero-padded to one
    CHUNK_ROWS-row tile, the rows an inference pass's GEMMs see."""
    a = np.zeros((CHUNK_ROWS, x.shape[1])) if tile else np.empty_like(x)
    a[:len(x)] = x
    acts = [a]
    for i, (w, b) in enumerate(_layers(model.params, model.arch)):
        z = acts[-1] @ w.T + b
        acts.append(np.maximum(z, 0.0) if i < len(model.arch.hidden_widths) else z)
    return [a[:len(x)] for a in acts]


def test_predict_proba_and_loss_mean_equal_reduction_forms_bitwise():
    ds = make_blobs(300, 10, 20, spread=1.0, seed=3)
    arch = ArchSpec(input_dim=20, n_classes=10, hidden_widths=(32,))
    m = init_model(arch, 4)
    rows = np.arange(0, 300, 2)
    # predict_proba runs 256-row tiles, whose logits carry their own bits
    logits = _reference_forward(m, ds.features[rows], tile=True)[-1]
    assert predict_proba(m, ds.features, rows=rows).tobytes() == _reference_softmax(logits).tobytes()
    logp = _reference_log_softmax(_reference_forward(m, ds.features[rows])[-1])
    assert loss_mean(m, ds, rows) == float(-logp[np.arange(150), ds.labels[rows]].mean())


@pytest.mark.parametrize("widths", [(32, 16), (6, 1)], ids=["wide", "width-1"])
@pytest.mark.parametrize("full", [True, False], ids=["full-tile", "partial-tile"])
def test_inference_passes_equal_a_written_out_forward_bitwise(widths, full):
    # every fixed-param tile pass adds its biases as whole tiles: the bits of
    # x @ W.T + b with a broadcast row, at a tile's 256 rows
    ds = make_blobs(300, 4, 7, spread=1.0, seed=5)
    m = init_model(ArchSpec(input_dim=7, n_classes=4, hidden_widths=widths), 6)
    m.params += Rng(6, "biases").normal(size=m.params.size)  # init_model leaves the biases 0
    features, rows = ((ds.features[:CHUNK_ROWS], None) if full
                      else (ds.features, np.arange(1, 300, 3)))
    x = features if rows is None else features[rows]
    acts = _reference_forward(m, x, tile=True)
    probs = _reference_softmax(acts[-1])
    err = probs.copy()
    err[np.arange(len(x)), np.argmax(probs, axis=1)] -= 1.0
    h1 = np.hstack([acts[-2], np.ones((len(x), 1))])
    assert predict_proba(m, features, rows=rows).tobytes() == probs.tobytes()
    assert penultimate(m, features, rows=rows).tobytes() == acts[-2].tobytes()
    got_err, got_h1 = last_layer_factors(m, features, rows=rows)
    assert got_err.tobytes() == err.tobytes() and got_h1.tobytes() == h1.tobytes()
    # last-layer scope: one block, delta = err and a = the penultimate output
    ref = Rng(7, "ref").normal(size=m.arch.embedding_dim(LAST_LAYER))
    r_w, r_b = ref[:-4].reshape(4, -1), ref[-4:]
    sq = np.einsum("ij,ij->i", err, err) * (np.einsum("ij,ij->i", acts[-2], acts[-2]) + 1.0)
    dot = np.einsum("ij,ij->i", err, acts[-2] @ r_w.T + r_b)
    got_sq, got_dot = grad_products(m, features, ref, rows=rows)
    assert got_sq.tobytes() == sq.tobytes() and got_dot.tobytes() == dot.tobytes()


def _reference_train_stack(arch, params, labeled, seeds, ds, rates, momentum, minibatch_size,
                           epochs):
    """``train_stack`` as a plain loop at the engine's precision: per epoch,
    each row's shuffle (none in full-batch mode), then per minibatch a fresh
    gather, ``_reference_stack_grad`` and the momentum step written out."""
    params, labeled = np.array(params, dtype=TRAIN_DTYPE), np.asarray(labeled)
    velocity, grad = np.zeros_like(params), np.empty_like(params)
    features, momentum = ds.features.astype(TRAIN_DTYPE), TRAIN_DTYPE(momentum)
    rates, n = np.reshape(rates, (-1, 1)).astype(TRAIN_DTYPE), labeled.shape[1]
    size, diverged = minibatch_size or n, np.full(len(params), -1)
    for epoch in range(epochs):
        rows = labeled
        if minibatch_size:
            orders = [Rng(seed, "shuffle").derive(f"epoch{epoch}").permutation(n) for seed in seeds]
            rows = np.take_along_axis(labeled, np.stack(orders), axis=1)
        for start in range(0, n, size):
            batch = rows[:, start:start + size]
            _reference_stack_grad(_layers(params, arch), _layers(grad, arch),
                                  features[batch], ds.labels[batch])
            velocity = momentum * velocity + grad
            params = params - rates * velocity
        diverged[(diverged < 0) & ~np.isfinite(params).all(axis=1)] = epoch
        if (diverged >= 0).all():
            break
    return params.astype(float), diverged


@pytest.mark.parametrize("minibatch_size, n", [(8, 30), (8, 32), (8, 5), (0, 30)],
                         ids=["short-last", "even", "one-short-batch", "full-batch"])
@pytest.mark.parametrize("momentum", [0.0, 0.9])
@pytest.mark.parametrize("rates", [0.05, (0.3, 0.05, 0.001, 0.02)], ids=["one-rate", "per-row"])
def test_train_stack_equals_reference_loop_bitwise(minibatch_size, n, momentum, rates):
    ds = make_blobs(160, 4, 10, spread=1.0, seed=2)
    arch = ArchSpec(input_dim=10, n_classes=4, hidden_widths=(16, 8))
    params = [init_model(arch, seed).params for seed in range(4)]
    labeled = [np.arange(seed, 160, 4)[:n] for seed in range(4)]
    args = (arch, params, labeled, [3, 5, 3, 7], ds, np.array(rates), momentum,
            minibatch_size, 4)
    got, diverged = train_stack(*args)
    want, want_diverged = _reference_train_stack(*args)
    assert diverged.tolist() == want_diverged.tolist() == [-1] * 4
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("minibatch_size", [4, 0])
def test_train_stack_diverging_row_equals_reference_loop_bitwise(minibatch_size):
    # row 1 trains on points scaled by 1e20 and overflows float32; NaN and inf bits must match too
    base = make_blobs(80, 3, 4, spread=0.8, seed=2)
    features = base.features.copy()
    features[60:] *= 1e20
    ds = Dataset(features, base.labels, 3)
    arch = tiny_arch()
    params = [init_model(arch, s).params for s in range(3)]
    labeled = [np.arange(0, 30, 2), np.arange(60, 75), np.arange(1, 31, 2)]
    args = (arch, params, labeled, [5, 6, 7], ds, 1e3, 0.9, minibatch_size, 6)
    with np.errstate(all="ignore"):
        got, diverged = train_stack(*args)
        want, want_diverged = _reference_train_stack(*args)
    assert diverged.tolist() == want_diverged.tolist()
    assert diverged[1] >= 0 and diverged[0] == diverged[2] == -1
    assert got.tobytes() == want.tobytes()


def test_mean_grad_embedding_singleton():
    ds = tiny_dataset()
    m = init_model(tiny_arch(), 1)
    single = grad_embedding(m, ds.features[3], int(ds.labels[3]))
    mean = mean_grad_embedding(m, ds, [3])
    assert np.allclose(single, mean, atol=1e-12)


def test_last_layer_mean_is_trailing_slice_of_full_mean_bitwise():
    # both scopes run one _stack_grad; the last layer's block does not
    # depend on where the backprop stops
    ds = make_blobs(200, 4, 10, spread=1.0, seed=2)
    m = init_model(ArchSpec(input_dim=10, n_classes=4, hidden_widths=(64, 32)), 5)
    last = mean_grad_embedding(m, ds, np.arange(200), scope=LAST_LAYER)
    full = mean_grad_embedding(m, ds, np.arange(200), scope=FULL)
    assert np.array_equal(last, full[-last.size:])


def test_mean_grad_embedding_additivity():
    ds = tiny_dataset(n=24)
    m = init_model(tiny_arch(), 8)
    s = np.arange(0, 12)
    t = np.arange(12, 24)
    for scope in (LAST_LAYER, FULL):
        gs = mean_grad_embedding(m, ds, s, scope=scope)
        gt = mean_grad_embedding(m, ds, t, scope=scope)
        gu = mean_grad_embedding(m, ds, np.arange(24), scope=scope)
        assert np.allclose(gu, 0.5 * gs + 0.5 * gt, atol=1e-12)


def test_mean_grad_embedding_is_gradient_of_loss_mean():
    ds = tiny_dataset(n=10)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(5,))
    m = init_model(arch, 2)
    idx = np.arange(10)
    mean_emb = mean_grad_embedding(m, ds, idx, scope=FULL)

    def f(p):
        return loss_mean(ModelState(p, arch), ds, idx)

    fd = fd_gradient(f, m.params.copy())
    assert np.linalg.norm(mean_emb - fd) / np.linalg.norm(fd) <= 1e-4


def test_mean_matches_average_of_per_example_embeddings():
    # dual route: batched closed form vs explicit per-example mean
    ds = tiny_dataset(n=16)
    m = init_model(tiny_arch(), 6)
    idx = np.arange(16)
    for scope in (LAST_LAYER, FULL):
        batched = mean_grad_embedding(m, ds, idx, scope=scope)
        explicit = grad_embeddings(m, ds.features[idx], ds.labels[idx], scope=scope).mean(axis=0)
        assert np.linalg.norm(batched - explicit) <= 1e-10 * max(1.0, np.linalg.norm(explicit))


# ---------------------------------------------------------------- sweep

def test_sweep_prefers_smaller_rate_on_tie(monkeypatch):
    import gradal.al_loop as al_loop

    calls = []

    def fake_accuracy(model, dataset, test):
        calls.append(1)
        return 0.5  # every rate ties

    monkeypatch.setattr(al_loop, "evaluate_accuracy", fake_accuracy)
    ds = tiny_dataset()
    rate = al_loop.sweep_learning_rate(
        tiny_arch(), ds, np.arange(20), np.arange(20, 30),
        TrainConfig(learning_rate=0.01, epochs=1, seed=0), seed=0)
    assert rate == 0.0001  # smallest candidate wins ties
    assert len(calls) == 5


def _diverging_from(limit):
    """A stand-in for ``train_stack`` whose rows diverge at epoch 1 at rates
    >= ``limit``; every row's params are filled with the row's rate."""
    def fake_train_stack(arch, params, labeled, seeds, dataset, learning_rate, *rest):
        rates = np.asarray(learning_rate)
        return np.repeat(rates[:, None], arch.n_params, axis=1), np.where(rates >= limit, 1, -1)
    return fake_train_stack


def test_sweep_skips_diverging_rates(monkeypatch):
    import gradal.al_loop as al_loop

    monkeypatch.setattr(al_loop, "train_stack", _diverging_from(0.005))
    # accuracy grows with the rate, so the largest rate that trained wins
    monkeypatch.setattr(al_loop, "evaluate_accuracy", lambda model, dataset, test: model.params[0])
    rate = al_loop.sweep_learning_rate(
        tiny_arch(), tiny_dataset(), np.arange(20), np.arange(20, 30),
        TrainConfig(learning_rate=0.01, epochs=1), seed=0)
    assert rate == 0.001


def test_sweep_raises_naming_every_rate_when_all_diverge(monkeypatch):
    import gradal.al_loop as al_loop

    monkeypatch.setattr(al_loop, "train_stack", _diverging_from(0.0))
    with pytest.raises(ArithmeticError) as caught:
        al_loop.sweep_learning_rate(
            tiny_arch(), tiny_dataset(), np.arange(20), np.arange(20, 30),
            TrainConfig(learning_rate=0.01, epochs=1), seed=0)
    for rate in al_loop.SWEEP_RATES:
        assert f"at learning rate {rate:g}" in str(caught.value)


@pytest.mark.parametrize("train_indices, val_indices, message", [
    ([], np.arange(20, 30), "indices must be nonempty"),
    (np.arange(20), [], "needs a nonempty validation split"),
], ids=["no-train", "no-validation"])
def test_sweep_rejects_an_empty_split(train_indices, val_indices, message):
    with pytest.raises(ValueError, match=message):
        sweep_learning_rate(tiny_arch(), tiny_dataset(), train_indices, val_indices,
                            TrainConfig(learning_rate=0.01, epochs=1), seed=0)


def test_sweep_accuracies_and_winner_match_a_loop_over_rates(monkeypatch):
    import gradal.al_loop as al_loop

    ds = make_blobs(200, 3, 4, spread=0.5, seed=4)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,))
    base = TrainConfig(learning_rate=0.01, epochs=10, seed=0)
    tr, va = np.arange(100), np.arange(100, 200)
    real, seen = al_loop.evaluate_accuracy, []

    def spy(model, dataset, test):
        seen.append((model.params.copy(), real(model, dataset, test)))
        return seen[-1][1]

    monkeypatch.setattr(al_loop, "evaluate_accuracy", spy)
    rate = al_loop.sweep_learning_rate(arch, ds, tr, va, base, seed=1)

    # the per-rate loop the stack replaced: one train call per rate
    accs = []
    for r, (params, acc) in zip(al_loop.SWEEP_RATES, seen, strict=True):
        alone = train(init_model(arch, seed=1), ds, tr, replace(base, learning_rate=r, seed=1))
        assert np.array_equal(params, alone.params), r
        assert acc == real(alone, ds, va), r
        accs.append(acc)
    assert rate == al_loop.SWEEP_RATES[int(np.argmax(accs))]


def test_sweep_picks_argmax_rate():
    from gradal.al_loop import evaluate_accuracy
    from gradal.al_loop import SWEEP_RATES

    ds = make_blobs(200, 3, 4, spread=0.5, seed=4)
    arch = ArchSpec(input_dim=4, n_classes=3, hidden_widths=(8,))
    base = TrainConfig(learning_rate=0.01, epochs=10, seed=0)
    tr, va = np.arange(100), np.arange(100, 200)
    rate = sweep_learning_rate(arch, ds, tr, va, base, seed=1)

    # recompute the sweep by hand: argmax accuracy, ties -> smaller rate
    from dataclasses import replace
    best, best_acc = None, -1.0
    for r in sorted(SWEEP_RATES):
        m = train(init_model(arch, seed=1), ds, tr,
                  replace(base, learning_rate=r, seed=1))
        acc = evaluate_accuracy(m, ds, va)
        if acc > best_acc:
            best, best_acc = r, acc
    assert rate == best
