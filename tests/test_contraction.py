import numpy as np
import pytest

from gradal.contraction import (
    ContractionConfig,
    ContractionReport,
    cumulative_df_bound_check,
    estimate_t0,
    run_contraction_trace,
)
from gradal.data import make_blobs
from gradal.model import (
    FULL,
    LAST_LAYER,
    ArchSpec,
    ModelState,
    _grad_pass,
    _stack_grad,
    grad_embeddings,
    init_model,
)
from gradal.numerics import Rng


def small_cfg(**overrides):
    base = dict(s_size=40, subset_fraction=0.25, epochs=8,
                learning_rate=0.01, seed=0, scope=FULL, hidden_widths=(8,))
    base.update(overrides)
    return ContractionConfig(**base)


def blob_data(n=60, c=2, d=3, seed=1):
    return make_blobs(n, c, d, spread=0.7, seed=seed)


# ------------------------------------------------------------ t0 estimator

def test_t0_monotone_trace_is_zero():
    assert estimate_t0([5.0, 4.0, 3.0, 2.0, 1.0]) == 0


def test_t0_constant_trace_is_zero():
    assert estimate_t0([2.0, 2.0, 2.0]) == 0


def test_t0_increasing_final_step_is_none():
    assert estimate_t0([3.0, 2.0, 1.0, 2.0]) is None
    assert estimate_t0([1.0, 2.0]) is None


def test_t0_starts_after_spike():
    assert estimate_t0([5.0, 4.0, 6.0, 3.0, 2.0, 1.0]) == 2


def test_t0_tolerates_tiny_upticks():
    # an uptick inside the (1 + 1e-6) band does not break the suffix
    assert estimate_t0([2.0, 1.0, 1.0 * (1.0 + 1e-7)]) == 0
    # an uptick outside the band does
    assert estimate_t0([2.0, 1.0, 1.0 * (1.0 + 1e-5)]) is None


def test_t0_needs_at_least_one_covered_step():
    assert estimate_t0([1.0]) is None


# ------------------------------------------------------------ report fields

def test_violations_counted_strictly_above_previous():
    report = ContractionReport(
        df_norms=np.array([2.0, 1.0, 1.0 + 1e-7]),
        t0_estimate=0, violation_count_after_t0=0, rho_hat=None)
    # recompute through the public entry point instead: synthesize via a
    # real trace is expensive, so exercise the helpers through estimate_t0
    from gradal.contraction import _count_violations, _rho_hat

    df = report.df_norms
    t0 = estimate_t0(df)
    assert t0 == 0
    assert _count_violations(df, t0) == 1  # strictly-above step inside the band
    assert _rho_hat(df, t0) == pytest.approx(1.0 + 1e-7)
    assert _rho_hat(df, t0) <= 1.0 + 1e-6


def test_rho_hat_bounded_when_t0_exists():
    rng = Rng(0, "rho")
    for trial in range(50):
        df = np.abs(rng.normal(size=10)) + 0.1
        t0 = estimate_t0(df)
        if t0 is None:
            continue
        from gradal.contraction import _rho_hat

        rho = _rho_hat(df, t0)
        assert rho is not None and rho <= 1.0 + 1e-6


def test_rho_hat_none_on_zero_tail():
    from gradal.contraction import _rho_hat

    assert _rho_hat(np.array([1.0, 0.0, 0.0]), 0) is None


# ------------------------------------------------------------ traces

def test_identical_subset_gives_zero_trace():
    ds = blob_data()
    s = np.arange(40)
    report = run_contraction_trace(small_cfg(), ds, sample_indices=s,
                                   subset_indices=s)
    assert np.all(report.df_norms == 0.0)
    assert report.t0_estimate == 0


def test_zero_learning_rate_freezes_trace():
    ds = blob_data()
    report = run_contraction_trace(small_cfg(learning_rate=0.0), ds)
    assert np.all(np.abs(report.df_norms - report.df_norms[0]) <= 1e-12)


def test_trace_shape_and_determinism():
    ds = blob_data()
    a = run_contraction_trace(small_cfg(), ds)
    b = run_contraction_trace(small_cfg(), ds)
    assert a.df_norms.shape == (8,)
    assert np.all(np.isfinite(a.df_norms)) and np.all(a.df_norms >= 0.0)
    assert np.array_equal(a.df_norms, b.df_norms)
    assert a.t0_estimate == b.t0_estimate


def test_trace_seed_changes_trace():
    ds = blob_data()
    a = run_contraction_trace(small_cfg(seed=0), ds)
    b = run_contraction_trace(small_cfg(seed=1), ds)
    assert not np.array_equal(a.df_norms, b.df_norms)


def test_minibatch_mode_runs_and_differs_from_full_batch():
    ds = blob_data()
    full = run_contraction_trace(small_cfg(), ds)
    mini = run_contraction_trace(small_cfg(minibatch_size=8), ds)
    assert mini.df_norms.shape == full.df_norms.shape
    assert not np.array_equal(mini.df_norms, full.df_norms)


def test_dual_route_mean_gradient_agreement():
    # route 1: accumulated batch backprop; route 2: mean of per-example
    # embeddings computed one example at a time
    ds = blob_data(n=50)
    arch = ArchSpec(input_dim=3, n_classes=2, hidden_widths=(8,))
    model = init_model(arch, 3)
    idx = np.arange(30)
    route1 = _grad_pass(arch, model.params[None], ds.features[idx][None],
                        ds.labels[idx][None], FULL)()[0]
    route2 = grad_embeddings(model, ds.features[idx], ds.labels[idx],
                             scope=FULL).mean(axis=0)
    assert np.linalg.norm(route1 - route2) <= 1e-10 * max(1.0, np.linalg.norm(route2))


@pytest.mark.parametrize("scope, minibatch_size, s_passes, s_j_passes", [
    # the engine's gradient over S before each step and after the last one
    # serves as mean_grad(S); the monitor adds one pass over S_J per epoch
    (FULL, 0, 8 + 1, 8),
    # minibatches over S, then mean_grad(S) and mean_grad(S_J) per epoch
    (FULL, 8, 8 + 8, 8),
    # as at full scope: the monitor slices mean_grad(S) from the engine's
    # gradient and computes the last layer's mean_grad(S_J) per epoch
    (LAST_LAYER, 0, 8 + 1, 8),
])
def test_trace_backprop_row_count(monkeypatch, scope, minibatch_size, s_passes, s_j_passes):
    rows = []

    def spy(w_layers, g_layers, x, y, *bufs):
        rows.append(int(np.prod(x.shape[:-1])))
        return _stack_grad(w_layers, g_layers, x, y, *bufs)

    monkeypatch.setattr("gradal.model._stack_grad", spy)
    cfg = small_cfg(scope=scope, minibatch_size=minibatch_size)
    run_contraction_trace(cfg, blob_data())
    assert cfg.epochs == 8
    assert sum(rows) == s_passes * cfg.s_size + s_j_passes * cfg.subset_size


def test_trace_divergence_raises():
    # a float-max step size overflows the parameters within two epochs
    cfg = small_cfg(learning_rate=1e308, epochs=3)
    message = r"training diverged at epoch \d+ at learning rate 1e\+308"
    with np.errstate(all="ignore"), pytest.raises(ArithmeticError, match=message):
        run_contraction_trace(cfg, blob_data())


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(s_size=1)
    with pytest.raises(ValueError):
        small_cfg(subset_fraction=0.0)
    with pytest.raises(ValueError):
        small_cfg(subset_fraction=1.0)
    with pytest.raises(ValueError):
        small_cfg(learning_rate=-0.1)
    with pytest.raises(ValueError):
        small_cfg(epochs=0)
    with pytest.raises(ValueError):
        small_cfg(scope="penultimate")


@pytest.mark.parametrize("momentum", [-1.0, 1.0, 1.5, 1e300])
def test_config_rejects_momentum_outside_0_1(momentum):
    with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\)"):
        small_cfg(momentum=momentum)
    assert small_cfg(momentum=0.5).momentum == 0.5


def test_trace_rejects_oversized_sample():
    ds = blob_data(n=30)
    with pytest.raises(ValueError):
        run_contraction_trace(small_cfg(s_size=40), ds)


def test_trace_rejects_degenerate_subset():
    ds = blob_data(n=60)
    with pytest.raises(ValueError):
        run_contraction_trace(small_cfg(s_size=40, subset_fraction=0.01), ds)


def test_subset_drawn_from_sample():
    ds = blob_data(n=60)
    cfg = small_cfg()
    rng = Rng(cfg.seed)
    s = np.sort(rng.derive("sample_s").choice(60, size=40, replace=False))
    rows = rng.derive("sample_sj").choice(40, size=10, replace=False)
    assert np.all(np.isin(np.sort(s[rows]), s))


# ------------------------------------------------------------ bound check

def test_bound_strictly_decreasing_lhs_below_rhs():
    lhs, rhs = cumulative_df_bound_check([4.0, 3.0, 2.0, 1.0], t0=0)
    assert lhs == 16 + 9 + 4 + 1
    assert rhs == 4 * 16
    assert lhs < rhs


def test_bound_constant_trace_equality():
    lhs, rhs = cumulative_df_bound_check([1.5, 1.5, 1.5], t0=0)
    assert abs(lhs - rhs) <= 1e-12


def test_bound_violating_trace_flagged_not_fatal():
    lhs, rhs = cumulative_df_bound_check([1.0, 2.0], t0=0)
    assert lhs == 5.0 and rhs == 2.0
    assert lhs > rhs  # report carries the violation; nothing raises


def test_bound_respects_t0_offset():
    lhs, rhs = cumulative_df_bound_check([9.0, 2.0, 1.0], t0=1)
    assert lhs == 5.0
    assert rhs == 2 * 4.0


def test_bound_holds_whenever_tail_is_non_increasing():
    rng = Rng(5, "bound")
    for trial in range(50):
        df = np.sort(np.abs(rng.normal(size=12)))[::-1]
        lhs, rhs = cumulative_df_bound_check(df, t0=0)
        assert lhs <= rhs + 1e-12


def test_bound_input_validation():
    with pytest.raises(ValueError):
        cumulative_df_bound_check([], t0=0)
    with pytest.raises(ValueError):
        cumulative_df_bound_check([1.0], t0=1)


def test_short_real_trace_contracts():
    # small separable problem: the discrepancy should not grow by the end
    ds = make_blobs(80, 2, 3, spread=0.5, seed=2)
    report = run_contraction_trace(
        small_cfg(s_size=60, epochs=20, learning_rate=0.05), ds)
    assert report.df_norms[-1] <= report.df_norms.max()
    if report.t0_estimate is not None:
        lhs, rhs = cumulative_df_bound_check(report.df_norms, report.t0_estimate)
        assert report.rho_hat is None or report.rho_hat <= 1.0 + 1e-6
