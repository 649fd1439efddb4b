"""From-scratch ReLU MLP: SGD training, softmax probabilities, and exact
per-example gradient embeddings (closed-form last layer, hand backprop full).

Parameters live in one flat float64 vector laid out layer by layer as
``[W_0.ravel(), b_0, W_1.ravel(), b_1, ...]`` with each weight matrix shaped
(fan_out, fan_in). The last-layer gradient embedding is therefore exactly
the trailing slice of the full-parameter gradient.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .numerics import Rng

LAST_LAYER = "last_layer"
FULL = "full"
SCOPES = (LAST_LAYER, FULL)

SWEEP_RATES = (0.0001, 0.0005, 0.001, 0.005, 0.01)


@dataclass(frozen=True)
class ArchSpec:
    """MLP shape: input width, hidden widths, class count."""

    input_dim: int
    n_classes: int
    hidden_widths: tuple = (512, 256)
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.n_classes < 2:
            raise ValueError("need input_dim >= 1 and n_classes >= 2")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be >= 1")
        if self.activation != "relu":
            raise ValueError(f"unsupported activation {self.activation!r}")

    @property
    def layer_sizes(self) -> tuple:
        return (self.input_dim, *self.hidden_widths, self.n_classes)

    @property
    def penultimate_width(self) -> int:
        return self.layer_sizes[-2]

    @property
    def n_params(self) -> int:
        sizes = self.layer_sizes
        return sum(sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1))

    def embedding_dim(self, scope: str) -> int:
        if scope == LAST_LAYER:
            return (self.penultimate_width + 1) * self.n_classes
        if scope == FULL:
            return self.n_params
        raise ValueError(f"unknown scope {scope!r}")


@dataclass
class ModelState:
    """Flat parameter vector plus its architecture descriptor."""

    params: np.ndarray
    arch: ArchSpec
    init_seed: int = 0

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.arch.n_params,):
            raise ValueError("params length does not match architecture")


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters; heavy-ball momentum, no LR schedule."""

    learning_rate: float
    epochs: int = 40
    momentum: float = 0.9
    minibatch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.minibatch_size < 1:
            raise ValueError("epochs and minibatch_size must be >= 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class GradEmbedding:
    """Flat per-example (or mean) gradient vector at a given scope."""

    values: np.ndarray
    scope: str = LAST_LAYER

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.scope not in SCOPES:
            raise ValueError(f"unknown scope {self.scope!r}")


def _layers(params: np.ndarray, arch: ArchSpec):
    """Views of the flat vector as [(W, b), ...] without copying; for an
    (n, n_params) stack of flat vectors, views with a leading row axis."""
    sizes = arch.layer_sizes
    out = []
    offset = 0
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        w = params[..., offset:offset + fan_out * fan_in].reshape(
            *params.shape[:-1], fan_out, fan_in)
        offset += fan_out * fan_in
        b = params[..., offset:offset + fan_out]
        offset += fan_out
        out.append((w, b))
    return out


def init_model(arch: ArchSpec, seed: int) -> ModelState:
    """Fan-in-scaled uniform weights U(-sqrt(1/fan_in), +sqrt(1/fan_in)),
    zero biases. Deterministic in ``seed``."""
    rng = Rng(seed, "init")
    params = np.zeros(arch.n_params)
    for i, (w, _b) in enumerate(_layers(params, arch)):
        bound = math.sqrt(1.0 / w.shape[1])
        w[:] = rng.derive(f"layer{i}").uniform(-bound, bound, w.shape)
    return ModelState(params=params, arch=arch, init_seed=int(seed))


def _forward(params: np.ndarray, arch: ArchSpec, x: np.ndarray):
    """Return (per-layer activations including the input, logits)."""
    layers = _layers(params, arch)
    acts = [np.asarray(x, dtype=float)]
    a = acts[0]
    for w, b in layers[:-1]:
        a = np.maximum(a @ w.T + b, 0.0)
        acts.append(a)
    w, b = layers[-1]
    return acts, a @ w.T + b


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _output_error(params: np.ndarray, arch: ArchSpec, x: np.ndarray, y=None):
    """(activations, softmax - onehot(y)) from one forward pass; ``y`` None
    takes each row's pseudo-label: the argmax, lowest class id on ties."""
    acts, logits = _forward(params, arch, x)
    err = _softmax(logits)
    err[np.arange(x.shape[0]), np.argmax(err, axis=1) if y is None else y] -= 1.0
    return acts, err


def predict_proba(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, one row per input row."""
    _, logits = _forward(model.params, model.arch, np.atleast_2d(features))
    return _softmax(logits)


def penultimate(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Post-activation output of the last hidden layer (the input itself
    when the architecture has no hidden layers)."""
    acts, _ = _forward(model.params, model.arch, np.atleast_2d(features))
    return acts[-1]


def loss_mean(model: ModelState, dataset: Dataset, indices) -> float:
    """Mean softmax cross-entropy over the index set."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    _, logits = _forward(model.params, model.arch, dataset.features[indices])
    logp = _log_softmax(logits)
    return float(-logp[np.arange(indices.size), dataset.labels[indices]].mean())


def _mean_grad(params: np.ndarray, arch: ArchSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy over (x, y), flat layout."""
    acts, delta = _output_error(params, arch, x, y)
    delta /= x.shape[0]
    grad = np.zeros_like(params)
    g_layers = _layers(grad, arch)
    w_layers = _layers(params, arch)
    for i in range(len(w_layers) - 1, -1, -1):
        gw, gb = g_layers[i]
        gw[:] = delta.T @ acts[i]
        gb[:] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ w_layers[i][0]) * (acts[i] > 0)
    return grad


def train(model: ModelState, dataset: Dataset, indices, cfg: TrainConfig) -> ModelState:
    """SGD with heavy-ball momentum and per-epoch seeded shuffling.

    The incomplete final minibatch of each epoch is used, not dropped.
    Raises if parameters stop being finite, naming the epoch and the rate.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    x_all = dataset.features[indices]
    y_all = dataset.labels[indices]
    params = model.params.copy()
    velocity = np.zeros_like(params)
    shuffle = Rng(cfg.seed, "shuffle")
    n = indices.size
    for epoch in range(cfg.epochs):
        order = shuffle.derive(f"epoch{epoch}").permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            batch = order[start:start + cfg.minibatch_size]
            grad = _mean_grad(params, model.arch, x_all[batch], y_all[batch])
            velocity = cfg.momentum * velocity + grad
            params -= cfg.learning_rate * velocity
        if not np.isfinite(params).all():
            raise ArithmeticError(f"training diverged at epoch {epoch} "
                                  f"at learning rate {cfg.learning_rate:g}")
    return ModelState(params=params, arch=model.arch, init_seed=model.init_seed)


def last_layer_factors(model: ModelState, features: np.ndarray, labels=None):
    """One forward pass to the factor pair ``(err, h1)`` of last-layer
    gradients: row i's gradient is the outer product of err_i = softmax_i -
    onehot(y_i) with h1_i = [penultimate_i, 1]. ``labels`` None takes each
    row's pseudo-label from the same softmax (argmax, lowest id on ties)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    acts, err = _output_error(model.params, model.arch, features, labels)
    return err, np.concatenate([acts[-1], np.ones((features.shape[0], 1))], axis=1)


def _full_embeddings(model: ModelState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, n_params) per-example full-parameter gradients via backprop."""
    arch = model.arch
    acts, delta = _output_error(model.params, arch, x, y)
    out = np.empty((x.shape[0], arch.n_params))
    g_layers = _layers(out, arch)
    w_layers = _layers(model.params, arch)
    for i in range(len(w_layers) - 1, -1, -1):
        gw, gb = g_layers[i]
        np.einsum("no,ni->noi", delta, acts[i], out=gw)
        gb[:] = delta
        if i > 0:
            delta = (delta @ w_layers[i][0]) * (acts[i] > 0)
    return out


def grad_embedding_chunks(model: ModelState, features: np.ndarray, labels=None,
                          scope: str = LAST_LAYER, chunk: int = 256):
    """Per-example gradient embeddings of the rows of ``features``, yielded
    ``chunk`` rows at a time, so that a caller reducing each block holds at
    most chunk x embedding_dim of them. ``labels`` None scores each row
    under its pseudo-label (argmax, lowest id on ties)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    starts = range(0, max(features.shape[0], 1), chunk)  # no rows: one empty block
    if scope == LAST_LAYER:
        err, h1 = last_layer_factors(model, features, labels)
        for i in starts:
            e, h = err[i:i + chunk], h1[i:i + chunk, :-1]
            # weight rows by class, then the bias block: the flat parameter order
            yield np.concatenate([np.einsum("nc,nh->nch", e, h).reshape(len(e), -1), e], axis=1)
    elif scope == FULL:
        if labels is None:
            labels = np.argmax(predict_proba(model, features), axis=1)
        for i in starts:
            yield _full_embeddings(model, features[i:i + chunk], labels[i:i + chunk])
    else:
        raise ValueError(f"unknown scope {scope!r}")


def grad_embeddings(model: ModelState, features: np.ndarray, labels: np.ndarray,
                    scope: str = LAST_LAYER, chunk: int = 256) -> np.ndarray:
    """Per-example gradient embeddings for rows of ``features`` under the
    given labels, one embedding per row."""
    return np.concatenate(list(grad_embedding_chunks(
        model, features, np.asarray(labels, dtype=np.int64), scope, chunk)), axis=0)


def grad_embedding(model: ModelState, x: np.ndarray, y: int, scope: str = LAST_LAYER) -> GradEmbedding:
    """Gradient embedding of a single (x, y) example."""
    if not 0 <= int(y) < model.arch.n_classes:
        raise ValueError(f"label {y} out of range")
    values = grad_embeddings(model, np.atleast_2d(x), np.array([int(y)]), scope=scope)[0]
    return GradEmbedding(values=values, scope=scope)


def mean_grad_embedding(model: ModelState, dataset: Dataset, indices,
                        scope: str = LAST_LAYER) -> GradEmbedding:
    """Arithmetic mean of per-example embeddings over an index set; equals
    the gradient of ``loss_mean`` restricted to the scope."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    x = dataset.features[indices]
    y = dataset.labels[indices]
    if scope == LAST_LAYER:
        err, h1 = last_layer_factors(model, x, y)
        w_block = (err.T @ h1[:, :-1]) / indices.size
        values = np.concatenate([w_block.ravel(), err.mean(axis=0)])
        return GradEmbedding(values=values, scope=scope)
    if scope == FULL:
        return GradEmbedding(values=_mean_grad(model.params, model.arch, x, y), scope=scope)
    raise ValueError(f"unknown scope {scope!r}")


def sweep_learning_rate(arch: ArchSpec, dataset: Dataset, train_indices, val_indices,
                        base_cfg: TrainConfig, seed: int,
                        rates: tuple = SWEEP_RATES) -> float:
    """One-time learning-rate sweep: train on ``train_indices`` at each
    candidate rate, keep the rate with the highest validation accuracy.
    Ties go to the smaller rate (rates are tried in ascending order)."""
    from .al_loop import evaluate_accuracy  # local import to avoid a cycle

    val_indices = np.asarray(val_indices, dtype=np.int64)
    if val_indices.size == 0:
        raise ValueError("learning-rate sweep needs a nonempty validation split")
    best_rate, best_acc = None, -1.0
    for rate in sorted(rates):
        cfg = replace(base_cfg, learning_rate=float(rate), seed=seed)
        fitted = train(init_model(arch, seed), dataset, train_indices, cfg)
        acc = evaluate_accuracy(fitted, dataset, val_indices)
        if acc > best_acc:
            best_rate, best_acc = float(rate), acc
    return best_rate
