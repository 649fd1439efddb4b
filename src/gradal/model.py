"""From-scratch ReLU MLP: SGD training, softmax probabilities, and exact
per-example gradient embeddings (closed-form last layer, hand backprop full).

Parameters live in one flat float64 vector laid out layer by layer as
``[W_0.ravel(), b_0, W_1.ravel(), b_1, ...]`` with each weight matrix shaped
(fan_out, fan_in). The last-layer gradient embedding is therefore exactly
the trailing slice of the full-parameter gradient.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numerics import Rng

LAST_LAYER = "last_layer"
FULL = "full"
SCOPES = (LAST_LAYER, FULL)


@dataclass(frozen=True)
class ArchSpec:
    """MLP shape: input width, hidden widths, class count."""

    input_dim: int
    n_classes: int
    hidden_widths: tuple = (512, 256)

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.n_classes < 2:
            raise ValueError("need input_dim >= 1 and n_classes >= 2")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be >= 1")

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
    return ModelState(params=params, arch=arch)


def _forward(layers, x: np.ndarray):
    """(per-layer activations including the input, logits) for ``_layers``
    views; with a leading stack axis, row m runs model m on x[m]."""
    acts = [np.asarray(x, dtype=float)]
    a = acts[0]
    for w, b in layers[:-1]:
        a = np.maximum(a @ np.swapaxes(w, -1, -2) + b[..., None, :], 0.0)
        acts.append(a)
    w, b = layers[-1]
    return acts, a @ np.swapaxes(w, -1, -2) + b[..., None, :]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _output_error(layers, x: np.ndarray, y=None):
    """(activations, softmax - onehot(y)) from one forward pass; ``y`` None
    takes each row's pseudo-label: the argmax, lowest class id on ties."""
    acts, logits = _forward(layers, x)
    err = _softmax(logits)
    err -= np.eye(err.shape[-1])[np.argmax(err, axis=-1) if y is None else y]
    return acts, err


def predict_proba(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Softmax class probabilities, one row per input row."""
    _, logits = _forward(_layers(model.params, model.arch), np.atleast_2d(features))
    return _softmax(logits)


def penultimate(model: ModelState, features: np.ndarray) -> np.ndarray:
    """Post-activation output of the last hidden layer (the input itself
    when the architecture has no hidden layers)."""
    acts, _ = _forward(_layers(model.params, model.arch), np.atleast_2d(features))
    return acts[-1]


def loss_mean(model: ModelState, dataset: Dataset, indices) -> float:
    """Mean softmax cross-entropy over the index set."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    _, logits = _forward(_layers(model.params, model.arch), dataset.features[indices])
    logp = _log_softmax(logits)
    return float(-logp[np.arange(indices.size), dataset.labels[indices]].mean())


def diverged_error(epoch: int, learning_rate: float) -> ArithmeticError:
    """The error for parameters that stopped being finite after ``epoch``."""
    return ArithmeticError(f"training diverged at epoch {epoch} "
                           f"at learning rate {learning_rate:g}")


def _stack_grad(w_layers, g_layers, x: np.ndarray, y: np.ndarray):
    """Write into the views ``g_layers`` the gradient of the mean
    cross-entropy over (x[m], y[m]) at stack row m's parameters ``w_layers``."""
    acts, delta = _output_error(w_layers, x, y)
    delta /= x.shape[-2]
    for i in range(len(w_layers) - 1, -1, -1):
        gw, gb = g_layers[i]
        np.matmul(np.swapaxes(delta, -1, -2), acts[i], out=gw)
        np.sum(delta, axis=-2, out=gb)
        if i > 0:
            delta = (delta @ w_layers[i][0]) * (acts[i] > 0)


def _mean_grad(params: np.ndarray, arch: ArchSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy over (x, y), flat layout: the
    one-row case of ``_stack_grad``."""
    grad = np.empty((1, arch.n_params))
    _stack_grad(_layers(params[None], arch), _layers(grad, arch), x[None], y[None])
    return grad[0]


def train_stack(arch: ArchSpec, params, labeled, seeds, dataset: Dataset,
                learning_rate: float, momentum: float, minibatch_size: int,
                epochs: int, on_epoch=None):
    """SGD with heavy-ball momentum for a stack of models in lockstep: row m
    starts from params[m] and trains on the dataset rows labeled[m] (one
    count for all rows), reshuffled each epoch from seeds[m]; the last
    minibatch may be short, and minibatch_size 0 takes one full-batch step
    per epoch. Minibatches are gathered from ``dataset`` by index. Rows share
    no arithmetic, so a row gets the bits it would get alone. After each
    epoch, ``on_epoch(epoch, params)`` sees the stack. Returns the trained
    (M, n_params) stack and, per row, the first epoch after which its
    params were not finite (-1: none); training stops once every row is.
    """
    params = np.array(params, dtype=float)
    labeled = np.asarray(labeled, dtype=np.int64)
    shuffles = [Rng(seed, "shuffle") for seed in seeds]
    diverged = np.full(len(params), -1)
    n = labeled.shape[1]
    step = minibatch_size or n
    velocity, grad = np.zeros_like(params), np.empty_like(params)
    w_layers, g_layers = _layers(params, arch), _layers(grad, arch)
    for epoch in range(epochs):
        rows = labeled
        if minibatch_size:
            orders = [s.derive(f"epoch{epoch}").permutation(n) for s in shuffles]
            rows = np.take_along_axis(labeled, np.stack(orders), axis=1)
        for start in range(0, n, step):
            batch = rows[:, start:start + step]
            _stack_grad(w_layers, g_layers, dataset.features[batch], dataset.labels[batch])
            velocity *= momentum
            velocity += grad
            params -= learning_rate * velocity
        diverged[(diverged < 0) & ~np.isfinite(params).all(axis=1)] = epoch
        if (diverged >= 0).all():
            break
        if on_epoch is not None:
            on_epoch(epoch, params)
    return params, diverged


def train(model: ModelState, dataset: Dataset, indices, cfg: TrainConfig) -> ModelState:
    """SGD with heavy-ball momentum and per-epoch seeded shuffling, the
    one-row case of ``train_stack``. Raises if parameters stop being finite,
    naming the epoch and the rate."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    params, diverged = train_stack(model.arch, model.params[None], indices[None], [cfg.seed],
                                   dataset, cfg.learning_rate, cfg.momentum,
                                   cfg.minibatch_size, cfg.epochs)
    if diverged[0] >= 0:
        raise diverged_error(diverged[0], cfg.learning_rate)
    return ModelState(params=params[0], arch=model.arch)


def last_layer_factors(model: ModelState, features: np.ndarray, labels=None):
    """One forward pass to the factor pair ``(err, h1)`` of last-layer
    gradients: row i's gradient is the outer product of err_i = softmax_i -
    onehot(y_i) with h1_i = [penultimate_i, 1]. ``labels`` None takes each
    row's pseudo-label from the same softmax (argmax, lowest id on ties)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    acts, err = _output_error(_layers(model.params, model.arch), features, labels)
    return err, np.concatenate([acts[-1], np.ones((features.shape[0], 1))], axis=1)


def _full_embeddings(model: ModelState, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, n_params) per-example full-parameter gradients via backprop."""
    arch = model.arch
    w_layers = _layers(model.params, arch)
    acts, delta = _output_error(w_layers, x, y)
    out = np.empty((x.shape[0], arch.n_params))
    g_layers = _layers(out, arch)
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


def grad_embedding(model: ModelState, x: np.ndarray, y: int,
                   scope: str = LAST_LAYER) -> np.ndarray:
    """Gradient embedding of a single (x, y) example."""
    if not 0 <= int(y) < model.arch.n_classes:
        raise ValueError(f"label {y} out of range")
    return grad_embeddings(model, np.atleast_2d(x), np.array([int(y)]), scope=scope)[0]


def mean_grad_embedding(model: ModelState, dataset: Dataset, indices,
                        scope: str = LAST_LAYER) -> np.ndarray:
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
        return np.concatenate([w_block.ravel(), err.mean(axis=0)])
    if scope == FULL:
        return _mean_grad(model.params, model.arch, x, y)
    raise ValueError(f"unknown scope {scope!r}")

