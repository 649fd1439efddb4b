"""From-scratch ReLU MLP: SGD training, softmax probabilities and exact
gradient embeddings. Every dense gradient is one ``_stack_grad`` over a stack
of (params, batch) rows in a ``_Workspace``, the reused buffers of one batch
shape (``train_stack`` keeps one per shape, so no SGD step allocates); row i
of ``grad_embeddings`` is the mean gradient of example i alone, one such row.

Inference and the factored grad scores run one CHUNK_ROWS-row tile at a time
(``_tiled``: a view of the next rows, else gathered and zero-padded), so a
row's bits do not depend on the rows beside it and memory is one tile's
activations.

Parameters live in one flat vector laid out layer by layer as
``[W_0.ravel(), b_0, W_1.ravel(), b_1, ...]`` with each weight matrix shaped
(fan_out, fan_in). The last-layer gradient embedding is therefore exactly
the trailing slice of the full-parameter gradient. Training steps in
float32 (``TRAIN_DTYPE``); the stored and scored params are float64, so
every score, pseudo-label and distance is computed in float64. A pass runs
at the dtype of the params it is given.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .numerics import Rng

LAST_LAYER = "last_layer"
FULL = "full"
SCOPES = (LAST_LAYER, FULL)
CHUNK_ROWS = 256  # rows per inference tile; a GEMM's per-row bits follow its row count, so fix it
TRAIN_DTYPE = np.float32  # train_stack's precision: params, buffers, features, rates


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

    learning_rate: float = 0.001
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


class _Workspace:
    """Buffers reused by every pass over (*lead, d) batches at the views
    ``w_layers``: each layer's output, which its delta overwrites on the way
    back, the ReLU masks, the row max or sum, one-hot offsets, transposes;
    all at the views' dtype."""

    def __init__(self, w_layers, lead):
        self.dtype = w_layers[0][0].dtype
        widths = [w.shape[-2] for w, _ in w_layers]
        self.outs = [np.empty((*lead, k), self.dtype) for k in widths]
        self.masks = [np.empty((*lead, k), dtype=bool) for k in widths[:-1]]
        self.row = np.empty(lead, self.dtype)
        self.offsets = np.arange(0, self.row.size * widths[-1], widths[-1]).reshape(lead)
        self.affine = [(np.swapaxes(w, -1, -2), b[..., None, :]) for w, b in w_layers]
        self.outs_t = [np.swapaxes(out, -1, -2) for out in self.outs]


def _forward(layers, x: np.ndarray, ws=None):
    """(per-layer activations including the input, logits) for ``_layers``
    views, in the workspace ``ws`` (a fresh one if None) and at its dtype;
    with a leading stack axis, row m runs model m on x[m]. Only the layers
    ``ws`` was built for run: for the hidden layers alone, the "logits" are
    the last hidden layer's post-activation output."""
    ws = ws or _Workspace(layers, np.shape(x)[:-1])
    acts = [np.asarray(x, dtype=ws.dtype)]
    a = acts[0]
    for i, (w_t, b) in enumerate(ws.affine):
        a = np.matmul(a, w_t, out=ws.outs[i])
        a += b
        if i < len(layers) - 1:
            acts.append(np.maximum(a, 0.0, out=a))
    return acts, a


def _row_max(z: np.ndarray, out=None) -> np.ndarray:
    """Max over the last axis by np.maximum, one column at a time: the
    reduction's values, NaN where it has NaN (the sign bit may differ),
    without its per-row loop, which costs 10x this on a few classes."""
    out = np.maximum(z[..., 0], z[..., -1], out=out)
    for j in range(1, z.shape[-1] - 1):
        np.maximum(out, z[..., j], out=out)
    return out


def _softmax(logits: np.ndarray, out=None, row=None) -> np.ndarray:
    """Softmax over the last axis into ``out`` (may be ``logits``), with the
    row max, then the row sum, in ``row``; either is fresh if None. Under 8 classes
    the sum adds columns left to right, np.add.reduce's order there, without its row loop."""
    row = _row_max(logits, row)
    e = np.subtract(logits, row[..., None], out=out)
    np.exp(e, out=e)
    if e.shape[-1] < 8:
        np.add(e[..., 0], e[..., 1], out=row)
        for j in range(2, e.shape[-1]):
            np.add(row, e[..., j], out=row)
    else:
        np.add.reduce(e, axis=-1, out=row)
    e /= row[..., None]
    return e


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - _row_max(logits)[..., None]
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _output_error(layers, x: np.ndarray, y=None, ws=None):
    """(activations, softmax - onehot(y)) from one forward pass in ``ws`` (a
    fresh one if None), the error in its logits; ``y`` None takes each row's
    pseudo-label: the argmax, lowest class id on ties."""
    ws = ws or _Workspace(layers, np.shape(x)[:-1])
    acts, err = _forward(layers, x, ws)
    _softmax(err, err, ws.row)
    labels = np.argmax(err, axis=-1) if y is None else y
    # 1 off each row's label entry, through a flat view of the softmax
    err.reshape(-1)[ws.offsets + labels] -= 1.0
    return acts, err


def _tiled(features: np.ndarray, fn, *shapes, rows=None) -> list:
    """Run ``fn`` on ``features[rows]`` (every row if None) one (CHUNK_ROWS, d)
    tile at a time: with every row of a C-contiguous ``features``, a view of
    its next CHUNK_ROWS rows (a view's GEMM bits are a copy's), else the rows
    gathered into one reused zero-padded buffer; fn maps a tile to per-row
    arrays, whose real rows go into the returned (len(rows), *shape) arrays,
    one per shape."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    n = len(features) if rows is None else len(rows)
    outs = [np.empty((n, *shape)) for shape in shapes]
    tile = np.empty((CHUNK_ROWS, features.shape[1]))
    for start in range(0, n, CHUNK_ROWS):
        m = min(CHUNK_ROWS, n - start)
        part = slice(start, start + m) if rows is None else rows[start:start + m]
        if rows is None and m == CHUNK_ROWS and features.flags.c_contiguous:
            x = features[part]
        else:
            x = tile
            tile[:m], tile[m:] = features[part], 0.0
        for out, a in zip(outs, fn(x)):
            out[start:start + m] = a[:m]
    return outs


def predict_proba(model: ModelState, features: np.ndarray, rows=None) -> np.ndarray:
    """Softmax class probabilities per row of ``features[rows]`` (all if None)."""
    layers, width = _layers(model.params, model.arch), model.arch.n_classes
    ws = _Workspace(layers, (CHUNK_ROWS,))
    logits = _tiled(features, lambda x: [_forward(layers, x, ws)[1]], (width,), rows=rows)[0]
    return _softmax(logits, logits)


def penultimate(model: ModelState, features: np.ndarray, rows=None) -> np.ndarray:
    """Post-activation output of the last hidden layer (the input itself if
    there is none) per row of ``features[rows]`` (all if None); the output
    layer is not run."""
    layers, width = _layers(model.params, model.arch), model.arch.penultimate_width
    if len(layers) == 1:
        return _tiled(features, lambda x: [x], (width,), rows=rows)[0]
    ws = _Workspace(layers[:-1], (CHUNK_ROWS,))
    return _tiled(features, lambda x: [_forward(layers, x, ws)[1]], (width,), rows=rows)[0]


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


def _backward(w_layers, acts, delta, stop: int, ws: _Workspace):
    """Yield (i, delta_i, acts[i]) from the last layer (delta_i = delta) down
    to layer ``stop``: layer i's weight gradient is delta_i (x) acts[i]. The
    next delta, ReLU-masked delta_i @ W_i, then overwrites acts[i] in ``ws``."""
    for i in range(len(w_layers) - 1, stop - 1, -1):
        yield i, delta, acts[i]
        if i > stop:
            mask = np.greater(acts[i], 0.0, out=ws.masks[i - 1])
            delta = np.matmul(delta, w_layers[i][0], out=ws.outs[i - 1])
            delta *= mask


def _stack_grad(w_layers, g_layers, x: np.ndarray, y: np.ndarray, ws=None, stop: int = 0):
    """Write into the views ``g_layers`` the gradient of the mean
    cross-entropy over (x[m], y[m]) at stack row m's parameters ``w_layers``,
    with respect to layers ``stop`` and up (layer i into g_layers[i - stop]),
    in the ``_Workspace`` ``ws`` of these views for x's shape (fresh if None).
    Bias gradients are einsum's in-order column sums, np.add.reduce's bits
    without its per-row loop; width 1 keeps the reduction (einsum's order differs)."""
    ws = ws or _Workspace(w_layers, x.shape[:-1])
    acts, delta = _output_error(w_layers, x, y, ws)
    delta /= x.shape[-2]
    for i, delta, a in _backward(w_layers, acts, delta, stop, ws):
        gw, gb = g_layers[i - stop]
        np.matmul(ws.outs_t[i], a, out=gw)
        if gb.shape[-1] > 1:
            np.einsum("...nk->...k", delta, out=gb)
        else:
            np.add.reduce(delta, axis=-2, out=gb)


def _scoped(arch: ArchSpec, scope: str):
    """(first embedded layer, the embedded layers as a net of their own): the
    last layer alone at last-layer scope, every layer at full scope."""
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    first = len(arch.hidden_widths) if scope == LAST_LAYER else 0
    return first, ArchSpec(arch.layer_sizes[first], arch.n_classes, arch.hidden_widths[first:])


def _grad_pass(arch: ArchSpec, params: np.ndarray, x: np.ndarray, y: np.ndarray,
               scope: str = FULL):
    """A call returning the scope's ``_stack_grad`` over (x, y) at the stack
    ``params`` as they are then, at their dtype: views, workspace and
    gradient bound once."""
    first, embedded = _scoped(arch, scope)
    w_layers = _layers(params, arch)
    grad = np.empty((len(params), embedded.n_params), params.dtype)
    g_layers, ws = _layers(grad, embedded), _Workspace(w_layers, x.shape[:-1])

    def run():
        _stack_grad(w_layers, g_layers, x, y, ws, first)
        return grad
    return run


@np.errstate(over="ignore", invalid="ignore")
def train_stack(arch: ArchSpec, params, labeled, seeds, dataset: Dataset,
                learning_rate, momentum: float, minibatch_size: int,
                epochs: int, on_epoch=None):
    """SGD with heavy-ball momentum for a stack of models in lockstep: row m
    starts from params[m] and trains on the dataset rows labeled[m] (one
    count for all rows), reshuffled each epoch from seeds[m]; the last
    minibatch may be short, and minibatch_size 0 takes one full-batch step
    per epoch. ``learning_rate`` is one rate for all rows or an (M,) vector,
    one per row. It steps in ``TRAIN_DTYPE``: params, velocity, buffers, and
    the labeled rows, rates and momentum, each cast once a call. Each epoch's
    rows are gathered once. Rows share no arithmetic, so a row gets the bits
    it would get alone. After each epoch, ``on_epoch(epoch, params, grad)``
    sees the TRAIN_DTYPE stack and, in full-batch mode, the gradient at it
    that the next step takes (else None). Returns the trained (M, n_params)
    stack as float64 and, per row, the first epoch after which its params
    were not finite (-1: none), with no overflow warning; training stops
    once every row is.
    """
    params = np.array(params, dtype=TRAIN_DTYPE)
    labeled = np.asarray(labeled, dtype=np.int64)
    read, local = np.unique(labeled, return_inverse=True)  # from here labeled indexes read
    labeled = local.reshape(labeled.shape)
    features, labels = dataset.features[read].astype(TRAIN_DTYPE), dataset.labels[read]
    shuffles = {seed: Rng(seed, "shuffle") for seed in seeds}  # one draw per distinct seed
    diverged = np.full(len(params), -1)
    n = labeled.shape[1]
    size = minibatch_size or n
    rates = np.reshape(learning_rate, (-1, 1)).astype(TRAIN_DTYPE)
    momentum = TRAIN_DTYPE(momentum)
    velocity, grad, step = np.zeros_like(params), np.empty_like(params), np.empty_like(params)
    w_layers, g_layers = _layers(params, arch), _layers(grad, arch)
    # one workspace per batch shape: a full minibatch and an epoch's short last one
    spaces = {k: _Workspace(w_layers, (len(params), k)) for k in {min(size, n), (n - 1) % size + 1}}
    if not minibatch_size:  # one gather, one gradient per step
        x, y = features[labeled], labels[labeled]
        _stack_grad(w_layers, g_layers, x, y, spaces[n])
    for epoch in range(epochs):
        if minibatch_size:  # one gather per epoch, in its shuffled order
            orders = {k: s.derive(f"epoch{epoch}").permutation(n) for k, s in shuffles.items()}
            rows = np.take_along_axis(labeled, np.stack([orders[seed] for seed in seeds]), axis=1)
            x, y = features[rows], labels[rows]
        for start in range(0, n, size):
            if minibatch_size:
                xb = x[:, start:start + size]
                _stack_grad(w_layers, g_layers, xb, y[:, start:start + size], spaces[xb.shape[1]])
            velocity *= momentum
            velocity += grad
            params -= np.multiply(rates, velocity, out=step)
        diverged[(diverged < 0) & ~np.isfinite(params).all(axis=1)] = epoch
        if (diverged >= 0).all():
            break
        if not minibatch_size:
            _stack_grad(w_layers, g_layers, x, y, spaces[n])
        if on_epoch is not None:
            on_epoch(epoch, params, None if minibatch_size else grad)
    return params.astype(float), diverged


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


def _checked_labels(labels, n_classes: int):
    """``labels`` as an array (None stays None); a label outside
    [0, n_classes), which one-hot indexing would wrap or reject, raises."""
    if labels is not None:
        labels = np.asarray(labels)
        bad = labels[(labels < 0) | (labels >= n_classes)]
        if bad.size:
            raise ValueError(f"label {bad[0]} out of range for {n_classes} classes")
    return labels


def last_layer_factors(model: ModelState, features: np.ndarray, rows=None):
    """One forward pass over ``features[rows]`` (all if None) to the factor
    pair ``(err, h1)`` of last-layer gradients: row i's gradient is the outer
    product of err_i = softmax_i - onehot(y_i) with h1_i = [penultimate_i, 1],
    y_i the row's pseudo-label from the same softmax (argmax, lowest id on ties)."""
    layers, arch = _layers(model.params, model.arch), model.arch
    ws, h1 = _Workspace(layers, (CHUNK_ROWS,)), np.ones((CHUNK_ROWS, arch.penultimate_width + 1))

    def factors(x):  # every tile has CHUNK_ROWS rows, and h1's last column stays 1
        acts, err = _output_error(layers, x, None, ws)
        h1[:, :-1] = acts[-1]
        return err, h1
    return tuple(_tiled(features, factors, (arch.n_classes,), (arch.penultimate_width + 1,), rows=rows))


def grad_embeddings(model: ModelState, features: np.ndarray, labels=None,
                    scope: str = LAST_LAYER) -> np.ndarray:
    """Per-example gradient embeddings for rows of ``features`` under the
    given labels (None: each row's pseudo-label, argmax, lowest id on ties):
    row i is the mean gradient of example i alone, whatever rows are beside
    it, a ``_grad_pass`` stack row at the broadcast params."""
    arch = model.arch
    x = np.atleast_2d(np.asarray(features, dtype=float))
    y = _checked_labels(labels, arch.n_classes)
    params = np.broadcast_to(model.params, (len(x), arch.n_params))
    return _grad_pass(arch, params, x[:, None], None if y is None else y[:, None], scope)()


def grad_embedding(model: ModelState, x: np.ndarray, y: int,
                   scope: str = LAST_LAYER) -> np.ndarray:
    """Gradient embedding of a single (x, y) example."""
    return grad_embeddings(model, np.atleast_2d(x), [int(y)], scope=scope)[0]


def mean_grad_embedding(model: ModelState, dataset: Dataset, indices,
                        scope: str = LAST_LAYER) -> np.ndarray:
    """Arithmetic mean of per-example embeddings over an index set; equals
    the gradient of ``loss_mean`` restricted to the scope, and at last-layer
    scope is bitwise the trailing slice of the full-scope mean."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise ValueError("indices must be nonempty")
    return _grad_pass(model.arch, model.params[None], dataset.features[indices][None],
                      dataset.labels[indices][None], scope)()[0]


def grad_products(model: ModelState, features: np.ndarray, ref: np.ndarray,
                  scope: str = LAST_LAYER, rows=None):
    """(||g_x||^2, g_x . ref) per row of ``features`` (of ``features[rows]``
    if given), g_x its pseudo-labeled gradient embedding and ``ref`` a flat
    embedding of the scope, from one backprop pass per ``_tiled`` tile
    without forming g_x: layer i's block of g_x is delta_i (x) [a_i, 1], so
    ||g_x||^2 sums ||delta_i||^2 (||a_i||^2 + 1) and g_x . ref sums
    delta_i . (R_i a_i + rho_i) over ref's blocks (R_i, rho_i) (Goodfellow
    2015, arXiv:1510.01799). Memory is one tile's activations and deltas."""
    arch = model.arch
    first, embedded = _scoped(arch, scope)
    w_layers, r_layers = _layers(model.params, arch), _layers(ref, embedded)
    ws = _Workspace(w_layers, (CHUNK_ROWS,))

    def products(x):
        acts, err = _output_error(w_layers, x, None, ws)
        sq, dot = np.zeros(len(x)), np.zeros(len(x))
        for i, delta, a in _backward(w_layers, acts, err, first, ws):
            r_w, r_b = r_layers[i - first]
            proj = a @ r_w.T
            proj += r_b
            sq += np.einsum("ij,ij->i", delta, delta) * (np.einsum("ij,ij->i", a, a) + 1.0)
            dot += np.einsum("ij,ij->i", delta, proj)
        return sq, dot
    return tuple(_tiled(features, products, (), (), rows=rows))
