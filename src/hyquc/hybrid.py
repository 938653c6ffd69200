"""Hybrid quantum-classical model: quantum layer + dense head, training loop,
cross-validated grid search and prediction.

All randomness flows through seeded ``numpy.random.Generator`` instances so a
(data, config, seed) triple fully determines every emitted number.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import metrics, nn, qgrad, qsim
from .errors import DivergenceError, ShapeError
from .nn import MLPHead, PROB_CLIP
from .qsim import CircuitSpec

# at most k * min(batch size, rows) * 2**n_qubits amplitudes per lockstep step
# of k grid fits.  Stacking pays while a step is bound by call overhead, not
# arithmetic: per model, a stack of 6 stepped 4.5x faster than sequential steps
# at 2 qubits and 1.95x at 5, while 3 stacked 10-qubit fits ran at 0.79x
MAX_STACK_AMPLITUDES = 1 << 13


@dataclass
class HybridModel:
    """One per row type: circuit spec, trainable angles and the dense head."""

    spec: CircuitSpec
    qweights: np.ndarray
    head: MLPHead
    n_classes: int
    row_type: str = ""

    def __post_init__(self):
        self.qweights = qsim._check_weights(
            np.asarray(self.qweights, dtype=np.float64), self.spec
        )
        if self.head.in_dim != self.spec.n_qubits:
            raise ShapeError(
                f"head input width {self.head.in_dim} != n_qubits {self.spec.n_qubits}"
            )
        if self.head.out_dim != self.n_classes:
            raise ShapeError(
                f"head output width {self.head.out_dim} != n_classes {self.n_classes}"
            )


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  For a stack of models (see :func:`fit`),
    ``learning_rate`` and ``rng_seed`` may be tuples with one value per
    model."""

    epochs: int
    learning_rate: float
    batch_size: int
    rng_seed: int = 0
    loss: str = "cross_entropy"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        rates = np.asarray(self.learning_rate, dtype=np.float64)
        if not (np.all(np.isfinite(rates)) and np.all(rates >= 0)):
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}")
        if self.loss != "cross_entropy":
            raise ValueError(f"unsupported loss {self.loss!r}")


@dataclass(frozen=True)
class EpochRecord:
    train_loss: float
    train_accuracy: float
    val_loss: float = float("nan")
    val_accuracy: float = float("nan")


@dataclass
class ModelGrads:
    """Gradient container matching a model's parameter layout."""

    qweights: np.ndarray
    head: list  # [(grad_weights, grad_bias), ...]


def init_model(spec: CircuitSpec, n_classes: int, rng: np.random.Generator,
               row_type: str = "", hidden=(8, 8), hidden_activation: str = "sigmoid",
               single_layer_head: bool = False) -> HybridModel:
    """Fresh model: quantum angles uniform in [0, 2*pi), dense weights uniform
    in [-0.5, 0.5].  ``single_layer_head`` drops the hidden layers and maps the
    quantum outputs straight through one softmax layer."""
    qweights = qsim.random_weights(spec, rng)
    head = nn.init_head(
        spec.n_qubits, n_classes, rng,
        hidden=() if single_layer_head else tuple(hidden),
        hidden_activation=hidden_activation,
    )
    return HybridModel(spec, qweights, head, n_classes, row_type)


def hybrid_forward(model: HybridModel, x) -> np.ndarray:
    """Class probabilities for one preprocessed sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.spec.n_qubits,):
        raise ShapeError(f"expected {model.spec.n_qubits} features, got {x.shape}")
    return forward_probs(model, x[None, :])[0]


def forward_probs(model: HybridModel, X) -> np.ndarray:
    """Class probabilities for a (m, n_qubits) batch."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.n_qubits:
        raise ShapeError(f"expected (m, {model.spec.n_qubits}), got {X.shape}")
    out = qsim.forward_batch(X, model.qweights, model.spec)
    for layer in model.head.layers:
        out = nn.dense_forward(layer, out)
    return out


def _losses(p_true: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy, clipped as in ``nn.cross_entropy_loss``, of the
    probabilities the model gave the true classes."""
    return np.where(p_true >= 1.0 - PROB_CLIP, 0.0,
                    -np.log(np.clip(p_true, PROB_CLIP, None)))


# ---------------------------------------------------------------------------
# training: every step trains a stack of k models of one layout in lockstep,
# their parameters the rows of one (k, P) array; a single model is a stack of
# one.  Each model's arithmetic is its own (one matmul per model, one
# reduction per row), so it trains exactly as it would alone.

def _shapes(model: HybridModel) -> list:
    """Shapes of a model's parameter tensors, in the order a stack lays them
    out: the angles, then each head layer's weights and its bias as a row."""
    shapes = [model.qweights.shape]
    for layer in model.head.layers:
        shapes += [layer.weights.shape, (1, layer.out_dim)]
    return shapes


def _views(flat: np.ndarray, shapes: list) -> list:
    """The (k, *shape) views of a stack's (k, P) rows, one per tensor."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[:, start:stop].reshape((len(flat),) + shape))
        start = stop
    return views


def _flatten(tensors) -> np.ndarray:
    return np.concatenate([t.ravel() for t in tensors])


def _stack(models: list) -> np.ndarray:
    """The (k, P) parameter rows of a stack of models of one layout."""
    return np.array([_flatten([model.qweights, *(a for layer in model.head.layers
                                                 for a in (layer.weights, layer.bias))])
                     for model in models])


def _unstack(flat: np.ndarray, models: list) -> list:
    """New models with ``models``' layouts and the parameters of the rows
    of ``flat``.  The values were checked finite during training, and the
    shapes are the models' own, so nothing is validated again."""
    qweights, *head = _views(flat, _shapes(models[0]))
    return [_with(model, qweights=qweights[i].copy(), head=_with(model.head, layers=[
        _with(layer, weights=w[i].copy(), bias=b[i, 0].copy())
        for layer, w, b in zip(model.head.layers, head[::2], head[1::2])]))
        for i, model in enumerate(models)]


def _step(flat: np.ndarray, model: HybridModel, X: np.ndarray, y: np.ndarray):
    """One training step of a stack laid out like ``model``, whose k models'
    parameters are the rows of ``flat``, on a (k, m, n_qubits) batch ``X``
    with (k, m) labels ``y``.  Returns the probabilities each model gave the
    true classes (k, m), all its class probabilities (k, m, n_classes) and
    the gradients of each model's mean cross-entropy, laid out like ``flat``.

    Head gradients come from backpropagation through the activations of the
    forward pass; quantum-angle gradients are the head's input gradient
    pulled back through the circuit by the adjoint vector-Jacobian product,
    which reuses the forward pass's gate blocks."""
    k, m = y.shape
    qweights, *head = _views(flat, _shapes(model))
    layers = model.head.layers
    blocks = qsim._layer_blocks(qsim._rot_mats(qweights))
    states, q_out = qsim._forward(X, blocks, model.spec)
    acts = [q_out]
    for layer, w, b in zip(layers, head[::2], head[1::2]):
        acts.append(nn._dense(acts[-1], w, b, layer.activation))
    probs = acts[-1]
    true = (np.arange(k)[:, None], np.arange(m), y)
    p_true = probs[true]

    # dL/dprobs for each model's mean cross-entropy
    upstream = np.zeros_like(probs)
    upstream[true] = -1.0 / (m * np.clip(p_true, PROB_CLIP, None))

    grads = [None] * len(head)
    for i in range(len(layers) - 1, -1, -1):
        grads[2 * i], grads[2 * i + 1], upstream = nn._layer_backward(
            layers[i].activation, head[2 * i], acts[i], acts[i + 1], upstream)
    grads.insert(0, qgrad._adjoint(states, upstream, qweights, blocks, model.spec))
    return p_true, probs, np.concatenate([g.reshape(k, -1) for g in grads], axis=1)


def loss_and_grads(model: HybridModel, batch):
    """Mean cross-entropy over a batch and gradients for every parameter:
    one training step (:func:`_step`) of a stack of one, without the update.
    """
    X, y = batch
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("batch must be a nonempty (m, n_qubits) matrix")
    if X.shape[1] != model.spec.n_qubits or len(y) != len(X):
        raise ShapeError("batch shapes inconsistent with the model")
    p_true, _, grads = _step(_stack([model]), model, X[None], y[None])
    qweights, *head = _views(grads, _shapes(model))
    return (float(np.mean(_losses(p_true[0]))),
            ModelGrads(qweights[0], [(w[0], b[0, 0]) for w, b in zip(head[::2], head[1::2])]))


def _with(obj, **fields):
    """A shallow copy of a validated dataclass with some fields replaced,
    without re-running its validation."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **fields)
    return new


def apply_gradients(model: HybridModel, grads: ModelGrads, eta: float) -> HybridModel:
    """One SGD step ``params - eta * grads`` over every trainable parameter;
    returns a new model.

    ``grads`` come from :func:`loss_and_grads` for this model, so every shape
    matches, and neither the arrays (as :func:`nn.sgd_update` would) nor the
    new model and its layers are validated again."""
    flat = _stack([model])
    flat -= eta * _flatten([grads.qweights, *(g for pair in grads.head for g in pair)])
    return _unstack(flat, [model])[0]


def evaluate(model: HybridModel, X, y):
    """(mean loss, accuracy, probs) without touching the model."""
    probs = forward_probs(model, X)
    y = np.asarray(y, dtype=np.int64)
    preds = np.argmax(probs, axis=1)
    return (float(np.mean(_losses(probs[np.arange(len(y)), y]))),
            float(np.mean(preds == y)), probs)


def _batches(sizes, batch_size: int):
    """``(batch, start, steps)`` per batch of an epoch, where ``steps`` pairs
    each row count m with the stack members whose batch holds m rows from
    ``start`` on (``slice(None)`` for all of them).  A member's short last
    batch steps apart from the others' full ones, so that every step takes
    exactly the member's own rows, as it would alone."""
    for batch in range(1, -(-max(sizes) // batch_size) + 1):
        start = (batch - 1) * batch_size
        counts = [min(size - start, batch_size) for size in sizes]
        steps = []
        for m in sorted({c for c in counts if c > 0}):
            members = [i for i, c in enumerate(counts) if c == m]
            steps.append((m, slice(None) if len(members) == len(sizes)
                          else np.array(members)))
        yield batch, start, steps


def _train_epoch(flat: np.ndarray, models: list, X, y, sizes, batch_size: int,
                 etas: np.ndarray, rngs: list, epoch: int):
    """One seeded pass of a stack over each model's shuffled mini-batches,
    updating ``flat`` in place.  Model i trains on the ``sizes[i]`` rows of
    ``X``, ``y`` after the first ``sum(sizes[:i])``, shuffled by ``rngs[i]``,
    at learning rate ``etas[i]``.

    Returns each model's mean train loss and the accuracy of its pre-update
    predictions per batch."""
    k = len(sizes)
    offsets = np.cumsum((0,) + tuple(sizes[:-1]))
    index = np.zeros((k, max(sizes)), dtype=np.intp)
    for i, (rng, size) in enumerate(zip(rngs, sizes)):
        index[i, :size] = offsets[i] + rng.permutation(size)
    total_loss = np.zeros(k)
    total_correct = np.zeros(k, dtype=np.int64)
    batches = -(-np.asarray(sizes) // batch_size)
    # a diverging step overflows before the parameters turn non-finite;
    # the error below, which names the batch, is then the one report
    with np.errstate(over="ignore", invalid="ignore"):
        for batch, start, steps in _batches(sizes, batch_size):
            for m, members in steps:
                rows = index[members, start:start + m]
                yb = y[rows]
                p_true, probs, grads = _step(flat[members], models[0], X[rows], yb)
                # each model's batch mean, weighted by its batch size
                total_loss[members] += _losses(p_true).sum(axis=-1) / m * m
                total_correct[members] += (probs.argmax(axis=-1) == yb).sum(axis=-1)
                flat[members] -= etas[members, None] * grads
            if not np.isfinite(flat).all():
                # the first diverged model in the stack
                i = int(np.argmin(np.isfinite(flat).all(axis=1)))
                name = models[i].row_type
                raise DivergenceError(
                    (f"row type {name!r}: " if name else "")
                    + f"training diverged at epoch {epoch}, batch {batch} of "
                    f"{batches[i]}: the parameters are no longer finite "
                    f"(lower the learning rate)", i)
    return total_loss / sizes, total_correct / sizes


def train_epoch(model: HybridModel, data, config: TrainConfig):
    """One seeded pass over shuffled mini-batches.

    Returns (updated model, EpochRecord) with the epoch's mean train loss and
    the accuracy of the pre-update predictions per batch.
    """
    model, history = fit(model, data, None, replace(config, epochs=1))
    return model, history[0]


def _as_xy(data):
    if hasattr(data, "X") and hasattr(data, "y"):
        return np.asarray(data.X, dtype=np.float64), np.asarray(data.y, dtype=np.int64)
    X, y = data
    return np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)


@dataclass(frozen=True)
class StackedSet:
    """The rows of a stack of models, concatenated in stack order: model i's
    rows are the ``sizes[i]`` rows after the first ``sum(sizes[:i])``.  ``X``
    and ``y`` hold every model's rows, so that ``len(X)`` rows per
    :func:`fit` call are the rows the models' separate fits would take."""

    X: np.ndarray
    y: np.ndarray
    sizes: tuple


def _rows(data, k: int):
    """``(X, y, sizes)`` of a single model's data set (``k == 1``) or of a
    :class:`StackedSet` for k models."""
    X, y = _as_xy(data)
    sizes = tuple(int(s) for s in getattr(data, "sizes", (len(X),)))
    if len(sizes) != k or sum(sizes) != len(X) or len(y) != len(X):
        raise ShapeError(f"{k} models need a data set of {k} parts, got sizes "
                         f"{sizes} over {len(X)} rows and {len(y)} labels")
    return X, y, sizes


def _layout(model: HybridModel):
    return (model.spec, model.n_classes,
            [(layer.weights.shape, layer.activation) for layer in model.head.layers])


def fit(model, train_set, val_set, config: TrainConfig):
    """Train for ``config.epochs`` epochs with per-epoch validation metrics.

    Returns (trained model, history) where history is a list of EpochRecord.

    ``model`` may also be a list of k models of one layout (circuit spec,
    classes and head), trained in lockstep as one stack: ``train_set`` (and
    ``val_set``, if given) is then a :class:`StackedSet`, and
    ``config.learning_rate`` and ``config.rng_seed`` give one value per
    model or one for all.  Returns the list of trained models and the list
    of their histories; each model trains exactly as it would alone.
    """
    stacked = isinstance(model, list)
    models = model if stacked else [model]
    k = len(models)
    if any(_layout(m) != _layout(models[0]) for m in models):
        raise ShapeError("the models of a stack must share one circuit spec, "
                         "class count and head layout")
    X, y, sizes = _rows(train_set, k)
    if min(sizes) == 0:
        raise ValueError("training set is empty")
    if val_set is not None:
        Xv, yv, vsizes = _rows(val_set, k)
        bounds = np.cumsum((0,) + vsizes)
        vals = [(Xv[a:b], yv[a:b]) for a, b in zip(bounds, bounds[1:])]
    etas = np.broadcast_to(np.asarray(config.learning_rate, dtype=np.float64), (k,))
    rngs = [np.random.default_rng(int(s)) for s in np.broadcast_to(config.rng_seed, (k,))]
    flat = _stack(models)
    histories = [[] for _ in models]
    for epoch in range(1, config.epochs + 1):
        losses, accs = _train_epoch(flat, models, X, y, sizes, config.batch_size,
                                    etas, rngs, epoch)
        scores = [(float("nan"), float("nan"))] * k
        if val_set is not None:
            scores = [evaluate(trained, *val)[:2] if len(val[0]) else scores[0]
                      for trained, val in zip(_unstack(flat, models), vals)]
        for history, loss, acc, (val_loss, val_acc) in zip(histories, losses, accs, scores):
            history.append(EpochRecord(float(loss), float(acc), val_loss, val_acc))
    trained = _unstack(flat, models)
    return (trained, histories) if stacked else (trained[0], histories[0])


def predict(model: HybridModel, x_new):
    """(class index, probability vector); argmax ties go to the lowest index."""
    probs = hybrid_forward(model, x_new)
    return int(np.argmax(probs)), probs


# ---------------------------------------------------------------------------
# cross-validation and grid search

def kfold_split(n: int, k: int, seed: int, labels=None):
    """k (train_indices, val_indices) pairs partitioning range(n).

    With ``labels`` the folds are stratified: each class is shuffled and dealt
    round-robin across folds.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    if labels is None:
        perm = rng.permutation(n)
        for i, chunk in enumerate(np.array_split(perm, k)):
            folds[i] = list(chunk)
    else:
        labels = np.asarray(labels)
        if len(labels) != n:
            raise ValueError("labels length must equal n")
        offset = 0
        for cls in np.unique(labels):
            idx = np.flatnonzero(labels == cls)
            idx = idx[rng.permutation(len(idx))]
            for j, i in enumerate(idx):
                folds[(offset + j) % k].append(int(i))
            offset = (offset + len(idx)) % k
    out = []
    for i in range(k):
        val = np.sort(np.array(folds[i], dtype=np.int64))
        train = np.sort(np.concatenate(
            [np.array(folds[j], dtype=np.int64) for j in range(k) if j != i]
        ))
        out.append((train, val))
    return out


@dataclass(frozen=True)
class HyperGrid:
    n_layers_choices: tuple = (1,)
    n_qubits_choices: tuple = (2,)
    learning_rates: tuple = (0.01,)
    batch_sizes: tuple = (16,)
    epoch_choices: tuple = (50,)

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name):
                raise ValueError(f"{f.name} must be nonempty")

    def combinations(self):
        """All configurations in declaration order."""
        combos = []
        for nl, nq, lr, bs, ep in itertools.product(
            self.n_layers_choices, self.n_qubits_choices, self.learning_rates,
            self.batch_sizes, self.epoch_choices,
        ):
            combos.append({
                "n_layers": int(nl), "n_qubits": int(nq),
                "learning_rate": float(lr), "batch_size": int(bs),
                "epochs": int(ep),
            })
        return combos


@dataclass
class GridResult:
    params: dict
    mean_val_macro_f1: float
    mean_val_accuracy: float
    order: int
    fold_f1: list = field(default_factory=list)


def _macro_f1(y_true, y_pred, n_classes) -> float:
    cm = metrics.confusion_matrix(y_true, y_pred, n_classes)
    return float(np.mean([metrics.per_class_prf(cm, c).f1 for c in range(n_classes)]))


def circuit_spec(n_qubits: int, n_layers: int, embedding_axis: str = "Y",
                 entangler_range: int = 1) -> CircuitSpec:
    """The circuit for one model, with the CNOT-ring offset clamped to what
    ``n_qubits`` wires allow."""
    return CircuitSpec(n_qubits, n_layers, embedding_axis,
                       min(entangler_range, max(n_qubits - 1, 1)))


def grid_search(grid: HyperGrid, data, k: int, seed: int, augment=None,
                hidden=(8, 8), hidden_activation: str = "sigmoid",
                single_layer_head: bool = False, embedding_axis: str = "Y",
                entangler_range: int = 1):
    """Exhaustive search over the grid under stratified k-fold CV.

    ``data`` supplies X (wide enough for the largest n_qubits choice; a model
    with q qubits consumes the first q columns) and integer labels y.
    ``augment(X, y, seed)`` is applied to each fold's training subset only.
    Fits that share a circuit spec, batch size and epoch count train in
    lockstep, as stacks (see :func:`fit`) of at most MAX_STACK_AMPLITUDES
    amplitudes per step; each fit's result is the one it has alone.
    Ranking: mean validation macro-F1, ties by mean validation accuracy, then
    by declaration order.  Returns (best_params, leaderboard).
    """
    X, y = _as_xy(data)
    n_classes = int(np.max(y)) + 1
    folds = kfold_split(len(y), k, seed, labels=y)
    combos = grid.combinations()
    groups = {}  # (spec, batch size, epochs) -> its fits, in declaration order
    for ci, params in enumerate(combos):
        q = params["n_qubits"]
        if X.shape[1] < q:
            raise ShapeError(f"data width {X.shape[1]} < n_qubits choice {q}")
        spec = circuit_spec(q, params["n_layers"], embedding_axis, entangler_range)
        groups.setdefault((spec, params["batch_size"], params["epochs"]), []).extend(
            (ci, fi) for fi in range(k))

    scores = {}  # (ci, fi) -> (validation macro-F1, validation accuracy)

    def train(stack, spec, batch_size, epochs):
        models = _fit_stack(stack, combos, batch_size, epochs, k)
        for f, model in zip(stack, models):
            val = folds[f.fold][1]
            _, acc, probs = evaluate(model, X[val, :spec.n_qubits], y[val])
            scores[f.combination, f.fold] = (
                _macro_f1(y[val], np.argmax(probs, axis=1), n_classes), acc)

    for (spec, batch_size, epochs), fits in groups.items():
        stack = []
        for ci, fi in fits:
            fold_seed = int(np.random.SeedSequence([seed, ci, fi]).generate_state(1)[0])
            tr = folds[fi][0]
            Xtr, ytr = X[tr, :spec.n_qubits], y[tr]
            if augment is not None:
                Xtr, ytr = augment(Xtr, ytr, fold_seed)
            rows = min(batch_size, max([len(ytr)] + [len(f.y) for f in stack]))
            if stack and (len(stack) + 1) * rows << spec.n_qubits > MAX_STACK_AMPLITUDES:
                train(stack, spec, batch_size, epochs)
                stack = []
            model = init_model(spec, n_classes, np.random.default_rng(fold_seed),
                               hidden=hidden, hidden_activation=hidden_activation,
                               single_layer_head=single_layer_head)
            stack.append(_GridFit(ci, fi, fold_seed, Xtr, ytr, model))
        train(stack, spec, batch_size, epochs)

    leaderboard = []
    for ci, params in enumerate(combos):
        f1s = [scores[ci, fi][0] for fi in range(k)]
        leaderboard.append(GridResult(params, float(np.mean(f1s)),
                                      float(np.mean([scores[ci, fi][1] for fi in range(k)])),
                                      ci, f1s))
    leaderboard.sort(key=lambda r: (-r.mean_val_macro_f1, -r.mean_val_accuracy, r.order))
    return leaderboard[0].params, leaderboard


class _GridFit(NamedTuple):
    """One (combination, fold) fit of a grid search, ready to train."""

    combination: int
    fold: int
    seed: int
    X: np.ndarray
    y: np.ndarray
    model: HybridModel


def _fit_stack(stack: list, combos: list, batch_size: int, epochs: int, k: int) -> list:
    """Train a stack of :class:`_GridFit` through :func:`fit`, with one
    :class:`StackedSet` of all their rows, so that a caller counting rows x
    epochs per fit call counts what their separate fits would.  Returns the
    trained models; a divergence names the first diverged fit's combination
    and fold."""
    config = TrainConfig(epochs, tuple(combos[f.combination]["learning_rate"] for f in stack),
                         batch_size, rng_seed=tuple(f.seed for f in stack))
    rows = StackedSet(np.concatenate([f.X for f in stack]),
                      np.concatenate([f.y for f in stack]), tuple(len(f.y) for f in stack))
    try:
        models, _ = fit([f.model for f in stack], rows, None, config)
    except DivergenceError as exc:
        f = stack[exc.index]
        params = ", ".join(f"{key}={value!r}" for key, value in combos[f.combination].items())
        raise DivergenceError(f"combination {f.combination + 1} of {len(combos)} ({params}), "
                              f"fold {f.fold + 1} of {k}: {exc}") from None
    return models
