"""Hybrid quantum-classical model: quantum layer + dense head, training loop,
cross-validated grid search and prediction.

All randomness flows through seeded ``numpy.random.Generator`` instances so a
(data, config, seed) triple fully determines every emitted number.
"""
from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from . import metrics, nn, qgrad, qsim
from .errors import ShapeError
from .nn import MLPHead, PROB_CLIP
from .qsim import CircuitSpec


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
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
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


def _head_forward(model: HybridModel, q_out: np.ndarray):
    """Activations per layer for a (m, n_qubits) batch of quantum outputs."""
    acts = [q_out]
    for layer in model.head.layers:
        acts.append(nn.dense_forward(layer, acts[-1]))
    return acts


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
    q_out = qsim.forward_batch(X, model.qweights, model.spec)
    return _head_forward(model, q_out)[-1]


def _batch_loss(probs: np.ndarray, y: np.ndarray) -> float:
    p = probs[np.arange(len(y)), y]
    losses = np.where(p >= 1.0 - PROB_CLIP, 0.0, -np.log(np.clip(p, PROB_CLIP, None)))
    return float(np.mean(losses))


def loss_and_grads(model: HybridModel, batch):
    """Mean cross-entropy over a batch and gradients for every parameter.

    Head gradients come from backpropagation; quantum-angle gradients are the
    head's input gradient pulled back through the circuit by the adjoint
    vector-Jacobian product.
    """
    loss, grads, _ = _loss_grads_probs(model, batch)
    return loss, grads


def _loss_grads_probs(model: HybridModel, batch):
    X, y = batch
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) == 0:
        raise ValueError("batch must be a nonempty (m, n_qubits) matrix")
    if X.shape[1] != model.spec.n_qubits or len(y) != len(X):
        raise ShapeError("batch shapes inconsistent with the model")
    m = len(X)

    states, q_out = qsim.forward_states(X, model.qweights, model.spec)
    acts = _head_forward(model, q_out)
    probs = acts[-1]
    loss = _batch_loss(probs, y)

    # dL/dprobs for the mean cross-entropy
    p_y = np.clip(probs[np.arange(m), y], PROB_CLIP, None)
    upstream = np.zeros_like(probs)
    upstream[np.arange(m), y] = -1.0 / (m * p_y)

    head_grads = [None] * len(model.head.layers)
    for i in range(len(model.head.layers) - 1, -1, -1):
        gw, gb, upstream = nn.dense_backward(model.head.layers[i], acts[i], upstream)
        head_grads[i] = (gw, gb)

    qw_grad = qgrad.adjoint_vjp(states, upstream, model.qweights, model.spec)
    return loss, ModelGrads(qw_grad, head_grads), probs


def _with(obj, **fields):
    """A shallow copy of a validated dataclass with some fields replaced,
    without re-running its validation."""
    new = copy.copy(obj)
    new.__dict__.update(fields)
    return new


def apply_gradients(model: HybridModel, grads: ModelGrads, eta: float) -> HybridModel:
    """One SGD step over every trainable parameter; returns a new model.

    A step keeps every shape, so the new model and its layers are not
    validated again; training checks once per batch that the values stay
    finite (:func:`_check_finite`)."""
    layers = [_with(layer, weights=nn.sgd_update(layer.weights, gw, eta),
                    bias=nn.sgd_update(layer.bias, gb, eta))
              for layer, (gw, gb) in zip(model.head.layers, grads.head)]
    return _with(model, qweights=nn.sgd_update(model.qweights, grads.qweights, eta),
                 head=_with(model.head, layers=layers))


def _check_finite(model: HybridModel, epoch: int, batch: int, batches: int) -> None:
    """Raise a ValueError that names where training diverged if any
    parameter is no longer finite."""
    params = [model.qweights, *(a for layer in model.head.layers
                                for a in (layer.weights, layer.bias))]
    if not all(np.isfinite(p).all() for p in params):
        raise ValueError(
            f"row type {model.row_type!r}: training diverged at epoch {epoch}, "
            f"batch {batch} of {batches}: the parameters are no longer finite "
            f"(lower the learning rate)")


def evaluate(model: HybridModel, X, y):
    """(mean loss, accuracy, probs) without touching the model."""
    probs = forward_probs(model, X)
    y = np.asarray(y, dtype=np.int64)
    preds = np.argmax(probs, axis=1)
    return _batch_loss(probs, y), float(np.mean(preds == y)), probs


def _train_epoch(model: HybridModel, X, y, config: TrainConfig,
                 rng: np.random.Generator, epoch: int = 1):
    m = len(X)
    order = rng.permutation(m)
    total_loss = 0.0
    total_correct = 0
    batches = -(-m // config.batch_size)
    for batch, start in enumerate(range(0, m, config.batch_size), 1):
        idx = order[start:start + config.batch_size]
        xb, yb = X[idx], y[idx]
        loss, grads, probs = _loss_grads_probs(model, (xb, yb))
        total_correct += int(np.sum(np.argmax(probs, axis=1) == yb))
        total_loss += loss * len(idx)
        model = apply_gradients(model, grads, config.learning_rate)
        _check_finite(model, epoch, batch, batches)
    return model, total_loss / m, total_correct / m


def train_epoch(model: HybridModel, data, config: TrainConfig):
    """One seeded pass over shuffled mini-batches.

    Returns (updated model, EpochRecord) with the epoch's mean train loss and
    the accuracy of the pre-update predictions per batch.
    """
    X, y = _as_xy(data)
    rng = np.random.default_rng(config.rng_seed)
    model, loss, acc = _train_epoch(model, X, y, config, rng)
    return model, EpochRecord(loss, acc)


def _as_xy(data):
    if hasattr(data, "X") and hasattr(data, "y"):
        return np.asarray(data.X, dtype=np.float64), np.asarray(data.y, dtype=np.int64)
    X, y = data
    return np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.int64)


def fit(model: HybridModel, train_set, val_set, config: TrainConfig):
    """Train for ``config.epochs`` epochs with per-epoch validation metrics.

    Returns (trained model, history) where history is a list of EpochRecord.
    """
    Xtr, ytr = _as_xy(train_set)
    if len(Xtr) == 0:
        raise ValueError("training set is empty")
    Xval, yval = (None, None) if val_set is None else _as_xy(val_set)
    rng = np.random.default_rng(config.rng_seed)
    history = []
    for epoch in range(1, config.epochs + 1):
        model, loss, acc = _train_epoch(model, Xtr, ytr, config, rng, epoch)
        if Xval is not None and len(Xval):
            val_loss, val_acc, _ = evaluate(model, Xval, yval)
        else:
            val_loss, val_acc = float("nan"), float("nan")
        history.append(EpochRecord(loss, acc, val_loss, val_acc))
    return model, history


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
    Ranking: mean validation macro-F1, ties by mean validation accuracy, then
    by declaration order.  Returns (best_params, leaderboard).
    """
    X, y = _as_xy(data)
    n_classes = int(np.max(y)) + 1
    folds = kfold_split(len(y), k, seed, labels=y)
    leaderboard = []
    for ci, params in enumerate(grid.combinations()):
        q = params["n_qubits"]
        if X.shape[1] < q:
            raise ShapeError(f"data width {X.shape[1]} < n_qubits choice {q}")
        spec = circuit_spec(q, params["n_layers"], embedding_axis, entangler_range)
        f1s, accs = [], []
        for fi, (tr, val) in enumerate(folds):
            fold_seed = int(np.random.SeedSequence([seed, ci, fi]).generate_state(1)[0])
            Xtr, ytr = X[tr, :q], y[tr]
            if augment is not None:
                Xtr, ytr = augment(Xtr, ytr, fold_seed)
            model = init_model(spec, n_classes, np.random.default_rng(fold_seed),
                               hidden=hidden, hidden_activation=hidden_activation,
                               single_layer_head=single_layer_head)
            config = TrainConfig(params["epochs"], params["learning_rate"],
                                 params["batch_size"], rng_seed=fold_seed)
            model, _ = fit(model, (Xtr, ytr), None, config)
            _, acc, probs = evaluate(model, X[val, :q], y[val])
            f1s.append(_macro_f1(y[val], np.argmax(probs, axis=1), n_classes))
            accs.append(acc)
        leaderboard.append(GridResult(params, float(np.mean(f1s)),
                                      float(np.mean(accs)), ci, f1s))
    leaderboard.sort(key=lambda r: (-r.mean_val_macro_f1, -r.mean_val_accuracy, r.order))
    return leaderboard[0].params, leaderboard
