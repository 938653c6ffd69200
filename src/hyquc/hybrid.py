"""Hybrid quantum-classical model: quantum layer + dense head, training loop,
cross-validated grid search and prediction.

All randomness flows through seeded ``numpy.random.Generator`` instances so a
(data, config, seed) triple fully determines every emitted number.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import metrics, nn, qsim
from .errors import DivergenceError, ShapeError, prefixed
from .nn import MLPHead, PROB_CLIP
from .qsim import CircuitSpec

# at most k * m * 2**n_qubits amplitudes in a forward pass of k stacked models on m
# rows each, in training or scoring.  Stacking pays while a step is bound by call
# overhead, not arithmetic: per model, a stack of 6 stepped 4.5x faster than
# sequential steps at 2 qubits and 1.95x at 5, while 3 stacked 10-qubit fits ran at 0.79x
MAX_STACK_AMPLITUDES = 1 << 13

# fit_all refuses up front a fit whose training step would hold more than
# MAX_STEP_BYTES: a step on B rows of an L-layer circuit on n qubits keeps the
# L layer states the adjoint sweep reads and at most STEP_STATE_BATCHES more
# buffers of B * 2**n complex amplitudes live (measured with tracemalloc:
# 2 + 1.0 L to 2 + 1.13 L buffers for L = 1..10 at 10 and 12 qubits)
MAX_STEP_BYTES = 1 << 30
STEP_STATE_BATCHES = 5


@dataclass
class HybridModel:
    """One per row type: circuit spec, trainable angles and the dense head."""

    spec: CircuitSpec
    qweights: np.ndarray
    head: MLPHead

    def __post_init__(self):
        self.qweights = qsim._check_weights(
            np.asarray(self.qweights, dtype=np.float64), self.spec
        )
        if self.head.in_dim != self.spec.n_qubits:
            raise ShapeError(
                f"head input width {self.head.in_dim} != n_qubits {self.spec.n_qubits}"
            )

    @property
    def n_classes(self) -> int:
        return self.head.out_dim


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  A :class:`FitJob`'s config holds one learning
    rate and one seed; the config :func:`fit_all` gives :func:`fit` for a
    stack holds tuples of them, one value per model."""

    epochs: int
    learning_rate: float
    batch_size: int
    rng_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        rates = np.asarray(self.learning_rate, dtype=np.float64)
        if not (np.all(np.isfinite(rates)) and np.all(rates >= 0)):
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate!r}")


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
               hidden=(8, 8), hidden_activation: str = "sigmoid") -> HybridModel:
    """Fresh model: quantum angles uniform in [0, 2*pi), dense weights uniform
    in [-0.5, 0.5].  ``hidden`` gives the hidden layers' widths; ``hidden=()``
    means no hidden layer, so the quantum outputs feed one softmax layer."""
    qweights = qsim.random_weights(spec, rng)
    head = nn.init_head(spec.n_qubits, n_classes, rng, hidden=tuple(hidden),
                        hidden_activation=hidden_activation)
    return HybridModel(spec, qweights, head)


def hybrid_forward(model: HybridModel, x) -> np.ndarray:
    """Class probabilities for one preprocessed sample."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.spec.n_qubits,):
        raise ShapeError(f"expected {model.spec.n_qubits} features, got {x.shape}")
    return forward_probs(model, x[None, :])[0]


def forward_probs(model: HybridModel, X) -> np.ndarray:
    """Class probabilities for a (m, n_qubits) batch, scored as a stack of one."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.spec.n_qubits:
        raise ShapeError(f"expected (m, {model.spec.n_qubits}), got {X.shape}")
    return _stacked_probs([model], [X])[0]


# ---------------------------------------------------------------------------
# training: every step trains a stack of k models of one layout in lockstep,
# their parameters the rows of one (k, P) array; a single model is a stack of
# one.  Each model's arithmetic is its own (one matmul per model, one
# reduction per row), so it trains exactly as it would alone.

def _tensors(model: HybridModel) -> list:
    """A model's parameter tensors in the order a stack lays them out: the
    angles, then each head layer's weights and its bias as a row."""
    return [model.qweights, *(t for layer in model.head.layers
                              for t in (layer.weights, layer.bias[None]))]


def _split(flat: np.ndarray, model: HybridModel):
    """``(angles, [(weights, bias), ...])``: the (k, *shape) views of a
    stack's (k, P) rows laid out like ``model``."""
    views, start = [], 0
    for t in _tensors(model):
        views.append(flat[:, start:start + t.size].reshape((len(flat),) + t.shape))
        start += t.size
    qweights, *head = views
    return qweights, list(zip(head[::2], head[1::2]))


def _stack(models: list) -> np.ndarray:
    """The (k, P) parameter rows of a stack of models of one layout."""
    return np.array([np.concatenate([t.ravel() for t in _tensors(model)])
                     for model in models])


def _unstack(flat: np.ndarray, models: list) -> list:
    """New models with ``models``' layouts and the parameters of the rows
    of ``flat``, each built through its class's checks."""
    qweights, head = _split(flat, models[0])
    return [replace(model, qweights=qweights[i].copy(), head=replace(model.head, layers=[
        replace(layer, weights=w[i].copy(), bias=b[i, 0].copy())
        for layer, (w, b) in zip(model.head.layers, head)]))
        for i, model in enumerate(models)]


def _forward(params, model: HybridModel, X: np.ndarray, kept: list = None):
    """The gate blocks of layers 1.. and every layer's outputs, from <Z_i>
    to the class probabilities, of a stack laid out like ``model`` on a
    (k, m, n_qubits) batch ``X``; ``params`` are the :func:`_split` views of
    the k models' (k, P) parameter rows.  Where ``kept`` is a list, the
    circuit's layer states are appended to it (:func:`qsim._forward`)."""
    qweights, head = params
    z, blocks = qsim._forward(X, qweights, model.spec, kept)
    acts = [z]
    for layer, (w, b) in zip(model.head.layers, head):
        acts.append(nn._dense(acts[-1], w, b, layer.activation))
    return blocks, acts


def _step(params, model: HybridModel, X: np.ndarray, y: np.ndarray):
    """One training step of :func:`_forward`'s stack, with (k, m) labels
    ``y``.  Returns the probabilities each model gave the true classes
    (k, m), all its class probabilities (k, m, n_classes) and the gradients
    of each model's mean cross-entropy, laid out like the (k, P) rows.

    Head gradients come from backpropagation through the activations of the
    forward pass; quantum-angle gradients are the head's input gradient
    pulled back through the circuit by the adjoint vector-Jacobian product,
    which reads the forward pass's layer states and gate blocks."""
    k, m = y.shape
    (qweights, head), layers = params, model.head.layers
    kept = []
    blocks, acts = _forward(params, model, X, kept)
    probs = acts[-1]
    true = (np.arange(k)[:, None], np.arange(m), y)
    p_true = probs[true]

    # dL/dprobs for each model's mean cross-entropy
    upstream = np.zeros_like(probs)
    upstream[true] = -1.0 / (m * np.maximum(p_true, PROB_CLIP))

    grads = []
    for layer, (w, _), x, out in reversed(list(zip(layers, head, acts, acts[1:]))):
        grad_w, grad_b, upstream = nn._layer_backward(layer.activation, w, x, out, upstream)
        grads[:0] = (grad_w, grad_b)
    grads.insert(0, qsim._adjoint(kept, upstream, qweights, blocks, model.spec))
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
    p_true, _, grads = _step(_split(_stack([model]), model), model, X[None], y[None])
    qweights, head = _split(grads, model)
    return (float(np.mean(nn.cross_entropy_losses(p_true[0]))),
            ModelGrads(qweights[0], [(w[0], b[0, 0]) for w, b in head]))


def apply_gradients(model: HybridModel, grads: ModelGrads, eta: float) -> HybridModel:
    """One SGD step ``params - eta * grads`` over every trainable parameter;
    returns a new model.

    ``grads`` come from :func:`loss_and_grads` for this model, so every shape
    matches; the new model is built through its classes' checks, so a step
    that leaves a parameter non-finite is a ValueError."""
    flat = _stack([model])
    qweights, head = _split(flat, model)
    for view, grad in zip([qweights, *itertools.chain(*head)],
                          [grads.qweights, *itertools.chain(*grads.head)]):
        view[0] -= eta * grad
    return _unstack(flat, [model])[0]


def _scores(probs: np.ndarray, y: np.ndarray):
    """(mean cross-entropy, accuracy) of class probabilities ``probs`` for
    labels ``y``, each row predicted as its likeliest class."""
    return (float(np.mean(nn.cross_entropy_losses(probs[np.arange(len(y)), y]))),
            float(np.mean(np.argmax(probs, axis=1) == y)))


def evaluate(model: HybridModel, X, y):
    """(mean loss, accuracy, probs) without touching the model."""
    probs = forward_probs(model, X)
    return (*_scores(probs, np.asarray(y, dtype=np.int64)), probs)


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
    # the epoch's rows in each model's shuffled order: a batch is a slice
    Xs, ys = X[index], y[index]
    # flat is updated in place, so its views serve every full-stack step
    views = _split(flat, models[0])
    total_loss = np.zeros(k)
    total_correct = np.zeros(k, dtype=np.int64)
    batches = -(-np.asarray(sizes) // batch_size)
    # a diverging step overflows before the parameters turn non-finite;
    # the error below, which names the batch, is then the one report
    with np.errstate(over="ignore", invalid="ignore"):
        for batch, start, steps in _batches(sizes, batch_size):
            for m, members in steps:
                yb = ys[members, start:start + m]
                params = (views if isinstance(members, slice)
                          else _split(flat[members], models[0]))
                p_true, probs, grads = _step(params, models[0], Xs[members, start:start + m],
                                             yb)
                # each model's batch mean, weighted by its batch size
                total_loss[members] += nn.cross_entropy_losses(p_true).sum(axis=-1) / m * m
                total_correct[members] += (probs.argmax(axis=-1) == yb).sum(axis=-1)
                flat[members] -= etas[members, None] * grads
            if not np.isfinite(flat).all():
                # the first diverged model in the stack
                i = int(np.argmin(np.isfinite(flat).all(axis=1)))
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {batch} of "
                    f"{batches[i]}: the parameters are no longer finite "
                    f"(lower the learning rate)", i)
    return total_loss / sizes, total_correct / sizes


def train_epoch(model: HybridModel, data, config: TrainConfig):
    """One seeded pass over shuffled mini-batches: a one-epoch :func:`fit_all`
    of one job.

    Returns (updated model, EpochRecord) with the epoch's mean train loss and
    the accuracy of the pre-update predictions per batch.
    """
    [(model, [record])] = fit_all([FitJob(model, data, None, replace(config, epochs=1))])
    return model, record


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

    @classmethod
    def of(cls, parts) -> "StackedSet":
        """The rows of ``(X, y)`` data sets, one per model, in order."""
        parts = [_as_xy(part) for part in parts]
        for X, y in parts:
            if len(X) != len(y):
                raise ShapeError(f"a data set of {len(X)} rows has {len(y)} labels")
        return cls(np.concatenate([X for X, _ in parts]),
                   np.concatenate([y for _, y in parts]), tuple(len(y) for _, y in parts))


def fit(models: list, train: StackedSet, val, config: TrainConfig):
    """Train a stack of models of one layout (circuit spec and head) in
    lockstep for ``config.epochs`` epochs, with per-epoch
    validation metrics: :func:`fit_all`'s call per stack.

    ``train`` (and ``val``, if not None) is a :class:`StackedSet` of one part
    per model, and ``config.learning_rate`` and ``config.rng_seed`` give one
    value per model or one for all.  Returns the list of trained models and
    the list of their histories, each a list of EpochRecord; each model
    trains exactly as it would alone.
    """
    k = len(models)
    if min(train.sizes) == 0:
        raise ValueError("training set is empty")
    etas = np.broadcast_to(np.asarray(config.learning_rate, dtype=np.float64), (k,))
    rngs = [np.random.default_rng(int(s)) for s in np.broadcast_to(config.rng_seed, (k,))]
    flat = _stack(models)
    histories = [[] for _ in models]
    vals = []  # (model index, X, y) of each nonempty validation part
    if val is not None:
        bounds = np.cumsum((0,) + val.sizes)
        vals = [(i, val.X[a:b], val.y[a:b])
                for i, (a, b) in enumerate(zip(bounds, bounds[1:])) if b > a]
    for epoch in range(1, config.epochs + 1):
        losses, accs = _train_epoch(flat, models, train.X, train.y, train.sizes,
                                    config.batch_size, etas, rngs, epoch)
        scores = [(float("nan"), float("nan"))] * k
        if vals:
            trained = _unstack(flat, models)
            probs = _stacked_probs([trained[i] for i, _, _ in vals], [X for _, X, _ in vals])
            for (i, _, y), p in zip(vals, probs):
                scores[i] = _scores(p, y)
        for history, loss, acc, (val_loss, val_acc) in zip(histories, losses, accs, scores):
            history.append(EpochRecord(float(loss), float(acc), val_loss, val_acc))
    return _unstack(flat, models), histories


def predict(model: HybridModel, x_new):
    """(class index, probability vector); argmax ties go to the lowest index."""
    probs = hybrid_forward(model, x_new)
    return int(np.argmax(probs)), probs


# ---------------------------------------------------------------------------
# cross-validation and grid search

def kfold_split(labels, k: int, seed: int):
    """k stratified (train_indices, val_indices) pairs partitioning
    range(len(labels)): each class is shuffled and dealt round-robin across
    folds."""
    labels = np.asarray(labels)
    n = len(labels)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    fold = np.empty(n, dtype=np.int64)
    offset = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        fold[idx[rng.permutation(len(idx))]] = (offset + np.arange(len(idx))) % k
        offset = (offset + len(idx)) % k
    return [(np.flatnonzero(fold != i), np.flatnonzero(fold == i)) for i in range(k)]


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


def circuit_spec(n_qubits: int, n_layers: int, entangler_range: int = 1) -> CircuitSpec:
    """The circuit for one model, with the CNOT-ring offset clamped to what
    ``n_qubits`` wires allow."""
    return CircuitSpec(n_qubits, n_layers,
                       entangler_range=min(entangler_range, max(n_qubits - 1, 1)))


def default_model(n_qubits: int, n_layers: int, n_classes: int,
                  rng: np.random.Generator) -> HybridModel:
    """:func:`grid_jobs`' default builder: the default circuit and head."""
    return init_model(circuit_spec(n_qubits, n_layers), n_classes, rng)


def grid_search(grid: HyperGrid, data, k: int, seed: int, augment=None,
                new_model=default_model):
    """Exhaustive search over the grid under stratified k-fold CV: the
    :func:`grid_jobs`, trained through :func:`fit_all`, then ranked.
    Returns (best_params, leaderboard)."""
    jobs, rank = grid_jobs(grid, data, k, seed, augment, new_model)
    return rank(fit_all(jobs))


def grid_jobs(grid: HyperGrid, data, k: int, seed: int, augment=None,
              new_model=default_model):
    """The (combination, fold) fits of :func:`grid_search` and their ranking.

    ``data`` supplies X (wide enough for the largest n_qubits choice; a model
    with q qubits consumes the first q columns) and integer labels y.
    ``augment(X, y)`` is called once per fold and width with the fold's
    training rows and returns ``draw(seed)``, which gives the augmented
    ``(X, y)`` of each fit on them.  ``new_model(n_qubits, n_layers,
    n_classes, rng)`` builds each fit's fresh model.
    Returns the :class:`FitJob` per (combination, fold), in declaration order,
    named ``combination i of N (...), fold j of k``, and ``rank(trained)``,
    which turns :func:`fit_all`'s results for them into (best_params,
    leaderboard): by mean validation macro-F1, ties by mean validation
    accuracy, then by declaration order."""
    X, y = _as_xy(data)
    n_classes = int(np.max(y)) + 1
    folds = kfold_split(y, k, seed)
    combos = grid.combinations()
    jobs, draws = [], {}
    for ci, params in enumerate(combos):
        q = params["n_qubits"]
        if X.shape[1] < q:
            raise ShapeError(f"data width {X.shape[1]} < n_qubits choice {q}")
        desc = ", ".join(f"{key}={value!r}" for key, value in params.items())
        for fi, (tr, _) in enumerate(folds):
            fold_seed = int(np.random.SeedSequence([seed, ci, fi]).generate_state(1)[0])
            Xtr, ytr = X[tr, :q], y[tr]
            if augment is not None:
                if (fi, q) not in draws:
                    with prefixed(f"fold {fi + 1} of {k}'s training rows at n_qubits={q}"):
                        draws[fi, q] = augment(Xtr, ytr)
                Xtr, ytr = draws[fi, q](fold_seed)
            model = new_model(q, params["n_layers"], n_classes,
                              np.random.default_rng(fold_seed))
            jobs.append(FitJob(model, (Xtr, ytr), None, TrainConfig(
                params["epochs"], params["learning_rate"], params["batch_size"],
                rng_seed=fold_seed), f"combination {ci + 1} of {len(combos)} ({desc}), "
                                     f"fold {fi + 1} of {k}"))

    def rank(trained):
        models = [model for model, _ in trained]
        vals = [folds[i % k][1] for i in range(len(models))]
        probs = _stacked_probs(models, [X[val, :model.spec.n_qubits]
                                       for model, val in zip(models, vals)])
        leaderboard = []
        for ci, params in enumerate(combos):
            f1s, accs = [], []
            for val, p in zip(vals[ci * k:(ci + 1) * k], probs[ci * k:(ci + 1) * k]):
                f1s.append(_macro_f1(y[val], np.argmax(p, axis=1), n_classes))
                accs.append(_scores(p, y[val])[1])
            leaderboard.append(GridResult(params, float(np.mean(f1s)),
                                          float(np.mean(accs)), ci, f1s))
        leaderboard.sort(key=lambda r: (-r.mean_val_macro_f1, -r.mean_val_accuracy, r.order))
        return leaderboard[0].params, leaderboard

    return jobs, rank


def _layout(model: HybridModel):
    return model.spec, tuple((layer.weights.shape, layer.activation)
                             for layer in model.head.layers)


def _stacked_probs(models: list, Xs: list) -> list:
    """Each model's class probabilities for its (m, n_qubits) rows of ``Xs``,
    unchecked: models of one layout and row count are scored in
    :func:`_stacks` through :func:`_forward`, where each model's products
    keep their shapes, so its probabilities are those of a stack of one."""
    probs = [None] * len(models)
    for part in _stacks([(_layout(model), len(X)) for model, X in zip(models, Xs)],
                        [len(X) << model.spec.n_qubits for model, X in zip(models, Xs)]):
        first = models[part[0]]
        _, acts = _forward(_split(_stack([models[i] for i in part]), first), first,
                           np.stack([Xs[i] for i in part]))
        for i, p in zip(part, acts[-1]):
            probs[i] = p
    return probs


def _stacks(keys: list, amplitudes: list):
    """The indices of ``keys`` grouped by key, in order, and split into stacks
    of at most MAX_STACK_AMPLITUDES amplitudes, k times the largest of a stack's
    k ``amplitudes``.  A model over the budget alone is a stack of one."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for indices in groups.values():
        stack, most = [], 0
        for i in indices:
            most = max(most, amplitudes[i])
            if stack and (len(stack) + 1) * most > MAX_STACK_AMPLITUDES:
                yield stack
                stack, most = [], amplitudes[i]
            stack.append(i)
        yield stack


# ---------------------------------------------------------------------------
# many fits at once: grid search's (combination, fold) fits and train's row
# types

class FitJob(NamedTuple):
    """One model's training run for :func:`fit_all`: ``train`` and ``val``
    are ``(X, y)`` data sets (``val`` may be None), ``config`` holds one
    learning rate and one seed, and ``name``, the one name of the fit,
    heads its divergence and step-budget errors."""

    model: HybridModel
    train: object
    val: object
    config: TrainConfig
    name: str = ""


def fit_all(jobs: list) -> list:
    """Train every :class:`FitJob`; returns ``(trained model, history)`` per
    job, in job order, each job trained exactly as it would be alone.  This
    is the one training entry: a single fit is ``fit_all([job])[0]``.

    Jobs that share a model layout (circuit spec and head), batch
    size, epoch count and whether they have a validation set train in
    lockstep, in the :func:`_stacks` of their steps.  Each stack is one
    :func:`fit` call, looked up on the module, on :class:`StackedSet` rows
    that hold all of the stack's rows, so that a caller counting rows x
    epochs per fit call counts what the separate fits would.
    A job whose step would hold over MAX_STEP_BYTES is refused before any
    training.  A divergence is the :class:`DivergenceError` of the first
    stack that diverges, headed by the job's name, with ``index`` the job's
    place in ``jobs``.
    """
    amplitudes = [min(job.config.batch_size, len(_as_xy(job.train)[1]))
                  << job.model.spec.n_qubits for job in jobs]
    for job, amps in zip(jobs, amplitudes):
        # 16 B per complex128 amplitude
        step = amps * 16 * (STEP_STATE_BATCHES + job.model.spec.n_layers)
        if step > MAX_STEP_BYTES:
            raise ValueError(": ".join(filter(None, (
                job.name, f"a training step at batch_size = {job.config.batch_size} on "
                f"{job.model.spec.n_qubits} qubits would hold about {step / 2**30:.1f} GiB, "
                f"over the {MAX_STEP_BYTES / 2**30:g} GiB step budget; lower batch_size"))))
    results = [None] * len(jobs)
    for stack in _stacks([(_layout(job.model), job.config.batch_size, job.config.epochs,
                           job.val is None) for job in jobs], amplitudes):
        group = [jobs[i] for i in stack]
        config = TrainConfig(group[0].config.epochs,
                             tuple(job.config.learning_rate for job in group),
                             group[0].config.batch_size,
                             rng_seed=tuple(job.config.rng_seed for job in group))
        val = None if group[0].val is None else StackedSet.of([job.val for job in group])
        try:
            models, histories = fit([job.model for job in group],
                                    StackedSet.of([job.train for job in group]), val, config)
        except DivergenceError as exc:
            i = stack[exc.index]
            raise DivergenceError(": ".join(filter(None, (jobs[i].name, str(exc)))), i) from None
        for i, model, history in zip(stack, models, histories):
            results[i] = (model, history)
    return results
