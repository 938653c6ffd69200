"""Row-type dependent data pipeline: partitioning, cleaning, encoding, class
consolidation, PCA, angle scaling and SMOTE augmentation.

Raw cells are strings (or None for missing) as read from CSV; numeric Python
values are accepted too for programmatic fixtures.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import asdict, dataclass, field
from datetime import datetime, date

import numpy as np

from .errors import AugmentationError, SchemaError, ShapeError, SplitError

log = logging.getLogger(__name__)

ANGLE_MAX = np.pi
PCA_COMPONENT_CAP = 16  # simulator register limit
_EPOCH = date(1970, 1, 1)


def _is_missing(cell) -> bool:
    if cell is None:
        return True
    if isinstance(cell, float) and np.isnan(cell):
        return True
    return isinstance(cell, str) and cell.strip() == ""


def _as_float(cell):
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return float(cell)
    try:
        return float(str(cell).strip())
    except ValueError:
        return None


def _non_finite(name: str, cells):
    """SchemaError for the first numeric cell of a column that parses to
    inf or nan (spellings such as ``inf``, ``nan`` or ``1e400``)."""
    for i, cell in enumerate(cells):
        v = None if _is_missing(cell) else _as_float(cell)
        if v is not None and not np.isfinite(v):
            return SchemaError(f"column {name!r}, row {i}: non-finite number {cell!r}")


def _as_days(cell, fmt):
    try:
        dt = datetime.strptime(str(cell).strip(), fmt)
    except ValueError:
        return None
    return float((dt.date() - _EPOCH).days)


@dataclass
class TabularDataset:
    """Rectangular raw table with a designated label column and, optionally,
    a row-type column.  ``label_column=None`` admits unlabeled prediction
    inputs."""

    column_names: list
    rows: list
    label_column: str = None
    row_type_column: str = None

    def __post_init__(self):
        width = len(self.column_names)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise SchemaError(f"row {i} has {len(row)} cells, expected {width}")
        if self.label_column is not None and \
                self.label_column not in self.column_names:
            raise SchemaError(f"label column {self.label_column!r} not present")
        if self.row_type_column is not None and \
                self.row_type_column not in self.column_names:
            raise SchemaError(f"row-type column {self.row_type_column!r} not present")

    def col_index(self, name: str) -> int:
        try:
            return self.column_names.index(name)
        except ValueError:
            raise SchemaError(f"column {name!r} not present") from None

    def column(self, name: str) -> list:
        i = self.col_index(name)
        return [row[i] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def take(self, idx) -> "TabularDataset":
        """The rows at ``idx``, in that order, as a new table."""
        return TabularDataset(list(self.column_names), [self.rows[i] for i in idx],
                              self.label_column, self.row_type_column)


def load_csv(path, label_column: str, row_type_column: str = None) -> TabularDataset:
    """Read a CSV with a header row; empty cells become missing."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = [[c if c.strip() != "" else None for c in row] for row in reader]
    return TabularDataset(header, rows, label_column, row_type_column)


def load_row_type_map(path) -> dict:
    """Parse a ``code = row_type`` mapping file; '#' starts a comment."""
    mapping = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'code = row_type'")
            code, row_type = (part.strip() for part in line.split("=", 1))
            mapping[code] = row_type
    return mapping


def row_type_codes(data: TabularDataset, column: str) -> list:
    """The stripped code in ``column`` of every row, "" where it is missing."""
    idx = data.col_index(column)
    return ["" if _is_missing(row[idx]) else str(row[idx]).strip() for row in data.rows]


def partition_by_row_type(data: TabularDataset, code_map: dict = None) -> dict:
    """Split rows into one TabularDataset per row type.

    ``code_map`` groups raw codes into row types; without it the raw column
    values are the types.  An unmapped code raises SchemaError.
    """
    if data.row_type_column is None:
        raise SchemaError("dataset has no row-type column")
    buckets = {}
    for i, code in enumerate(row_type_codes(data, data.row_type_column)):
        if code_map is not None and code not in code_map:
            raise SchemaError(f"unknown row-type code {code!r}")
        row_type = code if code_map is None else code_map[code]
        buckets.setdefault(row_type, []).append(i)
    return {rt: data.take(idx) for rt, idx in buckets.items()}


def drop_inapplicable_columns(data: TabularDataset, exclude) -> TabularDataset:
    """Remove the listed columns; absent names are ignored with a log entry."""
    exclude = set(exclude)
    missing = exclude - set(data.column_names)
    for name in sorted(missing):
        log.info("exclusion list column %r not present, ignored", name)
    keep = [i for i, name in enumerate(data.column_names) if name not in exclude]
    return TabularDataset(
        [data.column_names[i] for i in keep],
        [[row[i] for i in keep] for row in data.rows],
        data.label_column,
        data.row_type_column,
    )


def missing_fractions(data: TabularDataset) -> dict:
    n = max(len(data), 1)
    out = {}
    for j, name in enumerate(data.column_names):
        out[name] = sum(_is_missing(row[j]) for row in data.rows) / n
    return out


def drop_high_missing(data: TabularDataset, threshold: float = 0.70):
    """Drop columns whose missing fraction exceeds the threshold.

    Returns (dataset, [(column, fraction), ...]) for the dropped columns.
    The label and row-type columns are never dropped.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    fractions = missing_fractions(data)
    protected = {data.label_column, data.row_type_column}
    dropped = [(name, frac) for name, frac in fractions.items()
               if frac > threshold and name not in protected]
    return drop_inapplicable_columns(data, [name for name, _ in dropped]), dropped


# ---------------------------------------------------------------------------
# encoding

@dataclass
class ColumnSpec:
    """Fitted treatment of one raw column."""

    name: str
    kind: str                  # numeric | date | categorical
    median: float = None
    categories: list = None    # categorical only; encoded + trailing 'missing'


@dataclass
class ColumnEncoder:
    """Median imputation for numeric/date columns, one-hot with an explicit
    missing category for categoricals.  A numeric cell that parses to inf or
    nan makes ``fit`` and ``transform`` raise SchemaError naming the column
    and the row (counted from 0 within the table given)."""

    date_format: str = None
    columns: list = field(default_factory=list)

    def fit(self, data: TabularDataset) -> "ColumnEncoder":
        self.columns = []
        skip = {data.label_column, data.row_type_column}
        for name in data.column_names:
            if name in skip:
                continue
            cells = data.column(name)
            present = [c for c in cells if not _is_missing(c)]
            if not present:
                log.info("column %r is entirely missing, dropped", name)
                continue
            floats = [_as_float(c) for c in present]
            if all(v is not None for v in floats):
                if not np.all(np.isfinite(floats)):
                    raise _non_finite(name, cells)
                self.columns.append(ColumnSpec(name, "numeric",
                                               median=float(np.median(floats))))
                continue
            if self.date_format:
                days = [_as_days(c, self.date_format) for c in present]
                if all(v is not None for v in days):
                    self.columns.append(ColumnSpec(name, "date",
                                                   median=float(np.median(days))))
                    continue
            cats = sorted({str(c).strip() for c in present})
            self.columns.append(ColumnSpec(name, "categorical", categories=cats))
        return self

    def transform(self, data: TabularDataset) -> np.ndarray:
        missing_cols = [s.name for s in self.columns
                        if s.name not in data.column_names]
        if missing_cols:
            raise SchemaError(f"missing columns: {missing_cols}")
        n = len(data)
        blocks = []
        for spec in self.columns:
            cells = data.column(spec.name)
            if spec.kind in ("numeric", "date"):
                col = np.empty(n)
                for i, cell in enumerate(cells):
                    v = None
                    if not _is_missing(cell):
                        v = (_as_float(cell) if spec.kind == "numeric"
                             else _as_days(cell, self.date_format))
                    col[i] = spec.median if v is None else v
                if not np.all(np.isfinite(col)):
                    raise _non_finite(spec.name, cells)
                blocks.append(col[:, None])
            else:
                width = len(spec.categories) + 1
                block = np.zeros((n, width))
                index = {c: j for j, c in enumerate(spec.categories)}
                for i, cell in enumerate(cells):
                    if _is_missing(cell):
                        block[i, -1] = 1.0
                    else:
                        j = index.get(str(cell).strip())
                        if j is None:
                            log.info("unseen category %r in %r treated as missing",
                                     cell, spec.name)
                            block[i, -1] = 1.0
                        else:
                            block[i, j] = 1.0
                blocks.append(block)
        if not blocks:
            raise SchemaError("no usable feature columns")
        return np.hstack(blocks)


def _label_strings(values) -> list:
    labels = [str(v).strip() if not _is_missing(v) else None for v in values]
    if any(v is None for v in labels):
        raise SchemaError("missing value in the label column")
    return labels


def encode_labels(values, class_names=None):
    """Map raw label cells to class indices; class names sort lexically."""
    labels = _label_strings(values)
    if class_names is None:
        class_names = sorted(set(labels))
    index = {name: i for i, name in enumerate(class_names)}
    try:
        y = np.array([index[v] for v in labels], dtype=np.int64)
    except KeyError as exc:
        raise SchemaError(f"unknown class label {exc.args[0]!r}") from None
    return y, list(class_names)


@dataclass
class RowTypeDataset:
    """Numeric matrix plus class indices for one row type."""

    row_type: str
    X: np.ndarray
    y: np.ndarray
    class_names: list

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2 or len(self.X) != len(self.y):
            raise ShapeError(f"inconsistent shapes {self.X.shape} / {self.y.shape}")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("X must be finite")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= len(self.class_names)):
            raise ValueError("labels out of range")

    def class_counts(self) -> dict:
        counts = np.bincount(self.y, minlength=len(self.class_names))
        return {name: int(c) for name, c in zip(self.class_names, counts)}


def impute_and_encode(data: TabularDataset, row_type: str = "",
                      date_format: str = None) -> RowTypeDataset:
    """Fit-and-transform convenience for a single table."""
    encoder = ColumnEncoder(date_format).fit(data)
    X = encoder.transform(data)
    y, class_names = encode_labels(data.column(data.label_column))
    return RowTypeDataset(row_type, X, y, class_names)


def merge_labels(labels, merges, classes):
    """Apply ``(from, into)`` class merges in order to label strings.

    ``classes`` is the class set before the first merge.  Each pair must name
    classes of the set as it stands at that point in the chain (SchemaError
    otherwise), and ``from`` then leaves it.  Returns the merged labels and
    the classes left, in the order given."""
    classes = list(classes)
    into = {}
    for src, dst in merges:
        for name in (src, dst):
            if name not in classes:
                raise SchemaError(f"merge {src}->{dst}: unknown class {name!r}; "
                                  f"classes are {', '.join(classes)}")
        if src != dst:
            classes.remove(src)
            into = {old: dst if new == src else new for old, new in into.items()}
            into[src] = dst
    return [into.get(v, v) for v in labels], classes


def merge_minority_class(ds: RowTypeDataset, from_class: str,
                         into_class: str) -> RowTypeDataset:
    """Relabel every ``from_class`` row as ``into_class``."""
    names, remaining = merge_labels(ds.class_names, [(from_class, into_class)],
                                    ds.class_names)
    index = {name: i for i, name in enumerate(remaining)}
    remap = np.array([index[name] for name in names], dtype=np.int64)
    return RowTypeDataset(ds.row_type, ds.X, remap[ds.y], remaining)


# ---------------------------------------------------------------------------
# PCA

@dataclass
class PCAModel:
    mean: np.ndarray
    components: np.ndarray         # (k, d), rows orthonormal
    explained_variance: np.ndarray  # (k,), descending

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.components = np.asarray(self.components, dtype=np.float64)
        self.explained_variance = np.asarray(self.explained_variance, dtype=np.float64)


def pca_fit(X, k: int) -> PCAModel:
    """Top-k eigenvectors of the sample covariance of mean-centered data."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not 1 <= k <= min(n - 1, d):
        raise ValueError(f"k must be in [1, {min(n - 1, d)}], got {k}")
    mean = X.mean(axis=0)
    xc = X - mean
    cov = (xc.T @ xc) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:k]
    components = eigvecs[:, order].T
    # deterministic sign: largest-magnitude entry of each component positive
    for row in components:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    variance = np.clip(eigvals[order], 0.0, None)
    return PCAModel(mean, components, variance)


def pca_transform(model: PCAModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != model.mean.shape[0]:
        raise ShapeError(
            f"expected {model.mean.shape[0]} columns, got {X.shape[-1]}"
        )
    return (X - model.mean) @ model.components.T


def pca_inverse(model: PCAModel, Z) -> np.ndarray:
    Z = np.asarray(Z, dtype=np.float64)
    return Z @ model.components + model.mean


def select_components(model: PCAModel, requested: int, cap: int = PCA_COMPONENT_CAP) -> int:
    """Clamp the requested component count to the cap and availability."""
    if cap < 1:
        raise ValueError("cap must be >= 1")
    applied = min(requested, cap, len(model.explained_variance))
    if applied != requested:
        log.info("PCA components clamped: requested %d, applied %d", requested, applied)
    return applied


# ---------------------------------------------------------------------------
# angle scaling

@dataclass
class ScaleBounds:
    mins: np.ndarray
    maxs: np.ndarray


def scale_to_angle_range(X):
    """Affinely map each column to [0, pi] by its training min/max.

    Constant columns map to pi/2.  Returns (X_scaled, bounds); reuse the bounds
    on validation/test/predict data via :func:`apply_angle_scaling`.
    """
    X = np.asarray(X, dtype=np.float64)
    bounds = ScaleBounds(X.min(axis=0), X.max(axis=0))
    return apply_angle_scaling(X, bounds), bounds


def apply_angle_scaling(X, bounds: ScaleBounds) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape[-1] != bounds.mins.shape[0]:
        raise ShapeError("column count does not match the stored bounds")
    span = bounds.maxs - bounds.mins
    out = np.empty_like(X)
    constant = span == 0
    out[:, constant] = ANGLE_MAX / 2.0
    nc = ~constant
    out[:, nc] = (X[:, nc] - bounds.mins[nc]) / span[nc] * ANGLE_MAX
    return np.clip(out, 0.0, ANGLE_MAX)


# ---------------------------------------------------------------------------
# SMOTE

def smote_oversample(ds: RowTypeDataset, k_neighbors: int, seed: int) -> RowTypeDataset:
    """Grow every minority class to the majority count by interpolating between
    same-class nearest neighbors: s = x_i + lam * (x_nn - x_i), lam ~ U[0, 1].

    Originals are preserved; synthetics are appended grouped by class index.
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    rng = np.random.default_rng(seed)
    counts = np.bincount(ds.y, minlength=len(ds.class_names))
    majority = counts.max() if len(counts) else 0
    new_X, new_y = [ds.X], [ds.y]
    for c in range(len(ds.class_names)):
        count = int(counts[c])
        need = majority - count
        if need <= 0 or count == 0:
            continue
        if count < 2:
            raise AugmentationError(
                f"class {ds.class_names[c]!r} has a single sample, cannot oversample"
            )
        Xc = ds.X[ds.y == c]
        k = min(k_neighbors, count - 1)
        d2 = np.sum((Xc[:, None, :] - Xc[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k]
        base = rng.integers(0, count, size=need)
        pick = rng.integers(0, k, size=need)
        lam = rng.uniform(0.0, 1.0, size=need)
        nn_idx = neighbors[base, pick]
        synth = Xc[base] + lam[:, None] * (Xc[nn_idx] - Xc[base])
        new_X.append(synth)
        new_y.append(np.full(need, c, dtype=np.int64))
    return RowTypeDataset(ds.row_type, np.vstack(new_X), np.concatenate(new_y),
                          list(ds.class_names))


# ---------------------------------------------------------------------------
# splitting

MIN_EVAL_FRACTION = 0.05


def _largest_remainder(n: int, fractions) -> list:
    exact = [n * f for f in fractions]
    base = [int(np.floor(v)) for v in exact]
    short = n - sum(base)
    remainders = sorted(range(len(fractions)),
                        key=lambda i: (-(exact[i] - base[i]), i))
    for i in remainders[:short]:
        base[i] += 1
    return base


def check_split_fractions(fractions) -> list:
    """The train, validation and test fractions as floats, or SplitError if
    ``stratified_split_indices`` cannot split by them."""
    fractions = [float(f) for f in fractions]
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):
        raise SplitError("need three nonnegative fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError("fractions must sum to 1")
    if fractions[0] <= 0:
        raise SplitError("train fraction must be positive")
    if fractions[1] < MIN_EVAL_FRACTION or fractions[2] < MIN_EVAL_FRACTION:
        raise SplitError(
            f"validation and test fractions must be >= {MIN_EVAL_FRACTION}"
        )
    return fractions


def stratified_split_indices(y, fractions, seed: int, class_names=None):
    """Three disjoint index arrays covering range(len(y)), stratified by label.

    Global sizes follow largest-remainder rounding of the fractions; per-class
    allocations are largest-remainder too, nudged to match the global sizes.
    Errors name a class by ``class_names[label]`` when given, else by label.
    """
    y = np.asarray(y, dtype=np.int64)
    fractions = check_split_fractions(fractions)
    n = len(y)
    classes = np.unique(y)
    for c in classes:
        if np.sum(y == c) < 3:
            name = int(c) if class_names is None else class_names[c]
            raise SplitError(f"class {name!r} has fewer rows than splits")
    targets = _largest_remainder(n, fractions)
    quotas = {}
    for c in classes:
        quotas[int(c)] = _largest_remainder(int(np.sum(y == c)), fractions)
    # nudge per-class quotas so the split totals hit the global targets
    sums = [sum(q[s] for q in quotas.values()) for s in range(3)]
    while sums != targets:
        s_over = next(s for s in range(3) if sums[s] > targets[s])
        s_under = next(s for s in range(3) if sums[s] < targets[s])
        donor = max((c for c in quotas if quotas[c][s_over] > 0),
                    key=lambda c: (quotas[c][s_over], -c))
        quotas[donor][s_over] -= 1
        quotas[donor][s_under] += 1
        sums[s_over] -= 1
        sums[s_under] += 1
    rng = np.random.default_rng(seed)
    parts = [[], [], []]
    for c in classes:
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        a, b, _ = quotas[int(c)]
        parts[0].extend(idx[:a])
        parts[1].extend(idx[a:a + b])
        parts[2].extend(idx[a + b:])
    return tuple(np.sort(np.array(p, dtype=np.int64)) for p in parts)


def split_train_val_test(ds: RowTypeDataset, fractions, seed: int):
    """Seeded stratified split into three RowTypeDatasets."""
    tr, va, te = stratified_split_indices(ds.y, fractions, seed, ds.class_names)
    make = lambda idx: RowTypeDataset(ds.row_type, ds.X[idx], ds.y[idx],
                                      list(ds.class_names))
    return make(tr), make(va), make(te)


# ---------------------------------------------------------------------------
# fitted per-row-type pipeline

@dataclass
class PreprocessReport:
    """Audit trail of what the pipeline did to one row type."""

    row_type: str
    dropped_columns: dict = field(default_factory=dict)   # name -> missing fraction
    merged_classes: list = field(default_factory=list)    # [from, into] pairs
    requested_components: int = 0
    applied_components: int = 0
    counts_before_smote: dict = field(default_factory=dict)
    counts_after_smote: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RowTypePipeline:
    """Everything fitted on training data, replayable on new data."""

    row_type: str
    exclude_columns: list
    dropped_missing: list           # column names dropped by the threshold rule
    merges: list                    # [(from, into), ...] applied in order
    class_names: list
    encoder: ColumnEncoder
    pca: PCAModel
    n_components: int
    bounds: ScaleBounds
    label_column: str = None
    row_type_column: str = None

    @classmethod
    def fit(cls, raw: TabularDataset, row_type: str, *, seed: int, components: int,
            width: int, split_fractions, missing_threshold: float = 0.70,
            exclude_columns=(), merges=(), date_format: str = None):
        """Fit one row type's preprocessing on its table.

        Drops the excluded and the high-missing columns, merges classes in
        order (SchemaError if fewer than two classes are left), splits
        stratified by the merged labels, and fits the encoder,
        the PCA, the component count (``components`` requested, at most
        ``width`` applied) and the angle scaling on the training split.
        Returns ``(pipeline, report, train, val, test)``, with val and test
        replayed through the fitted pipeline."""
        data = drop_inapplicable_columns(raw, exclude_columns)
        data, dropped = drop_high_missing(data, missing_threshold)

        labels = _label_strings(data.column(data.label_column))
        merged, left = merge_labels(labels, merges, sorted(set(labels)))
        if len(left) < 2:
            chain = "; ".join(f"{src}->{dst}" for src, dst in merges)
            held = f"merges {chain} leave" if merges else "the labels hold"
            raise SchemaError(f"{held} one class, {left[0]!r}; a model needs at least two")
        y, class_names = encode_labels(merged)
        tr, va, te = stratified_split_indices(y, split_fractions, seed, class_names)

        train = data.take(tr)
        encoder = ColumnEncoder(date_format).fit(train)
        X = encoder.transform(train)
        n, d = X.shape
        pca = pca_fit(X, min(max(components, width), n - 1, d))
        applied = select_components(pca, components, cap=width)
        Z, bounds = scale_to_angle_range(pca_transform(pca, X)[:, :applied])

        pipe = cls(row_type, list(exclude_columns), [name for name, _ in dropped],
                   list(merges), class_names, encoder, pca, applied, bounds,
                   data.label_column, data.row_type_column)
        report = PreprocessReport(row_type, dict(dropped), list(merges), components, applied)
        return (pipe, report, RowTypeDataset(row_type, Z, y[tr], class_names),
                pipe.transform(data.take(va)), pipe.transform(data.take(te)))

    def transform_features(self, data: TabularDataset) -> np.ndarray:
        """Replay drops, encoding, PCA projection and angle scaling.

        Only the columns present are dropped: an absent exclusion was logged
        when the pipeline was fitted, and is not logged again per replay."""
        drop = set(self.exclude_columns) | set(self.dropped_missing)
        data = drop_inapplicable_columns(data, drop & set(data.column_names))
        X = self.encoder.transform(data)
        z = pca_transform(self.pca, X)[:, :self.n_components]
        return apply_angle_scaling(z, self.bounds)

    def transform(self, data: TabularDataset) -> RowTypeDataset:
        """Features plus encoded labels (requires the label column).

        The merges are replayed on the raw labels and checked against the
        fitted classes, so a table without a merged-away class replays too."""
        z = self.transform_features(data)
        labels = _label_strings(data.column(data.label_column or self.label_column))
        fitted = [*self.class_names, *(src for src, _ in self.merges)]
        merged, _ = merge_labels(labels, self.merges, fitted)
        y, _ = encode_labels(merged, class_names=self.class_names)
        return RowTypeDataset(self.row_type, z, y, list(self.class_names))

    def to_dict(self) -> dict:
        return {
            "row_type": self.row_type,
            "exclude_columns": list(self.exclude_columns),
            "dropped_missing": list(self.dropped_missing),
            "merges": [list(m) for m in self.merges],
            "class_names": list(self.class_names),
            "date_format": self.encoder.date_format,
            "encoder_columns": [
                {"name": s.name, "kind": s.kind, "median": s.median,
                 "categories": s.categories}
                for s in self.encoder.columns
            ],
            "pca_mean": self.pca.mean.tolist(),
            "pca_components": self.pca.components.tolist(),
            "pca_explained_variance": self.pca.explained_variance.tolist(),
            "n_components": self.n_components,
            "scale_mins": self.bounds.mins.tolist(),
            "scale_maxs": self.bounds.maxs.tolist(),
            "label_column": self.label_column,
            "row_type_column": self.row_type_column,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RowTypePipeline":
        encoder = ColumnEncoder(doc.get("date_format"))
        encoder.columns = [
            ColumnSpec(c["name"], c["kind"], c.get("median"), c.get("categories"))
            for c in doc["encoder_columns"]
        ]
        return cls(
            row_type=doc["row_type"],
            exclude_columns=list(doc["exclude_columns"]),
            dropped_missing=list(doc["dropped_missing"]),
            merges=[tuple(m) for m in doc["merges"]],
            class_names=list(doc["class_names"]),
            encoder=encoder,
            pca=PCAModel(np.array(doc["pca_mean"]),
                         np.array(doc["pca_components"]),
                         np.array(doc["pca_explained_variance"])),
            n_components=int(doc["n_components"]),
            bounds=ScaleBounds(np.array(doc["scale_mins"]),
                               np.array(doc["scale_maxs"])),
            label_column=doc.get("label_column"),
            row_type_column=doc.get("row_type_column"),
        )
