"""Row-type dependent data pipeline: partitioning, cleaning, encoding, class
consolidation, PCA, angle scaling and SMOTE augmentation.

A cell is stripped text, or ``None`` where it is missing; only
:meth:`TabularDataset.from_rows` cleans raw cells, and the rest read them as is.
"""
from __future__ import annotations

import csv
import logging
from dataclasses import MISSING, asdict, dataclass, field, replace
from datetime import datetime, date
from itertools import repeat
from operator import itemgetter

import numpy as np

from .errors import (AugmentationError, SchemaError, ShapeError, SplitError, json_dataclass,
                     json_field, utf8_file)

log = logging.getLogger(__name__)

ANGLE_MAX = np.pi
_EPOCH = date(1970, 1, 1)


def _as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _parse_column(cells, fill=None, parse=_as_float):
    """Each cell parsed, ``fill`` where it is missing or does not parse; None,
    from the first cell that does not parse, when there is no ``fill`` (and
    so no cell may be missing)."""
    if fill is not None:
        return _imputed(cells, fill, parse)[0]
    if parse is _as_float:
        try:
            return np.fromiter(map(float, cells), float)
        except ValueError:
            return None
    values = []
    for v in map(parse, cells):
        if v is None:
            return None
        values.append(v)
    return np.array(values, float)


def _imputed(cells, fill, parse=_as_float):
    """Each cell parsed, ``fill`` where it is missing or does not parse, and
    the count of present cells that do not parse."""
    if parse is _as_float:
        try:
            return np.fromiter(map(float, [fill if c is None else c for c in cells]), float), 0
        except ValueError:
            pass
    values = [None if c is None else parse(c) for c in cells]
    return (np.array([fill if v is None else v for v in values], float),
            values.count(None) - cells.count(None))


def _non_finite(name: str, cells, rows=None):
    """SchemaError for the first numeric cell of a column that parses to
    inf or nan (spellings such as ``inf``, ``nan`` or ``1e400``), naming the
    cell's row as ``rows`` gives it (by default its index)."""
    i = int(np.flatnonzero(~np.isfinite(_parse_column(cells, 0.0)))[0])
    return SchemaError(f"column {name!r}, row {i if rows is None else rows[i]}: "
                       f"non-finite number {cells[i]!r}")


@dataclass
class TabularDataset:
    """Rectangular table held as columns, with a designated label column
    and, optionally, a row-type column.  ``label_column=None`` admits unlabeled
    prediction inputs.  Each cell is stripped text, or ``None`` where it is
    missing (see :meth:`from_rows`); column names are unique (SchemaError
    naming a repeated one).  A table with no columns keeps its row count."""

    column_names: list
    columns: list
    n_rows: int
    label_column: str = None
    row_type_column: str = None

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            dup = next(n for n in self.column_names if self.column_names.count(n) > 1)
            raise SchemaError(f"duplicate column {dup!r}")
        if self.label_column is not None and \
                self.label_column not in self.column_names:
            raise SchemaError(f"label column {self.label_column!r} not present")
        if self.row_type_column is not None and \
                self.row_type_column not in self.column_names:
            raise SchemaError(f"row-type column {self.row_type_column!r} not present")

    @classmethod
    def from_rows(cls, names, rows, label_column: str = None,
                  row_type_column: str = None) -> "TabularDataset":
        """The table of raw ``rows`` (lists of one ``str`` per name), each cell
        stripped by ``str.strip`` and ``None`` where that leaves it empty."""
        width = len(names)
        if not set(map(len, rows)) <= {width}:
            i, row = next((i, r) for i, r in enumerate(rows) if len(r) != width)
            raise SchemaError(f"row {i} has {len(row)} cells, expected {width}")
        columns = [list(map(str.strip, map(itemgetter(j), rows))) for j in range(width)]
        columns = [col if all(col) else [c or None for c in col] for col in columns]
        return cls(list(names), columns, len(rows), label_column, row_type_column)

    def column(self, name: str) -> list:
        """Column ``name``'s cells: the table's own list, read-only."""
        try:
            return self.columns[self.column_names.index(name)]
        except ValueError:
            raise SchemaError(f"column {name!r} not present") from None

    def __len__(self) -> int:
        return self.n_rows

    def take(self, idx) -> "TabularDataset":
        """The rows at ``idx``, in that order, as a new table."""
        return replace(self, columns=[list(map(col.__getitem__, idx)) for col in self.columns],
                       n_rows=len(idx))


def load_csv(path, label_column: str, row_type_column: str = None) -> TabularDataset:
    """Read a CSV with a header row into a table of cleaned cells (see
    :meth:`TabularDataset.from_rows`), refused once built if it has no rows.
    The file is UTF-8, and a leading byte-order mark is skipped.  A line the
    CSV reader cannot parse, or a byte that is not UTF-8, is refused with its
    file and line."""
    with open(path, newline="", encoding="utf-8-sig") as fh, utf8_file(path):
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = list(reader)
        except csv.Error as exc:
            raise SchemaError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise SchemaError(f"{path}: empty file")
    data = TabularDataset.from_rows(header, rows, label_column, row_type_column)
    if not len(data):
        raise SchemaError(f"{path}: no data rows")
    return data


def load_row_type_map(path) -> dict:
    """Parse a UTF-8 ``code = row_type`` mapping file, skipping a leading
    byte-order mark; '#' starts a comment.  A byte that is not UTF-8 is
    refused with its file and line."""
    mapping = {}
    with open(path, encoding="utf-8-sig") as fh, utf8_file(path):
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SchemaError(f"{path}:{lineno}: expected 'code = row_type'")
            code, row_type = (part.strip() for part in line.split("=", 1))
            if not row_type:
                raise SchemaError(f"{path}:{lineno}: code {code!r} has an empty row type")
            if mapping.setdefault(code, row_type) != row_type:
                raise SchemaError(f"{path}:{lineno}: code {code!r} maps to {row_type!r}, "
                                  f"but an earlier line maps it to {mapping[code]!r}")
    return mapping


def route_rows(data: TabularDataset, column: str, code_map: dict = None) -> dict:
    """Row type -> its row indices, in row order.  A row's code is its cell in
    ``column``, "" where missing; ``code_map`` groups codes into row types,
    and a code it does not map is a row type of its own."""
    codes = [c or "" for c in data.column(column)]
    if code_map is not None:
        codes = map(code_map.get, codes, codes)
    routes = {}
    for i, row_type in enumerate(codes):
        routes.setdefault(row_type, []).append(i)
    return routes


def partition_by_row_type(data: TabularDataset, code_map: dict = None) -> dict:
    """One TabularDataset per row type of :func:`route_rows`; with a
    ``code_map``, SchemaError names the first code in row order that it does
    not map."""
    if data.row_type_column is None:
        raise SchemaError("dataset has no row-type column")
    if code_map is not None:
        for code in data.column(data.row_type_column):
            if (code or "") not in code_map:
                raise SchemaError(f"unknown row-type code {code or ''!r}")
    return {rt: data.take(idx)
            for rt, idx in route_rows(data, data.row_type_column, code_map).items()}


def drop_inapplicable_columns(data: TabularDataset, exclude) -> TabularDataset:
    """Remove the listed columns; absent names are ignored with a log entry."""
    exclude = set(exclude)
    missing = exclude - set(data.column_names)
    for name in sorted(missing):
        log.info("exclusion list column %r not present, ignored", name)
    keep = [i for i, name in enumerate(data.column_names) if name not in exclude]
    return replace(data, column_names=[data.column_names[i] for i in keep],
                   columns=[data.columns[i] for i in keep])


def missing_fractions(data: TabularDataset) -> dict:
    n = max(len(data), 1)
    return {name: data.column(name).count(None) / n for name in data.column_names}


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


# each column kind -> the ColumnSpec field it is encoded by
_COLUMN_KINDS = {"numeric": "median", "date": "median", "categorical": "categories"}


@dataclass
class ColumnEncoder:
    """Median imputation for numeric/date columns, one-hot with an explicit
    missing category for categoricals.  A numeric cell that parses to inf or
    nan makes ``fit`` and ``transform`` raise SchemaError naming the column
    and the row (counted from 0 within the table given, or as ``transform``'s
    ``rows`` numbers them)."""

    date_format: str = None
    columns: list = field(default_factory=list)

    def fit(self, data: TabularDataset) -> "ColumnEncoder":
        self.columns = []
        skip = {data.label_column, data.row_type_column}
        for name in data.column_names:
            if name in skip:
                continue
            cells = data.column(name)
            present = [c for c in cells if c is not None]
            if not present:
                log.info("column %r is entirely missing, dropped", name)
                continue
            floats = _parse_column(present)
            if floats is not None:
                if not np.all(np.isfinite(floats)):
                    raise _non_finite(name, cells)
                self.columns.append(ColumnSpec(name, "numeric",
                                               median=float(np.median(floats))))
                continue
            if self.date_format:
                days = _parse_column(present, parse=self._as_days)
                if days is not None:
                    self.columns.append(ColumnSpec(name, "date",
                                                   median=float(np.median(days))))
                    continue
            cats = sorted(set(present))
            self.columns.append(ColumnSpec(name, "categorical", categories=cats))
        return self

    def _as_days(self, cell: str):
        try:
            dt = datetime.strptime(cell, self.date_format)
        except ValueError:
            return None
        return float((dt.date() - _EPOCH).days)

    def transform(self, data: TabularDataset, rows=None) -> np.ndarray:
        missing_cols = [s.name for s in self.columns
                        if s.name not in data.column_names]
        if missing_cols:
            raise SchemaError(f"missing columns: {missing_cols}")
        n = len(data)
        blocks = []
        for spec in self.columns:
            cells = data.column(spec.name)
            if spec.kind in ("numeric", "date"):
                parse = _as_float if spec.kind == "numeric" else self._as_days
                col, unparsed = _imputed(cells, spec.median, parse)
                if not np.all(np.isfinite(col)):
                    raise _non_finite(spec.name, cells, rows)
                if unparsed:
                    log.info("non-%s values in %d of %d cells of %r treated as missing",
                             spec.kind, unparsed, n, spec.name)
                blocks.append(col[:, None])
            else:
                index = {c: j for j, c in enumerate(spec.categories)}
                js = list(map(index.get, cells, repeat(len(index))))  # last: missing
                unseen = js.count(len(index)) - cells.count(None)
                if unseen:
                    log.info("unseen categories in %d of %d cells of %r treated as missing",
                             unseen, n, spec.name)
                block = np.zeros((n, len(index) + 1))
                block[np.arange(n), js] = 1.0
                blocks.append(block)
        if not blocks:
            raise SchemaError("no usable feature columns")
        return np.hstack(blocks)


def _label_strings(values) -> list:
    if None in values:
        raise SchemaError("missing value in the label column")
    return values


def encode_labels(values, class_names=None):
    """Map label cells to class indices; class names sort lexically."""
    labels = _label_strings(values)
    if class_names is None:
        class_names = sorted(set(labels))
    index = {name: i for i, name in enumerate(class_names)}
    try:
        y = np.fromiter(map(index.__getitem__, labels), np.int64, len(labels))
    except KeyError as exc:
        raise SchemaError(f"unknown class label {exc.args[0]!r}") from None
    return y, list(class_names)


@dataclass
class RowTypeDataset:
    """Numeric matrix plus class indices for one row type."""

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
    return RowTypeDataset(ds.X, remap[ds.y], remaining)


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
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = X.mean(axis=0)
        xc = X - mean
        cov = (xc.T @ xc) / (n - 1)
    if not np.all(np.isfinite(cov)):
        raise ValueError("feature values too large for PCA: their covariance overflows")
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


def select_components(model: PCAModel, requested: int, cap: int) -> int:
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

# one block of a class's neighbour search holds the (rows, class size) squared
# distances of at most this many float64s (8 MB); from 8 features on, numpy's
# eight summation lanes keep eight such blocks alive
SMOTE_BLOCK_ELEMENTS = 1 << 20


def smote_neighbors(ds: RowTypeDataset, k_neighbors: int) -> list:
    """SMOTE's neighbour table for ``ds``: per class index, the (count, k)
    indices, within the class's rows, of each row's k nearest same-class
    rows, nearest first and ties in row order, with
    k = min(k_neighbors, count - 1); None for a class that
    :func:`smote_oversample` does not grow (the largest and absent ones).

    The table depends only on the rows, not on a seed, so one table serves
    every draw from the same rows.  Squared distances are taken a block of
    rows at a time, at most SMOTE_BLOCK_ELEMENTS per block, with the bits of
    ``np.sum`` over the (c, c, d) difference tensor (see
    :func:`_squared_distances`), and each row's k nearest are those of its
    stable argsort (see :func:`_nearest`).
    """
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    counts = np.bincount(ds.y, minlength=len(ds.class_names)).tolist()
    majority = max(counts, default=0)
    table = []
    for c, count in enumerate(counts):
        if count in (0, majority):
            table.append(None)
            continue
        if count < 2:
            raise AugmentationError(
                f"class {ds.class_names[c]!r} has a single sample, cannot oversample"
            )
        Xc = ds.X[ds.y == c]
        columns = np.ascontiguousarray(Xc.T)
        neighbors = np.empty((count, min(k_neighbors, count - 1)), dtype=np.intp)
        step = max(1, SMOTE_BLOCK_ELEMENTS // count)
        for start in range(0, count, step):
            d2 = _squared_distances(Xc[start:start + step], columns)
            own = np.arange(len(d2))
            d2[own, start + own] = np.inf
            neighbors[start:start + step] = _nearest(d2, neighbors.shape[1])
        table.append(neighbors)
    return table


def _squared_distances(rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """``np.sum((rows[:, None, :] - X[None, :, :]) ** 2, axis=2)`` for the
    (d, c) array ``columns`` = ``X.T``, without the (rows, c, d) tensor: the
    d squares are added one feature at a time in numpy's pairwise summation
    order (below 8 features left to right; from 8 on into eight lanes, which
    are combined pairwise before the rest is added; exact up to 128)."""
    def square(j):
        diff = np.subtract.outer(rows[:, j], columns[j])
        return np.square(diff, out=diff)

    d = len(columns)
    width = 8 if d >= 8 else 1
    lanes = [square(j) for j in range(width)]
    tail = d - d % width
    for j in range(width, tail):
        lanes[j % width] += square(j)
    while len(lanes) > 1:  # ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        lanes = [np.add(a, b, out=a) for a, b in zip(lanes[::2], lanes[1::2])]
    for j in range(tail, d):
        lanes[0] += square(j)
    return lanes[0]


def _nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(d2, axis=1, kind="stable")[:, :k]`` without the full
    sort: a partition finds each row's k-th smallest value, and only the
    entries at or below it are sorted, by row and then value, stably, so
    that ties stay in column order."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
    rows, cols = np.nonzero(d2 <= kth)  # row-major: each row's columns in order
    order = np.lexsort((d2[rows, cols], rows))
    return cols[order][np.searchsorted(rows, np.arange(len(d2)))[:, None] + np.arange(k)]


def smote_oversample(ds: RowTypeDataset, k_neighbors: int, seed: int,
                     table: list = None) -> RowTypeDataset:
    """Grow every minority class to the majority count by interpolating between
    same-class nearest neighbors: s = x_i + lam * (x_nn - x_i), lam ~ U[0, 1].

    ``table`` is :func:`smote_neighbors`'s table for ``ds``, built here when
    not given.  Originals are preserved; synthetics are appended grouped by
    class index.
    """
    if table is None:
        table = smote_neighbors(ds, k_neighbors)
    rng = np.random.default_rng(seed)
    majority = max(np.bincount(ds.y, minlength=len(ds.class_names)).tolist(), default=0)
    new_X, new_y = [ds.X], [ds.y]
    for c, neighbors in enumerate(table):
        if neighbors is None:
            continue
        count, k = neighbors.shape
        need = majority - count
        Xc = ds.X[ds.y == c]
        base = rng.integers(0, count, size=need)
        pick = rng.integers(0, k, size=need)
        lam = rng.uniform(0.0, 1.0, size=need)
        nn_idx = neighbors[base, pick]
        synth = Xc[base] + lam[:, None] * (Xc[nn_idx] - Xc[base])
        new_X.append(synth)
        new_y.append(np.full(need, c, dtype=np.int64))
    return RowTypeDataset(np.vstack(new_X), np.concatenate(new_y), list(ds.class_names))


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
    part = np.empty(n, dtype=np.int64)
    for c in classes:
        idx = np.flatnonzero(y == c)
        part[idx[rng.permutation(len(idx))]] = np.repeat([0, 1, 2], quotas[int(c)])
    return tuple(np.flatnonzero(part == s) for s in range(3))


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
    row_type_codes: list = None     # the fitted rows' distinct codes, "" if missing

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

        codes = (None if raw.row_type_column is None else
                 sorted({code or "" for code in raw.column(raw.row_type_column)}))
        pipe = cls(row_type, list(exclude_columns), [name for name, _ in dropped],
                   list(merges), class_names, encoder, pca, applied, bounds,
                   data.label_column, data.row_type_column, codes)
        report = PreprocessReport(row_type, dict(dropped), list(merges), components, applied)
        return (pipe, report, RowTypeDataset(Z, y[tr], class_names),
                pipe.transform(data.take(va)), pipe.transform(data.take(te)))

    def transform_features(self, data: TabularDataset, rows=None) -> np.ndarray:
        """Replay encoding, PCA projection and angle scaling on a table's
        cells.  The encoder picks its columns by
        name, so the table may hold the dropped ones; an error names a row by
        its number in ``rows``, when given."""
        z = pca_transform(self.pca, self.encoder.transform(data, rows))[:, :self.n_components]
        return apply_angle_scaling(z, self.bounds)

    def transform(self, data: TabularDataset, rows=None) -> RowTypeDataset:
        """Features plus encoded labels (requires the label column).

        The merges are replayed on the raw labels and checked against the
        fitted classes, so a table without a merged-away class replays too."""
        z = self.transform_features(data, rows)
        labels = _label_strings(data.column(data.label_column or self.label_column))
        fitted = [*self.class_names, *(src for src, _ in self.merges)]
        merged, _ = merge_labels(labels, self.merges, fitted)
        y, _ = encode_labels(merged, class_names=self.class_names)
        return RowTypeDataset(z, y, list(self.class_names))

    def to_dict(self) -> dict:
        return {
            "row_type": self.row_type,
            "exclude_columns": list(self.exclude_columns),
            "dropped_missing": list(self.dropped_missing),
            "merges": [list(m) for m in self.merges],
            "class_names": list(self.class_names),
            "date_format": self.encoder.date_format,
            "encoder_columns": [asdict(s) for s in self.encoder.columns],
            "pca_mean": self.pca.mean.tolist(),
            "pca_components": self.pca.components.tolist(),
            "pca_explained_variance": self.pca.explained_variance.tolist(),
            "n_components": self.n_components,
            "scale_mins": self.bounds.mins.tolist(),
            "scale_maxs": self.bounds.maxs.tolist(),
            "label_column": self.label_column,
            "row_type_column": self.row_type_column,
            **({} if self.row_type_codes is None else
               {"row_type_codes": list(self.row_type_codes)}),
        }

    @classmethod
    def from_dict(cls, doc: dict, source: str = "pipeline document",
                  where: str = "") -> "RowTypePipeline":
        """The pipeline of :meth:`to_dict`'s document.  A missing or mistyped
        key or array element, a merge that is not a pair, an encoder column
        that does not match :class:`ColumnSpec` or repeats a category, or PCA,
        scaling and encoder widths that disagree with ``n_components`` or with
        each other, is a SchemaError naming ``source`` and the key or element,
        ``where`` its path."""
        def read(key, kind, default=MISSING):
            return json_field(doc, key, kind, source, where, default)

        def array(key, kind=float):
            return np.array(read(key, [kind]))

        nullable = (str, type(None))
        encoder = ColumnEncoder(read("date_format", nullable))
        for i, column in enumerate(read("encoder_columns", list)):
            path = f"{where}encoder_columns[{i}]"
            spec = json_dataclass(ColumnSpec, column, source, path)
            needs = _COLUMN_KINDS.get(spec.kind)
            if needs is None:
                raise SchemaError(f"{source}: {path + '.kind'!r} must be one of "
                                  f"{', '.join(_COLUMN_KINDS)}, not {spec.kind!r}")
            if getattr(spec, needs) is None:
                raise SchemaError(f"{source}: {path!r} is a {spec.kind} column "
                                  f"without {needs}")
            if spec.categories is not None:
                cats = json_field(column, "categories", [str], source, path + ".")
                if len(set(cats)) != len(cats):
                    raise SchemaError(f"{source}: {path + '.categories'!r} must hold "
                                      f"distinct names, not {cats}")
            encoder.columns.append(spec)
        merges = read("merges", [[str]])
        if merges and len(merges[0]) != 2:
            raise SchemaError(f"{source}: {where + 'merges[0]'!r} must hold 2 class "
                              f"names, not {len(merges[0])}")
        pipeline = cls(
            row_type=read("row_type", str),
            exclude_columns=read("exclude_columns", [str]),
            dropped_missing=read("dropped_missing", [str]),
            merges=[tuple(m) for m in merges],
            class_names=read("class_names", [str]),
            encoder=encoder,
            pca=PCAModel(array("pca_mean"), array("pca_components", [float]),
                         array("pca_explained_variance")),
            n_components=read("n_components", int),
            bounds=ScaleBounds(array("scale_mins"), array("scale_maxs")),
            label_column=read("label_column", nullable),
            row_type_column=read("row_type_column", nullable),
            row_type_codes=read("row_type_codes", [str], None),
        )
        mean, rows, n = pipeline.pca.mean, pipeline.pca.components, pipeline.n_components
        if len(rows) and len(rows[0]) != len(mean):
            raise SchemaError(f"{source}: {where + 'pca_components'!r} rows must hold "
                              f"{len(mean)} elements like {where + 'pca_mean'!r}, "
                              f"not {len(rows[0])}")
        if not 1 <= n <= len(rows):
            raise SchemaError(f"{source}: {where + 'n_components'!r} must be at least 1 and "
                              f"at most the row count of {where + 'pca_components'!r}, "
                              f"{len(rows)}, not {n}")
        for key, bound in (("scale_mins", pipeline.bounds.mins),
                           ("scale_maxs", pipeline.bounds.maxs)):
            if len(bound) != n:
                raise SchemaError(f"{source}: {where + key!r} must hold {n} elements, "
                                  f"one per component, not {len(bound)}")
        features = sum(len(spec.categories) + 1 if spec.kind == "categorical" else 1
                       for spec in encoder.columns)
        if features != len(mean):
            raise SchemaError(f"{source}: {where + 'encoder_columns'!r} encode {features} "
                              f"features, but {where + 'pca_mean'!r} holds {len(mean)}")
        return pipeline
