"""Per-cell reference of the CSV loader and the column encoder.

This is the loader and encoder that ``hyquc.pipeline`` used before they
worked a column at a time, kept as an independent oracle: the columnar code
must match it bit for bit, errors included.  The loader strips each cell and
takes a blank one as missing; the encoder parses, imputes and one-hot encodes
one cell at a time.  Neither shares parsing code with the package.
"""
import csv
import logging
from datetime import datetime, date

import numpy as np

from hyquc.errors import SchemaError
from hyquc.pipeline import ColumnSpec, TabularDataset

log = logging.getLogger(__name__)

_EPOCH = date(1970, 1, 1)


def _as_float(cell: str):
    # strip first: str.strip() removes \x1c-\x1f, which float() rejects
    try:
        return float(cell.strip())
    except ValueError:
        return None


def _non_finite(name: str, cells):
    for i, cell in enumerate(cells):
        v = None if cell is None else _as_float(cell)
        if v is not None and not np.isfinite(v):
            return SchemaError(f"column {name!r}, row {i}: non-finite number {cell!r}")


def _as_days(cell, fmt):
    try:
        dt = datetime.strptime(cell.strip(), fmt)
    except ValueError:
        return None
    return float((dt.date() - _EPOCH).days)


def load_csv(path, label_column: str, row_type_column: str = None) -> TabularDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        rows = [[c.strip() or None for c in row] for row in reader]
    columns = [[row[j] for row in rows] for j in range(len(header))]
    data = TabularDataset(header, columns, len(rows), label_column, row_type_column)
    if not rows:
        raise SchemaError(f"{path}: no data rows")
    return data


class ColumnEncoder:
    """Same constructor, ``columns``, ``fit`` and ``transform`` as
    ``hyquc.pipeline.ColumnEncoder``."""

    def __init__(self, date_format: str = None):
        self.date_format = date_format
        self.columns = []

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
            cats = sorted({c.strip() for c in present})
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
                parse = (_as_float if spec.kind == "numeric"
                         else lambda c: _as_days(c, self.date_format))
                col = np.empty(n)
                for i, cell in enumerate(cells):
                    v = None if cell is None else parse(cell)
                    col[i] = spec.median if v is None else v
                if not np.all(np.isfinite(col)):
                    raise _non_finite(spec.name, cells)
                blocks.append(col[:, None])
            else:
                width = len(spec.categories) + 1
                block = np.zeros((n, width))
                index = {c: j for j, c in enumerate(spec.categories)}
                for i, cell in enumerate(cells):
                    if cell is None:
                        block[i, -1] = 1.0
                    else:
                        j = index.get(cell.strip())
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
