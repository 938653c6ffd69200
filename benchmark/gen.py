"""Seeded input generator for the benchmark workloads.

Every table is a portfolio CSV of the shape hyquc reads: a row-type code
column, the label column ``grade``, numeric features with about 5% missing
cells, a noise column, a categorical column and a mostly-empty column.
Classes are Gaussian blobs around known centres, so the generator's labels
are the ground truth that held-out accuracy is scored against.

Fixture row types reuse the centres, class shares, noise level, codes and
categories of ``tools/make_fixture.py`` (the generator of the committed
fixture ``tests/data/synth.csv``), drawn with the workload seed instead of
the fixture's, so held-out rows come from the fixture's distribution.

The same seed gives the same bytes: all draws come from one
``numpy.random.Generator`` and every number is written with a fixed format.
"""
from __future__ import annotations

import csv
import importlib.util
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LABEL = "grade"
CODE = "SEGCD"
MISSING_SHARE = 0.05
SPARSE_SHARE = 0.10   # share of SPARSE1 cells that are filled


def _load_fixture_module():
    path = os.path.join(ROOT, "tools", "make_fixture.py")
    spec = importlib.util.spec_from_file_location("make_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = _load_fixture_module()
FIXTURE_TYPES = tuple(sorted(FIXTURE.CENTERS))

# the wide portfolio: one row type, 12 numeric features, three equal classes;
# centres are fixed so that only the draws depend on the seed
WIDE_TYPE = "wide"
WIDE_CODE = "WD01"
WIDE_FEATURES = 12
WIDE_SHARES = {"g1": 1 / 3, "g2": 1 / 3, "g3": 1 / 3}
WIDE_NOISE = 1.0
WIDE_CENTERS = {
    grade: np.random.default_rng(1000 + i).uniform(-4.0, 4.0, WIDE_FEATURES)
    for i, grade in enumerate(WIDE_SHARES)
}


class Table:
    """Generated rows with their true labels and row types."""

    def __init__(self, header, rows, labels, row_types):
        self.header = header
        self.rows = rows
        self.labels = labels
        self.row_types = row_types

    def write(self, path, labelled=True, keep=None):
        """Write the rows (optionally only indices ``keep``) as CSV; without
        ``labelled`` the label column is left out."""
        drop = None if labelled else self.header.index(LABEL)
        idx = range(len(self.rows)) if keep is None else keep
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([c for j, c in enumerate(self.header) if j != drop])
            for i in idx:
                writer.writerow([c for j, c in enumerate(self.rows[i]) if j != drop])


def _counts(total: int, shares: dict) -> dict:
    """Class sizes with the given shares, summing to ``total``."""
    counts = {g: int(total * s) for g, s in shares.items()}
    first = next(iter(counts))
    counts[first] += total - sum(counts.values())
    return counts


def _shuffle(rng, rows, labels, row_types) -> tuple:
    order = rng.permutation(len(rows))
    return ([rows[i] for i in order], [labels[i] for i in order],
            [row_types[i] for i in order])


def fixture_table(seed: int, n_per_type: int) -> Table:
    """Rows of both fixture row types, laid out like ``tests/data/synth.csv``:
    five informative features (F3 about 5% missing), a noise column F6, a
    categorical CAT1 and the mostly-empty SPARSE1."""
    rng = np.random.default_rng(seed)
    fixture_total = sum(FIXTURE.CLASS_COUNTS.values())
    shares = {g: c / fixture_total for g, c in FIXTURE.CLASS_COUNTS.items()}
    rows, labels, row_types = [], [], []
    for row_type in FIXTURE_TYPES:
        codes = FIXTURE.CODES[row_type]
        for grade, count in _counts(n_per_type, shares).items():
            feats = rng.normal(FIXTURE.CENTERS[row_type][grade], FIXTURE.NOISE,
                               size=(count, 5))
            for x in feats:
                cells = [f"{v:.4f}" for v in x]
                if rng.random() < MISSING_SHARE:
                    cells[2] = ""
                sparse = f"{rng.normal():.3f}" if rng.random() < SPARSE_SHARE else ""
                rows.append([codes[rng.integers(len(codes))], grade, *cells,
                             f"{rng.normal():.4f}",
                             FIXTURE.CATS[rng.integers(len(FIXTURE.CATS))], sparse])
                labels.append(grade)
                row_types.append(row_type)
    header = [CODE, LABEL, "F1", "F2", "F3", "F4", "F5", "F6", "CAT1", "SPARSE1"]
    return Table(header, *_shuffle(rng, rows, labels, row_types))


def wide_table(seed: int, n_rows: int) -> Table:
    """One row type with WIDE_FEATURES informative numeric features (each
    about 5% missing), a noise column, a categorical and a sparse column."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for grade, count in _counts(n_rows, WIDE_SHARES).items():
        feats = rng.normal(WIDE_CENTERS[grade], WIDE_NOISE, size=(count, WIDE_FEATURES))
        blank = rng.random((count, WIDE_FEATURES)) < MISSING_SHARE
        for x, gaps in zip(feats, blank):
            cells = ["" if gap else f"{v:.4f}" for v, gap in zip(x, gaps)]
            sparse = f"{rng.normal():.3f}" if rng.random() < SPARSE_SHARE else ""
            rows.append([WIDE_CODE, grade, *cells, f"{rng.normal():.4f}",
                         FIXTURE.CATS[rng.integers(len(FIXTURE.CATS))], sparse])
            labels.append(grade)
    header = [CODE, LABEL, *(f"W{j + 1:02d}" for j in range(WIDE_FEATURES)),
              "NOISE", "CAT1", "SPARSE1"]
    return Table(header, *_shuffle(rng, rows, labels, [WIDE_TYPE] * len(rows)))


def fixture_code_map() -> dict:
    return {code: rt for rt, codes in FIXTURE.CODES.items() for code in codes}
