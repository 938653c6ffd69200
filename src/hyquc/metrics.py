"""Multiclass evaluation metrics: confusion matrix, precision/recall/F1,
accuracy, macro/weighted averages, one-vs-rest ROC AUC and Cohen's kappa."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ShapeError


@dataclass
class ConfusionMatrix:
    """Rows are true classes, columns are predicted classes."""

    counts: np.ndarray
    class_names: list

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        c = self.counts.shape[0]
        if self.counts.ndim != 2 or self.counts.shape != (c, c):
            raise ShapeError(f"confusion matrix must be square, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ValueError("confusion matrix counts must be nonnegative")
        if not self.class_names:
            self.class_names = [str(i) for i in range(c)]
        if len(self.class_names) != c:
            raise ShapeError("class_names length must match the matrix")

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self, c: int) -> int:
        return int(self.counts[c].sum())


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    degenerate: bool = False  # a zero denominator was coerced to 0


def confusion_matrix(y_true, y_pred, n_classes: int, class_names=None) -> ConfusionMatrix:
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"length mismatch {y_true.shape} vs {y_pred.shape}")
    if len(y_true) and (y_true.min() < 0 or y_true.max() >= n_classes
                        or y_pred.min() < 0 or y_pred.max() >= n_classes):
        raise ValueError("labels out of range")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts, list(class_names) if class_names else None)


def per_class_prf(cm: ConfusionMatrix, c: int) -> ClassMetrics:
    """Precision, recall, F1 and support for one class.

    Zero denominators yield 0 and set the degenerate flag.
    """
    if not 0 <= c < cm.n_classes:
        raise IndexError(f"class {c} out of range")
    tp = int(cm.counts[c, c])
    fp = int(cm.counts[:, c].sum()) - tp
    fn = int(cm.counts[c, :].sum()) - tp
    degenerate = False
    if tp + fp == 0:
        precision, degenerate = 0.0, True
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall, degenerate = 0.0, True
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
        degenerate = degenerate or tp + fp + fn == 0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return ClassMetrics(precision, recall, f1, cm.support(c), degenerate)


def accuracy(cm: ConfusionMatrix) -> float:
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(cm.counts)) / cm.total


def macro_weighted_avg(values, supports):
    """(unweighted mean, support-weighted mean) of per-class values."""
    values = np.asarray(values, dtype=np.float64)
    supports = np.asarray(supports, dtype=np.float64)
    if values.shape != supports.shape:
        raise ShapeError("values and supports must have equal length")
    if values.size == 0:
        raise ValueError("no per-class values to average")
    macro = float(np.mean(values))
    total = supports.sum()
    weighted = float(values @ supports / total) if total > 0 else 0.0
    return macro, weighted


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (midrank)."""
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    starts = ends - counts + 1
    return ((starts + ends) / 2.0)[inverse]


def _auc_binary(pos: np.ndarray, neg: np.ndarray) -> float:
    # Mann-Whitney U through midranks; exactly equals the all-pairs count
    scores = np.concatenate([pos, neg])
    ranks = _average_ranks(scores)
    p, n = len(pos), len(neg)
    u = ranks[:p].sum() - p * (p + 1) / 2.0
    return float(u / (p * n))


def roc_auc_ovr(scores, y_true):
    """Per-class one-vs-rest AUC; a class without both positives and negatives
    among y_true gets None."""
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if scores.ndim != 2 or len(scores) != len(y_true):
        raise ShapeError("scores must be (n_samples, n_classes) matching y_true")
    aucs = []
    for c in range(scores.shape[1]):
        mask = y_true == c
        if not mask.any() or mask.all():
            aucs.append(None)
            continue
        aucs.append(_auc_binary(scores[mask, c], scores[~mask, c]))
    return aucs


def cohens_kappa(cm: ConfusionMatrix) -> float:
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e)."""
    total = cm.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    p_o = np.trace(cm.counts) / total
    row = cm.counts.sum(axis=1)
    col = cm.counts.sum(axis=0)
    p_e = float(row @ col) / (total * total)
    if p_e >= 1.0:
        # degenerate: all mass in one row-column pair
        return 1.0 if p_o >= 1.0 else 0.0
    return float((p_o - p_e) / (1.0 - p_e))


@dataclass
class MetricsReport:
    """Everything a per-row-type evaluation emits, with stable JSON key order."""

    class_names: list
    per_class: list          # dicts: the class name, then the ClassMetrics fields
    accuracy: float
    macro: dict              # precision/recall/f1
    weighted: dict
    roc_auc: list            # float or None per class
    kappa: float
    extra: dict = field(default_factory=dict)  # e.g. train/val/test accuracy

    def to_json(self) -> str:
        return json.dumps({"format": "hyquc-metrics", "version": 1, **asdict(self)},
                          indent=2)


def build_report(cm: ConfusionMatrix, scores, y_true, extra=None) -> MetricsReport:
    """Assemble the full report from a confusion matrix and class scores."""
    per_class = [per_class_prf(cm, c) for c in range(cm.n_classes)]
    supports = [m.support for m in per_class]
    macro_p, weighted_p = macro_weighted_avg([m.precision for m in per_class], supports)
    macro_r, weighted_r = macro_weighted_avg([m.recall for m in per_class], supports)
    macro_f, weighted_f = macro_weighted_avg([m.f1 for m in per_class], supports)
    return MetricsReport(
        class_names=list(cm.class_names),
        per_class=[{"class": cm.class_names[c], **asdict(m)}
                   for c, m in enumerate(per_class)],
        accuracy=accuracy(cm),
        macro={"precision": macro_p, "recall": macro_r, "f1": macro_f},
        weighted={"precision": weighted_p, "recall": weighted_r, "f1": weighted_f},
        roc_auc=roc_auc_ovr(scores, y_true) if scores is not None else [None] * cm.n_classes,
        kappa=cohens_kappa(cm),
        extra=dict(extra or {}),
    )
