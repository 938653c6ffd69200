"""Evaluation metrics: published-table reconstructions, brute-force AUC oracle
and algebraic identities."""
import json
from dataclasses import asdict

import numpy as np
import pytest

from hyquc import metrics
from hyquc.errors import ShapeError
from hyquc.metrics import ConfusionMatrix

from conftest import oracle_auc_pairs

# three-class reconstruction consistent with the published per-class
# precision/recall/support values (supports 870/32/30, total 932)
PERSONAL_CM = np.array([
    [741, 60, 69],
    [2, 8, 22],
    [1, 0, 29],
])

# four-class reconstruction: diagonal true positives from recall * support,
# off-diagonal mass placed arbitrarily (only the trace matters for accuracy)
AGRI_CM = np.array([
    [3002, 523, 0, 0],
    [20, 30, 0, 0],
    [0, 222, 266, 0],
    [0, 0, 12, 41],
])


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        cm = metrics.confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_single_predicted_column(self):
        cm = metrics.confusion_matrix([0, 1, 2], [0, 0, 0], 3)
        assert np.all(cm.counts[:, 1:] == 0)
        np.testing.assert_array_equal(cm.counts[:, 0], [1, 1, 1])

    def test_row_sums_are_true_histograms(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        cm = metrics.confusion_matrix(y_true, y_pred, 4)
        np.testing.assert_array_equal(cm.counts.sum(axis=1),
                                      np.bincount(y_true, minlength=4))
        np.testing.assert_array_equal(cm.counts.sum(axis=0),
                                      np.bincount(y_pred, minlength=4))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.confusion_matrix([0, 1], [0], 2)

    def test_labels_out_of_range(self):
        with pytest.raises(ValueError):
            metrics.confusion_matrix([0, 3], [0, 1], 3)


class TestPerClassPrf:
    def test_published_standard_class(self):
        cm = ConfusionMatrix(PERSONAL_CM, ["Standard", "Sub Standard",
                                           "Doubtful"])
        m = metrics.per_class_prf(cm, 0)
        assert abs(m.precision - 0.99597) < 1e-4
        assert abs(m.recall - 0.85172) < 1e-4
        assert abs(m.f1 - 0.91822) < 1e-4
        assert m.support == 870

    def test_perfect_class(self):
        cm = metrics.confusion_matrix([0, 0, 1], [0, 0, 1], 2)
        m = metrics.per_class_prf(cm, 0)
        assert (m.precision, m.recall, m.f1, m.support) == (1.0, 1.0, 1.0, 2)
        assert not m.degenerate

    def test_absent_class_flagged(self):
        cm = metrics.confusion_matrix([0, 0], [0, 0], 2)
        m = metrics.per_class_prf(cm, 1)
        assert (m.precision, m.recall, m.f1, m.support) == (0.0, 0.0, 0.0, 0)
        assert m.degenerate

    def test_class_out_of_range(self):
        cm = metrics.confusion_matrix([0], [0], 1)
        with pytest.raises(IndexError):
            metrics.per_class_prf(cm, 1)


class TestAccuracy:
    def test_diagonal_is_one(self):
        cm = ConfusionMatrix(np.diag([5, 3, 2]), None)
        assert metrics.accuracy(cm) == 1.0

    def test_personal_reconstruction(self):
        cm = ConfusionMatrix(PERSONAL_CM, None)
        assert abs(metrics.accuracy(cm) - 0.834764) < 1e-6

    def test_agriculture_reconstruction(self):
        cm = ConfusionMatrix(AGRI_CM, None)
        assert cm.total == 4116
        assert abs(metrics.accuracy(cm) - 0.8112) < 5e-4

    def test_empty_matrix(self):
        with pytest.raises(ValueError):
            metrics.accuracy(ConfusionMatrix(np.zeros((2, 2), dtype=int), None))


class TestMacroWeighted:
    def test_published_macro_precision(self):
        macro, _ = metrics.macro_weighted_avg(
            [0.995968, 0.117647, 0.241667], [870, 32, 30])
        assert abs(macro - 0.451760) < 1e-5

    def test_published_weighted_precision(self):
        _, weighted = metrics.macro_weighted_avg(
            [0.995968, 0.117647, 0.241667], [870, 32, 30])
        assert abs(weighted - 0.941531) < 1e-4

    def test_identical_values_collapse(self):
        macro, weighted = metrics.macro_weighted_avg([0.7, 0.7], [10, 90])
        assert macro == weighted == 0.7

    def test_empty(self):
        with pytest.raises(ValueError):
            metrics.macro_weighted_avg([], [])


class TestRocAuc:
    def test_perfect_separation(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        aucs = metrics.roc_auc_ovr(scores, [0, 0, 1, 1])
        assert aucs == [1.0, 1.0]

    def test_uninformative_scores(self):
        scores = np.full((6, 2), 0.5)
        aucs = metrics.roc_auc_ovr(scores, [0, 0, 0, 1, 1, 1])
        assert aucs == [0.5, 0.5]

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            y = rng.integers(0, 3, size=30)
            scores = rng.random(size=(30, 3))
            # quantize some scores so ties actually occur
            scores = np.round(scores, 1)
            aucs = metrics.roc_auc_ovr(scores, y)
            for c in range(3):
                pos = scores[y == c, c]
                neg = scores[y != c, c]
                if len(pos) == 0 or len(neg) == 0:
                    assert aucs[c] is None
                else:
                    assert aucs[c] == oracle_auc_pairs(pos, neg)

    def test_absent_class_is_none(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2]])
        aucs = metrics.roc_auc_ovr(scores, [0, 0])
        assert aucs == [None, None]

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, size=40)
        scores = rng.random(size=(40, 2))
        a = metrics.roc_auc_ovr(scores, y)
        b = metrics.roc_auc_ovr(np.exp(3.0 * scores), y)
        assert a == b


class TestCohensKappa:
    def test_perfect_agreement(self):
        cm = ConfusionMatrix(np.diag([10, 20]), None)
        assert metrics.cohens_kappa(cm) == 1.0

    def test_chance_agreement(self):
        cm = ConfusionMatrix([[25, 25], [25, 25]], None)
        assert metrics.cohens_kappa(cm) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            counts = rng.integers(0, 50, size=(3, 3))
            if counts.sum() == 0:
                continue
            cm = ConfusionMatrix(counts, None)
            total = counts.sum()
            p_o = np.trace(counts) / total
            p_e = float(counts.sum(axis=1) @ counts.sum(axis=0)) / total ** 2
            if p_e >= 1.0:
                continue
            want = (p_o - p_e) / (1.0 - p_e)
            assert abs(metrics.cohens_kappa(cm) - want) < 1e-15

    def test_degenerate_single_cell(self):
        assert metrics.cohens_kappa(ConfusionMatrix([[5, 0], [0, 0]], None)) == 1.0
        assert metrics.cohens_kappa(ConfusionMatrix([[0, 5], [0, 0]], None)) == 0.0

    def test_kappa_at_most_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            counts = rng.integers(0, 30, size=(3, 3))
            if counts.sum() == 0:
                continue
            assert metrics.cohens_kappa(ConfusionMatrix(counts, None)) <= 1.0


class TestIdentities:
    def test_accuracy_equals_weighted_recall(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            y_true = rng.integers(0, 3, size=100)
            y_pred = rng.integers(0, 3, size=100)
            cm = metrics.confusion_matrix(y_true, y_pred, 3)
            per = [metrics.per_class_prf(cm, c) for c in range(3)]
            _, weighted_recall = metrics.macro_weighted_avg(
                [m.recall for m in per], [m.support for m in per])
            assert abs(metrics.accuracy(cm) - weighted_recall) < 1e-12


class TestBuildReport:
    def test_perfect_classifier(self):
        y = np.array([0, 1, 2, 1, 0])
        scores = np.eye(3)[y]
        cm = metrics.confusion_matrix(y, y, 3, ["a", "b", "c"])
        rep = metrics.build_report(cm, scores, y)
        assert rep.accuracy == 1.0
        assert rep.kappa == 1.0
        assert all(m["precision"] == 1.0 and m["recall"] == 1.0
                   for m in rep.per_class)
        assert rep.roc_auc == [1.0, 1.0, 1.0]

    def test_personal_reconstruction_cells(self):
        cm = ConfusionMatrix(PERSONAL_CM, ["Standard", "Sub Standard",
                                           "Doubtful"])
        rep = metrics.build_report(cm, None, None)
        assert abs(rep.accuracy - 0.834764) < 1e-6
        assert abs(rep.macro["precision"] - 0.451760) < 1e-5
        assert abs(rep.weighted["precision"] - 0.941531) < 1e-4
        assert abs(rep.weighted["recall"] - rep.accuracy) < 1e-12
        assert [m["support"] for m in rep.per_class] == [870, 32, 30]

    def test_json_round_trip(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 3, size=50)
        scores = rng.random(size=(50, 3))
        scores /= scores.sum(axis=1, keepdims=True)
        preds = np.argmax(scores, axis=1)
        cm = metrics.confusion_matrix(y, preds, 3, ["x", "y", "z"])
        rep = metrics.build_report(cm, scores, y, extra={"seed": 8})
        assert json.loads(rep.to_json()) == {"format": "hyquc-metrics", "version": 1,
                                             **asdict(rep)}
