"""Acceptance gate: seven end-to-end criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py`` (lines are written straight to the
terminal, bypassing capture).
"""
import contextlib
import json
import os
import sys
import time

import numpy as np

from hyquc import cli, hybrid, metrics, nn, pipeline as pl, qgrad, qsim
from hyquc.config import load_config
from hyquc.hybrid import HyperGrid
from hyquc.metrics import ConfusionMatrix
from hyquc.nn import DenseLayer
from hyquc.qsim import CircuitSpec

from conftest import oracle_auc_pairs
from test_hybrid import flatten_grads, flatten_params, model_with_params
from test_metrics import AGRI_CM, PERSONAL_CM
from test_pipeline import PERSONAL_COUNTS, PERSONAL_MISSING, missing_value_table

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _emit(n: int, passed: bool, capsys) -> None:
    line = f"criterion {n}: {'PASS' if passed else 'FAIL'}\n"
    with capsys.disabled():
        sys.stdout.write(line)
        sys.stdout.flush()


@contextlib.contextmanager
def criterion(n: int, budget_seconds: float, capsys):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_seconds, (
            f"criterion {n} took {elapsed:.1f}s, budget {budget_seconds}s")
    except BaseException:
        _emit(n, False, capsys)
        raise
    _emit(n, True, capsys)


class TestCriterion1GoldenWorkedExamples:
    def test_golden_suite(self, capsys):
        with criterion(1, 1.0, capsys):
            # amplitude normalization of the raw point [20, 10]
            amps = qsim.normalize_amplitudes([20.0, 10.0])
            np.testing.assert_allclose(amps, [0.8944, 0.4472], atol=1e-4)

            # real rotation by 0.325 applied to each embedded basis component
            a = qsim.apply_single_qubit_rotation(
                qsim.StateVector.from_amplitudes([0.8944, 0.0],
                                                 require_normalized=False),
                0, "Y", 0.325)
            np.testing.assert_allclose(a.amplitudes.real, [0.8845, 0.1446],
                                       atol=5e-3)
            b = qsim.apply_single_qubit_rotation(
                qsim.StateVector.from_amplitudes([0.0, 0.4472],
                                                 require_normalized=False),
                0, "Y", 0.325)
            np.testing.assert_allclose(b.amplitudes.real, [-0.0723, 0.4417],
                                       atol=5e-3)

            # dense sigmoid readout of the two rotated points
            layer = DenseLayer([[0.5]], [0.1], "sigmoid")
            p1 = float(nn.dense_forward(layer, [0.8845])[0])
            p2 = float(nn.dense_forward(layer, [0.4417])[0])
            assert abs(p1 - 0.6321) < 2e-3
            assert abs(p2 - 0.5796) < 2e-3

            # per-point binary cross-entropy and its mean
            l1 = nn.bce_loss(1, p1)
            l2 = nn.bce_loss(0, p2)
            assert abs(l1 - 0.4587) < 2e-3
            assert abs(l2 - 0.8665) < 2e-3
            assert abs((l1 + l2) / 2 - 0.6626) < 2e-3

            # weight gradients of the two points and the resulting updates
            grads = []
            for x, y in ((0.8845, 1), (0.4417, 0)):
                p = float(nn.dense_forward(layer, [x])[0])
                upstream = (p - y) / (p * (1.0 - p))
                gw, _, _ = nn.dense_backward(layer, [x], [upstream])
                grads.append(float(gw[0, 0]))
            assert abs(grads[0] - (-0.324)) < 5e-3
            assert abs(grads[1] - 0.255) < 5e-3
            assert abs(nn.sgd_update(np.array(0.5), np.array(grads[0]), 0.01)
                       - 0.50324) < 5e-3
            assert abs(nn.sgd_update(np.array(0.5), np.array(grads[1]), 0.01)
                       - 0.49745) < 5e-3


class TestCriterion2GradientSweep:
    def test_fifty_random_models_match_finite_differences(self, capsys):
        with criterion(2, 60.0, capsys):
            rng = np.random.default_rng(20240817)
            h = 1e-5
            for _ in range(50):
                n_qubits = int(rng.integers(1, 4))
                n_layers = int(rng.integers(1, 3))
                n_classes = int(rng.integers(2, 4))
                single = bool(rng.integers(2))
                spec = CircuitSpec(n_qubits, n_layers)
                model = hybrid.init_model(
                    spec, n_classes, rng, hidden=() if single else (4,))
                m = int(rng.integers(1, 4))
                X = rng.uniform(0.0, np.pi, size=(m, n_qubits))
                y = rng.integers(0, n_classes, size=m)

                _, grads = hybrid.loss_and_grads(model, (X, y))
                flat = flatten_params(model)
                analytic = flatten_grads(grads)
                for i in range(len(flat)):
                    fp, fm = flat.copy(), flat.copy()
                    fp[i] += h
                    fm[i] -= h
                    lp, _ = hybrid.loss_and_grads(model_with_params(model, fp),
                                                  (X, y))
                    lm, _ = hybrid.loss_and_grads(model_with_params(model, fm),
                                                  (X, y))
                    fd = (lp - lm) / (2 * h)
                    assert abs(analytic[i] - fd) < 1e-5


class TestCriterion3SimulatorInvariants:
    def test_norm_preservation_and_ry_expectation(self, capsys):
        with criterion(3, 5.0, capsys):
            rng = np.random.default_rng(11)
            sv = qsim.init_zero_state(4)
            for _ in range(10_000):
                if rng.random() < 0.7:
                    wire = int(rng.integers(4))
                    axis = "XYZ"[rng.integers(3)]
                    theta = float(rng.uniform(-np.pi, np.pi))
                    sv = qsim.apply_single_qubit_rotation(sv, wire, axis, theta)
                else:
                    c, t = rng.choice(4, size=2, replace=False)
                    sv = qsim.apply_cnot(sv, int(c), int(t))
            assert abs(sv.norm_squared() - 1.0) < 1e-12

            for theta in np.linspace(-2 * np.pi, 2 * np.pi, 100):
                out = qsim.apply_single_qubit_rotation(
                    qsim.init_zero_state(1), 0, "Y", float(theta))
                assert abs(qsim.expval_z(out, 0) - np.cos(theta)) < 1e-12


class TestCriterion4MetricsGoldens:
    def test_published_values_and_auc_oracle(self, capsys):
        with criterion(4, 5.0, capsys):
            cm = ConfusionMatrix(PERSONAL_CM, None)
            per = [metrics.per_class_prf(cm, c) for c in range(3)]
            macro, weighted = metrics.macro_weighted_avg(
                [m.precision for m in per], [m.support for m in per])
            assert abs(macro - 0.451760) < 1e-5
            assert abs(weighted - 0.941531) < 1e-4
            assert np.trace(PERSONAL_CM) == 741 + 8 + 29
            assert cm.total == 932
            assert abs(metrics.accuracy(cm) - 0.834764) < 1e-6
            assert abs(metrics.accuracy(ConfusionMatrix(AGRI_CM, None))
                       - 0.8112) < 5e-4

            rng = np.random.default_rng(3)
            for _ in range(20):
                y = rng.integers(0, 3, size=30)
                scores = np.round(rng.random(size=(30, 3)), 1)
                aucs = metrics.roc_auc_ovr(scores, y)
                for c in range(3):
                    pos = scores[y == c, c]
                    neg = scores[y != c, c]
                    if len(pos) == 0 or len(neg) == 0:
                        assert aucs[c] is None
                    else:
                        assert aucs[c] == oracle_auc_pairs(pos, neg)


class TestCriterion5PipelineProperties:
    def test_cleaning_augmentation_and_projection(self, capsys):
        with criterion(5, 10.0, capsys):
            # threshold drop removes exactly the high-missing fixture columns
            out, dropped = pl.drop_high_missing(missing_value_table(), 0.70)
            assert {name for name, _ in dropped} == set(PERSONAL_MISSING)
            assert out.column_names == ["IRAC", "KEPT1", "KEPT2"]

            # oversampling balances and synthesizes only on segments
            rng = np.random.default_rng(5)
            X = np.vstack([rng.normal(0, 1, size=(12, 3)),
                           rng.normal(8, 1, size=(5, 3))])
            y = np.array([0] * 12 + [1] * 5)
            ds = pl.RowTypeDataset(X, y, ["a", "b"])
            aug = pl.smote_oversample(ds, 3, seed=7)
            assert aug.class_counts() == {"a": 12, "b": 12}
            originals = X[y == 1]
            for s in aug.X[len(X):]:
                on_segment = False
                for i in range(len(originals)):
                    for j in range(len(originals)):
                        if i == j:
                            continue
                        d = originals[j] - originals[i]
                        r = s - originals[i]
                        lam = (r @ d) / (d @ d)
                        if -1e-9 <= lam <= 1 + 1e-9 and \
                                np.linalg.norm(r - lam * d) < 1e-9:
                            on_segment = True
                assert on_segment

            # projection basis orthonormal, full-rank round trip lossless
            Xp = rng.normal(size=(60, 6))
            model = pl.pca_fit(Xp, 6)
            np.testing.assert_allclose(model.components @ model.components.T,
                                       np.eye(6), atol=1e-10)
            back = pl.pca_inverse(model, pl.pca_transform(model, Xp))
            np.testing.assert_allclose(back, Xp, atol=1e-8)

            # minority-class consolidation on the published class counts
            labels = []
            for name, count in PERSONAL_COUNTS.items():
                labels.extend([name] * count)
            yc, names = pl.encode_labels(labels)
            merged = pl.merge_minority_class(
                pl.RowTypeDataset(np.zeros((len(yc), 1)), yc, names),
                "Loss", "Doubtful")
            assert merged.class_counts()["Doubtful"] == 129 + 3


class TestCriterion6EndToEndTraining:
    def test_seeded_training_learns_and_reproduces(self, tmp_path, capsys):
        with criterion(6, 900.0, capsys):
            cfg_path = os.path.join(DATA_DIR, "run.cfg")

            # the committed dataset: 600 rows per row-type code, 3 classes
            data = pl.load_csv(load_config(cfg_path).csv_path, "grade", "SEGCD")
            codes = {}
            for code in data.column("SEGCD"):
                codes[code] = codes.get(code, 0) + 1
            code_map = pl.load_row_type_map(
                os.path.join(DATA_DIR, "rowtypes.map"))
            per_type = {}
            for code, n in codes.items():
                rt = code_map[code]
                per_type[rt] = per_type.get(rt, 0) + n
            assert all(n == 600 for n in per_type.values())
            assert len(set(data.column(data.label_column))) == 3

            outs = []
            for name in ("run_a", "run_b"):
                cfg = load_config(cfg_path)
                cfg.out_dir = str(tmp_path / name)
                assert cli.cmd_train(cfg) == 0
                outs.append(tmp_path / name)

            for tag in sorted(per_type):
                doc = json.loads(
                    (outs[0] / f"metrics_{tag}.json").read_text())
                assert doc["extra"]["val_accuracy"] >= 0.90
                lines = (outs[0] / f"loss_history_{tag}.csv"
                         ).read_text().splitlines()[1:]
                losses = [float(line.split(",")[1]) for line in lines]
                assert len(losses) == 50
                assert np.mean(losses[-10:]) < np.mean(losses[:10])

            # byte-for-byte reproducibility of every artifact
            names = sorted(os.listdir(outs[0]))
            assert names == sorted(os.listdir(outs[1]))
            for name in names:
                assert (outs[0] / name).read_bytes() == \
                    (outs[1] / name).read_bytes()


class TestCriterion7GridSearch:
    def test_expansion_determinism_and_reduced_sweep(self, tmp_path, capsys):
        with criterion(7, 1200.0, capsys):
            # the documented example grid expands to exactly 72 combinations
            grid = HyperGrid((1, 2, 3), (2, 3, 4), (0.01, 0.001), (16, 32),
                             (50, 100))
            combos = grid.combinations()
            assert len(combos) == 72
            assert combos[0] == {"n_layers": 1, "n_qubits": 2,
                                 "learning_rate": 0.01, "batch_size": 16,
                                 "epochs": 50}
            assert combos[-1] == {"n_layers": 3, "n_qubits": 4,
                                  "learning_rate": 0.001, "batch_size": 32,
                                  "epochs": 100}
            assert combos[1]["epochs"] == 100  # last axis varies fastest

            # duplicated configuration: the earlier declaration wins the tie
            rng = np.random.default_rng(1)
            X = np.clip(np.vstack([rng.normal(0.8, 0.2, size=(12, 2)),
                                   rng.normal(2.3, 0.2, size=(12, 2))]),
                        0.0, np.pi)
            y = np.array([0] * 12 + [1] * 12)
            dup = HyperGrid((1, 1), (2,), (0.1,), (8,), (1,))
            best, board = hybrid.grid_search(dup, (X, y), k=2, seed=0)
            assert board[0].order == 0
            assert board[0].mean_val_macro_f1 == board[1].mean_val_macro_f1

            # leaderboard is deterministic under a fixed seed
            small = HyperGrid((1, 2), (2,), (0.1, 0.01), (8,), (1,))
            runs = [hybrid.grid_search(small, (X, y), k=2, seed=9)
                    for _ in range(2)]
            assert runs[0] == runs[1]

            # reduced sweep over the committed fixture via the CLI
            cfg = load_config(os.path.join(DATA_DIR, "run.cfg"))
            assert len(cfg.grid.combinations()) == 8
            cfg.out_dir = str(tmp_path / "grid")
            assert cli.cmd_gridsearch(cfg) == 0
            for tag in ("agriculture", "personal"):
                lines = (tmp_path / "grid" / f"leaderboard_{tag}.csv"
                         ).read_text().splitlines()
                assert len(lines) == 9
                f1s = [float(line.split(",")[6]) for line in lines[1:]]
                assert f1s == sorted(f1s, reverse=True)
                assert (tmp_path / "grid" / f"winner_{tag}.cfg").exists()
