"""Dense layers, activations, losses and SGD: worked-example golden values and
finite-difference checks."""
import numpy as np
import pytest

from hyquc import nn
from hyquc.errors import ShapeError
from hyquc.nn import DenseLayer, MLPHead


class TestSigmoid:
    def test_zero(self):
        assert nn.sigmoid(0.0) == 0.5

    def test_worked_example_point1(self):
        assert abs(nn.sigmoid(0.54225) - 0.6321) < 1e-3

    def test_worked_example_point2(self):
        assert abs(nn.sigmoid(0.32085) - 0.5795) < 1e-3

    def test_stable_extremes(self):
        assert nn.sigmoid(1000.0) == 1.0
        assert nn.sigmoid(-1000.0) == 0.0
        out = nn.sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(out))

    def test_equals_the_two_branch_form(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(16)
        special = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        x = np.concatenate([special, rng.normal(scale=5.0, size=50_000),
                            rng.uniform(-800.0, 800.0, size=60_000)])
        # NaNs compare equal whatever their sign bit, in which the forms differ
        np.testing.assert_array_equal(nn.sigmoid(x), two_branch(x), strict=True)
        batch = x[:-1].reshape(-1, 8)
        np.testing.assert_array_equal(nn.sigmoid(batch), two_branch(batch))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(nn.softmax([2.0, 2.0, 2.0]), [1 / 3] * 3,
                                   atol=1e-15)

    def test_overflow_stability(self):
        out = nn.softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_empty(self):
        with pytest.raises(ShapeError):
            nn.softmax([])

    def test_argmax_preserved_vs_longdouble(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            z = rng.normal(scale=5.0, size=4)
            ours = nn.softmax(z)
            e = np.exp(np.asarray(z, dtype=np.longdouble))
            naive = e / e.sum()
            assert np.argmax(ours) == np.argmax(naive)
            np.testing.assert_allclose(ours, naive.astype(float), atol=1e-12)

    def test_sums_and_shift_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            z = rng.normal(size=5)
            p = nn.softmax(z)
            assert abs(p.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(p, nn.softmax(z + 3.7), atol=1e-12)


class TestDenseForward:
    def test_worked_example_point1(self):
        layer = DenseLayer([[0.5]], [0.1], "sigmoid")
        assert abs(nn.dense_forward(layer, [0.8845])[0] - 0.6321) < 1e-3

    def test_worked_example_point2(self):
        layer = DenseLayer([[0.5]], [0.1], "sigmoid")
        assert abs(nn.dense_forward(layer, [0.4417])[0] - 0.5796) < 2e-3

    def test_identity_zero_weights(self):
        layer = DenseLayer(np.zeros((2, 3)), [0.3, -0.4], "identity")
        np.testing.assert_array_equal(nn.dense_forward(layer, [1, 2, 3]),
                                      [0.3, -0.4])

    def test_shape_mismatch(self):
        layer = DenseLayer([[0.5]], [0.1], "sigmoid")
        with pytest.raises(ShapeError):
            nn.dense_forward(layer, [0.1, 0.2])

    def test_batched_matches_per_row(self):
        rng = np.random.default_rng(12)
        layer = DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3), "relu")
        X = rng.normal(size=(6, 4))
        out = nn.dense_forward(layer, X)
        for i in range(6):
            np.testing.assert_allclose(out[i], nn.dense_forward(layer, X[i]),
                                       atol=1e-15)


class TestBceLoss:
    def test_worked_example(self):
        assert abs(nn.bce_loss(1, 0.6321) - 0.4587) < 1e-3
        assert abs(nn.bce_loss(0, 0.5796) - 0.8665) < 1e-3

    def test_correct_limit(self):
        assert nn.bce_loss(1, 1.0) < 1e-11
        assert nn.bce_loss(1, 1.0) >= 0.0

    def test_clipping_avoids_inf(self):
        assert np.isfinite(nn.bce_loss(1, 0.0))
        assert np.isfinite(nn.bce_loss(0, 1.0))


class TestCrossEntropyLoss:
    def test_one_hot_correct_is_zero(self):
        assert nn.cross_entropy_loss(1, [0.0, 1.0, 0.0]) == 0.0

    def test_uniform_is_log3(self):
        assert abs(nn.cross_entropy_loss(2, [1 / 3] * 3) - np.log(3)) < 1e-12

    def test_matches_bce_for_two_classes(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            y_hat = float(rng.uniform(0.01, 0.99))
            assert abs(nn.cross_entropy_loss(1, [1 - y_hat, y_hat])
                       - nn.bce_loss(1, y_hat)) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            nn.cross_entropy_loss(3, [0.5, 0.3, 0.2])

    def test_zero_iff_near_one(self):
        assert nn.cross_entropy_loss(0, [1.0 - 1e-12, 1e-12]) == 0.0
        assert nn.cross_entropy_loss(0, [1.0 - 1e-9, 1e-9]) > 0.0


class TestDenseBackward:
    def test_worked_example_gradients(self):
        # BCE through a 1-in/1-out sigmoid layer; dL/dy_hat = (p - y)/(p(1-p))
        layer = DenseLayer([[0.5]], [0.1], "sigmoid")
        for x, y, want in ((0.8845, 1, -0.324), (0.4417, 0, 0.255)):
            p = float(nn.dense_forward(layer, [x])[0])
            upstream = (p - y) / (p * (1.0 - p))
            gw, gb, gx = nn.dense_backward(layer, [x], [upstream])
            assert abs(gw[0, 0] - want) < 5e-3

    @pytest.mark.parametrize("activation", ["sigmoid", "relu", "softmax",
                                            "identity"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(19)
        layer = DenseLayer(rng.normal(size=(3, 4)), rng.normal(size=3), activation)
        x = rng.normal(size=4)
        u = rng.normal(size=3)
        gw, gb, gx = nn.dense_backward(layer, x, u)
        h = 1e-6

        def loss(weights, bias, xv):
            return float(u @ nn.dense_forward(DenseLayer(weights, bias,
                                                         activation), xv))

        for i in range(3):
            for j in range(4):
                wp, wm = layer.weights.copy(), layer.weights.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd = (loss(wp, layer.bias, x) - loss(wm, layer.bias, x)) / (2 * h)
                assert abs(gw[i, j] - fd) < 1e-6
        for i in range(3):
            bp, bm = layer.bias.copy(), layer.bias.copy()
            bp[i] += h
            bm[i] -= h
            fd = (loss(layer.weights, bp, x) - loss(layer.weights, bm, x)) / (2 * h)
            assert abs(gb[i] - fd) < 1e-6
        for j in range(4):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd = (loss(layer.weights, layer.bias, xp)
                  - loss(layer.weights, layer.bias, xm)) / (2 * h)
            assert abs(gx[j] - fd) < 1e-6

    def test_batch_gradients_sum_over_rows(self):
        rng = np.random.default_rng(25)
        layer = DenseLayer(rng.normal(size=(2, 3)), rng.normal(size=2), "sigmoid")
        X = rng.normal(size=(4, 3))
        U = rng.normal(size=(4, 2))
        gw, gb, gx = nn.dense_backward(layer, X, U)
        gw_sum = np.zeros_like(gw)
        gb_sum = np.zeros_like(gb)
        for i in range(4):
            gwi, gbi, gxi = nn.dense_backward(layer, X[i], U[i])
            gw_sum += gwi
            gb_sum += gbi
            np.testing.assert_allclose(gx[i], gxi, atol=1e-14)
        np.testing.assert_allclose(gw, gw_sum, atol=1e-13)
        np.testing.assert_allclose(gb, gb_sum, atol=1e-13)

    def test_shape_mismatch(self):
        layer = DenseLayer([[0.5]], [0.1], "sigmoid")
        with pytest.raises(ShapeError):
            nn.dense_backward(layer, [0.1, 0.2], [1.0])


class TestSgdUpdate:
    def test_worked_example_updates(self):
        assert abs(nn.sgd_update(np.array(0.5), np.array(-0.324), 0.01)
                   - 0.50324) < 1e-12
        assert abs(nn.sgd_update(np.array(0.5), np.array(0.255), 0.01)
                   - 0.49745) < 1e-12

    def test_zero_gradient(self):
        w = np.array([1.0, -2.0])
        np.testing.assert_array_equal(nn.sgd_update(w, np.zeros(2), 0.1), w)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            nn.sgd_update(np.zeros(2), np.zeros(3), 0.1)

    def test_learning_rate_nonnegative(self):
        with pytest.raises(ValueError):
            nn.sgd_update(np.zeros(2), np.zeros(2), -0.1)
        np.testing.assert_array_equal(
            nn.sgd_update(np.ones(2), np.ones(2), 0.0), np.ones(2))


class TestHeadConstruction:
    def test_init_head_shapes_and_range(self):
        head = nn.init_head(4, 3, np.random.default_rng(0), hidden=(8, 8))
        assert head.in_dim == 4 and head.out_dim == 3
        assert [l.activation for l in head.layers] == ["sigmoid", "sigmoid",
                                                       "softmax"]
        for layer in head.layers:
            assert np.all(np.abs(layer.weights) <= 0.5)
            assert np.all(np.abs(layer.bias) <= 0.5)

    def test_single_layer_head(self):
        head = nn.init_head(4, 3, np.random.default_rng(0), hidden=())
        assert len(head.layers) == 1
        assert head.layers[0].activation == "softmax"

    def test_chain_validation(self):
        with pytest.raises(ShapeError):
            MLPHead([DenseLayer(np.zeros((2, 3)), np.zeros(2), "sigmoid"),
                     DenseLayer(np.zeros((2, 3)), np.zeros(2), "softmax")])

    def test_final_activation_must_be_softmax(self):
        with pytest.raises(ValueError):
            MLPHead([DenseLayer(np.zeros((2, 3)), np.zeros(2), "sigmoid")])
