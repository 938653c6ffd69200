"""Parameter-shift gradients against analytic values and the finite-difference
oracle, and the adjoint training gradient against the shift rule."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyquc import qgrad, qsim
from hyquc.qgrad import ParameterIndex
from hyquc.qsim import CircuitSpec


def random_instance(rng, n, layers):
    spec = CircuitSpec(n, layers)
    feats = rng.uniform(0, np.pi, size=n)
    weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
    return spec, feats, weights


def jacobian(features, weights, spec):
    """The shift-rule jacobian of one row, [output_wire][layer][wire][axis]:
    :func:`qgrad.jacobian_batch` on a batch of one."""
    return qgrad.jacobian_batch(np.asarray(features, dtype=np.float64)[None], weights, spec)[0]


def adjoint_vjp(features, upstream, weights, spec):
    """The training step's adjoint gradient, (n_layers, n_qubits, 3), of
    ``sum_b sum_o upstream[b, o] d<Z_o>_b / d weights``: :mod:`qsim`'s
    forward pass and reverse sweep for a stack of one."""
    kept = []
    _, blocks = qsim._forward(features[None], weights[None], spec, kept)
    return qsim._adjoint(kept, upstream[None], weights[None], blocks, spec)[0]


def rx_jacobian_batch(features, weights, spec):
    """:func:`qgrad.jacobian_batch` of the circuit that embeds with RX, as an
    older model file's does, built gate by gate through the single-state API
    (whose rotation_matrix keeps the RX gate): the reference for the RY model
    that file loads as."""
    n = spec.n_qubits

    def expvals(w):
        out = []
        for row in features:
            sv = qsim.init_zero_state(n)
            for wire, x in enumerate(row):
                sv = qsim.apply_single_qubit_rotation(sv, wire, "X", x)
            sv = qsim.apply_entangling_layers(sv, w, spec)
            out.append([qsim.expval_z(sv, wire) for wire in range(n)])
        return np.array(out)

    grads = np.empty((len(features), n, weights.size))
    for i in range(weights.size):
        plus, minus = weights.copy(), weights.copy()
        plus.flat[i] += qgrad.SHIFT
        minus.flat[i] -= qgrad.SHIFT
        grads[:, :, i] = (expvals(plus) - expvals(minus)) / 2.0
    return grads.reshape((len(features), n) + weights.shape)


class TestParamShiftGrad:
    def test_ry_angle_at_zero(self):
        # d cos(beta)/d beta = 0 at beta = 0
        spec = CircuitSpec(1, 1)
        g = qgrad.param_shift_grad([0.0], np.zeros((1, 1, 3)), spec,
                                   ParameterIndex(0, 0, 1), 0)
        assert abs(g) < 1e-15

    def test_ry_angle_at_half_pi(self):
        spec = CircuitSpec(1, 1)
        weights = np.zeros((1, 1, 3))
        weights[0, 0, 1] = np.pi / 2
        g = qgrad.param_shift_grad([0.0], weights, spec, ParameterIndex(0, 0, 1), 0)
        assert abs(g - (-1.0)) < 1e-12

    def test_outer_rz_angle_does_not_move_expval(self):
        # the outermost RZ of Rot only rephases the amplitudes before the Z
        # readout, so its shift-rule gradient vanishes identically
        spec = CircuitSpec(1, 1)
        rng = np.random.default_rng(4)
        weights = rng.uniform(0, 2 * np.pi, size=(1, 1, 3))
        g = qgrad.param_shift_grad([0.4636], weights, spec,
                                   ParameterIndex(0, 0, 0), 0)
        assert abs(g) < 1e-15

    def test_random_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        spec, feats, weights = random_instance(rng, 3, 2)
        for _ in range(10):
            p = ParameterIndex(int(rng.integers(2)), int(rng.integers(3)),
                               int(rng.integers(3)))
            wire = int(rng.integers(3))
            ps = qgrad.param_shift_grad(feats, weights, spec, p, wire)
            fd = qgrad.finite_diff_oracle(feats, weights, spec, p, wire)
            assert abs(ps - fd) < 1e-6

    def test_index_out_of_bounds(self):
        spec = CircuitSpec(2, 1)
        w = np.zeros((1, 2, 3))
        with pytest.raises(IndexError):
            qgrad.param_shift_grad([0, 0], w, spec, ParameterIndex(1, 0, 0), 0)
        with pytest.raises(IndexError):
            qgrad.param_shift_grad([0, 0], w, spec, ParameterIndex(0, 2, 0), 0)
        with pytest.raises(IndexError):
            qgrad.param_shift_grad([0, 0], w, spec, ParameterIndex(0, 0, 3), 0)
        with pytest.raises(IndexError):
            qgrad.param_shift_grad([0, 0], w, spec, ParameterIndex(0, 0, 0), 2)


class TestQuantumJacobian:
    """The shift-rule jacobian, one row at a time and in batches."""

    def test_entries_bounded(self):
        spec = CircuitSpec(2, 1)
        jac = jacobian([0.0, 0.0], np.zeros((1, 2, 3)), spec)
        assert jac.shape == (2, 1, 2, 3)
        assert np.all(np.abs(jac) <= 1.0 + 1e-12)

    def test_single_qubit_reduces_to_sine(self):
        spec = CircuitSpec(1, 1)
        for beta in (0.3, 1.1, 2.2):
            weights = np.zeros((1, 1, 3))
            weights[0, 0, 1] = beta
            jac = jacobian([0.0], weights, spec)
            assert abs(jac[0, 0, 0, 1] - (-np.sin(beta))) < 1e-12

    def test_random_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        spec, feats, weights = random_instance(rng, 4, 1)
        jac = jacobian(feats, weights, spec)
        for layer in range(1):
            for wire in range(4):
                for axis in range(3):
                    for out in range(4):
                        fd = qgrad.finite_diff_oracle(
                            feats, weights, spec,
                            ParameterIndex(layer, wire, axis), out)
                        assert abs(jac[out, layer, wire, axis] - fd) < 1e-6

    def test_matches_scalar_shift_rule(self):
        # same kernels, but batched accumulation order differs, so agreement
        # is to rounding, not bit-exact
        rng = np.random.default_rng(33)
        spec, feats, weights = random_instance(rng, 3, 2)
        jac = jacobian(feats, weights, spec)
        for _ in range(12):
            p = ParameterIndex(int(rng.integers(2)), int(rng.integers(3)),
                               int(rng.integers(3)))
            out = int(rng.integers(3))
            ps = qgrad.param_shift_grad(feats, weights, spec, p, out)
            assert abs(jac[out, p.layer, p.wire, p.axis] - ps) < 1e-13

    def test_schedule_independent(self):
        rng = np.random.default_rng(41)
        spec, feats, weights = random_instance(rng, 3, 2)
        a = jacobian(feats, weights, spec)
        b = jacobian(feats, weights, spec)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(55)
        spec = CircuitSpec(2, 2)
        feats = rng.uniform(0, np.pi, size=(4, 2))
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        batched = qgrad.jacobian_batch(feats, weights, spec)
        for i in range(4):
            single = jacobian(feats[i], weights, spec)
            np.testing.assert_allclose(batched[i], single, atol=1e-13)


class TestFiniteDiffOracle:
    def test_cosine_at_zero(self):
        spec = CircuitSpec(1, 1)
        fd = qgrad.finite_diff_oracle([0.0], np.zeros((1, 1, 3)), spec,
                                      ParameterIndex(0, 0, 1), 0, h=1e-5)
        assert abs(fd) < 1e-9

    def test_cosine_at_one(self):
        spec = CircuitSpec(1, 1)
        weights = np.zeros((1, 1, 3))
        weights[0, 0, 1] = 1.0
        fd = qgrad.finite_diff_oracle([0.0], weights, spec,
                                      ParameterIndex(0, 0, 1), 0, h=1e-5)
        assert abs(fd - (-np.sin(1.0))) < 1e-8

    def test_fifty_random_cross_checks(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            layers = int(rng.integers(1, 3))
            spec, feats, weights = random_instance(rng, n, layers)
            p = ParameterIndex(int(rng.integers(layers)), int(rng.integers(n)),
                               int(rng.integers(3)))
            wire = int(rng.integers(n))
            ps = qgrad.param_shift_grad(feats, weights, spec, p, wire)
            fd = qgrad.finite_diff_oracle(feats, weights, spec, p, wire)
            assert abs(ps - fd) < 1e-6

    def test_h_validation(self):
        spec = CircuitSpec(1, 1)
        for h in (0.0, -1e-5, 0.1):
            with pytest.raises(ValueError):
                qgrad.finite_diff_oracle([0.0], np.zeros((1, 1, 3)), spec,
                                         ParameterIndex(0, 0, 1), 0, h=h)


class TestAdjointVJP:
    """The training gradient against the shift-rule reference."""

    @staticmethod
    def both(rng, spec, batch, axis="Y"):
        """The adjoint gradient and the shift rule's.  For ``axis`` "X", the
        shift rule is the RX circuit's at its own angles and the adjoint
        gradient that of the RY model an RX model file loads as, with layer
        0's gamma shifted by -pi/2 (see serialize.model_from_dict)."""
        feats = rng.uniform(0, np.pi, size=(batch, spec.n_qubits))
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        upstream = rng.standard_normal((batch, spec.n_qubits))
        if axis == "X":
            jac = rx_jacobian_batch(feats, weights, spec)
            weights = weights.copy()
            weights[0, :, 2] -= np.pi / 2
        else:
            jac = qgrad.jacobian_batch(feats, weights, spec)
        got = adjoint_vjp(feats, upstream, weights, spec)
        return got, np.einsum("mo,molwa->lwa", upstream, jac)

    @pytest.mark.parametrize("n, layers, axis, entangler_range, batch", [
        (1, 1, "Y", 1, 1),   # no ring
        (1, 3, "X", 1, 4),
        (2, 1, "X", 1, 1),   # a single CNOT
        (2, 2, "Y", 1, 5),
        (3, 2, "X", 2, 3),
        (4, 2, "Y", 3, 1),
        (5, 2, "Y", 2, 7),
        (6, 1, "X", 4, 2),
        (6, 2, "X", 2, 3),   # two wire blocks
        (11, 2, "Y", 3, 2),  # three wire blocks
        (11, 1, "X", 5, 1),
    ])
    def test_matches_shift_rule(self, n, layers, axis, entangler_range, batch):
        rng = np.random.default_rng(1000 * n + 10 * layers + batch)
        got, want = self.both(rng, CircuitSpec(n, layers, entangler_range), batch, axis)
        assert got.shape == (layers, n, 3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_random_specs_match_shift_rule(self):
        rng = np.random.default_rng(2009)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            spec = CircuitSpec(n, int(rng.integers(1, 4)), int(rng.integers(1, max(n, 2))))
            got, want = self.both(rng, spec, int(rng.integers(1, 8)))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_random_multi_block_specs_match_shift_rule(self):
        rng = np.random.default_rng(2020)
        for n in (6, 7, 9, 10, 11, 12):
            spec = CircuitSpec(n, int(rng.integers(1, 3)), int(rng.integers(1, n)))
            assert len(qsim._wire_blocks(n)) in (2, 3)
            got, want = self.both(rng, spec, int(rng.integers(1, 5)))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_memory_is_a_few_state_batches(self):
        # the shift rule's batched form held 2 * 3 * L * n = 96 state batches
        # here; the adjoint pass keeps each layer's state and a few more
        # (B, 2**n) buffers, about 5 state batches in all
        rng = np.random.default_rng(5)
        spec = CircuitSpec(8, 2)
        feats = rng.uniform(0, np.pi, size=(4, 8))
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        upstream = rng.standard_normal((4, 8))
        batch_bytes = 16 * len(feats) << spec.n_qubits  # one (B, 2**n) complex batch
        tracemalloc.start()
        try:
            adjoint_vjp(feats, upstream, weights, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * batch_bytes


class TestPartialTraceIndex:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, qsim.MAX_BLOCK), st.integers(1, 4), st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    def test_reproduces_per_wire_cross_terms(self, s, rows, right_bits, seed):
        rng = np.random.default_rng(seed)
        shape = (rows, 1 << s, 1 << right_bits)
        psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g = np.einsum("mir,mjr->ij", lam.conj(), psi)
        got = g.ravel()[qsim._partial_trace_index(s)].sum(-1)
        for k in range(s):
            # wire k's bit split out of the block index
            split = (rows << k, 2, -1)
            lk, pk = lam.reshape(split), psi.reshape(split)
            want = np.einsum("mir,mjr->ij", lk.conj(), pk)
            np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-12)
