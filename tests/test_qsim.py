"""Statevector simulator: golden values, algebraic identities and an
independent dense-matrix oracle."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyquc import qsim
from hyquc.errors import QubitCapError, ShapeError
from hyquc.qsim import CircuitSpec, StateVector

from conftest import (
    oracle_circuit_state,
    oracle_cnot,
    oracle_expval_z,
    oracle_quantum_layer,
    oracle_rotation,
    oracle_z_sign,
)


def state(amps, normalized=True):
    return StateVector.from_amplitudes(amps, require_normalized=normalized)


class TestInitZeroState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(qsim.init_zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(
            qsim.init_zero_state(2).amplitudes, [1, 0, 0, 0]
        )

    def test_cap(self):
        with pytest.raises(QubitCapError, match="16"):
            qsim.init_zero_state(17)
        # boundary is inclusive
        assert qsim.init_zero_state(16).amplitudes.size == 1 << 16


class TestCircuitSpec:
    def test_weight_shape(self):
        assert CircuitSpec(3, 2).weight_shape == (2, 3, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitSpec(0, 1)
        with pytest.raises(ValueError):
            CircuitSpec(2, 0)
        with pytest.raises(QubitCapError):
            CircuitSpec(17, 1)
        with pytest.raises(ValueError):
            CircuitSpec(3, 1, entangler_range=3)
        # single qubit still admits range 1 (the ring is simply omitted)
        assert CircuitSpec(1, 1).entangler_range == 1


class TestRotation:
    def test_ry_pi_flips(self):
        out = qsim.apply_single_qubit_rotation(qsim.init_zero_state(1), 0, "Y", np.pi)
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_printed_amplitudes_first_point(self):
        # real rotation by 0.325 on the normalized [0.8944, 0] state
        sv = state([0.8944, 0.0], normalized=False)
        out = qsim.apply_single_qubit_rotation(sv, 0, "Y", 0.325)
        np.testing.assert_allclose(out.amplitudes.real, [0.8845, 0.1446], atol=5e-3)
        np.testing.assert_allclose(out.amplitudes.imag, 0.0, atol=1e-15)

    def test_printed_amplitudes_second_point(self):
        sv = state([0.0, 0.4472], normalized=False)
        out = qsim.apply_single_qubit_rotation(sv, 0, "Y", 0.325)
        np.testing.assert_allclose(out.amplitudes.real, [-0.0723, 0.4417], atol=5e-3)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            wire = int(rng.integers(n))
            axis = "XYZ"[rng.integers(3)]
            theta = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            got = qsim.apply_single_qubit_rotation(state(amps), wire, axis, theta)
            want = (np.kron(
                np.kron(np.eye(1 << wire), oracle_rotation(axis, theta)),
                np.eye(1 << (n - wire - 1)),
            ) @ amps)
            np.testing.assert_allclose(got.amplitudes, want, atol=1e-14)

    def test_wire_out_of_range(self):
        with pytest.raises(IndexError):
            qsim.apply_single_qubit_rotation(qsim.init_zero_state(1), 1, "Y", 0.1)

    def test_unitarity_inverse(self):
        rng = np.random.default_rng(3)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        sv = state(amps)
        for axis in "XYZ":
            fwd = qsim.apply_single_qubit_rotation(sv, 1, axis, 0.77)
            back = qsim.apply_single_qubit_rotation(fwd, 1, axis, -0.77)
            np.testing.assert_allclose(back.amplitudes, amps, atol=1e-12)


class TestCnot:
    def test_truth_table(self):
        out = qsim.apply_cnot(state([0, 0, 1, 0]), 0, 1)  # |10> -> |11>
        np.testing.assert_array_equal(out.amplitudes, [0, 0, 0, 1])

    def test_control_zero_identity(self):
        out = qsim.apply_cnot(state([1, 0, 0, 0]), 0, 1)
        np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_bell_construction(self):
        r = 1 / np.sqrt(2)
        out = qsim.apply_cnot(state([r, 0, r, 0]), 0, 1)
        np.testing.assert_allclose(out.amplitudes, [r, 0, 0, r], atol=1e-15)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            control, target = (int(w) for w in rng.choice(n, size=2, replace=False))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            got = qsim.apply_cnot(state(amps), control, target)
            np.testing.assert_array_equal(got.amplitudes,
                                          oracle_cnot(n, control, target) @ amps)

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            qsim.apply_cnot(state([1, 0, 0, 0]), 1, 1)


class TestAngleEmbed:
    def test_zero_features_identity(self):
        out = qsim.angle_embed([0.0, 0.0], CircuitSpec(2, 1))
        np.testing.assert_array_equal(out.amplitudes, [1, 0, 0, 0])

    def test_pi_flip(self):
        out = qsim.angle_embed([np.pi], CircuitSpec(1, 1))
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_half_pi_superposition(self):
        out = qsim.angle_embed([np.pi / 2], CircuitSpec(1, 1))
        r = 1 / np.sqrt(2)
        np.testing.assert_allclose(out.amplitudes, [r, r], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            qsim.angle_embed([0.1], CircuitSpec(2, 1))

    @pytest.mark.parametrize("axis", ["X", "Y"])
    def test_matches_oracle_per_axis(self, axis):
        # the RY embedding, and the RX one as an older model file holds it:
        # RX(t)|0> = e^{-i pi/4} RZ(-pi/2) RY(t)|0>, the identity by which
        # serialize loads an RX model as an RY model
        rng = np.random.default_rng(7)
        feats = rng.uniform(0, np.pi, size=3)
        sv, phase = qsim.angle_embed(feats, CircuitSpec(3, 1)), 1.0
        if axis == "X":
            for w in range(3):
                sv = qsim.apply_single_qubit_rotation(sv, w, "Z", -np.pi / 2)
            phase = np.exp(-0.75j * np.pi)  # e^{-i pi/4} per wire
        want = oracle_circuit_state(feats, np.zeros((0, 3, 3)), 3, 0, axis=axis)
        np.testing.assert_allclose(phase * sv.amplitudes, want, atol=1e-14)


class TestEntanglingLayers:
    def test_zero_angles_one_qubit_identity(self):
        spec = CircuitSpec(1, 1)
        out = qsim.apply_entangling_layers(state([1, 0]), np.zeros((1, 1, 3)), spec)
        np.testing.assert_allclose(out.amplitudes, [1, 0], atol=1e-15)

    def test_zero_angles_ring_only(self):
        r = 1 / np.sqrt(2)
        spec = CircuitSpec(2, 1)
        out = qsim.apply_entangling_layers(state([r, 0, r, 0]),
                                           np.zeros((1, 2, 3)), spec)
        np.testing.assert_allclose(out.amplitudes, [r, 0, 0, r], atol=1e-15)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(5)
        spec = CircuitSpec(3, 2)
        sv = qsim.init_zero_state(3)
        for _ in range(100):
            weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
            out = qsim.apply_entangling_layers(sv, weights, spec)
            assert abs(out.norm_squared() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            qsim.apply_entangling_layers(state([1, 0]), np.zeros((1, 2, 3)),
                                         CircuitSpec(1, 1))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(17)
        for rng_range in (1, 2):
            spec = CircuitSpec(3, 2, entangler_range=rng_range)
            feats = rng.uniform(0, np.pi, size=3)
            weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
            got = qsim.apply_entangling_layers(
                qsim.angle_embed(feats, spec), weights, spec
            ).amplitudes
            want = oracle_circuit_state(feats, weights, 3, 2, rng_range=rng_range)
            np.testing.assert_allclose(got, want, atol=1e-13)


class TestExpvalZ:
    def test_basis_states(self):
        assert qsim.expval_z(state([1, 0]), 0) == 1.0
        assert qsim.expval_z(state([0, 1]), 0) == -1.0

    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.9])
    def test_cosine_identity(self, theta):
        sv = qsim.apply_single_qubit_rotation(qsim.init_zero_state(1), 0, "Y", theta)
        assert abs(qsim.expval_z(sv, 0) - np.cos(theta)) < 1e-12
        # direct summation agrees
        probs = sv.probabilities()
        assert abs(qsim.expval_z(sv, 0) - (probs[0] - probs[1])) < 1e-15

    def test_matches_oracle(self):
        rng = np.random.default_rng(29)
        for n in range(1, 7):
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            sv = state(amps / np.linalg.norm(amps))
            for w in range(n):
                assert abs(qsim.expval_z(sv, w)
                           - oracle_expval_z(sv.amplitudes, n, w)) < 1e-14

    def test_wire_out_of_range(self):
        with pytest.raises(IndexError):
            qsim.expval_z(state([1, 0]), 1)


class TestQuantumLayerForward:
    def test_all_zero(self):
        out = qsim.quantum_layer_forward([0, 0], np.zeros((1, 2, 3)),
                                         CircuitSpec(2, 1))
        np.testing.assert_allclose(out, [1, 1], atol=1e-15)

    def test_flip_then_ring(self):
        # |10> -> ring maps it to |11>, both wires read -1
        out = qsim.quantum_layer_forward([np.pi, 0], np.zeros((1, 2, 3)),
                                         CircuitSpec(2, 1))
        np.testing.assert_allclose(out, [-1, -1], atol=1e-12)

    def test_range_bound_random(self):
        rng = np.random.default_rng(23)
        spec = CircuitSpec(4, 2)
        for _ in range(100):
            feats = rng.uniform(0, np.pi, size=4)
            weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
            out = qsim.quantum_layer_forward(feats, weights, spec)
            assert np.all(out >= -1.0 - 1e-12) and np.all(out <= 1.0 + 1e-12)

    def test_single_qubit_cosine_with_zero_weights(self):
        spec = CircuitSpec(1, 1)
        for x in (0.2, 1.0, 2.5):
            out = qsim.quantum_layer_forward([x], np.zeros((1, 1, 3)), spec)
            assert abs(out[0] - np.cos(x)) < 1e-12

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(31)
        for n, layers in ((1, 1), (2, 2), (3, 1), (4, 2)):
            spec = CircuitSpec(n, layers)
            feats = rng.uniform(0, np.pi, size=n)
            weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
            got = qsim.quantum_layer_forward(feats, weights, spec)
            want = oracle_quantum_layer(feats, weights, n, layers)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        spec = CircuitSpec(3, 2)
        feats = rng.uniform(0, np.pi, size=3)
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        a = qsim.quantum_layer_forward(feats, weights, spec)
        b = qsim.quantum_layer_forward(feats, weights, spec)
        np.testing.assert_array_equal(a, b)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(13)
        spec = CircuitSpec(3, 2)
        feats = rng.uniform(0, np.pi, size=(5, 3))
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        batched = qsim.forward_batch(feats, weights, spec)
        for i in range(5):
            single = qsim.quantum_layer_forward(feats[i], weights, spec)
            # ufunc accumulation order varies with batch size: agreement is
            # to a rounding unit, not bit-exact
            np.testing.assert_allclose(batched[i], single, atol=1e-15)

    def test_forward_batch_holds_about_three_state_batches(self):
        # forward_batch keeps no layer states: keeping them would take this
        # 6-layer pass to about 7 state batches
        rng = np.random.default_rng(14)
        spec = CircuitSpec(10, 6)
        feats = rng.uniform(0, np.pi, size=(64, 10))
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        qsim.forward_batch(feats, weights, spec)  # fills the per-width table caches
        tracemalloc.start()
        try:
            qsim.forward_batch(feats, weights, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 16 * (64 << 10)


class TestNormalization:
    def test_golden_vector(self):
        out = qsim.normalize_amplitudes([20.0, 10.0])
        np.testing.assert_allclose(out.real, [0.8944, 0.4472], atol=1e-4)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            qsim.normalize_amplitudes([0.0, 0.0])


class TestStateVector:
    def test_immutable(self):
        sv = qsim.init_zero_state(2)
        with pytest.raises(ValueError):
            sv.amplitudes[0] = 0.0

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector.from_amplitudes([0.5, 0.5])

    def test_non_power_of_two(self):
        with pytest.raises(ShapeError):
            StateVector.from_amplitudes([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("amps", [[], [1.0]])
    def test_fewer_than_two_amplitudes(self, amps):
        with pytest.raises(ShapeError, match=f"amplitude count {len(amps)} "):
            StateVector.from_amplitudes(amps)


@st.composite
def ring_shapes(draw):
    n = draw(st.integers(1, 9))
    return n, draw(st.integers(1, max(n - 1, 1)))


class TestCachedCircuitTables:
    """The per-spec tables the batched kernels use against the dense-matrix
    oracles: the ring against a product of dense CNOT matrices, the sign
    matrix against the oracle's Z eigenvalue rule."""

    @settings(max_examples=40, deadline=None)
    @given(ring_shapes(), st.integers(0, 2**32 - 1))
    def test_ring_permutation_equals_cnot_sequence(self, shape, seed):
        n, r = shape
        rng = np.random.default_rng(seed)
        states = rng.standard_normal((3, 1 << n)) + 1j * rng.standard_normal((3, 1 << n))
        want = states
        pairs = [] if n == 1 else [(0, 1)] if n == 2 else [(w, (w + r) % n) for w in range(n)]
        for control, target in pairs:
            # the rows are states, so each CNOT acts from the right, transposed
            want = want @ oracle_cnot(n, control, target).T
        perm, inv = qsim._ring_permutation(n, r)
        np.testing.assert_array_equal(states[:, perm], want)
        np.testing.assert_array_equal(want[:, inv], states)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 12))
    def test_z_sign_matrix_equals_per_wire_signs(self, n):
        signs = qsim._z_sign_matrix(n)
        assert signs.shape == (1 << n, n)
        want = [[oracle_z_sign(n, w, k) for w in range(n)] for k in range(1 << n)]
        np.testing.assert_array_equal(signs, want)

    def test_tables_are_read_only(self):
        perm, inv = qsim._ring_permutation(3, 1)
        for table in (perm, inv, qsim._z_sign_matrix(3)):
            with pytest.raises(ValueError):
                table[0] = 0


@st.composite
def circuit_specs(draw):
    n = draw(st.integers(1, 11))
    return CircuitSpec(n, draw(st.integers(1, 3)), draw(st.integers(1, max(n - 1, 1))))


def per_gate_circuit(features, weights, spec):
    """Embed and entangle one gate at a time through the single-state API:
    rotation_matrix for every rotation and apply_cnot for every ring link."""
    n = spec.n_qubits
    sv = qsim.init_zero_state(n)
    for w in range(n):
        sv = qsim.apply_single_qubit_rotation(sv, w, "Y", features[w])
    pairs = [] if n == 1 else [(0, 1)] if n == 2 else [
        (w, (w + spec.entangler_range) % n) for w in range(n)]
    for layer in range(spec.n_layers):
        for w in range(n):
            alpha, beta, gamma = weights[layer, w]
            # Rot = RZ(alpha) RY(beta) RZ(gamma): gamma acts first
            for axis, theta in (("Z", gamma), ("Y", beta), ("Z", alpha)):
                sv = qsim.apply_single_qubit_rotation(sv, w, axis, theta)
        for control, target in pairs:
            sv = qsim.apply_cnot(sv, control, target)
    return sv.amplitudes


class TestWireBlocks:
    """The dense Kronecker blocks that apply a whole layer's rotations
    against the per-gate composition they replace: the single-state API's
    states, and the batched kernel's readout, which folds the last ring into
    its signs."""

    @settings(max_examples=40, deadline=None)
    @given(circuit_specs(), st.integers(0, 2**32 - 1))
    def test_block_forward_equals_per_gate_circuit(self, spec, seed):
        rng = np.random.default_rng(seed)
        feats = rng.uniform(0, np.pi, size=(2, spec.n_qubits))
        weights = rng.uniform(0, 2 * np.pi, size=spec.weight_shape)
        z = qsim.forward_batch(feats, weights, spec)
        for b in range(2):
            want = per_gate_circuit(feats[b], weights, spec)
            single = qsim.apply_entangling_layers(qsim.angle_embed(feats[b], spec),
                                                  weights, spec)
            np.testing.assert_allclose(single.amplitudes, want, rtol=0, atol=1e-12)
            want_z = [oracle_expval_z(want, spec.n_qubits, w) for w in range(spec.n_qubits)]
            np.testing.assert_allclose(z[b], want_z, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, sizes", [
        (1, [1]), (3, [3]), (5, [5]), (6, [3, 3]), (10, [5, 5]),
        (11, [3, 4, 4]), (16, [4, 4, 4, 4]),
    ])
    def test_blocks_cover_the_register(self, n, sizes):
        blocks = qsim._wire_blocks(n)
        assert [stop - start for start, stop in blocks] == sizes
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) <= qsim.MAX_BLOCK
