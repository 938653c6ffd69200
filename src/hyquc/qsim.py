"""Exact statevector simulator for the angle-embedding + entangling-layer circuit.

Amplitude ordering is big-endian: wire 0 is the most significant bit of the
amplitude index.  All operations are pure; a returned :class:`StateVector` is
never mutated afterwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import cos, sin

import numpy as np

from .errors import QubitCapError, ShapeError

MAX_QUBITS = 16
AXES = ("X", "Y", "Z")

# norm drift allowed after an arbitrary gate sequence
NORM_TOL = 1e-12

# widest run of wires whose Rot gates are fused into one dense matrix: a
# block's matmul costs 2**s multiply-adds per amplitude, so wider blocks trade
# arithmetic for fewer calls
MAX_BLOCK = 5


@dataclass(frozen=True)
class CircuitSpec:
    """Static description of the circuit: register width, depth, embedding axis
    and the CNOT-ring offset."""

    n_qubits: int
    n_layers: int
    embedding_rotation_axis: str = "Y"
    entangler_range: int = 1

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if self.n_qubits > MAX_QUBITS:
            raise QubitCapError(
                f"n_qubits={self.n_qubits} exceeds the simulator cap of {MAX_QUBITS}"
            )
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        if self.embedding_rotation_axis not in AXES:
            raise ValueError(f"embedding axis must be one of {AXES}")
        if not 1 <= self.entangler_range < max(self.n_qubits, 2):
            raise ValueError(
                f"entangler_range must satisfy 1 <= r < {max(self.n_qubits, 2)}"
            )

    @property
    def weight_shape(self) -> tuple[int, int, int]:
        return (self.n_layers, self.n_qubits, 3)


@dataclass(frozen=True)
class StateVector:
    """Immutable n-qubit state: 2**n complex amplitudes of unit norm."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if amps.shape != (1 << self.n_qubits,):
            raise ShapeError(
                f"expected {1 << self.n_qubits} amplitudes, got {amps.shape}"
            )
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, amplitudes, require_normalized: bool = True) -> "StateVector":
        """Build a state from raw amplitudes.

        ``require_normalized=False`` admits subnormalized vectors for desk
        calculations; gates still preserve whatever norm the state has.
        """
        amps = np.asarray(amplitudes, dtype=np.complex128)
        n = int(np.log2(amps.size))
        if 1 << n != amps.size:
            raise ShapeError(f"amplitude count {amps.size} is not a power of two")
        sv = cls(max(n, 1), amps if amps.size > 1 else amps)
        if require_normalized and abs(sv.norm_squared() - 1.0) > 1e-9:
            raise ValueError(f"state norm^2 = {sv.norm_squared()} is not 1")
        return sv

    def norm_squared(self) -> float:
        a = self.amplitudes
        return float(np.sum(a.real * a.real + a.imag * a.imag))

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real * a.real + a.imag * a.imag


def normalize_amplitudes(values) -> np.ndarray:
    """L2-normalize a raw amplitude vector."""
    v = np.asarray(values, dtype=np.complex128)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """2x2 rotation about a Pauli axis, half-angle convention."""
    h = theta / 2.0
    c, s = cos(h), sin(h)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if axis == "Z":
        return np.array(
            [[complex(c, -s), 0.0], [0.0, complex(c, s)]], dtype=np.complex128
        )
    raise ValueError(f"unknown rotation axis {axis!r}")


# ---------------------------------------------------------------------------
# batched kernels (shared by the single-state API and the gradient paths so
# both produce bit-identical arithmetic)

def _apply_1q_kernel(states: np.ndarray, n: int, wire: int, mat: np.ndarray) -> np.ndarray:
    """Apply one 2x2 gate to one wire of a (B, 2**n) batch, element-wise.

    Only the per-gate single-state API uses it; the circuit kernels apply
    whole blocks of wires (:func:`_apply_block`)."""
    b = states.shape[0]
    left = 1 << wire
    right = 1 << (n - wire - 1)
    st = states.reshape(b, left, 2, right)
    s0 = st[:, :, 0, :]
    s1 = st[:, :, 1, :]
    out = np.empty_like(st)
    o0 = np.multiply(mat[0, 0], s0, out=out[:, :, 0, :])
    o0 += mat[0, 1] * s1
    o1 = np.multiply(mat[1, 0], s0, out=out[:, :, 1, :])
    o1 += mat[1, 1] * s1
    return out.reshape(b, -1)


def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    k = np.arange(1 << n)
    cmask = 1 << (n - 1 - control)
    tmask = 1 << (n - 1 - target)
    return np.where(k & cmask, k ^ tmask, k)


def _apply_cnot_kernel(states: np.ndarray, n: int, control: int, target: int) -> np.ndarray:
    # CNOT is an involution, so gathering through the permutation is exact
    return states[:, _cnot_permutation(n, control, target)]


# the caches below are keyed by register width (and ring offset), which
# MAX_QUBITS bounds, so they stay small
@lru_cache(maxsize=None)
def _ring_permutation(n: int, entangler_range: int):
    """One layer's CNOT ring (w -> w + entangler_range mod n for each wire in
    turn) composed into a single gather index, with its inverse:
    ``states[:, perm]`` applies the ring and ``states[:, inv]`` undoes it.
    ``None`` for a one-wire register, which has no ring.  The arrays are
    shared by every caller, so they are read-only."""
    if n == 1:
        return None
    # a full ring on two wires would pair each CNOT with its reverse; a
    # single CNOT per layer is the conventional two-wire ring
    pairs = [(0, 1)] if n == 2 else [(w, (w + entangler_range) % n) for w in range(n)]
    perm = np.arange(1 << n)
    for control, target in pairs:
        perm = perm[_cnot_permutation(n, control, target)]
    inv = np.empty_like(perm)
    inv[perm] = np.arange(1 << n)
    perm.flags.writeable = False
    inv.flags.writeable = False
    return perm, inv


def _z_signs(n: int, wire: int) -> np.ndarray:
    k = np.arange(1 << n)
    return np.where(k & (1 << (n - 1 - wire)), -1.0, 1.0)


@lru_cache(maxsize=None)
def _z_sign_matrix(n: int) -> np.ndarray:
    """(2**n, n) eigenvalues of Z on every wire: ``probs @ signs`` reads all
    wires at once.  Shared by every caller, so read-only."""
    k = np.arange(1 << n)[:, None]
    bits = (k >> (n - 1 - np.arange(n))) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


def _expval_kernel(states: np.ndarray, n: int, wire: int) -> np.ndarray:
    probs = states.real * states.real + states.imag * states.imag
    return probs @ _z_signs(n, wire)


def _rot_mats(weights: np.ndarray) -> np.ndarray:
    """Rot(alpha, beta, gamma) = RZ(alpha) @ RY(beta) @ RZ(gamma) for every
    angle triple of a (..., 3) weight tensor, such as a stack of k models'
    (k, n_layers, n_qubits, 3) weights.

    Returns (..., 2, 2) via the closed-form product
    [[e^{-i(a+g)/2} cos(b/2), -e^{-i(a-g)/2} sin(b/2)],
     [e^{ i(a-g)/2} sin(b/2),  e^{ i(a+g)/2} cos(b/2)]].
    """
    a, beta, g = weights[..., 0], weights[..., 1], weights[..., 2]
    c, s = np.cos(beta / 2.0), np.sin(beta / 2.0)
    plus = np.exp(-0.5j * (a + g))
    minus = np.exp(-0.5j * (a - g))
    mats = np.empty(weights.shape[:-1] + (2, 2), dtype=np.complex128)
    mats[..., 0, 0] = plus * c
    mats[..., 0, 1] = -minus * s
    mats[..., 1, 0] = np.conj(minus) * s
    mats[..., 1, 1] = np.conj(plus) * c
    return mats


def _product_state(features: np.ndarray, axis: str) -> np.ndarray:
    """Angle-embed a (..., n_qubits) feature batch from |0...0>, giving
    (..., 2**n_qubits) states.

    Each wire's rotation of |0> is a two-amplitude vector, so the embedded
    register is their tensor product (wire 0 leftmost): n - 1 broadcast
    multiplies, built from the last wire leftwards so that each runs over the
    long axis innermost."""
    h = features / 2.0
    c, s = np.cos(h), np.sin(h)
    wires = np.empty(features.shape + (2,), dtype=np.complex128)
    if axis == "Y":
        wires[..., 0], wires[..., 1] = c, s
    elif axis == "X":
        wires[..., 0], wires[..., 1] = c, -1j * s
    else:
        wires[..., 0], wires[..., 1] = c - 1j * s, 0.0
    states = wires[..., -1, :]
    for w in range(features.shape[-1] - 2, -1, -1):
        states = (wires[..., w, :, None] * states[..., None, :]).reshape(
            features.shape[:-1] + (-1,))
    return states


@lru_cache(maxsize=None)
def _wire_blocks(n: int) -> tuple:
    """(start, stop) wire ranges of at most MAX_BLOCK contiguous wires each,
    as even in size as the count of blocks allows."""
    count = -(-n // MAX_BLOCK)
    bounds = [n * i // count for i in range(count + 1)]
    return tuple(zip(bounds, bounds[1:]))


def _layer_blocks(mats: np.ndarray) -> list:
    """Every layer's Rot gates of a stack of k models, given as
    (k, n_layers, n_qubits, 2, 2) matrices, grouped into dense blocks: one
    ``(start, stop, kron)`` per wire block, where ``kron`` is the
    (k, n_layers, 2**s, 2**s) Kronecker product of the block's s Rot
    matrices.  The Rots of one layer act on different wires, so the blocks
    commute and their product is the whole layer's rotation."""
    lead = mats.shape[:-3]
    blocks = []
    for start, stop in _wire_blocks(mats.shape[-3]):
        # built from the last wire leftwards, so that the broadcast multiply
        # runs over the long axis innermost
        kron = mats[..., stop - 1, :, :]
        for w in range(stop - 2, start - 1, -1):
            d = kron.shape[-1]
            kron = (mats[..., w, :, None, :, None] * kron[..., None, :, None, :]).reshape(
                lead + (2 * d, 2 * d))
        blocks.append((start, stop, kron))
    return blocks


def _apply_block(states: np.ndarray, n: int, start: int, stop: int,
                 mat: np.ndarray) -> np.ndarray:
    """Apply each model's (2**s, 2**s) matrix, given as a (k, 2**s, 2**s)
    stack, to wires [start, stop) of that model's rows of a (k, B, 2**n)
    batch: one matmul per model, so a model's arithmetic does not depend on
    the others in its stack."""
    k, d = len(mat), mat.shape[-1]
    right = 1 << (n - stop)
    if right == 1:
        return (states.reshape(k, -1, d) @ mat.swapaxes(-1, -2)).reshape(states.shape)
    return (mat[:, None] @ states.reshape(k, -1, d, right)).reshape(states.shape)


def _entangle(states: np.ndarray, blocks: list, spec: CircuitSpec) -> np.ndarray:
    """Apply the entangling layers of a stack of k models, given as their
    :func:`_layer_blocks`, to a (k, B, 2**n) batch: each model's weights are
    shared across its B rows."""
    n = spec.n_qubits
    ring = _ring_permutation(n, spec.entangler_range)
    for layer in range(spec.n_layers):
        for start, stop, kron in blocks:
            states = _apply_block(states, n, start, stop, kron[:, layer])
        if ring is not None:
            states = states[..., ring[0]]
    return states


def _forward(features: np.ndarray, blocks: list, spec: CircuitSpec):
    """Final states (k, B, 2**n) and <Z_i> (k, B, n) of a stack of k models
    for a (k, B, n) feature batch through prebuilt layer blocks, without
    checks: the training step's kernel, whose blocks the adjoint sweep
    reuses."""
    states = _entangle(_product_state(features, spec.embedding_rotation_axis),
                       blocks, spec)
    probs = states.real * states.real + states.imag * states.imag
    return states, probs @ _z_sign_matrix(spec.n_qubits)


def forward_states(features: np.ndarray, weights: np.ndarray, spec: CircuitSpec):
    """Final states (B, 2**n) and expectation values <Z_i> (B, n_qubits) for
    a (B, n_qubits) feature batch under shared (L, n, 3) weights."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.n_qubits:
        raise ShapeError(f"features must be (B, {spec.n_qubits}), got {features.shape}")
    weights = _check_weights(weights, spec)
    states, z = _forward(features[None], _layer_blocks(_rot_mats(weights[None])), spec)
    return states[0], z[0]


def forward_batch(features: np.ndarray, weights: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    """Expectation values <Z_i> for a batch of circuits.

    ``features`` is (B, n_qubits); ``weights`` is shared (L, n, 3).  Returns
    (B, n_qubits).
    """
    return forward_states(features, weights, spec)[1]


def _check_weights(weights: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != spec.weight_shape:
        raise ShapeError(
            f"weights must have shape {spec.weight_shape}, got {weights.shape}"
        )
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    return weights


def random_weights(spec: CircuitSpec, rng: np.random.Generator) -> np.ndarray:
    """Trainable rotation angles, uniform in [0, 2*pi)."""
    return rng.uniform(0.0, 2.0 * np.pi, size=spec.weight_shape)


# ---------------------------------------------------------------------------
# single-state API

def init_zero_state(n_qubits: int) -> StateVector:
    """The |0...0> register."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_qubits > MAX_QUBITS:
        raise QubitCapError(
            f"n_qubits={n_qubits} exceeds the simulator cap of {MAX_QUBITS}"
        )
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _check_wire(state: StateVector, wire: int) -> None:
    if not 0 <= wire < state.n_qubits:
        raise IndexError(f"wire {wire} out of range for {state.n_qubits} qubits")


def apply_single_qubit_rotation(
    state: StateVector, wire: int, axis: str, theta: float
) -> StateVector:
    """Rotate one wire about a Pauli axis."""
    _check_wire(state, wire)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    mat = rotation_matrix(axis, theta)
    out = _apply_1q_kernel(state.amplitudes[None, :], state.n_qubits, wire, mat)
    return StateVector(state.n_qubits, out[0])


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Controlled-NOT between two wires."""
    _check_wire(state, control)
    _check_wire(state, target)
    if control == target:
        raise ValueError("control and target wires must differ")
    out = _apply_cnot_kernel(state.amplitudes[None, :], state.n_qubits, control, target)
    return StateVector(state.n_qubits, out[0])


def angle_embed(features, spec: CircuitSpec) -> StateVector:
    """Encode one feature per wire as a rotation from |0...0>."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (spec.n_qubits,):
        raise ShapeError(
            f"expected {spec.n_qubits} features, got shape {features.shape}"
        )
    states = _product_state(features[None, :], spec.embedding_rotation_axis)
    return StateVector(spec.n_qubits, states[0])


def apply_entangling_layers(
    state: StateVector, weights, spec: CircuitSpec
) -> StateVector:
    """Per-wire Rot(alpha, beta, gamma) rotations followed by a CNOT ring,
    repeated for each layer."""
    weights = _check_weights(np.asarray(weights, dtype=np.float64), spec)
    if state.n_qubits != spec.n_qubits:
        raise ShapeError("state width does not match spec")
    out = _entangle(state.amplitudes[None, None, :],
                    _layer_blocks(_rot_mats(weights[None])), spec)
    return StateVector(state.n_qubits, out[0, 0])


def expval_z(state: StateVector, wire: int) -> float:
    """Pauli-Z expectation of one wire, in [-1, 1]."""
    _check_wire(state, wire)
    return float(_expval_kernel(state.amplitudes[None, :], state.n_qubits, wire)[0])


def quantum_layer_forward(features, weights, spec: CircuitSpec) -> np.ndarray:
    """The quantum layer: embed, entangle, read <Z_i> for every wire."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (spec.n_qubits,):
        raise ShapeError(
            f"expected {spec.n_qubits} features, got shape {features.shape}"
        )
    weights = _check_weights(np.asarray(weights, dtype=np.float64), spec)
    return forward_batch(features[None, :], weights, spec)[0]
