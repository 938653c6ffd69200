"""Exact statevector simulator for the angle-embedding + entangling-layer circuit.

This is the one module that knows the circuit's layer layout: the forward
kernel :func:`_forward` and the adjoint sweep :func:`_adjoint` that walks it
back, both over a stack of models, serve training and scoring; the public
functions and the single-state API run on the same kernels.

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

# widest run of wires whose Rot gates are fused into one dense matrix: a
# block's matmul costs 2**s multiply-adds per amplitude, so wider blocks trade
# arithmetic for fewer calls
MAX_BLOCK = 5


def _check_width(n_qubits: int) -> None:
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    if n_qubits > MAX_QUBITS:
        raise QubitCapError(
            f"n_qubits={n_qubits} exceeds the simulator cap of {MAX_QUBITS}"
        )


@dataclass(frozen=True)
class CircuitSpec:
    """Static description of the circuit: register width, depth and the
    CNOT-ring offset.  Features are embedded with RY."""

    n_qubits: int
    n_layers: int
    entangler_range: int = 1

    def __post_init__(self):
        _check_width(self.n_qubits)
        if self.n_layers < 1:
            raise ValueError("n_layers must be >= 1")
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
        n = amps.size.bit_length() - 1
        if n < 1 or 1 << n != amps.size:
            raise ShapeError(
                f"amplitude count {amps.size} is not a power of two >= 2")
        sv = cls(n, amps)
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
# batched kernels, shared by the circuit paths and the single-state API

def _cnot_permutation(n: int, control: int, target: int) -> np.ndarray:
    k = np.arange(1 << n)
    cmask = 1 << (n - 1 - control)
    tmask = 1 << (n - 1 - target)
    return np.where(k & cmask, k ^ tmask, k)


# the caches below are keyed by register width (and ring offset), which
# MAX_QUBITS bounds, so they stay small
@lru_cache(maxsize=None)
def _ring_permutation(n: int, entangler_range: int):
    """One layer's CNOT ring (w -> w + entangler_range mod n for each wire in
    turn) composed into a single gather index, with its inverse:
    ``np.take(states, perm, axis=-1)`` applies the ring and ``inv`` undoes it.
    The arrays are shared by every caller, so they are read-only."""
    # a one-wire register has no ring, so its index is the identity; a full
    # ring on two wires would pair each CNOT with its reverse, so a single
    # CNOT per layer is the conventional two-wire ring
    pairs = ([] if n == 1 else [(0, 1)] if n == 2
             else [(w, (w + entangler_range) % n) for w in range(n)])
    perm = np.arange(1 << n)
    for control, target in pairs:
        perm = perm[_cnot_permutation(n, control, target)]
    inv = np.empty_like(perm)
    inv[perm] = np.arange(1 << n)
    perm.flags.writeable = False
    inv.flags.writeable = False
    return perm, inv


@lru_cache(maxsize=None)
def _z_sign_matrix(n: int) -> np.ndarray:
    """(2**n, n) eigenvalues of Z on every wire: ``probs @ signs`` reads all
    wires at once.  Shared by every caller, so read-only."""
    k = np.arange(1 << n)[:, None]
    bits = (k >> (n - 1 - np.arange(n))) & 1
    signs = 1.0 - 2.0 * bits
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=None)
def _readout_signs(n: int, entangler_range: int) -> np.ndarray:
    """:func:`_z_sign_matrix` with the last layer's CNOT ring folded in:
    ``probs @ signs`` of the state before that ring reads <Z_i> of the state
    after it, so the readout needs no gather.  Read-only."""
    signs = _z_sign_matrix(n)[_ring_permutation(n, entangler_range)[1]]
    signs.flags.writeable = False
    return signs


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


def _product_state(features: np.ndarray, gates: np.ndarray) -> np.ndarray:
    """Angle-embed a (..., n_qubits) feature batch from |0...0> with RY,
    then apply one 2x2 gate per wire, such as the first layer's Rot gates,
    given as (..., n_qubits, 2, 2) matrices that broadcast against the
    features.  Returns (..., 2**n_qubits) states.

    Each wire's gate acts on that wire's embedded two-amplitude vector, so
    the register is their tensor product (wire 0 leftmost): n - 1 broadcast
    multiplies, built from the last wire leftwards so that each runs over
    the long axis innermost."""
    h = features / 2.0
    c, s = np.cos(h), np.sin(h)
    wires = gates[..., 0] * c[..., None] + gates[..., 1] * s[..., None]
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
    """The Rot gates of a stack of k models, given as (k, layers, n_qubits,
    2, 2) matrices, grouped into dense blocks: one ``(start, stop, kron)``
    per wire block, where ``kron`` is the (k, layers, 2**s, 2**s) Kronecker
    product of the block's s Rot matrices.  The Rots of one layer act on
    different wires, so the blocks commute and their product is the whole
    layer's rotation.  The forward pass takes layers 1.. only, since the
    first layer acts on the product state (:func:`_product_state`)."""
    if mats.shape[-4] == 0:  # a one-layer circuit has no later layer
        return []
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


def _forward(features: np.ndarray, weights: np.ndarray, spec: CircuitSpec,
             kept: list = None):
    """``(z, blocks)`` of a stack of k models on a (k, B, n) feature batch,
    without checks: <Z_i> (k, B, n) under the models' (k, n_layers, n, 3)
    angles, and the :func:`_layer_blocks` of layers 1.., which the adjoint
    sweep takes back.  The first layer's Rot gates act on the product state
    (:func:`_product_state`), the blocks on the register, and the last
    layer's CNOT ring is folded into the readout (:func:`_readout_signs`).
    Where ``kept`` is a list, each layer's (k, B, 2**n) state after its
    rotations and before its ring is appended to it: the states
    :func:`_adjoint` reads.  Scoring keeps none, so that one layer's state
    at a time is live."""
    n = spec.n_qubits
    mats = _rot_mats(weights)
    blocks = _layer_blocks(mats[:, 1:])
    perm, _ = _ring_permutation(n, spec.entangler_range)
    states = _product_state(features, mats[:, 0, None])
    for layer in range(spec.n_layers - 1):
        if kept is not None:
            kept.append(states)
        # C-contiguous, unlike a fancy index, so that a model's products
        # (one-row ones too) do not depend on its stack
        states = np.take(states, perm, axis=-1)
        for start, stop, kron in blocks:
            states = _apply_block(states, n, start, stop, kron[:, layer])
    if kept is not None:
        kept.append(states)
    probs = states.real * states.real + states.imag * states.imag
    return probs @ _readout_signs(n, spec.entangler_range), blocks


@lru_cache(maxsize=None)
def _partial_trace_index(s: int) -> np.ndarray:
    """(s, 2, 2, 2**(s-1)) flat indices into a (2**s, 2**s) block matrix:
    ``g.ravel()[index].sum(-1)`` traces every wire of the block but the k-th
    out of ``g``, leaving wire k's 2x2 matrix at ``[k]``.  Shared by every
    caller, so read-only."""
    d = 1 << s
    rest = np.arange(d >> 1)
    index = np.empty((s, 2, 2, d >> 1), dtype=np.intp)
    for k in range(s):
        bit = 1 << (s - 1 - k)  # wire k's bit, big-endian within the block
        # the other wires' bits, with a zero spliced in at wire k's place
        base = ((rest & -bit) << 1) | (rest & (bit - 1))
        row = base + bit * np.arange(2)[:, None, None]
        col = base + bit * np.arange(2)[None, :, None]
        index[k] = row * d + col
    index.flags.writeable = False
    return index


def _adjoint(kept: list, upstream: np.ndarray, weights: np.ndarray, blocks: list,
             spec: CircuitSpec) -> np.ndarray:
    """Exact ``sum_b sum_o upstream[b, o] d<Z_o>_b / d weights`` of a stack
    of k models, without checks, by adjoint differentiation: the reverse
    sweep of :func:`_forward`'s pass, whose ``kept`` states and ``blocks`` it
    takes, with (k, B, n) ``upstream`` and (k, n_layers, n, 3) ``weights``.
    Returns each model's gradient, stacked like ``weights``; the states are
    dropped from ``kept`` as the sweep passes them.

    The observable ``sum_o u_o Z_o`` is diagonal, so the adjoint state
    lambda starts as ``psi * (upstream @ signs.T)`` on the state before the
    last CNOT ring, with the ring folded into the signs.  At each layer, the
    cross term ``C_ij = sum conj(lambda_i) psi_j`` of every wire, over the
    batch and the other wires, of lambda and the layer's kept psi gives
    each angle of the layer's fused ``Rot = RZ(a) RY(b) RZ(g)`` gates its
    gradient ``Im sum(G * C)``, with generators ``G_a = Z``,
    ``G_b = RZ(a) Y RZ(a)^dag`` and ``G_g = Rot Z Rot^dag``.  Then lambda
    alone is taken back through the layer's rotations, one dense matmul per
    wire block, and the ring before them."""
    n, layers, k = spec.n_qubits, spec.n_layers, len(weights)
    _, inv = _ring_permutation(n, spec.entangler_range)
    # lambda is carried as mu = conj(lambda): undoing a rotation U on lambda,
    # U^dag lambda, is then U^T mu, a transposed view rather than a conj copy
    mu = kept[-1].conj()
    mu *= upstream @ _readout_signs(n, spec.entangler_range).T
    cross = np.empty((k, layers, n, 2, 2), dtype=np.complex128)
    for layer in range(layers - 1, -1, -1):
        psi = kept.pop()
        for start, stop in _wire_blocks(n):
            # a wire's cross term does not change under a unitary applied to
            # psi and lambda on the other wires, so one block matrix
            # g = lambda^H psi per model holds the terms of all its wires
            d, right = 1 << (stop - start), 1 << (n - stop)
            if right == 1:  # nothing to the right: one product, not a stack
                g = mu.reshape(k, -1, d).swapaxes(-1, -2) @ psi.reshape(k, -1, d)
            else:
                g = (mu.reshape(k, -1, d, right)
                     @ psi.reshape(k, -1, d, right).swapaxes(-1, -2)).sum(axis=1)
            cross[:, layer, start:stop] = g.reshape(k, -1).take(
                _partial_trace_index(stop - start), axis=1).sum(-1)
        del psi  # freed before lambda's undo allocates
        if layer:
            for start, stop, kron in blocks:
                mu = _apply_block(mu, n, start, stop, kron[:, layer - 1].swapaxes(-1, -2))
            mu = np.take(mu, inv, axis=-1)

    # Im sum(G * C) in closed form, with e = exp(-i a): G_a = Z;
    # G_b = [[0, -i e], [i conj(e), 0]]; and, since RZ(g) commutes with Z,
    # G_g = RZ(a) RY(b) Z RY(b)^dag RZ(a)^dag = cos(b) Z + sin(b) [[0, e], [conj(e), 0]]
    c00, c01, c10, c11 = (cross[..., i, j] for i in (0, 1) for j in (0, 1))
    e = np.exp(-1j * weights[..., 0])
    grads = np.empty(weights.shape)
    grads[..., 0] = (c00 - c11).imag
    e01, e10 = e * c01, np.conj(e) * c10
    grads[..., 1] = (e10 - e01).real  # Im(i z) = Re(z)
    grads[..., 2] = (np.cos(weights[..., 1]) * grads[..., 0]
                     + np.sin(weights[..., 1]) * (e01 + e10).imag)
    return grads


def forward_batch(features: np.ndarray, weights: np.ndarray, spec: CircuitSpec) -> np.ndarray:
    """Expectation values <Z_i> for a batch of circuits: the checked entry to
    :func:`_forward` for a stack of one.

    ``features`` is (B, n_qubits); ``weights`` is shared (L, n, 3).  Returns
    (B, n_qubits).  Keeps no layer states, so that one layer's state at a
    time is live.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != spec.n_qubits:
        raise ShapeError(f"features must be (B, {spec.n_qubits}), got {features.shape}")
    return _forward(features[None], _check_weights(weights, spec)[None], spec)[0][0]


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
    _check_width(n_qubits)
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
    out = _apply_block(state.amplitudes[None, None, :], state.n_qubits, wire, wire + 1,
                       rotation_matrix(axis, theta)[None])
    return StateVector(state.n_qubits, out[0, 0])


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    """Controlled-NOT between two wires."""
    _check_wire(state, control)
    _check_wire(state, target)
    if control == target:
        raise ValueError("control and target wires must differ")
    # CNOT is an involution, so gathering through the permutation is exact
    perm = _cnot_permutation(state.n_qubits, control, target)
    return StateVector(state.n_qubits, state.amplitudes[perm])


def angle_embed(features, spec: CircuitSpec) -> StateVector:
    """Encode one feature per wire as an RY rotation from |0...0>."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (spec.n_qubits,):
        raise ShapeError(
            f"expected {spec.n_qubits} features, got shape {features.shape}"
        )
    states = _product_state(features[None, :], np.eye(2))
    return StateVector(spec.n_qubits, states[0])


def apply_entangling_layers(
    state: StateVector, weights, spec: CircuitSpec
) -> StateVector:
    """Per-wire Rot(alpha, beta, gamma) rotations followed by a CNOT ring,
    repeated for each layer."""
    weights = _check_weights(weights, spec)
    if state.n_qubits != spec.n_qubits:
        raise ShapeError("state width does not match spec")
    n = spec.n_qubits
    blocks = _layer_blocks(_rot_mats(weights[None]))
    perm, _ = _ring_permutation(n, spec.entangler_range)
    out = state.amplitudes[None, None, :]
    for layer in range(spec.n_layers):
        for start, stop, kron in blocks:
            out = _apply_block(out, n, start, stop, kron[:, layer])
        out = np.take(out, perm, axis=-1)
    return StateVector(n, out[0, 0])


def expval_z(state: StateVector, wire: int) -> float:
    """Pauli-Z expectation of one wire, in [-1, 1]."""
    _check_wire(state, wire)
    return float(state.probabilities() @ _z_sign_matrix(state.n_qubits)[:, wire])


def quantum_layer_forward(features, weights, spec: CircuitSpec) -> np.ndarray:
    """The quantum layer: embed, entangle, read <Z_i> for every wire."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (spec.n_qubits,):
        raise ShapeError(
            f"expected {spec.n_qubits} features, got shape {features.shape}"
        )
    return forward_batch(features[None, :], weights, spec)[0]
