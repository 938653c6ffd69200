"""Gradients of the quantum layer.

Training uses :func:`adjoint_vjp`, the exact vector-Jacobian product from one
forward pass and one reverse sweep (adjoint differentiation): the forward
pass keeps each layer's state, so the sweep takes back only the adjoint
state, not the circuit's state as well.  The parameter-shift rule is kept
as the reference it is tested against: every trainable angle feeds a
rotation gate whose generator has eigenvalues +-1/2, so the two-point rule
with shifts of +-pi/2 is exact for this gate set.  A central
finite-difference oracle is provided for cross-checking both.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qsim
from .errors import ShapeError
from .qsim import CircuitSpec

SHIFT = np.pi / 2.0


@dataclass(frozen=True)
class ParameterIndex:
    """Address of one scalar angle inside the weight tensor."""

    layer: int
    wire: int
    axis: int

    def check(self, spec: CircuitSpec) -> None:
        if not 0 <= self.layer < spec.n_layers:
            raise IndexError(f"layer {self.layer} out of range")
        if not 0 <= self.wire < spec.n_qubits:
            raise IndexError(f"wire {self.wire} out of range")
        if not 0 <= self.axis < 3:
            raise IndexError(f"axis {self.axis} out of range")


def _check_output_wire(wire: int, spec: CircuitSpec) -> None:
    if not 0 <= wire < spec.n_qubits:
        raise IndexError(f"output wire {wire} out of range")


def _shifted_difference(features, weights, spec: CircuitSpec, p: ParameterIndex,
                        output_wire: int, delta: float) -> float:
    """f(theta + delta) - f(theta - delta) for the addressed angle."""
    weights = np.asarray(weights, dtype=np.float64)
    p.check(spec)
    _check_output_wire(output_wire, spec)
    features = np.asarray(features, dtype=np.float64)[None, :]
    plus, minus = weights.copy(), weights.copy()
    plus[p.layer, p.wire, p.axis] += delta
    minus[p.layer, p.wire, p.axis] -= delta
    f_plus = qsim.forward_batch(features, plus, spec)[0, output_wire]
    return f_plus - qsim.forward_batch(features, minus, spec)[0, output_wire]


def param_shift_grad(features, weights, spec: CircuitSpec, p: ParameterIndex,
                     output_wire: int) -> float:
    """d<Z_output_wire>/d(theta_p) = [f(theta+pi/2) - f(theta-pi/2)] / 2."""
    return float(_shifted_difference(features, weights, spec, p, output_wire, SHIFT) / 2.0)


def quantum_jacobian(features, weights, spec: CircuitSpec) -> np.ndarray:
    """All shift-rule derivatives, indexed [output_wire][layer][wire][axis].

    Uses 2 * n_layers * n_qubits * 3 circuit evaluations; every output wire is
    read from the same pair of evaluations.
    """
    features = np.asarray(features, dtype=np.float64)
    return jacobian_batch(features[None, :], weights, spec)[0]


def jacobian_batch(features: np.ndarray, weights, spec: CircuitSpec) -> np.ndarray:
    """Per-sample shift-rule jacobians for a (B, n_qubits) feature batch.

    Returns (B, n_qubits, n_layers, n_qubits, 3).  Each angle costs two
    batched forward passes; this is the reference that :func:`adjoint_vjp`
    is tested against, not the training path.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = qsim._check_weights(weights, spec)
    n, layers = spec.n_qubits, spec.n_layers
    grads = np.empty((len(features), n, weights.size))
    for i in range(weights.size):
        plus, minus = weights.copy(), weights.copy()
        plus.flat[i] += SHIFT
        minus.flat[i] -= SHIFT
        grads[:, :, i] = (qsim.forward_batch(features, plus, spec)
                          - qsim.forward_batch(features, minus, spec)) / 2.0
    return grads.reshape(len(features), n, layers, n, 3)


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


def adjoint_vjp(features: np.ndarray, upstream: np.ndarray, weights,
                spec: CircuitSpec) -> np.ndarray:
    """Exact ``sum_b sum_o upstream[b, o] d<Z_o>_b / d weights``, shape
    (n_layers, n_qubits, 3), for a (B, n_qubits) feature batch, by adjoint
    differentiation: one forward pass that keeps each layer's state after
    its rotations, then one reverse sweep of the adjoint state alone.

    The observable ``sum_o u_o Z_o`` is diagonal, so the adjoint state
    lambda starts as ``psi * (upstream @ signs.T)`` on the state before the
    last CNOT ring, with the ring folded into the signs.  At each layer, the
    cross term ``C_ij = sum conj(lambda_i) psi_j`` of every wire, over the
    batch and the other wires, of lambda and the layer's kept psi gives
    each angle of the layer's fused ``Rot = RZ(a) RY(b) RZ(g)`` gates its
    gradient ``Im sum(G * C)``, with generators ``G_a = Z``,
    ``G_b = RZ(a) Y RZ(a)^dag`` and ``G_g = Rot Z Rot^dag``.  Then lambda
    alone is taken back through the layer's rotations, one dense matmul per
    wire block, and the ring before them.  Peak memory is at most about
    ``n_layers + 5`` (B, 2**n) buffers.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = qsim._check_weights(weights, spec)
    n = spec.n_qubits
    upstream = np.asarray(upstream, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != n or upstream.shape != features.shape:
        raise ShapeError(
            f"features (B, {n}) and upstream (B, {n}) expected, got "
            f"{features.shape} and {upstream.shape}")
    mats = qsim._rot_mats(weights[None])
    blocks = qsim._layer_blocks(mats[:, 1:])
    kept = []
    qsim._forward(features[None], mats[:, 0], blocks, spec, kept)
    return _adjoint(kept, upstream[None], weights[None], blocks, spec)[0]


def _adjoint(kept: list, upstream: np.ndarray, weights: np.ndarray, blocks: list,
             spec: CircuitSpec) -> np.ndarray:
    """:func:`adjoint_vjp` for a stack of k models, without checks: the
    training step's kernel.  ``kept`` holds the (k, B, 2**n) states and
    ``blocks`` the layer blocks of :func:`qsim._forward`'s pass, ``upstream``
    is (k, B, n) and ``weights`` (k, n_layers, n_qubits, 3); returns each
    model's gradient, stacked like ``weights``.  The states are dropped from
    ``kept`` as the sweep passes them."""
    n, layers, k = spec.n_qubits, spec.n_layers, len(weights)
    ring = qsim._ring_permutation(n, spec.entangler_range)
    # lambda is carried as mu = conj(lambda): undoing a rotation U on lambda,
    # U^dag lambda, is then U^T mu, a transposed view rather than a conj copy
    mu = kept[-1].conj()
    mu *= upstream @ qsim._readout_signs(n, spec.entangler_range).T
    cross = np.empty((k, layers, n, 2, 2), dtype=np.complex128)
    for layer in range(layers - 1, -1, -1):
        psi = kept.pop()
        for start, stop in qsim._wire_blocks(n):
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
                mu = qsim._apply_block(mu, n, start, stop,
                                       kron[:, layer - 1].swapaxes(-1, -2))
            if ring is not None:
                mu = np.take(mu, ring[1], axis=-1)

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


def finite_diff_oracle(features, weights, spec: CircuitSpec, p: ParameterIndex,
                       output_wire: int, h: float = 1e-5) -> float:
    """Central difference [f(theta+h) - f(theta-h)] / 2h, the test oracle."""
    if not 0.0 < h <= 1e-2:
        raise ValueError("h must be in (0, 1e-2]")
    return float(_shifted_difference(features, weights, spec, p, output_wire, h) / (2.0 * h))
