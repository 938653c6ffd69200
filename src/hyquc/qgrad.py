"""Gradients of the quantum layer.

Training uses :func:`adjoint_vjp`, the exact vector-Jacobian product from one
forward pass and one reverse sweep (adjoint differentiation).  The
parameter-shift rule is kept as the reference it is tested against: every
trainable angle feeds a rotation gate whose generator has eigenvalues +-1/2,
so the two-point rule with shifts of +-pi/2 is exact for this gate set.  A
central finite-difference oracle is provided for cross-checking both.
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


def adjoint_vjp(states: np.ndarray, upstream: np.ndarray, weights,
                spec: CircuitSpec) -> np.ndarray:
    """Exact ``sum_b sum_o upstream[b, o] d<Z_o>_b / d weights``, shape
    (n_layers, n_qubits, 3), by adjoint differentiation.

    ``states`` are the (B, 2**n) final states that :func:`qsim.forward_states`
    returned for ``weights``.  The observable ``sum_o u_o Z_o`` is diagonal,
    so the adjoint state starts as ``psi * (upstream @ signs.T)``; the sweep
    then undoes every layer on psi and lambda together, one dense matmul per
    wire block.  After each layer's fused ``Rot = RZ(a) RY(b) RZ(g)`` gates
    the cross term ``C_ij = sum conj(lambda_i) psi_j`` of every wire, over
    the batch and the other wires, gives each angle's gradient as
    ``Im sum(G * C)``, with generators ``G_a = Z``, ``G_b = RZ(a) Y RZ(a)^dag``
    and ``G_g = Rot Z Rot^dag``.  Peak memory is a few (2B, 2**n) buffers.
    """
    weights = qsim._check_weights(weights, spec)
    n, b = spec.n_qubits, states.shape[0]
    upstream = np.asarray(upstream, dtype=np.float64)
    if states.shape != (b, 1 << n) or upstream.shape != (b, n):
        raise ShapeError(
            f"states (B, {1 << n}) and upstream (B, {n}) expected, got "
            f"{states.shape} and {upstream.shape}")
    blocks = qsim._layer_blocks(qsim._rot_mats(weights[None]))
    return _adjoint(states[None], upstream[None], weights[None], blocks, spec)[0]


def _adjoint(states: np.ndarray, upstream: np.ndarray, weights: np.ndarray,
             blocks: list, spec: CircuitSpec) -> np.ndarray:
    """:func:`adjoint_vjp` for a stack of k models through the layer blocks
    the forward pass used, without checks: the training step's kernel.
    ``states`` is (k, B, 2**n), ``upstream`` (k, B, n) and ``weights``
    (k, n_layers, n_qubits, 3); returns each model's gradient, stacked like
    ``weights``."""
    n, layers, (k, b) = spec.n_qubits, spec.n_layers, states.shape[:2]
    ring = qsim._ring_permutation(n, spec.entangler_range)
    # each model's psi in rows [:b], its lambda in rows [b:], so each block
    # is one matmul per model
    pair = np.concatenate([states, states * (upstream @ qsim._z_sign_matrix(n).T)],
                          axis=1)
    cross = np.empty((k, layers, n, 2, 2), dtype=np.complex128)
    for layer in range(layers - 1, -1, -1):
        if ring is not None:
            pair = pair[..., ring[1]]
        for start, stop, kron in blocks:
            # a wire's cross term does not change under a unitary applied to
            # psi and lambda on the other wires, so one block matrix
            # g = lambda^H psi per model holds the terms of all its wires,
            # and undoing a block does not disturb the terms still to be read
            d = kron.shape[-1]
            both = pair.reshape(k, 2, -1, d, 1 << (n - stop))
            psi, lam = both[:, 0], both[:, 1]
            if stop == n:  # nothing to the right: one product, not a stack
                g = lam[..., 0].conj().swapaxes(-1, -2) @ psi[..., 0]
            else:
                g = (lam.conj() @ psi.swapaxes(-1, -2)).sum(axis=1)
            cross[:, layer, start:stop] = g.reshape(k, -1).take(
                _partial_trace_index(stop - start), axis=1).sum(-1)
            if layer:
                pair = qsim._apply_block(pair, n, start, stop,
                                         kron[:, layer].conj().swapaxes(-1, -2))

    # Im sum(G * C) in closed form, with e = exp(-i a): G_a = Z;
    # G_b = [[0, -i e], [i conj(e), 0]]; and, since RZ(g) commutes with Z,
    # G_g = RZ(a) RY(b) Z RY(b)^dag RZ(a)^dag = cos(b) Z + sin(b) [[0, e], [conj(e), 0]]
    c00, c01, c10, c11 = (cross[..., i, j] for i in (0, 1) for j in (0, 1))
    e = np.exp(-1j * weights[..., 0])
    grads = np.empty(weights.shape)
    grads[..., 0] = (c00 - c11).imag
    grads[..., 1] = (np.conj(e) * c10 - e * c01).real  # Im(i z) = Re(z)
    grads[..., 2] = (np.cos(weights[..., 1]) * grads[..., 0]
                     + np.sin(weights[..., 1]) * (e * c01 + np.conj(e) * c10).imag)
    return grads


def finite_diff_oracle(features, weights, spec: CircuitSpec, p: ParameterIndex,
                       output_wire: int, h: float = 1e-5) -> float:
    """Central difference [f(theta+h) - f(theta-h)] / 2h, the test oracle."""
    if not 0.0 < h <= 1e-2:
        raise ValueError("h must be in (0, 1e-2]")
    return float(_shifted_difference(features, weights, spec, p, output_wire, h) / (2.0 * h))
