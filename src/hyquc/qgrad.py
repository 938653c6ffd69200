"""Gradients of the quantum layer.

Training uses the exact vector-Jacobian product from one forward pass and
one reverse sweep (adjoint differentiation): the forward pass keeps each
layer's state, so the sweep takes back only the adjoint state, not the
circuit's state as well.  Both walks are :mod:`qsim`'s kernels, which alone
know the circuit's layer layout; :func:`adjoint_vjp` is their checked
single-model entry.  The parameter-shift rule is kept as the reference they
are tested against: every trainable angle feeds a rotation gate whose
generator has eigenvalues +-1/2, so the two-point rule with shifts of +-pi/2
is exact for this gate set.  A central finite-difference oracle is provided
for cross-checking both.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def adjoint_vjp(features: np.ndarray, upstream: np.ndarray, weights,
                spec: CircuitSpec) -> np.ndarray:
    """Exact ``sum_b sum_o upstream[b, o] d<Z_o>_b / d weights``, shape
    (n_layers, n_qubits, 3), for a (B, n_qubits) feature batch, by adjoint
    differentiation: one forward pass that keeps each layer's state after
    its rotations, then one reverse sweep of the adjoint state alone
    (:func:`qsim._adjoint`, the training step's kernel, for a stack of one).
    Peak memory is at most about ``n_layers + 5`` (B, 2**n) buffers.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = qsim._check_weights(weights, spec)
    n = spec.n_qubits
    upstream = np.asarray(upstream, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != n or upstream.shape != features.shape:
        raise ShapeError(
            f"features (B, {n}) and upstream (B, {n}) expected, got "
            f"{features.shape} and {upstream.shape}")
    kept = []
    _, blocks = qsim._forward(features[None], weights[None], spec, kept)
    return qsim._adjoint(kept, upstream[None], weights[None], blocks, spec)[0]


def finite_diff_oracle(features, weights, spec: CircuitSpec, p: ParameterIndex,
                       output_wire: int, h: float = 1e-5) -> float:
    """Central difference [f(theta+h) - f(theta-h)] / 2h, the test oracle."""
    if not 0.0 < h <= 1e-2:
        raise ValueError("h must be in (0, 1e-2]")
    return float(_shifted_difference(features, weights, spec, p, output_wire, h) / (2.0 * h))
