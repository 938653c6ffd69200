"""Reference gradients of the quantum layer.

Training takes the exact vector-Jacobian product of :mod:`qsim`'s forward
pass and reverse sweep (adjoint differentiation), through
:func:`hybrid.loss_and_grads`.  This module keeps the references that
gradient is tested against: every trainable angle feeds a rotation gate
whose generator has eigenvalues +-1/2, so the two-point parameter-shift rule
with shifts of +-pi/2 is exact for this gate set, and a central
finite-difference oracle cross-checks it.  All three shift one angle at a
time through :func:`_shifted_difference`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qsim
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


def _shifted_difference(features: np.ndarray, weights: np.ndarray, spec: CircuitSpec,
                        i: int, delta: float) -> np.ndarray:
    """f(theta + delta) - f(theta - delta), (B, n_qubits), for a (B, n_qubits)
    feature batch and the angle at flat index ``i`` of checked ``weights``."""
    plus, minus = weights.copy(), weights.copy()
    plus.flat[i] += delta
    minus.flat[i] -= delta
    return qsim.forward_batch(features, plus, spec) - qsim.forward_batch(features, minus, spec)


def _angle_difference(features, weights, spec: CircuitSpec, p: ParameterIndex,
                      output_wire: int, delta: float) -> float:
    """:func:`_shifted_difference` of one row at one output wire, for the
    addressed angle."""
    p.check(spec)
    if not 0 <= output_wire < spec.n_qubits:
        raise IndexError(f"output wire {output_wire} out of range")
    features = np.asarray(features, dtype=np.float64)[None, :]
    i = np.ravel_multi_index((p.layer, p.wire, p.axis), spec.weight_shape)
    return _shifted_difference(features, qsim._check_weights(weights, spec), spec, i,
                               delta)[0, output_wire]


def param_shift_grad(features, weights, spec: CircuitSpec, p: ParameterIndex,
                     output_wire: int) -> float:
    """d<Z_output_wire>/d(theta_p) = [f(theta+pi/2) - f(theta-pi/2)] / 2."""
    return float(_angle_difference(features, weights, spec, p, output_wire, SHIFT) / 2.0)


def jacobian_batch(features: np.ndarray, weights, spec: CircuitSpec) -> np.ndarray:
    """Per-sample shift-rule jacobians for a (B, n_qubits) feature batch.

    Returns (B, n_qubits, n_layers, n_qubits, 3).  Each angle costs two
    batched forward passes; this is the reference the training gradient is
    tested against, not the training path.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = qsim._check_weights(weights, spec)
    grads = np.empty((len(features), spec.n_qubits, weights.size))
    for i in range(weights.size):
        grads[:, :, i] = _shifted_difference(features, weights, spec, i, SHIFT) / 2.0
    return grads.reshape(len(features), spec.n_qubits, *weights.shape)


def finite_diff_oracle(features, weights, spec: CircuitSpec, p: ParameterIndex,
                       output_wire: int, h: float = 1e-5) -> float:
    """Central difference [f(theta+h) - f(theta-h)] / 2h, the test oracle."""
    if not 0.0 < h <= 1e-2:
        raise ValueError("h must be in (0, 1e-2]")
    return float(_angle_difference(features, weights, spec, p, output_wire, h) / (2.0 * h))
