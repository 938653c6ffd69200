"""Classical dense layers, activations, losses and SGD.

These are the classical half of the hybrid model.  Forward/backward accept
either a single sample (1-D) or a batch (2-D, samples in rows); gradients for
a batch are summed over the rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

PROB_CLIP = 1e-12


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; it is exp(-x) where x >= 0 and exp(x)
    # elsewhere, the two stable forms
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _softmax(z: np.ndarray) -> np.ndarray:
    # the row max as a chain of maximums over the few class columns: max is
    # exact, so this is the reduction's value at a fraction of its cost
    top = z[..., 0]
    for j in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., j])
    e = np.exp(z - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x))."""
    out = _sigmoid(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def relu(x):
    out = _relu(np.asarray(x, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis; rows sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("softmax of an empty sequence")
    return _softmax(z)


# name -> (function, derivative) on float64 arrays: the derivative maps the
# layer output y and dL/dy to dL/dz (relu's y is positive exactly where its
# pre-activation z is)
ACTIVATIONS = {
    "sigmoid": (_sigmoid, lambda y, dy: dy * y * (1.0 - y)),
    "relu": (_relu, lambda y, dy: dy * (y > 0)),
    "softmax": (_softmax, lambda y, dy: y * (dy - (dy * y).sum(axis=-1, keepdims=True))),
    "identity": (lambda z: z, lambda y, dy: dy),
}


@dataclass
class DenseLayer:
    """Fully connected layer y = activation(W x + b)."""

    weights: np.ndarray  # (out_dim, in_dim)
    bias: np.ndarray     # (out_dim,)
    activation: str = "identity"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(
                f"inconsistent layer shapes {self.weights.shape} / {self.bias.shape}"
            )
        if 0 in self.weights.shape:
            raise ShapeError(f"a dense layer needs at least one input and one output, "
                             f"got weights of shape {self.weights.shape}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class MLPHead:
    """Stack of dense layers; the last activation must be softmax."""

    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("head needs at least one layer")
        for a, b in zip(self.layers, self.layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(
                    f"layer dimensions do not chain: {a.out_dim} -> {b.in_dim}"
                )
        if self.layers[-1].activation != "softmax":
            raise ValueError("final head activation must be softmax")

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


def init_head(in_dim: int, n_classes: int, rng: np.random.Generator,
              hidden=(8, 8), hidden_activation: str = "sigmoid") -> MLPHead:
    """Random head with weights uniform in [-0.5, 0.5]."""
    dims = [in_dim, *hidden, n_classes]
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        act = "softmax" if i == len(dims) - 2 else hidden_activation
        layers.append(DenseLayer(
            rng.uniform(-0.5, 0.5, size=(d_out, d_in)),
            rng.uniform(-0.5, 0.5, size=d_out),
            act,
        ))
    return MLPHead(layers)


def dense_forward(layer: DenseLayer, x) -> np.ndarray:
    """activation(W x + b); batched when x is 2-D."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(f"expected input width {layer.in_dim}, got {x.shape}")
    return _dense(x, layer.weights, layer.bias, layer.activation)


def _dense(x: np.ndarray, weights: np.ndarray, bias: np.ndarray,
           activation: str) -> np.ndarray:
    """activation(x W^T + b) without checks: the training step's kernel.  For
    a stack of k layers ``weights`` is (k, out_dim, in_dim), ``bias``
    (k, 1, out_dim) and ``x`` (k, B, in_dim)."""
    return ACTIVATIONS[activation][0](x @ weights.swapaxes(-1, -2) + bias)


def dense_backward(layer: DenseLayer, x, upstream_grad):
    """Chain-rule gradients given dL/dy at the layer output.

    Returns (grad_weights, grad_bias, grad_input).  For a 2-D batch the
    parameter gradients are summed over samples and grad_input stays per-sample.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream_grad, dtype=np.float64)
    single = x.ndim == 1
    xb = np.atleast_2d(x)
    ub = np.atleast_2d(upstream)
    if xb.shape[1] != layer.in_dim or ub.shape[1] != layer.out_dim:
        raise ShapeError("backward shapes do not match the layer")
    gw, gb, gx = _layer_backward(layer.activation, layer.weights, xb,
                                 dense_forward(layer, xb), ub)
    return gw, gb, gx[0] if single else gx


def _layer_backward(activation: str, weights: np.ndarray, x: np.ndarray,
                    y: np.ndarray, upstream: np.ndarray):
    """:func:`dense_backward` for a (B, in_dim) batch ``x`` whose outputs
    ``y`` are already known, without checks: the training step's kernel.
    For a stack of k layers every argument gains a leading model axis, and
    so does every gradient."""
    dz = ACTIVATIONS[activation][1](y, upstream)
    return dz.swapaxes(-1, -2) @ x, dz.sum(axis=-2), dz @ weights


def bce_loss(y: int, y_hat: float) -> float:
    """Binary cross-entropy -[y log p + (1-y) log(1-p)] with clipped p."""
    p = min(max(float(y_hat), PROB_CLIP), 1.0 - PROB_CLIP)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


def cross_entropy_losses(p_true: np.ndarray) -> np.ndarray:
    """-log p of the probabilities given to the true classes, element-wise:
    p is clipped below at PROB_CLIP, and the loss is zero within PROB_CLIP of 1."""
    return np.where(p_true >= 1.0 - PROB_CLIP, 0.0,
                    -np.log(np.maximum(p_true, PROB_CLIP)))


def sgd_update(params, grads, eta: float):
    """Vanilla gradient step params - eta * grads."""
    if eta < 0:
        raise ValueError("learning rate must be nonnegative")
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ShapeError(f"shape mismatch {params.shape} vs {grads.shape}")
    return params - eta * grads
