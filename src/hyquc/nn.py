"""Classical dense layers, activations, losses and SGD.

These are the classical half of the hybrid model.  Forward/backward accept
either a single sample (1-D) or a batch (2-D, samples in rows); gradients for
a batch are summed over the rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

PROB_CLIP = 1e-12

ACTIVATIONS = ("sigmoid", "relu", "softmax", "identity")


def sigmoid(x):
    """Logistic function 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=np.float64)
    # exp of -|x| never overflows; it is exp(-x) where x >= 0 and exp(x)
    # elsewhere, the two stable forms
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return float(out) if out.ndim == 0 else out


def relu(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.maximum(x, 0.0)
    return float(out) if out.ndim == 0 else out


def softmax(logits) -> np.ndarray:
    """Stable softmax over the last axis; rows sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    if z.size == 0:
        raise ShapeError("softmax of an empty sequence")
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "sigmoid":
        return sigmoid(z)
    if name == "relu":
        return relu(z)
    if name == "softmax":
        return softmax(z)
    if name == "identity":
        return z
    raise ValueError(f"unknown activation {name!r}")


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
    return _activate(activation, x @ weights.swapaxes(-1, -2) + bias)


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
    if activation == "sigmoid":
        dz = upstream * y * (1.0 - y)
    elif activation == "relu":
        dz = upstream * (y > 0)  # y > 0 exactly where the pre-activation is
    elif activation == "softmax":
        dz = y * (upstream - np.sum(upstream * y, axis=-1, keepdims=True))
    else:
        dz = upstream
    return dz.swapaxes(-1, -2) @ x, dz.sum(axis=-2), dz @ weights


def bce_loss(y: int, y_hat: float) -> float:
    """Binary cross-entropy -[y log p + (1-y) log(1-p)] with clipped p."""
    p = min(max(float(y_hat), PROB_CLIP), 1.0 - PROB_CLIP)
    return float(-(y * np.log(p) + (1 - y) * np.log(1.0 - p)))


def cross_entropy_loss(y: int, probs) -> float:
    """-log probs[y] with the same clipping as bce_loss."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= y < probs.shape[-1]:
        raise IndexError(f"class {y} out of range for {probs.shape[-1]} classes")
    p = float(probs[y])
    if p >= 1.0 - PROB_CLIP:
        return 0.0
    return float(-np.log(max(p, PROB_CLIP)))


def sgd_update(params, grads, eta: float):
    """Vanilla gradient step params - eta * grads."""
    if eta < 0:
        raise ValueError("learning rate must be nonnegative")
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ShapeError(f"shape mismatch {params.shape} vs {grads.shape}")
    return params - eta * grads
