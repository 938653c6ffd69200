"""Independent replay of a saved hyquc model in plain numpy.

Reads a ``model_*.json`` document and computes class probabilities for raw
CSV rows without importing hyquc, so the benchmark can check hyquc's outputs
against a second implementation:

* the stored pipeline: median imputation, one-hot encoding with a trailing
  missing category, PCA projection and min/max scaling into [0, pi];
* the circuit as dense 2^n x 2^n matrices built from Kronecker products of
  2x2 gates, big-endian (wire 0 is the most significant bit): the angle
  embedding, per-wire Rot = RZ(a) RY(b) RZ(g), and the CNOT ring
  (w -> w + r mod n for each wire in turn; a single CNOT when n = 2);
* per-wire <Z> and the dense head ending in a softmax.
"""
from __future__ import annotations

import json
from functools import reduce

import numpy as np

I2 = np.eye(2, dtype=np.complex128)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
P0 = np.diag([1, 0]).astype(np.complex128)
P1 = np.diag([0, 1]).astype(np.complex128)


def rx(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def ry(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


ROTATIONS = {"X": rx, "Y": ry, "Z": rz}


def kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


def cnot(n: int, control: int, target: int) -> np.ndarray:
    """|0><0|_c (x) I + |1><1|_c (x) X_t as a dense 2^n matrix."""
    keep = [P0 if w == control else I2 for w in range(n)]
    flip = [P1 if w == control else X if w == target else I2 for w in range(n)]
    return kron_all(keep) + kron_all(flip)


def ring_pairs(n: int, entangler_range: int) -> list:
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    return [(w, (w + entangler_range) % n) for w in range(n)]


def embed(angles: np.ndarray, axis: str = "Y") -> np.ndarray:
    """(m, 2^n) product states: each wire rotated from |0> by its angle."""
    angles = np.atleast_2d(np.asarray(angles, dtype=np.float64))
    m, n = angles.shape
    zero = np.array([1.0, 0.0], dtype=np.complex128)
    states = np.ones((m, 1), dtype=np.complex128)
    for w in range(n):
        wire = np.array([ROTATIONS[axis](t) @ zero for t in angles[:, w]])
        states = (states[:, :, None] * wire[:, None, :]).reshape(m, -1)
    return states


def entangle(states: np.ndarray, weights: np.ndarray, entangler_range: int = 1) -> np.ndarray:
    """Apply each layer's Rot gates and CNOT ring to (m, 2^n) states."""
    n_layers, n, _ = weights.shape
    for layer in range(n_layers):
        rot = kron_all([rz(a) @ ry(b) @ rz(g) for a, b, g in weights[layer]])
        states = states @ rot.T
        for c, t in ring_pairs(n, entangler_range):
            states = states @ cnot(n, c, t).T
    return states


def expval_z(states: np.ndarray, n: int) -> np.ndarray:
    """(m, n) per-wire <Z>: +1 where the wire's bit is 0, -1 where it is 1."""
    probs = np.abs(states) ** 2
    index = np.arange(1 << n)
    signs = np.array([1 - 2 * ((index >> (n - 1 - w)) & 1) for w in range(n)])
    return probs @ signs.T


def softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


ACTIVATIONS = {
    "identity": lambda z: z,
    "relu": lambda z: np.maximum(z, 0.0),
    "sigmoid": lambda z: 1.0 / (1.0 + np.exp(-z)),
    "softmax": softmax,
}


def _encode(pipe: dict, header: list, rows: list) -> np.ndarray:
    cols = []
    for spec in pipe["encoder_columns"]:
        j = header.index(spec["name"])
        cells = [row[j].strip() for row in rows]
        if spec["kind"] == "numeric":
            cols.append([[spec["median"] if c == "" else float(c)] for c in cells])
        elif spec["kind"] == "categorical":
            cats = spec["categories"]
            one_hot = np.zeros((len(rows), len(cats) + 1))
            for i, c in enumerate(cells):
                one_hot[i, cats.index(c) if c in cats else len(cats)] = 1.0
            cols.append(one_hot)
        else:
            raise ValueError(f"oracle does not replay {spec['kind']!r} columns")
    return np.hstack([np.asarray(c, dtype=np.float64) for c in cols])


def angles(pipe: dict, header: list, rows: list) -> np.ndarray:
    """Replay the stored preprocessing on raw CSV cells."""
    k = pipe["n_components"]
    z = (_encode(pipe, header, rows) - np.array(pipe["pca_mean"])) \
        @ np.array(pipe["pca_components"])[:k].T
    lo, hi = np.array(pipe["scale_mins"]), np.array(pipe["scale_maxs"])
    span = hi - lo
    scaled = np.where(span == 0, np.pi / 2, (z - lo) / np.where(span == 0, 1, span) * np.pi)
    return np.clip(scaled, 0.0, np.pi)


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def probabilities(doc: dict, header: list, rows: list) -> np.ndarray:
    """(m, n_classes) class probabilities of a model document for raw rows."""
    spec = doc["spec"]
    n = spec["n_qubits"]
    states = embed(angles(doc["pipeline"], header, rows), spec["embedding_rotation_axis"])
    states = entangle(states, np.array(doc["qweights"]), spec["entangler_range"])
    act = expval_z(states, n)
    for layer in doc["head"]:
        act = ACTIVATIONS[layer["activation"]](
            act @ np.array(layer["weights"]).T + np.array(layer["bias"]))
    return act
