"""Shared independent oracles for the test suite.

Everything here is deliberately naive: dense Kronecker-product unitaries,
all-pairs AUC counting, explicit per-index loops.  The oracles must not share
code paths with the package so that agreement is evidence, not tautology.
"""
import numpy as np

I2 = np.eye(2, dtype=np.complex128)


def oracle_rotation(axis, theta):
    h = theta / 2.0
    c, s = np.cos(h), np.sin(h)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]])
    return np.array([[np.exp(-1j * h), 0], [0, np.exp(1j * h)]])


def oracle_1q_on_wire(n, wire, mat):
    """Full 2^n x 2^n unitary: mat on one wire, identity elsewhere.
    Wire 0 is the most significant bit, so it is the leftmost Kronecker factor."""
    u = np.array([[1.0]], dtype=np.complex128)
    for w in range(n):
        u = np.kron(u, mat if w == wire else I2)
    return u


def oracle_cnot(n, control, target):
    dim = 1 << n
    u = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        if (k >> (n - 1 - control)) & 1:
            j = k ^ (1 << (n - 1 - target))
        else:
            j = k
        u[j, k] = 1.0
    return u


def oracle_circuit_state(features, weights, n, layers, axis="Y", rng_range=1):
    """Dense-matrix evaluation of embed + entangling layers from |0...0>."""
    dim = 1 << n
    state = np.zeros(dim, dtype=np.complex128)
    state[0] = 1.0
    for w in range(n):
        state = oracle_1q_on_wire(n, w, oracle_rotation(axis, features[w])) @ state
    for layer in range(layers):
        for w in range(n):
            a, b, g = weights[layer][w]
            rot = (oracle_rotation("Z", a) @ oracle_rotation("Y", b)
                   @ oracle_rotation("Z", g))
            state = oracle_1q_on_wire(n, w, rot) @ state
        if n == 2:
            state = oracle_cnot(n, 0, 1) @ state
        elif n > 2:
            for w in range(n):
                state = oracle_cnot(n, w, (w + rng_range) % n) @ state
    return state


def oracle_z_sign(n, wire, k):
    """Eigenvalue of Z on one wire for the basis state |k>."""
    return -1.0 if (k >> (n - 1 - wire)) & 1 else 1.0


def oracle_expval_z(state, n, wire):
    total = 0.0
    for k, amp in enumerate(state):
        total += oracle_z_sign(n, wire, k) * (amp.real ** 2 + amp.imag ** 2)
    return total


def oracle_quantum_layer(features, weights, n, layers, axis="Y", rng_range=1):
    state = oracle_circuit_state(features, weights, n, layers, axis, rng_range)
    return np.array([oracle_expval_z(state, n, w) for w in range(n)])


def oracle_auc_pairs(pos, neg):
    """All-pairs Mann-Whitney count; exact in floating point because every
    comparison contributes 0, 0.5 or 1."""
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def oracle_smote_neighbors(X, y, n_classes, k_neighbors):
    """SMOTE's neighbour table from the whole (c, c, d) distance tensor of
    each class that needs growing, as the package computed it before it
    worked in row blocks: the dense reference for the blocked table."""
    counts = np.bincount(y, minlength=n_classes)
    table = []
    for c, count in enumerate(counts):
        if count in (0, counts.max()):
            table.append(None)
            continue
        Xc = X[y == c]
        d2 = np.sum((Xc[:, None, :] - Xc[None, :, :]) ** 2, axis=2)
        np.fill_diagonal(d2, np.inf)
        table.append(np.argsort(d2, axis=1, kind="stable")[:, :min(k_neighbors, count - 1)])
    return table
