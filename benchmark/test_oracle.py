"""Checks of the benchmark's model oracle against closed-form results.

Run with ``python3 -m pytest benchmark/test_oracle.py``.
"""
import numpy as np
import pytest

import oracle


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.2, np.pi / 2, 2.9, np.pi])
def test_z_after_ry_is_cos_theta(theta):
    state = oracle.embed([[theta]], "Y")
    assert oracle.expval_z(state, 1)[0, 0] == pytest.approx(np.cos(theta), abs=1e-14)


def test_z_after_ry_on_one_wire_of_three():
    state = oracle.embed([[0.0, 0.7, 0.0]], "Y")
    assert np.allclose(oracle.expval_z(state, 3)[0], [1.0, np.cos(0.7), 1.0])


def _ring_on_bits(bits, entangler_range):
    bits = list(bits)
    for c, t in oracle.ring_pairs(len(bits), entangler_range):
        bits[t] ^= bits[c]
    return bits


@pytest.mark.parametrize("n,entangler_range", [(2, 1), (3, 1), (4, 1), (4, 2), (5, 3)])
def test_cnot_ring_maps_basis_states(n, entangler_range):
    ring = np.eye(1 << n, dtype=np.complex128)
    for c, t in oracle.ring_pairs(n, entangler_range):
        ring = oracle.cnot(n, c, t) @ ring
    for k in range(1 << n):
        bits = [(k >> (n - 1 - w)) & 1 for w in range(n)]  # wire 0 is the MSB
        out = _ring_on_bits(bits, entangler_range)
        expected = int("".join(map(str, out)), 2)
        column = ring[:, k]
        assert column[expected] == 1 and np.count_nonzero(column) == 1


def test_two_wire_ring_is_a_single_cnot():
    assert oracle.ring_pairs(2, 1) == [(0, 1)]
    # |10> -> |11> and |11> -> |10>
    ring = oracle.cnot(2, 0, 1)
    assert ring[3, 2] == 1 and ring[2, 3] == 1


def test_softmax_rows_sum_to_one():
    z = np.random.default_rng(0).normal(0, 30, size=(50, 4))
    p = oracle.softmax(z)
    assert np.all(p >= 0)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
