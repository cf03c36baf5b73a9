"""Pauli matrices s_a on C^2 and their tensor products s_ab on C^4.

All matrices built here have entries in {0, +-1, +-i}.  Every such
value is exactly representable in binary floating point, so numpy
complex arrays double as exact objects: sums and products of them incur
no rounding as long as no division by a non-power-of-two occurs.

Only the dense oracle (:mod:`lattice16.dense`) builds these arrays; the
decision path needs just the index map of s_a s_b, i_a(b) = a ^ b.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["pauli", "sigma_pair", "EPSILON", "ALL_SITES"]

# Sites of the 4x4 lattice L16, ordered by bit position 4*alpha + beta.
ALL_SITES = tuple((alpha, beta) for alpha in range(4) for beta in range(4))

_SIGMA = (
    np.array([[1, 0], [0, 1]], dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Transposition acts diagonally on the Pauli basis: T[s_a] = eps_aa s_a.
EPSILON = np.diag([1.0, 1.0, -1.0, 1.0])


def pauli(alpha: int) -> np.ndarray:
    """The 2x2 Pauli matrix s_alpha, with s_0 the identity."""
    return _SIGMA[alpha].copy()


@cache
def sigma_pair(alpha: int, beta: int) -> np.ndarray:
    """The 4x4 tensor product s_alpha (x) s_beta (cached, read-only):
    entry (2i + k, 2j + l) is s_alpha[i, j] * s_beta[k, l]."""
    m = (_SIGMA[alpha][:, None, :, None] * _SIGMA[beta][None, :, None, :]).reshape(4, 4)
    m.setflags(write=False)
    return m
