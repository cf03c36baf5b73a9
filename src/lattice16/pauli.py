"""Pauli tensor algebra on C^2, C^4 and C^16.

All matrices built here have entries in {0, +-1, +-i, +-1/2, +-1/4}.
Every such value is exactly representable in binary floating point, so
numpy complex arrays double as exact objects: sums and products of them
incur no rounding as long as no division by a non-power-of-two occurs.
The projectors P_ab are real, and are returned as real arrays.

Only the dense oracle (:mod:`lattice16.dense`) builds these arrays; the
decision path needs just the index map of s_a s_b, i_a(b) = a ^ b.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .lattice import ConsistencyError

__all__ = [
    "pauli",
    "sigma_pair",
    "psi_plus",
    "psi_pair",
    "projector",
    "EPSILON",
    "ALL_SITES",
]

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


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def pauli(alpha: int) -> np.ndarray:
    """The 2x2 Pauli matrix s_alpha, with s_0 the identity."""
    return _SIGMA[alpha].copy()


@cache
def sigma_pair(alpha: int, beta: int) -> np.ndarray:
    """The 4x4 tensor product s_alpha (x) s_beta (cached, read-only)."""
    return _frozen(np.kron(_SIGMA[alpha], _SIGMA[beta]))


def psi_plus() -> np.ndarray:
    """Maximally entangled unit vector in C^16: reshaped to 4x4 it is I/2."""
    v = np.zeros(16, dtype=complex)
    for i in range(4):
        v[4 * i + i] = 0.5
    return v


@cache
def psi_pair(alpha: int, beta: int) -> np.ndarray:
    """Basis vector (I_4 (x) s_ab) |psi_plus> (cached, read-only)."""
    return _frozen(np.kron(np.eye(4), sigma_pair(alpha, beta)) @ psi_plus())


@cache
def projector(alpha: int, beta: int) -> np.ndarray:
    """Rank-1 projector P_ab onto psi_pair(alpha, beta), real float64
    (cached, read-only); ConsistencyError unless exactly real."""
    v = psi_pair(alpha, beta)
    p = np.outer(v, v.conj())
    if np.any(p.imag != 0.0):
        raise ConsistencyError(f"projector P_{alpha}{beta} is not real")
    return _frozen(np.ascontiguousarray(p.real))
