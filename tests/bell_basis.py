"""The paper's definition of the Bell-type basis, as the tests' reference.

psi_ab = (I_4 (x) sigma_ab) |psi+> and P_ab = |psi_ab><psi_ab|, built
with the Kronecker product one site at a time.  ``lattice16.dense``
builds the same arrays in closed form (Psi from the sigma_ab stack, the
projectors as one broadcast outer product); the tests check that the
two agree with exact equality.
"""

from __future__ import annotations

import numpy as np

from lattice16 import pauli


def psi_plus() -> np.ndarray:
    """Maximally entangled unit vector in C^16: reshaped to 4x4 it is I/2."""
    v = np.zeros(16, dtype=complex)
    for i in range(4):
        v[4 * i + i] = 0.5
    return v


def psi_pair(alpha: int, beta: int) -> np.ndarray:
    """Basis vector (I_4 (x) s_ab) |psi_plus>."""
    return np.kron(np.eye(4), pauli.sigma_pair(alpha, beta)) @ psi_plus()


def projector(alpha: int, beta: int) -> np.ndarray:
    """Rank-1 projector P_ab onto psi_pair(alpha, beta), complex."""
    v = psi_pair(alpha, beta)
    return np.outer(v, v.conj())


def slot_w(v: np.ndarray) -> np.ndarray:
    """W = (I_4 (x) V) Psi, Psi the 16 psi_pair columns."""
    psi = np.stack([psi_pair(a, b) for a, b in pauli.ALL_SITES], axis=1)
    return np.kron(np.eye(4), v) @ psi
