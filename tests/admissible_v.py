"""General admissible V for the float checks of the extended reduction map.

``lattice16.dense`` applies Phi_V only with the six single-Pauli
V = sigma_xy, whose hypotheses it checks exactly.  The tests also probe
Phi_V with general unitary antisymmetric V, drawn at random; this module
holds that machinery, with its float tolerances: ``VMatrix`` (a checked
V with its Pauli expansion), ``pauli_coefficients``,
``random_admissible_v`` and ``phi_v_tilde_diagonal``, the closed-form
diagonal element the dense route is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lattice16 import lattice, pauli


@dataclass(frozen=True)
class VMatrix:
    """An admissible 4x4 unitary antisymmetric matrix with its Pauli
    expansion (supported only on slots (a,2) and (2,b), a,b != 2).
    Both arrays are read-only copies."""

    matrix: np.ndarray
    label: str = "general"
    coefficients: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError("V must be 4x4")
        if np.abs(m @ m.conj().T - np.eye(4)).max() > 1e-12:
            raise ValueError("V is not unitary")
        if np.abs(m.T + m).max() > 1e-12:
            raise ValueError("V is not antisymmetric")
        c = pauli_coefficients(m)
        two = np.arange(4) == 2
        if np.any((np.abs(c) > 1e-12) & (two[:, None] == two)):
            raise ValueError("V has Pauli support outside the antisymmetric slots")
        m.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "coefficients", c)


def pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """Expansion coefficients v[a][b] of a 4x4 matrix over sigma_ab."""
    return np.array(
        [[np.trace(pauli.sigma_pair(a, b) @ m) / 4 for b in range(4)] for a in range(4)]
    )


def phi_v_tilde_diagonal(mask: int, mu: int, nu: int, v: VMatrix) -> float:
    """Closed-form diagonal element <psi_mn| (id x Phi~_V)[rho_I] |psi_mn>.

    Equals k_mn/(2N) - (1/N) sum over (a,b) in I of |v_{mu^a, nu^b}|^2,
    where mu ^ a is the index map i_mu(a).
    """
    n = lattice.state_cardinality(mask)
    points = lattice.sites(mask)
    absorbed = sum(abs(v.coefficients[mu ^ a, nu ^ b]) ** 2 for a, b in points)
    return lattice.k_matrix(mask)[mu][nu] / (2.0 * n) - absorbed / n


def random_admissible_v(rng: np.random.Generator) -> VMatrix:
    """Haar-style random admissible V: congruence of sigma_20 by a
    random unitary preserves both antisymmetry and unitarity."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return VMatrix(q @ pauli.sigma_pair(2, 0) @ q.T, label="random")
