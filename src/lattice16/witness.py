"""Extended reduction map Phi_V and its entanglement-witness evaluation.

Phi_V[B] = Tr(B) I_4 - B - V B^T V*  with V unitary and antisymmetric.
Partially applied to the second party of a lattice state, its matrix
elements in the entangled basis are controlled by the k-matrix; a site
with k = 1 admits a single-Pauli V giving the value -1/(2N).

Every value here is computed in closed form; :func:`lattice16.dense.oracle_sweep`
checks the k=1 witness by the dense operator route on every subset, exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import lattice, pauli
from .lattice import ConsistencyError

__all__ = [
    "VMatrix",
    "WitnessReport",
    "theta_v",
    "phi_v",
    "apply_id_tensor_phi",
    "canonical_v_for",
    "pauli_coefficients",
    "phi_v_tilde_diagonal",
    "witness_scan",
    "random_admissible_v",
]


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


@dataclass(frozen=True)
class WitnessReport:
    """One negative diagonal element found by the k=1 witness scan."""

    site: tuple[int, int]  # (mu, nu) of the matrix element
    center: tuple[int, int]  # (mu+2, nu+2), the cross center
    center_in_subset: bool
    contributing_site: tuple[int, int]
    v_label: str
    value: float

    def to_json(self) -> dict:
        return {
            "site": list(self.site),
            "center": list(self.center),
            "center_in_subset": self.center_in_subset,
            "contributing_site": list(self.contributing_site),
            "v": self.v_label,
            "value": self.value,
        }


def pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """Expansion coefficients v[a][b] of a 4x4 matrix over sigma_ab."""
    return np.array(
        [[np.trace(pauli.sigma_pair(a, b) @ m) / 4 for b in range(4)] for a in range(4)]
    )


def theta_v(v: VMatrix, b: np.ndarray) -> np.ndarray:
    """The antiunitary conjugation B -> V B^T V*."""
    return v.matrix @ b.T @ v.matrix.conj().T


def phi_v(v: VMatrix, b: np.ndarray) -> np.ndarray:
    """Tr(B) I - B - theta_V[B]; positive on positive inputs."""
    return np.trace(b) * np.eye(4) - b - theta_v(v, b)


def apply_id_tensor_phi(v: VMatrix, rho: np.ndarray) -> np.ndarray:
    """Apply Phi_V to the second factor of a 16x16 bipartite operator, or
    of each one in a stack of shape (..., 16, 16)."""
    lead = rho.shape[:-2]
    blocks = rho.reshape(*lead, 4, 4, 4, 4)  # (i, a, j, b): block (i,j), entry (a,b)
    traces = np.einsum("...iaja->...ij", blocks)
    vm = v.matrix
    theta = np.einsum("ca,...ibja,db->...icjd", vm, blocks, vm.conj())
    out = np.einsum("...ij,ab->...iajb", traces, np.eye(4)) - blocks - theta
    return out.reshape(*lead, 16, 16)


@functools.cache
def _single_pauli_v(a: int, b: int) -> VMatrix:
    """sigma_ab as a VMatrix; ConsistencyError if it is not admissible,
    since the slot comes from lattice16's own index maps."""
    try:
        return VMatrix(pauli.sigma_pair(a, b), label=f"sigma_{a}{b}")
    except ValueError as exc:
        raise ConsistencyError(f"sigma_{a}{b} is not an admissible V: {exc}") from exc


def canonical_v_for(
    contributing: tuple[int, int], center: tuple[int, int]
) -> VMatrix:
    """The single-Pauli V witnessing a k=1 cross (one of six cached
    objects).

    ``center`` is the cross center (mu+2, nu+2) and ``contributing`` the
    one point of I on the cross (center excluded).  The row case picks
    V = sigma_{i_mu(alpha), 2}, the column case V = sigma_{2, i_nu(beta)}.
    """
    a2, b2 = center
    mu, nu = a2 ^ 2, b2 ^ 2
    alpha, beta = contributing
    if contributing == center:
        raise ValueError("contributing site coincides with the cross center")
    if beta == b2 and alpha != a2:
        return _single_pauli_v(pauli.index_map(mu)[alpha], 2)
    if alpha == a2 and beta != b2:
        return _single_pauli_v(2, pauli.index_map(nu)[beta])
    raise ValueError("contributing site is not on the cross")


def phi_v_tilde_diagonal(
    mask: int, mu: int, nu: int, v: VMatrix
) -> float:
    """Closed-form diagonal element <psi_mn| (id x Phi~_V)[rho_I] |psi_mn>.

    Equals k_mn/(2N) - (1/N) sum over (a,b) in I of |v_{i_mu(a), i_nu(b)}|^2.
    """
    points = lattice.sites(mask)
    if not points:
        raise lattice.EmptySubsetError("no lattice state for the empty subset")
    return _tilde_value(lattice.k_matrix(mask)[mu][nu], points, mu, nu, v)


def _tilde_value(k: int, points: list, mu: int, nu: int, v: VMatrix) -> float:
    """phi_v_tilde_diagonal from the k-matrix entry k_mn and the N sites."""
    n = len(points)
    imu = pauli.index_map(mu)
    inu = pauli.index_map(nu)
    absorbed = sum(abs(v.coefficients[imu[a], inu[b]]) ** 2 for a, b in points)
    return k / (2.0 * n) - absorbed / n


def witness_scan(mask: int) -> list[WitnessReport]:
    """All k=1 sites of a PPT subset with their canonical witnesses.

    Each report carries the value computed in closed form, which must
    equal -1/(2N) exactly.  Empty when no k-matrix entry equals 1.
    """
    if not lattice.is_ppt(mask):
        raise ValueError("witness scan is only defined for PPT subsets")
    in_mask = lattice.sites(mask)
    n = len(in_mask)
    k = lattice.k_matrix(mask)
    reports = []
    for mu in range(4):
        for nu in range(4):
            if k[mu][nu] != 1:
                continue
            a2, b2 = mu ^ 2, nu ^ 2
            points = [(a, b) for a, b in in_mask if (a == a2) != (b == b2)]
            if len(points) != 1:
                raise ConsistencyError(
                    f"k=1 at {(mu, nu)} but {len(points)} contributors on its cross"
                )
            v = canonical_v_for(points[0], (a2, b2))
            value = _tilde_value(k[mu][nu], in_mask, mu, nu, v)
            if value != -1.0 / (2 * n):
                raise ConsistencyError(
                    f"canonical witness value {value} != -1/(2*{n})"
                )
            reports.append(
                WitnessReport(
                    site=(mu, nu),
                    center=(a2, b2),
                    center_in_subset=bool(mask >> (4 * a2 + b2) & 1),
                    contributing_site=points[0],
                    v_label=v.label,
                    value=value,
                )
            )
    return reports


def random_admissible_v(rng: np.random.Generator) -> VMatrix:
    """Haar-style random admissible V: congruence of sigma_20 by a
    random unitary preserves both antisymmetry and unitarity."""
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return VMatrix(q @ pauli.sigma_pair(2, 0) @ q.T, label="random")
