"""Dense numeric oracle: 16x16 states, partial transposition, spectra.

Decisions about PPT/NPT are always taken combinatorially in
:mod:`lattice16.lattice`; this module exists to cross-validate those
decisions with floating-point linear algebra.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice, pauli, tables

__all__ = [
    "projector_stack",
    "build_lattice_state",
    "build_diag_state",
    "partial_transpose",
    "hermitian_eigenvalues",
    "pt_spectrum",
    "analytic_pt_spectrum",
    "pt_min_eigenvalues_all",
    "oracle_sweep",
]

@functools.cache
def projector_stack() -> np.ndarray:
    """(16, 16, 16) array of the projectors P_ab, indexed by 4*a + b."""
    s = np.stack([pauli._projector(a, b) for a, b in pauli.ALL_SITES])
    s.setflags(write=False)
    return s


def build_lattice_state(mask: int) -> np.ndarray:
    """rho_I: the uniform mixture of the projectors labeled by I."""
    n = lattice.cardinality(mask)
    if n == 0:
        raise lattice.EmptySubsetError("no lattice state for the empty subset")
    stack = projector_stack()
    idx = [4 * a + b for a, b in lattice.sites(mask)]
    return stack[idx].sum(axis=0) / n


def build_diag_state(pi) -> np.ndarray:
    """rho_pi = sum pi_ab P_ab for a 4x4 probability table."""
    table = lattice.validate_probability_table(pi)
    stack = projector_stack()
    rho = np.zeros((16, 16), dtype=complex)
    for a in range(4):
        for b in range(4):
            w = table[a][b]
            if w:
                rho += float(w) * stack[4 * a + b]
    return rho


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second 4-dimensional tensor factor."""
    return (
        m.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(16, 16)
    )


def hermitian_eigenvalues(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Ascending real spectrum of a Hermitian matrix."""
    if np.abs(m - m.conj().T).max() > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def pt_spectrum(mask: int) -> np.ndarray:
    """Numeric spectrum of the partial transpose of rho_I, ascending."""
    return hermitian_eigenvalues(partial_transpose(build_lattice_state(mask)))


def analytic_pt_spectrum(mask: int) -> np.ndarray:
    """The closed-form partial-transpose spectrum {1/4 - k_mn/(2N)}."""
    n = lattice.cardinality(mask)
    if n == 0:
        raise lattice.EmptySubsetError("no lattice state for the empty subset")
    k = lattice.k_matrix(mask)
    vals = sorted(0.25 - k[mu][nu] / (2.0 * n) for mu in range(4) for nu in range(4))
    return np.array(vals)


def _batched_pt_min_eig(masks: np.ndarray, chunk: int = 4096) -> np.ndarray:
    stack = projector_stack().reshape(16, 256)
    counts = tables.cardinality()[masks]
    out = np.empty(len(masks))
    for lo in range(0, len(masks), chunk):
        hi = min(lo + chunk, len(masks))
        bits = masks[lo:hi, None] >> np.arange(16) & 1
        sel = bits.astype(float) / counts[lo:hi, None]
        rhos = (sel @ stack).reshape(-1, 16, 16)
        pts = rhos.reshape(-1, 4, 4, 4, 4).transpose(0, 1, 4, 3, 2).reshape(-1, 16, 16)
        out[lo:hi] = np.linalg.eigvalsh(pts)[:, 0]
    return out


def pt_min_eigenvalues_all() -> np.ndarray:
    """Minimum PT eigenvalue, numerically, for every nonempty mask.

    Index i of the result corresponds to mask i + 1.
    """
    return _batched_pt_min_eig(tables.masks()[1:])


def oracle_sweep(
    n_random: int = 1000, seed: int = 0, tol: float = 1e-9
) -> dict:
    """Cross-validate the combinatorial PPT criterion and the analytic
    PT spectrum against dense numerics over the whole state space.

    Returns a report dict; ``report["disagreements"]`` is empty on success.
    """
    min_eigs = pt_min_eigenvalues_all()
    # Index i below is mask i + 1, as in min_eigs.
    bad_sign = tables.ppt()[1:] != (min_eigs >= -tol)
    bad_margin = (
        (tables.ppt_margin()[1:] != 0) & (np.abs(min_eigs) <= 1e-6) & (min_eigs < 0)
    )
    disagreements = []
    for i in np.flatnonzero(bad_sign | bad_margin).tolist():
        if bad_sign[i]:
            disagreements.append(("ppt_sign", i + 1))
        if bad_margin[i]:
            disagreements.append(("margin", i + 1))

    rng = np.random.default_rng(seed)
    sample = set(np.flatnonzero(tables.cardinality() <= 5).tolist()) - {0}
    sample.update(int(x) for x in rng.integers(1, lattice.FULL_MASK + 1, n_random))
    spectrum_checked = 0
    for mask in sorted(sample):
        if np.abs(pt_spectrum(mask) - analytic_pt_spectrum(mask)).max() > tol:
            disagreements.append(("spectrum", mask))
        spectrum_checked += 1
    return {
        "masks_swept": lattice.FULL_MASK,
        "spectra_checked": spectrum_checked,
        "disagreements": disagreements,
    }
