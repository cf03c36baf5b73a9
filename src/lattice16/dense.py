"""Dense numeric oracle: 16x16 states, partial transposition, spectra.

Decisions about PPT/NPT are always taken combinatorially in
:mod:`lattice16.lattice`; this module exists to cross-validate those
decisions with floating-point linear algebra.

Every projector P_ab is real, and rho_I is a real combination of them,
so the whole module works in real dtype.  Each partially transposed
projector is exactly +-1/4 sum_mn P_mn, which makes the closed-form
spectrum {1/4 - k_mn/(2N)} hold for every mask; the sweep checks it
numerically on all of them, and checks the k=1 witness value -1/(2N)
on every witnessed mask.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice, pauli, tables, witness

__all__ = [
    "projector_stack",
    "build_lattice_state",
    "build_diag_state",
    "partial_transpose",
    "pt_spectrum",
    "analytic_pt_spectrum",
    "pt_min_eigenvalues_all",
    "oracle_sweep",
]


@functools.cache
def projector_stack() -> np.ndarray:
    """(16, 16, 16) real array of the projectors P_ab, indexed by 4*a + b."""
    s = np.stack([pauli.projector(a, b) for a, b in pauli.ALL_SITES])
    s.setflags(write=False)
    return s


def build_lattice_state(mask: int) -> np.ndarray:
    """rho_I: the uniform mixture of the projectors labeled by I."""
    n = lattice.cardinality(mask)
    if n == 0:
        raise lattice.EmptySubsetError("no lattice state for the empty subset")
    idx = [4 * a + b for a, b in lattice.sites(mask)]
    return projector_stack()[idx].sum(axis=0) / n


def build_diag_state(pi) -> np.ndarray:
    """rho_pi = sum pi_ab P_ab for a 4x4 probability table."""
    weights = np.array(lattice.validate_probability_table(pi), dtype=float)
    return np.tensordot(weights.reshape(16), projector_stack(), axes=1)


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second 4-dimensional tensor factor of each 16x16
    matrix in a stack of shape (..., 16, 16)."""
    lead = m.shape[:-2]
    return m.reshape(*lead, 4, 4, 4, 4).swapaxes(-3, -1).reshape(*lead, 16, 16)


def _cardinalities(masks: np.ndarray) -> np.ndarray:
    n = tables.cardinality()[masks]
    if not n.all():
        raise lattice.EmptySubsetError("no lattice state for the empty subset")
    return n


def _pt_spectra(masks: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Ascending spectra of rho_I^Gamma, one row per mask, shape (len, 16).

    rho_I^Gamma = sum over s in I of P_s^Gamma / N, so the partial
    transpose is taken once, on the projector stack.
    """
    counts = _cardinalities(masks)
    pts = partial_transpose(projector_stack()).reshape(16, 256)
    out = np.empty((len(masks), 16))
    for lo in range(0, len(masks), chunk):
        hi = lo + chunk
        weights = (masks[lo:hi, None] >> np.arange(16) & 1) / counts[lo:hi, None]
        out[lo:hi] = np.linalg.eigvalsh((weights @ pts).reshape(-1, 16, 16))
    return out


def _analytic_spectra(masks: np.ndarray) -> np.ndarray:
    """The closed form {1/4 - k_mn/(2N)}, ascending, one row per mask."""
    n = _cardinalities(masks)
    return np.sort(0.25 - tables.k_table()[masks] / (2.0 * n[:, None]), axis=1)


def pt_spectrum(mask: int) -> np.ndarray:
    """Numeric spectrum of the partial transpose of rho_I, ascending."""
    return _pt_spectra(np.array([mask & lattice.FULL_MASK]))[0]


def analytic_pt_spectrum(mask: int) -> np.ndarray:
    """The closed-form partial-transpose spectrum {1/4 - k_mn/(2N)}."""
    return _analytic_spectra(np.array([mask & lattice.FULL_MASK]))[0]


def pt_min_eigenvalues_all() -> np.ndarray:
    """Minimum PT eigenvalue, numerically, for every nonempty mask.

    Index i of the result corresponds to mask i + 1.
    """
    return _pt_spectra(tables.masks()[1:])[:, 0]


def _tilde_diagonal(rho: np.ndarray, v: witness.VMatrix) -> np.ndarray:
    """<psi_mn| (I x V^dag) (id x Phi_V)[rho] (I x V) |psi_mn> for every
    (mu, nu), by the dense operator route: a real (..., 4, 4) array for a
    stack of shape (..., 16, 16)."""
    iv = np.kron(np.eye(4), v.matrix)
    tilde = iv.conj().T @ witness.apply_id_tensor_phi(v, rho) @ iv
    psi = np.stack([pauli.psi_pair(mu, nu) for mu, nu in pauli.ALL_SITES])
    diag = np.einsum("ki,...ij,kj->...k", psi.conj(), tilde, psi).real
    return diag.reshape(*rho.shape[:-2], 4, 4)


def _witness_values() -> tuple[np.ndarray, np.ndarray]:
    """(masks, dense values) for every k=1 site of every PPT mask, one
    entry per (mask, site), with the contributor and V of witness_scan.

    weight[c, mn, s] is the dense value of P_s at the diagonal site
    (mu, nu) when site c is the one point of I on the cross through
    (mu+2, nu+2); it is computed once per canonical V.
    """
    a, b = np.divmod(np.arange(16), 4)
    on_cross = (a == (a ^ 2)[:, None]) != (b == (b ^ 2)[:, None])  # [mn, s]
    per_v, weight = {}, np.zeros((16, 16, 16))
    for mn, c in zip(*np.nonzero(on_cross)):
        v = witness.canonical_v_for((a[c], b[c]), (a[mn] ^ 2, b[mn] ^ 2))
        key = v.matrix.tobytes()
        if key not in per_v:
            per_v[key] = _tilde_diagonal(projector_stack(), v)
        weight[c, mn] = per_v[key][:, a[mn], b[mn]]
    ppt = np.flatnonzero(tables.ppt())
    rows, sites = np.nonzero(tables.k_table()[ppt] == 1)
    masks = ppt[rows]
    bits = masks[:, None] >> np.arange(16) & 1
    contributor = np.argmax(bits & on_cross[sites], axis=1)
    values = (weight[contributor, sites] * bits).sum(axis=1)
    return masks, values / tables.cardinality()[masks]


def oracle_sweep(tol: float = 1e-9) -> dict:
    """Cross-validate the combinatorial PPT criterion, the analytic PT
    spectrum and the k=1 witness value against dense numerics on every
    nonempty mask.

    Returns a report dict; ``report["disagreements"]`` is empty on success.
    """
    masks = tables.masks()[1:]
    spectra = _pt_spectra(masks)
    min_eigs = spectra[:, 0]
    # Index i below is mask i + 1.
    checks = (
        ("ppt_sign", tables.ppt()[1:] != (min_eigs >= -tol)),
        (
            "margin",
            (tables.ppt_margin()[1:] != 0) & (np.abs(min_eigs) <= 1e-6) & (min_eigs < 0),
        ),
        ("spectrum", np.abs(spectra - _analytic_spectra(masks)).max(axis=1) > tol),
    )
    disagreements = [
        (kind, int(i) + 1) for kind, bad in checks for i in np.flatnonzero(bad)
    ]
    witnessed, values = _witness_values()
    bound = -1.0 / (2.0 * tables.cardinality()[witnessed])
    disagreements += [
        ("witness", int(m)) for m in np.unique(witnessed[np.abs(values - bound) > tol])
    ]
    return {
        "masks_swept": len(masks),
        "spectra_checked": len(spectra),
        "witnesses_checked": len(values),
        "disagreements": disagreements,
    }
