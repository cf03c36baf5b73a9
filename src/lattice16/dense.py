"""Dense oracle: 16x16 states, partial transposition, spectra.

Decisions about PPT/NPT are always taken combinatorially in
:mod:`lattice16.lattice`; this module checks them against the dense
operators.

The basis Psi = [psi_ab] and the projectors P_ab = |psi_ab><psi_ab| are
built once, from the 16 sigma_ab of :func:`pauli.sigma_pair`:
psi_ab = (I x sigma_ab) |psi+> is vec(sigma_ab^T) / 2 exactly, with
psi+ = vec(I_4) / 2.  Every projector is real, and rho_I is a real
combination of them, so the whole module works in real dtype.  Each
partially transposed projector is exactly +-1/4 sum_mn P_mn, so on
psi_mn 4N rho_I^Gamma has the eigenvalue 2 |I & P+_mn| - N, where P+_mn
is the set of sites whose sign is +1; the closed form says it is
N - 2 k_mn.  The sweep proves the 16 identities in exact (dyadic) float
arithmetic and checks the spectrum and the PPT flag of every mask with
integer equality, streaming |I & P+_mn| and k_mn one 64 KB column mn at
a time from :func:`tables.column_sums`.

Phi_V[B] = Tr(B) I_4 - B - V B^T V* is defined once, by :func:`phi_v`;
:func:`apply_id_tensor_phi` applies it through its 16x16 matrix, built
from phi_v of the unit matrices.  The sweep applies it only with the six
V = sigma_xy of ``witness.canonical_slot``, after checking exactly the
hypotheses of its positivity proof (in :mod:`lattice16.witness`), to the
16 projectors in the psi basis Psi of the sign identities.  It proves
the k=1 witness identity of each (site, contributor) pair on every
projector, which by linearity gives the witness value of every mask; a
failed identity names the one-site subset of its projector.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice, pauli, tables, witness

__all__ = [
    "projector_stack",
    "build_lattice_state",
    "partial_transpose",
    "pt_spectrum",
    "analytic_pt_spectrum",
    "pt_min_eigenvalues_all",
    "oracle_sweep",
    "theta_v",
    "phi_v",
    "apply_id_tensor_phi",
]


@functools.cache
def projector_stack() -> np.ndarray:
    """(16, 16, 16) float64 array of the projectors P_ab = |psi_ab><psi_ab|,
    indexed by 4*a + b (cached, read-only); ConsistencyError unless every
    imaginary part is exactly 0."""
    cols = _psi().T
    p = cols[:, :, None] * cols.conj()[:, None, :]
    if np.any(p.imag != 0.0):
        raise lattice.ConsistencyError("a projector P_ab is not real")
    p = np.ascontiguousarray(p.real)
    p.setflags(write=False)
    return p


def build_lattice_state(mask: int) -> np.ndarray:
    """rho_I: the uniform mixture of the projectors labeled by I."""
    n = lattice.state_cardinality(mask)
    idx = [4 * a + b for a, b in lattice.sites(mask)]
    return projector_stack()[idx].sum(axis=0) / n


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second 4-dimensional tensor factor of each 16x16
    matrix in a stack of shape (..., 16, 16)."""
    lead = m.shape[:-2]
    return m.reshape(*lead, 4, 4, 4, 4).swapaxes(-3, -1).reshape(*lead, 16, 16)


@functools.cache
def _psi() -> np.ndarray:
    """(16, 16) complex Psi, read-only: column 4*a + b is
    psi_ab = (I (x) sigma_ab) |psi+>, with psi+ = vec(I_4) / 2, so entry
    (4*i + j, 4*a + b) is sigma_ab[j, i] / 2, exactly."""
    sigmas = np.stack([pauli.sigma_pair(a, b) for a, b in pauli.ALL_SITES])
    psi = sigmas.transpose(2, 1, 0).reshape(16, 16) / 2
    psi.setflags(write=False)
    return psi


def _pt_signs() -> np.ndarray:
    """(16, 16) int64 table sign[s, mn]: 4 P_s^Gamma = sum_mn sign * P_mn.

    Proven in exact float arithmetic (every entry is dyadic): Psi is
    unitary and each 4 Psi^dag P_s^Gamma Psi is diagonal with entries
    +-1.  ConsistencyError otherwise.
    """
    psi = _psi()
    d = 4 * (psi.conj().T @ partial_transpose(projector_stack()) @ psi)
    signs = np.diagonal(d, axis1=1, axis2=2)
    if not (
        np.array_equal(psi.conj().T @ psi, np.eye(16))
        and np.array_equal(d, signs[:, :, None] * np.eye(16))
        and np.isin(signs, (-1, 1)).all()
    ):
        raise lattice.ConsistencyError("a P_s^Gamma is not a +-1/4 sum of the P_mn")
    return signs.real.astype(np.int64)


def pt_spectrum(mask: int) -> np.ndarray:
    """Numeric spectrum of the partial transpose of rho_I, ascending;
    ValueError unless 0 <= mask <= FULL_MASK."""
    return np.linalg.eigvalsh(partial_transpose(build_lattice_state(mask)))


def analytic_pt_spectrum(mask: int) -> np.ndarray:
    """The closed-form partial-transpose spectrum {1/4 - k_mn/(2N)},
    ascending; ValueError unless 0 <= mask <= FULL_MASK."""
    n = lattice.state_cardinality(mask)
    return np.sort(0.25 - np.ravel(lattice.k_matrix(mask)) / (2.0 * n))


def pt_min_eigenvalues_all() -> np.ndarray:
    """Minimum PT eigenvalue of every nonempty mask, with no eigensolver:
    min_mn (2 |I & P+_mn| - N) / 4N, by the identity :func:`_pt_signs` proves.

    Index i of the result corresponds to mask i + 1.
    """
    # The minimum over the columns mn; int64 next: 2 * pos - n can be < 0.
    pos = functools.reduce(np.minimum, tables.column_sums(_pt_signs() > 0))
    pos = pos[1:].astype(np.int64)
    n = tables.cardinality()[1:].astype(np.int64)
    return (2 * pos - n) / (4.0 * n)


def theta_v(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The antiunitary conjugation B -> V B^T V* of each 4x4 matrix in a stack."""
    return v @ b.swapaxes(-1, -2) @ v.conj().T


def phi_v(v: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr(B) I - B - theta_V[B] of each 4x4 B in a stack (positive for admissible V)."""
    trace = np.trace(b, axis1=-2, axis2=-1)[..., None, None]
    return trace * np.eye(4) - b - theta_v(v, b)


def apply_id_tensor_phi(v: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply Phi_V to the second factor of a 16x16 bipartite operator, or
    of each one in a stack of shape (..., 16, 16).

    Phi_V is linear, so it is the 16x16 matrix whose row 4*a + b is
    :func:`phi_v` of the unit matrix E_ab, flattened; every flattened
    4x4 block is multiplied by it.  On dyadic input (the projectors)
    each entry is the same exact sum as phi_v's own."""
    lead = rho.shape[:-2]
    phi = phi_v(v, np.eye(16).reshape(16, 4, 4)).reshape(16, 16)
    # (i, a, j, b) -> (i, j, a, b): row 4*i + j holds block (i, j) flattened.
    blocks = rho.reshape(*lead, 4, 4, 4, 4).swapaxes(-3, -2).reshape(*lead, 16, 16)
    # Stacked (..., 16, 16) @ (16, 16), not one flattened (16 * len, 16)
    # product: cold, on a 2-core machine, the flattened product of the
    # projector stack took 4-7 ms in the threaded BLAS, the stacked 0.15.
    out = blocks @ phi
    return out.reshape(*lead, 4, 4, 4, 4).swapaxes(-3, -2).reshape(*lead, 16, 16)


def _slot_v(x: int, y: int) -> np.ndarray:
    """V = sigma_xy once V V^dag = I and V^T = -V hold exactly (its entries
    are 0, +-1, +-i); ConsistencyError otherwise (canonical_slot chose it)."""
    v = pauli.sigma_pair(x, y)
    if not (np.array_equal(v @ v.conj().T, np.eye(4)) and np.array_equal(v.T, -v)):
        raise lattice.ConsistencyError(f"sigma_{x}{y} is not an admissible V")
    return v


def _slot_w(v: np.ndarray) -> np.ndarray:
    """W = (I x V) Psi, read-only: V times each 4-row block of Psi."""
    w = (v @ _psi().reshape(4, 4, 16)).reshape(16, 16)
    w.setflags(write=False)
    return w


def _tilde_diagonal(rho: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The diagonal of W^dag (id x Phi_V)[rho] W, W = (I x V) Psi: entry (mu, nu)
    is <psi_mn| (I x V^dag) (id x Phi_V)[rho] (I x V) |psi_mn>, real, of shape
    (..., 4, 4) for a stack of shape (..., 16, 16)."""
    w = _slot_w(v)
    diag = (w.conj() * (apply_id_tensor_phi(v, rho) @ w)).sum(axis=-2).real
    return diag.reshape(*rho.shape[:-2], 4, 4)


def oracle_sweep() -> dict:
    """Check the combinatorial PPT flag and the closed-form PT spectrum
    against the dense operators on every nonempty mask, and the k=1
    witness identities on every projector, with exact equality.

    On psi_mn, 4N rho_I^Gamma has the eigenvalue sum over s in I of
    sign[s, mn] = 2 |I & P+_mn| - N, so the spectrum check is the count
    equality |I & P+_mn| = N - k_mn and the PPT flag is
    2 min_mn |I & P+_mn| >= N.

    For each site mn and each contributor c on its cross, twice column mn
    of the dense diagonal of the slot ``witness.canonical_slot`` picks is
    CROSS[s, mn] - 2 [s == c] in every row s: the 1,536 identities
    counted in ``report["witnesses_checked"]``.  Each site's six
    contributors pick the six admissible slots, and rho_I is linear in
    the P_s, so they prove the value (k_mn - 2 absorbed) / (2N) of every
    mask and slot, -1/(2N) at each k=1 site.  A failed identity is
    reported as the one-site subset 1 << s of its projector.

    Returns a report dict; ``report["disagreements"]`` is empty on success.
    """
    n = tables.cardinality()
    # Over the columns mn: the minimum of pos = |I & P+_mn| and the OR of
    # (pos + k) ^ n.  uint8 wraps mod 256, but pos <= n <= 16, so pos + k
    # == n mod 256 only if k == n - pos exactly: the XOR is 0 exactly
    # there, and a mask's OR is 0 exactly when all 16 counts agree.
    least, off = np.full_like(n, 16), np.zeros_like(n)
    signs, cross = tables.column_sums(_pt_signs() > 0), tables.column_sums(tables.CROSS)
    for pos, k in zip(signs, cross):
        np.minimum(least, pos, out=least)
        pos += k  # in place: each column is a fresh array
        pos ^= n
        off |= pos
    # Index i below is mask i + 1.
    checks = (
        ("ppt_sign", tables.ppt()[1:] != (2 * least[1:] >= n[1:])),
        ("spectrum", off[1:] != 0),
    )
    disagreements = [
        (kind, int(i) + 1) for kind, bad in checks for i in np.flatnonzero(bad)
    ]
    # One (site mn, contributor c) pair per point of each cross.
    sites_of, contributors = np.nonzero(tables.CROSS.T)
    slots = [
        witness.canonical_slot(divmod(c, 4), (mn // 4 ^ 2, mn % 4 ^ 2))
        for mn, c in zip(sites_of.tolist(), contributors.tolist())
    ]
    index = {slot: i for i, slot in enumerate(dict.fromkeys(slots))}
    # diag[i, s, mn]: the dense value of P_s at site mn under slot i.
    diag = np.stack([_tilde_diagonal(projector_stack(), _slot_v(*x)) for x in index])
    # got[p, s]: twice the value of P_s at the site of pair p, under its slot.
    got = 2 * diag.reshape(-1, 16, 16)[[index[x] for x in slots], :, sites_of]
    expected = tables.CROSS.T[sites_of] - 2 * (contributors[:, None] == np.arange(16))
    failed = np.flatnonzero((got != expected).any(axis=0))
    disagreements += [("witness", 1 << int(s)) for s in failed]
    return {
        "masks_swept": len(n) - 1,
        "spectra_checked": len(n) - 1,
        "witnesses_checked": got.size,
        "disagreements": disagreements,
    }
