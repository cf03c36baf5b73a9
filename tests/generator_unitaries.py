"""Concrete local unitaries for the 13 published symmetry generators.

``symmetry.generators`` states each generator as a permutation of the
lattice sites.  ``local_unitary_for`` writes down a 16x16 local unitary
that realizes it, and ``verify_generator_numerically`` checks that
conjugating every projector P_s by that unitary lands on the projector
at the permuted site, which ``site_image`` reads off ``symmetry.act``.
"""

from __future__ import annotations

import numpy as np

from lattice16 import dense, pauli, symmetry

_ID_PERM = (0, 1, 2, 3)


def site_image(g: symmetry.Element, p: int) -> int:
    """The bit position of the image of site p under g."""
    return symmetry.act(g, 1 << p).bit_length() - 1


def local_unitary_for(g: symmetry.Element) -> np.ndarray:
    """A concrete 16x16 local unitary realizing a published generator."""
    swap_axes, col_perm, row_perm = g
    if swap_axes:
        # Both parties flip their two qubits.
        f4 = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                f4[2 * b + a, 2 * a + b] = 1.0
        return np.kron(f4, f4)
    if row_perm == _ID_PERM:
        perm, on_columns = col_perm, True
    elif col_perm == _ID_PERM:
        perm, on_columns = row_perm, False
    else:
        raise ValueError("not a single published generator")
    for gamma in (1, 2, 3):
        if perm == tuple(gamma ^ b for b in range(4)):
            # Conjugation by I (x) sigma_{gamma,0} (or sigma_{0,gamma}).
            s = (
                pauli.sigma_pair(gamma, 0)
                if on_columns
                else pauli.sigma_pair(0, gamma)
            )
            return np.kron(np.eye(4), s)
    moved = [i for i in range(4) if perm[i] != i]
    if len(moved) == 2 and 0 not in moved:
        i, j = moved
        u1 = (pauli.pauli(i) + pauli.pauli(j)) / np.sqrt(2.0)
        u = np.kron(u1, np.eye(2)) if on_columns else np.kron(np.eye(2), u1)
        # First party gets U, second gets U*, per the rotation argument.
        return np.kron(u, u.conj())
    raise ValueError("not a single published generator")


def verify_generator_numerically(g: symmetry.Element, tol: float = 1e-10) -> bool:
    """Check that conjugating every projector by the generator's concrete
    local unitary lands on the projector at the permuted site."""
    w = local_unitary_for(g)
    stack = dense.projector_stack()
    for p in range(16):
        image = w @ stack[p] @ w.conj().T
        if np.abs(image - stack[site_image(g, p)]).max() > tol:
            return False
    return True
