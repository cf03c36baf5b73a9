"""Concrete local unitaries for the 13 published symmetry generators.

``symmetry.generators`` states each generator as a permutation of the
lattice sites.  ``local_unitary_for`` writes down a 16x16 local unitary
that realizes it, and ``verify_generator_numerically`` checks that
conjugating every projector P_(a, b) by that unitary lands on the
projector at the permuted site.
"""

from __future__ import annotations

import numpy as np

from lattice16 import dense, pauli
from lattice16.symmetry import SymmetryElement

_ID_PERM = (0, 1, 2, 3)


def local_unitary_for(g: SymmetryElement) -> np.ndarray:
    """A concrete 16x16 local unitary realizing a published generator."""
    if g.swap_axes:
        # Both parties flip their two qubits.
        f4 = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                f4[2 * b + a, 2 * a + b] = 1.0
        return np.kron(f4, f4)
    if g.row_perm == _ID_PERM:
        perm, on_columns = g.col_perm, True
    elif g.col_perm == _ID_PERM:
        perm, on_columns = g.row_perm, False
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


def verify_generator_numerically(g: SymmetryElement, tol: float = 1e-10) -> bool:
    """Check that conjugating every projector by the generator's concrete
    local unitary lands on the projector at the permuted site."""
    w = local_unitary_for(g)
    stack = dense.projector_stack()
    for a, b in pauli.ALL_SITES:
        image = w @ stack[4 * a + b] @ w.conj().T
        x, y = g.apply_site(a, b)
        if np.abs(image - stack[4 * x + y]).max() > tol:
            return False
    return True
