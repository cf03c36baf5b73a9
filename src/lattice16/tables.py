"""The lattice combinatorics of every mask at once, as numpy arrays.

Index m of each array is the mask m, for all 2^16 masks including the
empty one.  Each array is built once, on first use, and is read-only.
The scalar functions of :mod:`lattice16.lattice` define the same
quantities one mask at a time; they stay the public API and the
reference these tables are tested against.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice

__all__ = ["masks", "cardinality", "k_table", "ppt"]

_BYTE_WEIGHT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def masks() -> np.ndarray:
    """Every mask 0..0xFFFF, in order (uint16)."""
    return _frozen(np.arange(lattice.FULL_MASK + 1, dtype=np.uint16))


@functools.cache
def cardinality() -> np.ndarray:
    """N = |I| of every mask (uint8)."""
    m = masks()
    return _frozen(_BYTE_WEIGHT[m & 0xFF] + _BYTE_WEIGHT[m >> 8])


@functools.cache
def k_table() -> np.ndarray:
    """The k-matrix of every mask (uint8, shape (65536, 16)).

    Column 4*mu + nu is k[mu][nu]: the cross count through the shifted
    site (mu+2, nu+2), as in :func:`lattice.k_matrix`.
    """
    m = masks()

    def bit(p: int) -> np.ndarray:
        return (m >> p & 1).astype(np.uint8)

    cols = [_BYTE_WEIGHT[m >> 4 * a & 0xF] for a in range(4)]
    rows = [bit(b) + bit(4 + b) + bit(8 + b) + bit(12 + b) for b in range(4)]
    k = np.empty((len(m), 16), dtype=np.uint8)
    for mu in range(4):
        for nu in range(4):
            a, b = mu ^ 2, nu ^ 2
            # uint8 is safe: a site in I adds 1 to both its row and its column.
            k[:, 4 * mu + nu] = cols[a] + rows[b] - 2 * bit(4 * a + b)
    return _frozen(k)


@functools.cache
def ppt() -> np.ndarray:
    """The PPT flag of every mask (bool): 2 * cross_count(mask, a, b) <= N
    at every site (a, b).  False for the empty mask, which defines no
    state."""
    flag = 2 * k_table().max(axis=1) <= cardinality()  # at most 14: no uint8 wrap
    flag[0] = False
    return _frozen(flag)
