"""The lattice combinatorics of every mask at once, as numpy arrays.

Index m of each array is the mask m, for all 2^16 masks including the
empty one.  Each cached array is built once, on first use, and is
read-only.  Every count sums a 16-row weight table, one row per site,
over the sites of each mask, from the digit tables of
:func:`digit_sums`, the one table builder in ``src/``: byte tables for
the counts here, column-nibble tables for the group images in ``symmetry``.
No 2-D whole-space table is kept: a weight table with c columns, such
as the 16 of k, is streamed by :func:`column_sums` one column of 65,536
entries at a time.  N is the one column of a 1 per site, the PPT flag a
running maximum over k's columns, and ``verify`` keeps running counts.
The digit tables stay row-major, one contiguous row per digit value.
The scalar functions of :mod:`lattice16.lattice` define the same
quantities one mask at a time; they stay the public API and the
reference these tables are tested against.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from . import lattice

__all__ = ["CROSS", "digit_sums", "column_sums", "masks", "cardinality", "ppt"]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# CROSS[s, 4*mu + nu] = 1: site s is on lattice._CROSS through the
# shifted site (mu+2, nu+2), indexed as lattice.k_matrix indexes it.
CROSS = _frozen(np.array(
    [[lattice._CROSS[4 * (mu ^ 2) + (nu ^ 2)] >> s & 1
      for mu in range(4) for nu in range(4)] for s in range(16)],
    dtype=np.uint8,
))


def digit_sums(weights: np.ndarray, width: int) -> np.ndarray:
    """The sums of a weight table with one row per site over the bits of
    each digit value, for the 16 // width digits of a mask, low digit
    first: t[d, v] sums weights[width * d + k] over the bits k of v, so a
    mask m sums to the sum over d of t[d, m >> width * d & (2**width - 1)].
    Shape (16 // width, 2**width, *weights.shape[1:]), one contiguous row
    per digit value.  Sums keep the weights' dtype; bool counts as uint8."""
    w = weights.astype(np.uint8) if weights.dtype == np.bool_ else weights
    w = w.reshape(16 // width, width, *w.shape[1:])
    t = np.zeros((len(w), 1 << width, *w.shape[2:]), dtype=w.dtype)
    for k in range(width):
        # Digit values with top bit k are those below 2^k with bit k added.
        np.add(t[:, : 1 << k], w[:, k, None], out=t[:, 1 << k : 2 << k])
    return t


def column_sums(weights: np.ndarray) -> Iterator[np.ndarray]:
    """For each column j of a (16, c) weight table, in order, the sum of
    weights[s, j] over the sites s of every mask: a fresh 1-D array, entry
    m for mask m, the outer sum of two contiguous 256-entry rows of the
    transposed byte tables (64 KB for a byte weight).  The caller keeps
    running results, never a (65536, c) table."""
    lo, hi = (np.ascontiguousarray(t.T) for t in digit_sums(weights, 8))
    for lo_j, hi_j in zip(lo, hi):
        yield (hi_j[:, None] + lo_j).ravel()


@functools.cache
def masks() -> np.ndarray:
    """Every mask 0..0xFFFF, in order (uint16)."""
    return _frozen(np.arange(lattice.FULL_MASK + 1, dtype=np.uint16))


@functools.cache
def cardinality() -> np.ndarray:
    """N = |I| of every mask (uint8)."""
    (n,) = column_sums(np.ones((16, 1), dtype=np.uint8))
    return _frozen(n)


@functools.cache
def ppt() -> np.ndarray:
    """The PPT flag of every mask (bool): 2 * cross_count(mask, a, b) <= N
    at every site (a, b).  False for the empty mask, which defines no
    state."""
    # The running maximum of k's 16 columns; a cross holds 6 sites, so
    # 2k <= 12: no uint8 wrap.
    flag = 2 * functools.reduce(np.maximum, column_sums(CROSS)) <= cardinality()
    flag[0] = False
    return _frozen(flag)
