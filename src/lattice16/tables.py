"""The lattice combinatorics of every mask at once, as numpy arrays.

Index m of each array is the mask m, for all 2^16 masks including the
empty one.  Each array is built once, on first use, and is read-only.
N and k are :func:`mask_sums` of a 16-row weight table, one row per
site; ``dense`` and ``symmetry`` build their byte tables the same way.
A 2-D whole-space table such as k, of shape (65536, 16), is stored
column-major: a mask's 16 entries lie 65,536 apart, so a reduction
over them (the PPT test's ``max(axis=1)``, the sweep's ``min`` and
count checks) is elementwise over whole contiguous columns rather than
a short reduction per row.  The 256-row byte tables of
:func:`byte_sums` stay row-major, one contiguous row per byte.
The scalar functions of :mod:`lattice16.lattice` define the same
quantities one mask at a time; they stay the public API and the
reference these tables are tested against.
"""

from __future__ import annotations

import functools

import numpy as np

from . import lattice

__all__ = ["CROSS", "byte_sums", "mask_sums", "masks", "cardinality", "k_table", "ppt"]


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


def byte_sums(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) for a weight table with one row per site: lo[v] sums
    weights[k] over the bits k of the byte v, and hi[v] sums
    weights[8 + k].  Sums keep the weights' dtype; bool counts as uint8."""
    w = weights.astype(np.uint8) if weights.dtype == np.bool_ else weights
    lo = np.zeros((256, *w.shape[1:]), dtype=w.dtype)
    hi = np.zeros_like(lo)
    for k in range(8):
        # Bytes with top bit k are those below 2^k with bit k added.
        np.add(lo[: 1 << k], w[k], out=lo[1 << k : 2 << k])
        np.add(hi[: 1 << k], w[8 + k], out=hi[1 << k : 2 << k])
    return lo, hi


def mask_sums(weights: np.ndarray) -> np.ndarray:
    """The sum of weights[s] over the sites s of every mask: row m for
    mask m, the outer sum of the two byte tables of :func:`byte_sums`.

    A 2-D result of shape (65536, c) is stored column-major: column j
    is one contiguous run of 65,536 entries, and the entries of one mask
    lie 65,536 apart.  So a reduction over a mask's entries
    (``max(axis=1)``, ``any(axis=1)``) runs elementwise over whole
    contiguous columns.  A 1-D weight table gives a 1-D result."""
    lo, hi = byte_sums(weights)
    # Outer-sum contiguous (c, 256) transposes: numpy lays a result out
    # in its inputs' memory order, so bare transposes give a row-major
    # table again.
    lo, hi = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
    return (hi[..., :, None] + lo[..., None, :]).reshape(*lo.shape[:-1], -1).T


@functools.cache
def masks() -> np.ndarray:
    """Every mask 0..0xFFFF, in order (uint16)."""
    return _frozen(np.arange(lattice.FULL_MASK + 1, dtype=np.uint16))


@functools.cache
def cardinality() -> np.ndarray:
    """N = |I| of every mask (uint8)."""
    return _frozen(mask_sums(np.ones(16, dtype=np.uint8)))


@functools.cache
def k_table() -> np.ndarray:
    """The k-matrix of every mask (uint8, shape (65536, 16), column-major).

    Column 4*mu + nu is k[mu][nu]: the cross count through the shifted
    site (mu+2, nu+2), as in :func:`lattice.k_matrix`.
    """
    return _frozen(mask_sums(CROSS))


@functools.cache
def ppt() -> np.ndarray:
    """The PPT flag of every mask (bool): 2 * cross_count(mask, a, b) <= N
    at every site (a, b).  False for the empty mask, which defines no
    state."""
    # A cross holds 6 sites, so 2k <= 12: no uint8 wrap.
    flag = 2 * k_table().max(axis=1) <= cardinality()
    flag[0] = False
    return _frozen(flag)
