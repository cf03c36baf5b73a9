"""Whole-space tables that src/ streams one column at a time and never
keeps, built here in full for the tests that read them."""

from __future__ import annotations

import functools

import numpy as np

from lattice16 import tables


def stacked(weights: np.ndarray) -> np.ndarray:
    """The (65536, c) table whose column j is the j-th column that
    :func:`tables.column_sums` yields for the weight table."""
    return np.stack(list(tables.column_sums(weights)), axis=1)


@functools.cache
def k_table() -> np.ndarray:
    """The k-matrix of every mask (uint8, shape (65536, 16), read-only):
    column 4*mu + nu is k[mu][nu], as :func:`lattice.k_matrix` indexes it."""
    k = stacked(tables.CROSS)
    k.setflags(write=False)
    return k
