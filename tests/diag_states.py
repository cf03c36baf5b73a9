"""Weighted Bell-diagonal states: sum pi_ab P_ab for a 4x4 probability
table pi.

These lie outside the 65,535 uniform subset states lattice16 classifies;
the tests keep them as a generalisation of the PPT rule and of the dense
state builder.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from lattice16 import dense


def validate_probability_table(pi) -> list[list[Fraction]]:
    """Coerce a 4x4 table to exact nonnegative fractions summing to 1."""
    table = [[Fraction(pi[a][b]) for b in range(4)] for a in range(4)]
    if any(x < 0 for r in table for x in r):
        raise ValueError("probability table has a negative entry")
    if sum(x for r in table for x in r) != 1:
        raise ValueError("probability table does not sum to 1")
    return table


def diag_state_is_ppt(pi) -> bool:
    """Exact PPT test for a diagonal-in-the-projector-basis state with
    site weights pi[alpha][beta]: every cross carries at most 1/2."""
    table = validate_probability_table(pi)
    half = Fraction(1, 2)
    for a in range(4):
        for b in range(4):
            cross = sum(table[a][d] for d in range(4) if d != b) + sum(
                table[g][b] for g in range(4) if g != a
            )
            if cross > half:
                return False
    return True


def build_diag_state(pi) -> np.ndarray:
    """rho_pi = sum pi_ab P_ab for a 4x4 probability table."""
    weights = np.array(validate_probability_table(pi), dtype=float)
    return np.tensordot(weights.reshape(16), dense.projector_stack(), axes=1)
