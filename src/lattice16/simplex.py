"""Exact phase-1 simplex for equality-constrained feasibility, on integers.

Solves: find x >= 0 with A x = b, for integer A and b.  Bland's rule
keeps the pivoting finite, and every "infeasible" is returned only with
a Farkas vector checked in exact arithmetic, so both answers are
theorems about the constraint system, not numeric judgements.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968; Edmonds'
integer-preserving Gauss-Jordan).  It starts as ``[A | I | b]``, each
row sign-flipped so that its right-hand side is nonnegative, with the
artificials basic and the common denominator ``D = 1``.  A pivot on
``(r, e)`` replaces every other row ``i``, the cost row included, by
``(T[r][e]·T[i] - T[i][e]·T[r]) // D``, leaves row ``r`` as it is and
sets ``D = T[r][e] > 0``.  The division is exact: by Sylvester's
identity every entry it yields is, up to sign, a determinant formed
from rows and columns of the initial integer tableau.

Why this repeats the rational tableau ``R`` pivot for pivot: with
integer input and ``D = 1``, ``T/D == R`` on every row, the cost row
included, and each pivot keeps it so (if ``T = D·R`` then the update
gives ``T'[i] = D'·R'[i]`` with ``D' = D·R[r][e]``, and
``T[r] = D'·R'[r]``).  ``D > 0``, so the signs of the reduced costs, the
ratio comparisons (cross-multiplied within two rows) and Bland's
tie-break see exactly what the rational simplex sees, and a basic
variable reads ``x_j = T[i][-1] / D``.

Farkas vector: phase 1 ends with every reduced cost ``C[j] >= 0``.
With ``pi`` the final dual of the sign-flipped rows, the artificial
column ``n+i`` has reduced cost ``1 - pi_i`` and ``C[n+i] = D·(1 -
pi_i)``, so ``y_i = s_i·(C[n+i] - D)``, with ``s_i`` row i's sign
flip, is ``-D·pi`` in the caller's frame: ``yᵀA >= 0`` because the
structural reduced costs are nonnegative, and ``yᵀb < 0`` because the
artificial sum stayed positive.  Such a ``y`` proves that no ``x >= 0``
solves the system, since ``0 <= yᵀA x = yᵀb < 0``.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import ConsistencyError

__all__ = ["feasible_nonneg_solution", "is_farkas_certificate"]


def feasible_nonneg_solution(
    a_rows: list[list[int]], b: list[int]
) -> list[Fraction] | None:
    """A nonnegative exact solution of A x = b, or None if none exists.

    Entries must be ints (TypeError otherwise: the Bareiss ``//`` would
    floor a Fraction).  None is returned only after a Farkas vector for
    the system passed ``is_farkas_certificate``.
    """
    if not all(isinstance(v, int) for row in [*a_rows, b] for v in row):
        raise TypeError("the simplex takes int entries only")
    x, y = _phase1(a_rows, b)
    if x is None and not is_farkas_certificate(a_rows, b, y):
        raise ConsistencyError("phase 1 ended infeasible without a Farkas vector")
    return x


def is_farkas_certificate(
    a_rows: list[list[int]], b: list[int], y: list[int]
) -> bool:
    """True when yᵀA >= 0 and yᵀb < 0, checked exactly: then A x = b has
    no solution with x >= 0."""
    if len(y) != len(a_rows):
        return False
    if sum(yi * bi for yi, bi in zip(y, b)) >= 0:
        return False
    return all(sum(yi * v for yi, v in zip(y, col)) >= 0 for col in zip(*a_rows))


def _phase1(a_rows, b) -> tuple[list[Fraction] | None, list[int] | None]:
    """(x, None) with x a basic feasible solution, or (None, y) with y
    a Farkas vector read off the final cost row."""
    m = len(a_rows)
    if m == 0:
        return [], None
    n = len(a_rows[0])
    signs = [-1 if bi < 0 else 1 for bi in b]

    # Phase-1 tableau [A | I_artificial | b], rows flipped to b >= 0,
    # artificials basic.
    tab = []
    for i, (row, s) in enumerate(zip(a_rows, signs)):
        unit = [0] * m
        unit[i] = 1
        tab.append([s * v for v in row] + unit + [s * b[i]])
    basis = list(range(n, n + m))
    # Reduced-cost row for minimizing the sum of artificials.
    cost = [-sum(col) for col in zip(*tab)]
    cost[n:n + m] = [0] * m
    d = 1

    while True:
        # Bland: entering = lowest-index column with negative reduced cost.
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test, ties broken by lowest basis index (Bland).
        leave = None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                if leave is None:
                    leave = i
                    continue
                best = tab[leave]
                here, there = row[-1] * best[enter], best[-1] * row[enter]
                if here < there or (here == there and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        d = _pivot(tab, cost, basis, leave, enter, d)

    if cost[-1] != 0:  # the minimum of the artificial sum is positive
        y = [s * (cost[n + i] - d) for i, s in enumerate(signs)]
        return None, y
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = Fraction(tab[i][-1], d)
    return x, None


def _pivot(tab, cost, basis, leave: int, enter: int, d: int) -> int:
    """One Bareiss pivot in place; returns the new common denominator."""
    prow = tab[leave]
    piv = prow[enter]
    for i, row in enumerate(tab):
        if i != leave:
            tab[i] = _eliminate(row, prow, piv, d, enter)
    cost[:] = _eliminate(cost, prow, piv, d, enter)
    basis[leave] = enter
    return piv


def _eliminate(row, prow, piv: int, d: int, enter: int) -> list[int]:
    """(piv·row - row[enter]·prow) // d, exact by the Bareiss identity."""
    factor = row[enter]
    if factor == 0:
        if piv == d:
            return row
        return [piv * v // d for v in row]
    return [(piv * v - factor * p) // d for v, p in zip(row, prow)]
