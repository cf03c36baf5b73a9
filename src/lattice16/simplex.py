"""Exact phase-1 simplex for equality-constrained feasibility, on integers.

Solves: find x >= 0 with A x = b, for rational A and b.  Bland's rule
keeps the pivoting finite, and every "infeasible" is returned only with
a Farkas vector checked in exact arithmetic, so both answers are
theorems about the constraint system, not numeric judgements.

The tableau is fraction-free (Bareiss, Math. Comp. 22, 1968; Edmonds'
integer-preserving Gauss-Jordan).  Each row is sign-flipped so that its
right-hand side is nonnegative; ``A`` and the artificial identity are
scaled by ``L_A``, the lcm of ``A``'s denominators, the right-hand side
by ``L_A·L_b``, with ``L_b`` the lcm of ``b``'s, and the common
denominator starts at ``D = 1``.  A pivot on ``(r, e)`` replaces every
other row ``i``, the cost row included, by
``(T[r][e]·T[i] - T[i][e]·T[r]) // D``, leaves row ``r`` as it is and
sets ``D = T[r][e] > 0``.  The division is exact: by Sylvester's
identity every entry it yields is, up to sign, a determinant formed
from rows and columns of the initial integer tableau.  (Starting from
``D = L_A`` instead would break this on rational input.)

Why the right-hand side is scaled on its own: after k pivots an entry
is a (k+1)-minor of the initial tableau.  Scaling every row by one
``L``, the lcm of all denominators, would multiply such a minor by
``L^(k+1)``; on the census LPs (0/1 rows, ``b = 4/N``, so
``L = N / gcd(N, 4)``, up to 13) entries would reach 59 bits.  A column
factor enters a minor at most once, and only where the minor takes
that column, so with ``L_A = 1`` and ``L_b`` on the ``b`` column alone
the same LPs stay within 9 bits.

Why this repeats the rational tableau ``R`` pivot for pivot: if row
``r`` has scale ``a`` (``T[r] = a·R[r]``) and row ``i`` scale ``c``,
the update gives ``T'[i] = (a·c/D)·R[r][e]·R'[i]`` with
``D' = a·R[r][e]``, so ``T'[i]/D'`` is ``R'[i]`` times ``c/D``.  The
pivot row becomes ``T[r]/D' = R'[r]`` exactly.  Hence ``T/D == R`` on
every row that has been a pivot row, and ``T/D == L_A·R`` on the rows
never pivoted and on the cost row, except that the ``b`` column reads
``L_b`` times as much everywhere: a column scale commutes with row
operations.  Only positive factors separate the two, so the signs of
the reduced costs (which do not involve ``b``), the ratio comparisons
(cross-multiplied within two rows, both sides carrying ``L_b``) and
Bland's tie-break see exactly what the rational simplex sees; a
structural basic variable sits in a row that was pivoted, so
``x_j = T[i][-1] / (D·L_b)``.

Farkas vector: phase 1 ends with every reduced cost ``C[j] >= 0``.
With ``pi`` the final dual of the sign-flipped rows, the artificial
column ``n+i`` has reduced cost ``1 - pi_i`` and ``C[n+i] = L_A·D·(1 -
pi_i)``, so ``y_i = s_i·(C[n+i] - L_A·D)``, with ``s_i`` row i's sign
flip, is ``-L_A·D·pi`` in the caller's frame: ``yᵀA >= 0`` because the
structural reduced costs are nonnegative, and ``yᵀb < 0`` because the
artificial sum stayed positive.  Such a ``y`` proves that no ``x >= 0``
solves the system, since ``0 <= yᵀA x = yᵀb < 0``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .lattice import ConsistencyError

__all__ = ["feasible_nonneg_solution", "is_farkas_certificate"]


def feasible_nonneg_solution(
    a_rows: list[list[Rational]], b: list[Rational]
) -> list[Fraction] | None:
    """A nonnegative exact solution of A x = b, or None if none exists.

    Entries are ints or Fractions.  None is returned only after a Farkas
    vector for the system passed ``is_farkas_certificate``.
    """
    x, y = _phase1(a_rows, b)
    if x is None and not is_farkas_certificate(a_rows, b, y):
        raise ConsistencyError("phase 1 ended infeasible without a Farkas vector")
    return x


def is_farkas_certificate(
    a_rows: list[list[Rational]], b: list[Rational], y: list[int]
) -> bool:
    """True when yᵀA >= 0 and yᵀb < 0, checked exactly: then A x = b has
    no solution with x >= 0."""
    if len(y) != len(a_rows):
        return False
    scale = _lcm_of_denominators([*a_rows, b])
    rows = _scaled(a_rows, scale)
    rhs = _scaled([b], scale)[0]
    if sum(yi * bi for yi, bi in zip(y, rhs)) >= 0:
        return False
    return all(sum(yi * v for yi, v in zip(y, col)) >= 0 for col in zip(*rows))


def _lcm_of_denominators(rows) -> int:
    return math.lcm(*{x.denominator for row in rows for x in row})


def _scaled(rows, scale: int) -> list[list[int]]:
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _phase1(a_rows, b) -> tuple[list[Fraction] | None, list[int] | None]:
    """(x, None) with x a basic feasible solution, or (None, y) with y
    a Farkas vector read off the final cost row."""
    m = len(a_rows)
    if m == 0:
        return [], None
    n = len(a_rows[0])
    scale = _lcm_of_denominators(a_rows)
    b_scale = _lcm_of_denominators([b])
    signs = [-1 if bi < 0 else 1 for bi in b]

    # Phase-1 tableau [L_A·A | L_A·I_artificial | L_A·L_b·b], rows
    # flipped to b >= 0, artificials basic.
    tab = []
    rhs = _scaled([b], scale * b_scale)[0]
    for i, (row, s) in enumerate(zip(_scaled(a_rows, scale), signs)):
        unit = [0] * m
        unit[i] = scale
        tab.append([s * v for v in row] + unit + [s * rhs[i]])
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
        y = [s * (cost[n + i] - scale * d) for i, s in enumerate(signs)]
        return None, y
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = Fraction(tab[i][-1], d * b_scale)
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
