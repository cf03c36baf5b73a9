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
sets ``D = T[r][e] > 0``.

Why this repeats the rational tableau ``R`` pivot for pivot: with
integer input and ``D = 1``, ``T/D == R`` on every row, the cost row
included, and each pivot keeps it so (if ``T = D·R`` then the update
gives ``T'[i] = D'·R'[i]`` with ``D' = D·R[r][e]``, and
``T[r] = D'·R'[r]``).  ``D > 0``, so the signs of the reduced costs, the
ratio comparisons (cross-multiplied within two rows) and Bland's
tie-break see exactly what the rational simplex sees, and a basic
variable reads ``x_j = T[i][-1] / D``.

Every entry is a minor of ``M = [A'|I|b'; cost₀]`` (``A'``, ``b'`` the
sign-flipped rows, ``cost₀`` the initial cost row), up to sign.  With
``B`` the basis columns of ``[A'|I]``, ``D = |det B|`` (each pivot
multiplies ``D`` by ``R[r][e] = det B'/det B``, Cramer), so
``T[i][j] = D·(B⁻¹ M_j)_i`` is ``±det B`` with column ``i`` replaced by
``M_j``, and a cost entry ``D·(c_j - c_Bᵀ B⁻¹ M_j)`` is ``±det [[B,
M_j], [c_Bᵀ, c_j]]``, a minor of ``M`` once the rows above are
subtracted from ``c`` to give ``cost₀``.  The new entries are therefore
integers, so the division is exact, and Hadamard's inequality (a
determinant is at most the product of its row norms) bounds them all by
``H = ‖row_1‖···‖row_m‖·sqrt(m·Σ‖row_i‖²)``: ``‖cost₀‖² <=
m·Σ‖row_i‖²`` by Cauchy-Schwarz, and every factor is at least 1 (each
row holds a unit entry), which covers the minors without the cost row.

Packed rows: each row is held as one int ``Σ_j T[i][j]·2^(w·j)``, with
``w`` the least width such that ``⌊H⌋ < 2^(w-1)``, so every entry lies
in ``[-2^(w-1), 2^(w-1))``.  Adding ``OFF =
Σ_j 2^(w-1)·2^(w·j)`` biases every field into ``[0, 2^w)``, so the sum
is the row's base-``2^w`` expansion and entry ``j`` reads
``((row + OFF) >> w·j & (2^w - 1)) - 2^(w-1)``.  The Bareiss update is
linear, so one integer expression updates a whole row: its numerator is
``Σ_j D·T'[i][j]·2^(w·j)``, divisible by ``D``, and the quotient is the
packed row of the new entries.  An entry is negative exactly when the
top bit of its biased field is clear, so the lowest such bit among the
reduced costs names Bland's entering column.

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

import math
from fractions import Fraction
from operator import lshift, mul
from typing import NamedTuple

from .lattice import ConsistencyError

__all__ = ["feasible_nonneg_solution", "is_farkas_certificate"]


def feasible_nonneg_solution(
    a_rows: list[list[int]], b: list[int]
) -> list[Fraction] | None:
    """A nonnegative exact solution of A x = b, or None if none exists.

    Entries must be ints (TypeError otherwise: the Bareiss ``//`` would
    floor a Fraction), and A must have one row per entry of b, all of
    one length (ValueError otherwise).  None is returned only after a
    Farkas vector for the system passed ``is_farkas_certificate``.
    """
    if not all(isinstance(v, int) for row in [*a_rows, b] for v in row):
        raise TypeError("the simplex takes int entries only")
    _check_rectangular(a_rows, b)
    x, y = _phase1(a_rows, b)
    if x is None and not is_farkas_certificate(a_rows, b, y):
        raise ConsistencyError("phase 1 ended infeasible without a Farkas vector")
    return x


def is_farkas_certificate(
    a_rows: list[list[int]], b: list[int], y: list[int]
) -> bool:
    """True when yᵀA >= 0 and yᵀb < 0, checked exactly: then A x = b has
    no solution with x >= 0.  ValueError on a ragged A or a wrong-length b."""
    _check_rectangular(a_rows, b)
    if len(y) != len(a_rows):
        return False
    if sum(yi * bi for yi, bi in zip(y, b)) >= 0:
        return False
    return all(sum(yi * v for yi, v in zip(y, col)) >= 0 for col in zip(*a_rows))


def _check_rectangular(a_rows, b) -> None:
    if len(a_rows) != len(b) or len({len(row) for row in a_rows}) > 1:
        raise ValueError("A must be rectangular with one row per entry of b")


class _Fields(NamedTuple):
    """How a tableau row is packed into one int: entry j in the w bits
    from w·j up (see the module docstring)."""

    w: int  # bits per field
    count: int  # fields per row: n structural, m artificial, then b
    off: int  # the bias, 2^(w-1) in every field

    def entry(self, row: int, j: int) -> int:
        """Entry j of a packed row."""
        w = self.w
        return ((row + self.off) >> w * j & (1 << w) - 1) - (1 << w - 1)

    def unpack(self, row: int) -> list[int]:
        return [self.entry(row, j) for j in range(self.count)]


def _phase1(a_rows, b) -> tuple[list[Fraction] | None, list[int] | None]:
    """(x, None) with x a basic feasible solution, or (None, y) with y
    a Farkas vector read off the final cost row."""
    m = len(a_rows)
    if m == 0:
        return [], None
    n = len(a_rows[0])
    signs = [-1 if bi < 0 else 1 for bi in b]

    # Field width from the Hadamard bound on every entry (module docstring).
    norms = [sum(map(mul, row, row)) + 1 + bi * bi for row, bi in zip(a_rows, b)]
    w = math.isqrt(math.prod(norms) * m * sum(norms)).bit_length() + 1
    count = n + m + 1
    fields = _Fields(w, count, sum(1 << w * j for j in range(count)) << w - 1)
    off, mask, half = fields.off, (1 << w) - 1, 1 << w - 1
    last = w * (n + m)  # the shift of the b field

    # Phase-1 tableau [A | I_artificial | b], rows flipped to b >= 0,
    # artificials basic, and below it the reduced-cost row for
    # minimizing the sum of artificials: Σ artificials - Σ rows.
    shifts = range(0, w * n, w)
    artificials = [1 << w * (n + i) for i in range(m)]
    rows = [
        s * (sum(map(lshift, row, shifts)) + (bi << last)) + unit
        for row, bi, s, unit in zip(a_rows, b, signs, artificials)
    ]
    rows.append(sum(artificials) - sum(rows))
    basis = list(range(n, n + m))
    negative_bits = off & (1 << last) - 1  # each reduced cost's top bit
    d = 1

    while True:
        # Bland: entering = lowest-index column with negative reduced
        # cost, whose biased field has its top bit clear.
        negative = ~(rows[-1] + off) & negative_bits
        if not negative:
            break
        shift = (negative & -negative).bit_length() - w
        # Ratio test, ties broken by lowest basis index (Bland): row i
        # beats the best so far when b_i / e_i < b_best / e_best.
        # Entries are read as in _Fields.entry, inlined.
        leave = None
        for i in range(m):
            biased = rows[i] + off
            e_i = (biased >> shift & mask) - half
            if e_i > 0:
                b_i = (biased >> last & mask) - half
                if leave is not None:
                    here, there = b_i * e_best, b_best * e_i
                    if here > there or (here == there and basis[i] > basis[leave]):
                        continue
                leave, e_best, b_best = i, e_i, b_i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        d = _pivot(rows, basis, leave, shift // w, d, fields)

    cost = fields.unpack(rows[-1])
    if cost[-1] != 0:  # the minimum of the artificial sum is positive
        y = [s * (cost[n + i] - d) for i, s in enumerate(signs)]
        return None, y
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = Fraction(fields.entry(rows[i], count - 1), d)
    return x, None


def _pivot(rows, basis, leave: int, enter: int, d: int, fields: _Fields) -> int:
    """One Bareiss pivot in place on the packed rows (the cost row last):
    every row but the pivot row becomes (piv·row - row[enter]·prow) // d,
    exact by the Bareiss identity.  Returns the new common denominator."""
    w, off = fields.w, fields.off
    shift, mask, half = w * enter, (1 << w) - 1, 1 << w - 1
    prow = rows[leave]
    piv = ((prow + off) >> shift & mask) - half
    for i, row in enumerate(rows):
        factor = ((row + off) >> shift & mask) - half
        if i != leave and (factor or piv != d):
            rows[i] = (piv * row - factor * prow) // d
    basis[leave] = enter
    return piv
