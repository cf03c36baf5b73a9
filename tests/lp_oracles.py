"""Reference solvers the exact LP is tested against.

``fraction_simplex`` is the rational phase-1 simplex that
``lattice16.simplex`` replaced: the same Bland pivoting on a tableau of
``Fraction``s, so its solutions must equal the integer solver's.
``brute_force_decomposable`` decides the separability LP of a mask by
enumerating basic solutions, independently of any simplex.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from lattice16 import lattice, seplp

_ZERO = Fraction(0)
_ONE = Fraction(1)


def fraction_simplex(
    a_rows: list[list[Fraction]], b: list[Fraction], pivots: list | None = None
) -> list[Fraction] | None:
    """A nonnegative exact solution of A x = b, or None if none exists.

    ``pivots``, when given, receives the (leaving row, entering column)
    of every pivot.
    """
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])

    # Phase-1 tableau: [A | I_artificial | b], artificials basic.
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in a_rows[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        row += [_ONE if j == i else _ZERO for j in range(m)] + [bi]
        tab.append(row)
    basis = list(range(n, n + m))

    width = n + m + 1
    # Reduced-cost row for minimizing the sum of artificials.
    cost = [_ZERO] * width
    for i in range(m):
        for j in range(width):
            cost[j] -= tab[i][j]
    for i in range(m):
        cost[n + i] = _ZERO

    while True:
        # Bland: entering = lowest-index column with negative reduced cost.
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        # Ratio test, ties broken by lowest basis index (Bland).
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded below")
        if pivots is not None:
            pivots.append((leave, enter))
        _pivot(tab, cost, basis, leave, enter)

    if -cost[-1] != 0:  # minimum of artificial sum
        return None
    x = [_ZERO] * n
    for i, bj in enumerate(basis):
        if bj < n:
            x[bj] = tab[i][-1]
    return x


def _pivot(tab, cost, basis, leave: int, enter: int) -> None:
    piv = tab[leave][enter]
    prow = tab[leave]
    inv = _ONE / piv
    for j in range(len(prow)):
        prow[j] *= inv
    for i in range(len(tab)):
        if i == leave:
            continue
        factor = tab[i][enter]
        if factor:
            row = tab[i]
            for j in range(len(row)):
                row[j] -= factor * prow[j]
    factor = cost[enter]
    if factor:
        for j in range(len(cost)):
            cost[j] -= factor * prow[j]
    basis[leave] = enter


def solve_exact(cols: list[list[Fraction]], rhs: list[Fraction]):
    """Gaussian elimination for the square-ish system given by columns."""
    m = len(rhs)
    n = len(cols)
    aug = [[cols[j][i] for j in range(n)] + [rhs[i]] for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            return None  # dependent column set: skip, handled by caller
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, m):
        if aug[i][-1] != 0:
            return None
    x = [Fraction(0)] * n
    for row, c in enumerate(pivots):
        x[c] = aug[row][-1]
    return x


def brute_force_decomposable(mask: int) -> bool:
    """Independent feasibility oracle: enumerate basic solutions.

    A feasible equality system with nonnegativity has a basic feasible
    solution supported on at most m linearly independent columns, so
    enumerating all column subsets up to that size is a complete check.
    Intended for small targets (the candidate count explodes otherwise).
    """
    n = lattice.cardinality(mask)
    if n == 0:
        raise lattice.EmptySubsetError("no lattice state for the empty subset")
    candidates = [j for j in seplp.build_basis() if j & ~mask == 0]
    target_sites = lattice.sites(mask)
    m = len(target_sites)
    rhs = [Fraction(4, n)] * m
    col_of = {
        j: [
            Fraction(1) if j >> (4 * a + b) & 1 else Fraction(0)
            for a, b in target_sites
        ]
        for j in candidates
    }
    for size in range(1, min(m, len(candidates)) + 1):
        for subset in itertools.combinations(candidates, size):
            x = solve_exact([col_of[j] for j in subset], rhs)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False
