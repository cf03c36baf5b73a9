"""Exact separability certificates over the rank-4 separable basis.

A lattice state is certified separable by exhibiting exact convex
weights over the PPT four-site lattice states that reproduce it site by
site.  Each of those 60 states is separable: ``tests/separable_basis.py``
writes every one as an explicit mixture of pure product states (2x2
blocks from Pauli eigenprojectors, transversals from Smolin's state)
and ``tests/test_seplp.py::test_basis_members_are_separable`` checks
each mixture with exact equality.  Infeasibility of that linear program
is a statement about this basis only, never a proof of entanglement.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import lattice, symmetry, tables
from .dense import build_lattice_state
from .simplex import feasible_nonneg_solution

__all__ = [
    "build_basis",
    "DecompositionCertificate",
    "decompose",
    "verify_certificate",
    "brute_force_decomposable",
]

@functools.cache
def build_basis() -> list[int]:
    """All four-site PPT subsets (60 of them), ordered as
    itertools.combinations lists their bit positions; that order is the
    LP's column order.

    Each member is proven separable by an exact product ensemble in
    ``tests/separable_basis.py``, checked in ``tests/test_seplp.py``.
    """
    members = np.flatnonzero((tables.cardinality() == 4) & tables.ppt())
    return sorted(members.tolist(), key=lattice.sites)


@dataclass(frozen=True)
class DecompositionCertificate:
    """Exact convex weights over four-site separable states reproducing
    the target; machine-checkable separability proof."""

    target: int
    weights: dict[int, Fraction]

    def to_json(self) -> dict:
        return {
            "target": f"0x{self.target:04X}",
            "weights": [
                [f"0x{m:04X}", f"{w.numerator}/{w.denominator}"]
                for m, w in sorted(self.weights.items())
            ],
        }


@functools.cache  # called with canonical masks only: one LP per orbit
def _decompose_direct(mask: int) -> DecompositionCertificate | None:
    n = lattice.cardinality(mask)
    # Members carrying any site outside the target are forced to zero
    # weight by the per-site identity, so restrict to subsets upfront.
    candidates = [j for j in build_basis() if j & ~mask == 0]
    if not candidates:
        return None
    target_sites = lattice.sites(mask)
    rows = [
        [Fraction(1) if j >> (4 * a + b) & 1 else Fraction(0) for j in candidates]
        for a, b in target_sites
    ]
    rhs = [Fraction(4, n)] * len(target_sites)
    solution = feasible_nonneg_solution(rows, rhs)
    if solution is None:
        return None
    weights = {
        j: w for j, w in zip(candidates, solution) if w != 0
    }
    return DecompositionCertificate(target=mask, weights=weights)


def decompose(mask: int) -> DecompositionCertificate | None:
    """Certificate for rho_I over the rank-4 basis, or None if the LP is
    infeasible over that basis.  The target is canonicalized first and
    the certificate mapped back through the symmetry group."""
    if not lattice.is_ppt(mask):
        raise ValueError("decomposition is only attempted for PPT subsets")
    canon = symmetry.canonical_form(mask).canonical
    cert = _decompose_direct(canon)
    if cert is None:
        return None
    if canon == mask:
        return cert
    g = symmetry.find_mapping(canon, mask)
    return DecompositionCertificate(
        target=mask,
        weights={symmetry.act(g, j): w for j, w in cert.weights.items()},
    )


def verify_certificate(cert: DecompositionCertificate, tol: float = 1e-12) -> bool:
    """Exact invariant check plus numeric state reconstruction."""
    n = lattice.cardinality(cert.target)
    if n == 0 or not cert.weights:
        return False
    if any(w < 0 for w in cert.weights.values()):
        return False
    if sum(cert.weights.values()) != 1:
        return False
    basis = set(build_basis())
    if any(m not in basis for m in cert.weights):
        return False
    for a in range(4):
        for b in range(4):
            on_site = sum(
                (w for m, w in cert.weights.items() if m >> (4 * a + b) & 1),
                Fraction(0),
            )
            expected = (
                Fraction(4, n) if cert.target >> (4 * a + b) & 1 else Fraction(0)
            )
            if on_site != expected:
                return False
    mix = np.zeros((16, 16), dtype=complex)
    for m, w in cert.weights.items():
        mix += float(w) * build_lattice_state(m)
    return bool(np.abs(mix - build_lattice_state(cert.target)).max() <= tol)


def _solve_exact(cols: list[list[Fraction]], rhs: list[Fraction]):
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
    candidates = [j for j in build_basis() if j & ~mask == 0]
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
            x = _solve_exact([col_of[j] for j in subset], rhs)
            if x is not None and all(v >= 0 for v in x):
                return True
    return False
