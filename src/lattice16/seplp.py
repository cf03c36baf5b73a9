"""Exact separability certificates over the rank-4 separable basis.

A lattice state is certified separable by exhibiting exact convex
weights over 60 four-site lattice states that reproduce it site by
site.  The basis has two families: the 36 2x2 rectangles (two columns
times two rows) and the 24 transversals (one site per column and per
row).  Each member is separable: ``tests/separable_basis.py`` writes
every rectangle as a mixture of products of Pauli eigenprojectors and
every transversal as an image of Smolin's state, and
``tests/test_seplp.py::test_basis_members_are_separable`` checks each
mixture with exact equality.  The P_s are orthonormal, so the exact
per-site identities of :func:`verify_certificate` prove that a
certificate reproduces its state.  The linear program is posed on
integers: with A the 0/1 matrix of which target site each candidate
member holds, it solves A y = 1, y >= 0, and the weights are 4/N · y.
Infeasibility of that linear program is a statement about this basis
only, never a proof of entanglement.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from . import lattice, symmetry
from .simplex import feasible_nonneg_solution

__all__ = [
    "build_basis",
    "DecompositionCertificate",
    "decompose",
    "verify_certificate",
]

@functools.cache
def build_basis() -> list[int]:
    """The 60 basis members: the 36 2x2 rectangles (every pair of
    columns times every pair of rows) and the 24 transversals (site
    (a, p[a]) for each permutation p of the rows).  They are exactly
    the four-site PPT subsets.  Sorted by their sites, that is by bit
    positions in itertools.combinations order; that order is the LP's
    column order.
    """
    pairs = list(combinations(range(4), 2))
    rectangles = [
        sum(lattice.site_bit(a, b) for a in cols for b in rows)
        for cols in pairs
        for rows in pairs
    ]
    transversals = [
        sum(lattice.site_bit(a, p[a]) for a in range(4))
        for p in permutations(range(4))
    ]
    return sorted(rectangles + transversals, key=lattice.sites)


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

    @classmethod
    def from_json(cls, payload: dict) -> DecompositionCertificate:
        """The inverse of :meth:`to_json`; ValueError unless the payload is
        a JSON object, every mask is written in parse_subset's hex form (0x
        and 1 to 4 hex digits) and every weight in to_json's ``n/d`` form.
        The result is not verified; pass it to :func:`verify_certificate`."""
        if not isinstance(payload, dict):
            raise ValueError(f"certificate {payload!r} is not a JSON object")
        missing = sorted({"target", "weights"} - payload.keys())
        if missing:
            raise ValueError(f"certificate has no {', '.join(map(repr, missing))}")
        target, entries = payload["target"], payload["weights"]
        if not isinstance(entries, list):
            raise ValueError(f"bad weights {entries!r}: need a list of [mask, weight] pairs")
        weights = {}
        for entry in entries:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad weight entry {entry!r}: need a [mask, weight] pair")
            weights[_hex_mask(entry[0])] = _weight(entry[1])
        if len(weights) != len(entries):
            raise ValueError("a basis member is listed twice")
        return cls(target=_hex_mask(target), weights=weights)


def _hex_mask(text: str) -> int:
    if not isinstance(text, str) or not lattice._HEX_MASK.fullmatch(text):
        raise ValueError(f"bad hex mask {text!r}: need 0x and 1 to 4 hex digits")
    return int(text, 16)


_WEIGHT = re.compile(r"-?[0-9]+/[0-9]+")


def _weight(text: str) -> Fraction:
    # Fraction() would also take 1, 1.0, True, "1e0", " 1/1 " and "+1".
    if not isinstance(text, str) or not _WEIGHT.fullmatch(text):
        raise ValueError(f"bad weight {text!r}: need n/d, a signed integer over an integer")
    numerator, denominator = map(int, text.split("/"))
    if denominator == 0:
        raise ValueError("a weight has a zero denominator")
    weight = Fraction(numerator, denominator)
    # int() would also take "01" and "-0", and "2/4" is not in lowest terms.
    if text != f"{weight.numerator}/{weight.denominator}":
        raise ValueError(f"bad weight {text!r}: need to_json's n/d, in lowest terms")
    return weight


@functools.cache  # called with canonical masks only: one LP per orbit
def _decompose_direct(mask: int) -> DecompositionCertificate | None:
    n = lattice.cardinality(mask)
    # Members carrying any site outside the target are forced to zero
    # weight by the per-site identity, so restrict to subsets upfront.
    candidates = [j for j in build_basis() if j & ~mask == 0]
    if not candidates:
        return None
    target_sites = lattice.sites(mask)
    rows = [[j >> (4 * a + b) & 1 for j in candidates] for a, b in target_sites]
    # Pose A y = 1 on integers; the weights are w = 4/N · y.  Scaling
    # the b column by a positive constant leaves every reduced cost and
    # every ratio comparison as it was, so Bland's rule takes the same
    # pivots as on A w = 4/N.
    solution = feasible_nonneg_solution(rows, [1] * len(target_sites))
    if solution is None:
        return None
    weights = {
        j: Fraction(4, n) * y for j, y in zip(candidates, solution) if y != 0
    }
    return DecompositionCertificate(target=mask, weights=weights)


def decompose(mask: int) -> DecompositionCertificate | None:
    """Certificate for rho_I over the rank-4 basis, or None if the LP is
    infeasible over that basis.  The target is canonicalized first and
    the canonical certificate's members carried to the target by the
    symmetry that find_mapping picks, all read from images cached once
    per orbit."""
    if not lattice.is_ppt(mask):
        raise lattice.UsageError("subset is NPT; no decomposition attempted")
    canon = symmetry.canonical(mask)
    cert = _decompose_direct(canon)
    if cert is None:
        return None
    if canon == mask:
        return cert
    members = symmetry.carry(canon, mask, tuple(cert.weights))
    return DecompositionCertificate(
        target=mask, weights=dict(zip(members, cert.weights.values()))
    )


def verify_certificate(cert: DecompositionCertificate) -> bool:
    """Exact check: convex weights over basis members whose mixture puts
    weight 1/N on each P_s of the target and 0 elsewhere.  Weights must
    be ints or Fractions, not bools (TypeError otherwise: float sums
    round, and True is no weight)."""
    if not all(type(w) in (int, Fraction) for w in cert.weights.values()):
        raise TypeError("certificate weights must be int or Fraction")
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
    # Member m mixes P_s with weight 1/4 for each of its four sites s.
    return all(
        sum((w for m, w in cert.weights.items() if m >> s & 1), Fraction(0))
        == (Fraction(4, n) if cert.target >> s & 1 else 0)
        for s in range(16)
    )
