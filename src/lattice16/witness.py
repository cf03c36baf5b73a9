"""The k=1 witness scan of the extended reduction criterion, in integers.

Phi_V[B] = Tr(B) I_4 - B - V B^T V* is positive for V unitary and
antisymmetric (Breuer, PRL 97, 080501, 2006; Hall, J. Phys. A 39, 14119,
2006).  Proof: for a unit vector b and w = V b* (b* the complex conjugate),
Phi_V[|b><b|] = I - |b><b| - |w><w|.  w is a unit vector as V is unitary,
and the scalar <b|w> = b*^T V b* equals its transpose b*^T V^T b*, which
is -b*^T V b*, so it is 0.  So Phi_V[|b><b|] is I minus two orthogonal
rank-one projectors, which is positive; by linearity so is Phi_V[B] for
every positive B.  Both hypotheses are exact equalities, and of the
sixteen sigma_xy exactly the six with one index equal to 2 meet them.

Partially applied to the second party of a lattice state, the diagonal
element at psi_mn (conjugated by I x V) is (k_mn - 2 absorbed) / (2N)
for V = sigma_xy, where absorbed counts the sites (a, b) of I with
(mu ^ a, nu ^ b) = (x, y), mu ^ a being the index map i_mu(a) of the
Pauli product s_mu s_a.  A site with k_mn = 1 has one point of I on its
cross; :func:`canonical_slot` picks the V that absorbs it, so the value
is -1/(2N).  The scan checks that identity in integers.
:func:`lattice16.dense.oracle_sweep` proves, against the dense
operators, the per-projector identities it follows from by linearity,
for each point of each cross and its slot, so for every subset.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lattice
from .lattice import ConsistencyError, UsageError

__all__ = ["WitnessReport", "canonical_slot", "witness_scan"]


@dataclass(frozen=True)
class WitnessReport:
    """One negative diagonal element found by the k=1 witness scan."""

    site: tuple[int, int]  # (mu, nu) of the matrix element
    center: tuple[int, int]  # (mu+2, nu+2), the cross center
    center_in_subset: bool
    contributing_site: tuple[int, int]
    v_label: str
    value: float

    def to_json(self) -> dict:
        return {
            "site": list(self.site),
            "center": list(self.center),
            "center_in_subset": self.center_in_subset,
            "contributing_site": list(self.contributing_site),
            "v": self.v_label,
            "value": self.value,
        }


def canonical_slot(
    contributing: tuple[int, int], center: tuple[int, int]
) -> tuple[int, int]:
    """The Pauli slot (x, y) of the V = sigma_xy witnessing a k=1 cross.

    ``center`` is the cross center (mu+2, nu+2) and ``contributing`` the
    one point of I on the cross (center excluded).  The row case picks
    (i_mu(alpha), 2), the column case (2, i_nu(beta)), with i_mu(alpha)
    = mu ^ alpha.  ValueError unless both are sites of the lattice.
    """
    lattice.site_index(*center)
    lattice.site_index(*contributing)
    a2, b2 = center
    alpha, beta = contributing
    if contributing == center:
        raise ValueError("contributing site coincides with the cross center")
    if beta == b2 and alpha != a2:
        return a2 ^ 2 ^ alpha, 2
    if alpha == a2 and beta != b2:
        return 2, b2 ^ 2 ^ beta
    raise ValueError("contributing site is not on the cross")


def witness_scan(mask: int) -> list[WitnessReport]:
    """All k=1 sites of a PPT subset with their canonical witnesses.

    For each one, checks that the slot of :func:`canonical_slot` is
    admissible (exactly one index equal to 2) and that it absorbs the
    contributor, so that 2N times the value is k - 2 absorbed = -1;
    ConsistencyError otherwise.  Empty when no k-matrix entry equals 1.
    """
    mask = lattice._in_range(mask)
    if not lattice.is_ppt(mask):
        raise UsageError("subset is NPT; witness scan needs a PPT subset")
    return _scan(mask, mask.bit_count(), lattice._cross_counts(mask))


def _scan(mask: int, n: int, cross: tuple[int, ...]) -> list[WitnessReport]:
    # The scan of a PPT plain-int mask whose N and cross counts are known.
    if 1 not in cross:
        return []
    reports = []
    for mu in range(4):
        for nu in range(4):
            pos = 4 * (mu ^ 2) + (nu ^ 2)  # the cross center (mu+2, nu+2)
            k = cross[pos]  # k[mu][nu], as in lattice.k_matrix
            if k != 1:
                continue
            # The one point of I on the cross is its only set bit.
            point = divmod((mask & lattice._CROSS[pos]).bit_length() - 1, 4)
            x, y = canonical_slot(point, (mu ^ 2, nu ^ 2))
            if (x == 2) == (y == 2):
                raise ConsistencyError(f"sigma_{x}{y} is not an admissible V")
            absorbed = mask >> (4 * (mu ^ x) + (nu ^ y)) & 1
            if k - 2 * absorbed != -1:
                raise ConsistencyError(
                    f"sigma_{x}{y} at {(mu, nu)}: 2N * value = "
                    f"{k - 2 * absorbed}, not -1"
                )
            reports.append(
                WitnessReport(
                    site=(mu, nu),
                    center=(mu ^ 2, nu ^ 2),
                    center_in_subset=bool(mask >> pos & 1),
                    contributing_site=point,
                    v_label=f"sigma_{x}{y}",
                    value=-1.0 / (2 * n),
                )
            )
    return reports
