import random

import numpy as np
import pytest

from admissible_v import VMatrix, phi_v_tilde_diagonal
from lattice16 import dense, lattice, pauli, witness

# The six admissible single-Pauli V: sigma_g2 and sigma_2d.
CANONICAL_SLOTS = [(g, 2) for g in (0, 1, 3)] + [(2, d) for d in (0, 1, 3)]


def _product_index(a, b):
    """i_a(b): the m with s_a s_b proportional to s_m, read off the
    Pauli matrices (Tr(s_m s_a s_b) is +-2 or +-2i there, 0 elsewhere)."""
    prod = pauli.pauli(a) @ pauli.pauli(b)
    (m,) = [m for m in range(4) if abs(np.trace(pauli.pauli(m) @ prod)) > 1]
    return m


def _cross_sites():
    """(contributing, center) for every center and each of the six other
    sites on its cross."""
    for center in pauli.ALL_SITES:
        for site in pauli.ALL_SITES:
            if (site[0] == center[0]) != (site[1] == center[1]):
                yield site, center


def test_canonical_v_errors():
    with pytest.raises(ValueError):
        witness.canonical_slot((1, 1), (1, 1))
    with pytest.raises(ValueError):
        witness.canonical_slot((0, 0), (1, 1))
    # Off the lattice: (5, 0) on the row of (1, 0) would give slot (6, 2).
    for contributing, center in (((5, 0), (1, 0)), ((1, 0), (1, 4)), ((-1, 2), (0, 2))):
        with pytest.raises(ValueError, match="outside 0..3"):
            witness.canonical_slot(contributing, center)


def test_canonical_slot_rule():
    # Row contributor (alpha, b2): (i_mu(alpha), 2); column contributor
    # (a2, beta): (2, i_nu(beta)), with the index maps of the Pauli
    # products and mu = a2 ^ 2, nu = b2 ^ 2.
    count = 0
    for (alpha, beta), (a2, b2) in _cross_sites():
        slot = witness.canonical_slot((alpha, beta), (a2, b2))
        assert slot in CANONICAL_SLOTS
        if beta == b2:
            assert slot == (_product_index(a2 ^ 2, alpha), 2)
        else:
            assert slot == (2, _product_index(b2 ^ 2, beta))
        count += 1
    assert count == 16 * 6


def test_canonical_witness_identities():
    # For each canonical V, site s and (mu, nu), the dense value
    # <psi_mn| (I x V^dag) (id x Phi_V)[P_s] (I x V) |psi_mn> equals
    # [s on the cross through (mu+2, nu+2), centre excluded] / 2
    # - [(mu ^ a, nu ^ b) is the Pauli slot of V], exactly.  rho_I is
    # linear in the projectors, so these 1,536 identities prove the
    # integer value (k - 2 absorbed) / (2N) of witness_scan for every
    # subset and each V that canonical_slot picks.
    slots = {witness.canonical_slot(s, c) for s, c in _cross_sites()}
    assert sorted(slots) == sorted(CANONICAL_SLOTS)
    for slot in slots:
        v = VMatrix(pauli.sigma_pair(*slot))
        for a, b in pauli.ALL_SITES:
            expected = np.zeros((4, 4))
            for mu, nu in pauli.ALL_SITES:
                on_cross = (a == mu ^ 2) != (b == nu ^ 2)
                absorbed = (mu ^ a, nu ^ b) == slot
                expected[mu, nu] = on_cross / 2 - absorbed
                single = 1 << (4 * a + b)
                assert phi_v_tilde_diagonal(single, mu, nu, v) == expected[mu, nu]
            got = dense._tilde_diagonal(dense.projector_stack()[4 * a + b], v.matrix)
            assert np.array_equal(got, expected), (slot, a, b)


def _exactly_admissible(v):
    """The two hypotheses of the positivity proof, with exact equality."""
    return np.array_equal(v @ v.conj().T, np.eye(4)) and np.array_equal(v.T, -v)


def test_admissible_slots_are_exactly_the_unitary_antisymmetric_sigmas():
    # Phi_V is positive when V V^dag = I and V^T = -V.  Among all 16
    # sigma_xy both hold, exactly, when one index is 2 (the rule that
    # witness_scan checks in integers), and those six are the slots that
    # canonical_slot returns; dense._slot_v accepts them and no other.
    admissible = []
    for x, y in pauli.ALL_SITES:
        ok = _exactly_admissible(pauli.sigma_pair(x, y))
        assert ok == ((x == 2) != (y == 2)), (x, y)
        if ok:
            admissible.append((x, y))
            assert dense._slot_v(x, y) is pauli.sigma_pair(x, y)
        else:
            with pytest.raises(lattice.ConsistencyError, match=f"sigma_{x}{y}"):
                dense._slot_v(x, y)
    assert sorted(admissible) == sorted(CANONICAL_SLOTS)
    assert {witness.canonical_slot(s, c) for s, c in _cross_sites()} == set(admissible)


def test_positivity_proof_steps_exact():
    # The proof's steps on unnormalised b with small Gaussian-integer
    # entries, where float arithmetic is exact: with w = V conj(b),
    # Phi_V[b b^dag] = |b|^2 I - b b^dag - w w^dag, |w| = |b| and
    # <b|w> = 0, so Phi_V[b b^dag] is |b|^2 times I minus two orthogonal
    # rank-one projectors.
    rng = np.random.default_rng(22)
    for slot in CANONICAL_SLOTS:
        v = dense._slot_v(*slot)
        for _ in range(50):
            b = rng.integers(-3, 4, size=4) + 1j * rng.integers(-3, 4, size=4)
            w = v @ b.conj()
            norm2 = np.vdot(b, b)
            bb, ww = np.outer(b, b.conj()), np.outer(w, w.conj())
            assert np.array_equal(dense.phi_v(v, bb), norm2 * np.eye(4) - bb - ww)
            assert np.vdot(w, w) == norm2
            assert np.vdot(b, w) == 0


def _only_point_on_cross(mask, report):
    """Whether the report's contributor is in I and is the one site of I
    on its center's cross, by listing the cross site by site."""
    a2, b2 = report.center
    on_cross = [
        (a, b) for a in range(4) for b in range(4)
        if mask >> (4 * a + b) & 1 and (a == a2) != (b == b2)
    ]
    return on_cross == [report.contributing_site]


def test_witness_scan_examples(grids):
    for name, n in (("ex1_right_n10", 10), ("ex2_right_n10", 10),
                    ("ex3_right_n11", 11)):
        reports = witness.witness_scan(grids[name])
        assert reports, name
        for r in reports:
            assert r.value == -1.0 / (2 * n)
            assert r.center == (r.site[0] ^ 2, r.site[1] ^ 2)
            slot = witness.canonical_slot(r.contributing_site, r.center)
            assert r.v_label == "sigma_{}{}".format(*slot)
            assert _only_point_on_cross(grids[name], r), (name, r)
    ppt = [m for m in range(1, lattice.FULL_MASK + 1) if lattice.is_ppt(m)]
    sample = random.Random(26).sample(ppt, 500)
    witnessed = 0
    for mask in sample:
        reports = witness.witness_scan(mask)
        witnessed += bool(reports)
        for r in reports:
            assert _only_point_on_cross(mask, r), (hex(mask), r)
    assert witnessed  # the sample exercises the contributor


def test_witness_scan_empty_for_separable(grids):
    assert witness.witness_scan(grids["rho9"]) == []
    assert witness.witness_scan(lattice.FULL_MASK) == []


def test_witness_scan_rejects_npt():
    with pytest.raises(ValueError):
        witness.witness_scan(0xF)
