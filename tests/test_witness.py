import numpy as np
import pytest

from lattice16 import dense, lattice, pauli, witness

RNG = np.random.default_rng(5)


def _random_psd(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return z @ z.conj().T


def test_vmatrix_validation():
    with pytest.raises(ValueError):
        witness.VMatrix(np.eye(4))  # symmetric, not antisymmetric
    with pytest.raises(ValueError):
        witness.VMatrix(0.5 * pauli.sigma_pair(2, 0))  # not unitary
    v = witness.VMatrix(pauli.sigma_pair(2, 0))
    assert abs(v.coefficients[2, 0] - 1) < 1e-12
    assert np.abs(v.coefficients).sum() == pytest.approx(1.0, abs=1e-12)


def test_antisymmetric_pauli_slots():
    # The six antisymmetric sigma_ab (exactly one index equal to 2) span
    # the whole antisymmetric 4x4 space, so every antisymmetric unitary
    # has admissible support. Accept each of them plus a unitary mix.
    for a in (0, 1, 3):
        witness.VMatrix(pauli.sigma_pair(a, 2))
        witness.VMatrix(pauli.sigma_pair(2, a))
    mix = (pauli.sigma_pair(1, 2) + pauli.sigma_pair(3, 2)) / np.sqrt(2)
    assert np.abs(mix @ mix.conj().T - np.eye(4)).max() < 1e-12
    witness.VMatrix(mix)


def test_pauli_coefficients_round_trip():
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    c = witness.pauli_coefficients(m)
    recon = sum(
        c[a, b] * pauli.sigma_pair(a, b) for a in range(4) for b in range(4)
    )
    assert np.abs(recon - m).max() < 1e-12


def test_theta_and_phi_definitions():
    v = witness.VMatrix(pauli.sigma_pair(2, 0))
    b = _random_psd(RNG)
    assert np.abs(
        witness.theta_v(v, b) - v.matrix @ b.T @ v.matrix.conj().T
    ).max() == 0
    out = witness.phi_v(v, b)
    expected = np.trace(b) * np.eye(4) - b - witness.theta_v(v, b)
    assert np.abs(out - expected).max() < 1e-12


def test_phi_positive_on_psd():
    # The defining property of the extended reduction map: it sends
    # positive matrices to positive matrices for every admissible V.
    vs = [witness.random_admissible_v(RNG) for _ in range(10)]
    vs.append(witness.VMatrix(pauli.sigma_pair(2, 0)))
    vs.append(witness.VMatrix(pauli.sigma_pair(1, 2)))
    for _ in range(1000):
        b = _random_psd(RNG)
        for v in vs:
            assert np.linalg.eigvalsh(witness.phi_v(v, b)).min() > -1e-9


def test_apply_id_tensor_phi_on_kron():
    v = witness.random_admissible_v(RNG)
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    got = witness.apply_id_tensor_phi(v, np.kron(a, b))
    expected = np.kron(a, witness.phi_v(v, b))
    assert np.abs(got - expected).max() < 1e-10


def test_tilde_and_plain_spectra_agree():
    # Conjugating by I (x) V is unitary, so the two routes share spectra.
    for _ in range(10):
        mask = int(RNG.integers(1, lattice.FULL_MASK + 1))
        v = witness.random_admissible_v(RNG)
        rho = dense.build_lattice_state(mask)
        out = witness.apply_id_tensor_phi(v, rho)
        iv = np.kron(np.eye(4), v.matrix)
        tilde = iv.conj().T @ out @ iv
        assert np.abs(
            np.linalg.eigvalsh(out) - np.linalg.eigvalsh(tilde)
        ).max() < 1e-10


def test_canonical_v_errors():
    with pytest.raises(ValueError):
        witness.canonical_v_for((1, 1), (1, 1))
    with pytest.raises(ValueError):
        witness.canonical_v_for((0, 0), (1, 1))


def test_closed_form_matches_dense_random():
    for _ in range(10):
        mask = int(RNG.integers(1, lattice.FULL_MASK + 1))
        v = witness.random_admissible_v(RNG)
        dense_vals = dense._tilde_diagonal(dense.build_lattice_state(mask), v)
        for mu, nu in ((0, 0), (1, 3), (2, 2)):
            closed = witness.phi_v_tilde_diagonal(mask, mu, nu, v)
            assert closed == pytest.approx(dense_vals[mu, nu], abs=1e-10)


# The six single-Pauli V of the k=1 witness: sigma_g2 and sigma_2d.
CANONICAL_SLOTS = [(g, 2) for g in (0, 1, 3)] + [(2, d) for d in (0, 1, 3)]


def test_canonical_witness_identities():
    # For each canonical V, site s and (mu, nu), the dense value
    # <psi_mn| (I x V^dag) (id x Phi_V)[P_s] (I x V) |psi_mn> equals
    # [s on the cross through (mu+2, nu+2), centre excluded] / 2
    # - [(i_mu(a), i_nu(b)) is the Pauli slot of V], exactly.  rho_I is
    # linear in the projectors, so these 1,536 identities prove
    # phi_v_tilde_diagonal for every subset and each canonical V.
    for slot in CANONICAL_SLOTS:
        v = witness.VMatrix(pauli.sigma_pair(*slot))
        for a, b in pauli.ALL_SITES:
            expected = np.zeros((4, 4))
            for mu, nu in pauli.ALL_SITES:
                on_cross = (a == mu ^ 2) != (b == nu ^ 2)
                absorbed = (pauli.index_map(mu)[a], pauli.index_map(nu)[b]) == slot
                expected[mu, nu] = on_cross / 2 - absorbed
                single = 1 << (4 * a + b)
                assert witness.phi_v_tilde_diagonal(single, mu, nu, v) == expected[mu, nu]
            got = dense._tilde_diagonal(pauli.projector(a, b), v)
            assert np.array_equal(got, expected), (slot, a, b)


def test_canonical_v_objects_are_cached_and_read_only():
    seen = {}
    for mu, nu in pauli.ALL_SITES:
        center = (mu ^ 2, nu ^ 2)
        for site in pauli.ALL_SITES:
            if (site[0] == center[0]) == (site[1] == center[1]):
                continue
            v = witness.canonical_v_for(site, center)
            assert seen.setdefault(v.label, v) is v
            assert not v.matrix.flags.writeable
            assert not v.coefficients.flags.writeable
    assert sorted(seen) == sorted(f"sigma_{a}{b}" for a, b in CANONICAL_SLOTS)


def test_witness_scan_examples(grids):
    for name, n in (("ex1_right_n10", 10), ("ex2_right_n10", 10),
                    ("ex3_right_n11", 11)):
        reports = witness.witness_scan(grids[name])
        assert reports, name
        for r in reports:
            assert r.value == pytest.approx(-1.0 / (2 * n), abs=1e-12)
            assert r.center == (r.site[0] ^ 2, r.site[1] ^ 2)


def test_witness_scan_empty_for_separable(grids):
    assert witness.witness_scan(grids["rho9"]) == []
    assert witness.witness_scan(lattice.FULL_MASK) == []


def test_witness_scan_rejects_npt():
    with pytest.raises(ValueError):
        witness.witness_scan(0xF)


def test_random_admissible_v_is_admissible():
    for _ in range(20):
        v = witness.random_admissible_v(RNG)
        m = v.matrix
        assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-10
        assert np.abs(m + m.T).max() < 1e-10
