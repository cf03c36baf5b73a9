import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from admissible_v import (
    VMatrix,
    pauli_coefficients,
    phi_v_tilde_diagonal,
    random_admissible_v,
)
import bell_basis
import whole_space
from diag_states import build_diag_state
from lattice16 import cli, dense, lattice, pauli, tables, witness

RNG = np.random.default_rng(1)

# The six V = sigma_xy that witness.canonical_slot picks.
SLOTS = [(x, 2) for x in (0, 1, 3)] + [(2, y) for y in (0, 1, 3)]


def _bits(masks):
    """(len, 16) 0/1 int64 table: bit s of each mask."""
    return masks[:, None] >> np.arange(16) & 1


def _blockwise_phi(v, rho):
    """id (x) Phi_V on a stack of 16x16 operators, phi_v on each 4x4 block:
    the reference for dense.apply_id_tensor_phi's matrix product."""
    lead = rho.shape[:-2]
    blocks = rho.reshape(*lead, 4, 4, 4, 4).swapaxes(-3, -2)
    return dense.phi_v(v, blocks).swapaxes(-3, -2).reshape(*lead, 16, 16)


def _gathered_witness_values():
    """(masks, N * values) of every k=1 site of every PPT mask, over the
    whole space: weight[contributor, site] times the bits of each mask,
    summed, with the weights from :func:`_blockwise_phi` of the projector
    stack."""
    on_cross = tables.CROSS.T  # [mn, s]
    weight = np.zeros((16, 16, 16))
    for mn, c in np.argwhere(on_cross).tolist():
        mu, nu = divmod(mn, 4)
        v = pauli.sigma_pair(*witness.canonical_slot(divmod(c, 4), (mu ^ 2, nu ^ 2)))
        w = bell_basis.slot_w(v)
        out = _blockwise_phi(v, dense.projector_stack())
        weight[c, mn] = (w.conj() * (out @ w)).sum(axis=-2).real[:, mn]
    ppt = np.flatnonzero(tables.ppt())
    rows, sites = np.nonzero(whole_space.k_table()[ppt] == 1)
    masks = ppt[rows]
    bits = _bits(masks)
    contributor = np.argmax(bits & on_cross[sites], axis=1)
    return masks, (weight[contributor, sites] * bits).sum(axis=1)


def _reference_value(s, mu, nu, slot):
    """The closed-form value of P_s at (mu, nu) under V = sigma_slot."""
    return phi_v_tilde_diagonal(1 << s, mu, nu, VMatrix(pauli.sigma_pair(*slot)))


def _identity_failures(value):
    """The disagreements oracle_sweep should report when value(s, mu, nu,
    slot) is the dense value of P_s at (mu, nu) under V = sigma_slot: each
    one-site subset 1 << s at which 2 * value misses CROSS[s, mn] -
    2 [s == c] for some site mn, contributor c on its cross and the slot
    witness.canonical_slot picks for them."""
    failed = set()
    for mn, c in np.argwhere(tables.CROSS.T).tolist():
        mu, nu = divmod(mn, 4)
        slot = witness.canonical_slot(divmod(c, 4), (mu ^ 2, nu ^ 2))
        for s in range(16):
            if 2 * value(s, mu, nu, slot) != int(tables.CROSS[s, mn]) - 2 * (s == c):
                failed.add(s)
    return [("witness", 1 << s) for s in sorted(failed)]


def test_build_lattice_state_properties():
    for mask in (1, 0x8421, 0xFFFF, 0x1357):
        rho = dense.build_lattice_state(mask)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-12
    with pytest.raises(lattice.EmptySubsetError):
        dense.build_lattice_state(0)


def test_full_mask_is_maximally_mixed():
    rho = dense.build_lattice_state(lattice.FULL_MASK)
    assert np.abs(rho - np.eye(16) / 16).max() < 1e-12


def test_build_diag_state_matches_uniform():
    mask = 0x0F31
    n = lattice.cardinality(mask)
    pi = [
        [
            Fraction(1, n) if mask >> (4 * a + b) & 1 else Fraction(0)
            for b in range(4)
        ]
        for a in range(4)
    ]
    assert np.abs(build_diag_state(pi) - dense.build_lattice_state(mask)).max() < 1e-12


def test_partial_transpose_involution_and_trace():
    m = RNG.normal(size=(16, 16)) + 1j * RNG.normal(size=(16, 16))
    pt = dense.partial_transpose(m)
    assert np.abs(dense.partial_transpose(pt) - m).max() == 0
    assert np.trace(pt) == pytest.approx(np.trace(m), abs=1e-12)


def test_partial_transpose_on_kron():
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    assert np.abs(
        dense.partial_transpose(np.kron(a, b)) - np.kron(a, b.T)
    ).max() < 1e-12


def test_partial_transpose_on_stacks():
    stack = RNG.normal(size=(2, 3, 16, 16))
    pts = dense.partial_transpose(stack)
    assert pts.shape == stack.shape
    for i in range(2):
        for j in range(3):
            assert np.array_equal(pts[i, j], dense.partial_transpose(stack[i, j]))


def test_projector_stack_rejects_imaginary_part(monkeypatch):
    # The stack equals the Kronecker definition slice by slice, is real,
    # C-contiguous and read-only; an imaginary part that is not exactly
    # 0.0 is refused, not dropped.
    stack = dense.projector_stack()
    assert stack.dtype == np.float64 and stack.flags.c_contiguous
    assert stack is dense.projector_stack() and not stack.flags.writeable
    for a, b in pauli.ALL_SITES:
        p = bell_basis.projector(a, b)
        assert not p.imag.any() and np.array_equal(stack[4 * a + b], p.real)
    tilted = dense._psi().copy()
    psi_12 = tilted[:, 6]  # a view: the tilt lands in tilted
    psi_12[np.flatnonzero(psi_12)[0]] *= np.exp(1e-3j)
    monkeypatch.setattr(dense, "_psi", lambda: tilted)
    dense.projector_stack.cache_clear()
    try:
        with pytest.raises(lattice.ConsistencyError, match="not real"):
            dense.projector_stack()
    finally:
        dense.projector_stack.cache_clear()


def test_partially_transposed_projectors_are_diagonal():
    # The 16 exact identities P_ab^Gamma = sum_mn d * P_mn, with d = -1/4
    # when (a, b) lies on the cross through (mu+2, nu+2), centre excluded,
    # and d = +1/4 otherwise.  rho_I^Gamma is linear in the mask bits, so
    # they prove the closed-form spectrum for every mask.  The sweep's
    # sign table holds the same d, times 4.
    signs = dense._pt_signs()
    assert signs.dtype == np.int64
    stack = dense.projector_stack()
    for a, b in pauli.ALL_SITES:
        expected = np.zeros((16, 16))
        for mu, nu in pauli.ALL_SITES:
            on_cross = (a == mu ^ 2) != (b == nu ^ 2)
            expected += (-0.25 if on_cross else 0.25) * stack[4 * mu + nu]
            assert signs[4 * a + b, 4 * mu + nu] == (-1 if on_cross else 1)
        assert np.array_equal(dense.partial_transpose(stack[4 * a + b]), expected)


def test_pt_spectrum_matches_analytic_random():
    for _ in range(50):
        mask = int(RNG.integers(1, lattice.FULL_MASK + 1))
        assert np.abs(
            dense.pt_spectrum(mask) - dense.analytic_pt_spectrum(mask)
        ).max() < 1e-10


def test_pt_spectrum_matches_plain_dense_route(grids):
    # The plain route, built apart from dense: rho_I summed from the
    # Kronecker definition of the projectors, the second factor
    # transposed entry by entry, then one 16x16 eigvalsh.
    rng = np.random.default_rng(2024)
    masks = [
        *grids.values(),
        *(1 << s for s in range(16)),
        lattice.FULL_MASK,
        *(int(m) for m in rng.integers(1, lattice.FULL_MASK + 1, size=200)),
    ]
    for mask in masks:
        sites = lattice.sites(mask)
        rho = sum(bell_basis.projector(a, b) for a, b in sites) / len(sites)
        gamma = np.empty_like(rho)
        for i, j, k, l in np.ndindex(4, 4, 4, 4):
            gamma[4 * i + j, 4 * k + l] = rho[4 * i + l, 4 * k + j]
        plain = np.linalg.eigvalsh(gamma)
        assert np.abs(dense.pt_spectrum(mask) - plain).max() < 1e-12, hex(mask)


def test_pt_signs_reject_entry_off_the_psi_diagonal(monkeypatch, capsys):
    # The same bump of every P_s^Gamma at |00><01| and |01><00| leaves
    # the diagonal of 4 Psi^dag P_s^Gamma Psi as it was (so every count
    # stays right) but adds off-diagonal entries: the proof must fail.
    bump = np.zeros((16, 16))
    bump[0, 1] = bump[1, 0] = 0.25
    partial_transpose = dense.partial_transpose
    monkeypatch.setattr(dense, "partial_transpose", lambda m: partial_transpose(m) + bump)
    with pytest.raises(lattice.ConsistencyError):
        dense._pt_signs()
    assert cli.main(["verify"]) == 1
    assert "consistency violation" in capsys.readouterr().err


def _not_unitary(monkeypatch):
    # psi_00 doubled, and the psi_00 part of every P_s^Gamma quartered to
    # match: each 4 Psi^dag P_s^Gamma Psi stays diagonal with entries +-1,
    # but Psi is no longer unitary, so that is a congruence, not a
    # similarity, and proves nothing about the spectrum.
    psi = dense._psi().copy()
    u = psi[:, 0].real
    pts = dense.partial_transpose(dense.projector_stack())
    pts = pts - dense._pt_signs()[:, 0, None, None] * 3 / 16 * np.outer(u, u)
    stack = dense.partial_transpose(pts)
    psi[:, 0] *= 2
    monkeypatch.setattr(dense, "_psi", lambda: psi)
    monkeypatch.setattr(dense, "projector_stack", lambda: stack)


def _replace_projector(monkeypatch, p):
    stack = dense.projector_stack().copy()
    stack[5] = p
    monkeypatch.setattr(dense, "projector_stack", lambda: stack)


def _not_diagonal(monkeypatch):
    # 4 P_11^Gamma gains psi_00 psi_01^T + psi_01 psi_00^T: in the psi
    # basis its diagonal stays +-1, but it is no longer diagonal.
    u, v = dense._psi()[:, 0].real, dense._psi()[:, 1].real
    uv = np.outer(u, v)
    pt = dense.partial_transpose(dense.projector_stack()[5]) + (uv + uv.T) / 4
    _replace_projector(monkeypatch, dense.partial_transpose(pt))


@pytest.mark.parametrize(
    "mutate",
    [
        _not_unitary,
        _not_diagonal,
        # Diagonal in the psi basis, but with entries +-2 after scaling.
        lambda mp: _replace_projector(mp, 2 * dense.projector_stack()[5]),
    ],
    ids=["psi_not_unitary", "pt_not_diagonal", "pt_diagonal_not_unit"],
)
def test_exact_sweep_rejects_broken_pt_identities(monkeypatch, capsys, mutate):
    mutate(monkeypatch)
    with pytest.raises(lattice.ConsistencyError):
        dense._pt_signs()
    assert cli.main(["verify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "consistency violation" in captured.err


def test_analytic_spectrum_values(grids):
    # N=1: k-matrix entries are 0 or 1, spectrum {1/4, -1/4}.
    vals = dense.analytic_pt_spectrum(1)
    assert vals.min() == pytest.approx(-0.25)
    assert vals.max() == pytest.approx(0.25)
    # Full lattice: every entry k=6, N=16, eigenvalue 1/16 sixteen-fold.
    vals = dense.analytic_pt_spectrum(lattice.FULL_MASK)
    assert np.abs(vals - 1.0 / 16).max() < 1e-15


def test_pt_min_eigenvalues_all_consistency():
    mins = dense.pt_min_eigenvalues_all()
    assert mins.shape == (lattice.FULL_MASK,)
    for mask in (1, 0x00FF, 0x8421, 0xFFFF):
        assert mins[mask - 1] == pytest.approx(
            dense.pt_spectrum(mask)[0], abs=1e-10
        )


def test_pt_min_eigenvalues_all_match_analytic_without_eigensolver(monkeypatch):
    # Read from the proven sign identity on every mask; no LAPACK call.
    def refuse(*args, **kwargs):
        raise AssertionError("pt_min_eigenvalues_all called an eigensolver")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    mins = dense.pt_min_eigenvalues_all()
    analytic = [dense.analytic_pt_spectrum(m)[0] for m in range(1, lattice.FULL_MASK + 1)]
    assert np.abs(mins - analytic).max() < 1e-15


def test_oracle_sweep_small():
    report = dense.oracle_sweep()
    assert report["masks_swept"] == report["spectra_checked"] == lattice.FULL_MASK
    assert report["witnesses_checked"] == 1536
    assert type(report["witnesses_checked"]) is int
    assert report["disagreements"] == []


def test_oracle_sweep_reports_wrong_witness(monkeypatch, grids):
    # A V that ignores the contributor leaves it unabsorbed and absorbs
    # another site instead: the identity fails on those projectors, as
    # the closed form of admissible_v predicts, and on no others.  The
    # integer scan, under the same rule, rejects a k=1 mask too.
    monkeypatch.setattr(witness, "canonical_slot", lambda contributing, center: (2, 0))
    report = dense.oracle_sweep()
    expected = _identity_failures(_reference_value)
    assert expected and report["disagreements"] == expected
    with pytest.raises(lattice.ConsistencyError, match="sigma_20"):
        witness.witness_scan(grids["ex1_right_n10"])


def test_oracle_sweep_names_the_projectors_of_one_wrong_slot(monkeypatch):
    # One pair's slot moved to another admissible V: that pair's
    # contributor (0, 0) goes unabsorbed and the site the new V absorbs,
    # (3, 0), is absorbed in its place, so P_0 and P_12 are reported.
    canonical_slot = witness.canonical_slot

    def moved(contributing, center):
        if (contributing, center) == ((0, 0), (1, 0)):
            return 0, 2
        return canonical_slot(contributing, center)

    monkeypatch.setattr(witness, "canonical_slot", moved)
    report = dense.oracle_sweep()
    assert report["disagreements"] == _identity_failures(_reference_value)
    assert report["disagreements"] == [("witness", 1 << 0), ("witness", 1 << 12)]


def test_oracle_sweep_applies_phi_v(monkeypatch):
    # The sweep's dense values come from phi_v itself.  Tr_2 P_s = I/4,
    # so the Tr(B) I term adds 1/4 to every value; without it every
    # identity of every projector fails.
    theta_v = dense.theta_v
    monkeypatch.setattr(dense, "phi_v", lambda v, b: -b - theta_v(v, b))
    report = dense.oracle_sweep()
    expected = _identity_failures(lambda *key: _reference_value(*key) - 0.25)
    assert len(expected) == 16 and report["disagreements"] == expected


def test_gathered_k1_witness_values_are_minus_one_half():
    # The whole-space consequence of the identities the sweep proves: the
    # bits of each PPT mask against its contributors' blockwise Phi_V
    # weights give N * value = -1/2 at all 5,088 k=1 sites, on the 2,688
    # masks that witness_scan reports, with as many sites as it reports.
    masks, values = _gathered_witness_values()
    assert len(values) == 5088 and (values == -0.5).all()
    sites = Counter(masks.tolist())
    assert len(sites) == 2688
    assert sites == {m: len(witness.witness_scan(m)) for m in sites}


def test_oracle_sweep_reports_perturbed_slot_entry(monkeypatch):
    # Entry (s, mu, nu) of one slot's dense diagonal is read by the one
    # (site, contributor) pair at (mu, nu) whose contributor picks that
    # slot, in the identity of P_s: exactly 1 << s is flagged.
    s, (mu, nu), slot = 15, (0, 0), (2, 0)
    tilde_diagonal = dense._tilde_diagonal

    def perturbed(rho, v):
        d = tilde_diagonal(rho, v)
        if np.array_equal(v, pauli.sigma_pair(*slot)):
            d[s, mu, nu] += 0.5
        return d

    monkeypatch.setattr(dense, "_tilde_diagonal", perturbed)
    report = dense.oracle_sweep()
    assert report["disagreements"] == [("witness", 1 << s)]


def _patch_k(monkeypatch, entries):
    """Make tables.column_sums yield k's columns with k[mask, mn] set to
    value for each (mask, mn): value of entries; other weight tables
    pass through unchanged."""
    column_sums = tables.column_sums

    def patched(weights):
        for mn, column in enumerate(column_sums(weights)):
            if weights is tables.CROSS:
                for (mask, site), value in entries.items():
                    if site == mn:
                        column[mask] = value
            yield column

    monkeypatch.setattr(tables, "column_sums", patched)


def test_oracle_sweep_reports_broken_tables(monkeypatch):
    ppt = tables.ppt().copy()
    ppt[0x1357] = not ppt[0x1357]
    monkeypatch.setattr(tables, "ppt", lambda: ppt)
    _patch_k(monkeypatch, {(0x0F0F, 5): whole_space.k_table()[0x0F0F, 5] + 1})
    report = dense.oracle_sweep()
    assert report["disagreements"] == [("ppt_sign", 0x1357), ("spectrum", 0x0F0F)]


def test_oracle_sweep_reports_k_table_claiming_one(monkeypatch):
    # A k entry of 1 where the cross holds no point of I, or two, breaks
    # the count identity of the spectrum check.  The witness identities
    # read no k, so the spectrum is all that is reported.
    k = whole_space.k_table()
    ppt = np.flatnonzero(tables.ppt())
    broken = []
    for true_k in (0, 2):
        rows, sites = np.nonzero(k[ppt] == true_k)
        broken.append(next(
            (int(ppt[r]), int(c)) for r, c in zip(rows, sites) if ppt[r] not in dict(broken)
        ))
    _patch_k(monkeypatch, dict.fromkeys(broken, 1))
    report = dense.oracle_sweep()
    assert report["disagreements"] == sorted(("spectrum", m) for m, _ in broken)


def test_positive_counts_equal_sign_product():
    # The int64 product bits @ signs is 4N rho_I^Gamma on each psi_mn, and
    # 2 |I & P+_mn| - N by the +-1 signs; the byte tables count the same.
    masks = tables.masks()
    pos = whole_space.stacked(dense._pt_signs() > 0)
    assert pos.dtype == np.uint8 and pos.shape == (len(masks), 16)
    n = tables.cardinality()[:, None].astype(np.int64)
    product = _bits(masks) @ dense._pt_signs()
    assert np.array_equal(2 * pos.astype(np.int64), product + n)


def test_oracle_sweep_reports_flipped_sign(monkeypatch):
    # sign[s, mn] flipped, still +-1: every mask holding site s gets a
    # wrong count in column mn, and no other mask does.
    s, mn = 6, 9
    signs = dense._pt_signs()
    flipped = signs.copy()
    flipped[s, mn] = -flipped[s, mn]
    monkeypatch.setattr(dense, "_pt_signs", lambda: flipped)
    report = dense.oracle_sweep()
    by_kind = {}
    for kind, mask in report["disagreements"]:
        by_kind.setdefault(kind, []).append(mask)
    holding = [m for m in range(1, lattice.FULL_MASK + 1) if m >> s & 1]
    assert by_kind["spectrum"] == holding
    assert set(by_kind) <= {"spectrum", "ppt_sign"}
    assert set(by_kind.get("ppt_sign", [])) <= set(holding)


def test_oracle_sweep_needs_no_eigensolver(monkeypatch):
    # The sweep is integer counting: no LAPACK call and no whole-space
    # bit table.  Only ptspectrum reaches eigvalsh.
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called an eigensolver")

    for name in ("eigvalsh", "eigh", "eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    dense.oracle_sweep()  # builds the cached whole-space tables
    # A (65536, 16) int64 bit table alone is 8 MiB, and a (65536, 16)
    # byte table 1 MiB; the sweep streams 64 KB columns and keeps only
    # running results, about 0.61 MiB at its peak on a 2-core machine.
    tracemalloc.start()
    try:
        report = dense.oracle_sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2**20, "a whole-space table of more than one column"
    assert report["spectra_checked"] == lattice.FULL_MASK
    assert report["disagreements"] == []
    with pytest.raises(AssertionError, match="eigensolver"):
        dense.pt_spectrum(0x1357)


def _tilde_diagonal_13(mask):
    return phi_v_tilde_diagonal(mask, 1, 3, VMatrix(pauli.sigma_pair(2, 0)))


@pytest.mark.parametrize(
    "spectrum",
    [
        dense.pt_spectrum,
        dense.analytic_pt_spectrum,
        pytest.param(_tilde_diagonal_13, id="phi_v_tilde_diagonal"),
    ],
)
def test_spectra_reject_masks_out_of_range(spectrum):
    # Masking with FULL_MASK would name another subset: 0x10001 as 0x0001.
    for mask in (-1, lattice.FULL_MASK + 1, 0x10001):
        with pytest.raises(ValueError, match="outside"):
            spectrum(mask)
    with pytest.raises(lattice.EmptySubsetError):
        spectrum(0)


def _random_psd(rng):
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return z @ z.conj().T


def test_vmatrix_validation():
    with pytest.raises(ValueError):
        VMatrix(np.eye(4))  # symmetric, not antisymmetric
    with pytest.raises(ValueError):
        VMatrix(0.5 * pauli.sigma_pair(2, 0))  # not unitary
    with pytest.raises(ValueError):
        VMatrix(pauli.sigma_pair(2, 2))  # symmetric: the slot (2, 2) is not admissible
    v = VMatrix(pauli.sigma_pair(2, 0))
    assert abs(v.coefficients[2, 0] - 1) < 1e-12
    assert np.abs(v.coefficients).sum() == pytest.approx(1.0, abs=1e-12)
    assert not v.matrix.flags.writeable
    assert not v.coefficients.flags.writeable


def test_antisymmetric_pauli_slots():
    # The six antisymmetric sigma_ab (exactly one index equal to 2) span
    # the whole antisymmetric 4x4 space, so every antisymmetric unitary
    # has admissible support. Accept each of them plus a unitary mix.
    for a in (0, 1, 3):
        VMatrix(pauli.sigma_pair(a, 2))
        VMatrix(pauli.sigma_pair(2, a))
    mix = (pauli.sigma_pair(1, 2) + pauli.sigma_pair(3, 2)) / np.sqrt(2)
    assert np.abs(mix @ mix.conj().T - np.eye(4)).max() < 1e-12
    VMatrix(mix)


def test_pauli_coefficients_round_trip():
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    c = pauli_coefficients(m)
    recon = sum(
        c[a, b] * pauli.sigma_pair(a, b) for a in range(4) for b in range(4)
    )
    assert np.abs(recon - m).max() < 1e-12


def test_theta_and_phi_definitions():
    v = VMatrix(pauli.sigma_pair(2, 0))
    b = _random_psd(RNG)
    assert np.abs(
        dense.theta_v(v.matrix, b) - v.matrix @ b.T @ v.matrix.conj().T
    ).max() == 0
    out = dense.phi_v(v.matrix, b)
    expected = np.trace(b) * np.eye(4) - b - dense.theta_v(v.matrix, b)
    assert np.abs(out - expected).max() < 1e-12


def test_theta_and_phi_act_on_stacks():
    # Each 4x4 matrix of a stack maps as it does on its own.
    v = random_admissible_v(RNG).matrix
    stack = RNG.normal(size=(3, 5, 4, 4)) + 1j * RNG.normal(size=(3, 5, 4, 4))
    thetas, phis = dense.theta_v(v, stack), dense.phi_v(v, stack)
    assert thetas.shape == phis.shape == stack.shape
    for i, j in np.ndindex(3, 5):
        assert np.abs(thetas[i, j] - dense.theta_v(v, stack[i, j])).max() < 1e-12
        assert np.abs(phis[i, j] - dense.phi_v(v, stack[i, j])).max() < 1e-12


def test_phi_positive_on_psd():
    # The defining property of the extended reduction map: it sends
    # positive matrices to positive matrices for every admissible V.
    # lattice16.witness proves it; this checks phi_v in float arithmetic.
    vs = [random_admissible_v(RNG) for _ in range(10)]
    vs.append(VMatrix(pauli.sigma_pair(2, 0)))
    vs.append(VMatrix(pauli.sigma_pair(1, 2)))
    for _ in range(1000):
        b = _random_psd(RNG)
        for v in vs:
            assert np.linalg.eigvalsh(dense.phi_v(v.matrix, b)).min() > -1e-9


def test_apply_id_tensor_phi_matches_blockwise_phi_v():
    # The 16x16 matrix of Phi_V gives phi_v's own exact sums on the
    # projectors and on a kron of dyadic factors, and agrees to rounding
    # on a state with N = 5.
    rng = np.random.default_rng(5)
    stack = dense.projector_stack()
    a = rng.integers(-4, 5, size=(4, 4)) / 4 + 1j * rng.integers(-4, 5, size=(4, 4)) / 8
    b = rng.integers(-4, 5, size=(4, 4)) / 2
    five = dense.build_lattice_state(0x0117)
    assert lattice.state_cardinality(0x0117) == 5
    for slot in SLOTS:
        v = pauli.sigma_pair(*slot)
        assert np.array_equal(dense.apply_id_tensor_phi(v, stack), _blockwise_phi(v, stack))
        kron = np.kron(a, b)
        assert np.array_equal(dense.apply_id_tensor_phi(v, kron), _blockwise_phi(v, kron))
        assert np.abs(dense.apply_id_tensor_phi(v, five) - _blockwise_phi(v, five)).max() < 1e-15
    v = random_admissible_v(rng).matrix
    assert np.abs(dense.apply_id_tensor_phi(v, five) - _blockwise_phi(v, five)).max() < 1e-15


def test_psi_is_cached_read_only():
    # Column 4*mu + nu of the closed form equals the Kronecker definition.
    psi = dense._psi()
    assert psi is dense._psi() and not psi.flags.writeable
    for mu, nu in pauli.ALL_SITES:
        assert np.array_equal(psi[:, 4 * mu + nu], bell_basis.psi_pair(mu, nu))


@pytest.mark.parametrize("slot", SLOTS)
def test_slot_w_matches_kronecker_definition(slot):
    # W = (I x V) Psi from V times the 4-row blocks of Psi, for each V of
    # canonical_slot, equals the Kronecker product applied to Psi.
    v = pauli.sigma_pair(*slot)
    w = dense._slot_w(v)
    assert np.array_equal(w, bell_basis.slot_w(v)) and not w.flags.writeable


def test_apply_id_tensor_phi_on_kron():
    v = random_admissible_v(RNG).matrix
    a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    got = dense.apply_id_tensor_phi(v, np.kron(a, b))
    expected = np.kron(a, dense.phi_v(v, b))
    assert np.abs(got - expected).max() < 1e-10


def test_tilde_and_plain_spectra_agree():
    # Conjugating by I (x) V is unitary, so the two routes share spectra.
    for _ in range(10):
        mask = int(RNG.integers(1, lattice.FULL_MASK + 1))
        v = random_admissible_v(RNG)
        rho = dense.build_lattice_state(mask)
        out = dense.apply_id_tensor_phi(v.matrix, rho)
        iv = np.kron(np.eye(4), v.matrix)
        tilde = iv.conj().T @ out @ iv
        assert np.abs(
            np.linalg.eigvalsh(out) - np.linalg.eigvalsh(tilde)
        ).max() < 1e-10


def test_closed_form_matches_dense_random():
    for _ in range(10):
        mask = int(RNG.integers(1, lattice.FULL_MASK + 1))
        v = random_admissible_v(RNG)
        dense_vals = dense._tilde_diagonal(dense.build_lattice_state(mask), v.matrix)
        for mu, nu in ((0, 0), (1, 3), (2, 2)):
            closed = phi_v_tilde_diagonal(mask, mu, nu, v)
            assert closed == pytest.approx(dense_vals[mu, nu], abs=1e-10)


def test_random_admissible_v_is_admissible():
    for _ in range(20):
        v = random_admissible_v(RNG)
        m = v.matrix
        assert np.abs(m @ m.conj().T - np.eye(4)).max() < 1e-10
        assert np.abs(m + m.T).max() < 1e-10
