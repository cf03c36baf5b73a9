import numpy as np
import pytest

from bell_basis import psi_plus
from lattice16 import dense, pauli

RNG = np.random.default_rng(42)


def flip_operator() -> np.ndarray:
    """F on C^16 with F(x (x) y) = y (x) x for 4-vectors x, y."""
    f = np.zeros((16, 16))
    for a in range(4):
        for b in range(4):
            f[4 * b + a, 4 * a + b] = 1.0
    return f

def eta(alpha: int) -> np.ndarray:
    """eta^a_{bm} = Tr(s_a s_b s_m) / 2."""
    s = [pauli.pauli(a) for a in range(4)]
    return np.array(
        [[np.trace(s[alpha] @ s[b] @ s[m]) / 2.0 for m in range(4)] for b in range(4)]
    )


def index_map(alpha: int) -> tuple[int, int, int, int]:
    """i_alpha(beta): the unique m with s_a s_b proportional to s_m,
    read off the nonzero entry of row beta of eta^alpha."""
    out = []
    for row in eta(alpha):
        (m,) = np.flatnonzero(np.abs(row) > 0.5)
        out.append(int(m))
    return tuple(out)


ETA_EXPECTED = {
    1: np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1j], [0, 0, -1j, 0]]
    ),
    2: np.array(
        [[0, 0, 1, 0], [0, 0, 0, -1j], [1, 0, 0, 0], [0, 1j, 0, 0]]
    ),
    3: np.array(
        [[0, 0, 0, 1], [0, 0, 1j, 0], [0, -1j, 0, 0], [1, 0, 0, 0]]
    ),
}


def test_pauli_matrices():
    assert np.array_equal(pauli.pauli(0), np.eye(2))
    assert np.array_equal(pauli.pauli(2), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(pauli.pauli(3), np.diag([1.0, -1.0]))


def test_pauli_transposition_signs():
    for a in range(4):
        s = pauli.pauli(a)
        assert np.array_equal(s.T, pauli.EPSILON[a, a] * s)


def test_sigma_pair_basics():
    assert np.array_equal(pauli.sigma_pair(0, 0), np.eye(4))
    assert np.array_equal(pauli.sigma_pair(3, 3), np.diag([1.0, -1.0, -1.0, 1.0]))
    m = pauli.sigma_pair(1, 2)
    assert np.abs(m.conj().T @ m - np.eye(4)).max() == 0
    assert np.trace(m) == 0
    assert np.abs(m - m.conj().T).max() == 0


def test_cached_arrays_are_read_only():
    m = pauli.sigma_pair(1, 2)
    assert m is pauli.sigma_pair(1, 2) and not m.flags.writeable


def test_psi_plus_norm_and_shape():
    v = psi_plus()
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(v.reshape(4, 4), np.eye(4) / 2)


def test_psi_plus_sandwich_identity():
    # <psi| A (x) B |psi> = Tr(A^T B) / 4: the 1/4 comes from the
    # normalization of the entangled vector.
    v = psi_plus()
    for _ in range(20):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        b = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        lhs = v.conj() @ np.kron(a, b) @ v
        assert lhs == pytest.approx(np.trace(a.T @ b) / 4.0, abs=1e-12)


def test_projector_properties():
    total = np.zeros((16, 16))
    for p in dense.projector_stack():
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        assert np.abs(p @ p - p).max() < 1e-12
        assert np.abs(p - p.conj().T).max() < 1e-12
        total += p
    assert np.abs(total - np.eye(16)).max() < 1e-12


def test_projectors_mutually_orthogonal():
    stack = dense.projector_stack()
    for s in range(16):
        for t in range(16):
            prod = stack[s] @ stack[t]
            if s == t:
                assert np.abs(prod - stack[s]).max() < 1e-12
            else:
                assert np.abs(prod).max() < 1e-12


def test_projector_00_is_psi_plus():
    v = psi_plus()
    assert np.array_equal(dense.projector_stack()[0], np.outer(v, v.conj()))


def test_eta_identity_and_hardcoded():
    assert np.array_equal(eta(0), np.eye(4))
    for a, expected in ETA_EXPECTED.items():
        assert np.abs(eta(a) - expected).max() == 0


def test_eta_hermitian_unitary():
    for a in range(4):
        t = eta(a)
        assert np.abs(t - t.conj().T).max() == 0
        assert np.abs(t @ t.conj().T - np.eye(4)).max() == 0


def test_eta_cyclic_symmetry():
    for a in range(4):
        for b in range(4):
            for m in range(4):
                assert eta(a)[b, m] == eta(m)[a, b]
                assert eta(a)[b, m] == eta(b)[m, a]


def test_product_monomial_identity():
    # s_a s_b = eta^a_{b, i_a(b)} s_{i_a(b)}, entrywise for all pairs.
    for a in range(4):
        imap = index_map(a)
        for b in range(4):
            mu = imap[b]
            lhs = pauli.pauli(a) @ pauli.pauli(b)
            rhs = eta(a)[b, mu] * pauli.pauli(mu)
            assert np.abs(lhs - rhs).max() == 0


def test_index_maps():
    assert index_map(0) == (0, 1, 2, 3)
    assert index_map(1) == (1, 0, 3, 2)
    assert index_map(2) == (2, 3, 0, 1)  # beta + 2 mod 4
    assert index_map(3) == (3, 2, 1, 0)


def test_index_map_is_xor():
    # lattice16 uses i_alpha(beta) = alpha ^ beta wherever it needs the
    # index map; the product of Pauli matrices agrees on all 16 pairs.
    for a in range(4):
        for b in range(4):
            assert index_map(a)[b] == a ^ b


def test_index_map_involution_and_symmetry():
    for a in range(4):
        imap = index_map(a)
        for b in range(4):
            assert imap[imap[b]] == b
            assert imap[b] == index_map(b)[a]


def test_flip_involution_and_action():
    f = flip_operator()
    assert np.abs(f @ f - np.eye(16)).max() == 0
    x = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    y = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    assert np.abs(f @ np.kron(x, y) - np.kron(y, x)).max() < 1e-12


def test_flip_spectral_decomposition():
    f = flip_operator()
    recon = np.zeros((16, 16))
    for (a, b), p in zip(pauli.ALL_SITES, dense.projector_stack()):
        sign = pauli.EPSILON[a, a] * pauli.EPSILON[b, b]
        recon += sign * p
        # Each projector is an eigenvector of conjugation: F P F = P and
        # F P = sign * P.
        assert np.abs(f @ p - sign * p).max() < 1e-12
    assert np.abs(recon - f).max() < 1e-12
