import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice16 import classifier, seplp, simplex
from lattice16.lattice import ConsistencyError
from lattice16.simplex import feasible_nonneg_solution
from lp_oracles import fraction_simplex

random.seed(3)

F = Fraction


def _check(a_rows, b):
    x = feasible_nonneg_solution(a_rows, b)
    if x is None:
        return None
    assert all(v >= 0 for v in x)
    for row, rhs in zip(a_rows, b):
        assert sum(c * v for c, v in zip(row, x)) == rhs
    return x


def _cleared(a_rows, b):
    """The rational system A x = b with each row (and its b entry)
    multiplied by the lcm of its denominators: the same solutions, on
    integers."""
    rows, rhs = [], []
    for row, bi in zip(a_rows, b):
        scale = math.lcm(*(F(v).denominator for v in [*row, bi]))
        rows.append([int(v * scale) for v in row])
        rhs.append(int(bi * scale))
    return rows, rhs


def test_empty_system():
    assert feasible_nonneg_solution([], []) == []


def test_simple_feasible():
    x = _check([[1, 1]], [1])
    assert x is not None
    x = _check([[1, 0], [0, 1]], [2, 3])
    assert x == [F(2), F(3)]


def test_negative_rhs_handled():
    x = _check([[-1, 0]], [-5])
    assert x == [F(5), F(0)]


def test_infeasible_sign():
    assert feasible_nonneg_solution([[1, 1]], [-1]) is None


def test_infeasible_inconsistent():
    a = [[1, 1], [1, 1]]
    assert feasible_nonneg_solution(a, [1, 2]) is None


def test_redundant_rows_ok():
    a = [[1, 2], [2, 4]]
    assert _check(a, [3, 6]) is not None


def test_non_integer_entries_rejected():
    # The Bareiss // would floor a Fraction: only ints are accepted.
    for a, b in (
        ([[F(1, 2)]], [1]),
        ([[1]], [F(1, 2)]),
        ([[F(1)]], [1]),
        ([[1.0]], [1]),
    ):
        with pytest.raises(TypeError):
            feasible_nonneg_solution(a, b)


def test_ragged_or_mismatched_system_rejected():
    # Packed rows would zero-fill a short row: shapes are checked first.
    for a, b in (
        ([[1, 1], [1]], [1, 2]),  # a ragged A
        ([[1, 1]], [1, 2]),  # one row, two right-hand sides
        ([[1, 1], [1, 0]], [1]),  # two rows, one right-hand side
    ):
        with pytest.raises(ValueError):
            feasible_nonneg_solution(a, b)


def test_degenerate_cycling_guard():
    # A classic degenerate instance (rows cleared of denominators);
    # Bland's rule must terminate.
    a = [
        [1, -32, -4, 36, 4, 0, 0],
        [1, -24, -1, 6, 0, 2, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    assert _check(a, b) is not None


def test_random_feasible_instances():
    # Plant a nonnegative rational solution; the solver must find some
    # solution of the integer system.
    for _ in range(30):
        m, n = random.randint(1, 4), random.randint(2, 7)
        a = [[random.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        planted = [F(random.randint(0, 4), random.randint(1, 3)) for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, planted)) for row in a]
        a, b = _cleared(a, b)
        assert _check(a, b) is not None


def test_random_infeasible_instances():
    # x1 + ... + xn = 1 together with x1 + ... + xn = 2.
    for n in range(2, 6):
        a = [[1] * n, [1] * n]
        assert feasible_nonneg_solution(a, [1, 2]) is None


def test_exactness_no_rounding():
    # Certify an exact solution of a badly conditioned system (the first
    # row is x1/10^9 + x2 = 1, cleared of its denominator).
    a = [[1, 10**9], [1, 0]]
    b = [10**9, 10**9]
    x = _check(a, b)
    assert x == [F(10**9), F(0)]


# --- The integer tableau against the Fraction reference -----------------


@pytest.fixture(scope="module")
def census_lps():
    """The (A, b) of every LP a full census solves, in order."""
    systems = []

    def record(a_rows, b):
        systems.append((a_rows, b))
        return simplex.feasible_nonneg_solution(a_rows, b)

    seplp._decompose_direct.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(seplp, "feasible_nonneg_solution", record)
        classifier.census()
    seplp._decompose_direct.cache_clear()  # nothing recorded stays cached
    return systems


def _integer_run(monkeypatch, a_rows, b):
    """The integer solver's solution and its (leave, enter) pivots."""
    pivots = []
    real = simplex._pivot

    def counting(rows, basis, leave, enter, d, fields):
        pivots.append((leave, enter))
        return real(rows, basis, leave, enter, d, fields)

    monkeypatch.setattr(simplex, "_pivot", counting)
    try:
        return feasible_nonneg_solution(a_rows, b), pivots
    finally:
        monkeypatch.setattr(simplex, "_pivot", real)


def test_census_lp_counts(census_lps, monkeypatch):
    # The figures the benchmark's traced census checks.
    results = [_integer_run(monkeypatch, a, b) for a, b in census_lps]
    assert len(results) == 52
    assert sum(len(pivots) for _, pivots in results) == 601
    assert sum(x is None for x, _ in results) == 8


def test_census_lps_match_fraction_simplex(census_lps, monkeypatch):
    for a_rows, b in census_lps:
        x, pivots = _integer_run(monkeypatch, a_rows, b)
        ref_pivots = []
        assert x == fraction_simplex(a_rows, b, ref_pivots)
        assert pivots == ref_pivots


def test_census_tableau_entries_stay_small(census_lps, monkeypatch):
    # Posed on integers (A y = 1), every tableau and cost-row entry of
    # the census LPs stays within 9 bits (|v| < 512).  One lcm L on
    # every row of A w = 4/N would compound to L^(k+1) after k pivots:
    # 59 bits on these LPs.
    widest = 0
    real = simplex._pivot

    def measuring(rows, basis, leave, enter, d, fields):
        nonlocal widest
        d = real(rows, basis, leave, enter, d, fields)  # d is an entry of a row
        entries = (v for row in rows for v in fields.unpack(row))
        widest = max(widest, *(abs(v).bit_length() for v in entries))
        return d

    monkeypatch.setattr(simplex, "_pivot", measuring)
    for a_rows, b in census_lps:
        feasible_nonneg_solution(a_rows, b)
    assert widest == 9


def test_census_infeasible_lps_have_farkas_vectors(census_lps):
    infeasible = 0
    for a_rows, b in census_lps:
        x, y = simplex._phase1(a_rows, b)
        if x is None:
            infeasible += 1
            assert simplex.is_farkas_certificate(a_rows, b, y)
    assert infeasible == 8


def _rational_system(draw):
    """A rational system cleared to integers row by row."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    entry = st.builds(F, st.integers(-4, 4), st.integers(1, 6))
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # plant a nonnegative solution
        planted = [draw(st.builds(F, st.integers(0, 3), st.integers(1, 4)))
                   for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, planted)) for row in a]
    else:
        b = [draw(st.builds(F, st.integers(-5, 5), st.integers(1, 5)))
             for _ in range(m)]
    return _cleared(a, b)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_random_systems_match_fraction_simplex(data):
    a_rows, b = _rational_system(data.draw)
    ref_pivots = []
    expected = fraction_simplex(a_rows, b, ref_pivots)
    with pytest.MonkeyPatch.context() as mp:
        x, pivots = _integer_run(mp, a_rows, b)
    assert x == expected
    assert pivots == ref_pivots
    if x is None:
        _, y = simplex._phase1(a_rows, b)
        assert simplex.is_farkas_certificate(a_rows, b, y)


def _wide_system(draw):
    """Entries near ±2^70, among small ones: every packed field spans
    several machine words."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    near = st.builds(lambda s, k: s * (2**70 + k), st.sampled_from([-1, 1]),
                     st.integers(-2**8, 2**8))
    entry = st.one_of(st.integers(-3, 3), near)
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # plant a nonnegative solution
        planted = [draw(st.integers(0, 3)) for _ in range(n)]
        b = [sum(c * v for c, v in zip(row, planted)) for row in a]
    else:
        b = [draw(entry) for _ in range(m)]
    return a, b


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wide_entries_match_fraction_simplex(data):
    a_rows, b = _wide_system(data.draw)
    pivots, widths = [], []
    real = simplex._pivot

    def checking(rows, basis, leave, enter, d, fields):
        pivots.append((leave, enter))
        widths.append(fields.w)
        d = real(rows, basis, leave, enter, d, fields)
        for row in rows:  # no field overflowed into its neighbour
            assert sum(v << fields.w * j for j, v in enumerate(fields.unpack(row))) == row
        return d

    ref_pivots = []
    expected = fraction_simplex(a_rows, b, ref_pivots)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_pivot", checking)
        x = feasible_nonneg_solution(a_rows, b)
    assert x == expected
    assert pivots == ref_pivots
    if any(abs(v) > 2**64 for row in a_rows for v in row) and widths:
        assert min(widths) > 64
    if x is None:
        _, y = simplex._phase1(a_rows, b)
        assert simplex.is_farkas_certificate(a_rows, b, y)


def _integer_system(draw):
    """Small integer A and b, near seplp's 0/1 rows."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    a = [[draw(st.integers(-1, 2)) for _ in range(n)] for _ in range(m)]
    b = [draw(st.integers(-6, 6)) for _ in range(m)]
    return a, b


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scaling_b_keeps_the_pivot_path(data):
    # The lemma seplp's A y = 1 rests on: b -> c·b with c > 0 leaves
    # every reduced cost and every ratio comparison as it was.
    system = data.draw(st.sampled_from([_rational_system, _integer_system]))
    a_rows, b = system(data.draw)
    c = data.draw(st.integers(1, 30))
    cb = [c * v for v in b]
    with pytest.MonkeyPatch.context() as mp:
        x, pivots = _integer_run(mp, a_rows, b)
        cx, scaled_pivots = _integer_run(mp, a_rows, cb)
    assert scaled_pivots == pivots
    if x is None:
        assert cx is None
        _, y = simplex._phase1(a_rows, cb)
        assert y == simplex._phase1(a_rows, b)[1]  # -D·pi: no b in it
        assert simplex.is_farkas_certificate(a_rows, b, y)
    else:
        assert cx == [c * v for v in x]


def test_tampered_farkas_vector_rejected(census_lps):
    a_rows, b = next((a, b) for a, b in census_lps if simplex._phase1(a, b)[0] is None)
    _, y = simplex._phase1(a_rows, b)
    assert simplex.is_farkas_certificate(a_rows, b, y)
    assert not simplex.is_farkas_certificate(a_rows, b, [-v for v in y])  # yᵀb > 0
    assert not simplex.is_farkas_certificate(a_rows, b, [0] * len(y))
    assert not simplex.is_farkas_certificate(a_rows, b, y[:-1])
    # Keep yᵀb < 0 (b > 0 here) but drive one column of yᵀA negative.
    i = next(i for i, row in enumerate(a_rows) if any(row))
    bent = list(y)
    bent[i] -= 1 + sum(abs(v) for v in y)
    assert sum(v * bi for v, bi in zip(bent, b)) < 0
    assert not simplex.is_farkas_certificate(a_rows, b, bent)


def test_farkas_check_rejects_ragged_input():
    # zip would cut the short row: yᵀA read as [1, 0], not [1, -5].
    with pytest.raises(ValueError, match="rectangular"):
        simplex.is_farkas_certificate([[1, -5], [1]], [-1, 0], [1, 0])
    # ... or ignore the extra entry of b.
    with pytest.raises(ValueError, match="rectangular"):
        simplex.is_farkas_certificate([[1, -5], [1, 0]], [-1, 0, 7], [1, 0])
    with pytest.raises(ValueError, match="rectangular"):
        simplex.is_farkas_certificate([[1, -5], [1, 0]], [-1], [1, 0])
    assert not simplex.is_farkas_certificate([[1, -5], [1, 0]], [-1, 0], [1, 0])


def test_infeasible_without_farkas_vector_raises(monkeypatch):
    a, b = [[1, 1], [1, 1]], [1, 2]
    assert feasible_nonneg_solution(a, b) is None
    monkeypatch.setattr(simplex, "_phase1", lambda a_rows, rhs: (None, [1, 1]))
    with pytest.raises(ConsistencyError):
        feasible_nonneg_solution(a, b)
