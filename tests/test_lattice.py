import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diag_states import diag_state_is_ppt, validate_probability_table
from lattice16 import classifier, lattice, seplp, symmetry, tables, witness

random.seed(7)


def test_site_bit_layout():
    assert lattice.site_bit(0, 0) == 1
    assert lattice.site_bit(0, 3) == 8
    assert lattice.site_bit(3, 3) == 1 << 15
    assert lattice.site_index(3, 2) == 14


def test_sites_and_cardinality():
    mask = lattice.site_bit(1, 2) | lattice.site_bit(3, 0)
    assert lattice.sites(mask) == [(1, 2), (3, 0)]
    assert lattice.cardinality(mask) == 2
    assert lattice.cardinality(lattice.FULL_MASK) == 16


def test_cross_count_brute_force():
    for _ in range(300):
        mask = random.randrange(1, lattice.FULL_MASK + 1)
        for a in range(4):
            for b in range(4):
                expected = sum(
                    mask >> (4 * a + d) & 1 for d in range(4) if d != b
                ) + sum(mask >> (4 * g + b) & 1 for g in range(4) if g != a)
                assert lattice.cross_count(mask, a, b) == expected
    # Column 4*mu + nu of the whole-space incidence is the cross through
    # (mu+2, nu+2): a site s = (a, b) shares its column or its row, not both.
    for mu in range(4):
        for nu in range(4):
            a2, b2 = mu ^ 2, nu ^ 2
            expected = [int((s >> 2 == a2) != (s & 3 == b2)) for s in range(16)]
            assert tables.CROSS[:, 4 * mu + nu].tolist() == expected, (mu, nu)


def test_k_matrix_is_shifted_cross():
    for _ in range(300):
        mask = random.randrange(1, lattice.FULL_MASK + 1)
        k = lattice.k_matrix(mask)
        for mu in range(4):
            for nu in range(4):
                assert k[mu][nu] == lattice.cross_count(mask, mu ^ 2, nu ^ 2)
        assert lattice.kappa(mask) == min(min(r) for r in k)


def test_k_matrix_entry_sum():
    # Each entry is c_a + r_b - 2*chi(a,b); summing over all 16 entries
    # gives 4N + 4N - 2N = 6N.
    for _ in range(100):
        mask = random.randrange(1, lattice.FULL_MASK + 1)
        total = sum(sum(r) for r in lattice.k_matrix(mask))
        assert total == 6 * lattice.cardinality(mask)


def test_is_ppt_empty_raises():
    assert lattice.state_cardinality(0x8421) == 4
    for check in (lattice.state_cardinality, lattice.is_ppt):
        with pytest.raises(lattice.EmptySubsetError, match="no lattice state"):
            check(0)


def test_is_ppt_examples(grids):
    assert lattice.is_ppt(grids["ex1_left_n8"])
    assert lattice.is_ppt(grids["rho9"])
    # A full column of 4 with nothing else: cross count 3 > 4/2.
    assert not lattice.is_ppt(0xF)
    assert lattice.is_ppt(lattice.FULL_MASK)


def test_is_ppt_matches_kappa_rule():
    # PPT iff the largest k-entry is at most N/2, same integers either way.
    for mask in range(1, lattice.FULL_MASK + 1, 17):
        n = lattice.cardinality(mask)
        kmax = max(max(r) for r in lattice.k_matrix(mask))
        assert lattice.is_ppt(mask) == (2 * kmax <= n)


def test_prop1b(grids):
    assert lattice.prop1b_entangled(grids["ex1_left_n8"]) is not None
    assert lattice.prop1b_entangled(grids["ex1_right_n10"]) is None
    assert lattice.prop1b_entangled(grids["rho9"]) is None
    with pytest.raises(ValueError):
        lattice.prop1b_entangled(0xF)


def test_usage_error_marks_requests_outside_an_operations_domain():
    # What a command line can ask for is a UsageError (the CLI exits 2
    # on it); misuse inside the program stays a plain ValueError.
    assert issubclass(lattice.UsageError, ValueError)
    assert issubclass(lattice.EmptySubsetError, lattice.UsageError)
    assert issubclass(lattice.SubsetParseError, lattice.UsageError)
    for request in (
        lambda: witness.witness_scan(0xF),
        lambda: seplp.decompose(0xF),
        lambda: lattice.prop1b_entangled(0xF),
        lambda: classifier.census(3, 2),
    ):
        with pytest.raises(lattice.UsageError):
            request()
    for misuse in (lambda: lattice._in_range(-1), lambda: lattice.site_index(4, 0)):
        with pytest.raises(ValueError) as info:
            misuse()
        assert not isinstance(info.value, lattice.UsageError)


def test_prop1b_matches_site_loop():
    # The first site outside I with cross count 1, in bit-position order,
    # by the scalar cross_count, on every PPT mask.
    for mask in range(1, lattice.FULL_MASK + 1):
        if not lattice.is_ppt(mask):
            continue
        expected = next(
            (
                (a, b)
                for a in range(4)
                for b in range(4)
                if not mask >> (4 * a + b) & 1 and lattice.cross_count(mask, a, b) == 1
            ),
            None,
        )
        assert lattice.prop1b_entangled(mask) == expected


def test_prop1b_site_is_outside_with_unit_cross(grids):
    for name in ("ex1_left_n8", "ex2_left_n8", "ex3_left_n10"):
        mask = grids[name]
        site = lattice.prop1b_entangled(mask)
        assert site is not None
        a, b = site
        assert not mask >> (4 * a + b) & 1
        assert lattice.cross_count(mask, a, b) == 1


def test_diag_state_is_ppt_uniform_matches():
    for _ in range(100):
        mask = random.randrange(1, lattice.FULL_MASK + 1)
        n = lattice.cardinality(mask)
        pi = [
            [
                Fraction(1, n) if mask >> (4 * a + b) & 1 else Fraction(0)
                for b in range(4)
            ]
            for a in range(4)
        ]
        assert diag_state_is_ppt(pi) == lattice.is_ppt(mask)


def test_diag_state_nonuniform():
    # All weight on one site: a maximally entangled pure state, NPT
    # (the cross through any neighbor on its row or column carries 1).
    pi = [[0] * 4 for _ in range(4)]
    pi[1][2] = 1
    assert not diag_state_is_ppt(pi)
    # Full support, one site slightly heavy: the worst cross (through a
    # neighbor of the heavy site) carries 1/10 + 5 * 3/50 = 2/5 < 1/2.
    pi = [[Fraction(3, 50)] * 4 for _ in range(4)]
    pi[1][2] = Fraction(1, 10)
    assert diag_state_is_ppt(pi)
    # Tilt harder and the same cross reaches 3/10 + 5 * 7/150 = 8/15.
    pi = [[Fraction(7, 150)] * 4 for _ in range(4)]
    pi[1][2] = Fraction(3, 10)
    assert not diag_state_is_ppt(pi)


def test_validate_probability_table_errors():
    with pytest.raises(ValueError):
        validate_probability_table([[Fraction(1, 2)] * 4] * 4)
    bad = [[0] * 4 for _ in range(4)]
    bad[0][0] = 2
    bad[0][1] = -1
    with pytest.raises(ValueError):
        validate_probability_table(bad)


def test_parse_grid(grids):
    assert lattice.parse_subset("..../..../..../X...") == lattice.site_bit(0, 0)
    assert lattice.parse_subset("...X/..../..../....") == lattice.site_bit(3, 3)
    assert grids["rho6"] == (
        lattice.site_bit(1, 1) | lattice.site_bit(1, 2) | lattice.site_bit(1, 3)
        | lattice.site_bit(2, 1) | lattice.site_bit(2, 2) | lattice.site_bit(2, 3)
    )


def test_parse_pairs_and_hex():
    assert lattice.parse_subset("0,0;3,3") == (1 | 1 << 15)
    assert lattice.parse_subset("0x8001") == 0x8001
    assert lattice.parse_subset("0XFFFF") == lattice.FULL_MASK


def test_parse_errors():
    for bad in ("", "..../....", "..../..../..../...Y", "0x10000", "0xZZ",
                "4,0", "0,0;0,0", "1;2", "a,b"):
        with pytest.raises(lattice.SubsetParseError):
            lattice.parse_subset(bad)
    for not_text in (3, None, b"0x1"):
        with pytest.raises(TypeError, match="must be str"):
            lattice.parse_subset(not_text)


def test_parse_hex_needs_one_to_four_digits():
    # int(text, 16) alone would accept the underscores and the sign.
    for bad in ("0x_1", "0x1_0", "0X_FFFF", "0x", "0x00001", "0x+1", "0x-1",
                "0x 1"):
        with pytest.raises(lattice.SubsetParseError):
            lattice.parse_subset(bad)
    assert lattice.parse_subset("0x1") == 1
    assert lattice.parse_subset("0XaBcD") == 0xABCD
    assert lattice.parse_subset("  0x0010 ") == 16


def test_parse_pairs_needs_single_ascii_digits():
    # int() alone would accept underscores, signs, leading zeros and
    # non-ASCII digits such as the Arabic-Indic three.
    for bad in ("0_1,0_2", "+1,-0", "\u0663,1", "00,3", "1,2;03,0", "1,\uff12",
                "1 2,3", "1,,2"):
        with pytest.raises(lattice.SubsetParseError):
            lattice.parse_subset(bad)
    assert lattice.parse_subset(" 1 , 2 ") == lattice.site_bit(1, 2)
    assert lattice.parse_subset("1 ,2; 3, 0") == (
        lattice.site_bit(1, 2) | lattice.site_bit(3, 0)
    )


SUBSET_ALPHABET = "0123456789abcdefxX./,;_+- \t\n\u0663\uff12"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=SUBSET_ALPHABET)))
def test_parse_subset_fuzz(text):
    try:
        mask = lattice.parse_subset(text)
    except lattice.SubsetParseError:
        return
    assert isinstance(mask, int) and 0 <= mask <= lattice.FULL_MASK


@given(st.integers(0, lattice.FULL_MASK), st.sampled_from(["grid", "pairs", "hex"]))
def test_render_round_trip(mask, form):
    assume(mask or form != "pairs")  # the empty pair list is the empty string
    assert lattice.parse_subset(lattice.render_subset(mask, form)) == mask


def test_render_round_trip_every_mask():
    for mask in range(lattice.FULL_MASK + 1):
        for form in ("grid", "hex", "pairs") if mask else ("grid", "hex"):
            text = lattice.render_subset(mask, form)
            assert lattice.parse_subset(text) == mask, (form, text)


def test_render_table_and_unknown_form():
    table = lattice.render_subset(lattice.site_bit(0, 0), "table")
    assert "0 | X . . ." in table
    assert table.endswith("0 1 2 3")
    with pytest.raises(ValueError):
        lattice.render_subset(1, "braille")


@pytest.mark.parametrize("form", ["grid", "pairs", "hex", "table"])
def test_render_rejects_masks_out_of_range(form):
    for mask in (-1, lattice.FULL_MASK + 1, 0x10001):
        with pytest.raises(ValueError, match="outside"):
            lattice.render_subset(mask, form)


@pytest.mark.parametrize(
    "entry",
    [
        lattice.cardinality,
        lattice.is_ppt,
        lambda mask: classifier.classify(mask).to_json(),
        lambda mask: lattice.render_subset(mask, "hex"),
        symmetry.canonical,
    ],
    ids=["cardinality", "is_ppt", "classify", "render_hex", "canonical"],
)
def test_float_mask_is_a_type_error(entry):
    with pytest.raises(TypeError):
        entry(3.0)
    assert entry(np.uint16(3)) == entry(3)


def test_bool_mask_is_a_type_error():
    # operator.index(True) is 1, so classify(True) used to classify the
    # mask 0x0001; operator.index refuses numpy bools itself.
    g = symmetry.generators()[0]
    for entry in (
        lattice.cardinality,
        lattice.is_ppt,
        classifier.classify,
        symmetry.canonical,
        lambda mask: symmetry.act(g, mask),
    ):
        for mask in (True, False, np.True_):
            with pytest.raises(TypeError, match="bool"):
                entry(mask)
