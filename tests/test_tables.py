"""The whole-mask-space tables against the scalar functions they replace
in the sweeps: every mask for the lattice tables, and the canonical map
against the group action itself."""

import numpy as np

import whole_space
from generator_unitaries import site_image
from lattice16 import dense, lattice, symmetry, tables

ALL = lattice.FULL_MASK + 1


def test_lattice_tables_match_scalar_functions():
    card = tables.cardinality()
    ppt = tables.ppt()
    margin = 2 * whole_space.k_table().max(axis=1).astype(np.int16) - card
    assert (card.dtype, ppt.dtype) == (np.uint8, np.bool_)
    assert len(card) == len(ppt) == len(margin) == ALL
    assert card[0] == 0 and not ppt[0]
    card, ppt, margin = card.tolist(), ppt.tolist(), margin.tolist()
    for mask in range(1, ALL):
        n = lattice.cardinality(mask)
        assert card[mask] == n
        assert ppt[mask] == lattice.is_ppt(mask)
        assert margin[mask] == max(
            2 * lattice.cross_count(mask, a, b) - n for a in range(4) for b in range(4)
        )


def test_k_table_matches_k_matrix():
    k = whole_space.k_table()
    assert (k.dtype, k.shape) == (np.uint8, (ALL, 16))
    k = k.tolist()
    for mask in range(ALL):
        assert k[mask] == [x for row in lattice.k_matrix(mask) for x in row]


def test_tables_are_read_only():
    for table in (tables.masks(), tables.cardinality(), tables.ppt(),
                  symmetry.canonical_table(), symmetry.orbit_size_table(),
                  tables.CROSS):
        assert not table.flags.writeable


def test_column_sums_yield_contiguous_columns():
    # src/ keeps no (65536, c) table: column_sums yields one contiguous
    # 1-D column at a time, 64 KB for a byte weight, as a fresh array the
    # caller may change in place.  The byte tables keep one contiguous
    # row per byte, which symmetry reads one mask at a time.
    weights = np.random.default_rng(16).integers(0, 16, (16, 3)).astype(np.uint8)
    for w in (tables.CROSS, dense._pt_signs() > 0, weights):
        columns = list(tables.column_sums(w))
        assert len(columns) == w.shape[1]
        for column in columns:
            assert column.shape == (ALL,) and column.nbytes == ALL
            assert column.flags.c_contiguous and column.flags.writeable
        assert not any(np.shares_memory(a, b) for a, b in zip(columns, columns[1:]))
    card = tables.cardinality()
    assert card.shape == (ALL,) and card.flags.c_contiguous
    for table in (*tables.byte_sums(tables.CROSS), *symmetry._group_byte_tables()):
        assert table.flags.c_contiguous


def _image(g: symmetry.Element, masks: np.ndarray) -> np.ndarray:
    """The image of every mask under one group element, bit by bit."""
    out = np.zeros_like(masks)
    for pos in range(16):
        out |= (masks >> pos & 1) << site_image(g, pos)
    return out


def _bit_sums(weights: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The sum of weights[s] over the bits s of every mask, bit by bit."""
    out = np.zeros((len(masks), *weights.shape[1:]), dtype=weights.dtype)
    for s in range(16):
        out += np.multiply.outer((masks >> s & 1).astype(weights.dtype), weights[s])
    return out


def _check_byte_and_mask_sums(weights: np.ndarray) -> np.ndarray:
    masks = tables.masks()
    expected = _bit_sums(weights, masks)
    lo, hi = tables.byte_sums(weights)
    assert lo.shape == hi.shape == (256, *weights.shape[1:])
    assert np.array_equal(lo, expected[:256])
    assert np.array_equal(hi, expected[::256])
    columns = list(tables.column_sums(weights))
    assert len(columns) == weights.shape[1]
    assert all(c.shape == (len(masks),) for c in columns)
    sums = np.stack(columns, axis=1)
    assert (sums.dtype, sums.shape) == (weights.dtype, expected.shape)
    assert np.array_equal(sums, expected)
    return sums


def test_byte_and_mask_sums_match_a_bit_loop():
    rng = np.random.default_rng(16)
    # At most 16 * 15 = 240 per entry: no uint8 wrap.
    _check_byte_and_mask_sums(rng.integers(0, 16, (16, 5)).astype(np.uint8))
    _check_byte_and_mask_sums(rng.integers(0, 16, (16, 1)).astype(np.uint8))
    # 1-D weights give 1-D byte tables (dense reads site indices from them).
    lo, hi = tables.byte_sums(np.arange(16))
    expected = _bit_sums(np.arange(16), tables.masks())
    assert np.array_equal(lo, expected[:256]) and np.array_equal(hi, expected[::256])
    # One-hot site images: distinct sites set distinct bits, so the sum
    # of a group element's images is the image itself, an OR of bits.
    elements = symmetry.group()[::97]
    maps = np.array(
        [[site_image(g, p) for p in range(16)] for g in elements], dtype=np.uint16
    )
    images = _check_byte_and_mask_sums((np.uint16(1) << maps).T)
    for g, column in zip(elements, images.T):
        assert np.array_equal(column, _image(g, tables.masks()))
    # bool weights count as uint8 rather than OR-ing.
    bool_sums = whole_space.stacked(tables.CROSS.astype(bool))
    assert np.array_equal(bool_sums, whole_space.k_table())


def test_canonical_table_is_the_orbit_minimum():
    masks = tables.masks()
    canon = symmetry.canonical_table()
    assert canon.dtype == np.uint16
    assert (canon <= masks).all()
    for g in symmetry.generators():
        assert np.array_equal(canon[_image(g, masks)], canon)
    reps = np.flatnonzero(canon == masks)
    assert reps[0] == 0 and len(reps) == 192  # the empty mask and 191 orbits
    sizes = symmetry.orbit_size_table()
    assert int(sizes[reps[1:]].sum()) == ALL - 1
    for rep in reps.tolist():
        assert 1152 % sizes[rep] == 0
        assert symmetry.canonical_form(rep).orbit_size == sizes[rep]


def test_canonical_table_against_group_action():
    # Every orbit, the empty mask's included, read off the group action
    # itself: the masks the table maps to rep are exactly rep's images.
    canon = symmetry.canonical_table()
    sizes = symmetry.orbit_size_table()
    grp = symmetry.group()
    reps = np.flatnonzero(canon == tables.masks()).tolist()
    assert len(reps) == 192
    for rep in reps:
        orbit = {symmetry.act(g, rep) for g in grp}
        assert min(orbit) == rep
        assert orbit == set(np.flatnonzero(canon == rep).tolist())
        assert (sizes[sorted(orbit)] == len(orbit)).all()
        for mask in (rep, max(orbit)):
            rec = symmetry.canonical_form(mask)
            assert (rec.canonical, rec.orbit_size) == (rep, len(orbit))


def test_canonical_map_all_is_the_table():
    assert symmetry.canonical_map_all() == symmetry.canonical_table().tolist()
