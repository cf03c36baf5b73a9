import hashlib
import itertools
import random

import pytest

from generator_unitaries import site_image, verify_generator_numerically
from lattice16 import lattice, symmetry

random.seed(11)

IDENTITY = (False, (0, 1, 2, 3), (0, 1, 2, 3))


def compose(g, h):
    """g after h."""
    g_swap, g_cols, g_rows = g
    h_swap, pc, pr = h
    if g_swap:
        pc, pr = pr, pc
    return (
        g_swap != h_swap,
        tuple([g_cols[i] for i in pc]),
        tuple([g_rows[i] for i in pr]),
    )


def inverse(g):
    swap, cols, rows = g
    inv_c = [0] * 4
    inv_r = [0] * 4
    for i in range(4):
        inv_c[cols[i]] = i
        inv_r[rows[i]] = i
    if not swap:
        return (False, tuple(inv_c), tuple(inv_r))
    return (True, tuple(inv_r), tuple(inv_c))


def test_generator_count_and_involutions():
    gens = symmetry.generators()
    assert len(gens) == 13
    for g in gens:
        assert compose(g, g) == IDENTITY


def test_group_order():
    assert len(symmetry.group()) == 1152


def test_generators_generate_the_group():
    # The derivation of group(): the breadth-first closure of the 13
    # generators is exactly (S4 x S4) x| Z2, element for element and in
    # the same order, on which find_mapping's choice of element depends.
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for el in frontier:
            for g in symmetry.generators():
                cand = compose(g, el)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    assert tuple(sorted(seen)) == symmetry.group()


def test_group_closure_and_inverses():
    grp = set(symmetry.group())
    sample = random.sample(sorted(grp), 40)
    for g in sample:
        assert inverse(g) in grp
        assert compose(g, inverse(g)) == IDENTITY
        h = random.choice(sample)
        assert compose(g, h) in grp


def test_compose_matches_site_action():
    grp = symmetry.group()
    for _ in range(200):
        g = random.choice(grp)
        h = random.choice(grp)
        gh = compose(g, h)
        for p in (0, 7, 10, 13):
            assert site_image(gh, p) == site_image(g, site_image(h, p))


def test_act_is_group_action():
    grp = symmetry.group()
    for _ in range(100):
        g = random.choice(grp)
        h = random.choice(grp)
        mask = random.randrange(lattice.FULL_MASK + 1)
        assert symmetry.act(compose(g, h), mask) == symmetry.act(
            g, symmetry.act(h, mask)
        )
        assert symmetry.act(IDENTITY, mask) == mask


def test_action_preserves_invariants():
    for _ in range(100):
        g = random.choice(symmetry.group())
        mask = random.randrange(1, lattice.FULL_MASK + 1)
        image = symmetry.act(g, mask)
        assert lattice.cardinality(image) == lattice.cardinality(mask)
        assert lattice.is_ppt(image) == lattice.is_ppt(mask)
        assert lattice.kappa(image) == lattice.kappa(mask)
        assert sorted(
            x for r in lattice.k_matrix(image) for x in r
        ) == sorted(x for r in lattice.k_matrix(mask) for x in r)


def test_group_site_maps_and_byte_tables():
    # The broadcast site maps and the doubled byte tables against act,
    # which stays the reference.
    grp = symmetry.group()
    maps = symmetry._group_site_maps()
    assert maps.shape == (1152, 16)
    assert maps.tolist() == [[site_image(el, p) for p in range(16)] for el in grp]
    lo, hi = symmetry._group_byte_tables()
    masks = [1 << pos for pos in range(16)] + [0x00FF, 0xFF00, lattice.FULL_MASK]
    masks += random.Random(200).sample(range(lattice.FULL_MASK + 1), 200)
    for mask in masks:
        images = lo[mask & 0xFF] | hi[mask >> 8]
        assert images.tolist() == [symmetry.act(g, mask) for g in grp]


def test_canonical_form_orbit_stabilizer():
    for mask in (0, 1, 0x00FF, 0x8421, lattice.FULL_MASK):
        rec = symmetry.canonical_form(mask)
        assert rec.orbit_size * rec.stabilizer_order == 1152
        assert rec.canonical <= mask


def test_canonical_form_agrees_with_tables_on_every_mask():
    canon = symmetry.canonical_table().tolist()
    sizes = symmetry.orbit_size_table().tolist()
    for mask in range(lattice.FULL_MASK + 1):
        rec = symmetry.canonical_form(mask)
        assert (rec.canonical, rec.orbit_size) == (canon[mask], sizes[mask]), mask
        assert rec.orbit_size * rec.stabilizer_order == 1152
        assert symmetry.canonical(mask) == canon[mask], mask


def test_stabilizer_order_counts_the_fixing_elements():
    # The stabilizer by definition: the elements g with act(g, m) == m.
    grp = symmetry.group()
    masks = [0, 1, 0x0033, 0x00FF, 0x0EEE, 0x1236, 0x8421, lattice.FULL_MASK]
    masks += random.Random(7).sample(range(lattice.FULL_MASK + 1), 24)
    for mask in masks:
        fixing = sum(symmetry.act(g, mask) == mask for g in grp)
        assert symmetry.canonical_form(mask).stabilizer_order == fixing, mask


def test_canonical_invariant_on_orbit():
    for _ in range(50):
        mask = random.randrange(1, lattice.FULL_MASK + 1)
        rec = symmetry.canonical_form(mask)
        g = random.choice(symmetry.group())
        assert symmetry.canonical_form(symmetry.act(g, mask)).canonical == rec.canonical


def test_find_mapping():
    mask = 0x0136
    g = random.choice(symmetry.group())
    target = symmetry.act(g, mask)
    h = symmetry.find_mapping(mask, target)
    assert symmetry.act(h, mask) == target
    with pytest.raises(ValueError):
        symmetry.find_mapping(0x0001, 0x0003)


def test_carry_equals_act_after_find_mapping():
    # Large stabilizers (0x0F0F, 0x0033, the full and empty masks) leave
    # many elements with g(source) == target: carry must pick the same
    # one as find_mapping, the first in group order.
    rng = random.Random(29)
    grp = symmetry.group()
    sources = [0x0F0F, 0x0033, 0x0EEE, 0x1236, 0x8421, 0, lattice.FULL_MASK]
    sources += rng.sample(range(lattice.FULL_MASK + 1), 20)
    for source in sources:
        members = tuple(rng.sample(range(lattice.FULL_MASK + 1), rng.randrange(6)))
        members += (source, 0x0F0F)
        for _ in range(5):
            target = symmetry.act(rng.choice(grp), source)
            g = symmetry.find_mapping(source, target)
            expected = [symmetry.act(g, m) for m in members]
            assert symmetry.carry(source, target, members) == expected, (source, target)
    assert symmetry.canonical_form(0x0F0F).stabilizer_order > 1
    assert symmetry.canonical_form(0x0033).stabilizer_order > 1


def test_carry_and_canonical_refuse_bad_masks():
    with pytest.raises(ValueError, match="same orbit"):
        symmetry.carry(0x0001, 0x0003, (0x0033,))
    for source, target in ((-1, 0x0001), (lattice.FULL_MASK + 1, 0x0001),
                           (0x0001, -1), (0x0001, lattice.FULL_MASK + 1)):
        with pytest.raises(ValueError):
            symmetry.carry(source, target, (0x0033,))
    with pytest.raises(ValueError):
        symmetry.carry(0x0001, 0x0002, (lattice.FULL_MASK + 1,))
    for mask in (-1, lattice.FULL_MASK + 1):
        with pytest.raises(ValueError):
            symmetry.canonical(mask)


def test_group_is_ordered_by_swap_then_col_then_row():
    # The byte tables index elements in this order: i = 576 swap + 24 col + row.
    perms = list(itertools.permutations(range(4)))
    assert symmetry.group() == tuple(itertools.product((False, True), perms, perms))


# Read from the (swap_axes, col_perm, row_perm) fields of the group
# elements before they became plain tuples: the sha256 of repr() of the
# 1,152 elements in order, and of repr() of the images of PIN_MASKS under
# every element, element-major.
PIN_MASKS = [1 << p for p in range(16)] + [0, 0x0033, 0x0F0F, 0x1236, 0x8421, 0xFFFF]
PIN_MASKS += random.Random(33).sample(range(lattice.FULL_MASK + 1), 32)
GROUP_SHA256 = "386b82836db0faf5f6d67bb95c9e38998f40cf7e4a47cc6f84a76f4d82d410fb"
IMAGES_SHA256 = "c7e0e2963632b7eefb302b8eb5e8a388d9b85fb12fed42efb9fac57eccc18b7d"


def test_group_generators_and_act_are_pinned():
    # find_mapping and carry pick the first element in group order, and
    # the generators are the published ones: neither may drift.
    ident, swap = (0, 1, 2, 3), (True, (0, 1, 2, 3), (0, 1, 2, 3))
    involutions = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    transpositions = [(0, 2, 1, 3), (0, 3, 2, 1), (0, 1, 3, 2)]
    assert symmetry.generators() == [
        el
        for perm in involutions + transpositions
        for el in ((False, perm, ident), (False, ident, perm))
    ] + [swap]
    grp = symmetry.group()
    assert hashlib.sha256(repr(list(grp)).encode()).hexdigest() == GROUP_SHA256
    images = [symmetry.act(g, m) for g in grp for m in PIN_MASKS]
    assert hashlib.sha256(repr(images).encode()).hexdigest() == IMAGES_SHA256


def test_group_cannot_be_reordered_by_a_caller():
    # Every caller shares the one cached group(), and find_mapping indexes
    # it: a caller that could reverse it in place would change the element
    # find_mapping returns.
    grp = symmetry.group()
    assert isinstance(grp, tuple) and symmetry.group() is grp
    with pytest.raises(AttributeError):
        grp.reverse()
    target = symmetry.act(grp[5], 0x1236)
    assert symmetry.act(symmetry.find_mapping(0x1236, target), 0x1236) == target


def test_find_mapping_recovers_every_element():
    # With a trivial stabilizer, g is the only element sending the mask
    # to act(g, mask), so find_mapping must return exactly g.
    mask = 0x1236
    assert symmetry.canonical_form(mask).stabilizer_order == 1
    for g in symmetry.group():
        assert symmetry.find_mapping(mask, symmetry.act(g, mask)) == g


def test_canonical_map_all_consistency():
    canon = symmetry.canonical_map_all()
    assert len(canon) == lattice.FULL_MASK + 1
    assert canon[0] == 0
    for _ in range(200):
        mask = random.randrange(lattice.FULL_MASK + 1)
        assert canon[mask] == symmetry.canonical_form(mask).canonical
    # Orbit sizes partition the power set.
    sizes: dict[int, int] = {}
    for m in range(lattice.FULL_MASK + 1):
        sizes[canon[m]] = sizes.get(canon[m], 0) + 1
    assert sum(sizes.values()) == 65536
    for rep, size in sizes.items():
        assert 1152 % size == 0
        assert symmetry.canonical_form(rep).orbit_size == size


def test_all_generators_verify_numerically():
    for g in symmetry.generators():
        assert verify_generator_numerically(g)


def test_example_orbits(grids):
    # Deleting any one site of the 3x3 square lands in a single orbit,
    # the one containing the displayed eight-site square state.
    rho9 = grids["rho9"]
    target = symmetry.canonical_form(grids["rho8"]).canonical
    for a, b in lattice.sites(rho9):
        reduced = rho9 & ~lattice.site_bit(a, b)
        assert symmetry.canonical_form(reduced).canonical == target
