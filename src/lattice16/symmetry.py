"""Local-unitary lattice symmetries as a permutation group on L16.

A group element is the plain tuple (swap_axes, col_perm, row_perm), the
Element below.  It sends the site (a, b) to (col_perm[a'], row_perm[b']),
where (a', b') is (b, a) if swap_axes is set and (a, b) otherwise: the
swap comes first.  A mask goes to the mask of its sites' images.

Generators: the index-map involutions i_g(b) = g ^ b (g = 1, 2, 3)
applied to either axis, transpositions of the nonzero labels {1,2,3}
on either axis, and the column/row swap.  The index maps are the Klein
four-group and the transpositions generate S3, so each axis gets all
of S4, and the group is built directly as (S4 x S4) x| Z2; the tests
check that it is the closure of the generators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from . import lattice, tables

__all__ = [
    "OrbitRecord",
    "generators",
    "group",
    "act",
    "canonical",
    "canonical_form",
    "find_mapping",
    "carry",
    "canonical_map_all",
    "canonical_table",
    "orbit_size_table",
]

Element = tuple[bool, tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class OrbitRecord:
    canonical: int
    orbit_size: int
    stabilizer_order: int

    def to_json(self) -> dict:
        return {
            "canonical": f"0x{self.canonical:04X}",
            "orbit_size": self.orbit_size,
            "stabilizer_order": self.stabilizer_order,
        }


_ID_PERM = (0, 1, 2, 3)


def generators() -> list[Element]:
    gens = []
    for g in (1, 2, 3):
        inv = tuple(g ^ b for b in range(4))
        gens.append((False, inv, _ID_PERM))
        gens.append((False, _ID_PERM, inv))
    for i, j in ((1, 2), (1, 3), (2, 3)):
        perm = list(_ID_PERM)
        perm[i], perm[j] = perm[j], perm[i]
        gens.append((False, tuple(perm), _ID_PERM))
        gens.append((False, _ID_PERM, tuple(perm)))
    gens.append((True, _ID_PERM, _ID_PERM))
    return gens


_PERMS = tuple(permutations(range(4)))


@functools.cache
def group() -> tuple[Element, ...]:
    """(S4 x S4) x| Z2, order 1152: every column permutation times every
    row permutation, with and without the axis swap, as one shared tuple
    of product((False, True), perms, perms) in permutations order.  The
    tests derive it as the closure of generators()."""
    return tuple(product((False, True), _PERMS, _PERMS))


def act(g: Element, mask: int) -> int:
    """The image of the mask under g, site by site as the module
    docstring states; ValueError unless 0 <= mask <= FULL_MASK."""
    swap_axes, col_perm, row_perm = g
    mask = lattice._in_range(mask)
    out = 0
    while mask:
        low = mask & -mask  # the lowest set bit
        a, b = divmod(low.bit_length() - 1, 4)
        if swap_axes:
            a, b = b, a
        out |= 1 << 4 * col_perm[a] + row_perm[b]
        mask ^= low
    return out


def _group_site_maps() -> np.ndarray:
    """The image site 4a'+b' of every site 4a+b under every element of
    group(): an int64 array of shape (1152, 16), built by broadcasting
    over the 24 permutations."""
    perms = np.array(_PERMS)
    # plain[c, r, a, b] = 4 col_perm[a] + row_perm[b]; the swap reads (b, a).
    plain = 4 * perms[:, None, :, None] + perms[None, :, None, :]
    return np.stack([plain, plain.swapaxes(-1, -2)]).reshape(-1, 16)


@functools.cache
def _group_byte_tables() -> tuple[np.ndarray, np.ndarray]:
    """Images of every mask byte under each element of group(), as uint16
    tables of shape (256, 1152): lo[v, i] is the image of the low byte v
    under element i and hi[v, i] that of the high byte, so element i
    sends mask m to lo[m & 0xFF, i] | hi[m >> 8, i].  Built by
    tables.byte_sums from the one-hot images 1 << _group_site_maps(); the
    bits of one element are distinct, so each sum is an OR."""
    return tables.byte_sums((np.uint16(1) << _group_site_maps().astype(np.uint16)).T)


def _orbit_images(mask: int) -> np.ndarray:
    """The image of the mask under every element of group(), in order;
    ValueError unless 0 <= mask <= FULL_MASK."""
    mask = lattice._in_range(mask)
    lo, hi = _group_byte_tables()
    return lo[mask & 0xFF] | hi[mask >> 8]


def canonical(mask: int) -> int:
    """The lexicographically minimal mask in the orbit of the mask:
    canonical_form(mask).canonical without the stabilizer count."""
    images = _orbit_images(mask)
    return int(images[images.argmin()])  # argmin costs less than min's reduction


def canonical_form(mask: int) -> OrbitRecord:
    """Lexicographically minimal mask in the orbit, with orbit and
    stabilizer sizes (their product is the group order).

    One gather, no sort: the stabilizer is the set of elements that fix
    the mask, and by the orbit-stabilizer theorem each image appears
    exactly stabilizer_order times among the 1152.
    """
    images = _orbit_images(mask)
    stabilizer_order = int(np.count_nonzero(images == mask))
    return OrbitRecord(
        canonical=int(images.min()),
        orbit_size=len(images) // stabilizer_order,
        stabilizer_order=stabilizer_order,
    )


def _first_mapping(images: np.ndarray, target: int) -> int:
    """The index in group() of the first element that sends the source
    of these images to the target; ValueError if none does."""
    first = int(np.argmax(images == target))
    if images[first] != target:
        raise ValueError("masks are not in the same orbit")
    return first


def find_mapping(source: int, target: int) -> Element:
    """The first element g of group() with act(g, source) == target."""
    return group()[_first_mapping(_orbit_images(source), target)]


@functools.cache  # seplp asks once per certified orbit: canonical mask, members
def _carried_images(
    source: int, members: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The source's images under every element of group(), and the
    members' images with one row per element: shape (1152, len(members))."""
    lo, hi = _group_byte_tables()
    m = np.array([lattice._in_range(member) for member in members], dtype=np.intp)
    return _orbit_images(source), (lo[m & 0xFF] | hi[m >> 8]).T.copy()


def carry(source: int, target: int, members: tuple[int, ...]) -> list[int]:
    """[act(find_mapping(source, target), m) for m in members]: the
    members carried by the element that find_mapping picks, read from
    images cached per (source, members); ValueError unless source and
    target share an orbit."""
    images, member_images = _carried_images(source, members)
    return member_images[_first_mapping(images, target)].tolist()


@functools.cache
def canonical_table() -> np.ndarray:
    """The minimal mask of the orbit of every mask 0..0xFFFF (uint16).

    One ascending walk over the masks: the first mask not yet reached
    starts a new orbit, and one _orbit_images gather marks that whole
    orbit with it.  Every smaller mask was reached by the gather of its
    own orbit, which would have reached this mask too had the two shared
    an orbit; so the mask is the minimum of its orbit.  The walk visits
    192 orbits, the empty mask's included.
    """
    canon = np.zeros(lattice.FULL_MASK + 1, dtype=np.uint16)
    # One more flag than masks, never set, stops the walk after the last.
    reached = np.zeros(len(canon) + 1, dtype=bool)
    mask = 0
    while mask < len(canon):
        images = _orbit_images(mask)
        canon[images] = mask
        reached[images] = True
        mask += int(np.argmin(reached[mask:]))
    canon.setflags(write=False)
    return canon


@functools.cache
def orbit_size_table() -> np.ndarray:
    """The size of the orbit of every mask 0..0xFFFF (uint16)."""
    canon = canonical_table()
    sizes = np.bincount(canon, minlength=len(canon)).astype(np.uint16)[canon]
    sizes.setflags(write=False)
    return sizes


def canonical_map_all() -> list[int]:
    """canonical[mask] for every mask in [0, 0xFFFF]."""
    return canonical_table().tolist()
