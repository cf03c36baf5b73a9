"""Pure combinatorics on the 4x4 lattice of Pauli-pair labels.

A subset I of the 16 sites is a 16-bit mask with the bit for site
(alpha, beta) at position 4*alpha + beta.  Columns are indexed by alpha,
rows by beta.  Grid strings list rows top-down from beta=3 to beta=0,
matching the orientation used throughout the accompanying figures.

The cross through site p = 4*alpha + beta is column alpha and row beta
without p itself.  ``_CROSS[p]`` is its bitmask, the only definition of
the cross: every cross count is ``(mask & _CROSS[p]).bit_count()``, the
whole-space incidence ``tables.CROSS`` takes its bits, and the k=1
witness scan reads its one contributor from it.
"""

from __future__ import annotations

import operator
import re

__all__ = [
    "FULL_MASK",
    "UsageError",
    "EmptySubsetError",
    "SubsetParseError",
    "ConsistencyError",
    "site_index",
    "site_bit",
    "sites",
    "cardinality",
    "state_cardinality",
    "cross_count",
    "k_matrix",
    "kappa",
    "is_ppt",
    "prop1b_entangled",
    "parse_subset",
    "render_subset",
]

FULL_MASK = 0xFFFF


class UsageError(ValueError):
    """A request that a command line can make, outside an operation's
    domain: a malformed or empty subset, an NPT subset where a PPT one
    is needed, an empty census range.  The CLI exits 2 on it."""


class EmptySubsetError(UsageError):
    """Raised where an operation needs a nonempty subset (no state is
    defined for the empty one)."""


class SubsetParseError(UsageError):
    """Malformed textual subset description."""


class ConsistencyError(AssertionError):
    """Two independent routes to the same fact disagree, for example a
    subset both witnessed entangled and certified separable."""


_HEX_MASK = re.compile(r"0[xX][0-9a-fA-F]{1,4}")
# One pair: two single ASCII digits 0-3, whitespace allowed around each.
_PAIR = re.compile(r"\s*([0-3])\s*,\s*([0-3])\s*")
# _CROSS[p]: the sites of column p >> 2 XOR those of row p & 3, the two
# sharing only p itself, so the cross through p with p excluded.
_CROSS = tuple(0xF << (p & 12) ^ 0x1111 << (p & 3) for p in range(16))


def site_index(alpha: int, beta: int) -> int:
    """The bit position 4*alpha + beta of site (alpha, beta); TypeError
    unless both coordinates are integers, ValueError unless both are in
    0..3."""
    alpha, beta = operator.index(alpha), operator.index(beta)
    if not (0 <= alpha <= 3 and 0 <= beta <= 3):
        raise ValueError(f"site {(alpha, beta)!r} is outside 0..3 x 0..3")
    return 4 * alpha + beta


def site_bit(alpha: int, beta: int) -> int:
    return 1 << site_index(alpha, beta)


def sites(mask: int) -> list[tuple[int, int]]:
    """Sites of the subset, ordered by bit position."""
    mask = _in_range(mask)
    return [(a, b) for a in range(4) for b in range(4) if mask >> (4 * a + b) & 1]


def _in_range(mask: int) -> int:
    """The mask as a plain int; TypeError unless it is an integer and
    not a bool (``operator.index`` accepts numpy integers and refuses
    floats and numpy bools), ValueError unless 0 <= mask <= FULL_MASK."""
    if isinstance(mask, bool):
        raise TypeError("a bool is not a mask")
    mask = operator.index(mask)
    if not 0 <= mask <= FULL_MASK:
        raise ValueError(f"mask {mask!r} is outside 0..0x{FULL_MASK:04X}")
    return mask


def cardinality(mask: int) -> int:
    """N = |I|; ValueError unless 0 <= mask <= FULL_MASK."""
    return _in_range(mask).bit_count()


def state_cardinality(mask: int) -> int:
    """N = |I| of a subset that defines a state: ValueError unless
    0 <= mask <= FULL_MASK, EmptySubsetError for the empty subset."""
    n = cardinality(mask)
    if n == 0:
        raise EmptySubsetError("no lattice state for the empty subset")
    return n


def cross_count(mask: int, alpha: int, beta: int) -> int:
    """Points of I on the column/row cross through (alpha, beta),
    excluding (alpha, beta) itself."""
    return (_in_range(mask) & _CROSS[site_index(alpha, beta)]).bit_count()


def _cross_counts(mask: int) -> tuple[int, ...]:
    """cross_count(mask, a, b) for all 16 sites, in bit-position order 4a+b."""
    mask = _in_range(mask)
    return tuple([(mask & cross).bit_count() for cross in _CROSS])


def k_matrix(mask: int) -> list[list[int]]:
    """The 4x4 integer table k[mu][nu] driving the partial-transpose
    spectrum: the cross count through the shifted site (mu+2, nu+2)."""
    cross = _cross_counts(mask)
    return [[cross[4 * (mu ^ 2) + (nu ^ 2)] for nu in range(4)] for mu in range(4)]


def kappa(mask: int) -> int:
    """Minimum entry of the k-matrix (a permutation of the cross counts)."""
    return min(_cross_counts(mask))


def is_ppt(mask: int) -> bool:
    """PPT iff every cross count is at most N/2 (exact integer test)."""
    return 2 * max(_cross_counts(mask)) <= state_cardinality(mask)


def prop1b_entangled(mask: int) -> tuple[int, int] | None:
    """A site (alpha, beta) outside I whose cross meets I in exactly one
    point, if any; such a site certifies entanglement of a PPT state."""
    cross = _cross_counts(mask)
    if 2 * max(cross) > state_cardinality(mask):  # is_ppt, on these counts
        raise UsageError("subset is NPT; prop1b test needs a PPT subset")
    return _prop1b_site(mask, cross)


def _prop1b_site(mask: int, cross: tuple[int, ...]) -> tuple[int, int] | None:
    # The test of a PPT mask whose cross counts are known.
    for pos, c in enumerate(cross):
        if c == 1 and not mask >> pos & 1:
            return divmod(pos, 4)
    return None


def parse_subset(text: str) -> int:
    """Parse a subset from grid form "r3/r2/r1/r0" (rows beta=3 first,
    'X' marks a site), pair-list form "a,b;a,b;..." (each coordinate one
    ASCII digit 0-3), or hex "0xNNNN"; TypeError unless it is a str."""
    if not isinstance(text, str):
        raise TypeError(f"subset description must be str, not {type(text).__name__}")
    text = text.strip()
    if not text:
        raise SubsetParseError("empty subset description")
    if text.lower().startswith("0x"):
        if not _HEX_MASK.fullmatch(text):
            raise SubsetParseError(
                f"bad hex mask {text!r}: need 1 to 4 hex digits after 0x"
            )
        return int(text, 16)
    if "/" in text:
        rows = text.split("/")
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise SubsetParseError("grid form needs 4 rows of 4 characters")
        mask = 0
        for j, r in enumerate(rows):
            beta = 3 - j
            for alpha, ch in enumerate(r):
                if ch == "X":  # the shape check bounds alpha and beta to 0..3
                    mask |= 1 << 4 * alpha + beta
                elif ch != ".":
                    raise SubsetParseError(
                        f"bad character {ch!r} at row {beta}, column {alpha}"
                    )
        return mask
    mask = 0
    for chunk in text.split(";"):
        pair = _PAIR.fullmatch(chunk)
        if pair is None:
            raise SubsetParseError(f"bad pair {chunk!r}: need two digits 0-3")
        bit = 1 << 4 * int(pair[1]) + int(pair[2])  # _PAIR takes digits 0-3 only
        if mask & bit:
            raise SubsetParseError(f"duplicate pair {chunk!r}")
        mask |= bit
    return mask


def render_subset(mask: int, form: str = "grid") -> str:
    """Render a subset as "grid", "pairs", "hex" or a labeled "table";
    ValueError unless 0 <= mask <= FULL_MASK."""
    mask = _in_range(mask)
    if form == "hex":
        return f"0x{mask:04X}"
    if form == "pairs":
        return ";".join(f"{a},{b}" for a, b in sites(mask))
    rows = [
        "".join("X" if mask >> (4 * a + beta) & 1 else "." for a in range(4))
        for beta in range(3, -1, -1)
    ]
    if form == "grid":
        return "/".join(rows)
    if form == "table":
        lines = [f"{beta} | {' '.join(rows[3 - beta])}" for beta in range(3, -1, -1)]
        lines.append("  +--------")
        lines.append("    0 1 2 3")
        return "\n".join(lines)
    raise ValueError(f"unknown form {form!r}")
