"""Monotone Boolean function lattices, adequacy checks, and witnesses.

Monotone functions of n variables are stored as 2^n-bit masks, bit r being
the value on the rank-r point of the cube.  Fixing the first variable to 0
or 1 is taking the low or high half of the mask, so adequacy questions
reduce to bit arithmetic.

An embedding 2^i -> F_j^- is "adequate onto F_{j-1}^-" when it is injective
and order-preserving and the first-variable substitutions of its image hit
every nonzero monotone (j-1)-ary function.  Certificates of this are the
persistence format for expensive searches.  Through `lattice_kind`, the search
and the certifier serve the game lattices of `csg` as well.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress, product
from operator import and_, itemgetter, or_
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    CapacityError,
    EMBEDDING_NAMES,
    InputError,
    MonotoneFunction,
    SEARCH_BUDGET,
    Value,
    _FROM_DIGITS,
    var_mask,
)

MAX_MONOTONE_ARITY = 6
# F_6^- has 7,828,353 elements: its order matrix alone would take about 7.7 TB.
MAX_MONOTONE_POSET_ARITY = 5
# The order rows of a 14-cube would take 32 MB; sources of 2^13 or more elements
# exceed every target (|F_5^-| = 7,579), so no search or certificate needs one.
MAX_CUBE_ARITY = 13

# the lanes of a Q record, as indices into its H and I views: bits 16-31 and 32-63
_LANE16 = array("H", array("Q", [1 << 16]).tobytes()).index(1)
_LANE32 = array("I", array("Q", [1 << 32]).tobytes()).index(1)


def _pairs(prev: Sequence[int], shift: int,
           key: Callable[[int], int] | None = None) -> Iterator[int]:
    """The masks (h << shift) | g for h in prev, then g in prev, kept iff key(g), or g
    itself without a key, lies inside h.  They come out ascending when prev is.  The
    g of one h are `_below` h over the bit columns of the keys, which may repeat."""
    cols, every, _ = _transpose(prev if key is None else [*map(key, prev)])
    fits = (bin(_below(cols, every, h))[:1:-1].encode().translate(_FROM_DIGITS) for h in prev)
    return chain.from_iterable(map((h << shift).__or__, compress(prev, flags))
                               for h, flags in zip(prev, fits))


def _transpose(masks: Sequence[int]) -> tuple[list[int], int, bytes]:
    """Bit columns (bit a of column r is set iff masks[a], which may repeat, has bit r),
    every index as a bitset, and flags (byte a * w + r is 1 iff masks[a] has bit r)."""
    # the masks as w binary digits each, the last first: digit w - 1 - r of a block
    # is bit r, so the digits at that offset, read as one number, are column r
    w = max(masks, default=0).bit_length()
    text = "".join([format(mask, f"0{w}b") for mask in reversed(masks)]) if w else ""
    cols = [int(text[w - 1 - r::w], 2) for r in range(w)]
    return cols, (1 << len(masks)) - 1, text[::-1].encode().translate(_FROM_DIGITS)


def _below(cols: list[int], every: int, mask: int) -> int:
    """The indices in every that are in no bit column of a bit that mask lacks."""
    return every & ~reduce(or_, [col for r, col in enumerate(cols) if not mask >> r & 1], 0)


def _f6() -> array:
    """F_6 by one segment join over F_4.

    f = (g0, g1, h0, h1) in 16-bit lanes, the last highest, is monotone iff
    g1 <= h1, h0 <= h1 and g0 <= g1 & h0.  For each h = (h0, h1) in turn, the
    records below it are, for each g1 <= h1, the segment of g0 <= g1 & h0 with
    g1 in its lane.  A segment depends on (g1, g1 & h0) alone: the segments of
    one g1 are one run over the down sets of all m <= g1, cut at their ends.
    rows[h0][t] holds the segment of the t-th g1, and each down set is one join
    of the row entries at the positions of the g1 <= h1, picked by one
    itemgetter per h1.  Each row ends in b"", which every getter also picks,
    so a getter always returns a tuple, for h1 = 0 too.
    """
    f4 = Poset(enumerate_monotone(4))
    masks, downs = f4.masks, [_bits(f4.below(m)) for m in f4.masks]
    lists = [array("Q", map(masks.__getitem__, below)).tobytes() for below in downs]
    segments = {}
    for g1, below in zip(masks, downs):
        run = array("H", b"".join(map(lists.__getitem__, below)))
        run[_LANE16::4] = array("H", [g1]) * (len(run) // 4)
        data = run.tobytes()
        ends = [0, *accumulate(len(lists[m]) for m in below)]
        segments[g1] = {masks[m]: data[a:b] for m, a, b in zip(below, ends, ends[1:])}
    rows = {h0: [segments[g1][g1 & h0] for g1 in masks] + [b""] for h0 in masks}
    del segments  # the rows hold every segment
    out = array("Q")
    for h1, below in zip(masks, downs):
        pick = itemgetter(*below, len(masks))
        for h0 in map(masks.__getitem__, below):
            run = array("I", b"".join(pick(rows[h0])))
            run[_LANE32::2] = array("I", [(h1 << 16) | h0]) * (len(run) // 2)
            out.frombytes(memoryview(run).cast("B"))
    return out


@lru_cache(maxsize=None)
def enumerate_monotone(n: int) -> array:
    """All monotone functions of n variables as ascending masks, 0 and 1 included.

    A function f is the pair g = f|x0=0 <= h = f|x0=1 of (n-1)-ary monotone
    functions, so F_n lists, for each h in F_{n-1} ascending, the g <= h
    ascending: `_pairs` from F_0 up, and `_f6` for F_6.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if n > MAX_MONOTONE_ARITY:
        raise CapacityError(f"enumeration beyond n={MAX_MONOTONE_ARITY} is not desk-feasible")
    if n == 6:
        return _f6()
    masks = array("Q", [0, 1])
    for k in range(n):
        masks = array("Q", _pairs(masks, 1 << k))
    return masks


def count_monotone(n: int) -> int:
    """|F_n|, the Dedekind number M(n), without listing F_n.

    f = (g, h) with g <= h, and g = (g0, g1), h = (h0, h1) one arity further
    down, so f is a 4-tuple of (n-2)-ary functions with g0 <= g1 <= h1 and
    g0 <= h0 <= h1: for each a = g0 <= b = h1 the middle pair ranges over
    [a, b]^2.  The interval is the up-set row of a AND the down-set row of
    b, so M(n) = sum over a <= b in F_{n-2} of |[a, b]|^2.
    """
    if n < 2 or n > MAX_MONOTONE_ARITY:  # enumerate_monotone's guards raise first
        return len(enumerate_monotone(n))
    poset = Poset(enumerate_monotone(n - 2))
    downs = list(map(poset.below, poset.masks))
    return sum((row & downs[b]).bit_count() ** 2 for row in poset.rows for b in _bits(row))


@lru_cache(maxsize=None)
def monotone_nonzero(n: int) -> tuple:
    """Nonzero monotone masks of n variables, ascending."""
    masks = enumerate_monotone(n)
    assert masks[0] == 0
    return tuple(masks[1:])


def sub_masks(j: int, mask: int) -> tuple[int, int]:
    """First-variable substitutions of a j-ary mask as (j-1)-ary masks."""
    half = 1 << (j - 1)
    return mask & ((1 << half) - 1), mask >> half


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    return [r for r, digit in enumerate(reversed(bin(x))) if digit == "1"]


class Poset:
    """Distinct integer masks ordered by inclusion, as bit columns and up-set rows.

    Bit a of column r is set iff masks[a] has bit r.  Bit b of rows[a] is set iff
    masks[a] is contained in masks[b], so the row of an element is `above` of its
    mask, and its down set is `below` of it.  Labels name the elements and default
    to the masks.
    """

    def __init__(self, masks: Iterable[int], labels: Iterable | None = None):
        masks = self.masks = tuple(masks)
        self.labels = masks if labels is None else tuple(labels)
        if len(self.labels) != len(masks):
            raise InputError(f"{len(masks)} poset masks but {len(self.labels)} labels")
        if len(set(masks)) != len(masks) or len(set(self.labels)) != len(masks):
            raise InputError("duplicate poset elements")
        if min(masks, default=0) < 0:
            raise InputError("poset masks must be >= 0")
        self._cols, self._every, flags = _transpose(masks)
        w = len(self._cols)
        self.rows = [reduce(and_, compress(self._cols, flags[a * w:a * w + w]), self._every)
                     for a in range(len(masks))]
        self._index = {label: i for i, label in enumerate(self.labels)}

    def above(self, mask: int) -> int:
        """The elements whose masks contain mask, as a bitset of indices: the AND
        of the bit columns of mask (every element for the empty mask)."""
        if mask >> len(self._cols):  # a bit that no element has
            return 0
        return reduce(and_, [self._cols[r] for r in _bits(mask)], self._every)

    def below(self, mask: int) -> int:
        """The elements whose masks lie inside mask, as a bitset of indices: every
        element but those in the bit columns of the bits that mask lacks."""
        return _below(self._cols, self._every, mask)

    def __len__(self):
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[label]

    def leq(self, a: int, b: int) -> bool:
        return bool((self.rows[a] >> b) & 1)

    def covers(self) -> list[tuple[int, int]]:
        """Hasse edges (a, b) with a < b and nothing strictly between."""
        downs = list(map(self.below, self.masks))
        out = []
        for a, row in enumerate(self.rows):
            ups = row & ~(1 << a)  # ups & downs[b] holds the x with a < x <= b
            out.extend((a, b) for b in _bits(ups) if ups & downs[b] == 1 << b)
        return out


@lru_cache(maxsize=None)
def boolean_cube(i: int) -> Poset:
    """{0,1}^i under the pointwise product order, elements labeled by rank."""
    if i < 0:
        raise InputError(f"i must be >= 0, got {i}")
    if i > MAX_CUBE_ARITY:
        raise CapacityError(f"cubes beyond i={MAX_CUBE_ARITY} are too large")
    return Poset(range(1 << i))


@lru_cache(maxsize=None)
def monotone_nonzero_poset(j: int) -> Poset:
    if j > MAX_MONOTONE_POSET_ARITY:
        raise CapacityError(f"monotone lattices beyond j={MAX_MONOTONE_POSET_ARITY} are too large")
    return Poset(monotone_nonzero(j))


class AdequacyError(InputError):
    """The map fails one of the embedding requirements."""


class LatticeMap(Value):
    """Total map between two explicit posets, by target index per source index."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source: Poset, target: Poset, image: tuple):
        if len(image) != len(source):
            raise InputError("image must be total on the source")
        if any(not 0 <= t < len(target) for t in image):
            raise InputError("image index out of range")
        self._set(source, target, image)

    @classmethod
    def from_labels(cls, source: Poset, target: Poset, masks: Iterable) -> "LatticeMap":
        """The map sending source index s to the target element labeled masks[s]."""
        try:
            image = tuple(target.index(mask) for mask in masks)
        except KeyError:
            raise AdequacyError("image contains a non-lattice element") from None
        return cls(source, target, image)

    def image_labels(self) -> tuple:
        return tuple(self.target.labels[t] for t in self.image)


def is_isotone(m: LatticeMap) -> bool:
    """True iff the map preserves order."""
    return all(m.target.leq(m.image[a], m.image[b])
               for a, row in enumerate(m.source.rows) for b in _bits(row))


def is_injective(m: LatticeMap) -> bool:
    return len(set(m.image)) == len(m.image)


def is_adequate(funcs: Iterable[MonotoneFunction], strong: bool = False) -> bool:
    """Do the first-variable substitutions of S cover all of F_{j-1}^-?

    With strong=True a single substitution value must suffice on its own.
    """
    funcs = list(funcs)
    if not funcs:
        return False
    j = funcs[0].n
    if any(f.n != j for f in funcs):
        raise InputError("mixed arities")
    if j == 0:
        raise InputError("adequacy needs arity >= 1")
    from .bounds import DEDEKIND

    if j - 1 < len(DEDEKIND) and 2 * len(funcs) < DEDEKIND[j - 1] - 1:
        return False  # fewer substitutions than members of F_{j-1}^-
    needed = set(monotone_nonzero(j - 1))
    lows = {sub_masks(j, f.mask)[0] for f in funcs}
    highs = {sub_masks(j, f.mask)[1] for f in funcs}
    if strong:
        return needed <= lows or needed <= highs
    return needed <= (lows | highs)


class AdequacyCertificate(Value):
    """Verified embedding data: the map and the cover of its substitutions."""

    __slots__ = ("kind", "i", "j", "map", "covered", "uses_zero")

    def __init__(self, kind: str, i: int, j: int, map: LatticeMap, covered: frozenset,
                 uses_zero: bool):
        # kind is "monotone" or "csg"; covered holds the nonzero (j-1)-ary masks
        # that the (eps=0, eps=1) substitutions of the image elements hit;
        # uses_zero, whether one of them is the zero function
        self._set(kind, i, j, map, covered, uses_zero)


class LatticeKind(Value):
    """One lattice family: the functions that `lattice_kind` found on its modules."""

    __slots__ = ("order", "source", "nonzero", "target", "check", "search", "max_j",
                 "source_name", "target_name")

    def __init__(self,
                 order: str,  # the source order's name in certificates
                 source: Callable[[int], Poset],  # i -> the source cube, labeled by rank
                 nonzero: Callable[[int], tuple],  # j -> the nonzero j-ary masks, ascending
                 target: Callable[[int], Poset],  # j -> those masks under inclusion
                 check: Callable[[int, int, LatticeMap], AdequacyCertificate],  # the certifier
                 search: Callable[..., SearchOutcome],  # (i, j, budget) -> the search
                 max_j: int,  # largest j whose target poset is built
                 source_name: str,  # formatted with i in error messages
                 target_name: str):  # formatted with j in error messages
        self._set(order, source, nonzero, target, check, search, max_j, source_name,
                  target_name)


def lattice_kind(kind: str) -> LatticeKind:
    """The family's functions as their modules bind them now, so that a function
    replaced on its module (by a tracer or a test) is the one called."""
    if kind == "monotone":
        return LatticeKind("product", boolean_cube, monotone_nonzero, monotone_nonzero_poset,
                           check_relation, search_relation, MAX_MONOTONE_POSET_ARITY,
                           "the {}-cube", "the nonzero monotone {}-lattice")
    if kind == "csg":
        from . import csg

        return LatticeKind("majorization", csg.majorization_poset, csg.csg_nonzero,
                           csg.csg_nonzero_poset, csg.check_csg_relation,
                           csg.search_csg_relation, csg.MAX_CSG_POSET_ARITY,
                           "the majorization cube E_{}", "the nonzero game lattice C_{}^-")
    raise InputError(f"unknown lattice kind {kind!r}; choose from ('monotone', 'csg')")


def certify(kind: str, i: int, j: int, m: LatticeMap) -> AdequacyCertificate:
    """Certify an injective isotone map from the kind's i-cube into its nonzero
    j-ary lattice whose substitutions cover the nonzero (j-1)-ary lattice.
    Substitutions of members are members, so they need no check of their own.
    """
    family = lattice_kind(kind)
    size = len(m.source)  # a map of the wrong size fails before a cube is built
    if i >= 0 and (i >= size.bit_length() or size != 1 << i):
        raise InputError(f"source poset is not {family.source_name.format(i)}")
    source, target = family.source(i), family.target(j)
    if (m.source.labels, m.source.rows) != (source.labels, source.rows):
        raise InputError(f"source poset is not {family.source_name.format(i)}")
    if (m.target.labels, m.target.rows) != (target.labels, target.rows):
        raise InputError(f"target poset is not {family.target_name.format(j)}")
    needed = set(family.nonzero(j - 1))
    if not is_injective(m):
        raise AdequacyError("map is not injective")
    if not is_isotone(m):
        raise AdequacyError("map is not isotone")
    subs = tuple(sub_masks(j, mask) for mask in m.image_labels())
    covered = {v for pair in subs for v in pair if v in needed}
    if not needed <= covered:
        missing = len(needed) - len(covered)
        raise AdequacyError(f"substitutions miss {missing} required functions")
    uses_zero = any(v == 0 for pair in subs for v in pair)
    return AdequacyCertificate(kind=kind, i=i, j=j, map=m, covered=frozenset(covered),
                               uses_zero=uses_zero)


def check_relation(i: int, j: int, m: LatticeMap) -> AdequacyCertificate:
    """Certify an injective isotone embedding 2^i -> F_j^- adequate onto F_{j-1}^-."""
    return certify("monotone", i, j, m)


# ---------------------------------------------------------------------------
# Built-in embedding catalog
# ---------------------------------------------------------------------------

def _f3(p_pos: int, q_pos: int, r_pos: int) -> dict:
    """The nineteen nonzero monotone 3-var masks by name, for given positions."""
    p, q, r = var_mask(3, p_pos), var_mask(3, q_pos), var_mask(3, r_pos)
    maj = (p & q) | (p & r) | (q & r)
    return {
        "bot": p & q & r,
        "m_pq": p & q, "m_pr": p & r, "m_qr": q & r,
        "j_p": p & (q | r), "j_q": q & (p | r), "j_r": r & (p | q),
        "p": p, "q": q, "r": r, "maj": maj,
        "u_p": p | (q & r), "u_q": q | (p & r), "u_r": r | (p & q),
        "v_pq": p | q, "v_pr": p | r, "v_qr": q | r,
        "top": p | q | r, "one": 0xFF,
    }


def _embedding_tables() -> dict[str, tuple[int, int, tuple]]:
    """name -> (i, j, image masks in source rank order)."""
    # j = 3 images substitute their first variable, written r below
    f = _f3(1, 2, 0)
    post_alh = (2, 3, (f["m_pq"], f["p"], f["q"], f["top"]))
    fig39_names = (
        "bot", "j_q", "m_qr", "u_q", "m_pr", "u_p", "j_r", "v_pq",
        "m_pq", "u_r", "maj", "v_qr", "j_p", "v_pr", "top", "one",
    )
    fig39 = (4, 3, tuple(f[name] for name in fig39_names))
    both_restricted = (3, 3, tuple(f[name] for name in fig39_names[1::2]))

    # j = 4 images pair two 3-var functions a <= b; the substitutions are
    # exactly a (first variable 0) and b (first variable 1)
    g = _f3(0, 1, 2)

    def pair(a: str, b: str) -> int:
        assert g[a] & ~g[b] == 0, (a, b)
        return g[a] | (g[b] << 8)

    psi_b = ("bot", "m_qr", "m_pr", "j_r", "m_pq", "j_q", "j_p", "maj")
    alh_b0 = ("bot", "q", "r", "v_qr", "p", "v_pq", "v_pr", "top")
    alh_b1 = ("maj", "u_q", "u_r", "top", "u_p", "top", "top", "one")
    alh = (4, 4, tuple(
        pair(psi_b[ry], (alh_b0, alh_b1)[e][ry])
        for ry in range(8) for e in range(2)
    ))

    small_a = ("bot", "m_pq", "m_pr", "j_p")
    small_cubes = (
        psi_b,
        ("m_pq", "q", "u_r", "v_qr", "p", "v_pq", "v_pr", "top"),
        ("m_pr", "u_q", "r", "v_qr", "p", "v_pq", "v_pr", "top"),
        ("maj", "u_q", "u_r", "v_qr", "u_p", "v_pq", "v_pr", "one"),
    )
    small = (5, 4, tuple(
        pair(small_a[re], small_cubes[re][ry])
        for re in range(4) for ry in range(8)
    ))

    cube_bot = ("bot", "r", "q", "v_qr", "p", "v_pr", "v_pq", "top")
    psi_t = ("maj", "u_r", "u_q", "v_qr", "u_p", "v_pr", "v_pq", "top")
    cube_top1 = ("maj", "u_r", "u_q", "v_qr", "u_p", "v_pr", "v_pq", "one")
    friday = (6, 4, tuple(
        pair(psi_b[ra], (cube_bot if ra == 0 else cube_top1 if ra == 7 else psi_t)[rb])
        for ra in range(8) for rb in range(8)
    ))

    return {
        "post_alh": post_alh,
        "fig39": fig39,
        "both_restricted": both_restricted,
        "alh": alh,
        "small": small,
        "friday": friday,
    }


def _catalog_entry(name: str) -> tuple[int, int, tuple]:
    tables = _embedding_tables()
    if name not in tables:
        raise InputError(f"unknown embedding {name!r}; choose from {EMBEDDING_NAMES}")
    return tables[name]


def named_embedding(name: str) -> LatticeMap:
    """One of the built-in certified embeddings, as explicit map data."""
    i, j, masks = _catalog_entry(name)
    return LatticeMap.from_labels(boolean_cube(i), monotone_nonzero_poset(j), masks)


def embedding_shape(name: str) -> tuple[int, int]:
    return _catalog_entry(name)[:2]


def lemma_les_check() -> bool:
    """Pairing two 3-var functions under a selector variable is order-faithful.

    For f_ab = (s and b) or (not s and a): f_a1b1 <= f_a2b2 iff a1 <= a2 and
    b1 <= b2.  Element 20a + b of the packed poset is f_ab, so its up row must
    be the product of the up rows of a and b in F_3: all 160,000 quadruples.
    """
    f3 = Poset(enumerate_monotone(3))
    packed = Poset(a | b << 8 for a in f3.masks for b in f3.masks)
    width = len(f3)
    return all(row == sum(f3.rows[b] << width * a2 for a2 in _bits(f3.rows[a]))
               for (a, b), row in zip(product(range(width), repeat=2), packed.rows))


# ---------------------------------------------------------------------------
# Backtracking search for embeddings
# ---------------------------------------------------------------------------

class SearchOutcome(Value):
    __slots__ = ("status", "map", "nodes", "prunes", "deepest")

    def __init__(self, status: str, map: LatticeMap | None, nodes: int, prunes: tuple,
                 deepest: int | None):
        # status is "found", "exhausted", or "none"; prunes is (("cover", k), ("room", k)),
        # the subtrees each rule cut; deepest, the largest source index given a target
        self._set(status, map, nodes, prunes, deepest)


def search_embedding(kind: str, i: int, j: int, budget: int = SEARCH_BUDGET,
                     shadow: "Callable[[int], int] | None" = None) -> SearchOutcome:
    """Look for an injective isotone map from the kind's i-cube into its
    nonzero j-ary lattice whose substitutions cover the nonzero (j-1)-ary one.

    Pigeonhole (2^i > |target| iff i >= its bit length) and the cover count
    (two substitutions per source) answer "none" after 0 nodes, before the
    target poset is built.  Otherwise sources are assigned in ascending rank
    order (a linear extension of both cube orders).  A source's candidates,
    a bitset of target indices, are the unused targets in the up-set rows of
    its lower covers' images.  Those whose low or high substitution is a
    still-uncovered (j-1)-ary function are tried first, then the rest, each
    group lowest index (so lowest label) first.  Every candidate tried is a
    node.  A candidate with fewer free targets at or above it than sources
    at or above the source is skipped (the room rule).  So is one after
    which the sources still to come can no longer complete the cover (the
    cover count): the parent takes that test once the candidate is assigned,
    and makes no call for the child.  With `shadow`, an image must also
    contain shadow(image) of every source one bit below it.  The first map
    found in this order is returned.  notes/decisions.md, "Room pruning and
    a useful-first order" and "The cover count is taken at the parent",
    gives why both rules lose no map.
    """
    if i < 0:
        raise InputError(f"i must be >= 0, got {i}")
    if j < 1:
        raise InputError(f"j must be >= 1, got {j}")
    if budget < 0:
        raise InputError("budget must be >= 0")
    family = lattice_kind(kind)
    if j > family.max_j:
        raise CapacityError(f"{family.target_name.format(j)} is too large to search")
    needed = {v: k for k, v in enumerate(family.nonzero(j - 1))}
    if i >= len(family.nonzero(j)).bit_length() or len(needed) > 2 << i:
        return SearchOutcome("none", None, 0, (("cover", 0), ("room", 0)), None)
    source, target, size = family.source(i), family.target(j), 1 << i
    labels, rows = target.labels, target.rows
    contrib = [tuple({needed[v] for v in sub_masks(j, t) if v in needed}) for t in labels]
    low_hits, high_hits = [0] * len(needed), [0] * len(needed)  # targets by needed value
    for t, label in enumerate(labels):
        for hits, v in zip((low_hits, high_hits), sub_masks(j, label)):
            if v in needed:
                hits[needed[v]] |= 1 << t
    # the targets whose two substitutions are distinct needed values
    two = sum(1 << t for t, vs in enumerate(contrib) if len(vs) == 2)
    above = [row.bit_count() for row in source.rows]  # s and the sources above it
    lower_covers: list[list[int]] = [[] for _ in range(size)]
    for a, b in source.covers():
        lower_covers[b].append(a)
    bit_preds = [[s & ~(1 << b) for b in _bits(s)] for s in range(size)]
    assignment = [0] * size
    nodes, cover_prunes, room_prunes, deepest = 0, 0, 0, -1

    @lru_cache(maxsize=None)
    def above_shadow(t: int) -> int:  # the targets containing shadow(labels[t])
        return target.above(shadow(labels[t]))

    def extend(s: int, free: int, uncovered: int, lo_open: int, hi_open: int) -> bool:
        # free: the unused targets; uncovered: the needed values not yet covered, by
        # index; lo_open (hi_open): the targets whose low (high) substitution is one
        nonlocal nodes, cover_prunes, room_prunes, deepest
        if s == size:
            return not uncovered
        candidates = free
        for c in lower_covers[s]:
            candidates &= rows[assignment[c]]
        if shadow is not None:
            for p in bit_preds[s]:
                candidates &= above_shadow(assignment[p])
        useful, room = candidates & (lo_open | hi_open), above[s]
        # the cover count: t must newly cover need values, at most 2 since s passed
        # it at its parent; keep holds the targets that do
        need = uncovered.bit_count() - 2 * (size - s - 1) if s + 1 < size else 0
        keep = -1 if need <= 0 else useful if need == 1 else lo_open & hi_open & two
        for group in (useful, candidates ^ useful):
            while group:
                bit = group & -group
                group ^= bit
                nodes += 1
                if nodes > budget:
                    return False
                t = bit.bit_length() - 1
                if (rows[t] & free).bit_count() < room:
                    room_prunes += 1
                    continue
                assignment[s] = t
                if s > deepest:
                    deepest = s
                if not bit & keep:
                    cover_prunes += 1
                    continue
                left, lo, hi = uncovered, lo_open, hi_open
                for v in contrib[t]:
                    if left >> v & 1:
                        left ^= 1 << v
                        lo ^= low_hits[v]
                        hi ^= high_hits[v]
                if extend(s + 1, free ^ bit, left, lo, hi):
                    return True
                if nodes > budget:
                    return False
        return False

    found = extend(0, (1 << len(labels)) - 1, (1 << len(needed)) - 1,
                   reduce(or_, low_hits, 0), reduce(or_, high_hits, 0))
    prunes = (("cover", cover_prunes), ("room", room_prunes))
    reached = deepest if deepest >= 0 else None
    if found:
        image = LatticeMap(source, target, tuple(assignment))
        return SearchOutcome("found", image, nodes, prunes, reached)
    return SearchOutcome("exhausted" if nodes > budget else "none", None, nodes, prunes, reached)


def search_relation(i: int, j: int, budget: int = SEARCH_BUDGET) -> SearchOutcome:
    """Look for an embedding 2^i -> F_j^- adequate onto F_{j-1}^-."""
    return search_embedding("monotone", i, j, budget)


# ---------------------------------------------------------------------------
# Witness languages attaining the monotone bound
# ---------------------------------------------------------------------------

def _small_maps() -> dict[tuple[int, int], tuple]:
    """Built-in chain maps for small n, by shape (i, j): image masks by source rank."""
    p1, p2, q2 = var_mask(1, 0), var_mask(2, 0), var_mask(2, 1)
    return {(0, 0): (1,), (0, 1): (p1,), (1, 1): (p1, 0b11), (1, 2): (p2 & q2, 0b1111),
            (2, 2): (p2 & q2, q2, p2, p2 | q2)}


WITNESS_MAX_N = 10


def witness_chain(n: int) -> tuple[int, int, tuple]:
    """(crossover depth i, residual arity j, image masks) used for arity n: the
    built-in map of shape (i, j), i the depth `bounds._chain_depth` gives."""
    from .bounds import _MONOTONE, _chain_depth

    if not 0 <= n <= WITNESS_MAX_N:
        raise InputError(f"witness construction supports 0 <= n <= {WITNESS_MAX_N}")
    i, maps = _chain_depth(n, _MONOTONE), _small_maps()
    if (i, n - i) not in maps:  # the catalog's tables take about 0.1 ms to build
        maps = {(a, b): masks for a, b, masks in _embedding_tables().values()}
    return i, n - i, maps[i, n - i]


def assemble_from_chain(n: int, i: int, j: int, masks: Sequence[int]) -> int:
    """Language whose depth-i residual under prefix sigma is masks[rank(sigma)]."""
    if i + j != n or len(masks) != 1 << i:
        raise InputError("chain shape mismatch")
    out = 0
    span = 1 << j
    for sigma, mask in enumerate(masks):
        out |= mask << (sigma * span)
    return out


def build_witness_language(n: int) -> MonotoneFunction:
    """A monotone language of arity n with maximal state complexity.

    Below the chain's crossover every prefix keeps a distinct residual by
    injectivity; at the crossover the embedded image substitutes onto all
    nonzero monotone functions one arity down, and deeper levels stay full.
    """
    i, j, masks = witness_chain(n)
    return MonotoneFunction(n, assemble_from_chain(n, i, j, masks))


# ---------------------------------------------------------------------------
# Certificate text format
# ---------------------------------------------------------------------------

def _mask_to_bits(mask: int, cells: int) -> str:
    return format(mask, f"0{cells}b")[::-1]  # character r is bit r


def format_certificate(cert: AdequacyCertificate) -> str:
    """Stable re-loadable text rendering of a certified embedding."""
    lines = [
        "maxcomplex-certificate v1",
        f"kind: {cert.kind}",
        f"order: {lattice_kind(cert.kind).order}",
        f"i: {cert.i}",
        f"j: {cert.j}",
        "map:",
    ]
    cells = 1 << cert.j
    for rank_s, mask in enumerate(cert.map.image_labels()):
        bits = format(rank_s, f"0{cert.i}b") if cert.i else "-"
        lines.append(f"{bits} -> {_mask_to_bits(mask, cells)}")
    lines.append("cover:")
    for mask in sorted(cert.covered):
        lines.append(_mask_to_bits(mask, 1 << (cert.j - 1)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> dict:
    """Parse the certificate text format; returns kind, i, j and image masks.

    The map must list each of the 2^i sources once, as i bits ("-" when
    i = 0), with a 2^j-bit image, and an order: line, when present, must
    name the kind's source order; anything else raises InputError.  The
    cover section is not read: verification recomputes it.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if lines and lines[0].startswith("maxcomplex-cache"):
        lines = lines[1:]  # certificate stored through the disk cache
    if not lines or lines[0] != "maxcomplex-certificate v1":
        raise InputError("not a certificate file")
    try:
        start = lines.index("map:")
        rows = lines[start + 1:lines.index("cover:", start)]
    except ValueError:
        raise InputError("certificate needs a map: and then a cover: section") from None
    fields = {k.strip(): v.strip() for k, _, v in (ln.partition(":") for ln in lines[1:start])}
    try:
        i, j = int(fields["i"]), int(fields["j"])
    except (KeyError, ValueError):
        raise InputError("certificate needs integer fields i: and j:") from None
    if not (0 <= i < 64 and 1 <= j < 64 and len(rows) == 1 << i):
        raise InputError("certificate needs 0 <= i < 64, 1 <= j < 64 and 2^i map rows")
    image: dict[int, int] = {}
    for row in rows:
        src, arrow, bits = (part.strip() for part in row.partition("->"))
        src = "" if i == 0 and src == "-" else src
        if not arrow or len(src) != i or len(bits) != 1 << j or set(src + bits) - {"0", "1"}:
            raise InputError(f"bad certificate map row {row!r}")
        image[int(src or "0", 2)] = int(bits[::-1], 2)
    if len(image) != len(rows):
        raise InputError("certificate map lists a source twice")
    kind = fields.get("kind", "monotone")
    order = lattice_kind(kind).order
    if fields.get("order", order) != order:
        raise InputError(f"certificate order {fields['order']!r} is not {kind}'s {order!r}")
    return {"kind": kind, "i": i, "j": j, "image_masks": tuple(image[s] for s in range(len(rows)))}


def verify_certificate(parsed: dict) -> AdequacyCertificate:
    """Re-check a parsed certificate from scratch with its kind's certifier.  A map
    with more sources than targets fails before the source cube is built."""
    family = lattice_kind(parsed["kind"])
    i, j = parsed["i"], parsed["j"]
    target = family.target(j)
    if 1 << i > len(target):
        raise AdequacyError("map is not injective")
    m = LatticeMap.from_labels(family.source(i), target, parsed["image_masks"])
    return family.check(i, j, m)
