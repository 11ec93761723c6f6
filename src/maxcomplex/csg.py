"""Majorization order, early functions, and complete simple games.

A binary function is early when moving a single 1 to an earlier free
position never destroys acceptance; early-plus-monotone functions are the
complete simple games, equivalently the up-sets of the binary majorization
lattice (prefix-sum domination).  Both families are listed from pairs of
functions one arity down, by the pair rule `lattice._pairs`.
"""

from __future__ import annotations

from functools import lru_cache

from .core import (
    CapacityError,
    ExhaustedError,
    InputError,
    MonotoneFunction,
    SEARCH_BUDGET,
    WordLike,
    _mask_is_early,
    _mask_is_monotone,
    as_word,
    rank,
    var_mask,
)
from .lattice import (
    MAX_CUBE_ARITY,
    AdequacyCertificate,
    LatticeMap,
    Poset,
    SearchOutcome,
    _pairs,
    assemble_from_chain,
    certify,
    search_embedding,
)
from .bounds import _GAMES, _chain_depth

MAX_EARLY_ARITY = 5
MAX_CSG_ARITY = 7
# C_7^- has 44,314 elements: its order matrix alone would take about 245 MB.
MAX_CSG_POSET_ARITY = 6


def majorization_leq(x: WordLike, y: WordLike) -> bool:
    """Prefix-sum domination: every prefix of y holds at least as many 1s."""
    xw, yw = as_word(x), as_word(y)
    if len(xw) != len(yw):
        raise InputError("majorization compares words of equal length")
    if any(d not in (0, 1) for d in xw + yw):
        raise InputError("majorization is defined on binary words")
    n = len(xw)
    return _stairs(n, rank(xw, 2)) & ~_stairs(n, rank(yw, 2)) == 0


def _stairs(n: int, r: int) -> int:
    """The prefix-count staircase of the n-digit binary word of rank r.

    Bit p(p-1)/2 + k - 1, for 1 <= k <= p <= n, is set iff the first p digits
    hold at least k ones.  x majorizes below y iff stairs(x) lies inside
    stairs(y), and distinct words have distinct staircases.
    """
    out = 0
    for p in range(1, n + 1):
        out |= ((1 << (r >> (n - p)).bit_count()) - 1) << (p * (p - 1) // 2)
    return out


@lru_cache(maxsize=None)
def majorization_poset(n: int) -> Poset:
    """{0,1}^n under prefix-sum domination, elements labeled by rank."""
    if n < 0:
        raise InputError(f"n must be >= 0, got {n}")
    if n > MAX_CUBE_ARITY:
        raise CapacityError(f"majorization cubes beyond n={MAX_CUBE_ARITY} are too large")
    return Poset([_stairs(n, r) for r in range(1 << n)], labels=range(1 << n))


def enumerate_early(n: int) -> list[int]:
    """All early functions of n variables as ascending masks.

    The rule of `enumerate_csg` without g <= h: f is early iff g = f|x0=0 and
    h = f|x0=1 are and shadow(g) lies inside h, since the only new conditions are
    between the first position and each later one.  Distinct g may share a shadow.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if n > MAX_EARLY_ARITY:
        raise CapacityError(f"early enumeration beyond n={MAX_EARLY_ARITY} is not desk-feasible")
    if n == 0:
        return [0, 1]
    return list(_pairs(enumerate_early(n - 1), 1 << (n - 1), lambda g: shadow_mask(n - 1, g)))


def is_csg_mask(n: int, mask: int) -> bool:
    return _mask_is_monotone(n, mask) and _mask_is_early(n, mask)


def is_majorization_up_set(n: int, mask: int) -> bool:
    """Language closed upward in the majorization order."""
    poset = majorization_poset(n)
    for r in range(1 << n):
        if (mask >> r) & 1 and poset.rows[r] & ~mask:
            return False
    return True


@lru_cache(maxsize=None)
def enumerate_csg(n: int) -> tuple:
    """All complete simple games (early-monotone functions), ascending masks.

    A game is assembled from the pair g = f|x0=0, h = f|x0=1 of (n-1)-ary
    games, kept iff g and its one-deletion shadow both lie in h: g <= h is
    monotonicity, and shadow(g) <= h is earliness between the first position
    and every later one.  Earliness inside g and h holds because both are
    games.  h runs in the outer loop, so the masks come out ascending.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if n > MAX_CSG_ARITY:
        raise CapacityError(f"game enumeration beyond n={MAX_CSG_ARITY} is not desk-feasible")
    if n == 0:
        return (0, 1)
    return tuple(_pairs(enumerate_csg(n - 1), 1 << (n - 1), lambda g: g | shadow_mask(n - 1, g)))


def count_csg(n: int) -> int:
    """|C_n| without listing C_n: the pair rule of `enumerate_csg`, counted.  The h
    that fit g in C_{n-1} are the members of C_{n-1} that contain g | shadow(g)."""
    if n < 1 or n > MAX_CSG_ARITY:  # enumerate_csg's guards raise first
        return len(enumerate_csg(n))
    prev = enumerate_csg(n - 1)
    above = Poset(prev).above
    return sum(above(g | shadow_mask(n - 1, g)).bit_count() for g in prev)


@lru_cache(maxsize=None)
def csg_nonzero(n: int) -> tuple:
    masks = enumerate_csg(n)
    assert masks[0] == 0
    return tuple(masks[1:])


@lru_cache(maxsize=None)
def csg_nonzero_poset(j: int) -> Poset:
    if j > MAX_CSG_POSET_ARITY:
        raise CapacityError(f"game lattices beyond j={MAX_CSG_POSET_ARITY} are not desk-feasible")
    return Poset(csg_nonzero(j))


def check_csg_relation(i: int, j: int, m: LatticeMap) -> AdequacyCertificate:
    """Certify E_i -> C_j^- with substitutions onto C_{j-1}^-."""
    return certify("csg", i, j, m)


def search_csg_relation(i: int, j: int, budget: int = SEARCH_BUDGET) -> SearchOutcome:
    """Search for an adequate majorization-ordered embedding E_i -> C_j^-."""
    return search_embedding("csg", i, j, budget)


def shadow_mask(j: int, mask: int) -> int:
    """All words obtained by deleting one 1 from a member of the language."""
    out = 0
    for pos in range(j):
        ones = var_mask(j, pos)
        out |= (mask & ones) >> (1 << (j - 1 - pos))
    return out


def csg_witness_chain(n: int) -> tuple[int, int]:
    """Depths (i, j), i+j = n, where the game witness embeds E_i into C_j^-."""
    if not 1 <= n <= 8:
        raise InputError("game witness construction supports 1 <= n <= 8")
    i = _chain_depth(n, _GAMES)
    return i, n - i


def build_csg_witness(n: int = 8, require_early: bool = False
                      ) -> tuple[MonotoneFunction, AdequacyCertificate]:
    """A language attaining the game bound, plus its chain certificate.

    The assembled language realizes the chain profile term by term, so its
    state complexity equals csg_bound(n); it is monotone by construction but
    need not be early itself.  With require_early=True the search also
    enforces the cross-boundary earliness conditions (each image must absorb
    the one-deletion shadow of every image one prefix-bit below), making the
    witness a complete simple game; that space is exhaustively refutable for
    some n (already at n=4), in which case NoWitnessError is raised.
    """
    from .witness import NoWitnessError

    i, j = csg_witness_chain(n)
    shadow = (lambda mask: shadow_mask(j, mask)) if require_early else None
    outcome = search_embedding("csg", i, j, shadow=shadow)
    if outcome.status == "exhausted":
        raise ExhaustedError(f"witness search exhausted after {outcome.nodes} nodes")
    if outcome.status != "found":
        raise NoWitnessError(
            f"no chain embedding exists for n={n}"
            + (" with the earliness conditions" if require_early else "")
        )
    cert = check_csg_relation(i, j, outcome.map)
    witness = MonotoneFunction(n, assemble_from_chain(n, i, j, outcome.map.image_labels()))
    return witness, cert
