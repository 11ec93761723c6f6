"""Exact evaluation of the tight state-complexity upper bounds.

Everything here is exact integer arithmetic.  Comparisons against towers
like c^(b^k) are made with capped exponentiation so the minimum of a sum
term never materializes an astronomically large intermediate.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import repeat
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

from .core import DIGIT_LIMIT, CapacityError, ColoredFunction, InputError


# Number of monotone Boolean functions of k variables (constants included),
# k = 0..6.  Larger arities must be supplied by the caller; for k <= 6,
# `lattice.count_monotone` re-derives them without listing the functions.
DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354)

# Number of early-monotone functions (complete simple games) of k variables,
# zero included, k = 0..7.  The csg module regenerates these for k <= 7; the
# 44,313 non-constant games of arity 7 agree with Kurz and Tautenhahn, "On
# Dedekind's problem for complete simple games" (IJGT 2013).
CSG_COUNTS = (2, 3, 5, 10, 27, 119, 1173, 44315)


class NeedDedekindError(CapacityError, ValueError):
    """A term needs a monotone-function count beyond the built-in table."""


class NeedCsgCountError(CapacityError, ValueError):
    """A term needs a complete-simple-game count beyond the built-in table."""


def power_capped(base: int, exp: int, cap: int) -> int:
    """min(base**exp, cap), never holding a value much above cap."""
    if cap <= 0:
        return cap
    if base <= 1:
        return min(1 if exp == 0 else base, cap)
    if exp >= cap.bit_length():  # base**exp >= 2**exp > cap
        return cap
    result = 1
    for bit in bin(exp)[2:]:
        result *= result
        if bit == "1":
            result *= base
        if result >= cap:
            return cap
    return result


def tower_capped(c: int, b: int, e: int, cap: int) -> int:
    """min(c**(b**e), cap) for c >= 1, never building b**e in full: for c >= 2,
    c**w >= 2**w > cap from w = cap.bit_length() on, so the exponent is capped
    first and every larger w gives the same result."""
    return power_capped(c, power_capped(b, e, cap.bit_length() + 1), cap)


def _profile(b: int, n: int, count: Callable[[int, int], int],
             above: Callable[[int, int], bool]) -> tuple[int, list[int], int]:
    """(r, tail, total) for the sum over depths i = 0..n of min(b^i, N(n-i) - 1), b >= 2.
    r is the least i with b^i >= N(n-i) - 1, or n + 1 if there is none, so each
    term below r is b^i; tail lists the terms from r on.  count(k, cap) returns
    min(N(k), cap) and is only asked with cap = b^i + 2, so no larger N is built.
    above(k, e) is True only if N(k) >= 2^e and count(k, 2^e) returns 2^e: while
    it holds for 2^e > b^i + 2, depth i is below r and b^i is not built.  N does not
    fall as k grows, so it holds for a prefix of the depths: gallop, then bisect.
    A total of more than DIGIT_LIMIT decimal digits raises CapacityError, before b^i
    is built when the depths below i already pass the limit."""
    step = b.bit_length()  # b^i < 2^(i * step)

    def beyond(i: int) -> bool:  # past the depths that above puts below r
        return i > n or not above(n - i, i * step + 2)

    end = 0
    while not beyond(end):
        end = 2 * end + 1
    i = bisect_left(range(end), True, (end + 1) // 2, key=beyond)
    # the total is at least b^(i-1), past 10^L (L = DIGIT_LIMIT) from 2^ceil(10 L / 3) on,
    # as 10^3 < 2^10; in bits, b^m >= 2^(m * w / 64) for w the bit length of b^64 less one
    if (i - 1) * ((b**64).bit_length() - 1) >= 64 * -(-10 * DIGIT_LIMIT // 3):
        raise _too_long()
    r, tail, prefixes = n + 1, [], b**i
    for i in range(i, n + 1):
        cap = prefixes + 2
        capped = count(n - i, cap)
        if r > n and capped < cap:
            r = i
        if r <= n:
            tail.append(min(capped - 1, prefixes))
        prefixes *= b
    return _checked(r, tail, (b**r - 1) // (b - 1) + sum(tail))


def _checked(r: int, tail: Iterable[int], total: int) -> tuple[int, Iterable[int], int]:
    """(r, tail, total), unless total has more than DIGIT_LIMIT decimal digits."""
    if total.bit_length() > 3 * DIGIT_LIMIT and total >= 10**DIGIT_LIMIT:  # 10^L has > 3 L bits
        raise _too_long()
    return r, tail, total


def _too_long() -> CapacityError:
    return CapacityError(f"the bound has more than {DIGIT_LIMIT} decimal digits")


def _tower_profile(b: int, c: int, n: int) -> tuple[int, Iterable[int], int]:
    """_profile for N(k) = c^(b^k), which is at least 2^(b^k * (c.bit_length() - 1)).
    For b = 1 or c = 1, N(k) = c: the crossover is 0 unless c > 2 (then b = 1 and
    every term is 1), and every term from it on is min(b, c - 1).  That tail is
    left unbuilt, as a repeat: most callers keep only r or the total."""
    if b < 1 or c < 1 or n < 0:
        raise InputError(f"bad parameters b={b}, c={c}, n={n}")
    if b == 1 or c == 1:
        r, term = (n + 1 if c > 2 else 0), min(b, c - 1)
        return _checked(r, repeat(term, n + 1 - r), r + term * (n + 1 - r))
    return _profile(b, n, partial(tower_capped, c, b),
                    lambda k, e: power_capped(b, k, e) * (c.bit_length() - 1) >= e)


def general_bound(b: int, c: int, n: int) -> int:
    """Sum over depths i of min(b^i, c^(b^(n-i)) - 1).  A value of more than
    DIGIT_LIMIT decimal digits raises CapacityError."""
    return _tower_profile(b, c, n)[2]


def general_bound_terms(b: int, c: int, n: int) -> list[int]:
    """The terms min(b^i, c^(b^(n-i)) - 1) of general_bound, by depth i = 0..n."""
    r, tail, _ = _tower_profile(b, c, n)
    return [b**i for i in range(r)] + list(tail)


def complete_dfa_bound(k: int, n: int) -> tuple[int, int]:
    """Crossover index r and the tight bound for complete (total) automata.

    r is the least m with k^m >= 2^(k^(n-m)) - 1; the bound is
    (k^r - 1)/(k - 1) + sum_{j=0}^{n-r} (2^(k^j) - 1) + 1 = general_bound(k, 2, n) + 1.
    Requiring totality costs exactly one extra state over the partial bound.
    """
    if k < 2:
        raise InputError("complete-automaton bound needs alphabet size >= 2")
    if n < 0:
        raise InputError("n must be >= 0")
    r, _, total = _tower_profile(k, 2, n)  # r <= n: k^n >= 2^1 - 1
    return r, total + 1


def family_bound(b: int, sizes: Sequence[int]) -> int:
    """Sum over depths i of min(b^i, sizes[i]) for per-depth class sizes."""
    total = 0
    prefixes = 1
    for size in sizes:
        total += min(prefixes, size)
        prefixes *= b
    return total


def cp_family(seed: Iterable[ColoredFunction]) -> list[int]:
    """Sizes of the residual closure levels of a set of functions.

    Level k holds every function obtained from a seed member by fixing its
    first k inputs; zero functions are discarded.  All seeds must share the
    same signature (b, n, c).  One member's levels are the depth counts that
    it keeps (`minauto.states_by_depth`), all 0 if it is zero; a larger seed
    takes one residual pass over the union.  Every call returns a new list.
    """
    from . import minauto  # here: evaluating a bound needs no minauto

    funcs = list(seed)
    if not funcs:
        raise InputError("empty seed")
    if len(funcs) == 1:  # kept counts; perfbench counts states_by_depth calls as minauto work
        return list(minauto._depth_counts(funcs[0]))
    b, n, c = funcs[0].b, funcs[0].n, funcs[0].c
    if any((f.b, f.n, f.c) != (b, n, c) for f in funcs):
        raise InputError("seed members have mixed signatures")
    return [len(level) for level, _ in minauto.residual_levels((f.table for f in funcs), b, n)]


def _dedekind_reaches(k: int, e: int) -> bool:
    """Whether M(k) >= 2^e follows from M(k) >= 2^C(k, k//2), the antichains of
    the middle layer.  C(k, k//2) >= 2^(k//2) settles large k without comb."""
    return k // 2 >= e.bit_length() or comb(k, k // 2) >= e


def _table_profile(n: int, extra: Mapping[int, int] | None, kind: tuple) -> tuple:
    """_profile for b = 2, N(k) taken from the kind's table, then from the caller's
    extra counts, then from a lower bound when the kind's reaches(k, cap, low)
    holds; reaches_bits(k, e, low) tells, from the same lower bound, whether
    N(k) >= 2^e.  low is the largest count known at an arity below k: the table's,
    or a supplied one at an arity the table lacks."""
    table, reaches, reaches_bits, error, what = kind
    if n < 0:
        raise InputError("n must be >= 0")

    def known(k: int) -> int | None:
        if k < len(table):
            return table[k]
        return extra.get(k) if extra else None

    def low(k: int) -> int:  # only asked for k >= len(table); the table wins below it
        return max([table[-1], *(v for j, v in (extra or {}).items() if len(table) <= j < k)])

    def count(k: int, cap: int) -> int:
        value = known(k)
        if value is not None:
            return min(value, cap)
        if reaches(k, cap, low(k)):
            return cap
        raise error(f"need {what}({k}) to evaluate this bound; supply it explicitly")

    def above(k: int, e: int) -> bool:
        value = known(k)
        return value.bit_length() > e if value is not None else reaches_bits(k, e, low(k))

    return _profile(2, n, count, above)


# 2^C >= cap iff C >= (cap - 1).bit_length()
_MONOTONE = (DEDEKIND, lambda k, cap, low: _dedekind_reaches(k, (cap - 1).bit_length()),
             lambda k, e, low: _dedekind_reaches(k, e), NeedDedekindError, "dedekind")
# game counts grow with arity (a (k-1)-ary game lifts by ignoring a variable)
_GAMES = (CSG_COUNTS, lambda k, cap, low: low >= cap,
          lambda k, e, low: low.bit_length() > e, NeedCsgCountError, "csg_count")


def _chain_depth(n: int, kind: tuple) -> int:
    """The depth i of the chain witness E_i -> lattice of arity n - i: the last depth
    whose term is 2^i, that is the crossover r if its term is still 2^r, else
    r - 1 (a crossover always exists, as the term at depth n is 1)."""
    r, tail, _ = _table_profile(n, None, kind)
    return r if tail[0] == 1 << r else r - 1


def monotone_bound(n: int, dedekind: Mapping[int, int] | None = None) -> int:
    """Sum over depths i of min(2^i, M(n-i) - 1) for monotone languages."""
    return _table_profile(n, dedekind, _MONOTONE)[2]


def csg_bound(n: int, csg_counts: Mapping[int, int] | None = None) -> int:
    """Sum over depths i of min(2^i, |C_(n-i)| - 1) for complete simple games."""
    return _table_profile(n, csg_counts, _GAMES)[2]
