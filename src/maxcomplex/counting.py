"""Exact counting of maximal-complexity functions.

The count is determined entirely at the crossover depth i: a function is
maximal iff its depth-i residual assignment covers every nonzero function of
the remaining arity while the induced depth-(i-1) residuals stay distinct
and alive.  Inclusion-exclusion over the missed values gives a closed form.
`brute_max_codes` re-derives the count by checking every function.
"""

from __future__ import annotations

from itertools import product
from math import comb, factorial, log2, log10, perm

from .bounds import general_bound_terms, power_capped, tower_capped
from .core import DIGIT_LIMIT, CapacityError, InputError, code_tables, table_cells
from .witness import crossover

# Keep the inclusion-exclusion loop responsive: at most this many big-int
# multiplications (terms x blocks), and at most this much work by operand size,
# bits^1.5 summed over the products that are made (for `count_max`, one per run
# of shared factors), about how the cost of big-int products grows with their
# size (2*10^10 is 2-3 s on a 2-core Xeon VM).
MAX_COUNT_WORK = 10**7
MAX_COUNT_BIT_WORK = 2 * 10**10


class NoMaxError(InputError):
    """The bound's term-by-term profile is not realizable for these parameters."""


def _check_work(products: int, terms: int, width: int, base: int) -> None:
    """Refuse more than MAX_COUNT_WORK products, or terms x bits^1.5 past MAX_COUNT_BIT_WORK
    for products of bits = width * log2(base), the width capped before it is a float."""
    bits = min(width, MAX_COUNT_BIT_WORK) * log2(base)
    if products > MAX_COUNT_WORK or terms * bits**1.5 > MAX_COUNT_BIT_WORK:
        raise CapacityError("count exceeds the configured work limit")


def _covering(s: int, pool: int, ways) -> int:
    """Objects using each of s required values of a pool, where ways(p) counts
    those built from any p values: sum_j (-1)^j C(s, j) * ways(pool - j)."""
    total = 0
    for j in range(s + 1):
        term = comb(s, j) * ways(pool - j)
        total += -term if j & 1 else term
    return total


def _covering_perm(s: int, pool: int, b: int, blocks: int) -> int:
    """`_covering(s, pool, lambda p: perm(p**b - 1, blocks))`, with each factor run
    that neighbouring terms share multiplied once (notes/decisions.md).

    Term j is the product of [hi_j - blocks + 1, hi_j], hi_j = (pool - j)^b - 1,
    and is 0 once hi_j < blocks.  A maximal run u..v of terms whose ranges meet
    sums to prod[lo_u, hi_v] * S(u, v), and S splits at a midpoint w:
    S(u, v) = prod[hi_v + 1, hi_w] S(u, w) + prod[lo_(w+1), lo_u - 1] S(w + 1, v).
    Every range product is a `perm`, which multiplies balanced halves.  Before the
    first, the runs are priced as if each were one product of its ranges' union,
    by bits^1.5 as in `_check_work`, and refused past MAX_COUNT_BIT_WORK."""
    his = [hi for p in range(pool, pool - s - 1, -1) if (hi := p**b - 1) >= blocks]
    his.append(-1)  # a sentinel that no range meets
    runs = []
    u = 0
    while u < len(his) - 1:
        lo, v = his[u] - blocks + 1, u
        while his[v + 1] >= lo:
            v += 1
        runs.append((u, v))
        u = v + 1
    # run u..v multiplies the his[u] - his[v] + blocks factors of its ranges' union
    if sum(((his[u] - his[v] + blocks) * log2(his[u] + 1)) ** 1.5
           for u, v in runs) > MAX_COUNT_BIT_WORK:
        raise CapacityError("count exceeds the configured work limit")

    def signed(u: int, v: int) -> int:  # S(u, v)
        if u == v:
            term = comb(s, u)
            return -term if u & 1 else term
        w = (u + v) // 2
        return (perm(his[w], his[w] - his[v]) * signed(u, w)
                + perm(his[u] - blocks, his[u] - his[w + 1]) * signed(w + 1, v))

    return sum(perm(his[v], his[v] - his[u] + blocks) * signed(u, v) for u, v in runs)


def stirling2(m: int, n: int) -> int:
    """Stirling number of the second kind S(m, n)."""
    count = onto_count(m, n)
    return count // factorial(n) if count else 0  # n > m builds no factorial(n)


def onto_count(m: int, n: int) -> int:
    """Number of surjections from [m] onto [n]: n! * S(m, n)."""
    if m < 0 or n < 0:
        raise InputError("arguments must be >= 0")
    if n > m:
        return 0
    _check_work(n + 1, n + 1, m, n + 1)  # n + 1 powers p^m with p <= n
    return _covering(n, n, lambda p: p**m)


def onto_first_count(a: int, b: int) -> int:
    """Functions [a] -> [b] covering the first b-1 elements of [b]."""
    if a < 0 or b < 1:
        raise InputError("need a >= 0 and b >= 1")
    if b - 1 > a:
        return 0
    _check_work(b, b, a, b)  # b powers p^a with p <= b
    return _covering(b - 1, b, lambda p: p**a)


def o_i(b: int, c: int, n: int, i: int) -> int:
    """Functions from [b^i] to [c^(b^(n-i))] onto all but the last element."""
    if not 0 <= i <= n:
        raise InputError(f"need 0 <= i <= n, got i={i}, n={n}")
    if b < 1 or c < 1:
        raise InputError(f"bad parameters b={b}, c={c}")
    if c == 1:
        return 1  # the one map [b^i] -> [1], with no value to cover
    exponent = power_capped(b, n - i, 4 * DIGIT_LIMIT + 1)  # b^(n-i), exact below the guard
    # c^exponent has exponent * log10(c) decimal digits, give or take one
    digits = exponent * log10(c)
    if exponent > 4 * DIGIT_LIMIT or digits > DIGIT_LIMIT:
        raise CapacityError("codomain description exceeds the digit limit")
    # The result is 0 unless the b^i arguments reach all N - 1 values, and then
    # it has about b^i * log10(N) digits.  From 4 * DIGIT_LIMIT on, b^i is
    # compared with N in bits, and b^i >= N / 2 counts as reaching.
    arguments = power_capped(b, i, 4 * DIGIT_LIMIT)
    if arguments * digits > DIGIT_LIMIT:
        if arguments < 4 * DIGIT_LIMIT:
            reaches = power_capped(c, exponent, arguments + 2) <= arguments + 1
        else:
            reaches = i * log2(b) >= exponent * log2(c) - 1
        if reaches:
            raise CapacityError("result exceeds the digit limit")
    return onto_first_count(b**i, c**exponent)


def count_max(b: int, c: int, n: int) -> tuple[int, int]:
    """Crossover depth and the exact number of maximum-complexity functions.

    At the crossover i the data of a maximal function is the assignment of
    the b^i depth-i prefixes to functions of arity n-i.  Writing N for the
    number of such functions (zero included) and s = N - 1, the assignment
    must cover all s nonzero functions, and its b^(i-1) consecutive b-blocks
    must be pairwise distinct and not identically zero.  By inclusion-
    exclusion over missed nonzero functions:

        sum_j (-1)^j C(s, j) * perm((N - j)^b - 1, b^(i-1))

    where perm counts the injective block choices.  This is o_i(b, c, n, i)
    with each assignment also required to have injective nonzero blocks; the
    two agree exactly when N - 1 > b^i - b (notes/decisions.md).  Neighbouring
    terms share factors of their falling factorials, and `_covering_perm`
    multiplies each shared run of factors once.

    When the colors outnumber the words (b^n < c - 1), no depth crosses over
    (the crossover is n + 1, as in `bounds._profile`) and a function is maximal
    iff its b^n words take distinct nonzero colors: perm(c - 1, b^n) of them.
    """
    if c == 1:
        raise NoMaxError("c=1 admits no nonzero functions")
    if b < 1 or c < 1 or n < 0:
        raise InputError(f"bad parameters b={b}, c={c}, n={n}")
    # Priced before the crossover, whose bound may have 10^5 digits: i >= n - k, for
    # k the largest with b^k <= n * bitlen(b) + 1, as 2^(b^(n-i)) <= b^i + 1 when
    # i <= n.  Both branches below make at least b^(n-k-1) products.
    k, bits = 0, n * b.bit_length() + 1
    while b > 1 and b ** (k + 1) <= bits:
        k += 1
    if power_capped(b, max(n - k - 1, 0), MAX_COUNT_WORK + 1) > MAX_COUNT_WORK:
        raise CapacityError("count exceeds the configured work limit")
    i = crossover(b, c, n)
    if i > n:
        words = b**n  # below c - 1
        _check_work(words, 1, words, c)  # one product of words factors
        return i, perm(c - 1, words)
    if i == 0:
        # c=2 with a single word: the unique maximal function accepts it
        return 0, 1
    codomain = c ** (b ** (n - i))
    blocks = b ** (i - 1)
    # at most blocks factors per term, and each term's power p^b of b^(n-i+1) * log2(c)
    # bits; `_covering_perm` prices its products by the runs of shared factors
    _check_work((codomain - 1) * blocks, codomain, b ** (n - i + 1), c)
    return i, _covering_perm(codomain - 1, codomain, b, blocks)


def brute_max_codes(b: int, c: int, n: int) -> list[int]:
    """Codes of the maximal functions [b]^n -> [c], each function checked in turn.

    A code is the table read as a base-c number, first cell most significant
    (`core.unrank` decodes it); the list ascends.  f is maximal iff
    it is nonzero and each depth d >= 1 has its term of distinct nonzero
    residuals: the union of the depth-(d-1) residuals of f's children
    g_0..g_{b-1} (g_s is f after first symbol s).  One `residual_levels` pass
    per child stores those as bitsets over each depth's distinct tables, and f
    costs at most n ORs of b bitsets (notes/decisions.md).  Work: c^(b^(n-1))
    passes and c^(b^n) sweep steps, so more than 2^20 functions are refused.
    """
    from . import minauto  # here: a count without the brute-force check needs no minauto

    space = tower_capped(c, b, n, 1 << 64)  # c^(b^n), capped at 2^64
    if space > 1 << 20:
        size = space if space < 1 << 64 else "at least 2^64"
        raise CapacityError(f"brute force over {size} functions refused")
    table_cells(b, n, c)  # the colors and the arity, which the space leaves unchecked
    if c == 1:
        return []  # only the zero function
    if n == 0:
        return list(range(1, c))  # constants: a nonzero one has its single state
    terms = general_bound_terms(b, c, n)[1:]
    # one id table per depth keeps each depth's bitsets as narrow as its level
    ids: list[dict[bytes, int]] = [{} for _ in terms]
    rows = []  # rows[g][d]: bitset of the depth-d residuals of child g
    for child in code_tables(b, c, n - 1):
        row = []
        levels = minauto.residual_levels([child], b, n - 1)
        for index, (level, _) in zip(ids, levels):
            bits = 0
            for table in level:
                bits |= 1 << index.setdefault(table, len(index))
            row.append(bits)
        rows.append(row)
    codes = []  # the zero function, code 0, has no depth-1 residual and fails at once
    for code, children in enumerate(product(rows, repeat=b)):
        for d, term in enumerate(terms):
            bits = 0
            for row in children:
                bits |= row[d]
            if bits.bit_count() != term:
                break
        else:
            codes.append(code)
    return codes
