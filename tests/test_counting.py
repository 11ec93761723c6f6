import time
from itertools import product
from math import comb, factorial, log10, perm

import pytest

from maxcomplex import bounds, counting, minauto
from maxcomplex.core import CapacityError, ColoredFunction, InputError, unrank
from maxcomplex.bounds import general_bound, general_bound_terms
from maxcomplex.minauto import state_complexity
from maxcomplex.witness import crossover
from maxcomplex.counting import (
    NoMaxError,
    brute_max_codes,
    count_max,
    o_i,
    onto_count,
    onto_first_count,
    stirling2,
)


def _partitions_into(m, blocks):
    """Brute-force count of set partitions of [m] into exactly `blocks` parts."""
    if m == 0:
        return 1 if blocks == 0 else 0
    count = 0
    for assignment in product(range(blocks), repeat=m):
        used = set(assignment)
        if len(used) != blocks:
            continue
        # count each partition once: labels must appear in first-seen order
        first = {}
        for pos, label in enumerate(assignment):
            first.setdefault(label, pos)
        if sorted(first, key=first.get) == sorted(first):
            count += 1
    return count


def test_stirling2_against_partition_enumeration():
    for m in range(7):
        for blocks in range(m + 2):
            assert stirling2(m, blocks) == _partitions_into(m, blocks), (m, blocks)


def test_stirling2_edges():
    assert stirling2(4, 3) == 6
    assert stirling2(5, 5) == 1
    assert stirling2(3, 0) == 0
    assert stirling2(0, 0) == 1


def test_stirling2_with_more_blocks_than_elements_builds_no_factorial(monkeypatch):
    monkeypatch.setattr(counting, "factorial", _covering_must_not_run)
    assert stirling2(5, 10**6) == 0
    assert stirling2(0, 1) == 0
    with pytest.raises(InputError, match="arguments must be >= 0"):
        stirling2(-1, 5)


def test_onto_count_examples():
    assert onto_count(4, 3) == 36
    assert onto_count(3, 3) == 6
    assert onto_count(2, 3) == 0


def test_onto_first_count_examples():
    assert onto_first_count(4, 4) == 60
    assert onto_first_count(1, 2) == 1
    for a in range(6):
        assert onto_first_count(a, 1) == 1


def test_onto_first_count_inclusion_exclusion_oracle():
    # directly: maps [a] -> [b] hitting the first b-1 values
    for a in range(9):
        for b in range(1, 7):
            direct = sum((-1) ** j * comb(b - 1, j) * (b - j) ** a for j in range(b))
            assert onto_first_count(a, b) == direct, (a, b)


def test_o_i_examples():
    assert o_i(2, 2, 3, 1) == 0
    assert o_i(2, 2, 3, 2) == 60
    assert o_i(2, 2, 3, 0) == 0


def test_o_i_digit_guard():
    with pytest.raises(CapacityError):
        o_i(2, 2, 60, 0)


def _covering_must_not_run(*args):
    raise AssertionError("the inclusion-exclusion sum was started")


def test_o_i_refuses_an_oversized_result_before_any_power(monkeypatch):
    monkeypatch.setattr(counting, "_covering", _covering_must_not_run)
    # o_i(2, 2, 40, 39) would build 4^(2^39); the others 4^(2^24) and 4^(3^13)
    for args in [(2, 2, 40, 39), (2, 2, 25, 24), (3, 2, 14, 13), (2, 2, 10**6, 10**6 - 1)]:
        with pytest.raises(CapacityError, match="result exceeds the digit limit"):
            o_i(*args)
    with pytest.raises(CapacityError, match="codomain description exceeds the digit limit"):
        o_i(2, 2, 10**9, 0)  # 2^(10^9), the codomain's exponent, is not built either
    assert o_i(2, 1, 10**9, 10**9) == 1  # nor 2^(10^9) arguments into one color
    # fewer arguments than values to cover: the result is 0, one digit
    assert o_i(2, 2, 30, 20) == 0
    assert o_i(2, 2, 10**6, 10**6 - 20) == 0


def test_count_max_work_guard_counts_operand_size(monkeypatch):
    monkeypatch.setattr(counting, "perm", _covering_must_not_run)  # no range product
    # few multiplications, but each on numbers of up to 2^21 bits: about 12 s at (4, 4, 9),
    # 9 s at (5, 2, 9), 4.5 s at (3, 2, 11) and 24 s at (3, 2, 12); (2, 2, 20) has 65,355
    # terms that share no factor
    for signature in [(4, 4, 9), (5, 2, 9), (3, 2, 11), (3, 2, 12), (2, 2, 20), (10**400, 2, 1)]:
        with pytest.raises(CapacityError, match="count exceeds the configured work limit"):
            count_max(*signature)
    # still admitted: the tests' signatures, the benchmark's up to (2, 2, 14), (4, 4, 8),
    # and, priced by their runs of shared factors, (2, 2, 18) and (2, 2, 19) at about
    # 0.2 s and (4, 3, 9) and (2, 6, 15) at about 2 s
    monkeypatch.setattr(counting, "perm", lambda n, k: 1)  # each range product, made free
    for signature in [(2, 2, 14), (2, 2, 15), (4, 4, 7), (4, 4, 8), (3, 2, 10), (3, 3, 5),
                      (2, 3, 9), (3, 5, 6), (5, 5, 5), (4, 5, 5), (3, 4, 6), (2, 2, 18),
                      (2, 2, 19), (4, 3, 9), (2, 6, 15)]:
        count_max(*signature)


def test_count_max_refuses_a_huge_signature_before_its_crossover(monkeypatch):
    def must_not_run(*args):
        raise AssertionError("the crossover's bound was evaluated")

    # the crossover's bound at (3, 2, 10^6) has about 477,000 digits, and its
    # codomain and blocks had to be built before the work was priced
    monkeypatch.setattr(bounds, "_profile", must_not_run)
    for b, c, n in product((2, 3, 300), (2, 3, 40, 300), (10**6, 10**9)):
        with pytest.raises(CapacityError, match="^count exceeds the configured work limit$"):
            count_max(b, c, n)
    with pytest.raises(AssertionError):
        count_max(3, 2, 12)  # the patch is in effect: a signature priced as cheap reaches it


def test_count_max_admits_2_2_18_and_equals_the_per_term_sum():
    # 128 terms of 2^18-bit products in 3 runs: refused while each term was priced alone
    i, count = count_max(2, 2, 18)
    assert i == 15 and count == _per_term(255, 256, 2, 2**14)


def test_surjection_counts_refuse_past_the_work_limit(monkeypatch):
    monkeypatch.setattr(counting, "_covering", _covering_must_not_run)
    # each ran for 11 s or more: 6,001 powers of 75,000 bits, or 65,536 of 2^20 bits
    for fn, args in [(onto_count, (6000, 6000)), (onto_first_count, (6000, 6001)),
                     (o_i, (2, 2, 20, 16)), (onto_count, (10**400, 2)), (stirling2, (10**9, 2))]:
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="count exceeds the configured work limit"):
            fn(*args)
        assert time.perf_counter() - start < 1, (fn, args)
    # still admitted: the largest o_i the tests compute, and counts of about 2 s
    monkeypatch.setattr(counting, "_covering", lambda s, pool, ways: "admitted")
    for fn, args in [(o_i, (4, 4, 8, 7)), (o_i, (4, 4, 8, 8)), (onto_count, (3000, 3000)),
                     (onto_first_count, (16384, 256)), (onto_count, (11, 11))]:
        assert fn(*args) == "admitted", (fn, args)


def test_count_max_example():
    assert count_max(2, 2, 3) == (2, 60)


def _per_term(s, pool, b, blocks):
    """The sum `count_max` took before neighbouring terms shared their factors:
    each term's falling factorial multiplied out on its own."""
    return counting._covering(s, pool, lambda p: perm(p**b - 1, blocks))


def test_count_max_equals_the_per_term_sum(monkeypatch):
    signatures = [*product(range(0, 5), range(0, 5), range(-1, 9)),
                  *((2, 2, n) for n in range(11, 17)), (5, 3, 5), (3, 5, 6), (4, 3, 5), (2, 3, 9)]
    shared = {signature: _outcome(count_max, *signature) for signature in signatures}
    monkeypatch.setattr(counting, "_covering_perm", _per_term)
    for signature in signatures:
        assert _outcome(count_max, *signature) == shared[signature], signature


def _perm_calls(monkeypatch, *args):
    calls = []

    def recorded(n, k):
        calls.append((n, k))
        return perm(n, k)

    monkeypatch.setattr(counting, "perm", recorded)
    value = counting._covering_perm(*args)
    monkeypatch.undo()
    assert value == _per_term(*args), args
    return calls


@pytest.mark.parametrize("b,c,n", [(3, 5, 6), (4, 3, 5), (5, 3, 5)])
def test_covering_perm_without_shared_factors_multiplies_each_term_once(monkeypatch, b, c, n):
    # b >= 3: consecutive ranges lie b * p^(b-1) apart, more than b^(i-1) factors
    i = crossover(b, c, n)
    pool, blocks = c ** (b ** (n - i)), b ** (i - 1)
    calls = _perm_calls(monkeypatch, pool - 1, pool, b, blocks)
    assert calls == [(p**b - 1, blocks) for p in range(pool, 0, -1) if p**b - 1 >= blocks]


def test_covering_perm_with_every_term_in_one_run(monkeypatch):
    # the 21 ranges [p^2 - 5000, p^2 - 1] for p = 100..80 all contain [5000, 6399]
    calls = _perm_calls(monkeypatch, 20, 100, 2, 5000)
    assert calls[0] == (80**2 - 1, 80**2 - 5000)  # the common part [5000, 6399], once
    assert len(calls) == 2 * 21 - 1  # and two range products per split of the 21 terms
    # b = 1: the 6 ranges [p - 10, p - 1] for p = 30..25 all contain [20, 24]
    assert len(_perm_calls(monkeypatch, 5, 30, 1, 10)) == 2 * 6 - 1


def _former_nonzero_table(index, b, c, arity):
    """The decoder `witness` had before `core.unrank` took its place: the table
    whose cells, read as base-c digits, first cell most significant, are index."""
    cells = b**arity
    digits = bytearray(cells)
    for pos in range(cells - 1, -1, -1):
        index, d = divmod(index, c)
        digits[pos] = d
    return bytes(digits)


def _brute_count(b, c, n):
    bound = general_bound(b, c, n)
    total = 0
    for code in range(1, c ** (b**n)):
        table = _former_nonzero_table(code, b, c, n)
        if state_complexity(ColoredFunction(b, n, c, table)) == bound:
            total += 1
    return total


@pytest.mark.parametrize("b,c,n", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
def test_count_max_matches_brute_force(b, c, n):
    i, count = count_max(b, c, n)
    assert count == _brute_count(b, c, n)
    # the crossover index is the first with a positive onto count
    assert o_i(b, c, n, i) > 0
    for smaller in range(i):
        assert o_i(b, c, n, smaller) == 0


def test_count_max_equals_o_i_exactly_when_no_block_can_repeat():
    # An assignment covering the N - 1 nonzero functions leaves b^i - (N - 1)
    # prefixes free; a repeated or zero b-block needs b of them (notes/decisions.md).
    checked = 0
    for b, c, n in product(range(2, 5), range(2, 5), range(7)):
        try:
            i, count = count_max(b, c, n)
        except CapacityError:
            continue
        if i > n:  # colors outnumber words: no crossover, so no o_i to compare
            continue
        checked += 1
        codomain = c ** (b ** (n - i))
        assert (count == o_i(b, c, n, i)) == (codomain - 1 > b**i - b), (b, c, n)
    assert checked == 56  # 53 with i >= 1, and (b, 2, 0) for b = 2, 3, 4 with i = 0
    assert (count_max(2, 2, 3)[1], o_i(2, 2, 3, 2)) == (60, 60)
    assert (count_max(2, 2, 2)[1], o_i(2, 2, 2, 2)) == (6, 15)
    assert (count_max(2, 2, 4)[1], o_i(2, 2, 4, 3)) == (27720, 46620)


def test_count_max_degenerate():
    assert count_max(2, 2, 0) == (0, 1)
    with pytest.raises(NoMaxError):
        count_max(2, 1, 3)
    assert count_max(2, 4, 0) == (1, 3)  # colors outnumber the single word


@pytest.mark.parametrize("c", [0, -1])
def test_count_max_refuses_c_below_1_as_bad_parameters(c):
    with pytest.raises(InputError, match=f"bad parameters b=2, c={c}, n=3") as caught:
        count_max(2, c, 3)
    assert type(caught.value) is InputError  # not NoMaxError, which is for c = 1
    with pytest.raises(InputError, match=f"bad parameters b=2, c={c}, n=3"):
        crossover(2, c, 3)


@pytest.mark.parametrize("b,c,n,count", [(2, 6, 2, 120), (2, 7, 2, 360), (2, 4, 1, 6),
                                         (3, 5, 1, 24), (1, 3, 2, 2), (2, 4, 0, 3)])
def test_count_max_when_colors_outnumber_words(b, c, n, count):
    # b^n < c - 1: every word takes its own nonzero color, perm(c - 1, b^n) ways
    assert count_max(b, c, n) == (n + 1, count)
    assert _brute_count(b, c, n) == len(brute_max_codes(b, c, n)) == count


def test_count_max_work_guard():
    with pytest.raises(CapacityError):
        count_max(2, 2, 30)
    with pytest.raises(CapacityError):
        count_max(2, 2**64, 40)  # 2^40 words, each with its own of 2^64 - 1 colors


def _former_brute(b, c, n):
    """The per-function check `count-max --verify-brute` ran before the sweep: a
    residual pass over each nonzero table, every level compared with its term."""
    terms = general_bound_terms(b, c, n)
    codes = []
    for code in range(1, c ** (b**n)):
        levels = minauto.residual_levels([_former_nonzero_table(code, b, c, n)], b, n)
        if all(len(level) == term for (level, _), term in zip(levels, terms)):
            codes.append(code)
    return codes


_SMALL_SPACES = [(b, c, n) for b in range(1, 5) for c in range(1, 5) for n in range(7)
                 if c ** (b**n) <= 1 << 16]


@pytest.mark.parametrize("b,c,n", _SMALL_SPACES)
def test_brute_max_codes_equal_the_former_loop(b, c, n):
    codes = brute_max_codes(b, c, n)
    assert codes == _former_brute(b, c, n)
    if c >= 2 and b**n >= c - 1:
        assert len(codes) == count_max(b, c, n)[1]


def test_brute_max_codes_pass_once_per_child(monkeypatch):
    calls = []

    def counted(tables, b, n):
        calls.append(n)
        return residual_levels(tables, b, n)

    residual_levels = minauto.residual_levels
    monkeypatch.setattr(minauto, "residual_levels", counted)
    assert len(brute_max_codes(2, 2, 4)) == 27720
    assert calls == [3] * 256  # one pass per function of arity 3
    calls.clear()
    assert len(brute_max_codes(3, 3, 2)) == 15180
    assert calls == [1] * 3**3
    calls.clear()
    assert brute_max_codes(1, 2, 3000) == [1]
    assert calls == [2999] * 2


def test_brute_max_codes_refuse_more_than_2_20_functions(monkeypatch):
    calls = []
    monkeypatch.setattr(minauto, "residual_levels", lambda *args: calls.append(args))
    with pytest.raises(CapacityError, match=r"^brute force over 4294967296 functions refused$"):
        brute_max_codes(2, 2, 5)
    # 2^(2^1000000) is never built: the space is capped before it is compared
    with pytest.raises(CapacityError, match=r"^brute force over at least 2\^64 functions refused$"):
        brute_max_codes(2, 2, 10**6)
    assert calls == []


def test_brute_max_codes_check_the_signature_after_the_space(monkeypatch):
    calls = []
    monkeypatch.setattr(minauto, "residual_levels", lambda *args: calls.append(args))
    # 300^2 functions pass the space check, but 300 colors do not fit a table byte
    with pytest.raises(CapacityError, match="^at most 256 colors supported$"):
        brute_max_codes(2, 300, 1)
    # two functions, but 10^11 residual levels each: this was a MemoryError
    with pytest.raises(CapacityError, match="^arity 100000000000 exceeds capacity"):
        brute_max_codes(1, 2, 10**11)
    assert calls == []


# The counts as they were computed before one inclusion-exclusion served them
# all: a Stirling recurrence, a sum over the exempt element's preimage, and an
# alternating loop over a falling factorial.

def _former_stirling2(m, n):
    if m < 0 or n < 0:
        raise InputError("arguments must be >= 0")
    if n > m:
        return 0
    if n == 0:
        return 1 if m == 0 else 0
    row = [1] + [0] * n  # S(0, .)
    for _ in range(m):
        new = [0] * (n + 1)
        for j in range(1, n + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[n]


def _former_onto_count(m, n):
    s = _former_stirling2(m, n)
    return 0 if s == 0 else factorial(n) * s


def _former_onto_first_count(a, b):
    if a < 0 or b < 1:
        raise InputError("need a >= 0 and b >= 1")
    return sum(comb(a, m) * _former_onto_count(a - m, b - 1) for m in range(a - (b - 1) + 1))


def _former_o_i(b, c, n, i):
    if not 0 <= i <= n:
        raise InputError(f"need 0 <= i <= n, got i={i}, n={n}")
    if b < 1 or c < 1:
        raise InputError(f"bad parameters b={b}, c={c}")
    exponent = b ** (n - i)
    if c > 1:
        if exponent > 4 * 10**6 or exponent * log10(c) > 10**6:
            raise CapacityError("codomain description exceeds the digit limit")
    return _former_onto_first_count(b**i, c**exponent)


def _former_falling_factorial(x, k):
    out = 1
    for t in range(k):
        out *= x - t
        if out == 0:
            return 0
    return out


def _former_count_max(b, c, n):
    if c < 2:
        raise NoMaxError("c=1 admits no nonzero functions")
    i = crossover(b, c, n)
    if i > n:
        raise NoMaxError(f"no crossover: b^n = {b**n} < c-1 = {c - 1} (colors outnumber words)")
    if i == 0:
        return 0, 1
    codomain = c ** (b ** (n - i))
    s = codomain - 1
    blocks = b ** (i - 1)
    if s * blocks > 10**7:
        raise CapacityError("count exceeds the configured work limit")
    total = 0
    for j in range(s + 1):
        term = comb(s, j) * _former_falling_factorial((codomain - j) ** b - 1, blocks)
        total += -term if j & 1 else term
    return i, total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_surjection_counts_equal_the_former_evaluation():
    for m, n in product(range(-1, 12), repeat=2):
        assert _outcome(stirling2, m, n) == _outcome(_former_stirling2, m, n), (m, n)
        assert _outcome(onto_count, m, n) == _outcome(_former_onto_count, m, n), (m, n)
    for a, b in product(range(-1, 14), range(0, 14)):
        assert _outcome(onto_first_count, a, b) == _outcome(_former_onto_first_count, a, b), (a, b)


def test_o_i_and_count_max_equal_the_former_evaluation():
    for b, c, n in product(range(0, 5), range(0, 5), range(-1, 9)):
        # b = 4, n = 8 is left out: the former loop takes seconds there at c = 3 and 4
        if n < 8 or b < 4:
            former = _outcome(_former_count_max, b, c, n)
            if former[0] is NoMaxError and "colors outnumber words" in former[1]:
                former = (n + 1, perm(c - 1, b**n))  # refused before; one color per word
            if c < 1 or former[0] is InputError and former[1].startswith("bad parameters"):
                # c < 1 was refused as c = 1 before, and the refusal now names c too
                former = (InputError, f"bad parameters b={b}, c={c}, n={n}")
            assert _outcome(count_max, b, c, n) == former, (b, c, n)
        # the former sum costs about b^(3i) steps once its codomain fits: i is kept small
        for i in range(-1, n + 2):
            if i < 1 or b**i <= 64:
                assert _outcome(o_i, b, c, n, i) == _outcome(_former_o_i, b, c, n, i), (b, c, n, i)


def test_unrank_decodes_like_the_former_table_decoder():
    for b, c, arity in product(range(1, 5), range(1, 5), range(3)):
        cells, space = b**arity, c ** (b**arity)
        # every index of spaces up to 2^16; the 512 extreme ones of the larger
        indexes = range(space) if space <= 1 << 16 else [*range(256), *range(space - 256, space)]
        for index in indexes:
            assert bytes(unrank(index, cells, c)) == _former_nonzero_table(index, b, c, arity)
