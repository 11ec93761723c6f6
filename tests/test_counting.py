from itertools import product
from math import comb

import pytest

from maxcomplex import minauto, witness
from maxcomplex.core import CapacityError, ColoredFunction
from maxcomplex.bounds import general_bound, general_bound_terms
from maxcomplex.minauto import state_complexity
from maxcomplex.counting import (
    NoMaxError,
    brute_max_codes,
    count_max,
    falling_factorial,
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


def test_falling_factorial():
    assert falling_factorial(15, 2) == 210
    assert falling_factorial(3, 4) == 0
    assert falling_factorial(9, 0) == 1


def test_count_max_example():
    assert count_max(2, 2, 3) == (2, 60)


def _brute_count(b, c, n):
    bound = general_bound(b, c, n)
    cells = b**n
    total = 0
    for code in range(1, c**cells):
        table = bytearray(cells)
        v = code
        for pos in range(cells - 1, -1, -1):
            v, d = divmod(v, c)
            table[pos] = d
        if state_complexity(ColoredFunction(b, n, c, bytes(table))) == bound:
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


def test_count_max_degenerate():
    assert count_max(2, 2, 0) == (0, 1)
    with pytest.raises(NoMaxError):
        count_max(2, 1, 3)
    with pytest.raises(NoMaxError):
        count_max(2, 4, 0)  # colors outnumber the single word


def test_count_max_work_guard():
    with pytest.raises(CapacityError):
        count_max(2, 2, 30)


def _former_brute(b, c, n):
    """The per-function check `count-max --verify-brute` ran before the sweep: a
    residual pass over each nonzero table, every level compared with its term."""
    terms = general_bound_terms(b, c, n)
    codes = []
    for code in range(1, c ** (b**n)):
        table = witness._nonzero_table(code, b, c, n)
        levels = minauto.residual_levels([table], b, n)
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
