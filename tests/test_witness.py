import hashlib
from itertools import count, product

import pytest

from maxcomplex import witness
from maxcomplex.bounds import _tower_profile, complete_dfa_bound, general_bound
from maxcomplex.counting import count_max
from maxcomplex.core import CapacityError, ColoredFunction, unrank
from maxcomplex.minauto import state_complexity, states_by_depth
from maxcomplex.witness import (
    NoWitnessError,
    construct_maximal,
    crossover,
    nonzero_functions,
)


def test_crossover_examples():
    assert crossover(2, 2, 3) == 2
    assert crossover(2, 2, 4) == 3
    assert crossover(2, 3, 1) == 1
    assert crossover(2, 10, 1) == 2  # colors outnumber words: n + 1


def test_crossover_is_least_index():
    for b, c, n in product(range(1, 6), range(2, 9), range(7)):
        i = crossover(b, c, n)
        assert i == _tower_profile(b, c, n)[0], (b, c, n)
        try:
            assert i == count_max(b, c, n)[0], (b, c, n)
        except CapacityError:
            assert (b, c, n) == (5, 5, 6)  # the one count past the work limit
        assert (i > n) == (b**n < c - 1), (b, c, n)  # colors outnumber words: n + 1
        if c == 2 and b >= 2:
            assert i == complete_dfa_bound(b, n)[0], (b, n)
        for smaller in range(i):
            assert b**smaller < c ** (b ** (n - smaller)) - 1
        if i <= n:
            assert b**i >= c ** (b ** (n - i)) - 1
        if b**n <= 2**12:
            f = construct_maximal(b, c, n)
            assert state_complexity(f) == general_bound(b, c, n), (b, c, n)


def test_crossover_requires_colors():
    with pytest.raises(NoWitnessError):
        crossover(2, 1, 3)


def test_nonzero_functions_examples():
    only = nonzero_functions(2, 2, 0)
    assert len(only) == 1 and only[0].table == bytes([1])
    three = nonzero_functions(2, 2, 1)
    assert [f.support() for f in three] == [[(1,)], [(0,)], [(0,), (1,)]]
    assert len(nonzero_functions(2, 3, 1)) == 8


def test_nonzero_functions_are_distinct_and_ordered():
    for b, c, arity in [(2, 3, 2), (2, 2, 0), (2, 2, 3), (3, 2, 2), (2, 5, 1), (1, 4, 3)]:
        fs = nonzero_functions(b, c, arity)
        codes = [sum(v * c ** (len(f.table) - 1 - i) for i, v in enumerate(f.table))
                 for f in fs]
        assert codes == list(range(1, c ** (b**arity))), (b, c, arity)


def test_nonzero_functions_cap_their_cells_before_building(monkeypatch):
    def must_not_build(*args):
        raise AssertionError("nonzero_functions built a table")

    monkeypatch.setattr(witness, "code_tables", must_not_build)
    # 2,559,999 functions of 4 cells, and 1,185,920 of 4: past 2^22 cells
    for c, functions in ((40, 2559999), (33, 1185920)):
        refused = f"^{functions} functions of 4 cells exceed capacity$"
        with pytest.raises(CapacityError, match=refused):
            nonzero_functions(2, c, 2)
    monkeypatch.setattr(witness, "code_tables", lambda b, c, arity: iter([bytes(4)]))
    assert nonzero_functions(2, 32, 2) == []  # 1,048,575 functions of 4 cells fit


@pytest.mark.parametrize("b,c", [(2, 2), (2, 3), (3, 2)])
def test_construct_attains_bound(b, c):
    for n in range(7):
        f = construct_maximal(b, c, n)
        assert state_complexity(f) == general_bound(b, c, n), (b, c, n)


def test_construct_profile_is_termwise_maximal():
    f = construct_maximal(2, 2, 4)
    assert states_by_depth(f) == [min(2**d, 2 ** (2 ** (4 - d)) - 1) for d in range(5)]


def test_construct_known_small_values():
    assert state_complexity(construct_maximal(2, 2, 3)) == 7
    assert state_complexity(construct_maximal(3, 2, 2)) == general_bound(3, 2, 2) == 5
    for n, expected in ((4, 11), (5, 19), (6, 34)):
        assert state_complexity(construct_maximal(2, 2, n)) == expected


def test_construct_single_letter_alphabet():
    f = construct_maximal(1, 3, 4)
    assert f.table == bytes([2])
    assert state_complexity(f) == general_bound(1, 3, 4) == 5


def test_construct_when_colors_outnumber_words():
    f = construct_maximal(2, 10, 1)
    assert sorted(f.table) == [1, 2]
    assert state_complexity(f) == general_bound(2, 10, 1) == 3


def test_construct_rejects_c1():
    with pytest.raises(NoWitnessError):
        construct_maximal(2, 1, 3)


def test_construct_checks_the_table_size_first(monkeypatch):
    from maxcomplex import witness

    def unreachable(*args):
        raise AssertionError("the crossover was computed")

    monkeypatch.setattr(witness, "crossover", unreachable)
    with pytest.raises(CapacityError):
        construct_maximal(2, 3, 10**8)


def test_construct_deterministic():
    assert construct_maximal(2, 2, 5) == construct_maximal(2, 2, 5)


# sha256 of the tables built when `witness` decoded codes with its own loop,
# before `core.unrank` took that job
@pytest.mark.parametrize("signature,digest", [
    ((2, 2, 5), "8b564dcdeb22306c584c0bf654ae6b56aaecdcafd9e8c54c5a807cfa48312062"),
    ((2, 2, 8), "9651bbe87579477ee98190661b684479048bb373d0f62e5c73bd2ae1f01e3e32"),
    ((2, 3, 4), "00f8982dc8b4f350d3013b5017470a70a1377bdc59174a282a8d1e35015971ef"),
    ((3, 3, 3), "097065f52c0f96e6c7648800ed2833b1519816fb1c963ab31f6888b454b2d90d"),
    ((3, 2, 4), "fc5a39104d46476dc6babe9ec781354f0f5fffe98703c0b3bd5e766b8c06874a"),
    ((4, 2, 4), "fd0e1d1fee5addc32c728f09dad3a9a9ee29158c774ab922d6b159f286f87d7e"),
])
def test_construct_tables_are_unchanged(signature, digest):
    assert hashlib.sha256(construct_maximal(*signature).table).hexdigest() == digest


def _former_construct_maximal(b, c, n):
    """`construct_maximal` before `core.code_tables`: one `unrank` per table, and
    its own walk over the codes of the (k+1)-ary functions."""
    if b == 1:
        return ColoredFunction(1, n, c, bytes([c - 1]))
    if b**n < c - 1:
        return ColoredFunction(b, n, c, bytes(r + 1 for r in range(b**n)))
    i = crossover(b, c, n)
    if i == 0:
        return ColoredFunction(b, 0, c, bytes([1]))
    k = n - i
    s = c ** (b**k) - 1
    blocks = b ** (i - 1)
    parts = [bytes(unrank(idx, b**k, c)) for idx in range(1, s + 1)]
    q, r = divmod(s, b)
    glued = [b"".join(parts[j * b : (j + 1) * b]) for j in range(q)]
    if r:
        glued.append(b"".join(parts[q * b : q * b + r] + [parts[0]] * (b - r)))
    used = set(glued)
    for idx in count(1):
        if len(glued) == blocks:
            break
        candidate = bytes(unrank(idx, b ** (k + 1), c))
        if candidate not in used:
            glued.append(candidate)
            used.add(candidate)
    return ColoredFunction(b, n, c, b"".join(glued))


@pytest.mark.parametrize("b,c,top", [(2, 2, 20), (3, 2, 9), (2, 3, 10), (2, 5, 5), (3, 3, 5),
                                     (4, 2, 6), (1, 3, 4), (2, 200, 3)])
def test_construct_maximal_matches_the_former_construction(b, c, top):
    for n in range(top + 1):
        assert construct_maximal(b, c, n).table == _former_construct_maximal(b, c, n).table, n


def test_constructed_witness_is_table1_member():
    f = construct_maximal(2, 2, 3)
    words = {"".join(map(str, w)) for w in f.support()}
    assert words == {"001", "010", "100", "101", "111"}
