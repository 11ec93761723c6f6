import json
import tracemalloc
from functools import partial
from itertools import product
from math import comb

import pytest

from maxcomplex import bounds
from maxcomplex.cli import _decimal, main
from maxcomplex.csg import csg_witness_chain
from maxcomplex.core import CapacityError, ColoredFunction, InputError
from maxcomplex.counting import count_max
from maxcomplex.minauto import states_by_depth
from maxcomplex.bounds import (
    CSG_COUNTS,
    DEDEKIND,
    NeedCsgCountError,
    NeedDedekindError,
    complete_dfa_bound,
    cp_family,
    csg_bound,
    family_bound,
    general_bound,
    general_bound_terms,
    monotone_bound,
    power_capped,
    tower_capped,
)
from maxcomplex.witness import crossover

MONOTONE_STATES = (1, 2, 4, 6, 10, 15, 23, 39, 58, 90, 154)


def test_power_capped():
    assert power_capped(2, 10, 5000) == 1024
    assert power_capped(2, 100, 5000) == 5000
    assert power_capped(1, 10**9, 7) == 1
    assert power_capped(3, 0, 7) == 1


def _former_power_capped(base, exp, cap):
    """power_capped before the bit-length test: walks every bit of exp."""
    if cap <= 0:
        return cap
    if base <= 1:
        return min(1 if exp == 0 else base, cap)
    result = 1
    for bit in bin(exp)[2:]:
        result *= result
        if bit == "1":
            result *= base
        if result >= cap:
            return cap
    return result


def _former_terms(b, c, n):
    """general_bound_terms as it was: b^(n-i) built in full at every depth."""
    terms, prefixes = [], 1
    for i in range(n + 1):
        capped = _former_power_capped(c, b ** (n - i), prefixes + 2)
        terms.append(prefixes if capped >= prefixes + 1 else capped - 1)
        prefixes *= b
    return terms


def _former_crossover(b, c, n):
    prefixes = 1
    for i in range(n + 1):
        if _former_power_capped(c, b ** (n - i), prefixes + 2) <= prefixes + 1:
            return i
        prefixes *= b
    return None


def _former_complete(k, n):
    for m in range(n + 1):
        lhs = k**m
        if _former_power_capped(2, k ** (n - m), lhs + 2) <= lhs + 1:
            return m, (k**m - 1) // (k - 1) + sum(2 ** (k**j) - 1 for j in range(n - m + 1)) + 1


def test_capped_exponents_equal_the_former_evaluation(capsys):
    for b in range(1, 5):
        for c in range(1, 5):
            for n in range(61):
                assert general_bound_terms(b, c, n) == _former_terms(b, c, n), (b, c, n)
                if c == 1:
                    continue
                i = crossover(b, c, n)
                assert (None if i > n else i) == _former_crossover(b, c, n), (b, c, n)
        for n in range(61):
            if b >= 2:
                assert complete_dfa_bound(b, n) == _former_complete(b, n), (b, n)
    for base in range(5):
        for exp in range(40):
            for cap in (*range(-1, 70), 2**exp - 1, 2**exp, 2**exp + 1, 3**exp, 3**exp + 1):
                assert power_capped(base, exp, cap) == _former_power_capped(base, exp, cap)
    assert tower_capped(2, 2, 10**6, 2**100) == 2**100  # b^e is never built
    assert main(["bound", "--n", "15000", "--json"]) == 0
    digits = json.loads(capsys.readouterr().out)["bound"]
    assert len(digits) == 4512 and digits == _decimal(sum(_former_terms(2, 2, 15000)))


def _former_table_term(i, k, table, extra, error, what):
    """One term of monotone_bound or csg_bound as it was evaluated on its own.
    A missing game count is bounded below by the largest count known at a
    smaller arity, the table's or one supplied at an arity the table lacks."""
    if k < len(table):
        return min(2**i, table[k] - 1)
    if extra and k in extra:
        return min(2**i, extra[k] - 1)
    if table is DEDEKIND:
        if comb(k, k // 2) > i:
            return 2**i
    else:
        known_below = [table[-1]] + [v for j, v in (extra or {}).items() if len(table) <= j < k]
        if 2**i <= max(known_below) - 1:
            return 2**i
    raise error(f"need {what}({k}) to evaluate this bound; supply it explicitly")


def _former_table_bound(n, extra, table, error, what):
    if n < 0:
        raise InputError("n must be >= 0")
    return sum(_former_table_term(i, n - i, table, extra, error, what) for i in range(n + 1))


def _former_csg_witness_chain(n):
    if not 1 <= n <= 8:
        raise InputError("game witness construction supports 1 <= n <= 8")

    def count_at_least(k):
        return CSG_COUNTS[k] if k < len(CSG_COUNTS) else CSG_COUNTS[-1]

    i = 0
    while i + 1 <= n and 2 ** (i + 1) <= count_at_least(n - i - 1) - 1:
        i += 1
    return i, n - i


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def test_table_bounds_equal_the_former_evaluation():
    extras = (None, {7: 2414682040998}, {k: 10**9 for k in range(8, 25)})
    for n in range(400):
        for extra in extras:
            assert _outcome(monotone_bound, n, extra) == _outcome(
                _former_table_bound, n, extra, DEDEKIND, NeedDedekindError, "dedekind"), (n, extra)
            assert _outcome(csg_bound, n, extra) == _outcome(
                _former_table_bound, n, extra, CSG_COUNTS, NeedCsgCountError, "csg_count"), (n, extra)
    for n in range(10):
        assert _outcome(csg_witness_chain, n) == _outcome(_former_csg_witness_chain, n), n


def _former_profile(b, n, count):
    """bounds._profile before it skipped the depths far below the crossover:
    b^i built at every depth, so quadratic in n."""
    r, tail, prefixes = n + 1, [], 1
    for i in range(n + 1):
        cap = prefixes + 2
        capped = count(n - i, cap)
        if r > n and capped < cap:
            r = i
        if r <= n:
            tail.append(min(capped - 1, prefixes))
        prefixes *= b
    return r, tail, (r if b == 1 else (b**r - 1) // (b - 1)) + sum(tail)


def _former_table_profile(n, extra, kind):
    table, reaches, _, error, what = kind

    def count(k, cap):
        if k < len(table):
            return min(table[k], cap)
        if extra and k in extra:
            return min(extra[k], cap)
        low = max([table[-1], *(v for j, v in (extra or {}).items() if len(table) <= j < k)])
        if reaches(k, cap, low):
            return cap
        raise error(f"need {what}({k}) to evaluate this bound; supply it explicitly")

    return _former_profile(2, n, count)


def test_profile_equals_the_former_loop():
    for b in range(1, 5):
        for c in range(1, 5):
            for n in range(61):
                former = _former_profile(b, n, partial(tower_capped, c, b))
                r, tail, total = bounds._tower_profile(b, c, n)
                assert (r, list(tail), total) == former, (b, c, n)
    for b, c, n in [(2, 2, 10**4), (2, 2, 10**5), (3, 2, 10**4), (2, 5, 10**4)]:
        former = _former_profile(b, n, partial(tower_capped, c, b))
        assert bounds._tower_profile(b, c, n) == former, (b, c, n)
    extras = (None, {7: 2414682040998}, {k: 10**9 for k in range(8, 25)})
    cases = [(n, extra) for n in range(400) for extra in extras] + [(10**4, None), (10**5, None)]
    for n, extra in cases:
        for kind in (bounds._MONOTONE, bounds._GAMES):
            assert _outcome(bounds._table_profile, n, extra, kind) == _outcome(
                _former_table_profile, n, extra, kind), (n, extra, kind[-1])


def _linear_scan_profile(b, n, count, above):
    """bounds._profile before it galloped: one `above` test per skipped depth."""
    i, step = 0, b.bit_length()
    while b > 1 and i <= n and above(n - i, i * step + 2):
        i += 1
    r, tail, prefixes = n + 1, [], b**i
    for i in range(i, n + 1):
        cap = prefixes + 2
        capped = count(n - i, cap)
        if r > n and capped < cap:
            r = i
        if r <= n:
            tail.append(min(capped - 1, prefixes))
        prefixes *= b
    return r, tail, (r if b == 1 else (b**r - 1) // (b - 1)) + sum(tail)


def test_profile_search_equals_the_linear_scan(monkeypatch):
    profile, compared = bounds._profile, []

    def both(b, n, count, above):
        linear = _outcome(_linear_scan_profile, b, n, count, above)
        assert _outcome(profile, b, n, count, above) == linear, (b, n)
        compared.append(n)
        return profile(b, n, count, above)

    monkeypatch.setattr(bounds, "_profile", both)
    extras = (None, {7: 2414682040998}, {k: 10**9 for k in range(8, 25)})
    for n in [*range(80), 200, 1000, 5000]:
        for b, c in product(range(1, 5), range(1, 5)):
            _outcome(general_bound, b, c, n)
        for b in range(2, 5):
            _outcome(complete_dfa_bound, b, n)
        for extra in extras:
            _outcome(monotone_bound, n, extra)
            _outcome(csg_bound, n, extra)
    assert len(compared) == 83 * (9 + 3 + 6)  # b = 1 or c = 1 has a closed form


def test_profile_calls_above_logarithmically_often(monkeypatch):
    profile, depths = bounds._profile, []

    def counted(b, n, count, above):
        return profile(b, n, count, lambda k, e: depths.append(k) or above(k, e))

    monkeypatch.setattr(bounds, "_profile", counted)
    with pytest.raises(NeedDedekindError, match=r"need dedekind\(22\) "):
        monotone_bound(10**6)
    assert 0 < len(depths) <= 2 * (10**6).bit_length() + 2


def test_monotone_bound_reaches_a_missing_count_without_binomials(monkeypatch):
    calls = []
    monkeypatch.setattr(bounds, "comb", lambda n, k: calls.append(n) or comb(n, k))
    with pytest.raises(NeedDedekindError, match=r"need dedekind\(15\) "):
        monotone_bound(10_000)
    assert len(calls) <= 32


def test_general_bound_examples():
    assert general_bound(2, 2, 3) == 7
    # direct summation oracle
    assert general_bound(2, 2, 4) == sum(min(2**i, 2 ** (2 ** (4 - i)) - 1) for i in range(5)) == 11
    assert general_bound(3, 1, 5) == 0


def test_general_bound_equals_binary_formula():
    for n in range(9):
        direct = sum(min(2**i, 2 ** (2 ** (n - i)) - 1) for i in range(n + 1))
        assert general_bound(2, 2, n) == direct


def test_general_bound_values_small():
    assert [general_bound(2, 2, n) for n in range(7)] == [1, 2, 4, 7, 11, 19, 34]


def test_bounds_refuse_exactly_the_values_past_the_digit_limit(monkeypatch):
    # each bound, with its value from the former loop, or None where that loop needs a count
    cases = [(partial(general_bound, b, c, n), _former_profile(b, n, partial(tower_capped, c, b)))
             for b, c, n in product(range(1, 6), range(1, 6), range(0, 200, 2))]
    for n, (kind, bound) in product(range(90), [(bounds._MONOTONE, monotone_bound),
                                                (bounds._GAMES, csg_bound)]):
        former = _outcome(_former_table_profile, n, None, kind)
        cases.append((partial(bound, n), former if isinstance(former[1], list) else None))
    too_long = "the bound has more than {} decimal digits"
    for limit in (1, 3, 10, 40):
        monkeypatch.setattr(bounds, "DIGIT_LIMIT", limit)
        for bound, former in cases:
            if former is not None and former[2] < 10**limit:
                assert bound() == former[2], (bound, limit)
            elif former is not None:
                with pytest.raises(CapacityError, match=f"^{too_long.format(limit)}$"):
                    bound()
            else:  # past the limit, or short of a count
                with pytest.raises(CapacityError):
                    bound()


def test_library_refuses_a_long_bound_before_evaluating_it(monkeypatch):
    def refuse(*args):
        raise AssertionError("the bound was evaluated")

    monkeypatch.setattr(bounds, "tower_capped", refuse)
    too_long = "^the bound has more than 1000000 decimal digits$"
    for call in (partial(general_bound, 2, 2, 10**7), partial(complete_dfa_bound, 2, 10**7),
                 partial(general_bound, 3, 5, 3 * 10**6), partial(crossover, 2, 2, 10**7),
                 partial(monotone_bound, 10**7)):  # a digit error, not NeedDedekindError
        with pytest.raises(CapacityError, match=too_long):
            call()


def test_degenerate_signatures_take_the_closed_form():
    assert general_bound(2, 1, 10**6) == 0 and general_bound(1, 3, 10**6) == 10**6 + 1
    assert general_bound_terms(1, 2, 5) == [1] * 6 and general_bound_terms(3, 1, 3) == [0] * 4
    r, tail, total = bounds._tower_profile(1, 4, 5)
    assert (r, list(tail), total) == (6, [], 6)


def test_degenerate_signatures_hold_no_tail():
    calls = (partial(general_bound, 2, 1, 10**6), partial(general_bound, 1, 2, 10**6),
             partial(crossover, 1, 2, 10**6), partial(count_max, 1, 2, 10**6))
    tracemalloc.start()
    try:
        for call in calls:
            tracemalloc.reset_peak()
            call()
            assert tracemalloc.get_traced_memory()[1] < 1 << 20, call
    finally:
        tracemalloc.stop()
    assert len(general_bound_terms(1, 2, 10**6)) == 10**6 + 1  # the terms are still built


def test_complete_dfa_bound_examples():
    assert complete_dfa_bound(2, 3) == (2, 8)
    assert complete_dfa_bound(2, 0) == (0, 2)
    with pytest.raises(InputError):
        complete_dfa_bound(1, 3)


def test_complete_dfa_bound_r_is_minimal():
    for k in range(2, 5):
        for n in range(7):
            r, _ = complete_dfa_bound(k, n)
            assert k**r >= 2 ** (k ** (n - r)) - 1
            if r > 0:
                assert k ** (r - 1) < 2 ** (k ** (n - r + 1)) - 1


def test_complete_equals_partial_plus_one():
    for k in range(2, 5):
        for n in range(7):
            assert complete_dfa_bound(k, n)[1] == general_bound(k, 2, n) + 1


def test_family_bound_examples():
    n = 3
    sizes = [2 ** (2 ** (n - i)) - 1 for i in range(n + 1)]
    assert family_bound(2, sizes) == general_bound(2, 2, n)
    assert family_bound(2, (19, 5, 2, 1)) == 6
    assert family_bound(2, (0, 0, 0)) == 0


def test_cp_family_monotone_n3():
    from maxcomplex.lattice import monotone_nonzero

    seed = [ColoredFunction.from_mask(3, m) for m in monotone_nonzero(3)]
    assert cp_family(seed) == [19, 5, 2, 1]


def test_cp_family_singleton():
    f = ColoredFunction.from_language(3, ["011"])
    assert cp_family([f])[0] == 1


def test_cp_family_of_one_member_is_its_depth_counts():
    # every table with b <= 3, c <= 3 and b^n <= 9; the union pass of [f, f] is
    # the former evaluation, and g, a fresh equal function, keeps its own counts
    for b, c, n in product(range(1, 4), range(1, 4), range(4)):
        if b**n > 9:
            continue
        for values in product(range(c), repeat=b**n):
            f, g = (ColoredFunction(b, n, c, bytes(values)) for _ in range(2))
            family = cp_family([f])
            assert family == cp_family([f, f])
            if any(values):
                assert family == states_by_depth(g)
            else:
                assert family == [0] * (n + 1) and states_by_depth(g) == []
            family[0] = -1  # the caller's list, not the kept counts
            assert cp_family([f]) == cp_family([g]) == cp_family([f, g])


def test_cp_family_all_binary_n2():
    seed = [ColoredFunction.from_mask(2, m) for m in range(1, 16)]
    assert cp_family(seed) == [15, 3, 1]


def test_cp_family_rejects_mixed_signatures():
    with pytest.raises(InputError):
        cp_family([ColoredFunction.from_mask(2, 1), ColoredFunction.from_mask(3, 1)])


def test_monotone_bound_table():
    assert [monotone_bound(n) for n in range(11)] == list(MONOTONE_STATES)


def test_monotone_bound_needs_dedekind_eventually():
    with pytest.raises(NeedDedekindError):
        monotone_bound(42)
    # supplying the missing count unblocks the term
    m7 = 2414682040998
    value = monotone_bound(42, dedekind={7: m7})
    assert value > monotone_bound(10)


def test_matches_family_bound_via_enumeration():
    from maxcomplex.lattice import monotone_nonzero

    for n in range(6):
        seed = [ColoredFunction.from_mask(n, m) for m in monotone_nonzero(n)]
        assert family_bound(2, cp_family(seed)) == monotone_bound(n)


def test_csg_bound_values():
    assert csg_bound(8) == 47
    assert csg_bound(3) == 1 + 2 + 2 + 1 == 6
    assert csg_bound(0) == 1
    # depths 0..11 reach arities 18..7, whose games outnumber the prefixes
    assert csg_bound(18) == sum(2**i for i in range(12)) + sum(c - 1 for c in CSG_COUNTS[:7])


def test_csg_bound_needs_counts_eventually():
    # n = 24 is the first bound with a term min(2^16, |C_8| - 1)
    csg_bound(23)
    with pytest.raises(NeedCsgCountError):
        csg_bound(24)
    assert csg_bound(24, csg_counts={k: 10**9 for k in range(8, 25)}) > 0


C8 = 16175190  # games of arity 8, constants included


def test_csg_bound_takes_its_lower_bound_from_a_supplied_count():
    # |C_9| >= |C_8|, so every term at arity >= 9 with 2^i <= |C_8| - 1 is 2^i
    counts = CSG_COUNTS + (C8,)
    for n in range(24, 33):
        direct = sum(2**i if n - i >= len(counts) else min(2**i, counts[n - i] - 1)
                     for i in range(n + 1))
        assert csg_bound(n, {8: C8}) == direct, n
    assert csg_bound(32, {8: C8}) == sum(2**i for i in range(24)) + sum(c - 1 for c in counts)
    with pytest.raises(NeedCsgCountError, match=r"need csg_count\(9\) "):
        csg_bound(33, {8: C8})  # the term at arity 9 is min(2^24, |C_9| - 1), 2^24 > |C_8|
    with pytest.raises(NeedCsgCountError, match=r"need csg_count\(8\) "):
        csg_bound(25, {9: 10**9})  # a count above k says nothing about arity k
    # a count at an arity the table covers is ignored, so it bounds no missing arity:
    # the arity-9 term at depth 16 is min(2^16, |C_9| - 1), 2^16 > |C_7| of the table
    with pytest.raises(NeedCsgCountError, match=r"need csg_count\(9\) "):
        csg_bound(25, {7: 10**12})
    for n in (24, 25, 33):
        assert _outcome(csg_bound, n, {7: 2414682040998}) == _outcome(csg_bound, n), n


def test_bounds_nondecreasing_in_n():
    for fn in (lambda n: general_bound(2, 2, n),
               lambda n: general_bound(3, 2, n),
               monotone_bound,
               csg_bound):
        values = [fn(n) for n in range(10)]
        assert values == sorted(values)


def test_builtin_tables_match_enumerations():
    from maxcomplex.lattice import enumerate_monotone
    from maxcomplex.csg import enumerate_csg, is_csg_mask

    for n in range(6):
        assert DEDEKIND[n] == len(enumerate_monotone(n))
    for n in range(8):
        assert CSG_COUNTS[n] == len(enumerate_csg(n))
    assert all(is_csg_mask(7, m) for m in enumerate_csg(7))
