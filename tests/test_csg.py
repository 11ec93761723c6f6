from array import array
from itertools import product

import pytest

from maxcomplex.core import (
    CapacityError, ColoredFunction, InputError, _mask_is_early, rank, var_mask,
)
from maxcomplex.bounds import CSG_COUNTS, csg_bound
from maxcomplex.minauto import state_complexity, states_by_depth
from maxcomplex.witness import NoWitnessError
from maxcomplex.lattice import (
    AdequacyError, LatticeMap, enumerate_monotone, named_embedding, search_embedding, sub_masks,
)
from maxcomplex import csg
from maxcomplex.csg import (
    _stairs,
    build_csg_witness,
    check_csg_relation,
    count_csg,
    csg_nonzero,
    csg_nonzero_poset,
    csg_witness_chain,
    enumerate_csg,
    enumerate_early,
    is_csg_mask,
    is_majorization_up_set,
    majorization_leq,
    majorization_poset,
    search_csg_relation,
    shadow_mask,
)

# Hasse diagram of the majorization order on {0,1}^4
E4_COVER_EDGES = {
    ("0000", "0001"), ("0001", "0010"), ("0010", "0100"), ("0010", "0011"),
    ("0011", "0101"), ("0100", "1000"), ("0100", "0101"), ("0101", "0110"),
    ("0101", "1001"), ("0110", "1010"), ("0110", "0111"), ("1000", "1001"),
    ("1001", "1010"), ("0111", "1011"), ("1010", "1100"), ("1010", "1011"),
    ("1011", "1101"), ("1100", "1101"), ("1101", "1110"), ("1110", "1111"),
}


def test_majorization_examples():
    assert majorization_leq("0110", "1010")
    assert not majorization_leq("1001", "0110")
    assert not majorization_leq("0110", "1001")
    assert majorization_leq("0101", "0101")
    with pytest.raises(InputError):
        majorization_leq("01", "011")


def test_majorization_covers_match_diagram():
    poset = majorization_poset(4)
    got = {
        (format(poset.labels[a], "04b"), format(poset.labels[b], "04b"))
        for a, b in poset.covers()
    }
    assert got == E4_COVER_EDGES


def _word_level_early_count(n):
    """Count early functions of arity n straight from the `is_early` docstring.

    A function is a set of words in {0,1}^n.  It is early iff for all i < j
    and words y with y(i) = y(j) = 0, y+e_j in the set implies y+e_i in it.
    No library code is used, so this is an oracle independent of both
    `enumerate_early` and the bit-shift test `_mask_is_early`.
    """
    words = list(product((0, 1), repeat=n))
    index = {w: k for k, w in enumerate(words)}
    rules = []  # (k_j, k_i): word k_j accepted implies word k_i accepted
    for y in words:
        for i in range(n):
            for j in range(i + 1, n):
                if y[i] == 0 and y[j] == 0:
                    yi = y[:i] + (1,) + y[i + 1:]
                    yj = y[:j] + (1,) + y[j + 1:]
                    rules.append((index[yj], index[yi]))
    return sum(
        1
        for f in range(1 << len(words))
        if all(not f >> kj & 1 or f >> ki & 1 for kj, ki in rules)
    )


def test_early_counts_match_definition():
    # two brute-force oracles: the bit-shift filter and a word-level scan
    for n in range(5):
        brute = sum(1 for m in range(1 << (1 << n)) if _mask_is_early(n, m))
        assert len(enumerate_early(n)) == brute
    assert [len(enumerate_early(n)) for n in range(5)] == [2, 4, 12, 64, 800]
    assert [_word_level_early_count(n) for n in range(5)] == [2, 4, 12, 64, 800]


def test_early_count_n5():
    masks = enumerate_early(5)
    assert len(masks) == 36864
    assert masks == sorted(masks)
    assert all(_mask_is_early(5, m) for m in masks[:50] + masks[-50:])


def test_csg_counts():
    assert [len(enumerate_csg(n)) for n in range(8)] == [2, 3, 5, 10, 27, 119, 1173, 44315]
    assert enumerate_csg(6) is enumerate_csg(6)  # cached: one object per arity


def _former_enumerate_csg(n):
    """The comprehension that enumerate_csg ran before it shared `lattice._pairs`."""
    if n == 0:
        return (0, 1)
    prev = _former_enumerate_csg(n - 1)
    closed = [(g | shadow_mask(n - 1, g), g) for g in prev]
    shift = 1 << (n - 1)
    return tuple((h << shift) | g for h in prev for need, g in closed if need & ~h == 0)


def test_csg_equals_the_former_comprehension():
    for n in range(8):
        assert enumerate_csg(n) == _former_enumerate_csg(n), n


def test_count_csg_equals_the_listing():
    for n in range(8):
        assert count_csg(n) == len(enumerate_csg(n)) == CSG_COUNTS[n], n


def test_count_csg_keeps_the_listing_guards():
    with pytest.raises(InputError, match="n must be >= 0"):
        count_csg(-1)
    with pytest.raises(CapacityError, match="beyond n=7"):
        count_csg(8)


def _former_dominance_up_sets(n, weight):
    """The per-class loop enumerate_early used before: within-class upper-bound
    lists from staircases, then every subset checked member by member."""
    members = [r for r in range(1 << n) if bin(r).count("1") == weight]
    k = len(members)
    stairs = [_stairs(n, r) for r in members]
    ups = []
    for a in range(k):
        ups.append([b for b in range(k) if stairs[a] & ~stairs[b] == 0])
    out = []
    for subset in range(1 << k):
        if all(
            all((subset >> b) & 1 for b in ups[a])
            for a in range(k)
            if (subset >> a) & 1
        ):
            mask = 0
            for a in range(k):
                if (subset >> a) & 1:
                    mask |= 1 << members[a]
            out.append(mask)
    return out


def test_early_functions_equal_the_former_weight_class_product():
    """enumerate_early listed the products of one up set per weight class, sorted."""
    for n in range(6):
        combos = [0]
        for weight in range(n + 1):
            combos = [base | extra for base in combos
                      for extra in _former_dominance_up_sets(n, weight)]
        assert enumerate_early(n) == sorted(combos), n


def test_listing_early_functions_builds_no_majorization_poset(monkeypatch):
    def refuse(n):
        raise AssertionError(f"majorization_poset({n}) was built")

    monkeypatch.setattr(csg, "majorization_poset", refuse)
    masks = enumerate_early(5)
    assert type(masks) is list and len(masks) == 36864


def test_is_csg_mask_checks_the_arity_first():
    with pytest.raises(CapacityError, match="cells exceeds capacity"):
        is_csg_mask(40, 0)
    with pytest.raises(InputError, match="bad signature"):
        is_csg_mask(-1, 0)


def test_cubes_past_their_arity_cap_are_refused():
    from maxcomplex.lattice import MAX_CUBE_ARITY, boolean_cube

    # once a MemoryError under an address-space limit, and a 2^40-rank sum
    for build, args in [(boolean_cube, (40,)), (majorization_poset, (40,)),
                        (shadow_mask, (40, 1)), (boolean_cube, (MAX_CUBE_ARITY + 1,)),
                        (majorization_poset, (MAX_CUBE_ARITY + 1,))]:
        with pytest.raises(CapacityError):
            build(*args)
    # the search and the certificates reach i <= 12: those cubes still build (uncached here)
    assert len(boolean_cube.__wrapped__(MAX_CUBE_ARITY)) == 1 << MAX_CUBE_ARITY
    assert len(majorization_poset.__wrapped__(MAX_CUBE_ARITY)) == 1 << MAX_CUBE_ARITY


def _early_monotone_filter_numpy(n, masks):
    """The filter enumerate_csg once ran over every monotone mask of arity 6."""
    import numpy as np

    arr = np.frombuffer(masks, dtype=np.uint64)
    keep = np.ones(len(arr), dtype=bool)
    full = np.uint64((1 << (1 << n)) - 1)
    for i in range(n):
        for j in range(i + 1, n):
            sel = np.uint64(var_mask(n, j) & ~var_mask(n, i))
            delta = np.uint64((1 << (n - 1 - i)) - (1 << (n - 1 - j)))
            keep &= (((arr & sel) << delta) & (~arr & full)) == 0
    return tuple(int(v) for v in arr[keep])


def test_csg_equals_monotone_intersect_early():
    # the game-pair recursion against filters over all monotone functions
    for n in range(6):
        assert enumerate_csg(n) == tuple(m for m in enumerate_monotone(n) if is_csg_mask(n, m))
        if n <= 4:
            assert enumerate_csg(n) == tuple(
                m for m in enumerate_monotone(n) if is_majorization_up_set(n, m))
    monotone6 = enumerate_monotone(6)
    assert enumerate_csg(6) == _early_monotone_filter_numpy(6, monotone6)
    # the vectorized filter is is_csg_mask on the games plus a spread of non-games
    sample = array("Q", sorted(set(enumerate_csg(6)) | set(monotone6[::4001])))
    kept = _early_monotone_filter_numpy(6, sample)
    assert kept == tuple(m for m in sample if is_csg_mask(6, m))
    assert len(sample) > len(kept) == 1173


def _rows_by_relation(labels, leq):
    """Up-set rows of a relation, pair by pair."""
    return [sum(1 << b for b, y in enumerate(labels) if leq(x, y)) for x in labels]


def test_game_rows_from_bit_columns_match_callback():
    for j in range(1, 7):
        labels = csg_nonzero(j)
        assert csg_nonzero_poset(j).rows == _rows_by_relation(labels, lambda a, b: a & ~b == 0)


def _rank_leq(n, rx, ry):
    """Majorization of the n-digit words of ranks rx and ry, prefix by prefix."""
    sx = sy = 0
    for pos in range(n - 1, -1, -1):
        sx += (rx >> pos) & 1
        sy += (ry >> pos) & 1
        if sx > sy:
            return False
    return True


def test_majorization_staircases_match_prefix_sums():
    for n in range(9):
        poset = majorization_poset(n)
        assert poset.labels == tuple(range(1 << n))
        assert poset.rows == _rows_by_relation(range(1 << n), lambda a, b: _rank_leq(n, a, b))
    for n in range(7):
        words = ["".join(w) for w in product("01", repeat=n)]
        for rx, x in enumerate(words):
            for ry, y in enumerate(words):
                assert majorization_leq(x, y) == _rank_leq(n, rx, ry), (x, y)


def _covers_by_definition(poset):
    n = len(poset)
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and poset.leq(a, b)
        and not any(c not in (a, b) and poset.leq(a, c) and poset.leq(c, b) for c in range(n))
    ]


def test_covers_match_definition():
    for poset in (majorization_poset(4), csg_nonzero_poset(5)):
        assert poset.covers() == _covers_by_definition(poset)
    assert len(csg_nonzero_poset(6).covers()) == 3263


def test_csg_equals_majorization_up_sets():
    for n in range(5):
        games = set(enumerate_csg(n))
        for mask in range(1 << (1 << n)):
            assert (mask in games) == is_majorization_up_set(n, mask)


def test_check_csg_relation_from_search():
    out = search_csg_relation(4, 4, budget=10**6)
    assert out.status == "found"
    cert = check_csg_relation(4, 4, out.map)
    assert cert.kind == "csg"
    assert len(cert.covered) == 9
    assert len(csg_nonzero(4)) == 26 and len(csg_nonzero(3)) == 9


def test_csg_certificate_uses_majorization_header():
    from maxcomplex.lattice import format_certificate, parse_certificate, verify_certificate

    out = search_csg_relation(4, 4, budget=10**6)
    cert = check_csg_relation(4, 4, out.map)
    text = format_certificate(cert)
    assert "order: majorization" in text
    again = verify_certificate(parse_certificate(text))
    assert again.map.image_labels() == cert.map.image_labels()


def test_check_csg_relation_rejects_non_isotone():
    poset = csg_nonzero_poset(2)
    top = len(poset) - 1
    m = LatticeMap(majorization_poset(1), poset, (top, 0))
    with pytest.raises(AdequacyError):
        check_csg_relation(1, 2, m)


def test_certify_rejects_negative_i_with_an_input_error():
    with pytest.raises(InputError, match="n must be >= 0, got -1"):
        check_csg_relation(-1, 3, named_embedding("post_alh"))
    with pytest.raises(InputError, match="n must be >= 0, got -1"):
        majorization_poset(-1)


def test_search_rejects_negative_i_and_large_j():
    with pytest.raises(InputError, match="i must be >= 0"):
        search_csg_relation(-1, 3)
    with pytest.raises(CapacityError):
        search_csg_relation(10, 7)
    with pytest.raises(CapacityError):
        csg_nonzero_poset(7)


def test_search_trivial_and_pigeonhole():
    out = search_csg_relation(0, 1, budget=100)
    assert out.status == "found"
    assert out.map.image_labels() == (0b10,)  # the point maps to "accept 1"
    assert search_csg_relation(1, 1, budget=100).status == "found"
    assert search_csg_relation(3, 2, budget=100).status == "none"


def test_shadow_mask():
    full = 1 << rank("1111", 2)
    shadow = shadow_mask(4, full)
    got = {format(r, "04b") for r in range(16) if (shadow >> r) & 1}
    assert got == {"0111", "1011", "1101", "1110"}


def test_witness_chain_shape():
    assert csg_witness_chain(8) == (4, 4)
    assert csg_witness_chain(5) == (2, 3)
    assert csg_witness_chain(2) == (1, 1)


# (status, nodes) of the game witness search at n = 1..8, without and with the
# earliness conditions: each ends far below the default budget of 10^8, so
# build_csg_witness takes none
WITNESS_SEARCHES = {
    False: [("found", 1), ("found", 2), ("found", 2), ("found", 4),
            ("found", 4), ("found", 8), ("found", 21), ("found", 16)],
    True: [("found", 1), ("found", 2), ("found", 2), ("none", 6),
           ("found", 6), ("none", 17), ("none", 412), ("none", 147)],
}


@pytest.mark.parametrize("require_early", [False, True])
def test_witness_searches_end_in_few_nodes(require_early):
    got = []
    for n in range(1, 9):
        i, j = csg_witness_chain(n)
        shadow = (lambda mask: shadow_mask(j, mask)) if require_early else None
        out = search_embedding("csg", i, j, shadow=shadow)
        got.append((out.status, out.nodes))
    assert got == WITNESS_SEARCHES[require_early]


def test_csg_witness_n8_attains_bound():
    w, cert = build_csg_witness(8)
    f = w.as_colored()
    assert state_complexity(f) == csg_bound(8) == 47
    assert states_by_depth(f) == [1, 2, 4, 8, 16, 9, 4, 2, 1]
    assert cert.kind == "csg"


def test_csg_witness_early_variant_n5():
    w, _ = build_csg_witness(5, require_early=True)
    f = w.as_colored()
    assert state_complexity(f) == csg_bound(5) == 14
    assert is_csg_mask(5, w.mask)


def test_no_early_witness_for_n8():
    # the chain profile cannot be realized by an early function at n=8: the
    # cross-boundary earliness constraints are exhaustively refutable
    with pytest.raises(NoWitnessError):
        build_csg_witness(8, require_early=True)


def test_no_early_witness_for_n4_matches_brute_force():
    with pytest.raises(NoWitnessError):
        build_csg_witness(4, require_early=True)
    best = max(
        state_complexity(ColoredFunction.from_mask(4, m))
        for m in enumerate_csg(4) if m
    )
    assert best == 9 < csg_bound(4) == 10


def test_csg_complexity_law_small():
    for n in range(1, 6):
        bound = csg_bound(n)
        values = [
            state_complexity(ColoredFunction.from_mask(n, m))
            for m in enumerate_csg(n) if m
        ]
        assert max(values) <= bound
        # the bound is attained by an actual game at these arities
        if n in (1, 2, 3, 5):
            assert max(values) == bound


@pytest.mark.parametrize("j", range(1, 7))
def test_game_substitutions_are_games(j):
    # why the certifier checks only that each image is a nonzero j-ary game
    games = set(enumerate_csg(j - 1))
    assert all(set(sub_masks(j, mask)) <= games for mask in csg_nonzero(j))


def test_csg_map_rejects_foreign_masks():
    with pytest.raises(AdequacyError):
        LatticeMap.from_labels(majorization_poset(1), csg_nonzero_poset(2),
                               (0b0110, 0b1111))  # 0110 is not monotone
