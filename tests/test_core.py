import copy
import random

import pytest

from maxcomplex.core import (
    MAX_TABLE_CELLS,
    CapacityError,
    ColoredFunction,
    InputError,
    MonotoneFunction,
    _mask_is_early,
    _mask_is_monotone,
    as_word,
    is_early,
    is_monotone,
    is_zero,
    rank,
    residual,
    table_cells,
    unrank,
    upward_closure_mask,
    var_mask,
)
from maxcomplex.lattice import sub_masks

ASIAN = ColoredFunction.from_language(3, ["011", "100", "101", "110", "111"])
MAJORITY = ColoredFunction.from_language(3, ["011", "101", "110", "111"])


def test_rank_examples():
    assert rank("", 2) == 0
    assert rank("101", 2) == 5
    assert rank("12", 3) == 5


def test_rank_rejects_bad_digits():
    with pytest.raises(InputError):
        rank("2", 2)
    with pytest.raises(InputError):
        rank((0, 3), 3)


@pytest.mark.parametrize("word,bad", [("1٣", "٣"), ("0a", "a"), ("²", "²"),
                                      ([1.9, 0.2], 1.9), (["1", "٣"], "1"), ((1, None), None)])
def test_words_take_only_ascii_digits(word, bad):
    from maxcomplex.minauto import mn_equivalent

    assert as_word("") == () and as_word("0129") == (0, 1, 2, 9)
    assert as_word([True, 0, 2]) == (1, 0, 2) and as_word(()) == ()
    with pytest.raises(InputError, match=repr(bad)):
        as_word(word)
    with pytest.raises(InputError, match=repr(bad)):
        mn_equivalent(word, "0", ASIAN)
    with pytest.raises(InputError, match=repr(bad)):
        ColoredFunction.from_language(len(word), [word])


@pytest.mark.parametrize("b,length", [(2, 0), (2, 3), (3, 2), (4, 3)])
def test_rank_unrank_round_trip(b, length):
    for index in range(b**length):
        word = unrank(index, length, b)
        assert rank(word, b) == index


def test_rank_is_lexicographic():
    for b, length in ((2, 4), (3, 3)):
        words = sorted(unrank(i, length, b) for i in range(b**length))
        assert [rank(w, b) for w in words] == list(range(b**length))


def test_residual_asian_prefix0():
    g = residual(ASIAN, "0")
    assert g.n == 2
    assert g.support() == [as_word("11")]


def test_residual_empty_prefix_is_identity():
    assert residual(ASIAN, "") == ASIAN


def test_residual_majority_prefix11_constant_one():
    g = residual(MAJORITY, "11")
    # oracle: enumerate both completions of the prefix
    assert g.n == 1
    assert [g.value((x,)) for x in (0, 1)] == [MAJORITY.value((1, 1, x)) for x in (0, 1)]
    assert g.table == bytes([1, 1])


def test_residual_matches_table_lookup():
    for prefix_len in range(4):
        for p in range(2**prefix_len):
            prefix = unrank(p, prefix_len, 2)
            g = residual(ASIAN, prefix)
            for r in range(2 ** (3 - prefix_len)):
                suffix = unrank(r, 3 - prefix_len, 2)
                assert g.value(suffix) == ASIAN.value(prefix + suffix)


def test_residual_rejects_long_prefix():
    with pytest.raises(InputError):
        residual(ASIAN, "0000")


def test_residual_composition_exhaustive_n3():
    for mask in range(256):
        f = ColoredFunction.from_mask(3, mask)
        for k in range(4):
            for l in range(4 - k):
                for u_ix in range(2**k):
                    for v_ix in range(2**l):
                        u, v = unrank(u_ix, k, 2), unrank(v_ix, l, 2)
                        assert residual(residual(f, u), v) == residual(f, u + v)


def test_residual_composition_random_n4():
    rng = random.Random(7)
    for _ in range(300):
        f = ColoredFunction.from_mask(4, rng.getrandbits(16))
        k, l = rng.randint(0, 4), 0
        l = rng.randint(0, 4 - k)
        u = unrank(rng.randrange(2**k), k, 2)
        v = unrank(rng.randrange(2**l), l, 2)
        assert residual(residual(f, u), v) == residual(f, u + v)


def test_is_zero():
    assert is_zero(ColoredFunction.from_language(3, []))
    assert not is_zero(ASIAN)
    assert not is_zero(ColoredFunction(2, 1, 3, bytes([2, 2])))


def test_is_monotone_examples():
    assert is_monotone(MAJORITY)
    assert not is_monotone(ColoredFunction.from_language(3, ["001"]))
    assert is_monotone(ColoredFunction.from_mask(3, 0xFF))


def test_is_monotone_requires_binary():
    with pytest.raises(InputError):
        is_monotone(ColoredFunction(3, 1, 2, bytes([0, 1, 1])))


def test_is_early_examples():
    assert not is_early(ColoredFunction.from_language(2, ["01"]))
    assert is_early(ColoredFunction.from_language(2, ["10"]))


def test_early_count_n2():
    count = sum(1 for m in range(16) if _mask_is_early(2, m))
    assert count == 12


def test_upward_closure():
    closed = upward_closure_mask(3, 1 << rank("001", 2))
    members = {r for r in range(8) if (closed >> r) & 1}
    assert members == {rank(w, 2) for w in ("001", "011", "101", "111")}


def test_mask_is_monotone_matches_pointwise_definition():
    for n in range(5):
        # word v is pointwise above word u iff the digits of u lie among those of v
        ups = [sum(1 << v for v in range(1 << n) if u & ~v == 0) for u in range(1 << n)]
        for mask in range(1 << (1 << n)):
            pointwise = all(ups[u] & ~mask == 0 for u in range(1 << n) if (mask >> u) & 1)
            assert _mask_is_monotone(n, mask) == pointwise, (n, mask)
        for out_of_range in (-1, 1 << (1 << n)):
            with pytest.raises(InputError, match="out of range"):
                _mask_is_monotone(n, out_of_range)


def test_monotone_function_validates():
    MonotoneFunction(3, MAJORITY.mask)
    with pytest.raises(InputError):
        MonotoneFunction(3, 1 << rank("001", 2))


def test_mask_predicates_check_the_arity_first():
    # -1 once raised a bare "negative shift count", 40 a MemoryError from 2^(2^40)
    for check in (MonotoneFunction, _mask_is_monotone, _mask_is_early):
        with pytest.raises(InputError, match="bad signature"):
            check(-1, 0)
        with pytest.raises(CapacityError, match="cells exceeds capacity"):
            check(40, 0)


def test_var_mask_is_the_former_sum_and_checks_the_arity():
    for n in range(13):
        for pos in range(n):
            place = 1 << (n - 1 - pos)
            assert var_mask(n, pos) == sum(1 << r for r in range(1 << n) if r & place), (n, pos)
    assert var_mask(22, 21).bit_count() == 1 << 21  # blocks doubled, not 2^22 terms summed
    with pytest.raises(CapacityError, match="cells exceeds capacity"):
        var_mask(40, 0)  # once a sum over 2^40 ranks


def test_table_cells_caps_the_arity_of_a_one_letter_alphabet():
    # one cell, yet an n-digit word and n + 1 residual levels
    assert table_cells(1, MAX_TABLE_CELLS, 2) == 1
    with pytest.raises(CapacityError, match=f"^arity {MAX_TABLE_CELLS + 1} exceeds capacity"):
        table_cells(1, MAX_TABLE_CELLS + 1, 2)
    with pytest.raises(CapacityError, match="^arity 100000000000 exceeds capacity"):
        ColoredFunction(1, 10**11, 2, b"\1")


def test_monotone_substitution_and_leq():
    maj = MonotoneFunction(3, MAJORITY.mask)
    low, high = (MonotoneFunction(2, m) for m in sub_masks(3, maj.mask))
    # majority with first bit 0 is AND, with first bit 1 is OR
    assert low.mask == ColoredFunction.from_language(2, ["11"]).mask
    assert high.mask == ColoredFunction.from_language(2, ["01", "10", "11"]).mask
    assert low.leq(high)
    assert not high.leq(low)


def test_residual_preserves_monotone_n5():
    from maxcomplex.lattice import enumerate_monotone

    half = 1 << 4
    for mask in enumerate_monotone(5):
        assert _mask_is_monotone(4, mask & ((1 << half) - 1))
        assert _mask_is_monotone(4, mask >> half)


def test_residual_preserves_early_monotone_n5():
    from maxcomplex.csg import enumerate_csg, is_csg_mask

    half = 1 << 4
    for mask in enumerate_csg(5):
        for sub in (mask & ((1 << half) - 1), mask >> half):
            assert _mask_is_monotone(4, sub) and _mask_is_early(4, sub)
            if sub:
                assert is_csg_mask(4, sub)


def test_mask_view_is_the_bitwise_table():
    rng = random.Random(5)
    for n in range(8):
        cells = 1 << n
        for mask in [0, (1 << cells) - 1] + [rng.getrandbits(cells) for _ in range(20)]:
            f = ColoredFunction.from_mask(n, mask)
            assert f.table == bytes((mask >> r) & 1 for r in range(cells))
            assert f.mask == mask
            assert ColoredFunction(2, n, 2, f.table).mask == mask


def test_from_mask_rejects_masks_out_of_range():
    for n, mask in ((2, 1 << 10), (2, 1 << 4), (2, -1), (0, 2), (5, -(1 << 40))):
        with pytest.raises(InputError, match="out of range"):
            ColoredFunction.from_mask(n, mask)
    with pytest.raises(CapacityError):
        ColoredFunction.from_mask(64, -1)  # capacity is checked first
    with pytest.raises(InputError, match="b=2, c=2"):
        ColoredFunction(3, 1, 2, bytes(3)).mask


@pytest.mark.parametrize("b,n,c,table", [
    (2, 3, 2, b"\2" + bytes(7)),  # first cell
    (2, 3, 2, bytes(3) + b"\5" + bytes(4)),  # middle
    (2, 3, 2, b"\1" * 7 + b"\xff"),  # last cell
    (3, 2, 3, b"\0\1\2\3\2\1\0\1\2"),  # the one color past range, mid-table
    (2, 2, 1, b"\0\0\1\0"),  # c = 1: only color 0
])
def test_color_check_finds_a_cell_out_of_range_anywhere(b, n, c, table):
    with pytest.raises(InputError, match=rf"table entry out of color range \[{c}\]"):
        ColoredFunction(b, n, c, table)


def test_color_check_admits_every_color_below_c():
    assert ColoredFunction(2, 2, 1, bytes(4)).table == bytes(4)
    assert ColoredFunction(2, 8, 256, bytes(range(256))).table == bytes(range(256))
    assert ColoredFunction(2, 8, 255, bytes(range(255)) + b"\0").c == 255
    with pytest.raises(InputError, match=r"out of color range \[255\]"):
        ColoredFunction(2, 8, 255, bytes(range(256)))


def test_support_lists_the_nonzero_cells_in_rank_order():
    f = ColoredFunction(3, 2, 4, b"\0\3\0\0\1\0\0\0\2")
    assert f.support() == [(0, 1), (1, 1), (2, 2)]
    assert ColoredFunction(2, 4, 2, bytes(16)).support() == []
    assert ColoredFunction(2, 0, 2, b"\1").support() == [()]


def test_n0_language_is_legal():
    f = ColoredFunction.from_words(2, 0, 2, {(): 1})
    assert f.value(()) == 1
    assert residual(f, ()) == f


def _value_instances():
    """One instance of each value class, built by the library."""
    from maxcomplex import lattice, minauto

    f = ColoredFunction(2, 2, 2, bytes([0, 1, 1, 0]))
    cert = lattice.check_relation(2, 3, lattice.named_embedding("post_alh"))
    return [f, MonotoneFunction(2, 0b1000), minauto.minimal_pdfa(f), cert.map, cert,
            lattice.lattice_kind("monotone"), lattice.search_relation(2, 3)]


def test_value_classes_behave_like_frozen_records():
    values = _value_instances()
    assert len({type(v) for v in values}) == 7
    for value in values:
        cls, fields = type(value), type(value).__slots__
        record = tuple(getattr(value, name) for name in fields)
        assert value._key == record
        by_keyword, by_position = cls(**dict(zip(fields, record))), cls(*record)
        assert value == by_keyword == by_position and value is not by_keyword
        assert copy.copy(value) == value
        assert value != record and record != value  # not a tuple
        assert repr(value).startswith(f"{cls.__name__}({fields[0]}={record[0]!r}, ")
        assert hash(value) == hash(by_keyword) == hash(record)
        for name in (*fields, "_key", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert tuple(getattr(value, name) for name in fields) == record


def test_value_classes_keep_their_checks():
    from maxcomplex.lattice import LatticeMap, boolean_cube

    for args, message in [((2, 2, 2, bytes(3)), r"table length 3 != b\^n = 4"),
                          ((2, 1, 2, bytes([0, 2])), r"table entry out of color range \[2\]"),
                          ((0, 1, 2, bytes(1)), "bad signature b=0, n=1, c=2"),
                          ((2, 1, 2, [0, 1]), "table must be bytes, not list"),
                          ((2, 1, 2, bytearray(2)), "table must be bytes, not bytearray"),
                          ((2, 1, 2, (0, 1)), "table must be bytes, not tuple"),
                          ((2, 1, 2, memoryview(b"\0\1")), "table must be bytes, not memoryview"),
                          ((2, 1, 2, "01"), "table must be bytes, not str"),
                          ((2.0, 1, 2, b"\0\1"), r"b, n and c must be ints, got b=2\.0, n=1, c=2"),
                          ((2, 1.0, 2, b"\0\1"), r"must be ints, got b=2, n=1\.0, c=2"),
                          ((2, 1, "2", b"\0\1"), "must be ints, got b=2, n=1, c='2'")]:
        with pytest.raises(InputError, match=message):
            ColoredFunction(*args)
    with pytest.raises(CapacityError):
        ColoredFunction(2, 23, 2, b"")
    with pytest.raises(InputError, match="mask is not upward closed"):
        MonotoneFunction(n=2, mask=0b0001)
    cube = boolean_cube(1)
    with pytest.raises(InputError, match="image must be total on the source"):
        LatticeMap(cube, cube, (0,))
    with pytest.raises(InputError, match="image index out of range"):
        LatticeMap(source=cube, target=cube, image=(0, 2))
