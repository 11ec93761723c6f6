import json
import os
import random
import subprocess
import sys
from array import array
from functools import lru_cache, reduce
from operator import and_
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import maxcomplex
from maxcomplex import lattice
from maxcomplex.core import (
    CapacityError,
    ColoredFunction,
    InputError,
    MonotoneFunction,
    _mask_is_monotone,
    var_mask,
)
from maxcomplex.bounds import DEDEKIND, _MONOTONE, _table_profile, monotone_bound
from maxcomplex.minauto import state_complexity
from maxcomplex.lattice import (
    EMBEDDING_NAMES,
    MAX_MONOTONE_ARITY,
    AdequacyError,
    LatticeMap,
    Poset,
    _pairs,
    boolean_cube,
    build_witness_language,
    check_relation,
    count_monotone,
    embedding_shape,
    enumerate_monotone,
    format_certificate,
    is_adequate,
    is_injective,
    is_isotone,
    lemma_les_check,
    monotone_nonzero,
    monotone_nonzero_poset,
    named_embedding,
    parse_certificate,
    search_relation,
    sub_masks,
    verify_certificate,
    witness_chain,
)

P2, Q2 = var_mask(2, 0), var_mask(2, 1)


def mono(n, mask):
    return MonotoneFunction(n, mask)


def test_enumeration_counts_small():
    assert [len(enumerate_monotone(n)) for n in range(6)] == [2, 3, 6, 20, 168, 7581]


def test_enumeration_is_ascending_and_monotone():
    for n in range(5):
        masks = list(enumerate_monotone(n))
        assert masks == sorted(masks)
        assert all(_mask_is_monotone(n, m) for m in masks)


def test_enumeration_n2_explicit():
    assert list(enumerate_monotone(2)) == sorted(
        [0, P2 & Q2, P2, Q2, P2 | Q2, 0b1111]
    )


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_monotone(7)


@pytest.mark.parametrize("n", range(MAX_MONOTONE_ARITY + 1))
def test_count_monotone_equals_the_listing(n):
    assert count_monotone(n) == len(enumerate_monotone(n)) == DEDEKIND[n]


def test_count_monotone_keeps_the_listing_guards():
    with pytest.raises(InputError, match="n must be >= 0"):
        count_monotone(-1)
    with pytest.raises(CapacityError, match="beyond n=6 is not desk-feasible"):
        count_monotone(MAX_MONOTONE_ARITY + 1)


def _pair_loop(n):
    """The mask-by-mask pair loop that once listed F_n for n <= 5."""
    if n == 0:
        return array("Q", [0, 1])
    prev = _pair_loop(n - 1)
    shift = 1 << (n - 1)
    out = array("Q")
    for h in prev:
        hi = h << shift
        for g in prev:
            if g & ~h == 0:
                out.append(hi | g)
    return out


def _numpy_f6():
    """The numpy branch that once listed F_6 from F_5."""
    import numpy as np

    prev = np.array(_pair_loop(5), dtype=np.uint64)
    chunks = [prev[(prev & ~h) == 0] | (h << np.uint64(32)) for h in prev]
    out = array("Q")
    out.frombytes(np.concatenate(chunks).tobytes())
    return out


# the former record layout: array type of a k-ary mask (2^k bits) by k, and the
# lane of a record's low half
_RECORD = "BBBBHIQ"
_LOW = int(sys.byteorder == "big")


def _former_pair(k, high, lows):
    if _RECORD[k] == lows.typecode:
        return array(lows.typecode, [(high << (1 << (k - 1))) | low for low in lows])
    lanes = lows * 2
    lanes[_LOW::2], lanes[1 - _LOW::2] = lows, array(lows.typecode, [high]) * len(lows)
    return array(_RECORD[k], lanes.tobytes())


def _former_down_sets(k):
    if k == 0:
        yield from {0: array("B", [0]), 1: array("B", [0, 1])}.items()
        return
    prev = dict(_former_down_sets(k - 1))
    pairs = lru_cache(maxsize=None)(lambda g1, m: _former_pair(k, g1, prev[m]))
    for h1, below_h1 in prev.items():
        for h0 in below_h1:
            below = array(_RECORD[k])
            for g1 in below_h1:
                below += pairs(g1, g1 & h0)
            yield (h1 << (1 << (k - 1))) | h0, below


def _former_enumerate(n):
    """The pair rule that listed F_n, 6 included, by one copy per down set."""
    if n == 0:
        return array("Q", [0, 1])
    out = array(_RECORD[n])
    for h, below in _former_down_sets(n - 1):
        out += _former_pair(n, h, below)
    return out if out.typecode == "Q" else array("Q", out)


def test_enumeration_equals_the_former_implementations():
    for n in range(6):
        assert enumerate_monotone(n) == _pair_loop(n)
    masks = enumerate_monotone(6)
    assert masks.typecode == "Q" and masks.tobytes() == _numpy_f6().tobytes()
    assert enumerate_monotone(6) is masks  # cached: one object per arity


def test_enumeration_equals_the_former_pair_rule_without_numpy():
    for n in range(MAX_MONOTONE_ARITY + 1):
        masks = enumerate_monotone(n)
        assert masks.typecode == "Q" and masks.tobytes() == _former_enumerate(n).tobytes()


def test_lane_constants_address_the_16_and_32_bit_lanes_of_a_q_record():
    record = array("Q", [0xDDDD_CCCC_BBBB_AAAA])
    assert array("H", record.tobytes())[lattice._LANE16] == 0xBBBB
    assert array("I", record.tobytes())[lattice._LANE32] == 0xDDDD_CCCC
    lanes = array("H", bytes(8))
    lanes[lattice._LANE16] = 1
    wide = array("I", bytes(8))
    wide[lattice._LANE32] = 1
    assert array("Q", lanes.tobytes()) == array("Q", [1 << 16])
    assert array("Q", wide.tobytes()) == array("Q", [1 << 32])


def test_enumeration_below_arity_6_never_lists_f6(monkeypatch):
    def unreachable():
        raise AssertionError("_f6 called")

    monkeypatch.setattr(lattice, "_f6", unreachable)
    for n in range(MAX_MONOTONE_ARITY):
        masks = enumerate_monotone.__wrapped__(n)  # past the cache
        assert masks.typecode == "Q" and masks == _pair_loop(n), n


def _env_with_package():
    src = str(Path(maxcomplex.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _run_from_bare_interpreter(code, *argv):
    """Run `python -c code *argv`.  Linux carries a process's peak RSS across
    fork and exec, so a measured process is started from a bare interpreter,
    not from pytest."""
    launch = ("import subprocess, sys; "
              "sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)")
    return subprocess.run([sys.executable, "-c", launch, code, *argv], capture_output=True,
                          text=True, env=_env_with_package(), timeout=300)


def _megabytes(maxrss):
    """ru_maxrss is in KiB on Linux and in bytes on macOS."""
    return int(maxrss) / (1 << 20 if sys.platform == "darwin" else 1 << 10)


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_enumeration_keeps_one_copy_of_f6_in_memory():
    code = ("import resource; from maxcomplex.lattice import enumerate_monotone; "
            "masks = enumerate_monotone(6); "
            "print(len(masks), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    done = _run_from_bare_interpreter(code)
    assert done.returncode == 0, done.stderr
    count, maxrss = done.stdout.split()
    assert int(count) == 7828354
    # F_6 itself takes 62.6 MB; a second full-size copy would pass 100 MB.
    megabytes = _megabytes(maxrss)
    assert megabytes < 100, f"peak RSS {megabytes:.1f} MB"


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_cli_counts_arity_6_without_listing_it():
    code = ("import resource, sys; from maxcomplex.cli import main; "
            "code = main(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
    done = _run_from_bare_interpreter(code, "lattice", "enumerate", "--n", "6", "--json")
    assert done.returncode == 0, done.stderr
    payload, maxrss = done.stdout.splitlines()
    assert json.loads(payload)["count"] == 7828354
    # listing F_6 (62.6 MB of masks) took the process to about 80 MB
    megabytes = _megabytes(maxrss)
    assert megabytes < 40, f"peak RSS {megabytes:.1f} MB"


def test_cli_enumerates_arity_6_without_numpy():
    code = ("import sys; sys.modules['numpy'] = None; from maxcomplex.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, "lattice", "enumerate", "--n", "6",
                           "--json"], capture_output=True, text=True, env=_env_with_package(),
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["count"] == 7828354


def _rows_by_relation(labels, leq):
    """Up-set rows of a relation, pair by pair."""
    return [sum(1 << b for b, y in enumerate(labels) if leq(x, y)) for x in labels]


def test_poset_rejects_duplicate_masks_and_labels():
    with pytest.raises(InputError, match="duplicate"):
        Poset([1, 3, 1])
    with pytest.raises(InputError, match="duplicate"):
        Poset([1, 3, 7], labels=["a", "b", "a"])


def test_poset_rejects_labels_of_the_wrong_length():
    with pytest.raises(InputError, match=r"^2 poset masks but 1 labels$"):
        Poset([1, 2], labels=[5])
    with pytest.raises(InputError, match=r"^1 poset masks but 2 labels$"):
        Poset([1], labels=[5, 6])


def _scanned_pairs(prev, shift, key):
    """The pair rule as a test of every pair (h, g)."""
    return [(h << shift) | g for h in prev for g in prev if key(g) & ~h == 0]


@settings(deadline=None)
@given(st.lists(st.integers(0, 255), unique=True, max_size=30).map(sorted),
       st.integers(0, 255), st.integers(0, 1))
@example([0, 1, 2, 3], 0b01, 0)  # keys 0, 1, 0, 1
@example([0, 1, 2, 3], 0, 0)  # every key 0: every pair is kept
@example([0, 1, 2, 3], 0b10, 1)  # keys 0, 0, 4, 4: no h has bit 2
def test_pairs_with_repeated_keys_equal_a_scan_of_every_pair(prev, cut, up):
    def key(g):
        return (g & cut) << up

    assert list(_pairs(prev, 8, key)) == _scanned_pairs(prev, 8, key)
    assert list(_pairs(prev, 8)) == _scanned_pairs(prev, 8, lambda g: g)


def _is_partial_order(rows):
    """The three axioms checked pair by pair."""
    n = len(rows)
    leq = [[(rows[a] >> b) & 1 for b in range(n)] for a in range(n)]
    return (all(leq[a][a] for a in range(n))
            and not any(a != b and leq[a][b] and leq[b][a] for a in range(n) for b in range(n))
            and all(leq[a][c] for a in range(n) for b in range(n) for c in range(n)
                    if leq[a][b] and leq[b][c]))


def test_poset_rows_are_inclusion_on_random_masks():
    import random

    rng = random.Random(7)
    for _ in range(3000):
        width = rng.randint(0, 6)
        masks = rng.sample(range(1 << width), rng.randint(1, min(6, 1 << width)))
        rows = Poset(masks).rows
        assert rows == _rows_by_relation(masks, lambda a, b: a & ~b == 0), masks
        assert _is_partial_order(rows), masks


def test_poset_above_is_a_containment_scan():
    rng = random.Random(11)
    for _ in range(500):
        width = rng.randint(0, 7)
        masks = rng.sample(range(1 << width), rng.randint(0, min(12, 1 << width)))
        poset = Poset(masks)
        for probe in [0, *masks, *(rng.randrange(1 << (width + 1)) for _ in range(8))]:
            scan = sum(1 << a for a, mask in enumerate(masks) if probe & ~mask == 0)
            assert poset.above(probe) == scan, (masks, probe)
            scan = sum(1 << a for a, mask in enumerate(masks) if mask & ~probe == 0)
            assert poset.below(probe) == scan, (masks, probe)


def test_poset_below_and_covers_match_pairwise_inclusion():
    from maxcomplex.csg import csg_nonzero_poset, majorization_poset

    posets = [*map(boolean_cube, range(5)), *map(majorization_poset, range(5)),
              Poset(enumerate_monotone(3)), Poset(enumerate_monotone(4)),
              csg_nonzero_poset(5), csg_nonzero_poset(6)]
    # the down set of each element and the Hasse edges, from a scan of every pair
    # of masks: no bit column is read
    for poset in posets:
        masks, n = poset.masks, len(poset)
        strict_up, strict_down = [0] * n, [0] * n
        for a, x in enumerate(masks):
            for b, y in enumerate(masks):
                if a != b and x & ~y == 0:
                    strict_up[a] |= 1 << b
                    strict_down[b] |= 1 << a
        for b, mask in enumerate(masks):
            assert poset.below(mask) == strict_down[b] | 1 << b, (n, b)
        assert poset.covers() == [(a, b) for a in range(n) for b in range(n)
                                  if strict_up[a] >> b & 1 and not strict_up[a] & strict_down[b]]


def test_cube_and_monotone_rows_from_bit_columns_match_callback():
    for i in range(7):
        assert boolean_cube(i).rows == _rows_by_relation(range(1 << i), lambda a, b: a & ~b == 0)
    for j in range(1, 5):
        labels = monotone_nonzero(j)
        assert monotone_nonzero_poset(j).rows == _rows_by_relation(labels,
                                                                   lambda a, b: a & ~b == 0)


def _former_poset_bits(masks):
    """The bit columns and up-set rows as Poset once built them: one OR per set bit
    of each mask, then one AND of the columns of its bits per row."""
    every = (1 << len(masks)) - 1
    cols = [0] * max(masks, default=0).bit_length()
    for a, mask in enumerate(masks):
        for r in range(mask.bit_length()):
            if mask >> r & 1:
                cols[r] |= 1 << a
    rows = [reduce(and_, [col for r, col in enumerate(cols) if mask >> r & 1], every)
            for mask in masks]
    return cols, rows


def test_poset_bits_equal_the_former_construction_on_every_lattice():
    from maxcomplex.csg import csg_nonzero_poset, majorization_poset

    f3 = enumerate_monotone(3)
    posets = [*map(boolean_cube, range(7)), *map(monotone_nonzero_poset, range(1, 6)),
              *map(majorization_poset, range(8)), *map(csg_nonzero_poset, range(1, 7)),
              Poset(a | b << 8 for a in f3 for b in f3)]  # the pair-order lemma's
    for poset in posets:
        assert (poset._cols, poset.rows) == _former_poset_bits(poset.masks), len(poset)


@settings(deadline=None)
@given(st.lists(st.integers(0, 1 << 70), unique=True, max_size=40))
@example([])
@example([0])
@example([0, 1])
def test_poset_bits_equal_the_former_construction(masks):
    poset = Poset(masks)
    assert (poset._cols, poset.rows) == _former_poset_bits(masks)


def test_poset_rejects_negative_masks():
    for masks in ([-1], [0, -1], [3, -4, 1]):
        with pytest.raises(InputError, match="must be >= 0"):
            Poset(masks)


def test_poset_covers_chain():
    chain = Poset([0, 1, 3, 7])
    assert chain.covers() == [(0, 1), (1, 2), (2, 3)]


def test_poset_covers_match_the_definition():
    rng = random.Random(7)
    posets = [boolean_cube(3), monotone_nonzero_poset(3)]
    posets += [Poset(rng.sample(range(1 << 7), 30)) for _ in range(20)]
    for poset in posets:
        n, leq = len(poset), poset.leq
        assert poset.covers() == [
            (a, b) for a in range(n) for b in range(n)
            if a != b and leq(a, b) and not any(leq(a, x) and leq(x, b)
                                                for x in range(n) if x not in (a, b))]


def test_is_isotone_identity_and_reversal():
    f3 = monotone_nonzero_poset(3)
    identity = LatticeMap(f3, f3, tuple(range(len(f3))))
    assert is_isotone(identity)
    cube = boolean_cube(1)
    top, bottom = len(f3) - 1, 0
    assert not is_isotone(LatticeMap(cube, f3, (top, bottom)))
    assert is_isotone(LatticeMap(cube, f3, (bottom, top)))


def test_is_adequate_examples():
    assert is_adequate([mono(2, P2 & Q2), mono(2, P2 | Q2)])
    assert is_adequate([mono(2, P2 & Q2), mono(2, 0b1111)])
    assert not is_adequate([mono(2, P2 & Q2)])


def test_is_adequate_refuses_by_the_cover_count_before_listing(monkeypatch):
    def unreachable(n):
        raise AssertionError(f"F_{n} was listed")

    # either lists F_6, and `monotone_nonzero` keeps what an earlier test listed
    monkeypatch.setattr(maxcomplex.lattice, "enumerate_monotone", unreachable)
    monkeypatch.setattr(maxcomplex.lattice, "monotone_nonzero", unreachable)
    top = mono(7, 2**128 - 1)  # 2 substitutions, F_6^- has 7,828,353 members
    assert not is_adequate([top]) and not is_adequate([top], strong=True)


def test_strong_adequacy_items():
    one1 = mono(1, 0b11)
    p1 = mono(1, var_mask(1, 0))
    # 2^0 -> 2 -> 1 and 2^1 -> 2 -> 1
    assert is_adequate([p1], strong=True)
    assert is_adequate([p1, one1], strong=True)
    # 2^0 -> 5 => 2 holds weakly but not strongly for the meet alone
    assert not is_adequate([mono(2, P2 & Q2)], strong=True)
    # 2^1 -> 5 -> 2 and 2^2 -> 5 -> 2
    assert is_adequate([mono(2, P2 & Q2), mono(2, P2 | Q2)], strong=True)
    assert is_adequate(
        [mono(2, P2 & Q2), mono(2, P2), mono(2, Q2), mono(2, P2 | Q2)], strong=True
    )


@pytest.mark.parametrize("name,i,j", [
    ("post_alh", 2, 3),
    ("fig39", 4, 3),
    ("both_restricted", 3, 3),
    ("alh", 4, 4),
    ("small", 5, 4),
    ("friday", 6, 4),
])
def test_embeddings_certify(name, i, j):
    assert embedding_shape(name) == (i, j)
    cert = check_relation(i, j, named_embedding(name))
    assert cert.covered == frozenset(monotone_nonzero(j - 1))
    assert is_injective(cert.map) and is_isotone(cert.map)


def test_fig39_needs_a_zero_substitution():
    cert = check_relation(4, 3, named_embedding("fig39"))
    assert cert.uses_zero
    cert = check_relation(4, 4, named_embedding("alh"))
    assert not cert.uses_zero


def test_check_relation_rejects_non_injective():
    f3 = monotone_nonzero_poset(3)
    const = LatticeMap(boolean_cube(1), f3, (0, 0))
    with pytest.raises(AdequacyError):
        check_relation(1, 3, const)


def test_check_relation_rejects_poor_cover():
    # an isotone injective chain into tiny functions cannot cover F_2^-
    f3 = monotone_nonzero_poset(3)
    bot = f3.index(min(monotone_nonzero(3)))
    nxt = bot + 1
    m = LatticeMap(boolean_cube(1), f3, (bot, nxt))
    with pytest.raises(AdequacyError):
        check_relation(1, 3, m)


def test_unknown_embedding_name():
    assert set(EMBEDDING_NAMES) == {
        "post_alh", "fig39", "both_restricted", "alh", "small", "friday"
    }
    with pytest.raises(InputError):
        named_embedding("nonesuch")


def _former_lemma_les_check():
    """The quadruple loop that checked the pair-order lemma before Poset rows."""
    f3 = list(enumerate_monotone(3))
    for a1 in f3:
        for b1 in f3:
            m1 = a1 | (b1 << 8)
            for a2 in f3:
                a_le = a1 & ~a2 == 0
                for b2 in f3:
                    m2 = a2 | (b2 << 8)
                    if (m1 & ~m2 == 0) != (a_le and b1 & ~b2 == 0):
                        return False
    return True


def test_lemma_les_check(monkeypatch):
    sizes = []

    class Counted(Poset):
        def __init__(self, masks):
            super().__init__(masks)
            sizes.append(len(self))

    monkeypatch.setattr(lattice, "Poset", Counted)
    assert lemma_les_check() is True
    assert _former_lemma_les_check() is True
    assert sizes == [20, 400]  # F_3, then every ordered pair of it packed


@pytest.mark.parametrize("i,j", [(0, 1), (1, 1), (2, 2), (2, 3), (3, 3)])
def test_search_small_shapes(i, j):
    out = search_relation(i, j, budget=10**6)
    assert out.status == "found"
    check_relation(i, j, out.map)


def test_search_finds_4_4():
    out = search_relation(4, 4, budget=10**6)
    assert out.status == "found"
    cert = check_relation(4, 4, out.map)
    assert len(cert.covered) == 19


def test_search_rejects_negative_i():
    with pytest.raises(InputError, match="i must be >= 0"):
        search_relation(-1, 3)
    with pytest.raises(InputError, match="i must be >= 0"):
        boolean_cube(-1)


def test_search_pigeonhole_refutation():
    out = search_relation(3, 1, budget=10**6)
    assert out.status == "none"


def test_search_budget_exhaustion():
    out = search_relation(4, 4, budget=10)
    assert out.status == "exhausted"
    assert out.map is None


def test_search_deterministic():
    a = search_relation(3, 3, budget=10**6)
    b = search_relation(3, 3, budget=10**6)
    assert a.map.image == b.map.image


def test_witness_languages_attain_monotone_bound():
    for n in range(11):
        w = build_witness_language(n)
        f = w.as_colored()
        assert state_complexity(f) == monotone_bound(n), n


def test_witness_n3_is_the_asian_set():
    f = build_witness_language(3).as_colored()
    assert {"".join(map(str, w)) for w in f.support()} == {"011", "100", "101", "110", "111"}


def _former_witness_chain(n):
    """`witness_chain` before the shape rule: hand-typed maps and catalog names by n."""
    p1, p2, q2 = var_mask(1, 0), var_mask(2, 0), var_mask(2, 1)
    small = {0: (0, 0, (1,)), 1: (0, 1, (p1,)), 2: (1, 1, (p1, 0b11)),
             3: (1, 2, (p2 & q2, 0b1111)), 4: (2, 2, (p2 & q2, q2, p2, p2 | q2))}
    names = {5: "post_alh", 6: "both_restricted", 7: "fig39", 8: "alh", 9: "small", 10: "friday"}
    return small[n] if n in small else lattice._embedding_tables()[names[n]]


def test_witness_chain_shapes():
    assert witness_chain(8)[:2] == (4, 4)
    assert witness_chain(10)[:2] == (6, 4)
    for n in range(11):
        assert witness_chain(n) == _former_witness_chain(n), n
    with pytest.raises(InputError):
        witness_chain(11)


def test_witness_chain_depth_is_the_last_full_monotone_term():
    # the catalog's chain sits at the last depth whose bound term is 2^i
    for n in range(11):
        r, tail, total = _table_profile(n, None, _MONOTONE)
        terms = [2**i for i in range(r)] + tail
        assert sum(terms) == total == monotone_bound(n)
        last = max(i for i, term in enumerate(terms) if term == 2**i)
        assert witness_chain(n)[:2] == (last, n - last), n


def test_monotone_substitution_closure():
    for n in range(1, 6):
        half = 1 << (n - 1)
        for mask in enumerate_monotone(n):
            assert _mask_is_monotone(n - 1, mask & ((1 << half) - 1))
            assert _mask_is_monotone(n - 1, mask >> half)


def test_certificate_round_trip():
    cert = check_relation(4, 4, named_embedding("alh"))
    text = format_certificate(cert)
    again = verify_certificate(parse_certificate(text))
    assert again.covered == cert.covered
    assert again.map.image == cert.map.image


def test_certificate_tampering_detected():
    cert = check_relation(2, 3, named_embedding("post_alh"))
    lines = format_certificate(cert).splitlines()
    swapped = []
    for line in lines:
        if "->" in line and line.startswith("00"):
            src, _, bits = line.partition("->")
            # knock the image down to the zero function
            line = f"{src}-> {'0' * len(bits.strip())}"
        swapped.append(line)
    with pytest.raises(AdequacyError):
        verify_certificate(parse_certificate("\n".join(swapped)))


def test_sub_masks_match_monotone_function():
    maj = ColoredFunction.from_language(3, ["011", "101", "110", "111"]).mask
    low, high = sub_masks(3, maj)
    assert low == (P2 & Q2) and high == (P2 | Q2)
