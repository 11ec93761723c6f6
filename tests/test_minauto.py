import copy
import itertools
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from maxcomplex import minauto

from maxcomplex.core import ColoredFunction, InputError, unrank
from maxcomplex.bounds import cp_family, general_bound, monotone_bound
from maxcomplex.lattice import build_witness_language
from maxcomplex.minauto import (
    NoAutomatonError,
    Pdfa,
    export_dot,
    minimal_pdfa,
    mn_class_count,
    mn_classes,
    mn_equivalent,
    run,
    state_complexity,
    states_by_depth,
)

ASIAN = ColoredFunction.from_language(3, ["011", "100", "101", "110", "111"])
MAJORITY = ColoredFunction.from_language(3, ["011", "101", "110", "111"])


def test_complexity_examples():
    assert state_complexity(ASIAN) == 6
    assert state_complexity(ColoredFunction.from_language(3, ["000", "001", "010", "101"])) == 7
    assert state_complexity(ColoredFunction.from_language(3, [])) == 0


def test_full_cube_one_residual_per_depth():
    full = ColoredFunction.from_mask(3, 0xFF)
    assert states_by_depth(full) == [1, 1, 1, 1]
    assert state_complexity(full) == 4


def test_minimal_pdfa_sizes():
    assert minimal_pdfa(ASIAN).state_count == 6
    assert minimal_pdfa(MAJORITY).state_count == 6


def test_minimal_pdfa_singleton_chain():
    a = minimal_pdfa(ColoredFunction.from_language(3, ["111"]))
    assert a.state_count == 4
    assert a.depth == (0, 1, 2, 3)
    assert a.delta == (None, 1, None, 2, None, 3, None, None)


def test_residual_levels_agree_and_number_states():
    rng = random.Random(2024)
    funcs = [build_witness_language(8).as_colored()]
    for b, n in ((2, 6), (3, 4), (4, 3)):
        for c in (2, 3, 4):
            for density in (0.1, 0.5, 1.0):
                funcs.append(ColoredFunction(b, n, c, bytes(
                    rng.randrange(1, c) if rng.random() < density else 0
                    for _ in range(b**n))))
    for f in funcs:
        a = minimal_pdfa(f)
        per_depth = [a.depth.count(d) for d in range(f.n + 1)]
        assert states_by_depth(f) == cp_family([f]) == per_depth
        # state ids follow (depth, rank of the least prefix reaching the state)
        least = {}
        for depth in range(f.n + 1):
            for r in range(f.b**depth):
                state = a.start
                for d in unrank(r, depth, f.b):
                    state = a.delta[state * f.b + d]
                    if state is None:
                        break
                else:
                    least.setdefault(state, (depth, r))
        assert sorted(least, key=least.get) == list(range(a.state_count))


def test_minimal_pdfa_rejects_zero():
    with pytest.raises(NoAutomatonError):
        minimal_pdfa(ColoredFunction.from_language(2, []))


def test_run_examples():
    a = minimal_pdfa(ASIAN)
    assert run(a, "100") == 1
    assert run(a, "001") == 0
    with pytest.raises(InputError):
        run(a, "10")


def test_run_reproduces_function_binary():
    for mask in range(1, 256):
        f = ColoredFunction.from_mask(3, mask)
        a = minimal_pdfa(f)
        for r in range(8):
            assert run(a, unrank(r, 3, 2)) == f.table[r]


@pytest.mark.parametrize("b,c,n", [(2, 2, 4), (2, 3, 3), (3, 2, 3), (3, 3, 2)])
def test_run_reproduces_function_random(b, c, n):
    rng = random.Random(1000 * b + 10 * c + n)
    cells = b**n
    for _ in range(60):
        table = bytes(rng.randrange(c) for _ in range(cells))
        f = ColoredFunction(b, n, c, table)
        if state_complexity(f) == 0:
            continue
        a = minimal_pdfa(f)
        for r in range(cells):
            assert run(a, unrank(r, n, b)) == f.table[r]


def test_mn_equivalent_examples():
    assert mn_equivalent("10", "11", ASIAN)
    assert not mn_equivalent("0", "1", ASIAN)  # extension 00 distinguishes
    assert mn_equivalent("01", "01", ASIAN)


def test_mn_oracle_matches_residual_method_n3():
    for mask in range(256):
        f = ColoredFunction.from_mask(3, mask)
        assert mn_class_count(f) == state_complexity(f)


def test_mn_classes_group_by_equal_residuals():
    from maxcomplex.core import residual
    from maxcomplex.minauto import mn_classes

    for mask in (0b10110001, 0b11101000, 0b01111110):
        f = ColoredFunction.from_mask(3, mask)
        grouping = mn_classes(f)
        for depth, classes in enumerate(grouping.by_depth):
            assert len(classes) <= min(2**depth, 2 ** (2 ** (3 - depth)) - 1)
            residuals = [residual(f, cls[0]) for cls in classes]
            # same class iff equal residuals; distinct classes differ
            assert len(set(r.table for r in residuals)) == len(residuals)
            for cls, rep in zip(classes, residuals):
                assert all(residual(f, p) == rep for p in cls)


def test_mn_distinguishes_live_prefixes_of_different_depths():
    # pairwise scan per the bounded-extension rule: a live short prefix can
    # reach length n where a longer one cannot
    for mask in (0b10110001, 0b11110000, 0b00000001):
        f = ColoredFunction.from_mask(3, mask)
        live = [p for d in range(4) for p in
                [unrank(r, d, 2) for r in range(2**d)]
                if any(f.table[i] for i in _span(p, f))]
        for s in live:
            for t in live:
                if len(s) != len(t):
                    assert not mn_equivalent(s, t, f), (s, t, mask)


def _span(prefix, f):
    width = f.b ** (f.n - len(prefix))
    from maxcomplex.core import rank

    start = rank(prefix, f.b) * width
    return range(start, start + width)


def test_mn_up_closure_variant():
    # on a monotone language both membership tests agree
    for s in ("0", "1"):
        for t in ("0", "1"):
            assert mn_equivalent(s, t, MAJORITY, up_closure=True) == mn_equivalent(s, t, MAJORITY)
    # the up-closure of {01} also contains 11, merging prefixes 0 and 1
    f = ColoredFunction.from_language(2, ["01"])
    assert not mn_equivalent("0", "1", f)
    assert mn_equivalent("0", "1", f, up_closure=True)


def _word_level_classes(f, up_closure=False):
    """mn_classes from the definition, word by word: no library code but the table.

    Per depth, live prefixes (some extension to length n has a nonzero
    color) are taken in rank order and put in the first class whose first
    member no extension separates; a word shorter than n has color 0.
    """
    words = [list(itertools.product(range(f.b), repeat=k)) for k in range(f.n + 1)]
    color = dict(zip(words[f.n], f.table))  # product order is rank order
    member = color
    if up_closure:
        accepted = [w for w in words[f.n] if color[w]]
        member = {w: int(any(all(a <= x for a, x in zip(v, w)) for v in accepted))
                  for w in words[f.n]}
    by_depth = []
    for d in range(f.n + 1):
        classes = []
        for p in words[d]:
            if not any(color[p + u] for u in words[f.n - d]):
                continue
            for cls in classes:
                q = cls[0]
                if all(member.get(p + u, 0) == member.get(q + u, 0)
                       for k in range(f.n - d + 1) for u in words[k]):
                    cls.append(p)
                    break
            else:
                classes.append([p])
        by_depth.append(tuple(tuple(cls) for cls in classes))
    return tuple(by_depth)


def test_mn_classes_match_word_level_definition():
    rng = random.Random(6)
    funcs = [ASIAN, MAJORITY, build_witness_language(5).as_colored()]
    for b, n in ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)):
        for c in (2, 3, 4):
            for density in (0.2, 0.6, 1.0):
                funcs.append(ColoredFunction(b, n, c, bytes(
                    rng.randrange(1, c) if rng.random() < density else 0
                    for _ in range(b**n))))
    for f in funcs:
        assert mn_classes(f).by_depth == _word_level_classes(f), f
    for n in range(5):
        for _ in range(6):
            f = ColoredFunction(2, n, 2, bytes(int(rng.random() < 0.3) for _ in range(2**n)))
            assert mn_classes(f, up_closure=True).by_depth == _word_level_classes(f, True), f
    f = build_witness_language(5).as_colored()
    assert mn_classes(f, up_closure=True).by_depth == _word_level_classes(f, True)


def _former_mn_classes(f, up_closure=False):
    """mn_classes before the same-depth test became one slice comparison: each
    live prefix is tested with minauto._equivalent against the first member of
    each class in turn, over every extension length."""
    table = minauto._oracle_table(f, up_closure)
    by_depth = []
    for depth in range(f.n + 1):
        groups = []
        for r in minauto._live_prefixes(f, depth):
            for group in groups:
                if minauto._equivalent(table, f.b, f.n, r, depth, group[0], depth):
                    group.append(r)
                    break
            else:
                groups.append([r])
        by_depth.append(tuple(tuple(unrank(r, depth, f.b) for r in g) for g in groups))
    return tuple(by_depth)


def _oracle_cases():
    rng = random.Random(16)
    funcs = []
    for b in range(2, 6):
        for n in range(6):
            if b**n > 1024:
                break
            for c in range(2, 6):
                for density in (2**-6, 0.1, 0.5, 1.0):
                    funcs.append(ColoredFunction(b, n, c, bytes(
                        rng.randrange(1, c) if rng.random() < density else 0
                        for _ in range(b**n))))
    # few distinct residuals: many prefixes share a class
    for b, n, c in ((2, 10, 2), (3, 6, 3), (4, 5, 2), (5, 4, 5)):
        pieces = [bytes(rng.randrange(c) for _ in range(b**2)) for _ in range(3)]
        funcs.append(ColoredFunction(b, n, c, b"".join(
            rng.choice(pieces) for _ in range(b ** (n - 2)))))
    funcs.append(build_witness_language(8).as_colored())
    return funcs


def test_mn_classes_equal_the_former_pairwise_loop():
    funcs = _oracle_cases()
    assert len(funcs) >= 200
    assert any(f.n == 0 for f in funcs) and any(not any(f.table) for f in funcs)
    for f in funcs:
        former = _former_mn_classes(f)
        assert mn_classes(f).by_depth == former, f
        assert mn_class_count(f) == sum(map(len, former)) == state_complexity(f), f
    rng = random.Random(61)
    binary = [f for f in funcs if f.b == 2 and f.c == 2]
    binary += [ColoredFunction(2, n, 2, bytes(int(rng.random() < p) for _ in range(2**n)))
               for n in range(11) for p in (0.02, 0.2, 0.7)]
    for f in binary:
        former = _former_mn_classes(f, up_closure=True)
        assert mn_classes(f, up_closure=True).by_depth == former, f
        assert mn_class_count(f, up_closure=True) == (sum(map(len, former)) if any(f.table) else 0)


class _CountedSlice(bytes):
    """A slice of the oracle's table that counts its == calls and cannot be hashed."""

    tests = 0

    def __eq__(self, other):
        _CountedSlice.tests += 1
        return bytes(self) == bytes(other)

    def __hash__(self):
        raise AssertionError("the oracle hashed a slice")


class _CountedTable:
    def __init__(self, table):
        self.table = table

    def __getitem__(self, key):
        return _CountedSlice(self.table[key])


def _former_slice_tests(f, up_closure=False):
    """The pair tests of mn_classes as the for ... else loop made them: each live
    prefix's slice against each class's first slice in turn, up to the first equal."""
    table = minauto._oracle_table(f, up_closure)
    tests = 0
    for depth in range(f.n + 1):
        width = f.b ** (f.n - depth)
        firsts = []
        for r in minauto._live_prefixes(f, depth):
            piece = table[r * width : (r + 1) * width]
            for first in firsts:
                tests += 1
                if piece == first:
                    break
            else:
                firsts.append(piece)
    return tests


def test_mn_classes_make_the_former_pair_tests_and_hash_nothing(monkeypatch):
    rng = random.Random(28)
    cases = [(f, False) for f in _oracle_cases()]
    cases += [(f, True) for f, _ in cases if f.b == 2 and f.c == 2]
    cases += [(ColoredFunction(2, n, 2, bytes(int(rng.random() < p) for _ in range(2**n))), True)
              for n in range(11) for p in (2**-6, 0.2, 0.7)]
    expected = [(_former_mn_classes(f, up), _former_slice_tests(f, up)) for f, up in cases]
    oracle_table = minauto._oracle_table
    monkeypatch.setattr(minauto, "_oracle_table",
                        lambda f, up_closure: _CountedTable(oracle_table(f, up_closure)))
    for (f, up), (classes, tests) in zip(cases, expected):
        _CountedSlice.tests = 0
        assert mn_classes(f, up_closure=up).by_depth == classes, (f, up)
        assert _CountedSlice.tests == tests, (f, up)
    assert sum(tests for _, tests in expected) > 10**4


def test_mn_class_count_decodes_no_words(monkeypatch):
    funcs = _oracle_cases()
    expected = [state_complexity(f) for f in funcs]

    def must_not_decode(*args):
        raise AssertionError("mn_class_count decoded a word")

    monkeypatch.setattr(minauto, "unrank", must_not_decode)
    with pytest.raises(AssertionError):
        mn_classes(ASIAN)  # the patch is in effect
    assert [mn_class_count(f) for f in funcs] == expected
    assert mn_class_count(MAJORITY, up_closure=True) == state_complexity(MAJORITY)


def test_mn_oracle_does_not_use_the_residual_engine(monkeypatch):
    f = build_witness_language(8).as_colored()
    expected = state_complexity(f)

    def engine_must_not_run(*args):
        raise AssertionError("the oracle called residual_levels")

    monkeypatch.setattr(minauto, "residual_levels", engine_must_not_run)
    with pytest.raises(AssertionError):
        state_complexity(ColoredFunction(f.b, f.n, f.c, f.table))  # the patch is in effect;
        # a fresh object, since f keeps the counts of its first call
    assert mn_class_count(f) == expected == 58
    assert mn_classes(f, up_closure=True).class_count > 0


def test_a_function_keeps_its_depth_counts(monkeypatch):
    passes, levels = [], minauto.residual_levels
    monkeypatch.setattr(minauto, "residual_levels", lambda *a: passes.append(1) or levels(*a))
    f = ColoredFunction(3, 4, 3, bytes(random.Random(5).randrange(3) for _ in range(81)))
    # the order of a task of the benchmark's languages workload: counts, then automaton
    complexity, by_depth = state_complexity(f), states_by_depth(f)
    pdfa, family = minimal_pdfa(f), cp_family([f])
    assert len(passes) == 2
    assert by_depth == family == [pdfa.depth.count(d) for d in range(f.n + 1)]
    assert complexity == sum(by_depth) == pdfa.state_count
    by_depth[-1] += 1  # the caller's lists, not the kept counts
    family.clear()
    assert states_by_depth(f) == cp_family([f]) == [pdfa.depth.count(d) for d in range(f.n + 1)]
    assert len(passes) == 2
    # the automaton first: its pass leaves the counts
    passes.clear()
    g = ColoredFunction(f.b, f.n, f.c, f.table)
    assert minimal_pdfa(g) == pdfa
    assert (state_complexity(g), states_by_depth(g), cp_family([g])) == (
        complexity, states_by_depth(f), states_by_depth(f))
    assert len(passes) == 1
    # the kept counts are no part of the value: equal copies start without them
    for h in (ColoredFunction(f.b, f.n, f.c, f.table), copy.copy(f), pickle.loads(pickle.dumps(f))):
        passes.clear()
        assert h == f and hash(h) == hash(f) and repr(h) == repr(f) and h._key == f._key
        assert states_by_depth(h) == states_by_depth(f) and minimal_pdfa(h) == pdfa
        assert len(passes) == 2


def test_counts_alone_build_no_automaton(monkeypatch):
    def automaton_must_not_be_built(*args, **kwargs):
        raise AssertionError("a counts-only call built a Pdfa")

    monkeypatch.setattr(minauto, "Pdfa", automaton_must_not_be_built)
    for f in (ASIAN, MAJORITY, ColoredFunction.from_language(3, [])):
        g = ColoredFunction(f.b, f.n, f.c, f.table)
        assert states_by_depth(g) == states_by_depth(f)
        assert state_complexity(g) == sum(states_by_depth(f))
        assert cp_family([g]) == cp_family([f])
    with pytest.raises(AssertionError):
        minimal_pdfa(ColoredFunction(2, 3, 2, MAJORITY.table))  # the patch is in effect


def test_the_zero_function_keeps_refusing_an_automaton():
    zero = ColoredFunction.from_language(3, [])
    for _ in range(2):
        assert states_by_depth(zero) == [] and state_complexity(zero) == 0
        assert cp_family([zero]) == [0, 0, 0, 0]
        with pytest.raises(NoAutomatonError):
            minimal_pdfa(zero)


def test_per_depth_cap_n3():
    for mask in range(256):
        f = ColoredFunction.from_mask(3, mask)
        for depth, count in enumerate(states_by_depth(f)):
            assert count <= min(2**depth, 2 ** (2 ** (3 - depth)) - 1)


def test_upper_bound_laws_random():
    rng = random.Random(99)
    for b, c, n in ((2, 2, 4), (2, 3, 3), (3, 2, 3), (3, 3, 2)):
        bound = general_bound(b, c, n)
        for _ in range(80):
            table = bytes(rng.randrange(c) for _ in range(b**n))
            assert state_complexity(ColoredFunction(b, n, c, table)) <= bound


def test_monotone_upper_bound_law():
    from maxcomplex.lattice import enumerate_monotone

    for n in range(5):
        bound = monotone_bound(n)
        for mask in enumerate_monotone(n):
            assert state_complexity(ColoredFunction.from_mask(n, mask)) <= bound


def test_export_dot_single_state():
    f = ColoredFunction.from_words(2, 0, 2, {(): 1})
    dot = export_dot(minimal_pdfa(f))
    assert dot.count("doublecircle") == 1
    assert dot.startswith("digraph")


def test_export_dot_asian():
    a = minimal_pdfa(ASIAN)
    dot = export_dot(a)
    assert dot.count("shape=circle") + dot.count("shape=doublecircle") == a.state_count
    assert '"0,1"' in dot
    assert 'label="q_1"' in dot


def test_export_dot_deterministic():
    assert export_dot(minimal_pdfa(ASIAN)) == export_dot(minimal_pdfa(ASIAN))


def _transitions(a):
    """The (state, symbol) -> state dict that Pdfa held before its flat delta."""
    return {divmod(i, a.b): dst for i, dst in enumerate(a.delta) if dst is not None}


def _former_export_dot(a):
    """export_dot before its one-pass labels: a sorted generator join per edge."""
    lines = [
        "digraph pdfa {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        f"  __start -> s{a.start};",
    ]
    special_name = {sid: f"q_{i}" for i, sid in enumerate(a.special, start=1)
                    if sid is not None}
    for sid in range(a.state_count):
        if sid in special_name:
            lines.append(f'  s{sid} [shape=doublecircle, label="{special_name[sid]}"];')
        else:
            lines.append(f'  s{sid} [shape=circle, label="s{sid}"];')
    merged: dict[tuple[int, int], list[int]] = {}
    for (src, sym), dst in _transitions(a).items():
        merged.setdefault((src, dst), []).append(sym)
    for (src, dst) in sorted(merged):
        label = ",".join(str(sym) for sym in sorted(merged[(src, dst)]))
        lines.append(f'  s{src} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


@st.composite
def _nonzero_functions(draw):
    """Tables with b, c in 2..5 and up to 256 cells: small alphabets merge labels such
    as "0,2", and several colors give several q_i."""
    b, c = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    n = draw(st.integers(0, {2: 8, 3: 5, 4: 4, 5: 3}[b]))
    table = draw(st.lists(st.integers(0, c - 1), min_size=b**n, max_size=b**n))
    table[draw(st.integers(0, b**n - 1))] = draw(st.integers(1, c - 1))
    return ColoredFunction(b, n, c, bytes(table))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_nonzero_functions())
def test_export_dot_is_the_former_text(f):
    a = minimal_pdfa(f)
    assert export_dot(a) == _former_export_dot(a)


def test_export_dot_orders_edges_by_target_not_symbol():
    # from s0 and from s1 the targets descend while the symbols ascend; s1 merges "1,2"
    none = (None,) * 3
    a = Pdfa(3, 2, 3, 5, 0, (2, 1, None, 4, 3, 3, 3, None, None, *none, *none),
             (3, 4), (0, 1, 1, 2, 2))
    assert export_dot(a) == _former_export_dot(a) == """digraph pdfa {
  rankdir=LR;
  __start [shape=point, label=""];
  __start -> s0;
  s0 [shape=circle, label="s0"];
  s1 [shape=circle, label="s1"];
  s2 [shape=circle, label="s2"];
  s3 [shape=doublecircle, label="q_1"];
  s4 [shape=doublecircle, label="q_2"];
  s0 -> s1 [label="1"];
  s0 -> s2 [label="0"];
  s1 -> s3 [label="1,2"];
  s1 -> s4 [label="0"];
  s2 -> s3 [label="0"];
}
"""
    assert [run(a, w) for w in ("00", "10", "11", "12", "20")] == [1, 2, 1, 1, 0]


def _former_minimal_pdfa(f):
    """minimal_pdfa before its flat delta: (state_count, transitions, special, depth),
    with one (state, symbol) key per transition in a dict."""
    transitions = {}
    depth_of = []
    for depth, (level, children) in enumerate(minauto.residual_levels([f.table], f.b, f.n)):
        base = len(depth_of)
        depth_of.extend([depth] * len(level))
        for pos, child in enumerate(children):
            if child is not None:
                parent, sym = divmod(pos, f.b)
                transitions[(base + parent, sym)] = base + len(level) + child
    special = [None] * (f.c - 1)
    for k, table in enumerate(level):
        special[table[0] - 1] = base + k
    return len(depth_of), transitions, tuple(special), tuple(depth_of)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_nonzero_functions())
def test_minimal_pdfa_delta_is_the_former_dict_and_runs_the_table(f):
    a = minimal_pdfa(f)
    assert len(a.delta) == a.state_count * f.b
    assert (a.state_count, _transitions(a), a.special, a.depth) == _former_minimal_pdfa(f)
    assert [run(a, unrank(r, f.n, f.b)) for r in range(f.b**f.n)] == list(f.table)


def test_colored_special_states():
    f = ColoredFunction(2, 2, 3, bytes([0, 1, 2, 1]))
    a = minimal_pdfa(f)
    assert len(a.special) == 2
    assert all(sid is not None for sid in a.special)
    assert run(a, "01") == 1 and run(a, "10") == 2 and run(a, "00") == 0
