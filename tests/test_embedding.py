"""The embedding engine shared by the monotone and game lattices, its
certifier, the certificate parser and the error hierarchy."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from maxcomplex import cli, csg, lattice
from maxcomplex.core import (
    CapacityError,
    ExhaustedError,
    InputError,
    MaxcomplexError,
    MismatchError,
)
from maxcomplex.csg import check_csg_relation, csg_nonzero_poset, search_csg_relation
from maxcomplex.lattice import (
    AdequacyError,
    LatticeMap,
    boolean_cube,
    certify,
    check_relation,
    format_certificate,
    lattice_kind,
    monotone_nonzero_poset,
    named_embedding,
    parse_certificate,
    search_embedding,
    search_relation,
    verify_certificate,
)

# First maps in the engine's order, with the nodes the search visits to reach them.
PINNED = [
    ("monotone", 3, 3, 8, (0x80, 0xa0, 0xc0, 0xe0, 0xf0, 0xf8, 0xfa, 0xfe)),
    ("monotone", 4, 3, 22, (0x80, 0xa0, 0xc0, 0xe0, 0x88, 0xf8, 0xc8, 0xfa,
                            0xa8, 0xaa, 0xe8, 0xea, 0xec, 0xfe, 0xee, 0xff)),
    ("monotone", 4, 4, 23549, (0x8000, 0x8800, 0xa000, 0xa800, 0xaa00, 0xea00, 0xeac0,
                               0xeac8, 0xcc00, 0xec00, 0xece0, 0xfce8, 0xee00, 0xfef0,
                               0xfef8, 0xfffa)),
    ("csg", 3, 4, 21, (0x8000, 0xc000, 0xe000, 0xe800, 0xf000, 0xf800, 0xfc00, 0xfffe)),
    ("csg", 4, 4, 16, (0x8000, 0xc000, 0xe000, 0xe800, 0xf000, 0xf800, 0xfc00, 0xfe00,
                       0xff00, 0xff80, 0xffc0, 0xffe0, 0xffe8, 0xfff8, 0xfffc, 0xfffe)),
]


@pytest.mark.parametrize("kind,i,j,nodes,image", PINNED,
                         ids=[f"{k}-{i},{j}" for k, i, j, _, _ in PINNED])
def test_search_pins_nodes_and_map(kind, i, j, nodes, image):
    search = search_relation if kind == "monotone" else search_csg_relation
    out = search(i, j)
    assert (out.status, out.nodes) == ("found", nodes)
    assert isinstance(out.map, LatticeMap)
    assert out.map.image_labels() == image
    assert out.map.source is lattice_kind(kind).source(i)
    assert out.map.target is lattice_kind(kind).target(j)
    assert search_embedding(kind, i, j).map == out.map
    cert = lattice_kind(kind).check(i, j, out.map)
    assert cert.kind == kind and cert.covered == frozenset(lattice_kind(kind).nonzero(j - 1))


def _counters(out):
    """(status, nodes, cover prunes, room prunes, deepest) of a search."""
    return out.status, out.nodes, *(k for _, k in out.prunes), out.deepest


@pytest.mark.parametrize("search,i,j,counters", [
    (search_relation, 6, 4, ("exhausted", 10**4 + 1, 0, 7571, 61)),
    (search_csg_relation, 4, 5, ("exhausted", 10**4 + 1, 4499, 4622, 11)),
], ids=["search_relation-6-4", "search_csg_relation-4-5"])
def test_search_pins_exhaustion(search, i, j, counters):
    out = search(i, j, budget=10**4)
    assert out.map is None and _counters(out) == counters


def _early_shadow(j):
    return lambda mask: csg.shadow_mask(j, mask)


def test_game_witness_searches_with_the_shadow_pin_nodes():
    got = []
    for n in range(4, 9):
        i, j = csg.csg_witness_chain(n)
        out = search_embedding("csg", i, j, shadow=_early_shadow(j))
        got.append((*_counters(out), out.map and out.map.image_labels()))
    assert got == [("none", 6, 0, 5, 0, None), ("found", 6, 0, 0, 3, (0x80, 0xe8, 0xfc, 0xff)),
                   ("none", 17, 0, 15, 0, None), ("none", 412, 1, 299, 7, None),
                   ("none", 147, 0, 132, 2, None)]


def test_search_reports_prunes_and_deepest():
    out = search_relation(4, 4)
    assert (out.prunes, out.deepest) == ((("cover", 16559), ("room", 1343)), 15)
    assert _counters(search_relation(6, 4)) == ("found", 47165, 0, 35359, 63)
    out = search_relation(5, 3)
    assert (out.nodes, out.prunes, out.deepest) == (0, (("cover", 0), ("room", 0)), None)


def _former_search(kind, i, j, budget, shadow=None):
    """The engine before bitset candidates, room pruning and the useful-first
    order, kept as an oracle: it rescans the target labels at every node and
    tries them in label order.  Returns (status, nodes, image indices)."""
    family = lattice_kind(kind)
    needed = set(family.nonzero(j - 1))
    if i >= len(family.nonzero(j)).bit_length() or len(needed) > 2 << i:
        return "none", 0, None
    source, target, size = family.source(i), family.target(j), 1 << i
    targets = target.labels
    contrib = {t: frozenset(v for v in lattice.sub_masks(j, t) if v in needed) for t in targets}
    preds = [[s2 for s2 in range(s) if source.leq(s2, s)] for s in range(size)]
    bit_preds = [[s & ~(1 << b) for b in range(i) if s >> b & 1] for s in range(size)]
    assignment = [0] * size
    used = set()
    cover_count = {v: 0 for v in needed}
    state = {"nodes": 0, "exhausted": False, "missing": len(needed)}

    def extend(s):
        if s == size:
            return state["missing"] == 0
        if state["missing"] > 2 * (size - s):
            return False
        required = 0
        for s2 in preds[s]:
            required |= assignment[s2]
        if shadow is not None:
            for s2 in bit_preds[s]:
                required |= shadow(assignment[s2])
        for t in [t for t in targets if t not in used and required & ~t == 0]:
            state["nodes"] += 1
            if state["nodes"] > budget:
                state["exhausted"] = True
                return False
            assignment[s] = t
            used.add(t)
            for v in contrib[t]:
                if cover_count[v] == 0:
                    state["missing"] -= 1
                cover_count[v] += 1
            if extend(s + 1):
                return True
            for v in contrib[t]:
                cover_count[v] -= 1
                if cover_count[v] == 0:
                    state["missing"] += 1
            used.discard(t)
            if state["exhausted"]:
                return False
        return False

    if extend(0):
        return "found", state["nodes"], tuple(target.index(t) for t in assignment)
    return "exhausted" if state["exhausted"] else "none", state["nodes"], None


SHAPES = [("monotone", 3, 3), ("monotone", 4, 3), ("monotone", 4, 4), ("monotone", 5, 4),
          ("csg", 2, 2), ("csg", 2, 3), ("csg", 3, 3), ("csg", 3, 4), ("csg", 4, 4), ("csg", 4, 5)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SHAPES), st.booleans(), st.integers(min_value=0, max_value=5000))
@example(("monotone", 4, 3), False, 5000)
@example(("monotone", 4, 4), True, 5000)
@example(("csg", 4, 4), True, 5000)
@example(("csg", 4, 5), True, 5000)
def test_bitset_engine_matches_the_former_engine(shape, with_shadow, budget):
    # the orders differ, so the first maps may too; an unsound prune shows as
    # a map the certifier rejects, a "none" where the oracle finds a map, or
    # a refutation that visits more of the tree than the oracle's
    kind, i, j = shape
    shadow = _early_shadow(j) if with_shadow else None
    out = search_embedding(kind, i, j, budget, shadow)
    status, nodes, _ = _former_search(kind, i, j, budget, shadow)
    if out.status == "found":
        certify(kind, i, j, out.map)
        labels = out.map.image_labels()
        if shadow is not None:
            assert all(shadow(labels[s & ~(1 << b)]) & ~labels[s] == 0
                       for s in range(1 << i) for b in range(i) if s >> b & 1)
        assert status != "none"
    if status == "found":
        assert out.status != "none"
    if out.status == "none" and status != "exhausted":
        assert status == "none" and out.nodes <= nodes


def _undo_search(kind, i, j, budget, shadow=None):
    """The engine before each child got its cover state passed down, kept as an
    oracle: one shared state (free targets, a cover count per needed value, the
    missing count, the open bitsets and an exhausted flag) that each child
    updates and undoes on return.  Returns the full SearchOutcome."""
    family = lattice_kind(kind)
    needed = {v: k for k, v in enumerate(family.nonzero(j - 1))}
    if i >= len(family.nonzero(j)).bit_length() or len(needed) > 2 << i:
        return lattice.SearchOutcome("none", None, 0, (("cover", 0), ("room", 0)), None)
    source, target, size = family.source(i), family.target(j), 1 << i
    labels, rows = target.labels, target.rows
    contrib = [tuple({needed[v] for v in lattice.sub_masks(j, t) if v in needed}) for t in labels]
    low_hits, high_hits = [0] * len(needed), [0] * len(needed)
    for t, label in enumerate(labels):
        for hits, v in zip((low_hits, high_hits), lattice.sub_masks(j, label)):
            if v in needed:
                hits[needed[v]] |= 1 << t
    two = sum(1 << t for t, vs in enumerate(contrib) if len(vs) == 2)
    above = [row.bit_count() for row in source.rows]
    lower_covers = [[] for _ in range(size)]
    for a, b in source.covers():
        lower_covers[b].append(a)
    bit_preds = [[s & ~(1 << b) for b in lattice._bits(s)] for s in range(size)]
    every = (1 << len(labels)) - 1
    assignment, counts = [0] * size, [0] * len(needed)
    free, nodes, missing, exhausted = every, 0, len(needed), 0
    lo_open, hi_open = sum(low_hits), sum(high_hits)  # disjoint bitsets
    cover_prunes, room_prunes, deepest = 0, 0, -1

    def extend(s):
        nonlocal free, nodes, missing, exhausted, lo_open, hi_open
        nonlocal cover_prunes, room_prunes, deepest
        if s == size:
            return missing == 0
        candidates = free
        for c in lower_covers[s]:
            candidates &= rows[assignment[c]]
        if shadow is not None:
            for p in bit_preds[s]:
                candidates &= target.above(shadow(labels[assignment[p]]))
        useful, room = candidates & (lo_open | hi_open), above[s]
        need = missing - 2 * (size - s - 1) if s + 1 < size else 0
        keep = -1 if need <= 0 else useful if need == 1 else lo_open & hi_open & two
        for group in (useful, candidates ^ useful):
            while group:
                bit = group & -group
                group ^= bit
                nodes += 1
                if nodes > budget:
                    exhausted = 1
                    return False
                t = bit.bit_length() - 1
                if (rows[t] & free).bit_count() < room:
                    room_prunes += 1
                    continue
                assignment[s] = t
                if s > deepest:
                    deepest = s
                if not bit & keep:
                    cover_prunes += 1
                    continue
                free ^= bit
                for v in contrib[t]:
                    if counts[v] == 0:
                        missing -= 1
                        lo_open ^= low_hits[v]
                        hi_open ^= high_hits[v]
                    counts[v] += 1
                if extend(s + 1):
                    return True
                for v in contrib[t]:
                    counts[v] -= 1
                    if counts[v] == 0:
                        missing += 1
                        lo_open ^= low_hits[v]
                        hi_open ^= high_hits[v]
                free |= bit
                if exhausted:
                    return False
        return False

    found = extend(0)
    prunes = (("cover", cover_prunes), ("room", room_prunes))
    reached = deepest if deepest >= 0 else None
    if found:
        image = LatticeMap(source, target, tuple(assignment))
        return lattice.SearchOutcome("found", image, nodes, prunes, reached)
    return lattice.SearchOutcome("exhausted" if exhausted else "none", None, nodes, prunes,
                                 reached)


UNDO_BUDGETS = (0, 1, 2, 7, 40, 300, 3000, 30000)


@pytest.mark.parametrize("kind,with_shadow,top_j", [
    ("monotone", False, 5), ("csg", False, 6), ("csg", True, 6)])
def test_engine_is_the_undo_engine_on_a_grid(kind, with_shadow, top_j):
    # i <= 6, every j and eight budgets: 952 searches over the three rows
    for i in range(7):
        for j in range(1, top_j + 1):
            shadow = _early_shadow(j) if with_shadow else None
            for budget in UNDO_BUDGETS:
                assert search_embedding(kind, i, j, budget, shadow) == \
                    _undo_search(kind, i, j, budget, shadow), (i, j, budget)


@pytest.mark.parametrize("kind,i,j,nodes", [row[:4] for row in PINNED],
                         ids=[f"{k}-{i},{j}" for k, i, j, _, _ in PINNED])
def test_engine_is_the_undo_engine_one_node_short_of_each_pin(kind, i, j, nodes):
    out = search_embedding(kind, i, j, nodes - 1)
    assert out == _undo_search(kind, i, j, nodes - 1)
    assert (out.status, out.nodes, out.map) == ("exhausted", nodes, None)


def test_search_finds_every_catalog_shape():
    nodes = {}
    for name, (i, j, masks) in lattice._embedding_tables().items():
        out = search_relation(i, j)
        cert = check_relation(i, j, out.map)
        assert (cert.i, cert.j, len(cert.map.image)) == (i, j, len(masks))
        nodes[name] = out.nodes
    assert nodes == {"post_alh": 13, "fig39": 22, "both_restricted": 8, "alh": 23549,
                     "small": 39, "friday": 47165}


@pytest.mark.parametrize("kind", ["monotone", "csg"])
@pytest.mark.parametrize("i,j", [(5, 3), (6, 3), (3, 2), (2, 1), (1, 5), (0, 3)])
def test_pigeonhole_and_cover_count_answer_none_at_once(kind, i, j):
    out = search_embedding(kind, i, j, budget=0)
    assert (out.status, out.map, out.nodes) == ("none", None, 0)


def test_cli_search_refutes_by_pigeonhole(capsys):
    assert cli.main(["lattice", "search", "--i", "5", "--j", "3"]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "none after 0 nodes"


def test_refutations_come_before_the_target_poset(monkeypatch):
    def refuse(j):
        raise AssertionError(f"target poset of arity {j} built for a refuted search")

    monkeypatch.setattr(lattice, "monotone_nonzero_poset", refuse)
    monkeypatch.setattr(csg, "csg_nonzero_poset", refuse)
    for out in (search_relation(1, 5), search_csg_relation(1, 6),
                search_relation(2**62, 3), search_csg_relation(2**62, 4)):
        assert (out.status, out.nodes) == ("none", 0)


def test_monotone_search_beyond_poset_capacity():
    with pytest.raises(CapacityError):
        search_relation(1, 6)
    with pytest.raises(CapacityError):
        monotone_nonzero_poset(6)


def test_engine_rejects_bad_arguments():
    with pytest.raises(InputError, match="i must be >= 0"):
        search_embedding("csg", -1, 3)
    with pytest.raises(InputError, match="j must be >= 1"):
        search_embedding("monotone", 1, 0)
    with pytest.raises(InputError, match="unknown lattice kind"):
        search_embedding("early", 1, 2)
    with pytest.raises(InputError, match=r"^unknown lattice kind 'x'; "
                                         r"choose from \('monotone', 'csg'\)$"):
        lattice_kind("x")
    with pytest.raises(InputError, match="budget must be >= 0"):
        search_embedding("monotone", 3, 3, budget=-1)


def _spy(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def test_cli_and_verifier_call_the_game_functions_bound_on_csg(tmp_path, capsys, monkeypatch):
    # the tracer records a search or a check by replacing the function on its module
    calls = []
    monkeypatch.setattr(csg, "search_csg_relation", _spy(calls, "search", search_csg_relation))
    monkeypatch.setattr(csg, "check_csg_relation", _spy(calls, "check", check_csg_relation))
    assert (lattice_kind("csg").search, lattice_kind("csg").check) == (
        csg.search_csg_relation, csg.check_csg_relation)
    out = tmp_path / "game.cert"
    argv = ["lattice", "search", "--csg", "--i", "2", "--j", "3", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert calls == ["search", "check"]
    assert verify_certificate(parse_certificate(out.read_text())).kind == "csg"
    assert calls == ["search", "check", "check"]


def test_certify_compares_the_source_size_before_building_a_cube(monkeypatch):
    post_alh = named_embedding("post_alh")  # a map from the 2-cube

    def small_only(build):
        def guarded(i):
            if i >= 13:
                raise AssertionError(f"a cube of dimension {i} was built")
            return build(i)
        return guarded

    monkeypatch.setattr(lattice, "boolean_cube", small_only(boolean_cube))
    monkeypatch.setattr(csg, "majorization_poset", small_only(csg.majorization_poset))
    for i in (1, 3, 13, 17, 10**6):
        with pytest.raises(InputError, match=f"^source poset is not the {i}-cube$"):
            check_relation(i, 3, post_alh)
        with pytest.raises(InputError, match=f"^source poset is not the majorization cube E_{i}$"):
            check_csg_relation(i, 3, post_alh)


def test_certify_checks_the_source_order():
    # injective, product-isotone and covering, but 01 <= 10 in majorization
    # while the image of 01 is not below the image of 10
    found = search_csg_relation(2, 3).map
    assert found.image == (0, 1, 2, 4)
    assert certify("csg", 2, 3, found).kind == "csg"
    swapped = LatticeMap(boolean_cube(2), csg_nonzero_poset(3), (0, 2, 1, 4))
    with pytest.raises(InputError, match="majorization cube"):
        check_csg_relation(2, 3, swapped)


def test_from_labels_rejects_foreign_masks():
    f3 = monotone_nonzero_poset(3)
    with pytest.raises(AdequacyError, match="non-lattice element"):
        LatticeMap.from_labels(boolean_cube(1), f3, (0x80, 0x0f))
    m = LatticeMap.from_labels(boolean_cube(1), f3, (0x80, 0xff))
    assert m.image_labels() == (0x80, 0xff)


def test_verify_certificate_rejects_unknown_kind():
    text = format_certificate(check_relation(2, 3, named_embedding("post_alh")))
    with pytest.raises(InputError, match="unknown lattice kind"):
        verify_certificate(parse_certificate(text.replace("kind: monotone", "kind: early")))


def _post_alh_text():
    return format_certificate(check_relation(2, 3, named_embedding("post_alh")))


def _game_text():
    out = search_csg_relation(2, 3)
    return format_certificate(check_csg_relation(2, 3, out.map))


MALFORMED = {
    "missing-i": lambda t: t.replace("i: 2\n", ""),
    "missing-j": lambda t: t.replace("j: 3\n", ""),
    "i-not-a-number": lambda t: t.replace("i: 2", "i: x"),
    "source-out-of-range": lambda t: t.replace("\n11 ->", "\n111 ->"),
    "huge-i-no-rows": lambda t: t.replace("i: 2", "i: 40").split("map:")[0] + "map:\ncover:\nend\n",
    "no-cover": lambda t: t.split("cover:")[0] + "end\n",
    "bit-not-binary": lambda t: t.replace("00 -> 0", "00 -> 2"),
    "source-twice": lambda t: t.replace("\n01 ->", "\n00 ->"),
    "short-row": lambda t: t.replace("00 -> 0", "00 -> "),
    "negative-i": lambda t: t.replace("i: 2", "i: -1"),
    "j-zero": lambda t: t.replace("j: 3", "j: 0"),
    "order-nonsense": lambda t: t.replace("order: product", "order: nonsense"),
    "order-of-games": lambda t: t.replace("order: product", "order: majorization"),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_parse_certificate_rejects_malformed(name):
    with pytest.raises(InputError):
        parse_certificate(MALFORMED[name](_post_alh_text()))


def test_parse_certificate_reads_valid_certificates():
    parsed = parse_certificate(_post_alh_text())
    assert (parsed["kind"], parsed["i"], parsed["j"]) == ("monotone", 2, 3)
    assert parsed["image_masks"] == named_embedding("post_alh").image_labels()
    cert = check_relation(0, 1, search_relation(0, 1).map)
    assert "\n- -> " in format_certificate(cert)
    assert verify_certificate(parse_certificate(format_certificate(cert))) == cert


def test_parse_certificate_accepts_a_missing_order_line():
    for text in (_post_alh_text(), _game_text()):
        order = next(line for line in text.splitlines() if line.startswith("order: "))
        assert parse_certificate(text.replace(order + "\n", "")) == parse_certificate(text)


def _returns_or_input_error(text):
    try:
        verify_certificate(parse_certificate(text))
    except InputError:
        pass


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(st.text(), st.booleans())
def test_fuzz_arbitrary_text(text, with_header):
    _returns_or_input_error(("maxcomplex-certificate v1\n" if with_header else "") + text)


@FUZZ
@given(st.booleans(), st.integers(min_value=0, max_value=100),
       st.one_of(st.none(), st.text(alphabet=st.characters(blacklist_characters="\r\n"))))
def test_fuzz_single_line_mutations(game, pos, line):
    lines = (_game_text() if game else _post_alh_text()).splitlines()
    pos %= len(lines)
    lines[pos:pos + 1] = [] if line is None else [line]
    _returns_or_input_error("\n".join(lines) + "\n")


def test_error_hierarchy_carries_exit_codes():
    assert issubclass(InputError, ValueError) and issubclass(CapacityError, RuntimeError)
    codes = {cls: (cls.exit_code, cls.prefix) for cls in
             (InputError, MismatchError, CapacityError, ExhaustedError)}
    assert codes == {InputError: (1, "error"), MismatchError: (2, "verification mismatch"),
                     CapacityError: (3, "capacity"), ExhaustedError: (4, "exhausted")}
    for cls in codes:
        assert issubclass(cls, MaxcomplexError)
    exits = (cli.EXIT_USAGE, cli.EXIT_MISMATCH, cli.EXIT_CAPACITY, cli.EXIT_EXHAUSTED)
    assert exits == (1, 2, 3, 4)
    assert cli.MismatchError is MismatchError and cli.ExhaustedError is ExhaustedError
