"""Minimal partial automata for bounded-length colored functions.

States of the minimal recognizer correspond to the distinct nonzero
residuals of the function; prefixes whose residual is identically zero get
no state at all.  Because every accepted word has length exactly n, the
automaton is leveled: transitions go from depth d to depth d+1.
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from struct import iter_unpack
from typing import Iterable, Iterator

from .core import (
    ColoredFunction,
    InputError,
    Value,
    WordLike,
    as_word,
    is_zero,
    rank,
    unrank,
    upward_closure_mask,
)


class NoAutomatonError(InputError):
    """The zero function is recognized by no partial automaton."""


def residual_levels(tables: Iterable[bytes], b: int, n: int
                    ) -> Iterator[tuple[list[bytes], list[bytes]]]:
    """Distinct nonzero residuals at each depth 0..n, with every child slice.

    Yields one (level, pieces) pair per depth d.  level holds the distinct
    nonzero residual tables of the length-d prefixes, in first-reached order:
    depth 0 keeps the order of `tables`, a deeper level is scanned parent by
    parent and symbol by symbol.  pieces[k*b + sym] is the residual after symbol
    sym from level[k], zero or repeated ones included, all cut in C from the
    joined level; it is empty at depth n.  All tables must have b^n cells.
    """
    span = b**n
    dead = bytes(span)
    level = list(dict.fromkeys(t for t in tables if t != dead))
    for _ in range(n):
        span //= b
        pieces = list(map(itemgetter(0), iter_unpack(f"{span}s", b"".join(level))))
        yield level, pieces
        index = dict.fromkeys(pieces)  # first-reached: parent by parent, symbol by symbol
        index.pop(bytes(span), None)
        level = list(index)
    yield level, []


def _depth_counts(f: ColoredFunction) -> tuple[int, ...]:
    """Distinct nonzero residuals of f at each depth 0..n, all 0 when f is zero.
    f keeps them (notes/decisions.md, "A function keeps its depth counts"), so
    only the first call makes a counts-only pass, none if `minimal_pdfa(f)`
    came first."""
    counts = getattr(f, "_memo", None)
    if counts is None:
        counts = tuple(len(level) for level, _ in residual_levels([f.table], f.b, f.n))
        object.__setattr__(f, "_memo", counts)
    return counts


def states_by_depth(f: ColoredFunction) -> list[int]:
    """Number of distinct nonzero residuals at each prefix length 0..n; [] for
    the zero function.  Reads the counts that f keeps, so only its first call
    (or its first `minimal_pdfa`) makes a residual pass, and this one builds no
    automaton.  Every call returns a new list."""
    counts = _depth_counts(f)
    return list(counts) if counts[0] else []


def state_complexity(f: ColoredFunction) -> int:
    """Exact minimal state count over all partial recognizers of f.

    Equals the number of distinct nonzero residuals over all prefixes;
    0 for the zero function.
    """
    return sum(states_by_depth(f))


class Pdfa(Value):
    """Leveled partial deterministic automaton accepting a colored function.

    Special states q_1..q_{c-1} are the depth-n states; a run ends in q_i
    exactly on the words of color i, and dies (or never existed) on color 0.
    `special` holds at index i-1 the id of q_i, or None if color i is unused;
    `delta[s * b + sym]` is the state after symbol sym from state s, or None
    where the run dies, so the depth-n rows are all None; `depth` holds the
    depth of each state.  Fields of the wrong length, a start, target or special
    id that names no state, and a state named twice in `special` (a state ends
    the runs of one color only) raise InputError; any transitions are legal.
    """

    __slots__ = ("b", "n", "c", "state_count", "start", "delta", "special", "depth")

    def __init__(self, b: int, n: int, c: int, state_count: int, start: int,
                 delta: tuple, special: tuple, depth: tuple):
        for name, size, want in (("delta", len(delta), b * state_count),
                                 ("depth", len(depth), state_count),
                                 ("special", len(special), c - 1)):
            if size != want:
                raise InputError(f"{name} has length {size}, not {want}")
        ids = set(delta)  # one pass in C, cheaper than min and max over delta
        ids.update(special)
        ids.discard(None)
        ids.add(start)
        low, high = min(ids), max(ids)
        if low < 0 or high >= state_count:
            raise InputError(f"state id {low if low < 0 else high} names none of "
                             f"{state_count} states")
        named = [sid for sid in special if sid is not None]
        if len(set(named)) < len(named):
            raise InputError(f"state {max(named, key=named.count)} is named twice in special")
        self._set(b, n, c, state_count, start, delta, special, depth)


def minimal_pdfa(f: ColoredFunction) -> Pdfa:
    """Construct the canonical minimal recognizer of a nonzero function.

    State ids are assigned breadth-first; within a depth, states are numbered
    by the lexicographically least prefix reaching them, so output is
    deterministic.  Every call builds a new automaton; f keeps the level sizes
    of its residual pass as its depth counts (`states_by_depth`).
    """
    if is_zero(f):
        raise NoAutomatonError("the zero function has no recognizer")
    delta: list[int | None] = []
    depth_of: list[int] = []
    counts: list[int] = []
    pieces: list[bytes] = []  # the child slices of the depth above
    for depth, (level, cut) in enumerate(residual_levels([f.table], f.b, f.n)):
        ids = dict(zip(level, range(len(depth_of), len(depth_of) + len(level))))
        ids[bytes(f.b ** (f.n - depth))] = None  # a zero slice leads nowhere
        delta += map(ids.__getitem__, pieces)
        counts.append(len(level))
        depth_of.extend([depth] * len(level))
        pieces = cut
    delta += [None] * (len(level) * f.b)
    special = [None] * (f.c - 1)
    for table in level:
        special[table[0] - 1] = ids[table]
    object.__setattr__(f, "_memo", tuple(counts))
    return Pdfa(
        b=f.b,
        n=f.n,
        c=f.c,
        state_count=len(depth_of),
        start=0,
        delta=tuple(delta),
        special=tuple(special),
        depth=tuple(depth_of),
    )


def run(a: Pdfa, word: WordLike) -> int:
    """Color assigned by the automaton: i > 0 if the run ends in q_i, else 0."""
    w = as_word(word)
    if len(w) != a.n:
        raise InputError(f"word length {len(w)} != n = {a.n}")
    b, delta, state = a.b, a.delta, a.start
    for d in w:
        if not 0 <= d < b:
            raise InputError(f"digit {d} out of range for alphabet size {b}")
        state = delta[state * b + d]
        if state is None:
            return 0
    for i, sid in enumerate(a.special, start=1):
        if sid == state:
            return i
    return 0


def mn_equivalent(s: WordLike, t: WordLike, f: ColoredFunction,
                  up_closure: bool = False) -> bool:
    """Pairwise bounded equivalence test between two prefixes.

    Scans every extension u that keeps both s.u and t.u within length n and
    compares the colors assigned (a word shorter than n counts as color 0).
    With up_closure=True membership is taken in the upward closure of the
    language instead (b=2, c=2 only).
    """
    sw, tw = as_word(s), as_word(t)
    if len(sw) > f.n or len(tw) > f.n:
        raise InputError("prefix longer than n")
    return _equivalent(_oracle_table(f, up_closure), f.b, f.n,
                       rank(sw, f.b), len(sw), rank(tw, f.b), len(tw))


def _oracle_table(f: ColoredFunction, up_closure: bool) -> bytes:
    """The table the oracle reads: f's own, or its upward closure's."""
    if not up_closure:
        return f.table
    if f.b != 2 or f.c != 2:
        raise InputError("up-closure test requires b=2, c=2")
    closed = upward_closure_mask(f.n, f.mask)
    return ColoredFunction.from_mask(f.n, closed).table


def _equivalent(table: bytes, b: int, n: int, rs: int, ls: int, rt: int, lt: int) -> bool:
    """mn_equivalent on prefix ranks rs, rt and lengths ls, lt.  The colors of s.u
    over all u of length ext are table[rs*b^ext : (rs+1)*b^ext] when ls + ext = n,
    else all 0 (notes/decisions.md)."""
    for ext in range(n - max(ls, lt) + 1):
        s_full, t_full = ls + ext == n, lt + ext == n
        if not s_full and not t_full:
            continue
        width = b**ext
        cs = table[rs * width : (rs + 1) * width] if s_full else bytes(width)
        ct = table[rt * width : (rt + 1) * width] if t_full else bytes(width)
        if cs != ct:
            return False
    return True


def _live_levels(f: ColoredFunction) -> list[list[int]]:
    """Per depth 0..n, the ranks of the prefixes whose residual is not identically zero.
    Cell r of `live` is nonzero iff some extension of prefix r has a nonzero color:
    one depth up, it is the OR of the b byte columns live[sym::b], each read as an int."""
    b, levels = f.b, [f.table]
    for _ in range(f.n):
        live, merged = levels[-1], 0
        for sym in range(b):
            merged |= int.from_bytes(live[sym::b], "big")
        levels.append(merged.to_bytes(len(live) // b, "big"))
    return [list(compress(range(len(live)), live)) for live in reversed(levels)]


def _classes(f: ColoredFunction, up_closure: bool) -> list[list[list[int]]]:
    """Per depth, the live prefix ranks grouped by the pairwise test.

    Two prefixes of the same depth d both reach length n only at extension
    length n - d, so the test is one comparison of their b^(n-d)-cell slices.
    Each prefix joins the first class whose first member's slice equals its
    own: `firsts.index` tests the classes in order and stops at the first
    equal one, in C.  The last slot of `firsts` holds the slice under test, so
    a new class is found there by identity, with no further == (notes/decisions.md).
    A quadratic grouping, nothing hashed.
    """
    table = _oracle_table(f, up_closure)
    by_depth = []
    for depth, live in enumerate(_live_levels(f)):
        width = f.b ** (f.n - depth)
        groups: list[list[int]] = []
        firsts: list[bytes | None] = [None]  # each class's first slice, then the slot
        for r in live:
            firsts[-1] = piece = table[r * width : (r + 1) * width]
            k = firsts.index(piece)
            if k < len(groups):
                groups[k].append(r)
            else:  # the slice itself: it opens a class, and a new slot follows
                groups.append([r])
                firsts.append(None)
        by_depth.append(groups)
    return by_depth


def mn_classes(f: ColoredFunction, up_closure: bool = False) -> tuple:
    """Group all live prefixes by the pairwise bounded-equivalence test: per depth
    0..n, a tuple of classes, each a tuple of Words.  Two prefixes share a class
    exactly when no bounded extension separates them; live prefixes of different
    lengths never do (their extensions cannot both reach length n), so the
    grouping is per depth."""
    return tuple(tuple(tuple(unrank(r, depth, f.b) for r in g) for g in groups)
                 for depth, groups in enumerate(_classes(f, up_closure)))


def mn_class_count(f: ColoredFunction, up_closure: bool = False) -> int:
    """Number of pairwise-equivalence classes over all live prefixes."""
    if is_zero(f):
        return 0
    return sum(len(groups) for groups in _classes(f, up_closure))


def export_dot(a: Pdfa) -> str:
    """Deterministic DOT rendering; parallel edges get merged labels, and edges come
    sorted by (source, target).  Two letters give each state at most two edges, written
    in target order as they are read (notes/decisions.md).  Otherwise one pass over
    delta, in (source, symbol) order, writes each label's symbols sorted; an edge's
    int key src * state_count + dst sorts as the pair (src, dst)."""
    lines = [
        "digraph pdfa {",
        "  rankdir=LR;",
        '  __start [shape=point, label=""];',
        f"  __start -> s{a.start};",
    ]
    b, count, delta = a.b, a.state_count, a.delta
    nodes = [f'  s{sid} [shape=circle, label="s{sid}"];' for sid in range(count)]
    for i, sid in enumerate(a.special, start=1):
        if sid is not None:
            nodes[sid] = f'  s{sid} [shape=doublecircle, label="q_{i}"];'
    lines += nodes
    if b == 2:
        pairs = iter(delta)
        for src, (zero, one) in enumerate(zip(pairs, pairs)):
            if zero is None:
                if one is not None:
                    lines.append(f'  s{src} -> s{one} [label="1"];')
            elif one is None:
                lines.append(f'  s{src} -> s{zero} [label="0"];')
            elif zero < one:
                lines += f'  s{src} -> s{zero} [label="0"];', f'  s{src} -> s{one} [label="1"];'
            elif zero > one:
                lines += f'  s{src} -> s{one} [label="1"];', f'  s{src} -> s{zero} [label="0"];'
            else:
                lines.append(f'  s{src} -> s{zero} [label="0,1"];')
    else:
        symbols = [str(sym) for sym in range(b)] * count  # the symbol of each slot of delta
        labels: dict[int, str] = {}  # edge src * count + dst -> its symbols, ascending
        edges = [i // b * count + dst for i, dst in enumerate(delta) if dst is not None]
        for edge, sym in zip(edges, [sym for sym, dst in zip(symbols, delta) if dst is not None]):
            labels[edge] = f"{labels[edge]},{sym}" if edge in labels else sym
        lines += [f'  s{edge // count} -> s{edge % count} [label="{labels[edge]}"];'
                  for edge in sorted(labels)]
    lines.append("}\n")
    return "\n".join(lines)
