"""`languages` workload: colored functions through the in-process pipeline.

Each task writes one function as a language file, reads it back, builds it
again, measures its state complexity, builds and draws its minimal
automaton, runs it on sampled words, cross-checks the pairwise oracle when
b^n <= 1024, and evaluates the bound and the maximal count once per
signature.  The mix fixes every table's shape, so seeds change contents,
not the amount of work: dense and sparse random tables, multi-color
tables, and the highly shared witness constructions.
"""

from __future__ import annotations

import random

from maxcomplex import bounds, cli, counting, csg, lattice, minauto, witness
from maxcomplex.core import ColoredFunction

import reference as ref

ORACLE_CELLS = 1024
WORDS_PER_TASK = 32
SPARSE_DENSITY = 1 / 64

MIX = {  # 104 tasks: enough that 10 latencies lie beyond p90
    "dense": (6, 6, 6, 7, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 11, 11, 12, 12, 12, 13, 14),
    "sparse": (7, 8, 8, 8, 9, 9, 10, 10, 10, 11, 11, 11, 12, 12, 12, 13, 13, 14, 14, 14),
    "multi": ((2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 2, 5), (3, 3, 5), (3, 4, 6),
              (3, 5, 6), (4, 2, 4), (4, 3, 5), (4, 5, 5), (5, 2, 4), (5, 3, 5),
              (5, 4, 4), (5, 5, 5), (2, 3, 9), (3, 2, 7), (2, 3, 5), (2, 4, 4),
              (2, 5, 4), (3, 2, 4), (3, 3, 4), (3, 4, 4), (3, 5, 4), (4, 2, 3),
              (4, 3, 3), (4, 4, 3), (5, 2, 3), (5, 3, 3), (5, 5, 3), (2, 3, 7), (2, 5, 5),
              (2, 2, 3), (2, 2, 4), (3, 2, 2), (2, 3, 2)),  # tiny: brute-force counts
    "maximal": ((2, 2, 5), (2, 2, 6), (2, 2, 7), (2, 2, 8), (2, 2, 9), (2, 2, 10),
                (2, 2, 11), (2, 2, 12), (2, 2, 14), (2, 3, 6), (2, 3, 8), (3, 3, 6),
                (3, 2, 4), (3, 2, 5), (4, 2, 4)),
    "monotone_witness": (4, 5, 6, 7, 8, 9, 10),
    "csg_witness": (3, 4, 5, 6, 7, 8),
}
SMOKE_MIX = {"dense": (6, 9), "sparse": (10,), "multi": ((3, 3, 4), (2, 2, 3)),
             "maximal": ((2, 2, 8),), "monotone_witness": (6,), "csg_witness": (6,)}


def _random_table(rng, b, c, n, density=None):
    cells = b**n
    if density is None:
        table = bytearray(rng.randrange(c) for _ in range(cells))
    else:
        table = bytearray(rng.randrange(1, c) if rng.random() < density else 0
                          for _ in range(cells))
    if not any(table):  # the zero function has no automaton
        table[rng.randrange(cells)] = 1
    return bytes(table)


def _sample_words(rng, f):
    support = [r for r, v in enumerate(f.table) if v]
    ranks = [rng.randrange(len(f.table)) for _ in range(WORDS_PER_TASK // 2)]
    ranks += [rng.choice(support) for _ in range(WORDS_PER_TASK - len(ranks))]
    return [ref.word(r, f.n, f.b) for r in ranks]


def make_tasks(seed: int, smoke: bool) -> list[dict]:
    """Input functions for one job; the witnesses are built by the program."""
    mix = SMOKE_MIX if smoke else MIX
    rng = random.Random(seed)
    tasks = []

    def add(kind, f, expected=None):
        tasks.append({"name": f"{kind}:{f.b},{f.c},{f.n}", "f": f,
                      "words": _sample_words(rng, f), "expected": expected})

    for n in mix["dense"]:
        add("dense", ColoredFunction(2, n, 2, _random_table(rng, 2, 2, n)))
    for n in mix["sparse"]:
        add("sparse", ColoredFunction(2, n, 2, _random_table(rng, 2, 2, n, SPARSE_DENSITY)))
    for b, c, n in mix["multi"]:
        add("multi", ColoredFunction(b, n, c, _random_table(rng, b, c, n)))
    for b, c, n in mix["maximal"]:
        add("maximal", witness.construct_maximal(b, c, n), ref.general_bound(b, c, n))
    for n in mix["monotone_witness"]:
        add("monotone-witness", lattice.build_witness_language(n).as_colored(),
            ref.MONOTONE_BOUNDS[n])
    for n in mix["csg_witness"]:
        add("csg-witness", csg.build_csg_witness(n)[0].as_colored(), ref.csg_bound(n))
    return tasks


def make_pieces(seed: int, smoke: bool) -> list[tuple]:
    """(task name, timed call, check of its result) in run order.

    The first task of each signature also evaluates its bound and maximal
    count; that is fixed here, so a repeated call does the same work.
    """
    seen: set = set()
    pieces = []
    for k, task in enumerate(make_tasks(seed, smoke)):
        f = task["f"]
        first = (f.b, f.c, f.n) not in seen
        seen.add((f.b, f.c, f.n))
        pieces.append((f"{k}:{task['name']}", lambda task=task, first=first: run_task(task, first),
                       lambda out, task=task: check_task(task, out)))
    return pieces


def run_task(task: dict, per_signature: bool) -> dict:
    """The timed pipeline; returns every output the checks need."""
    f = task["f"]
    text = cli.format_language_file(f, comment=task["name"])
    parsed = cli.parse_language_file(text)
    g = ColoredFunction(parsed.b, parsed.n, parsed.c, parsed.table)
    out = {"parsed": parsed, "g": g,
           "complexity": minauto.state_complexity(g),
           "by_depth": minauto.states_by_depth(g)}
    pdfa = minauto.minimal_pdfa(g)
    out["pdfa_states"] = pdfa.state_count
    out["dot"] = minauto.export_dot(pdfa)
    out["runs"] = [minauto.run(pdfa, w) for w in task["words"]]
    if g.b**g.n <= ORACLE_CELLS:
        out["oracle"] = minauto.mn_class_count(g)
    out["family"] = bounds.cp_family([g])
    out["family_bound"] = bounds.family_bound(g.b, out["family"])
    if per_signature:
        signature = (g.b, g.c, g.n)
        out["general_bound"] = bounds.general_bound(*signature)
        out["count_max"] = counting.count_max(*signature)
    return out


def check_task(task: dict, out: dict) -> str | None:
    """First mismatch against references, or None when every output is right."""
    f = task["f"]
    b, c, n = f.b, f.c, f.n
    if out["parsed"] != f or out["g"] != f:
        return "parse(format(f)) != f"
    profile = ref.residual_profile(b, n, f.table)
    if out["by_depth"] != profile or out["complexity"] != sum(profile):
        return f"complexity {out['complexity']} != reference {sum(profile)}"
    if out["pdfa_states"] != out["complexity"]:
        return "minimal_pdfa state count != state_complexity"
    if out["dot"].count("shape=") != out["complexity"] + 1:
        return "DOT node count != state count"
    if out["runs"] != [f.table[ref.rank(w, b)] for w in task["words"]]:
        return "run disagrees with the table"
    if "oracle" in out and out["oracle"] != out["complexity"]:
        return "pairwise oracle disagrees with the residual count"
    if out["family"] != profile or out["family_bound"] != sum(profile):
        return "cp_family([f]) != residual profile"
    if task["expected"] is not None and out["complexity"] != task["expected"]:
        return f"witness scores {out['complexity']}, expected {task['expected']}"
    if "general_bound" in out:
        if out["general_bound"] != ref.general_bound(b, c, n):
            return "general_bound mismatch"
        expected = ref.count_max(b, c, n)
        if ref.BRUTE_MAX_COUNTS.get((b, c, n), expected[1]) != expected[1]:
            return "reference count_max disagrees with the brute-force constant"
        if c ** (b**n) <= 1 << 12:
            if ref.brute_max_count(b, c, n) != expected[1]:
                return "reference count_max disagrees with brute force"
        if tuple(out["count_max"]) != expected:
            return f"count_max {out['count_max']} != {expected}"
    return None


def counters(name: str, out: dict) -> dict:
    """Exact work counters observable from one task's outputs."""
    return {"residuals": sum(out["by_depth"]),
            "slices": sum(out["by_depth"][:-1]) * out["g"].b,
            "pdfa_states": out["pdfa_states"],
            "oracle_classes": out.get("oracle", 0)}
