"""Acceptance suite: one check per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
"""

import random

from maxcomplex.core import ColoredFunction
from maxcomplex.bounds import complete_dfa_bound, csg_bound, general_bound, monotone_bound
from maxcomplex.minauto import mn_class_count, state_complexity, states_by_depth
from maxcomplex.witness import construct_maximal
from maxcomplex.counting import count_max, o_i, onto_count, onto_first_count
from maxcomplex import lattice, csg

MONOTONE_STATES = (1, 2, 4, 6, 10, 15, 23, 39, 58, 90, 154)

TABLE1_SIZE4 = """
000,001,010,101  000,001,010,111  000,001,011,100  000,001,100,111
000,001,011,110  000,001,101,110  000,010,011,101  000,010,011,111
001,010,011,100  010,011,100,111  001,010,011,110  010,011,101,110
000,011,100,101  000,100,101,111  001,010,100,101  010,100,101,111
001,100,101,110  011,100,101,110  000,011,110,111  000,101,110,111
001,010,110,111  010,101,110,111  001,100,110,111  011,100,110,111
"""

TABLE1_SIZE5 = """
000,001,010,100,111  000,001,010,101,110  000,001,011,100,110  000,001,011,101,110
000,001,011,100,111  000,001,010,101,111  000,010,011,100,111  000,010,011,101,110
001,010,011,100,110  001,010,011,101,110  001,010,011,100,111  000,010,011,101,111
000,010,100,101,111  000,011,100,101,110  001,010,100,101,110  001,011,100,101,110
001,010,100,101,111  000,011,100,101,111  000,010,101,110,111  000,011,100,110,111
001,010,100,110,111  001,011,100,110,111  001,010,101,110,111  000,011,101,110,111
"""

TABLE1_SIZE6 = """
000,001,010,011,100,111  000,001,010,011,101,110  000,001,010,100,101,111
000,001,011,100,101,110  000,001,010,101,110,111  000,001,011,100,110,111
000,010,011,100,101,111  001,010,011,100,101,110  000,010,011,101,110,111
001,010,011,100,110,111  000,011,100,101,110,111  001,010,100,101,110,111
"""


def _table1_sets():
    out = set()
    for blob in (TABLE1_SIZE4, TABLE1_SIZE5, TABLE1_SIZE6):
        for token in blob.split():
            out.add(frozenset(token.split(",")))
    return out


def _report(number, ok, detail):
    print(f"ACCEPTANCE CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def _words(f):
    return frozenset("".join(map(str, w)) for w in f.support())


def test_criterion_01_exhaustive_n3_reproduction():
    bound = general_bound(2, 2, 3)
    maximal = []
    for mask in range(256):
        f = ColoredFunction.from_mask(3, mask)
        if state_complexity(f) == bound:
            maximal.append(f)
    got = {_words(f) for f in maximal}
    expected = _table1_sets()
    sizes = sorted(len(s) for s in got)
    ok = (
        bound == 7
        and max(state_complexity(ColoredFunction.from_mask(3, m)) for m in range(256)) == 7
        and len(got) == 60
        and got == expected
        and sizes.count(4) == 24 and sizes.count(5) == 24 and sizes.count(6) == 12
    )
    _report(1, ok, f"max=7 over all 256 languages; 60 maximal sets match the reference table")


def test_criterion_02_counting_formula_vs_brute_force():
    results = []
    for n in range(1, 5):
        bound = general_bound(2, 2, n)
        brute = sum(
            1 for mask in range(1, 1 << (1 << n))
            if state_complexity(ColoredFunction.from_mask(n, mask)) == bound
        )
        results.append((n, count_max(2, 2, n)[1], brute))
    ok = all(formula == brute for _, formula, brute in results)
    _report(2, ok, f"count_max vs exhaustive scan: {results}")


def test_criterion_03_onto_machinery():
    checks = {
        "O_4_3": (onto_count(4, 3), 36),
        "O_3_3": (onto_count(3, 3), 6),
        "onto_first_4_4": (onto_first_count(4, 4), 60),
        "o_1": (o_i(2, 2, 3, 1), 0),
        "o_2": (o_i(2, 2, 3, 2), 60),
    }
    ok = all(got == want for got, want in checks.values())
    _report(3, ok, f"surjection counts {checks}")


def test_criterion_04_witness_attainment():
    results = []
    for b, c in ((2, 2), (2, 3), (3, 2)):
        for n in range(7):
            f = construct_maximal(b, c, n)
            results.append((b, c, n, state_complexity(f) == general_bound(b, c, n)))
    ok = all(flag for *_, flag in results)
    _report(4, ok, "construct_maximal attains general_bound for (2,2),(2,3),(3,2), n<=6 "
                   f"(includes bound {general_bound(2, 2, 6)} at (2,2,6))")


def test_criterion_05_bound_tables():
    ok = (
        general_bound(2, 2, 3) == 7
        and complete_dfa_bound(2, 3) == (2, 8)
        and tuple(monotone_bound(n) for n in range(11)) == MONOTONE_STATES
        and csg_bound(8) == 47
    )
    _report(5, ok, f"general(2,2,3)=7, complete(2,3)=8, monotone table {MONOTONE_STATES}, csg(8)=47")


def test_criterion_06_monotone_exhaustive_tightness():
    per_n = []
    for n in range(6):
        best = max(
            state_complexity(ColoredFunction.from_mask(n, mask))
            for mask in lattice.enumerate_monotone(n)
        )
        per_n.append((n, best, monotone_bound(n)))
    asian = ColoredFunction.from_language(3, ["011", "100", "101", "110", "111"])
    majority = ColoredFunction.from_language(3, ["011", "101", "110", "111"])
    ok = (
        all(best == bound for _, best, bound in per_n)
        and state_complexity(asian) == 6
        and state_complexity(majority) == 6
    )
    _report(6, ok, f"monotone maxima {per_n}; asian=6, majority=6")


def test_criterion_07_lattice_counts():
    monotone = [len(lattice.enumerate_monotone(n)) for n in range(7)]
    early = [len(csg.enumerate_early(n)) for n in range(6)]
    games = [len(csg.enumerate_csg(n)) for n in range(7)]
    expected_monotone = [2, 3, 6, 20, 168, 7581, 7828354]
    # Earliness binds only words of equal weight, so the count is a product of
    # up-set counts over the weight classes: 2*5*8*5*2 = 800 at arity 4.  The
    # paper prints 700 there; notes/decisions.md gives the derivation.
    expected_early = [2, 4, 12, 64, 800, 36864]
    expected_games = [2, 3, 5, 10, 27, 119, 1173]
    ok = monotone == expected_monotone and early == expected_early and games == expected_games
    _report(
        7, ok,
        f"monotone {monotone} (want {expected_monotone}); "
        f"early {early} (want {expected_early}); games {games} (want {expected_games}). "
        "Note: the arity-4 early reference value was corrected from the paper's "
        "printed 700 to the 800 that the earliness definition gives; "
        "see notes/decisions.md."
    )


def test_criterion_08_embeddings_certify():
    shapes = {
        "post_alh": (2, 3), "fig39": (4, 3), "both_restricted": (3, 3),
        "alh": (4, 4), "small": (5, 4), "friday": (6, 4),
    }
    results = {}
    for name, (i, j) in shapes.items():
        cert = lattice.check_relation(i, j, lattice.named_embedding(name))
        results[name] = cert.covered == frozenset(lattice.monotone_nonzero(j - 1))
    lemma = lattice.lemma_les_check()
    ok = all(results.values()) and lemma
    _report(8, ok, f"certified {sorted(results)}; pair-order lemma {lemma}")


def test_criterion_09_monotone_witnesses():
    results = []
    for n in range(11):
        f = lattice.build_witness_language(n).as_colored()
        results.append(state_complexity(f))
    ok = tuple(results) == MONOTONE_STATES
    _report(9, ok, f"witness complexities n=0..10: {results}")


def test_criterion_10_csg_chain():
    outcome = csg.search_csg_relation(4, 4, budget=10**7)
    cert = csg.check_csg_relation(4, 4, outcome.map) if outcome.status == "found" else None
    witness, _ = csg.build_csg_witness(8)
    f = witness.as_colored()
    complexity = state_complexity(f)
    ok = (
        outcome.status == "found"
        and cert is not None
        and len(csg.csg_nonzero(4)) == 26
        and len(csg.csg_nonzero(3)) == 9
        and len(cert.covered) == 9
        and complexity == 47
        and states_by_depth(f) == [1, 2, 4, 8, 16, 9, 4, 2, 1]
    )
    _report(10, ok, f"E_4 -> C_4^- certificate ({outcome.status}, cover 9/9); "
                    f"n=8 witness complexity {complexity}")


def test_criterion_11_cross_implementation_oracle():
    mismatches = 0
    for mask in range(256):
        f = ColoredFunction.from_mask(3, mask)
        if state_complexity(f) != mn_class_count(f):
            mismatches += 1
    rng = random.Random(20260811)
    for _ in range(1000):
        f = ColoredFunction.from_mask(5, rng.getrandbits(32))
        if state_complexity(f) != mn_class_count(f):
            mismatches += 1
    _report(11, mismatches == 0,
            f"residual method vs pairwise-class oracle: {mismatches} mismatches "
            "over 256 exhaustive (n=3) + 1000 seeded random (n=5) languages")
