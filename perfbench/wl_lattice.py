"""`lattice` workload: enumeration, posets, catalog, search and witnesses.

One job runs in a fresh interpreter, so the in-memory caches start cold as
they do for every CLI user.  Enumeration, poset building and the embedding
search carry the work; tables stay at 2^10 cells or fewer.  The seed only
picks the masks and order pairs that are sampled for checks, so the work
counters are the same for every seed.
"""

from __future__ import annotations

import random

from maxcomplex import core, csg, lattice, minauto, witness

import reference as ref

SEARCH_BUDGET = 10**5  # (5,4) and the game search end exhausted at budget + 1
MASK_SAMPLE = 256
PAIR_SAMPLE = 2000


def _check_enumerated(counts, n, masks):
    if len(masks) != counts[n] or masks[0] != 0 or masks[-1] != (1 << (1 << n)) - 1:
        return f"{len(masks)} functions, expected {counts[n]}"
    if any(masks[k] >= masks[k + 1] for k in range(len(masks) - 1)):
        return "masks not strictly ascending"
    return None


def _check_poset(rng, size, leq, poset):
    """Size, and the order on sampled pairs against the reference `leq`."""
    if len(poset) != size:
        return f"poset of {len(poset)} elements, expected {size}"
    for _ in range(PAIR_SAMPLE):
        a, b = rng.randrange(size), rng.randrange(size)
        if poset.leq(a, b) != leq(poset.labels[a], poset.labels[b]):
            return f"order wrong at {poset.labels[a]}, {poset.labels[b]}"
    return None


def _catalog(name):
    i, j = lattice.embedding_shape(name)
    cert = lattice.check_relation(i, j, lattice.named_embedding(name))
    again = lattice.verify_certificate(lattice.parse_certificate(lattice.format_certificate(cert)))
    return (i, j), cert, again


def _check_catalog(name, result):
    shape, cert, again = result
    if shape != ref.CATALOG_SHAPES[name]:
        return f"shape {shape}"
    if again.map.image != cert.map.image or again.covered != cert.covered:
        return "certificate round trip changed the map"
    return ref.check_embedding(*shape, cert.map.image_labels())


def _search(search, certify, i, j, budget):
    outcome = search(i, j, budget=budget)
    cert = certify(i, j, outcome.map) if outcome.status == "found" else None
    return outcome, cert


def _check_search(budget, exists, check_image, result):
    """A found map must pass `check_image`; a budgeted miss must stop at budget + 1."""
    outcome, cert = result
    if outcome.status == "found":
        return check_image(cert.map.image_labels())
    if exists and (budget is None or outcome.status == "none"):
        return f"status {outcome.status}, but an embedding exists"
    if outcome.status == "exhausted" and outcome.nodes != budget + 1:
        return f"exhausted after {outcome.nodes} nodes, budget {budget}"
    return None


def _is_game_image(j, image):
    if all(ref.is_early_mask(j, m) and ref.is_monotone_mask(j, m) for m in image):
        return None
    return "image leaves the game lattice"


def _csg_witness(n, early):
    try:
        w, cert = csg.build_csg_witness(n, require_early=early)
    except witness.NoWitnessError:
        return None
    return w, minauto.state_complexity(w.as_colored())


# Arities where the earliness-constrained game chain is refuted exhaustively.
NO_EARLY_WITNESS = {4, 6, 7, 8}


def _check_csg_witness(n, early, result):
    if result is None:
        return None if early and n in NO_EARLY_WITNESS else "no witness built"
    if early and n in NO_EARLY_WITNESS:
        return "witness built where none exists"
    w, complexity = result
    if complexity != ref.csg_bound(n) or (n == 8 and complexity != ref.CSG_WITNESS_8):
        return f"game witness scores {complexity}"
    if not ref.is_monotone_mask(n, w.mask) or (early and not ref.is_early_mask(n, w.mask)):
        return "witness leaves its function class"
    return None


def _monotone_witness(n):
    w = lattice.build_witness_language(n)
    return w, minauto.state_complexity(w.as_colored())


def _check_monotone_witness(n, result):
    w, complexity = result
    if complexity != ref.MONOTONE_BOUNDS[n]:
        return f"witness scores {complexity}, bound is {ref.MONOTONE_BOUNDS[n]}"
    profile = ref.residual_profile(2, n, bytes((w.mask >> r) & 1 for r in range(1 << n)))
    if sum(profile) != complexity or not ref.is_monotone_mask(n, w.mask):
        return "witness is not a monotone language of that complexity"
    return None


def _masks(sample):
    out = []
    for n, mask in sample:
        f = core.MonotoneFunction(n, mask).as_colored()
        out.append((f.mask, core.is_monotone(f)))
    return out


def make_pieces(seed: int, smoke: bool) -> list[tuple]:
    """(task name, timed call, check of its result) in run order."""
    rng = random.Random(seed)
    top = 4 if smoke else 6
    pieces = []
    for n in range(top + 1):
        pieces.append((f"enumerate_monotone:{n}", lambda n=n: lattice.enumerate_monotone(n),
                       lambda r, n=n: _check_enumerated(ref.DEDEKIND, n, r)))
    for n in range(top + 1):
        pieces.append((f"enumerate_csg:{n}", lambda n=n: csg.enumerate_csg(n),
                       lambda r, n=n: _check_enumerated(ref.CSG_COUNTS, n, r)))
    for n in range(min(top, 5) + 1):
        pieces.append((f"enumerate_early:{n}", lambda n=n: csg.enumerate_early(n),
                       lambda r, n=n: _check_enumerated(ref.EARLY_COUNTS, n, r)))
    subset = ref.cube_leq  # the lattices order masks by inclusion
    for j in range(1, 5):
        pieces.append((f"monotone_nonzero_poset:{j}",
                       lambda j=j: lattice.monotone_nonzero_poset(j),
                       lambda r, j=j: _check_poset(rng, ref.DEDEKIND[j] - 1, subset, r)))
    for n in range(top + 2):
        pieces.append((f"majorization_poset:{n}", lambda n=n: csg.majorization_poset(n),
                       lambda r, n=n: _check_poset(
                           rng, 1 << n, lambda x, y: ref.majorization_leq(n, x, y), r)))
    for j in range(1, top + 1):
        pieces.append((f"csg_nonzero_poset:{j}", lambda j=j: csg.csg_nonzero_poset(j),
                       lambda r, j=j: _check_poset(rng, ref.CSG_COUNTS[j] - 1, subset, r)))
    for name in lattice.EMBEDDING_NAMES:
        pieces.append((f"catalog:{name}", lambda name=name: _catalog(name),
                       lambda r, name=name: _check_catalog(name, r)))
    budget = 2000 if smoke else SEARCH_BUDGET
    # every monotone shape has a map: (5,4) by the `small` catalog entry
    shapes = [(3, 3, None), (4, 3, None), (5, 4, budget)]
    if not smoke:
        shapes.insert(2, (4, 4, None))
    for i, j, cap in shapes:
        pieces.append((f"search_relation:{i},{j}",
                       lambda i=i, j=j, cap=cap: _search(
                           lattice.search_relation, lattice.check_relation, i, j, cap or 10**8),
                       lambda r, i=i, j=j, cap=cap: _check_search(
                           cap, True, lambda img: ref.check_embedding(i, j, img), r)))
    for i, j, cap in [(3, 4, None), (4, 5, budget)]:
        pieces.append((f"search_csg_relation:{i},{j}",
                       lambda i=i, j=j, cap=cap: _search(
                           csg.search_csg_relation, csg.check_csg_relation, i, j, cap or 10**8),
                       lambda r, j=j, cap=cap: _check_search(
                           cap, cap is None, lambda img: _is_game_image(j, img), r)))
    for n in range(1, 9 if not smoke else 5):
        for early in (False, True):
            pieces.append((f"build_csg_witness:{n}{'e' if early else ''}",
                           lambda n=n, early=early: _csg_witness(n, early),
                           lambda r, n=n, early=early: _check_csg_witness(n, early, r)))
    for n in range(11 if not smoke else 7):
        pieces.append((f"build_witness_language:{n}", lambda n=n: _monotone_witness(n),
                       lambda r, n=n: _check_monotone_witness(n, r)))
    pieces.append(("lemma_les_check", lattice.lemma_les_check,
                   lambda r: None if r is True else "pair-order lemma refuted"))
    # indices drawn now, masks looked up once the enumeration pieces ran
    picks = [(n, rng.randrange(ref.DEDEKIND[n]))
             for n in (min(top, 5), top) for _ in range(MASK_SAMPLE)]
    sample = []

    def masks():
        sample[:] = [(n, lattice.enumerate_monotone(n)[k]) for n, k in picks]
        return _masks(sample)

    pieces.append(("monotone_masks", masks,
                   lambda r: None if r == [(m, True) for _, m in sample] else "mask round trip"))
    return pieces


def counters(name: str, result) -> dict:
    """Exact work counters observable from one piece's output."""
    kind, _, arg = name.partition(":")
    if kind in ("enumerate_monotone", "enumerate_csg", "enumerate_early"):
        return {kind: len(result)}
    if kind in ("search_relation", "search_csg_relation"):
        return {f"nodes[{name}]": result[0].nodes}
    if kind.endswith("poset"):
        return {f"pairs[{kind}]": sum(bin(row).count("1") for row in result.rows)}
    return {}
