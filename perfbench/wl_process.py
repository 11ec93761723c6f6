"""`process` workload: the maxcomplex program run command by command.

A closed loop with one client: each command is a fresh
`python -m maxcomplex.cli` process, started only after the previous one
exited.  Only this workload pays interpreter start-up, argument parsing,
language-file and certificate disk I/O, and the disk cache in both
directions (store on a miss, load on a hit).  The same script can be
replayed in-process through `cli.main(argv)` to split the process overhead
from the work and to trace the layers.

Two commands stay in the script because they end in a traceback today
(known defects).  They count as failed until the program is fixed; a fix
that answers correctly, or exits with a documented code and no traceback,
makes them pass.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import reference as ref

# Arity-7 complete simple games number 44,315 (Kurz & Tautenhahn 2013), far
# above 2^11, so every term of the n = 18 game bound with arity >= 7 is 2^i.
CSG_BOUND_18 = sum(2**i for i in range(12)) + sum(c - 1 for c in ref.CSG_COUNTS)


def _payload(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _big_int(digits: str) -> int:
    """Decimal string to int without tripping the int/str digit limit."""
    value = 0
    for start in range(0, len(digits), 1000):
        chunk = digits[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _check_profile(path: str, value: int, ctx: dict) -> str | None:
    """The written file's own residual count must be `value`; remembers the table."""
    b, c, n, table = ref.parse_language(Path(path).read_text())
    ctx["tables"][path] = (b, c, n, table)
    total = sum(ref.residual_profile(b, n, table))
    return None if total == value else f"complexity {value}, the file's residuals give {total}"


def _construct(b, c, n, out):
    def check(p, ctx):
        bound = ref.general_bound(b, c, n)
        if p["complexity"] != bound or p["bound"] != str(bound) or not p["attained"]:
            return f"construct scores {p['complexity']}, bound {bound}"
        return _check_profile(out, bound, ctx)
    return ["construct", "--b", str(b), "--c", str(c), "--n", str(n), "--out", out], check


def _complexity(path, dot=None, crosscheck=False):
    argv = ["complexity", path]
    if dot:
        argv += ["--dot", dot]
    if crosscheck:
        argv.append("--mn-crosscheck")

    def check(p, ctx):
        b, c, n, table = ctx["tables"][path]
        profile = ref.residual_profile(b, n, table)
        ctx["counters"]["complexity_sum"] = ctx["counters"].get("complexity_sum", 0) + sum(profile)
        if p["complexity"] != sum(profile) or p["states_by_depth"] != profile:
            return f"complexity {p['complexity']}, reference {sum(profile)}"
        if crosscheck and p.get("mn_class_count") != sum(profile):
            return "pairwise oracle count missing or wrong"
        if dot and Path(dot).read_text().count("shape=") != sum(profile) + 1:
            return "DOT file node count != complexity"
        return None
    return argv, check


def _bound(kind, n, b=2, c=2):
    def check(p, ctx):
        if kind == "general":
            return None if p["bound"] == str(ref.general_bound(b, c, n)) else "general bound"
        if kind == "complete":
            r, value = ref.complete_dfa_bound(b, n)
            return None if (p["r"], p["bound"]) == (r, str(value)) else "complete bound"
        expected = {"monotone": ref.monotone_bound, "csg": ref.csg_bound}[kind](n)
        return None if p["bound"] == str(expected) else f"{kind} bound {p['bound']}"
    return ["bound", "--kind", kind, "--b", str(b), "--c", str(c), "--n", str(n)], check


def _count_max(n, b=2, c=2, brute=False):
    def check(p, ctx):
        i, count = ref.count_max(b, c, n)
        if (p["i"], _big_int(p["count"])) != (i, count):
            return "count-max disagrees with the closed form"
        if brute and not p["brute_count"] == p["count"] == str(ref.BRUTE_MAX_COUNTS[(b, c, n)]):
            return "brute-force count wrong"
        return None
    argv = ["count-max", "--b", str(b), "--c", str(c), "--n", str(n)]
    return argv + (["--verify-brute"] if brute else []), check


def _enumerate(n, games):
    counts = ref.CSG_COUNTS if games else ref.DEDEKIND

    def check(p, ctx):
        ctx["counters"][f"enumerated[{p['kind']}]"] = p["count"]
        if (p["count"], p["nonzero_count"]) != (counts[n], counts[n] - 1):
            return f"enumeration counts {p['count']}"
        return None
    return ["lattice", "enumerate", "--n", str(n)] + (["--csg"] if games else []), check


def _read_certificate(text: str) -> tuple[int, int, tuple]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    fields = dict(ln.split(": ") for ln in lines if ln.startswith(("i:", "j:")))
    i, j = int(fields["i"]), int(fields["j"])
    start, stop = lines.index("map:") + 1, lines.index("cover:")
    image = [0] * (1 << i)
    for line in lines[start:stop]:
        src, bits = (part.strip() for part in line.split("->"))
        image[0 if src == "-" else int(src, 2)] = sum(1 << r for r, ch in enumerate(bits) if ch == "1")
    return i, j, tuple(image)


def _search(i, j, stage):
    argv = ["lattice", "search", "--i", str(i), "--j", str(j)]
    if stage == "resume":
        argv += ["--resume", "{cert}"]

    def check(p, ctx):
        want = {"miss": "found", "hit": "cached", "resume": "verified"}[stage]
        if p["status"] != want:
            return f"search status {p['status']}, expected {want}"
        if stage == "miss":
            ctx["cert"] = p["certificate"]
            ctx["counters"][f"search_nodes[{i},{j}]"] = p["nodes"]
        elif p["certificate"] != ctx.get("cert"):
            return "certificate path changed"
        shape_i, shape_j, image = _read_certificate(Path(p["certificate"]).read_text())
        if (shape_i, shape_j) != (i, j):
            return "certificate shape"
        return ref.check_embedding(i, j, image)
    return argv, check


def _witness(n, games, out):
    def check(p, ctx):
        value = ref.csg_bound(n) if games else ref.MONOTONE_BOUNDS[n]
        if p["complexity"] != value or p["bound"] != str(value):
            return f"witness scores {p['complexity']}, bound {value}"
        return _check_profile(out, value, ctx)
    argv = ["lattice", "witness", "--n", str(n), "--out", out]
    return argv + (["--csg"] if games else []), check


def _verify(name):
    def check(p, ctx):
        i, j = ref.CATALOG_SHAPES[name]
        if not p["ok"] or (p["i"], p["j"]) != (i, j) or p["covered"] != ref.DEDEKIND[j - 1] - 1:
            return f"verify-embedding {name}"
        return None
    return ["lattice", "verify-embedding", "--name", name], check


def _lemma():
    return ["lattice", "lemma-les"], lambda p, ctx: None if p["ok"] is True else "lemma refuted"


def _random_file(rng, path, b, c, n, density, ctx, files):
    cells = b**n
    table = bytearray(
        (rng.randrange(1, c) if rng.random() < density else 0) if density
        else rng.randrange(c) for _ in range(cells))
    if not any(table):
        table[0] = 1
    files[path] = ref.format_language(b, c, n, bytes(table))
    ctx["tables"][path] = (b, c, n, bytes(table))


def make_script(seed: int, workdir: Path, smoke: bool):
    """(input files to write, commands, check context) for one job.

    Each command is (name, argv, check, known_defect); argv gets --json.
    """
    rng = random.Random(seed)
    ctx = {"tables": {}, "counters": {}}
    files: dict[str, str] = {}
    at = lambda name: str(workdir / name)
    randoms = [("rand_dense10.lang", 2, 2, 10, 0), ("rand_dense12.lang", 2, 2, 12, 0),
               ("rand_sparse14.lang", 2, 2, 14, 1 / 64), ("rand_3c6.lang", 3, 3, 6, 0),
               ("rand_4b5.lang", 4, 2, 5, 0)]
    constructs = [(2, 2, 8), (2, 2, 11), (2, 2, 14), (3, 3, 6), (2, 3, 8)]
    if smoke:
        randoms, constructs = randoms[:1], constructs[:1]
    for name, b, c, n, density in randoms:
        _random_file(rng, at(name), b, c, n, density, ctx, files)

    steps = []
    for b, c, n in constructs:
        steps.append((f"construct:{b},{c},{n}", *_construct(b, c, n, at(f"c{b}{c}{n}.lang"))))
    for b, c, n in constructs:
        path = at(f"c{b}{c}{n}.lang")
        crosscheck = (b, c, n) == (2, 2, 11)
        dot = at(f"c{b}{c}{n}.dot") if n in (8, 14) or b == 3 else None
        steps.append((f"complexity:c{b}{c}{n}", *_complexity(path, dot, crosscheck)))
    for name, *_ in randoms:
        dot = at(name + ".dot") if "dense10" in name or "3c6" in name else None
        steps.append((f"complexity:{name}", *_complexity(at(name), dot)))
    bounds = [("general", 3)]
    if not smoke:
        bounds += [("general", 20), ("monotone", 10), ("csg", 8), ("general", 6, 3, 3),
                   ("general", 7, 3, 2), ("complete", 4), ("complete", 5, 3),
                   ("monotone", 4), ("monotone", 7), ("csg", 4), ("csg", 6)]
    for kind, n, *bc in bounds:
        steps.append((f"bound:{kind},{n}", *_bound(kind, n, *bc)))
    steps.append(("count-max:3", *_count_max(3, brute=True)))
    if not smoke:
        steps.append(("count-max:4", *_count_max(4, brute=True)))
        steps.append(("count-max:10", *_count_max(10)))
        steps.append(("count-max:3,3,5", *_count_max(5, 3, 3)))
        steps.append(("count-max:2,3,6", *_count_max(6, 2, 3)))
    top = 4 if smoke else 6
    for games in (False,) if smoke else (False, True):
        for stage in ("miss", "hit"):
            steps.append((f"enumerate:{'csg' if games else 'monotone'}{top}:{stage}",
                          *_enumerate(top, games)))
    i, j = (3, 3) if smoke else (4, 4)
    for stage in ("miss", "hit", "resume"):
        steps.append((f"search:{i},{j}:{stage}", *_search(i, j, stage)))
    if not smoke:
        for n in (9, 10):
            steps.append((f"witness:monotone{n}", *_witness(n, False, at(f"w{n}.lang"))))
            steps.append((f"complexity:w{n}", *_complexity(at(f"w{n}.lang"), at(f"w{n}.dot"))))
        steps.append(("witness:csg8", *_witness(8, True, at("g8.lang"))))
        steps.append(("complexity:g8", *_complexity(at("g8.lang"))))
    names = ("post_alh",) if smoke else tuple(ref.CATALOG_SHAPES)
    for name in names:
        steps.append((f"verify-embedding:{name}", *_verify(name)))
    steps.append(("lemma-les", *_lemma()))
    commands = [(name, argv + ["--json"], check, False) for name, argv, check in steps]

    # Known defects: count-max past Python's int/str digit limit, and the
    # game bound past the built-in game counts.
    commands.append(("count-max:14", ["count-max", "--n", "14", "--json"],
                     _count_max(14)[1], True))
    commands.append(("bound:csg,18", ["bound", "--kind", "csg", "--n", "18", "--json"],
                     lambda p, ctx: None if p["bound"] == str(CSG_BOUND_18) else "csg bound",
                     True))
    return files, commands, ctx


def judge(rc, out: str, err: str, check, known: bool, ctx: dict) -> str | None:
    """Failure reason of one command, or None.

    A command fails on an uncaught exception (a traceback on stderr), an
    unexpected exit code, or a wrong output.  A known defect passes once it
    answers correctly or exits with a documented code (1-4) and no traceback.
    """
    if rc is None or "Traceback" in err:
        lines = err.strip().splitlines()
        return f"no clean exit: {lines[-1] if lines else ''}"
    if known and rc in (1, 2, 3, 4):
        return None
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-200:]}"
    try:
        return check(_payload(out), ctx)
    except (ValueError, KeyError, OSError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
