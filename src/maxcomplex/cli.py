"""Command-line interface: language files, reports, and cached searches.

Exit codes: 0 success, 1 usage or parse error, 2 verification mismatch,
3 capacity exceeded, 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from itertools import compress, product, repeat
from operator import itemgetter
from pathlib import Path
from time import perf_counter

from . import __version__
from .core import (
    CapacityError,
    ColoredFunction,
    EMBEDDING_NAMES,
    ExhaustedError,
    InputError,
    MaxcomplexError,
    MismatchError,
    is_zero,
    rank,
    table_cells,
    unrank,
)

# Each command imports the library modules it runs, so that a process pays
# only for those.  Calls go through the module (`bounds.general_bound(...)`),
# so that a function replaced on its module is the one called.

EXIT_OK = 0
EXIT_USAGE = InputError.exit_code
EXIT_MISMATCH = MismatchError.exit_code
EXIT_CAPACITY = CapacityError.exit_code
EXIT_EXHAUSTED = ExhaustedError.exit_code

EMPTY_WORD_TOKEN = "-"

# The pairwise oracle is quadratic in the live prefixes of each depth, so
# `complexity --mn-crosscheck` refuses larger tables (binary n <= 12 passes).
MAX_CROSSCHECK_CELLS = 1 << 12


class ParseError(InputError):
    """A language file is malformed; message carries the line number."""


# ---------------------------------------------------------------------------
# Language files
# ---------------------------------------------------------------------------

def _is_number(text: str) -> bool:
    """ASCII digits (str.isdigit alone also passes '²'), at most 640 of them: int()
    converts that many under any setting of the interpreter's digit limit."""
    return text.isascii() and text.isdigit() and len(text) <= 640


def parse_language_file(text: str) -> ColoredFunction:
    """Parse the language file format.

    An optional header line "b=<int> c=<int> n=<int>" fixes the signature;
    body lines are "word" (color 1) or "word <color>".  '#' comments and
    blank lines are ignored; unlisted words have color 0.  Alphabets beyond
    size 10 do not fit the single-digit word syntax.  Capacity is checked
    before the table is allocated.  A text in the shape that
    `format_language_file` writes is read in one pass; any other text, and
    every error, goes through the line loop.
    """
    f = _read_well_formed(text)
    return f if f is not None else _parse_lines(text)


# Patterns compiled on first use (re caches them), so a command that reads no
# language file does not compile them.  _PREAMBLE: printable ASCII '#' comment
# lines (none that str.splitlines would cut), then the header.  _BODY: one repeated
# character class, for which the regex engine keeps no mark per repetition.
_PREAMBLE = r"(?:#[ -~]*\n)*b=([0-9]{1,4}) c=([0-9]{1,4}) n=([0-9]{1,4})\n"
_BODY = "[0-9 \n]*"


def _read_well_formed(text: str) -> ColoredFunction | None:
    """The function of a text that `_parse_lines` would accept, in its most common
    shape, or None for any other text.  The shape: printable ASCII '#' comment lines,
    the header "b=<b> c=<c> n=<n>" with b and c in 2..10 and n >= 1, then one line
    per word, "word" for color 1 or "word <color>" for color 1..c-1, each line ended
    by a newline, and no word twice with different colors.

    The body is matched in place, with no copy: it may hold only digits, spaces and
    newlines, and one space per long line.  Short lines have n characters and long
    lines n + 2.  The color lookup finds each long line's space at position n, so no
    word holds a space, and int(word, b) refuses every digit >= b."""
    preamble = re.match(_PREAMBLE, text)
    if preamble is None or not text.endswith("\n"):
        return None
    start = preamble.end()  # where the body begins in text
    b, c, n = map(int, preamble.groups())
    if (not (2 <= b <= 10 and 2 <= c <= 10 and n) or text.find(" 0\n", start) >= 0
            or not re.compile(_BODY).fullmatch(text, start)):  # " 0\n": a color-0 line
        return None
    lines = text.split("\n")
    lines.pop()  # the empty string after the final newline
    del lines[: text.count("\n", 0, start)]
    if not set(map(len, lines)) <= {n, n + 2}:
        return None
    long_lines = (len(text) - start - (n + 1) * len(lines)) // 2
    if text.count(" ", start) != long_lines:
        return None
    try:
        table = bytearray(table_cells(b, n, c))
    except CapacityError:
        return None
    if long_lines:  # a tail that is not " <color>" raises KeyError
        color_of = {"": 1, **{f" {color}": color for color in range(1, c)}}
        words = map(itemgetter(slice(n)), lines)
        colors = map(color_of.__getitem__, map(itemgetter(slice(n, None)), lines))
    else:
        words, colors = lines, repeat(1)
    try:
        for r, color in zip(map(int, words, repeat(b)), colors):
            if table[r] and table[r] != color:  # the line loop names both lines
                return None
            table[r] = color
    except (KeyError, ValueError):  # a bad tail, or a digit >= b
        return None
    return ColoredFunction(b, n, c, bytes(table))


def _parse_lines(text: str) -> ColoredFunction:
    """Read any text line by line; every ParseError comes from here."""
    header: dict[str, int] = {}
    entries: list[tuple[int, str, int]] = []  # (line number, digit string, color)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and not entries and not header:
            for part in line.split():
                key, _, value = part.partition("=")
                if key not in ("b", "c", "n") or not _is_number(value.removeprefix("-")):
                    raise ParseError(f"line {lineno}: bad header field {part!r}")
                header[key] = int(value)
            continue
        fields = line.split()
        if len(fields) > 2:
            raise ParseError(f"line {lineno}: expected 'word' or 'word color'")
        token = "" if fields[0] == EMPTY_WORD_TOKEN else fields[0]
        if token and not _is_number(token):
            raise ParseError(f"line {lineno}: bad word {fields[0]!r}")
        color = 1
        if len(fields) == 2:
            if not _is_number(fields[1]):
                raise ParseError(f"line {lineno}: bad color {fields[1]!r}")
            color = int(fields[1])
        entries.append((lineno, token, color))
    if "n" in header:
        n = header["n"]
    elif entries:
        n = len(entries[0][1])
    else:
        raise ParseError("empty file without a header: language length is unknown")
    # a header's b and c are taken as written, b=1 and c=1 too; inferred ones are at least 2
    b = header["b"] if "b" in header else 1 + int(max("1" + "".join(t for _, t, _ in entries)))
    c = header["c"] if "c" in header else 1 + max([1, *(col for _, _, col in entries)])
    table = bytearray(table_cells(b, n, c))
    zero_listed: set[int] = set()  # words listed with color 0, which their cells cannot show
    for k, (lineno, token, color) in enumerate(entries):
        if len(token) != n:
            raise ParseError(f"line {lineno}: word length {len(token)} != n = {n}")
        try:
            r = int(token or "0", b) if 2 <= b <= 36 else rank(token, b)
        except ValueError:  # a digit >= b
            raise ParseError(f"line {lineno}: digit out of range for b = {b}") from None
        if color >= c:
            raise ParseError(f"line {lineno}: color {color} out of range for c = {c}")
        if (table[r] and table[r] != color) or (color and r in zero_listed):
            previous = max(ln for ln, t, _ in entries[:k] if t == token)
            raise ParseError(f"line {lineno}: word repeats line {previous} with a different color")
        table[r] = color
        if not color:
            zero_listed.add(r)
    return ColoredFunction(b, n, c, bytes(table))


def format_language_file(f: ColoredFunction, comment: str = "") -> str:
    """A header, then one line per nonzero cell in rank order.  A word is a head of
    n - n//2 digits and a tail of n//2: the tails are built once, the heads one by
    one, and each head's block of cells is filtered to its nonzero cells in C.  A word
    that uses a symbol >= 10 has no one-digit-per-symbol spelling, and a comment
    that str.splitlines would cut is not one line: InputError."""
    if comment and comment.splitlines() != [comment]:
        raise InputError(f"comment {comment!r} is not one line")
    if f.b > 10:
        for r in compress(range(len(f.table)), f.table):
            if max(word := unrank(r, f.n, f.b), default=0) >= 10:
                raise InputError(f"word {word} has a symbol >= 10, which a language file "
                                 f"cannot spell (one digit per symbol)")
    lines = [f"# {comment}"] if comment else []
    lines.append(f"b={f.b} c={f.c} n={f.n}")
    digits = [str(d) for d in range(f.b)]
    low = f.n // 2
    tails = list(map("".join, product(digits, repeat=low)))
    heads = map("".join, product(digits, repeat=f.n - low))
    for start, head in zip(range(0, len(f.table), len(tails)), heads):
        block = f.table[start : start + len(tails)]
        for tail, color in zip(compress(tails, block), block.replace(b"\0", b"")):
            token = head + tail or EMPTY_WORD_TOKEN
            lines.append(token if color == 1 else f"{token} {color}")
    lines[-1] += "\n"  # the last line ends the text, with no copy of the whole
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload))
    else:
        print(human)


def _decimal(value: int) -> str:
    """str(value) for a non-negative int of any size.  Parts of at most 602
    digits convert under any setting of the interpreter's int/str digit limit,
    so the number is split at a power of ten until its parts are that short."""
    if value.bit_length() <= 2000:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half its digits (log10 2 > 3/10)
    high, low = divmod(value, 10**half)
    return _decimal(high) + _decimal(low).zfill(half)


def cmd_complexity(args) -> int:
    from . import minauto

    f = parse_language_file(Path(args.file).read_text())
    if args.mn_crosscheck and len(f.table) > MAX_CROSSCHECK_CELLS:
        raise CapacityError(f"--mn-crosscheck takes at most {MAX_CROSSCHECK_CELLS} cells")
    # with --dot the automaton comes first: its one residual pass leaves the counts on f
    pdfa = minauto.minimal_pdfa(f) if args.dot and not is_zero(f) else None
    by_depth = minauto.states_by_depth(f)
    complexity = sum(by_depth)
    if complexity == 0:
        print("warning: empty language (complexity 0)", file=sys.stderr)
    payload = {
        "b": f.b, "c": f.c, "n": f.n,
        "complexity": complexity,
        "states_by_depth": by_depth,
    }
    if args.mn_crosscheck:
        oracle = minauto.mn_class_count(f)
        payload["mn_class_count"] = oracle
        if oracle != complexity:
            raise MismatchError(f"pairwise oracle disagrees: {oracle} != {complexity}")
    if args.dot:
        Path(args.dot).write_text(minauto.export_dot(pdfa or minauto.minimal_pdfa(f)))
        payload["dot"] = args.dot
    _emit(args, payload, f"complexity {complexity}")
    return EXIT_OK


def cmd_bound(args) -> int:
    from . import bounds

    for name in {"general": "", "complete": "c", "monotone": "bc", "csg": "bc"}[args.kind]:
        if getattr(args, name) != 2:
            raise InputError(f"--kind {args.kind} fixes --{name} at 2")
    payload: dict = {"kind": args.kind, "b": args.b, "c": args.c, "n": args.n}
    try:
        if args.kind == "general":
            value = bounds.general_bound(args.b, args.c, args.n)
        elif args.kind == "complete":
            payload["r"], value = bounds.complete_dfa_bound(args.b, args.n)
        elif args.kind == "monotone":
            value = bounds.monotone_bound(args.n)
        else:
            value = bounds.csg_bound(args.n)
    except (bounds.NeedDedekindError, bounds.NeedCsgCountError) as exc:
        counts = "dedekind" if args.kind == "monotone" else "csg_counts"
        raise CapacityError(f"{exc}: this command has no option for it, so pass the count "
                            f"to maxcomplex.{args.kind}_bound(n, {counts})") from None
    payload["bound"] = digits = _decimal(value)
    _emit(args, payload, f"{args.kind} bound {digits}")
    return EXIT_OK


def _write_witness(args, f, bound, comment, head, noun) -> int:
    """Score f, write it to --out and report it; then a missed bound is a mismatch."""
    from . import minauto

    complexity = minauto.state_complexity(f)
    Path(args.out).write_text(format_language_file(f, comment=comment))
    payload = {**head, "bound": str(bound), "complexity": complexity,
               "attained": complexity == bound, "out": args.out}
    _emit(args, payload, f"complexity {complexity} bound {bound} -> {args.out}")
    if complexity != bound:
        raise MismatchError(f"{noun} scores {complexity}, bound is {bound}")
    return EXIT_OK


def cmd_construct(args) -> int:
    from . import bounds, witness

    f = witness.construct_maximal(args.b, args.c, args.n)
    return _write_witness(args, f, bounds.general_bound(args.b, args.c, args.n),
                          f"maximal witness b={args.b} c={args.c} n={args.n}",
                          {"b": args.b, "c": args.c, "n": args.n}, "constructed witness")


def cmd_count_max(args) -> int:
    from . import counting

    if args.list and not args.verify_brute:
        raise InputError("--list needs --verify-brute")
    start = perf_counter()  # elapsed_ms times the closed-form count alone
    i, count = counting.count_max(args.b, args.c, args.n)
    payload: dict = {"b": args.b, "c": args.c, "n": args.n, "i": i, "count": str(count),
                     "elapsed_ms": round((perf_counter() - start) * 1e3, 3)}
    human = f"crossover {i}, {count} maximal functions"
    if args.verify_brute:
        codes = counting.brute_max_codes(args.b, args.c, args.n)
        brute = len(codes)
        payload["brute_count"] = str(brute)
        payload["brute_checked"] = args.c ** (args.b**args.n) - 1
        if brute != count:
            raise MismatchError(f"brute force counts {brute}, formula says {count}")
        human += f" (brute force agrees: {brute})"
        if args.list:
            languages = []
            for code in codes:
                words = []
                for r, color in enumerate(unrank(code, args.b**args.n, args.c)):
                    if color:
                        word = "".join(map(str, unrank(r, args.n, args.b))) or EMPTY_WORD_TOKEN
                        words.append(word if color == 1 else f"{word}:{color}")
                languages.append("{" + ",".join(words) + "}")
            if args.json:
                payload["languages"] = languages
            else:
                for language in languages:
                    print(f"  {language}")
    _emit(args, payload, human)
    return EXIT_OK


def cmd_lattice_enumerate(args) -> int:
    if args.csg:
        from . import csg

        kind, count = "csg", csg.count_csg(args.n)
    else:
        from . import lattice

        kind, count = "monotone", lattice.count_monotone(args.n)
    payload = {"kind": kind, "n": args.n, "count": count, "nonzero_count": count - 1}
    _emit(args, payload, f"{kind} n={args.n}: {count} functions ({count - 1} nonzero)")
    return EXIT_OK


def cmd_lattice_verify(args) -> int:
    from . import lattice

    i, j = lattice.embedding_shape(args.name)
    cert = lattice.check_relation(i, j, lattice.named_embedding(args.name))
    payload = {
        "name": args.name, "i": i, "j": j, "ok": True,
        "covered": len(cert.covered),
        "uses_zero_substitution": cert.uses_zero,
    }
    _emit(args, payload,
          f"OK {args.name}: 2^{i} -> {len(lattice.monotone_nonzero(j))} "
          f"=> {len(cert.covered)}")
    return EXIT_OK


def cmd_lattice_search(args) -> int:
    from . import lattice

    kind = "csg" if args.csg else "monotone"
    payload = {"i": args.i, "j": args.j, "kind": kind, "status": "verified", "nodes": 0,
               "certificate": args.resume, "prunes": {"cover": 0, "room": 0},
               "deepest": None, "cache": None, "elapsed_ms": None}
    if args.resume:
        text = Path(args.resume).read_text()
        human = f"certificate verified: {args.resume}"
    elif args.i is None or args.j is None:
        raise InputError("--i and --j are required without --resume")
    else:
        from .cache import DiskCache

        cache, params = DiskCache(args.cache), f"{kind}-i{args.i}-j{args.j}"
        text = cache.load("certificate", params)
        payload.update(status="cached", certificate=str(cache._path("certificate", params)),
                       cache=cache.event)
        human = "certificate loaded from cache"
    start = perf_counter()  # elapsed_ms times the certificate check or the search
    if text is not None:
        cert = lattice.verify_certificate(lattice.parse_certificate(text))
        payload.update(i=cert.i, j=cert.j, kind=cert.kind)
    else:
        family = lattice.lattice_kind(kind)
        outcome = family.search(args.i, args.j, budget=args.budget)
        payload.update(status=outcome.status, nodes=outcome.nodes, certificate=None,
                       prunes=dict(outcome.prunes), deepest=outcome.deepest)
        if outcome.status == "found":
            cert = family.check(args.i, args.j, outcome.map)
    payload["elapsed_ms"] = round((perf_counter() - start) * 1e3, 3)
    if text is None:
        if outcome.status != "found":
            _emit(args, payload, f"{outcome.status} after {outcome.nodes} nodes")
            if outcome.status == "exhausted":
                raise ExhaustedError("search budget exhausted")
            return EXIT_OK
        target = args.out or cache.store("certificate", params, lattice.format_certificate(cert))
        payload["certificate"] = str(Path(target))
        human = f"found in {outcome.nodes} nodes -> {payload['certificate']}"
    if args.out:  # every certificate, whatever its source
        Path(args.out).write_text(lattice.format_certificate(cert))
        payload["certificate"] = str(Path(args.out))
    _emit(args, payload, human)
    return EXIT_OK


def cmd_lattice_witness(args) -> int:
    from . import bounds

    if args.budget is not None and not args.csg:
        raise InputError("--budget needs --csg")
    if args.csg:
        from . import csg

        budget = 10**8 if args.budget is None else args.budget
        w = csg.build_csg_witness(args.n, budget=budget)[0]
        bound, kind = bounds.csg_bound(args.n), "csg"
    else:
        from . import lattice

        w = lattice.build_witness_language(args.n)
        bound, kind = bounds.monotone_bound(args.n), "monotone"
    return _write_witness(args, w.as_colored(), bound, f"{kind} witness n={args.n}",
                          {"kind": kind, "n": args.n}, "witness")


def cmd_lattice_lemma(args) -> int:
    from . import lattice

    ok = lattice.lemma_les_check()
    _emit(args, {"ok": ok}, "pair-order lemma holds" if ok else "COUNTEREXAMPLE FOUND")
    return EXIT_OK if ok else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maxcomplex",
                     description="State complexity of bounded-length colored languages")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complexity", help="exact minimal automaton size of a language file")
    p.add_argument("file")
    p.add_argument("--dot", help="write the minimal automaton in DOT format")
    p.add_argument("--json", action="store_true")
    p.add_argument("--mn-crosscheck", action="store_true",
                   help="also run the pairwise-equivalence oracle")
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("bound", help="evaluate an upper-bound formula exactly")
    p.add_argument("--kind", choices=("general", "complete", "monotone", "csg"),
                   default="general")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="write a maximal-complexity witness language")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("count-max", help="count the maximal-complexity functions")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--verify-brute", action="store_true",
                   help="cross-check by scanning every function (small spaces only)")
    p.add_argument("--list", action="store_true",
                   help="print each maximal language (needs --verify-brute)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_count_max)

    lat = sub.add_parser("lattice", help="monotone and game lattice tooling")
    lsub = lat.add_subparsers(dest="subcommand", required=True)

    p = lsub.add_parser("enumerate", help="count monotone functions or games")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csg", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_enumerate)

    p = lsub.add_parser("verify-embedding", help="re-check a built-in embedding")
    p.add_argument("--name", required=True, choices=EMBEDDING_NAMES)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_verify)

    p = lsub.add_parser("search", help="search for an adequate embedding")
    p.add_argument("--i", type=int, help="required without --resume")
    p.add_argument("--j", type=int, help="required without --resume")
    p.add_argument("--csg", action="store_true")
    p.add_argument("--budget", type=int, default=10**8)
    p.add_argument("--resume", help="verify a previously saved certificate instead")
    p.add_argument("--out", help="write the certificate here instead of the cache")
    p.add_argument("--cache", help="cache directory (default ./.maxcomplex-cache)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_search)

    p = lsub.add_parser("witness", help="write a bound-attaining witness language")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csg", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--budget", type=int,
                   help="game witness search budget (needs --csg; default 10^8)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_witness)

    p = lsub.add_parser("lemma-les", help="exhaustively re-check the pair-order lemma")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_lattice_lemma)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except MaxcomplexError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:  # the reader of stdout left early, as `| head -1` does
        # the rest of the output goes nowhere, and the flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, UnicodeDecodeError) as exc:  # unreadable or unwritable user files
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
