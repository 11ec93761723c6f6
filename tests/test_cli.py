import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import compress, product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from maxcomplex.cache import DEFAULT_DIR, DiskCache
from maxcomplex.cli import (
    EXIT_CAPACITY,
    EXIT_EXHAUSTED,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    MAX_CROSSCHECK_CELLS,
    ParseError,
    _decimal,
    _parse_lines,
    _read_well_formed,
    format_language_file,
    main,
    parse_language_file,
)
from maxcomplex.bounds import general_bound
from maxcomplex.core import CapacityError, ColoredFunction, InputError, MaxcomplexError
from maxcomplex.counting import count_max
from maxcomplex import bounds, cli, counting, lattice, minauto

SRC = str(Path(cli.__file__).resolve().parents[1])

ASIAN_TEXT = """\
# exercise outcomes
b=2 c=2 n=3
011
100
101
110
111
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_language_file_with_header():
    f = parse_language_file(ASIAN_TEXT)
    assert (f.b, f.c, f.n) == (2, 2, 3)
    assert len(f.support()) == 5


def test_parse_language_file_infers_signature():
    f = parse_language_file("011\n100\n")
    assert (f.b, f.c, f.n) == (2, 2, 3)
    g = parse_language_file("012 2\n000\n")
    assert (g.b, g.c, g.n) == (3, 3, 3)
    assert g.value("012") == 2 and g.value("000") == 1


def test_parse_language_file_large_alphabets():
    # past base 36 int() cannot rank a word; each ASCII digit is still one symbol
    f = parse_language_file("b=40 c=3 n=2\n39 2\n00\n")
    assert f.table[3 * 40 + 9] == 2 and f.table[0] == 1 and sum(f.table) == 3
    assert parse_language_file("b=5000 c=2 n=1\n7\n").support() == [(7,)]
    assert parse_language_file("b=10 c=2 n=1\n9\n").support() == [(9,)]
    with pytest.raises(ParseError, match="line 2: digit out of range for b = 9"):
        parse_language_file("b=9 c=2 n=1\n9\n")


def test_parse_language_file_errors():
    with pytest.raises(ParseError, match="line 2"):
        parse_language_file("011\n01\n")
    with pytest.raises(ParseError, match="different color"):
        parse_language_file("b=2 c=3 n=2\n01 1\n01 2\n")
    with pytest.raises(ParseError):
        parse_language_file("# nothing\n")
    # same color twice is tolerated
    parse_language_file("01\n01\n")
    # the message names the latest earlier listing, a color-0 one included
    with pytest.raises(ParseError, match="line 4: word repeats line 3 with"):
        parse_language_file("b=2 c=3 n=2\n01\n01\n01 2\n")
    with pytest.raises(ParseError, match="line 3: word repeats line 2 with"):
        parse_language_file("b=2 c=2 n=2\n01 0\n01 1\n")
    with pytest.raises(ParseError, match="line 3: word repeats line 2 with"):
        parse_language_file("b=2 c=2 n=2\n01 1\n01 0\n")


def test_language_file_round_trip():
    f = parse_language_file(ASIAN_TEXT)
    again = parse_language_file(format_language_file(f))
    assert again == f


def test_empty_word_token_round_trip():
    f = ColoredFunction.from_words(2, 0, 2, {(): 1})
    text = format_language_file(f)
    assert "-" in text
    assert parse_language_file(text) == f


def test_cmd_complexity(tmp_path, capsys):
    path = write(tmp_path, "asian.lang", ASIAN_TEXT)
    assert main(["complexity", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "complexity 6"


def test_cmd_complexity_json_schema(tmp_path, capsys):
    path = write(tmp_path, "asian.lang", ASIAN_TEXT)
    dot = str(tmp_path / "a.dot")
    assert main(["complexity", path, "--json", "--mn-crosscheck", "--dot", dot]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["b", "c", "n", "complexity", "states_by_depth",
                             "mn_class_count", "dot"]
    assert payload["complexity"] == 6
    assert (tmp_path / "a.dot").read_text().startswith("digraph")


def test_cmd_complexity_dot_makes_one_residual_pass(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "asian.lang", ASIAN_TEXT)
    passes, levels = [], minauto.residual_levels
    monkeypatch.setattr(minauto, "residual_levels", lambda *a: passes.append(1) or levels(*a))
    dot = str(tmp_path / "a.dot")
    assert main(["complexity", path, "--json", "--dot", dot]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert len(passes) == 1
    assert payload["states_by_depth"] == minauto.states_by_depth(parse_language_file(ASIAN_TEXT))
    assert payload["complexity"] == 6 and payload["dot"] == dot


def test_cmd_complexity_dot_changes_only_the_dot_key(tmp_path, capsys):
    rows = [f"{w:06b} {w % 3}" for w in range(0, 64, 5)]
    for text in (ASIAN_TEXT, "b=2 c=3 n=6\n" + "\n".join(rows) + "\n"):
        path = write(tmp_path, "f.lang", text)
        dot = str(tmp_path / "f.dot")
        assert main(["complexity", path, "--json"]) == EXIT_OK
        plain = json.loads(capsys.readouterr().out)
        assert main(["complexity", path, "--json", "--dot", dot]) == EXIT_OK
        drawn = json.loads(capsys.readouterr().out)
        assert drawn.pop("dot") == dot and drawn == plain and plain["complexity"] > 0


def test_cmd_complexity_crosscheck_mismatch(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "asian.lang", ASIAN_TEXT)
    monkeypatch.setattr(minauto, "mn_class_count", lambda f: 99)
    assert main(["complexity", path, "--mn-crosscheck"]) == EXIT_MISMATCH


def test_cmd_complexity_crosscheck_capacity(tmp_path, capsys, monkeypatch):
    # one cell above the limit is refused before the oracle runs; the limit itself passes
    def oracle_must_not_run(f):
        raise AssertionError("the pairwise oracle ran")

    above = write(tmp_path, "above.lang", f"b={MAX_CROSSCHECK_CELLS + 1} c=2 n=1\n5\n")
    at = write(tmp_path, "at.lang", f"b={MAX_CROSSCHECK_CELLS} c=2 n=1\n5\n")
    with monkeypatch.context() as patch:
        patch.setattr(minauto, "mn_class_count", oracle_must_not_run)
        assert main(["complexity", above, "--mn-crosscheck"]) == EXIT_CAPACITY
    assert capsys.readouterr().err.startswith("capacity:")
    assert main(["complexity", above]) == EXIT_OK
    assert main(["complexity", at, "--mn-crosscheck", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["mn_class_count"] == 2


def test_cmd_bound_json(capsys):
    assert main(["bound", "--kind", "monotone", "--n", "10", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["kind", "b", "c", "n", "bound"]
    assert payload["bound"] == "154"
    assert main(["bound", "--kind", "complete", "--b", "2", "--n", "3", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == 2 and payload["bound"] == "8"


@pytest.mark.parametrize("kind,n,need,call", [
    ("csg", 25, "csg_count(9)", "maxcomplex.csg_bound(n, csg_counts)"),
    ("csg", 24, "csg_count(8)", "maxcomplex.csg_bound(n, csg_counts)"),
    ("monotone", 42, "dedekind(7)", "maxcomplex.monotone_bound(n, dedekind)"),
])
def test_cmd_bound_names_the_library_call_for_a_missing_count(kind, n, need, call, capsys):
    assert main(["bound", "--kind", kind, "--n", str(n)]) == EXIT_CAPACITY
    assert capsys.readouterr().err == (
        f"capacity: need {need} to evaluate this bound; supply it explicitly: this command "
        f"has no option for it, so pass the count to {call}\n")


def _from_digits(digits: str) -> int:
    """int(digits), 600 digits at a time: under any setting of the int/str limit."""
    value = 0
    for start in range(0, len(digits), 600):
        chunk = digits[start:start + 600]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_cmd_bound_prints_values_past_the_int_str_digit_limit(capsys):
    assert main(["bound", "--n", "15000", "--json"]) == EXIT_OK
    digits = json.loads(capsys.readouterr().out)["bound"]
    assert len(digits) == 4512 and _from_digits(digits) == general_bound(2, 2, 15000)
    for value in (0, 7, 10**602 - 1, 10**602, 2**2000, 2**2001, 10**4511, 10**4512 - 1,
                  3**20000):
        text = _decimal(value)
        assert _from_digits(text) == value and (text == "0" or text[0] != "0")


def test_cmd_bound_refuses_more_digits_than_the_limit(capsys, monkeypatch):
    # at the default limit of 10^6 digits, --n 3321949 is the last value printed
    monkeypatch.setattr(bounds, "DIGIT_LIMIT", 100)
    assert main(["bound", "--n", "340"]) == EXIT_OK  # 100 digits
    assert capsys.readouterr().out == f"general bound {general_bound(2, 2, 340)}\n"
    assert main(["bound", "--n", "341", "--json"]) == EXIT_CAPACITY  # 101 digits
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "capacity: the bound has more than 100 decimal digits\n"


@pytest.mark.parametrize("argv", [["--n", "10000000"], ["--kind", "complete", "--n", "10000000"],
                                  ["--b", "3", "--c", "5", "--n", "3000000"],
                                  ["--kind", "monotone", "--n", "10000000"]])
def test_cmd_bound_refuses_a_long_value_before_evaluating_it(argv, capsys, monkeypatch):
    # the monotone bound's known terms pass the limit before its first missing count
    def refuse(*args):
        raise AssertionError("the bound was evaluated")

    monkeypatch.setattr(bounds, "tower_capped", refuse)  # the count of the tail loop
    assert main(["bound", *argv]) == EXIT_CAPACITY
    assert capsys.readouterr().err == "capacity: the bound has more than 1000000 decimal digits\n"


@pytest.mark.parametrize("argv,name", [
    (["--kind", "monotone", "--b", "5"], "b"), (["--kind", "monotone", "--c", "3"], "c"),
    (["--kind", "csg", "--b", "3"], "b"), (["--kind", "csg", "--c", "1"], "c"),
    (["--kind", "complete", "--c", "7"], "c"),
])
def test_cmd_bound_rejects_an_option_its_kind_fixes(argv, name, capsys):
    assert main(["bound", *argv, "--n", "10"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --kind {argv[1]} fixes --{name} at 2\n"
    assert main(["bound", "--kind", argv[1], "--b", "2", "--c", "2", "--n", "10"]) == EXIT_OK
    assert main(["bound", "--kind", "complete", "--b", "3", "--n", "4", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["bound"] == str(
        general_bound(3, 2, 4) + 1)


def test_cmd_construct_round_trip(tmp_path, capsys):
    out = str(tmp_path / "w.lang")
    assert main(["construct", "--b", "2", "--c", "3", "--n", "2", "--out", out, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["b", "c", "n", "bound", "complexity", "attained", "out"]
    assert payload["attained"] is True
    assert main(["complexity", out]) == EXIT_OK
    reread = capsys.readouterr().out.strip()
    assert reread == f"complexity {payload['complexity']}"


def test_cmd_construct_round_trip_keeps_a_one_letter_alphabet(tmp_path, capsys):
    out = str(tmp_path / "w.lang")
    assert main(["construct", "--b", "1", "--c", "3", "--n", "2", "--out", out,
                 "--json"]) == EXIT_OK
    built = json.loads(capsys.readouterr().out)
    assert main(["complexity", out, "--json"]) == EXIT_OK
    reread = json.loads(capsys.readouterr().out)
    assert (reread["b"], reread["c"], reread["n"]) == (1, 3, 2)
    assert reread["complexity"] == built["complexity"] == 3


def test_header_b1_and_c1_are_read_as_written(tmp_path, capsys):
    f = parse_language_file("b=2 c=1 n=3\n")
    assert (f.b, f.c, f.n) == (2, 1, 3)
    assert main(["complexity", write(tmp_path, "c1.lang", "b=2 c=1 n=3\n"), "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["c"], payload["complexity"]) == (1, 0)
    assert parse_language_file("b=1 c=2 n=3\n000\n").value("000") == 1
    with pytest.raises(ParseError, match="line 3: digit out of range for b = 1"):
        parse_language_file("b=1 c=2 n=3\n000\n010\n")
    bad = write(tmp_path, "b1.lang", "b=1 c=2 n=2\n00\n01\n")
    assert main(["complexity", bad]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: line 3: digit out of range for b = 1\n"
    # inferred signatures still start at b = 2 and c = 2
    f = parse_language_file("000 0\n")
    assert (f.b, f.c) == (2, 2)


def test_cmd_construct_refuses_words_a_file_cannot_spell(tmp_path, capsys):
    out = tmp_path / "x.lang"
    argv = ["construct", "--b", "11", "--c", "2", "--n", "2", "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: word (0, 10) has a symbol >= 10") and "Traceback" not in err
    assert not out.exists()
    with pytest.raises(InputError, match=r"word \(3, 10\)"):
        format_language_file(ColoredFunction.from_words(12, 2, 2, {(3, 9): 1, (3, 10): 1}))
    # past b = 10, words whose symbols are all below 10 are still written
    f = ColoredFunction.from_words(40, 2, 3, {(3, 9): 2, (0, 0): 1})
    assert parse_language_file(format_language_file(f)) == f


def test_cmd_count_max(tmp_path, capsys):
    assert main(["count-max", "--b", "2", "--c", "2", "--n", "3",
                 "--verify-brute", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["b", "c", "n", "i", "count", "elapsed_ms", "brute_count",
                             "brute_checked"]
    assert payload["count"] == payload["brute_count"] == "60"
    assert payload["brute_checked"] == 2**8 - 1
    assert isinstance(payload["elapsed_ms"], float) and payload["elapsed_ms"] >= 0


def test_cmd_count_max_exits_quietly_when_the_reader_leaves():
    # 15,180 languages, about 440 KB: more than a pipe holds, so the writer is
    # still printing when the reader closes the pipe after one line
    argv = ["count-max", "--b", "3", "--c", "3", "--n", "2", "--verify-brute", "--list"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, "-m", "maxcomplex.cli", *argv],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env={**os.environ, "PYTHONPATH": path}) as proc:
        assert proc.stdout.readline().startswith(b"  {")
        proc.stdout.close()
        assert proc.wait(timeout=120) == EXIT_OK
        assert proc.stderr.read() == b""


def test_cmd_count_max_brute_n4(capsys):
    assert main(["count-max", "--n", "4", "--verify-brute", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["brute_count"] == payload["count"] == str(count_max(2, 2, 4)[1])


def test_cmd_count_max_list(capsys):
    assert main(["count-max", "--n", "2", "--verify-brute", "--list"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("{") == 6
    # a word of color k >= 2 is written word:k, and the empty word as "-"
    for argv, listed in ((["--c", "3", "--n", "1"], ["{0,1:2}", "{0:2,1}"]),
                         (["--n", "0"], ["{-}"]), (["--c", "3", "--n", "0"], ["{-}", "{-:2}"])):
        assert main(["count-max", *argv, "--verify-brute", "--list"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:-1] == [f"  {x}" for x in listed], argv


def test_cmd_count_max_list_json_is_one_document(capsys):
    assert main(["count-max", "--n", "2", "--verify-brute", "--list"]) == EXIT_OK
    listed = [line.strip() for line in capsys.readouterr().out.splitlines()[:-1]]
    assert main(["count-max", "--n", "2", "--verify-brute", "--list", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["languages"] == listed and len(listed) == 6
    assert payload["languages"][0] == "{01,10}"


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["human", "json"])
def test_cmd_count_max_list_needs_verify_brute(capsys, extra):
    assert main(["count-max", "--n", "3", "--list", *extra]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --list needs --verify-brute\n"


@pytest.mark.parametrize("c,err", [("0", "error: bad parameters b=2, c=0, n=3\n"),
                                   ("1", "error: c=1 admits no nonzero functions\n")],
                         ids=["c0", "c1"])
def test_cmd_count_max_refuses_fewer_than_two_colors(capsys, c, err):
    assert main(["count-max", "--c", c, "--n", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err == err


def test_cmd_count_max_brute_capacity(capsys):
    assert main(["count-max", "--n", "5", "--verify-brute"]) == EXIT_CAPACITY


# sha256 of the --list output the per-function loop printed before the sweep
@pytest.mark.parametrize("argv,digest", [
    (["--n", "2"], "c7518fe6b1d92ea39477a0ea2343a5a652ecfd76686378f6abbb1fa07181c53c"),
    (["--n", "3"], "107bca38626718e431e8987b43799df9a5188128ec07c8430602534ec469f977"),
    (["--b", "3", "--c", "2", "--n", "2"],
     "b6c7286be851916cb2fddb18352135ff6264b7f2196268c21d8147d27f7b7c6c"),
], ids=["n2", "n3", "b3-n2"])
def test_cmd_count_max_list_bytes(argv, digest, capsys):
    assert main(["count-max", *argv, "--verify-brute", "--list"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cmd_count_max_colors_outnumber_words(capsys):
    argv = ["count-max", "--b", "2", "--c", "6", "--n", "2", "--verify-brute", "--json"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["i"], payload["count"], payload["brute_count"]) == (3, "120", "120")
    assert payload["brute_checked"] == 6**4 - 1


def test_signatures_past_capacity_exit_3(tmp_path, capsys):
    """Once a ValueError traceback, a MemoryError traceback and two hangs."""
    header = tmp_path / "long.lang"
    header.write_text("b=1 c=2 n=99999999999\n")
    for argv, message in (
            (["count-max", "--b", "2", "--c", "300", "--n", "1", "--verify-brute"],
             "at most 256 colors supported"),
            (["count-max", "--b", "1", "--c", "2", "--n", "100000000000", "--verify-brute"],
             "arity 100000000000 exceeds capacity"),
            (["construct", "--b", "1", "--c", "2", "--n", "100000000000",
              "--out", str(tmp_path / "w.lang")], "arity 100000000000 exceeds capacity"),
            (["complexity", str(header)], "arity 99999999999 exceeds capacity")):
        assert main(argv) == EXIT_CAPACITY, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"capacity: {message}"), argv
    assert not (tmp_path / "w.lang").exists()
    # the closed forms for b = 1 need no table
    assert main(["count-max", "--b", "1", "--c", "2", "--n", "100000000000"]) == EXIT_OK
    assert main(["bound", "--b", "1", "--c", "2", "--n", "100000000000"]) == EXIT_OK
    assert capsys.readouterr().out == ("crossover 0, 1 maximal functions\n"
                                       "general bound 100000000001\n")


def test_lattice_search_cache_help_names_the_environment_variable(capsys):
    assert main(["lattice", "search", "--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it at any width
    assert "the cache ($MAXCOMPLEX_CACHE, else ./.maxcomplex-cache)" in text
    assert "--cache" not in text


def test_cmd_count_max_brute_edges(monkeypatch, capsys):
    assert main(["count-max", "--b", "1", "--c", "2", "--n", "3000",
                 "--verify-brute", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["brute_count"] == "1" and payload["brute_checked"] == 1
    monkeypatch.setattr(counting, "count_max", lambda b, c, n: (2, count_max(b, c, n)[1] + 1))
    assert main(["count-max", "--n", "3", "--verify-brute"]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == "" and "brute force counts 60, formula says 61" in captured.err


def test_cmd_lattice_enumerate(capsys):
    argv = ["lattice", "enumerate", "--n", "4", "--csg", "--json"]
    assert main(argv) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["kind", "n", "count", "nonzero_count"]
    assert payload["count"] == 27
    # a second run counts again and reports identically
    assert main(argv) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == payload


def test_cmd_lattice_enumerate_counts_monotone_without_listing(capsys, monkeypatch):
    listing = lattice.enumerate_monotone

    def small_only(n):
        assert n < 5, f"F_{n} listed"
        return listing(n)

    monkeypatch.setattr(lattice, "enumerate_monotone", small_only)
    assert main(["lattice", "enumerate", "--n", "6", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["count"], payload["nonzero_count"]) == (7828354, 7828353)


def test_cmd_lattice_enumerate_counts_games_without_listing(capsys, monkeypatch):
    from maxcomplex import csg

    listing = csg.enumerate_csg.__wrapped__  # uncached, so every arity is asked for

    def small_only(n):
        assert n < 7, f"C_{n} listed"
        return listing(n)

    monkeypatch.setattr(csg, "enumerate_csg", small_only)
    assert main(["lattice", "enumerate", "--n", "7", "--csg", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["count"], payload["nonzero_count"]) == (44315, 44314)


def test_cmd_lattice_enumerate_keeps_no_cache(tmp_path, capsys, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("MAXCOMPLEX_CACHE", str(root))
    for argv in (["--n", "4"], ["--n", "5", "--csg"], ["--n", "-1"], ["--n", "8", "--csg"]):
        main(["lattice", "enumerate", *argv, "--json"])
    assert not root.exists()
    assert main(["lattice", "enumerate", "--n", "4", "--cache", str(root)]) == EXIT_USAGE
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


def test_suite_runs_without_the_working_directory_cache():
    assert DiskCache().root == Path(os.environ["MAXCOMPLEX_CACHE"]) != Path(DEFAULT_DIR)


def test_cmd_lattice_verify_embedding(capsys):
    assert main(["lattice", "verify-embedding", "--name", "friday", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["name", "i", "j", "ok", "covered", "uses_zero_substitution"]
    assert payload["ok"] and payload["i"] == 6 and payload["covered"] == 19


def test_cmd_lattice_search_and_resume(tmp_path, capsys):
    cert = str(tmp_path / "cert.txt")
    assert main(["lattice", "search", "--i", "2", "--j", "2",
                 "--out", cert, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["i", "j", "kind", "status", "nodes", "certificate", "prunes",
                             "deepest", "cache", "elapsed_ms"]
    assert payload["status"] == "found" and payload["cache"] == "miss"
    assert main(["lattice", "search", "--i", "2", "--j", "2", "--resume", cert]) == EXIT_OK
    assert "verified" in capsys.readouterr().out


def test_cmd_lattice_search_resume_reports_certificate(tmp_path, capsys):
    cert = str(tmp_path / "cert.txt")
    assert main(["lattice", "search", "--i", "2", "--j", "3", "--out", cert]) == EXIT_OK
    capsys.readouterr()
    assert main(["lattice", "search", "--csg", "--i", "4", "--j", "4",
                 "--resume", cert, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["i"], payload["j"]) == ("monotone", 2, 3)
    assert payload["status"] == "verified" and payload["cache"] is None


def test_cmd_lattice_search_resume_needs_no_shape(tmp_path, capsys):
    cert = str(tmp_path / "cert.txt")
    assert main(["lattice", "search", "--csg", "--i", "2", "--j", "3", "--out", cert]) == EXIT_OK
    capsys.readouterr()
    assert main(["lattice", "search", "--resume", cert, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["kind"], payload["i"], payload["j"]) == ("csg", 2, 3)
    assert payload["status"] == "verified" and payload["certificate"] == cert


@pytest.mark.parametrize("kind", ["monotone", "csg"])
def test_cmd_lattice_search_resume_refuses_a_wrong_order_line(tmp_path, capsys, kind):
    cert = tmp_path / "cert.txt"
    flags, other = (["--csg"], "monotone") if kind == "csg" else ([], "csg")
    assert main(["lattice", "search", *flags, "--i", "2", "--j", "3",
                 "--out", str(cert)]) == EXIT_OK
    order = lattice.lattice_kind(kind).order
    text = cert.read_text()
    assert f"\norder: {order}\n" in text
    for wrong in ("nonsense", lattice.lattice_kind(other).order):
        cert.write_text(text.replace(f"order: {order}", f"order: {wrong}"))
        capsys.readouterr()
        assert main(["lattice", "search", "--resume", str(cert)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: certificate order {wrong!r} is not {kind}'s {order!r}\n")


def test_cmd_lattice_search_resume_accepts_a_missing_order_line(tmp_path, capsys):
    cert = tmp_path / "cert.txt"
    assert main(["lattice", "search", "--i", "2", "--j", "3", "--out", str(cert)]) == EXIT_OK
    cert.write_text(cert.read_text().replace("order: product\n", ""))
    assert "order:" not in cert.read_text()
    capsys.readouterr()
    assert main(["lattice", "search", "--resume", str(cert)]) == EXIT_OK
    assert capsys.readouterr().out == f"certificate verified: {cert}\n"


@pytest.mark.parametrize("shape", [["--i", "2"], ["--j", "3"], []])
def test_cmd_lattice_search_needs_a_shape_without_resume(shape, capsys):
    assert main(["lattice", "search", *shape]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --i and --j are required without --resume\n"


def test_cmd_lattice_search_cache_hit_writes_out(tmp_path, capsys):
    argv = ["lattice", "search", "--i", "2", "--j", "3", "--json"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    out = str(tmp_path / "q.txt")
    assert main(argv + ["--out", out]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["cache"], payload["certificate"]) == ("cached", "hit", out)
    assert main(["lattice", "search", "--resume", out]) == EXIT_OK
    assert capsys.readouterr().out == f"certificate verified: {out}\n"


def test_cmd_lattice_search_out_gets_the_certificate_without_the_cache_header(tmp_path, capsys):
    assert main(["lattice", "search", "--i", "2", "--j", "3", "--json"]) == EXIT_OK
    entry = Path(json.loads(capsys.readouterr().out)["certificate"])
    header, _, body = entry.read_text().partition("\n")
    assert header.startswith("maxcomplex-cache ")
    out = str(tmp_path / "canonical.txt")
    assert main(["lattice", "search", "--resume", str(entry), "--out", out, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["certificate"]) == ("verified", out)
    assert Path(out).read_text() == body and body.startswith("maxcomplex-certificate v1\n")


def test_cmd_lattice_search_key_order_for_every_status(tmp_path, capsys):
    keys = ["i", "j", "kind", "status", "nodes", "certificate", "prunes", "deepest", "cache",
            "elapsed_ms"]
    shape = ["--i", "2", "--j", "3"]
    runs = [(shape, "found", EXIT_OK), (shape, "cached", EXIT_OK),
            (None, "verified", EXIT_OK), (["--i", "5", "--j", "3"], "none", EXIT_OK),
            (["--i", "4", "--j", "4", "--budget", "3"], "exhausted", EXIT_EXHAUSTED)]
    entry = None
    for argv, status, code in runs:
        argv = ["--resume", entry] if argv is None else argv
        assert main(["lattice", "search", *argv, "--json"]) == code
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == keys and payload["status"] == status
        assert isinstance(payload["elapsed_ms"], float) and payload["elapsed_ms"] >= 0
        entry = entry or payload["certificate"]


def test_cmd_lattice_search_resume_refuses_more_sources_than_targets_first(
        tmp_path, capsys, monkeypatch):
    cube = lattice.boolean_cube

    def small_cubes(i):
        assert i < 10, "the source cube was built"
        return cube(i)

    monkeypatch.setattr(lattice, "boolean_cube", small_cubes)
    rows = "".join(f"{s:012b} -> 11\n" for s in range(1 << 12))  # 2^12 sources, 2 targets
    cert = write(tmp_path, "wide.txt", f"maxcomplex-certificate v1\ni: 12\nj: 1\nmap:\n{rows}"
                                       "cover:\nend\n")
    assert main(["lattice", "search", "--resume", cert]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: map is not injective\n"


@pytest.mark.parametrize("flag", [[], ["--csg"]])
def test_cmd_lattice_search_rejects_j0(flag, capsys):
    assert main(["lattice", "search", "--i", "1", "--j", "0"] + flag) == EXIT_USAGE
    assert "j must be >= 1" in capsys.readouterr().err


def test_cmd_lattice_search_cache(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("MAXCOMPLEX_CACHE", str(cache))
    argv = ["lattice", "search", "--i", "1", "--j", "2", "--csg", "--json"]
    assert main(argv) == EXIT_OK
    first = json.loads(capsys.readouterr().out)
    assert first["status"] == "found"
    assert first["certificate"] == str(cache / "certificate-csg-i1-j2.txt")
    assert [p.name for p in cache.iterdir()] == ["certificate-csg-i1-j2.txt"]
    assert main(argv) == EXIT_OK
    second = json.loads(capsys.readouterr().out)
    assert second["status"] == "cached"
    assert (first["cache"], second["cache"]) == ("miss", "hit")
    assert list(second) == list(first)
    assert main(argv[:-1] + ["--cache", str(cache)]) == EXIT_USAGE  # the variable alone
    assert "unrecognized arguments: --cache" in capsys.readouterr().err


def test_cmd_lattice_search_exhausted(capsys):
    assert main(["lattice", "search", "--i", "4", "--j", "4",
                 "--budget", "3"]) == EXIT_EXHAUSTED


def test_cmd_lattice_witness(tmp_path, capsys):
    out = str(tmp_path / "w8.lang")
    assert main(["lattice", "witness", "--n", "8", "--out", out, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["kind", "n", "bound", "complexity", "attained", "out"]
    assert payload["complexity"] == 58 and payload["attained"] is True


def test_cmd_lattice_witness_csg(tmp_path, capsys):
    out = str(tmp_path / "c8.lang")
    assert main(["lattice", "witness", "--n", "8", "--csg", "--out", out]) == EXIT_OK
    assert "complexity 47" in capsys.readouterr().out


@pytest.mark.parametrize("argv,bound,noun", [
    (["construct", "--n", "3"], general_bound(2, 2, 3), "constructed witness"),
    (["lattice", "witness", "--n", "5"], 15, "witness"),
], ids=["construct", "lattice-witness"])
def test_witness_commands_report_then_exit_2_on_a_missed_bound(
        tmp_path, capsys, monkeypatch, argv, bound, noun):
    monkeypatch.setattr(minauto, "state_complexity", lambda f: bound - 1)
    out = str(tmp_path / "w.lang")
    assert main([*argv, "--out", out]) == EXIT_MISMATCH
    captured = capsys.readouterr()
    assert captured.out == f"complexity {bound - 1} bound {bound} -> {out}\n"
    assert captured.err == f"verification mismatch: {noun} scores {bound - 1}, bound is {bound}\n"
    assert parse_language_file(Path(out).read_text()).n == int(argv[-1])


def test_cmd_lattice_lemma(capsys):
    assert main(["lattice", "lemma-les", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"ok": True}


def test_usage_errors(tmp_path, capsys):
    assert main(["complexity", str(tmp_path / "missing.lang")]) == EXIT_USAGE
    assert main(["bound"]) == EXIT_USAGE
    bad = write(tmp_path, "bad.lang", "01\n013\n")
    assert main(["complexity", bad]) == EXIT_USAGE


def test_empty_language_warns(tmp_path, capsys):
    path = write(tmp_path, "empty.lang", "b=2 c=2 n=2\n")
    assert main(["complexity", path]) == EXIT_OK
    captured = capsys.readouterr()
    assert "complexity 0" in captured.out
    assert "empty language" in captured.err


def test_disk_cache_stale_entry(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MAXCOMPLEX_CACHE", str(tmp_path / "cache"))
    cache = DiskCache()
    cache.store("certificate", "demo", "payload")
    assert cache.load("certificate", "demo") == "payload" and cache.event == "hit"
    path = cache._path("certificate", "demo")
    path.write_text("maxcomplex-cache deadbeef\npayload")
    assert cache.load("certificate", "demo") is None  # stale hash forces regeneration
    assert cache.event == "stale"
    # a body that does not match the header's hash is regenerated as well
    argv = ["lattice", "search", "--i", "2", "--j", "3", "--json"]
    assert main(argv) == EXIT_OK
    found = json.loads(capsys.readouterr().out)
    del found["elapsed_ms"]  # wall time, different on every run
    entry = cache._path("certificate", "monotone-i2-j3")
    text = entry.read_text()
    header = text.partition("\n")[0]
    for body in (b"42", b"99x", b"\xff"):
        entry.write_bytes(header.encode() + b"\n" + body)
        assert cache.load("certificate", "monotone-i2-j3") is None
        assert cache.event == "corrupt"
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload.pop("elapsed_ms") >= 0 and payload == {**found, "cache": "corrupt"}
        assert entry.read_text() == text  # stored again in place


def test_disk_cache_version_bump_is_stale_and_overwritten(tmp_path, monkeypatch):
    from maxcomplex import cache as cache_module

    monkeypatch.setenv("MAXCOMPLEX_CACHE", str(tmp_path / "cache"))
    cache = DiskCache()
    cache.store("enumeration", "monotone-n3", "old body")
    monkeypatch.setattr(cache_module, "__version__", "0.0.0-other")
    assert cache.load("enumeration", "monotone-n3") is None
    assert cache.event == "stale"
    cache.store("enumeration", "monotone-n3", "new body")
    assert [p.name for p in (tmp_path / "cache").iterdir()] == ["enumeration-monotone-n3.txt"]
    assert cache.load("enumeration", "monotone-n3") == "new body" and cache.event == "hit"


@pytest.mark.parametrize("argv,code", [
    (["complexity", "{empty}", "--dot", "{dot}"], EXIT_USAGE),  # NoAutomatonError
    (["construct", "--c", "1", "--n", "2", "--out", "{out}"], EXIT_USAGE),  # NoWitnessError
    (["count-max", "--c", "1", "--n", "2"], EXIT_USAGE),  # NoMaxError
    (["count-max", "--b", "4", "--c", "4", "--n", "9"], EXIT_CAPACITY),  # 2^21-bit products
    (["lattice", "search", "--i", "2", "--j", "2", "--resume", "{tampered}"],
     EXIT_USAGE),  # AdequacyError
    (["bound", "--kind", "csg", "--n", "24"], EXIT_CAPACITY),  # NeedCsgCountError
    (["bound", "--kind", "monotone", "--n", "42"], EXIT_CAPACITY),  # NeedDedekindError
    (["lattice", "search", "--i", "-1", "--j", "3"], EXIT_USAGE),
    (["lattice", "search", "--i", "-1", "--j", "3", "--csg"], EXIT_USAGE),
    (["lattice", "search", "--i", "3", "--j", "3", "--budget", "-1"], EXIT_USAGE),
    (["lattice", "witness", "--csg", "--n", "8", "--budget", "-1", "--out", "{out}"], EXIT_USAGE),
    (["lattice", "witness", "--n", "9", "--budget", "5", "--out", "{out}"], EXIT_USAGE),
    (["lattice", "search", "--i", "1", "--j", "6"], EXIT_CAPACITY),  # monotone poset guard
    (["lattice", "search", "--i", "1", "--j", "7", "--csg"], EXIT_CAPACITY),  # game poset guard
    (["complexity", "{dir}"], EXIT_USAGE),  # IsADirectoryError
    (["complexity", "{binary}"], EXIT_USAGE),  # UnicodeDecodeError
    (["construct", "--n", "3", "--out", "{dir}"], EXIT_USAGE),  # IsADirectoryError
    (["lattice", "search", "--i", "1", "--j", "3", "--resume", "{binary}"], EXIT_USAGE),
    (["lattice", "search", "--i", "1", "--j", "3", "--resume", "{truncated}"], EXIT_USAGE),
    (["complexity", "{unicode_word}"], EXIT_USAGE),  # str.isdigit passes '²', int() does not
    (["complexity", "{unicode_color}"], EXIT_USAGE),
    (["complexity", "{unicode_header}"], EXIT_USAGE),
    (["complexity", "{n23}"], EXIT_CAPACITY),  # refused before its 8 MB table is allocated
    (["complexity", "{n64}"], EXIT_CAPACITY),  # b**n is never allocated, nor computed
    (["complexity", "{long_header}"], EXIT_USAGE),  # past the interpreter's int/str limit
    (["complexity", "{long_color}"], EXIT_USAGE),
    (["lattice", "enumerate", "--n", "-1"], EXIT_USAGE),  # n must be >= 0
    (["lattice", "enumerate", "--n", "7"], EXIT_CAPACITY),  # F_7 is not counted
    (["lattice", "enumerate", "--n", "-1", "--csg"], EXIT_USAGE),
    (["lattice", "enumerate", "--n", "8", "--csg"], EXIT_CAPACITY),  # C_8 is not counted
], ids=["complexity-empty-dot", "construct-c1", "count-max-c1", "count-max-4-4-9",
        "resume-tampered",
        "bound-csg-24", "bound-monotone-42", "search-negative-i", "search-csg-negative-i",
        "search-negative-budget", "witness-csg-negative-budget", "witness-budget-without-csg",
        "search-monotone-j6", "search-csg-j7", "complexity-directory", "complexity-binary",
        "construct-out-directory", "resume-binary", "resume-truncated",
        "unicode-digit-word", "unicode-digit-color", "unicode-digit-header",
        "header-n23", "header-n64", "long-header-value", "long-color",
        "enumerate-negative-n", "enumerate-n7", "enumerate-csg-negative-n", "enumerate-csg-n8"])
def test_library_errors_exit_with_documented_code(tmp_path, capsys, argv, code):
    # the image of source 00 is {01}, which is not upward closed
    tampered = ("maxcomplex-certificate v1\ni: 2\nj: 2\nmap:\n00 -> 0100\n01 -> 0101\n"
                "10 -> 0011\n11 -> 0111\ncover:\nend\n")
    truncated = "maxcomplex-certificate v1\ni: 2\nj: 2\nmap:\n00 -> 0001\ncover:\nend\n"
    paths = {"empty": write(tmp_path, "empty.lang", "b=2 c=2 n=2\n"),
             "dot": str(tmp_path / "e.dot"), "out": str(tmp_path / "w.lang"),
             "tampered": write(tmp_path, "bad.txt", tampered),
             "truncated": write(tmp_path, "short.txt", truncated),
             "dir": str(tmp_path), "binary": str(tmp_path / "binary"),
             "unicode_word": write(tmp_path, "uw.lang", "0\u00b21\n"),
             "unicode_color": write(tmp_path, "uc.lang", "01 \u00b2\n"),
             "unicode_header": write(tmp_path, "uh.lang", "b=2 c=\u00b2 n=2\n"),
             "n23": write(tmp_path, "n23.lang", "b=2 c=2 n=23\n"),
             "n64": write(tmp_path, "n64.lang", "b=2 c=2 n=64\n"),
             "long_header": write(tmp_path, "lh.lang", "b=2 c=2 n=" + "1" * 5000 + "\n"),
             "long_color": write(tmp_path, "lc.lang", "01 " + "9" * 5000 + "\n")}
    (tmp_path / "binary").write_bytes(b"\x7fELF\xd0\xff\xfe\x00")
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("error:" if code == EXIT_USAGE else "capacity:")
    if argv[:2] == ["lattice", "witness"]:  # its search takes no budget, with or without --csg
        assert "unrecognized arguments: --budget " in err
        assert not os.path.exists(paths["out"])


def test_table_capacity_checked_before_allocation():
    for build in (lambda: ColoredFunction.from_words(2, 64, 2, {}),
                  lambda: ColoredFunction.from_mask(64, 1),
                  lambda: ColoredFunction(2, 64, 2, b""),
                  lambda: parse_language_file("b=2 c=2 n=64\n"),
                  lambda: parse_language_file("b=2 c=2 n=23\n0\n"),
                  lambda: parse_language_file("b=2 c=2 n=999999999999\n")):
        with pytest.raises(CapacityError):
            build()


def _signatures_and_tables():
    """((b, c, n), table) with b in 2..10, c in 2..5, n in 0..6: sparse, dense or all zero."""
    def table(sig):
        b, c, n = sig
        cells = b**n
        sparse = st.dictionaries(st.integers(0, cells - 1), st.integers(1, c - 1),
                                 max_size=40).map(
            lambda cols: bytes(cols.get(r, 0) for r in range(cells)))
        dense = st.lists(st.integers(0, c - 1), min_size=cells, max_size=cells).map(bytes)
        return st.tuples(st.just(sig), sparse if cells > 256 else sparse | dense)
    return st.tuples(st.integers(2, 10), st.integers(2, 5), st.integers(0, 6)).flatmap(table)


PROPERTY = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@PROPERTY
@given(_signatures_and_tables(), st.text(alphabet="abc #\n\r", max_size=8))
@example(((2, 2, 0), b"\0"), "")
@example(((3, 4, 0), b"\3"), "x")
@example(((10, 5, 6), bytes(10**6)), "")
@example(((1, 3, 2), b"\2"), "")
@example(((2, 1, 2), bytes(4)), "")
def test_language_file_round_trip_property(drawn, comment):
    (b, c, n), table = drawn
    f = ColoredFunction(b, n, c, table)
    try:
        text = format_language_file(f, comment)
    except InputError:
        assert "\n" in comment or "\r" in comment
        return
    assert parse_language_file(text) == f


def test_a_comment_with_a_line_break_is_refused():
    f = ColoredFunction.from_words(2, 2, 2, {(0, 1): 1})
    for comment in ["run 1\n01", "run\r", "\n", "x\x85y", "x\u2028", "x\x0b"]:
        with pytest.raises(InputError, match="is not one line"):
            format_language_file(f, comment)
    assert format_language_file(f, "run 1 # 01") == "# run 1 # 01\nb=2 c=2 n=2\n01\n"


def _former_format_language_file(f, comment=""):
    """The writer before each block became one join: a string per word, one line
    each, head + tail or "-", and " <color>" for a color >= 2."""
    if comment and comment.splitlines() != [comment]:
        raise InputError(f"comment {comment!r} is not one line")
    lines = [f"# {comment}"] if comment else []
    lines.append(f"b={f.b} c={f.c} n={f.n}")
    digits = [str(d) for d in range(f.b)]
    low = f.n // 2
    tails = list(map("".join, product(digits, repeat=low)))
    heads = map("".join, product(digits, repeat=f.n - low))
    for start, head in zip(range(0, len(f.table), len(tails)), heads):
        block = f.table[start : start + len(tails)]
        for tail, color in zip(compress(tails, block), block.replace(b"\0", b"")):
            token = head + tail or "-"
            lines.append(token if color == 1 else f"{token} {color}")
    lines[-1] += "\n"
    return "\n".join(lines)


@PROPERTY
@given(_signatures_and_tables(), st.sampled_from(["", "run 1 # 01"]))
def test_writer_is_the_former_writer(drawn, comment):
    (b, c, n), table = drawn
    f = ColoredFunction(b, n, c, table)
    assert format_language_file(f, comment) == _former_format_language_file(f, comment)


WRITER_CASES = {
    "n-0": ColoredFunction(2, 0, 2, b"\1"),
    "n-0-colored": ColoredFunction(3, 0, 4, b"\3"),
    "n-0-zero": ColoredFunction(2, 0, 3, b"\0"),
    "n-1": ColoredFunction(3, 1, 3, b"\2\0\1"),
    "zero": ColoredFunction(2, 5, 2, bytes(32)),
    "zero-head-blocks": ColoredFunction(2, 5, 3, bytes(8) + b"\1\0\2\0" + bytes(12) + b"\2" * 8),
    "only-last-cell": ColoredFunction(3, 4, 2, bytes(80) + b"\1"),
    "b-10": ColoredFunction(10, 3, 2, bytes(r % 3 == 0 for r in range(1000))),
    "c-10": ColoredFunction(2, 7, 10, bytes(r % 10 for r in range(128))),
    "c-256": ColoredFunction(2, 4, 256, bytes([255, 0, 1, 128] * 4)),
    "b-1": ColoredFunction(1, 3, 2, b"\1"),
}


@pytest.mark.parametrize("f", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_writer_is_the_former_writer_on_fixed_cases(f):
    for comment in ["", "a comment"]:
        assert format_language_file(f, comment) == _former_format_language_file(f, comment)
    assert parse_language_file(format_language_file(f)) == f


def test_writer_spells_the_empty_word_and_colors():
    assert format_language_file(WRITER_CASES["n-0"]) == "b=2 c=2 n=0\n-\n"
    assert format_language_file(WRITER_CASES["n-0-colored"], "x") == "# x\nb=3 c=4 n=0\n- 3\n"
    assert format_language_file(WRITER_CASES["zero"]) == "b=2 c=2 n=5\n"
    assert format_language_file(WRITER_CASES["c-256"]).startswith(
        "b=2 c=256 n=4\n0000 255\n0010\n0011 128\n0100 255\n")


@pytest.mark.parametrize("b,c,n", [(2, 2, 16), (2, 3, 16), (4, 5, 8)])
def test_writer_peaks_below_three_times_its_text(b, c, n):
    """Writing makes no string per word: a 2^16-cell table peaks below 3x its text
    (the per-line writer peaked at 5-7x)."""
    rng = random.Random(b * 100 + c)
    f = ColoredFunction(b, n, c, bytes(rng.randrange(c) for _ in range(b**n)))
    tracemalloc.start()
    try:
        text = format_language_file(f, "peak")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text)


LANGUAGE_TEXT = st.one_of(
    st.text(max_size=60),
    st.text(alphabet="0123456789-=#bcn \t\n\u00b2\u0663x", max_size=60),
    st.lists(st.one_of(st.sampled_from(["b=2", "c=3", "n=2", "n=0", "b=11", "c=-1", "n=-2",
                                        "b=--5", "-", "#", "01", "0 2", "012 2", "10 0"]),
                       st.from_regex(r"[0-9]{1,4}( [0-9]{1,3})?", fullmatch=True)),
             max_size=8).map("\n".join),
)


@PROPERTY
@given(LANGUAGE_TEXT)
def test_language_file_parser_fuzz(text):
    try:
        f = parse_language_file(text)
    except MaxcomplexError:
        return
    assert isinstance(f, ColoredFunction)
    assert parse_language_file(format_language_file(f)) == f


def _outcome(parse, text):
    try:
        return parse(text)
    except MaxcomplexError as exc:
        return type(exc), str(exc)


def _assert_parsers_agree(text):
    """The one-pass reader gives the line loop's function or declines; either way
    parse_language_file gives what the line loop gives, error messages included."""
    expected = _outcome(_parse_lines, text)
    assert _outcome(parse_language_file, text) == expected
    fast = _read_well_formed(text)
    assert fast is None or fast == expected


PARSER_TRAPS = {
    "crlf": "b=2 c=2 n=2\r\n01\r\n10\r\n",
    "cr-in-comment": "# x\rb=3 c=3 n=1\nb=2 c=2 n=1\n1\n",
    "nel-in-comment": "# x\x852\nb=3 c=3 n=1\n1\n",
    "no-final-newline": "b=2 c=2 n=2\n01\n10",
    "no-final-newline-n-1": "b=2 c=3 n=1\n0\n1 2",  # the lengths alone would not show it
    "comment-in-body": "b=2 c=2 n=2\n01\n# x\n10\n",
    "blank-in-body": "b=2 c=2 n=2\n01\n\n10\n",
    "word-0": "b=2 c=3 n=2\n01 0\n10\n",
    "word-0-then-color": "b=2 c=3 n=2\n01 0\n10\n01 2\n",
    "repeat-same-color": "b=2 c=3 n=2\n01 2\n10\n01 2\n",
    "repeat-other-color": "b=2 c=3 n=2\n01 2\n10\n01\n",
    "color-at-c": "b=2 c=3 n=2\n01 3\n",
    "digit-at-b": "b=2 c=3 n=2\n01\n21\n",
    "b-11": "b=11 c=2 n=2\n01\n10\n",
    "c-11-color-10": "b=2 c=11 n=1\n0 10\n",
    "c-11-color-0": "b=2 c=11 n=1\n0 0\n1 0\n",
    "n-0": "b=2 c=2 n=0\n-\n",
    "n-0-colored": "b=2 c=3 n=0\n- 2\n",
    "b-1": "b=1 c=2 n=3\n000\n",
    "c-1": "b=2 c=1 n=3\n",
    "c-1-word": "b=2 c=1 n=1\n1\n",
    "header-order": "c=3 b=2 n=2\n01 2\n",
    "header-leading-zeros": "b=02 c=003 n=02\n01 2\n10\n",
    "header-twice": "b=2 c=2 n=2 n=3\n010\n",
    "space-in-word": "b=2 c=3 n=2\n0 12\n01 2\n",
    "leading-space": "b=2 c=3 n=2\n 012\n",
    "space-in-short-line": "b=2 c=2 n=3\n 01\n",  # int(" 01", 2) is 1
    "sign": "b=2 c=2 n=3\n+01\n",
    "minus": "b=2 c=2 n=3\n-01\n",  # int("-01", 2) is -1, the last cell
    "underscore": "b=2 c=2 n=3\n0_1\n",
    "binary-prefix": "b=2 c=2 n=3\n0b1\n",  # int("0b1", 2) is 1
    "binary-prefix-upper": "b=2 c=2 n=4\n0B11\n",
    "octal-prefix": "b=8 c=2 n=3\n0o7\n",
    "letter": "b=10 c=2 n=2\n0a\n",
    "two-spaces": "b=2 c=3 n=2\n01  \n10 2\n",
    "lengths-balance": "b=2 c=2 n=3\n01\n0111\n",  # as many characters as two words
    "tab": "b=2 c=3 n=2\n01\t2\n",
    "unicode-digit": "b=10 c=2 n=2\n0\u00b9\n",
    "unicode-decimal": "b=10 c=2 n=2\n0\u0663\n",  # int() reads the Arabic-Indic 3
    "unicode-space": "b=2 c=2 n=3\n\u200301\n",
    "capacity": "b=2 c=2 n=23\n" + "0" * 23 + "\n",
    "capacity-bad-word": "b=2 c=2 n=64\nx\n",
    "capacity-long-header": "b=10 c=2 n=9999\n",
}


@pytest.mark.parametrize("text", PARSER_TRAPS.values(), ids=PARSER_TRAPS.keys())
def test_one_pass_reader_agrees_with_the_line_loop_on_traps(text):
    _assert_parsers_agree(text)


def test_one_pass_reader_reads_what_format_writes():
    for f in (parse_language_file(ASIAN_TEXT),
              ColoredFunction(3, 3, 5, bytes(range(5)) * 3 + bytes(12)),
              ColoredFunction(10, 2, 10, bytes(i % 10 for i in range(100)))):
        assert _read_well_formed(format_language_file(f, "a comment")) == f
    same = PARSER_TRAPS["repeat-same-color"]
    assert _read_well_formed(same) == _parse_lines(same)


def test_one_pass_reader_declines_a_color_0_line_before_reading_lines(monkeypatch):
    monkeypatch.setattr(cli, "table_cells", _must_not_allocate)
    for key in ["word-0", "word-0-then-color", "c-11-color-0"]:
        assert _read_well_formed(PARSER_TRAPS[key]) is None, key
    assert _read_well_formed("b=2 c=3 n=2\n10 2\n11 1\n01 0\n") is None


def _must_not_allocate(*args):
    raise AssertionError("the table was allocated")


def test_a_header_past_capacity_allocates_nothing():
    text = "b=2 c=2 n=22\n" + "1" * 22 + "\n"  # a 4 MB table; n = 23 is past capacity
    assert parse_language_file(text).table[-1] == 1
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="table of 2\\^23 cells exceeds capacity"):
            parse_language_file(text.replace("22", "23"))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@st.composite
def _written(draw):
    """The text that format_language_file writes for a drawn function, after a drawn
    comment line.  A comment with a carriage return, which format_language_file
    refuses, is not one line to str.splitlines."""
    (b, c, n), table = draw(_signatures_and_tables())
    comment = draw(st.text(alphabet="abc #\r", max_size=8))
    text = format_language_file(ColoredFunction(b, n, c, table))
    return f"# {comment}\n{text}" if comment else text


@st.composite
def _near_well_formed(draw):
    """A written file with one or two lines edited, and its final newline kept,
    dropped or made CRLF.  An edit spoils one character of a line, gives a word
    another tail, repeats a word with the same or another color, inserts a line
    or cuts one."""
    (b, c, n), table = draw(_signatures_and_tables())
    lines = format_language_file(ColoredFunction(b, n, c, table)).split("\n")[:-1]
    tails = st.sampled_from(["", " 0", " 1", f" {c - 1}", f" {c}", " 10", "  1", "\t1"])
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(lines) - 1))
        line, word = lines[at], lines[at].split(" ")[0]
        edit = draw(st.sampled_from(["spoil", "tail", "repeat", "insert", "cut"]))
        if edit == "spoil" and line:
            i = draw(st.integers(0, len(line) - 1))
            lines[at] = line[:i] + draw(st.sampled_from(" +-_\u0663\r#9boxB")) + line[i + 1:]
        elif edit == "tail":
            lines[at] = word + draw(tails)
        elif edit == "repeat":
            lines.insert(draw(st.integers(1, len(lines))), word + draw(tails))
        elif edit == "insert":
            lines.insert(at, draw(st.sampled_from(["", "# x", "b=2 c=2 n=2", "-", "- 2"])))
        elif len(lines) > 1:
            del lines[at]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "\n", "", "\r\n"]))


@settings(PROPERTY, max_examples=600)
@given(st.one_of(LANGUAGE_TEXT, _written(), _near_well_formed()))
def test_one_pass_reader_agrees_with_the_line_loop(text):
    _assert_parsers_agree(text)
