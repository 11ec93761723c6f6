"""The package's lazy exports, the modules each CLI command imports, and the
oldest Python its sources parse under."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxcomplex

SRC = str(Path(maxcomplex.__file__).resolve().parents[1])
# Standard modules that no command needs: `dataclasses` and the `inspect` it
# imports took about 12-16 ms of every command's start-up.
STARTUP_FREE = ("dataclasses", "inspect")
# Loaded only by the commands that use the disk cache, for its content hashes.
CACHE_ONLY = ("hashlib",)
# Prints, as its last line, the maxcomplex modules and the STARTUP_FREE and
# CACHE_ONLY modules loaded after cli.main(argv).
RUN_MAIN = f"""
import json, sys
from maxcomplex import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("maxcomplex")),
                  [m for m in {STARTUP_FREE + CACHE_ONLY!r} if m in sys.modules]]))
"""


def fresh_python(code, *argv):
    """Run `code` in a new interpreter that imports maxcomplex from this source tree."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def loaded_by(*argv):
    """The maxcomplex modules that the command loads, by short name, and the
    CACHE_ONLY modules it loads."""
    code, modules, watched = json.loads(fresh_python(RUN_MAIN, *argv).splitlines()[-1])
    assert code == 0
    assert not set(watched) & set(STARTUP_FREE), argv
    names = {m.removeprefix("maxcomplex").lstrip(".") or "maxcomplex" for m in modules}
    return names | set(watched)


def test_public_names_are_their_modules_objects():
    for name in maxcomplex.__all__:
        module = importlib.import_module(f"maxcomplex.{maxcomplex._EXPORTS[name]}")
        assert getattr(maxcomplex, name) is getattr(module, name), name
    namespace = {}
    exec("from maxcomplex import *", namespace)
    assert set(maxcomplex.__all__) <= set(namespace)
    assert set(maxcomplex.__all__) | {"lattice", "csg", "__version__"} <= set(dir(maxcomplex))
    assert isinstance(maxcomplex.__version__, str)
    with pytest.raises(AttributeError, match="no_such_name"):
        maxcomplex.no_such_name


def test_import_loads_no_submodule_until_a_name_is_used():
    out = fresh_python(
        "import sys, maxcomplex\n"
        "before = sorted(m for m in sys.modules if m.startswith('maxcomplex'))\n"
        "lattice = maxcomplex.lattice\n"
        "search = maxcomplex.search_csg_relation\n"
        "print(before, lattice is sys.modules['maxcomplex.lattice'],\n"
        "      search is sys.modules['maxcomplex.csg'].search_csg_relation)\n")
    assert out.split() == ["['maxcomplex']", "True", "True"]


def test_importing_csg_changes_nothing_in_lattice():
    out = fresh_python(
        "import maxcomplex.lattice as lattice\n"
        "def snapshot():  # each name's object and its repr, which shows a grown dict\n"
        "    return {k: (id(v), repr(v)) for k, v in vars(lattice).items()}\n"
        "before = snapshot()\n"
        "import maxcomplex.csg\n"
        "after = snapshot()\n"
        "print(sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k)))\n")
    assert out.split() == ["[]"]


def test_each_command_imports_only_what_it_runs(tmp_path):
    lang = tmp_path / "small.lang"
    lang.write_text("b=2 c=2 n=3\n101\n011\n")
    assert loaded_by("bound", "--n", "3", "--json") == {"maxcomplex", "cli", "core", "bounds"}
    assert loaded_by("complexity", str(lang)) == {"maxcomplex", "cli", "core", "minauto"}
    assert loaded_by("lattice", "verify-embedding", "--name", "post_alh") == {
        "maxcomplex", "cli", "core", "lattice"}
    assert loaded_by("lattice", "enumerate", "--n", "6") == {"maxcomplex", "cli", "core",
                                                            "lattice"}
    assert not {"cache", "hashlib"} & loaded_by("lattice", "enumerate", "--n", "6", "--csg")
    out = str(tmp_path / "out")
    assert {"cache", "hashlib"} <= loaded_by("lattice", "search", "--i", "2", "--j", "3")
    for argv in (["complexity", str(lang), "--dot", out, "--mn-crosscheck"],
                 ["bound", "--kind", "csg", "--n", "5"],
                 ["construct", "--n", "3", "--out", out],
                 ["count-max", "--n", "2", "--verify-brute", "--list"],
                 ["lattice", "enumerate", "--n", "3", "--csg"],
                 ["lattice", "search", "--i", "2", "--j", "3", "--out", out],
                 ["lattice", "search", "--i", "2", "--j", "3", "--resume", out],
                 ["lattice", "witness", "--n", "5", "--csg", "--out", out],
                 ["lattice", "witness", "--n", "5", "--out", out],
                 ["lattice", "lemma-les"]):
        loaded_by(*argv)  # asserts exit 0 and that no STARTUP_FREE module was loaded
    cert = str(tmp_path / "cert.txt")
    loaded_by("lattice", "search", "--i", "2", "--j", "3", "--out", cert)
    assert not {"cache", "hashlib"} & loaded_by("lattice", "search", "--resume", cert)


def test_game_certificate_verifies_with_only_lattice_imported():
    from maxcomplex.csg import check_csg_relation, search_csg_relation
    from maxcomplex.lattice import format_certificate

    text = format_certificate(check_csg_relation(2, 3, search_csg_relation(2, 3).map))
    out = fresh_python(
        "import sys\n"
        "from maxcomplex.lattice import parse_certificate, verify_certificate\n"
        "print('maxcomplex.csg' in sys.modules)\n"
        "print(verify_certificate(parse_certificate(sys.argv[1])).kind)\n", text)
    assert out.split() == ["False", "csg"]


def test_sources_parse_as_the_oldest_python_that_pyproject_allows():
    # requires-python is >= 3.10; this catches 3.11-only syntax on any interpreter
    sources = sorted(Path(SRC, "maxcomplex").glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
