"""What a command-line start imports, and the package's on-demand exports."""

import os
import subprocess
import sys

import pytest

import cornerindex
from conftest import EXAMPLE, EXAMPLE_PNF_A, EXAMPLE_PNF_B
from cornerindex.build import build_index
from cornerindex.persist import save_index

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
SUBMODULES = ("build", "corner", "oracle", "persist", "pnf", "rle", "textgen")

# Modules that neither `pnf --index` nor `query` runs, so that a child that
# serves an index never pays for importing or compiling them.
_NOT_FOR_SERVING = ("dataclasses", "inspect", "json", "numpy", "cornerindex.build",
                    "cornerindex.oracle", "cornerindex.textgen")

_SERVE = """
import sys
import cornerindex
loaded = sorted(m for m in sys.modules if m.startswith("cornerindex."))
assert not loaded, loaded
assert cornerindex.__version__ == "0.1.0"
from cornerindex.cli import main
assert main(["pnf", "--index", sys.argv[1]]) == 0
assert main(["query", "--index", sys.argv[1], "--input", sys.argv[2],
             "--format", "tsv"]) == 0
present = sorted(set(sys.argv[3:]) & set(sys.modules))
assert not present, present
"""

_FIRST_USE = """
import sys
import cornerindex
assert "load_index" not in vars(cornerindex)
load_index = cornerindex.load_index
assert vars(cornerindex)["load_index"] is load_index
assert load_index is sys.modules["cornerindex.persist"].load_index
loaded = {m for m in sys.modules if m.startswith("cornerindex.")}
assert loaded == {"cornerindex.corner", "cornerindex.persist", "cornerindex.rle"}, loaded
assert cornerindex.textgen is sys.modules["cornerindex.textgen"]
from cornerindex import pnf_from_index, verify_pnf_relations
assert "pnf_from_index" in vars(cornerindex)
assert not {"cornerindex.build", "cornerindex.oracle"} & set(sys.modules)
"""

# verify's texts of up to 48 characters take the plain-int sweep, and its
# PNF-relation check reads the lookup table, so nothing loads numpy.
_VERIFY = """
import sys
from cornerindex.cli import main
code = main(["verify", "--count", "20", "--length", "48", "--seed", "7"])
assert "numpy" not in sys.modules
sys.exit(code)
"""


def _child(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter without ``site``, whose extra
    path hooks would import modules of their own, on this tree's sources."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-S", "-c", script, *args],
                          capture_output=True, text=True, env=env)


def test_serving_imports_only_what_it_runs(tmp_path):
    index = str(tmp_path / "text.cix")
    save_index(build_index(EXAMPLE), index)
    queries = tmp_path / "queries.txt"
    queries.write_text("3 3\n5 1\n")
    out = _child(_SERVE, index, str(queries), *_NOT_FOR_SERVING)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [EXAMPLE_PNF_A, EXAMPLE_PNF_B, "3\t3\t1", "5\t1\t0"]


def test_verify_runs_without_numpy():
    out = _child(_VERIFY)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "verified 20 strings, 0 failing checks\n"


def test_exports_resolve_on_first_use():
    out = _child(_FIRST_USE)
    assert out.returncode == 0, out.stderr


def test_star_import_and_dir_list_every_export():
    names: dict = {}
    exec("from cornerindex import *", names)
    assert set(cornerindex.__all__) <= set(names)
    listed = dir(cornerindex)
    for name in cornerindex.__all__:
        assert names[name] is getattr(cornerindex, name)
        assert name in vars(cornerindex) and name in listed
    assert set(SUBMODULES) <= set(listed)
    for sub in SUBMODULES:
        assert getattr(cornerindex, sub) is sys.modules[f"cornerindex.{sub}"]


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cornerindex.no_such_name
    assert not hasattr(cornerindex, "_sweep")
    with pytest.raises(ImportError):
        exec("from cornerindex import no_such_name", {})
