"""Declared dependencies: floors the code runs on, and every module the tests import."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _floor(package):
    text = PYPROJECT.read_text()
    match = re.search(rf'"{package}\s*>=\s*([0-9]+(?:\.[0-9]+)*)', text)
    if match is None:
        pytest.fail(f"pyproject.toml declares no {package} floor")
    return tuple(int(part) for part in match.group(1).split("."))


def test_scipy_floor_has_sph_legendre_p_all():
    # scipy.special.sph_legendre_p_all (every SH table) and sph_harm_y
    # first shipped in SciPy 1.15.0
    assert _floor("scipy") >= (1, 15)


def test_version_is_read_from_the_package():
    # one definition: pyproject names binrender.__version__ and states no copy
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    doc = tomllib.loads(PYPROJECT.read_text())
    assert "version" not in doc["project"]
    assert "version" in doc["project"]["dynamic"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "binrender.__version__"}


def _declared():
    """Distribution names in ``dependencies`` and the ``test`` extra."""
    text = PYPROJECT.read_text()
    names = set()
    for key in ("dependencies", "test"):
        block = re.search(rf"^{key} = \[(.*?)\]", text, re.S | re.M).group(1)
        names |= {re.match(r"[\w.-]+", req).group(0).lower()
                  for req in re.findall(r'"([^"]+)"', block)}
    return names


def _imported_top_level(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_test_imports_are_declared():
    # every third-party import name here is also its distribution name
    local = {"binrender", "conftest"}
    imported = {name for path in (ROOT / "tests").glob("*.py")
                for name in _imported_top_level(path)}
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party, "no third-party imports found"
    assert sorted(third_party - _declared()) == []


def test_cli_import_leaves_out_scipy_signal():
    # scipy.signal is a third of the CLI's start-up time; the package uses none of it
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    code = "import sys, binrender.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
