"""Every script under scripts/ still loads against the package: a name it
imports that the library no longer has fails here, not on the next run."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    # each script guards its main, so loading it runs its imports and definitions only
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace.get("main"))
