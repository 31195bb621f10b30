"""Declared dependency floors must admit only versions the code runs on."""

import re
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _floor(package):
    text = PYPROJECT.read_text()
    match = re.search(rf'"{package}\s*>=\s*([0-9]+(?:\.[0-9]+)*)', text)
    if match is None:
        pytest.fail(f"pyproject.toml declares no {package} floor")
    return tuple(int(part) for part in match.group(1).split("."))


def test_scipy_floor_has_sph_harm_y_all():
    # scipy.special.sph_harm_y and sph_harm_y_all first shipped in SciPy 1.15.0
    assert _floor("scipy") >= (1, 15)
