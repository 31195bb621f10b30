"""Every script under scripts/ still loads against the package: a name it
imports that the library no longer has fails here, not on the next run. Each
layer-timing group also runs once, so a fault at run time shows here too."""

import json
import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
LAYER_TIMING = Path(__file__).resolve().parents[1] / "scripts" / "layer_timing.py"


def under(key, names, fields):
    return {f"{key}.{name}.{field}" for name in names for field in fields}


# group -> dotted paths of the leaves its JSON holds beside group, machine and repeats
LAYER_KEYS = {
    "radial": under("tables", ["bank-narrow-psi", "bank-narrow-xi", "bank-wide-xi", "head-track-bin"],
                    ["lmax", "z", "kernel_ms", "scipy_ms", "ratio"]),
    "rows": under("grids", ["bank-narrow", "bank-wide"],
                  ["bins", "top_order", "per_bin_ms", "blocked_ms", "ratio", "rel_diff",
                   "estimators_solve_ms", "pass_solve_ms", "solve_ratio", "bitwise"]),
    "kernel": under("sh_tables", ["target-mics-lmax3", "target-mics-lmax19", "target-mics-lmax36",
                                  "mic-pairs-lmax2"],
                    ["lmax", "points", "sh_table_ms", "sph_harm_y_all_ms", "ratio"])
    | {"move_16_build_xi_ms", "move_16_translate_multi_ms", "move_ratio",
       "rotation_16_rotate_hrtf_ms.shared_blocks", "rotation_16_rotate_hrtf_ms.per_bin_blocks"},
    "track": {"bins", "orders", "updates"}
    | {f"{call}{stat}" for call in ("rotate", "move", "weights", "solve") for stat in ("_ms", "_p90_ms")},
}


def leaves(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_script_loads(path):
    # each script guards its main, so loading it runs its imports and definitions only
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace.get("main"))


@pytest.mark.parametrize("group", LAYER_KEYS)
def test_layer_timing_group_runs(group, capsys):
    runpy.run_path(str(LAYER_TIMING), run_name="smoke")["main"]([group, "1"])
    doc = json.loads(capsys.readouterr().out)
    assert (doc.pop("group"), doc.pop("repeats")) == (group, 1)
    assert set(doc.pop("machine")) == {"python", "numpy", "scipy", "cpu", "nproc", "blas_threads"}
    assert set(leaves(doc)) == LAYER_KEYS[group]
