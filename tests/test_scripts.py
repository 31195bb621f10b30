"""Every script under scripts/ still loads against the package: a name it
imports that the library no longer has fails here, not on the next run. Each
layer-timing group and the desk experiment also run once, so a fault at run
time shows here too."""

import csv
import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
LAYER_TIMING = Path(__file__).resolve().parents[1] / "scripts" / "layer_timing.py"
DESK = LAYER_TIMING.with_name("desk_experiment.py")


def under(key, names, fields):
    return {f"{key}.{name}.{field}" for name in names for field in fields}


# group -> dotted paths of the leaves its JSON holds beside group, machine and repeats
LAYER_KEYS = {
    "radial": under("tables", ["bank-narrow-psi", "bank-narrow-xi", "bank-wide-xi", "head-track-move"],
                    ["lmax", "z", "kernel_ms", "scipy_ms", "ratio"]),
    "rows": under("grids", ["bank-narrow", "bank-wide"],
                  ["bins", "top_order", "per_bin_ms", "blocked_ms", "ratio", "rel_diff",
                   "estimators_solve_ms", "pass_solve_ms", "solve_ratio", "bitwise", "peak_mb"])
    | {"grids.bank-narrow.bank_peak_mb", "grids.bank-wide.fit_peak_mb"},
    "kernel": under("sh_tables", ["target-mics-lmax3", "target-mics-lmax19", "target-mics-lmax36",
                                  "mic-pairs-lmax2"],
                    ["lmax", "points", "sh_table_ms", "sph_harm_y_all_ms", "ratio"])
    | {"move_16_build_xi_ms", "move_16_translate_multi_ms", "move_ratio",
       "rotation_16_rotate_hrtf_ms.shared_blocks", "rotation_16_rotate_hrtf_ms.per_bin_blocks",
       "cold_plan_35.median_ms", "cold_plan_35.peak_mb", "cold_plan_35.retained_mb",
       "cold_plan_35.tables_held", "fit_35.directions", "fit_35.freqs", "fit_35.median_ms",
       "fit_35.peak_mb"}
    | under("spectrum_turns", ["256x18", "122x35"], ["rows", "order", "median_ms", "peak_mb"]),
    "track": {"bins", "orders", "updates"}
    | {f"{call}{stat}" for call in ("rotate", "move", "weights", "solve") for stat in ("_ms", "_p90_ms")},
    "convolve": {"mics"} | under("signals", ["1s-128taps", "1s-4096taps", "10s-128taps", "10s-4096taps"],
                                ["seconds", "taps", "median_ms", "peak_mb"]),
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


def test_desk_experiment_report(tmp_path, monkeypatch, capsys):
    from binrender.metrics import REPORT_FIELDS

    monkeypatch.setattr(sys, "argv", [str(DESK), str(tmp_path)])
    namespace = runpy.run_path(str(DESK), run_name="smoke")
    namespace["main"]()
    with open(tmp_path / "desk_experiment.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    assert reader.fieldnames == REPORT_FIELDS
    # 7 positions x 2 arrays x 2 ears, each a finite NMSE over the whole band
    assert len(rows) == 28
    assert {row["position"] for row in rows} == set(namespace["POSITIONS"])
    assert {row["metric"] for row in rows} == {f"nmse_{ear}_{array}_db" for ear in "LR"
                                               for array in ("composite", "rigid_sphere")}
    assert all(row["azimuth_deg"] == "" and row["frequency_or_band"] == "100-1600"
               and row["excluded_bins"] == "0" and float(row["value"]) < 0.0 for row in rows)
