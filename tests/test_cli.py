"""CLI pipeline: validation, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from binrender import bundleio
from binrender.cli import main

SCENE = {
    "sources": [{"pos": [1.5, 0.0, 0.0]}],
    "band": [200.0, 1000.0, 200.0],
    "sound_speed": 346.2,
}


def write_config(tmp_path, **overrides):
    (tmp_path / "scene.json").write_text(json.dumps(SCENE))
    rc = main(["geometry", "--kind", "composite", "--out", str(tmp_path / "geom.json")])
    assert rc == 0
    doc = {
        "version": 1,
        "scene": "scene.json",
        "geometry": "geom.json",
        "hrtf": {"synthetic": {"head_radius": 0.0875, "measure_radius": 1.5}},
        "render": {"band": [200.0, 1000.0], "nfft": 1024, "wav_duration": 0.05},
        "listener": {"position": [0.0, 0.0, 0.0], "euler_deg": [0.0, 0.0, 0.0]},
        "output_dir": "out",
    }
    doc.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    return path


class TestGeometryCommand:
    def test_emit_and_validate(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["geometry", "--kind", "rigid-sphere", "--out", str(out)]) == 0
        assert main(["geometry", "--validate", str(out)]) == 0

    def test_small_array_options(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["geometry", "--kind", "small", "--center", "0.1,0,0",
                   "--yaw-deg", "45", "--radius", "0.02", "--out", str(out)])
        assert rc == 0
        from binrender.arrays import load_geometry

        geom = load_geometry(out)
        assert geom.n_mics == 8
        assert np.max(np.abs(geom.positions().mean(axis=0) - [0.1, 0, 0])) < 1e-9

    def test_missing_args_is_user_error(self):
        assert main(["geometry"]) == 1

    def test_bad_center_is_user_error(self, tmp_path):
        rc = main(["geometry", "--kind", "small", "--center", "zap",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1


class TestPipeline:
    def test_simulate_estimate_render_evaluate(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        out = tmp_path / "out"
        freqs, obs = bundleio.load_observation_bundle(out / "observation")
        assert obs.shape == (5, 64)
        assert main(["estimate", str(cfg)]) == 0
        doc, flat = bundleio.read_bundle(out / "coefficients")
        assert len(doc["orders"]) == 5
        assert flat.size == sum((o + 1) ** 2 for o in doc["orders"])
        assert main(["render", str(cfg)]) == 0
        assert (out / "binaural_response.csv").exists()
        assert (out / "binaural.wav").exists()
        assert main(["evaluate", str(cfg)]) == 0
        text = (out / "metrics.csv").read_text()
        assert "nmse_L_avg_db" in text and "itd_estimated_s" in text

    def test_rigid_sphere_estimate_order_capped(self, tmp_path):
        (tmp_path / "scene.json").write_text(json.dumps(SCENE))
        assert main(["geometry", "--kind", "rigid-sphere",
                     "--out", str(tmp_path / "geom.json")]) == 0
        doc = {"version": 1, "scene": "scene.json", "geometry": "geom.json",
               "output_dir": "out"}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", str(cfg)]) == 0
        assert main(["estimate", str(cfg)]) == 0
        header, _ = bundleio.read_bundle(tmp_path / "out" / "coefficients")
        assert max(header["orders"]) <= 7

    def test_empty_source_list_zero_bundle(self, tmp_path):
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "sources": []}))
        cfg = write_config(tmp_path)
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "sources": []}))
        assert main(["simulate", str(cfg)]) == 0
        _, obs = bundleio.load_observation_bundle(tmp_path / "out" / "observation")
        assert np.max(np.abs(obs)) == 0.0

    def test_filters_command(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["filters", str(cfg)]) == 0
        sidecar = json.loads((tmp_path / "out" / "filterbank.json").read_text())
        assert sidecar["delay_samples"] == 512
        assert sidecar["n_mics"] == 64

    def test_missing_geometry_is_user_error(self, tmp_path):
        cfg = write_config(tmp_path, geometry="nope.json")
        assert main(["simulate", str(cfg)]) == 1

    def test_bad_version_is_user_error(self, tmp_path):
        cfg = write_config(tmp_path, version=99)
        assert main(["simulate", str(cfg)]) == 1

    def test_validation_happens_before_outputs(self, tmp_path):
        cfg = write_config(tmp_path, geometry="nope.json")
        assert main(["simulate", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    def test_estimator_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        assert main(["estimate", str(cfg), "--order", "3"]) == 0
        doc, _ = bundleio.read_bundle(tmp_path / "out" / "coefficients")
        assert doc["orders"] == [3, 3, 3, 3, 3]
        assert main(["estimate", str(cfg), "--lam", "bogus"]) == 1

    def test_removed_buffer_flag_is_user_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        assert main(["render", str(cfg), "--buffer", "99"]) == 1

    def test_render_without_hrtf_is_user_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        doc = json.loads(cfg.read_text())
        del doc["hrtf"]
        cfg.write_text(json.dumps(doc))
        assert main(["render", str(cfg)]) == 1


class TestHrtfImport:
    def test_csv_to_bundle(self, tmp_path):
        csv = tmp_path / "set.csv"
        csv.write_text(
            "theta,phi,L_mag_100,L_phase_100,R_mag_100,R_phase_100\n"
            "1.0,0.5,1.0,0.0,0.5,0.1\n"
            "2.0,-0.5,0.8,0.2,0.9,-0.3\n")
        rc = main(["hrtf-import", str(csv), "--radius", "1.5",
                   "--out", str(tmp_path / "bundle")])
        assert rc == 0
        from binrender.bundleio import load_hrtf_bundle

        hs = load_hrtf_bundle(tmp_path / "bundle")
        assert hs.n_directions == 2
        assert hs.radius == 1.5

    def test_missing_csv_is_user_error(self, tmp_path):
        rc = main(["hrtf-import", str(tmp_path / "nope.csv"), "--radius", "1.5",
                   "--out", str(tmp_path / "b")])
        assert rc == 1

    def test_bundle_usable_as_run_hrtf(self, tmp_path):
        # measured-set route through render: source on the measurement sphere
        import math

        from binrender.bundleio import save_hrtf_bundle
        from binrender.hrtf import SyntheticHead, fibonacci_grid, synth_rigid_sphere_hrtf

        freqs = [200.0, 400.0]
        hs = synth_rigid_sphere_hrtf(SyntheticHead(), fibonacci_grid(144), freqs, 1.5)
        save_hrtf_bundle(tmp_path / "hrtf", hs)
        (tmp_path / "scene.json").write_text(json.dumps(
            {"sources": [{"pos": [1.5, 0.0, 0.0]}], "freqs": freqs}))
        assert main(["geometry", "--kind", "composite",
                     "--out", str(tmp_path / "geom.json")]) == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "version": 1, "scene": "scene.json", "geometry": "geom.json",
            "hrtf": "hrtf", "render": {"band": [200.0, 400.0], "nfft": 1024,
                                       "wav_duration": 0.02},
            "output_dir": "out"}))
        assert main(["simulate", str(cfg)]) == 0
        assert main(["render", str(cfg)]) == 0
        assert main(["evaluate", str(cfg)]) == 0
        text = (tmp_path / "out" / "metrics.csv").read_text()
        row = [r for r in text.splitlines() if "nmse_L_avg_db" in r][0]
        assert float(row.split(",")[4]) < -10.0


class TestDeterminism:
    def test_manifest_has_no_timestamps_and_hashes_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_simulate.json").read_text())
        assert set(manifest) == {"command", "config_hash", "library_version", "seed", "outputs"}
        assert "observation.bin" in manifest["outputs"]

    def test_repeat_runs_byte_identical(self, tmp_path, monkeypatch):
        import hashlib

        digests = []
        for run, workers in ((0, "1"), (1, "4"), (2, "1")):
            monkeypatch.setenv("BINRENDER_WORKERS", workers)
            base = tmp_path / f"run{run}"
            base.mkdir()
            cfg = write_config(base)
            for cmd in ("simulate", "render", "filters"):
                assert main([cmd, str(cfg)]) == 0
            blobs = b"".join(
                (base / "out" / name).read_bytes()
                for name in ("observation.bin", "observation.json",
                             "binaural_response.csv", "binaural.wav",
                             "filterbank.wav", "filterbank.json"))
            digests.append(hashlib.sha256(blobs).hexdigest())
        assert digests[0] == digests[1] == digests[2]
