"""CLI pipeline: validation, determinism, exit codes."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from binrender import arrays, bundleio
from binrender.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

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

    def test_validate_missing_path_is_user_error(self, tmp_path):
        assert main(["geometry", "--validate", str(tmp_path / "nope" / "g.json")]) == 1

    def test_bad_center_is_user_error(self, tmp_path):
        rc = main(["geometry", "--kind", "small", "--center", "zap",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 1

    @pytest.mark.parametrize("kind", ["small", "rigid-sphere"])
    def test_infinite_radius_is_named(self, tmp_path, capsys, kind):
        # the builder refuses the radius itself, before any microphone is placed
        out = tmp_path / "g.json"
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["geometry", "--kind", kind, "--radius", "inf", "--out", str(out)]) == 1
        assert "error: radius must be positive and finite" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag", [
        ("composite", ["--radius", "0.02"]), ("composite", ["--yaw-deg", "30"]),
        ("rigid-sphere", ["--beta", "0.3"]), ("rigid-sphere", ["--yaw-deg", "30"]),
    ])
    def test_flag_the_kind_ignores_is_user_error(self, tmp_path, capsys, kind, flag):
        out = tmp_path / "g.json"
        capsys.readouterr()
        assert main(["geometry", "--kind", kind, *flag, "--out", str(out)]) == 1
        assert f"{flag[0]} not used with --kind {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [
        ["--kind", "composite"], ["--center", "0,0,0"], ["--yaw-deg", "0"],
        ["--radius", "0.02"], ["--beta", "0.5"], ["--out", "x.json"],
    ])
    def test_validate_takes_no_other_flag(self, tmp_path, capsys, flag):
        path = tmp_path / "g.json"
        assert main(["geometry", "--kind", "small", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["geometry", "--validate", str(path), *flag]) == 1
        assert f"{flag[0]} not used with --validate" in capsys.readouterr().err


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

    def test_evaluate_scores_a_turned_head(self, tmp_path):
        # the truth is the turned head's, so a yawed listener scores as an unturned one
        cfg = write_config(tmp_path, listener={"position": [0.0, 0.0, 0.0],
                                               "euler_deg": [30.0, 0.0, 0.0]})
        for command in ("simulate", "evaluate"):
            assert main([command, str(cfg)]) == 0
        rows = [line.split(",") for line in (tmp_path / "out" / "metrics.csv").read_text().splitlines()]
        value = {row[3]: float(row[4]) for row in rows[1:]}
        assert value["nmse_L_avg_db"] <= -30.0 and value["nmse_R_avg_db"] <= -30.0
        assert np.sign(value["itd_true_s"]) == np.sign(value["itd_estimated_s"]) != 0.0

    def test_multitone_wav_equals_the_whole_array_formula(self):
        # built span by span, the signal is bitwise the one built over all samples at once
        from binrender.cli import _WAV_SPAN, _multitone_wav

        rng = np.random.default_rng(5)
        freqs = np.array([200.0, 433.3, 1000.0])
        responses = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        fs, duration, gain = 48000.0, 3.0, 0.3
        t = np.arange(int(round(duration * fs))) / fs
        want = np.zeros((t.size, 2), dtype=np.float32)
        for fi, f in enumerate(freqs):
            phasor = np.exp(1j * 2.0 * math.pi * f * t)
            for ear in (0, 1):
                want[:, ear] += (gain * np.real(responses[fi, ear] * phasor)).astype(np.float32)
        got = _multitone_wav(freqs, responses, fs, duration, gain)
        assert t.size > 2 * _WAV_SPAN
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [[1000.0, 600.0, 200.0], [600.0, 1000.0, 600.0]],
                             ids=["unsorted", "repeated"])
    def test_scene_grid_in_any_order(self, tmp_path, grid):
        # with a synthetic head every frequency renders as in the sorted run,
        # and the band rows name the grid's lowest and highest frequency
        cfg = write_config(tmp_path)
        scene = {key: value for key, value in SCENE.items() if key != "band"}

        def run(freqs):
            (tmp_path / "scene.json").write_text(json.dumps({**scene, "freqs": freqs}))
            for command in ("simulate", "render", "evaluate"):
                assert main([command, str(cfg)]) == 0
            out = tmp_path / "out"
            csv = np.loadtxt(out / "binaural_response.csv", delimiter=",", skiprows=1, ndmin=2)
            metrics = [line.split(",") for line in (out / "metrics.csv").read_text().splitlines()]
            nmse = [row for row in metrics if row[3] in ("nmse_L_db", "nmse_R_db")]
            bands = {row[2] for row in metrics if row[3].endswith("avg_db") or row[3].startswith("sd_")}
            return csv, {(row[2], row[3]): float(row[4]) for row in nmse}, bands

        got, got_nmse, got_bands = run(grid)
        want, want_nmse, want_bands = run(sorted(set(grid)))
        assert got_bands == want_bands == {f"{min(grid):g}-{max(grid):g}"}
        assert got[:, 0].tolist() == grid
        for row in got:
            ref = want[want[:, 0] == row[0]][0]
            assert np.allclose(row[1:], ref[1:], rtol=1e-10, atol=0.0)
        assert got_nmse == want_nmse

    def test_estimate_equals_per_bin_estimators(self, tmp_path, monkeypatch):
        # estimate takes every free-field bin from one GridEstimator; its
        # coefficients equal a direct Estimator per bin to reassociation rounding
        from binrender.arrays import load_geometry
        from binrender.estimation import Estimator
        from binrender.metrics import truncation_order

        cfg = write_config(tmp_path, listener={"position": [0.02, -0.01, 0.03]})
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "band": [100.0, 1600.0, 100.0]}))
        assert main(["simulate", str(cfg)]) == 0
        written = {}
        write_bundle = bundleio.write_bundle

        def capture(base, header, data):  # the bundle stores complex64: compare before that
            written.update(header=header, data=data)
            return write_bundle(base, header, data)

        monkeypatch.setattr(bundleio, "write_bundle", capture)
        assert main(["estimate", str(cfg)]) == 0
        header, flat = written["header"], written["data"]
        freqs, obs = bundleio.load_observation_bundle(tmp_path / "out" / "observation")
        geom = load_geometry(tmp_path / "geom.json")
        target = np.array([0.02, -0.01, 0.03])
        start = 0
        for f, s, order in zip(freqs, obs, header["orders"]):
            k = 2.0 * np.pi * f / SCENE["sound_speed"]
            assert order == truncation_order(k, 0.45, 35)
            want = Estimator(geom, k).coeffs(s, target, order).coeffs
            got = flat[start : start + want.size]
            start += want.size
            assert np.max(np.abs(got - want)) < 1e-11 * np.max(np.abs(want))
        assert start == flat.size

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


class TestInputChecks:
    """Inputs are cross-checked before anything is computed or written."""

    @pytest.mark.parametrize("command", ["render", "filters", "evaluate"])
    @pytest.mark.parametrize("flag", [["--order", "2"], ["--eta", "1"]])
    def test_estimate_only_flags_rejected(self, tmp_path, command, flag):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        assert main([command, str(cfg), *flag]) == 1

    def test_bundle_from_another_geometry_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        shifted = tmp_path / "shifted"
        shifted.mkdir()
        shifted_cfg = write_config(shifted)
        assert main(["geometry", "--kind", "composite", "--center", "0.1,0,0",
                     "--out", str(shifted / "geom.json")]) == 0
        assert main(["simulate", str(shifted_cfg)]) == 0
        bundle = str(shifted / "out" / "observation")
        for command in ("estimate", "render", "evaluate"):
            assert main([command, str(cfg), "--observations", bundle]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("band", [[200.0, 800.0, 200.0], [300.0, 1100.0, 200.0]],
                             ids=["shorter", "shifted"])
    def test_scene_grid_must_match_bundle(self, tmp_path, band):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "band": band}))
        for command in ("estimate", "render", "evaluate"):
            assert main([command, str(cfg)]) == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "manifest_simulate.json", "observation.bin", "observation.json"]

    def test_missing_observations_is_user_error(self, tmp_path):
        cfg = write_config(tmp_path)
        for command in ("estimate", "render", "evaluate"):
            assert main([command, str(cfg), "--observations", str(tmp_path / "nope")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bundle, key, value, message", [
        ("hrtf", "shape", None, "bundle header has no 'shape'"),
        ("hrtf", None, None, "bundle header is not a JSON object"),  # the header wrapped in a list
        ("observation", "freqs", None, "bundle header has no 'freqs'"),
        ("observation", "shape", "abc", "bundle header 'shape': "),
        ("observation", "shape", "null", "bundle header 'shape': "),
        ("observation", "shape", [320], "bundle header 'shape' must be [5, mics]"),
        ("observation", "shape", [4, 64], "bundle header 'shape' must be [5, mics]"),  # a row short
        ("observation", "freqs", "null", "bundle header 'freqs': "),
        ("hrtf", "radius", "null", "bundle header 'radius': "),
        ("hrtf", "sample_rate", "abc", "bundle header 'sample_rate': "),
        ("hrtf", "directions", [[0.1, 0.2], [0.3]], "bundle header 'directions': "),
        ("hrtf", "freqs", {"lo": 200.0}, "bundle header 'freqs': "),
    ], ids=["hrtf_without_shape", "header_is_a_list", "observation_without_freqs",
            "observation_shape_string", "observation_shape_null", "observation_shape_flat", "observation_row_short",
            "observation_freqs_null", "hrtf_radius_null", "hrtf_sample_rate_string",
            "hrtf_directions_ragged", "hrtf_freqs_object"])
    def test_malformed_bundle_header_is_user_error(self, tmp_path, capsys, bundle, key, value, message):
        from binrender import hrtf

        if bundle == "hrtf":
            hs = hrtf.synth_rigid_sphere_hrtf(hrtf.SyntheticHead(), hrtf.fibonacci_grid(144),
                                              [200.0, 400.0, 600.0], 1.5)
            header = bundleio.save_hrtf_bundle(tmp_path / "hrtf", hs).with_suffix(".json")
            cfg = write_config(tmp_path, hrtf="hrtf", render={"band": [200.0, 400.0], "nfft": 1024})
            command = "filters"
        else:
            cfg = write_config(tmp_path)
            assert main(["simulate", str(cfg)]) == 0
            header = tmp_path / "out" / "observation.json"
            command = "estimate"
        doc = json.loads(header.read_text())
        if key is None:
            doc = [doc]
        elif value is None:
            del doc[key]
        else:
            doc[key] = None if value == "null" else value
        header.write_text(json.dumps(doc))
        if key == "shape" and isinstance(value, list):  # the blob cut to the shape
            blob = header.with_suffix(".bin")
            blob.write_bytes(blob.read_bytes()[: 8 * math.prod(value)])
        capsys.readouterr()
        assert main([command, str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["render", "filters", "evaluate"])
    def test_rigid_sphere_array_not_rendered(self, tmp_path, command):
        # the distributed estimator models free-field mics only
        cfg = write_config(tmp_path)
        assert main(["geometry", "--kind", "rigid-sphere",
                     "--out", str(tmp_path / "geom.json")]) == 0
        assert main(["simulate", str(cfg)]) == 0
        assert main([command, str(cfg)]) == 1

    def test_band_outside_hrtf_grid_is_user_error(self, tmp_path):
        from binrender.bundleio import save_hrtf_bundle
        from binrender.hrtf import SyntheticHead, fibonacci_grid, synth_rigid_sphere_hrtf

        hs = synth_rigid_sphere_hrtf(SyntheticHead(), fibonacci_grid(144), [200.0, 400.0], 1.5)
        save_hrtf_bundle(tmp_path / "hrtf", hs)
        cfg = write_config(tmp_path, hrtf="hrtf",
                           render={"band": [100.0, 1600.0], "nfft": 1024})
        assert main(["filters", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def measured_hrtf(self, tmp_path, monkeypatch):
        """A 200/400 Hz HRTF bundle in tmp_path; fitting it fails the test."""
        from binrender import hrtf
        from binrender.bundleio import save_hrtf_bundle

        hs = hrtf.synth_rigid_sphere_hrtf(hrtf.SyntheticHead(), hrtf.fibonacci_grid(144),
                                          [200.0, 400.0], 1.5)
        save_hrtf_bundle(tmp_path / "hrtf", hs)

        def no_fit(*args, **kwargs):
            raise RuntimeError("fit_sh ran before the input checks")

        monkeypatch.setattr(hrtf, "fit_sh", no_fit)
        return "hrtf"

    @pytest.mark.parametrize("command", ["filters", "render", "evaluate"])
    def test_hrtf_coverage_checked_before_fit(self, tmp_path, measured_hrtf, command):
        # scene 200-1000 Hz and band 100-1600 Hz against a 200-400 Hz grid
        cfg = write_config(tmp_path, hrtf=measured_hrtf,
                           render={"band": [100.0, 1600.0], "nfft": 1024})
        assert main(["simulate", str(cfg)]) == 0
        assert main([command, str(cfg)]) == 1
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "manifest_simulate.json", "observation.bin", "observation.json"]

    def test_evaluate_needs_scene_grid_of_measured_bundle(self, tmp_path, measured_hrtf):
        # 300 Hz lies inside the HRTF grid but is not on it: no ground truth
        cfg = write_config(tmp_path, hrtf=measured_hrtf)
        (tmp_path / "scene.json").write_text(json.dumps(
            {"sources": [{"pos": [1.5, 0.0, 0.0]}], "freqs": [200.0, 300.0, 400.0]}))
        assert main(["simulate", str(cfg)]) == 0
        assert main(["evaluate", str(cfg)]) == 1
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.fixture
    def no_compute(self, monkeypatch):
        """Computing the HRTF spectrum, every command's first step, fails the test."""
        from binrender import cli

        def fail(*args, **kwargs):
            raise RuntimeError("computed before the input checks")

        monkeypatch.setattr(cli, "rigid_sphere_hrtf_spectrum", fail)

    @pytest.mark.parametrize("key,value", [
        ("window", "hann"), ("nfft", 100), ("order_cap", -1), ("shoulder_radius", 0.0),
        ("sample_rate", 0.0), ("band", [100.0, 30000.0]), ("band", [10.0, 11.0]),
    ])
    def test_bad_render_value_is_user_error(self, tmp_path, no_compute, key, value):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["render"][key] = value
        cfg.write_text(json.dumps(doc))
        assert main(["filters", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["render", "filters"])
    @pytest.mark.parametrize("rate", [44100.5, 1e10])
    def test_rate_a_wav_header_cannot_hold_is_user_error(self, tmp_path, capsys, no_compute,
                                                          command, rate):
        # a WAV header states its rate as a 32-bit whole number: 44100.5 Hz
        # would be saved as 44100, and 1e10 Hz (0.05 s is within the RIFF size
        # bound) does not fit
        cfg = self.simulated_with(tmp_path, "render", "sample_rate", rate)
        capsys.readouterr()
        assert main([command, str(cfg)]) == 1
        assert (f"render.sample_rate must be a whole number from 1 to 4294967295, got {rate!r}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / f"manifest_{command}.json").exists()

    @pytest.mark.parametrize("flag,config", [
        ("-1", "auto"), ("nan", "auto"), ("inf", "auto"), (None, float("nan")), (None, -1.0),
    ])
    def test_bad_lambda_is_user_error(self, tmp_path, no_compute, flag, config):
        cfg = write_config(tmp_path, estimator={"lambda": config})
        argv = ["filters", str(cfg)] + (["--lam", flag] if flag is not None else [])
        assert main(argv) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--lam", "bogus"], '--lam must be "auto" or a number, got "bogus"'),
        (["--lam", "-1"], '--lam must be "auto" or a finite number >= 0, got -1.0'),
        (["--eta", "nan"], '--eta must be "auto" or a finite number >= 0, got NaN'),
        (["--order", "2.5"], '--order must be "auto" or an integer, got 2.5'),
    ])
    def test_bad_flag_message_names_the_flag(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path)
        capsys.readouterr()
        assert main(["estimate", str(cfg), *argv]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def simulated_with(tmp_path, section, key, value):
        """Config path after a simulate run, then with ``section.key`` set to ``value``."""
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        doc = json.loads(cfg.read_text())
        doc.setdefault(section, {})[key] = value
        cfg.write_text(json.dumps(doc))
        return cfg

    @pytest.mark.parametrize("flag,config", [
        ("-1", "auto"), ("nan", "auto"), ("inf", "auto"), (None, float("nan")), (None, -1.0),
        (None, "x"),
    ])
    def test_bad_eta_is_user_error(self, tmp_path, flag, config):
        cfg = self.simulated_with(tmp_path, "estimator", "eta", config)
        argv = ["estimate", str(cfg)] + (["--eta", flag] if flag is not None else [])
        assert main(argv) == 1
        assert not (tmp_path / "out" / "coefficients.json").exists()

    @pytest.mark.parametrize("flag,config", [
        ("-1", "auto"), ("abc", "auto"), ("2.5", "auto"), (None, -1), (None, 2.5), (None, "x"),
        (None, True),
    ])
    def test_bad_order_is_user_error(self, tmp_path, flag, config):
        cfg = self.simulated_with(tmp_path, "estimator", "order", config)
        argv = ["estimate", str(cfg)] + (["--order", flag] if flag is not None else [])
        assert main(argv) == 1
        assert not (tmp_path / "out" / "coefficients.json").exists()

    def test_order_zero_accepted(self, tmp_path):
        cfg = self.simulated_with(tmp_path, "estimator", "order", 0)
        assert main(["estimate", str(cfg)]) == 0
        doc, flat = bundleio.read_bundle(tmp_path / "out" / "coefficients")
        assert doc["orders"] == [0] * 5 and flat.size == 5

    @pytest.mark.parametrize("key,value", [
        ("wav_duration", -1.0), ("wav_duration", 0.0), ("wav_duration", float("inf")),
        ("wav_duration", float("nan")), ("wav_gain", float("nan")), ("wav_gain", float("inf")),
    ])
    def test_bad_wav_value_is_user_error(self, tmp_path, no_compute, key, value):
        cfg = self.simulated_with(tmp_path, "render", key, value)
        assert main(["render", str(cfg)]) == 1
        assert not (tmp_path / "out" / "binaural.wav").exists()

    @pytest.mark.parametrize("command", ["render", "evaluate"])
    def test_wav_duration_without_a_sample_is_user_error(self, tmp_path, capsys, no_compute, command):
        # 1e-5 s is 0.48 samples at 48 kHz: positive, yet it rounds to no sample
        cfg = self.simulated_with(tmp_path, "render", "wav_duration", 1e-5)
        capsys.readouterr()
        assert main([command, str(cfg)]) == 1
        assert "render.wav_duration must hold a sample at 48000 Hz, got 1e-05" in capsys.readouterr().err
        assert not (tmp_path / "out" / "binaural.wav").exists()

    def test_wav_duration_of_one_sample_renders(self, tmp_path):
        # 1.5e-5 s is 0.72 samples at 48 kHz, which rounds to one
        cfg = self.simulated_with(tmp_path, "render", "wav_duration", 1.5e-5)
        assert main(["render", str(cfg)]) == 0
        assert wavfile.read(tmp_path / "out" / "binaural.wav")[1].shape == (1, 2)

    @staticmethod
    def riff_max_samples(tmp_path):
        """Most samples a plain RIFF file holds in a 2-channel float32 WAV:
        its size field (file size - 8) is 32 bits, and scipy's header is
        what a one-sample file holds besides the sample."""
        wavfile.write(tmp_path / "one.wav", 48000, np.zeros((1, 2), dtype=np.float32))
        header = (tmp_path / "one.wav").stat().st_size - 8 - 8
        return (2**32 - 1 - header) // 8

    # the shortest duration whose WAV rounds to one sample past the RIFF limit at 48 kHz
    FIRST_PAST_RIFF = 11184.810531250001

    @pytest.mark.parametrize("duration", [1e300, FIRST_PAST_RIFF])
    @pytest.mark.parametrize("command", ["render", "evaluate"])
    def test_wav_duration_past_the_riff_limit_is_user_error(self, tmp_path, capsys, no_compute,
                                                              command, duration):
        limit = self.riff_max_samples(tmp_path)
        assert round(self.FIRST_PAST_RIFF * 48000) == limit + 1
        cfg = self.simulated_with(tmp_path, "render", "wav_duration", duration)
        capsys.readouterr()
        assert main([command, str(cfg)]) == 1
        assert ("render.wav_duration must fit a 4 GiB RIFF WAV, at most 11184.8 s at 48000 Hz, "
                f"got {json.dumps(duration)}") in capsys.readouterr().err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "manifest_simulate.json", "observation.bin", "observation.json"]

    def test_wav_duration_at_the_riff_limit_accepted(self, tmp_path):
        # the config check only: rendering this WAV would take gigabytes
        from binrender.cli import _load_config

        last = float(np.nextafter(self.FIRST_PAST_RIFF, 0.0))
        assert round(last * 48000) == self.riff_max_samples(tmp_path)
        cfg = self.simulated_with(tmp_path, "render", "wav_duration", last)
        assert _load_config(cfg).wav_duration == last

    @pytest.mark.parametrize("band,duration,shortest", [
        ([200.0, 1000.0, 200.0], 1e-3, "0.005"),  # a 200 Hz period is 5 ms
        ([200.0, 1000.0, 200.0], 1.5e-5, "0.005"),
        ([1000.0, 1600.0, 200.0], 1.5e-3, "0.002"),  # the lag window outlasts a 1 kHz period
    ])
    def test_multitone_too_short_for_time_metrics(self, tmp_path, capsys, no_compute,
                                                  band, duration, shortest):
        # the source on the listener's left: unchecked, 1 ms and 15 us read an
        # ITD of zero or of the wrong sign, and an ILD 6.8 dB or more off
        cfg = self.simulated_with(tmp_path, "render", "wav_duration", duration)
        (tmp_path / "scene.json").write_text(json.dumps(
            {**SCENE, "sources": [{"pos": [0.0, 1.5, 0.0]}], "band": band}))
        assert main(["simulate", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["evaluate", str(cfg)]) == 1
        assert (f"render.wav_duration must span a period of the lowest scene frequency and the "
                f"ITD's 2 ms lag window for evaluate: at least {shortest} s, "
                f"got {json.dumps(duration)}") in capsys.readouterr().err
        assert not (tmp_path / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("level,key", [
        ("config", "outptu_dir"), ("estimator", "lamda"), ("render", "ordr_cap"),
        ("listener", "postion"), ("synthetic", "head_radus"), ("scene", "sound_sped"),
        ("source", "spectrm"),
    ])
    def test_unknown_config_key_is_user_error(self, tmp_path, level, key):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        scene = dict(SCENE, sources=[dict(SCENE["sources"][0])])
        target = {"config": doc, "estimator": doc.setdefault("estimator", {}),
                  "render": doc["render"], "listener": doc["listener"],
                  "synthetic": doc["hrtf"]["synthetic"], "scene": scene,
                  "source": scene["sources"][0]}[level]
        target[key] = 1
        cfg.write_text(json.dumps(doc))
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        assert main(["filters", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    def test_readme_config_keys_accepted(self, tmp_path):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        config, scene = (json.loads(b) for b in blocks)
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        assert main(["geometry", "--kind", "composite",
                     "--out", str(tmp_path / "geom.json")]) == 0
        (tmp_path / "run.json").write_text(json.dumps(config))
        assert main(["simulate", str(tmp_path / "run.json")]) == 0

    def test_readme_key_table_is_the_key_table(self):
        # README's key table lists exactly the keys the CLI checks, with their defaults
        from binrender.cli import _KEYS

        text = README.read_text()
        table = text[text.index("| key | default | requirement |"):].split("\n\n")[0]
        listed = dict(re.findall(r"^\| `([\w.]+)` \| (.*?) \|", table, re.M))
        keys = {key if section == "config" else f"{section}.{key}": row
                for section, rows in _KEYS.items() for key, row in rows.items()}
        assert sorted(listed) == sorted(keys)
        for key, row in keys.items():
            if row is not None and row[0] is not None:
                assert listed[key] == f"`{json.dumps(row[0])}`", key

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_worker_variable_is_ignored(self, tmp_path, monkeypatch, value):
        # bins run in one serial loop: BINRENDER_WORKERS is read nowhere, so
        # any value of it leaves the outputs as an unset run writes them
        monkeypatch.delenv("BINRENDER_WORKERS", raising=False)
        blobs = []
        for run, env in (("unset", None), ("set", value)):
            if env is not None:
                monkeypatch.setenv("BINRENDER_WORKERS", env)
            (tmp_path / run).mkdir()
            cfg = write_config(tmp_path / run)
            for cmd in ("simulate", "render", "filters"):
                assert main([cmd, str(cfg)]) == 0
            blobs.append([(tmp_path / run / "out" / name).read_bytes()
                          for name in ("binaural_response.csv", "binaural.wav",
                                       "filterbank.wav", "filterbank.json")])
        assert blobs[0] == blobs[1]


class TestExitCodes:
    """User errors exit 1 through ConfigError; a ValueError from the library exits 2."""

    def test_library_value_error_is_internal(self, tmp_path, monkeypatch):
        from binrender import rendering

        def fault(*args, **kwargs):
            raise ValueError("fault inside the library")

        monkeypatch.setattr(rendering, "render_weights", fault)
        cfg = write_config(tmp_path)
        assert main(["filters", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flag, config, name", [
        ("filters", "0", "auto", "--lam"),
        ("estimate", "1e-30", "auto", "--lam"),
        ("render", None, 0.0, "estimator.lambda"),
    ])
    def test_singular_chosen_lambda_is_user_error(self, tmp_path, capsys, command, flag, config, name):
        # a lambda too small for Psi's rank at 50/100 Hz is the user's to raise
        cfg = write_config(tmp_path, estimator={"lambda": config})
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "band": [50.0, 100.0, 50.0]}))
        assert main(["simulate", str(cfg)]) == 0
        capsys.readouterr()
        assert main([command, str(cfg), *(["--lam", flag] if flag else [])]) == 1
        message = f"error: {name} {float(flag or config):g}: Psi + lambda I is singular"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / f"manifest_{command}.json").exists()

    @pytest.mark.parametrize("field", ["responses", "directions", "freqs"])
    def test_non_finite_hrtf_bundle_is_user_error(self, tmp_path, field):
        from binrender import hrtf
        from binrender.bundleio import save_hrtf_bundle

        hs = hrtf.synth_rigid_sphere_hrtf(hrtf.SyntheticHead(), hrtf.fibonacci_grid(144),
                                          [200.0, 400.0, 600.0], 1.5)
        base = save_hrtf_bundle(tmp_path / "hrtf", hs)
        if field == "responses":
            blob = np.fromfile(base.with_suffix(".bin"), dtype="<c8")
            blob[7] = np.nan
            blob.tofile(base.with_suffix(".bin"))
        else:
            doc = json.loads(base.with_suffix(".json").read_text())
            if field == "directions":
                doc["directions"][3][0] = float("nan")
            else:
                doc["freqs"][2] = float("inf")
            base.with_suffix(".json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path, hrtf="hrtf", render={"band": [200.0, 400.0], "nfft": 1024})
        calls = []
        real_fit = hrtf.fit_sh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hrtf, "fit_sh", lambda *a, **k: calls.append(1) or real_fit(*a, **k))
            assert main(["filters", str(cfg)]) == 1
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_non_finite_csv_is_user_error(self, tmp_path):
        csv = tmp_path / "set.csv"
        csv.write_text("theta,phi,L_mag_100,L_phase_100,R_mag_100,R_phase_100\n"
                       "1.0,0.5,nan,0.0,0.5,0.1\n")
        assert main(["hrtf-import", str(csv), "--radius", "1.5",
                     "--out", str(tmp_path / "bundle")]) == 1
        assert not (tmp_path / "bundle.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--kind", "small", "--radius", "-1"], ["--kind", "small", "--center", "1,2"],
        ["--kind", "composite", "--beta", "2"], ["--kind", "small", "--radius", "0"],
        ["--kind", "rigid-sphere", "--radius", "0"],
    ])
    def test_bad_geometry_args_are_user_errors(self, tmp_path, argv):
        assert main(["geometry", *argv, "--out", str(tmp_path / "g.json")]) == 1
        assert not (tmp_path / "g.json").exists()

    def test_validate_non_geometry_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"format": "something-else"}))
        assert main(["geometry", "--validate", str(path)]) == 1
        # malformed geometry documents: the message names the key or the type
        cfg = write_config(tmp_path)
        geom = json.loads((tmp_path / "geom.json").read_text())
        baffled = json.loads(arrays.geometry_to_json(arrays.build_rigid_sphere_array()))
        mic = geom["mics"][0]
        cases = [
            ({k: v for k, v in geom.items() if k != "mics"}, "geometry document has no 'mics'"),
            ({**geom, "mics": [{k: v for k, v in mic.items() if k != "pos"}]}, "mic 0 has no 'pos'"),
            ([geom], "not a geometry document"),
            ({**baffled, "baffle": {k: v for k, v in baffled["baffle"].items() if k != "radius"}},
             "baffle has no 'radius'"),
            ({**geom, "mics": 7}, "geometry document 'mics': "),
            ({**geom, "mics": [mic, 7]}, "mic 1 is not a JSON object"),
            ({**geom, "mics": [{**mic, "pos": None}]}, "mic 0 'pos': "),
            ({**geom, "mics": [{**mic, "dir_coeffs": [[0.5]]}]}, "mic 0 'dir_coeffs': "),
            ({**baffled, "baffle": {**baffled["baffle"], "radius": None}}, "baffle 'radius': "),
            ({**geom, "mics": []}, "a geometry needs at least one microphone"),
        ]
        for doc, message in cases:
            path.write_text(json.dumps(doc))
            (tmp_path / "geom.json").write_text(json.dumps(doc))
            for argv in (["geometry", "--validate", str(path)], ["simulate", str(cfg)]):
                capsys.readouterr()
                assert main(argv) == 1
                assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("render", "nfft", "abc"), ("listener", "position", [0.0, 0.0]),
        ("listener", "euler_deg", [0.0, float("nan"), 0.0]),
        ("hrtf", "synthetic", {"head_radius": 0.0875, "measure_radius": 0.05}),
        ("scene", "band", [200.0, 1000.0]),
    ])
    def test_config_value_errors_are_user_errors(self, tmp_path, section, key, value):
        cfg = write_config(tmp_path)
        if section == "scene":
            (tmp_path / "scene.json").write_text(json.dumps({**SCENE, key: value}))
        else:
            doc = json.loads(cfg.read_text())
            doc.setdefault(section, {})[key] = value
            cfg.write_text(json.dumps(doc))
        assert main(["filters", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("render", "nfft", None), ("render", "band", 5), ("render", "sample_rate", [1.0]),
        ("seed", None, None), ("hrtf", "synthetic", {"ear_azimuths_deg": 90.0}),
        ("scene", "sources", [{"spectrum": "flat"}]), ("scene", "sources", 5),
        ("scene", "band", [200.0, 1000.0, 0.0]), ("scene", "band", None),
        ("scene", "sound_speed", None),
    ], ids=["nfft-null", "band-number", "rate-list", "seed-null", "ear-azimuths-number",
            "source-without-pos", "sources-number", "band-step-zero", "band-null",
            "sound-speed-null"])
    def test_config_type_errors_are_user_errors(self, tmp_path, section, key, value):
        # values of the wrong JSON type are user errors, reported before any output
        cfg = write_config(tmp_path)
        if section == "scene":
            (tmp_path / "scene.json").write_text(json.dumps({**SCENE, key: value}))
        else:
            doc = json.loads(cfg.read_text())
            if key is None:
                doc[section] = value
            else:
                doc.setdefault(section, {})[key] = value
            cfg.write_text(json.dumps(doc))
        assert main(["simulate", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("render", "nfft", None, "render.nfft must be an integer, got null"),
        ("render", "sample_rate", [1.0], "render.sample_rate must be a number, got [1.0]"),
        ("render", "order_cap", "many", 'render.order_cap must be an integer, got "many"'),
        ("render", "shoulder_radius", None, "render.shoulder_radius must be a number, got null"),
        ("render", "wav_duration", {}, "render.wav_duration must be a number, got {}"),
        ("render", "wav_gain", None, "render.wav_gain must be a number, got null"),
        ("hrtf", "synthetic", {"head_radius": None},
         "hrtf.synthetic.head_radius must be a number, got null"),
        ("hrtf", "synthetic", {"measure_radius": "far"},
         'hrtf.synthetic.measure_radius must be a number, got "far"'),
        ("seed", None, None, "seed must be an integer, got null"),
        ("scene", "sound_speed", None, "scene.sound_speed must be a number, got null"),
        # JSON's Infinity and NaN parse to floats that no wavenumber can take
        ("scene", "sound_speed", float("inf"), "scene.sound_speed must be positive, got Infinity"),
        ("scene", "sound_speed", float("nan"), "scene.sound_speed must be positive, got NaN"),
        # JSON's Infinity (and 1e999) parse to inf, which int() cannot take
        ("render", "nfft", float("inf"), "render.nfft must be an integer, got Infinity"),
        ("seed", None, float("inf"), "seed must be an integer, got Infinity"),
        # a float that is not whole is not truncated to an integer
        ("render", "nfft", 1024.7, "render.nfft must be an integer, got 1024.7"),
        ("render", "order_cap", 2.5, "render.order_cap must be an integer, got 2.5"),
        ("seed", None, 0.5, "seed must be an integer, got 0.5"),
        ("render", "band", 5, "render.band must be a list of two finite numbers, got 5"),
        ("hrtf", "synthetic", {"ear_azimuths_deg": 90.0},
         "hrtf.synthetic.ear_azimuths_deg must be a list of two finite numbers, got 90.0"),
        # JSON booleans and numeric strings are not numbers
        ("render", "order_cap", True, "render.order_cap must be an integer, got true"),
        ("render", "nfft", "4096", 'render.nfft must be an integer, got "4096"'),
        ("seed", None, "7", 'seed must be an integer, got "7"'),
        ("hrtf", "synthetic", {"head_radius": True},
         "hrtf.synthetic.head_radius must be a number, got true"),
        # the config's own message, not the head's
        ("hrtf", "synthetic", {"head_radius": -0.08},
         "hrtf.synthetic needs 0 < head_radius < measure_radius, got -0.08 and 1.5"),
        ("hrtf", "synthetic", {"head_radius": 0.0},
         "hrtf.synthetic needs 0 < head_radius < measure_radius, got 0.0 and 1.5"),
        ("listener", "position", ["1", "2", "3"],
         'listener.position must be a list of three finite numbers, got ["1", "2", "3"]'),
        ("listener", "euler_deg", [True, False, True],
         "listener.euler_deg must be a list of three finite numbers, got [true, false, true]"),
        ("scene", "sources", [{"pos": ["1", "2", "3"]}],
         'scene.sources.pos must be a list of three finite numbers, got ["1", "2", "3"]'),
        ("scene", "sources", [{"pos": [True, False, True]}],
         "scene.sources.pos must be a list of three finite numbers, got [true, false, true]"),
        ("scene", "freqs", ["200", "400"],
         'scene.freqs must give a non-empty list of finite frequencies, got ["200", "400"]'),
        ("scene", "sources", [{"pos": [1.5, 0.0, 0.0], "spectrum": [[True, False]] * 5}],
         'scene.sources.spectrum must be "flat" or [re, im] pairs'),
        ("scene", "sources", 5, "scene.sources must be a list, got 5"),
        ("scene", "sources", [{"pos": [1.5, 0.0, 0.0], "spectrum": 5}],
         'scene.sources.spectrum must be "flat" or a list, got 5'),
        # estimator values and top-level paths go through the same key check
        ("estimator", "lambda", "x", 'estimator.lambda must be "auto" or a number, got "x"'),
        ("estimator", "eta", True, 'estimator.eta must be "auto" or a number, got true'),
        ("estimator", "order", 2.5, 'estimator.order must be "auto" or an integer, got 2.5'),
        ("output_dir", None, 5, "output_dir must be a string, got 5"),
        ("geometry", None, 5, "geometry must be a string, got 5"),
        # true == 1 in Python, but a boolean is not a version
        ("version", None, True, "version must be an integer, got true"),
        ("version", None, 2, "version must be 1, got 2"),
    ], ids=["nfft", "sample-rate", "order-cap", "shoulder-radius", "wav-duration", "wav-gain",
            "head-radius", "measure-radius", "seed", "sound-speed", "sound-speed-infinity",
            "sound-speed-nan", "nfft-infinity",
            "seed-infinity", "nfft-fraction", "order-cap-fraction", "seed-fraction",
            "band-number", "ear-azimuths-number", "order-cap-boolean", "nfft-string",
            "seed-string", "head-radius-boolean", "head-radius-negative", "head-radius-zero",
            "listener-position-strings",
            "listener-euler-booleans", "source-pos-strings", "source-pos-booleans",
            "freqs-strings", "spectrum-booleans", "sources-number", "spectrum-number",
            "lambda-string", "eta-boolean", "order-fraction", "output-dir-number",
            "geometry-number", "version-boolean", "version-two"])
    def test_config_type_errors_name_the_key(self, tmp_path, capsys, section, key, value, message):
        cfg = write_config(tmp_path)
        if section == "scene":
            (tmp_path / "scene.json").write_text(json.dumps({**SCENE, key: value}))
        else:
            doc = json.loads(cfg.read_text())
            if key is None:
                doc[section] = value
            else:
                doc.setdefault(section, {})[key] = value
            cfg.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["simulate", str(cfg)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("grid, key", [
        ({"freqs": []}, "scene.freqs"),
        ({"band": [1000.0, 100.0, 100.0]}, "scene.band"),
        ({"freqs": [100.0, float("nan")]}, "scene.freqs"),
        ({"freqs": [100.0, float("inf")]}, "scene.freqs"),
        ({"freqs": [[100.0, 200.0]]}, "scene.freqs"),
        ({"band": [100.0, float("inf"), 100.0]}, "scene.band"),
    ], ids=["empty", "band-descending", "nan", "infinity", "two-dimensional", "band-infinity"])
    def test_malformed_frequency_grid_is_user_error(self, tmp_path, capsys, grid, key):
        cfg = write_config(tmp_path)
        scene = {name: value for name, value in SCENE.items() if name != "band"}
        (tmp_path / "scene.json").write_text(json.dumps({**scene, **grid}))
        for command in ("simulate", "estimate", "render"):
            capsys.readouterr()
            assert main([command, str(cfg)]) == 1
            assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_whole_float_integers_accepted(self, tmp_path):
        # JSON 1024.0 is the integer 1024; only a fraction is refused
        cfg = write_config(tmp_path, seed=3.0)
        doc = json.loads(cfg.read_text())
        doc["render"].update(nfft=1024.0, order_cap=35.0)
        cfg.write_text(json.dumps(doc))
        assert main(["filters", str(cfg)]) == 0
        assert json.loads((tmp_path / "out" / "filterbank.json").read_text())["nfft"] == 1024
        # the estimator order, from the config or from --order, reads the same way
        assert main(["simulate", str(cfg)]) == 0
        assert main(["estimate", str(cfg), "--order", "3.0"]) == 0
        orders = [bundleio.read_bundle(tmp_path / "out" / "coefficients")[0]["orders"]]
        doc["estimator"] = {"order": 3.0}
        cfg.write_text(json.dumps(doc))
        assert main(["estimate", str(cfg)]) == 0
        orders.append(bundleio.read_bundle(tmp_path / "out" / "coefficients")[0]["orders"])
        assert orders == [[3] * 5] * 2

    @pytest.mark.parametrize("row", ["1.0", "", "1.0,0.5,1.0,0.0,0.5"],
                             ids=["one-cell", "empty-row", "short-row"])
    def test_short_csv_row_is_user_error(self, tmp_path, row):
        csv = tmp_path / "set.csv"
        csv.write_text("theta,phi,L_mag_100,L_phase_100,R_mag_100,R_phase_100\n"
                       f"1.0,0.5,1.0,0.0,0.5,0.1\n{row}\n")
        assert main(["hrtf-import", str(csv), "--radius", "1.5",
                     "--out", str(tmp_path / "bundle")]) == 1
        assert not (tmp_path / "bundle.json").exists()

    def test_empty_csv_is_user_error(self, tmp_path):
        csv = tmp_path / "set.csv"
        csv.write_text("")
        assert main(["hrtf-import", str(csv), "--radius", "1.5",
                     "--out", str(tmp_path / "bundle")]) == 1

    def test_observation_bundle_as_hrtf_is_user_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        doc = json.loads(cfg.read_text())
        doc["hrtf"] = "out/observation"
        cfg.write_text(json.dumps(doc))
        assert main(["filters", str(cfg)]) == 1
        assert not (tmp_path / "out" / "filterbank.wav").exists()

    def test_source_on_a_microphone_is_user_error(self, tmp_path):
        from binrender.arrays import load_geometry

        cfg = write_config(tmp_path)
        mic = load_geometry(tmp_path / "geom.json").positions()[5].tolist()
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "sources": [{"pos": mic}]}))
        assert main(["simulate", str(cfg)]) == 1
        assert not (tmp_path / "out").exists()

    def test_rigid_order_beyond_mic_count_is_user_error(self, tmp_path):
        (tmp_path / "scene.json").write_text(json.dumps(SCENE))
        assert main(["geometry", "--kind", "rigid-sphere",
                     "--out", str(tmp_path / "geom.json")]) == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"version": 1, "scene": "scene.json",
                                   "geometry": "geom.json", "output_dir": "out"}))
        assert main(["simulate", str(cfg)]) == 0
        assert main(["estimate", str(cfg), "--order", "8"]) == 1
        assert not (tmp_path / "out" / "coefficients.json").exists()

    @pytest.mark.parametrize("sources", [[], [{"pos": [0.05, 0.0, 0.0]}]],
                             ids=["no-source", "inside-head"])
    def test_scene_without_ground_truth_is_user_error(self, tmp_path, sources):
        cfg = write_config(tmp_path)
        (tmp_path / "scene.json").write_text(json.dumps({**SCENE, "sources": sources}))
        assert main(["simulate", str(cfg)]) == 0
        assert main(["evaluate", str(cfg)]) == 1
        assert not (tmp_path / "out" / "metrics.csv").exists()


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

    @pytest.mark.parametrize("rate", ["nan", "-5", "0", "inf"])
    def test_bad_sample_rate_is_user_error(self, tmp_path, rate):
        csv = tmp_path / "set.csv"
        csv.write_text("theta,phi,L_mag_100,L_phase_100,R_mag_100,R_phase_100\n"
                       "1.0,0.5,1.0,0.0,0.5,0.1\n")
        assert main(["hrtf-import", str(csv), "--radius", "1.5", "--sample-rate", rate,
                     "--out", str(tmp_path / "bundle")]) == 1
        assert not (tmp_path / "bundle.json").exists()

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

    def test_manifest_records_the_package_version(self, tmp_path, monkeypatch):
        # binrender.__version__, not whatever distribution metadata the import
        # path finds: a stale egg-info in a checkout, or none at all
        import importlib.metadata

        import binrender

        def no_metadata(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", no_metadata)
        cfg = write_config(tmp_path)
        assert main(["simulate", str(cfg)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest_simulate.json").read_text())
        assert manifest["library_version"] == binrender.__version__

    def test_manifest_records_estimator_flags(self, tmp_path):
        # a flag changes the outputs but not the config: the manifest names it
        cfg = write_config(tmp_path)
        manifests = []
        for argv in ([], ["--lam", "0.5"]):
            assert main(["filters", str(cfg), *argv]) == 0
            manifests.append(json.loads((tmp_path / "out" / "manifest_filters.json").read_text()))
        flagless, flagged = manifests
        assert "flags" not in flagless
        assert flagged["flags"] == {"--lam": 0.5}
        assert flagged["config_hash"] == flagless["config_hash"]
        assert flagged["outputs"] != flagless["outputs"]

    def test_manifest_hashes_exactly_the_files_written(self, tmp_path, capsys):
        # twice through: the first pass creates every file, the second rewrites them
        import hashlib
        import os

        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for command in ("simulate", "estimate", "render", "filters", "evaluate") * 2:
            for path in out.glob("*"):
                os.utime(path, ns=(0, 0))
            capsys.readouterr()
            assert main([command, str(cfg)]) == 0
            written = {p.name for p in out.iterdir() if p.stat().st_mtime_ns != 0}
            manifest_name = f"manifest_{command}.json"
            outputs = json.loads((out / manifest_name).read_text())["outputs"]
            assert set(outputs) == written - {manifest_name}
            for name, digest in outputs.items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
            report = capsys.readouterr().out.splitlines()
            assert len(report) == 1, report
            names = re.fullmatch(f"wrote (.*) and {manifest_name} in {re.escape(str(out))}", report[0])
            assert sorted(names[1].split(", ")) == sorted(outputs)

    def test_repeat_runs_byte_identical(self, tmp_path):
        import hashlib

        digests = []
        for run in range(3):
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
