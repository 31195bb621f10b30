"""The traced benchmark rebinds binrender names by attribute lookup.

``perfbench/tracing.py`` wraps module functions and Estimator methods in
place; renaming or removing one of them breaks ``perfbench/run.py --trace 1``.
This test instruments the package the way the benchmark does, runs one
head-tracking update through the traced chain, and restores the originals.
"""

import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.special

from binrender import arrays, bundleio, cli, estimation, hrtf, rendering, simulate, wavefield
from binrender.special import EulerAngles

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def traced():
    """Runs ``call()`` with binrender instrumented as the benchmark does it, and
    returns its result, the spans and the per-layer metrics of the spans."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {"cli": cli, "bundleio": bundleio, "hrtf": hrtf, "estimation": estimation,
               "wavefield": wavefield, "rendering": rendering, "simulate": simulate,
               "scipy_special": scipy.special}

    def run(call):
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer, modules)
        try:
            result = call()
        finally:
            restore()
        return result, tracer.spans, tracing.layer_metrics(tracer.spans, 0.0)

    return run


@pytest.fixture
def factors(monkeypatch):
    """Counts the Cholesky factors of ``PsiGrid``'s solve pass, one per bin."""
    calls = []
    zpotrf = estimation.zpotrf

    def counted(*args, **kwargs):
        calls.append(1)
        return zpotrf(*args, **kwargs)

    monkeypatch.setattr(estimation, "zpotrf", counted)
    return calls


@pytest.fixture
def plan_builds(monkeypatch):
    """Counts ``wavefield.TranslationPlan.build`` calls: the grid path's translations."""
    calls = []
    build = wavefield.TranslationPlan.build

    def counted(cls, *args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(wavefield.TranslationPlan, "build", classmethod(counted))
    return calls


def test_tracer_instruments_traced_names(traced):
    original = (rendering.render_full, estimation.Estimator.solve, scipy.special.spherical_jn)

    def render():
        geom = arrays.build_small_array()
        f = 500.0
        k = 2.0 * math.pi * f / 346.2
        spec = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), [f], 1.5, 3)
        est = estimation.Estimator(geom, k)
        return rendering.render_full(np.ones(geom.n_mics, dtype=complex), est, np.zeros(3),
                                     EulerAngles(0.3, 0.2, 0.1), spec.at_index(0), "sph", 1.5)

    y, spans, layers = traced(render)
    assert np.all(np.isfinite(y))
    assert (rendering.render_full, estimation.Estimator.solve,
            scipy.special.spherical_jn) == original
    names = {span[1] for span in spans}
    assert {"hrtf.spectrum", "estimation.Estimator", "estimation.build_psi",
            "estimation.xi", "estimation.build_xi", "wavefield.translate_multi",
            "estimation.solve", "estimation.cho_solve", "rendering.render_full",
            "rendering.binaural_rows", "rendering.render_weights",
            "special.wigner_d"} <= names
    assert layers["rendering.rows_calls"] == 1


def test_bank_meters_count_bins_and_rotation_blocks(traced, factors):
    # one filter bank at a turned head: one factor per in-band bin, and the
    # rotation builds each Wigner-D block of the HRTF spectrum once per call
    fs, nfft, band = 48000.0, 256, (400.0, 2000.0)
    freqs = np.arange(1, nfft // 2 + 1) * fs / nfft
    in_band = freqs[(freqs >= band[0]) & (freqs <= band[1])]
    spec = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), in_band, 1.5, 8)
    _, _, layers = traced(lambda: rendering.synth_fir_filters(
        arrays.build_small_array(), np.zeros(3), EulerAngles(0.6, -0.4, 0.9), spec, band, nfft, fs))
    assert len(factors) == in_band.size
    assert 0 < layers["special.wigner_d_calls"] <= spec.order + 1


def test_bank_translations_do_not_grow_with_bins(traced, factors, plan_builds):
    # the angular plans are built once per call, Psi's pairs and Xi(target):
    # doubling the in-band bins doubles the factors and leaves the plan and
    # translate_multi counts alone
    fs, band = 48000.0, (400.0, 2000.0)
    geom = arrays.build_small_array()
    translations = []
    for nfft in (256, 512):
        freqs = np.arange(1, nfft // 2 + 1) * fs / nfft
        in_band = freqs[(freqs >= band[0]) & (freqs <= band[1])]
        spec = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), in_band, 1.5, 8)
        factors.clear()
        plan_builds.clear()
        _, _, layers = traced(lambda: rendering.synth_fir_filters(
            geom, np.zeros(3), EulerAngles(), spec, band, nfft, fs))
        assert len(factors) == in_band.size
        assert len(plan_builds) == 2
        translations.append(layers["wavefield.translate_calls"])
    assert translations[0] == translations[1]


def test_bank_radial_calls_do_not_grow_with_bins(traced, factors):
    # the radial tables (Psi, Xi and the SPH weights) are taken once per call
    # over every in-band wavenumber: doubling the bins leaves the
    # spherical_jn/spherical_yn count alone. instrument() itself fails on any
    # name the benchmark rebinds that no longer exists.
    fs, band = 48000.0, (400.0, 2000.0)
    geom = arrays.build_small_array()
    radial_calls = []
    for nfft in (256, 512):
        freqs = np.arange(1, nfft // 2 + 1) * fs / nfft
        in_band = freqs[(freqs >= band[0]) & (freqs <= band[1])]
        spec = hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), in_band, 1.5, 8)
        factors.clear()
        _, _, layers = traced(lambda: rendering.synth_fir_filters(
            geom, np.zeros(3), EulerAngles(0.3, 0.2, 0.1), spec, band, nfft, fs))
        assert len(factors) == in_band.size
        radial_calls.append(layers["special.radial_calls"])
    assert 0 < radial_calls[0] == radial_calls[1]


def test_estimate_translations_do_not_grow_with_bins(tmp_path, traced, factors, plan_builds):
    # estimate takes its free-field bins from two angular plans, Psi's pairs
    # and Xi(target): doubling the scene's frequencies leaves the plan,
    # translate_multi and radial counts alone
    (tmp_path / "geom.json").write_text(arrays.geometry_to_json(arrays.build_small_array()))
    counts = []
    for n in (8, 16):
        run = tmp_path / f"bins{n}"
        run.mkdir()
        freqs = np.linspace(100.0, 1600.0, n).tolist()
        (run / "scene.json").write_text(json.dumps(
            {"sources": [{"pos": [1.5, 0.0, 0.0]}], "freqs": freqs}))
        (run / "run.json").write_text(json.dumps({
            "version": 1, "scene": "scene.json", "geometry": "../geom.json",
            "listener": {"position": [0.01, 0.0, 0.0]}, "output_dir": "out"}))
        assert cli.main(["simulate", str(run / "run.json")]) == 0
        factors.clear()
        plan_builds.clear()
        rc, _, layers = traced(lambda: cli.main(["estimate", str(run / "run.json")]))
        assert rc == 0
        assert len(factors) == n
        assert len(plan_builds) == 2
        counts.append((layers["wavefield.translate_calls"], layers["special.radial_calls"]))
    assert 0 < counts[0][1] and counts[0] == counts[1]


def test_traced_bank_meters_the_ring_fit(tmp_path, traced):
    # filters from a measured bundle on zenith rings: the traced meter sees
    # the one fit_sh call of the call, which takes the ring path
    grid = hrtf.equiangular_grid(zenith_step_deg=20.0, azimuth_step_deg=10.0)  # 8 rings of 36
    assert hrtf._rings(grid, math.isqrt(grid.shape[0]) - 1) is not None
    bundleio.save_hrtf_bundle(tmp_path / "hrtf", hrtf.synth_rigid_sphere_hrtf(
        hrtf.SyntheticHead(), grid, [400.0, 1200.0, 2000.0], 1.5))
    (tmp_path / "geom.json").write_text(arrays.geometry_to_json(arrays.build_small_array()))
    (tmp_path / "scene.json").write_text(json.dumps({"sources": [], "freqs": [500.0]}))
    (tmp_path / "run.json").write_text(json.dumps({
        "version": 1, "scene": "scene.json", "geometry": "geom.json", "hrtf": "hrtf",
        "render": {"band": [400.0, 2000.0], "nfft": 256}, "output_dir": "out"}))
    rc, _, layers = traced(lambda: cli.main(["filters", str(tmp_path / "run.json")]))
    assert rc == 0
    assert layers["hrtf.fit_sh_calls"] == 1
    assert layers["hrtf.fit_sh_s"] > 0


def test_convolution_fft_length_does_not_grow_with_the_signal(monkeypatch):
    # apply_filter_bank is timed on 1 s of audio through 128 taps; its FFTs
    # are block-sized, so ten times the signal takes no longer FFT
    lengths = []
    rfft = np.fft.rfft

    def recording_rfft(a, n=None, *args, **kwargs):
        lengths.append(n if n is not None else np.shape(a)[kwargs.get("axis", -1)])
        return rfft(a, n, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", recording_rfft)
    rng = np.random.default_rng(0)
    bank = rendering.BinauralFilterBank(
        taps=rng.standard_normal((2, 2, 128)), sample_rate=48000.0, delay_samples=64,
        band=(100.0, 1000.0))
    longest = []
    for n_samples in (48000, 480000):
        lengths.clear()
        rendering.apply_filter_bank(bank, rng.standard_normal((2, n_samples)))
        assert lengths
        longest.append(max(lengths))
    assert longest[0] == longest[1] < 48000
