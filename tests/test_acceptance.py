"""Acceptance suite: one test per criterion, tolerances pinned, one printed
pass line each. Run with ``pytest -s tests/test_acceptance.py`` to see the
lines; everything here is also part of the plain test run."""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from binrender import arrays, estimation, metrics, rendering, simulate
from binrender import wavefield as wf
from binrender.cli import main as cli_main
from binrender.hrtf import (
    SyntheticHead,
    ear_pressure,
    equiangular_grid,
    fit_sh,
    rigid_sphere_hrtf_spectrum,
    synth_rigid_sphere_hrtf,
)
from binrender.special import EulerAngles, sph_bessel_j, sph_bessel_j_deriv, \
    sph_hankel2, sph_hankel2_deriv, sph_harmonic
from binrender.utils import cart2sph

C = 346.2


def k_of(f):
    return 2.0 * math.pi * f / C


def _report(num, text):
    print(f"ACCEPTANCE C{num:02d} PASS: {text}")


@pytest.fixture(scope="module")
def composite():
    return arrays.build_composite_array()


def test_c01_wronskian():
    start = time.perf_counter()
    worst = 0.0
    for n in range(21):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
            w = sph_bessel_j(n, x) * sph_hankel2_deriv(n, x) \
                - sph_bessel_j_deriv(n, x) * sph_hankel2(n, x)
            worst = max(worst, abs(w - (-1j / x**2)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    _report(1, f"Wronskian residual {worst:.2e} (< 1e-10) in {elapsed:.3f} s")


def test_c02_plane_wave_expansion():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    k = 30.0
    worst = 0.0
    for _ in range(50):
        eta = rng.normal(size=3)
        eta /= np.linalg.norm(eta)
        r = rng.normal(size=3)
        r *= rng.uniform(0.0, 5.0 / k) / np.linalg.norm(r)
        alpha = wf.plane_wave_coeffs(eta, k, 20)
        worst = max(worst, abs(wf.evaluate_field(alpha, r) - np.exp(1j * k * eta @ r)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-6
    assert elapsed < 5.0
    _report(2, f"plane-wave reconstruction max err {worst:.2e} (< 1e-6) in {elapsed:.2f} s")


def test_c03_translation():
    src = np.array([1.5, 0.3, -0.2])
    worst_field = 0.0
    for f, d in ((500.0, np.array([0.1, 0.0, 0.0])),
                 (2000.0, np.array([0.11, -0.12, 0.1]))):
        k = k_of(f)
        n_out = 10
        alpha = wf.point_source_coeffs(src, np.zeros(3), k, n_out + 10)  # buffer 10
        moved = wf.translate_coeffs(alpha, d, out_order=n_out)
        pts = d[None, :] + 0.02 * np.array([[0.0, 0.0, 0.0], [0.7, -0.2, 0.4], [-0.3, 0.8, 0.1]])
        est = wf.evaluate_field(moved, pts)
        dd = np.linalg.norm(pts - src[None, :], axis=1)
        ref = np.exp(-1j * k * dd) / (4.0 * np.pi * dd)
        worst_field = max(worst_field, float(np.max(np.abs(est - ref) / np.abs(ref))))
    assert worst_field < 1e-4

    k = k_of(1200.0)
    d = np.array([0.07, -0.1, 0.06])
    ta = wf.translation_matrix(d, k, 9, 9)
    tb = wf.translation_matrix(-d, k, 9, 9)
    adjoint = float(np.max(np.abs(tb.entries - ta.entries.conj().T)))
    assert adjoint < 1e-12

    d1 = np.array([0.05, 0.02, -0.03])
    d2 = np.array([-0.02, 0.04, 0.05])
    errs = []
    for buf in (2, 5, 10):
        a0 = wf.point_source_coeffs(src, np.zeros(3), k, 8 + 2 * buf)
        chained = wf.translate_coeffs(
            wf.translate_coeffs(a0, d1, out_order=8 + buf), d1 + d2, out_order=8)
        direct = wf.translate_coeffs(a0, d1 + d2, out_order=8)
        errs.append(float(np.linalg.norm(chained.coeffs - direct.coeffs)
                          / np.linalg.norm(direct.coeffs)))
    assert errs[0] > errs[1] > errs[2]
    _report(3, f"translation field err {worst_field:.2e} (< 1e-4), adjoint {adjoint:.2e} "
               f"(< 1e-12), group errors {errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e}")


def test_c04_psi_position_independence(composite):
    k = k_of(500.0)
    rng = np.random.default_rng(7)
    psi = estimation.build_psi(composite, k)
    worst = 0.0
    for _ in range(2):
        target = rng.uniform(-0.1, 0.1, 3)
        xi = estimation.build_xi(composite, target, k, 20)
        dev = np.linalg.norm(psi - xi.conj().T @ xi) / np.linalg.norm(psi)
        worst = max(worst, float(dev))
    assert worst < 1e-6
    _report(4, f"Psi vs Xi(r)^H Xi(r) relative deviation {worst:.2e} (< 1e-6)")


def test_c05_desk_scale_estimation(composite):
    start = time.perf_counter()
    freqs = simulate.band_freqs(100.0, 1600.0, 100.0)
    src = np.array([1.5, 0.0, 0.0])
    scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=freqs)
    obs = simulate.simulate_observation(scene, composite)
    offsets = [0.0, 0.1, 0.2, 0.3, 0.4]
    avg_db = []
    for off in offsets:
        target = np.array([off, 0.0, 0.0])
        ratios = []
        for fi, f in enumerate(freqs):
            k = k_of(f)
            est = estimation.Estimator(composite, k)
            pressure = est.coeffs(obs[fi], target, 0).coeffs[0]
            d = np.linalg.norm(src - target)
            truth = np.exp(-1j * k * d) / (4.0 * np.pi * d)
            ratios.append(abs(pressure - truth) ** 2 / abs(truth) ** 2)
        avg_db.append(10.0 * math.log10(float(np.mean(ratios))))
    elapsed = time.perf_counter() - start

    assert avg_db[0] <= -20.0
    # Degradation trend: strictly monotone outside the microphone ring and a
    # strongly positive overall slope. The exact center is not the global
    # optimum (accuracy plateaus across the ring interior), so the 0 -> 0.1 m
    # step is covered by the trend test, not a pairwise one.
    assert avg_db[1] < avg_db[2] < avg_db[3] < avg_db[4]
    assert avg_db[4] >= avg_db[0] + 10.0
    slope = np.polyfit(offsets, avg_db, 1)[0]
    assert slope > 0.0
    assert elapsed < 120.0
    _report(5, f"center NMSE {avg_db[0]:.1f} dB (<= -20), offsets {['%.1f' % v for v in avg_db]} "
               f"trend slope +{slope:.0f} dB/m, in {elapsed:.1f} s")


def test_c06_sph_beats_pln():
    head = SyntheticHead()
    measure_radius = 1.5
    src_distance = 2.0
    freqs = simulate.band_freqs(100.0, 12000.0, 100.0)
    grid = equiangular_grid()  # 2232 directions as in the reference layout
    hrtf_set = synth_rigid_sphere_hrtf(head, grid, freqs, measure_radius)
    spectrum = fit_sh(hrtf_set, 35)

    azimuths = np.deg2rad(np.arange(0.0, 360.0, 30.0))
    sd_sph, sd_pln = [], []
    for az in azimuths:
        src = src_distance * np.array([math.cos(az), math.sin(az), 0.0])
        y_true = np.empty(freqs.size, dtype=complex)
        y_sph = np.empty(freqs.size, dtype=complex)
        y_pln = np.empty(freqs.size, dtype=complex)
        for fi, f in enumerate(freqs):
            k = k_of(f)
            order = metrics.truncation_order(k)
            alpha = wf.point_source_coeffs(src, np.zeros(3), k, order)
            h_pair = spectrum.at_index(fi)
            y_true[fi] = ear_pressure(head, src, k)[0]
            y_sph[fi] = rendering.render_coeffs(alpha, h_pair, "sph", measure_radius, order)[0]
            y_pln[fi] = rendering.render_coeffs(alpha, h_pair, "pln", order=order)[0]
        sd_sph.append(metrics.spectral_distortion(y_sph, y_true, normalize=True).db)
        sd_pln.append(metrics.spectral_distortion(y_pln, y_true, normalize=True).db)
    mean_sph = float(np.mean(sd_sph))
    mean_pln = float(np.mean(sd_pln))
    assert mean_sph < mean_pln
    assert mean_pln > 2.0 * mean_sph  # decisively lower, not float noise

    ws = rendering.render_weights("sph", 10, k=1.0, measure_radius=1000.0)
    wp = rendering.render_weights("pln", 10)
    ratios = np.array([ws[n * n + n] / wp[n * n + n] for n in range(11)])
    dev = float(np.max(np.abs(np.abs(ratios) / np.abs(ratios[0]) - 1.0)))
    assert dev < 0.01
    _report(6, f"azimuth-averaged SD: SPH {mean_sph:.4f} dB < PLN {mean_pln:.4f} dB; "
               f"far-field weight-ratio magnitude deviation {dev:.2e} (< 1%)")


def test_c07_rotation_translation_adaptation(composite):
    head = SyntheticHead()
    # factored vs composed
    f = 900.0
    k = k_of(f)
    spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, metrics.truncation_order(k))
    scene = simulate.Scene(sources=(simulate.PointSource(np.array([1.5, -0.3, 0.2])),),
                           freqs=np.array([f]))
    s = simulate.simulate_observation(scene, composite)[0]
    est = estimation.Estimator(composite, k)
    angles = EulerAngles(0.8, 0.5, -0.3)
    target = np.array([0.03, -0.02, 0.04])
    y1 = rendering.render_full(s, est, target, angles, spec.at_index(0), "sph", 1.5)
    y2 = rendering.render_composed(s, est, target, angles, spec.at_index(0), "sph", 1.5)
    scale = max(abs(y2[0]), abs(y2[1]))
    reassoc = max(abs(y1[0] - y2[0]), abs(y1[1] - y2[1])) / scale
    assert reassoc < 1e-12

    # yaw by psi equals source azimuth shift by -psi, below 1.6 kHz
    psi = math.radians(30.0)
    freqs = simulate.band_freqs(200.0, 1600.0, 200.0)
    src_a = 1.5 * np.array([math.cos(psi), math.sin(psi), 0.0])
    src_b = np.array([1.5, 0.0, 0.0])
    obs_a = simulate.simulate_observation(
        simulate.Scene(sources=(simulate.PointSource(src_a),), freqs=freqs), composite)
    obs_b = simulate.simulate_observation(
        simulate.Scene(sources=(simulate.PointSource(src_b),), freqs=freqs), composite)
    worst_db = 0.0
    for fi, f in enumerate(freqs):
        k = k_of(f)
        order = metrics.truncation_order(k)
        spec_f = rigid_sphere_hrtf_spectrum(head, [f], 1.5, order)
        est = estimation.Estimator(composite, k)
        ya = rendering.render_full(obs_a[fi], est, np.zeros(3), EulerAngles(psi, 0.0, 0.0),
                                   spec_f.at_index(0), "sph", 1.5)
        yb = rendering.render_full(obs_b[fi], est, np.zeros(3), EulerAngles(),
                                   spec_f.at_index(0), "sph", 1.5)
        for ear in (0, 1):
            worst_db = max(worst_db, abs(20.0 * math.log10(abs(ya[ear]) / abs(yb[ear]))))
    assert worst_db < 1.0
    _report(7, f"factored/composed deviation {reassoc:.1e} (< 1e-12); "
               f"yaw-vs-azimuth-shift magnitude error {worst_db:.2f} dB (< 1 dB)")


def _binaural_time_signal(geom, head, azimuth, fs, nfft):
    """Full pipeline to a time-domain binaural impulse response at fs."""
    bins = np.arange(nfft // 2 + 1)
    bin_freqs = bins * fs / nfft
    active = (bin_freqs >= 100.0) & (bin_freqs <= 1600.0)
    src = 1.5 * np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=bin_freqs[active])
    obs = simulate.simulate_observation(scene, geom)
    spectrum = np.zeros((nfft // 2 + 1, 2), dtype=complex)
    for i, b in enumerate(np.nonzero(active)[0]):
        f = bin_freqs[b]
        k = k_of(f)
        order = metrics.truncation_order(k)
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, order)
        est = estimation.Estimator(geom, k)
        spectrum[b] = rendering.render_full(obs[i], est, np.zeros(3), EulerAngles(),
                                            spec.at_index(0), "sph", 1.5)
    samples = np.fft.irfft(spectrum.T, n=nfft, axis=1)
    return metrics.BinauralPair(samples, fs)


def test_c08_itd_ild_suite(composite):
    head = SyntheticHead()
    fs, nfft = 48000.0, 4096
    sample = 1.0 / fs

    frontal = _binaural_time_signal(composite, head, 0.0, fs, nfft)
    itd_frontal = metrics.itd(frontal)
    ild_frontal = metrics.ild(frontal)
    assert abs(itd_frontal) <= sample
    assert abs(ild_frontal) <= 0.3

    worst_asym = 0.0
    for az_deg in (30.0, 90.0):
        plus = metrics.itd(_binaural_time_signal(composite, head, math.radians(az_deg), fs, nfft))
        minus = metrics.itd(_binaural_time_signal(composite, head, -math.radians(az_deg), fs, nfft))
        worst_asym = max(worst_asym, abs(plus + minus))
        if az_deg == 90.0:
            assert plus > 0.0  # source on the left: right ear delayed
    assert worst_asym <= 2.0 * sample

    rng = np.random.default_rng(3)
    white = rng.standard_normal(8192)
    spec = np.fft.rfft(white)
    spec[np.fft.rfftfreq(8192, 1 / fs) > 1200.0] = 0.0
    x = np.fft.irfft(spec, n=8192)
    delayed = np.roll(x, 10)
    recovered = metrics.itd(metrics.BinauralPair(np.stack([x, delayed]), fs))
    assert recovered == pytest.approx(10.0 * sample, abs=0.25 * sample)
    _report(8, f"frontal ITD {itd_frontal * fs:+.2f} samp (|.| <= 1), ILD {ild_frontal:+.3f} dB "
               f"(|.| <= 0.3); antisymmetry worst {worst_asym * fs:.2f} samp (<= 2); "
               f"10-sample delay recovered to {abs(recovered * fs - 10):.3f} samp (<= 0.25)")


def test_c09_estimator_sanity():
    geom = arrays.build_rigid_sphere_array()
    k = k_of(2000.0)
    eta = np.array([0.3, 0.5, math.sqrt(1.0 - 0.34)])
    alpha = wf.plane_wave_coeffs(eta, k, 7, center=geom.baffle.center)
    s = estimation.rigid_sphere_matrix(geom, k, 7) @ alpha.coeffs
    est = estimation.rigid_sphere_estimate(s, geom, k, 7, eta=1e-10)
    recovery = float(np.max(np.abs(est.coeffs - alpha.coeffs)))
    assert recovery < 1e-6

    nodes = arrays.tdesign_nodes()
    _, theta, phi = cart2sph(nodes)
    worst = 0.0
    for n in range(1, 8):
        for m in range(-n, n + 1):
            worst = max(worst, abs(np.sum(sph_harmonic(n, m, theta, phi))))
    assert worst < 1e-10
    _report(9, f"plane-wave recovery {recovery:.2e} (< 1e-6); "
               f"7-design residual {worst:.2e} (< 1e-10)")


def test_c10_determinism(tmp_path):
    scene = {"sources": [{"pos": [1.5, 0.0, 0.0]}], "band": [200.0, 1000.0, 200.0]}
    digests = []
    for run in range(3):
        base = tmp_path / f"run{run}"
        base.mkdir()
        (base / "scene.json").write_text(json.dumps(scene))
        assert cli_main(["geometry", "--kind", "composite",
                         "--out", str(base / "geom.json")]) == 0
        config = {
            "version": 1, "scene": "scene.json", "geometry": "geom.json",
            "hrtf": {"synthetic": {"head_radius": 0.0875, "measure_radius": 1.5}},
            "render": {"band": [200.0, 1000.0], "nfft": 1024, "wav_duration": 0.05},
            "output_dir": "out",
        }
        (base / "run.json").write_text(json.dumps(config))
        for cmd in ("simulate", "render", "filters"):
            assert cli_main([cmd, str(base / "run.json")]) == 0
        blob = b"".join(
            (base / "out" / name).read_bytes()
            for name in ("observation.bin", "observation.json", "binaural_response.csv",
                         "binaural.wav", "filterbank.wav", "filterbank.json"))
        digests.append(hashlib.sha256(blob).hexdigest())
    assert digests[0] == digests[1] == digests[2]
    _report(10, f"3 pipeline runs byte-identical ({digests[0][:12]}...)")
