"""Rendering oracles: analytic ear-pressure truth, far-field limits, FIR
frequency-sampling consistency."""

import math

import numpy as np
import pytest
from scipy.signal import fftconvolve

from binrender import arrays, estimation, rendering, simulate
from binrender import wavefield as wf
from binrender.hrtf import (
    SyntheticHead,
    ear_pressure,
    fibonacci_grid,
    fit_sh,
    interpolate_coeffs,
    rigid_sphere_hrtf_spectrum,
    rigid_sphere_pressure,
    synth_rigid_sphere_hrtf,
)
from binrender.metrics import truncation_order
from binrender.special import EulerAngles

C = 346.2


def k_of(f):
    return 2.0 * math.pi * f / C


@pytest.fixture(scope="module")
def head():
    return SyntheticHead()


@pytest.fixture(scope="module")
def composite():
    return arrays.build_composite_array()


class TestRenderSph:
    def test_zero_coefficients(self, head):
        spec = rigid_sphere_hrtf_spectrum(head, [500.0], 1.5, 6)
        alpha = wf.ShCoeffVec(np.zeros(49), np.zeros(3), k_of(500.0), 6)
        assert rendering.render_coeffs(alpha, spec.at_index(0), "sph", 1.5) == (0.0, 0.0)

    def test_point_source_truth(self, head, rng):
        # SPH rendering of an analytic point-source field reproduces the
        # rigid-sphere ear pressure (two independent series)
        f = 1000.0
        k = k_of(f)
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, 30)
        for _ in range(4):
            src = rng.normal(size=3)
            src *= 2.0 / np.linalg.norm(src)
            alpha = wf.point_source_coeffs(src, np.zeros(3), k, 30)
            left, right = rendering.render_coeffs(alpha, spec.at_index(0), "sph", 1.5)
            truth = ear_pressure(head, src, k)
            assert left == pytest.approx(truth[0], rel=1e-10)
            assert right == pytest.approx(truth[1], rel=1e-10)

    def test_source_on_measurement_sphere_recovers_fitted_node(self, head):
        # point source at an HRTF grid node at distance R_s: SPH rendering
        # returns the measured node response up to fit error
        f = 1000.0
        k = k_of(f)
        grid = fibonacci_grid(700)
        hs = synth_rigid_sphere_hrtf(head, grid, [f], 1.5)
        spec = fit_sh(hs, 16)
        node = 77
        theta, phi = grid[node]
        src = 1.5 * np.array([math.sin(theta) * math.cos(phi),
                              math.sin(theta) * math.sin(phi), math.cos(theta)])
        alpha = wf.point_source_coeffs(src, np.zeros(3), k, 16)
        left, right = rendering.render_coeffs(alpha, spec.at_index(0), "sph", 1.5)
        assert abs(left - hs.responses[0, 0, node]) / abs(hs.responses[0, 0, node]) < 0.02
        assert abs(right - hs.responses[1, 0, node]) / abs(hs.responses[1, 0, node]) < 0.02


class TestRenderPln:
    def test_zero_and_linearity(self, head, rng):
        f = 800.0
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, 8)
        z = wf.ShCoeffVec(np.zeros(81), np.zeros(3), k_of(f), 8)
        assert rendering.render_coeffs(z, spec.at_index(0), "pln") == (0.0, 0.0)
        c1 = rng.normal(size=81) + 1j * rng.normal(size=81)
        c2 = rng.normal(size=81) + 1j * rng.normal(size=81)
        a1 = wf.ShCoeffVec(c1, np.zeros(3), k_of(f), 8)
        a2 = wf.ShCoeffVec(c2, np.zeros(3), k_of(f), 8)
        a12 = wf.ShCoeffVec(2.0 * c1 - 1j * c2, np.zeros(3), k_of(f), 8)
        l1, r1 = rendering.render_coeffs(a1, spec.at_index(0), "pln")
        l2, r2 = rendering.render_coeffs(a2, spec.at_index(0), "pln")
        l12, r12 = rendering.render_coeffs(a12, spec.at_index(0), "pln")
        assert l12 == pytest.approx(2.0 * l1 - 1j * l2, rel=1e-12)
        assert r12 == pytest.approx(2.0 * r1 - 1j * r2, rel=1e-12)

    def test_plane_wave_far_field_truth(self, head):
        # with HRTFs measured far away, PLN reproduces the plane-wave ear
        # pressure up to the known n-independent far-field factor
        # exp(-j k R_s) / R_s
        rs = 1.0e4
        for f in (500.0, 1900.0):
            k = k_of(f)
            order = truncation_order(k)
            spec = rigid_sphere_hrtf_spectrum(head, [f], rs, order)
            eta = np.array([0.4, -0.7, math.sqrt(1 - 0.65)])
            alpha = wf.plane_wave_coeffs(eta, k, order)
            left, right = rendering.render_coeffs(alpha, spec.at_index(0), "pln")
            compensation = rs * np.exp(1j * k * rs)
            cos_g = np.array([head.ear_direction(e) @ eta for e in (0, 1)])
            d_big = 5.0e4
            truth = rigid_sphere_pressure(head.radius, cos_g, d_big, k) \
                / (np.exp(-1j * k * d_big) / (4.0 * np.pi * d_big))
            assert abs(left * compensation - truth[0]) / abs(truth[0]) < 0.02
            assert abs(right * compensation - truth[1]) / abs(truth[1]) < 0.02


class TestRenderWeights:
    @staticmethod
    def per_order_weights(mode, order, k=None, measure_radius=None):
        """The per-n formula, one scalar scipy call per order."""
        from binrender.special import sph_hankel2

        out = np.empty((order + 1) ** 2, dtype=complex)
        for n in range(order + 1):
            if mode == "pln":
                w = math.sqrt(4.0 * math.pi) * (1j) ** (-n)
            else:
                w = math.sqrt(4.0 * math.pi) * 1j / (k * sph_hankel2(n, k * measure_radius))
            out[n * n : n * n + 2 * n + 1] = w
        return out

    @pytest.mark.parametrize("mode", ["pln", "sph"])
    def test_equal_to_per_order_formula(self, mode):
        for k in (k_of(100.0), k_of(3000.0), k_of(12000.0)):
            for order in range(36):
                got = rendering.render_weights(mode, order, k=k, measure_radius=1.5)
                assert np.array_equal(
                    got, self.per_order_weights(mode, order, k=k, measure_radius=1.5))

    @pytest.mark.parametrize("mode", ["pln", "sph"])
    def test_rows_over_wavenumbers_equal_single_calls(self, mode):
        # one table for all bins of a call; a bin rendered below the top
        # order reads the leading coefficients of its row
        ks = np.array([k_of(100.0), k_of(3000.0), k_of(12000.0)])
        table = rendering.render_weights(mode, 35, k=ks, measure_radius=1.5)
        assert table.shape == (3, 36 ** 2)
        for b, k in enumerate(ks):
            for order in (0, 7, 35):
                got = table[b, : (order + 1) ** 2]
                want = rendering.render_weights(mode, order, k=k, measure_radius=1.5)
                assert np.array_equal(got, want)

    def test_invalid_arguments(self):
        # errors are not cached: every repeated call raises again
        for _ in range(3):
            with pytest.raises(ValueError):
                rendering.render_weights("sph", 3, k=None, measure_radius=1.5)
            with pytest.raises(ValueError):
                rendering.render_weights("sph", 3, k=2.0, measure_radius=0.0)
            with pytest.raises(ValueError):
                rendering.render_weights("foo", 3)
            with pytest.raises(ValueError):
                rendering.render_weights("foo", 3, k=2.0, measure_radius=1.5)

    @pytest.mark.parametrize("mode", ["pln", "sph"])
    def test_returned_rows_are_fresh(self, mode):
        k = k_of(700.0)
        want = self.per_order_weights(mode, 6, k=k, measure_radius=1.5)
        got = rendering.render_weights(mode, 6, k=k, measure_radius=1.5)
        assert got.flags.writeable
        got[:] = 0.0
        again = rendering.render_weights(mode, 6, k=k, measure_radius=1.5)
        assert again is not got and np.array_equal(again, want)

    def test_weight_cache_is_bounded(self):
        # the docstring's bound: maxsize entries of (order + 1) complex values,
        # 16 x 512 x 36 bytes = 295 KB at order 35
        cache = rendering._degree_weights
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 16 * maxsize * 36 <= 295_000
        try:
            for k in np.linspace(1.0, 200.0, maxsize + 10):
                assert rendering.render_weights("sph", 35, k=k, measure_radius=1.5).size == 36 ** 2
                assert cache("sph", 35, float(k), 1.5).nbytes == 16 * 36
            assert cache.cache_info().currsize == maxsize
        finally:
            cache.cache_clear()


class TestWeightRatio:
    def test_sph_over_pln_magnitude_n_independent_far_field(self):
        # |w_sph / w_pln| constant across n at k R_s = 1000 (within 1%)
        k, rs = 1.0, 1000.0
        wp = rendering.render_weights("pln", 10)
        ws = rendering.render_weights("sph", 10, k=k, measure_radius=rs)
        ratios = np.array([ws[n * n + n] / wp[n * n + n] for n in range(11)])
        mags = np.abs(ratios) / np.abs(ratios[0])
        assert np.max(np.abs(mags - 1.0)) < 0.01

    def test_sph_approaches_pln_spectrum_shape(self, head, composite):
        # SPH at R_s = 1e4 m and PLN give the same normalized magnitude
        # spectrum to 0.1 dB
        from binrender.metrics import spectral_distortion

        freqs = [400.0, 700.0, 1000.0, 1300.0]
        src = np.array([1.5, 0.4, 0.0])
        scene = simulate.Scene(sources=(simulate.PointSource(src),),
                               freqs=np.array(freqs))
        obs = simulate.simulate_observation(scene, composite)
        rs = 1.0e4
        y_sph = np.empty((len(freqs), 2), dtype=complex)
        y_pln = np.empty((len(freqs), 2), dtype=complex)
        for fi, f in enumerate(freqs):
            k = k_of(f)
            order = truncation_order(k)
            spec = rigid_sphere_hrtf_spectrum(head, [f], rs, order)
            est = estimation.Estimator(composite, k)
            y_sph[fi] = rendering.render_full(obs[fi], est, np.zeros(3), EulerAngles(),
                                              spec.at_index(0), "sph", rs)
            y_pln[fi] = rendering.render_full(obs[fi], est, np.zeros(3), EulerAngles(),
                                              spec.at_index(0), "pln")
        for ear in (0, 1):
            sd = spectral_distortion(y_sph[:, ear], y_pln[:, ear], normalize=True)
            assert sd.db < 0.1


class TestRenderFull:
    def test_factored_equals_composed(self, head, composite, rng):
        f = 900.0
        k = k_of(f)
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, truncation_order(k))
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.5, -0.3, 0.2])),),
            freqs=np.array([f]))
        s = simulate.simulate_observation(scene, composite)[0]
        est = estimation.Estimator(composite, k)
        for _ in range(3):
            angles = EulerAngles(*rng.uniform(-2.0, 2.0, 3))
            target = rng.uniform(-0.05, 0.05, 3)
            y1 = rendering.render_full(s, est, target, angles, spec.at_index(0), "sph", 1.5)
            y2 = rendering.render_composed(s, est, target, angles, spec.at_index(0), "sph", 1.5)
            scale = max(abs(y2[0]), abs(y2[1]))
            assert abs(y1[0] - y2[0]) < 1e-12 * scale
            assert abs(y1[1] - y2[1]) < 1e-12 * scale

    def test_grid_rows_equal_render_full(self, head, composite):
        # the folded rows, with the head rotation on the HRTF side, applied to
        # the observations reproduce the factored path up to reassociation rounding
        f = 700.0
        k = k_of(f)
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, truncation_order(k))
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.2, 0.6, -0.3])),),
            freqs=np.array([f]))
        s = simulate.simulate_observation(scene, composite)[0]
        target = np.array([0.02, -0.03, 0.01])
        angles = EulerAngles(0.6, -0.4, 0.9)
        for mode in ("sph", "pln"):
            rows = rendering.grid_rows(composite, np.array([f]), target, angles, spec, mode)
            assert rows.shape == (1, 2, composite.n_mics)
            rows = rows[0]
            want = rendering.render_full(s, estimation.Estimator(composite, k), target, angles,
                                         spec.at_index(0), mode, 1.5, truncation_order(k))
            assert np.max(np.abs(rows @ s - np.array(want))) < 1e-12 * np.max(np.abs(want))

    def test_grid_rows_over_bins_equal_render_full(self, head, composite):
        # one call over bins of different orders: every bin's rows, from the
        # call's tables at the top order, match a standalone estimator's
        freqs = np.array([300.0, 700.0, 1500.0])
        spec = rigid_sphere_hrtf_spectrum(head, freqs, 1.5, truncation_order(k_of(freqs[-1])))
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.2, 0.6, -0.3])),), freqs=freqs)
        obs = simulate.simulate_observation(scene, composite)
        target = np.array([0.02, -0.03, 0.01])
        angles = EulerAngles(0.6, -0.4, 0.9)
        rows = rendering.grid_rows(composite, freqs, target, angles, spec, "sph")
        for b, f in enumerate(freqs):
            k = k_of(f)
            h_pair = interpolate_coeffs(spec.freqs, spec.coeffs, f)
            want = rendering.render_full(obs[b], estimation.Estimator(composite, k), target, angles,
                                         h_pair, "sph", 1.5, truncation_order(k))
            assert np.max(np.abs(rows[b] @ obs[b] - np.array(want))) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("mode", ["sph", "pln"])
    @pytest.mark.parametrize("freqs", [[300.0, 700.0, 1500.0], [1500.0, 300.0, 700.0, 300.0], [700.0]],
                             ids=["mixed_orders", "unsorted_repeated", "single_bin"])
    @pytest.mark.parametrize("angles", [EulerAngles(), EulerAngles(0.6, -0.4, 0.9)],
                             ids=["ahead", "turned"])
    def test_grid_rows_equal_per_bin_rows(self, head, composite, mode, freqs, angles):
        # the degree-blocked rows of all bins against per-bin binaural_rows
        # and the solve of a standalone estimator. The rows themselves are
        # compared times (Psi + lambda I): a reassociation of the sums moves
        # them by rounding times cond(Psi + lambda I), up to ~1e-11 at 300 Hz.
        hrtf_freqs = np.array([300.0, 700.0, 1500.0])
        spec = rigid_sphere_hrtf_spectrum(head, hrtf_freqs, 1.5, truncation_order(k_of(1500.0)))
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.2, 0.6, -0.3])),), freqs=np.array(freqs))
        obs = simulate.simulate_observation(scene, composite)
        target = np.array([0.02, -0.03, 0.01])
        rows = rendering.grid_rows(composite, np.array(freqs), target, angles, spec, mode)
        assert rows.shape == (len(freqs), 2, composite.n_mics)
        for b, f in enumerate(freqs):
            k = k_of(f)
            est = estimation.Estimator(composite, k)
            h_pair = interpolate_coeffs(spec.freqs, spec.coeffs, f)
            want = rendering.binaural_rows(est, target, angles, h_pair, mode, 1.5, truncation_order(k))
            got = rows[b] @ (est.psi + est.lam * np.eye(composite.n_mics))
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
            y = want @ est.solve(obs[b])
            assert np.max(np.abs(rows[b] @ obs[b] - y)) < 1e-12 * np.max(np.abs(y))

    def test_update_builds_each_wigner_block_once(self, rng):
        # one head-tracking update over per-bin estimators at fresh angles:
        # the bins share each order's block, and so do the composed checks
        from binrender.special import wigner_d_block

        geom = arrays.build_small_array()
        ks = [k_of(f) for f in np.arange(100.0, 1700.0, 100.0)]
        orders = [truncation_order(k) for k in ks]
        ests = [estimation.Estimator(geom, k) for k in ks]
        hs = [rng.normal(size=(2, (n + 1) ** 2)) + 1j * rng.normal(size=(2, (n + 1) ** 2))
              for n in orders]
        s = rng.normal(size=geom.n_mics) + 1j * rng.normal(size=geom.n_mics)
        target = np.array([0.01, 0.02, -0.01])
        angles = EulerAngles(*rng.uniform(-2.0, 2.0, 3))
        for render in (rendering.render_full, rendering.render_composed):
            before = wigner_d_block.cache_info().misses
            for est, h, n in zip(ests, hs, orders):
                render(s, est, target, angles, h, "sph", 1.5, n)
            assert wigner_d_block.cache_info().misses - before <= max(orders) + 1

    def test_half_turn_swaps_ears_for_symmetric_head(self, head, composite):
        # frontal source, mirror-symmetric head: yawing the listener 180 deg
        # swaps left/right up to estimation/fit error
        f = 800.0
        k = k_of(f)
        spec = rigid_sphere_hrtf_spectrum(head, [f], 1.5, truncation_order(k))
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.5, 0.0, 0.0])),),
            freqs=np.array([f]))
        s = simulate.simulate_observation(scene, composite)[0]
        est = estimation.Estimator(composite, k)
        y0 = rendering.render_full(s, est, np.zeros(3), EulerAngles(),
                                   spec.at_index(0), "sph", 1.5)
        y180 = rendering.render_full(s, est, np.zeros(3), EulerAngles(math.pi, 0.0, 0.0),
                                     spec.at_index(0), "sph", 1.5)
        assert abs(y180[0] - y0[1]) / abs(y0[1]) < 0.02
        assert abs(y180[1] - y0[0]) / abs(y0[0]) < 0.02


def _hop(nfft):
    """Input samples per block of apply_filter_bank's overlap-add rule."""
    return (1 << (max(4 * nfft, 1024) - 1).bit_length()) - nfft + 1


def _direct_convolution(taps, signals):
    """(2, T + nfft - 1): per ear, the sum over mics of np.convolve."""
    n_mics, nfft = taps.shape[1:]
    out = np.zeros((2, signals.shape[1] + nfft - 1))
    if signals.shape[1]:
        for ear in (0, 1):
            out[ear] = sum(np.convolve(taps[ear, m], signals[m]) for m in range(n_mics))
    return out


@pytest.fixture(scope="module")
def bank_setup():
    head = SyntheticHead()
    geom = arrays.build_small_array(center=(0.0, 0.0, 0.0))
    fs, nfft = 48000.0, 1024
    band = (400.0, 2000.0)
    bin_freqs = np.arange(1, nfft // 2 + 1) * fs / nfft
    in_band = bin_freqs[(bin_freqs >= band[0]) & (bin_freqs <= band[1])]
    spec = rigid_sphere_hrtf_spectrum(head, in_band, 1.5, 14)
    bank = rendering.synth_fir_filters(geom, np.zeros(3), EulerAngles(), spec,
                                       band, nfft, fs)
    return head, geom, fs, nfft, band, spec, bank


class TestFirSynthesis:
    def test_modeled_delay(self, bank_setup):
        *_, bank = bank_setup
        assert bank.delay_samples == bank.nfft // 2

    def test_zero_observation_zero_output(self, bank_setup):
        *_, bank = bank_setup
        out = rendering.apply_filter_bank(bank, np.zeros((8, 256)))
        assert np.max(np.abs(out)) == 0.0

    @pytest.mark.parametrize("nfft, n_samples, dtype", [
        pytest.param(128, 1, float, id="1"), pytest.param(128, 300, float, id="300"),
        pytest.param(128, 48000, float, id="48000"),
        pytest.param(128, 4000, np.float32, id="float32"),
        *(pytest.param(nfft, n, float, id=f"nfft{nfft}-{name}")
          for nfft in (2, 128, 4096)
          for name, n in (("0", 0), ("1", 1), ("hop-1", _hop(nfft) - 1), ("hop", _hop(nfft)),
                          ("hop+1", _hop(nfft) + 1), ("blocks", 3 * _hop(nfft) + 5))),
    ])
    def test_equals_direct_convolution(self, nfft, n_samples, dtype):
        # sum over mics of the full linear convolutions: at output lengths with
        # large prime factors (48127 = 17 * 19 * 149) and none, inside one
        # block, at the block edges and over several blocks; no samples give
        # nfft - 1 zeros, and float32 signals convolve in double precision
        rng = np.random.default_rng(n_samples)
        bank = rendering.BinauralFilterBank(
            taps=rng.standard_normal((2, 3, nfft)), sample_rate=48000.0,
            delay_samples=nfft // 2, band=(100.0, 1000.0))
        signals = rng.standard_normal((3, n_samples)).astype(dtype)
        want = _direct_convolution(bank.taps, signals.astype(float))
        out = rendering.apply_filter_bank(bank, signals)
        assert out.shape == (2, n_samples + nfft - 1)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_64_mics_one_second_equals_fftconvolve(self):
        # the benchmark's shape: 1 s of 64-channel 48 kHz float32 noise through 128 taps
        rng = np.random.default_rng(64)
        bank = rendering.BinauralFilterBank(
            taps=rng.standard_normal((2, 64, 128)), sample_rate=48000.0,
            delay_samples=64, band=(100.0, 1000.0))
        signals = rng.standard_normal((64, 48000)).astype(np.float32)
        want = sum(fftconvolve(bank.taps[:, m, :], signals[m][None, :].astype(float), axes=1)
                   for m in range(64))
        out = rendering.apply_filter_bank(bank, signals)
        assert out.shape == want.shape
        np.testing.assert_allclose(out, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))

    def test_tone_reproduces_render_full_magnitude(self, bank_setup):
        # steady-state 984.375 Hz tone (an exact FFT bin) through the filter
        # bank matches the per-bin rendering magnitude within 0.2 dB
        head, geom, fs, nfft, band, spec, bank = bank_setup
        f_tone = 21 * fs / nfft  # 984.375 Hz, inside the band
        k = k_of(f_tone)
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.2, 0.5, 0.1])),),
            freqs=np.array([f_tone]))
        obs = simulate.simulate_observation(scene, geom)[0]
        est = estimation.Estimator(geom, k)
        h_pair = interpolate_coeffs(spec.freqs, spec.coeffs, f_tone)
        order = truncation_order(k, cap=14)
        want = rendering.render_full(obs, est, np.zeros(3), EulerAngles(),
                                     h_pair, "sph", 1.5, order=order)

        t = np.arange(int(fs * 0.25)) / fs
        signals = np.real(obs[:, None] * np.exp(1j * 2 * np.pi * f_tone * t)[None, :])
        out = rendering.apply_filter_bank(bank, signals)
        steady = out[:, nfft : nfft + 4096]
        for ear in (0, 1):
            amp = np.sqrt(2.0 * np.mean(steady[ear] ** 2))
            err_db = abs(20 * np.log10(amp / abs(want[ear])))
            assert err_db < 0.2

    def test_boxcar_bins_exact(self):
        # without a window the frequency-sampled responses are exact at the
        # design bins (up to the linear-phase shift)
        head = SyntheticHead()
        geom = arrays.build_small_array()
        fs, nfft = 48000.0, 512
        band = (800.0, 3000.0)
        bin_freqs = np.arange(1, nfft // 2 + 1) * fs / nfft
        in_band = bin_freqs[(bin_freqs >= band[0]) & (bin_freqs <= band[1])]
        spec = rigid_sphere_hrtf_spectrum(head, in_band, 1.5, 10)
        bank = rendering.synth_fir_filters(geom, np.zeros(3), EulerAngles(), spec,
                                           band, nfft, fs, window="boxcar")
        resp = np.fft.rfft(bank.taps, axis=2)
        shift = np.exp(-1j * np.pi * np.arange(nfft // 2 + 1))  # nfft/2 delay
        b = int(round(in_band[3] / (fs / nfft)))
        rows = rendering.grid_rows(geom, bin_freqs[b - 1 : b], np.zeros(3), EulerAngles(), spec)[0]
        got = resp[:, :, b] / shift[b]
        assert np.max(np.abs(got - rows)) < 1e-10 * np.max(np.abs(rows))

    def test_nyquist_only_band(self):
        # a band whose one FFT bin is Nyquist renders that bin: the real part of
        # its response (a real filter's Nyquist bin is real), times the
        # (-1)^(nfft/2) of the nfft/2 delay
        geom = arrays.build_small_array()
        fs, nfft = 48000.0, 256
        spec = rigid_sphere_hrtf_spectrum(SyntheticHead(), [fs / 2], 1.5, 35)
        bank = rendering.synth_fir_filters(geom, np.zeros(3), EulerAngles(), spec,
                                           (23950.0, fs / 2), nfft, fs, window="boxcar")
        rows = rendering.grid_rows(geom, [fs / 2], np.zeros(3), EulerAngles(), spec)[0]
        got = np.fft.rfft(bank.taps, axis=2)[:, :, -1]
        assert np.max(np.abs(rows.real)) > 0.0
        assert np.max(np.abs(got - rows.real * (-1) ** (nfft // 2))) < 1e-12 * np.max(np.abs(rows))

    def test_tukey_window_leakage_bounded(self, bank_setup):
        # windowing perturbs interior design bins by less than 1 dB
        head, geom, fs, nfft, band, spec, bank = bank_setup
        boxcar = rendering.synth_fir_filters(geom, np.zeros(3), EulerAngles(), spec,
                                             band, nfft, fs, window="boxcar")
        rb = np.fft.rfft(boxcar.taps, axis=2)
        rt = np.fft.rfft(bank.taps, axis=2)
        bin_freqs = np.arange(nfft // 2 + 1) * fs / nfft
        interior = (bin_freqs >= 1.25 * band[0]) & (bin_freqs <= 0.8 * band[1])
        dev_db = 20 * np.log10(np.abs(rt[:, :, interior]) / np.abs(rb[:, :, interior]))
        assert np.max(np.abs(dev_db)) < 1.0

    def test_band_validation(self, bank_setup):
        head, geom, fs, nfft, band, spec, _ = bank_setup
        with pytest.raises(ValueError):
            rendering.synth_fir_filters(geom, np.zeros(3), EulerAngles(), spec,
                                        (100.0, 30000.0), nfft, fs)

    @pytest.mark.parametrize("rate", [44100.5, 2.0**32, 1e10, 0.0, -48000.0, float("nan")])
    def test_bank_refuses_a_rate_no_wav_header_holds(self, rate):
        # the saved WAV states the rate as a 32-bit whole number; a sidecar
        # beside it must not state another
        with pytest.raises(ValueError, match="whole number"):
            rendering.BinauralFilterBank(taps=np.zeros((2, 1, 4)), sample_rate=rate,
                                         delay_samples=2, band=(100.0, 1000.0))

    def test_save_roundtrip(self, bank_setup, tmp_path):
        *_, bank = bank_setup
        base = rendering.save_filter_bank(bank, tmp_path / "bank")
        from scipy.io import wavfile

        rate, data = wavfile.read(base.with_suffix(".wav"))
        assert rate == 48000
        assert data.shape == (bank.nfft, 2 * bank.n_mics)
        assert np.max(np.abs(data[:, 3] - bank.taps[0, 3].astype(np.float32))) == 0.0
        assert np.max(np.abs(data[:, bank.n_mics + 5] - bank.taps[1, 5].astype(np.float32))) == 0.0
        import json

        sidecar = json.loads(base.with_suffix(".json").read_text())
        assert sidecar["delay_samples"] == bank.nfft // 2
        assert sidecar["geometry_hash"] == bank.geometry_hash
