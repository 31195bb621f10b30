"""Metric closed forms and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binrender import metrics


class TestNmse:
    def test_perfect_agreement_floored(self):
        assert metrics.nmse(1.0 + 1.0j, 1.0 + 1.0j) == metrics.NMSE_FLOOR_DB

    def test_zero_estimate_is_zero_db(self):
        assert metrics.nmse(0.0, 2.0 - 1.0j) == pytest.approx(0.0, abs=1e-12)

    def test_ten_percent_error(self):
        val = metrics.nmse(1.1 * (3.0 + 4.0j), 3.0 + 4.0j)
        assert val == pytest.approx(20.0 * math.log10(0.1), abs=1e-9)

    def test_undefined_bins_nan_and_counted(self):
        est = np.array([1.0, 2.0, 3.0])
        true = np.array([1.0, 0.0, 3.0])
        per_bin = metrics.nmse(est, true)
        assert np.isnan(per_bin[1]) and not np.isnan(per_bin[0])
        avg = metrics.average_nmse(est, true)
        assert avg.excluded_bins == 1
        assert np.isfinite(avg.db)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-math.pi, math.pi))
    def test_common_phase_invariance(self, phase):
        est = np.array([1.0 + 0.5j, -2.0 + 1.0j])
        true = np.array([0.9 + 0.6j, -2.1 + 0.8j])
        rot = np.exp(1j * phase)
        a = metrics.average_nmse(est, true)
        b = metrics.average_nmse(est * rot, true * rot)
        assert a.db == pytest.approx(b.db, abs=1e-9)


class TestSpectralDistortion:
    def test_identical_spectra(self):
        y = np.array([1.0 + 1.0j, 2.0, 0.5j])
        assert metrics.spectral_distortion(y, y).db == 0.0

    def test_global_scale_removed_when_normalized(self):
        y = np.array([1.0 + 1.0j, 2.0, 0.5j, -1.2])
        sd = metrics.spectral_distortion(3.7j * y, y, normalize=True)
        assert sd.db == pytest.approx(0.0, abs=1e-9)

    def test_one_bin_off_closed_form(self):
        true = np.ones(4, dtype=complex)
        est = true.copy()
        est[0] *= 10.0 ** (6.02 / 20.0)
        sd = metrics.spectral_distortion(est, true)
        assert sd.db == pytest.approx(math.sqrt(6.02**2 / 4.0), abs=1e-9)

    def test_zero_bins_excluded_with_count(self):
        true = np.array([1.0, 0.0, 1.0, 1.0])
        est = np.ones(4)
        sd = metrics.spectral_distortion(est, true)
        assert sd.excluded_bins == 1
        assert sd.db == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3),
           st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3))
    def test_independent_scaling_invariance(self, ca, cb):
        est = np.array([1.0 + 0.5j, -2.0 + 1.0j, 0.3 - 0.2j])
        true = np.array([0.9 + 0.6j, -2.1 + 0.8j, 0.5 + 0.1j])
        a = metrics.spectral_distortion(est, true, normalize=True)
        b = metrics.spectral_distortion(est * ca, true * cb, normalize=True)
        assert a.db == pytest.approx(b.db, abs=1e-8)


def _noise_pair(rng, fs=48000.0, n=8192, cutoff=1200.0):
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / fs)
    spec[freqs > cutoff] = 0.0
    return np.fft.irfft(spec, n=n)


class TestItdIld:
    def test_identical_channels(self, rng):
        x = _noise_pair(rng)
        pair = metrics.BinauralPair(np.stack([x, x]), 48000.0)
        assert metrics.itd(pair) == 0.0
        assert metrics.ild(pair) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_delay_recovered(self, rng):
        x = _noise_pair(rng)
        delayed = np.roll(x, 10)
        pair = metrics.BinauralPair(np.stack([x, delayed]), 48000.0)
        got = metrics.itd(pair)
        assert got == pytest.approx(10.0 / 48000.0, abs=0.25 / 48000.0)
        assert got == pytest.approx(208.3e-6, abs=6e-6)

    def test_itd_antisymmetric_under_swap(self, rng):
        x = _noise_pair(rng)
        delayed = np.roll(x, 7)
        fwd = metrics.itd(metrics.BinauralPair(np.stack([x, delayed]), 48000.0))
        rev = metrics.itd(metrics.BinauralPair(np.stack([delayed, x]), 48000.0))
        assert fwd == pytest.approx(-rev, abs=0.25 / 48000.0)

    def test_ild_antisymmetric_under_swap(self, rng):
        x = _noise_pair(rng)
        y = 0.4 * _noise_pair(rng)
        a = metrics.ild(metrics.BinauralPair(np.stack([x, y]), 48000.0))
        b = metrics.ild(metrics.BinauralPair(np.stack([y, x]), 48000.0))
        assert a == pytest.approx(-b, abs=1e-12)

    def test_level_ratio_closed_form(self, rng):
        x = _noise_pair(rng)
        pair = metrics.BinauralPair(np.stack([2.0 * x, x]), 48000.0)
        assert metrics.ild(pair) == pytest.approx(20.0 * math.log10(2.0), abs=1e-9)

    def test_silent_channel_flagged(self):
        x = np.zeros((2, 1024))
        x[0, 100] = 1.0
        with pytest.raises(ValueError):
            metrics.itd(metrics.BinauralPair(x, 48000.0))
        with pytest.raises(ValueError):
            metrics.ild(metrics.BinauralPair(x, 48000.0))

    def test_lowpass_applied(self, rng):
        # a pure 6 kHz difference (exact FFT bin: no leakage) must not affect
        # the 1.6 kHz-band metrics
        fs = 48000.0
        t = np.arange(8192) / fs
        base = _noise_pair(rng)
        hf = 0.5 * np.sin(2 * np.pi * (1024 * fs / 8192) * t)
        a = metrics.ild(metrics.BinauralPair(np.stack([base, base + hf]), fs))
        assert a == pytest.approx(0.0, abs=1e-9)


class TestAlign:
    def test_alignment_recovers_shift(self, rng):
        x = _noise_pair(rng)
        shifted = np.roll(x, 25)
        aligned, lag = metrics.align_by_crosscorr(shifted, x)
        assert lag == -25
        assert np.allclose(aligned[100:-100], x[100:-100], atol=1e-9)

    @pytest.mark.parametrize("n", [1, 7, 300, 1001])
    def test_lag_equals_direct_correlation(self, rng, n):
        est, true = rng.standard_normal(n), rng.standard_normal(n)
        _, lag = metrics.align_by_crosscorr(est, true)
        assert lag == np.argmax(np.correlate(true, est, "full")) - (n - 1)


class TestTruncationOrder:
    def test_paper_rule_at_1khz(self):
        k = 2.0 * math.pi * 1000.0 / 346.2
        assert metrics.truncation_order(k) == 12

    def test_cap(self):
        assert metrics.truncation_order(1.0e4) == 35

    def test_small_k(self):
        assert metrics.truncation_order(1.0e-9) == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            metrics.truncation_order(0.0)


class TestReport:
    def test_csv_written(self, tmp_path):
        path = tmp_path / "report.csv"
        metrics.write_metric_report(path, [
            {"position": "0;0;0", "azimuth_deg": 30, "frequency_or_band": "100-1600",
             "metric": "nmse_db", "value": -21.5, "excluded_bins": 0},
        ])
        text = path.read_text().splitlines()
        assert text[0] == "position,azimuth_deg,frequency_or_band,metric,value,excluded_bins"
        assert text[1].startswith("0;0;0,30,100-1600,nmse_db,-21.5")
