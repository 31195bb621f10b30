"""Evaluation measures: NMSE, spectral distortion, ITD/ILD, truncation rule.

Zero handling: bins whose reference magnitude-squared falls below 1e-30 are
reported as undefined and excluded from averages with a count (division by
zero must be defined somewhere; the count keeps the exclusion visible).
Averages of NMSE are taken over the linear error ratios, then converted to
dB.
"""

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.fft import next_fast_len

from .utils import own_arrays

EPS_TRUE = 1e-30
NMSE_FLOOR_DB = -300.0
ITD_MAX_LAG_S = 0.002


class MetricValue(NamedTuple):
    db: float
    excluded_bins: int


@dataclass(frozen=True, eq=False)
class BinauralPair:
    """Time-domain stereo signal; samples has shape (2, T), row 0 = left."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples, = own_arrays(self, samples=float)
        if samples.ndim != 2 or samples.shape[0] != 2:
            raise ValueError("samples must have shape (2, n_samples)")
        if not self.sample_rate > 0:
            raise ValueError("sample rate must be positive")


def nmse(est, true):
    """Normalized mean square error per bin, 10 log10(|est-true|^2 / |true|^2).

    Scalar in, scalar out; arrays vectorize elementwise. Perfect agreement is
    floored at -300 dB; bins with |true|^2 < 1e-30 return NaN (undefined).
    """
    est = np.asarray(est, dtype=complex)
    true = np.asarray(true, dtype=complex)
    denom = np.abs(true) ** 2
    num = np.abs(est - true) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 10.0 * np.log10(num / denom)
    db = np.maximum(db, NMSE_FLOOR_DB)
    db = np.where(denom < EPS_TRUE, np.nan, db)
    if db.ndim == 0:
        return float(db)
    return db


def average_nmse(est, true) -> MetricValue:
    """Average NMSE over bins: mean of linear ratios, then dB.

    Undefined bins (reference below the 1e-30 floor) are excluded and
    counted.
    """
    est = np.asarray(est, dtype=complex).ravel()
    true = np.asarray(true, dtype=complex).ravel()
    denom = np.abs(true) ** 2
    valid = denom >= EPS_TRUE
    excluded = int(np.size(valid) - np.count_nonzero(valid))
    if not np.any(valid):
        return MetricValue(float("nan"), excluded)
    ratios = np.abs(est[valid] - true[valid]) ** 2 / denom[valid]
    mean = float(np.mean(ratios))
    db = NMSE_FLOOR_DB if mean == 0.0 else max(10.0 * math.log10(mean), NMSE_FLOOR_DB)
    return MetricValue(db, excluded)


def spectral_distortion(est, true, normalize=False) -> MetricValue:
    """RMS log-magnitude deviation over frequency bins, in dB.

    sqrt(mean_f (20 log10 |est_f| / |true_f|)^2). With ``normalize`` each
    signal is first divided by its own RMS magnitude, which removes any
    global amplitude bias between the two. Bins where either magnitude
    falls below the 1e-30 floor are excluded with a count.
    """
    est = np.asarray(est, dtype=complex).ravel()
    true = np.asarray(true, dtype=complex).ravel()
    if est.shape != true.shape or est.size == 0:
        raise ValueError("est and true must be equal-length, non-empty spectra")
    if normalize:
        est = _rms_normalized(est)
        true = _rms_normalized(true)
    me, mt = np.abs(est), np.abs(true)
    valid = (me**2 >= EPS_TRUE) & (mt**2 >= EPS_TRUE)
    excluded = int(est.size - np.count_nonzero(valid))
    if not np.any(valid):
        return MetricValue(float("nan"), excluded)
    dev = 20.0 * np.log10(me[valid] / mt[valid])
    return MetricValue(float(np.sqrt(np.mean(dev**2))), excluded)


def _rms_normalized(y):
    rms = np.sqrt(np.mean(np.abs(y) ** 2))
    if rms == 0.0:
        return y
    return y / rms


# ---------------------------------------------------------------------------
# ITD / ILD
# ---------------------------------------------------------------------------

def _brickwall_lowpass(x, sample_rate, cutoff_hz, upsample=1):
    """Zero-phase FFT brickwall low-pass, optionally with band-limited
    upsampling by an integer factor (deterministic, reproducible)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    spec = np.where(freqs <= cutoff_hz, spec, 0.0)
    if upsample == 1:
        return np.fft.irfft(spec, n=n)
    n_up = n * upsample
    padded = np.zeros(x.shape[:-1] + (n_up // 2 + 1,), dtype=complex)
    padded[..., : spec.shape[-1]] = spec
    return np.fft.irfft(padded, n=n_up) * upsample


def _check_not_silent(pair: BinauralPair):
    rms = np.sqrt(np.mean(pair.samples**2, axis=1))
    if np.any(rms < 1e-150):
        raise ValueError("silent channel: ITD/ILD undefined")


def itd(pair: BinauralPair):
    """Interaural time difference in seconds.

    Maximizes the normalized cross-correlation

        sum_t  yL(t) yR(t + tau)  /  sqrt( sum_t yL(t)^2 yR(t + tau)^2 )

    over lags |tau| <= 2 ms after a zero-phase brickwall low-pass at 1.6 kHz
    and band-limited 4x upsampling for sub-sample precision. Positive when
    the right channel is a delayed copy of the left (source on the
    listener's left).
    """
    _check_not_silent(pair)
    upsample = 4
    fs = pair.sample_rate * upsample
    yl, yr = _brickwall_lowpass(pair.samples, pair.sample_rate, 1600.0, upsample)
    n = yl.size
    # _xcorr(yr, yl)[k] = sum_t yl[t] yr[t + k - (n-1)]  ->  lag = k - (n-1)
    num = _xcorr(yr, yl)
    den_sq = _xcorr(yr**2, yl**2)
    lags = np.arange(-(n - 1), n)
    max_lag = int(round(ITD_MAX_LAG_S * fs))
    window = np.abs(lags) <= max_lag
    num = num[window]
    den = np.sqrt(np.maximum(den_sq[window], 0.0))
    lags = lags[window]
    ok = den > 1e-300
    if not np.any(ok):
        raise ValueError("cross-correlation support empty: ITD undefined")
    score = np.full(num.shape, -np.inf)
    score[ok] = num[ok] / den[ok]
    return float(lags[np.argmax(score)] / fs)


def _xcorr(a, b):
    """Full cross-correlation of real 1-D arrays: entry k is
    sum_t b[t] a[t + k - (b.size - 1)], for k = 0 ... a.size + b.size - 2.

    The linear convolution of a with b reversed, on a fast FFT length.
    """
    n_full = a.size + b.size - 1
    n_fft = next_fast_len(n_full, real=True)
    return np.fft.irfft(np.fft.rfft(a, n_fft) * np.fft.rfft(b[::-1], n_fft), n_fft)[:n_full]


def ild(pair: BinauralPair):
    """Interaural level difference 10 log10(E_L / E_R) in dB, after the
    ITD's zero-phase brickwall low-pass at 1.6 kHz."""
    _check_not_silent(pair)
    yl, yr = _brickwall_lowpass(pair.samples, pair.sample_rate, 1600.0)
    el = float(np.sum(yl**2))
    er = float(np.sum(yr**2))
    if el == 0.0 or er == 0.0:
        raise ValueError("silent channel after low-pass: ILD undefined")
    return 10.0 * math.log10(el / er)


# ---------------------------------------------------------------------------
# Truncation rule
# ---------------------------------------------------------------------------

# The rule's defaults: the shoulder radius R_w in meters, and the order cap.
SHOULDER_RADIUS = 0.45
ORDER_CAP = 35


def truncation_order(k, shoulder_radius=SHOULDER_RADIUS, cap=ORDER_CAP):
    """Rendering truncation order N = min(ceil(e k R_w / 2), cap)."""
    if not k > 0:
        raise ValueError("wavenumber must be positive")
    return min(math.ceil(math.e * k * shoulder_radius / 2.0), cap)


# ---------------------------------------------------------------------------
# Metric report CSV
# ---------------------------------------------------------------------------

REPORT_FIELDS = ["position", "azimuth_deg", "frequency_or_band", "metric", "value", "excluded_bins"]


def write_metric_report(path, rows):
    """Plot-ready CSV: one row per (condition, metric)."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=REPORT_FIELDS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key, "") for key in REPORT_FIELDS})
