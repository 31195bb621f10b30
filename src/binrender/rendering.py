"""Binaural rendering from estimated coefficients and HRTF spectra.

Two rendering modes share one code path:

* PLN — plane-wave decomposition; per-order weight sqrt(4 pi) j^(-n).
  Treats the HRTFs as plane-wave responses (valid for large measurement
  radius).
* SPH — spherical-wave decomposition; per-order weight
  sqrt(4 pi) j / (k h_n(k R_s)). Compensates the finite measurement
  distance R_s and reduces to PLN (up to an n-independent factor
  exp(-j k R_s) / R_s) as R_s grows.

``render_full`` evaluates the whole chain observation -> binaural response
as one linear form; ``bin_rows`` folds that form for one frequency bin into
rows applied directly to the observations, and ``synth_fir_filters``
samples it on an FFT grid and realizes it as a MIMO FIR filter bank.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal.windows import tukey

from .estimation import Estimator
from .hrtf import HrtfShSpectrum
from .metrics import truncation_order
from .special import EulerAngles, num_coeffs, sph_hankel2
from .special import wigner_d_block  # noqa: F401 -- kept for perfbench/tracing.py to rebind
from .utils import ordered_map
from .wavefield import ShCoeffVec, rotate_blocks, rotate_coeffs

SQRT_4PI = math.sqrt(4.0 * math.pi)


def render_weights(mode, order, k=None, measure_radius=None):
    """Per-coefficient diagonal rendering weights (depend only on order n)."""
    out = np.empty(num_coeffs(order), dtype=complex)
    for n in range(order + 1):
        if mode == "pln":
            w = SQRT_4PI * (1j) ** (-n)
        elif mode == "sph":
            if measure_radius is None or k is None:
                raise ValueError("sph mode needs k and measure_radius")
            if not measure_radius > 0:
                raise ValueError("measure_radius must be positive")
            w = SQRT_4PI * 1j / (k * sph_hankel2(n, k * measure_radius))
        else:
            raise ValueError(f"unknown rendering mode {mode!r}")
        out[n * n : n * n + 2 * n + 1] = w
    return out


def _hrtf_order(h_pair):
    return math.isqrt(np.asarray(h_pair).shape[1]) - 1


def _weighted_hrtf(h_pair, mode, k, measure_radius, order):
    """(2, (order+1)^2) HRTF coefficients times the rendering weights."""
    weights = render_weights(mode, order, k=k, measure_radius=measure_radius)
    return np.asarray(h_pair)[:, : num_coeffs(order)] * weights[None, :]


def render_coeffs(alpha: ShCoeffVec, h_pair, mode, measure_radius=None, order=None):
    """Binaural pair (L, R) at one frequency from expansion coefficients.

    ``h_pair`` is the (2, (N+1)^2) HRTF SH coefficient slice at the same
    frequency; ``mode`` is "pln" or "sph" (which needs ``measure_radius``).
    Orders are truncated to the smallest of ``order`` and the operands'.
    """
    avail = min(alpha.order, _hrtf_order(h_pair))
    order = avail if order is None else min(order, avail)
    weighted = _weighted_hrtf(h_pair, mode, alpha.k, measure_radius, order)
    y = weighted @ alpha.coeffs[: num_coeffs(order)]
    return y[0], y[1]


def binaural_rows(estimator: Estimator, target, angles: EulerAngles, h_pair,
                  mode, measure_radius=None, order=None):
    """Row vectors r with binaural pair y = r @ (Psi + lambda I)^{-1} s.

    Shape (2, n_mics); the whole estimation + rotation + rendering chain
    collapsed onto the observation functionals. ``h_pair`` as in
    ``render_coeffs``.
    """
    h_order = _hrtf_order(h_pair)
    order = h_order if order is None else min(order, h_order)
    xi_rot = rotate_blocks(estimator.xi(target, order), angles)
    return _weighted_hrtf(h_pair, mode, estimator.k, measure_radius, order) @ xi_rot


def bin_rows(geometry, freq, target, angles: EulerAngles, spectrum: HrtfShSpectrum,
             mode="sph", lam="auto", order_cap=35, shoulder_radius=0.45, sound_speed=346.2):
    """Rows r of one frequency bin with binaural pair y = r @ s, shape (2, n_mics).

    Builds the bin's estimator, renders at the truncation order
    ``truncation_order(k, shoulder_radius, order_cap)`` against ``spectrum``
    interpolated at ``freq`` (exact on its grid), and folds
    (Psi + lambda I)^{-1} into the rows.
    """
    k = 2.0 * math.pi * freq / sound_speed
    order = truncation_order(k, shoulder_radius, order_cap)
    est = Estimator(geometry, k, lam)
    rows = binaural_rows(est, target, angles, spectrum.interpolated(freq), mode,
                         measure_radius=spectrum.radius, order=order)
    # Psi + lambda I is Hermitian: r (Psi + lambda I)^{-1} = ((Psi + lambda I)^{-1} r^H)^H
    return est.solve(rows.conj().T).conj().T


def render_full(s, estimator: Estimator, target, angles: EulerAngles, h_pair,
                mode="sph", measure_radius=None, order=None):
    """Binaural pair straight from microphone observations.

    Equal (to reassociation rounding) to the composed path
    ``render_composed``; the factored form shares the factorization and
    Xi(target) across head rotations.
    """
    rows = binaural_rows(estimator, target, angles, h_pair, mode, measure_radius, order)
    y = rows @ estimator.solve(s)
    return y[0], y[1]


def render_composed(s, estimator: Estimator, target, angles: EulerAngles, h_pair,
                    mode="sph", measure_radius=None, order=None):
    """Reference composed path: estimate, rotate, then render."""
    h_order = _hrtf_order(h_pair)
    order = h_order if order is None else min(order, h_order)
    alpha = rotate_coeffs(estimator.coeffs(s, target, order), angles)
    return render_coeffs(alpha, h_pair, mode, measure_radius, order)


# ---------------------------------------------------------------------------
# MIMO FIR filter bank
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinauralFilterBank:
    """Per-microphone, per-ear FIR taps realizing the rendering chain.

    taps has shape (2, n_mics, nfft); applying the bank to mic signals and
    summing over mics yields the binaural pair, delayed by
    ``delay_samples`` = nfft / 2 (the circular shift used to make the
    frequency-sampled responses causal).
    """

    taps: np.ndarray
    sample_rate: float
    delay_samples: int
    band: tuple
    geometry_hash: str = ""

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=float)
        if taps.ndim != 3 or taps.shape[0] != 2:
            raise ValueError("taps must have shape (2, n_mics, n_taps)")
        nfft = taps.shape[2]
        if nfft & (nfft - 1):
            raise ValueError("filter length must be a power of two")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    @property
    def nfft(self):
        return self.taps.shape[2]

    @property
    def n_mics(self):
        return self.taps.shape[1]


def synth_fir_filters(geometry, target, angles: EulerAngles, spectrum: HrtfShSpectrum,
                      band, nfft, sample_rate, mode="sph", lam="auto",
                      window="tukey", order_cap=35, shoulder_radius=0.45,
                      sound_speed=346.2, workers=1):
    """Sample the end-to-end linear form on an FFT grid and window it to taps.

    Per in-band bin ``bin_rows`` gives the (2, n_mics) complex response,
    on ``workers`` threads; above the band edge the band-edge
    response is rolled off linearly in magnitude to zero over one octave;
    DC and Nyquist take the real part of the nearest assembled response.
    The impulse responses are circularly shifted by nfft/2 (the modeled
    delay) and windowed (Tukey r = 0.25 by default).
    """
    f_lo, f_hi = band
    nyquist = sample_rate / 2.0
    if not 0 < f_lo < f_hi <= nyquist:
        raise ValueError(f"band {band} must lie within (0, {nyquist}]")
    if nfft & (nfft - 1):
        raise ValueError("nfft must be a power of two")

    freqs = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    n_mics = geometry.n_mics
    responses = np.zeros((2, n_mics, nfft // 2 + 1), dtype=complex)

    in_band = [b for b in range(1, nfft // 2 + 1) if f_lo <= freqs[b] <= f_hi]
    if not in_band:
        raise ValueError("band contains no FFT bins")

    results = ordered_map(
        lambda b: bin_rows(geometry, freqs[b], target, angles, spectrum, mode, lam,
                           order_cap, shoulder_radius, sound_speed),
        in_band, workers)
    for b, rows in zip(in_band, results):
        responses[:, :, b] = rows

    # linear magnitude roll-off of the band-edge response over one octave
    edge = in_band[-1]
    for b in range(edge + 1, nfft // 2 + 1):
        scale = max(0.0, 1.0 - (freqs[b] - freqs[edge]) / freqs[edge])
        if scale == 0.0:
            break
        responses[:, :, b] = responses[:, :, edge] * scale

    responses[:, :, 0] = responses[:, :, 1].real
    responses[:, :, -1] = responses[:, :, -2].real

    impulse = np.fft.irfft(responses, n=nfft, axis=2)
    impulse = np.roll(impulse, nfft // 2, axis=2)
    if window == "tukey":
        impulse = impulse * tukey(nfft, 0.25)[None, None, :]
    elif window == "boxcar":
        pass
    else:
        raise ValueError(f"unknown window {window!r}")

    return BinauralFilterBank(
        taps=impulse,
        sample_rate=sample_rate,
        delay_samples=nfft // 2,
        band=(float(f_lo), float(f_hi)),
        geometry_hash=geometry.content_hash(),
    )


def apply_filter_bank(bank: BinauralFilterBank, mic_signals):
    """Convolve mic signals (n_mics, T) with the bank; returns (2, T + nfft - 1)."""
    mic_signals = np.asarray(mic_signals, dtype=float)
    if mic_signals.ndim != 2 or mic_signals.shape[0] != bank.n_mics:
        raise ValueError("mic_signals must have shape (n_mics, n_samples)")
    n_out = mic_signals.shape[1] + bank.nfft - 1
    out = np.zeros((2, n_out))
    for ear in (0, 1):
        spec = np.fft.rfft(bank.taps[ear], n=n_out, axis=1) * np.fft.rfft(mic_signals, n=n_out, axis=1)
        out[ear] = np.fft.irfft(np.sum(spec, axis=0), n=n_out)
    return out


def save_filter_bank(bank: BinauralFilterBank, base_path):
    """WAV (float32, channels mic-major: all L then all R) + JSON sidecar."""
    from pathlib import Path

    base = Path(base_path)
    if base.suffix == ".wav":
        base = base.with_suffix("")
    data = np.concatenate([bank.taps[0], bank.taps[1]], axis=0).T.astype(np.float32)
    wavfile.write(base.with_suffix(".wav"), int(bank.sample_rate), data)
    sidecar = {
        "format": "binrender-filterbank",
        "version": 1,
        "delay_samples": bank.delay_samples,
        "nfft": bank.nfft,
        "n_mics": bank.n_mics,
        "band": list(bank.band),
        "sample_rate": bank.sample_rate,
        "channel_order": "mic-major, left ear block then right ear block",
        "geometry_hash": bank.geometry_hash,
    }
    base.with_suffix(".json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))
    return base
