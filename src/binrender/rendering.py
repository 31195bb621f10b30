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
as one linear form; ``grid_rows`` takes that form over a frequency grid as
rows applied to the observations: the head rotation turns the HRTF
(h blockdiag(D_n^H)) once per call rather than every bin's Xi, and
``estimation.GridEstimator`` contracts the weighted HRTF rows of all
frequencies with Xi one degree at a time, so no bin's Xi is formed.
``synth_fir_filters`` samples the rows on an FFT grid and realizes them as a
MIMO FIR filter bank.
"""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .estimation import Estimator, GridEstimator
from .hrtf import SOUND_SPEED, HrtfShSpectrum, interpolate_coeffs
from .metrics import ORDER_CAP, SHOULDER_RADIUS, truncation_order
from .special import SQRT_4PI, EulerAngles, ipow, num_coeffs, orders_degrees, sph_hankel2
from .special import wigner_d_block  # noqa: F401 -- kept for perfbench/tracing.py to rebind
from .utils import own_arrays
from .wavefield import ShCoeffVec, rotate_blocks, rotate_coeffs


@functools.lru_cache(maxsize=512)
def _degree_weights(mode, order, k, measure_radius):
    """Read-only rendering weight per degree n <= order, cached at scalar k: head
    tracking renders a bin at the same (k, order) on every update. At most 512
    entries of order + 1 complex values, 16 x 512 (order + 1) bytes (295 KB at
    order 35). ``__wrapped__`` takes an array ``k``, one row per k."""
    n = np.arange(order + 1)
    if mode == "pln":
        return np.broadcast_to(SQRT_4PI * ipow(-n), np.shape(k) + n.shape)
    if mode != "sph":
        raise ValueError(f"unknown rendering mode {mode!r}")
    if measure_radius is None or k is None:
        raise ValueError("sph mode needs k and measure_radius")
    if not measure_radius > 0:
        raise ValueError("measure_radius must be positive")
    k = np.asarray(k)[..., None]
    w = SQRT_4PI * 1j / (k * sph_hankel2(n, k * measure_radius))
    w.flags.writeable = False
    return w


def render_weights(mode, order, k=None, measure_radius=None):
    """Per-coefficient diagonal rendering weights (depend only on order n).

    Shape ((order+1)^2,) for a scalar ``k``, from the cached per-degree
    weights; for an array of wavenumbers, one row per k from one Hankel
    table, each row bitwise its scalar call's. Always a fresh array.
    """
    if np.ndim(k) == 0:
        w = _degree_weights(mode, order, None if k is None else float(k), measure_radius)
    else:
        w = _degree_weights.__wrapped__(mode, order, k, measure_radius)
    return w[..., orders_degrees(order)[0]]


def _hrtf_order(h_pair):
    return math.isqrt(np.asarray(h_pair).shape[1]) - 1


def _weighted_hrtf(h_pair, weights, order):
    """(2, (order+1)^2) HRTF coefficients times the leading rendering weights."""
    return np.asarray(h_pair)[:, : num_coeffs(order)] * weights[None, : num_coeffs(order)]


def render_coeffs(alpha: ShCoeffVec, h_pair, mode, measure_radius=None, order=None):
    """Binaural pair (L, R) at one frequency from expansion coefficients.

    ``h_pair`` is the (2, (N+1)^2) HRTF SH coefficient slice at the same
    frequency; ``mode`` is "pln" or "sph" (which needs ``measure_radius``).
    Orders are truncated to the smallest of ``order`` and the operands'.
    """
    avail = min(alpha.order, _hrtf_order(h_pair))
    order = avail if order is None else min(order, avail)
    weights = render_weights(mode, order, k=alpha.k, measure_radius=measure_radius)
    weighted = _weighted_hrtf(h_pair, weights, order)
    y = weighted @ alpha.coeffs[: num_coeffs(order)]
    return y[0], y[1]


def _rotate_hrtf(h, angles: EulerAngles):
    """HRTF rows (K, (N+1)^2) times blockdiag(D_n^H): the head rotation, HRTF side."""
    return rotate_blocks(h.conj().T, angles.inverse()).conj().T


def binaural_rows(estimator: Estimator, target, angles: EulerAngles, h_pair,
                  mode, measure_radius=None, order=None):
    """Row vectors r with binaural pair y = r @ (Psi + lambda I)^{-1} s.

    Shape (2, n_mics); the whole estimation + rotation + rendering chain
    collapsed onto the observation functionals. ``h_pair`` as in
    ``render_coeffs``.
    """
    h_order = _hrtf_order(h_pair)
    order = h_order if order is None else min(order, h_order)
    weights = render_weights(mode, order, k=estimator.k, measure_radius=measure_radius)
    weighted = _weighted_hrtf(h_pair, weights, order)
    return _rotate_hrtf(weighted, angles) @ estimator.xi(target, order)


def grid_rows(geometry, freqs, target, angles: EulerAngles, spectrum: HrtfShSpectrum, mode="sph",
              lam="auto", order_cap=ORDER_CAP, shoulder_radius=SHOULDER_RADIUS, sound_speed=SOUND_SPEED):
    """Rows r with binaural pair y = r @ s per frequency, shape (F, 2, n_mics).

    Once per call, ``spectrum`` is turned by ``angles``, and every table that
    depends on k is taken over all of ``freqs`` at the highest order
    rendered: a ``GridEstimator`` (the translation plans of Psi's pairs and
    Xi(target), and their radial tables over every frequency) and the
    rendering weights. Each frequency renders at
    ``truncation_order(k, shoulder_radius, order_cap)`` against the
    interpolated spectrum; the weighted HRTF rows of all frequencies go
    through ``GridEstimator.rows`` together, which folds in Xi degree by
    degree and then (Psi + lambda I)^{-1} per frequency. ``freqs`` need not
    be sorted.
    """
    shape = spectrum.coeffs.shape
    turned = _rotate_hrtf(spectrum.coeffs.reshape(-1, shape[2]), angles).reshape(shape)
    ks = 2.0 * math.pi * np.asarray(freqs, dtype=float) / sound_speed
    orders = [min(truncation_order(k, shoulder_radius, order_cap), spectrum.order) for k in ks]
    top = max(orders, default=0)
    grid = GridEstimator(geometry, ks, lam, target, top)
    weights = render_weights(mode, top, k=ks, measure_radius=spectrum.radius)

    hw = np.zeros((ks.size, 2, num_coeffs(top)), dtype=complex)
    for b, order in enumerate(orders):
        h_pair = interpolate_coeffs(spectrum.freqs, turned, freqs[b])
        hw[b, :, : num_coeffs(order)] = _weighted_hrtf(h_pair, weights[b], order)
    return grid.rows(hw, orders)


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

def is_wav_rate(rate):
    """Whether a WAV header holds ``rate`` as it is: a whole number of Hz in 32 bits."""
    return float(rate).is_integer() and 1 <= rate <= 2**32 - 1


@dataclass(frozen=True, eq=False)
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
        taps, = own_arrays(self, taps=float)
        if not is_wav_rate(self.sample_rate):
            raise ValueError(f"sample rate must be a whole number from 1 to {2**32 - 1} Hz, "
                             f"got {self.sample_rate}")
        if taps.ndim != 3 or taps.shape[0] != 2:
            raise ValueError("taps must have shape (2, n_mics, n_taps)")
        nfft = taps.shape[2]
        if nfft & (nfft - 1):
            raise ValueError("filter length must be a power of two")

    @property
    def nfft(self):
        return self.taps.shape[2]

    @property
    def n_mics(self):
        return self.taps.shape[1]


def fft_grid(band, nfft, sample_rate):
    """The filter bank's FFT grid: the frequencies of bins 0 .. nfft/2 and the
    indices of the bins among 1 .. nfft/2 that lie in ``band`` (none if no bin
    does), for a power-of-two ``nfft`` and a band within (0, Nyquist]."""
    f_lo, f_hi = band
    if not 0 < f_lo < f_hi <= sample_rate / 2.0:
        raise ValueError(f"band {band} must lie within (0, {sample_rate / 2.0}]")
    if nfft & (nfft - 1):
        raise ValueError("nfft must be a power of two")
    freqs = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    return freqs, 1 + np.flatnonzero((freqs[1:] >= f_lo) & (freqs[1:] <= f_hi))


def synth_fir_filters(geometry, target, angles: EulerAngles, spectrum: HrtfShSpectrum,
                      band, nfft, sample_rate, mode="sph", lam="auto",
                      window="tukey", order_cap=ORDER_CAP, shoulder_radius=SHOULDER_RADIUS,
                      sound_speed=SOUND_SPEED):
    """Sample the end-to-end linear form on an FFT grid and window it to taps.

    ``grid_rows`` gives the in-band (2, n_mics) complex responses; above the
    band edge the band-edge response is rolled off linearly in magnitude to
    zero over one octave; DC and Nyquist take the real part of the nearest
    assembled response, Nyquist its own when it lies in the band. The impulse
    responses are circularly shifted by nfft/2 (the modeled delay) and
    windowed (Tukey r = 0.25 by default).

    Each bank-sized array is held once: the (2, n_mics, nfft/2 + 1) complex
    responses are allocated after ``grid_rows`` returns and dropped after
    the inverse FFT, the shift is one ``np.roll`` into the taps' buffer,
    and the window multiplies it in place.
    """
    freqs, in_band = fft_grid(band, nfft, sample_rate)
    if in_band.size == 0:
        raise ValueError("band contains no FFT bins")
    rows = grid_rows(geometry, freqs[in_band], target, angles, spectrum, mode, lam, order_cap,
                     shoulder_radius, sound_speed)
    responses = np.zeros((2, geometry.n_mics, nfft // 2 + 1), dtype=complex)
    responses[:, :, in_band] = rows.transpose(1, 2, 0)
    del rows

    # linear magnitude roll-off of the band-edge response over one octave
    edge = int(in_band[-1])
    for b in range(edge + 1, nfft // 2 + 1):
        scale = max(0.0, 1.0 - (freqs[b] - freqs[edge]) / freqs[edge])
        if scale == 0.0:
            break
        responses[:, :, b] = responses[:, :, edge] * scale

    responses[:, :, 0] = responses[:, :, 1].real
    responses[:, :, -1] = responses[:, :, -1 if edge == nfft // 2 else -2].real

    impulse = np.fft.irfft(responses, n=nfft, axis=2)
    del responses
    taps = np.roll(impulse, nfft // 2, axis=2)
    del impulse
    if window == "tukey":
        taps *= _tukey(nfft, 0.25)
    elif window != "boxcar":
        raise ValueError(f"unknown window {window!r}")

    return BinauralFilterBank(
        taps=taps,
        sample_rate=sample_rate,
        delay_samples=nfft // 2,
        band=(float(band[0]), float(band[1])),
        geometry_hash=geometry.content_hash(),
    )


def _tukey(m, alpha):
    """Symmetric Tukey window of m >= 2 points: cosine tapers over the first and last
    alpha (m - 1) / 2 samples, ones between. The arithmetic is scipy.signal.windows.tukey's,
    so the window is bitwise equal to it."""
    n = np.arange(m, dtype=float)
    width = math.floor(alpha * (m - 1) / 2.0)
    w = np.ones(m)
    head, tail = n[: width + 1], n[m - width - 1 :]
    w[: width + 1] = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * head / alpha / (m - 1))))
    w[m - width - 1 :] = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * tail / alpha / (m - 1))))
    return w


def apply_filter_bank(bank: BinauralFilterBank, mic_signals):
    """Convolve mic signals (n_mics, T) with the bank; returns (2, T + nfft - 1).

    Overlap-add block convolution, one block at a time. The FFT length B is
    the smallest power of two >= max(4 nfft, 1024); each block takes
    hop = B - nfft + 1 >= 3B/4 input samples. The taps take one rfft of length
    B per call. Per block, the hop samples of every mic are copied into one
    reused (n_mics, B) buffer whose last nfft - 1 samples stay zero; each mic
    takes one rfft, the mic sum is taken on the spectra per ear, one irfft per
    ear returns to time, and the nfft - 1 sample tail adds onto the next
    block's hop of the (2, n_blocks + 1, hop) output. Per output sample that
    costs (n_mics + 2) B/hop real FFT points, each O(log B), plus 2 n_mics
    complex multiply-adds, whatever T is. Working memory besides the output
    is the tap spectra and one block of every mic, O(n_mics B), independent
    of T.

    The rule is measured on 64 mics x 48000 samples (2-core Xeon, one
    thread, this loop): B = 4 nfft is fastest, or within 2%, from nfft 512
    up (nfft 4096: 32.5 ms at 16384, against 38.4 ms at 8192 and 47.5 ms at
    32768; nfft 512: 21.5 ms at 2048, 21.1 ms at 4096), while shorter filters
    gain nothing below 1024 (nfft 128: 15.1 ms at 1024, 16.7 ms at 512).

    Signals of up to hop samples, empty ones included, make one block.
    Complex signals raise ValueError: the real taps take real signals only.
    """
    mic_signals = np.asarray(mic_signals)
    if mic_signals.ndim != 2 or mic_signals.shape[0] != bank.n_mics:
        raise ValueError("mic_signals must have shape (n_mics, n_samples)")
    if np.iscomplexobj(mic_signals):
        raise ValueError(f"mic_signals must be real, got {mic_signals.dtype}")
    n_mics, n_samples = mic_signals.shape
    nfft = bank.nfft
    block = 1 << (max(4 * nfft, 1024) - 1).bit_length()
    hop = block - nfft + 1
    n_blocks = max(1, -(-n_samples // hop))
    taps = np.fft.rfft(bank.taps, n=block, axis=2)
    # one block of every mic; the last nfft - 1 samples stay zero
    segment = np.zeros((n_mics, block))
    out = np.zeros((2, n_blocks + 1, hop))
    for b in range(n_blocks):
        # float32 signals convert to double as they are copied in
        chunk = mic_signals[:, b * hop : (b + 1) * hop]
        segment[:, : chunk.shape[1]] = chunk
        segment[:, chunk.shape[1] : hop] = 0.0
        spec = np.einsum("emf,mf->ef", taps, np.fft.rfft(segment, axis=1))
        y = np.fft.irfft(spec, n=block, axis=1)
        out[:, b] += y[:, :hop]
        out[:, b + 1, : nfft - 1] += y[:, hop:]
    return out.reshape(2, -1)[:, : n_samples + nfft - 1]


def save_filter_bank(bank: BinauralFilterBank, base_path):
    """WAV (float32, channels mic-major: all L then all R) + JSON sidecar.

    The taps are rounded to float32 straight into the one (nfft, 2 n_mics)
    array the WAV writer takes as it is, with no double-precision stack or
    transposed copy in between.
    """
    from pathlib import Path

    base = Path(base_path)
    if base.suffix == ".wav":
        base = base.with_suffix("")
    data = np.empty((bank.nfft, 2 * bank.n_mics), dtype=np.float32)
    data[:, : bank.n_mics] = bank.taps[0].T
    data[:, bank.n_mics :] = bank.taps[1].T
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
