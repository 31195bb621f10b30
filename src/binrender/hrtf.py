"""HRTF datasets, order-weighted Tikhonov SH fitting, and a rigid-sphere
surrogate head for desk-scale testing.

The surrogate replaces a measured/BEM pipeline: ear-drum pressures are the
classical scattering solution on an acoustically rigid sphere, which gives
analytic ground truth for every rendering oracle in the package.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import zherk
from scipy.special import sph_legendre_p_all

from .special import num_coeffs, orders_degrees, sh_matrix, sph_hankel2, sph_hankel2_deriv
from .utils import cart2sph, cho_factor, cho_solve, own_arrays, sph2cart

# Run defaults: the sound speed (m/s) of every k = 2 pi f / c, the sample rate (Hz)
# of every WAV, the synthetic head's radius (m) and ear azimuths (degrees, L then R).
SOUND_SPEED = 346.2
SAMPLE_RATE = 48000.0
HEAD_RADIUS = 0.0875
EAR_AZIMUTHS_DEG = (90.0, -90.0)

@dataclass(frozen=True, eq=False)
class HrtfSet:
    """Grid-sampled HRTFs: left/right responses on a sphere of radius R_s.

    responses has shape (2, n_freqs, n_directions) with ear index 0 = left,
    1 = right; directions are (zenith, azimuth) pairs in radians.
    """

    radius: float
    directions: np.ndarray
    freqs: np.ndarray
    responses: np.ndarray
    sample_rate: float

    def __post_init__(self):
        directions, freqs, responses = own_arrays(self, directions=float, freqs=float,
                                                  responses=complex)
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 0 < self.sample_rate < math.inf:
            raise ValueError(f"sample rate must be positive and finite, got {self.sample_rate}")
        if directions.ndim != 2 or directions.shape[1] != 2:
            raise ValueError("directions must be (J, 2) zenith/azimuth pairs")
        if not all(np.all(np.isfinite(a)) for a in (directions, freqs, responses)):
            raise ValueError("HRTF directions, frequencies and responses must be finite")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if responses.shape != (2, freqs.size, directions.shape[0]):
            raise ValueError("responses must have shape (2, n_freqs, n_directions)")

    @property
    def n_directions(self):
        return self.directions.shape[0]


def interpolate_coeffs(freqs, coeffs, freq):
    """(2, Q) slice of ``coeffs`` (2, F, Q) at ``freq``, linear per coefficient
    between the strictly increasing ``freqs``; ValueError off the grid."""
    f = freqs
    if not f[0] <= freq <= f[-1]:
        raise ValueError(f"{freq:g} Hz lies outside the HRTF grid [{f[0]:g}, {f[-1]:g}] Hz")
    if freq <= f[0]:
        return coeffs[:, 0, :]
    if freq >= f[-1]:
        return coeffs[:, -1, :]
    i = int(np.searchsorted(f, freq)) - 1
    w = (freq - f[i]) / (f[i + 1] - f[i])
    return (1.0 - w) * coeffs[:, i, :] + w * coeffs[:, i + 1, :]


@dataclass(frozen=True, eq=False)
class HrtfShSpectrum:
    """Per-frequency SH coefficients of an HrtfSet, shape (2, F, (N+1)^2), on
    strictly increasing frequencies."""

    order: int
    radius: float
    freqs: np.ndarray
    coeffs: np.ndarray
    sample_rate: float

    def __post_init__(self):
        freqs, coeffs = own_arrays(self, freqs=float, coeffs=complex)
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if coeffs.shape != (2, freqs.size, num_coeffs(self.order)):
            raise ValueError("coeffs must have shape (2, n_freqs, (order+1)^2)")

    def at_index(self, freq_index):
        """(2, (N+1)^2) coefficient slice for one frequency bin."""
        return self.coeffs[:, freq_index, :]

    def evaluate(self, theta, phi):
        """Resynthesize responses at directions from the fitted spectrum."""
        y = np.conj(sh_matrix(self.order, theta, phi))
        return np.einsum("efq,jq->efj", self.coeffs, y)


def fit_sh(hrtf_set: HrtfSet, order, gamma="auto") -> HrtfShSpectrum:
    """Least-squares SH spectrum with order-weighted Tikhonov regularization.

    Solves psi = (Y^H Y + gamma Q)^{-1} Y^H h per frequency and ear, where
    Y holds conjugated spherical harmonics at the grid directions and Q is
    diagonal with entries 1 + n(n + 1) for order n. The normal matrix is
    frequency-independent. On a ring grid, where every zenith ring holds
    more than 2N uniformly spaced azimuths, it is block-diagonal in the
    degree m: after one azimuth FFT per ring, each of its 2N + 1 real blocks
    (size N + 1 - |m|) is factorized once and solved against a right-hand
    side formed for that degree alone (``_fit_rings``). On any other grid
    the dense matrix is factorized once.

    gamma = "auto" uses 1e-6 * trace(Y^H Y) / (N+1)^2, which keeps behavior
    invariant under grid-size changes. gamma = 0 requests a plain
    least-squares fit and raises if the normal matrix is singular.
    """
    ncoef = num_coeffs(order)
    if hrtf_set.n_directions < ncoef:
        raise ValueError(
            f"need at least {ncoef} directions to fit order {order}, "
            f"got {hrtf_set.n_directions}"
        )
    rings = _rings(hrtf_set.directions, order)
    if rings is None:
        coeffs = _fit_dense(hrtf_set, order, gamma)
    else:
        coeffs = _fit_rings(hrtf_set.responses, *rings, order, gamma)
    return HrtfShSpectrum(
        order=order,
        radius=hrtf_set.radius,
        freqs=hrtf_set.freqs,
        coeffs=coeffs,
        sample_rate=hrtf_set.sample_rate,
    )


def _auto_gamma(gamma, trace, order):
    return 1e-6 * trace / num_coeffs(order) if gamma == "auto" else gamma


def _singular(order, gamma):
    return ("singular normal matrix in SH fit; the grid does not support "
            f"order {order} at gamma={gamma}")


def _fit_dense(hrtf_set, order, gamma):
    """(2, F, (N+1)^2) fit through the full normal matrix, for any grid."""
    theta = hrtf_set.directions[:, 0]
    phi = hrtf_set.directions[:, 1]
    sh = sh_matrix(order, theta, phi)  # Y = conj(sh)
    # Y^H Y = conj(sh^H sh), upper triangle only: the one cho_factor reads
    normal = np.conj(zherk(1.0, sh, trans=2))
    gamma = _auto_gamma(gamma, np.real(np.trace(normal)), order)
    n_all, _ = orders_degrees(order)
    factor = cho_factor(normal + gamma * np.diag(1.0 + n_all * (n_all + 1.0)), _singular(order, gamma))
    rhs = hrtf_set.responses @ sh  # Y^H h per ear and frequency
    return cho_solve(factor, rhs.reshape(-1, num_coeffs(order)).T).T.reshape(rhs.shape)


# Largest departure of a ring azimuth from its uniform position, in radians:
# a few ulps of 2 pi, the rounding of a degree grid converted to radians.
# Larger departures couple the degree blocks, and the dense fit takes over.
_AZIMUTH_TOL = 1e-14


def _rings(directions, order):
    """(zeniths, rings, offsets) of a ring grid that separates order N, else None.

    Directions group into rings by exact zenith. Each ring must hold
    M > 2N (and M > 1) azimuths phi_0 + 2 pi k / M, k = 0..M-1 in any order: then
    sum_k e^{j (m - m') phi_k} = M [m = m'] for |m|, |m'| <= N. rings[r]
    indexes the r-th ring's directions in k order; offsets[r] is its phi_0.
    """
    zeniths, ring_of, sizes = np.unique(
        directions[:, 0], return_inverse=True, return_counts=True)
    if sizes.min() <= max(2 * order, 1):  # a lone point has no azimuth step
        return None
    rings, offsets = [], []
    members = np.split(np.argsort(ring_of, kind="stable"), np.cumsum(sizes)[:-1])
    for idx, size in zip(members, sizes):
        turn = directions[idx, 1] - directions[idx[0], 1]
        k = np.rint(turn * (size / (2.0 * math.pi)))
        if np.max(np.abs(turn - k * (2.0 * math.pi / size))) > _AZIMUTH_TOL:
            return None
        k = k.astype(int) % size
        position = np.argsort(k)
        if not np.array_equal(k[position], np.arange(size)):
            return None
        rings.append(idx[position])
        offsets.append(directions[idx[0], 1])
    return zeniths, rings, np.array(offsets)


def _fit_rings(responses, zeniths, rings, offsets, order, gamma):
    """(2, F, (N+1)^2) fit of a ring grid, one real system per degree m.

    On ring r (zenith theta_r, M_r points) Y^H h at (n, m) is
    sum_r P_n^m(theta_r) H_r(m), where P is the real normalized Legendre
    factor of Y_n^m and H_r(m) = sum_k h_{r,k} e^{j m phi_{r,k}} is one
    unscaled inverse FFT, turned by e^{j m phi_0}. The block of degree m is
    sum_r M_r P^m(theta_r) P^m(theta_r)^T + gamma Q over n = |m|..N.

    The right-hand side is formed one degree at a time, inside the solve
    loop; the (2N+1, N+1, 2F) array of all degrees at once is never held.
    Memory above the set is then the (2N+1, R, 2F) ring spectra and the
    coefficients: a tracemalloc peak of 8.6 MB for ``fit_sh`` at order 35 on
    the 2232-direction ``equiangular_grid`` at 61 frequencies (R = 31),
    where the stacked right-hand side took 5.0 MB more.
    """
    degrees = np.arange(-order, order + 1)
    h = responses.reshape(-1, responses.shape[2])
    spectra = np.empty((degrees.size, len(rings), h.shape[0]), dtype=complex)
    for r, idx in enumerate(rings):
        ring = np.fft.ifft(h[:, idx], norm="forward")[:, degrees % idx.size]
        spectra[:, r, :] = (ring * np.exp(1j * degrees * offsets[r])).T
    # (2N+1, N+1, R) over m = -N..N; zero where n < |m|
    legendre = sph_legendre_p_all(order, order, zeniths)[0][:, degrees, :].transpose(1, 0, 2)
    sizes = np.array([idx.size for idx in rings], dtype=float)
    normal = (legendre * sizes) @ legendre.transpose(0, 2, 1)
    gamma = _auto_gamma(gamma, np.einsum("mnn->", normal), order)
    if gamma == 0 and zeniths.size <= order:
        # the m = 0 block has size N + 1 and rank <= R; Cholesky may not notice
        raise np.linalg.LinAlgError(_singular(order, gamma))
    n = np.arange(order + 1)
    q_diag = 1.0 + n * (n + 1.0)
    coeffs = np.empty((h.shape[0], num_coeffs(order)), dtype=complex)
    for m in degrees:
        lo = abs(m)
        block = normal[m + order, lo:, lo:] + gamma * np.diag(q_diag[lo:])
        factor = cho_factor(block, _singular(order, gamma))
        # all N + 1 rows, then the slice: bitwise one stacked (2N+1, N+1, 2F)
        # product, which a product of the sliced rows is not
        rhs = (legendre[m + order] @ spectra[m + order])[lo:]
        # real block, complex right-hand side: solve on the interleaved real view
        x = cho_solve(factor, rhs.view(float))
        coeffs[:, n[lo:] * (n[lo:] + 1) + m] = np.ascontiguousarray(x).view(complex).T
    return coeffs.reshape(responses.shape[:2] + (num_coeffs(order),))


# ---------------------------------------------------------------------------
# Rigid-sphere surrogate head
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticHead:
    """Rigid-sphere head model with ear points on the equator of its surface."""

    radius: float = HEAD_RADIUS
    ear_azimuths: tuple = tuple(map(math.radians, EAR_AZIMUTHS_DEG))  # (left, right)

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError("head radius must be positive and finite")
        if len(self.ear_azimuths) != 2:
            raise ValueError("ear_azimuths must be (left, right)")

    def ear_direction(self, ear):
        return sph2cart(1.0, math.pi / 2.0, self.ear_azimuths[ear])


def rigid_sphere_pressure(radius, cos_gamma, source_distance, k, tol=1e-12, cap_order=400):
    """Total pressure on a rigid sphere's surface due to a unit point source.

    ``cos_gamma`` is the cosine of the angle between the surface point and
    the source direction (scalar or array); ``source_distance`` is the source
    range from the sphere center (must exceed ``radius``). Evaluates

        p = -1 / (4 pi k a^2) sum_n (2n+1) h_n(k d) / h_n'(k a) P_n(cos g)

    adaptively; raises RuntimeError if the series has not converged by
    ``cap_order`` terms.
    """
    if source_distance <= radius:
        raise ValueError("source must lie outside the sphere")
    cos_gamma = np.asarray(cos_gamma, dtype=float)
    ka = k * radius
    kd = k * source_distance

    n_start = int(math.ceil(math.e * ka / 2.0)) + 16
    coefs = _scattering_coefs(0, min(n_start, cap_order) + 1, ka, kd)
    p_prev, pn = np.zeros_like(cos_gamma), np.ones_like(cos_gamma)  # P_-1, P_0
    total = np.zeros(cos_gamma.shape, dtype=complex)
    ref = 0.0
    for n in range(cap_order + 1):
        if n == coefs.size:
            coefs = np.concatenate(
                [coefs, _scattering_coefs(n, min(2 * n, cap_order + 1), ka, kd)])
        term = coefs[n] * pn
        total += term
        ref = max(ref, float(np.max(np.abs(total))))
        if n >= n_start and float(np.max(np.abs(term))) < tol * max(ref, 1e-300):
            return -total / (4.0 * math.pi * k * radius**2)
        p_prev, pn = pn, ((2 * n + 1) * cos_gamma * pn - n * p_prev) / (n + 1)
    raise RuntimeError(f"rigid-sphere scattering series did not converge within {cap_order} terms")


def _scattering_coefs(n_lo, n_hi, ka, kd):
    """(2n+1) h_n(k d) / h_n'(k a) for n_lo <= n < n_hi, one table per call.

    Orders past the point where the series stops may overflow; their
    warnings are silenced because they are never summed.
    """
    n = np.arange(n_lo, n_hi)
    with np.errstate(all="ignore"):
        return (2 * n + 1) * sph_hankel2(n, kd) / sph_hankel2_deriv(n, ka)


def ear_pressure(head: SyntheticHead, source_pos, k):
    """Left/right total pressures at the head's ear points for a point source."""
    source_pos = np.asarray(source_pos, dtype=float)
    d = np.linalg.norm(source_pos)
    src_dir = source_pos / d
    cos_g = np.array([head.ear_direction(ear) @ src_dir for ear in (0, 1)])
    return rigid_sphere_pressure(head.radius, cos_g, d, k)


def rigid_sphere_hrtf_spectrum(head: SyntheticHead, freqs, measure_radius,
                               order, sample_rate=SAMPLE_RATE, sound_speed=SOUND_SPEED) -> HrtfShSpectrum:
    """Analytic SH spectrum of the rigid-sphere head's HRTFs.

    For a source on the measurement sphere of radius R_s the surface-pressure
    series separates, giving exactly

        H_n^m(k) = -h_n(k R_s) Y_n^m(ear direction) / (k a^2 h_n'(k a)),

    unconjugated: the source direction enters conjugated where the spectrum
    is evaluated, as conj(Y_n^m(source direction)).

    This closed form is both the fast path for rendering oracles and the
    reference the grid-fit route is tested against.
    """
    freqs = np.asarray(freqs, dtype=float)
    n_all, _ = orders_degrees(order)
    ears = np.stack([head.ear_direction(0), head.ear_direction(1)])
    _, theta, phi = cart2sph(ears)
    y_ear = sh_matrix(order, theta, phi)  # (2, ncoef), unconjugated ear factor
    k = (2.0 * math.pi * freqs / sound_speed)[:, None]
    n = np.arange(order + 1)
    radial = sph_hankel2(n, k * measure_radius)[:, n_all]
    deriv = sph_hankel2_deriv(n, k * head.radius)[:, n_all]
    gain = -radial / (k * head.radius**2 * deriv)  # (F, ncoef)
    coeffs = gain[None, :, :] * y_ear[:, None, :]
    return HrtfShSpectrum(
        order=order,
        radius=measure_radius,
        freqs=freqs,
        coeffs=coeffs,
        sample_rate=sample_rate,
    )


def synth_rigid_sphere_hrtf(head: SyntheticHead, grid, freqs, measure_radius,
                            sample_rate=SAMPLE_RATE, sound_speed=SOUND_SPEED) -> HrtfSet:
    """Synthesize a grid-sampled HrtfSet from the rigid-sphere head.

    ``grid`` is an array of (zenith, azimuth) source directions on the
    measurement sphere. Left/right responses are symmetric whenever the ear
    azimuths are mirror images.
    """
    grid = np.asarray(grid, dtype=float)
    if head.radius >= measure_radius:
        raise ValueError("head radius must be smaller than the measurement radius")
    freqs = np.asarray(freqs, dtype=float)
    src_dirs = sph2cart(np.ones(grid.shape[0]), grid[:, 0], grid[:, 1])
    responses = np.empty((2, freqs.size, grid.shape[0]), dtype=complex)
    for ear in (0, 1):
        cos_g = src_dirs @ head.ear_direction(ear)
        for fi, f in enumerate(freqs):
            k = 2.0 * math.pi * f / sound_speed
            responses[ear, fi] = rigid_sphere_pressure(head.radius, cos_g, measure_radius, k)
    return HrtfSet(
        radius=measure_radius,
        directions=grid,
        freqs=freqs,
        responses=responses,
        sample_rate=sample_rate,
    )


# ---------------------------------------------------------------------------
# Direction grids
# ---------------------------------------------------------------------------

def equiangular_grid(zenith_step_deg=5.0, azimuth_step_deg=5.0):
    """Equiangular measurement grid on zeniths 10-160 degrees; 2232 points by default."""
    zeniths = np.deg2rad(np.arange(10.0, 160.0 + 1e-9, zenith_step_deg))
    azimuths = np.deg2rad(np.arange(0.0, 360.0, azimuth_step_deg))
    th, ph = np.meshgrid(zeniths, azimuths, indexing="ij")
    return np.column_stack([th.ravel(), ph.ravel()])


def fibonacci_grid(n_points):
    """Quasi-uniform spiral grid of n_points (zenith, azimuth) pairs."""
    i = np.arange(n_points)
    golden = (1.0 + 5.0**0.5) / 2.0
    theta = np.arccos(1.0 - 2.0 * (i + 0.5) / n_points)
    phi = (2.0 * np.pi * i / golden) % (2.0 * np.pi)
    return np.column_stack([theta, phi])


# ---------------------------------------------------------------------------
# CSV import (small hand-made datasets)
# ---------------------------------------------------------------------------

def read_hrtf_csv(path, radius, sample_rate=SAMPLE_RATE) -> HrtfSet:
    """Read a direction-table CSV with per-frequency magnitude/phase columns.

    Expected header: theta,phi followed by four columns per frequency f:
    L_mag_<f>,L_phase_<f>,R_mag_<f>,R_phase_<f> (phase in radians, any
    frequency order; rows are directions).
    """
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0][:2] != ["theta", "phi"]:
        raise ValueError("HRTF CSV must start with theta,phi columns")
    header, data = rows[0], rows[1:]
    for line, r in enumerate(data, start=2):
        if len(r) != len(header):
            raise ValueError(f"line {line} has {len(r)} cells, the header {len(header)}")
    freqs = []
    for name in header[2::4]:
        if not name.startswith("L_mag_"):
            raise ValueError(f"unexpected column {name}; expected L_mag_<freq>")
        freqs.append(float(name[len("L_mag_"):]))
    freqs = np.array(freqs)
    directions = np.array([[float(r[0]), float(r[1])] for r in data])
    responses = np.empty((2, freqs.size, len(data)), dtype=complex)
    for j, r in enumerate(data):
        vals = np.array([float(x) for x in r[2:]]).reshape(freqs.size, 4)
        responses[0, :, j] = vals[:, 0] * np.exp(1j * vals[:, 1])
        responses[1, :, j] = vals[:, 2] * np.exp(1j * vals[:, 3])
    order = np.argsort(freqs)
    return HrtfSet(
        radius=radius,
        directions=directions,
        freqs=freqs[order],
        responses=responses[:, order, :],
        sample_rate=sample_rate,
    )
