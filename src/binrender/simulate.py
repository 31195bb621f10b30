"""Free-field forward models: microphone observations and ground-truth
binaural signals for desk-scale experiments.

Point-source scenes only (free field, no room); the observation model is
the same directivity/rigid-baffle algebra the estimators invert, evaluated
from analytic source expansions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayGeometry
from .estimation import rigid_sphere_matrix
from .hrtf import HrtfSet, SyntheticHead, ear_pressure, fit_sh
from .utils import cart2sph
from .wavefield import point_source_coeffs

DEFAULT_SOUND_SPEED = 346.2


@dataclass(frozen=True)
class PointSource:
    position: np.ndarray
    spectrum: np.ndarray | None = None  # complex amplitude per frequency; None = flat 1

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError("source position must be a 3-vector")
        pos.flags.writeable = False
        object.__setattr__(self, "position", pos)
        if self.spectrum is not None:
            spec = np.asarray(self.spectrum, dtype=complex)
            spec.flags.writeable = False
            object.__setattr__(self, "spectrum", spec)

    def amplitude(self, freq_index):
        return 1.0 + 0.0j if self.spectrum is None else self.spectrum[freq_index]


@dataclass(frozen=True)
class Scene:
    sources: tuple
    freqs: np.ndarray
    sound_speed: float = DEFAULT_SOUND_SPEED

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        freqs = np.asarray(self.freqs, dtype=float)
        if np.any(freqs <= 0):
            raise ValueError("frequencies must be positive")
        if not self.sound_speed > 0:
            raise ValueError("sound speed must be positive")
        freqs.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)
        for src in self.sources:
            if src.spectrum is not None and src.spectrum.size != freqs.size:
                raise ValueError("source spectrum length must match the frequency grid")

    def wavenumbers(self):
        return 2.0 * math.pi * self.freqs / self.sound_speed


def band_freqs(lo=100.0, hi=15000.0, step=100.0):
    """Frequency grid from ``lo`` to ``hi`` inclusive in steps of ``step``."""
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def rigid_baffle_series_order(k, radius, margin=12):
    # margin +8 leaves ~5e-8 relative series residual at kR ~ 4, violating
    # the 1e-8 convergence guard; +12 keeps the guard with room to spare
    return math.ceil(math.e * k * radius / 2.0) + margin


def _directional_observation(src_pos, geom: ArrayGeometry, k):
    out = np.empty(geom.n_mics, dtype=complex)
    for i, mic in enumerate(geom.mics):
        alpha = point_source_coeffs(src_pos, mic.position, k, mic.directivity_order)
        out[i] = np.vdot(mic.dir_coeffs, alpha.coeffs)
    return out


def simulate_observation(scene: Scene, geom: ArrayGeometry):
    """Microphone observations, shape (n_freqs, n_mics).

    Directional mics observe conj(c_i) . alpha(mic position) with alpha the
    local expansion of each source; rigid-baffle arrays observe the total
    surface pressure ``rigid_sphere_matrix @ alpha`` with alpha about the
    baffle center, truncated at ``rigid_baffle_series_order`` (the
    convergence guard doubles this in the tests).
    """
    ks = scene.wavenumbers()
    out = np.zeros((scene.freqs.size, geom.n_mics), dtype=complex)
    if geom.baffle is not None:
        center = geom.baffle.center
        radius = geom.baffle.radius
        for src in scene.sources:
            if np.linalg.norm(src.position - center) <= radius:
                raise ValueError("source lies inside the rigid baffle")
        for fi, k in enumerate(ks):
            order = rigid_baffle_series_order(k, radius)
            pi = rigid_sphere_matrix(geom, k, order)
            for src in scene.sources:
                alpha = point_source_coeffs(src.position, center, k, order)
                out[fi] += src.amplitude(fi) * (pi @ alpha.coeffs)
    else:
        for fi, k in enumerate(ks):
            for src in scene.sources:
                out[fi] += src.amplitude(fi) * _directional_observation(src.position, geom, k)
    return out


def true_binaural(scene: Scene, head, listener_position=(0.0, 0.0, 0.0)):
    """Ground-truth ear signals, shape (n_freqs, 2) with columns (L, R).

    ``head`` is either a SyntheticHead (analytic rigid-sphere ear pressures,
    any source distance) or an HrtfSet (exact node lookup when a source sits
    on a grid node of the measurement sphere, SH interpolation otherwise;
    sources must lie on the measurement radius).
    """
    listener_position = np.asarray(listener_position, dtype=float)
    ks = scene.wavenumbers()
    out = np.zeros((scene.freqs.size, 2), dtype=complex)
    if isinstance(head, SyntheticHead):
        for fi, k in enumerate(ks):
            for src in scene.sources:
                out[fi] += src.amplitude(fi) * ear_pressure(head, src.position - listener_position, k)
        return out
    if isinstance(head, HrtfSet):
        return _measured_binaural(scene, head, listener_position)
    raise TypeError("head must be a SyntheticHead or HrtfSet")


def _measured_binaural(scene: Scene, hrtf: HrtfSet, listener_position):
    if not np.array_equal(np.asarray(scene.freqs), np.asarray(hrtf.freqs)):
        raise ValueError("scene frequency grid must match the HRTF set")
    out = np.zeros((scene.freqs.size, 2), dtype=complex)
    spectrum_cache = {}
    for src in scene.sources:
        rel = src.position - listener_position
        d, theta, phi = cart2sph(rel)
        if abs(d - hrtf.radius) > 1e-6 * hrtf.radius:
            raise ValueError(
                "measured HRTF sets define the truth only on the measurement "
                f"sphere (source distance {d}, radius {hrtf.radius})"
            )
        node = _matching_node(hrtf, theta, phi)
        if node is not None:
            resp = hrtf.responses[:, :, node].T  # (F, 2)
        else:
            spec = spectrum_cache.get("spec")
            if spec is None:
                order = min(35, math.isqrt(hrtf.n_directions) - 1)
                spec = fit_sh(hrtf, order)
                spectrum_cache["spec"] = spec
            resp = spec.evaluate(np.array([theta]), np.array([phi]))[:, :, 0].T
        for fi in range(scene.freqs.size):
            out[fi] += src.amplitude(fi) * resp[fi]
    return out


def _matching_node(hrtf: HrtfSet, theta, phi, tol=1e-9):
    dirs = hrtf.directions
    dtheta = np.abs(dirs[:, 0] - theta)
    dphi = np.abs((dirs[:, 1] - phi + math.pi) % (2 * math.pi) - math.pi)
    hits = np.nonzero((dtheta < tol) & (dphi < tol))[0]
    return int(hits[0]) if hits.size else None
