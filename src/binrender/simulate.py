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
from .hrtf import SOUND_SPEED, HrtfSet, SyntheticHead, ear_pressure, fit_sh, rigid_sphere_pressure
from .metrics import ORDER_CAP
from .special import EulerAngles
from .utils import cart2sph, own_arrays, rotation_matrix_zyz
from .wavefield import point_source_expansions


@dataclass(frozen=True, eq=False)
class PointSource:
    position: np.ndarray
    spectrum: np.ndarray | None = None  # complex amplitude per frequency; None = flat 1

    def __post_init__(self):
        pos, = own_arrays(self, position=float)
        if pos.shape != (3,):
            raise ValueError("source position must be a 3-vector")
        if self.spectrum is not None:
            own_arrays(self, spectrum=complex)

    def amplitude(self, freq_index):
        return 1.0 + 0.0j if self.spectrum is None else self.spectrum[freq_index]


@dataclass(frozen=True, eq=False)
class Scene:
    sources: tuple
    freqs: np.ndarray
    sound_speed: float = SOUND_SPEED

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        freqs, = own_arrays(self, freqs=float)
        if not np.all(np.isfinite(freqs)):
            raise ValueError("frequencies must be finite")
        if np.any(freqs <= 0):
            raise ValueError("frequencies must be positive")
        if not 0 < self.sound_speed < math.inf:
            raise ValueError("sound speed must be positive and finite")
        for src in self.sources:
            if src.spectrum is not None and src.spectrum.size != freqs.size:
                raise ValueError("source spectrum length must match the frequency grid")

    def wavenumbers(self):
        return 2.0 * math.pi * self.freqs / self.sound_speed


def band_freqs(lo=100.0, hi=15000.0, step=100.0):
    """Frequency grid from ``lo`` to ``hi`` inclusive in steps of ``step``."""
    if not step > 0:
        raise ValueError(f"band step must be positive, got {step}")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def simulate_observation(scene: Scene, geom: ArrayGeometry):
    """Microphone observations, shape (n_freqs, n_mics).

    Directional mics observe conj(c_i) . alpha(mic position) with alpha the
    local expansion of each source; rigid-baffle arrays observe the total
    surface pressure, the scattering series ``rigid_sphere_pressure`` summed
    to convergence.
    """
    ks = scene.wavenumbers()
    out = np.zeros((scene.freqs.size, geom.n_mics), dtype=complex)
    if geom.baffle is not None:
        center, radius = geom.baffle.center, geom.baffle.radius
        mic_dirs = geom.positions() - center
        mic_dirs /= np.linalg.norm(mic_dirs, axis=1, keepdims=True)
        for src in scene.sources:
            d = np.linalg.norm(src.position - center)
            cos_g = mic_dirs @ ((src.position - center) / d)
            for fi, k in enumerate(ks):  # raises for a source inside the baffle
                out[fi] += src.amplitude(fi) * rigid_sphere_pressure(radius, cos_g, d, k)
    else:
        positions = geom.positions()
        dir_coeffs, order = geom.directivities
        for fi, k in enumerate(ks):
            for src in scene.sources:
                alpha = point_source_expansions(src.position - positions, k, order,
                                                "source coincides with a microphone")
                out[fi] += src.amplitude(fi) * np.sum(np.conj(dir_coeffs) * alpha, axis=1)
    return out


def true_binaural(scene: Scene, head, listener_position=(0.0, 0.0, 0.0), angles=EulerAngles()):
    """Ground-truth ear signals, shape (n_freqs, 2) with columns (L, R).

    ``head`` is either a SyntheticHead (analytic rigid-sphere ear pressures,
    any source distance) or an HrtfSet (exact node lookup when a source sits
    on a grid node of the measurement sphere, SH interpolation otherwise;
    sources must lie on the measurement radius). The head sits at
    ``listener_position``, turned by R(``angles``), the rotation the
    renderers take: it sees a source at x in head coordinates R^T (x - p).
    """
    rel = [src.position - np.asarray(listener_position, dtype=float) for src in scene.sources]
    if angles != EulerAngles():
        rot = rotation_matrix_zyz(angles.alpha, angles.beta, angles.gamma)
        rel = [rot.T @ x for x in rel]
    ks = scene.wavenumbers()
    out = np.zeros((scene.freqs.size, 2), dtype=complex)
    if isinstance(head, SyntheticHead):
        for fi, k in enumerate(ks):
            for src, x in zip(scene.sources, rel):
                out[fi] += src.amplitude(fi) * ear_pressure(head, x, k)
        return out
    if isinstance(head, HrtfSet):
        return _measured_binaural(scene, head, rel)
    raise TypeError("head must be a SyntheticHead or HrtfSet")


def _measured_binaural(scene: Scene, hrtf: HrtfSet, rel):
    if not np.array_equal(np.asarray(scene.freqs), np.asarray(hrtf.freqs)):
        raise ValueError("scene frequency grid must match the HRTF set")
    out = np.zeros((scene.freqs.size, 2), dtype=complex)
    spec = None
    for src, x in zip(scene.sources, rel):
        d, theta, phi = cart2sph(x)
        if abs(d - hrtf.radius) > 1e-6 * hrtf.radius:
            raise ValueError(
                "measured HRTF sets define the truth only on the measurement "
                f"sphere (source distance {d}, radius {hrtf.radius})"
            )
        node = _matching_node(hrtf, theta, phi)
        if node is not None:
            resp = hrtf.responses[:, :, node].T  # (F, 2)
        else:
            if spec is None:
                spec = fit_sh(hrtf, min(ORDER_CAP, math.isqrt(hrtf.n_directions) - 1))
            resp = spec.evaluate(np.array([theta]), np.array([phi]))[:, :, 0].T
        for fi in range(scene.freqs.size):
            out[fi] += src.amplitude(fi) * resp[fi]
    return out


def _matching_node(hrtf: HrtfSet, theta, phi):
    dirs = hrtf.directions
    dtheta = np.abs(dirs[:, 0] - theta)
    dphi = np.abs((dirs[:, 1] - phi + math.pi) % (2 * math.pi) - math.pi)
    hits = np.nonzero((dtheta < 1e-9) & (dphi < 1e-9))[0]
    return int(hits[0]) if hits.size else None
