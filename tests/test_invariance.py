"""Whole-chain invariance guards: physics checks that need no oracle.

The estimate depends on the relative geometry only, so one rigid motion of
everything at once (mics with their directivities, sources, listener and
head) must leave the ear signals unchanged, whatever the chain computes in
between: Psi, its factor, Xi, the rotation, the weights and the rows. So
must a relabelling of the mics, which permutes the observations with the
rows, and a common scale c > 0 of every directivity under lambda "auto":
Psi and lambda (1e-3 of Psi's mean diagonal) scale by c^2, Xi and the
observations by c.
"""

import math

import numpy as np
import pytest

from binrender import arrays, rendering, simulate
from binrender.hrtf import SyntheticHead, rigid_sphere_hrtf_spectrum
from binrender.special import EulerAngles
from binrender.utils import rotation_matrix_zyz

C = 346.2
FREQS = simulate.band_freqs(100.0, 1600.0, 100.0)  # 16 bins, orders 2 to 18
SOURCES = (np.array([1.4, 0.6, 0.2]), np.array([-0.5, 1.3, -0.4]))
LISTENER = np.array([0.03, -0.02, 0.01])
HEAD = EulerAngles(0.4, 0.3, -0.2)
# 1.6-2.4e-14 relative measured at the three motions below
RIGID_MOTION_RTOL = 1e-12
# 1.35-1.43e-14 relative measured at the three relabellings below
RELABEL_RTOL = 1e-12
# 0, 1.5e-14 and 1.8e-14 relative measured at the three scales below
SCALE_RTOL = 1e-12


def zyz_angles(rot):
    """z-y-z Euler angles of ``rot`` = Rz(alpha) Ry(beta) Rz(gamma), for sin(beta) != 0."""
    beta = math.acos(min(1.0, max(-1.0, rot[2, 2])))
    return EulerAngles(math.atan2(rot[1, 2], rot[0, 2]), beta, math.atan2(rot[2, 1], -rot[2, 0]))


def moved_geometry(geom, rot, shift):
    """Each mic moved by x -> rot x + shift, its cardioid rebuilt for the turned orientation."""
    mics = []
    for mic in geom.mics:
        beta = mic.dir_coeffs[0].real
        # a cardioid of its orientation, which the geometry stores to 12 digits
        assert np.allclose(mic.dir_coeffs, arrays.cardioid_coeffs(beta, mic.orientation),
                           rtol=0, atol=1e-12)
        orientation = rot @ mic.orientation
        mics.append(arrays.Microphone(rot @ mic.position + shift, orientation,
                                      arrays.cardioid_coeffs(beta, orientation)))
    return arrays.ArrayGeometry(mics)


def ears(geom, sources, listener, angles, spectrum):
    """(F, 2) ear signals: ``grid_rows`` applied to the simulated observations."""
    scene = simulate.Scene(sources=tuple(simulate.PointSource(s) for s in sources),
                           freqs=FREQS, sound_speed=C)
    rows = rendering.grid_rows(geom, FREQS, listener, angles, spectrum, sound_speed=C)
    return (rows @ simulate.simulate_observation(scene, geom)[:, :, None])[:, :, 0]


@pytest.fixture(scope="module")
def unmoved():
    # rebuilt like the moved ones, so both sides take their coefficients from cardioid_coeffs
    geom = moved_geometry(arrays.build_composite_array(), np.eye(3), np.zeros(3))
    spectrum = rigid_sphere_hrtf_spectrum(SyntheticHead(), FREQS, 1.5, 35, sound_speed=C)
    return geom, spectrum, ears(geom, SOURCES, LISTENER, HEAD, spectrum)


def test_zyz_angles_invert_the_rotation_matrix():
    angles = EulerAngles(2.5, 1.1, -0.7)
    got = zyz_angles(rotation_matrix_zyz(angles.alpha, angles.beta, angles.gamma))
    assert np.allclose((got.alpha, got.beta, got.gamma), (2.5, 1.1, -0.7), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rigid_motion_leaves_the_ears_unchanged(unmoved, seed):
    geom, spectrum, want = unmoved
    rng = np.random.default_rng(seed)
    rot = rotation_matrix_zyz(*rng.uniform(-math.pi, math.pi, size=3))
    shift = rng.normal(scale=0.5, size=3)
    head = rot @ rotation_matrix_zyz(HEAD.alpha, HEAD.beta, HEAD.gamma)
    got = ears(moved_geometry(geom, rot, shift), [rot @ s + shift for s in SOURCES],
               rot @ LISTENER + shift, zyz_angles(head), spectrum)
    assert np.max(np.abs(got - want)) <= RIGID_MOTION_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mic_relabelling_leaves_the_ears_unchanged(unmoved, seed):
    # the ears, not the rows: permuted rows agree only to 4-6e-13 of their largest entry
    geom, spectrum, want = unmoved
    perm = np.random.default_rng(seed).permutation(geom.n_mics)
    relabelled = arrays.ArrayGeometry([geom.mics[i] for i in perm])
    got = ears(relabelled, SOURCES, LISTENER, HEAD, spectrum)
    assert np.max(np.abs(got - want)) <= RELABEL_RTOL * np.max(np.abs(want))


@pytest.mark.parametrize("scale", [0.5, 3.0, 17.0])
def test_directivity_scale_leaves_the_ears_unchanged(unmoved, scale):
    geom, spectrum, want = unmoved
    scaled = arrays.ArrayGeometry([arrays.Microphone(mic.position, mic.orientation, scale * mic.dir_coeffs)
                                   for mic in geom.mics])
    got = ears(scaled, SOURCES, LISTENER, HEAD, spectrum)
    assert np.max(np.abs(got - want)) <= SCALE_RTOL * np.max(np.abs(want))
