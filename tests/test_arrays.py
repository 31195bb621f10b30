"""Array geometry: directivities, builders, t-design, JSON round trips."""

import hashlib
import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from binrender import arrays
from binrender import wavefield as wf
from binrender.utils import cart2sph, rotation_matrix_z


class TestCardioidCoeffs:
    def test_omni(self):
        c = arrays.cardioid_coeffs(1.0, np.array([0.0, 0.0, 1.0]))
        assert np.allclose(c, [1.0, 0.0, 0.0, 0.0])

    def test_axial_orientation_axisymmetric(self):
        c = arrays.cardioid_coeffs(0.5, np.array([0.0, 0.0, 1.0]))
        assert c[1] == 0.0 and c[3] == 0.0
        assert c[2] != 0.0

    def test_plane_wave_observation_oracle(self, rng):
        # conj(c) . alpha(plane wave) = [beta + (1-beta) <eta, orientation>] x pressure
        k = 17.0
        for _ in range(100):
            beta = rng.uniform(0.0, 1.0)
            eta = rng.normal(size=3)
            eta /= np.linalg.norm(eta)
            ori = rng.normal(size=3)
            ori /= np.linalg.norm(ori)
            c = arrays.cardioid_coeffs(beta, ori)
            alpha = wf.plane_wave_coeffs(eta, k, 1)
            got = np.vdot(c, alpha.coeffs)
            want = beta + (1.0 - beta) * float(eta @ ori)
            assert got == pytest.approx(want, abs=1e-8)

    def test_beta_range(self):
        with pytest.raises(ValueError):
            arrays.cardioid_coeffs(1.5, np.array([0.0, 0.0, 1.0]))


class TestSmallArray:
    def test_centroid(self):
        center = np.array([0.3, -0.2, 1.1])
        geom = arrays.build_small_array(center=center, yaw=0.4)
        assert np.max(np.abs(geom.positions().mean(axis=0) - center)) < 1e-12

    def test_equidistant_from_center(self):
        geom = arrays.build_small_array(radius=0.015)
        r = np.linalg.norm(geom.positions(), axis=1)
        assert np.max(np.abs(r - 0.015)) < 1e-12

    def test_min_pairwise_distance_closed_form(self):
        # analytic trapezohedron: ring radius rho = r sqrt(2/3), heights +-r/sqrt(3),
        # lower ring twisted 45 deg; nearest neighbours are adjacent in-ring
        # vertices (rho sqrt(2)) vs inter-ring pairs.
        r = 0.015
        rho = r * math.sqrt(2.0 / 3.0)
        h = r / math.sqrt(3.0)
        in_ring = rho * math.sqrt(2.0)
        inter = math.sqrt(2.0 * rho**2 * (1.0 - math.cos(math.pi / 4.0)) + (2.0 * h) ** 2)
        expected = min(in_ring, inter)
        geom = arrays.build_small_array(radius=r)
        pos = geom.positions()
        dists = [np.linalg.norm(pos[i] - pos[j]) for i in range(8) for j in range(i + 1, 8)]
        assert min(dists) == pytest.approx(expected, rel=1e-9)

    def test_orientations_outward(self):
        geom = arrays.build_small_array(center=np.array([1.0, 2.0, 3.0]))
        for mic in geom.mics:
            outward = mic.position - np.array([1.0, 2.0, 3.0])
            outward /= np.linalg.norm(outward)
            assert np.max(np.abs(outward - mic.orientation)) < 1e-9


class TestCompositeArray:
    def test_mic_count(self):
        assert arrays.build_composite_array().n_mics == 64

    def test_ring_radii_and_heights(self):
        geom = arrays.build_composite_array()
        pos = geom.positions().reshape(8, 8, 3)
        centers = pos.mean(axis=1)
        rho = np.linalg.norm(centers[:, :2], axis=1)
        assert np.max(np.abs(rho - 0.145)) < 1e-9
        assert np.max(np.abs(np.abs(centers[:, 2]) - 0.025)) < 1e-9
        assert np.sum(centers[:, 2] > 0) == 4

    def test_quarter_turn_invariance_with_relabeling(self):
        geom = arrays.build_composite_array()
        rz = rotation_matrix_z(math.pi / 2.0)
        rotated = sorted(map(tuple, np.round((rz @ geom.positions().T).T, 9)))
        original = sorted(map(tuple, np.round(geom.positions(), 9)))
        assert rotated == original
        # orientations must follow the same relabeling
        rot_all = sorted(
            map(tuple, np.round(np.hstack([(rz @ geom.positions().T).T,
                                           (rz @ np.array([m.orientation for m in geom.mics]).T).T]), 9)))
        orig_all = sorted(
            map(tuple, np.round(np.hstack([geom.positions(),
                                           np.array([m.orientation for m in geom.mics])]), 9)))
        assert rot_all == orig_all

    def test_mirror_symmetry_about_xz_plane(self):
        # needed by the symmetric-head ITD oracles
        geom = arrays.build_composite_array()
        flip = np.diag([1.0, -1.0, 1.0])
        mirrored = sorted(map(tuple, np.round((flip @ geom.positions().T).T, 9)))
        original = sorted(map(tuple, np.round(geom.positions(), 9)))
        assert mirrored == original


class TestDirectivities:
    def test_stacked_once_per_geometry(self):
        # mixed directivity orders: lower orders are zero-padded to the top one
        mics = arrays.build_small_array().mics[:2] + (
            arrays.Microphone(np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.ones(1)),)
        geom = arrays.ArrayGeometry(mics)
        c, order = geom.directivities
        assert order == 1 and c.shape == (3, 4)
        for row, mic in zip(c, mics):
            assert np.array_equal(row, np.pad(mic.dir_coeffs, (0, 4 - mic.dir_coeffs.size)))
        assert geom.directivities[0] is c
        assert not c.flags.writeable
        # so are the upper-triangle mic pairs that Psi is assembled on
        iu, ju = geom.upper_pairs
        assert all(np.array_equal(a, b) for a, b in zip((iu, ju), np.triu_indices(3)))
        assert geom.upper_pairs[0] is iu and not iu.flags.writeable and not ju.flags.writeable


class TestContentHash:
    def test_is_sha256_of_the_json_form(self):
        geom = arrays.build_composite_array()
        expected = hashlib.sha256(arrays.geometry_to_json(geom).encode()).hexdigest()
        assert geom.content_hash() == expected


class TestRigidSphereArray:
    def test_tdesign_defining_property(self):
        nodes = arrays.tdesign_nodes()
        _, theta, phi = cart2sph(nodes)
        worst = 0.0
        for n in range(1, 8):
            for m in range(-n, n + 1):
                worst = max(worst, abs(np.sum(sph_harm_y(n, m, theta, phi))))
        assert worst < 1e-10

    def test_all_on_baffle(self):
        geom = arrays.build_rigid_sphere_array(center=(0.1, 0.0, -0.2), radius=0.145)
        r = np.linalg.norm(geom.positions() - np.array([0.1, 0.0, -0.2]), axis=1)
        assert np.max(np.abs(r - 0.145)) < 1e-9

    def test_mic_count(self):
        assert arrays.build_rigid_sphere_array().n_mics == 64

    def test_off_baffle_mic_rejected(self):
        geom = arrays.build_rigid_sphere_array()
        bad = list(geom.mics)
        bad[0] = arrays.Microphone(bad[0].position * 1.01, bad[0].orientation, bad[0].dir_coeffs)
        with pytest.raises(ValueError):
            arrays.ArrayGeometry(mics=tuple(bad), baffle=geom.baffle)


class TestGeometryJson:
    @pytest.mark.parametrize("builder", [
        lambda: arrays.build_small_array(center=(0.2, -0.1, 0.05), yaw=0.3),
        lambda: arrays.build_composite_array(center=(0.01, 0.02, -0.03)),
        lambda: arrays.build_rigid_sphere_array(),
    ])
    def test_bit_identical_roundtrip(self, builder, tmp_path):
        geom = builder()
        text = arrays.geometry_to_json(geom)
        loaded = arrays.geometry_from_json(text)
        assert arrays.geometry_to_json(loaded) == text
        for a, b in zip(geom.mics, loaded.mics):
            assert np.array_equal(a.position, b.position)
            assert np.array_equal(a.orientation, b.orientation)
            assert np.array_equal(a.dir_coeffs, b.dir_coeffs)
        path = tmp_path / "geom.json"
        arrays.save_geometry(geom, path)
        assert arrays.geometry_to_json(arrays.load_geometry(path)) == text

    def test_beta_shorthand(self):
        doc = """{"format": "binrender-geometry", "version": 1,
                  "mics": [{"pos": ["0", "0", "0"], "orient": ["0", "0", "1"], "beta": 0.5}]}"""
        geom = arrays.geometry_from_json(doc)
        assert np.allclose(geom.mics[0].dir_coeffs, arrays.cardioid_coeffs(0.5, [0, 0, 1]))

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError):
            arrays.geometry_from_json('{"format": "something-else"}')

    def test_no_microphones_rejected(self):
        with pytest.raises(ValueError, match="at least one microphone"):
            arrays.ArrayGeometry(mics=())
