"""Forward-model oracles: Green's function, directivity limits, reciprocity."""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from binrender import arrays, estimation, simulate
from binrender import wavefield as wf
from binrender.hrtf import SyntheticHead, synth_rigid_sphere_hrtf
from binrender.special import sph_hankel2_deriv
from binrender.utils import cart2sph

C = 346.2
SQRT_4PI = math.sqrt(4.0 * math.pi)


def omni_mic(position):
    return arrays.Microphone(position=np.asarray(position, float),
                             orientation=np.array([0.0, 0.0, 1.0]),
                             dir_coeffs=np.array([1.0 + 0.0j]))


def green(r, k):
    d = np.linalg.norm(r)
    return np.exp(-1j * k * d) / (4.0 * np.pi * d)


class TestScene:
    @pytest.mark.parametrize("kwargs, message", [
        ({"freqs": [np.nan]}, "frequencies must be finite"),
        ({"freqs": [100.0, np.inf]}, "frequencies must be finite"),
        ({"freqs": [0.0]}, "frequencies must be positive"),
        ({"freqs": [100.0], "sound_speed": np.inf}, "sound speed must be positive and finite"),
        ({"freqs": [100.0], "sound_speed": np.nan}, "sound speed must be positive and finite"),
        ({"freqs": [100.0], "sound_speed": 0.0}, "sound speed must be positive and finite"),
    ], ids=["nan-freq", "inf-freq", "zero-freq", "inf-speed", "nan-speed", "zero-speed"])
    def test_bad_grid_or_speed_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            simulate.Scene(sources=(), **kwargs)


class TestDirectionalObservation:
    def test_omni_observation_is_green(self, rng):
        geom = arrays.ArrayGeometry(mics=(omni_mic([0.05, -0.02, 0.01]),))
        src = np.array([1.1, 0.4, -0.3])
        freqs = np.array([300.0, 900.0])
        scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=freqs)
        obs = simulate.simulate_observation(scene, geom)
        for fi, f in enumerate(freqs):
            k = 2 * math.pi * f / C
            assert obs[fi, 0] == pytest.approx(
                green(geom.mics[0].position - src, k), abs=1e-8 * abs(obs[fi, 0]))

    def test_cardioid_front_back_limit(self):
        # as the source recedes, back/front magnitude ratio -> |2 beta - 1|
        # (beta + (1-beta)<eta, orientation> at <.,.> = +-1)
        for beta in (0.5, 0.75):
            front_mic = arrays.Microphone(
                position=np.zeros(3), orientation=np.array([1.0, 0.0, 0.0]),
                dir_coeffs=arrays.cardioid_coeffs(beta, np.array([1.0, 0.0, 0.0])))
            back_mic = arrays.Microphone(
                position=np.zeros(3), orientation=np.array([-1.0, 0.0, 0.0]),
                dir_coeffs=arrays.cardioid_coeffs(beta, np.array([-1.0, 0.0, 0.0])))
            geom = arrays.ArrayGeometry(mics=(front_mic, back_mic))
            scene = simulate.Scene(
                sources=(simulate.PointSource(np.array([200.0, 0.0, 0.0])),),
                freqs=np.array([500.0]))
            obs = simulate.simulate_observation(scene, geom)
            ratio = abs(obs[0, 1]) / abs(obs[0, 0])
            assert ratio == pytest.approx(abs(2.0 * beta - 1.0), abs=2e-3)

    def test_observation_linearity_in_spectra(self, rng):
        geom = arrays.build_small_array()
        freqs = np.array([400.0, 800.0])
        s1 = simulate.PointSource(np.array([1.0, 0.5, 0.2]))
        spec = rng.normal(size=2) + 1j * rng.normal(size=2)
        s2 = simulate.PointSource(np.array([1.0, 0.5, 0.2]), spectrum=spec)
        obs1 = simulate.simulate_observation(
            simulate.Scene(sources=(s1,), freqs=freqs), geom)
        obs2 = simulate.simulate_observation(
            simulate.Scene(sources=(s2,), freqs=freqs), geom)
        assert np.allclose(obs2, obs1 * spec[:, None], rtol=1e-12)

    def test_reciprocity_omni(self):
        # swapping a unit source and an omni microphone leaves the
        # observation unchanged
        a = np.array([0.9, -0.4, 0.6])
        b = np.array([-0.2, 0.8, -0.5])
        freqs = np.array([700.0])
        obs1 = simulate.simulate_observation(
            simulate.Scene(sources=(simulate.PointSource(a),), freqs=freqs),
            arrays.ArrayGeometry(mics=(omni_mic(b),)))
        obs2 = simulate.simulate_observation(
            simulate.Scene(sources=(simulate.PointSource(b),), freqs=freqs),
            arrays.ArrayGeometry(mics=(omni_mic(a),)))
        assert obs1[0, 0] == pytest.approx(obs2[0, 0], rel=1e-10)


class TestVectorizedObservation:
    @staticmethod
    def per_mic_observation(scene, geom):
        """One point_source_coeffs expansion and one np.vdot per mic."""
        out = np.zeros((scene.freqs.size, geom.n_mics), dtype=complex)
        for fi, k in enumerate(scene.wavenumbers()):
            for src in scene.sources:
                for i, mic in enumerate(geom.mics):
                    alpha = wf.point_source_coeffs(src.position, mic.position, k,
                                                   mic.directivity_order)
                    out[fi, i] += src.amplitude(fi) * np.vdot(mic.dir_coeffs, alpha.coeffs)
        return out

    def _scene(self, rng):
        spec = rng.normal(size=3) + 1j * rng.normal(size=3)
        return simulate.Scene(
            sources=(simulate.PointSource(np.array([1.4, 0.3, -0.2])),
                     simulate.PointSource(np.array([-0.8, 1.1, 0.4]), spectrum=spec)),
            freqs=np.array([150.0, 1300.0, 7000.0]))

    def test_composite_array(self, rng):
        geom = arrays.build_composite_array()
        scene = self._scene(rng)
        want = self.per_mic_observation(scene, geom)
        got = simulate.simulate_observation(scene, geom)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_mixed_directivity_orders(self, rng):
        # omni, cardioid and order-2 mics: the padded directivity table
        order2 = rng.normal(size=9) + 1j * rng.normal(size=9)
        geom = arrays.ArrayGeometry(mics=(
            omni_mic([0.05, -0.02, 0.01]),
            arrays.Microphone(position=np.array([-0.03, 0.04, 0.0]),
                              orientation=np.array([0.0, 1.0, 0.0]),
                              dir_coeffs=arrays.cardioid_coeffs(0.6, np.array([0.0, 1.0, 0.0]))),
            arrays.Microphone(position=np.array([0.0, 0.02, -0.06]),
                              orientation=np.array([0.0, 0.0, 1.0]), dir_coeffs=order2),
        ))
        scene = self._scene(rng)
        want = self.per_mic_observation(scene, geom)
        got = simulate.simulate_observation(scene, geom)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_source_on_a_mic_rejected(self):
        geom = arrays.build_small_array()
        scene = simulate.Scene(sources=(simulate.PointSource(geom.mics[2].position),),
                               freqs=np.array([500.0]))
        with pytest.raises(ValueError):
            simulate.simulate_observation(scene, geom)


class TestRigidBaffleObservation:
    def test_reordered_summation_oracle(self):
        # independent implementation: scalar loop in reversed order with the
        # raw Eq.-style terms, vs the shared rigid-baffle forward matrix that
        # both the simulator and the rigid-sphere estimator use
        geom = arrays.build_rigid_sphere_array()
        k = 2 * math.pi * 1200.0 / C
        eta = np.array([0.3, -0.5, math.sqrt(1 - 0.34)])
        order = math.ceil(math.e * k * geom.baffle.radius / 2.0) + 12
        alpha = wf.plane_wave_coeffs(eta, k, order, center=geom.baffle.center)
        got = estimation.rigid_sphere_matrix(geom, k, order) @ alpha.coeffs

        radius = geom.baffle.radius
        ref = np.zeros(geom.n_mics, dtype=complex)
        for i, mic in enumerate(geom.mics):
            _, th, ph = cart2sph(mic.position - geom.baffle.center)
            total = 0.0 + 0.0j
            for n in range(order, -1, -1):
                gain = -SQRT_4PI * 1j / (k**2 * radius**2 * sph_hankel2_deriv(n, k * radius))
                for m in range(n, -n - 1, -1):
                    q = n * n + n + m
                    total += gain * sph_harm_y(n, m, th, ph) * alpha.coeffs[q]
            ref[i] = total
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_adaptive_truncation_converged(self):
        # the adaptive scattering series matches the forward matrix applied to
        # the source expansion at twice the e k R / 2 + 12 order, to < 1e-8 relative
        geom = arrays.build_rigid_sphere_array()
        f = 1500.0
        k = 2 * math.pi * f / C
        src = np.array([1.5, 0.3, -0.2])
        order = 2 * (math.ceil(math.e * k * geom.baffle.radius / 2.0) + 12)
        scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=np.array([f]))
        got = simulate.simulate_observation(scene, geom)[0]
        alpha = wf.point_source_coeffs(src, geom.baffle.center, k, order)
        want = estimation.rigid_sphere_matrix(geom, k, order) @ alpha.coeffs
        assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_source_inside_baffle_rejected(self):
        geom = arrays.build_rigid_sphere_array()
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([0.05, 0.0, 0.0])),),
            freqs=np.array([500.0]))
        with pytest.raises(ValueError):
            simulate.simulate_observation(scene, geom)


class TestTrueBinaural:
    def test_frontal_source_symmetric(self):
        head = SyntheticHead()
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.5, 0.0, 0.0])),),
            freqs=np.array([500.0, 1500.0]))
        out = simulate.true_binaural(scene, head)
        assert np.allclose(out[:, 0], out[:, 1], rtol=1e-12)

    def test_measured_set_node_lookup_identity(self):
        head = SyntheticHead()
        grid = np.array([[math.pi / 2, 0.0], [math.pi / 2, math.pi / 2], [0.4, 1.0],
                         [1.2, -2.0], [2.2, 2.8], [1.8, 0.4], [0.9, -0.9], [2.6, 1.4],
                         [1.0, 3.0]])
        freqs = np.array([400.0, 800.0])
        hs = synth_rigid_sphere_hrtf(head, grid, freqs, 1.5)
        node = 2
        src = 1.5 * np.array([math.sin(grid[node, 0]) * math.cos(grid[node, 1]),
                              math.sin(grid[node, 0]) * math.sin(grid[node, 1]),
                              math.cos(grid[node, 0])])
        scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=freqs)
        out = simulate.true_binaural(scene, hs)
        assert np.array_equal(out, hs.responses[:, :, node].T)

    def test_yaw_is_the_source_turned_back(self):
        # a head turned by psi hears the source turned by -psi
        from binrender.special import EulerAngles
        from binrender.utils import rotation_matrix_z

        head, psi, src = SyntheticHead(), 0.6, np.array([1.2, 0.5, 0.3])

        def truth(pos, **kw):
            scene = simulate.Scene(sources=(simulate.PointSource(pos),), freqs=np.array([300.0, 1200.0]))
            return simulate.true_binaural(scene, head, **kw)

        turned = truth(src, angles=EulerAngles(psi))
        assert np.allclose(turned, truth(rotation_matrix_z(-psi) @ src), rtol=1e-12, atol=0.0)
        assert not np.allclose(turned, truth(src), rtol=1e-3)

    def test_turned_head_sees_head_coordinates(self):
        # at any position and rotation the truth is the unturned head's at R^T (x - p)
        from binrender.special import EulerAngles
        from binrender.utils import rotation_matrix_zyz

        head, angles = SyntheticHead(), EulerAngles(0.7, -0.4, 1.1)
        p, rot = np.array([0.1, -0.2, 0.05]), rotation_matrix_zyz(0.7, -0.4, 1.1)
        sources = (np.array([1.2, 0.5, 0.3]), np.array([-0.4, 1.1, -0.6]))
        freqs = np.array([300.0, 1200.0])
        got = simulate.true_binaural(
            simulate.Scene(sources=tuple(simulate.PointSource(x) for x in sources), freqs=freqs),
            head, p, angles)
        want = simulate.true_binaural(
            simulate.Scene(sources=tuple(simulate.PointSource(rot.T @ (x - p)) for x in sources),
                           freqs=freqs), head)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    def test_measured_set_looked_up_in_head_frame(self):
        # a source turned with the head stays on the node the head sees it at
        from binrender.special import EulerAngles
        from binrender.utils import rotation_matrix_z

        grid = np.array([[math.pi / 2, 0.0], [0.4, 1.0], [1.2, -2.0], [2.2, 2.8]])
        hs = synth_rigid_sphere_hrtf(SyntheticHead(), grid, np.array([400.0, 800.0]), 1.5)
        theta, phi = grid[2]
        node = 1.5 * np.array([math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi),
                               math.cos(theta)])
        scene = simulate.Scene(sources=(simulate.PointSource(rotation_matrix_z(0.9) @ node),),
                               freqs=hs.freqs)
        out = simulate.true_binaural(scene, hs, angles=EulerAngles(0.9))
        assert np.array_equal(out, hs.responses[:, :, 2].T)

    def test_measured_set_off_radius_rejected(self):
        head = SyntheticHead()
        hs = synth_rigid_sphere_hrtf(head, np.array([[1.0, 1.0]]), [500.0], 1.5)
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([2.0, 0.0, 0.0])),),
            freqs=np.array([500.0]))
        with pytest.raises(ValueError):
            simulate.true_binaural(scene, hs)

    def test_ild_grows_with_frequency(self):
        head = SyntheticHead()
        src = 1.5 * np.array([0.0, 1.0, 0.0])
        out = simulate.true_binaural(
            simulate.Scene(sources=(simulate.PointSource(src),),
                           freqs=np.array([100.0, 3000.0])), head)
        ild_low = abs(out[0, 0]) / abs(out[0, 1])
        ild_high = abs(out[1, 0]) / abs(out[1, 1])
        assert ild_high > ild_low
