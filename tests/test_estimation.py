"""Estimator oracles: forward-model consistency, position independence,
retargeting, linearity."""

import gc
import math
import weakref

import numpy as np
import pytest

from binrender import arrays, estimation, simulate
from binrender import wavefield as wf

C = 346.2


def k_of(f):
    return 2.0 * math.pi * f / C


@pytest.fixture(scope="module")
def composite():
    return arrays.build_composite_array()


@pytest.fixture(scope="module")
def sphere_array():
    return arrays.build_rigid_sphere_array()


class TestRigidSphereEstimate:
    def test_plane_wave_recovery(self, sphere_array):
        k = k_of(2000.0)
        eta = np.array([0.3, 0.5, math.sqrt(1 - 0.34)])
        alpha = wf.plane_wave_coeffs(eta, k, 7, center=sphere_array.baffle.center)
        s = estimation.rigid_sphere_matrix(sphere_array, k, 7) @ alpha.coeffs
        est = estimation.rigid_sphere_estimate(s, sphere_array, k, 7, eta=1e-10)
        assert np.max(np.abs(est.coeffs - alpha.coeffs)) < 1e-6

    def test_zero_observation(self, sphere_array):
        est = estimation.rigid_sphere_estimate(
            np.zeros(64, dtype=complex), sphere_array, k_of(1000.0), 7)
        assert np.max(np.abs(est.coeffs)) == 0.0

    def test_huge_eta_shrinks_to_zero(self, sphere_array):
        k = k_of(1500.0)
        s = np.ones(64, dtype=complex)
        est = estimation.rigid_sphere_estimate(s, sphere_array, k, 7, eta=1e12)
        assert np.max(np.abs(est.coeffs)) < 1e-6

    def test_too_few_mics(self, sphere_array):
        with pytest.raises(ValueError):
            estimation.rigid_sphere_estimate(np.zeros(64), sphere_array, k_of(500.0), 8)

    def test_needs_baffle(self, composite):
        with pytest.raises(ValueError):
            estimation.rigid_sphere_estimate(np.zeros(64), composite, k_of(500.0), 5)


class TestBuildXi:
    def test_single_omni_mic_at_target(self):
        mic = arrays.Microphone(position=np.array([0.1, 0.2, -0.1]),
                                orientation=np.array([0.0, 0.0, 1.0]),
                                dir_coeffs=np.array([1.0 + 0.0j]))
        geom = arrays.ArrayGeometry(mics=(mic,))
        xi = estimation.build_xi(geom, mic.position, k_of(800.0), 5)
        e0 = np.zeros(36)
        e0[0] = 1.0
        assert np.max(np.abs(xi[:, 0] - e0)) < 1e-14

    def test_forward_prediction_matches_direct_observation(self, composite):
        # s_i = (Xi(r)^H alpha(r))_i for a point-source field
        k = k_of(600.0)
        src = np.array([1.4, -0.5, 0.3])
        target = np.array([0.02, 0.04, -0.01])
        alpha = wf.point_source_coeffs(src, target, k, 30)
        xi = estimation.build_xi(composite, target, k, 30)
        predicted = xi.conj().T @ alpha.coeffs
        direct = simulate.simulate_observation(
            simulate.Scene(sources=(simulate.PointSource(src),), freqs=np.array([600.0])),
            composite)[0]
        assert np.max(np.abs(predicted - direct)) < 1e-6 * np.max(np.abs(direct))

    def test_column_norms_rotation_invariant(self, rng):
        from binrender.utils import rotation_matrix_zyz

        geom = arrays.build_small_array(center=(0.05, 0.03, -0.02))
        k = k_of(900.0)
        target = np.array([0.1, -0.05, 0.02])
        xi = estimation.build_xi(geom, target, k, 12)
        r = rotation_matrix_zyz(0.7, 0.5, -0.3)
        mics = tuple(
            arrays.Microphone(r @ m.position, r @ m.orientation,
                              arrays.cardioid_coeffs(0.5, r @ m.orientation))
            for m in geom.mics)
        xi_rot = estimation.build_xi(arrays.ArrayGeometry(mics=mics), r @ target, k, 12)
        assert np.allclose(np.linalg.norm(xi, axis=0), np.linalg.norm(xi_rot, axis=0),
                           rtol=1e-8)


class TestBuildPsi:
    def test_single_mic_scalar(self):
        mic = arrays.Microphone(position=np.zeros(3),
                                orientation=np.array([1.0, 0.0, 0.0]),
                                dir_coeffs=arrays.cardioid_coeffs(0.5, [1.0, 0.0, 0.0]))
        geom = arrays.ArrayGeometry(mics=(mic,))
        psi = estimation.build_psi(geom, k_of(700.0))
        want = np.vdot(mic.dir_coeffs, mic.dir_coeffs)
        assert psi.shape == (1, 1)
        assert psi[0, 0] == pytest.approx(want, rel=1e-12)
        assert psi[0, 0].imag == 0.0

    def test_hermitian_by_construction(self, composite):
        psi = estimation.build_psi(composite, k_of(500.0))
        assert np.array_equal(psi, psi.conj().T)
        assert np.all(np.diag(psi).real > 0)
        assert np.max(np.abs(np.diag(psi).imag)) == 0.0

    def test_position_independence_vs_xi_gram(self, composite, rng):
        # Psi == Xi(r)^H Xi(r) for arbitrary r once the row order has converged
        k = k_of(500.0)
        psi = estimation.build_psi(composite, k)
        for _ in range(2):
            target = rng.uniform(-0.1, 0.1, 3)
            xi = estimation.build_xi(composite, target, k, 20)
            gram = xi.conj().T @ xi
            dev = np.linalg.norm(psi - gram) / np.linalg.norm(psi)
            assert dev < 1e-6


class TestEstimator:
    def test_linearity(self, composite, rng):
        k = k_of(700.0)
        est = estimation.Estimator(composite, k)
        s1 = rng.normal(size=64) + 1j * rng.normal(size=64)
        s2 = rng.normal(size=64) + 1j * rng.normal(size=64)
        a, b = 1.3 - 0.4j, -0.2 + 2.2j
        lhs = est.coeffs(a * s1 + b * s2, np.zeros(3), 6).coeffs
        rhs = a * est.coeffs(s1, np.zeros(3), 6).coeffs + b * est.coeffs(s2, np.zeros(3), 6).coeffs
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_zero_observation(self, composite):
        est = estimation.Estimator(composite, k_of(400.0))
        out = est.coeffs(np.zeros(64, dtype=complex), np.array([0.05, 0.0, 0.0]), 4)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_center_pressure_nmse(self, composite):
        # desk-scale point-source scene: pressure estimate at the array center
        k = k_of(500.0)
        src = np.array([1.5, 0.0, 0.0])
        scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=np.array([500.0]))
        obs = simulate.simulate_observation(scene, composite)[0]
        est = estimation.Estimator(composite, k)  # lambda = 1e-3 tr(Psi)/I
        pressure = est.coeffs(obs, np.zeros(3), 0).coeffs[0]
        truth = np.exp(-1j * k * 1.5) / (4.0 * np.pi * 1.5)
        nmse_db = 10.0 * math.log10(abs(pressure - truth) ** 2 / abs(truth) ** 2)
        assert nmse_db <= -20.0

    def test_retarget_equals_translate(self, composite):
        k = k_of(500.0)
        src = np.array([1.5, 0.0, 0.0])
        scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=np.array([500.0]))
        obs = simulate.simulate_observation(scene, composite)[0]
        est = estimation.Estimator(composite, k)
        n, buf = 5, 12
        r_b = np.array([-0.071, 0.071, 0.0])
        direct = est.coeffs(obs, r_b, n)
        translated = wf.translate_coeffs(est.coeffs(obs, np.zeros(3), n + buf), r_b, out_order=n)
        rel = np.linalg.norm(direct.coeffs - translated.coeffs) / np.linalg.norm(direct.coeffs)
        assert rel < 1e-3

    def test_forward_consistency_bias_monotone_in_lambda(self, composite):
        # noiseless observations of a low-order field are reproduced, with a
        # reconstruction bias that only grows with lambda
        k = k_of(500.0)
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.5, 0.2, -0.1])),),
            freqs=np.array([500.0]))
        s = simulate.simulate_observation(scene, composite)[0]
        errs = []
        tr = np.real(np.trace(estimation.build_psi(composite, k))) / 64
        for lam in (1e-6 * tr, 1e-4 * tr, 1e-2 * tr):
            est = estimation.Estimator(composite, k, lam=lam)
            alpha = est.coeffs(s, np.zeros(3), 20)
            s_hat = est.predicted_observation(alpha)
            errs.append(np.linalg.norm(s_hat - s) / np.linalg.norm(s))
        assert errs[0] < errs[1] < errs[2]

    def test_solve_repeatable(self, composite, rng):
        est = estimation.Estimator(composite, k_of(300.0))
        s = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert np.array_equal(est.solve(s), est.solve(s.copy()))

    def test_solve_matrix_right_hand_side(self, composite, rng):
        # an (n_mics, K) right-hand side is solved column by column
        est = estimation.Estimator(composite, k_of(300.0))
        s = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        w = est.solve(s)
        assert w.shape == (64, 3)
        for j in range(3):
            assert np.max(np.abs(w[:, j] - est.solve(s[:, j]))) < 1e-12 * np.max(np.abs(w))
        with pytest.raises(ValueError):
            est.solve(np.zeros((63, 3)))
        with pytest.raises(ValueError):
            est.solve(np.zeros((64, 3, 1)))

    def test_xi_keeps_only_the_last_target(self, rng):
        # a head-tracking session visits unboundedly many positions: only
        # the most recent synthesis matrix may stay alive
        est = estimation.Estimator(arrays.build_small_array(), k_of(500.0))
        refs = [weakref.ref(est.xi(rng.uniform(-0.1, 0.1, 3), 2)) for _ in range(100)]
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert len(alive) == 1
        assert alive[0] is refs[-1]()

    def test_xi_repeated_target_reused(self, composite):
        est = estimation.Estimator(composite, k_of(500.0))
        target = np.array([0.01, -0.02, 0.03])
        xi = est.xi(target, 4)
        assert est.xi(target.copy(), 4) is xi
        assert est.xi(target, 5) is not xi

    def test_agreement_with_rigid_sphere_estimator(self, composite, sphere_array):
        # both 64-mic arrays listening to the same scene agree on the pressure
        # at the center within 5% below 1 kHz
        for f in (300.0, 700.0):
            k = k_of(f)
            src = np.array([1.5, 0.0, 0.0])
            scene = simulate.Scene(sources=(simulate.PointSource(src),), freqs=np.array([f]))
            obs_c = simulate.simulate_observation(scene, composite)[0]
            obs_s = simulate.simulate_observation(scene, sphere_array)[0]
            a_c = estimation.Estimator(composite, k).coeffs(obs_c, np.zeros(3), 0).coeffs[0]
            a_s = estimation.rigid_sphere_estimate(obs_s, sphere_array, k, 5).coeffs[0]
            assert abs(a_c - a_s) / abs(a_s) < 0.05

    def test_invalid_lambda(self, composite):
        with pytest.raises(ValueError):
            estimation.Estimator(composite, k_of(500.0), lam=-1.0)

    def test_estimate_coeffs_wrapper(self, composite):
        k = k_of(500.0)
        scene = simulate.Scene(
            sources=(simulate.PointSource(np.array([1.5, 0.0, 0.0])),),
            freqs=np.array([500.0]))
        s = simulate.simulate_observation(scene, composite)[0]
        a = estimation.estimate_coeffs(s, composite, np.zeros(3), k, order=3)
        b = estimation.Estimator(composite, k).coeffs(s, np.zeros(3), 3)
        assert np.array_equal(a.coeffs, b.coeffs)
