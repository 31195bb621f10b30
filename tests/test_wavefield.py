"""Wavefield oracles: Green's function, plane-wave exponential, field
translation/rotation against direct evaluation."""

import math

import numpy as np
import pytest

from binrender import wavefield as wf
from binrender.special import EulerAngles, orders_degrees
from binrender.utils import rotation_matrix_zyz

C = 346.2


def k_of(f):
    return 2.0 * math.pi * f / C


def green(points, src, k):
    d = np.linalg.norm(np.atleast_2d(points) - src[None, :], axis=-1)
    return np.exp(-1j * k * d) / (4.0 * np.pi * d)


def unit_wavefunction(n, m, point, k):
    """sqrt(4 pi) j_n(k r) Y_n^m at ``point``: the field of the unit coefficient vector (n, m)."""
    coeffs = np.zeros((n + 1) ** 2)
    coeffs[n * n + n + m] = 1.0
    return wf.evaluate_field(wf.ShCoeffVec(coeffs, np.zeros(3), k, n), point)


class TestSphericalWavefunction:
    def test_origin_monopole(self):
        assert unit_wavefunction(0, 0, np.zeros(3), 10.0) == pytest.approx(1.0)
        assert unit_wavefunction(2, 1, np.zeros(3), 10.0) == 0.0

    def test_composed_from_parts(self):
        from scipy.special import spherical_jn, sph_harm_y

        got = unit_wavefunction(1, 0, np.array([0.0, 0.0, 0.1]), 10.0)
        want = math.sqrt(4 * math.pi) * spherical_jn(1, 1.0) * sph_harm_y(1, 0, 0.0, 0.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_large_argument_decay(self):
        k = 100.0
        r = np.array([0.0, 0.0, 5.0])  # kr = 500 >> n
        for n in (0, 3, 7):
            assert abs(unit_wavefunction(n, 0, r, k)) < 4.0 / (k * 5.0)


class TestEvaluateField:
    def test_value_at_center_is_alpha00(self, rng):
        coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
        alpha = wf.ShCoeffVec(coeffs, np.array([0.1, -0.2, 0.3]), 12.0, 3)
        assert wf.evaluate_field(alpha, alpha.center) == pytest.approx(coeffs[0], rel=1e-12)

    def test_zero_vector(self):
        alpha = wf.ShCoeffVec(np.zeros(4), np.zeros(3), 5.0, 1)
        assert wf.evaluate_field(alpha, np.array([0.01, 0.0, 0.0])) == 0.0

    def test_point_source_field_oracle(self, rng):
        k = k_of(1000.0)
        src = np.array([1.5, 0.0, 0.0])
        alpha = wf.point_source_coeffs(src, np.zeros(3), k, 30)
        pts = rng.normal(size=(10, 3))
        pts = pts / np.linalg.norm(pts, axis=1)[:, None] * rng.uniform(0.05, 0.2, (10, 1))
        est = wf.evaluate_field(alpha, pts)
        ref = green(pts, src, k)
        assert np.max(np.abs(est - ref) / np.abs(ref)) < 1e-6


class TestPointSourceCoeffs:
    def test_alpha00_is_green(self):
        k = k_of(700.0)
        src = np.array([0.3, 1.2, -0.4])
        alpha = wf.point_source_coeffs(src, np.zeros(3), k, 10)
        assert alpha.coeffs[0] == pytest.approx(green(np.zeros(3), src, k)[0], rel=1e-12)

    def test_axial_source_axisymmetric(self):
        alpha = wf.point_source_coeffs(np.array([0.0, 0.0, 2.0]), np.zeros(3), 9.0, 8)
        n, m = orders_degrees(8)
        assert np.max(np.abs(alpha.coeffs[m != 0])) == 0.0

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            wf.point_source_coeffs(np.zeros(3), np.zeros(3), 5.0, 3)

    def test_error_decays_with_order_past_kr(self):
        # truncation error of the expanded Green's function drops steeply
        # once N grows past k * r_eval
        k = k_of(1500.0)
        src = np.array([1.3, 0.5, 0.0])
        pt = np.array([0.06, -0.09, 0.05])  # k|pt| ~ 3.2
        ref = green(pt, src, k)[0]
        errs = []
        for order in (5, 10, 20):
            alpha = wf.point_source_coeffs(src, np.zeros(3), k, order)
            errs.append(abs(wf.evaluate_field(alpha, pt) - ref) / abs(ref))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-10


class TestPlaneWaveCoeffs:
    def test_unit_pressure_at_center(self):
        alpha = wf.plane_wave_coeffs(np.array([0.0, 1.0, 0.0]), 7.0, 6)
        assert alpha.coeffs[0] == pytest.approx(1.0, rel=1e-12)

    def test_reconstruction(self, rng):
        k = 25.0
        for _ in range(6):
            eta = rng.normal(size=3)
            eta /= np.linalg.norm(eta)
            alpha = wf.plane_wave_coeffs(eta, k, 20)
            pts = rng.normal(size=(8, 3))
            pts = pts / np.linalg.norm(pts, axis=1)[:, None] * rng.uniform(0, 5.0 / k, (8, 1))
            est = wf.evaluate_field(alpha, pts)
            ref = np.exp(1j * k * pts @ eta)
            assert np.max(np.abs(est - ref)) < 1e-6

    def test_axial_incidence_axisymmetric(self):
        alpha = wf.plane_wave_coeffs(np.array([0.0, 0.0, 1.0]), 3.0, 7)
        n, m = orders_degrees(7)
        assert np.max(np.abs(alpha.coeffs[m != 0])) == 0.0

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            wf.plane_wave_coeffs(np.array([0.0, 0.0, 2.0]), 3.0, 4)


class TestTranslationMatrix:
    def test_zero_displacement_identity(self):
        t = wf.translation_matrix(np.zeros(3), 11.0, 4, 6)
        assert np.array_equal(t.entries, np.eye(25, 49))

    def test_adjoint_relation_elementwise(self):
        k = k_of(900.0)
        d = np.array([0.08, -0.13, 0.05])
        ta = wf.translation_matrix(d, k, 8, 8)
        tb = wf.translation_matrix(-d, k, 8, 8)
        assert np.max(np.abs(tb.entries - ta.entries.conj().T)) < 1e-12

    def test_field_translation_oracle(self):
        # translate the local expansion of a point source and compare with
        # re-expanding / direct Green's function evaluation near the new center
        src = np.array([1.5, 0.4, -0.2])
        for f, dvec in ((500.0, np.array([0.1, 0.0, 0.0])),
                        (2000.0, np.array([0.12, -0.1, 0.08]))):
            k = k_of(f)
            n_out = 10
            buf = wf.translation_buffer(k * np.linalg.norm(dvec))
            alpha = wf.point_source_coeffs(src, np.zeros(3), k, n_out + buf)
            moved = wf.translate_coeffs(alpha, dvec, out_order=n_out)
            pts = dvec[None, :] + 0.02 * np.array([[0.3, -1.0, 0.5], [0, 0, 0], [1.0, 0.2, -0.4]])
            est = wf.evaluate_field(moved, pts)
            ref = green(pts, src, k)
            assert np.max(np.abs(est - ref) / np.abs(ref)) < 1e-4

    def test_group_property_error_decreases_with_buffer(self):
        k = k_of(1000.0)
        src = np.array([1.5, 0.2, -0.1])
        d1 = np.array([0.05, 0.02, -0.03])
        d2 = np.array([-0.02, 0.04, 0.05])
        n = 8
        errs = []
        for buf in (2, 5, 10):
            a0 = wf.point_source_coeffs(src, np.zeros(3), k, n + 2 * buf)
            chained = wf.translate_coeffs(
                wf.translate_coeffs(a0, d1, out_order=n + buf), d1 + d2, out_order=n)
            direct = wf.translate_coeffs(a0, d1 + d2, out_order=n)
            errs.append(np.linalg.norm(chained.coeffs - direct.coeffs)
                        / np.linalg.norm(direct.coeffs))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_equals_scalar_gaunt_sum(self):
        # every element against the defining sum, term by term from entries
        # of the Gaunt grids, scalar harmonics and scalar Bessel values
        from scipy.special import spherical_jn, sph_harm_y

        from binrender.special import gaunt_grid

        k = k_of(1100.0)
        for d in (np.array([0.08, -0.13, 0.05]), np.array([0.0, 0.0, -0.2])):
            r = np.linalg.norm(d)
            theta, phi = math.acos(d[2] / r), math.atan2(d[1], d[0])
            got = wf.translation_matrix(d, k, 4, 3).entries
            want = np.zeros((25, 16), dtype=complex)
            for n_out in range(5):
                for mp in range(-n_out, n_out + 1):
                    for n in range(4):
                        for m in range(-n, n + 1):
                            acc = 0.0
                            for l in range(abs(n - n_out), n + n_out + 1):
                                acc += (1j**l * spherical_jn(l, k * r)
                                        * np.conj(sph_harm_y(l, mp - m, theta, phi))
                                        * gaunt_grid(n, n_out, l)[m + n, n_out - mp])
                            want[n_out**2 + n_out + mp, n * n + n + m] = (
                                4.0 * math.pi * (-1.0) ** m * 1j ** (n_out - n) * acc)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_wavenumber_mismatch_asserts(self):
        t = wf.translation_matrix(np.array([0.1, 0, 0]), 5.0, 3, 3)
        alpha = wf.ShCoeffVec(np.zeros(16), np.zeros(3), 6.0, 3)
        with pytest.raises(AssertionError):
            t.apply(alpha)


class TestTranslateCoeffs:
    def test_same_center_identity(self, rng):
        coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
        alpha = wf.ShCoeffVec(coeffs, np.zeros(3), 8.0, 4)
        again = wf.translate_coeffs(alpha, np.zeros(3))
        assert np.array_equal(again.coeffs, coeffs)

    def test_alpha00_equals_field_at_new_center(self):
        k = k_of(800.0)
        src = np.array([1.2, -0.6, 0.3])
        alpha = wf.point_source_coeffs(src, np.zeros(3), k, 26)
        new_center = np.array([0.07, 0.03, -0.04])
        moved = wf.translate_coeffs(alpha, new_center, out_order=6)
        ref = wf.evaluate_field(alpha, new_center)
        assert moved.coeffs[0] == pytest.approx(ref, rel=1e-8)


class TestRotateCoeffs:
    def test_identity_angles(self, rng):
        coeffs = rng.normal(size=16) + 1j * rng.normal(size=16)
        alpha = wf.ShCoeffVec(coeffs, np.zeros(3), 4.0, 3)
        out = wf.rotate_coeffs(alpha, EulerAngles())
        assert np.max(np.abs(out.coeffs - coeffs)) < 1e-14

    def test_inverse_roundtrip(self, rng):
        coeffs = rng.normal(size=36) + 1j * rng.normal(size=36)
        alpha = wf.ShCoeffVec(coeffs, np.zeros(3), 4.0, 5)
        ang = EulerAngles(0.6, 1.2, -0.8)
        back = wf.rotate_coeffs(wf.rotate_coeffs(alpha, ang), ang.inverse())
        assert np.max(np.abs(back.coeffs - coeffs)) < 1e-10

    def test_field_rotation_oracle(self, rng):
        # head-frame convention: rotated coefficients at x equal the original
        # field at R(angles) x
        k = k_of(1200.0)
        alpha = wf.point_source_coeffs(np.array([1.1, 0.7, -0.5]), np.zeros(3), k, 16)
        ang = EulerAngles(0.5, 0.8, -0.4)
        rot = wf.rotate_coeffs(alpha, ang)
        r = rotation_matrix_zyz(ang.alpha, ang.beta, ang.gamma)
        for _ in range(5):
            x = rng.normal(size=3)
            x *= 0.05 / np.linalg.norm(x)
            assert wf.evaluate_field(rot, x) == pytest.approx(
                wf.evaluate_field(alpha, r @ x), abs=1e-8)

    def test_per_order_norm_preserved(self, rng):
        coeffs = rng.normal(size=49) + 1j * rng.normal(size=49)
        alpha = wf.ShCoeffVec(coeffs, np.zeros(3), 4.0, 6)
        rot = wf.rotate_coeffs(alpha, EulerAngles(1.0, 0.7, 0.2))
        for n in range(7):
            sl = slice(n * n, n * n + 2 * n + 1)
            assert np.linalg.norm(rot.coeffs[sl]) == pytest.approx(
                np.linalg.norm(coeffs[sl]), abs=1e-12)

    def test_yaw_phases(self, rng):
        # pure yaw by psi multiplies alpha_n^m by exp(+j m psi)
        coeffs = rng.normal(size=25) + 1j * rng.normal(size=25)
        alpha = wf.ShCoeffVec(coeffs, np.zeros(3), 4.0, 4)
        psi = 0.7
        rot = wf.rotate_coeffs(alpha, EulerAngles(psi, 0.0, 0.0))
        _, m = orders_degrees(4)
        assert np.max(np.abs(rot.coeffs - coeffs * np.exp(1j * m * psi))) < 1e-12


class TestTranslateMulti:
    @staticmethod
    def per_degree_loop(d, k, order_out, c):
        """T(d_p, k) c_p as explicit n/n_out/l/m loops, one SH call per l."""
        from scipy.special import sph_harm_y

        from binrender.special import gaunt_grid, ipow, sph_jn_table

        order_in = math.isqrt(c.shape[1]) - 1
        r = np.linalg.norm(d, axis=1)
        # any direction at d = 0, where j_l(0) keeps only l = 0
        theta, phi = np.arctan2(np.hypot(d[:, 0], d[:, 1]), d[:, 2]), np.arctan2(d[:, 1], d[:, 0])
        lmax = order_out + order_in
        jl = sph_jn_table(lmax, k * r).T
        y_conj = np.zeros((d.shape[0], lmax + 1, 2 * lmax + 1), dtype=complex)
        for l in range(lmax + 1):
            mu = np.arange(-l, l + 1)
            y_conj[:, l, mu + lmax] = np.conj(sph_harm_y(l, mu[None, :], theta[:, None], phi[:, None]))
        out = np.zeros((d.shape[0], (order_out + 1) ** 2), dtype=complex)
        for n in range(order_in + 1):
            for n_out in range(order_out + 1):
                mp = np.arange(-n_out, n_out + 1)
                pref = 4.0 * math.pi * ipow(n_out - n)
                for l in range(abs(n - n_out), n + n_out + 1, 2):
                    g = gaunt_grid(n, n_out, l)[:, ::-1].T
                    w_l = (ipow(l) * pref) * jl[:, l]
                    for mi, m in enumerate(range(-n, n + 1)):
                        sign = -1.0 if m % 2 else 1.0
                        out[:, n_out * n_out : (n_out + 1) ** 2] += (
                            (sign * w_l * c[:, n * n + mi])[:, None]
                            * y_conj[:, l, mp + (lmax - m)] * g[None, :, mi])
        return out

    def test_equals_per_degree_loop(self, rng):
        # the same products, each (n, n_out) step summed in one reduction:
        # equal up to reassociation rounding
        ds = rng.normal(scale=0.15, size=(7, 3))
        ds[2] = [0.0, 0.0, 0.1]
        for order_in, order_out in ((0, 5), (1, 12), (2, 3)):
            cs = rng.normal(size=(7, (order_in + 1) ** 2)) + 1j * rng.normal(size=(7, (order_in + 1) ** 2))
            got = wf.translate_multi(ds, 21.0, order_out, cs)
            want = self.per_degree_loop(ds, 21.0, order_out, cs)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("order_in", [0, 1, 2])
    def test_plan_equals_translate_multi(self, rng, order_in):
        # the angular sums per radial offset, contracted at any k and any
        # order up to the plan's, give the explicit loop's rows transposed
        ds = rng.normal(scale=0.15, size=(7, 3))
        ds[4] = 0.0
        cs = rng.normal(size=(7, (order_in + 1) ** 2)) + 1j * rng.normal(size=(7, (order_in + 1) ** 2))
        plan = wf.TranslationPlan.build(ds, 12, cs)
        assert plan.angular.shape == (2 * order_in + 1, 169, 7)
        ks = np.array([3.0, 21.0, 90.0])
        table = plan.radial(ks, 12)  # one table for every k, sliced per k
        assert table.shape == (3, 13 + order_in, plan.radii.size)
        for b, k in enumerate(ks):
            assert np.array_equal(table[b], plan.radial(k, 12))
            for order in (0, 1, 12):
                want = self.per_degree_loop(ds, k, order, cs)
                got = plan.apply(table[b], order)
                assert np.max(np.abs(got.T - want)) < 1e-12 * np.max(np.abs(want))
                assert np.array_equal(got, plan.apply(plan.radial(k, order), order))
        with pytest.raises(ValueError):
            plan.apply(plan.radial(21.0, 13), 13)

    def test_plan_refuses_a_width_that_is_not_a_square(self, rng):
        # a trailing column would otherwise be dropped without a word
        ds = rng.normal(scale=0.15, size=(3, 3))
        with pytest.raises(ValueError, match="perfect-square"):
            wf.TranslationPlan.build(ds, 4, np.ones((3, 5)))

    @pytest.mark.parametrize("order_in", [0, 1, 2])
    def test_fold_equals_row_products(self, rng, order_in):
        # per-degree weights against rows give the inner products of the rows
        # with the translated vectors at any k
        ds = rng.normal(scale=0.15, size=(7, 3))
        ds[4] = 0.0
        width = (order_in + 1) ** 2
        cs = rng.normal(size=(7, width)) + 1j * rng.normal(size=(7, width))
        rows = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
        plan = wf.TranslationPlan.build(ds, 2, cs)
        w = plan.fold(rows)
        assert w.shape == (3 + order_in, 7)
        for k in (3.0, 21.0, 90.0):
            radial = plan.radial(k, 2)
            want = np.einsum("pq,qp->p", rows, plan.apply(radial, 2))
            got = np.einsum("lp,lp->p", radial[:, plan.radius_index], w)
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_matches_dense_matrix(self, rng):
        k = 14.0
        ds = rng.normal(scale=0.15, size=(6, 3))
        ds[3] = 0.0
        cs = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        out = wf.translate_multi(ds, k, 7, cs)
        for p in range(6):
            ref = wf.translation_matrix(ds[p], k, 7, 1).entries @ cs[p]
            assert np.max(np.abs(out[p] - ref)) < 1e-12
