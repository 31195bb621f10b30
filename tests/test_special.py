"""Special-function oracles: series, quadrature, finite differences, sympy."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import sph_harm_y, spherical_jn

from binrender import special as sp
from binrender.utils import cart2sph, rotation_matrix_zyz


def series_bessel_j(n, x, terms=30):
    """Power-series oracle: j_n(x) = sum_s (-1)^s x^(n+2s) / (2^s s! (2n+2s+1)!!)."""
    total = 0.0
    for s in range(terms):
        total += (-1.0) ** s * x ** (n + 2 * s) / (
            2.0**s * math.factorial(s) * _double_factorial(2 * n + 2 * s + 1)
        )
    return total


def _double_factorial(n):
    out = 1.0
    while n > 1:
        out *= n
        n -= 2
    return out


class TestBessel:
    def test_j0_closed_form(self):
        assert spherical_jn(0, 1.0) == pytest.approx(math.sin(1.0) / 1.0, abs=1e-12)
        assert spherical_jn(0, 1.0) == pytest.approx(0.8414709848, abs=1e-9)

    def test_j1_at_origin(self):
        assert spherical_jn(1, 0.0) == 0.0
        assert spherical_jn(0, 0.0) == 1.0

    def test_series_oracle(self):
        assert spherical_jn(5, 10.0) == pytest.approx(series_bessel_j(5, 10.0), abs=1e-12)

    @pytest.mark.parametrize("n,x", [(2, 0.3), (8, 4.0), (15, 2.0)])
    def test_more_series_points(self, n, x):
        assert spherical_jn(n, x) == pytest.approx(series_bessel_j(n, x), rel=1e-12)

    def test_downward_stability_small_argument(self):
        # x << n regime must come out tiny but finite and positive
        val = spherical_jn(40, 1.0)
        assert 0 < val < 1e-50
        assert np.isfinite(val)


class TestSphJnTable:
    """The radial kernel: every degree of j_l(z) in one pass."""

    # 0, tiny, around the integers the recurrences switch at, at zeros of
    # j_0 (where Miller scales to j_1), and up to 300
    Z = np.concatenate([[0.0, 1e-6], np.geomspace(1e-3, 300.0, 29),
                        [0.5, 1.0, 2.0, 2.5, 6.8, 19.0, 19.5, 36.0, 90.0],
                        np.pi * np.arange(1, 6)])

    def test_against_mpmath(self):
        import mpmath
        from scipy.special import spherical_jn

        lmax, z = 90, self.Z[self.Z > 0]
        with mpmath.workdps(40):
            want = np.array([[float(mpmath.besselj(l + mpmath.mpf(1) / 2, zi)
                                    * mpmath.sqrt(mpmath.pi / (2 * mpmath.mpf(zi))))
                              for zi in z] for l in range(lmax + 1)])
        err = np.abs(sp.sph_jn_table(lmax, z) - want)
        scipy_err = np.abs(spherical_jn(np.arange(lmax + 1)[:, None], z) - want)
        floor = 1e-15 * np.max(np.abs(want), axis=0)
        assert np.all(err <= np.maximum(2.0 * scipy_err, floor))

    def test_values_independent_of_lmax_and_batch(self, rng):
        # a long batch against single values and a short subset
        z = np.concatenate([self.Z, rng.uniform(0.0, 40.0, 1500)])
        table = sp.sph_jn_table(40, z)
        for lmax in (2, 3, 12, 39):
            assert np.array_equal(sp.sph_jn_table(lmax, z), table[: lmax + 1])
        for i in range(z.size):
            assert np.array_equal(sp.sph_jn_table(40, z[i]), table[:, i])
        subset = rng.permutation(z.size)[:50]
        assert np.array_equal(sp.sph_jn_table(40, z[subset]), table[:, subset])
        # array shape is kept: (lmax + 1,) + z.shape
        assert np.array_equal(sp.sph_jn_table(40, z[:20].reshape(4, 5)),
                              table[:, :20].reshape(41, 4, 5))

    @pytest.mark.parametrize("lmax", [0, 1, 2, 5, 40])
    def test_bitwise_scipy_below_z_and_at_degrees_0_1(self, lmax, rng):
        from scipy.special import spherical_jn

        z = np.concatenate([self.Z, rng.uniform(0.0, 60.0, 300)])
        l = np.arange(lmax + 1)[:, None]
        upward = (l < z) | (l <= 1)
        got = sp.sph_jn_table(lmax, z)
        assert np.array_equal(got[upward], spherical_jn(l, z)[upward])

    def test_origin_and_tiny_argument(self):
        table = sp.sph_jn_table(30, np.array([0.0, 1e-6]))
        assert np.array_equal(table[:, 0], np.eye(31)[0])
        assert np.all(np.isfinite(table[:, 1]))
        series = np.array([series_bessel_j(n, 1e-6, terms=3) for n in range(31)])
        assert np.max(np.abs(table[:, 1] - series)) <= 1e-16


class TestHankel2:
    def test_h0_closed_form(self):
        # h_0(x) = j exp(-j x) / x under the exp(+j w t) convention
        got = sp.sph_hankel2(0, 1.0)
        want = 1j * np.exp(-1j * 1.0) / 1.0
        assert got == pytest.approx(want, abs=1e-12)
        assert got.real == pytest.approx(0.8414709848, abs=1e-9)
        assert got.imag == pytest.approx(0.5403023059, abs=1e-9)

    def test_asymptotic_envelope(self):
        x = 1.0e4
        for n in range(11):
            assert abs(sp.sph_hankel2(n, x)) * x == pytest.approx(1.0, rel=1e-3)

    def test_independent_recurrence_oracle(self):
        # upward recurrences for j and y seeded from closed forms at n = 0, 1
        x = 5.0
        j = [math.sin(x) / x, math.sin(x) / x**2 - math.cos(x) / x]
        y = [-math.cos(x) / x, -math.cos(x) / x**2 - math.sin(x) / x]
        for n in range(1, 2 + 1):
            j.append((2 * n + 1) / x * j[n] - j[n - 1])
            y.append((2 * n + 1) / x * y[n] - y[n - 1])
        assert sp.sph_hankel2(2, 5.0) == pytest.approx(j[2] - 1j * y[2], rel=1e-12)

    def test_singular_at_zero(self):
        with pytest.raises(ValueError):
            sp.sph_hankel2(0, 0.0)
        with pytest.raises(ValueError):
            sp.sph_hankel2_deriv(3, 0.0)


class TestDerivatives:
    def test_wronskian_paper_identity(self):
        # j_n h_n' - j_n' h_n = -j / x^2, the identity the rigid-baffle
        # observation model rests on
        worst = 0.0
        for n in range(21):
            for x in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0):
                w = spherical_jn(n, x) * sp.sph_hankel2_deriv(n, x) \
                    - spherical_jn(n, x, derivative=True) * sp.sph_hankel2(n, x)
                worst = max(worst, abs(w - (-1j / x**2)))
        assert worst < 1e-10

    def test_j0_prime_recurrence(self):
        assert spherical_jn(0, 2.0, derivative=True) == pytest.approx(-spherical_jn(1, 2.0),
                                                                      abs=1e-14)

    def test_finite_difference_oracle(self):
        h = 1e-6
        fd = (spherical_jn(3, 7.0 + h) - spherical_jn(3, 7.0 - h)) / (2 * h)
        assert spherical_jn(3, 7.0, derivative=True) == pytest.approx(fd, rel=1e-6)
        fdh = (sp.sph_hankel2(3, 7.0 + h) - sp.sph_hankel2(3, 7.0 - h)) / (2 * h)
        assert sp.sph_hankel2_deriv(3, 7.0) == pytest.approx(fdh, rel=1e-6)


class TestSphericalHarmonics:
    def test_y00(self):
        assert sp.sh_matrix(0, 0.7, 1.3)[0, 0] == pytest.approx(0.2820947918, abs=1e-9)

    def test_y10_at_pole(self):
        assert sp.sh_matrix(1, 0.0, 0.0)[0, 2] == pytest.approx(0.4886025119, abs=1e-9)

    def test_orthonormality_quadrature(self, quad_grid):
        theta, phi, w = quad_grid
        y = sp.sh_matrix(10, theta, phi)
        gram = (y.conj() * w[:, None]).T @ y
        assert np.max(np.abs(gram - np.eye(121))) < 1e-8

    @pytest.mark.parametrize("order", [0, 1, 7, 35])
    def test_sh_matrix_equals_broadcast_sph_harm_y(self, order):
        # the one-table sh_matrix against the per-(n, m) scipy evaluation,
        # poles included
        from scipy.special import sph_harm_y

        theta = np.concatenate([[0.0, math.pi], np.linspace(0.05, 3.1, 9)])
        phi = np.concatenate([[0.3, -2.0], np.linspace(-3.0, 6.0, 9)])
        n, m = sp.orders_degrees(order)
        want = sph_harm_y(n[None, :], m[None, :], theta[:, None], phi[:, None])
        got = sp.sh_matrix(order, theta, phi)
        assert got.shape == (theta.size, sp.num_coeffs(order))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("lmax", [0, 1, 2, 19, 36, 45])
    def test_sh_table_is_bitwise_sph_harm_y_all(self, lmax, rng):
        # signed zeros and subnormals included: at theta = pi the Legendre
        # factors underflow, and the zeros' signs follow phi's
        from scipy.special import sph_harm_y_all

        poles = np.array([0.0, math.pi, 1e-9])
        edges = np.array([math.pi, -math.pi, 0.0, -0.0])
        theta = np.concatenate([np.repeat(poles, edges.size), rng.uniform(0.0, math.pi, 200)])
        phi = np.concatenate([np.tile(edges, poles.size), rng.uniform(-math.pi, math.pi, 200)])
        got = sp.sh_table(lmax, theta, phi)
        want = sph_harm_y_all(lmax, lmax, theta, phi)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # scalar angles and a 2-D grid broadcast like scipy's
        for th, ph in ((0.4, -1.2), (theta[:12].reshape(3, 4), 0.25)):
            assert sp.sh_table(lmax, th, ph).tobytes() == sph_harm_y_all(lmax, lmax, th, ph).tobytes()

    @pytest.mark.parametrize("lmax", [2, 19, 45])
    def test_legendre_table_is_real_part_at_zero_azimuth(self, lmax, rng):
        # the real tables of the Gaunt quadrature and the ring fit: the phase
        # is 1 + 0j, so bitwise away from the poles; at a pole the factors of
        # m < 0 are zeros whose sign may differ, equal in value
        from scipy.special import sph_harm_y_all, sph_legendre_p_all

        nodes = np.arccos(np.polynomial.legendre.leggauss(lmax + 1)[0])
        theta = np.concatenate([nodes, rng.uniform(1e-3, math.pi - 1e-3, 50)])
        got = sph_legendre_p_all(lmax, lmax, theta)[0]
        assert got.tobytes() == np.ascontiguousarray(sph_harm_y_all(lmax, lmax, theta, 0.0).real).tobytes()
        poles = np.array([0.0, math.pi])
        assert np.array_equal(sph_legendre_p_all(lmax, lmax, poles)[0],
                              sph_harm_y_all(lmax, lmax, poles, 0.0).real)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 12), st.data())
    def test_conjugation_symmetry(self, n, data):
        m = data.draw(st.integers(-n, n))
        theta = data.draw(st.floats(0.01, 3.13))
        phi = data.draw(st.floats(-3.0, 3.0))
        y = sp.sh_table(n, theta, phi)
        lhs = y[n, -m]
        rhs = (-1.0) ** m * np.conj(y[n, m])
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestGaunt:
    def test_all_zero_orders(self):
        g = sp.gaunt_grid(0, 0, 0)[0, 0]
        assert g == pytest.approx(1.0 / math.sqrt(4 * math.pi), abs=1e-12)

    def test_triangle_violation_exact_zero(self):
        assert sp.gaunt_grid(2, 1, 5)[3, 1] == 0.0
        assert sp.gaunt_grid(2, 2, 1)[2, 2] == 0.0  # below |n1-n2|? 1 in [0,4] but parity odd
        assert sp.gaunt_grid(3, 1, 1)[3, 1] == 0.0  # triangle: |3-1|=2 > 1

    def test_parity_zero_exact(self):
        assert sp.gaunt_grid(2, 1, 2)[3, 1] == 0.0

    def test_m_rule_zero_exact(self):
        # G(2, 2; 2, 1; 2): |m1 + m2| = 3 > l, with the triangle and parity rules met
        assert sp.gaunt_grid(2, 2, 2)[4, 3] == 0.0
        assert sp.gaunt_grid(1, 1, 0)[2, 2] == 0.0  # |m1+m2| = 2 > 0

    def test_quadrature_oracle(self, quad_grid):
        theta, phi, w = quad_grid
        cases = [(2, 1, 1, 0, 1), (3, -2, 4, 1, 5), (5, 3, 6, -2, 7), (4, 0, 4, 0, 8)]
        for n1, m1, n2, m2, l in cases:
            f = sph_harm_y(n1, m1, theta, phi) * sph_harm_y(n2, m2, theta, phi) \
                * np.conj(sph_harm_y(l, m1 + m2, theta, phi))
            ref = np.real(np.sum(f * w))
            assert sp.gaunt_grid(n1, n2, l)[m1 + n1, m2 + n2] == pytest.approx(ref, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exchange_symmetry(self, data):
        n1 = data.draw(st.integers(0, 10))
        n2 = data.draw(st.integers(0, 10))
        l = data.draw(st.integers(abs(n1 - n2), n1 + n2))
        m1 = data.draw(st.integers(-n1, n1))
        m2 = data.draw(st.integers(-n2, n2))
        g12 = sp.gaunt_grid(n1, n2, l)[m1 + n1, m2 + n2]
        assert g12 == sp.gaunt_grid(n2, n1, l)[m2 + n2, m1 + n1]

    def test_grid_exchange_symmetry_exhaustive(self):
        # bitwise, n1 == n2 included: G(10,-1; 10,-3; 10) once differed
        # from G(10,-3; 10,-1; 10) in the last bit
        for n1 in range(13):
            for n2 in range(n1 + 1):
                for l in range(n1 - n2, n1 + n2 + 1, 2):
                    assert np.array_equal(sp.gaunt_grid(n1, n2, l), sp.gaunt_grid(n2, n1, l).T)

    @staticmethod
    def fresh_table_grid(n1, n2, l):
        """``gaunt_grid`` on a q-node table of its own: leggauss, then one
        ``sph_legendre_p_all`` call at arccos of the nodes, then the same products."""
        from scipy.special import sph_legendre_p_all

        out = np.zeros((2 * n1 + 1, 2 * n2 + 1))
        if abs(n1 - n2) <= l <= n1 + n2 and (n1 + n2 + l) % 2 == 0:
            q = (n1 + n2 + l) // 2 + 1
            x, w = np.polynomial.legendre.leggauss(q)
            w = 2.0 * math.pi * w
            y = sph_legendre_p_all(q - 1, q - 1, np.arccos(x))[0]
            m1 = np.arange(-n1, n1 + 1)
            m2 = np.arange(-n2, n2 + 1)
            m3 = m1[:, None] + m2[None, :]
            valid = np.abs(m3) <= l
            y3w = y[l, np.where(valid, m3, 0)] * w
            terms = (y[n1, m1][:, None, :] * y[n2, m2][None, :, :]) * y3w
            out[valid] = terms[valid].sum(axis=-1)
        return out

    def test_grids_bitwise_on_tables_shared_within_a_build_only(self):
        # the grids a translation build computes share its tables, which it
        # releases; those asked for after it (the exchanged ones) take new
        # tables: every grid is bitwise the one a table of its own gives
        from binrender import wavefield

        sp.gaunt_grid.cache_clear()
        wavefield.translation_matrix(np.array([0.1, -0.05, 0.08]), 20.0, 10, 10)
        assert sp._gauss_legendre_sh.cache_info().currsize == 0
        for n1 in range(11):
            for n2 in range(11):
                for l in range(11):
                    assert sp.gaunt_grid(n1, n2, l).tobytes() == self.fresh_table_grid(n1, n2, l).tobytes()

    @pytest.mark.parametrize("n1,n2,l,stride", [
        (40, 40, 40, 7), (39, 36, 41, 7), (30, 40, 50, 7),
        (0, 35, 35, 1), (1, 35, 34, 1), (1, 35, 36, 1), (1, 20, 21, 1),
    ])
    def test_grid_against_sympy_gaunt(self, n1, n2, l, stride):
        # high-order grids on a strided (m1, m2) sub-grid, and triples of the
        # kind the estimator uses (directivity order <= 1, rendering order <= 35)
        from sympy.physics.wigner import gaunt

        grid = sp.gaunt_grid(n1, n2, l)
        scale = np.max(np.abs(grid))
        worst = 0.0
        for m1 in range(-n1, n1 + 1, stride):
            for m2 in range(-n2, n2 + 1, stride):
                if abs(m1 + m2) > l:
                    assert grid[m1 + n1, m2 + n2] == 0.0
                    continue
                # sympy's gaunt integrates three unconjugated harmonics
                ref = (-1) ** (m1 + m2) * float(gaunt(n1, n2, l, m1, m2, -m1 - m2))
                worst = max(worst, abs(grid[m1 + n1, m2 + n2] - ref))
        assert worst <= 1e-12 * scale


class TestWignerD:
    def test_identity_angles(self):
        for n in (0, 1, 4, 9):
            d = sp.wigner_d_block(n, sp.EulerAngles())
            assert np.max(np.abs(d - np.eye(2 * n + 1))) < 1e-14

    def test_unitarity(self, rng):
        for n in range(16):
            ang = sp.EulerAngles(*rng.uniform(-np.pi, np.pi, 3))
            d = sp.wigner_d_block(n, ang)
            assert np.max(np.abs(d @ d.conj().T - np.eye(2 * n + 1))) < 1e-12

    def test_composition(self, rng):
        for n in (1, 3, 6, 10):
            a1 = sp.EulerAngles(*rng.uniform(-2.0, 2.0, 3))
            a2 = sp.EulerAngles(*rng.uniform(-2.0, 2.0, 3))
            r12 = rotation_matrix_zyz(a1.alpha, a1.beta, a1.gamma) \
                @ rotation_matrix_zyz(a2.alpha, a2.beta, a2.gamma)
            comp = _euler_from_matrix(r12)
            d12 = sp.wigner_d_block(n, a1) @ sp.wigner_d_block(n, a2)
            dc = sp.wigner_d_block(n, comp)
            assert np.max(np.abs(d12 - dc)) < 1e-9

    def test_blocks_are_cached_and_read_only(self, rng):
        ang = sp.EulerAngles(*rng.uniform(-2.0, 2.0, 3))
        d = sp.wigner_d_block(4, ang)
        assert sp.wigner_d_block(4, sp.EulerAngles(ang.alpha, ang.beta, ang.gamma)) is d
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 0] = 1.0

    def test_cache_key_equality_keeps_bits(self):
        # the cache keys on ==, under which -0.0 == 0.0: such angles give the same bits
        for angles in (sp.EulerAngles(-0.0, 0.7, -0.0), sp.EulerAngles(1.1, -0.0, 0.0),
                       sp.EulerAngles(0.0, -0.0, -2.3)):
            flipped = sp.EulerAngles(*(-a if a == 0 else a for a in
                                       (angles.alpha, angles.beta, angles.gamma)))
            for n in (1, 3, 8):
                assert (sp.wigner_d_block.__wrapped__(n, angles).tobytes()
                        == sp.wigner_d_block.__wrapped__(n, flipped).tobytes())

    def test_rotation_identity_vs_direct_evaluation(self, rng):
        # sum_m' D[m', m] Y_n^m'(x) == Y_n^m(R^{-1} x)
        for n in (2, 5, 9):
            ang = sp.EulerAngles(*rng.uniform(-2.0, 2.0, 3))
            r = rotation_matrix_zyz(ang.alpha, ang.beta, ang.gamma)
            d = sp.wigner_d_block(n, ang)
            x = rng.normal(size=3)
            x /= np.linalg.norm(x)
            _, th, ph = cart2sph(x)
            _, thr, phr = cart2sph(r.T @ x)
            for m in (-n, 0, 1, n):
                lhs = sph_harm_y(n, m, thr, phr)
                rhs = np.sum(d[:, m + n] * sph_harm_y(n, np.arange(-n, n + 1), th, ph))
                assert lhs == pytest.approx(rhs, abs=1e-10)


def _euler_from_matrix(r):
    beta = math.acos(np.clip(r[2, 2], -1.0, 1.0))
    if abs(math.sin(beta)) < 1e-12:
        return sp.EulerAngles(math.atan2(r[1, 0], r[0, 0]), beta, 0.0)
    return sp.EulerAngles(math.atan2(r[1, 2], r[0, 2]), beta, math.atan2(r[2, 1], -r[2, 0]))


class TestShIndex:
    def test_order_degree_cache_bounded_above_the_order_cap(self):
        from binrender.rendering import synth_fir_filters

        cap = inspect.signature(synth_fir_filters).parameters["order_cap"].default
        maxsize = sp.orders_degrees.cache_info().maxsize
        assert maxsize is not None and maxsize > cap

    def test_order_degree_arrays(self):
        n, m = sp.orders_degrees(3)
        assert n.size == 16
        assert list(n[:4]) == [0, 1, 1, 1]
        assert list(m[:4]) == [0, -1, 0, 1]
        q = n * n + n + m
        assert list(q) == list(range(16))
