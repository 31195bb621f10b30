"""HRTF fitting and the rigid-sphere surrogate head."""

import math

import numpy as np
import pytest
from scipy.special import sph_harm_y

from binrender import hrtf
from binrender.special import num_coeffs, orders_degrees

C = 346.2


def _flat_set(directions, freqs, responses, radius=1.5):
    return hrtf.HrtfSet(radius=radius, directions=directions, freqs=np.asarray(freqs, float),
                        responses=responses, sample_rate=48000.0)


class TestFitSh:
    def test_exact_single_harmonic(self):
        grid = hrtf.fibonacci_grid(2000)
        h = np.conj(sph_harm_y(3, -2, grid[:, 0], grid[:, 1]))
        responses = np.broadcast_to(h, (2, 1, 2000)).copy()
        spec = hrtf.fit_sh(_flat_set(grid, [1000.0], responses), 6, gamma=0.0)
        q = 3 * 3 + 3 - 2
        assert spec.coeffs[0, 0, q] == pytest.approx(1.0, abs=1e-8)
        others = np.delete(spec.coeffs[0, 0], q)
        assert np.max(np.abs(others)) < 1e-8

    def test_huge_gamma_shrinks_to_zero(self):
        grid = hrtf.fibonacci_grid(400)
        responses = np.ones((2, 1, 400), dtype=complex)
        spec = hrtf.fit_sh(_flat_set(grid, [500.0], responses), 5, gamma=1e12)
        assert np.max(np.abs(spec.coeffs)) < 1e-8

    def test_monotone_weighted_shrinkage(self):
        grid = hrtf.fibonacci_grid(300)
        rng = np.random.default_rng(0)
        responses = (rng.normal(size=(2, 1, 300)) + 1j * rng.normal(size=(2, 1, 300)))
        prev = None
        n_all, _ = orders_degrees(5)
        q_diag = 1.0 + n_all * (n_all + 1.0)
        for gamma in (0.0, 1e-3, 1e-1, 10.0, 1e3):
            spec = hrtf.fit_sh(_flat_set(grid, [500.0], responses), 5, gamma=gamma)
            norm = math.sqrt(float(np.sum(q_diag * np.abs(spec.coeffs[0, 0]) ** 2)))
            if prev is not None:
                assert norm <= prev + 1e-12
            prev = norm

    def test_exact_recovery_of_band_limited_field(self, rng):
        order = 5
        grid = hrtf.fibonacci_grid(200)
        coeffs = rng.normal(size=num_coeffs(order)) + 1j * rng.normal(size=num_coeffs(order))
        n_all, m_all = orders_degrees(order)
        h = np.zeros(200, dtype=complex)
        for q in range(num_coeffs(order)):
            h += coeffs[q] * np.conj(sph_harm_y(n_all[q], m_all[q], grid[:, 0], grid[:, 1]))
        responses = np.broadcast_to(h, (2, 1, 200)).copy()
        spec = hrtf.fit_sh(_flat_set(grid, [700.0], responses), order, gamma=0.0)
        assert np.max(np.abs(spec.coeffs[0, 0] - coeffs)) < 1e-10

    def test_insufficient_directions(self):
        grid = hrtf.fibonacci_grid(20)
        responses = np.ones((2, 1, 20), dtype=complex)
        with pytest.raises(ValueError):
            hrtf.fit_sh(_flat_set(grid, [500.0], responses), 5)

    def test_singular_gamma_zero_reported(self):
        # 40 copies of the same 10 directions: rank-deficient at order 5
        base = hrtf.fibonacci_grid(10)
        grid = np.tile(base, (4, 1))
        responses = np.ones((2, 1, 40), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            hrtf.fit_sh(_flat_set(grid, [500.0], responses), 5, gamma=0.0)

    def test_roundtrip_synthetic_head_holdout(self):
        # order-35 fit of the synthetic head resynthesizes held-out directions
        # to better than 1% below 4 kHz
        head = hrtf.SyntheticHead()
        grid = hrtf.fibonacci_grid(1500)
        holdout = hrtf.fibonacci_grid(97)[13:60]
        freqs = [1000.0, 3900.0]
        hs = hrtf.synth_rigid_sphere_hrtf(head, grid, freqs, 1.5)
        spec = hrtf.fit_sh(hs, 35)
        resyn = spec.evaluate(holdout[:, 0], holdout[:, 1])
        ref = hrtf.synth_rigid_sphere_hrtf(head, holdout, freqs, 1.5).responses
        rel = np.abs(resyn - ref) / np.abs(ref)
        assert np.max(rel) < 0.01

    def test_fit_matches_analytic_spectrum(self):
        head = hrtf.SyntheticHead()
        grid = hrtf.fibonacci_grid(600)
        hs = hrtf.synth_rigid_sphere_hrtf(head, grid, [800.0], 1.5)
        fit = hrtf.fit_sh(hs, 14, gamma=0.0)
        ana = hrtf.rigid_sphere_hrtf_spectrum(head, [800.0], 1.5, 14)
        scale = np.max(np.abs(ana.coeffs))
        assert np.max(np.abs(fit.coeffs - ana.coeffs)) / scale < 1e-10

    def test_matches_dense_normal_equations(self, rng):
        # the zherk/matmul fit against the full GEMM normal matrix and the
        # einsum right-hand side it replaced
        from scipy.linalg import cho_factor, cho_solve

        from binrender.special import sh_matrix

        order = 12
        grid = hrtf.fibonacci_grid(500)
        responses = rng.normal(size=(2, 3, 500)) + 1j * rng.normal(size=(2, 3, 500))
        hs = _flat_set(grid, [300.0, 900.0, 2700.0], responses)
        y = np.conj(sh_matrix(order, grid[:, 0], grid[:, 1]))
        normal = y.conj().T @ y
        gamma = 1e-6 * np.real(np.trace(normal)) / num_coeffs(order)
        n_all, _ = orders_degrees(order)
        factor = cho_factor(normal + gamma * np.diag(1.0 + n_all * (n_all + 1.0)))
        rhs = np.einsum("jq,efj->efq", y.conj(), responses)
        want = cho_solve(factor, rhs.reshape(-1, rhs.shape[2]).T).T.reshape(rhs.shape)
        got = hrtf.fit_sh(hs, order).coeffs
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mirror_symmetry_relation(self):
        # mirror-symmetric set: h_R(theta, phi) = h_L(theta, -phi), and since
        # Y_n^m(theta, -phi) = conj(Y_n^m(theta, phi)) the fitted spectra obey
        # H_R,n^m = (-1)^m H_L,n^{-m} (complex responses: no conjugation)
        head = hrtf.SyntheticHead()
        grid = hrtf.fibonacci_grid(600)
        hs = hrtf.synth_rigid_sphere_hrtf(head, grid, [1200.0], 1.5)
        spec = hrtf.fit_sh(hs, 12)
        n_all, m_all = orders_degrees(12)
        left = spec.coeffs[0, 0]
        right = spec.coeffs[1, 0]
        for q in range(left.size):
            n, m = int(n_all[q]), int(m_all[q])
            q_neg = n * n + n - m
            assert right[q] == pytest.approx((-1.0) ** m * left[q_neg], abs=1e-8)


def _offset_ring_grid():
    """31 zenith rings of 72-74 azimuths, each turned by its own offset, shuffled."""
    rows = []
    for i, theta in enumerate(np.deg2rad(np.arange(10.0, 161.0, 5.0))):
        size = 72 + i % 3
        phi = (0.37 * i + 2.0 * np.pi * np.arange(size) / size) % (2.0 * np.pi)
        rows.append(np.column_stack([np.full(size, theta), phi]))
    grid = np.concatenate(rows)
    return grid[np.random.default_rng(7).permutation(grid.shape[0])]


@pytest.fixture(scope="module")
def ring_sets():
    head = hrtf.SyntheticHead()
    freqs = [300.0, 3000.0, 11900.0]
    return {name: hrtf.synth_rigid_sphere_hrtf(head, grid, freqs, 1.5)
            for name, grid in (("equiangular", hrtf.equiangular_grid()),
                               ("offset", _offset_ring_grid()))}


def _qr_fit(hs, order):
    """(2, F, (N+1)^2) least squares of [Y; sqrt(gamma Q)] by QR: no normal matrix."""
    from scipy.linalg import solve_triangular

    from binrender.special import sh_matrix

    y = np.conj(sh_matrix(order, hs.directions[:, 0], hs.directions[:, 1]))
    gamma = 1e-6 * np.sum(np.abs(y) ** 2) / num_coeffs(order)
    n_all, _ = orders_degrees(order)
    aug = np.vstack([y, np.diag(np.sqrt(gamma * (1.0 + n_all * (n_all + 1.0))))])
    q, r = np.linalg.qr(aug)
    h = hs.responses.reshape(-1, hs.n_directions).T
    x = solve_triangular(r, q[: hs.n_directions].conj().T @ h)
    return x.T.reshape(hs.responses.shape[:2] + (num_coeffs(order),))


class TestRingFit:
    """On zenith rings of > 2N uniform azimuths the fit splits by degree m."""

    @pytest.mark.parametrize("grid", ["equiangular", "offset"])
    @pytest.mark.parametrize("order", [0, 1, 18, 35])
    def test_matches_dense_fit(self, ring_sets, grid, order):
        hs = ring_sets[grid]
        assert hrtf._rings(hs.directions, order) is not None
        got = hrtf.fit_sh(hs, order).coeffs
        want = hrtf._fit_dense(hs, order, "auto")
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid, order", [("equiangular", 18), ("offset", 18),
                                             ("equiangular", 35), ("offset", 35)])
    def test_matches_qr_least_squares(self, ring_sets, grid, order):
        hs = ring_sets[grid]
        got = hrtf.fit_sh(hs, order).coeffs
        want = _qr_fit(hs, order)
        for fi in range(hs.freqs.size):
            scale = np.max(np.abs(want[:, fi]))
            assert np.max(np.abs(got[:, fi] - want[:, fi])) <= 2e-12 * scale

    def test_off_ring_layouts_take_dense_path(self):
        coarse = hrtf.equiangular_grid(azimuth_step_deg=10.0)  # rings of 36 azimuths
        assert hrtf._rings(coarse, 17) is not None
        assert hrtf._rings(coarse, 18) is None  # M <= 2N
        for order in (0, 5):  # one point per zenith
            assert hrtf._rings(hrtf.fibonacci_grid(400), order) is None
        nudged = coarse.copy()
        nudged[40, 1] += 1e-9  # one azimuth off its ring's uniform step
        assert hrtf._rings(nudged, 5) is None
        doubled = coarse.copy()
        doubled[40, 1] = doubled[41, 1]  # uniform step, one position twice
        assert hrtf._rings(doubled, 5) is None
        responses = np.ones((2, 1, coarse.shape[0]), dtype=complex)
        hs = _flat_set(nudged, [500.0], responses)
        assert np.array_equal(hrtf.fit_sh(hs, 5).coeffs, hrtf._fit_dense(hs, 5, "auto"))

    def test_too_few_rings_singular_at_gamma_zero(self):
        # 5 rings leave the order-5 m = 0 block (size 6) rank 5
        grid = np.array([(theta, 2.0 * np.pi * k / 40)
                         for theta in np.linspace(0.3, 2.8, 5) for k in range(40)])
        hs = _flat_set(grid, [500.0], np.ones((2, 1, 200), dtype=complex))
        assert hrtf._rings(grid, 5) is not None
        with pytest.raises(np.linalg.LinAlgError,
                           match="singular normal matrix in SH fit; the grid does not "
                                 "support order 5 at gamma=0"):
            hrtf.fit_sh(hs, 5, gamma=0.0)


class TestHrtfSet:
    @pytest.mark.parametrize("field, index, value", [
        ("directions", (3, 0), np.nan), ("directions", (5, 1), np.inf),
        ("freqs", 1, np.nan), ("responses", (1, 0, 2), np.inf),
        ("responses", (0, 1, 4), complex(0.0, np.nan)),
    ])
    def test_non_finite_input_rejected(self, field, index, value):
        args = {"directions": hrtf.fibonacci_grid(6), "freqs": np.array([200.0, 400.0]),
                "responses": np.ones((2, 2, 6), dtype=complex)}
        args[field] = args[field].astype(complex if field == "responses" else float)
        args[field][index] = value
        with pytest.raises(ValueError, match="must be finite"):
            hrtf.HrtfSet(radius=1.5, sample_rate=48000.0, **args)


class TestSyntheticHead:
    @pytest.mark.parametrize("kwargs", [
        {"radius": -0.08}, {"radius": 0.0}, {"radius": np.inf}, {"radius": np.nan},
        {"ear_azimuths": (1.0,)}, {"ear_azimuths": (1.0, -1.0, 0.0)},
    ], ids=["negative", "zero", "infinite", "nan", "one-ear", "three-ears"])
    def test_bad_head_rejected(self, kwargs):
        with pytest.raises(ValueError, match="head radius|ear_azimuths"):
            hrtf.SyntheticHead(**kwargs)

    def test_bright_point_maximum(self):
        # source facing an ear maximizes that ear's magnitude at >= 1 kHz
        head = hrtf.SyntheticHead()
        k = 2 * math.pi * 1500.0 / C
        azimuths = np.deg2rad(np.arange(0, 360, 10))
        mags = []
        for az in azimuths:
            src = 1.5 * np.array([math.cos(az), math.sin(az), 0.0])
            mags.append(abs(hrtf.ear_pressure(head, src, k)[0]))
        assert np.argmax(mags) == 9  # azimuth 90 deg = left ear direction

    def test_left_right_swap_under_mirror(self):
        head = hrtf.SyntheticHead()
        k = 2 * math.pi * 2000.0 / C
        src = 1.5 * np.array([math.cos(0.6), math.sin(0.6), 0.1])
        mirrored = src * np.array([1.0, -1.0, 1.0])
        a = hrtf.ear_pressure(head, src, k)
        b = hrtf.ear_pressure(head, mirrored, k)
        assert a[0] == pytest.approx(b[1], rel=1e-10)
        assert a[1] == pytest.approx(b[0], rel=1e-10)

    def test_low_frequency_ild_vanishes(self):
        # ka -> 0: head shadowing disappears. The residual level difference is
        # the near-field distance ratio, so the limit is probed with a distant
        # source (at 1.5 m the geometric ratio alone keeps ~1.5 dB).
        head = hrtf.SyntheticHead(radius=0.0875)
        k = 2 * math.pi * 100.0 / C
        src = 10.0 * np.array([0.0, 1.0, 0.0])  # facing the left ear
        p = hrtf.ear_pressure(head, src, k)
        ild_db = 20.0 * math.log10(abs(p[0]) / abs(p[1]))
        assert abs(ild_db) < 0.5

    def test_shadowing_grows_with_frequency(self):
        head = hrtf.SyntheticHead()
        src = 1.5 * np.array([0.0, 1.0, 0.0])
        ilds = []
        for f in (100.0, 3000.0):
            k = 2 * math.pi * f / C
            p = hrtf.ear_pressure(head, src, k)
            ilds.append(20.0 * math.log10(abs(p[0]) / abs(p[1])))
        assert ilds[1] > ilds[0]

    @staticmethod
    def scalar_series(radius, cos_gamma, source_distance, k, tol=1e-12, cap_order=400):
        """The series with two scalar scipy calls per order, summed n-ascending."""
        from binrender.special import sph_hankel2, sph_hankel2_deriv

        cos_gamma = np.asarray(cos_gamma, dtype=float)
        ka = k * radius
        kd = k * source_distance
        n_start = int(math.ceil(math.e * ka / 2.0)) + 16
        p_prev = np.ones_like(cos_gamma)
        p_curr = cos_gamma.copy()
        total = np.zeros(cos_gamma.shape, dtype=complex)
        n = 0
        ref = 0.0
        while True:
            if n == 0:
                pn = p_prev
            elif n == 1:
                pn = p_curr
            else:
                p_next = ((2 * n - 1) * cos_gamma * p_curr - (n - 1) * p_prev) / n
                p_prev, p_curr = p_curr, p_next
                pn = p_curr
            term = (2 * n + 1) * sph_hankel2(n, kd) / sph_hankel2_deriv(n, ka) * pn
            total += term
            ref = max(ref, float(np.max(np.abs(total))))
            if n >= n_start and float(np.max(np.abs(term))) < tol * max(ref, 1e-300):
                break
            n += 1
            if n > cap_order:
                raise RuntimeError("did not converge")
        return -total / (4.0 * math.pi * k * radius**2)

    def test_blocked_series_equals_scalar_series(self):
        # sources near the head need several blocks of orders, the scalar
        # cosine one block
        cos_g = np.cos(np.linspace(0.0, math.pi, 37))
        for f in (100.0, 1000.0, 6000.0, 12000.0, 20000.0):
            for dist in (0.12, 0.3, 1.5, 10.0):
                k = 2.0 * math.pi * f / C
                want = self.scalar_series(0.0875, cos_g, dist, k)
                assert np.array_equal(hrtf.rigid_sphere_pressure(0.0875, cos_g, dist, k), want)
        want = self.scalar_series(0.0875, 0.3, 1.5, 20.0)
        assert np.array_equal(hrtf.rigid_sphere_pressure(0.0875, 0.3, 1.5, 20.0), want)

    def test_blocked_series_non_convergence_as_scalar(self):
        # a low cap, and a source so close that the series overflows first
        k_low = 2.0 * math.pi * 100.0 / C
        for args in ((0.0875, 1.0, 1.5, 8000.0, 1e-12, 10), (0.0875, 0.2, 0.1, k_low, 1e-12, 400)):
            with np.errstate(all="ignore"), pytest.raises(RuntimeError):
                self.scalar_series(*args)
            with pytest.raises(RuntimeError, match="did not converge within"):
                hrtf.rigid_sphere_pressure(*args)

    def test_source_inside_sphere_rejected(self):
        with pytest.raises(ValueError):
            hrtf.rigid_sphere_pressure(0.0875, 1.0, 0.05, 10.0)

    def test_series_cap_reported(self):
        with pytest.raises(RuntimeError):
            hrtf.rigid_sphere_pressure(0.0875, 1.0, 1.5, 8000.0, cap_order=10)


class TestShSpectrum:
    @staticmethod
    def per_frequency_spectrum(head, freqs, measure_radius, order, sound_speed=C):
        """The closed-form spectrum with one pair of radial calls per frequency."""
        from binrender.special import sh_matrix, sph_hankel2, sph_hankel2_deriv
        from binrender.utils import cart2sph

        freqs = np.asarray(freqs, dtype=float)
        n_all, _ = orders_degrees(order)
        ears = np.stack([head.ear_direction(0), head.ear_direction(1)])
        _, theta, phi = cart2sph(ears)
        y_ear = sh_matrix(order, theta, phi)
        coeffs = np.empty((2, freqs.size, num_coeffs(order)), dtype=complex)
        for fi, f in enumerate(freqs):
            k = 2.0 * math.pi * f / sound_speed
            radial = sph_hankel2(np.arange(order + 1), k * measure_radius)
            gain = -radial[n_all] / (k * head.radius**2 * sph_hankel2_deriv(n_all, k * head.radius))
            coeffs[:, fi, :] = gain[None, :] * y_ear
        return coeffs

    @pytest.mark.parametrize("order, freqs", [
        (18, np.arange(9, 137) * 48000.0 / 4096),  # the narrow-band filter-bank grid
        (35, np.linspace(100.0, 12000.0, 9)),
        (0, [440.0]),
    ])
    def test_rigid_sphere_spectrum_equals_per_frequency_loop(self, order, freqs):
        head = hrtf.SyntheticHead(radius=0.0875, ear_azimuths=(1.4, -1.7))
        spec = hrtf.rigid_sphere_hrtf_spectrum(head, freqs, 1.5, order)
        assert np.array_equal(spec.coeffs, self.per_frequency_spectrum(head, freqs, 1.5, order))

    @pytest.mark.parametrize("freqs", [[300.0], [200.0, 400.0, 800.0]])
    def test_interpolated_exact_on_grid_and_rejects_outside(self, rng, freqs):
        shape = (2, len(freqs), num_coeffs(2))
        spec = hrtf.HrtfShSpectrum(order=2, radius=1.5, freqs=freqs, sample_rate=48000.0,
                                   coeffs=rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for fi, f in enumerate(freqs):
            got = hrtf.interpolate_coeffs(spec.freqs, spec.coeffs, f)
            assert np.array_equal(got, spec.coeffs[:, fi, :])
        for f in (np.nextafter(freqs[0], 0.0), np.nextafter(freqs[-1], np.inf)):
            with pytest.raises(ValueError, match="outside the HRTF grid"):
                hrtf.interpolate_coeffs(spec.freqs, spec.coeffs, f)

    @pytest.mark.parametrize("freqs", [[200.0, 600.0, 400.0], [200.0, 400.0, 400.0]],
                             ids=["unsorted", "repeated"])
    def test_frequencies_must_increase(self, freqs):
        with pytest.raises(ValueError, match="strictly increasing"):
            hrtf.rigid_sphere_hrtf_spectrum(hrtf.SyntheticHead(), freqs, 1.5, 3)
        with pytest.raises(ValueError, match="strictly increasing"):
            hrtf.HrtfShSpectrum(order=0, radius=1.5, freqs=freqs, sample_rate=48000.0,
                                coeffs=np.ones((2, 3, 1), dtype=complex))


class TestCsvImport:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "tiny.csv"
        freqs = [100.0, 200.0]
        rows = ["theta,phi," + ",".join(
            f"L_mag_{f:g},L_phase_{f:g},R_mag_{f:g},R_phase_{f:g}" for f in freqs)]
        rng = np.random.default_rng(1)
        dirs = [(0.5, 0.1), (1.2, 2.0), (2.0, -1.0)]
        vals = rng.uniform(0.1, 2.0, size=(3, 2, 4))
        for j, (t, p) in enumerate(dirs):
            cells = [f"{t}", f"{p}"]
            for fi in range(2):
                cells += [f"{vals[j, fi, 0]}", f"{vals[j, fi, 1]}",
                          f"{vals[j, fi, 2]}", f"{vals[j, fi, 3]}"]
            rows.append(",".join(cells))
        path.write_text("\n".join(rows) + "\n")
        hs = hrtf.read_hrtf_csv(path, radius=1.5)
        assert hs.n_directions == 3
        assert list(hs.freqs) == freqs
        assert hs.responses[0, 1, 2] == pytest.approx(
            vals[2, 1, 0] * np.exp(1j * vals[2, 1, 1]))
        assert hs.responses[1, 0, 1] == pytest.approx(
            vals[1, 0, 2] * np.exp(1j * vals[1, 0, 3]))
