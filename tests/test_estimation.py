"""Estimator oracles: forward-model consistency, position independence,
retargeting, linearity."""

import gc
import math
import weakref

import numpy as np
import pytest

from binrender import arrays, estimation, metrics, simulate
from binrender import wavefield as wf

C = 346.2


def k_of(f):
    return 2.0 * math.pi * f / C


def pair_plan(geom):
    """Psi's pair plan and its conj(c_i) fold, built as ``PsiGrid`` builds them."""
    c, p = geom.directivities
    pos = geom.positions()
    iu, ju = np.triu_indices(geom.n_mics)
    pairs = wf.TranslationPlan.build(pos[iu] - pos[ju], p, c[ju])
    return pairs, pairs.fold(np.conj(c[iu]))


def xi_plan(geom, target, order):
    """Xi(target)'s column plan, built as ``XiGrid`` builds it."""
    c, _ = geom.directivities
    return wf.TranslationPlan.build(np.subtract(target, geom.positions()), order, c)


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


class TestXiPlanSlot:
    """``build_xi`` keeps one Xi(target) plan; its results never depend on it."""

    BAND = np.arange(100.0, 1700.0, 100.0)  # the head-tracking bins, orders 2-18

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (order, plan) of every ``TranslationPlan.build`` call, from a cold slot."""
        monkeypatch.setattr(estimation, "_xi_slot", None)
        original, calls = wf.TranslationPlan.build, []

        def counted(cls, displacements, order_out, coeff_rows):
            plan = original(displacements, order_out, coeff_rows)
            calls.append((order_out, plan))
            return plan

        monkeypatch.setattr(wf.TranslationPlan, "build", classmethod(counted))
        return calls

    @pytest.mark.parametrize("order", [2, 5, 11, 17])
    def test_result_is_the_cold_result(self, composite, monkeypatch, order):
        k = k_of(1200.0)
        target, other = np.array([0.03, -0.02, 0.01]), np.array([-0.05, 0.04, 0.02])
        monkeypatch.setattr(estimation, "_xi_slot", None)
        cold = estimation.build_xi(composite, target, k, order).tobytes()
        estimation.build_xi(composite, target, k, 18)  # an order-18 plan at the target
        assert estimation.build_xi(composite, target, k, order).tobytes() == cold
        estimation.build_xi(composite, other, k, 18)  # another target's plan
        assert estimation.build_xi(composite, target, k, order).tobytes() == cold

    def test_estimator_xi_is_grid_xi(self, composite):
        # the single-bin and grid paths take Xi from one source
        target = np.array([0.02, 0.01, -0.03])
        for f, order in ((200.0, 3), (900.0, 10), (1600.0, 18)):
            k = k_of(f)
            grid = estimation.XiGrid(composite, [k], target, order)
            xi = estimation.Estimator(composite, k).xi(target, order)
            assert xi.tobytes() == grid.xi(0, order).tobytes()

    def test_move_builds_one_plan(self, composite, builds):
        from binrender.hrtf import SyntheticHead, rigid_sphere_hrtf_spectrum
        from binrender.rendering import render_full
        from binrender.special import EulerAngles

        ks = k_of(self.BAND)
        orders = [metrics.truncation_order(k) for k in ks]
        assert (min(orders), max(orders)) == (2, 18)
        spectrum = rigid_sphere_hrtf_spectrum(SyntheticHead(), self.BAND, 1.5, max(orders))
        obs = simulate.simulate_observation(
            simulate.Scene(sources=(simulate.PointSource(np.array([1.4, 0.6, 0.2])),),
                           freqs=self.BAND), composite)
        estimators = [estimation.Estimator(composite, k) for k in ks]

        def update(position, yaw):
            for b, est in enumerate(estimators):
                render_full(obs[b], est, position, EulerAngles(yaw), spectrum.at_index(b),
                            "sph", 1.5, orders[b])

        update(np.array([0.01, 0.02, 0.0]), 0.1)  # warm-up
        del builds[:]
        update(np.array([-0.03, 0.01, 0.02]), 0.4)  # a move
        assert [order for order, _ in builds] == [18]
        assert builds[0][1] is estimation._xi_slot[0]._plan  # the plan of the slot's XiGrid
        update(np.array([-0.03, 0.01, 0.02]), -0.7)  # a rotation
        assert len(builds) == 1

    def test_only_the_next_plan_grows(self, builds, rng):
        # a high-order request sizes the next target's plan, not the one after
        geom = arrays.build_small_array()
        k = k_of(500.0)
        for order in (2, 9, 3, 3, 2):
            estimation.build_xi(geom, rng.uniform(-0.1, 0.1, 3), k, order)
        assert [order for order, _ in builds] == [2, 9, 9, 3, 3]
        # the same target at a higher order rebuilds at that order
        target = rng.uniform(-0.1, 0.1, 3)
        for order in (2, 4, 3):
            estimation.build_xi(geom, target, k, order)
        assert [order for order, _ in builds[5:]] == [2, 4]

    def test_slot_keeps_one_plan(self, builds, rng):
        geom = arrays.build_small_array()
        for _ in range(20):
            estimation.build_xi(geom, rng.uniform(-0.1, 0.1, 3), k_of(500.0), 4)
        refs = [weakref.ref(plan) for _, plan in builds]
        del builds[:]
        gc.collect()
        assert [r() is not None for r in refs] == [False] * 19 + [True]

    def test_alternating_geometries_get_their_own_columns(self, builds):
        # two arrays of the same size at one target: no stale plan is served
        first, second = arrays.build_small_array(), arrays.build_small_array(center=(0.02, 0.0, 0.01))
        target, k = np.array([0.04, -0.01, 0.02]), k_of(800.0)
        # the oracle builds plans of its own, so it runs before the count starts
        want = {(id(geom), order): wf.translate_multi(target - geom.positions(), k, order,
                                                      geom.directivities[0]).T
                for geom in (first, second) for order in (6, 3)}
        del builds[:]
        for geom in (first, second, first, second):
            for order in (6, 3):
                xi = estimation.build_xi(geom, target, k, order)
                ref = want[id(geom), order]
                assert np.max(np.abs(xi - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert len(builds) == 4


class TestXiRadialTable:
    """A rebuild takes one radial table over the wavenumbers recorded on the geometry."""

    BINS = [(k, metrics.truncation_order(k)) for k in k_of(np.arange(100.0, 1700.0, 100.0))]

    @pytest.fixture
    def tables(self, monkeypatch):
        """The z shape of every ``sph_jn_table`` call made in ``wavefield``, from a cold slot."""
        monkeypatch.setattr(estimation, "_xi_slot", None)
        original, calls = wf.sph_jn_table, []

        def counted(lmax, z):
            calls.append(np.shape(z))
            return original(lmax, z)

        monkeypatch.setattr(wf, "sph_jn_table", counted)
        return calls

    @staticmethod
    def checked(geom, target, k, order):
        """``build_xi``'s result, asserted bitwise equal to a call on a cold slot."""
        xi = estimation.build_xi(geom, target, k, order)
        slot = estimation._xi_slot
        estimation._xi_slot = None
        try:
            cold = estimation.build_xi(geom, target, k, order)
        finally:
            estimation._xi_slot = slot
        assert xi.tobytes() == cold.tobytes()
        return xi

    def move(self, geom, target, bins=None):
        for k, order in self.BINS if bins is None else bins:
            self.checked(geom, target, k, order)

    def test_move_takes_one_table(self, composite, tables):
        self.move(composite, np.array([0.01, 0.02, 0.0]))
        del tables[:]
        for k, order in self.BINS:
            estimation.build_xi(composite, np.array([-0.03, 0.01, 0.02]), k, order)
        assert tables == [(16, 64)]

    def test_bins_in_reverse_order(self, composite, tables):
        self.move(composite, np.array([0.01, 0.02, 0.0]))
        start = len(tables)
        self.move(composite, np.array([-0.03, 0.01, 0.02]), self.BINS[::-1])
        # the move's one table, then a table per cold check
        assert tables[start] == (16, 64) and len(tables) == start + 1 + 16

    def test_new_wavenumber_mid_move(self, composite, tables):
        extra = (k_of(1234.5), 14)
        self.move(composite, np.array([0.01, 0.02, 0.0]))
        self.move(composite, np.array([0.02, -0.01, 0.03]), self.BINS[:8] + [extra] + self.BINS[8:])
        assert estimation._xi_slot[0].ks.size == 16  # the extra k took a table of its own
        self.move(composite, np.array([-0.04, 0.0, 0.01]), [extra] + self.BINS)
        grid = estimation._xi_slot[0]
        assert grid.ks.size == grid._table.shape[0] == 17
        assert grid.ks[16] == extra[0]  # rows in first-asked order on the geometry

    def test_same_target_at_higher_order(self, composite, tables):
        target = np.array([0.02, 0.03, -0.01])
        self.move(composite, np.array([0.01, 0.02, 0.0]))
        self.move(composite, target)
        k, order = self.BINS[5]
        self.checked(composite, target, k, 24)  # rebuilds the grid at order 24
        grid = estimation._xi_slot[0]
        assert grid.order == 24 and grid._table.shape == (16, 26, grid._plan.radii.size)
        self.move(composite, target)
        self.checked(composite, target, k, order)
        # the next target's grid is at order 24
        self.move(composite, np.array([-0.02, 0.0, 0.04]))
        grid = estimation._xi_slot[0]
        assert grid.order == 24 and grid._table.shape == (16, 26, grid._plan.radii.size)

    def test_another_geometry_between_targets(self, composite, tables):
        small = arrays.build_small_array()
        self.move(composite, np.array([0.01, 0.02, 0.0]))
        self.move(small, np.array([0.01, 0.02, 0.0]), self.BINS[:6])
        self.move(composite, np.array([-0.03, 0.01, 0.02]))  # cold: the slot held the small array
        self.move(small, np.array([0.03, 0.0, -0.01]), self.BINS[:6])
        self.move(small, np.array([0.02, 0.01, -0.01]), self.BINS[:6])
        assert estimation._xi_slot[0].ks.size == 6

    def test_table_is_bounded(self, composite, tables):
        # 200 wavenumbers at one target, one of them at order 35: the next
        # target's table holds the first 128, within the stated 2,424,832 bytes
        ks = k_of(np.linspace(100.0, 1600.0, 200))
        estimation.build_xi(composite, np.array([0.01, 0.02, 0.0]), ks[0], 35)
        for k in ks[1:]:
            estimation.build_xi(composite, np.array([0.01, 0.02, 0.0]), k, 1)
        assert len(estimation._xi_slot[1]) == estimation._XI_WAVENUMBERS == 128
        self.checked(composite, np.array([-0.03, 0.01, 0.02]), ks[-1], 2)  # past the cap: its own table
        self.checked(composite, np.array([-0.03, 0.01, 0.02]), ks[127], 2)
        grid = estimation._xi_slot[0]
        assert grid.ks.size == 128 and grid.order == 35
        assert grid._table.shape == (128, 37, 64)
        assert grid._table.nbytes == 2_424_832


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

    def test_equals_mirrored_upper_triangle(self, composite):
        # the upper values and their conjugates written straight into Psi equal
        # the mirror psi + psi^H of the upper triangle with its real diagonal
        k = k_of(900.0)
        vals = estimation.PsiGrid(composite, [k], "auto").psi_upper()[0]
        iu, ju = np.triu_indices(composite.n_mics)
        upper = np.zeros((composite.n_mics, composite.n_mics), dtype=complex)
        upper[iu, ju] = vals
        want = upper + upper.conj().T
        want[np.diag_indices_from(want)] = np.real(np.diag(upper))
        assert np.array_equal(estimation.build_psi(composite, k, vals), want)

    def test_flat_scatter_equals_two_index_scatter(self, composite):
        # the flat-index writes are the two-index scatters, bit for bit, for
        # tabulated upper values and for the translate_multi path
        k = k_of(900.0)
        iu, ju = composite.upper_pairs
        c, p = composite.directivities
        pos = composite.positions()
        tabulated = estimation.PsiGrid(composite, [k], "auto").psi_upper()[0]
        direct = np.einsum("pq,pq->p", np.conj(c[iu]),
                           wf.translate_multi(pos[iu] - pos[ju], k, p, c[ju]))
        for vals, upper in ((tabulated, tabulated), (direct, None)):
            want = np.empty((composite.n_mics, composite.n_mics), dtype=complex)
            want[ju, iu] = np.conj(vals)
            want[iu, ju] = vals
            np.fill_diagonal(want, want.diagonal().real)
            assert estimation.build_psi(composite, k, upper).tobytes() == want.tobytes()

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


class TestGridEstimator:
    """Psi, Xi, rows and coefficients over a grid, from the estimator's two halves
    ``XiGrid`` and ``PsiGrid``, equal standalone per-bin builds."""

    TARGET = np.array([0.02, -0.03, 0.01])

    @staticmethod
    def orders_of(freqs):
        return [metrics.truncation_order(k_of(f)) for f in freqs]

    @staticmethod
    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["composite", "small"])
    @pytest.mark.parametrize("on_mic", [False, True], ids=["between_mics", "on_a_mic"])
    def test_equals_direct_builds(self, kind, on_mic, rng):
        geom = arrays.build_composite_array() if kind == "composite" else arrays.build_small_array()
        # on a microphone, that column's displacement is zero (as are Psi's diagonal pairs)
        target = geom.positions()[5] if on_mic else rng.uniform(-0.05, 0.05, 3)
        # radial tables over all ks, sliced per bin (also at orders below the top)
        ks = rng.uniform(1.0, 220.0, 3)
        psi_grid, xi_grid = estimation.PsiGrid(geom, ks, "auto"), estimation.XiGrid(geom, ks, target, 35)
        for b, k in enumerate(ks):
            psi = estimation.build_psi(geom, k, psi_grid.psi_upper()[b])
            assert self.rel(psi, estimation.build_psi(geom, k)) < 1e-12
            assert np.array_equal(psi, psi.conj().T)
            for order in (0, 1, 18, 35):
                xi = xi_grid.xi(b, order)
                assert xi.shape == ((order + 1) ** 2, geom.n_mics)
                assert self.rel(xi, estimation.build_xi(geom, target, k, order)) < 1e-12

    def test_radial_tables_are_per_bin_calls(self, composite, rng):
        # sph_jn_table's entries depend on (l, kr) alone: each row of a
        # per-grid table is bitwise the kernel's single-k call at that
        # wavenumber, and scipy's wherever l < kr or l <= 1
        from scipy.special import spherical_jn

        from binrender.special import sph_jn_table

        ks = rng.uniform(1.0, 220.0, 5)
        pairs, _ = pair_plan(composite)
        for part, top in ((pairs, pairs.order_in), (xi_plan(composite, rng.uniform(-0.05, 0.05, 3), 12), 12)):
            table = part.radial(ks, top)
            lmax = top + part.order_in
            assert table.shape == (ks.size, lmax + 1, part.radii.size)
            for b, k in enumerate(ks):
                kr = k * part.radii
                assert np.array_equal(table[b], sph_jn_table(lmax, kr))
                scipy_rows = spherical_jn(np.arange(lmax + 1)[:, None], kr[None, :])
                upward = (np.arange(lmax + 1)[:, None] < kr) | (np.arange(lmax + 1)[:, None] <= 1)
                assert np.array_equal(table[b][upward], scipy_rows[upward])

    def test_tabulated_bins_call_no_special_function(self, composite, monkeypatch):
        import scipy.special

        ks = np.array([k_of(300.0), k_of(900.0)])
        target = np.array([0.01, 0.02, -0.01])
        xi, psi = estimation.XiGrid(composite, ks, target, 6), estimation.PsiGrid(composite, ks, "auto")
        calls = []
        for name in ("spherical_jn", "spherical_yn"):
            real = getattr(scipy.special, name)
            monkeypatch.setattr(scipy.special, name,
                                lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw))
        for b, k in enumerate(ks):
            estimation.Estimator(composite, k, psi_upper=psi.psi_upper()[b])
            xi.xi(b, 6)
        psi.solve_rows(xi.xi_rows(np.ones((2, 2, 49), dtype=complex), [6, 3]))
        xi.coeffs(psi.solve(np.ones((2, composite.n_mics), dtype=complex)), [6, 3])
        assert calls == []

    def test_psi_table_bytes_equal_the_per_degree_sum(self, composite):
        # Psi's rows are the real pair table contracted degree by degree, on
        # the 128 bins of a 100-1600 Hz, nfft-4096 grid
        freqs = np.arange(1, 2049) * 48000.0 / 4096
        ks = k_of(freqs[(freqs >= 100.0) & (freqs <= 1600.0)])
        grid = estimation.PsiGrid(composite, ks, "auto")
        pairs, weights = pair_plan(composite)
        radial = pairs.radial(ks, pairs.order_in)[:, :, pairs.radius_index]
        want = sum(radial[:, l] * w for l, w in enumerate(weights))
        assert ks.size == 128
        assert grid.psi_upper().tobytes() == want.tobytes()

    def test_psi_rows_per_range_are_bitwise_the_whole_grid(self, composite, monkeypatch):
        # the solve pass contracts Psi's rows a chunk at a time; every range,
        # the chunks the pass takes included, gives the bytes of one einsum
        # (over the table cast to complex) over the whole 128-bin bank-narrow grid
        freqs = np.arange(1, 2049) * 48000.0 / 4096
        ks = k_of(freqs[(freqs >= 100.0) & (freqs <= 1600.0)])
        grid = estimation.PsiGrid(composite, ks, "auto")
        pairs, weights = pair_plan(composite)
        want = np.einsum("blp,lp->bp", pairs.radial(ks, pairs.order_in)[:, :, pairs.radius_index], weights)
        ranges = [(first, first + estimation._CHUNK) for first in range(0, ks.size, estimation._CHUNK)]
        for first, stop in ranges + [(0, None), (5, 6), (7, 93), (120, 128)]:
            assert grid.psi_upper(first, stop).tobytes() == want[first:stop].tobytes()
        taken = []
        psi_upper = grid.psi_upper

        def recording(first, stop):
            taken.append((first, stop))
            return psi_upper(first, stop)

        monkeypatch.setattr(grid, "psi_upper", recording)
        grid.solve_rows(np.ones((ks.size, 2, composite.n_mics), dtype=complex))
        assert taken == ranges

    def test_estimator_xi_is_build_xi(self, composite):
        # a grid gives an Estimator its Psi only: Xi is build_xi's, bit for
        # bit, at the grid's own target too
        k = k_of(900.0)
        target = np.array([0.01, 0.02, -0.01])
        grid = estimation.PsiGrid(composite, [k], "auto")
        est = estimation.Estimator(composite, k, psi_upper=grid.psi_upper()[0])
        for t, order in ((target, 4), (target + 0.01, 4), (target, 6)):
            assert np.array_equal(est.xi(t, order), estimation.build_xi(composite, t, k, order))

    @pytest.mark.parametrize("freqs", [[300.0, 700.0, 1500.0], [1500.0, 300.0, 700.0, 300.0], [700.0]],
                             ids=["mixed_orders", "unsorted_repeated", "single_bin"])
    def test_rows_solve_the_per_bin_systems(self, composite, freqs, rng):
        # g (Psi + lambda I) = hw Xi for standalone per-bin estimators; g
        # itself moves with the reassociated sums by rounding times
        # cond(Psi + lambda I)
        ks = [k_of(f) for f in freqs]
        orders = self.orders_of(freqs)
        top = max(orders)
        xi, psi = estimation.XiGrid(composite, ks, self.TARGET, top), estimation.PsiGrid(composite, ks, "auto")
        # entries above a bin's order are not read
        shape = (len(ks), 2, (top + 1) ** 2)
        hw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        pre, rows = xi.xi_rows(hw, orders), psi.solve_rows(xi.xi_rows(hw, orders))
        assert pre.shape == rows.shape == (len(ks), 2, composite.n_mics)
        for b, (k, order) in enumerate(zip(ks, orders)):
            est = estimation.Estimator(composite, k)
            want = hw[b, :, : (order + 1) ** 2] @ est.xi(self.TARGET, order)
            assert np.max(np.abs(pre[b] - want)) < 1e-12 * np.max(np.abs(want))
            got = rows[b] @ (est.psi + est.lam * np.eye(composite.n_mics))
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))

    def test_coeffs_are_bitwise_per_bin_estimators(self, composite, rng):
        freqs = [1500.0, 300.0, 700.0, 300.0]
        ks = [k_of(f) for f in freqs]
        orders = self.orders_of(freqs)
        obs = rng.normal(size=(len(ks), composite.n_mics)) + 1j * rng.normal(size=(len(ks), composite.n_mics))
        top = max(orders)
        xi, psi = estimation.XiGrid(composite, ks, self.TARGET, top), estimation.PsiGrid(composite, ks, 1e-4)
        # the oracle tables, straight from the two translation plans
        pairs, weights = pair_plan(composite)
        radial = pairs.radial(np.asarray(ks), pairs.order_in)[:, :, pairs.radius_index]
        psi_upper = np.einsum("blp,lp->bp", radial, weights)
        xi_cols = xi_plan(composite, self.TARGET, top)
        xi_table = xi_cols.radial(np.asarray(ks), top)
        for b, (alpha, s, k, order) in enumerate(zip(xi.coeffs(psi.solve(obs.copy()), orders), obs, ks, orders)):
            est = estimation.Estimator(composite, k, 1e-4, psi_upper[b])
            want = xi_cols.apply(xi_table[b], order) @ est.solve(s)
            assert alpha.order == order and alpha.k == est.k
            assert np.array_equal(alpha.coeffs, want)
            assert np.array_equal(alpha.center, self.TARGET)

    @pytest.mark.parametrize("lam", ["auto", 1e-4])
    def test_rows_are_bitwise_per_bin_estimators(self, composite, lam, rng):
        # the chunked solve pass, on more bins than one chunk, unsorted and with
        # repeated wavenumbers, gives each bin's Estimator solve bit for bit
        freqs = rng.uniform(100.0, 1600.0, 40)
        freqs[[7, 12]] = freqs[[30, 13]]
        ks = k_of(freqs)
        orders = self.orders_of(freqs)
        top = max(orders)
        xi, psi = estimation.XiGrid(composite, ks, self.TARGET, top), estimation.PsiGrid(composite, ks, lam)
        shape = (ks.size, 2, (top + 1) ** 2)
        hw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        pre, rows = xi.xi_rows(hw, orders), psi.solve_rows(xi.xi_rows(hw, orders))
        assert ks.size > estimation._CHUNK
        for b, (k, r) in enumerate(zip(ks, pre)):
            est = estimation.Estimator(composite, k, lam, psi.psi_upper()[b])
            assert rows[b].tobytes() == est.solve(r.conj().T).conj().T.tobytes()

    def test_solve_pass_factors_in_one_chunk_buffer(self, composite, monkeypatch):
        # every bin is factored in place in one buffer of _CHUNK matrices,
        # which no longer exists once the call returns
        buffers = []
        zpotrf = estimation.zpotrf

        def recording(a, **kwargs):
            buffers.append((id(a.base), a.base.nbytes, weakref.ref(a.base)))
            return zpotrf(a, **kwargs)

        monkeypatch.setattr(estimation, "zpotrf", recording)
        ks = k_of(np.linspace(100.0, 1600.0, 40))
        estimation.PsiGrid(composite, ks, "auto").solve(np.ones((ks.size, composite.n_mics, 2), dtype=complex))
        gc.collect()
        assert len(buffers) == ks.size
        assert {(at, nbytes) for at, nbytes, _ in buffers} == {(buffers[0][0], estimation._CHUNK * 64 * 64 * 16)}
        assert buffers[0][2]() is None

    @pytest.mark.parametrize("case, error, message", [
        ("singular", np.linalg.LinAlgError, r"^Psi \+ lambda I is singular; increase lambda$"),
        ("negative_lambda", ValueError, "^lambda must be non-negative$"),
        ("zero_k", ValueError, "^wavenumber must be positive$"),
        ("negative_k", ValueError, "^wavenumber must be positive$"),
        ("nan_k", ValueError, "^wavenumber must be positive$"),
        ("non_finite_psi", ValueError, "infs or NaNs"),
        ("nan_lambda", ValueError, "infs or NaNs"),
    ])
    def test_solve_pass_errors(self, composite, monkeypatch, case, error, message):
        # the per-bin Estimator's error types and messages: a wavenumber that is
        # not positive or a negative lambda from the Psi half's constructor,
        # before it builds a plan; the rest from its solves, for rows and
        # coefficients alike
        # a repeated microphone leaves Psi singular
        geom = arrays.ArrayGeometry(mics=composite.mics[:4] + composite.mics[1:2]) if case == "singular" else composite
        ks = [k_of(1000.0), k_of(400.0)]
        lam = {"singular": 0.0, "negative_lambda": -1.0, "nan_lambda": float("nan")}.get(case, "auto")
        if case.endswith("_k"):
            ks[1] = {"zero_k": 0.0, "negative_k": -ks[1], "nan_k": float("nan")}[case]
        if case.endswith("_k") or case == "negative_lambda":
            def no_plan(*args):
                raise AssertionError("a plan was built before the input checks")

            monkeypatch.setattr(estimation.TranslationPlan, "build", no_plan)
            with pytest.raises(error, match=message):
                estimation.PsiGrid(geom, ks, lam)
            return
        xi, psi = estimation.XiGrid(geom, ks, self.TARGET, 3), estimation.PsiGrid(geom, ks, lam)
        if case == "non_finite_psi":
            # through the pair table that bin 1's Psi row is contracted from
            psi._table[1, 0, psi._index[5]] = np.inf
            with np.errstate(invalid="ignore"):  # inf times a zero weight part
                assert not np.isfinite(psi.psi_upper(1, 2)[0, 5])
        rhs = np.ones((2, geom.n_mics, 2), dtype=complex)
        for call in (lambda: psi.solve_rows(xi.xi_rows(np.ones((2, 2, 16), dtype=complex), [3, 2])),
                     lambda: xi.coeffs(psi.solve(np.ones((2, geom.n_mics), dtype=complex)), [3, 2]),
                     lambda: psi.solve(rhs)):
            with pytest.raises(error, match=message):
                call()
        # the pass raises before it overwrites any right-hand side
        assert np.array_equal(rhs, np.ones_like(rhs))

    def test_solve_rejects_misshapen_right_hand_sides(self, composite):
        # one (n_mics,) or (n_mics, K) right-hand side per bin, or nothing is solved
        psi = estimation.PsiGrid(composite, [k_of(300.0), k_of(700.0)], "auto")
        for shape in ((3, 64), (2, 63), (2,), (2, 64, 2, 1)):
            rhs = np.ones(shape, dtype=complex)
            with pytest.raises(ValueError, match="^right-hand sides must have shape"):
                psi.solve(rhs)
            assert np.array_equal(rhs, np.ones(shape))

    def test_rejects_orders_above_the_top(self, composite):
        ks = [k_of(300.0), k_of(700.0)]
        grid = estimation.XiGrid(composite, ks, self.TARGET, 4)
        hw = np.ones((2, 2, 25), dtype=complex)
        w = np.ones((2, composite.n_mics), dtype=complex)
        for call in (lambda: grid.xi_rows(hw, [4, 5]), lambda: grid.coeffs(w, [5, 2]),
                     lambda: grid.xi_rows(hw, [4]), lambda: grid.xi_rows(hw[:, :, :16], [3, 3])):
            with pytest.raises(ValueError):
                call()

    def test_keeps_its_own_target(self):
        # the caller's array is copied: writing to it later moves neither the
        # grid's target nor the centre of the coefficients it returns
        geom = arrays.build_small_array()
        t = np.array([0.02, -0.01, 0.03])
        grid = estimation.XiGrid(geom, [5.0], t, 3)
        t[0] = 0.5
        old = np.array([0.02, -0.01, 0.03])
        assert np.array_equal(grid.target, old)
        assert not grid.target.flags.writeable
        alpha = grid.coeffs(np.ones((1, geom.n_mics), dtype=complex), [3])[0]
        assert np.array_equal(alpha.center, old)


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
            s_hat = est.xi(np.zeros(3), 20).conj().T @ alpha.coeffs
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
        # NaN passes the sign test but not the finiteness check of Psi + lambda I
        with pytest.raises(ValueError, match="infs or NaNs"):
            estimation.Estimator(composite, k_of(500.0), lam=float("nan"))

    def test_non_finite_observations_raise(self, composite):
        est = estimation.Estimator(composite, k_of(700.0))
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            for shape in ((64,), (64, 3)):
                s = np.ones(shape, dtype=complex)
                s[7] = bad
                with pytest.raises(ValueError, match="infs or NaNs"):
                    est.solve(s)
                with pytest.raises(ValueError, match="infs or NaNs"):
                    est.coeffs(s, np.zeros(3), 2)

    def test_duplicated_microphone_is_singular_at_lambda_zero(self, composite):
        k = k_of(1000.0)
        mics = composite.mics[:4]
        estimation.Estimator(arrays.ArrayGeometry(mics=mics), k, lam=0.0)
        duplicated = arrays.ArrayGeometry(mics=mics + (mics[1],))
        with pytest.raises(np.linalg.LinAlgError, match=r"^Psi \+ lambda I is singular; increase lambda$"):
            estimation.Estimator(duplicated, k, lam=0.0)
        assert estimation.Estimator(duplicated, k).lam > 0

    def test_solve_bitwise_scipy_cholesky(self, composite, rng):
        # the LAPACK factor and solves give scipy.linalg's wrapped results bit for bit
        from scipy.linalg import cho_factor, cho_solve

        for f, lam in ((300.0, "auto"), (1500.0, 1e-4)):
            est = estimation.Estimator(composite, k_of(f), lam)
            factor = cho_factor(est.psi + est.lam * np.eye(composite.n_mics))
            for shape in ((64,), (64, 5)):
                s = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                kept = s.copy()
                got = est.solve(s)
                assert got.tobytes() == cho_solve(factor, s).tobytes()
                assert np.array_equal(s, kept)
