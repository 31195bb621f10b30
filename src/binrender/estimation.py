"""Expansion-coefficient estimation from microphone observations.

Two estimators:

* ``rigid_sphere_estimate`` — truncated least squares for baffle-mounted
  spherical arrays (coefficients at the array center only),
* ``Estimator`` — the distributed-array estimator built on harmonic analysis
  of infinite order: the Gram matrix Psi of the observation functionals is
  assembled exactly from translation-operator elements between microphone
  pairs and is independent of the evaluation position, so one Hermitian
  factorization of (Psi + lambda I) serves every target position and head
  rotation; retargeting only swaps the synthesis matrix Xi(r).
  ``GridEstimator`` runs it over a grid of wavenumbers from one
  ``AngularPlan`` of Psi and Xi(target); filter banks and ``estimate`` go
  through it.
"""

import numpy as np

from .arrays import ArrayGeometry
from .special import SQRT_4PI, num_coeffs, orders_degrees, sh_matrix, sph_hankel2_deriv
from .utils import cart2sph, cho_factor, cho_solve
from .wavefield import ShCoeffVec, TranslationPlan, translate_multi


# ---------------------------------------------------------------------------
# Rigid-sphere (truncation-based) estimator
# ---------------------------------------------------------------------------

def rigid_sphere_matrix(geom: ArrayGeometry, k, order):
    """Forward matrix Pi mapping center coefficients to surface observations.

    Pi @ alpha is the total (incident plus scattered) pressure at the
    baffle-mounted mics for incident-field coefficients alpha about the
    baffle center:

        Pi[i, (n, m)] = -sqrt(4 pi) j Y_n^m(mic angles) / (k^2 R^2 h_n'(k R)).

    h_n' has no real zeros, so no frequency is forbidden on a rigid baffle.
    """
    if geom.baffle is None:
        raise ValueError("rigid-sphere estimation requires a rigid baffle")
    radius = geom.baffle.radius
    rel = geom.positions() - geom.baffle.center[None, :]
    _, theta, phi = cart2sph(rel)
    n_all, _ = orders_degrees(order)
    gain = -SQRT_4PI * 1j / (k**2 * radius**2 * sph_hankel2_deriv(n_all, k * radius))
    return sh_matrix(order, theta, phi) * gain[None, :]


def rigid_sphere_estimate(s, geom: ArrayGeometry, k, order, eta="auto") -> ShCoeffVec:
    """Tikhonov-regularized least-squares coefficients at the baffle center.

    alpha = (Pi^H Pi + eta I)^{-1} Pi^H s; requires at least (order+1)^2
    microphones. eta = "auto" scales 1e-10 relative to the mean diagonal of
    the normal matrix.
    """
    s = np.asarray(s, dtype=complex)
    ncoef = num_coeffs(order)
    if geom.n_mics < ncoef:
        raise ValueError(f"order {order} needs at least {ncoef} microphones, got {geom.n_mics}")
    pi = rigid_sphere_matrix(geom, k, order)
    normal = pi.conj().T @ pi
    if eta == "auto":
        eta = 1e-10 * np.real(np.trace(normal)) / ncoef
    coeffs = np.linalg.solve(normal + eta * np.eye(ncoef), pi.conj().T @ s)
    return ShCoeffVec(coeffs, geom.baffle.center, k, order)


# ---------------------------------------------------------------------------
# Distributed-array (infinite-order) estimator
# ---------------------------------------------------------------------------

class AngularPlan:
    """Psi and Xi(target) up to ``order`` for one geometry at the wavenumbers
    ``ks``, split into a k-independent angular part and radial tables.

    The angular part is built once: Xi's columns as a ``TranslationPlan``
    ((2p + 1) (order + 1)^2 n_mics complex entries for directivity order p:
    4.0 MB at order 35, 64 cardioids), and Psi's pairs folded with conj(c_i)
    into per-degree pair weights (2p + 1 per pair). The radial tables are
    one ``special.sph_jn_table`` each over all of ``ks`` (its j_0/j_1 anchors
    are one ``spherical_jn`` call, the other degrees one recurrence pass):
    j_l(k d) for l <= 2p at the distinct pair distances, contracted at once
    into Psi's upper-triangle values (len(ks), pairs), and for
    l <= order + p at the distinct target-mic distances. ``psi_upper``/``xi``
    slice the row of a k in ``ks``; any other k raises ValueError.
    """

    def __init__(self, geom: ArrayGeometry, target, order, ks):
        c, p = geom.directivities
        pos = geom.positions()
        self.upper = iu, ju = np.triu_indices(geom.n_mics)
        self.target = np.asarray(target, dtype=float)
        self.order, self.dir_order = int(order), p
        self.psi_pairs = TranslationPlan.build(pos[iu] - pos[ju], p, c[ju])
        self.psi_weights = self.psi_pairs.fold(np.conj(c[iu]))
        self.xi_cols = TranslationPlan.build(self.target[None, :] - pos, self.order, c)
        ks = np.asarray(ks, dtype=float)
        self._rows = {k: b for b, k in enumerate(ks.tolist())}
        radial = self.psi_pairs.radial(ks, p)
        index = self.psi_pairs.radius_index
        self._psi_table = np.einsum("blp,lp->bp", radial[:, :, index], self.psi_weights)
        self._xi_table = self.xi_cols.radial(ks, self.order)

    def covers(self, target, order):
        return order <= self.order and np.array_equal(np.asarray(target, dtype=float), self.target)

    def _row(self, k):
        b = self._rows.get(float(k))
        if b is None:
            raise ValueError(f"wavenumber {k} is not tabulated in this plan")
        return b

    def psi_upper(self, k):
        """Psi's upper-triangle values (in ``upper`` order) at k."""
        return self._psi_table[self._row(k)]

    def xi(self, k, order):
        """Xi(target) truncated at ``order`` <= the plan's, at k."""
        return self.xi_cols.apply(self._xi_table[self._row(k)], order)


def build_psi(geom: ArrayGeometry, k, plan: AngularPlan = None):
    """Observation Gram matrix, (Psi)_{i,i'} = conj(c_i) . T(r_i - r_i') c_i'.

    Every element is an exact element of the infinite-order operator (the
    directivities have finite order, so no truncation enters). Assembled on
    the upper triangle, whose conjugates fill the lower one, hence Hermitian
    by construction; the diagonal is real positive. With ``plan`` (an
    ``AngularPlan`` of ``geom``) the upper triangle is the plan's radial
    contraction at k.
    """
    if plan is None:
        iu, ju = np.triu_indices(geom.n_mics)
        c, p = geom.directivities
        pos = geom.positions()
        tc = translate_multi(pos[iu] - pos[ju], k, p, c[ju])
        vals = np.einsum("pq,pq->p", np.conj(c[iu]), tc)
    else:
        iu, ju = plan.upper
        vals = plan.psi_upper(k)
    psi = np.empty((geom.n_mics, geom.n_mics), dtype=complex)
    psi[ju, iu] = np.conj(vals)
    psi[iu, ju] = vals
    np.fill_diagonal(psi, psi.diagonal().real)
    return psi


def build_xi(geom: ArrayGeometry, target, k, order, plan: AngularPlan = None):
    """Synthesis matrix Xi(r): column i is T(r - r_i) c_i, truncated rows.

    The rows of Xi are independent, so the returned block for any order is
    identical to the corresponding block of a higher-order build; buffering
    matters only when the estimated vector is subsequently translated. A
    ``plan`` of ``geom`` that covers (target, order) gives the columns as its
    radial contraction at k.
    """
    if plan is not None and plan.covers(target, order):
        return plan.xi(k, order)
    c, _ = geom.directivities
    target = np.asarray(target, dtype=float)
    disp = target[None, :] - geom.positions()
    return translate_multi(disp, k, order, c).T


class Estimator:
    """Distributed-array estimator state for one (geometry, wavenumber, lambda).

    Holds Psi and a Hermitian factorization of (Psi + lambda I) shared
    across target positions, rotations, and observations, plus the most
    recently requested synthesis matrix Xi(r), which head rotations at a
    fixed position reuse. With an ``AngularPlan`` of ``geom``, Psi and the Xi
    it covers come from the plan.
    """

    def __init__(self, geom: ArrayGeometry, k, lam="auto", plan: AngularPlan = None):
        if not k > 0:
            raise ValueError("wavenumber must be positive")
        self.geom = geom
        self.k = float(k)
        self._plan = plan
        self.psi = build_psi(geom, k, plan)
        if lam == "auto":
            lam = 1e-3 * np.real(np.trace(self.psi)) / geom.n_mics
        if lam < 0:
            raise ValueError("lambda must be non-negative")
        self.lam = float(lam)
        self._factor = cho_factor(self.psi + self.lam * np.eye(geom.n_mics),
                                  "Psi + lambda I is singular; increase lambda")
        self._xi_key = None
        self._xi = None

    def solve(self, s):
        """w = (Psi + lambda I)^{-1} s for s of shape (n_mics,) or (n_mics, K)."""
        s = np.asarray(s, dtype=complex)
        if s.ndim not in (1, 2) or s.shape[0] != self.geom.n_mics:
            raise ValueError("observation length must equal the microphone count")
        return cho_solve(self._factor, s)

    def xi(self, target, order):
        """Synthesis matrix Xi(target) truncated at ``order`` (read-only).

        Only the last (target, order) is kept: a repeated request returns the
        same array, any other request replaces it.
        """
        key = (tuple(np.asarray(target, dtype=float)), int(order))
        if key != self._xi_key:
            xi = build_xi(self.geom, target, self.k, order, self._plan)
            xi.flags.writeable = False
            self._xi_key, self._xi = key, xi
        return self._xi

    def coeffs(self, s, target, order) -> ShCoeffVec:
        """Estimated expansion coefficients about ``target``.

        alpha(r) = Xi(r) (Psi + lambda I)^{-1} s. Changing ``target`` reuses
        the factorization; only Xi is rebuilt.
        """
        w = self.solve(s)
        alpha = self.xi(target, order) @ w
        return ShCoeffVec(alpha, np.asarray(target, dtype=float), self.k, order)

    def predicted_observation(self, alpha: ShCoeffVec):
        """Forward prediction s_hat = Xi(r)^H alpha(r)."""
        xi = self.xi(alpha.center, alpha.order)
        return xi.conj().T @ alpha.coeffs


class GridEstimator:
    """The distributed-array estimator over a grid of wavenumbers ``ks``.

    Holds one ``AngularPlan`` of Psi and Xi(target) up to ``top_order`` over
    all of ``ks``, and per bin b the ``Estimator(geom, ks[b], lam, plan)``,
    built when a call needs it and not kept: a 128-bin grid of 64 mics would
    hold 17 MB of Psi and factors. ``ks`` need not be sorted or distinct.
    """

    def __init__(self, geom: ArrayGeometry, ks, lam, target, top_order):
        self.geom = geom
        self.ks = np.asarray(ks, dtype=float)
        self.lam = lam
        self.target = np.asarray(target, dtype=float)
        self.plan = plan = AngularPlan(geom, self.target, top_order, self.ks)
        # j_l(k_b |target - r_p|) per bin, degree l and mic
        self._radial = plan._xi_table[:, :, plan.xi_cols.radius_index]

    def _estimator(self, b) -> Estimator:
        return Estimator(self.geom, self.ks[b], self.lam, self.plan)

    def _orders(self, orders):
        orders = np.asarray(orders, dtype=int)
        if orders.shape != self.ks.shape:
            raise ValueError(f"need one order per bin: {self.ks.size}, got {orders.size}")
        if orders.size and not 0 <= orders.min() <= orders.max() <= self.plan.order:
            raise ValueError(f"orders must lie in 0 .. {self.plan.order}")
        return orders

    def xi_rows(self, hw, orders):
        """Rows r with r[b] = hw[b] Xi_b(target) at orders[b], shape (B, K, n_mics).

        ``hw`` (B, K, (top_order + 1)^2) holds K row vectors on the
        coefficients per bin; bin b reads only its first (orders[b] + 1)^2.
        Xi is never formed: per degree n, one product takes hw's degree-n
        block of every bin of order >= n onto the plan's angular part, and
        the radial factors j_{n + o - n_in} of each bin contract the offsets o.
        """
        orders = self._orders(orders)
        hw = np.asarray(hw, dtype=complex)
        top, n_in, angular = self.plan.order, self.plan.dir_order, self.plan.xi_cols.angular
        if hw.ndim != 3 or hw.shape[::2] != (self.ks.size, num_coeffs(top)):
            raise ValueError(f"hw must have shape ({self.ks.size}, K, {num_coeffs(top)})")
        # bins by falling order, so the bins of order >= n are a leading slice
        by_order = np.argsort(-orders, kind="stable")
        hw, radial = hw[by_order], self._radial[by_order]
        count = np.searchsorted(-orders[by_order], -np.arange(top + 1), side="right")
        rows = np.zeros(hw.shape[:2] + (self.geom.n_mics,), dtype=complex)
        for n, m in enumerate(count):
            if m == 0:
                break
            block = slice(n * n, (n + 1) ** 2)
            # (bins x K, 2n + 1) @ (2n + 1, offsets x mics)
            a_n = np.moveaxis(angular[:, block], 1, 0).reshape(2 * n + 1, -1)
            s_n = (hw[:m, :, block].reshape(-1, 2 * n + 1) @ a_n).reshape(m, hw.shape[1], 2 * n_in + 1, -1)
            # l < 0 only where the angular sums are zero
            ls = np.maximum(n + np.arange(2 * n_in + 1) - n_in, 0)
            rows[:m] += np.einsum("beop,bop->bep", s_n, radial[:m, ls])
        out = np.empty_like(rows)
        out[by_order] = rows
        return out

    def rows(self, hw, orders):
        """``xi_rows`` times (Psi + lambda I)^{-1} per bin: g[b] @ s = hw[b] @ alpha_b(target)
        for the observations s of bin b."""
        out = self.xi_rows(hw, orders)
        for b, r in enumerate(out):
            # Psi + lambda I is Hermitian: r (Psi + lambda I)^{-1} = ((Psi + lambda I)^{-1} r^H)^H
            out[b] = self._estimator(b).solve(r.conj().T).conj().T
        return out

    def coeffs(self, obs, orders):
        """Per bin, ``Estimator.coeffs`` of observations ``obs[b]`` at ``orders[b]``."""
        orders = self._orders(orders)
        return [self._estimator(b).coeffs(s, self.target, int(order))
                for b, (s, order) in enumerate(zip(obs, orders))]
