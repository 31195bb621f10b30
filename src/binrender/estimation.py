"""Expansion-coefficient estimation from microphone observations.

Two estimators:

* ``rigid_sphere_estimate`` — truncated least squares for baffle-mounted
  spherical arrays (coefficients at the array center only),
* ``Estimator`` — the distributed-array estimator built on harmonic analysis
  of infinite order: the Gram matrix Psi of the observation functionals is
  assembled exactly from translation-operator elements between microphone
  pairs and is independent of the evaluation position, so one Hermitian
  factorization of (Psi + lambda I) serves every target position and head
  rotation; retargeting only swaps the synthesis matrix Xi(r), which
  ``build_xi`` translates from the directivities through one
  ``wavefield.TranslationPlan`` per target, shared by every wavenumber,
  and one radial table over the wavenumbers recorded on the geometry,
  shared by the bins of a head-tracking move.
  ``GridEstimator`` runs it over a grid of wavenumbers, with one radial
  table each for Psi's pairs and Xi(target) over every bin, and factors each
  bin's (Psi + lambda I) in place, a chunk of bins at a time (1 MB of
  matrices at 64 mics), contracting the chunk's rows of Psi as it goes, with
  no per-bin ``Estimator`` and no factor kept; filter banks and ``estimate``
  go through it.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import zpotrf, zpotrs

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

def build_psi(geom: ArrayGeometry, k, upper=None):
    """Observation Gram matrix, (Psi)_{i,i'} = conj(c_i) . T(r_i - r_i') c_i'.

    Every element is an exact element of the infinite-order operator (the
    directivities have finite order, so no truncation enters). Assembled on
    the upper triangle, whose conjugates fill the lower one (one flat scatter
    each, at ``geom.upper_flat``), hence Hermitian by construction; the
    diagonal is real positive. ``upper`` gives the upper-triangle values at k
    in ``geom.upper_pairs`` order, as ``GridEstimator`` tabulates them per
    bin; without it they come from ``translate_multi``.
    """
    if upper is None:
        iu, ju = geom.upper_pairs
        c, p = geom.directivities
        pos = geom.positions()
        tc = translate_multi(pos[iu] - pos[ju], k, p, c[ju])
        upper = np.einsum("pq,pq->p", np.conj(c[iu]), tc)
    psi = np.empty((geom.n_mics, geom.n_mics), dtype=complex)
    flat_upper, flat_lower = geom.upper_flat
    flat = psi.ravel()
    flat[flat_lower] = np.conj(upper)
    flat[flat_upper] = upper
    np.fill_diagonal(psi, psi.diagonal().real)
    return psi


_SINGULAR = "Psi + lambda I is singular; increase lambda"


def _lambda_rule(ks, lam):
    """Check an estimator's wavenumbers ``ks`` and ``lam`` before any work, and
    return lambda as a function of trace(Psi) and the mic count n: for "auto",
    1e-3 of Psi's mean diagonal. A NaN ``lam`` passes; the solves reject it."""
    if not np.all(np.asarray(ks) > 0):
        raise ValueError("wavenumber must be positive")
    if lam == "auto":
        return lambda trace, n: 1e-3 * trace / n
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return lambda trace, n: float(lam)


# Bins per chunk of ``GridEstimator``'s solve pass: 1 MB of matrices at 64 mics.
_CHUNK = 16

class _XiSlot(NamedTuple):
    """``build_xi``'s state on the last geometry."""

    geom: ArrayGeometry  # compared by identity, kept alive by the slot
    target: bytes | None
    plan: TranslationPlan | None
    order: int  # the highest order asked since the plan was built
    table: np.ndarray | None  # the radial table over ``rows`` as they were when the plan was built
    rows: dict  # each wavenumber asked on the geometry, in first-asked order: its row in the tables


# Wavenumbers recorded per geometry; they bound the radial table.
_XI_WAVENUMBERS = 128

_xi_slot = None


def build_xi(geom: ArrayGeometry, target, k, order):
    """Synthesis matrix Xi(r): column i is T(r - r_i) c_i, truncated rows.

    The rows of Xi are independent, so the returned block for any order is
    identical to the corresponding block of a higher-order build; buffering
    matters only when the estimated vector is subsequently translated. The
    columns are ``plan.apply(radial, order)`` of the ``TranslationPlan`` of
    the displacements r - r_i and a table ``radial`` of j_l(k |r - r_i|), so
    every wavenumber at one target shares the plan's angular sums and pays
    one contraction; a grid of wavenumbers takes them from
    ``GridEstimator.xi`` instead.

    One plan is kept, in a module-level slot with the first 128 wavenumbers
    asked on its geometry (which the slot keeps alive) and the highest order
    asked since the plan was built. A call on another geometry object starts
    an empty slot. A call at another target, or above the plan's order,
    rebuilds: the plan at the larger of ``order`` and that highest order,
    and one radial table at the plan's order over every recorded wavenumber.
    So the first bin of a head-tracking move sizes the plan and the table
    for the move's other bins, and each bin applies its k's row of the
    table, found by exact float equality; a k without a row takes a table of
    its own. Table entries depend on (l, kr) alone and a plan slice does not
    depend on the plan's order, so the result depends on neither.

    The slot holds the plan, 1.1 MB at order 18 and 4.0 MB at order 35 on 64
    cardioids, and the table: 8 (N + n + 1) bytes per wavenumber and distinct
    target-mic distance at plan order N and directivity order n. At most 128
    wavenumbers are recorded, so the table holds at most 2,424,832 bytes
    (2.4 MB) at order 35 on 64 cardioids, and 163,840 bytes for the 16
    head-tracking bins at order 18.
    """
    global _xi_slot
    target = np.asarray(target, dtype=float)
    k, order, key = float(k), int(order), target.tobytes()
    slot = _xi_slot
    if slot is None or slot.geom is not geom:
        slot = _XiSlot(geom, None, None, 0, None, {})
    if len(slot.rows) < _XI_WAVENUMBERS:
        slot.rows.setdefault(k, len(slot.rows))
    if slot.target != key or order > slot.plan.order:
        top = max(order, slot.order)
        plan = TranslationPlan.build(target - geom.positions(), top, geom.directivities[0])
        slot = _XiSlot(geom, key, plan, order, plan.radial(np.array(list(slot.rows)), top), slot.rows)
    _xi_slot = slot = slot._replace(order=max(order, slot.order))
    row = slot.rows.get(k, len(slot.table))
    radial = slot.table[row] if row < len(slot.table) else slot.plan.radial(k, order)
    return slot.plan.apply(radial, order)


class Estimator:
    """Distributed-array estimator state for one (geometry, wavenumber, lambda).

    Holds Psi and a Hermitian factorization of (Psi + lambda I) shared
    across target positions, rotations, and observations, plus the most
    recently requested synthesis matrix Xi(r), which head rotations at a
    fixed position reuse. ``psi_upper`` is handed to ``build_psi``; Xi always
    comes from ``build_xi``, whose plan the estimators of one target share.
    """

    def __init__(self, geom: ArrayGeometry, k, lam="auto", psi_upper=None):
        rule = _lambda_rule(k, lam)
        self.geom = geom
        self.k = float(k)
        self.psi = build_psi(geom, k, psi_upper)
        self.lam = float(rule(np.real(np.trace(self.psi)), geom.n_mics))
        self._factor = cho_factor(self.psi + self.lam * np.eye(geom.n_mics), _SINGULAR)
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
            xi = build_xi(self.geom, target, self.k, order)
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
        return ShCoeffVec(alpha, target, self.k, order)


class GridEstimator:
    """The distributed-array estimator over a grid of wavenumbers ``ks``.

    Built once over all of ``ks`` up to ``top_order``, it holds the
    k-independent parts of Psi and Xi(target), from two ``TranslationPlan``s,
    and one ``special.sph_jn_table`` each of their k-dependent parts. At the
    128 bins of a 100-1600 Hz, nfft-4096 grid on the 64-cardioid composite
    array (top order 18) that is:

    * Psi's pair table, j_l(k_b |r_i - r_j|) for l <= 2 at the 245 distinct
      pair distances: 752,640 bytes (0.75 MB);
    * its weights, the pair plan folded with conj(c_i): 99,840 bytes, and the
      pairs' 16,640-byte index into the distances;
    * Xi(target)'s angular part: 1,108,992 bytes (1.1 MB; 4.0 MB at order 35);
    * Xi(target)'s table, j_l(k_b |target - r_p|) for l <= 19 at the 64
      target-mic distances: 1,310,720 bytes (1.3 MB).

    Psi's upper-triangle rows, 4.26 MB over those bins, are never held whole:
    ``psi_upper`` contracts a range of bins on request, and ``rows`` and
    ``coeffs`` solve with every bin's (Psi + lambda I) in one pass that takes
    ``_CHUNK`` bins at a time through one 1 MB buffer (64 mics) and keeps no
    factor: a 128-bin grid of 64 mics would hold 8.4 MB of them. The solves
    are bitwise those of ``Estimator(geom, ks[b], lam, psi_upper(b, b + 1)[0])``
    and raise its errors. ``ks`` need not be sorted or distinct.
    """

    def __init__(self, geom: ArrayGeometry, ks, lam, target, top_order):
        self.geom = geom
        self.ks = np.asarray(ks, dtype=float)
        self.lam = lam
        self._lambda = _lambda_rule(self.ks, lam)
        self.target = np.asarray(target, dtype=float)
        self.order = int(top_order)
        c, p = geom.directivities
        pos = geom.positions()
        iu, ju = geom.upper_pairs
        pairs = TranslationPlan.build(pos[iu] - pos[ju], p, c[ju])
        self._psi_weights = pairs.fold(np.conj(c[iu]))
        self._psi_index = pairs.radius_index
        self._xi_cols = TranslationPlan.build(self.target - pos, self.order, c)
        # Xi's table first: its kernel temporaries then meet no Psi table
        self._xi_table = self._xi_cols.radial(self.ks, self.order)
        self._psi_table = pairs.radial(self.ks, p)

    def psi_upper(self, first=0, stop=None):
        """Psi's upper-triangle values of bins ``first`` .. ``stop`` - 1 in
        ``geom.upper_pairs`` order, shape (bins, pairs): a fresh array, the pair
        table's rows contracted with the folded weights. Each bin's row is
        bitwise the same whatever the range."""
        radial = self._psi_table[first:stop][:, :, self._psi_index]
        return np.einsum("blp,lp->bp", radial, self._psi_weights)

    def xi(self, b, order):
        """Xi(target) of bin b truncated at ``order`` <= ``top_order``."""
        return self._xi_cols.apply(self._xi_table[b], order)

    def _orders(self, orders):
        orders = np.asarray(orders, dtype=int)
        if orders.shape != self.ks.shape:
            raise ValueError(f"need one order per bin: {self.ks.size}, got {orders.size}")
        if orders.size and not 0 <= orders.min() <= orders.max() <= self.order:
            raise ValueError(f"orders must lie in 0 .. {self.order}")
        return orders

    def xi_rows(self, hw, orders):
        """Rows r with r[b] = hw[b] Xi_b(target) at orders[b], shape (B, K, n_mics).

        ``hw`` (B, K, (top_order + 1)^2) holds K row vectors on the
        coefficients per bin; bin b reads only its first (orders[b] + 1)^2.
        Xi is never formed: per degree n, one product takes hw's degree-n
        block of every bin of order >= n onto the Xi plan's angular part, and
        the radial factors j_{n + o - n_in} of each bin contract the offsets o.
        Neither ``hw`` nor the radial table is copied whole: each degree picks
        its bins' degree-n block of hw, and their (offset, mic) factors from
        the table with one combined index.
        """
        orders = self._orders(orders)
        hw = np.asarray(hw, dtype=complex)
        top, n_in, angular = self.order, self._xi_cols.order_in, self._xi_cols.angular
        if hw.ndim != 3 or hw.shape[::2] != (self.ks.size, num_coeffs(top)):
            raise ValueError(f"hw must have shape ({self.ks.size}, K, {num_coeffs(top)})")
        # bins by falling order, so the bins of order >= n lead ``by_order``
        by_order = np.argsort(-orders, kind="stable")
        count = np.searchsorted(-orders[by_order], -np.arange(top + 1), side="right")
        mics = self._xi_cols.radius_index
        rows = np.zeros(hw.shape[:2] + (self.geom.n_mics,), dtype=complex)
        for n, m in enumerate(count):
            if m == 0:
                break
            bins = by_order[:m]
            block = slice(n * n, (n + 1) ** 2)
            # (bins x K, 2n + 1) @ (2n + 1, offsets x mics)
            a_n = np.moveaxis(angular[:, block], 1, 0).reshape(2 * n + 1, -1)
            s_n = (hw[bins, :, block].reshape(-1, 2 * n + 1) @ a_n).reshape(m, hw.shape[1], 2 * n_in + 1, -1)
            # j_l(k_b |target - r_p|) per bin, offset and mic; l < 0 only
            # where the angular sums are zero
            ls = np.maximum(n + np.arange(2 * n_in + 1) - n_in, 0)
            radial = self._xi_table[np.ix_(bins, ls, mics)]
            rows[bins] += np.einsum("beop,bop->bep", s_n, radial)
        return rows

    def _solve(self, rhs):
        """Overwrite rhs[b], of shape (n_mics,) or (n_mics, K), with (Psi_b + lambda I)^{-1}
        rhs[b] for every bin b, and return ``rhs``; bitwise a per-bin ``Estimator``'s solve.

        The bins go ``_CHUNK`` at a time through one buffer of Fortran-ordered
        matrices (1 MB at 64 mics): the chunk's rows of Psi are contracted
        from the pair table (``psi_upper``) and one indexed copy puts them
        into their upper triangles, lambda goes on the diagonals ("auto" from
        each matrix's trace), and LAPACK factors every matrix in place
        (``zpotrf``) and solves with it (``zpotrs``). The lower triangles are
        never read, and no factor or row of Psi outlives its chunk. A
        non-finite pair table, weight, right-hand side or lambda raises
        before any right-hand side is overwritten.
        """
        if not (np.isfinite(self._psi_table).all() and np.isfinite(self._psi_weights).all()
                and np.isfinite(rhs).all() and (self.lam == "auto" or np.isfinite(self.lam))):
            raise ValueError("Psi + lambda I and the right-hand sides must not contain infs or NaNs")
        n = self.geom.n_mics
        # buffer[c] is read in Fortran order, as zpotrf factors in place: there
        # the pair (i, j) sits at the C-order flat index of (j, i)
        _, at = self.geom.upper_flat
        buffer = np.zeros((min(_CHUNK, self.ks.size), n, n), dtype=complex)
        for first in range(0, self.ks.size, _CHUNK):
            upper = self.psi_upper(first, first + _CHUNK)
            buffer.reshape(len(buffer), -1)[: len(upper), at] = upper
            chunk = buffer[: len(upper)].transpose(0, 2, 1)
            shift = self._lambda(np.real(np.trace(chunk, axis1=1, axis2=2))[:, None], n)
            diagonal = np.einsum("bii->bi", chunk)
            diagonal[:] = diagonal.real + shift
            for c, a in enumerate(chunk):
                factor, info = zpotrf(a, lower=False, clean=False, overwrite_a=True)
                if info > 0:
                    raise np.linalg.LinAlgError(_SINGULAR)
                rhs[first + c] = zpotrs(factor, rhs[first + c], lower=False)[0]
        return rhs

    def rows(self, hw, orders):
        """``xi_rows`` times (Psi + lambda I)^{-1} per bin: g[b] @ s = hw[b] @ alpha_b(target)
        for the observations s of bin b."""
        out = self.xi_rows(hw, orders)
        # Psi + lambda I is Hermitian: r (Psi + lambda I)^{-1} = ((Psi + lambda I)^{-1} r^H)^H
        solved = self._solve(out.conj().transpose(0, 2, 1))
        return np.conjugate(solved.transpose(0, 2, 1), out=out)

    def coeffs(self, obs, orders):
        """Per bin, alpha_b(target) = Xi_b(target) (Psi_b + lambda I)^{-1} obs[b] at
        ``orders[b]``, with Xi_b from ``xi``."""
        orders = self._orders(orders)
        obs = np.array(obs, dtype=complex)
        if obs.shape != (self.ks.size, self.geom.n_mics):
            raise ValueError(f"observations must have shape ({self.ks.size}, {self.geom.n_mics})")
        w = self._solve(obs)
        return [ShCoeffVec(self.xi(b, order) @ w[b], self.target, float(k), order)
                for b, (k, order) in enumerate(zip(self.ks, orders.tolist()))]
