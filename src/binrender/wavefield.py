"""Interior soundfield algebra on spherical-wavefunction expansions.

A source-free region's pressure is represented as

    u(x) = sum_{n,m} alpha_n^m * sqrt(4 pi) j_n(k |x - c|) Y_n^m(angles(x - c))

about an expansion center c. This module provides the coefficient container,
field evaluation, the translation operator between expansion centers (one
Gaunt kernel behind the dense matrix and ``TranslationPlan``), per-order
Wigner-D rotations, and analytic generators for point sources and plane waves.

Sign/time conventions are those of :mod:`binrender.special`: exp(+j w t)
time dependence, Hankel functions of the second kind, Green's function
exp(-j k r) / (4 pi r).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from .special import (
    SQRT_4PI,
    EulerAngles,
    _gauss_legendre_sh,
    gaunt_grid,
    ipow,
    num_coeffs,
    orders_degrees,
    sh_matrix,
    sh_table,
    sph_hankel2,
    sph_jn_table,
    wigner_d_block,
)
from .utils import cart2sph, own_arrays


@dataclass(frozen=True, eq=False)
class ShCoeffVec:
    """Truncated interior expansion: coefficients, center, wavenumber, order.

    ``coeffs[q]`` with q = n^2 + n + m multiplies sqrt(4 pi) j_n(kr) Y_n^m.
    ``coeffs[0]`` equals the sound pressure at the expansion center.
    """

    coeffs: np.ndarray
    center: np.ndarray
    k: float
    order: int

    def __post_init__(self):
        coeffs, center = own_arrays(self, coeffs=complex, center=float)
        if coeffs.shape != (num_coeffs(self.order),):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, expected {num_coeffs(self.order)}"
            )
        if center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        if not np.isfinite(center).all():
            raise ValueError("center must be finite")
        if not 0 < self.k < math.inf:
            raise ValueError("wavenumber must be positive and finite")

    def truncated(self, order):
        """Copy truncated (or zero-padded) to the given order."""
        n_new = num_coeffs(order)
        out = np.zeros(n_new, dtype=complex)
        n_copy = min(n_new, self.coeffs.size)
        out[:n_copy] = self.coeffs[:n_copy]
        return ShCoeffVec(out, self.center, self.k, order)


@dataclass(frozen=True, eq=False)
class TranslationMatrix:
    """Dense realization of the translation operator between two truncations.

    ``entries @ alpha(old_center)`` gives coefficients about
    ``old_center + displacement``. Rectangular: the input order should carry
    an accuracy buffer over the output order (see ``translation_buffer``).
    """

    entries: np.ndarray
    displacement: np.ndarray
    k: float
    order_out: int
    order_in: int

    def apply(self, alpha: ShCoeffVec) -> ShCoeffVec:
        if alpha.order != self.order_in:
            raise ValueError("input order mismatch")
        _check_same_k(alpha.k, self.k)
        return ShCoeffVec(
            self.entries @ alpha.coeffs,
            alpha.center + self.displacement,
            alpha.k,
            self.order_out,
        )


def _check_same_k(ka, kb):
    if not math.isclose(ka, kb, rel_tol=1e-12, abs_tol=0.0):
        raise AssertionError(f"mixing expansions of different wavenumbers ({ka} vs {kb})")


def translation_buffer(kd):
    """Default input-order surplus for a translation over distance |d|.

    Truncating the source-side expansion at the output order loses accuracy
    proportional to the translation distance; max(10, ceil(e*kd/2)) keeps
    the relative field error near 1e-4 for desk-scale displacements.
    """
    return max(10, math.ceil(math.e * kd / 2.0))


def evaluate_field(alpha: ShCoeffVec, points):
    """Evaluate the truncated expansion at one point or an array of points.

    Validity inside the source-free region is the caller's responsibility.
    """
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    pts = np.atleast_2d(points) - alpha.center[None, :]
    r, theta, phi = cart2sph(pts)
    n_all, _ = orders_degrees(alpha.order)
    radial = _sp.spherical_jn(np.arange(alpha.order + 1)[None, :], alpha.k * r[:, None])
    basis = SQRT_4PI * radial[:, n_all] * sh_matrix(alpha.order, theta, phi)
    values = basis @ alpha.coeffs
    return values[0] if single else values


def translation_matrix(displacement, k, order_out, order_in=None) -> TranslationMatrix:
    """Dense translation operator T(d, k) between truncated expansions.

    Element ((n', m'), (n, m)) is

        4 pi (-1)^m j^(n'-n) sum_l j^l j_l(k|d|) conj(Y_l^(m'-m)(d_hat))
                                  * G(n, m; n', -m'; l)

    with the inner sum over l = |n-n'| .. n+n' in steps of 2 (the skipped
    terms are exact selection-rule zeros of the Gaunt coefficient).
    T(0) is the identity. Each element is an exact element of the
    infinite-order operator; truncation error enters only through the
    discarded input orders, hence the buffer default.
    """
    d = np.asarray(displacement, dtype=float)
    if d.shape != (3,):
        raise ValueError("displacement must be a 3-vector")
    if not k > 0:
        raise ValueError("wavenumber must be positive")
    r, _, _ = cart2sph(d)
    if order_in is None:
        order_in = order_out + translation_buffer(k * r)

    n_rows = num_coeffs(order_out)
    n_cols = num_coeffs(order_in)
    if r == 0:
        entries = np.eye(n_rows, n_cols, dtype=complex)
        return TranslationMatrix(entries, d, k, order_out, order_in)

    entries = np.zeros((n_rows, n_cols), dtype=complex)
    radial = sph_jn_table(order_out + order_in, k * r)
    for n, n_out, ls, terms in _translation_terms(d[None, :], order_out, np.ones((1, n_cols))):
        block = entries[n_out * n_out : (n_out + 1) ** 2, n * n : (n + 1) ** 2]
        block[:] = (radial[ls] @ terms.reshape(ls.size, -1)).reshape(block.shape)
    return TranslationMatrix(entries, d, k, order_out, order_in)


@lru_cache(maxsize=4096)  # a 35 <- 45 translation matrix takes 1656 order pairs
def _term_constants(n, n_out):
    """Constants of the kernel terms of one order pair, independent of lmax and k.

    ``ls`` runs over |n - n_out| .. n + n_out in steps of 2; ``phase[i]`` is
    4 pi j^ls[i] j^(n_out - n); ``sign_m[m]`` is (-1)^m; ``mu_idx[m', m]`` is
    m' - m, which indexes the wrapped degree axis of an ``sh_table`` directly.
    """
    ls = np.arange(abs(n - n_out), n + n_out + 1, 2)
    m = np.arange(-n, n + 1)
    phase = (ipow(ls) * (4.0 * math.pi * ipow(n_out - n)))[:, None, None]
    sign_m = np.where(m % 2 == 0, 1.0, -1.0)[None, :, None]
    mu_idx = np.arange(-n_out, n_out + 1)[:, None] - m[None, :]
    for a in (ls, phase, sign_m, mu_idx):
        a.flags.writeable = False
    return ls, phase, sign_m, mu_idx


def _translation_terms(displacements, order_out, coeff_rows):
    """The one translation kernel: yield ``(n, n_out, ls, terms)`` per order pair.

    ``terms[i, m', m, p]`` is the l = ls[i] summand of element
    ((n_out, m'), (n, m)) of T(d_p, k) (formula in ``translation_matrix``)
    at unit radial factor, scaled by ``coeff_rows[p, (n, m)]``; ls runs over
    |n - n_out| .. n + n_out in steps of 2. Weighting term i by
    j_ls[i](k |d_p|) and summing over i gives the block of the operator,
    summing over m too its product with the rows; the kernel itself never
    sees k. One SH table over all displacements, conjugated in place, serves
    every block, and each block is one product over the stacked Gaunt slices.
    Pairs come by output degree, each n_out with n = 0 .. order_in in turn.
    The Gauss-Legendre tables behind the cold Gaunt grids are shared by the
    grids that need them and released once no later output degree does
    (``special._gauss_legendre_sh``: at most order_in + 1 held), the last
    when the kernel returns or raises.
    """
    _, theta, phi = cart2sph(displacements)
    order_in = math.isqrt(coeff_rows.shape[1]) - 1
    # zero for |mu| > l, matching the Gaunt selection-rule zeros it multiplies
    y_conj = sh_table(order_out + order_in, theta, phi)
    np.conjugate(y_conj, out=y_conj)
    rows = [coeff_rows[:, n * n : (n + 1) ** 2].T for n in range(order_in + 1)]
    try:
        for n_out in range(order_out + 1):
            for n, c in enumerate(rows):
                ls, phase, sign_m, mu_idx = _term_constants(n, n_out)
                # G(n, m; n_out, -m'; l) laid out as [l, m', m]
                g = np.stack([gaunt_grid(n, n_out, l)[:, ::-1].T for l in ls])
                scaled = (sign_m * phase) * c[None, :, :]
                yield n, n_out, ls, (scaled[:, None, :, :] * y_conj[ls[:, None, None], mu_idx]) * g[..., None]
            # a later degree's grids take q >= n_out + 2 nodes
            _gauss_legendre_sh.release(n_out + 1)
    finally:  # the Legendre tables serve this build's cold grids only
        _gauss_legendre_sh.cache_clear()


def translate_multi(displacements, k, order_out, coeff_rows):
    """Apply T(d_p, k) to a low-order coefficient vector for many d_p at once.

    ``displacements`` is (P, 3) and ``coeff_rows`` (P, (order_in+1)^2) with a
    small input order (microphone directivities). Returns (P, (order_out+1)^2)
    with row p equal to ``translation_matrix(d_p, k, order_out, order_in)
    @ coeff_rows[p]`` up to rounding: a ``TranslationPlan`` used at one
    wavenumber. A single-k Psi without tabulated upper values
    (``estimation.build_psi``) comes from here.
    """
    plan = TranslationPlan.build(displacements, order_out, coeff_rows)
    return plan.apply(plan.radial(k, order_out), order_out).T


@dataclass(frozen=True, eq=False)
class TranslationPlan:
    """Translation of fixed rows over fixed displacements, at any wavenumber.

    Only the radial factor j_l(k |d_p|) of a kernel term depends on k; a term
    of output degree n has l = n + o - n_in for an offset o in 0 .. 2 n_in.
    ``angular[o, q, p]`` sums the terms at unit radial factor per offset, so

        (T(d_p, k) c_p)[q] = sum_o j_l(k |d_p|) angular[o, q, p]

    for any order up to the plan's. Zero displacements need no special case:
    j_l(0) keeps only l = 0, the identity. The radial factors come from
    ``radial``, one table over the distinct |d_p| (``radii``;
    ``radius_index[p]`` picks p's) for any number of wavenumbers: the 2080
    pair distances of the composite array take 245 values. ``translate_multi``
    is a plan at one wavenumber; ``estimation.GridEstimator`` builds two: one
    for Psi's pairs, folded into its per-bin upper triangles, and one for
    Xi(target); a single-k Xi comes from the one plan ``estimation.build_xi``
    keeps for the last target, shared by every wavenumber asked there, and
    from its one radial table over the wavenumbers recorded on the geometry,
    shared by the bins of a head-tracking move.
    """

    angular: np.ndarray
    radii: np.ndarray
    radius_index: np.ndarray

    @classmethod
    def build(cls, displacements, order_out, coeff_rows):
        d = np.asarray(displacements, dtype=float)
        c = np.asarray(coeff_rows, dtype=complex)
        order_in = math.isqrt(c.shape[1]) - 1
        if (order_in + 1) ** 2 != c.shape[1]:
            raise ValueError("coeff_rows must have a perfect-square width")
        angular = np.zeros((2 * order_in + 1, num_coeffs(order_out), d.shape[0]), dtype=complex)
        for n, n_out, ls, terms in _translation_terms(d, order_out, c):
            angular[ls - n_out + order_in, n_out * n_out : (n_out + 1) ** 2] += terms.sum(axis=2)
        return cls(angular, *np.unique(cart2sph(d)[0], return_inverse=True))

    @property
    def order(self):
        return math.isqrt(self.angular.shape[1]) - 1

    @property
    def order_in(self):
        return (self.angular.shape[0] - 1) // 2

    def radial(self, ks, order):
        """j_l(k r) at the distinct radii for l <= order + order_in, shape
        ks.shape + (order + order_in + 1, len(radii)), one ``sph_jn_table`` for all
        ``ks``: its entries depend on (l, k r) alone, so a k's slice is its own table."""
        return np.moveaxis(sph_jn_table(order + self.order_in, np.multiply.outer(ks, self.radii)), 0, -2)

    def _degrees(self, order):
        """l of the terms ``angular[o, q]`` for q < (order+1)^2, shape (2 n_in + 1, (order+1)^2)."""
        n_q, _ = orders_degrees(order)
        if n_q.size > self.angular.shape[1]:
            raise ValueError(f"order {order} exceeds the plan's")
        # l < 0 only where the angular sums are zero
        offsets = np.arange(2 * self.order_in + 1)[:, None] - self.order_in
        return np.maximum(n_q[None, :] + offsets, 0)

    def apply(self, radial, order):
        """Translated rows at ``order`` from one k's ``radial`` table, shape ((order+1)^2, P).

        ``radial`` is a slice ``self.radial(ks, order_top)[b]`` for any
        order_top >= order, or ``self.radial(k, order)``; column p is
        T(d_p, k) c_p truncated at ``order``.
        """
        ls = self._degrees(order)
        return (radial[:, self.radius_index][ls] * self.angular[:, : ls.shape[1]]).sum(axis=0)

    def fold(self, rows):
        """The plan's terms contracted with ``rows`` (P, (order+1)^2) per degree l.

        Returns w of shape (order + order_in + 1, P), order the plan's, with
        ``sum_q rows[p, q] apply(radial, order)[q, p] = sum_l radial[l, radius_index[p]] w[l, p]``
        up to reassociation rounding: inner products of translated rows take
        one radial factor per degree instead of one per (offset, coefficient).
        """
        ls = self._degrees(self.order)
        w = np.zeros((ls.max() + 1, self.angular.shape[2]), dtype=complex)
        np.add.at(w, ls, self.angular * np.asarray(rows).T[None])
        return w


def translate_coeffs(alpha: ShCoeffVec, new_center, out_order=None) -> ShCoeffVec:
    """Re-expand the coefficient vector about a new center.

    The input expansion is used at its full order; ``out_order`` defaults to
    the input order. For accuracy the input should have been built with a
    buffer over the order actually needed at the new center (group property
    and retargeting tests quantify the truncation loss).
    """
    new_center = np.asarray(new_center, dtype=float)
    if out_order is None:
        out_order = alpha.order
    if np.array_equal(new_center, alpha.center):
        return alpha.truncated(out_order)
    t = translation_matrix(new_center - alpha.center, alpha.k, out_order, alpha.order)
    return t.apply(alpha)


def rotate_blocks(x, angles: EulerAngles):
    """Apply the per-order rotation blocks along the leading axis of ``x``.

    ``x`` has leading length (N+1)^2 (a coefficient vector, or a matrix
    whose rows are indexed by q = n^2 + n + m); order n's rows are mapped
    by the conjugate transpose of the Wigner-D block. The identity rotation
    returns ``x`` itself.
    """
    if angles == EulerAngles():
        return x
    out = np.empty_like(x)
    for n in range(math.isqrt(x.shape[0])):
        block = wigner_d_block(n, angles).conj().T
        sl = slice(n * n, n * n + 2 * n + 1)
        out[sl] = block @ x[sl]
    return out


def rotate_coeffs(alpha: ShCoeffVec, angles: EulerAngles) -> ShCoeffVec:
    """Re-express the expansion in a frame rotated by R(angles).

    The rotation convention is listener-centric: if the listener's head is
    rotated by R = Rz(alpha) Ry(beta) Rz(gamma), the returned coefficients
    describe the field in head coordinates, i.e.

        evaluate_field(rotate_coeffs(a, g), x) == evaluate_field(a, R(g) @ x)

    Per order this applies the conjugate transpose of the Wigner-D block
    (equivalently the block of the inverse rotation), so a pure yaw by psi
    multiplies alpha_n^m by exp(+j m psi). The expansion center is kept;
    rotating about a different pivot is translation + rotation.
    """
    return ShCoeffVec(rotate_blocks(alpha.coeffs, angles), alpha.center, alpha.k, alpha.order)


def point_source_coeffs(r_src, center, k, order) -> ShCoeffVec:
    """Interior expansion of a unit point source (free-field Green's function).

    alpha_n^m = (-j k / sqrt(4 pi)) h_n(k d) conj(Y_n^m(source direction)),
    valid for field points closer to the center than the source. The (0, 0)
    coefficient equals G(center - r_src) = exp(-j k d) / (4 pi d).
    """
    r_src = np.asarray(r_src, dtype=float)
    center = np.asarray(center, dtype=float)
    coeffs = point_source_expansions((r_src - center)[None, :], k, order,
                                     "source coincides with the expansion center")
    return ShCoeffVec(coeffs[0], center, k, order)


def point_source_expansions(offsets, k, order, coincident):
    """``point_source_coeffs`` of one source about many centers, shape (P, (order+1)^2).

    ``offsets`` (P, 3) are the source position less each center; a zero
    offset raises ValueError(``coincident``).
    """
    d, theta, phi = cart2sph(offsets)
    if np.any(d == 0):
        raise ValueError(coincident)
    n_all, _ = orders_degrees(order)
    radial = sph_hankel2(np.arange(order + 1)[None, :], k * d[:, None])
    return (-1j * k / SQRT_4PI) * radial[:, n_all] * np.conj(sh_matrix(order, theta, phi))


def plane_wave_coeffs(direction, k, order, center=(0.0, 0.0, 0.0)) -> ShCoeffVec:
    """Interior expansion of a unit plane wave arriving from ``direction``.

    alpha_n^m = sqrt(4 pi) j^n conj(Y_n^m(direction)); the wave has unit
    pressure at the expansion center (alpha_0^0 = 1). ``direction`` points
    toward the source, i.e. the field is exp(+j k <direction, x - center>).
    """
    direction = np.asarray(direction, dtype=float)
    nrm = np.linalg.norm(direction)
    if not math.isclose(nrm, 1.0, rel_tol=1e-9):
        raise ValueError("direction must be a unit vector")
    _, theta, phi = cart2sph(direction)
    n_all, _ = orders_degrees(order)
    coeffs = SQRT_4PI * ipow(n_all) * np.conj(sh_matrix(order, theta, phi)[0])
    return ShCoeffVec(coeffs, center, k, order)
