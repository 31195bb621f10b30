"""Interior soundfield algebra on spherical-wavefunction expansions.

A source-free region's pressure is represented as

    u(x) = sum_{n,m} alpha_n^m * sqrt(4 pi) j_n(k |x - c|) Y_n^m(angles(x - c))

about an expansion center c. This module provides the coefficient container,
field evaluation, the translation operator between expansion centers (built
from Gaunt coefficients), per-order Wigner-D rotations, and analytic
coefficient generators for point sources and plane waves.

Sign/time conventions are those of :mod:`binrender.special`: exp(+j w t)
time dependence, Hankel functions of the second kind, Green's function
exp(-j k r) / (4 pi r).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .special import (
    EulerAngles,
    gaunt_grid,
    ipow,
    num_coeffs,
    orders_degrees,
    sh_matrix,
    sh_row,
    sph_hankel2,
    wigner_d_block,
)
from .utils import cart2sph

SQRT_4PI = math.sqrt(4.0 * math.pi)


@dataclass(frozen=True)
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
        coeffs = np.asarray(self.coeffs, dtype=complex)
        center = np.asarray(self.center, dtype=float)
        if coeffs.shape != (num_coeffs(self.order),):
            raise ValueError(
                f"coefficient vector has length {coeffs.shape}, expected {num_coeffs(self.order)}"
            )
        if center.shape != (3,):
            raise ValueError("center must be a 3-vector")
        if not self.k > 0:
            raise ValueError("wavenumber must be positive")
        coeffs.flags.writeable = False
        center.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "center", center)

    def truncated(self, order):
        """Copy truncated (or zero-padded) to the given order."""
        n_new = num_coeffs(order)
        out = np.zeros(n_new, dtype=complex)
        n_copy = min(n_new, self.coeffs.size)
        out[:n_copy] = self.coeffs[:n_copy]
        return ShCoeffVec(out, self.center, self.k, order)


@dataclass(frozen=True)
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


def spherical_wavefunction(n, m, r_rel, k):
    """Regular spherical wavefunction sqrt(4 pi) j_n(k r) Y_n^m(theta, phi).

    ``r_rel`` is the cartesian position relative to the expansion center.
    At the origin only (n, m) = (0, 0) is nonzero and equals 1.
    """
    r, theta, phi = cart2sph(r_rel)
    if np.ndim(r) == 0 and r == 0:
        return 1.0 + 0.0j if n == 0 else 0.0 + 0.0j
    return SQRT_4PI * _sp.spherical_jn(n, k * np.asarray(r)) * _sp.sph_harm_y(n, m, theta, phi)


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
    r, theta, phi = cart2sph(d)
    if order_in is None:
        order_in = order_out + translation_buffer(k * r)

    n_rows = num_coeffs(order_out)
    n_cols = num_coeffs(order_in)
    if r == 0:
        entries = np.eye(n_rows, n_cols, dtype=complex)
        return TranslationMatrix(entries, d, k, order_out, order_in)

    lmax = order_out + order_in
    jl = _sp.spherical_jn(np.arange(lmax + 1), k * r)
    # conj(Y_l^mu) padded to a rectangular table; out-of-range degrees are 0,
    # matching the Gaunt selection-rule zeros they multiply.
    y_conj = np.zeros((lmax + 1, 2 * lmax + 1), dtype=complex)
    for l in range(lmax + 1):
        y_conj[l, lmax - l : lmax + l + 1] = np.conj(sh_row(l, theta, phi))

    entries = np.zeros((n_rows, n_cols), dtype=complex)
    for n in range(order_in + 1):
        m = np.arange(-n, n + 1)
        col = n * n
        sign_m = np.where(m % 2 == 0, 1.0, -1.0)
        for n_out in range(order_out + 1):
            mp = np.arange(-n_out, n_out + 1)
            row = n_out * n_out
            mu = mp[:, None] - m[None, :]
            block = np.zeros((2 * n_out + 1, 2 * n + 1), dtype=complex)
            for l in range(abs(n - n_out), n + n_out + 1, 2):
                g = gaunt_grid(n, n_out, l)
                # reorder to G(n, m; n_out, -m'; l) laid out as [m', m]
                g_needed = g[:, ::-1].T
                block += (ipow(l) * jl[l]) * y_conj[l, mu + lmax] * g_needed
            entries[row : row + 2 * n_out + 1, col : col + 2 * n + 1] = (
                4.0 * math.pi * ipow(n_out - n) * sign_m[None, :] * block
            )
    return TranslationMatrix(entries, d, k, order_out, order_in)


def translate_multi(displacements, k, order_out, coeff_rows):
    """Apply T(d_p, k) to a low-order coefficient vector for many d_p at once.

    ``displacements`` is (P, 3) and ``coeff_rows`` (P, (order_in+1)^2) with a
    small input order (microphone directivities). Returns (P, (order_out+1)^2)
    with row p equal to ``translation_matrix(d_p, k, order_out, order_in)
    @ coeff_rows[p]``; identical arithmetic structure, vectorized over p.
    Zero displacements map to identity.
    """
    d = np.asarray(displacements, dtype=float)
    c = np.asarray(coeff_rows, dtype=complex)
    n_p = d.shape[0]
    order_in = math.isqrt(c.shape[1]) - 1
    if (order_in + 1) ** 2 != c.shape[1]:
        raise ValueError("coeff_rows must have a perfect-square width")
    r, theta, phi = cart2sph(d)
    nonzero = r > 0

    out = np.zeros((n_p, num_coeffs(order_out)), dtype=complex)
    ncopy = min(c.shape[1], out.shape[1])
    out[~nonzero, :ncopy] = c[~nonzero, :ncopy]
    if not np.any(nonzero):
        return out

    idx = np.nonzero(nonzero)[0]
    lmax = order_out + order_in
    jl = _sp.spherical_jn(np.arange(lmax + 1)[None, :], k * r[idx, None])
    y_conj = np.zeros((idx.size, lmax + 1, 2 * lmax + 1), dtype=complex)
    for l in range(lmax + 1):
        mu = np.arange(-l, l + 1)
        y_conj[:, l, mu + lmax] = np.conj(
            _sp.sph_harm_y(l, mu[None, :], theta[idx, None], phi[idx, None])
        )

    for n in range(order_in + 1):
        col = n * n
        for n_out in range(order_out + 1):
            mp = np.arange(-n_out, n_out + 1)
            row = n_out * n_out
            pref = 4.0 * math.pi * ipow(n_out - n)
            for l in range(abs(n - n_out), n + n_out + 1, 2):
                g = gaunt_grid(n, n_out, l)
                g_needed = g[:, ::-1].T  # [m', m] layout of G(n, m; n_out, -m'; l)
                w_l = (ipow(l) * pref) * jl[:, l]
                for mi, m in enumerate(range(-n, n + 1)):
                    sign = -1.0 if m % 2 else 1.0
                    yfac = y_conj[:, l, mp + (lmax - m)]
                    out[idx, row : row + 2 * n_out + 1] += (
                        (sign * w_l * c[idx, col + mi])[:, None] * yfac * g_needed[None, :, mi]
                    )
    return out


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
    d, theta, phi = cart2sph(r_src - center)
    if d == 0:
        raise ValueError("source coincides with the expansion center")
    n_all, _ = orders_degrees(order)
    radial = sph_hankel2(np.arange(order + 1), k * d)
    coeffs = (
        (-1j * k / SQRT_4PI)
        * radial[n_all]
        * np.conj(sh_matrix(order, theta, phi)[0])
    )
    return ShCoeffVec(coeffs, center, k, order)


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
    return ShCoeffVec(coeffs, np.asarray(center, dtype=float), k, order)
