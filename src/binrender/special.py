"""Scalar special functions for spherical-harmonic field analysis.

Conventions (used consistently across the whole package):

* time convention ``exp(+j w t)``; outgoing waves therefore carry
  ``exp(-j k r)`` and the spherical Hankel function of the *second* kind
  ``h_n = j_n - j*y_n`` is the radiating solution,
* free-field Green's function ``G(r) = exp(-j k |r|) / (4 pi |r|)``,
* complex orthonormal spherical harmonics with the Condon-Shortley phase
  included in the associated Legendre function,
* Gaunt coefficients in the "multiple scattering" normalization
  ``G(n1,m1; n2,m2; l) = integral Y_n1^m1 Y_n2^m2 conj(Y_l^(m1+m2))``,
  which is the one that makes the wavefield translation operator
  reproduce exact field translation (checked by the oracle tests).

Mixing time conventions is the dominant failure mode in this domain; every
formula below is pinned to the set above.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])  # 1j**n for integer n


def ipow(n):
    """``1j**n`` for integer ``n`` (exact, works for negative n)."""
    return _I_POW[np.asarray(n) % 4]


# ---------------------------------------------------------------------------
# (order, degree) indexing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShIndex:
    """Order/degree pair with the linear index q = n^2 + n + m."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or abs(self.m) > self.n:
            raise ValueError(f"invalid spherical harmonic index ({self.n}, {self.m})")

    @property
    def q(self):
        return self.n * self.n + self.n + self.m

    @classmethod
    def from_linear(cls, q):
        if q < 0:
            raise ValueError("linear index must be non-negative")
        n = int(math.isqrt(q))
        return cls(n, q - n * n - n)


@dataclass(frozen=True)
class EulerAngles:
    """z-y-z Euler angles in radians; (0, 0, 0) is the identity rotation."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0

    def inverse(self):
        return EulerAngles(-self.gamma, -self.beta, -self.alpha)


def num_coeffs(order):
    return (order + 1) ** 2


@lru_cache(maxsize=None)
def orders_degrees(order):
    """Arrays of n and m for every linear index q < (order+1)^2."""
    n = np.concatenate([np.full(2 * nn + 1, nn) for nn in range(order + 1)])
    m = np.concatenate([np.arange(-nn, nn + 1) for nn in range(order + 1)])
    n.flags.writeable = False
    m.flags.writeable = False
    return n, m


# ---------------------------------------------------------------------------
# Spherical Bessel / Hankel functions
# ---------------------------------------------------------------------------

def sph_bessel_j(n, x):
    """Spherical Bessel function j_n(x), n >= 0, x >= 0."""
    return _sp.spherical_jn(n, x)


def sph_hankel2(n, x):
    """Spherical Hankel function of the second kind h_n(x) = j_n(x) - j*y_n(x).

    Radiating solution under the exp(+j w t) time convention. Singular at
    x = 0 (raises ValueError).
    """
    _check_positive(x, "sph_hankel2")
    return _sp.spherical_jn(n, x) - 1j * _sp.spherical_yn(n, x)


def sph_bessel_j_deriv(n, x):
    """d/dx j_n(x)."""
    return _sp.spherical_jn(n, x, derivative=True)


def sph_hankel2_deriv(n, x):
    """d/dx h_n(x), x > 0 (raises ValueError at x = 0)."""
    _check_positive(x, "sph_hankel2_deriv")
    return _sp.spherical_jn(n, x, derivative=True) - 1j * _sp.spherical_yn(n, x, derivative=True)


def _check_positive(x, name):
    if np.any(np.asarray(x) <= 0):
        raise ValueError(f"{name} is singular at x <= 0")


# ---------------------------------------------------------------------------
# Spherical harmonics
# ---------------------------------------------------------------------------

def sph_harmonic(n, m, theta, phi):
    """Orthonormal complex spherical harmonic Y_n^m(theta, phi).

    ``theta`` is the zenith angle in [0, pi], ``phi`` the azimuth. The
    Condon-Shortley phase is included, so the conjugation symmetry is
    ``Y_n^{-m} = (-1)^m conj(Y_n^m)``. Broadcasts over all arguments.
    """
    return _sp.sph_harm_y(n, m, theta, phi)


def sh_row(order, theta, phi):
    """Y_l^m for l = order, m = -l..l as a vector of length 2*order+1."""
    m = np.arange(-order, order + 1)
    return _sp.sph_harm_y(order, m, theta, phi)


def sh_matrix(order, theta, phi):
    """Matrix of Y_n^m(theta_i, phi_i), shape (len(theta), (order+1)^2).

    Columns follow the linear index q = n^2 + n + m. Not conjugated.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    n, m = orders_degrees(order)
    return _sp.sph_harm_y(n[None, :], m[None, :], theta[:, None], phi[:, None])


# ---------------------------------------------------------------------------
# Wigner 3j and Gaunt coefficients (log-factorial arithmetic)
# ---------------------------------------------------------------------------

_LGF_SIZE = 512
_LGF = _sp.gammaln(np.arange(_LGF_SIZE) + 1.0)


def _lgf(n):
    """log(n!) with a growable precomputed table."""
    global _LGF, _LGF_SIZE
    nmax = int(np.max(n))
    if nmax >= _LGF_SIZE:
        _LGF_SIZE = 2 * nmax + 2
        _LGF = _sp.gammaln(np.arange(_LGF_SIZE) + 1.0)
    return _LGF[n]


def _triangle_ok(j1, j2, j3):
    return abs(j1 - j2) <= j3 <= j1 + j2


# extended-precision log factorials for the cancellation-prone Racah sums
_LGF_LD_SIZE = 512
_LGF_LD = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, _LGF_LD_SIZE, dtype=np.longdouble)))])


def _lgf_ld(n):
    global _LGF_LD, _LGF_LD_SIZE
    nmax = int(np.max(n))
    if nmax >= _LGF_LD_SIZE:
        _LGF_LD_SIZE = 2 * nmax + 2
        _LGF_LD = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, _LGF_LD_SIZE, dtype=np.longdouble)))])
    return _LGF_LD[n]


def wigner_3j_000(j1, j2, j3):
    """Wigner 3j symbol with all zero degrees (closed form)."""
    if not _triangle_ok(j1, j2, j3):
        return 0.0
    J = j1 + j2 + j3
    if J % 2:
        return 0.0
    # canonical argument order so permuted calls give bitwise-equal results
    j1, j2, j3 = sorted((j1, j2, j3))
    g = J // 2
    log_delta = _lgf_ld(J - 2 * j1) + _lgf_ld(J - 2 * j2) + _lgf_ld(J - 2 * j3) - _lgf_ld(J + 1)
    log_val = 0.5 * log_delta + _lgf_ld(g) - _lgf_ld(g - j1) - _lgf_ld(g - j2) - _lgf_ld(g - j3)
    return float((-1.0) ** g * np.exp(log_val))


def _wigner_3j_grid(j1, j2, j3):
    """3j(j1,j2,j3; m1,m2,-m1-m2) over the full (m1, m2) grid.

    Returns a real array of shape (2*j1+1, 2*j2+1); entries with
    |m1+m2| > j3 are exactly zero. Racah sum evaluated in extended-precision
    log space with sign tracking, vectorized over the degree grid. The
    first two arguments are canonicalized (j1 >= j2) so that the column-swap
    symmetry holds bitwise.
    """
    if not _triangle_ok(j1, j2, j3):
        return np.zeros((2 * j1 + 1, 2 * j2 + 1))
    if j1 < j2:
        swapped = _wigner_3j_grid(j2, j1, j3)
        if (j1 + j2 + j3) % 2:
            return -swapped.T
        return swapped.T

    m1 = np.arange(-j1, j1 + 1)[:, None]
    m2 = np.arange(-j2, j2 + 1)[None, :]
    m3 = -(m1 + m2)
    valid = np.abs(m3) <= j3

    log_delta = _lgf_ld(j1 + j2 - j3) + _lgf_ld(j1 - j2 + j3) + _lgf_ld(-j1 + j2 + j3) - _lgf_ld(j1 + j2 + j3 + 1)
    log_num = 0.5 * (
        log_delta
        + _lgf_ld(j1 + m1) + _lgf_ld(j1 - m1)
        + _lgf_ld(j2 + m2) + _lgf_ld(j2 - m2)
        + _lgf_ld(np.where(valid, j3 + m3, 0)) + _lgf_ld(np.where(valid, j3 - m3, 0))
    )

    t_lo = np.maximum(0, np.maximum(j2 - j3 - m1, j1 - j3 + m2))
    t_hi = np.minimum(j1 + j2 - j3, np.minimum(j1 - m1, j2 + m2))
    t_max = j1 + j2 - j3

    shape = np.broadcast_shapes(m1.shape, m2.shape)
    total = np.zeros(shape, dtype=np.longdouble)
    peak = np.full(shape, -np.inf, dtype=np.longdouble)
    terms = []
    for t in range(t_max + 1):
        ok = valid & (t >= t_lo) & (t <= t_hi)
        if not np.any(ok):
            continue
        log_den = (
            _lgf_ld(t)
            + _lgf_ld(j1 + j2 - j3 - t)
            + _lgf_ld(np.where(ok, j1 - m1 - t, 0))
            + _lgf_ld(np.where(ok, j2 + m2 - t, 0))
            + _lgf_ld(np.where(ok, j3 - j2 + m1 + t, 0))
            + _lgf_ld(np.where(ok, j3 - j1 - m2 + t, 0))
        )
        term_log = np.where(ok, log_num - log_den, -np.inf)
        terms.append(((-1.0) ** t, term_log, ok))
        peak = np.maximum(peak, term_log)

    peak_safe = np.where(np.isfinite(peak), peak, 0.0)
    for sign, term_log, ok in terms:
        total += np.where(ok, sign * np.exp(term_log - peak_safe), 0.0)
    result = np.where(np.isfinite(peak), total * np.exp(peak_safe), 0.0)
    phase = np.where((j1 - j2 - m3) % 2 == 0, 1.0, -1.0)
    return np.asarray(np.where(valid, phase * result, 0.0), dtype=float)


def wigner_3j(j1, j2, j3, m1, m2, m3):
    """Scalar Wigner 3j symbol (integer arguments)."""
    if m1 + m2 + m3 != 0 or not _triangle_ok(j1, j2, j3):
        return 0.0
    if abs(m1) > j1 or abs(m2) > j2 or abs(m3) > j3:
        return 0.0
    grid = _wigner_3j_grid(j1, j2, j3)
    return float(grid[m1 + j1, m2 + j2])


@lru_cache(maxsize=20000)
def gaunt_grid(n1, n2, l):
    """Gaunt coefficients G(n1,m1; n2,m2; l) over the full (m1, m2) grid.

    G(n1,m1; n2,m2; l) = integral of Y_n1^m1 Y_n2^m2 conj(Y_l^(m1+m2))
    over the sphere. Real array of shape (2*n1+1, 2*n2+1); selection-rule
    zeros (triangle, parity, |m1+m2| > l) are exact. The returned array is
    read-only and cached.
    """
    if not _triangle_ok(n1, n2, l) or (n1 + n2 + l) % 2:
        out = np.zeros((2 * n1 + 1, 2 * n2 + 1))
        out.flags.writeable = False
        return out
    m1 = np.arange(-n1, n1 + 1)[:, None]
    m2 = np.arange(-n2, n2 + 1)[None, :]
    sign = np.where((m1 + m2) % 2 == 0, 1.0, -1.0)
    scale = math.sqrt((2 * n1 + 1) * (2 * n2 + 1) * (2 * l + 1) / (4.0 * math.pi))
    out = sign * scale * wigner_3j_000(n1, n2, l) * _wigner_3j_grid(n1, n2, l)
    out.flags.writeable = False
    return out


def gaunt(n1, m1, n2, m2, l):
    """Scalar Gaunt coefficient G(n1,m1; n2,m2; l).

    Zero (exactly) outside the selection rules: triangle inequality
    |n1-n2| <= l <= n1+n2, even parity of n1+n2+l, and |m1+m2| <= l.
    """
    if abs(m1) > n1 or abs(m2) > n2:
        raise ValueError("degree exceeds order")
    if not _triangle_ok(n1, n2, l) or (n1 + n2 + l) % 2 or abs(m1 + m2) > l:
        return 0.0
    return float(gaunt_grid(n1, n2, l)[m1 + n1, m2 + n2])


# ---------------------------------------------------------------------------
# Wigner D rotation blocks
# ---------------------------------------------------------------------------

def wigner_d_block(n, angles):
    """Wigner D-matrix block of order n for z-y-z Euler angles.

    Returns the (2n+1) x (2n+1) unitary matrix D with entries
    ``D[m' + n, m + n] = exp(-j m' alpha) d^n_{m',m}(beta) exp(-j m gamma)``
    in the convention where the actively rotated harmonic satisfies
    ``Y_n^m(R(angles)^{-1} x) = sum_{m'} D[m', m] Y_n^{m'}(x)``.

    D(identity angles) is the identity and D(g1) @ D(g2) = D(g1 o g2).
    """
    d = _wigner_little_d(n, angles.beta)
    m = np.arange(-n, n + 1)
    return np.exp(-1j * m[:, None] * angles.alpha) * d * np.exp(-1j * m[None, :] * angles.gamma)


@lru_cache(maxsize=256)
def _jy_eig(n):
    """Eigendecomposition of the order-n angular momentum operator J_y."""
    m = np.arange(-n, n + 1)
    ladder = np.sqrt(n * (n + 1.0) - m[:-1] * (m[:-1] + 1.0))  # <m+1| J+ |m>
    jy = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    idx = np.arange(2 * n)
    jy[idx + 1, idx] = ladder / 2j
    jy[idx, idx + 1] = -ladder / 2j
    w, v = np.linalg.eigh(jy)
    w.flags.writeable = False
    v.flags.writeable = False
    return w, v


def _wigner_little_d(n, beta):
    """Real little-d matrix d^n_{m',m}(beta) = <n m'| exp(-j beta J_y) |n m>.

    Evaluated through the eigendecomposition of J_y, which keeps the block
    unitary to machine precision at every order (the factorial sum loses
    digits to cancellation already around n = 15).
    """
    w, v = _jy_eig(n)
    return ((v * np.exp(-1j * beta * w)) @ v.conj().T).real
