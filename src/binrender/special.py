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
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial, update_wrapper

import numpy as np
from scipy import special as _sp

SQRT_4PI = math.sqrt(4.0 * math.pi)  # sqrt(4 pi) Y_0^0 = 1

_I_POW = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])  # 1j**n for integer n


def ipow(n):
    """``1j**n`` for integer ``n`` (exact, works for negative n)."""
    return _I_POW[np.asarray(n) % 4]


# ---------------------------------------------------------------------------
# (order, degree) indexing
# ---------------------------------------------------------------------------

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


# one entry per order; every path asks for orders up to the rendering order cap
# (35 by default), so 128 entries keep them all
@lru_cache(maxsize=128)
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

# Miller's recurrence starts where |j_l(z)| <= z^l / (2l+1)!! is below this
_MILLER_BOUND = 1e-22


def _miller_thresholds(n):
    """z_l for l = 1 .. n, increasing: z^l / (2l+1)!! < _MILLER_BOUND exactly when z < z_l."""
    l = np.arange(1.0, n + 1.0)
    log_double_factorial = _sp.gammaln(2.0 * l + 2.0) - l * math.log(2.0) - _sp.gammaln(l + 1.0)
    return np.exp((math.log(_MILLER_BOUND) + log_double_factorial) / l)


def sph_jn_table(lmax, z):
    """j_l(z) for every l = 0 .. lmax over an array of z >= 0, shape (lmax + 1,) + z.shape.

    j_0 and j_1 come from one ``scipy.special.spherical_jn`` call. Where
    l < z, degree l follows scipy's own upward recurrence from them, so
    those entries are bitwise scipy's. Where l >= max(2, z), Miller's
    downward recurrence (Gautschi, SIAM Review 9(1), 1967) runs from
    f_S = 1, f_{S+1} = 0 and is scaled to the larger in magnitude of j_0
    and j_1. Its start S(z) is the first l > z with z^l / (2l+1)!! < 1e-22,
    a bound on |j_l(z)|; degrees above S(z) are 0. S depends on z alone, so
    every entry is a function of (l, z) only: bitwise the same for any
    ``lmax`` and whatever other z share the call. j_l(0) is 1 for l = 0 and
    0 otherwise.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    out = np.empty((lmax + 1, flat.size))
    low = min(lmax, 1) + 1
    out[:low] = _sp.spherical_jn(np.arange(low)[:, None], flat)
    if lmax < 2:
        return out.reshape((lmax + 1,) + z.shape)
    # Miller's columns by descending z, hence descending start: at each degree
    # the columns already running (start >= l) form a prefix, and l >= z a suffix
    near = np.flatnonzero(flat <= lmax)
    near = near[np.argsort(-flat[near], kind="stable")]
    x = flat[near]
    thresholds = _miller_thresholds(max(64, 1 << (2 * lmax + 64).bit_length()))
    start = np.maximum(np.searchsorted(thresholds, x, side="right"), x.astype(np.intp)) + 1
    top = int(start.max(initial=0))
    running = np.searchsorted(-start, -np.arange(top + 1), side="right").tolist()
    f = np.zeros((max(top, lmax) + 2, x.size))
    f[start, np.arange(x.size)] = 1.0
    rows = list(f)
    # upward values that blow up at l >= z are replaced below; z = 0 starts
    # Miller at degree 1, overflows to inf at degree 0 and scales to 0
    with np.errstate(all="ignore"):
        for l in range(2, min(lmax + 1, math.ceil(flat.max(initial=0.0)))):
            np.multiply(out[l - 1], 2 * l - 1, out=out[l])  # (2l - 1) j_{l-1} / z - j_{l-2}
            out[l] /= flat
            out[l] -= out[l - 2]
        for l in range(top, 0, -1):
            a = running[l]
            if a < x.size:
                step, here, above = rows[l - 1][:a], rows[l][:a], rows[l + 1][:a]
            else:  # every column running: whole rows, no slicing
                step, here, above = rows[l - 1], rows[l], rows[l + 1]
            np.divide(2 * l + 1, x[:a], out=step)
            step *= here
            step -= above
        j0, j1 = out[0, near], out[1, near]
        larger1 = np.abs(j1) > np.abs(j0)
        miller = f[2 : lmax + 1] * np.where(larger1, j1 / f[1], j0 / f[0])
    first = np.searchsorted(-x, -np.arange(2, lmax + 1), side="left").tolist()
    whole = first.count(0)  # degrees at or above every z of the call
    for l, b in enumerate(first[: len(first) - whole], start=2):
        out[l, near[b:]] = miller[l - 2, b:]
    if whole:
        out[lmax + 1 - whole :, near] = miller[len(first) - whole :]
    return out.reshape((lmax + 1,) + z.shape)


def sph_hankel2(n, x):
    """Spherical Hankel function of the second kind h_n(x) = j_n(x) - j*y_n(x).

    Radiating solution under the exp(+j w t) time convention. Singular at
    x = 0 (raises ValueError).
    """
    _check_positive(x, "sph_hankel2")
    return _sp.spherical_jn(n, x) - 1j * _sp.spherical_yn(n, x)


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

def sh_table(lmax, theta, phi):
    """Y_n^m(theta, phi) for every n, |m| <= lmax, shape (lmax + 1, 2 lmax + 1) + shape.

    The degree axis is wrapped as scipy's: column m for m >= 0 and
    2 lmax + 1 + m for m < 0, so negative m index it directly. The real
    Legendre factors come from one ``sph_legendre_p_all`` call and multiply
    exp(j m phi) as the complex product (p + 0j)(c + js) without a fused
    multiply-add, which is bitwise ``sph_harm_y_all(lmax, lmax, theta, phi)``
    (signed zeros and subnormals at the poles included) at 2-4x its speed.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    p = _sp.sph_legendre_p_all(lmax, lmax, theta)[0]
    m = np.arange(2 * lmax + 1)
    m[lmax + 1 :] -= 2 * lmax + 1
    phase = np.exp(1j * m.reshape((-1,) + (1,) * phi.ndim) * phi)
    out = np.empty(p.shape, dtype=complex)
    np.subtract(p * phase.real, 0.0 * phase.imag, out=out.real)
    np.add(p * phase.imag, 0.0 * phase.real, out=out.imag)
    return out


def sh_matrix(order, theta, phi):
    """Matrix of Y_n^m(theta_i, phi_i), shape (len(theta), (order+1)^2).

    Columns follow the linear index q = n^2 + n + m. Not conjugated. One
    ``sh_table``; the result is the transposed (column-major) view.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    n, m = orders_degrees(order)
    return sh_table(order, theta, phi)[n, m].T


# ---------------------------------------------------------------------------
# Gaunt coefficients (Gauss-Legendre)
# ---------------------------------------------------------------------------

def _triangle_ok(j1, j2, j3):
    return abs(j1 - j2) <= j3 <= j1 + j2


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _ReleasableCache:
    """``lru_cache(maxsize)`` for a function of one integer q, which can also
    drop every entry with q <= a bound (``release``): same ``cache_info()``
    and ``cache_clear()``, least recently used evicted first."""

    def __init__(self, build, maxsize):
        update_wrapper(self, build)
        self._build, self._maxsize = build, maxsize
        self._entries = {}
        self._hits = self._misses = 0

    def __call__(self, q):
        value = self._entries.pop(q, None)
        if value is None:
            self._misses += 1
            value = self._build(q)
            if len(self._entries) >= self._maxsize:
                del self._entries[next(iter(self._entries))]
        else:
            self._hits += 1
        self._entries[q] = value  # most recently used last
        return value

    def release(self, q_max):
        """Drop every entry with q <= q_max."""
        for q in [q for q in self._entries if q <= q_max]:
            del self._entries[q]

    def cache_info(self):
        return _CacheInfo(self._hits, self._misses, self._maxsize, len(self._entries))

    def cache_clear(self):
        self._entries.clear()
        self._hits = self._misses = 0


@partial(_ReleasableCache, maxsize=64)
def _gauss_legendre_sh(q):
    """q-node Gauss-Legendre rule on cos(theta), weights times 2 pi, and the
    real table ``y[n, m, i] = Y_n^m(arccos x_i, 0)`` for n, |m| < q (degree
    axis wrapped, so negative m index it directly): the Legendre factors of
    ``sh_table``, whose phase is 1 + 0j at phi = 0.

    A table lives for one output degree of a translation build: the grid
    G(n, n_out, l) takes q = (n + n_out + l) / 2 + 1 >= n_out + 1 nodes, so
    ``wavefield._translation_terms`` releases every q <= n_out + 1 once
    output degree n_out is done, and the rest when it returns or raises.
    The grids of one degree and the next share each table, and that pays: a
    cold ``translation_matrix(d, 20.0, 20, 30)`` takes 1.19 s with it and
    4.49 s with one table per grid (2-core Xeon, one BLAS thread). Bound:
    (2q - 1) q^2 doubles a table, 781 KiB at q = 37; a build from input
    order n_in holds at most n_in + 1 tables (q = n_out + 1 .. n_out + n_in
    + 1), 1.6 MB for an order-35 plan of first-order rows and 46 tables
    (169 MB at its last degree) for a 35 <- 45 matrix; 64 at most in all."""
    x, w = np.polynomial.legendre.leggauss(q)
    y = _sp.sph_legendre_p_all(q - 1, q - 1, np.arccos(x))[0]
    return 2.0 * math.pi * w, y


@lru_cache(maxsize=20000)
def gaunt_grid(n1, n2, l):
    """Gaunt coefficients G(n1,m1; n2,m2; l) over the full (m1, m2) grid.

    G(n1,m1; n2,m2; l) = integral of Y_n1^m1 Y_n2^m2 conj(Y_l^(m1+m2))
    over the sphere. The azimuthal integral is 2 pi; the zenith integrand is
    a polynomial of degree n1+n2+l in cos(theta), which the
    (n1+n2+l)/2 + 1 node Gauss-Legendre rule integrates exactly. Real
    array of shape (2*n1+1, 2*n2+1); selection-rule zeros (triangle,
    parity, |m1+m2| > l) are exact, and G(n2, n1, l) is the bitwise
    transpose. The returned array is read-only and cached.

    The cache lives for the process and pays only across calls: warm
    bank-wide ``filters`` (32 bins, top order 35) takes 31.4 ms with it and
    33.5 ms without, a 16-bin head-tracking move 8.0 and 9.0 ms (2-core
    Xeon, one BLAS thread); a cold call gains nothing. An order-35 plan of
    first-order rows needs 107 grids. Bound: 20000 grids of
    (2 n1 + 1)(2 n2 + 1) doubles, by count and not by bytes: a 35 <- 45
    matrix asks for 22866 grids (473 MB), so its repeat finds none cached.
    """
    out = np.zeros((2 * n1 + 1, 2 * n2 + 1))
    if _triangle_ok(n1, n2, l) and (n1 + n2 + l) % 2 == 0:
        w, y = _gauss_legendre_sh((n1 + n2 + l) // 2 + 1)
        m1 = np.arange(-n1, n1 + 1)
        m2 = np.arange(-n2, n2 + 1)
        m3 = m1[:, None] + m2[None, :]
        valid = np.abs(m3) <= l
        # (y1 y2) y3w with the Y_n1 Y_n2 product commutative, so the
        # exchanged call rounds identically
        y3w = y[l, np.where(valid, m3, 0)] * w
        terms = (y[n1, m1][:, None, :] * y[n2, m2][None, :, :]) * y3w
        out[valid] = terms[valid].sum(axis=-1)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# Wigner D rotation blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def wigner_d_block(n, angles):
    """Wigner D-matrix block of order n for z-y-z Euler angles.

    Returns the (2n+1) x (2n+1) unitary matrix D with entries
    ``D[m' + n, m + n] = exp(-j m' alpha) d^n_{m',m}(beta) exp(-j m gamma)``
    in the convention where the actively rotated harmonic satisfies
    ``Y_n^m(R(angles)^{-1} x) = sum_{m'} D[m', m] Y_n^{m'}(x)``.

    D(identity angles) is the identity and D(g1) @ D(g2) = D(g1 o g2).
    The returned array is read-only and cached, so the bins of one head
    rotation build each order's block once.
    """
    d = _wigner_little_d(n, angles.beta)
    m = np.arange(-n, n + 1)
    out = np.exp(-1j * m[:, None] * angles.alpha) * d * np.exp(-1j * m[None, :] * angles.gamma)
    out.flags.writeable = False
    return out


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
