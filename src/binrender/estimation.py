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
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .arrays import ArrayGeometry
from .special import num_coeffs, orders_degrees, sh_matrix, sph_hankel2_deriv
from .utils import cart2sph
from .wavefield import ShCoeffVec, translate_multi

SQRT_4PI = math.sqrt(4.0 * math.pi)


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

def _stacked_directivities(geom: ArrayGeometry):
    order = max(m.directivity_order for m in geom.mics)
    c = np.zeros((geom.n_mics, num_coeffs(order)), dtype=complex)
    for i, mic in enumerate(geom.mics):
        c[i, : mic.dir_coeffs.size] = mic.dir_coeffs
    return c, order


def build_psi(geom: ArrayGeometry, k):
    """Observation Gram matrix, (Psi)_{i,i'} = conj(c_i) . T(r_i - r_i') c_i'.

    Every element is an exact element of the infinite-order operator (the
    directivities have finite order, so no truncation enters). Assembled on
    the upper triangle and mirrored, hence Hermitian by construction; the
    diagonal is real positive.
    """
    c, p = _stacked_directivities(geom)
    pos = geom.positions()
    iu, ju = np.triu_indices(geom.n_mics)
    disp = pos[iu] - pos[ju]
    tc = translate_multi(disp, k, p, c[ju])
    vals = np.einsum("pq,pq->p", np.conj(c[iu]), tc)
    psi = np.zeros((geom.n_mics, geom.n_mics), dtype=complex)
    psi[iu, ju] = vals
    psi_full = psi + psi.conj().T
    psi_full[np.diag_indices_from(psi_full)] = np.real(np.diag(psi))
    return psi_full


def build_xi(geom: ArrayGeometry, target, k, order):
    """Synthesis matrix Xi(r): column i is T(r - r_i) c_i, truncated rows.

    The rows of Xi are independent, so the returned block for any order is
    identical to the corresponding block of a higher-order build; buffering
    matters only when the estimated vector is subsequently translated.
    """
    c, _ = _stacked_directivities(geom)
    target = np.asarray(target, dtype=float)
    disp = target[None, :] - geom.positions()
    return translate_multi(disp, k, order, c).T


class Estimator:
    """Distributed-array estimator state for one (geometry, wavenumber, lambda).

    Holds Psi and a Hermitian factorization of (Psi + lambda I) shared
    across target positions, rotations, and observations, plus the most
    recently requested synthesis matrix Xi(r), which head rotations at a
    fixed position reuse.
    """

    def __init__(self, geom: ArrayGeometry, k, lam="auto"):
        if not k > 0:
            raise ValueError("wavenumber must be positive")
        self.geom = geom
        self.k = float(k)
        self.psi = build_psi(geom, k)
        if lam == "auto":
            lam = 1e-3 * np.real(np.trace(self.psi)) / geom.n_mics
        if lam < 0:
            raise ValueError("lambda must be non-negative")
        self.lam = float(lam)
        try:
            self._factor = cho_factor(self.psi + self.lam * np.eye(geom.n_mics))
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                "Psi + lambda I is singular; increase lambda"
            ) from exc
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
        return ShCoeffVec(alpha, np.asarray(target, dtype=float), self.k, order)

    def predicted_observation(self, alpha: ShCoeffVec):
        """Forward prediction s_hat = Xi(r)^H alpha(r)."""
        xi = self.xi(alpha.center, alpha.order)
        return xi.conj().T @ alpha.coeffs


def estimate_coeffs(s, geom: ArrayGeometry, target, k, lam="auto", order=None) -> ShCoeffVec:
    """One-shot convenience wrapper around :class:`Estimator`."""
    if order is None:
        raise ValueError("order must be given")
    return Estimator(geom, k, lam).coeffs(s, target, order)
