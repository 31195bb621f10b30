"""Coordinate conversions and small shared helpers."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def cart2sph(xyz):
    """Cartesian -> spherical (r, zenith theta, azimuth phi).

    Parameters
    ----------
    xyz : array_like, shape (..., 3)

    Returns
    -------
    r : ndarray, shape (...)
    theta : ndarray, shape (...)
        Zenith angle in [0, pi], measured from +z.
    phi : ndarray, shape (...)
        Azimuth in (-pi, pi], measured from +x toward +y.
    """
    xyz = np.asarray(xyz, dtype=float)
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore"):
        theta = np.where(r > 0, np.arccos(np.clip(np.divide(z, np.where(r > 0, r, 1.0)), -1.0, 1.0)), 0.0)
    phi = np.arctan2(y, x)
    return r, theta, phi


def sph2cart(r, theta, phi):
    """Spherical (r, zenith, azimuth) -> cartesian, stacked on the last axis."""
    r = np.asarray(r, dtype=float)
    st = np.sin(theta)
    return np.stack([r * st * np.cos(phi), r * st * np.sin(phi), r * np.cos(theta)], axis=-1)


def unit(v):
    """Normalize a vector; raises on zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def rotation_matrix_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_matrix_zyz(alpha, beta, gamma):
    """Rotation matrix R = Rz(alpha) Ry(beta) Rz(gamma) (z-y-z convention)."""
    return rotation_matrix_z(alpha) @ rotation_matrix_y(beta) @ rotation_matrix_z(gamma)


def quantize_significant(x, digits=12):
    """Round a float to `digits` significant decimal digits.

    The result parses back bit-identically from its ``%.{digits-1}e``
    representation, which is what makes geometry files round-trip exactly.
    """
    return float(f"{float(x):.{digits - 1}e}")


def format_significant(x, digits=12):
    """Decimal-string form used in geometry files (12 significant digits)."""
    return f"{float(x):.{digits - 1}e}"


def ordered_map(fn, items, workers=1):
    """``[fn(x) for x in items]``, spread over ``workers`` threads when > 1.

    Results come back in input order, so callers reduce them identically
    for any worker count.
    """
    if workers <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
