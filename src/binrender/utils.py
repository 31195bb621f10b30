"""Coordinate conversions and small shared helpers."""

import numpy as np
from scipy.linalg import lapack


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


def cho_factor(a, singular):
    """Upper Cholesky factor of the Hermitian positive definite ``a`` from LAPACK
    ``?potrf``: bitwise ``scipy.linalg.cho_factor(a)[0]``, without its wrapper's
    overhead; the strict lower triangle keeps ``a``'s values. ValueError if ``a``
    is not finite, LinAlgError(``singular``) if it is not positive definite."""
    a = np.asarray_chkfinite(a)
    potrf = lapack.zpotrf if a.dtype.kind == "c" else lapack.dpotrf
    factor, info = potrf(a, lower=False, clean=False)
    if info > 0:
        raise np.linalg.LinAlgError(singular)
    return factor


def cho_solve(factor, b):
    """A^{-1} b, b of shape (n,) or (n, K), from the ``cho_factor`` of A through LAPACK
    ``?potrs``: bitwise ``scipy.linalg.cho_solve((factor, False), b)``, b untouched.
    ValueError if b is not finite."""
    b = np.asarray_chkfinite(b)
    potrs = lapack.zpotrs if "c" in (factor.dtype.kind, b.dtype.kind) else lapack.dpotrs
    return potrs(factor, b, lower=False)[0]


def own_arrays(obj, **dtypes):
    """Set each named field of the frozen dataclass ``obj`` to a read-only copy
    of its value, converted to the given dtype (``np.array(value, dtype)``),
    and return the copies in order. The caller's arrays are left as they were."""
    copies = []
    for name, dtype in dtypes.items():
        a = np.array(getattr(obj, name), dtype=dtype)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)
        copies.append(a)
    return copies


def json_field(doc, key, where, convert=None):
    """``doc[key]``, passed through ``convert``, for a parsed JSON object called
    ``where`` in messages. ValueError naming the key if ``doc`` is not an
    object, has no ``key``, or holds a value there that ``convert`` refuses
    with TypeError or ValueError (a value of the wrong JSON type)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in doc:
        raise ValueError(f"{where} has no {key!r}")
    try:
        return doc[key] if convert is None else convert(doc[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where} {key!r}: {exc}") from None


def rotation_matrix_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix_y(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_matrix_zyz(alpha, beta, gamma):
    """Rotation matrix R = Rz(alpha) Ry(beta) Rz(gamma) (z-y-z convention)."""
    return rotation_matrix_z(alpha) @ rotation_matrix_y(beta) @ rotation_matrix_z(gamma)


def format_significant(x):
    """Decimal-string form used in geometry files (12 significant digits)."""
    return f"{float(x):.11e}"


def quantize_significant(x):
    """``x`` rounded to the 12 significant digits of ``format_significant``, which
    parses back bit-identically: geometry files round-trip exactly."""
    return float(format_significant(x))

