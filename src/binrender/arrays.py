"""Microphone and array geometry construction.

Three array builders: the 8-mic unidirectional small array (tetragonal
trapezohedron), the 64-mic composite array of eight small arrays, and the
64-mic rigid-sphere array on embedded spherical 7-design nodes. Geometries
serialize to a JSON format whose positions are decimal strings with 12
significant digits; builders quantize coordinates to the same precision so
files round-trip bit-identically.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .special import SQRT_4PI, sh_matrix
from .utils import (
    cart2sph,
    format_significant,
    json_field,
    own_arrays,
    quantize_significant,
    rotation_matrix_z,
    unit,
)


GEOMETRY_FORMAT_VERSION = 1

DEFAULT_SMALL_RADIUS = 0.015  # not stated in the source material; commercial
#                               2nd-order ambisonics mics are about this size
RING_RADIUS = 0.145
RING_HEIGHT = 0.025
DEFAULT_BETA = 0.5
DEFAULT_BAFFLE_RADIUS = 0.145


@dataclass(frozen=True, eq=False)
class Microphone:
    """A directional microphone: position, directivity peak, SH directivity.

    ``dir_coeffs`` are the expansion coefficients c of the directivity
    pattern; the observation of a field with local coefficients a is
    conj(c) . a. Length must be a perfect square (order-complete).
    """

    position: np.ndarray
    orientation: np.ndarray
    dir_coeffs: np.ndarray

    def __post_init__(self):
        pos, ori, c = own_arrays(self, position=float, orientation=float, dir_coeffs=complex)
        if pos.shape != (3,) or ori.shape != (3,):
            raise ValueError("position and orientation must be 3-vectors")
        if not (np.isfinite(pos).all() and np.isfinite(c).all()):
            raise ValueError("position and dir_coeffs must be finite")
        if not math.isclose(np.linalg.norm(ori), 1.0, rel_tol=1e-6):
            raise ValueError("orientation must be a unit vector")
        order = math.isqrt(c.size) - 1
        if (order + 1) ** 2 != c.size:
            raise ValueError("dir_coeffs length must be a perfect square")

    @property
    def directivity_order(self):
        return math.isqrt(self.dir_coeffs.size) - 1


@dataclass(frozen=True, eq=False)
class RigidBaffle:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c, = own_arrays(self, center=float)
        if c.shape != (3,):
            raise ValueError("baffle center must be a 3-vector")
        if not np.isfinite(c).all():
            raise ValueError("baffle center must be finite")
        if not 0 < self.radius < math.inf:
            raise ValueError("baffle radius must be positive and finite")


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    mics: tuple
    baffle: RigidBaffle | None = None

    def __post_init__(self):
        object.__setattr__(self, "mics", tuple(self.mics))
        if not self.mics:
            raise ValueError("a geometry needs at least one microphone")
        if self.baffle is not None:
            for mic in self.mics:
                r = np.linalg.norm(mic.position - self.baffle.center)
                if abs(r - self.baffle.radius) > 1e-9:
                    raise ValueError("all microphones must lie on the rigid baffle surface")

    @property
    def n_mics(self):
        return len(self.mics)

    def positions(self):
        return np.array([m.position for m in self.mics])

    @cached_property
    def directivities(self):
        """Every mic's directivity coefficients zero-padded to the highest
        directivity order p: (read-only (n_mics, (p+1)^2) array, p), built once."""
        order = max(m.directivity_order for m in self.mics)
        c = np.zeros((self.n_mics, (order + 1) ** 2), dtype=complex)
        for i, mic in enumerate(self.mics):
            c[i, : mic.dir_coeffs.size] = mic.dir_coeffs
        c.flags.writeable = False
        return c, order

    @cached_property
    def upper_pairs(self):
        """(iu, ju), the mic pairs of the upper triangle (diagonal included) in
        ``np.triu_indices`` order: read-only, built once."""
        iu, ju = np.triu_indices(self.n_mics)
        iu.flags.writeable = ju.flags.writeable = False
        return iu, ju

    @cached_property
    def upper_flat(self):
        """(upper, lower), the flat indices into an (n_mics, n_mics) C-order
        matrix of the ``upper_pairs`` entries and of their mirror images:
        read-only, built once."""
        iu, ju = self.upper_pairs
        upper, lower = iu * self.n_mics + ju, ju * self.n_mics + iu
        upper.flags.writeable = lower.flags.writeable = False
        return upper, lower

    def content_hash(self):
        """SHA-256 (hex) of the geometry's JSON form."""
        import hashlib

        return hashlib.sha256(geometry_to_json(self).encode()).hexdigest()


def cardioid_coeffs(beta, orientation):
    """Directivity SH coefficients of beta + (1 - beta) <eta, orientation>.

    ``eta`` is the arrival direction of the incident wave (pointing from the
    microphone toward the source); beta = 1 is omnidirectional, beta = 1/2 a
    cardioid with a rear null. Returns length-4 complex vector
    [beta, c_1^-1, c_1^0, c_1^1] with
    c_1^m = (sqrt(4 pi) j / 3) (1 - beta) conj(Y_1^m(orientation)).
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    ori = unit(orientation)
    _, theta, phi = cart2sph(ori)
    first = (SQRT_4PI * 1j / 3.0) * (1.0 - beta) * np.conj(sh_matrix(1, theta, phi)[0, 1:])
    return np.concatenate([[beta + 0.0j], first])


def _quantized(vec):
    return np.array([quantize_significant(x) for x in vec])


def _trapezohedron_vertices(radius):
    """Tetragonal trapezohedron: squares at z = +-r/sqrt(3), lower twisted 45 deg."""
    h = radius / math.sqrt(3.0)
    rho = radius * math.sqrt(2.0 / 3.0)
    verts = []
    for az in (45.0, 135.0, 225.0, 315.0):
        a = math.radians(az)
        verts.append([rho * math.cos(a), rho * math.sin(a), h])
    for az in (0.0, 90.0, 180.0, 270.0):
        a = math.radians(az)
        verts.append([rho * math.cos(a), rho * math.sin(a), -h])
    return np.array(verts)


def build_small_array(center=(0.0, 0.0, 0.0), yaw=0.0, radius=DEFAULT_SMALL_RADIUS, beta=DEFAULT_BETA):
    """8 outward-oriented cardioid mics on tetragonal-trapezohedron vertices."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    rz = rotation_matrix_z(yaw)
    mics = []
    for v in _trapezohedron_vertices(radius):
        v = rz @ v
        ori = v / np.linalg.norm(v)
        mics.append(
            Microphone(
                position=_quantized(center + v),
                orientation=_quantized(ori),
                dir_coeffs=cardioid_coeffs(beta, ori),
            )
        )
    return ArrayGeometry(mics=tuple(mics))


def build_composite_array(center=(0.0, 0.0, 0.0), beta=DEFAULT_BETA):
    """Composite array: 4 small arrays per ring at two heights, 64 mics total.

    Small arrays of radius 0.015 m sit equiangularly (azimuths 0/90/180/270 at
    both heights) on the ring of radius 0.145 m at z = +-0.025 m, each yawed by
    its own azimuth so the whole geometry is covariant under 90-degree rotation.
    """
    center = np.asarray(center, dtype=float)
    mics = []
    for zsign in (+1.0, -1.0):
        for az_deg in (0.0, 90.0, 180.0, 270.0):
            az = math.radians(az_deg)
            offset = [RING_RADIUS * math.cos(az), RING_RADIUS * math.sin(az), zsign * RING_HEIGHT]
            mics.extend(build_small_array(center=center + np.array(offset), yaw=az, beta=beta).mics)
    return ArrayGeometry(mics=tuple(mics))


def tdesign_nodes():
    """Embedded 64-node spherical 7-design (unit vectors, shape (64, 3))."""
    with resources.files("binrender").joinpath("data/tdesign_t7_n64.json").open() as f:
        asset = json.load(f)
    nodes = np.array([[float(c) for c in row] for row in asset["nodes"]])
    return nodes / np.linalg.norm(nodes, axis=1)[:, None]


def build_rigid_sphere_array(center=(0.0, 0.0, 0.0), radius=DEFAULT_BAFFLE_RADIUS):
    """64 omnidirectional mics on a rigid sphere at spherical 7-design nodes."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    omni = np.array([1.0 + 0.0j])
    mics = []
    for node in tdesign_nodes():
        mics.append(
            Microphone(
                position=_quantized(center + radius * node),
                orientation=_quantized(node),
                dir_coeffs=omni,
            )
        )
    baffle = RigidBaffle(center=_quantized(center), radius=quantize_significant(radius))
    return ArrayGeometry(mics=tuple(mics), baffle=baffle)


# ---------------------------------------------------------------------------
# Geometry JSON format
# ---------------------------------------------------------------------------

def _vec_strings(vec):
    return [format_significant(x) for x in vec]


def geometry_to_json(geom: ArrayGeometry) -> str:
    doc = {
        "format": "binrender-geometry",
        "version": GEOMETRY_FORMAT_VERSION,
        "mics": [
            {
                "pos": _vec_strings(m.position),
                "orient": _vec_strings(m.orientation),
                "dir_coeffs": [[c.real, c.imag] for c in m.dir_coeffs],
            }
            for m in geom.mics
        ],
    }
    if geom.baffle is not None:
        doc["baffle"] = {
            "type": "rigid_sphere",
            "center": _vec_strings(geom.baffle.center),
            "radius": format_significant(geom.baffle.radius),
        }
    return json.dumps(doc, indent=1, sort_keys=True)


def _vector(value):
    return np.array([float(x) for x in value])


def geometry_from_json(text: str) -> ArrayGeometry:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "binrender-geometry":
        raise ValueError("not a geometry document")
    if doc.get("version") != GEOMETRY_FORMAT_VERSION:
        raise ValueError(f"unsupported geometry format version {doc.get('version')}")
    mics = []
    for i, entry in enumerate(json_field(doc, "mics", "geometry document", list)):
        where = f"mic {i}"
        orient = json_field(entry, "orient", where, _vector)
        if "dir_coeffs" in entry:
            coeffs = json_field(entry, "dir_coeffs", where,
                                lambda pairs: np.array([complex(re, im) for re, im in pairs]))
        elif "beta" in entry:
            coeffs = cardioid_coeffs(json_field(entry, "beta", where, float), orient)
        else:
            raise ValueError(f"{where} needs dir_coeffs or beta")
        mics.append(Microphone(position=json_field(entry, "pos", where, _vector),
                               orientation=orient, dir_coeffs=coeffs))
    baffle = None
    if "baffle" in doc:
        b = doc["baffle"]
        center = json_field(b, "center", "baffle", _vector)
        if b.get("type") != "rigid_sphere":
            raise ValueError(f"unknown baffle type {b.get('type')}")
        baffle = RigidBaffle(center=center, radius=json_field(b, "radius", "baffle", float))
    return ArrayGeometry(mics=tuple(mics), baffle=baffle)


def save_geometry(geom: ArrayGeometry, path):
    with open(path, "w") as f:
        f.write(geometry_to_json(geom))


def load_geometry(path) -> ArrayGeometry:
    with open(path) as f:
        return geometry_from_json(f.read())
