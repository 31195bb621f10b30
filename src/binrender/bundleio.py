"""Bundle file format: one JSON header plus one little-endian binary blob.

Used for HRTF sets ([ear][freq][direction] layout) and microphone
observations ([freq][mic]); responses are interleaved complex float32.
A bundle at ``base`` occupies ``base.json`` and ``base.bin``.
"""

import json
from pathlib import Path

import numpy as np

from .hrtf import HrtfSet

BUNDLE_FORMAT_VERSION = 1


def _strip(base):
    base = Path(base)
    if base.suffix in (".json", ".bin"):
        base = base.with_suffix("")
    return base


def write_bundle(base, header: dict, data: np.ndarray):
    base = _strip(base)
    data = np.ascontiguousarray(data, dtype=np.complex64)
    doc = dict(header)
    doc.update(
        {
            "format": "binrender-bundle",
            "version": BUNDLE_FORMAT_VERSION,
            "dtype": "complex64",
            "endianness": "little",
            "shape": list(data.shape),
        }
    )
    blob = data.astype("<c8").tobytes()
    base.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True))
    base.with_suffix(".bin").write_bytes(blob)
    return base


def _field(doc, key):
    if key not in doc:
        raise ValueError(f"bundle header has no {key!r}")
    return doc[key]


def read_bundle(base):
    base = _strip(base)
    doc = json.loads(base.with_suffix(".json").read_text())
    if not isinstance(doc, dict):
        raise ValueError("bundle header is not a JSON object")
    if doc.get("format") != "binrender-bundle":
        raise ValueError("not a binrender bundle")
    if doc.get("version") != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle version {doc.get('version')}")
    blob = base.with_suffix(".bin").read_bytes()
    data = np.frombuffer(blob, dtype="<c8").reshape(_field(doc, "shape")).astype(complex)
    return doc, data


def save_hrtf_bundle(base, hrtf: HrtfSet):
    header = {
        "kind": "hrtf",
        "layout": "[ear][freq][direction]",
        "radius": hrtf.radius,
        "sample_rate": hrtf.sample_rate,
        "directions": [[float(t), float(p)] for t, p in hrtf.directions],
        "freqs": [float(f) for f in hrtf.freqs],
    }
    return write_bundle(base, header, hrtf.responses)


def load_hrtf_bundle(base) -> HrtfSet:
    doc, data = read_bundle(base)
    if doc.get("kind") != "hrtf":
        raise ValueError(f"bundle kind is {doc.get('kind')!r}, expected 'hrtf'")
    return HrtfSet(
        radius=float(_field(doc, "radius")),
        directions=np.array(_field(doc, "directions"), dtype=float),
        freqs=np.array(_field(doc, "freqs"), dtype=float),
        responses=data,
        sample_rate=float(_field(doc, "sample_rate")),
    )


def save_observation_bundle(base, freqs, observations, geometry_hash=None):
    """Observations laid out [freq][mic], same blob format as HRTF bundles."""
    header = {
        "kind": "observation",
        "layout": "[freq][mic]",
        "freqs": [float(f) for f in np.asarray(freqs)],
    }
    if geometry_hash is not None:
        header["geometry_hash"] = geometry_hash
    return write_bundle(base, header, observations)


def load_observation_bundle(base, geometry_hash=None):
    """(freqs, observations); ValueError if it records a hash other than ``geometry_hash``."""
    doc, data = read_bundle(base)
    if doc.get("kind") != "observation":
        raise ValueError(f"bundle kind is {doc.get('kind')!r}, expected 'observation'")
    recorded = doc.get("geometry_hash")
    if geometry_hash is not None and recorded is not None and recorded != geometry_hash:
        raise ValueError("bundle was recorded with another array geometry")
    return np.array(_field(doc, "freqs"), dtype=float), data
