"""Bundle file format: one JSON header plus one little-endian binary blob.

Used for HRTF sets ([ear][freq][direction] layout) and microphone
observations ([freq][mic]); responses are interleaved complex float32.
A bundle at ``base`` occupies ``base.json`` and ``base.bin``; a failed
write leaves no header without its own blob.
"""

import json
import os
from pathlib import Path

import numpy as np

from .hrtf import HrtfSet
from .utils import json_field

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
    text = json.dumps(doc, indent=1, sort_keys=True)
    _write_pair(base.with_suffix(".json"), text.encode(), base.with_suffix(".bin"),
                data.astype("<c8").tobytes())
    return base


def _write_pair(header_path, header, blob_path, blob):
    """Write a header and its blob so that no failure leaves the header beside
    a blob that is missing or came from another write.

    Both are written to temporaries beside them first. Then the old header
    goes, the blob takes its place, and the header comes last. No temporary
    outlives the call, and an OSError names the file it was meant for.
    """
    contents = {header_path: header, blob_path: blob}
    temps = {path: path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in contents}
    try:
        for target, content in contents.items():
            temps[target].write_bytes(content)
        target = header_path
        header_path.unlink(missing_ok=True)
        for target in (blob_path, header_path):
            os.replace(temps[target], target)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _field(doc, key, convert=None):
    return json_field(doc, key, "bundle header", convert)


def _floats(value):
    return np.array(list(value), dtype=float)


def read_bundle(base):
    """(header, data): the blob as stored, a read-only complex64 array of the
    header's shape. Each loader converts it once, in the copy it keeps."""
    base = _strip(base)
    doc = json.loads(base.with_suffix(".json").read_text())
    if _field(doc, "format") != "binrender-bundle":
        raise ValueError("not a binrender bundle")
    if doc.get("version") != BUNDLE_FORMAT_VERSION:
        raise ValueError(f"unsupported bundle version {doc.get('version')}")
    flat = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<c8")
    data = _field(doc, "shape", lambda shape: flat.reshape(tuple(shape)))
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
        radius=_field(doc, "radius", float),
        directions=_field(doc, "directions", _floats),
        freqs=_field(doc, "freqs", _floats),
        responses=data,
        sample_rate=_field(doc, "sample_rate", float),
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
    freqs = _field(doc, "freqs", _floats)
    if data.ndim != 2 or data.shape[0] != freqs.size:
        raise ValueError(f"bundle header 'shape' must be [{freqs.size}, mics], one row per frequency")
    return freqs, data.astype(complex)
