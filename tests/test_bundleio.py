"""Bundle format round trips."""

import json

import numpy as np
import pytest

from binrender import bundleio
from binrender.hrtf import SyntheticHead, fibonacci_grid, synth_rigid_sphere_hrtf


class TestBundle:
    def test_generic_roundtrip(self, tmp_path, rng):
        data = (rng.normal(size=(2, 3, 5)) + 1j * rng.normal(size=(2, 3, 5))).astype(np.complex64)
        base = bundleio.write_bundle(tmp_path / "x", {"kind": "test"}, data)
        doc, loaded = bundleio.read_bundle(base)
        assert doc["kind"] == "test"
        assert doc["shape"] == [2, 3, 5]
        # the blob as stored: each loader converts it once, in the copy it keeps
        assert loaded.dtype == np.complex64 and not loaded.flags.writeable
        assert np.array_equal(loaded, data)

    def test_hrtf_roundtrip_exact(self, tmp_path):
        head = SyntheticHead()
        hs = synth_rigid_sphere_hrtf(head, fibonacci_grid(30), [500.0, 900.0], 1.5)
        base = bundleio.save_hrtf_bundle(tmp_path / "hrtf", hs)
        loaded = bundleio.load_hrtf_bundle(base)
        assert loaded.responses.dtype == complex
        assert loaded.radius == hs.radius
        assert loaded.sample_rate == hs.sample_rate
        assert np.array_equal(loaded.directions, hs.directions)
        assert np.array_equal(loaded.freqs, hs.freqs)
        # complex64 is the wire precision: the quantized values round trip bit-exactly
        assert np.array_equal(loaded.responses.astype(np.complex64),
                              hs.responses.astype(np.complex64))

    def test_observation_roundtrip(self, tmp_path, rng):
        obs = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        freqs = np.array([100.0, 200.0, 300.0, 400.0])
        base = bundleio.save_observation_bundle(tmp_path / "obs", freqs, obs, geometry_hash="abc")
        freqs2, obs2 = bundleio.load_observation_bundle(base)
        assert obs2.dtype == complex
        assert np.array_equal(freqs, freqs2)
        assert np.array_equal(obs2.astype(np.complex64), obs.astype(np.complex64))

    def test_observation_geometry_hash_checked(self, tmp_path):
        obs = np.ones((2, 3), dtype=complex)
        base = bundleio.save_observation_bundle(tmp_path / "obs", [1.0, 2.0], obs,
                                                geometry_hash="abc")
        bundleio.load_observation_bundle(base, geometry_hash="abc")
        with pytest.raises(ValueError, match="another array geometry"):
            bundleio.load_observation_bundle(base, geometry_hash="xyz")
        # bundles that record no hash are not checked
        base = bundleio.save_observation_bundle(tmp_path / "bare", [1.0, 2.0], obs)
        bundleio.load_observation_bundle(base, geometry_hash="xyz")

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        obs = rng.normal(size=(2, 2)).astype(complex)
        base = bundleio.save_observation_bundle(tmp_path / "obs", [1.0, 2.0], obs)
        with pytest.raises(ValueError):
            bundleio.load_hrtf_bundle(base)

    def test_not_a_bundle_rejected(self, tmp_path):
        (tmp_path / "y.json").write_text('{"format": "other"}')
        (tmp_path / "y.bin").write_bytes(b"")
        with pytest.raises(ValueError):
            bundleio.read_bundle(tmp_path / "y")

    # a missing key (None), and values of another JSON type
    @pytest.mark.parametrize("key, value", [
        ("shape", None), ("radius", None), ("directions", None), ("freqs", None), ("sample_rate", None),
        ("shape", "abc"), ("shape", [2, 1.5, 30]), ("shape", [2, 1, 31]), ("radius", "null"),
        ("radius", [1.5]), ("sample_rate", "abc"), ("directions", [[0.1, 0.2], [0.3]]),
        ("directions", "null"), ("freqs", ["abc"]), ("freqs", 500.0),
    ], ids=["shape", "radius", "directions", "freqs", "sample_rate", "shape-string", "shape-fraction",
            "shape-size", "radius-null", "radius-list", "sample_rate-string", "directions-ragged",
            "directions-null", "freqs-strings", "freqs-number"])
    def test_missing_hrtf_header_key_named(self, tmp_path, key, value):
        hs = synth_rigid_sphere_hrtf(SyntheticHead(), fibonacci_grid(30), [500.0], 1.5)
        header = bundleio.save_hrtf_bundle(tmp_path / "hrtf", hs).with_suffix(".json")
        doc = json.loads(header.read_text())
        if value is None:
            del doc[key]
            message = f"bundle header has no '{key}'"
        else:
            doc[key] = None if value == "null" else value
            message = f"bundle header '{key}': "
        header.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            bundleio.load_hrtf_bundle(header)

    def test_blob_is_little_endian_interleaved(self, tmp_path):
        data = np.array([[1.0 + 2.0j, 3.0 - 4.0j]], dtype=np.complex64)
        base = bundleio.write_bundle(tmp_path / "z", {"kind": "test"}, data)
        raw = np.frombuffer(base.with_suffix(".bin").read_bytes(), dtype="<f4")
        assert list(raw) == [1.0, 2.0, 3.0, -4.0]

    @pytest.mark.parametrize("failing", [".json", ".bin"])
    def test_failed_rewrite_leaves_no_mismatched_header(self, tmp_path, monkeypatch, failing):
        # a rewrite that fails on either file leaves neither the new header
        # beside the old blob nor the old header beside the new one
        import errno
        import os

        old = np.array([1.0 + 2.0j], dtype=np.complex64)
        base = bundleio.write_bundle(tmp_path / "b", {"kind": "test"}, old)
        replace = os.replace

        def full_disk(src, dst):
            if str(dst).endswith(failing):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(src))
            replace(src, dst)

        monkeypatch.setattr(bundleio.os, "replace", full_disk)
        with pytest.raises(OSError, match=f"b\\{failing}'$"):
            bundleio.write_bundle(base, {"kind": "test"}, np.zeros((3, 2), dtype=np.complex64))
        assert not base.with_suffix(".json").exists()
        assert set(p.name for p in tmp_path.iterdir()) <= {"b.bin"}

    def test_rewrite_is_byte_identical_to_a_first_write(self, tmp_path, rng):
        data = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))).astype(np.complex64)
        first = bundleio.write_bundle(tmp_path / "first", {"kind": "test"}, data)
        again = bundleio.write_bundle(tmp_path / "again", {"kind": "test"}, data[::-1])
        bundleio.write_bundle(again, {"kind": "test"}, data)
        for suffix in (".json", ".bin"):
            assert again.with_suffix(suffix).read_bytes() == first.with_suffix(suffix).read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["again.bin", "again.json",
                                                             "first.bin", "first.json"]
