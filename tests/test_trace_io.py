"""Tests for trace persistence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.io import load_trace, save_trace
from repro.traces.request import OP_WRITE
from repro.traces.trace import Trace


class TestTraceIO:
    def test_roundtrip(self, tmp_path):
        trace = Trace(np.full(4, OP_WRITE), [1, 5, 5, 2], name="demo", write_bandwidth_mbps=42.0)
        path = str(tmp_path / "demo.npz")
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == "demo"
        assert loaded.write_bandwidth_mbps == 42.0
        assert (loaded.pages == trace.pages).all()
        assert (loaded.ops == trace.ops).all()

    def test_roundtrip_without_bandwidth(self, tmp_path):
        trace = Trace(np.full(1, OP_WRITE), [0])
        path = str(tmp_path / "nb.npz")
        save_trace(trace, path)
        assert load_trace(path).write_bandwidth_mbps is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(str(tmp_path / "nope.npz"))

    def test_malformed_archive(self, tmp_path):
        path = str(tmp_path / "bad.npz")
        np.savez(path, junk=np.array([1]))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_creates_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "t.npz")
        save_trace(Trace(np.full(1, OP_WRITE), [3]), path)
        assert load_trace(path).n_writes == 1

    def test_version_checked(self, tmp_path):
        path = str(tmp_path / "v.npz")
        metadata = np.frombuffer(b'{"version": 99}', dtype=np.uint8)
        np.savez(
            path,
            ops=np.array([1], dtype=np.uint8),
            pages=np.array([0], dtype=np.int64),
            metadata=metadata,
        )
        with pytest.raises(TraceError):
            load_trace(path)


class TestCorruptTraceFiles:
    """Every corruption mode surfaces as TraceError naming the file."""

    def _save(self, tmp_path, name="t.npz"):
        path = str(tmp_path / name)
        save_trace(Trace(np.full(3, OP_WRITE), [1, 2, 3], name="demo"), path)
        return path

    def test_not_an_archive(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as handle:
            handle.write(b"this is not a zip file")
        with pytest.raises(TraceError, match="junk.npz"):
            load_trace(path)

    def test_truncated_archive(self, tmp_path):
        path = self._save(tmp_path)
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        with pytest.raises(TraceError, match="t.npz"):
            load_trace(path)

    def test_missing_member_names_record(self, tmp_path):
        path = str(tmp_path / "m.npz")
        np.savez(path, ops=np.array([1], dtype=np.uint8))
        with pytest.raises(TraceError, match="pages"):
            load_trace(path)

    def test_undecodable_metadata(self, tmp_path):
        path = str(tmp_path / "u.npz")
        np.savez(
            path,
            ops=np.array([1], dtype=np.uint8),
            pages=np.array([0], dtype=np.int64),
            metadata=np.frombuffer(b"\xff\xfenot json", dtype=np.uint8),
        )
        with pytest.raises(TraceError, match="metadata"):
            load_trace(path)

    def test_non_object_metadata(self, tmp_path):
        path = str(tmp_path / "l.npz")
        np.savez(
            path,
            ops=np.array([1], dtype=np.uint8),
            pages=np.array([0], dtype=np.int64),
            metadata=np.frombuffer(b"[1, 2]", dtype=np.uint8),
        )
        with pytest.raises(TraceError, match="JSON object"):
            load_trace(path)

    def test_invalid_records_name_file(self, tmp_path):
        path = str(tmp_path / "r.npz")
        metadata = np.frombuffer(b'{"version": 1}', dtype=np.uint8)
        np.savez(
            path,
            ops=np.array([7], dtype=np.uint8),  # invalid op code
            pages=np.array([0], dtype=np.int64),
            metadata=metadata,
        )
        with pytest.raises(TraceError, match="r.npz"):
            load_trace(path)

    def test_mismatched_record_lengths(self, tmp_path):
        path = str(tmp_path / "s.npz")
        metadata = np.frombuffer(b'{"version": 1}', dtype=np.uint8)
        np.savez(
            path,
            ops=np.array([1, 1], dtype=np.uint8),
            pages=np.array([0], dtype=np.int64),
            metadata=metadata,
        )
        with pytest.raises(TraceError, match="s.npz"):
            load_trace(path)
