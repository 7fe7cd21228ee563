"""Tests for the plain-text trace format."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.traces.request import OP_WRITE
from repro.traces.text_format import load_text_trace, save_text_trace
from repro.traces.trace import Trace


class TestLoad:
    def test_parses_ops_and_pages(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text(
            "# a comment\n"
            "W 0x1000\n"
            "R 4096\n"
            "\n"
            "W 8192 latency=12\n"
        )
        trace = load_text_trace(str(path))
        assert trace.n_requests == 3
        assert trace.n_writes == 2
        assert list(trace.pages) == [1, 1, 2]

    def test_lowercase_ops_accepted(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("w 0\nr 0\n")
        assert load_text_trace(str(path)).n_writes == 1

    def test_custom_page_size(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("W 256\n")
        trace = load_text_trace(str(path), page_bytes=256)
        assert list(trace.pages) == [1]

    def test_name_from_filename(self, tmp_path):
        path = tmp_path / "mybench.trace"
        path.write_text("W 0\n")
        assert load_text_trace(str(path)).name == "mybench"

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_text_trace(str(tmp_path / "none.trace"))

    def test_rejects_bad_op(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("X 0\n")
        with pytest.raises(TraceError, match="unknown op"):
            load_text_trace(str(path))

    def test_rejects_bad_address(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("W zz\n")
        with pytest.raises(TraceError, match="bad address"):
            load_text_trace(str(path))

    def test_rejects_short_line(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("W\n")
        with pytest.raises(TraceError):
            load_text_trace(str(path))

    def test_rejects_empty_trace(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("# only comments\n")
        with pytest.raises(TraceError):
            load_text_trace(str(path))

    def test_rejects_non_power_of_two_page(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("W 0\n")
        with pytest.raises(TraceError):
            load_text_trace(str(path), page_bytes=3000)


class TestRoundtrip:
    def test_save_then_load(self, tmp_path):
        original = Trace(np.full(3, OP_WRITE), [0, 7, 3], name="rt", write_bandwidth_mbps=5.0)
        path = str(tmp_path / "rt.trace")
        save_text_trace(original, path)
        loaded = load_text_trace(str(path), write_bandwidth_mbps=5.0)
        assert list(loaded.pages) == [0, 7, 3]
        assert loaded.n_writes == 3

    def test_saved_file_is_readable_text(self, tmp_path):
        path = str(tmp_path / "x.trace")
        save_text_trace(Trace(np.full(1, OP_WRITE), [1]), path)
        content = open(path).read()
        assert "W 0x1000" in content
