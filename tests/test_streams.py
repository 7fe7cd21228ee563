"""The streaming workload pipeline: TraceStream protocol + formats.

Covers the chunked ``.twt`` on-disk format (round-trip, append,
every truncation/corruption ``TraceError`` path), the ``trace_info``
metadata peek across formats, the text and block-trace streaming
readers, the FTL dynamic workload generator (determinism, chunk-size
invariance, rewind), the stream registry, and ``StreamDriver``
(short batches at chunk boundaries, loop counting, error paths).

Scales are deliberately tiny — the bit-identity matrix at engine scale
lives in ``tests/test_engine_identity.py``.
"""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest

from repro.engine import SimulationEngine
from repro.errors import ConfigError, SimulationError, TraceError
from repro.pcm.array import PCMArray
from repro.sim.drivers import StreamDriver
from repro.sim.runner import measure_stream_lifetime
from repro.traces import (
    OP_READ,
    OP_WRITE,
    ChunkedFileStream,
    ChunkedTraceWriter,
    FTLConfig,
    FTLWorkloadStream,
    MaterializedStream,
    Trace,
    make_stream,
    open_trace_stream,
    save_chunked_trace,
    save_text_trace,
    save_trace,
    stream_names,
    trace_info,
)
from repro.traces.chunked import CHUNKED_MAGIC, _CHUNK_HEADER
from repro.wearlevel.base import WearLeveler
from repro.wearlevel.registry import make_scheme


def _mixed_trace(n_requests: int = 200, n_pages: int = 64, seed: int = 5) -> Trace:
    rng = np.random.default_rng(seed)
    ops = np.where(rng.random(n_requests) < 0.75, OP_WRITE, OP_READ).astype(np.uint8)
    pages = rng.integers(0, n_pages, size=n_requests)
    return Trace(ops, pages, name="mixed", write_bandwidth_mbps=120.0)


def _gather(stream, max_chunks: int = 10_000):
    """Concatenate a stream's chunks into one (ops, pages) pair."""
    ops_parts, pages_parts = [], []
    for _ in range(max_chunks):
        chunk = stream.next_chunk()
        if chunk is None:
            break
        ops_parts.append(chunk[0])
        pages_parts.append(chunk[1])
    return np.concatenate(ops_parts), np.concatenate(pages_parts)


class TestMaterializedStream:
    def test_chunks_concatenate_to_the_trace(self):
        trace = _mixed_trace()
        stream = trace.stream(chunk_size=7)
        ops, pages = _gather(stream)
        assert np.array_equal(ops, trace.ops)
        assert np.array_equal(pages, trace.pages)

    def test_chunk_sizes_do_not_change_the_sequence(self):
        trace = _mixed_trace()
        for chunk_size in (1, 3, 199, 200, 201, 10_000):
            ops, pages = _gather(trace.stream(chunk_size))
            assert np.array_equal(pages, trace.pages), chunk_size

    def test_rewind_restarts(self):
        stream = _mixed_trace().stream(chunk_size=64)
        first = stream.next_chunk()
        stream.rewind()
        again = stream.next_chunk()
        assert np.array_equal(first[1], again[1])

    def test_exhaustion_returns_none(self):
        stream = _mixed_trace(n_requests=5).stream(chunk_size=64)
        assert stream.next_chunk() is not None
        assert stream.next_chunk() is None

    def test_materialize_round_trip(self):
        trace = _mixed_trace()
        back = trace.stream(chunk_size=13).materialize()
        assert np.array_equal(back.ops, trace.ops)
        assert np.array_equal(back.pages, trace.pages)
        assert back.name == trace.name
        assert back.write_bandwidth_mbps == trace.write_bandwidth_mbps

    def test_materialize_truncates_at_max_requests(self):
        trace = _mixed_trace()
        short = trace.stream(chunk_size=16).materialize(max_requests=50)
        assert short.n_requests == 50
        assert np.array_equal(short.pages, trace.pages[:50])

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(TraceError, match="chunk size"):
            MaterializedStream(_mixed_trace(), chunk_size=0)
        with pytest.raises(TraceError, match="chunk size"):
            _mixed_trace().stream(chunk_size=-3)

    def test_n_requests_known(self):
        assert _mixed_trace(n_requests=77).stream(8).n_requests == 77


class TestChunkedFormat:
    def test_round_trip_identity(self, tmp_path):
        trace = _mixed_trace()
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(trace, path, chunk_size=33)
        with ChunkedFileStream(path) as stream:
            assert stream.name == "mixed"
            assert stream.write_bandwidth_mbps == 120.0
            assert stream.n_requests == trace.n_requests
            ops, pages = _gather(stream)
        assert np.array_equal(ops, trace.ops)
        assert np.array_equal(pages, trace.pages)

    def test_chunks_come_back_as_written(self, tmp_path):
        trace = _mixed_trace(n_requests=100)
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(trace, path, chunk_size=33)
        with ChunkedFileStream(path) as stream:
            sizes = [chunk[0].size for chunk in stream.chunks()]
        assert sizes == [33, 33, 33, 1]

    def test_rewind_loops_the_file(self, tmp_path):
        trace = _mixed_trace(n_requests=10)
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(trace, path)
        with ChunkedFileStream(path) as stream:
            first = stream.next_chunk()
            assert stream.next_chunk() is None
            stream.rewind()
            again = stream.next_chunk()
        assert np.array_equal(first[1], again[1])

    def test_append_extends_without_rewriting(self, tmp_path):
        trace = _mixed_trace(n_requests=40)
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(trace, path, chunk_size=40)
        with ChunkedTraceWriter(path, append=True) as writer:
            assert writer.name == "mixed"
            writer.write_chunk(trace.ops, trace.pages)
        with ChunkedFileStream(path) as stream:
            assert stream.n_requests == 80
            ops, pages = _gather(stream)
        assert np.array_equal(pages, np.concatenate([trace.pages, trace.pages]))

    def test_append_rejects_respecified_header(self, tmp_path):
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(_mixed_trace(), path)
        with pytest.raises(TraceError, match="append mode"):
            ChunkedTraceWriter(path, name="other", append=True)

    def test_append_to_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            ChunkedTraceWriter(str(tmp_path / "absent.twt"), append=True)

    def test_closed_writer_rejects_chunks(self, tmp_path):
        writer = ChunkedTraceWriter(str(tmp_path / "trace.twt"))
        writer.write_chunk(
            np.array([OP_WRITE], dtype=np.uint8), np.array([1], dtype=np.int64)
        )
        writer.close()
        with pytest.raises(TraceError, match="closed"):
            writer.write_chunk(
                np.array([OP_WRITE], dtype=np.uint8), np.array([1], dtype=np.int64)
            )

    @pytest.mark.parametrize(
        "ops, pages, match",
        [
            (np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64), "at least one"),
            (np.array([OP_WRITE], dtype=np.uint8), np.array([1, 2]), "mismatch"),
            (np.array([7], dtype=np.uint8), np.array([1]), "op codes"),
            (np.array([OP_WRITE], dtype=np.uint8), np.array([-1]), "negative"),
        ],
    )
    def test_writer_validates_chunks(self, tmp_path, ops, pages, match):
        with ChunkedTraceWriter(str(tmp_path / "trace.twt")) as writer:
            with pytest.raises(TraceError, match=match):
                writer.write_chunk(ops, pages)


class TestChunkedCorruption:
    """Every way a ``.twt`` file can be bad raises a structured TraceError."""

    def _twt(self, tmp_path, n_requests=64, chunk_size=16) -> str:
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(_mixed_trace(n_requests=n_requests), path, chunk_size)
        return path

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.twt")
        with open(path, "wb") as handle:
            handle.write(b"NOTATRCE" + b"\x00" * 32)
        with pytest.raises(TraceError, match="bad magic"):
            ChunkedFileStream(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            ChunkedFileStream(str(tmp_path / "absent.twt"))

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "bad.twt")
        with open(path, "wb") as handle:
            handle.write(CHUNKED_MAGIC + b"\xff\x00")
        with pytest.raises(TraceError, match="header length cut short"):
            ChunkedFileStream(path)

    def test_malformed_header_json(self, tmp_path):
        path = str(tmp_path / "bad.twt")
        blob = b"not json"
        with open(path, "wb") as handle:
            handle.write(CHUNKED_MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(TraceError, match="malformed chunked trace header"):
            ChunkedFileStream(path)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "bad.twt")
        blob = b'{"version": 99}'
        with open(path, "wb") as handle:
            handle.write(CHUNKED_MAGIC + struct.pack("<I", len(blob)) + blob)
        with pytest.raises(TraceError, match="unsupported chunked trace version"):
            ChunkedFileStream(path)

    def test_truncated_final_chunk_header(self, tmp_path):
        path = self._twt(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 1)
        # The earlier complete chunks still stream; the cut-short record
        # is diagnosed with its chunk index.
        with ChunkedFileStream(path) as stream:
            with pytest.raises(TraceError, match="chunk 3 .*cut short"):
                _gather(stream, max_chunks=100)

    def test_truncated_payload(self, tmp_path):
        path = self._twt(tmp_path, n_requests=16, chunk_size=16)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        with ChunkedFileStream(path) as stream:
            with pytest.raises(TraceError, match="payload cut short"):
                stream.next_chunk()

    def test_truncation_detected_by_metadata_scan(self, tmp_path):
        path = self._twt(tmp_path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        with ChunkedFileStream(path) as stream:
            with pytest.raises(TraceError, match="truncated"):
                stream.n_requests

    def test_crc_mismatch(self, tmp_path):
        path = self._twt(tmp_path, n_requests=16, chunk_size=16)
        with open(path, "r+b") as handle:
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(bytes([last[0] ^ 0xFF]))
        with ChunkedFileStream(path) as stream:
            with pytest.raises(TraceError, match="CRC mismatch"):
                stream.next_chunk()

    def test_absurd_chunk_header_rejected(self, tmp_path):
        path = self._twt(tmp_path, n_requests=16, chunk_size=16)
        data = open(path, "rb").read()
        # Locate the single chunk record: it follows magic+hdr_len+header.
        header_len = struct.unpack("<I", data[8:12])[0]
        offset = 12 + header_len
        bad = _CHUNK_HEADER.pack(1 << 40, 16, 0)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            handle.write(bad)
        with ChunkedFileStream(path) as stream:
            with pytest.raises(TraceError, match="malformed"):
                stream.next_chunk()

    def test_closed_stream_raises(self, tmp_path):
        path = self._twt(tmp_path)
        stream = ChunkedFileStream(path)
        stream.close()
        with pytest.raises(TraceError, match="closed"):
            stream.next_chunk()
        with pytest.raises(TraceError, match="closed"):
            stream.rewind()


class TestTraceInfo:
    def test_npz_peek(self, tmp_path):
        trace = _mixed_trace(n_requests=123)
        path = str(tmp_path / "trace.npz")
        save_trace(trace, path)
        info = trace_info(path)
        assert info.format == "npz"
        assert info.name == "mixed"
        assert info.write_bandwidth_mbps == 120.0
        assert info.n_requests == 123

    def test_chunked_peek(self, tmp_path):
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(_mixed_trace(n_requests=90), path, chunk_size=16)
        info = trace_info(path)
        assert info.format == "chunked"
        assert info.name == "mixed"
        assert info.n_requests == 90

    def test_text_peek_reports_format_only(self, tmp_path):
        path = str(tmp_path / "workload.txt")
        save_text_trace(_mixed_trace(), path)
        info = trace_info(path)
        assert info.format == "text"
        assert info.name == "workload"
        assert info.n_requests is None

    def test_csv_classified_by_extension(self, tmp_path):
        path = str(tmp_path / "msr.csv")
        with open(path, "w") as handle:
            handle.write("128166372003061629,hm,1,Write,0,4096,1339\n")
        assert trace_info(path).format == "csv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            trace_info(str(tmp_path / "absent.npz"))


class TestOpenTraceStream:
    """One front door; format sniffed by magic bytes, not extension."""

    def test_every_format_streams_the_same_writes(self, tmp_path):
        trace = _mixed_trace(n_requests=150, n_pages=32)
        paths = {
            "npz": str(tmp_path / "t.npz"),
            "twt": str(tmp_path / "t.twt"),
            "text": str(tmp_path / "t.trace"),
        }
        save_trace(trace, paths["npz"])
        save_chunked_trace(trace, paths["twt"], chunk_size=40)
        save_text_trace(trace, paths["text"])
        expected = trace.write_pages()
        for label, path in paths.items():
            with open_trace_stream(path, chunk_size=17) as stream:
                ops, pages = _gather(stream)
            assert np.array_equal(pages[ops == OP_WRITE], expected), label

    def test_extension_is_irrelevant_for_binary_formats(self, tmp_path):
        trace = _mixed_trace()
        path = str(tmp_path / "mislabeled.txt")
        save_chunked_trace(trace, path)
        with open_trace_stream(path) as stream:
            assert isinstance(stream, ChunkedFileStream)


class TestTextAndBlockStreams:
    def test_text_stream_chunked_identity(self, tmp_path):
        trace = _mixed_trace(n_requests=120)
        path = str(tmp_path / "t.trace")
        save_text_trace(trace, path)
        with open_trace_stream(path, chunk_size=7) as stream:
            ops, pages = _gather(stream)
        assert np.array_equal(ops, trace.ops)
        assert np.array_equal(pages, trace.pages)

    def test_text_stream_rewind(self, tmp_path):
        path = str(tmp_path / "t.trace")
        save_text_trace(_mixed_trace(n_requests=10), path)
        with open_trace_stream(path, chunk_size=4) as stream:
            first = stream.next_chunk()
            stream.rewind()
            again = stream.next_chunk()
        assert np.array_equal(first[1], again[1])

    def test_text_parse_error_names_line(self, tmp_path):
        path = str(tmp_path / "bad.trace")
        with open(path, "w") as handle:
            handle.write("W 0x1000\nX 0x2000\n")
        with open_trace_stream(path, chunk_size=8) as stream:
            with pytest.raises(TraceError, match=r"bad\.trace:2"):
                stream.next_chunk()

    def test_block_trace_expands_spans_to_pages(self, tmp_path):
        path = str(tmp_path / "msr.csv")
        with open(path, "w") as handle:
            handle.write("timestamp,hostname,disknumber,type,offset,size,rt\n")
            handle.write("1,hm,0,Write,0,8192,9\n")      # pages 0,1 at 4 KiB
            handle.write("2,hm,0,Read,4096,4096,9\n")    # page 1
            handle.write("3,hm,0,Write,12288,1,9\n")     # page 3
        with open_trace_stream(path) as stream:
            ops, pages = _gather(stream)
        assert pages.tolist() == [0, 1, 1, 3]
        assert ops.tolist() == [OP_WRITE, OP_WRITE, OP_READ, OP_WRITE]

    def test_block_trace_record_spans_chunk_boundary(self, tmp_path):
        path = str(tmp_path / "msr.csv")
        with open(path, "w") as handle:
            handle.write("1,hm,0,Write,0,16384,9\n")  # 4 pages
        with open_trace_stream(path, chunk_size=3) as stream:
            sizes = [chunk[0].size for chunk in stream.chunks()]
        assert sizes == [3, 1]

    def test_block_trace_bad_type_errors(self, tmp_path):
        path = str(tmp_path / "msr.csv")
        with open(path, "w") as handle:
            handle.write("1,hm,0,Write,0,4096,9\n")
            handle.write("2,hm,0,Wrote,0,4096,9\n")
        with open_trace_stream(path) as stream:
            with pytest.raises(TraceError, match=r"msr\.csv:2"):
                _gather(stream)

    def test_block_trace_bad_offset_errors(self, tmp_path):
        path = str(tmp_path / "msr.csv")
        with open(path, "w") as handle:
            handle.write("1,hm,0,Write,xyz,4096,9\n")
        with open_trace_stream(path) as stream:
            with pytest.raises(TraceError, match="bad offset/size"):
                stream.next_chunk()


class TestFTLWorkload:
    def test_deterministic_in_seed(self):
        a = _gather_n(FTLWorkloadStream(64, seed=9, chunk_size=100), 300)
        b = _gather_n(FTLWorkloadStream(64, seed=9, chunk_size=100), 300)
        c = _gather_n(FTLWorkloadStream(64, seed=10, chunk_size=100), 300)
        assert np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    @pytest.mark.parametrize("chunk_size", [1, 13, 99, 100, 101, 1000])
    def test_chunk_size_invariance(self, chunk_size):
        """The request sequence is independent of chunk granularity."""
        reference = _gather_n(FTLWorkloadStream(64, seed=3, chunk_size=100), 400)
        other = _gather_n(FTLWorkloadStream(64, seed=3, chunk_size=chunk_size), 400)
        assert np.array_equal(reference[0], other[0])
        assert np.array_equal(reference[1], other[1])

    def test_rewind_restarts_the_sequence(self):
        stream = FTLWorkloadStream(64, seed=3, chunk_size=50)
        first = stream.next_chunk()
        stream.next_chunk()
        stream.rewind()
        again = stream.next_chunk()
        assert np.array_equal(first[1], again[1])

    def test_endless_and_in_bounds(self):
        stream = FTLWorkloadStream(32, seed=1, chunk_size=256)
        assert stream.endless
        assert stream.n_requests is None
        ops, pages = stream.next_chunk()
        assert pages.min() >= 0 and pages.max() < 32
        assert set(np.unique(ops)) <= {OP_READ, OP_WRITE}

    def test_materialize_requires_cap(self):
        with pytest.raises(TraceError, match="endless"):
            FTLWorkloadStream(32, seed=1).materialize()

    def test_touches_hot_and_cold_regions(self):
        stream = FTLWorkloadStream(64, seed=2, chunk_size=4096)
        ops, pages = stream.next_chunk()
        writes = pages[ops == OP_WRITE]
        hot = np.isin(writes, stream._hot_set)
        assert hot.any() and (~hot).any()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FTLConfig(write_fraction=0.0).validate()
        with pytest.raises(ConfigError):
            FTLConfig(hot_fraction=1.0).validate()
        with pytest.raises(ConfigError):
            FTLConfig(hot_write_fraction=0.8, gc_write_fraction=0.3).validate()
        with pytest.raises(ConfigError):
            FTLWorkloadStream(1, seed=0)

    def test_registry(self):
        assert "ftl" in stream_names()
        stream = make_stream("ftl", 64, seed=4, chunk_size=128)
        assert isinstance(stream, FTLWorkloadStream)
        assert stream.chunk_size == 128
        with pytest.raises(ConfigError, match="unknown stream"):
            make_stream("nope", 64)


def _gather_n(stream, n_requests):
    """First ``n_requests`` of an endless stream as one (ops, pages)."""
    ops_parts, pages_parts = [], []
    gathered = 0
    while gathered < n_requests:
        ops, pages = stream.next_chunk()
        ops_parts.append(ops)
        pages_parts.append(pages)
        gathered += ops.size
    ops = np.concatenate(ops_parts)[:n_requests]
    pages = np.concatenate(pages_parts)[:n_requests]
    return ops, pages


class TestStreamDriver:
    def test_short_batches_at_chunk_boundaries(self):
        trace = Trace.writes_only(np.arange(10), name="seq")
        driver = StreamDriver(trace.stream(chunk_size=4), n_pages=16)
        sizes = [driver.next_batch(8).size for _ in range(4)]
        # Chunks of 4/4/2 writes: each batch serves only from the
        # buffered chunk, so an 8-request ask comes back short; the
        # engine loop tolerates any non-empty short batch.
        assert sizes == [4, 4, 2, 4]
        assert driver.loops_completed == 1

    def test_serves_the_looped_write_sequence(self):
        writes = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        trace = Trace.writes_only(writes, name="seq")
        driver = StreamDriver(trace.stream(chunk_size=2), n_pages=8)
        out = []
        while len(out) < 12:
            out.extend(driver.next_batch(64).tolist())
        assert out[:12] == np.resize(writes, 12).tolist()

    def test_reads_are_filtered_not_served(self):
        ops = np.array([OP_READ, OP_WRITE, OP_READ, OP_WRITE], dtype=np.uint8)
        pages = np.array([9, 1, 9, 2], dtype=np.int64)
        driver = StreamDriver(Trace(ops, pages, name="rw").stream(2), n_pages=4)
        assert driver.next_batch(4).tolist() == [1]
        assert driver.next_batch(4).tolist() == [2]

    def test_writeless_stream_rejected(self):
        ops = np.full(4, OP_READ, dtype=np.uint8)
        stream = Trace(ops, np.arange(4), name="reads").stream(2)
        driver = StreamDriver(stream, n_pages=8)
        with pytest.raises(SimulationError, match="contains no writes"):
            driver.next_batch(1)

    def test_out_of_bounds_write_rejected(self):
        trace = Trace.writes_only(np.array([1, 99]), name="oob")
        driver = StreamDriver(trace.stream(8), n_pages=8)
        with pytest.raises(SimulationError, match="touches page 99"):
            driver.next_batch(2)

    def test_requests_consumed_counts_reads(self):
        ops = np.array([OP_READ, OP_WRITE, OP_WRITE], dtype=np.uint8)
        driver = StreamDriver(Trace(ops, np.arange(3), name="rw").stream(8), 8)
        driver.next_batch(2)
        assert driver.requests_consumed == 3

    def test_drive_serial_matches_trace_driver(self):
        """A per-write engine run over the stream serves the trace's own
        write array looped to length."""
        trace = _mixed_trace(n_requests=300, n_pages=32)
        array_a = PCMArray.uniform(32, 256.0)
        array_b = PCMArray.uniform(32, 256.0)
        scheme_a = make_scheme("nowl", array_a, seed=7)
        scheme_b = make_scheme("nowl", array_b, seed=7)
        driver = StreamDriver(trace.stream(chunk_size=11), 32)
        served = SimulationEngine(scheme_a, driver).drive(2000)
        looped = np.resize(trace.write_pages(), 2000)
        assert served == WearLeveler.write_batch(scheme_b, looped).size
        assert np.array_equal(array_a.write_counts(), array_b.write_counts())


class TestMeasureStreamLifetime:
    def test_runs_the_ftl_workload_to_failure(self):
        from repro.config import ScaledArrayConfig

        scaled = ScaledArrayConfig(n_pages=64, endurance_mean=256.0)
        result = measure_stream_lifetime(
            "nowl",
            lambda n_pages: make_stream("ftl", n_pages, seed=5, chunk_size=512),
            scaled=scaled,
            seed=5,
            batch_size=64,
        )
        assert result.failed
        assert result.workload == "ftl"
        assert result.demand_writes > 0


class TestSeekAndPosition:
    """``seek`` / ``snapshot_position`` / ``restore_position``: the
    stream half of sub-cell recovery (``docs/robustness.md``)."""

    def test_materialized_seek_edges(self):
        trace = _mixed_trace(n_requests=100)
        stream = trace.stream(chunk_size=30)  # chunks of 30/30/30/10
        stream.next_chunk()
        stream.next_chunk()
        stream.seek(0)
        ops, pages = _gather(stream)
        assert np.array_equal(pages, trace.pages)
        stream.seek(3)  # last chunk
        chunk = stream.next_chunk()
        assert np.array_equal(chunk[1], trace.pages[90:])
        stream.seek(4)  # exactly EOF: positioned, exhausted, legal
        assert stream.next_chunk() is None
        with pytest.raises(TraceError, match="cannot seek"):
            stream.seek(5)
        with pytest.raises(TraceError, match="non-negative"):
            stream.seek(-1)

    def test_chunked_file_seek(self, tmp_path):
        trace = _mixed_trace(n_requests=100)
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(trace, path, chunk_size=30)
        with ChunkedFileStream(path) as stream:
            stream.next_chunk()
            stream.seek(0)
            ops, pages = _gather(stream)
            assert np.array_equal(pages, trace.pages)
            stream.seek(3)  # last chunk (payload-skipping, no decode)
            assert np.array_equal(stream.next_chunk()[1], trace.pages[90:])
            stream.seek(4)  # exactly EOF
            assert stream.next_chunk() is None
            with pytest.raises(TraceError, match="exhausted"):
                stream.seek(5)
            with pytest.raises(TraceError, match="non-negative"):
                stream.seek(-1)

    def test_text_stream_seek_replays(self, tmp_path):
        trace = _mixed_trace(n_requests=90)
        path = str(tmp_path / "trace.txt")
        save_text_trace(trace, path)
        with open_trace_stream(path, chunk_size=40) as stream:
            stream.next_chunk()
            stream.seek(2)  # base-protocol rewind + replay
            tail = stream.next_chunk()
            assert np.array_equal(tail[1], trace.pages[80:])
            with pytest.raises(TraceError, match="exhausted at chunk"):
                stream.seek(10)

    def test_position_round_trip_is_generic(self, tmp_path):
        trace = _mixed_trace(n_requests=100)
        path = str(tmp_path / "trace.twt")
        save_chunked_trace(trace, path, chunk_size=30)
        with ChunkedFileStream(path) as stream:
            stream.next_chunk()
            stream.next_chunk()
            state = stream.snapshot_position(2)
            assert state == {"chunk_index": 2}
        with ChunkedFileStream(path) as fresh:
            fresh.restore_position(state)
            assert np.array_equal(fresh.next_chunk()[1], trace.pages[60:90])

    def test_ftl_seek_is_pure_in_seed_config_index(self):
        sought = FTLWorkloadStream(64, seed=3, chunk_size=50)
        sought.seek(5)
        replayed = FTLWorkloadStream(64, seed=3, chunk_size=50)
        for _ in range(5):
            replayed.next_chunk()
        for _ in range(3):
            a, b = sought.next_chunk(), replayed.next_chunk()
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])
        # A third consumer never perturbs the mapping: seek again after
        # arbitrary extra consumption, same chunks come back.
        sought.next_chunk()
        sought.seek(5)
        again = sought.next_chunk()
        fresh = FTLWorkloadStream(64, seed=3, chunk_size=50)
        fresh.seek(5)
        assert np.array_equal(again[1], fresh.next_chunk()[1])
        with pytest.raises(TraceError, match="non-negative"):
            fresh.seek(-2)

    def test_ftl_position_snapshot_restores_without_replay(self):
        stream = FTLWorkloadStream(64, seed=7, chunk_size=50)
        for _ in range(4):
            stream.next_chunk()
        state = stream.snapshot_position(4)
        expected = [stream.next_chunk() for _ in range(3)]
        fresh = FTLWorkloadStream(64, seed=7, chunk_size=50)
        fresh.restore_position(state)
        for want in expected:
            got = fresh.next_chunk()
            assert np.array_equal(want[0], got[0])
            assert np.array_equal(want[1], got[1])

    def test_stream_driver_snapshot_restore_mid_loop(self):
        trace = _mixed_trace(n_requests=60, n_pages=16)
        driver = StreamDriver(trace.stream(chunk_size=13), n_pages=16)
        for _ in range(3):
            driver.next_batch(7)
        state = driver.snapshot()
        expected = [driver.next_batch(7).copy() for _ in range(12)]
        fresh = StreamDriver(trace.stream(chunk_size=13), n_pages=16)
        fresh.restore(state)
        for want in expected:
            assert np.array_equal(fresh.next_batch(7), want)
        assert fresh.loops_completed == driver.loops_completed
        assert fresh.requests_consumed == driver.requests_consumed
