"""Tentpole tests: the resilient campaign service (:mod:`repro.serve`).

Every robustness promise of ``twl-repro serve`` is exercised in-process
here against a real :class:`CampaignServer` on an ephemeral TCP port:

* a served cell is **bit-identical to serial execution**, and replays
  from the per-session result directory and the shared cache stay
  identical;
* duplicate in-flight submissions coalesce onto one execution;
* admission past ``queue_limit`` is rejected with a structured
  ``overloaded`` frame instead of unbounded buffering;
* per-request deadlines expire hung cells (portable, off-main-thread);
* a SIGKILLed worker is retried on a rebuilt pool, free of charge when
  the pool had siblings, and past the rebuild budget the server halves
  its pool (and says so in every response);
* a vanished client's execution is cancelled, reclaiming its slot;
* a drained server rejects new work but a restarted server on the same
  state dir resumes its sessions from their result directories;
* the chaos load generator's acceptance contract holds end to end.

The heavier out-of-process gate (server SIGKILL + restart mid-campaign)
lives in ``benchmarks/serve_chaos_check.py``; these tests cover the
same mechanisms where a debugger can reach them.
"""

import asyncio
import json
import os
import signal

import pytest

from repro.config import ScaledArrayConfig
from repro.exec import FaultPlan, attack_cell, cell_fingerprint, run_cells
from repro.exec.cache import encode_result
from repro.exec.faults import FAULTS_ENV
from repro.serve.cli import parse_address
from repro.serve.loadgen import (
    open_connection,
    run_loadgen,
    submit_cell,
    verify_bit_identity,
)
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_cell,
    decode_frame,
    encode_cell,
    encode_frame,
)
from repro.serve.server import CampaignServer, ServerConfig
from repro.serve.session import valid_session_name

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


def _cell(scheme="nowl", attack="scan", seed=11):
    return attack_cell(scheme, attack, scaled=SCALED, seed=seed)


def _config(tmp_path, **kwargs):
    kwargs.setdefault("state_dir", str(tmp_path / "state"))
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("health_interval", 0.0)  # no probe loop in tests
    kwargs.setdefault("drain_grace", 2.0)
    return ServerConfig(**kwargs)


def _arm(monkeypatch, tmp_path, **kwargs):
    """Activate a fault plan through the environment (spawn-safe)."""
    kwargs.setdefault("state_dir", str(tmp_path / "fault-state"))
    plan = FaultPlan(**kwargs)
    monkeypatch.setenv(FAULTS_ENV, plan.to_env())
    return plan


def _tcp(server):
    host, port = server.address
    return ("tcp", host, port)


def _serial_payload(cell):
    """The wire-normalized serial payload every served copy must match."""
    kind, payload = encode_result(run_cells([cell], jobs=1)[0])
    return json.loads(json.dumps({"kind": kind, "payload": payload}))


async def _closed(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (OSError, ConnectionError):
        pass


class TestProtocol:
    """The NDJSON frame schema and the cell wire codec."""

    def test_cell_round_trip_is_fingerprint_stable(self):
        for cell in (_cell(), _cell("sr", "repeat", seed=13)):
            wire = json.loads(json.dumps(encode_cell(cell)))
            decoded = decode_cell(wire)
            assert decoded == cell
            assert cell_fingerprint(decoded) == cell_fingerprint(cell)

    def test_unknown_dataclass_is_rejected(self):
        with pytest.raises(ProtocolError, match="unknown dataclass"):
            decode_cell(
                {
                    "__dataclass__": "ExperimentCell",
                    "fields": {
                        "scaled": {"__dataclass__": "os.system", "fields": {}}
                    },
                }
            )

    def test_unknown_field_is_rejected(self):
        wire = encode_cell(_cell())
        wire["fields"]["not_a_field"] = 1
        with pytest.raises(ProtocolError, match="no field"):
            decode_cell(wire)

    def test_non_cell_payloads_are_rejected(self):
        for bad in (None, 42, [], {"__dataclass__": "TWLConfig", "fields": {}}):
            with pytest.raises(ProtocolError):
                decode_cell(bad)

    def test_frame_schema_is_enforced(self):
        for bad in (
            b"not json\n",
            b"[1,2]\n",
            b'{"op": "explode", "id": "x"}\n',
            b'{"op": "ping"}\n',
            b'{"op": "ping", "id": ""}\n',
        ):
            with pytest.raises(ProtocolError):
                decode_frame(bad)
        assert decode_frame(b'{"op": "ping", "id": "r1"}\n')["op"] == "ping"

    def test_oversized_frames_are_rejected_both_ways(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(b"x" * (MAX_FRAME_BYTES + 1))

    def test_session_names(self):
        assert valid_session_name("alice")
        assert valid_session_name("run-2.b_1")
        for bad in ("", "../evil", "a/b", "x" * 65, ".hidden", 7):
            assert not valid_session_name(bad)

    def test_parse_address(self):
        assert parse_address("unix:/tmp/twl.sock") == ("unix", "/tmp/twl.sock")
        assert parse_address("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
        with pytest.raises(Exception):
            parse_address("no-port-here")


class TestServeRoundTrip:
    """Submission, persistence tiers, and the bit-identity contract."""

    def test_submit_then_journal_then_cache(self, tmp_path):
        cell = _cell()
        expected = _serial_payload(cell)
        fingerprint = cell_fingerprint(cell)

        async def scenario():
            server = CampaignServer(_config(tmp_path))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                fresh = await submit_cell(
                    reader, writer, cell, "r1", session="alice"
                )
                again = await submit_cell(
                    reader, writer, cell, "r2", session="alice"
                )
                other = await submit_cell(
                    reader, writer, cell, "r3", session="bob"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, fresh, again, other

        server, fresh, again, other = asyncio.run(scenario())
        # Fresh execution: bit-identical to serial, correctly labeled.
        assert fresh["ok"] and fresh["status"] == "done"
        assert fresh["source"] == "run"
        assert fresh["id"] == "r1"
        assert fresh["fingerprint"] == fingerprint
        assert fresh["degraded"] is False
        assert {"kind": fresh["kind"], "payload": fresh["payload"]} == expected
        # Same session resubmission: served from the session directory
        # (still labeled ``journal`` on the wire).
        assert again["source"] == "journal"
        assert {"kind": again["kind"], "payload": again["payload"]} == expected
        # Another session: the shared content-addressed cache answers.
        assert other["source"] == "cache"
        assert {"kind": other["kind"], "payload": other["payload"]} == expected
        assert server.stats["journal_hits"] == 1
        assert server.stats["cache_hits"] == 1
        # Both sessions are cache directories holding the result: bob's
        # shared-cache hit was copied into his own.
        sessions = os.path.join(str(tmp_path / "state"), "sessions")
        for name in ("alice", "bob"):
            assert os.listdir(os.path.join(sessions, name)) == [f"{fingerprint}.json"]

    def test_ping_and_stats(self, tmp_path):
        async def scenario():
            server = CampaignServer(_config(tmp_path))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                writer.write(b'{"op": "ping", "id": "p"}\n')
                writer.write(b'{"op": "stats", "id": "s"}\n')
                await writer.drain()
                replies = {}
                for _ in range(2):
                    record = json.loads(await reader.readline())
                    replies[record["id"]] = record
                await _closed(writer)
            finally:
                await server.shutdown()
            return replies

        replies = asyncio.run(scenario())
        assert replies["p"]["status"] == "pong"
        stats = replies["s"]
        assert stats["ok"] and stats["status"] == "stats"
        assert stats["workers"] == 2
        assert stats["draining"] is False
        assert "submitted" in stats["stats"]
        assert stats["stats"]["pool_rebuilds"] == 0

    def test_duplicate_inflight_submissions_coalesce(self, tmp_path):
        cell = _cell(seed=17)
        expected = _serial_payload(cell)

        async def scenario():
            server = CampaignServer(_config(tmp_path))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                # Two frames on one connection, written back to back: the
                # first admits, the second finds the in-flight entry (its
                # handler task runs before the first execution can finish).
                for request_id in ("a", "b"):
                    frame = {
                        "op": "submit",
                        "id": request_id,
                        "cell": encode_cell(cell),
                    }
                    writer.write((json.dumps(frame) + "\n").encode())
                await writer.drain()
                replies = {}
                for _ in range(2):
                    record = json.loads(await reader.readline())
                    replies[record["id"]] = record
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, replies

        server, replies = asyncio.run(scenario())
        sources = {record["source"] for record in replies.values()}
        assert sources == {"run", "coalesced"}
        for record in replies.values():
            assert {"kind": record["kind"], "payload": record["payload"]} == expected
        assert server.stats["coalesced"] == 1
        # Exactly one execution banked the result.
        assert server.stats["submitted"] == 2
        assert server.stats["completed"] == 2


class TestAdmissionAndDeadlines:
    """Backpressure, deadline expiry, and drain-then-exit."""

    def test_overload_gets_structured_rejection(self, monkeypatch, tmp_path):
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, hang_seconds=20.0,
        )
        hanging = _cell(seed=21)
        blocked = _cell(seed=22)

        async def scenario():
            server = CampaignServer(
                _config(tmp_path, workers=1, queue_limit=1, drain_grace=0.2)
            )
            await server.start()
            try:
                r1, w1 = await open_connection(_tcp(server))
                first = asyncio.ensure_future(
                    submit_cell(r1, w1, hanging, "hang", deadline=1.0)
                )
                # Let the hanging cell be admitted before the second one.
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if server._active >= 1:
                        break
                r2, w2 = await open_connection(_tcp(server))
                rejected = await submit_cell(r2, w2, blocked, "full")
                timed_out = await first
                await _closed(w1)
                await _closed(w2)
            finally:
                await server.shutdown()
            return server, rejected, timed_out

        server, rejected, timed_out = asyncio.run(scenario())
        assert rejected["ok"] is False
        assert rejected["status"] == "rejected"
        assert rejected["error"]["code"] == "overloaded"
        assert server.stats["rejected_overloaded"] == 1
        # The hung cell was cut down by its own (portable) deadline.
        assert timed_out["ok"] is False
        assert timed_out["error"]["code"] == "deadline"
        assert server.stats["deadline_expired"] == 1

    def test_drain_rejects_new_submissions(self, tmp_path):
        async def scenario():
            server = CampaignServer(_config(tmp_path))
            await server.start()
            try:
                server.begin_drain()
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(reader, writer, _cell(), "late")
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, response

        server, response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["status"] == "rejected"
        assert response["error"]["code"] == "shutdown"
        assert server.stats["rejected_shutdown"] == 1

    def test_malformed_and_oversized_frames_never_kill_the_server(
        self, tmp_path
    ):
        async def scenario():
            server = CampaignServer(_config(tmp_path))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                writer.write(b"this is not json\n")
                await writer.drain()
                garbage = json.loads(await reader.readline())
                writer.write(b'{"op": "submit", "id": "x", "cell": 42}\n')
                await writer.drain()
                badcell = json.loads(await reader.readline())
                await _closed(writer)
                # Oversized: the server answers once, then closes.
                reader, writer = await open_connection(_tcp(server))
                writer.write(b"x" * (MAX_FRAME_BYTES + 4096) + b"\n")
                await writer.drain()
                oversized = json.loads(await reader.readline())
                closed = await reader.readline()
                await _closed(writer)
                # And the server still serves real work afterwards.
                reader, writer = await open_connection(_tcp(server))
                alive = await submit_cell(reader, writer, _cell(), "ok")
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, garbage, badcell, oversized, closed, alive

        server, garbage, badcell, oversized, closed, alive = asyncio.run(
            scenario()
        )
        assert garbage["error"]["code"] == "malformed"
        assert badcell["error"]["code"] == "malformed"
        assert oversized["error"]["code"] == "oversized"
        assert closed == b""
        assert alive["ok"] is True
        assert server.stats["rejected_malformed"] == 2
        assert server.stats["rejected_oversized"] == 1


class TestWorkerLossAndDegradation:
    """Pool rebuilds, retry-with-backoff, and graceful degradation."""

    def test_killed_worker_is_retried_bit_identically(
        self, monkeypatch, tmp_path
    ):
        _arm(
            monkeypatch, tmp_path,
            mode="kill", rate=1.0, times=1, max_total=1,
        )
        cell = _cell(seed=31)

        async def scenario():
            server = CampaignServer(_config(tmp_path, workers=1))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(reader, writer, cell, "kill")
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, response

        server, response = asyncio.run(scenario())
        assert response["ok"] is True
        assert response["source"] == "run"
        assert response["degraded"] is False
        assert server._pool.rebuilds >= 1
        # The fault plan spent its budget, so the retry ran clean — and
        # must match serial execution exactly.
        monkeypatch.delenv(FAULTS_ENV)
        expected = _serial_payload(cell)
        assert {"kind": response["kind"], "payload": response["payload"]} == expected

    def test_rebuilds_past_budget_degrade_the_server(
        self, monkeypatch, tmp_path
    ):
        _arm(
            monkeypatch, tmp_path,
            mode="kill", rate=1.0, times=1, max_total=1,
        )

        async def scenario():
            server = CampaignServer(
                _config(tmp_path, workers=2, max_pool_rebuilds=0, max_retries=3)
            )
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(
                    reader, writer, _cell(seed=37), "degrade"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, response

        server, response = asyncio.run(scenario())
        # One rebuild exceeded the zero budget: halved pool, flagged.
        assert response["ok"] is True
        assert response["degraded"] is True
        assert server.degraded
        assert server._pool.workers == 1

    def test_a_wide_pool_break_is_not_charged(self, monkeypatch, tmp_path):
        """A break of a two-worker pool cannot name its dying cell, so
        it resubmits the request free: no retries needed."""
        _arm(
            monkeypatch, tmp_path,
            mode="kill", rate=1.0, times=1, max_total=1,
        )
        cell = _cell(seed=38)

        async def scenario():
            server = CampaignServer(_config(tmp_path, workers=2, max_retries=0))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(reader, writer, cell, "free")
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, response

        server, response = asyncio.run(scenario())
        assert response["ok"] is True, response
        assert server._pool.rebuilds == 1
        monkeypatch.delenv(FAULTS_ENV)
        expected = _serial_payload(cell)
        assert {"kind": response["kind"], "payload": response["payload"]} == expected

    def test_client_disconnect_reclaims_the_slot(self, monkeypatch, tmp_path):
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, hang_seconds=10.0,
        )
        hanging = _cell(seed=41)

        async def scenario():
            server = CampaignServer(
                _config(tmp_path, workers=1, queue_limit=1, drain_grace=0.2)
            )
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                frame = {
                    "op": "submit",
                    "id": "vanish",
                    # Worker-side backstop so the hung cell cannot outlive
                    # the test even though nobody waits for its answer.
                    "deadline": 1.0,
                    "cell": encode_cell(hanging),
                }
                writer.write((json.dumps(frame) + "\n").encode())
                await writer.drain()
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if server._active >= 1:
                        break
                assert server._active == 1
                # The client vanishes mid-request ...
                await _closed(writer)
                # ... and the admission slot comes back without anyone
                # reading a response.
                for _ in range(200):
                    await asyncio.sleep(0.02)
                    if server._active == 0:
                        break
                active_after = server._active
                # The freed slot admits new work (distinct fingerprint,
                # fault budget already spent by the hung cell).
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(
                    reader, writer, _cell(seed=42), "next"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return active_after, response

        active_after, response = asyncio.run(scenario())
        assert active_after == 0
        assert response["ok"] is True


class TestServerRobustnessRegressions:
    """Review fixes: busy != dead pools, cancelled executions answer,
    journal I/O off the loop, queue wait not charged to deadlines."""

    def test_health_probe_spares_a_busy_pool(self, monkeypatch, tmp_path):
        """All workers occupied is load, not death.

        With probes firing far faster than the in-flight cell and a
        single busy worker, the old health loop queued a probe, timed
        out, and tore the pool down — cancelling the admitted cell and
        burning the degradation budget.  A busy pool must be left
        alone.
        """
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, hang_seconds=2.0,
        )

        async def scenario():
            server = CampaignServer(
                _config(
                    tmp_path, workers=1, health_interval=0.05, drain_grace=0.2
                )
            )
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(
                    reader, writer, _cell(seed=61), "busy"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, response

        server, response = asyncio.run(scenario())
        assert response["ok"] is True
        assert server._pool.rebuilds == 0
        assert server.degraded is False

    def test_health_probe_still_rebuilds_a_dead_idle_pool(self, tmp_path):
        async def scenario():
            server = CampaignServer(
                _config(
                    tmp_path, workers=1, health_interval=0.05, drain_grace=0.2
                )
            )
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                first = await submit_cell(reader, writer, _cell(seed=62), "warm")
                # Kill every worker behind the pool's back; the idle
                # health probe must notice and rebuild.
                for proc in list(server._pool.pool._processes.values()):
                    os.kill(proc.pid, signal.SIGKILL)
                for _ in range(300):
                    await asyncio.sleep(0.02)
                    if server._pool.rebuilds >= 1:
                        break
                second = await submit_cell(
                    reader, writer, _cell(seed=63), "after"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, first, second

        server, first, second = asyncio.run(scenario())
        assert first["ok"] is True
        assert second["ok"] is True
        assert server._pool.rebuilds >= 1

    def test_cancelled_execution_answers_with_a_frame(
        self, monkeypatch, tmp_path
    ):
        """A live waiter whose execution is cancelled must get a frame.

        Cancelling the execution future out from under its waiters is
        exactly what a pool rebuild with ``cancel_futures=True`` (or a
        shutdown past ``drain_grace``) does; the old shield re-raised
        ``CancelledError``, the handler task died, and the client hung
        with no response at all.
        """
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, hang_seconds=10.0,
        )
        hanging = _cell(seed=64)
        fingerprint = cell_fingerprint(hanging)

        async def scenario():
            server = CampaignServer(
                _config(tmp_path, workers=1, drain_grace=0.2)
            )
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                frame = {
                    "op": "submit",
                    "id": "doomed",
                    "deadline": 2.0,
                    "cell": encode_cell(hanging),
                }
                writer.write((json.dumps(frame) + "\n").encode())
                await writer.drain()
                for _ in range(200):
                    await asyncio.sleep(0.02)
                    if fingerprint in server._inflight:
                        break
                server._inflight[fingerprint].future.cancel()
                response = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=5.0)
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return server, response

        server, response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "failed"
        assert "cancelled" in response["error"]["message"]
        assert server.stats["failed"] == 1

    def test_journal_io_does_not_stall_the_event_loop(self, tmp_path):
        """A stalled session store must not freeze unrelated connections.

        Every session put fsyncs; run on the event-loop thread, one
        slow disk would freeze *every* connection.  Parked on the I/O
        thread, the loop keeps answering pings and the blocked submit
        completes once the store returns.
        """
        import threading

        cell_a, cell_b = _cell(seed=65), _cell(seed=66)
        released = threading.Event()

        async def scenario():
            server = CampaignServer(_config(tmp_path, drain_grace=0.2))
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                await submit_cell(
                    reader, writer, cell_a, "warm", session="locked"
                )
                session = server._sessions.cache_for("locked")
                put = session.put

                def stalled_put(*args):
                    released.wait(30.0)
                    put(*args)

                session.put = stalled_put
                try:
                    frame = {
                        "op": "submit",
                        "id": "blocked",
                        "session": "locked",
                        "cell": encode_cell(cell_b),
                    }
                    writer.write((json.dumps(frame) + "\n").encode())
                    await writer.drain()
                    # Let the cell execute and its persist park in the
                    # stalled store (settled = admission released, but
                    # no response written yet).
                    for _ in range(500):
                        await asyncio.sleep(0.02)
                        if (
                            server.stats["submitted"] >= 2
                            and server._active == 0
                        ):
                            break
                    await asyncio.sleep(0.1)
                    r2, w2 = await open_connection(_tcp(server))
                    w2.write(b'{"op": "ping", "id": "alive"}\n')
                    await w2.drain()
                    pong = json.loads(
                        await asyncio.wait_for(r2.readline(), timeout=2.0)
                    )
                    await _closed(w2)
                finally:
                    released.set()
                blocked = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=30.0)
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return pong, blocked

        pong, blocked = asyncio.run(scenario())
        assert pong["status"] == "pong"
        assert blocked["ok"] is True

    def test_queue_wait_is_not_charged_against_the_deadline(
        self, monkeypatch, tmp_path
    ):
        """A queued cell's deadline starts when it starts, not at submit.

        With one worker hogged for longer than deadline + grace, the
        old parent-side backstop expired the *queued* cell as "worker
        unresponsive" before it ever reached a worker.
        """
        _arm(
            monkeypatch, tmp_path,
            mode="hang", rate=1.0, times=1, max_total=1, hang_seconds=4.0,
        )
        hog = _cell(seed=68)
        queued = _cell(seed=69)

        async def scenario():
            server = CampaignServer(
                _config(tmp_path, workers=1, queue_limit=4, drain_grace=0.2)
            )
            await server.start()
            try:
                r1, w1 = await open_connection(_tcp(server))
                first = asyncio.ensure_future(
                    submit_cell(r1, w1, hog, "hog")
                )
                for _ in range(100):
                    await asyncio.sleep(0.02)
                    if server._active >= 1:
                        break
                r2, w2 = await open_connection(_tcp(server))
                second = await submit_cell(
                    r2, w2, queued, "queued", deadline=1.0
                )
                hogged = await first
                await _closed(w1)
                await _closed(w2)
            finally:
                await server.shutdown()
            return hogged, second

        hogged, second = asyncio.run(scenario())
        assert hogged["ok"] is True
        assert second["ok"] is True, second
        assert second["source"] == "run"

    def test_abandoned_results_are_banked_in_the_cache(self, tmp_path):
        from concurrent.futures import Future

        cell = _cell(seed=67)
        result = run_cells([cell], jobs=1)[0]

        async def scenario():
            server = CampaignServer(_config(tmp_path, drain_grace=0.2))
            await server.start()
            try:
                # A future nobody awaits completes: its result lands in
                # the shared cache (the done callback fires inline here).
                # Pool futures carry the worker's (result, seconds).
                abandoned = Future()
                server._bank_abandoned(abandoned, cell, cell_fingerprint(cell))
                abandoned.set_result((result, 0.5))
                # Cancelled / failed futures bank nothing.
                cancelled = Future()
                server._bank_abandoned(cancelled, cell, cell_fingerprint(cell))
                cancelled.cancel()
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(reader, writer, cell, "hit")
                await _closed(writer)
            finally:
                await server.shutdown()
            return response

        response = asyncio.run(scenario())
        assert response["ok"] is True
        assert response["source"] == "cache"


class TestSessionResume:
    """A restarted server resumes its sessions from the state dir."""

    def test_restart_serves_from_journal(self, tmp_path):
        cell = _cell(seed=51)
        expected = _serial_payload(cell)
        # Cache off: the replay can only come from the session's own
        # result directory.
        config = _config(tmp_path, cache=False)

        async def first_life():
            server = CampaignServer(config)
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(
                    reader, writer, cell, "r1", session="resume"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return response

        async def second_life():
            server = CampaignServer(config)
            await server.start()
            try:
                reader, writer = await open_connection(_tcp(server))
                response = await submit_cell(
                    reader, writer, cell, "r2", session="resume"
                )
                await _closed(writer)
            finally:
                await server.shutdown()
            return response

        fresh = asyncio.run(first_life())
        # The session is a cache directory holding the result, and a
        # SIGKILLed owner would have left its lock behind: a dead pid.
        session_dir = os.path.join(config.state_dir, "sessions", "resume")
        entry = os.path.join(session_dir, f"{fresh['fingerprint']}.json")
        assert os.path.exists(entry)
        with open(os.path.join(session_dir, "owner.lock"), "w") as handle:
            handle.write("999999999\n")
        resumed = asyncio.run(second_life())
        assert fresh["source"] == "run"
        assert resumed["source"] == "journal"
        for record in (fresh, resumed):
            assert {"kind": record["kind"], "payload": record["payload"]} == expected


class TestChaosContract:
    """The loadgen acceptance gate, in-process."""

    def test_chaos_run_ends_alive_and_bit_identical(self, tmp_path):
        cells = [
            _cell(scheme, attack, seed)
            for scheme in ("nowl", "sr")
            for attack in ("repeat", "scan")
            for seed in (11, 12)
        ]

        async def scenario():
            server = CampaignServer(
                _config(tmp_path, workers=2, queue_limit=8, idle_timeout=2.0)
            )
            await server.start()
            try:
                report = await run_loadgen(
                    _tcp(server),
                    cells=cells,
                    clients=6,
                    actions=6,
                    seed=2017,
                    chaos=True,
                )
            finally:
                await server.shutdown()
            return server, report

        server, report = asyncio.run(scenario())
        assert report.server_alive, report.summary()
        assert report.conflicts == [], report.summary()
        assert report.completed, report.summary()
        assert verify_bit_identity(report.completed, cells) == []
        # Chaos actually happened: the seeded mix at this seed includes
        # malformed frames and disconnects (deterministic by TWL001).
        assert report.counts.get("malformed", 0) > 0
        assert report.counts.get("disconnect", 0) > 0
        assert server.stats["rejected_malformed"] > 0

    def test_loadgen_is_deterministic(self):
        """Same seed, same action schedule — chaos is a regression test."""
        from repro.rng.streams import make_generator
        from repro.serve.loadgen import _pick_action

        def schedule():
            rng = make_generator(2017, "loadgen", "client", 3)
            return [_pick_action(rng, True) for _ in range(32)]

        assert schedule() == schedule()


class TestClassification:
    """Satellite: TWL003 knows the new spec dataclasses."""

    def test_serve_dataclasses_are_classified(self):
        from repro.devtools.lint import check_classifications

        assert check_classifications() == []
