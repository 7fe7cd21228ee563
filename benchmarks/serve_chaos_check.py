#!/usr/bin/env python
"""Chaos acceptance gate for the resilient campaign service.

The in-process suite (``tests/test_serve.py``) proves each mechanism of
``twl-repro serve`` where a debugger can reach it; this script proves
the headline contract where it actually matters — against a real server
*process*, with real client chaos and a real SIGKILL:

1. start ``twl-repro serve`` on a UNIX socket over a fresh state dir;
2. drive it with the seeded chaos load generator (honest submissions,
   duplicate resubmissions, malformed frames, oversized frames,
   mid-request disconnects, slow-loris writers) — and **SIGKILL the
   server in the middle of the campaign**;
3. restart the server on the same state dir (stale journal owner locks
   from the dead process must be broken automatically) and run a
   second chaos campaign resubmitting the same cell grid;
4. require the acceptance contract of ``docs/serving.md``:
   the restarted server answers, no two responses for one fingerprint
   ever disagreed, and **every surviving response is bit-identical to
   serial execution** of the same cells (the diff-vs-serial baseline);
5. drain the server with SIGTERM and require a clean exit.

Everything the run touches (server logs, the state dir with its
per-session journals and cache) lives under one artifacts directory
whose path is printed on failure so CI can upload it.

Usage::

    PYTHONPATH=src python benchmarks/serve_chaos_check.py --quick
    PYTHONPATH=src python benchmarks/serve_chaos_check.py --seed 2018
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exec import cell_fingerprint  # noqa: E402
from repro.serve.loadgen import (  # noqa: E402
    default_grid,
    open_connection,
    ping,
    run_loadgen,
    submit_cell,
    verify_bit_identity,
)

#: Server knobs for the gate: small pool, tight queue (so overload
#: rejections actually happen), fast health probe.
_SERVER_ARGS = [
    "--workers", "2",
    "--queue-limit", "8",
    "--health-interval", "1.0",
    "--idle-timeout", "10.0",
    "--drain-grace", "20.0",
]


def start_server(state_dir: str, socket_path: str, log_path: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    log = open(log_path, "ab")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--state-dir", state_dir,
            "--unix", socket_path,
            *_SERVER_ARGS,
        ],
        stdout=log,
        stderr=log,
        env=env,
        # Its own process group, so reap_group can take down the spawn
        # workers and resource tracker a SIGKILLed server orphans.
        start_new_session=True,
    )


def reap_group(server: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the server's process group."""
    try:
        os.killpg(server.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


async def wait_ready(address, timeout: float = 60.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if await ping(address, timeout=2.0):
            return True
        await asyncio.sleep(0.1)
    return False


async def run_gate(args: argparse.Namespace, artifacts: Path) -> int:
    state_dir = artifacts / "state"
    socket_path = str(artifacts / "serve.sock")
    address = ("unix", socket_path)
    cells = default_grid(args.grid_seeds)
    failures = []

    def check(ok: bool, message: str) -> None:
        print(("ok  " if ok else "FAIL") + f"  {message}", flush=True)
        if not ok:
            failures.append(message)

    # ---- life 1: chaos campaign with a mid-campaign SIGKILL ----------
    server = start_server(str(state_dir), socket_path, str(artifacts / "server1.log"))
    try:
        check(await wait_ready(address), "server (life 1) answers ping")

        # Warm the spawn pool and bank one acknowledged result before
        # the chaos begins: the SIGKILL must land on a server that has
        # durable work to resume, no matter how slow worker boot is.
        reader, writer = await open_connection(address)
        warm = await submit_cell(
            reader, writer, cells[0], "warmup", timeout=args.timeout
        )
        writer.close()
        check(
            warm.get("ok") is True,
            "warm-up submission completed before the chaos",
        )

        async def kill_mid_campaign():
            await asyncio.sleep(args.kill_after)
            server.kill()  # SIGKILL: no drain, no lock release

        campaign1, _ = await asyncio.gather(
            run_loadgen(
                address,
                cells=cells,
                clients=args.clients,
                actions=args.actions,
                seed=args.seed,
                chaos=True,
                timeout=args.timeout,
            ),
            kill_mid_campaign(),
        )
        server.wait(timeout=30)
        reap_group(server)
        # The warm-up response is part of life 1's surviving record set.
        campaign1.completed.setdefault(
            cell_fingerprint(cells[0]),
            {"kind": warm.get("kind"), "payload": warm.get("payload")},
        )
        print(f"life 1: {campaign1.summary()}", flush=True)
        check(
            campaign1.conflicts == [],
            "no conflicting responses before the SIGKILL",
        )
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        reap_group(server)

    # ---- life 2: restart on the same state dir, resubmit everything --
    # The dead server left its socket file and its journal owner locks
    # behind; the socket is ours to clear, the locks are the restarted
    # server's job (stale-owner breaking in CheckpointJournal).
    if os.path.exists(socket_path):
        os.unlink(socket_path)
    server = start_server(str(state_dir), socket_path, str(artifacts / "server2.log"))
    try:
        check(await wait_ready(address), "restarted server answers ping")
        campaign2 = await run_loadgen(
            address,
            cells=cells,
            clients=args.clients,
            actions=args.actions,
            seed=args.seed + 1,
            chaos=True,
            timeout=args.timeout,
        )
        print(f"life 2: {campaign2.summary()}", flush=True)
        check(campaign2.server_alive, "server alive after the second campaign")
        check(campaign2.conflicts == [], "no conflicting responses after restart")
        check(bool(campaign2.completed), "second campaign completed work")

        # Responses that survived both lives must agree with each other
        # (journal-resumed results equal pre-kill results) ...
        overlap = set(campaign1.completed) & set(campaign2.completed)
        disagreements = [
            fingerprint
            for fingerprint in sorted(overlap)
            if campaign1.completed[fingerprint] != campaign2.completed[fingerprint]
        ]
        check(
            disagreements == [],
            f"pre-kill and post-restart responses agree ({len(overlap)} shared)",
        )
        # ... and every one of them must match serial execution.
        merged = dict(campaign1.completed)
        merged.update(campaign2.completed)
        mismatches = verify_bit_identity(merged, cells)
        check(
            mismatches == [],
            f"all {len(merged)} surviving responses bit-identical to serial",
        )

        # ---- drain-then-exit ----------------------------------------
        server.send_signal(signal.SIGTERM)
        returncode = server.wait(timeout=60)
        check(returncode == 0, f"SIGTERM drained cleanly (exit {returncode})")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)
        reap_group(server)

    report = {
        "cells": len(cells),
        "life1_counts": campaign1.counts,
        "life2_counts": campaign2.counts,
        "failures": failures,
    }
    (artifacts / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    if failures:
        print(f"\nserve chaos gate FAILED; artifacts in {artifacts}", flush=True)
        return 1
    print("\nserve chaos gate passed", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=12)
    parser.add_argument("--actions", type=int, default=8, help="actions per client")
    parser.add_argument("--grid-seeds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--kill-after", type=float, default=1.5,
                        help="seconds into campaign 1 before SIGKILL")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="client-side response timeout")
    parser.add_argument("--artifacts", default=None,
                        help="artifacts directory (default: a fresh temp dir)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller campaign for local smoke runs")
    args = parser.parse_args(argv)
    if args.quick:
        args.clients = min(args.clients, 6)
        args.actions = min(args.actions, 5)
        args.grid_seeds = min(args.grid_seeds, 1)
        args.kill_after = min(args.kill_after, 0.4)
    artifacts = Path(
        args.artifacts
        if args.artifacts
        else tempfile.mkdtemp(prefix="serve-chaos-")
    )
    artifacts.mkdir(parents=True, exist_ok=True)
    print(f"artifacts: {artifacts}", flush=True)
    return asyncio.run(run_gate(args, artifacts))


if __name__ == "__main__":
    sys.exit(main())
