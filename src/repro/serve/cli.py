"""Command-line entry points: ``twl-repro serve`` and ``twl-repro loadgen``.

``serve`` runs a :class:`~repro.serve.server.CampaignServer` in the
foreground until SIGTERM/SIGINT, which triggers drain-then-exit; its
``--state-dir`` is the durable root a killed server is restarted on to
resume every session.  ``loadgen`` points the chaos harness at a
running server and exits non-zero when the acceptance contract breaks
(server dead, conflicting responses, or — with ``--verify`` —
any completed response not bit-identical to serial execution).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import List, Optional, Sequence

from ..exec.executor import MAX_POOL_REBUILDS
from .loadgen import Address, default_grid, run_loadgen, verify_bit_identity
from .server import CampaignServer, ServerConfig

__all__ = ["serve_main", "loadgen_main", "parse_address"]


def parse_address(value: str) -> Address:
    """``unix:/path`` or ``host:port`` → an :data:`Address`."""
    if value.startswith("unix:"):
        return ("unix", value[len("unix:"):])
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"address {value!r} is neither unix:/path nor host:port"
        )
    return ("tcp", host, int(port))


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twl-repro serve",
        description="Run the resilient campaign server (see docs/serving.md).",
    )
    parser.add_argument("--state-dir", required=True,
                        help="durable root: per-session result dirs + shared cache")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed at startup)")
    parser.add_argument("--unix", default=None, metavar="PATH",
                        help="serve on a UNIX socket instead of TCP")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--queue-limit", type=int, default=16)
    parser.add_argument("--default-deadline", type=float, default=None)
    parser.add_argument("--retries", type=int, default=2,
                        help="retries per request after its worker dies "
                        "in a one-worker pool")
    parser.add_argument("--max-pool-rebuilds", type=int, default=MAX_POOL_REBUILDS)
    parser.add_argument("--health-interval", type=float, default=5.0)
    parser.add_argument("--idle-timeout", type=float, default=60.0)
    parser.add_argument("--drain-grace", type=float, default=30.0)
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the shared content-addressed cache")
    return parser


async def _serve(config: ServerConfig) -> int:
    server = CampaignServer(config)
    await server.start()
    server.install_signal_handlers()
    print(f"serving on {server.address}", file=sys.stderr, flush=True)
    await server.serve_forever()
    # serve_forever returns once shutdown() closed the listener.
    print("drained; exiting", file=sys.stderr, flush=True)
    return 0


def serve_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _serve_parser().parse_args(argv)
    config = ServerConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_deadline=args.default_deadline,
        max_retries=args.retries,
        max_pool_rebuilds=args.max_pool_rebuilds,
        health_interval=args.health_interval,
        idle_timeout=args.idle_timeout,
        drain_grace=args.drain_grace,
        cache=not args.no_cache,
    )
    return asyncio.run(_serve(config))


def _loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twl-repro loadgen",
        description="Chaos load generator for a running campaign server.",
    )
    parser.add_argument("--connect", required=True, type=parse_address,
                        metavar="ADDR", help="unix:/path or host:port")
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument("--actions", type=int, default=10,
                        help="actions per client")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--session", default="loadgen")
    parser.add_argument("--deadline", type=float, default=None,
                        help="per-request deadline forwarded to the server")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="client-side response timeout")
    parser.add_argument("--no-chaos", action="store_true",
                        help="submissions only; no fault actions")
    parser.add_argument("--grid-seeds", type=int, default=2,
                        help="seeds per scheme×attack in the submitted grid")
    parser.add_argument("--verify", action="store_true",
                        help="re-run completed cells serially and "
                             "require bit-identical payloads")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON on stdout")
    return parser


def loadgen_main(argv: Optional[Sequence[str]] = None) -> int:
    args = _loadgen_parser().parse_args(argv)
    cells = default_grid(args.grid_seeds)
    report = asyncio.run(
        run_loadgen(
            args.connect,
            cells=cells,
            clients=args.clients,
            actions=args.actions,
            seed=args.seed,
            chaos=not args.no_chaos,
            session=args.session,
            deadline=args.deadline,
            timeout=args.timeout,
        )
    )
    mismatches: List[str] = []
    if args.verify and report.completed:
        mismatches = verify_bit_identity(report.completed, cells)
    if args.json:
        print(json.dumps({
            "completed": sorted(report.completed),
            "counts": report.counts,
            "server_alive": report.server_alive,
            "conflicts": report.conflicts,
            "mismatches": mismatches,
        }, sort_keys=True))
    else:
        print(report.summary(), file=sys.stderr, flush=True)
        if mismatches:
            print(f"BIT-IDENTITY MISMATCH: {mismatches}", file=sys.stderr)
    failed = (not report.server_alive) or report.conflicts or mismatches
    return 1 if failed else 0
