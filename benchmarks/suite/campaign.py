"""The Figure-6 campaign workload: the executor and the live server.

Started by ``run.py``; prints its result as the last stdout line::

    python3 benchmarks/suite/campaign.py --seed 1 --seconds 20 --trace 0 \
        [--smoke] [--spans PATH]

The grid is the Figure-6 quick grid (``FIG6_SCHEMES x ATTACKS``) plus
the three quick-death cells, at the CLI's default batch size of 1, so
cells run the engine's per-write path.  The experiment itself is fixed
(the quick setup's seed): ``--seed`` only shuffles the order in which
the server's clients submit each row's cells.

A round runs the grid twice, once through each front door, and
``cpu_s`` is the CPU time of the two, summed over every process that
does the work and scaled to nominal host speed by the slowdown sampled
while it ran (``hostspeed.Sampler``):

* **executor** -- ``execute_cells(jobs=2)`` into a fresh cache, then the
  quick-death cells (cache hits), as ``twl-repro fig6 --quick`` does;
  this process and its pool workers;
* **server** -- a fresh ``twl-repro serve --workers 2`` whose two worker
  processes are started by two tiny cells first; two connections then
  drain one queue of the grid in a closed loop, and every payload must
  equal the executor's result for the same cell; the server and its
  workers, over that pass.

Load comes from this one process: the executor's two workers, or two
client connections.

The per-scheme rates ``wps.<s>`` time the per-write path the grid's
cells run: a fixed prefix of each scheme's random-attack cell, driven
in this process between reference runs (``hostspeed.Calibrated``),
median of many rounds.  A cell's own run is too short and happens once,
so its rate would move with every burst of host noise.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import common
import hostspeed
from names import E2E_SCHEMES, OVERHEAD

common.import_package()

from repro.attacks.registry import make_attack  # noqa: E402
from repro.config import ScaledArrayConfig  # noqa: E402
from repro.engine import SimulationEngine  # noqa: E402
from repro.exec import ExperimentCell, cell_fingerprint, execute_cells  # noqa: E402
from repro.exec.cache import CellCache, encode_result  # noqa: E402
from repro.experiments.fig6 import _cell, _quick_death_cells  # noqa: E402
from repro.experiments.setups import ATTACKS, FIG6_SCHEMES, quick_setup  # noqa: E402
from repro.serve.loadgen import default_grid, open_connection, ping, submit_cell  # noqa: E402
from repro.sim.drivers import AttackDriver  # noqa: E402
from repro.sim.runner import build_array  # noqa: E402
from repro.wearlevel.registry import make_scheme  # noqa: E402

from tracing import Tracer  # noqa: E402

JOBS = 2
#: Scheme name in the grid -> end-to-end metric label.
RATE_LABELS = {"nowl": "nowl", "sr": "sr", "bwl": "bwl", "twl_swp": "twl"}
#: Demand writes of each per-write probe: a prefix of the scheme's
#: random-attack cell, well short of that cell's first failure.
PROBE_WRITES = 20_000
#: Probe rounds run before each campaign round; the time a run has left
#: after its last campaign round goes to more.
PROBE_ROUNDS = 15
#: Launch-only servers whose CPU seconds up to the first answered ping
#: (at nominal host speed) give setup_s.
LAUNCHES = 3
#: Warm round trips the traced run collects (p95 then has 50 beyond it).
WARM_SAMPLES = 1000
WARM_REPEATS = 10
FINGERPRINT_PASSES = 10
SESSION = "bench"
#: Client-side reply timeout for one request, seconds.
REPLY_TIMEOUT = 120.0
SERVER_START_TIMEOUT = 60.0

Address = Tuple[str, str]


def grid(smoke: bool):
    """The Figure-6 grid, its quick-death cells and the probe cells."""
    setup = quick_setup()
    if smoke:
        setup = replace(setup, scaled=ScaledArrayConfig(n_pages=64, endurance_mean=768.0))
    cells = [_cell(scheme, attack, setup) for scheme in FIG6_SCHEMES for attack in ATTACKS]
    quick = [_cell(scheme, attack, setup) for scheme, attack in _quick_death_cells(setup)]
    probes = [_cell(scheme, "random", setup) for scheme in RATE_LABELS]
    return cells, quick, probes


def probe_engine(cell: ExperimentCell) -> SimulationEngine:
    """The engine ``run_cell`` builds for an attack cell (per-write path)."""
    array = build_array(cell.scaled)
    scheme = make_scheme(cell.scheme, array, seed=cell.seed, **cell.scheme_kwargs)
    attack = make_attack(cell.workload, scheme.logical_pages, seed=cell.seed, **cell.attack_kwargs)
    return SimulationEngine(scheme, AttackDriver(attack), batch_size=cell.batch_size)


def encoded(result: Any) -> Dict[str, Any]:
    """A result as the wire carries it (one JSON round trip)."""
    kind, payload = encode_result(result)
    return json.loads(json.dumps({"kind": kind, "payload": payload}))


def digest(results: Sequence[Any]) -> str:
    text = json.dumps([encoded(result) for result in results], sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def descendants(pid: int) -> List[int]:
    """Every live descendant of ``pid``, read from ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        for child in children.get(frontier.pop(), []):
            found.append(child)
            frontier.append(child)
    return found


def tree_cpu_s(pid: int) -> float:
    """CPU seconds used so far by the live threads of ``pid`` and of its
    descendants, from the scheduler's nanosecond counters."""
    total = 0
    for process in [pid] + descendants(pid):
        try:
            for thread in os.listdir(f"/proc/{process}/task"):
                with open(f"/proc/{process}/task/{thread}/schedstat") as handle:
                    total += int(handle.read().split()[0])
        except FileNotFoundError:
            pass  # exited since it was listed
    return total / 1e9


def _running(pid: int) -> bool:
    # A zombie ("Z") has exited; only its parent can still reap it.
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def reap(pids: Sequence[int], grace: float = 10.0) -> None:
    """Wait for processes started by a child (a server's workers) to
    exit; SIGKILL any still running after ``grace`` seconds."""
    for _ in range(2):
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            alive = [pid for pid in pids if _running(pid)]
            if not alive:
                return
            time.sleep(0.05)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class Server:
    """One ``twl-repro serve`` process on a fresh state directory."""

    def __init__(self, state_dir: Path) -> None:
        state_dir.mkdir()
        # A path relative to the checkout keeps the socket name short.
        self.address: Address = ("unix", os.path.relpath(state_dir / "s.sock", common.ROOT))
        self.log = state_dir / "server.log"
        start = time.perf_counter()
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--state-dir", str(state_dir), "--unix", self.address[1],
                 "--workers", str(JOBS)],
                cwd=common.ROOT,
                env=common.child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        try:
            while not asyncio.run(ping(self.address, timeout=5.0)):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"server exited: {self.log.read_text()}")
                if time.perf_counter() - start > SERVER_START_TIMEOUT:
                    raise RuntimeError("server did not answer a ping")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        #: CPU seconds from launch to the first answered ping.
        self.setup_s = self.cpu_s()

    def cpu_s(self) -> float:
        """CPU seconds the server and its workers have used so far."""
        return tree_cpu_s(self.proc.pid)

    def stop(self) -> int:
        """SIGTERM (drain-then-exit); wait for the server and its workers."""
        workers = descendants(self.proc.pid)
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        reap(workers)
        return code


Reply = Tuple[ExperimentCell, Dict[str, Any], float]


async def _client(
    address: Address, queue: Deque[ExperimentCell], tag: str, session: str, replies: List[Reply]
) -> None:
    """A closed loop: take the next cell only once the last reply is in."""
    reader, writer = await open_connection(address)
    try:
        while queue:
            cell = queue.popleft()
            start = time.perf_counter()
            response = await submit_cell(
                reader, writer, cell, f"{tag}-{len(replies)}", session=session,
                timeout=REPLY_TIMEOUT,
            )
            replies.append((cell, response, time.perf_counter() - start))
    finally:
        writer.close()
        await writer.wait_closed()


def serve_pass(
    address: Address, cells: Sequence[ExperimentCell], tag: str, session: str = SESSION
) -> Tuple[float, List[Reply]]:
    """``JOBS`` connections drain one queue of ``cells``; (wall, replies)."""
    queue = deque(cells)
    replies: List[Reply] = []

    async def clients() -> None:
        await asyncio.gather(
            *(_client(address, queue, f"{tag}{k}", session, replies) for k in range(JOBS))
        )

    start = time.perf_counter()
    asyncio.run(clients())
    return time.perf_counter() - start, replies


@dataclass
class ServeRound:
    """What one server round measured."""

    cold_s: float
    #: CPU seconds the server and its workers spent on the cold pass, at
    #: nominal host speed.
    cold_cpu_s: float
    #: Summed execution seconds of the cold pass's fresh runs.
    compute_s: float = 0.0
    #: Warm (round trip, server-side seconds) samples.
    warm: List[Tuple[float, float]] = field(default_factory=list)
    warm_wall: float = 0.0
    stats: Dict[str, Any] = field(default_factory=dict)


async def _stats(address: Address) -> Dict[str, Any]:
    reader, writer = await open_connection(address)
    try:
        writer.write(b'{"id":"stats","op":"stats"}\n')
        await writer.drain()
        return json.loads(await asyncio.wait_for(reader.readline(), REPLY_TIMEOUT))
    finally:
        writer.close()
        await writer.wait_closed()


class Campaign:
    def __init__(self, args: argparse.Namespace, work: Path) -> None:
        self.cells, self.quick, self.probes = grid(args.smoke)
        self.smoke = args.smoke
        self.probe_writes = PROBE_WRITES // (common.SMOKE_DIVISOR if args.smoke else 1)
        self.probe_digests: Dict[str, str] = {}
        #: Scheme -> CPU seconds (at nominal host speed) of every probe.
        self.probe_seconds: Dict[str, List[float]] = {}
        self.clock: Optional[hostspeed.Calibrated] = None
        self.work = work
        self.checks = common.Checks()
        # Rows stay in grid order, so the short nowl row comes last and
        # no long cell lands at the tail of a pass; cells within a row
        # go in seeded order.
        shuffle = random.Random(args.seed).shuffle
        self.order: List[ExperimentCell] = []
        for row in range(0, len(self.cells), len(ATTACKS)):
            cells = self.cells[row : row + len(ATTACKS)]
            shuffle(cells)
            self.order += cells
        self.order += self.quick
        #: Fingerprint -> the executor's result as the wire carries it.
        self.expected: Dict[str, Dict[str, Any]] = {}
        self.digests: List[str] = []
        self.sources: Dict[str, int] = {"run": 0, "journal": 0, "cache": 0, "coalesced": 0}
        self._dirs = 0

    def fresh_dir(self, name: str) -> Path:
        self._dirs += 1
        return self.work / f"{name}{self._dirs}"

    def fresh_cache(self) -> CellCache:
        return CellCache(str(self.fresh_dir("cache")))

    def executor(self, cache: CellCache) -> Tuple[float, float]:
        """The grid through ``execute_cells``, then the quick-death cells;
        (wall seconds, CPU seconds of this process and its pool workers
        at nominal host speed)."""
        start, start_cpu = time.perf_counter(), common.cpu_s(include_children=True)
        with hostspeed.Sampler() as speed:
            outcomes = execute_cells(self.cells, jobs=JOBS, cache=cache, progress=False)
            outcomes += execute_cells(self.quick, jobs=JOBS, cache=cache, progress=False)
        # execute_cells has shut its pool down, so the workers are waited for.
        seconds = time.perf_counter() - start
        cpu = common.cpu_s(include_children=True) - start_cpu - speed.cpu_s
        cpu /= speed.factor()
        results = [outcome.result for outcome in outcomes]
        self.checks.check(
            len(results) == len(self.cells) + len(self.quick), "executor lost cells"
        )
        self.digests.append(digest(results))
        for cell, result in zip(self.cells + self.quick, results):
            self.expected[cell_fingerprint(cell)] = encoded(result)
        return seconds, cpu

    def check_replies(self, replies) -> None:
        for cell, response, _ in replies:
            fingerprint = cell_fingerprint(cell)
            ok = response.get("ok") is True and response.get("status") == "done"
            if self.checks.check(ok, f"server: {cell.describe()}: {response.get('error')}"):
                source = response.get("source")
                self.sources[source] = self.sources.get(source, 0) + 1
                served = {"kind": response.get("kind"), "payload": response.get("payload")}
                self.checks.check(
                    served == self.expected[fingerprint],
                    f"server: {cell.describe()}: payload differs from the executor's",
                )

    def server_round(self, warm_samples: int = 0) -> ServeRound:
        """Launch, warm the pool, run the grid cold, then warm passes."""
        server = Server(self.fresh_dir("serve"))
        try:
            # Two tiny cells outside the grid start both worker processes.
            serve_pass(server.address, default_grid(1)[:JOBS], "w", "warmup")
            start_cpu = server.cpu_s()
            with hostspeed.Sampler() as speed:
                cold_s, replies = serve_pass(server.address, self.order, "c")
            result = ServeRound(cold_s, (server.cpu_s() - start_cpu) / speed.factor())
            self.check_replies(replies)
            if warm_samples:
                serve_pass(server.address, self.order, "d")  # discarded
                while len(result.warm) < warm_samples:
                    wall, again = serve_pass(server.address, self.order, f"r{len(result.warm)}-")
                    self.check_replies(again)
                    result.warm_wall += wall
                    result.warm += [(rtt, float(reply["seconds"])) for _, reply, rtt in again]
                result.stats = asyncio.run(_stats(server.address))["stats"]
        finally:
            code = server.stop()
        self.checks.check(code == 0, f"server exited with {code}")
        # With two connections on two workers no request waits, so a
        # fresh run's ``seconds`` is its execution time.
        result.compute_s = sum(
            float(reply["seconds"]) for _, reply, _ in replies if reply.get("source") == "run"
        )
        return result

    def probe(self, rounds: int) -> Dict[str, float]:
        """Per-write path demand writes per CPU second at nominal host
        speed, median of every round so far (``rounds`` more are run)."""
        if self.clock is None:
            self.clock = hostspeed.Calibrated()
        for _ in range(rounds):
            for cell in self.probes:
                engine = probe_engine(cell)
                served, elapsed = self.clock.time(engine.drive, self.probe_writes)
                self.checks.check(
                    served == self.probe_writes,
                    f"probe {cell.describe()}: served {served} of {self.probe_writes}",
                )
                state = common.engine_digest(engine, served)
                known = self.probe_digests.setdefault(cell.scheme, state)
                self.checks.check(known == state, f"probe {cell.describe()}: rounds disagree")
                self.probe_seconds.setdefault(cell.scheme, []).append(elapsed)
        return {
            RATE_LABELS[scheme]: self.probe_writes / statistics.median(seconds)
            for scheme, seconds in self.probe_seconds.items()
        }

    def check_digests(self) -> Dict[str, str]:
        self.checks.check(len(set(self.digests)) == 1, "campaign: rounds disagree")
        digests = dict(self.probe_digests, fig6=self.digests[0])
        expected = json.loads((common.SUITE / "expected.json").read_text())
        # The experiment is fixed, so its digests hold for every --seed.
        table = expected["smoke" if self.smoke else "full"].get("campaign", {})
        for name, state in digests.items():
            self.checks.check(
                table.get(name) == state, f"campaign/{name}: digest {state} != {table.get(name)}"
            )
        return digests


def untraced(campaign: Campaign, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    deadline = time.perf_counter() + seconds
    setups = []
    for _ in range(LAUNCHES):
        with hostspeed.Sampler() as speed:
            server = Server(campaign.fresh_dir("launch"))
        setups.append(server.setup_s / speed.factor())
        campaign.checks.check(server.stop() == 0, "launch-only server exit code")
    # Per round: executor (wall, CPU), server cold pass (wall, CPU).
    rounds: List[Tuple[float, float, float, float]] = []
    while True:
        started = time.perf_counter()
        rates = campaign.probe(PROBE_ROUNDS)
        executor_s, executor_cpu = campaign.executor(campaign.fresh_cache())
        serve = campaign.server_round()
        rounds.append((executor_s, executor_cpu, serve.cold_s, serve.cold_cpu_s))
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    while time.perf_counter() < deadline:
        rates = campaign.probe(1)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": common.peak_rss_mb(include_children=True),
        "cpu_s": statistics.median(
            executor_cpu + serve_cpu for _, executor_cpu, _, serve_cpu in rounds
        ),
    }
    for label in E2E_SCHEMES:
        metrics[f"wps.{label}"] = rates[label]
    assert campaign.clock is not None
    details = {
        "rounds": len(rounds),
        "probe_rounds": len(campaign.probe_seconds["nowl"]),
        "slowdown.median": statistics.median(campaign.clock.slowdowns),
        "slowdown.max": max(campaign.clock.slowdowns),
    }
    for index, name in enumerate(("exec.cold_s", "exec.cold_cpu_s", "serve.cold_s",
                                  "serve.cold_cpu_s")):
        details[name] = statistics.median(record[index] for record in rounds)
    return metrics, details


def traced(campaign: Campaign, tracer: Tracer) -> Tuple[Dict[str, float], Dict[str, Any]]:
    campaign.probe(1)  # for its digests: tracing must not change them
    # Layer shares are of wall time, as the spans measure it.
    cold, _ = campaign.executor(campaign.fresh_cache())
    cache = campaign.fresh_cache()
    tracer.wrap(cache, "get", "exec.cache_get")
    tracer.wrap(cache, "put", "exec.cache_put")
    tracer.begin_run("campaign/exec/cold")
    traced_cold, _ = tracer.call("exec.round", campaign.executor, cache)
    hits, misses = cache.hits, cache.misses
    warm = []
    for repeat in range(WARM_REPEATS):
        tracer.begin_run(f"campaign/exec/warm{repeat}")
        warm.append(tracer.call("exec.round", campaign.executor, cache)[0])
    lookups = cache.hits + cache.misses - hits - misses
    passes = []
    for repeat in range(FINGERPRINT_PASSES):
        tracer.begin_run(f"campaign/exec/fingerprint{repeat}")
        start = time.perf_counter()
        for cell in campaign.cells + campaign.quick:
            tracer.call("exec.fingerprint", cell_fingerprint, cell)
        passes.append(time.perf_counter() - start)

    samples = len(campaign.order) if campaign.smoke else WARM_SAMPLES
    serve = campaign.server_round(samples)

    def spent(prefix: str, name: str) -> float:
        return sum(
            seconds for (run, span), seconds in tracer.self_seconds.items()
            if run.startswith(prefix) and span == name
        )

    rtts = [rtt for rtt, _ in serve.warm]
    p50, p95 = statistics.median(rtts), statistics.quantiles(rtts, n=20)[18]
    warm_s = statistics.median(warm)
    rejected = sum(v for k, v in serve.stats.items() if k.startswith("rejected_"))
    metrics = {
        "exec.cache_hit_frac": (cache.hits - hits) / lookups,
        "exec.cache_get_frac": spent("campaign/exec/warm", "exec.cache_get") / sum(warm),
        "exec.cache_put_frac": spent("campaign/exec/cold", "exec.cache_put") / traced_cold,
        "exec.fingerprint_frac": statistics.median(passes) / warm_s,
        "exec.parallel_efficiency": serve.compute_s / (JOBS * cold),
        "exec.warm_over_cold": warm_s / cold,
        "serve.server_frac": statistics.median([server / rtt for rtt, server in serve.warm]),
        "serve.tail_ratio": p95 / p50,
        "serve.cold_over_exec": serve.cold_s / cold,
        "serve.rejected": float(rejected),
        "serve.samples": float(len(rtts)),
        OVERHEAD: traced_cold / cold - 1.0,
    }
    for source, count in campaign.sources.items():
        metrics[f"serve.source.{source}"] = float(count)
    details = {
        "exec.cold_s": cold,
        "exec.warm_s": warm_s,
        "serve.cold_s": serve.cold_s,
        "serve.p50_ms": p50 * 1e3,
        "serve.p95_ms": p95 * 1e3,
        "serve.requests_per_s": len(rtts) / serve.warm_wall,
        "serve.samples": len(rtts),
        "spans": len(tracer),
    }
    return metrics, details


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    with common.work_dir("campaign-") as work:
        campaign = Campaign(args, work)
        if args.trace:
            tracer = Tracer()
            metrics, details = traced(campaign, tracer)
            if args.spans:
                tracer.write_ndjson(args.spans)
        else:
            metrics, details = untraced(campaign, args.seconds)
        digests = campaign.check_digests()
    common.emit(campaign.checks, metrics, digests, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())
