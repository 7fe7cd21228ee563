"""A5 — engine microbenchmarks: demand writes per second per scheme.

These are classic pytest-benchmark timings (multiple rounds) of the
per-write hot path, useful for tracking simulator performance
regressions, plus a batched-vs-per-write engine comparison recorded to
``benchmarks/results/``; the absolute numbers are host-dependent.
"""

import time

import pytest

from repro.analysis.tables import ResultTable
from repro.config import TWLConfig
from repro.engine import SimulationEngine
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver
from repro.attacks.registry import make_attack
from repro.wearlevel.registry import make_scheme

_SCHEMES = ("nowl", "startgap", "sr", "twl", "bwl", "wrl")
_N_PAGES = 1024
_WRITES = 20_000


@pytest.mark.parametrize("scheme_name", _SCHEMES)
def test_scheme_write_throughput(benchmark, scheme_name):
    def run_writes():
        array = PCMArray.uniform(_N_PAGES, 10**9)
        scheme = make_scheme(scheme_name, array, seed=1)
        limit = scheme.logical_pages
        write = scheme.write
        for step in range(_WRITES):
            write(step % limit)
        return scheme.demand_writes

    demand = benchmark.pedantic(run_writes, rounds=3, iterations=1)
    assert demand == _WRITES


#: Sparse-trigger TWL configuration: quiet runs long enough for the
#: vectorized non-toss-up fast path to engage (the paper's interval-32
#: default fires events every ~25 writes, where TWL adaptively degrades
#: to the scalar path and should sit near parity).
_TWL_SPARSE = TWLConfig(toss_up_interval=120, inter_pair_swap_interval=4096)

_BATCH_CASES = (
    ("nowl", {}),
    ("startgap", {}),
    ("twl", {}),
    ("twl sparse", {"config": _TWL_SPARSE}),
    ("sr", {}),
)
_BATCH_WRITES = 200_000
_BATCH_SIZE = 4096


def _engine_writes_per_second(
    scheme_name: str, batch_size: int, scheme_kwargs: dict
) -> float:
    array = PCMArray.uniform(_N_PAGES, 10**9)
    scheme = make_scheme(scheme_name, array, seed=1, **scheme_kwargs)
    attack = make_attack("scan", scheme.logical_pages, seed=1)
    engine = SimulationEngine(scheme, AttackDriver(attack), batch_size=batch_size)
    start = time.perf_counter()
    served = engine.drive(_BATCH_WRITES)
    elapsed = time.perf_counter() - start
    assert served == _BATCH_WRITES
    return served / elapsed


def test_batched_vs_per_write_throughput(record):
    """Record engine writes/second, batched vs per-write, per scheme.

    nowl/startgap have fully vectorized ``write_batch`` overrides; TWL
    vectorizes its quiet runs when triggers are sparse and degrades to
    the scalar path when they are dense; ``sr`` vectorizes the runs
    between its refresh triggers and steps the scalar refresh only at
    trigger positions.
    """
    table = ResultTable(
        columns=["scheme", "per_write_wps", "batched_wps", "speedup"]
    )
    for case, scheme_kwargs in _BATCH_CASES:
        scheme_name = case.split()[0]
        serial = _engine_writes_per_second(scheme_name, 1, scheme_kwargs)
        batched = _engine_writes_per_second(
            scheme_name, _BATCH_SIZE, scheme_kwargs
        )
        table.add_row(
            scheme=case,
            per_write_wps=round(serial),
            batched_wps=round(batched),
            speedup=batched / serial,
        )
    record(
        "throughput_batched",
        table.render(
            precision=2,
            title=(
                "A5 — engine demand writes/second, per-write vs batched "
                f"(batch={_BATCH_SIZE}, scan attack, {_N_PAGES} pages)"
            ),
        ),
    )
