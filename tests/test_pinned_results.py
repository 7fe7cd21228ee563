"""Per-write results pinned as literal values.

Every registered scheme runs to first failure at ``batch_size=1`` on a
64-page array under five workloads: a looped materialized trace (reads
included), the FTL stream, and the scan, random and adaptive
inconsistent attacks.  The expected values were recorded from the
per-write path before the engine took over serving non-adaptive
writes, so any change to where the per-write loop lives must leave
them untouched.  Each row is ``(demand writes, device writes, failed
physical page, device writes at failure, swap writes, swap events)``.

The attack rows are also reached through ``run_cell`` at the default
batch size, the path every experiment takes, and must give the same
tuple as the batch-1 reference.
"""

import pytest

from repro.attacks.registry import make_attack
from repro.config import ScaledArrayConfig
from repro.exec import DEFAULT_BATCH_SIZE, attack_cell, run_cell
from repro.sim.drivers import AttackDriver, StreamDriver
from repro.sim.lifetime import run_to_failure
from repro.sim.runner import build_array, measure_trace_lifetime
from repro.traces.parsec import get_profile, make_benchmark_trace
from repro.traces.registry import make_stream
from repro.wearlevel.registry import make_scheme, scheme_names

SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=512.0)
SEED = 5
WORKLOADS = ("trace", "ftl", "scan", "random", "inconsistent")
ATTACKS = ("scan", "random", "inconsistent")

PINNED = {
    ("bwl", "trace"): (24064, 24665, 53, 24665, 606, 94),
    ("bwl", "ftl"): (25763, 27371, 25, 27371, 1608, 92),
    ("bwl", "scan"): (12129, 12629, 39, 12629, 500, 27),
    ("bwl", "random"): (11385, 12335, 39, 12335, 964, 45),
    ("bwl", "inconsistent"): (2169, 2249, 1, 2249, 80, 8),
    ("nowl", "trace"): (585, 585, 33, 585, 0, 0),
    ("nowl", "ftl"): (2731, 2731, 26, 2731, 0, 0),
    ("nowl", "scan"): (13800, 13800, 39, 13800, 0, 0),
    ("nowl", "random"): (13072, 13072, 39, 13072, 0, 0),
    ("nowl", "inconsistent"): (6279, 6279, 63, 6279, 0, 0),
    ("retire", "trace"): (646, 647, 63, 647, 1, 1),
    ("retire", "ftl"): (3971, 3972, 8, 3972, 1, 1),
    ("retire", "scan"): (14202, 14203, 26, 14203, 1, 1),
    ("retire", "random"): (13770, 13771, 39, 13771, 1, 1),
    ("retire", "inconsistent"): (17419, 17420, 26, 17420, 1, 1),
    ("sr", "trace"): (3141, 3181, 46, 3181, 40, 20),
    ("sr", "ftl"): (6044, 6150, 38, 6150, 106, 53),
    ("sr", "scan"): (13597, 13787, 39, 13787, 190, 95),
    ("sr", "random"): (12816, 13002, 26, 13002, 186, 93),
    ("sr", "inconsistent"): (6697, 6805, 63, 6805, 108, 54),
    ("sr_single", "trace"): (501, 507, 44, 507, 6, 3),
    ("sr_single", "ftl"): (5735, 5783, 57, 5783, 48, 24),
    ("sr_single", "scan"): (13661, 13789, 39, 13789, 128, 64),
    ("sr_single", "random"): (12058, 12182, 39, 12182, 124, 62),
    ("sr_single", "inconsistent"): (2685, 2709, 51, 2709, 24, 12),
    ("startgap", "trace"): (862, 868, 30, 868, 6, 6),
    ("startgap", "ftl"): (2316, 2334, 63, 2334, 18, 18),
    ("startgap", "scan"): (13730, 13836, 39, 13836, 106, 106),
    ("startgap", "random"): (12689, 12787, 39, 12787, 98, 98),
    ("startgap", "inconsistent"): (871, 877, 26, 877, 6, 6),
    ("twl", "trace"): (15296, 15795, 1, 15795, 499, 380),
    ("twl", "ftl"): (11136, 11513, 38, 11513, 379, 292),
    ("twl", "scan"): (13213, 13693, 39, 13693, 480, 377),
    ("twl", "random"): (12210, 12633, 39, 12633, 423, 328),
    ("twl", "inconsistent"): (8555, 8820, 39, 8820, 265, 199),
    ("twl_ap", "trace"): (7777, 8029, 38, 8029, 252, 192),
    ("twl_ap", "ftl"): (10688, 11059, 38, 11059, 371, 288),
    ("twl_ap", "scan"): (13380, 13865, 39, 13865, 485, 381),
    ("twl_ap", "random"): (13283, 13742, 26, 13742, 459, 356),
    ("twl_ap", "inconsistent"): (8625, 8898, 39, 8898, 273, 206),
    ("twl_random", "trace"): (7788, 8036, 38, 8036, 248, 188),
    ("twl_random", "ftl"): (9392, 9712, 38, 9712, 320, 247),
    ("twl_random", "scan"): (13084, 13553, 39, 13553, 469, 367),
    ("twl_random", "random"): (12361, 12790, 39, 12790, 429, 333),
    ("twl_random", "inconsistent"): (1406, 1451, 26, 1451, 45, 35),
    ("twl_swp", "trace"): (15296, 15795, 1, 15795, 499, 380),
    ("twl_swp", "ftl"): (11136, 11513, 38, 11513, 379, 292),
    ("twl_swp", "scan"): (13213, 13693, 39, 13693, 480, 377),
    ("twl_swp", "random"): (12210, 12633, 39, 12633, 423, 328),
    ("twl_swp", "inconsistent"): (8555, 8820, 39, 8820, 265, 199),
    ("wrl", "trace"): (820, 884, 0, 884, 64, 1),
    ("wrl", "ftl"): (21378, 21886, 63, 21886, 508, 8),
    ("wrl", "scan"): (13760, 13837, 39, 13837, 77, 5),
    ("wrl", "random"): (12505, 12820, 39, 12820, 315, 5),
    ("wrl", "inconsistent"): (8734, 8976, 63, 8976, 242, 4),
}


def _trace(n_pages):
    return make_benchmark_trace(
        get_profile("canneal"), n_pages, 3000, seed=SEED, include_reads=True
    )


def _driver(workload, n_pages):
    if workload == "trace":
        return StreamDriver(_trace(n_pages).stream(), n_pages)
    if workload == "ftl":
        return StreamDriver(make_stream("ftl", n_pages, seed=SEED, chunk_size=1000), n_pages)
    return AttackDriver(make_attack(workload, n_pages, seed=SEED))


def test_every_scheme_and_workload_is_pinned():
    assert set(PINNED) == {(s, w) for s in scheme_names() for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_per_write_result_is_pinned(scheme_name, workload):
    scheme = make_scheme(scheme_name, build_array(SCALED), seed=SEED)
    result = run_to_failure(scheme, _driver(workload, scheme.logical_pages))
    failure = result.failure
    observed = (
        result.demand_writes,
        result.device_writes,
        failure.physical_page,
        failure.device_writes,
        scheme.swap_writes,
        scheme.swap_events,
    )
    assert observed == PINNED[(scheme_name, workload)]


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_trace_lifetime_helper_is_pinned(scheme_name):
    """The public looped-trace entry point serves the same writes."""
    n_pages = make_scheme(scheme_name, build_array(SCALED), seed=SEED).logical_pages
    result = measure_trace_lifetime(scheme_name, _trace(n_pages), scaled=SCALED, seed=SEED)
    observed = (
        result.demand_writes,
        result.device_writes,
        result.failure.physical_page,
        result.failure.device_writes,
    )
    assert observed == PINNED[(scheme_name, "trace")][:4]


@pytest.mark.parametrize("workload", ATTACKS)
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_default_cell_result_is_pinned(built_engines, scheme_name, workload):
    """An attack cell at the default batch size serves the oracle's writes."""
    result = run_cell(attack_cell(scheme_name, workload, scaled=SCALED, seed=SEED))
    (engine,) = built_engines
    assert engine.batch_size == DEFAULT_BATCH_SIZE
    observed = (
        result.demand_writes,
        result.device_writes,
        result.failure.physical_page,
        result.failure.device_writes,
        engine.scheme.swap_writes,
        engine.scheme.swap_events,
    )
    assert observed == PINNED[(scheme_name, workload)]
