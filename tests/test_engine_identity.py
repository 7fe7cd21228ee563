"""Batch-identity contract: batched runs are bit-identical to serial.

Every registered scheme × every registered attack is driven twice at
1024 pages — once through the per-write path, once through the batched
write protocol — and the full observable state is compared: the
``LifetimeResult`` (failure page, demand/device writes), the per-page
write counts, and the scheme's counters (swap writes, swap events, all
``stats()`` entries).  This contract is what allows ``batch_size`` to be
excluded from the exec-layer cache fingerprint.

The endurance mean is kept low and the demand quota capped so the whole
grid stays fast; cells that do not reach failure within the quota still
compare their complete intermediate state, which exercises the identity
on the no-failure path too.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.detector import SwapDetector
from repro.attacks.inconsistent import InconsistentWriteAttack
from repro.attacks.registry import attack_names, make_attack
from repro.config import BWLConfig, SoftErrorConfig, TimingConfig, TWLConfig
from repro.core.twl import TossUpWearLeveling
from repro.engine import InvariantCheckObserver, SimulationEngine
from repro.errors import SimulationError
from repro.pcm.array import PCMArray
from repro.sim.drivers import AttackDriver, StreamDriver
from repro.sim.lifetime import run_to_failure
from repro.traces import OP_READ, OP_WRITE, FTLWorkloadStream
from repro.traces.trace import Trace
from repro.wearlevel.base import WearLeveler
from repro.wearlevel.bwl import BloomWearLeveling
from repro.wearlevel.registry import make_scheme, scheme_names

_N_PAGES = 1024
_ENDURANCE = 2048
_MAX_DEMAND = 120_000
_BATCH_SIZE = 64


def _run_attack(scheme_name, attack_name, batch_size, **kwargs):
    array = PCMArray.uniform(_N_PAGES, _ENDURANCE)
    scheme = make_scheme(scheme_name, array, seed=11)
    attack = make_attack(attack_name, scheme.logical_pages, seed=11)
    result = run_to_failure(
        scheme,
        AttackDriver(attack),
        max_demand=_MAX_DEMAND,
        require_failure=False,
        batch_size=batch_size,
        **kwargs,
    )
    return result, array.write_counts(), scheme.stats()


@pytest.mark.parametrize("attack_name", attack_names())
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_batched_identical_to_serial(scheme_name, attack_name):
    serial, serial_counts, serial_stats = _run_attack(
        scheme_name, attack_name, batch_size=1
    )
    batched, batched_counts, batched_stats = _run_attack(
        scheme_name, attack_name, batch_size=_BATCH_SIZE
    )
    assert batched == serial
    assert np.array_equal(batched_counts, serial_counts)
    assert batched_stats == serial_stats


@pytest.mark.parametrize("batch_size", [2, 17, 500, 8192])
def test_identity_across_batch_sizes(batch_size):
    """Odd, tiny and larger-than-run batch sizes all match serial."""
    serial, serial_counts, serial_stats = _run_attack(
        "twl", "repeat", batch_size=1
    )
    batched, batched_counts, batched_stats = _run_attack(
        "twl", "repeat", batch_size=batch_size
    )
    assert batched == serial
    assert np.array_equal(batched_counts, serial_counts)
    assert batched_stats == serial_stats


@pytest.mark.parametrize("attack_name", attack_names())
@pytest.mark.parametrize("scheme_name", scheme_names())
def test_rate_zero_faults_and_checker_are_inert(scheme_name, attack_name):
    """A rate-0 soft-error config plus the invariant checker changes
    nothing: every scheme × attack cell stays bit-identical to the plain
    run.  This doubles as a full-matrix run of the invariant checker —
    every scheme's steady-state tables satisfy the invariants at every
    4th step of every workload."""
    plain, plain_counts, plain_stats = _run_attack(
        scheme_name, attack_name, batch_size=1
    )
    checker = InvariantCheckObserver(every=4)
    checked, checked_counts, checked_stats = _run_attack(
        scheme_name,
        attack_name,
        batch_size=_BATCH_SIZE,
        soft_errors=SoftErrorConfig(rate=0.0, seed=11),
        observers=[checker],
    )
    assert checked == plain
    assert np.array_equal(checked_counts, plain_counts)
    assert checked_stats == plain_stats
    assert checker.checks > 0


def _run_trace(scheme_name, batch_size):
    array = PCMArray.uniform(_N_PAGES, _ENDURANCE)
    scheme = make_scheme(scheme_name, array, seed=11)
    rng = np.random.default_rng(7)
    # Stay within the scheme's logical space (StartGap reserves a page).
    writes = rng.integers(0, scheme.logical_pages, size=5000)
    trace = Trace.writes_only(writes, name="synthetic")
    driver = StreamDriver(trace.stream(), scheme.logical_pages)
    result = run_to_failure(
        scheme,
        driver,
        max_demand=_MAX_DEMAND,
        require_failure=False,
        batch_size=batch_size,
    )
    return result, array.write_counts(), scheme.stats()


@pytest.mark.parametrize("scheme_name", ["nowl", "startgap", "twl", "sr"])
def test_trace_driver_identity(scheme_name):
    serial, serial_counts, serial_stats = _run_trace(scheme_name, 1)
    batched, batched_counts, batched_stats = _run_trace(scheme_name, 256)
    assert batched == serial
    assert np.array_equal(batched_counts, serial_counts)
    assert batched_stats == serial_stats


# --- streamed vs materialized identity -------------------------------
#
# The chunk-identity contract: a StreamDriver pulling a workload in
# chunks serves exactly the trace's own write array looped to length,
# so streamed runs are bit-identical to that array served write by
# write at any chunk size × batch size.  This is what allows
# ``chunk_size`` to be excluded from the exec-layer cache fingerprint.  Scales here are
# smaller than the attack matrix above: the matrix is scheme-wide and
# each cell runs the workload twice.

_STREAM_N_PAGES = 256
_STREAM_ENDURANCE = 1024
_STREAM_MAX_DEMAND = 60_000


def _mixed_stream_trace(n_pages: int) -> Trace:
    """A read/write mix so streamed runs exercise the op filter."""
    rng = np.random.default_rng(7)
    n_requests = 4000
    ops = np.where(rng.random(n_requests) < 0.75, OP_WRITE, OP_READ).astype(np.uint8)
    pages = rng.integers(0, n_pages, size=n_requests)
    return Trace(ops, pages, name="synthetic")


def _run_stream_trace(scheme_name, chunk_size, batch_size):
    array = PCMArray.uniform(_STREAM_N_PAGES, _STREAM_ENDURANCE)
    scheme = make_scheme(scheme_name, array, seed=11)
    trace = _mixed_stream_trace(scheme.logical_pages)
    result = run_to_failure(
        scheme,
        StreamDriver(trace.stream(chunk_size), scheme.logical_pages),
        max_demand=_STREAM_MAX_DEMAND,
        require_failure=False,
        batch_size=batch_size,
    )
    return (result.demand_writes, result.failure), array.write_counts(), scheme.stats()


def _run_tiled_trace(scheme_name):
    """The reference without any driver: the trace's write array tiled
    to the demand cap, served through the per-write oracle loop."""
    array = PCMArray.uniform(_STREAM_N_PAGES, _STREAM_ENDURANCE)
    scheme = make_scheme(scheme_name, array, seed=11)
    writes = _mixed_stream_trace(scheme.logical_pages).write_pages()
    counts = WearLeveler.write_batch(scheme, np.resize(writes, _STREAM_MAX_DEMAND))
    return (counts.size, array.first_failure), array.write_counts(), scheme.stats()


@pytest.mark.parametrize("scheme_name", scheme_names())
def test_streamed_identical_to_materialized(scheme_name):
    serial, serial_counts, serial_stats = _run_tiled_trace(scheme_name)
    streamed, streamed_counts, streamed_stats = _run_stream_trace(
        scheme_name, chunk_size=97, batch_size=_BATCH_SIZE
    )
    assert streamed == serial
    assert np.array_equal(streamed_counts, serial_counts)
    assert streamed_stats == serial_stats


@pytest.mark.parametrize("chunk_size", [1, 63, 64, 65])
def test_stream_chunk_boundaries_around_batch_size(chunk_size):
    """Chunk sizes at and astride the batch size (64) change nothing.

    Chunk 1 forces a short batch at every engine step; 63/65 misalign
    every chunk boundary against the batch boundary."""
    serial, serial_counts, serial_stats = _run_tiled_trace("twl")
    streamed, streamed_counts, streamed_stats = _run_stream_trace(
        "twl", chunk_size=chunk_size, batch_size=_BATCH_SIZE
    )
    assert streamed == serial
    assert np.array_equal(streamed_counts, serial_counts)
    assert streamed_stats == serial_stats


def _run_ftl(scheme_name, chunk_size, batch_size):
    array = PCMArray.uniform(_STREAM_N_PAGES, _STREAM_ENDURANCE)
    scheme = make_scheme(scheme_name, array, seed=11)
    stream = FTLWorkloadStream(scheme.logical_pages, seed=11, chunk_size=chunk_size)
    result = run_to_failure(
        scheme,
        StreamDriver(stream, scheme.logical_pages),
        max_demand=_STREAM_MAX_DEMAND,
        require_failure=False,
        batch_size=batch_size,
    )
    return result, array.write_counts(), scheme.stats()


@pytest.mark.parametrize("scheme_name", ["sr", "wrl", "bwl", "twl"])
def test_ftl_stream_chunk_and_batch_invariance(scheme_name):
    """The endless FTL generator has no materialized counterpart, so
    its identity contract is stated across execution knobs: any
    (chunk_size, batch_size) pair yields the same run."""
    reference = _run_ftl(scheme_name, chunk_size=512, batch_size=1)
    for chunk_size, batch_size in ((97, 64), (4096, 256)):
        other = _run_ftl(scheme_name, chunk_size, batch_size)
        assert other[0] == reference[0]
        assert np.array_equal(other[1], reference[1])
        assert other[2] == reference[2]


# --- generated BWL configurations ------------------------------------
#
# BWL's batched path scans whole windows of Bloom-filter estimates; its
# exactness rests on counters saturating and thresholds moving only at
# swap triggers, so it is checked across generated filter shapes, phase
# lengths and thresholds, including runs that wear a page out.

_BWL_PAGES = 128
_BWL_DEMAND = 12_000
_NON_ADAPTIVE = [
    name
    for name in attack_names()
    if not make_attack(name, _BWL_PAGES, seed=0).is_adaptive
]


def _bwl_state(scheme):
    return {
        "hot_threshold": scheme.hot_threshold,
        "hot_list": list(scheme._hot_list),
        "cold_queue": list(scheme._cold_queue),
        "cold_set": sorted(scheme._cold_set),
        "filter": scheme.hot_filter.snapshot(),
        "detection_writes": scheme._detection_writes,
    }


def _run_bwl(config, attack_name, endurance, batch_size):
    array = PCMArray.uniform(_BWL_PAGES, endurance)
    scheme = BloomWearLeveling(array, config, seed=3)
    attack = make_attack(attack_name, _BWL_PAGES, seed=3)
    result = run_to_failure(
        scheme,
        AttackDriver(attack),
        max_demand=_BWL_DEMAND,
        require_failure=False,
        batch_size=batch_size,
    )
    return result, array.write_counts(), scheme.stats(), _bwl_state(scheme)


@given(
    config=st.builds(
        BWLConfig,
        bloom_bits=st.sampled_from([2, 16, 64, 256]),
        bloom_hashes=st.integers(1, 8),
        prediction_writes_per_page=st.sampled_from([0.05, 0.5, 4.0]),
        running_multiplier=st.sampled_from([1.0, 3.0, 10.0]),
        hot_fraction=st.sampled_from([0.01, 0.05, 0.125, 0.5]),
        cold_threshold=st.integers(1, 5),
    ),
    attack_name=st.sampled_from(_NON_ADAPTIVE),
    batch_size=st.sampled_from([2, 97, 4096]),
    endurance=st.sampled_from([10**9, 60]),
)
@settings(max_examples=40, deadline=None)
def test_bwl_generated_configs_identical_to_serial(
    config, attack_name, batch_size, endurance
):
    """A generated BWL config under a non-adaptive attack equals the
    ``batch_size=1`` oracle: result, wear, stats and, when no page
    wore out, the whole controller state."""
    oracle = _run_bwl(config, attack_name, endurance, 1)
    batched = _run_bwl(config, attack_name, endurance, batch_size)
    assert batched[0] == oracle[0]
    assert np.array_equal(batched[1], oracle[1])
    assert batched[2] == oracle[2]
    if not oracle[0].failed:
        assert batched[3] == oracle[3]


# --- generated TWL windows with same-pair events ---------------------
#
# TWL's bulk span decides its toss-up events in request order, so two
# events of one pair in a span see each other's swaps.  A small array
# and attacks over few pages put both pages of a pair in most spans;
# the low endurance sums to less than the demand cap, so those runs wear
# a page out: the guard rejects that batch's span, which is undone, and
# the per-write loop serves the rest of the batch.

_TWL_PAGES = 16
_TWL_DEMAND = 40_000


def _twl_controller(scheme):
    return {
        "remap": scheme.remap.mapping_array().tolist(),
        "partners": scheme.pair_table.partners_array().tolist(),
        "counters": scheme.write_counters.values_array().tolist(),
        "toss_up": scheme.toss_up.snapshot(),
        "victim_rng": scheme._victim_rng.state,
    }


def _run_twl(
    config, attack_name, n_targets, endurance, batch_size,
    n_pages=_TWL_PAGES, max_demand=_TWL_DEMAND,
):
    rng = np.random.default_rng(9)
    array = PCMArray(rng.integers(endurance, 3 * endurance, size=n_pages))
    scheme = TossUpWearLeveling(array, config, seed=3)
    attack = make_attack(attack_name, n_targets, seed=3)
    result = run_to_failure(
        scheme,
        AttackDriver(attack),
        max_demand=max_demand,
        require_failure=False,
        batch_size=batch_size,
    )
    return result, array.write_counts(), scheme.stats(), _twl_controller(scheme)


@given(
    config=st.builds(
        TWLConfig,
        toss_up_interval=st.sampled_from([1, 2, 8, 32, 120]),
        inter_pair_swap_interval=st.sampled_from([1, 7, 64, 128, 1000]),
        pairing=st.sampled_from(["swp", "ap", "random"]),
        maintain_physical_pairs=st.booleans(),
        toss_on_relocation=st.booleans(),
    ),
    attack_name=st.sampled_from(["repeat", "scan", "random"]),
    n_targets=st.integers(1, _TWL_PAGES),
    batch_size=st.sampled_from([37, 127, 128, 4096]),
    endurance=st.sampled_from([10**9, 1000]),
)
@settings(max_examples=40, deadline=None)
def test_twl_same_pair_windows_identical_to_serial(
    config, attack_name, n_targets, batch_size, endurance
):
    """A generated TWL config under an attack over few pages equals the
    ``batch_size=1`` oracle: result, wear, stats and the whole
    controller state (RT, SWPT, write counters, both RNGs)."""
    oracle = _run_twl(config, attack_name, n_targets, endurance, 1)
    batched = _run_twl(config, attack_name, n_targets, endurance, batch_size)
    assert oracle[0].failed == (endurance < 10**9)
    assert batched[0] == oracle[0]
    assert np.array_equal(batched[1], oracle[1])
    assert batched[2] == oracle[2]
    assert batched[3] == oracle[3]


# --- generated TWL bulk spans ----------------------------------------
#
# Far from failure TWL serves a whole batch as one bulk span, with the
# inter-pair boundaries as events of its ordered walk.  An odd page
# count leaves one page self-paired (a role inter-pair swaps move around
# under maintain_physical_pairs), and attacks over few pages make one
# batch draw the same victim twice and make a page the written page of
# one boundary and the victim of another, so re-phased counters and
# stale trigger entries meet in one walk.

_SPAN_PAGES = 15
_SPAN_DEMAND = 12_000


@given(
    config=st.builds(
        TWLConfig,
        toss_up_interval=st.sampled_from([1, 2, 32, 120]),
        inter_pair_swap_interval=st.sampled_from([1, 2, 7, 128]),
        pairing=st.sampled_from(["swp", "ap", "random"]),
        maintain_physical_pairs=st.booleans(),
        toss_on_relocation=st.booleans(),
    ),
    attack_name=st.sampled_from(["repeat", "scan", "random"]),
    n_targets=st.integers(1, 6),
    batch_size=st.sampled_from([37, 129, 4096]),
)
@settings(max_examples=40, deadline=None)
def test_twl_bulk_spans_identical_to_serial(config, attack_name, n_targets, batch_size):
    """A generated TWL config far from failure equals the ``batch_size=1``
    oracle: result, wear, stats and the whole controller state."""
    oracle = _run_twl(config, attack_name, n_targets, 10**9, 1, _SPAN_PAGES, _SPAN_DEMAND)
    batched = _run_twl(
        config, attack_name, n_targets, 10**9, batch_size, _SPAN_PAGES, _SPAN_DEMAND
    )
    assert batched[0] == oracle[0]
    assert np.array_equal(batched[1], oracle[1])
    assert batched[2] == oracle[2]
    assert batched[3] == oracle[3]


# --- adaptive attacks -----------------------------------------------
#
# An adaptive attack steers on response times, but between two course
# changes its addresses are a fixed slice of its pass: the engine serves
# it in segments that end at the first write its detector would flag.
# The reference is the attack's own scalar feedback loop, which no
# engine path shares.

_ADAPTIVE_PAGES = 128
_ADAPTIVE_DEMAND = 50_000
_WRITE_CYCLES = float(TimingConfig().write_cycles)


def _feedback_loop(scheme, attack, max_demand):
    """Serve one write at a time, feeding each response time back before
    the next address is chosen."""
    served = 0
    while served < max_demand and not scheme.array.failed:
        physical_writes = scheme.write(attack.next_write())
        attack.observe_response(_WRITE_CYCLES * physical_writes)
        served += 1
    return served


def _adaptive_engine(batch_size, **kwargs):
    array = PCMArray.uniform(_N_PAGES, _ENDURANCE)
    scheme = make_scheme("twl", array, seed=11)
    attack = make_attack("inconsistent", scheme.logical_pages, seed=11)
    return SimulationEngine(scheme, AttackDriver(attack), batch_size=batch_size, **kwargs)


def _adaptive_parts(scheme_name, endurance, attack_kwargs, detector_kwargs, primed):
    """``primed`` > 0 starts the detector past warmup with a baseline of
    that many write latencies, which the first plain write lowers."""
    array = PCMArray.uniform(_ADAPTIVE_PAGES, endurance)
    scheme = make_scheme(scheme_name, array, seed=5)
    detector = SwapDetector(**detector_kwargs)
    if primed:
        detector.restore(
            {"baseline": primed * _WRITE_CYCLES, "detections": 0, "samples": detector.warmup}
        )
    attack = InconsistentWriteAttack(
        scheme.logical_pages, detector=detector, **attack_kwargs
    )
    return scheme, attack


def _adaptive_state(scheme, attack, served):
    snapshot = attack.snapshot()
    snapshot["attack"]["pass_schedule"] = snapshot["attack"]["pass_schedule"].tolist()
    return {
        "served": served,
        "wear": scheme.array.write_counts().tolist(),
        "first_failure": scheme.array.first_failure,
        "stats": scheme.stats(),
        "reversals": attack.reversals,
        "detections": attack.detector.detections,
        "attack": snapshot,
    }


# The attack targets logical pages, and a scheme that keeps spares
# (retire) exposes fewer than the array has.
_ADAPTIVE_LOGICAL_PAGES = {
    name: make_scheme(name, PCMArray.uniform(_ADAPTIVE_PAGES, 100), seed=5).logical_pages
    for name in scheme_names()
}


@st.composite
def _attack_kwargs(draw, logical_pages):
    n_targets = draw(st.integers(1, min(_ADAPTIVE_PAGES - 1, logical_pages)))
    return {
        "n_targets": n_targets,
        "victim_count": draw(st.integers(1, n_targets)),
        "patience": draw(st.one_of(st.integers(1, 8), st.integers(9, 5000))),
        "background_scan": draw(st.booleans()),
    }


@given(
    scheme_name=st.sampled_from(scheme_names()),
    batch_size=st.sampled_from([1, 2, 37, 4096]),
    endurance=st.sampled_from([100, 200]),
    data=st.data(),
    detector_kwargs=st.fixed_dictionaries(
        {
            "threshold_factor": st.one_of(
                st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.001, 5.0)
            ),
            "warmup": st.integers(1, 64),
        }
    ),
    primed=st.sampled_from([0, 0, 2, 3]),
)
@settings(max_examples=100, deadline=None)
def test_adaptive_segments_equal_the_feedback_loop(
    scheme_name, batch_size, endurance, data, detector_kwargs, primed
):
    """Run to failure, the engine's segments at any batch size equal the
    per-write feedback loop: wear, first failure, swap counters,
    reversals, detections and the attack's whole state.  Every served
    request costs at least one physical write."""
    attack_kwargs = data.draw(
        _attack_kwargs(_ADAPTIVE_LOGICAL_PAGES[scheme_name]), label="attack_kwargs"
    )
    parts = (scheme_name, endurance, attack_kwargs, detector_kwargs, primed)
    scheme, attack = _adaptive_parts(*parts)
    served = _feedback_loop(scheme, attack, _ADAPTIVE_DEMAND)
    expected = _adaptive_state(scheme, attack, served)

    scheme, attack = _adaptive_parts(*parts)
    driver = AttackDriver(attack)
    served_counts = []
    observe = driver.observe_batch

    def recording(counts):
        served_counts.append(counts.copy())
        observe(counts)

    driver.observe_batch = recording
    engine = SimulationEngine(scheme, driver, batch_size=batch_size)
    served = engine.drive(_ADAPTIVE_DEMAND)
    assert _adaptive_state(scheme, attack, served) == expected
    assert all(counts.size and counts.min() >= 1 for counts in served_counts)


@pytest.mark.parametrize("scheme_name", ["sr", "bwl", "twl", "wrl", "startgap"])
def test_adaptive_stops_inside_the_scheme(scheme_name):
    """Segments that the scheme's own ``write_batch`` stops equal the
    feedback loop, and no stop-bounded batch falls back to the scalar
    ``write``.  The endurance is large, so the run is long enough for a
    wrong stop to show: a write that SR's pre-drawn trigger words or
    TWL's toss-up words run past (SR rewinds its trigger RNG, TWL cuts
    its bulk span after the swap) shifts every later refresh, toss-up,
    swap phase or gap move.  WRL swaps once per 5632-write phase cycle,
    so its run is longer."""
    batch_size = 4096
    demand = 150_000 if scheme_name == "wrl" else 20_000
    parts = (scheme_name, 10**9, {"n_targets": 16}, {}, 0)
    scheme, attack = _adaptive_parts(*parts)
    served = _feedback_loop(scheme, attack, demand)
    expected = _adaptive_state(scheme, attack, served)

    scheme, attack = _adaptive_parts(*parts)
    stops = []
    scalar_writes = []
    write_batch = scheme.write_batch
    write = scheme.write

    def counting(logical):
        scalar_writes.append(logical)
        return write(logical)

    def recording(addresses, stop_at=None):
        scheme.write = counting if stop_at is not None else write
        counts = write_batch(addresses, stop_at)
        scheme.write = write
        if counts.size < len(addresses):
            stops.append(int(counts[-1]))
        return counts

    scheme.write_batch = recording
    engine = SimulationEngine(scheme, AttackDriver(attack), batch_size=batch_size)
    served = engine.drive(demand)
    assert _adaptive_state(scheme, attack, served) == expected
    assert engine.batches > math.ceil(served / batch_size)
    assert scalar_writes == []
    assert len(stops) > 20
    assert min(stops) >= attack.detector.segment(_WRITE_CYCLES)[1]


def test_adaptive_steps_are_segments(monkeypatch):
    """A batched adaptive run takes the scheme's own ``write_batch``
    with the detector's stop count and equals the per-write oracle; an
    engine step ends at every flip."""
    engine = _adaptive_engine(4096)
    stops = set()
    write_batch = engine.scheme.write_batch

    def recording(addresses, stop_at=None):
        stops.add(stop_at)
        return write_batch(addresses, stop_at)

    monkeypatch.setattr(engine.scheme, "write_batch", recording)
    oracle = _adaptive_engine(1)
    assert engine.drive(5500) == oracle.drive(5500) == 5500
    assert np.array_equal(
        engine.scheme.array.write_counts(), oracle.scheme.array.write_counts()
    )
    attack = engine.driver.attack
    assert stops == {None, attack.detector.segment(_WRITE_CYCLES)[1]}
    assert engine.batches > attack.reversals > 0


def test_adaptive_next_batch_plans_without_committing():
    """``next_batch`` hands over a segment; only ``observe_batch``
    commits the served prefix, and only up to the flip."""
    attack = make_attack("inconsistent", _N_PAGES, seed=11)
    reference = make_attack("inconsistent", _N_PAGES, seed=11)
    driver = AttackDriver(attack)
    planned = driver.next_batch(64)
    assert driver.stop_at is None  # the detector is still warming up
    assert planned.size == attack.detector.warmup
    assert np.array_equal(driver.next_batch(64), planned)
    assert attack.writes_emitted == 0
    driver.observe_batch(np.ones(3, dtype=np.int64))
    assert planned[:3].tolist() == [reference.next_write() for _ in range(3)]
    assert attack.writes_emitted == 3
    with pytest.raises(ValueError, match="positive"):
        driver.observe_batch(np.zeros(1, dtype=np.int64))


def test_responses_past_a_flip_are_rejected():
    attack = make_attack("inconsistent", _N_PAGES, seed=11)
    attack.planned_writes(attack.detector.warmup + 2)
    latencies = np.full(attack.detector.warmup + 2, _WRITE_CYCLES)
    latencies[-2] *= 4  # flagged, but not the last response
    with pytest.raises(SimulationError, match="overran the segment"):
        attack.observe_responses(latencies)


@given(
    scheme_name=st.sampled_from(scheme_names()),
    batch_size=st.sampled_from([2, 64, 4096]),
    rate=st.sampled_from([0.0, 2e-4]),
)
@settings(max_examples=10, deadline=None)
def test_adaptive_attack_identical_at_any_batch_size(scheme_name, batch_size, rate):
    """The inconsistent attack under any scheme, batch size and
    soft-error rate, with the invariant checker attached, equals the
    ``batch_size=1`` oracle (parity repair keeps faulted runs
    consistent, so the checker passes)."""

    def run(size):
        checker = InvariantCheckObserver(every=3)
        state = _run_attack(
            scheme_name,
            "inconsistent",
            size,
            soft_errors=SoftErrorConfig(rate=rate, seed=11, protection="parity"),
            observers=[checker],
        )
        assert checker.checks > 0
        return state

    oracle, oracle_counts, oracle_stats = run(1)
    batched, batched_counts, batched_stats = run(batch_size)
    assert batched == oracle
    assert np.array_equal(batched_counts, oracle_counts)
    assert batched_stats == oracle_stats
