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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.registry import attack_names, make_attack
from repro.config import BWLConfig, SoftErrorConfig
from repro.engine import PER_WRITE_STEP, InvariantCheckObserver, SimulationEngine
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


# --- feedback-bound drivers -----------------------------------------
#
# An adaptive attack picks each address from the previous write's
# response time, so it has no batch to plan ahead: the engine serves it
# through the per-write loop at every batch size.


def _adaptive_engine(batch_size, **kwargs):
    array = PCMArray.uniform(_N_PAGES, _ENDURANCE)
    scheme = make_scheme("twl", array, seed=11)
    attack = make_attack("inconsistent", scheme.logical_pages, seed=11)
    return SimulationEngine(scheme, AttackDriver(attack), batch_size=batch_size, **kwargs)


def test_adaptive_driver_never_reaches_the_batched_protocol(monkeypatch):
    engine = _adaptive_engine(4096)
    assert engine.driver.adaptive

    def unreachable(*_args):
        raise AssertionError("adaptive driver entered the batched protocol")

    monkeypatch.setattr(engine.driver, "next_batch", unreachable)
    monkeypatch.setattr(engine.scheme, "write_batch", unreachable)
    oracle = _adaptive_engine(1)
    assert engine.drive(5500) == oracle.drive(5500) == 5500
    assert engine.batches == oracle.batches == -(-5500 // PER_WRITE_STEP)
    assert np.array_equal(
        engine.scheme.array.write_counts(), oracle.scheme.array.write_counts()
    )


def test_adaptive_next_batch_raises():
    driver = AttackDriver(make_attack("inconsistent", _N_PAGES, seed=11))
    with pytest.raises(SimulationError, match="per-write feedback"):
        driver.next_batch(64)
    assert not AttackDriver(make_attack("scan", _N_PAGES, seed=11)).adaptive


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
