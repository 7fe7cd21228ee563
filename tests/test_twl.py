"""Tests for the full Toss-up Wear Leveling engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TWLConfig
from repro.core.pairing import build_pair_table
from repro.core.twl import TossUpWearLeveling
from repro.errors import ConfigError
from repro.pcm.array import PCMArray
from repro.tables.pair_table import PairTable


def _make(endurance, **config_overrides):
    array = PCMArray(np.asarray(endurance))
    defaults = dict(toss_up_interval=1, inter_pair_swap_interval=10**6)
    defaults.update(config_overrides)
    scheme = TossUpWearLeveling(array, config=TWLConfig(**defaults), seed=1)
    return array, scheme


class TestPairing:
    def test_swp_builder(self):
        table = build_pair_table(np.array([5, 1, 9, 3]), "swp")
        assert table.partner(1) == 2  # weakest with strongest

    def test_ap_builder(self):
        table = build_pair_table(np.array([5, 1, 9, 3]), "ap")
        assert table.partner(0) == 1

    def test_random_builder_deterministic(self):
        a = build_pair_table(np.arange(1, 17), "random", seed=4)
        b = build_pair_table(np.arange(1, 17), "random", seed=4)
        assert [a.partner(i) for i in range(16)] == [b.partner(i) for i in range(16)]

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            build_pair_table(np.array([1, 2]), "bogus")

    def test_explicit_pair_table_size_checked(self):
        array = PCMArray.uniform(4, 100)
        with pytest.raises(ValueError):
            TossUpWearLeveling(array, pair_table=PairTable.adjacent(8))


class TestWriteFlow:
    def test_direct_write_costs_one(self):
        array, scheme = _make([1000, 1000], toss_up_interval=32)
        assert scheme.write(0) == 1
        assert array.total_writes == 1

    def test_toss_up_triggers_at_interval(self):
        array, scheme = _make([1000, 1000], toss_up_interval=4)
        for _ in range(3):
            scheme.write(0)
        assert scheme.toss_up_activations == 0
        scheme.write(0)
        assert scheme.toss_up_activations == 1

    def test_swap_exchanges_remapping(self):
        # With an extreme endurance ratio the first toss from the weak
        # frame will move the page to the strong one.
        array, scheme = _make([10**6, 1])
        original = scheme.translate(1)
        for _ in range(20):
            scheme.write(1)
        assert scheme.translate(1) == 0  # parked on the strong frame
        assert scheme.translate(0) == original or scheme.translate(0) == 1

    def test_swap_costs_two_writes(self):
        array, scheme = _make([10**6, 1])
        writes = scheme.write(1)  # toss: almost surely chooses frame 0
        assert writes == 2
        assert array.page_writes(0) == 1
        assert array.page_writes(1) == 1

    def test_self_paired_page_never_tosses(self):
        array, scheme = _make([100, 200, 300])  # odd count: median self-paired
        median_la = next(
            la for la in range(3) if scheme.pair_table.partner(la) == la
        )
        for _ in range(10):
            scheme.write(median_la)
        assert scheme.swap_judge.swapped == 0

    def test_mapping_bijective_under_load(self):
        endurance = np.arange(1, 17) * 100
        array, scheme = _make(endurance, toss_up_interval=2, inter_pair_swap_interval=16)
        for step in range(2000):
            scheme.write(step % 16)
        scheme.remap.validate()

    def test_wear_accounting_consistent(self):
        array, scheme = _make(np.full(16, 10**6), toss_up_interval=2,
                              inter_pair_swap_interval=32)
        for step in range(1000):
            scheme.write(step % 16)
        assert array.total_writes == scheme.demand_writes + scheme.swap_writes


class TestEnduranceProportionality:
    def test_repeat_writes_split_by_endurance(self):
        array, scheme = _make([3000, 1000])
        for _ in range(4000):
            scheme.write(0)
            if array.failed:
                break
        wear = array.write_counts()
        # Direct writes split ~3:1 plus symmetric swap writes.
        assert wear[0] > wear[1] * 1.5

    def test_remaining_endurance_mode(self):
        array, scheme = _make([2000, 2000], use_remaining_endurance=True)
        # Pre-wear frame 0 heavily through direct array writes.
        array.apply_batch([0] * 1500)
        for _ in range(500):
            scheme.write(0)
        wear = array.write_counts()
        # Remaining-endurance toss-up must steer new wear to frame 1.
        assert wear[1] > 250


class TestInterPairSwap:
    def test_inter_pair_swap_occurs(self):
        endurance = np.full(8, 10**6)
        array, scheme = _make(endurance, toss_up_interval=64,
                              inter_pair_swap_interval=4)
        for _ in range(40):
            scheme.write(0)
        assert scheme.inter_pair_swaps >= 9

    def test_inter_pair_swap_costs_two(self):
        endurance = np.full(8, 10**6)
        array, scheme = _make(endurance, toss_up_interval=64,
                              inter_pair_swap_interval=2)
        scheme.write(0)
        writes = scheme.write(0)  # second write fires the inter-pair swap
        assert writes == 3  # 2 migration + 1 demand

    def test_repeat_traffic_spreads_across_pairs(self):
        endurance = np.full(64, 10**6)
        array, scheme = _make(endurance, toss_up_interval=64,
                              inter_pair_swap_interval=8)
        for _ in range(5000):
            scheme.write(0)
        touched = int((array.write_counts() > 0).sum())
        assert touched > 32

    def test_physical_pairs_maintained(self):
        endurance = np.arange(1, 17) * 100
        array, scheme = _make(
            endurance,
            toss_up_interval=2,
            inter_pair_swap_interval=4,
            maintain_physical_pairs=True,
        )
        initial_frame_pairs = {
            frozenset((scheme.remap.lookup(la), scheme.remap.lookup(scheme.pair_table.partner(la))))
            for la in range(16)
        }
        for step in range(500):
            scheme.write(step % 16)
        current = {
            frozenset((scheme.remap.lookup(la), scheme.remap.lookup(scheme.pair_table.partner(la))))
            for la in range(16)
        }
        assert current == initial_frame_pairs

    def test_stats_exposed(self):
        array, scheme = _make([100, 200])
        scheme.write(0)
        stats = scheme.stats()
        for key in ("toss_up_activations", "toss_up_swaps", "inter_pair_swaps"):
            assert key in stats


def _twl_state(scheme):
    """Everything a stop-bounded batch may move, scheme and array."""
    toss, judge = scheme.toss_up, scheme.swap_judge
    return {
        "writes": scheme.array.writes.tolist(),
        "remap": scheme.remap.mapping_array().tolist(),
        "partners": scheme.pair_table.partners_array().tolist(),
        "counters": scheme.write_counters.values_array().tolist(),
        "toss_rng": toss.rng.snapshot(),
        "toss": (toss.decisions, toss.chose_a),
        "judge": (judge.direct, judge.swapped),
        "victim_rng": scheme._victim_rng.state,
        "interpair_counter": scheme._interpair_counter,
        "stats": scheme.stats(),
    }


class TestStopBoundedBatch:
    """A stop-bounded ``write_batch`` ends where the per-write loop does.

    A toss-up swap costs two writes and an inter-pair boundary write
    three or four, so a bulk span must end right after its first swap
    when the stop is 2, without drawing the next event's toss-up word.
    Addresses cover 16 pages of a 32-page array, so both pages of many
    pairs land in one span.
    """

    CONFIGS = {
        "dense": TWLConfig(),
        "sparse": TWLConfig(toss_up_interval=120, inter_pair_swap_interval=4096),
        "unmaintained": TWLConfig(
            toss_up_interval=8,
            inter_pair_swap_interval=64,
            maintain_physical_pairs=False,
        ),
        "no_relocation_toss": TWLConfig(
            toss_up_interval=4, inter_pair_swap_interval=50, toss_on_relocation=False
        ),
        "remaining": TWLConfig(
            toss_up_interval=2, inter_pair_swap_interval=40, use_remaining_endurance=True
        ),
    }

    @staticmethod
    def _scheme(config):
        endurance = np.random.default_rng(3).integers(10**6, 4 * 10**6, size=32)
        return TossUpWearLeveling(PCMArray(endurance), config=config, seed=7)

    @pytest.mark.parametrize("stop_at", [1, 2, 3, 4])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_matches_the_per_write_loop(self, config, stop_at):
        from repro.wearlevel.base import WearLeveler

        addresses = np.random.default_rng(5).integers(0, 16, size=12_000)
        batched = self._scheme(self.CONFIGS[config])
        serial = self._scheme(self.CONFIGS[config])
        stop_counts = []
        start = 0
        while start < addresses.size:
            chunk = addresses[start : start + 300]
            counts = batched.write_batch(chunk, stop_at)
            expected = WearLeveler.write_batch(serial, chunk, stop_at)
            assert counts.tolist() == expected.tolist()
            assert _twl_state(batched) == _twl_state(serial)
            if counts.size < chunk.size:
                stop_counts.append(int(counts[-1]))
            start += counts.size
        assert all(count >= stop_at for count in stop_counts)
        if stop_at == 2:
            # Stops land at toss-up swaps (two writes) and at inter-pair
            # boundary writes (three or four).
            assert stop_counts.count(2) > 10
            assert any(count >= 3 for count in stop_counts)
        if stop_at == 3:
            assert len(stop_counts) >= 2


class TestBulkSpan:
    """Far from failure a batch is one bulk span, boundaries included.

    The inter-pair boundary writes are events of the span's ordered walk
    beside the toss-ups: a boundary draws its victim, exchanges the
    frames and the pair roles, and re-phases both pages' write counters,
    so later triggers of either page move.  15 pages leave one page
    self-paired, and a few written pages make one batch draw the same
    victim twice and make a page the written page of one boundary and
    the victim of another.
    """

    CONFIGS = {
        "dense": TWLConfig(),
        "tight": TWLConfig(toss_up_interval=2, inter_pair_swap_interval=7),
        "every_write": TWLConfig(toss_up_interval=1, inter_pair_swap_interval=1),
        "unmaintained": TWLConfig(
            toss_up_interval=32, inter_pair_swap_interval=2, maintain_physical_pairs=False
        ),
        "no_relocation_toss": TWLConfig(
            toss_up_interval=120, inter_pair_swap_interval=7, toss_on_relocation=False
        ),
    }

    @staticmethod
    def _scheme(config, n_pages=15):
        endurance = np.random.default_rng(4).integers(10**9, 3 * 10**9, size=n_pages)
        return TossUpWearLeveling(PCMArray(endurance), config=config, seed=5)

    def test_dense_batch_is_one_apply_and_no_scalar_write(self, monkeypatch):
        from repro.wearlevel.base import WearLeveler

        addresses = np.arange(4096) % 1024
        batched = self._scheme(TWLConfig(), n_pages=1024)
        serial = self._scheme(TWLConfig(), n_pages=1024)
        applies, writes = [], []
        real_apply = batched.array.apply_batch
        monkeypatch.setattr(
            batched.array,
            "apply_batch",
            lambda physical: applies.append(len(physical)) or real_apply(physical),
        )
        monkeypatch.setattr(batched, "write", lambda logical: writes.append(logical))
        counts = batched.write_batch(addresses)
        assert len(applies) == 1 and writes == []
        # 32 boundaries, 128 toss-ups: every kind of event was in the pass.
        assert batched.inter_pair_swaps == 4096 // 128
        assert batched.swap_judge.swapped > 0
        assert applies[0] == int(counts.sum())
        assert counts.tolist() == WearLeveler.write_batch(serial, addresses).tolist()
        assert _twl_state(batched) == _twl_state(serial)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_victims_repeat_and_swap_roles_within_one_batch(self, config, monkeypatch):
        from repro.wearlevel.base import WearLeveler

        addresses = np.random.default_rng(6).integers(0, 4, size=4096)
        batched = self._scheme(self.CONFIGS[config])
        serial = self._scheme(self.CONFIGS[config])
        draws = []
        real_draw = batched._victim_rng.next_below
        monkeypatch.setattr(
            batched._victim_rng,
            "next_below",
            lambda bound: draws.append(real_draw(bound)) or draws[-1],
        )
        counts = batched.write_batch(addresses)
        assert counts.tolist() == WearLeveler.write_batch(serial, addresses).tolist()
        assert _twl_state(batched) == _twl_state(serial)
        interval = self.CONFIGS[config].inter_pair_swap_interval
        written = addresses[interval - 1 :: interval].tolist()
        victims = [
            (draw + 1) % 15 if draw == page else draw for draw, page in zip(draws, written)
        ]
        assert len(victims) == len(written) == batched.inter_pair_swaps >= 32
        # Some victim is drawn twice, and some page is the victim of one
        # boundary and the written page of another.
        assert len(set(victims)) < len(victims)
        assert set(victims) & set(written)

    @pytest.mark.parametrize("stop_at", [2, 3, 4])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_stop_bounded_matches_the_per_write_loop(self, config, stop_at):
        from repro.wearlevel.base import WearLeveler

        addresses = np.random.default_rng(7).integers(0, 15, size=6000)
        batched = self._scheme(self.CONFIGS[config])
        serial = self._scheme(self.CONFIGS[config])
        stops = 0
        start = 0
        while start < addresses.size:
            chunk = addresses[start : start + 300]
            counts = batched.write_batch(chunk, stop_at)
            expected = WearLeveler.write_batch(serial, chunk, stop_at)
            assert counts.tolist() == expected.tolist()
            assert _twl_state(batched) == _twl_state(serial)
            stops += counts.size < chunk.size
            start += counts.size
        assert stops >= 2


def _plain(tree):
    """A state tree with its arrays as lists, comparable with ``==``."""
    if isinstance(tree, dict):
        return {key: _plain(value) for key, value in tree.items()}
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    return tree


def _full_state(scheme):
    """The scheme's snapshot (RT both ways, SWPT, WCT, both RNG registers,
    toss-up, judge and inter-pair counters) plus the array's wear."""
    return _plain({"scheme": scheme.snapshot(), "array": scheme.array.snapshot()})


class TestGuardedSpan:
    """A span is planned in full and committed only if no frame wears out.

    The walk mutates the RT, the SWPT and both RNG registers before the
    span's counts are known; one bincount then decides.  A rejected span
    is undone and the rest of its batch goes to the per-write loop, so
    every batch but the one holding the first failure is a single span,
    at any endurance.
    """

    CONFIGS = {
        "dense": TWLConfig(),
        "every_write": TWLConfig(toss_up_interval=1, inter_pair_swap_interval=1),
        "no_relocation_toss": TWLConfig(
            toss_up_interval=4, inter_pair_swap_interval=7, toss_on_relocation=False
        ),
        "unmaintained": TWLConfig(
            toss_up_interval=8, inter_pair_swap_interval=5, maintain_physical_pairs=False
        ),
    }

    @staticmethod
    def _scheme(config, n_pages=15, low=1500, high=4500):
        endurance = np.random.default_rng(4).integers(low, high, size=n_pages)
        return TossUpWearLeveling(PCMArray(endurance), config=config, seed=5)

    def test_every_batch_before_the_failing_one_is_one_span(self, monkeypatch):
        from repro.wearlevel.base import WearLeveler

        batched = self._scheme(TWLConfig(), n_pages=64, low=2048, high=4096)
        serial = self._scheme(TWLConfig(), n_pages=64, low=2048, high=4096)
        spans, writes = [], []
        real_span, real_write = batched._serve_span, batched.write
        monkeypatch.setattr(
            batched,
            "_serve_span",
            lambda *args: spans.append(real_span(*args)) or spans[-1],
        )
        monkeypatch.setattr(
            batched, "write", lambda logical: writes.append(logical) or real_write(logical)
        )
        rng = np.random.default_rng(8)
        batches = 0
        while not batched.array.failed:
            chunk = rng.integers(0, 64, size=4096)
            spans.clear()
            counts = batched.write_batch(chunk)
            expected = WearLeveler.write_batch(serial, chunk)
            assert counts.tolist() == expected.tolist()
            batches += 1
            if not batched.array.failed:
                assert spans == [4096] and writes == []
        # The failing batch: one rejected span, then the per-write loop
        # up to the failing write.
        assert batches > 20
        assert spans == [0] and len(writes) == counts.size
        assert batched.array.first_failure == serial.array.first_failure
        assert _full_state(batched) == _full_state(serial)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_rejected_span_leaves_the_state_as_it_was(self, config):
        addresses = np.random.default_rng(9).integers(0, 4, size=4001)
        scheme = self._scheme(self.CONFIGS[config])
        scheme.write_batch(addresses[:1000])  # tables and RNGs off their start
        # The same scheme on an unworn array accepts the span.
        fresh = self._scheme(self.CONFIGS[config])
        fresh.restore(scheme.snapshot())
        # Every frame three writes short of its endurance.
        array = scheme.array
        array.apply_batch(np.repeat(np.arange(15), array.endurance - array.writes - 3))
        before = _full_state(scheme)
        out = np.ones(addresses.size, dtype=np.int64)
        assert scheme._serve_span(addresses, out, 0, 0) == 0
        assert _full_state(scheme) == before
        # The walk moved every structure the undo restores, so the
        # equality above is not vacuous.
        untouched = _full_state(fresh)["scheme"]["scheme"]
        assert fresh._serve_span(addresses, out, 0, 0) == addresses.size
        moved = _full_state(fresh)["scheme"]["scheme"]
        changed = {key for key in moved if moved[key] != untouched[key]}
        assert {"remap", "toss_up", "victim_rng", "swap_judge", "inter_pair_swaps"} <= changed
        if self.CONFIGS[config].maintain_physical_pairs:
            assert "pair_table" in changed

    WALK_CONFIGS = dict(
        CONFIGS,
        remaining=TWLConfig(
            toss_up_interval=2, inter_pair_swap_interval=5, use_remaining_endurance=True
        ),
    )

    @pytest.mark.parametrize("config", sorted(WALK_CONFIGS))
    def test_rejected_walk_leaves_the_state_as_it_was(self, config):
        """The short walk shares the guard and the undo log."""
        addresses = np.random.default_rng(9).integers(0, 4, size=4001)
        scheme = self._scheme(self.WALK_CONFIGS[config])
        scheme.write_batch(addresses[:1000])  # tables and RNGs off their start
        fresh = self._scheme(self.WALK_CONFIGS[config])
        fresh.restore(scheme.snapshot())
        array = scheme.array
        array.apply_batch(np.repeat(np.arange(15), array.endurance - array.writes - 3))
        before = _full_state(scheme)
        out = np.ones(addresses.size, dtype=np.int64)
        assert scheme._walk_span(addresses, out, 0, 0) == 0
        assert _full_state(scheme) == before
        untouched = _full_state(fresh)["scheme"]["scheme"]
        assert fresh._walk_span(addresses, out, 0, 0) == addresses.size
        moved = _full_state(fresh)["scheme"]["scheme"]
        changed = {key for key in moved if moved[key] != untouched[key]}
        assert {"remap", "toss_up", "victim_rng", "swap_judge", "inter_pair_swaps"} <= changed
        if self.WALK_CONFIGS[config].maintain_physical_pairs:
            assert "pair_table" in changed
        if self.WALK_CONFIGS[config].toss_up_interval > 1:
            assert "write_counters" in changed

    @pytest.mark.parametrize("batch", [37, 4096])
    @pytest.mark.parametrize("stop_at", [None, 2, 3])
    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_run_to_failure_equals_the_per_write_loop(self, config, stop_at, batch):
        from repro.wearlevel.base import WearLeveler

        addresses = np.random.default_rng(10).integers(0, 15, size=200_000)
        batched = self._scheme(self.CONFIGS[config])
        serial = self._scheme(self.CONFIGS[config])
        start = 0
        while not batched.array.failed:
            assert start < addresses.size
            chunk = addresses[start : start + batch]
            counts = batched.write_batch(chunk, stop_at)
            expected = WearLeveler.write_batch(serial, chunk, stop_at)
            assert counts.tolist() == expected.tolist()
            start += counts.size
        assert serial.array.failed
        assert batched.array.first_failure == serial.array.first_failure
        assert _full_state(batched) == _full_state(serial)


class TestShortWalk:
    """Spans with a stop of at most 4 (a stop of 1 ends at the first
    request), and every span under ``use_remaining_endurance``, are
    walked request by request only as far as the stop; a higher stop or
    none takes the event walk.  The short walk follows ``record_write``'s
    wrap, so it also serves a batch that starts with a counter poked at
    or above the interval, up to the next boundary.  Its writes are
    committed as one sparse ``apply_write_counts`` tally, and the
    per-write loop serves only the rest of a batch whose commit the
    guard rejected."""

    @given(
        config=st.builds(
            TWLConfig,
            toss_up_interval=st.sampled_from([1, 2, 32, 120]),
            inter_pair_swap_interval=st.sampled_from([1, 2, 7, 128, 300]),
            maintain_physical_pairs=st.booleans(),
            toss_on_relocation=st.booleans(),
            use_remaining_endurance=st.booleans(),
        ),
        stop_at=st.sampled_from([None, 1, 2, 3, 4, 5]),
        chunk=st.sampled_from([37, 129, 300]),
        n_targets=st.integers(1, 6),
        poke=st.one_of(st.none(), st.tuples(st.integers(0, 5), st.integers(0, 3))),
        endurance=st.sampled_from([10**9, 400]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_write_loop(
        self, config, stop_at, chunk, n_targets, poke, endurance, seed
    ):
        from repro.wearlevel.base import WearLeveler

        def scheme():
            wear = np.random.default_rng(4).integers(endurance, 3 * endurance, size=15)
            built = TossUpWearLeveling(PCMArray(wear), config=config, seed=5)
            if poke is not None:
                page, extra = poke
                built.write_counters.poke(page, config.toss_up_interval + extra)
            return built

        batched, serial = scheme(), scheme()
        addresses = np.random.default_rng(seed).integers(0, n_targets, size=3000)
        start = 0
        while start < addresses.size and not batched.array.failed:
            part = addresses[start : start + chunk]
            counts = batched.write_batch(part, stop_at)
            assert counts.tolist() == WearLeveler.write_batch(serial, part, stop_at).tolist()
            start += counts.size
        assert batched.array.first_failure == serial.array.first_failure
        assert _full_state(batched) == _full_state(serial)

    def test_adaptive_steps_are_one_walk_and_one_apply(self, monkeypatch):
        """At batch 4096, each stop-bounded step of an ``inconsistent``
        run is one short walk and one sparse ``apply_write_counts``
        commit: no planning pass (``_group``), no ``apply_batch`` and no
        per-write ``write()``."""
        import repro.core.twl as twl_module
        from repro.attacks.registry import make_attack
        from repro.engine import SimulationEngine
        from repro.sim.drivers import AttackDriver

        endurance = np.random.default_rng(4).integers(10**9, 2 * 10**9, size=1024)
        scheme = TossUpWearLeveling(PCMArray(endurance), config=TWLConfig(), seed=5)
        calls = []
        for target, name in (
            (twl_module, "_group"),
            (scheme, "_walk_span"),
            (scheme.array, "apply_batch"),
            (scheme.array, "apply_write_counts"),
            (scheme, "write"),
        ):
            real = getattr(target, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(target, name, spy)
        steps = []
        write_batch = scheme.write_batch

        def step(addresses, stop_at=None):
            calls.clear()
            counts = write_batch(addresses, stop_at)
            steps.append((stop_at, sorted(calls)))
            return counts

        monkeypatch.setattr(scheme, "write_batch", step)
        attack = make_attack("inconsistent", 1024, seed=5)
        engine = SimulationEngine(scheme, AttackDriver(attack), batch_size=4096)
        assert engine.drive(5000) == 5000
        stopped = [made for stop_at, made in steps if stop_at is not None]
        assert len(stopped) > 50 and len(stopped) == len(steps) - 1
        assert all(made == ["_walk_span", "apply_write_counts"] for made in stopped)
        assert scheme.swap_judge.swapped > 0 and scheme.inter_pair_swaps > 0

    @pytest.mark.parametrize("poke", [False, True])
    @pytest.mark.parametrize("stop_at", [None, 1, 2, 5])
    def test_per_write_runs_only_after_a_rejected_commit(self, monkeypatch, stop_at, poke):
        """Stops of 1, corrupted counters and stopless spans all stay on
        the walks: ``write()`` runs only in the batch that wears a page
        out, after its span's commit was rejected."""
        from repro.wearlevel.base import WearLeveler

        def scheme():
            endurance = np.random.default_rng(4).integers(1500, 4500, size=15)
            return TossUpWearLeveling(PCMArray(endurance), config=TWLConfig(), seed=5)

        batched, serial = scheme(), scheme()
        events = []
        real_commit, real_write = batched._commit_span, batched.write
        monkeypatch.setattr(
            batched,
            "_commit_span",
            lambda log, cut: events.append(real_commit(log, cut)) or events[-1],
        )
        monkeypatch.setattr(
            batched, "write", lambda logical: events.append("write") or real_write(logical)
        )
        addresses = np.random.default_rng(11).integers(0, 15, size=400_000)
        start = batches = pokes = 0
        while not batched.array.failed:
            if poke and batches % 50 == 7:
                page = batches % 15
                for built in (batched, serial):
                    built.write_counters.poke(page, built.config.toss_up_interval + 3)
                pokes += 1
            events.clear()
            chunk = addresses[start : start + 300]
            counts = batched.write_batch(chunk, stop_at)
            assert counts.tolist() == WearLeveler.write_batch(serial, chunk, stop_at).tolist()
            start += counts.size
            batches += 1
            if not batched.array.failed:
                assert "write" not in events and False not in events
        # The failing batch: one rejected commit, then the per-write loop.
        assert batches > 20 and (pokes >= 2 or not poke)
        rejected = events.index(False)
        assert "write" not in events[:rejected]
        assert events[rejected + 1 :] == ["write"] * (len(events) - rejected - 1)
        assert len(events) > rejected + 1
        assert _full_state(batched) == _full_state(serial)
