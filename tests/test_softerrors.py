"""Soft-error injection, invariant checking, and self-healing tests.

Covers the resilience tentpole end to end: deterministic scheduling,
the protection semantics (silent / parity scrub / SECDED), the
batch-identity contract under nonzero fault rates, the runtime
invariant checker catching planted corruption, the graceful-degradation
fail-safes, and the exec-layer plumbing (cells, fingerprints, cache).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import ScaledArrayConfig, SoftErrorConfig
from repro.engine import EngineObserver, InvariantCheckObserver, SimulationEngine
from repro.errors import ConfigError, InvariantViolation
from repro.exec.cache import decode_result, encode_result
from repro.exec.cells import attack_cell, run_cell
from repro.exec.hashing import cell_fingerprint
from repro.pcm.array import PCMArray
from repro.pcm.softerrors import (
    ACTION_CORRECTED,
    ACTION_FAIL_SAFE,
    ACTION_SILENT,
    BitTarget,
    SoftErrorInjector,
)
from repro.sim.drivers import AttackDriver
from repro.sim.runner import measure_attack_lifetime
from repro.attacks.registry import make_attack
from repro.wearlevel.registry import make_scheme

_SCALED = ScaledArrayConfig(n_pages=64, endurance_mean=768.0)


def _faulted(
    scheme_name,
    rate=1e-3,
    protection="none",
    targets=(),
    check=False,
    batch_size=1,
    attack="random",
):
    return measure_attack_lifetime(
        scheme_name,
        attack,
        scaled=_SCALED,
        seed=7,
        soft_errors=SoftErrorConfig(
            rate=rate, seed=7, targets=tuple(targets), protection=protection
        ),
        check_invariants=check,
        batch_size=batch_size,
    )


class TestConfig:
    def test_rate_bounds(self):
        with pytest.raises(ConfigError):
            SoftErrorConfig(rate=-0.1)
        with pytest.raises(ConfigError):
            SoftErrorConfig(rate=1.5)

    def test_protection_names(self):
        with pytest.raises(ConfigError):
            SoftErrorConfig(protection="hamming")

    def test_target_names(self):
        with pytest.raises(ConfigError):
            SoftErrorConfig(targets=("",))

    def test_bit_target_geometry(self):
        with pytest.raises(ConfigError):
            BitTarget("x", 0, 8, lambda e: 0, lambda e, v: None)
        with pytest.raises(ConfigError):
            BitTarget("x", 8, 0, lambda e: 0, lambda e, v: None)

    def test_unknown_target_lists_surface(self):
        with pytest.raises(ConfigError, match="bogus"):
            _faulted("twl_swp", targets=("bogus",))


class TestScheduling:
    def _injector(self, rate=1e-2):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("twl_swp", array, seed=7)
        return SoftErrorInjector(
            scheme, SoftErrorConfig(rate=rate, seed=7)
        )

    def test_deterministic_schedule_and_events(self):
        first = self._injector()
        second = self._injector()
        for demand in range(0, 5000, 37):
            first.deliver(demand)
            second.deliver(demand)
        assert first.events == second.events
        assert len(first.events) > 10

    def test_gap_always_positive(self):
        injector = self._injector(rate=1.0)
        injector.deliver(3)
        indices = [event.demand_index for event in injector.events]
        assert indices == [1, 2, 3]

    def test_inactive_without_surface(self):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("nowl", array, seed=7)
        injector = SoftErrorInjector(scheme, SoftErrorConfig(rate=0.5, seed=7))
        assert not injector.active
        with pytest.raises(ConfigError):
            injector.demand_until_next(0)

    def test_summary_keys_are_fixed_and_sorted(self):
        injector = self._injector()
        assert list(injector.summary()) == sorted(injector.summary())
        assert set(injector.summary()) == {
            "corrected", "detected", "fail_safe", "injected",
            "repaired", "silent",
        }


class TestProtectionSemantics:
    def test_silent_flips_change_the_outcome(self):
        clean = measure_attack_lifetime(
            "twl_swp", "random", scaled=_SCALED, seed=7
        )
        silent = _faulted("twl_swp", protection="none")
        counters = silent.soft_errors
        assert counters["injected"] > 0
        assert counters["silent"] == counters["injected"]
        # Persistent RT/WCT corruption must perturb the lifetime.
        assert silent.demand_writes != clean.demand_writes

    def test_secded_is_bit_identical_to_clean(self):
        clean = measure_attack_lifetime(
            "twl_swp", "random", scaled=_SCALED, seed=7
        )
        protected = _faulted("twl_swp", protection="secded", check=True)
        assert protected.soft_errors["corrected"] > 0
        assert protected.soft_errors["corrected"] == (
            protected.soft_errors["injected"]
        )
        # Everything except the counter field matches the clean run.
        assert dataclasses.replace(protected, soft_errors=None) == clean

    def test_parity_scrubs_every_flip(self):
        result = _faulted("twl_swp", protection="parity", check=True)
        counters = result.soft_errors
        assert counters["injected"] > 0
        assert counters["silent"] == 0
        assert counters["injected"] == (
            counters["repaired"] + counters["fail_safe"] + counters["detected"]
        )

    def test_parity_fail_safe_on_repairless_target(self):
        # StartGap's registers expose no repair hook, so parity must
        # drive the scheme's fail-safe degradation path.
        result = _faulted("startgap", protection="parity", check=True)
        assert result.soft_errors["fail_safe"] > 0
        assert result.soft_errors["repaired"] == 0

    def test_fail_safe_marks_scheme_degraded(self):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("startgap", array, seed=7)
        injector = SoftErrorInjector(
            scheme, SoftErrorConfig(rate=1.0, seed=7, protection="parity")
        )
        assert not scheme.fault_degraded
        injector.deliver(1)
        assert scheme.fault_degraded
        assert injector.events[0].action == ACTION_FAIL_SAFE

    def test_custom_target_actions(self):
        class Victim:
            def __init__(self):
                self.value = 0
                self.degraded = False

            def fault_surface(self):
                return {
                    "reg": BitTarget(
                        name="reg",
                        n_entries=1,
                        entry_bits=8,
                        read=lambda entry: self.value,
                        write=lambda entry, value: setattr(
                            self, "value", value
                        ),
                        fail_safe=lambda: setattr(self, "degraded", True),
                    )
                }

        victim = Victim()
        injector = SoftErrorInjector(
            victim, SoftErrorConfig(rate=1.0, seed=7, protection="secded")
        )
        injector.deliver(1)
        assert victim.value == 0  # corrected before landing
        assert injector.events[0].action == ACTION_CORRECTED

        victim = Victim()
        injector = SoftErrorInjector(
            victim, SoftErrorConfig(rate=1.0, seed=7, protection="none")
        )
        injector.deliver(1)
        assert victim.value != 0
        assert injector.events[0].action == ACTION_SILENT

        victim = Victim()
        injector = SoftErrorInjector(
            victim, SoftErrorConfig(rate=1.0, seed=7, protection="parity")
        )
        injector.deliver(1)
        assert victim.degraded
        assert injector.events[0].action == ACTION_FAIL_SAFE


class TestBatchIdentityUnderFaults:
    @pytest.mark.parametrize("protection", ["none", "parity", "secded"])
    @pytest.mark.parametrize("scheme_name", ["twl_swp", "wrl", "startgap"])
    def test_batched_matches_serial(self, scheme_name, protection):
        serial = _faulted(scheme_name, protection=protection)
        batched = _faulted(scheme_name, protection=protection, batch_size=64)
        assert batched == serial

    def test_wct_only_corruption_batch_identity(self):
        serial = _faulted("twl_swp", targets=("wct",))
        batched = _faulted("twl_swp", targets=("wct",), batch_size=64)
        assert batched == serial
        assert serial.soft_errors["injected"] > 0


class TestInvariantChecker:
    def _engine(self, observers):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("twl_swp", array, seed=7)
        attack = make_attack("random", scheme.logical_pages, seed=7)
        return scheme, SimulationEngine(
            scheme, AttackDriver(attack), observers=observers
        )

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            InvariantCheckObserver(every=0)

    def test_clean_run_passes(self):
        checker = InvariantCheckObserver()
        _, engine = self._engine([checker])
        engine.run(2000, require_failure=False)
        assert checker.checks > 0

    def test_silent_rt_corruption_is_detected(self):
        with pytest.raises(InvariantViolation) as info:
            _faulted("twl_swp", targets=("rt",), check=True)
        assert info.value.table == "rt"
        assert info.value.scheme == "twl"
        assert info.value.step >= 0

    def test_parity_repaired_run_stays_consistent(self):
        result = _faulted("twl_swp", protection="parity", check=True)
        assert result.soft_errors["injected"] > 0

    def _violation_from_mutator(self, mutate):
        class Mutator(EngineObserver):
            critical = True  # never detach; fire exactly once
            fired = False

            def on_batch(self, snapshot):
                if not Mutator.fired:
                    Mutator.fired = True
                    mutate(snapshot.scheme)

        checker = InvariantCheckObserver()
        _, engine = self._engine([Mutator(), checker])
        with pytest.raises(InvariantViolation) as info:
            engine.run(2000, require_failure=False)
        return info.value

    def test_accounting_drift_is_detected(self):
        violation = self._violation_from_mutator(
            lambda scheme: scheme.array.write(0)
        )
        assert violation.table == "accounting"

    def test_et_mutation_is_detected(self):
        def mutate(scheme):
            scheme.endurance_table._values[3] += 1

        violation = self._violation_from_mutator(mutate)
        assert violation.table == "et"

    def test_swpt_corruption_is_detected(self):
        def mutate(scheme):
            table = scheme.pair_table
            original = table.raw_partner(0)
            table.poke_partner(0, 1 if original != 1 else 2)

        violation = self._violation_from_mutator(mutate)
        assert violation.table == "swpt"

    def test_violation_is_structured(self):
        error = InvariantViolation("twl", 12, "rt", ["LA 1 broken"])
        assert error.scheme == "twl"
        assert error.step == 12
        assert error.table == "rt"
        assert error.details == ["LA 1 broken"]
        assert "step 12" in str(error)


class TestArrayBackedFaultSurface:
    """BitTarget peek/poke must hit the canonical numpy arrays live.

    After the structure-of-arrays refactor the tables' scalar accessors
    are views over flat arrays; these tests pin the contract that the
    fault surface's closures read and write that same live storage (a
    stale-copy regression would make injection silently inert).
    """

    def _scheme(self):
        array = PCMArray.uniform(64, 768)
        return make_scheme("twl_swp", array, seed=7)

    def test_rt_peek_poke_round_trips_through_canonical_array(self):
        scheme = self._scheme()
        rt = scheme.fault_surface()["rt"]
        rt.write(3, 5)
        assert rt.read(3) == 5
        assert int(scheme.remap.mapping_array()[3]) == 5
        scheme.remap.poke_entry(3, 9)
        assert rt.read(3) == 9

    def test_wct_peek_poke_round_trips_through_canonical_array(self):
        scheme = self._scheme()
        wct = scheme.fault_surface()["wct"]
        wct.write(5, 11)
        assert scheme.write_counters.value(5) == 11
        assert int(scheme.write_counters.values_array()[5]) == 11
        scheme.write_counters.poke(5, 3)
        assert wct.read(5) == 3

    def test_swpt_peek_poke_round_trips_through_canonical_array(self):
        scheme = self._scheme()
        swpt = scheme.fault_surface()["swpt"]
        swpt.write(0, 7)
        assert scheme.pair_table.raw_partner(0) == 7
        assert int(scheme.pair_table.partners_array()[0]) == 7
        scheme.pair_table.repair_entry(0)
        assert swpt.read(0) == scheme.pair_table.raw_partner(0)

    def test_poked_non_bijective_rt_is_caught_by_checker(self):
        scheme = self._scheme()
        attack = make_attack("random", scheme.logical_pages, seed=7)
        checker = InvariantCheckObserver(every=1)
        engine = SimulationEngine(
            scheme, AttackDriver(attack), observers=[checker], batch_size=16
        )
        # Duplicate one RT entry: the mapping is no longer a bijection.
        scheme.remap.poke_entry(0, scheme.remap.lookup(1))
        with pytest.raises(InvariantViolation) as info:
            engine.run(500, require_failure=False)
        assert info.value.table == "rt"

    @pytest.mark.parametrize("poke_value_offset", [0, 3])
    def test_wct_poke_above_interval_is_batch_identical(
        self, poke_value_offset
    ):
        # A counter at or above the interval disables the planner's
        # modular trigger prediction; the scalar fallback must stay
        # bit-identical to the serial path until the counter recovers.
        def run(batch_size):
            array = PCMArray.uniform(64, 768)
            scheme = make_scheme("twl_swp", array, seed=7)
            wct = scheme.write_counters
            wct.poke(4, wct.interval + poke_value_offset)
            attack = make_attack("random", scheme.logical_pages, seed=7)
            engine = SimulationEngine(
                scheme, AttackDriver(attack), batch_size=batch_size
            )
            engine.run(4000, require_failure=False)
            return array.write_counts(), scheme.stats()

        serial_counts, serial_stats = run(1)
        batched_counts, batched_stats = run(64)
        assert np.array_equal(batched_counts, serial_counts)
        assert batched_stats == serial_stats


class TestRepairPrimitives:
    def test_rt_repair_restores_from_inverse(self):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("twl_swp", array, seed=7)
        remap = scheme.remap
        original = remap.raw_entry(3)
        remap.poke_entry(3, (original + 1) % 64)
        assert remap.consistency_errors()
        assert remap.repair_entry(3)
        assert remap.raw_entry(3) == original
        assert not remap.consistency_errors()

    def test_swpt_repair_restores_involution(self):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("twl_swp", array, seed=7)
        table = scheme.pair_table
        original = table.raw_partner(0)
        table.poke_partner(0, 1 if original != 1 else 2)
        assert table.involution_errors()
        assert table.repair_entry(0)
        assert table.raw_partner(0) == original
        assert not table.involution_errors()

    def test_identity_fail_safe_resets_mapping(self):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme("twl_swp", array, seed=7)
        for step in range(500):
            scheme.write(step % scheme.logical_pages)
        scheme.fault_fail_safe()
        assert scheme.fault_degraded
        assert not scheme.remap.consistency_errors()
        assert all(
            scheme.remap.raw_entry(page) == page
            for page in range(scheme.array.n_pages)
        )


class TestExecPlumbing:
    def test_soft_errors_is_identity_bearing(self):
        clean = attack_cell("twl_swp", "random", scaled=_SCALED, seed=7)
        faulted = attack_cell(
            "twl_swp",
            "random",
            scaled=_SCALED,
            seed=7,
            soft_errors=SoftErrorConfig(rate=1e-3, seed=7),
        )
        assert cell_fingerprint(clean) != cell_fingerprint(faulted)

    def test_check_invariants_is_an_execution_knob(self):
        cell = attack_cell("twl_swp", "random", scaled=_SCALED, seed=7)
        checked = dataclasses.replace(cell, check_invariants=True)
        assert cell_fingerprint(cell) == cell_fingerprint(checked)

    def test_overheads_cells_reject_soft_errors(self):
        from repro.exec.cells import ExperimentCell

        with pytest.raises(ConfigError):
            ExperimentCell(
                kind="overheads",
                scheme="twl_swp",
                workload="canneal",
                scaled=_SCALED,
                seed=7,
                trace_writes=100,
                drive_writes=100,
                soft_errors=SoftErrorConfig(rate=1e-3, seed=7),
            )

    def test_run_cell_carries_counters(self):
        cell = attack_cell(
            "twl_swp",
            "random",
            scaled=_SCALED,
            seed=7,
            soft_errors=SoftErrorConfig(rate=1e-3, seed=7, protection="parity"),
            check_invariants=True,
        )
        result = run_cell(cell)
        assert result.soft_errors["injected"] > 0
        direct = _faulted("twl_swp", protection="parity", check=True)
        assert result == direct

    def test_cache_round_trips_soft_errors(self):
        result = _faulted("twl_swp", protection="parity")
        assert decode_result(*encode_result(result)) == result
        clean = measure_attack_lifetime(
            "twl_swp", "random", scaled=_SCALED, seed=7
        )
        assert decode_result(*encode_result(clean)) == clean

    def test_nowl_reports_no_counters(self):
        result = _faulted("nowl")
        assert result.soft_errors is None


class TestSchemeSurfaces:
    @pytest.mark.parametrize(
        "scheme_name,expected",
        [
            ("twl_swp", {"rng", "rt", "swpt", "tossrng", "wct"}),
            ("wrl", {"rt", "wnt"}),
            ("bwl", {"rt"}),
            ("retire", {"rt"}),
            ("startgap", {"regs"}),
            ("nowl", set()),
        ],
    )
    def test_surface_targets(self, scheme_name, expected):
        array = PCMArray.uniform(64, 768)
        scheme = make_scheme(scheme_name, array, seed=7)
        assert set(scheme.fault_surface()) == expected

    @pytest.mark.parametrize(
        "scheme_name", ["twl_swp", "wrl", "bwl", "retire", "startgap"]
    )
    def test_lifetime_under_faults_per_scheme(self, scheme_name):
        result = _faulted(scheme_name, protection="parity", check=True)
        assert result.soft_errors["injected"] > 0
