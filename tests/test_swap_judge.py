"""Tests for the swap judge."""

from repro.core.swap_judge import (
    PLAN_DIRECT,
    PLAN_SWAP_THEN_WRITE,
    SwapJudge,
    WritePlan,
)


class TestSwapJudge:
    def test_direct_when_chosen_matches(self):
        judge = SwapJudge()
        plan = judge.judge(addr_write=5, addr_choose=5, addr_not_choose=9)
        assert plan.kind == PLAN_DIRECT
        assert plan.writes == (5,)
        assert plan.physical_writes == 1
        assert not plan.remap_swapped

    def test_swap_then_write_is_two_writes(self):
        judge = SwapJudge()
        plan = judge.judge(addr_write=5, addr_choose=9, addr_not_choose=5)
        assert plan.kind == PLAN_SWAP_THEN_WRITE
        # Migration target first (receives the partner's old data), then
        # the chosen frame (receives the incoming data).
        assert plan.writes == (5, 9)
        assert plan.physical_writes == 2
        assert plan.remap_swapped

    def test_counters_and_fraction(self):
        judge = SwapJudge()
        judge.judge(1, 1, 2)
        judge.judge(1, 2, 1)
        judge.judge(1, 2, 1)
        assert judge.direct == 1
        assert judge.swapped == 2

    def test_plan_is_frozen(self):
        plan = WritePlan(PLAN_DIRECT, (1,), remap_swapped=False)
        try:
            plan.kind = "other"
            mutated = True
        except AttributeError:
            mutated = False
        assert not mutated
