"""Tests for the bit-serial covert channels (NetSpectre FPU, i-cache)."""

import pytest

from repro.attacks import netspectre, spectre_icache
from repro.attacks.common import BitChannelOutcome
from repro.config import (
    NDAPolicyName,
    baseline_ooo,
    invisispec_config,
    nda_config,
)


class TestBitChannelOutcome:
    def _outcome(self, timings, secret, threshold=20, margin=8):
        return BitChannelOutcome(
            attack="x", channel="fpu", config_label="t", secret=secret,
            bit_timings=timings, threshold=threshold,
            margin_required=margin,
        )

    def test_decode_bits(self):
        timings = [28, 8, 28, 8, 28, 8, 28, 28]  # bits 1,3,5 -> 42
        outcome = self._outcome(timings, 42)
        assert outcome.recovered == 42
        assert outcome.leaked

    def test_margin_computed_between_clusters(self):
        outcome = self._outcome([28, 8, 28, 8, 28, 8, 28, 28], 42)
        assert outcome.margin == 20

    def test_wrong_decode_not_leak(self):
        outcome = self._outcome([28] * 8, 42)
        assert outcome.recovered == 0
        assert not outcome.leaked

    def test_small_margin_not_leak(self):
        timings = [28, 21, 28, 21, 28, 21, 28, 28]
        outcome = self._outcome(timings, 42, threshold=25, margin=8)
        assert outcome.recovered == 42
        assert not outcome.leaked

    def test_all_zero_secret_single_cluster(self):
        outcome = self._outcome([28] * 8, 0)
        assert outcome.leaked  # correct decode, single cluster accepted


class TestFPUPowerModel:
    def test_wakeup_penalty_after_sleep(self):
        from repro.config import CoreConfig
        from repro.core.fu import FUPool
        from repro.isa.microops import FU_ID
        from repro.isa.opcodes import FUType
        fp = FU_ID[FUType.FP]
        pool = FUPool(CoreConfig(fpu_sleep_cycles=100, fpu_wakeup_cycles=15))
        assert pool.fp_wakeup_penalty(0) == 15  # starts asleep
        assert pool.issue_id(fp, 0, 4) == 15
        assert pool.issue_id(fp, 50, 4) == 0  # still warm
        assert pool.fp_wakeup_penalty(151) == 15  # slept again

    def test_awake_query(self):
        from repro.config import CoreConfig
        from repro.core.fu import FUPool
        from repro.isa.microops import FU_ID
        from repro.isa.opcodes import FUType
        pool = FUPool(CoreConfig(fpu_sleep_cycles=100))
        assert pool.fp_wakeup_penalty(0) > 0  # asleep
        pool.issue_id(FU_ID[FUType.FP], 10, 4)
        assert pool.fp_wakeup_penalty(50) == 0  # awake
        assert pool.fp_wakeup_penalty(500) > 0

    def test_wrong_path_fp_warms_unit(self):
        """The channel substrate: a squashed FADD leaves the FPU awake."""
        from repro.core.ooo import OutOfOrderCore
        from repro.isa.assembler import Assembler
        from repro.isa.registers import F0, F1, F2, R0, R1, R3, R4
        asm = Assembler()
        asm.li(R1, 8)
        asm.li(R3, 2)
        asm.div(R4, R1, R3)
        asm.div(R4, R4, R3)  # 2: non-zero, resolves late
        asm.beq(R4, R0, "wrongpath")  # init-predicted taken, actually not
        asm.jmp("end")
        asm.label("wrongpath")
        asm.fadd(F0, F1, F2)
        asm.label("end")
        asm.halt()
        core = OutOfOrderCore(asm.build(), baseline_ooo())
        core.run()
        assert core.fus.fp_wakeup_penalty(core.cycle) == 0


@pytest.mark.parametrize("module,channel", [
    (netspectre, "fpu"),
    (spectre_icache, "i-cache"),
])
class TestBitChannelAttacks:
    def test_leaks_on_baseline(self, module, channel):
        outcome = module.run(baseline_ooo(), secret=42)
        assert outcome.leaked
        assert outcome.recovered == 42
        assert outcome.channel == channel

    def test_leaks_under_invisispec(self, module, channel):
        """The headline: these channels defeat cache-only defenses."""
        for future in (False, True):
            outcome = module.run(invisispec_config(future), secret=42)
            assert outcome.leaked, outcome

    def test_blocked_by_every_nda_policy(self, module, channel):
        for policy in NDAPolicyName:
            outcome = module.run(nda_config(policy), secret=42)
            assert not outcome.leaked, (policy, outcome)

    def test_blocked_in_order(self, module, channel):
        outcome = module.run(baseline_ooo(), secret=42, in_order=True)
        assert not outcome.leaked

    def test_arbitrary_secret(self, module, channel):
        outcome = module.run(baseline_ooo(), secret=170)
        assert outcome.recovered == 170
