"""Detailed per-attack behaviour beyond the pass/fail matrix."""

from repro.attacks import (
    lazyfp,
    meltdown,
    spectre_btb,
    spectre_v1,
    spectre_v2,
    ssb,
)
from repro.attacks.common import (
    AttackOutcome,
    default_guesses,
)
from repro.config import NDAPolicyName, baseline_ooo, nda_config

GUESSES = default_guesses(42, 12)


class TestGuessHelpers:
    def test_default_guesses_include_secret(self):
        for secret in (0, 42, 137, 255):
            assert secret in default_guesses(secret, 16)

    def test_default_guesses_full_range(self):
        assert default_guesses(42, count=256) == list(range(256))

    def test_default_guesses_sorted_unique(self):
        guesses = default_guesses(42, 20)
        assert guesses == sorted(set(guesses))

    def test_ssb_guesses_exclude_public(self):
        guesses = ssb.attack_guesses(42, 32)
        assert ssb.PUBLIC_VALUE not in guesses
        assert 42 in guesses


class TestOutcomeAnalysis:
    def _outcome(self, timings, secret=42, margin=20):
        guesses = list(range(len(timings)))
        return AttackOutcome(
            attack="x", channel="cache", config_label="test",
            secret=secret, timings=timings, guesses=guesses,
            margin_required=margin,
        )

    def test_leak_detected(self):
        timings = [150] * 50
        timings[42] = 10
        outcome = self._outcome(timings)
        assert outcome.recovered == 42
        assert outcome.leaked
        assert outcome.margin == 140

    def test_wrong_guess_not_leak(self):
        timings = [150] * 50
        timings[7] = 10
        assert not self._outcome(timings).leaked

    def test_flat_timings_not_leak(self):
        assert not self._outcome([150] * 50).leaked

    def test_small_margin_not_leak(self):
        timings = [150] * 50
        timings[42] = 140
        assert not self._outcome(timings).leaked

    def test_timing_of(self):
        timings = list(range(50))
        assert self._outcome(timings).timing_of(13) == 13


class TestSpectreV1:
    def test_program_builds_deterministically(self):
        first = spectre_v1.build_program(42, GUESSES)
        second = spectre_v1.build_program(42, GUESSES)
        assert len(first) == len(second)

    def test_secret_embedded_in_data(self):
        program = spectre_v1.build_program(99, GUESSES)
        assert program.data[spectre_v1.SECRET_ADDR] == bytes([99])

    def test_outcome_metadata(self):
        outcome = spectre_v1.run(baseline_ooo(), guesses=GUESSES)
        assert outcome.attack == "spectre_v1"
        assert outcome.channel == "cache"
        assert outcome.config_label == "OoO"
        assert len(outcome.timings) == len(GUESSES)

    def test_blocked_run_still_terminates_cleanly(self):
        outcome = spectre_v1.run(
            nda_config(NDAPolicyName.STRICT), guesses=GUESSES
        )
        assert outcome.outcome.state.halted
        assert all(t > 0 for t in outcome.timings)


class TestSpectreBTB:
    def test_btb_timing_signal_shape(self):
        outcome = spectre_btb.run(baseline_ooo(), guesses=GUESSES)
        assert outcome.leaked
        hot = outcome.timing_of(42)
        others = [t for g, t in zip(outcome.guesses, outcome.timings)
                  if g != 42]
        # The BTB signal is the mispredict penalty: tens of cycles, far
        # smaller than a cache miss.
        assert min(others) - hot >= 5
        assert max(others) < 120

    def test_targets_table_has_256_entries(self):
        program = spectre_btb.build_program(42, GUESSES)
        table_words = [
            addr for addr in program.data
            if spectre_btb.TARGETS_TABLE <= addr
            < spectre_btb.TARGETS_TABLE + 256 * 8
        ]
        assert len(table_words) == 256


class TestMeltdown:
    def test_kernel_range_is_privileged(self):
        program = meltdown.build_program(42, GUESSES)
        assert program.is_privileged_addr(meltdown.KERNEL_SECRET)
        assert program.fault_handler is not None

    def test_fault_fires_during_attack(self):
        outcome = meltdown.run(baseline_ooo(), guesses=GUESSES)
        assert outcome.outcome.state.faults >= 2  # warm-up + attack

    def test_architectural_register_never_holds_secret(self):
        outcome = meltdown.run(baseline_ooo(), guesses=GUESSES)
        assert 42 not in outcome.outcome.state.regs[9:12]

    def test_patched_hardware_does_not_leak(self):
        """With forward_faulting_loads=False (fixed silicon), no leak even
        on the otherwise-insecure OoO."""
        from dataclasses import replace
        config = replace(baseline_ooo(), forward_faulting_loads=False)
        outcome = meltdown.run(config, guesses=GUESSES)
        assert not outcome.leaked


class TestLazyFP:
    def test_msr_holds_secret(self):
        program = lazyfp.build_program(77, GUESSES)
        assert program.msrs[lazyfp.SECRET_MSR] == 77

    def test_leaks_arbitrary_msr_value(self):
        guesses = default_guesses(137, 12)
        outcome = lazyfp.run(baseline_ooo(), secret=137, guesses=guesses)
        assert outcome.leaked
        assert outcome.recovered == 137


class TestSSB:
    def test_final_state_holds_public_value(self):
        outcome = ssb.run(baseline_ooo())
        memory = outcome.outcome.state.memory
        assert memory.read_word(ssb.SLOT_ADDR) == ssb.PUBLIC_VALUE

    def test_violation_recorded(self):
        outcome = ssb.run(baseline_ooo())
        assert outcome.outcome.stats.memory_violations >= 1

    def test_leak_is_the_stale_secret(self):
        outcome = ssb.run(baseline_ooo())
        assert outcome.leaked
        assert outcome.recovered == 42 != ssb.PUBLIC_VALUE


class TestSpectreV2:
    def test_gadget_pc_patched(self):
        program = spectre_v2.build_program(42, GUESSES)
        li_values = [i.imm for i in program.instrs if i.op.value == "li"]
        # Both patched immediates must now be valid PCs, not zero.
        assert any(0 < imm < len(program) for imm in li_values)

    def test_architectural_path_runs_benign(self):
        outcome = spectre_v2.run(baseline_ooo(), guesses=GUESSES)
        # The dispatcher's final architectural target was `benign`, so the
        # run halts normally and the attack still leaks via the residue.
        assert outcome.outcome.state.halted
        assert outcome.leaked
