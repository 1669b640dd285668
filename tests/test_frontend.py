"""Tests for the branch predictors, BTB, RAS, and fetch unit."""

import pytest

from repro.config import MemConfig
from repro.frontend.btb import BTB
from repro.frontend.direction import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GShare,
    Tournament,
)
from repro.frontend.fetch import FetchUnit
from repro.frontend.ras import RAS
from repro.isa.assembler import Assembler
from repro.isa.registers import R1, R2
from repro.memory.hierarchy import MemoryHierarchy


class TestBimodal:
    def test_initial_weakly_taken(self):
        assert Bimodal().predict(0x10)

    def test_training_not_taken(self):
        predictor = Bimodal()
        for _ in range(2):
            predictor.update(0x10, False)
        assert not predictor.predict(0x10)

    def test_saturation(self):
        predictor = Bimodal()
        for _ in range(10):
            predictor.update(0x10, False)
        predictor.update(0x10, True)
        assert not predictor.predict(0x10)  # one update cannot flip saturated

    def test_aliasing_by_index_mask(self):
        predictor = Bimodal(index_bits=2)
        for _ in range(4):
            predictor.update(0, False)
        assert not predictor.predict(4)  # aliases entry 0


class TestGShare:
    def test_history_differentiates(self):
        predictor = GShare(index_bits=8, history_bits=4)
        # Alternating pattern at one PC becomes predictable via history.
        for _ in range(64):
            expected = predictor.history & 1 == 0
            predictor.update(0x20, expected)
        hits = 0
        for _ in range(32):
            expected = predictor.history & 1 == 0
            hits += predictor.predict(0x20) == expected
            predictor.update(0x20, expected)
        assert hits >= 28  # pattern learned

    def test_history_updates(self):
        predictor = GShare()
        before = predictor.history
        predictor.update(0, True)
        assert predictor.history != before or before == 1


class TestTournament:
    def test_predicts_like_components_when_agreeing(self):
        predictor = Tournament()
        for _ in range(8):
            predictor.update(0x30, False)
        assert not predictor.predict(0x30)


class TestBTB:
    def test_miss_returns_none(self):
        assert BTB(64, 4).lookup(0x10) is None

    def test_install_and_lookup(self):
        btb = BTB(64, 4)
        btb.update(0x10, 0x99)
        assert btb.lookup(0x10) == 0x99

    def test_update_overwrites(self):
        btb = BTB(64, 4)
        btb.update(0x10, 0x99)
        btb.update(0x10, 0x55)
        assert btb.lookup(0x10) == 0x55

    def test_set_conflict_evicts_lru(self):
        btb = BTB(8, 2)  # 4 sets, 2 ways
        # PCs 0, 4, 8 map to set 0.
        btb.update(0, 100)
        btb.update(4, 101)
        btb.lookup(0)  # refresh PC 0
        btb.update(8, 102)  # evicts PC 4
        assert btb.lookup(0) == 100
        assert btb.lookup(4) is None
        assert btb.lookup(8) == 102

    def test_invalidate(self):
        btb = BTB(64, 4)
        btb.update(0x10, 0x99)
        assert btb.invalidate(0x10)
        assert btb.lookup(0x10) is None
        assert not btb.invalidate(0x10)

    def test_flush(self):
        btb = BTB(64, 4)
        btb.update(0x10, 0x99)
        btb.flush()
        assert btb.lookup(0x10) is None

    def test_probe_non_destructive(self):
        btb = BTB(64, 4)
        btb.update(0x10, 0x99)
        lookups = btb.lookups
        assert btb.probe(0x10) == 0x99
        assert btb.lookups == lookups

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            BTB(10, 4)  # not divisible
        with pytest.raises(ValueError):
            BTB(24, 4)  # 6 sets: not a power of two


class TestRAS:
    def test_push_pop(self):
        ras = RAS(4)
        ras.push(10)
        ras.push(20)
        assert ras.pop() == 20
        assert ras.pop() == 10

    def test_underflow_returns_none(self):
        ras = RAS(4)
        assert ras.pop() is None
        assert ras.underflows == 1

    def test_wraparound_overwrites_oldest(self):
        ras = RAS(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)  # overwrites 1
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None

    def test_snapshot_restore(self):
        ras = RAS(4)
        ras.push(1)
        snap = ras.snapshot()
        ras.push(2)
        ras.pop()
        ras.pop()
        ras.restore(snap)
        assert ras.pop() == 1

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            RAS(0)


def make_fetch(asm, predictor=None):
    program = asm.build()
    hierarchy = MemoryHierarchy(MemConfig())
    btb = BTB(64, 4)
    ras = RAS(4)
    fetch = FetchUnit(
        program, hierarchy, predictor or AlwaysNotTaken(), btb, ras, 8
    )
    return fetch, btb, ras


def fetch_group(fetch, now):
    """The ops one ``fetch(now)`` appends to the buffer, drained from it
    the way dispatch would."""
    count = fetch.fetch(now)
    ops = [fetch.buffer.popleft() for _ in range(count)]
    assert not fetch.buffer
    return ops


class TestFetchUnit:
    def _basic_program(self):
        asm = Assembler()
        for _ in range(20):
            asm.nop()
        asm.halt()
        return asm

    def test_first_fetch_stalls_on_icache_miss(self):
        fetch, _, _ = make_fetch(self._basic_program())
        assert fetch_group(fetch, 0) == []  # cold i-cache

    def test_fetch_width_after_warm(self):
        fetch, _, _ = make_fetch(self._basic_program())
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert len(ops) == 8
        assert [op.pc for op in ops] == list(range(8))

    def test_taken_branch_ends_group(self):
        asm = Assembler()
        asm.nop()
        asm.jmp("target")
        asm.nop()
        asm.label("target")
        asm.halt()
        fetch, _, _ = make_fetch(asm)
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert [op.pc for op in ops] == [0, 1]
        ops = fetch_group(fetch, 201)
        assert ops[0].pc == 3  # redirected past the skipped nop

    def test_halt_stops_fetch(self):
        asm = Assembler()
        asm.halt()
        asm.nop()
        fetch, _, _ = make_fetch(asm)
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert len(ops) == 1
        assert fetch_group(fetch, 201) == []

    def test_indirect_without_prediction_stalls(self):
        asm = Assembler()
        asm.jr(R1)
        asm.halt()
        fetch, _, _ = make_fetch(asm)
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert len(ops) == 1
        assert ops[0].unpredicted
        assert fetch_group(fetch, 201) == []  # waiting for resolution
        fetch.redirect(1, 202)
        assert fetch_group(fetch, 202)[0].pc == 1

    def test_indirect_with_btb_prediction(self):
        asm = Assembler()
        asm.jr(R1)
        asm.nop()
        asm.halt()
        fetch, btb, _ = make_fetch(asm)
        btb.update(0, 2)
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert ops[0].btb_hit
        assert ops[0].pred_next_pc == 2

    def test_call_pushes_ras_and_ret_pops(self):
        asm = Assembler()
        asm.call("func")
        asm.halt()
        asm.label("func")
        asm.ret()
        fetch, _, ras = make_fetch(asm)
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert ops[0].pred_next_pc == 2  # into func
        assert (ras.pushes, ras.pops) == (1, 0)
        ops = fetch_group(fetch, 201)
        assert ops[0].instr.info.is_ret
        assert ops[0].pred_next_pc == 1  # back after the call
        assert (ras.pushes, ras.pops) == (1, 1)

    def test_conditional_prediction_metadata(self):
        asm = Assembler()
        asm.beq(R1, R2, "skip")
        asm.nop()
        asm.label("skip")
        asm.halt()
        fetch, _, _ = make_fetch(asm, predictor=AlwaysTaken())
        fetch.fetch(0)
        ops = fetch_group(fetch, 200)
        assert ops[0].pred_taken
        assert ops[0].pred_next_pc == 2

    def test_full_buffer_stops_fetch(self):
        fetch, _, _ = make_fetch(self._basic_program())
        fetch.fetch(0)
        assert fetch.fetch(200) == 8
        assert fetch.fetch(201) == 8
        assert len(fetch.buffer) == fetch.capacity == 16
        assert fetch.fetch(202) == 0
        assert fetch.next_fetch_cycle(202) is None  # waits on dispatch
        fetch.buffer.popleft()
        assert fetch.next_fetch_cycle(202) == 202


class TestNextFetchCycle:
    """The idle-cycle probe's view of fetch: the cycle at which
    ``fetch`` next acts, or None while it waits on an event."""

    def test_cold_fetch_acts_now_then_waits_for_fill(self):
        fetch, _, _ = make_fetch(TestFetchUnit()._basic_program())
        assert fetch.next_fetch_cycle(0) == 0
        assert fetch.fetch(0) == 0  # starts the L1I miss
        ready = fetch.next_fetch_cycle(1)
        assert ready > 1
        assert fetch.fetch(ready - 1) == 0
        assert fetch.fetch(ready) == 8

    def test_halt_waits_for_redirect(self):
        asm = Assembler()
        asm.halt()
        fetch, _, _ = make_fetch(asm)
        fetch.fetch(0)
        fetch_group(fetch, 200)
        assert fetch.next_fetch_cycle(201) is None
        fetch.redirect(0, 205)
        assert fetch.next_fetch_cycle(201) == 205

    def test_unpredicted_indirect_waits_for_redirect(self):
        asm = Assembler()
        asm.jr(R1)
        asm.halt()
        fetch, _, _ = make_fetch(asm)
        fetch.fetch(0)
        fetch_group(fetch, 200)
        assert fetch.next_fetch_cycle(201) is None

    def test_past_end_of_program_waits(self):
        asm = Assembler()
        asm.nop()
        fetch, _, _ = make_fetch(asm)
        fetch.fetch(0)
        assert [op.pc for op in fetch_group(fetch, 200)] == [0]
        assert fetch.next_fetch_cycle(201) is None
