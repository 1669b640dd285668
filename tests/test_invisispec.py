"""Tests for the InvisiSpec comparison model."""

import pytest

from repro.config import baseline_ooo, invisispec_config
from repro.api import simulate
from repro.core.ooo import OutOfOrderCore
from repro.core.rob import ROB, DynInstr
from repro.frontend.fetch import FetchedOp
from repro.invisispec.policy import load_is_speculative, needs_validation
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import R0, R1, R2, R3, R4, R5
from repro.nda.safety import SafetyTracker


def dyn(seq, instr):
    fetched = FetchedOp(instr, pc=seq, fetch_cycle=0, pred_next_pc=seq + 1)
    return DynInstr(seq, fetched, 0)


def load(seq):
    return dyn(seq, Instr(Opcode.LOAD, rd=R1, rs1=R2))


def branch(seq):
    return dyn(seq, Instr(Opcode.BEQ, rs1=R1, rs2=R2, target=0))


class TestVisibilityPolicy:
    def test_spectre_model_tracks_branches(self):
        tracker = SafetyTracker(None)
        rob = ROB(16)
        target = load(5)
        assert not load_is_speculative(target, rob, tracker, False)
        guard = branch(1)
        tracker.on_dispatch(guard)
        assert load_is_speculative(target, rob, tracker, False)
        tracker.on_branch_resolved(guard)
        assert not load_is_speculative(target, rob, tracker, False)

    def test_future_model_tracks_any_incomplete_older(self):
        tracker = SafetyTracker(None)
        rob = ROB(16)
        older = dyn(1, Instr(Opcode.ADD, rd=R1, rs1=R2, rs2=R3))
        target = load(5)
        rob.entries.extend((older, target))
        assert load_is_speculative(target, rob, tracker, True)
        older.completed = True
        assert not load_is_speculative(target, rob, tracker, True)

    def test_future_model_faulting_older_keeps_speculative(self):
        tracker = SafetyTracker(None)
        rob = ROB(16)
        older = load(1)
        older.completed = True
        older.fault = "user load"
        target = load(5)
        rob.entries.extend((older, target))
        assert load_is_speculative(target, rob, tracker, True)

    def test_validation_on_l1_miss(self):
        assert needs_validation(load(5), l1_hit=False, lsq_loads=[])

    def test_validation_on_outstanding_older_load(self):
        older = load(1)
        assert needs_validation(load(5), l1_hit=True, lsq_loads=[older])
        older.completed = True
        assert not needs_validation(load(5), l1_hit=True, lsq_loads=[older])


class TestInvisiSpecBehaviour:
    def _wrong_path_load_program(self, probe):
        asm = Assembler()
        # Slow branch condition so the wrong-path load has time to issue.
        asm.li(R1, 8)
        asm.li(R2, 2)
        asm.div(R3, R1, R2)
        asm.div(R3, R3, R2)  # 2: non-zero
        asm.li(R4, probe)
        asm.beq(R3, R0, "wrongpath")  # init-predicted taken, actually not
        asm.jmp("end")
        asm.label("wrongpath")
        asm.load(R5, R4, 0)
        asm.label("end")
        asm.halt()
        return asm.build()

    def test_wrong_path_load_fills_cache_on_baseline(self):
        probe = 0xF1000
        core = OutOfOrderCore(
            self._wrong_path_load_program(probe), baseline_ooo()
        )
        core.run()
        assert core.hierarchy.l1d.probe(probe)

    @pytest.mark.parametrize("future", [False, True])
    def test_wrong_path_load_invisible_under_invisispec(self, future):
        probe = 0xF2000
        core = OutOfOrderCore(
            self._wrong_path_load_program(probe), invisispec_config(future)
        )
        core.run()
        assert not core.hierarchy.l1d.probe(probe)
        assert not core.hierarchy.l2.probe(probe)
        assert core.stats.invisible_loads >= 1

    def test_correct_path_load_eventually_exposed(self):
        asm = Assembler()
        addr = 0xF3000
        # Put the load in a branch shadow that resolves correctly.
        asm.li(R1, 5)
        asm.li(R2, 5)
        asm.beq(R1, R2, "go")  # taken, predicted taken eventually
        asm.label("go")
        asm.li(R3, addr)
        asm.load(R4, R3, 0)
        asm.load(R5, R3, 0)  # re-access after visibility
        asm.fence()
        asm.halt()
        core = OutOfOrderCore(asm.build(), invisispec_config(False))
        core.run()
        assert core.hierarchy.l1d.probe(addr)

    def test_future_costs_more_than_spectre(self):
        from repro.workloads.generator import spec_program
        program = spec_program("lbm", instructions=4_000, seed=1)
        base = simulate(program, baseline_ooo()).stats.cycles
        spectre = simulate(program, invisispec_config(False)).stats.cycles
        future = simulate(program, invisispec_config(True)).stats.cycles
        assert base <= spectre <= future

    def test_validations_and_exposures_counted(self):
        from repro.workloads.generator import spec_program
        program = spec_program("mcf", instructions=2_000, seed=1)
        outcome = simulate(program, invisispec_config(True))
        stats = outcome.stats
        assert stats.invisible_loads > 0
        assert stats.validations + stats.exposures > 0
