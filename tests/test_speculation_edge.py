"""Edge cases of speculative execution: nested squashes, wrong-path
serializing ops, fences in branch shadows, deep misprediction chains."""

from repro.config import NDAPolicyName, baseline_ooo, nda_config
from repro.api import simulate
from repro.core.ooo import OutOfOrderCore
from repro.frontend.direction import Bimodal
from repro.isa.assembler import Assembler
from repro.isa.registers import R0, R1, R2, R3, R4, R5, R6, R7
from repro.smt import SharedState


def slow_nonzero(asm, dest, scratch):
    """Emit code leaving a non-zero value in *dest* via a slow div chain."""
    asm.li(dest, 8)
    asm.li(scratch, 2)
    asm.div(dest, dest, scratch)
    asm.div(dest, dest, scratch)  # 2


def test_fence_in_branch_shadow_does_not_deadlock():
    asm = Assembler()
    slow_nonzero(asm, R4, R3)
    asm.beq(R4, R0, "wrongpath")  # init-predicted taken, actually not
    asm.li(R1, 1)
    asm.halt()
    asm.label("wrongpath")
    asm.fence()  # wrong-path fence blocks dispatch until squashed
    asm.li(R1, 2)
    asm.halt()
    outcome = simulate(asm.build(), baseline_ooo())
    assert outcome.reg(R1) == 1


def test_rdtsc_in_branch_shadow_does_not_deadlock():
    asm = Assembler()
    slow_nonzero(asm, R4, R3)
    asm.beq(R4, R0, "wrongpath")
    asm.li(R1, 1)
    asm.halt()
    asm.label("wrongpath")
    asm.rdtsc(R2)  # serializing op that never reaches the head
    asm.li(R1, 2)
    asm.halt()
    outcome = simulate(asm.build(), baseline_ooo())
    assert outcome.reg(R1) == 1
    assert outcome.reg(R2) == 0  # never architecturally executed


def test_halt_in_branch_shadow_does_not_halt():
    asm = Assembler()
    slow_nonzero(asm, R4, R3)
    asm.beq(R4, R0, "wrongpath")
    asm.li(R1, 1)
    asm.halt()
    asm.label("wrongpath")
    asm.halt()  # wrong-path halt must be squashed, not honored
    outcome = simulate(asm.build(), baseline_ooo())
    assert outcome.reg(R1) == 1


def test_nested_mispredictions_recover():
    """A mispredicted branch inside another branch's wrong path."""
    asm = Assembler()
    slow_nonzero(asm, R4, R3)
    slow_nonzero(asm, R5, R3)
    asm.beq(R4, R0, "outer_wrong")  # mispredicted (init counters: taken)
    asm.li(R1, 10)
    asm.halt()
    asm.label("outer_wrong")
    asm.beq(R5, R0, "inner_wrong")  # nested wrong-path branch
    asm.li(R1, 20)
    asm.halt()
    asm.label("inner_wrong")
    asm.li(R1, 30)
    asm.halt()
    outcome = simulate(asm.build(), baseline_ooo())
    assert outcome.reg(R1) == 10


def test_mispredict_chain_every_iteration():
    """Alternating taken/not-taken defeats the bimodal counters: the
    machine must absorb a squash nearly every iteration and stay correct."""
    asm = Assembler()
    asm.li(R1, 100)
    asm.li(R2, 0)
    asm.li(R5, 0)
    asm.label("loop")
    asm.andi(R3, R1, 1)
    asm.beq(R3, R0, "even")
    asm.addi(R2, R2, 1)
    asm.jmp("tail")
    asm.label("even")
    asm.addi(R5, R5, 1)
    asm.label("tail")
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    outcome = OutOfOrderCore(
        asm.build(), baseline_ooo(), shared=SharedState(direction=Bimodal()),
    ).run()
    assert outcome.reg(R2) == 50
    assert outcome.reg(R5) == 50
    assert outcome.stats.branch_mispredicts > 10


def test_wrong_path_division_by_zero_is_harmless():
    asm = Assembler()
    slow_nonzero(asm, R4, R3)
    asm.beq(R4, R0, "wrongpath")
    asm.li(R1, 1)
    asm.halt()
    asm.label("wrongpath")
    asm.li(R6, 0)
    asm.div(R7, R4, R6)  # wrong-path div by zero: defined, no fault
    asm.halt()
    outcome = simulate(asm.build(), baseline_ooo())
    assert outcome.reg(R1) == 1


def test_squash_restores_rename_under_heavy_reuse():
    """Many renames of one register across a mispredicted branch."""
    asm = Assembler()
    slow_nonzero(asm, R4, R3)
    asm.li(R1, 7)
    asm.beq(R4, R0, "wrongpath")
    asm.jmp("end")
    asm.label("wrongpath")
    for _ in range(30):
        asm.addi(R1, R1, 1)  # 30 wrong-path renames of r1
    asm.label("end")
    asm.addi(R1, R1, 100)
    asm.halt()
    outcome = simulate(asm.build(), baseline_ooo())
    assert outcome.reg(R1) == 107


def test_back_to_back_violations():
    """Multiple memory-order violations in one run replay correctly."""
    asm = Assembler()
    base = 0xF000
    asm.word(base, 5)
    asm.li(R1, 6)
    asm.li(R5, 1)
    asm.li(R7, 0)
    asm.label("loop")
    asm.li(R2, base * 2)
    asm.li(R3, 2)
    asm.div(R4, R2, R3)  # = base, slowly
    asm.add(R6, R1, R5)
    asm.store(R6, R4, 0)  # address resolves late
    asm.load(R6, R0, base)  # bypasses, violates, replays
    asm.add(R7, R7, R6)
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    outcome = simulate(asm.build(), baseline_ooo())
    # Architectural: each iteration stores (i + 1) then loads it back.
    assert outcome.reg(R7) == sum(i + 1 for i in range(6, 0, -1))
    assert outcome.stats.memory_violations >= 2


def test_nda_full_protection_with_all_edge_cases_composed():
    """Fence + nested branches + violations under the strictest policy."""
    asm = Assembler()
    base = 0xF800
    asm.word(base, 3)
    asm.li(R1, 4)
    asm.li(R7, 0)
    asm.label("loop")
    asm.li(R2, base * 2)
    asm.li(R3, 2)
    asm.div(R4, R2, R3)
    asm.store(R1, R4, 0)
    asm.load(R6, R0, base)
    asm.add(R7, R7, R6)
    asm.fence()
    asm.andi(R5, R1, 1)
    asm.beq(R5, R0, "skip")
    asm.addi(R7, R7, 1000)
    asm.label("skip")
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    from repro.isa.semantics import run_reference
    program = asm.build()
    reference = run_reference(program)
    outcome = simulate(
        program, nda_config(NDAPolicyName.FULL_PROTECTION)
    )
    assert outcome.reg(R7) == reference.regs[R7]
