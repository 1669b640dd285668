"""Dedicated tests for the in-order timing core."""

import pytest

from repro.config import baseline_ooo
from repro.api import simulate
from repro.core.inorder import InOrderCore
from repro.isa.assembler import Assembler
from repro.isa.registers import R0, R1, R2, R3


def test_basic_arithmetic():
    asm = Assembler()
    asm.li(R1, 6)
    asm.li(R2, 7)
    asm.mul(R3, R1, R2)
    asm.halt()
    outcome = simulate(asm.build(), in_order=True)
    assert outcome.reg(R3) == 42


def test_cpi_at_least_one():
    asm = Assembler()
    for _ in range(50):
        asm.nop()
    asm.halt()
    outcome = simulate(asm.build(), in_order=True)
    assert outcome.cpi >= 1.0


def test_memory_ops_pay_cache_latency():
    asm = Assembler()
    asm.load(R1, R0, 0x1000)
    asm.halt()
    miss = simulate(asm.build(), in_order=True)
    asm2 = Assembler()
    asm2.load(R1, R0, 0x1000)
    asm2.load(R2, R0, 0x1000)  # second access hits
    asm2.halt()
    warm = simulate(asm2.build(), in_order=True)
    # The second load costs far less than the first.
    assert warm.stats.cycles - miss.stats.cycles < 40


def test_no_speculation_means_no_wrong_path():
    """An in-order core never touches memory it does not architecturally
    access — the branch's not-taken side leaves no cache footprint."""
    asm = Assembler()
    probe = 0xABC000
    asm.li(R1, 1)
    asm.li(R2, probe)
    asm.beq(R1, R0, "skip")  # not taken
    asm.jmp("end")
    asm.label("skip")
    asm.load(R3, R2, 0)
    asm.label("end")
    asm.halt()
    core = InOrderCore(asm.build(), baseline_ooo())
    core.run()
    assert not core.hierarchy.l1d.probe(probe)


def test_serial_execution_ilp_capped_at_one():
    from repro.workloads.kernels import wide_alu
    outcome = simulate(wide_alu(300), in_order=True)
    assert 0 < outcome.stats.ilp <= 1.0
    assert outcome.stats.mlp <= 1.0


def test_fault_handling():
    asm = Assembler()
    asm.privileged_range(0x5000, 0x6000)
    asm.fault_handler("handler")
    asm.load(R1, R0, 0x5000)
    asm.halt()
    asm.label("handler")
    asm.li(R2, 3)
    asm.halt()
    outcome = simulate(asm.build(), in_order=True)
    assert outcome.reg(R2) == 3
    assert outcome.stats.faults == 1


def test_rdmsr_privileged_mode():
    from dataclasses import replace
    asm = Assembler()
    asm.msr(1, 88)
    asm.rdmsr(R1, 1)
    asm.halt()
    config = replace(baseline_ooo(), privileged_mode=True)
    outcome = InOrderCore(asm.build(), config).run()
    assert outcome.reg(R1) == 88


def test_clflush_evicts():
    asm = Assembler()
    asm.li(R1, 0x2000)
    asm.load(R2, R1, 0)
    asm.clflush(R1, 0)
    asm.halt()
    core = InOrderCore(asm.build(), baseline_ooo())
    core.run()
    assert not core.hierarchy.l1d.probe(0x2000)


def test_indirect_control_flow():
    asm = Assembler()
    asm.li(R1, 4)
    asm.jr(R1)
    asm.halt()
    asm.nop()
    asm.li(R2, 5)
    asm.halt()
    outcome = simulate(asm.build(), in_order=True)
    assert outcome.reg(R2) == 5


def test_cycle_classes_cover_all_cycles():
    from repro.workloads.kernels import mispredict_heavy
    outcome = simulate(mispredict_heavy(200), in_order=True)
    assert sum(outcome.stats.cycle_class.values()) == outcome.stats.cycles


def test_max_cycles_raises_deadlock():
    from repro.errors import DeadlockError
    asm = Assembler()
    asm.label("spin")
    asm.jmp("spin")
    with pytest.raises(DeadlockError):
        simulate(asm.build(), max_cycles=500, in_order=True)


def test_label():
    asm = Assembler()
    asm.halt()
    assert simulate(asm.build(), in_order=True).label == "In-Order"
