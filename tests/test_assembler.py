"""Unit tests for the assembler DSL and program linking."""

import pytest

from repro.errors import AssemblyError
from repro.isa.assembler import Assembler, assemble
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import R0, R1, R2


def test_forward_label_resolution():
    asm = Assembler()
    asm.jmp("end")
    asm.nop()
    asm.label("end")
    asm.halt()
    program = asm.build()
    assert program.instrs[0].target == 2


def test_backward_label_resolution():
    asm = Assembler()
    asm.label("loop")
    asm.addi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    program = asm.build()
    assert program.instrs[1].target == 0


def test_undefined_label_raises():
    asm = Assembler()
    asm.jmp("nowhere")
    with pytest.raises(AssemblyError, match="nowhere"):
        asm.build()


def test_duplicate_label_raises():
    asm = Assembler()
    asm.label("here")
    with pytest.raises(AssemblyError, match="duplicate"):
        asm.label("here")


def test_numeric_targets_pass_through():
    asm = Assembler()
    asm.jmp(1)
    asm.halt()
    assert asm.build().instrs[0].target == 1


def test_target_out_of_range_rejected():
    asm = Assembler()
    asm.jmp(99)
    with pytest.raises(AssemblyError, match="out of range"):
        asm.build()


def test_here_tracks_pc():
    asm = Assembler()
    assert asm.here == 0
    asm.nop()
    assert asm.here == 1


def test_data_and_word_directives():
    asm = Assembler()
    asm.data(0x100, b"\x01\x02")
    asm.word(0x200, 0xDEADBEEF)
    asm.halt()
    program = asm.build()
    assert program.data[0x100] == b"\x01\x02"
    assert program.data[0x200] == (0xDEADBEEF).to_bytes(8, "little")


def test_privileged_range_directive():
    asm = Assembler()
    asm.privileged_range(0x1000, 0x2000)
    asm.halt()
    program = asm.build()
    assert program.is_privileged_addr(0x1000)
    assert program.is_privileged_addr(0x1FFF)
    assert not program.is_privileged_addr(0x2000)


def test_empty_privileged_range_rejected():
    asm = Assembler()
    with pytest.raises(AssemblyError):
        asm.privileged_range(0x2000, 0x1000)


def test_msr_and_fault_handler():
    asm = Assembler()
    asm.msr(7, 1234)
    asm.fault_handler("handler")
    asm.nop()
    asm.label("handler")
    asm.halt()
    program = asm.build()
    assert program.msrs[7] == 1234
    assert program.fault_handler == 1


def test_init_reg():
    asm = Assembler()
    asm.init_reg(R2, 55)
    asm.halt()
    assert asm.build().initial_regs[R2] == 55


def test_subi_is_negative_addi():
    asm = Assembler()
    asm.subi(R1, R2, 5)
    asm.halt()
    instr = asm.build().instrs[0]
    assert instr.op is Opcode.ADDI
    assert instr.imm == -5


def test_mov_is_addi_zero():
    asm = Assembler()
    asm.mov(R1, R2)
    asm.halt()
    instr = asm.build().instrs[0]
    assert instr.op is Opcode.ADDI
    assert instr.imm == 0
    assert instr.srcs == (R2,)


def test_align_pads_to_boundary():
    asm = Assembler()
    asm.nop()
    asm.align(16)
    marker = asm.here
    asm.halt()
    assert marker == 16
    program = asm.build()
    assert all(i.op is Opcode.NOP for i in program.instrs[1:16])


def test_align_noop_when_aligned():
    asm = Assembler()
    asm.align(16)
    assert asm.here == 0


def test_nops_helper():
    asm = Assembler()
    asm.nops(3)
    asm.halt()
    assert len(asm.build()) == 4


def test_assemble_from_raw_instrs():
    program = assemble([
        Instr(Opcode.LI, rd=R1, imm=7),
        Instr(Opcode.HALT),
    ], name="raw")
    assert program.name == "raw"
    assert len(program) == 2


def test_empty_program_rejected():
    with pytest.raises(AssemblyError):
        Assembler().build()


def test_chainable_directives():
    asm = Assembler()
    result = asm.data(0, b"x").word(8, 1).msr(0, 1).init_reg(R1, 1)
    assert result is asm


def test_build_name_override():
    asm = Assembler("orig")
    asm.halt()
    assert asm.build().name == "orig"
    asm2 = Assembler("orig")
    asm2.halt()
    assert asm2.build(name="other").name == "other"
