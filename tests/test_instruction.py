"""Unit tests for static instruction construction."""

import pytest

from repro.errors import AssemblyError
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import LR, R1, R2, R3


class TestConstruction:
    def test_alu_sources_and_dest(self):
        instr = Instr(Opcode.ADD, rd=R3, rs1=R1, rs2=R2)
        assert instr.rd == R3
        assert instr.srcs == (R1, R2)

    def test_imm_op_single_source(self):
        instr = Instr(Opcode.ADDI, rd=R3, rs1=R1, imm=5)
        assert instr.srcs == (R1,)
        assert instr.imm == 5

    def test_li_no_sources(self):
        instr = Instr(Opcode.LI, rd=R1, imm=99)
        assert instr.srcs == ()

    def test_call_implicit_link_register(self):
        instr = Instr(Opcode.CALL, target=0)
        assert instr.rd == LR

    def test_callr_implicit_link_register(self):
        instr = Instr(Opcode.CALLR, rs1=R1)
        assert instr.rd == LR
        assert instr.srcs == (R1,)

    def test_ret_implicit_link_source(self):
        instr = Instr(Opcode.RET)
        assert instr.srcs == (LR,)

    def test_store_operand_order(self):
        # srcs[0] is the address base, srcs[1] the stored value.
        instr = Instr(Opcode.STORE, rs1=R1, rs2=R2, imm=8)
        assert instr.srcs == (R1, R2)

    def test_non_dest_ops_drop_rd(self):
        instr = Instr(Opcode.NOP, rd=R1)
        assert instr.rd is None

    def test_pc_assigned_later(self):
        instr = Instr(Opcode.NOP)
        assert instr.pc == -1

    def test_is_mem_property(self):
        assert Instr(Opcode.LOAD, rd=R1, rs1=R2).is_mem
        assert Instr(Opcode.CLFLUSH, rs1=R2).is_mem
        assert not Instr(Opcode.ADD, rd=R1, rs1=R2, rs2=R3).is_mem

    def test_repr_mentions_opcode(self):
        assert "add" in repr(Instr(Opcode.ADD, rd=R1, rs1=R2, rs2=R3))


class TestValidation:
    def test_missing_dest_raises(self):
        with pytest.raises(AssemblyError):
            Instr(Opcode.ADD, rs1=R1, rs2=R2)

    def test_bad_dest_register(self):
        with pytest.raises(AssemblyError):
            Instr(Opcode.ADD, rd=999, rs1=R1, rs2=R2)

    def test_bad_source_register(self):
        with pytest.raises(AssemblyError):
            Instr(Opcode.ADD, rd=R1, rs1=-3, rs2=R2)

    def test_direct_branch_needs_target(self):
        with pytest.raises(AssemblyError):
            Instr(Opcode.BEQ, rs1=R1, rs2=R2)
        with pytest.raises(AssemblyError):
            Instr(Opcode.JMP)

    def test_indirect_branch_needs_register(self):
        with pytest.raises(AssemblyError):
            Instr(Opcode.JR)

    def test_wrong_source_count(self):
        cases = [
            (Opcode.ADD, R2, None, 2, 1),
            (Opcode.STORE, R2, None, 2, 1),
            (Opcode.LOAD, R2, R3, 1, 2),
            (Opcode.RET, None, R2, 1, 2),  # plus the implicit LR source
            (Opcode.LI, R2, None, 0, 1),
            (Opcode.JMP, R2, None, 0, 1),
        ]
        for op, rs1, rs2, expected, got in cases:
            message = "expects %d source registers, got %d" % (expected, got)
            with pytest.raises(AssemblyError, match=message):
                Instr(op, rd=R1, rs1=rs1, rs2=rs2, target=0)
