"""Tests for architectural semantics and the reference machine."""

from repro.isa.assembler import Assembler
from repro.isa.opcodes import Opcode
from repro.isa.registers import R0, R1, R2, R3, R4, R5
from repro.isa.semantics import (
    ReferenceMachine,
    branch_taken,
    eval_alu,
    run_reference,
    to_signed,
    to_unsigned,
)

U64 = (1 << 64) - 1


class TestScalarHelpers:
    def test_to_signed_positive(self):
        assert to_signed(5) == 5

    def test_to_signed_negative(self):
        assert to_signed(U64) == -1
        assert to_signed(1 << 63) == -(1 << 63)

    def test_to_unsigned_roundtrip(self):
        assert to_unsigned(-1) == U64
        assert to_signed(to_unsigned(-12345)) == -12345


class TestEvalAlu:
    def test_add_wraps(self):
        assert eval_alu(Opcode.ADD, U64, 1, 0) == 0

    def test_sub_wraps(self):
        assert eval_alu(Opcode.SUB, 0, 1, 0) == U64

    def test_bitwise(self):
        assert eval_alu(Opcode.AND, 0b1100, 0b1010, 0) == 0b1000
        assert eval_alu(Opcode.OR, 0b1100, 0b1010, 0) == 0b1110
        assert eval_alu(Opcode.XOR, 0b1100, 0b1010, 0) == 0b0110

    def test_shifts_mask_amount(self):
        assert eval_alu(Opcode.SHL, 1, 64, 0) == 1  # shift amount mod 64
        assert eval_alu(Opcode.SHR, 8, 3, 0) == 1

    def test_shift_immediates(self):
        assert eval_alu(Opcode.SHLI, 1, 0, 4) == 16
        assert eval_alu(Opcode.SHRI, 32, 0, 4) == 2

    def test_slt_signed(self):
        assert eval_alu(Opcode.SLT, U64, 0, 0) == 1  # -1 < 0
        assert eval_alu(Opcode.SLT, 0, U64, 0) == 0

    def test_li_ignores_sources(self):
        assert eval_alu(Opcode.LI, 123, 456, 7) == 7

    def test_mul(self):
        assert eval_alu(Opcode.MUL, 3, 5, 0) == 15

    def test_div_signed(self):
        assert eval_alu(Opcode.DIV, 15, 3, 0) == 5
        minus_fifteen = to_unsigned(-15)
        assert to_signed(eval_alu(Opcode.DIV, minus_fifteen, 3, 0)) == -5

    def test_div_by_zero_defined(self):
        assert eval_alu(Opcode.DIV, 5, 0, 0) == U64

    def test_fadd_roundtrip(self):
        import struct
        two = int.from_bytes(struct.pack("<d", 2.0), "little")
        three = int.from_bytes(struct.pack("<d", 3.0), "little")
        result = eval_alu(Opcode.FADD, two, three, 0)
        assert struct.unpack("<d", result.to_bytes(8, "little"))[0] == 5.0

    def test_fdiv_by_zero_defined(self):
        assert eval_alu(Opcode.FDIV, 123, 0, 0) == 0


class TestBranchTaken:
    def test_beq(self):
        assert branch_taken(Opcode.BEQ, 5, 5)
        assert not branch_taken(Opcode.BEQ, 5, 6)

    def test_bne(self):
        assert branch_taken(Opcode.BNE, 5, 6)

    def test_blt_signed(self):
        assert branch_taken(Opcode.BLT, U64, 0)  # -1 < 0
        assert not branch_taken(Opcode.BLT, 0, U64)

    def test_bge(self):
        assert branch_taken(Opcode.BGE, 7, 7)
        assert not branch_taken(Opcode.BGE, U64, 0)


class TestReferenceMachine:
    def test_simple_loop(self):
        asm = Assembler()
        asm.li(R1, 5)
        asm.li(R2, 0)
        asm.label("loop")
        asm.addi(R2, R2, 2)
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R2] == 10
        assert state.halted

    def test_memory_roundtrip(self):
        asm = Assembler()
        asm.li(R1, 0xABCD)
        asm.store(R1, R0, 0x100)
        asm.load(R2, R0, 0x100)
        asm.loadb(R3, R0, 0x100)
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R2] == 0xABCD
        assert state.regs[R3] == 0xCD

    def test_call_and_ret(self):
        asm = Assembler()
        asm.jmp("main")
        asm.label("double")
        asm.add(R2, R1, R1)
        asm.ret()
        asm.label("main")
        asm.li(R1, 21)
        asm.call("double")
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R2] == 42

    def test_indirect_jump(self):
        asm = Assembler()
        asm.li(R1, 3)
        asm.jr(R1)
        asm.halt()  # skipped
        asm.li(R2, 9)
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R2] == 9

    def test_r0_stays_zero(self):
        asm = Assembler()
        asm.addi(R0, R0, 5)
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R0] == 0

    def test_initial_regs_installed(self):
        asm = Assembler()
        asm.init_reg(R4, 77)
        asm.add(R5, R4, R4)
        asm.halt()
        assert run_reference(asm.build()).regs[R5] == 154

    def test_fault_without_handler_halts(self):
        asm = Assembler()
        asm.privileged_range(0x1000, 0x2000)
        asm.load(R1, R0, 0x1000)
        asm.li(R2, 1)  # never reached
        asm.halt()
        state = run_reference(asm.build())
        assert state.halted
        assert state.faults == 1
        assert state.regs[R2] == 0
        assert state.regs[R1] == 0  # faulting load writes nothing

    def test_fault_with_handler_redirects(self):
        asm = Assembler()
        asm.privileged_range(0x1000, 0x2000)
        asm.fault_handler("handler")
        asm.load(R1, R0, 0x1000)
        asm.halt()
        asm.label("handler")
        asm.li(R2, 99)
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R2] == 99
        assert state.faults == 1

    def test_store_to_privileged_faults(self):
        asm = Assembler()
        asm.privileged_range(0x1000, 0x2000)
        asm.li(R1, 5)
        asm.store(R1, R0, 0x1000)
        asm.halt()
        state = run_reference(asm.build())
        assert state.faults == 1
        assert state.memory.read_word(0x1000) == 0

    def test_privileged_mode_allows_access(self):
        asm = Assembler()
        asm.privileged_range(0x1000, 0x2000)
        asm.word(0x1000, 7)
        asm.load(R1, R0, 0x1000)
        asm.halt()
        machine = ReferenceMachine(asm.build(), privileged_mode=True)
        state = machine.run()
        assert state.regs[R1] == 7
        assert state.faults == 0

    def test_rdmsr_privilege(self):
        asm = Assembler()
        asm.msr(3, 42)
        asm.rdmsr(R1, 3)
        asm.halt()
        user_state = run_reference(asm.build())
        assert user_state.faults == 1
        priv_state = ReferenceMachine(
            asm.build(), privileged_mode=True
        ).run()
        assert priv_state.regs[R1] == 42

    def test_rdtsc_monotonic(self):
        asm = Assembler()
        asm.rdtsc(R1)
        asm.rdtsc(R2)
        asm.halt()
        state = run_reference(asm.build())
        assert state.regs[R2] > state.regs[R1]

    def test_running_off_the_end_halts(self):
        asm = Assembler()
        asm.nop()
        state = run_reference(asm.build())
        assert state.halted

    def test_max_steps_bounds_execution(self):
        asm = Assembler()
        asm.label("forever")
        asm.jmp("forever")
        state = run_reference(asm.build(), max_steps=10)
        assert not state.halted
        assert state.committed == 10

    def test_clflush_architectural_noop(self):
        asm = Assembler()
        asm.word(0x100, 5)
        asm.clflush(R0, 0x100)
        asm.load(R1, R0, 0x100)
        asm.halt()
        assert run_reference(asm.build()).regs[R1] == 5
