"""Static instruction representation.

An :class:`Instr` is one *static* micro-op of a program.  The pipeline
creates lightweight dynamic instances (ROB entries) that point back at these
static objects, so ``Instr`` precomputes everything the hot loops need:
the source-register tuple, the destination register, and the static
:class:`~repro.isa.opcodes.OpInfo`.

Instructions are addressed by instruction index: the PC of the *i*-th
instruction of a program is simply *i*.  Data memory lives in a separate
byte-addressable space (see :mod:`repro.memory.memory`).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import AssemblyError
from repro.isa.opcodes import FUType, Opcode, OpInfo, info
from repro.isa.registers import LR, is_arch_reg, reg_name

# Opcodes whose destination register is implicitly the link register.
_CALL_OPS = (Opcode.CALL, Opcode.CALLR)

#: Register sources each opcode must have; an opcode missing here takes
#: any number.  A module-level table because every ``Instr`` checks it
#: and program generation builds thousands of them.
_SRC_COUNTS = {
    **dict.fromkeys((
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.SHR, Opcode.SLT, Opcode.MUL, Opcode.DIV,
        Opcode.FADD, Opcode.FMUL, Opcode.FDIV,
        Opcode.STORE, Opcode.STOREB,
        Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
    ), 2),
    **dict.fromkeys((
        Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
        Opcode.SHLI, Opcode.SHRI,
        Opcode.LOAD, Opcode.LOADB, Opcode.CLFLUSH,
        Opcode.JR, Opcode.CALLR, Opcode.RET,
    ), 1),
    **dict.fromkeys((
        Opcode.LI, Opcode.JMP, Opcode.CALL, Opcode.RDTSC, Opcode.RDMSR,
        Opcode.FENCE, Opcode.NOP, Opcode.HALT,
    ), 0),
}


class Instr:
    """One static micro-op.

    Attributes:
        op: the :class:`Opcode`.
        info: cached :class:`OpInfo` for ``op``.
        rd: destination architectural register or ``None``.
        srcs: tuple of source architectural registers (possibly empty).
        imm: immediate operand (offset for memory ops, literal for ALU-imm
            ops, MSR index for ``RDMSR``).
        target: static branch/jump/call target PC, or ``None`` for indirect
            branches (whose target comes from ``srcs[0]``) and non-branches.
        pc: instruction index within its program, assigned at build time.
    """

    __slots__ = ("op", "info", "rd", "srcs", "imm", "target", "pc")

    def __init__(
        self,
        op: Opcode,
        rd: Optional[int] = None,
        rs1: Optional[int] = None,
        rs2: Optional[int] = None,
        imm: int = 0,
        target: Optional[int] = None,
    ):
        op_info: OpInfo = info(op)
        self.op = op
        self.info = op_info
        self.imm = imm
        self.target = target
        self.pc = -1  # assigned by Program

        if op in _CALL_OPS:
            rd = LR
        if op is Opcode.RET:
            rs1 = LR
        if not op_info.writes_dest:
            rd = None
        self.rd = rd

        srcs = []
        if rs1 is not None:
            srcs.append(rs1)
        if rs2 is not None:
            srcs.append(rs2)
        self.srcs = tuple(srcs)

        self._validate()

    def _validate(self) -> None:
        op_info = self.info
        if op_info.writes_dest and self.rd is None:
            raise AssemblyError("%s requires a destination register" % self.op)
        if self.rd is not None and not is_arch_reg(self.rd):
            raise AssemblyError("bad destination register %r" % (self.rd,))
        for src in self.srcs:
            if not is_arch_reg(src):
                raise AssemblyError("bad source register %r" % (src,))
        if op_info.is_branch and not op_info.is_indirect:
            if self.target is None:
                raise AssemblyError("%s requires a static target" % self.op)
        if op_info.is_indirect and not op_info.is_ret and not self.srcs:
            raise AssemblyError("%s requires a target register" % self.op)
        expected = _SRC_COUNTS.get(self.op)
        if expected is not None and len(self.srcs) != expected:
            raise AssemblyError(
                "%s expects %d source registers, got %d"
                % (self.op, expected, len(self.srcs))
            )

    @property
    def is_mem(self) -> bool:
        """True for micro-ops that use the memory port."""
        return self.info.fu is FUType.MEM

    def __repr__(self) -> str:
        parts = [self.op.value]
        if self.rd is not None:
            parts.append(reg_name(self.rd))
        parts.extend(reg_name(s) for s in self.srcs)
        if self.imm:
            parts.append("#%d" % self.imm)
        if self.target is not None:
            parts.append("@%s" % (self.target,))
        return "<%s pc=%d>" % (" ".join(parts), self.pc)
