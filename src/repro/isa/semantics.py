"""Architectural semantics: the single source of truth for what ops compute.

Two consumers share these functions:

* the cycle-level cores (:mod:`repro.core`) call :func:`eval_alu` and
  :func:`branch_taken` from their execute stages, and
* the :class:`ReferenceMachine` here executes whole programs in one
  architectural step per instruction.

Because both paths evaluate through the same code, the property tests can
assert that every pipelined core commits exactly the architectural state the
reference machine computes (the "golden model equivalence" anchor in
DESIGN.md).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, R0
from repro.memory.memory import MainMemory, U64_MASK

_SIGN_BIT = 1 << 63


def to_signed(value: int) -> int:
    """Interpret a 64-bit pattern as a signed integer."""
    value &= U64_MASK
    return value - (1 << 64) if value & _SIGN_BIT else value


def to_unsigned(value: int) -> int:
    """Wrap a Python int into a 64-bit pattern."""
    return value & U64_MASK


def _as_f64(pattern: int) -> float:
    return struct.unpack("<d", (pattern & U64_MASK).to_bytes(8, "little"))[0]


def _from_f64(value: float) -> int:
    try:
        return int.from_bytes(struct.pack("<d", value), "little")
    except (OverflowError, ValueError):
        return 0


def eval_alu(op: Opcode, a: int, b: int, imm: int) -> int:
    """Compute the destination value of a non-memory, non-branch micro-op.

    *a* and *b* are the source register values (*b* is 0 when the op has a
    single register source); *imm* is the instruction immediate.  The result
    is a 64-bit pattern.
    """
    if op is Opcode.ADD:
        return (a + b) & U64_MASK
    if op is Opcode.SUB:
        return (a - b) & U64_MASK
    if op is Opcode.AND:
        return a & b
    if op is Opcode.OR:
        return a | b
    if op is Opcode.XOR:
        return a ^ b
    if op is Opcode.SHL:
        return (a << (b & 63)) & U64_MASK
    if op is Opcode.SHR:
        return (a & U64_MASK) >> (b & 63)
    if op is Opcode.SLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op is Opcode.ADDI:
        return (a + imm) & U64_MASK
    if op is Opcode.ANDI:
        return a & (imm & U64_MASK)
    if op is Opcode.ORI:
        return a | (imm & U64_MASK)
    if op is Opcode.XORI:
        return a ^ (imm & U64_MASK)
    if op is Opcode.SHLI:
        return (a << (imm & 63)) & U64_MASK
    if op is Opcode.SHRI:
        return (a & U64_MASK) >> (imm & 63)
    if op is Opcode.LI:
        return imm & U64_MASK
    if op is Opcode.MUL:
        return (a * b) & U64_MASK
    if op is Opcode.DIV:
        divisor = to_signed(b)
        if divisor == 0:
            return U64_MASK  # x86-like: define instead of faulting
        return to_unsigned(to_signed(a) // divisor)
    if op is Opcode.FADD:
        return _from_f64(_as_f64(a) + _as_f64(b))
    if op is Opcode.FMUL:
        return _from_f64(_as_f64(a) * _as_f64(b))
    if op is Opcode.FDIV:
        fb = _as_f64(b)
        if fb == 0.0 or fb != fb:  # zero or NaN divisor
            return 0
        return _from_f64(_as_f64(a) / fb)
    raise SimulationError("eval_alu cannot evaluate %s" % op)


def branch_taken(op: Opcode, a: int, b: int) -> bool:
    """Direction of a conditional branch given its source values."""
    if op is Opcode.BEQ:
        return a == b
    if op is Opcode.BNE:
        return a != b
    if op is Opcode.BLT:
        return to_signed(a) < to_signed(b)
    if op is Opcode.BGE:
        return to_signed(a) >= to_signed(b)
    raise SimulationError("%s is not a conditional branch" % op)


class Fault(Exception):
    """A privilege violation raised during architectural execution."""

    def __init__(self, pc: int, reason: str):
        super().__init__("fault at pc=%d: %s" % (pc, reason))
        self.pc = pc
        self.reason = reason


@dataclass
class MachineState:
    """Architectural state snapshot used for cross-model comparison."""

    regs: List[int]
    memory: MainMemory
    halted: bool
    pc: int
    committed: int
    faults: int = 0

    def reg(self, index: int) -> int:
        return self.regs[index]


class ReferenceMachine:
    """In-order, one-instruction-per-step architectural evaluator.

    This machine has no micro-architecture at all: no caches, no predictors,
    no speculation.  It defines correct final state.  ``RDTSC`` is the one
    op whose value is timing-dependent; the reference machine returns an
    incrementing virtual counter, and the cross-model property tests simply
    avoid letting RDTSC results flow into final state (or mask them out).
    """

    def __init__(self, program: Program, privileged_mode: bool = False):
        self.program = program
        self.privileged_mode = privileged_mode
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        for reg, value in program.initial_regs.items():
            self.regs[reg] = value & U64_MASK
        self.regs[R0] = 0
        self.memory = MainMemory()
        self.memory.load_image(program.data)
        self.msrs: Dict[int, int] = dict(program.msrs)
        self.pc = 0
        self.halted = False
        self.committed = 0
        self.faults = 0
        self.tsc = 0

    # ------------------------------------------------------------------ #

    def _check_privilege(self, addr: int, pc: int) -> None:
        if not self.privileged_mode and self.program.is_privileged_addr(addr):
            raise Fault(pc, "user access to privileged address %#x" % addr)

    def step(self) -> None:
        """Architecturally execute one instruction."""
        if self.halted:
            return
        instr = self.program.fetch(self.pc)
        if instr is None:
            self.halted = True
            return
        try:
            self._execute(instr)
        except Fault:
            self.faults += 1
            if self.program.fault_handler is None:
                self.halted = True
            else:
                self.pc = self.program.fault_handler
        self.committed += 1
        self.regs[R0] = 0

    def _write(self, rd: Optional[int], value: int) -> None:
        if rd is not None and rd != R0:
            self.regs[rd] = value & U64_MASK

    def _execute(self, instr: Instr) -> None:
        op = instr.op
        regs = self.regs
        next_pc = self.pc + 1

        if op in (Opcode.NOP, Opcode.FENCE):
            pass
        elif op is Opcode.HALT:
            self.halted = True
        elif op is Opcode.LOAD or op is Opcode.LOADB:
            addr = (regs[instr.srcs[0]] + instr.imm) & U64_MASK
            self._check_privilege(addr, instr.pc)
            if op is Opcode.LOAD:
                self._write(instr.rd, self.memory.read_word(addr))
            else:
                self._write(instr.rd, self.memory.read_byte(addr))
        elif op is Opcode.STORE or op is Opcode.STOREB:
            addr = (regs[instr.srcs[0]] + instr.imm) & U64_MASK
            self._check_privilege(addr, instr.pc)
            value = regs[instr.srcs[1]]
            if op is Opcode.STORE:
                self.memory.write_word(addr, value)
            else:
                self.memory.write_byte(addr, value)
        elif op is Opcode.CLFLUSH:
            pass  # cache-only effect; architecturally a no-op
        elif op is Opcode.RDTSC:
            self.tsc += 1
            self._write(instr.rd, self.tsc)
        elif op is Opcode.RDMSR:
            if not self.privileged_mode:
                raise Fault(instr.pc, "user rdmsr %d" % instr.imm)
            self._write(instr.rd, self.msrs.get(instr.imm, 0))
        elif instr.info.is_branch:
            next_pc = self._branch(instr, next_pc)
        else:
            a = regs[instr.srcs[0]] if instr.srcs else 0
            b = regs[instr.srcs[1]] if len(instr.srcs) > 1 else 0
            self._write(instr.rd, eval_alu(op, a, b, instr.imm))

        self.pc = next_pc if not self.halted else self.pc

    def _branch(self, instr: Instr, next_pc: int) -> int:
        op = instr.op
        regs = self.regs
        if instr.info.is_conditional:
            a, b = regs[instr.srcs[0]], regs[instr.srcs[1]]
            return instr.target if branch_taken(op, a, b) else next_pc
        if op is Opcode.JMP:
            return instr.target
        if op is Opcode.JR:
            return regs[instr.srcs[0]] & U64_MASK
        if op is Opcode.CALL:
            self._write(instr.rd, next_pc)
            return instr.target
        if op is Opcode.CALLR:
            target = regs[instr.srcs[0]] & U64_MASK
            self._write(instr.rd, next_pc)
            return target
        if op is Opcode.RET:
            return regs[instr.srcs[0]] & U64_MASK
        raise SimulationError("unhandled branch %s" % op)

    # ------------------------------------------------------------------ #

    def run(self, max_steps: int = 1_000_000) -> MachineState:
        """Execute until HALT / off-the-end, or *max_steps* instructions."""
        steps = 0
        while not self.halted and steps < max_steps:
            self.step()
            steps += 1
        return self.state()

    def state(self) -> MachineState:
        return MachineState(
            regs=list(self.regs),
            memory=self.memory,
            halted=self.halted,
            pc=self.pc,
            committed=self.committed,
            faults=self.faults,
        )


def run_reference(
    program: Program,
    max_steps: int = 1_000_000,
    privileged_mode: bool = False,
) -> MachineState:
    """Convenience wrapper: architecturally execute *program* to completion."""
    machine = ReferenceMachine(program, privileged_mode=privileged_mode)
    return machine.run(max_steps=max_steps)
