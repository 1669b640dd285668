"""Table-driven micro-op pre-decode.

The cycle-level cores interpret :class:`~repro.isa.instruction.Instr`
objects: every hot phase chases ``entry.instr.info.<attr>`` attribute
chains and dispatches on :class:`~repro.isa.opcodes.Opcode` enum members
(identity tests in ``_complete``, enum-keyed dicts in the FU pool).  At
~100k dynamic micro-ops per second of host time, those lookups *are* the
interpreter.

This module lowers a :class:`~repro.isa.program.Program` **once** into a
:class:`MicroProgram`: dense parallel arrays indexed by static PC — int
opcode ids, an int flags bitmask, int FU ids, operand register tuples,
immediates, branch targets — plus one pre-bound execute closure per
static micro-op.  The closures are built from the per-opcode factories in
:data:`ALU_FACTORIES` / :data:`COND_FACTORIES`, which are written against
the same definitions as :func:`repro.isa.semantics.eval_alu` and
:func:`repro.isa.semantics.branch_taken`; ``tests/test_microops.py``
property-checks the equivalence over randomized operands for every
opcode.

The out-of-order core (:mod:`repro.core.ooo`) replaces per-cycle
attribute/dict lookups with integer-indexed reads of these arrays.
Lowering is cached per :class:`Program` identity, which is what lets
every window of one sweep program (one per configuration) and repeated
benchmark runs share one decode table.
The cache is a ``WeakKeyDictionary`` keyed on the program and the
tables hold no reference back to it, so an entry dies with its program.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.instruction import Instr
from repro.isa.opcodes import OP_INFO, FUType, Opcode
from repro.isa.program import Program
from repro.isa.semantics import to_signed
from repro.memory.memory import U64_MASK

# --------------------------------------------------------------------- #
# Shared (program-independent) dispatch tables.
# --------------------------------------------------------------------- #

#: Stable int id per opcode (definition order of the Opcode enum).
OP_ID: Dict[Opcode, int] = {op: i for i, op in enumerate(Opcode)}
OP_BY_ID: Tuple[Opcode, ...] = tuple(Opcode)

#: Stable int id per functional-unit class.
FU_ID: Dict[FUType, int] = {fu: i for i, fu in enumerate(FUType)}
FU_BY_ID: Tuple[FUType, ...] = tuple(FUType)

# Flags bitmask: one bit per OpInfo boolean the pipeline consults, plus
# derived bits the hot loops want precomputed.
F_LOAD = 1 << 0
F_STORE = 1 << 1
F_BRANCH = 1 << 2
F_INDIRECT = 1 << 3
F_CONDITIONAL = 1 << 4
F_CALL = 1 << 5
F_RET = 1 << 6
F_LOAD_LIKE = 1 << 7
F_SERIALIZING = 1 << 8
F_WRITES_DEST = 1 << 9
F_MEM_BYTE = 1 << 10  # LOADB / STOREB: one-byte access
F_MEM = 1 << 11  # occupies the memory FU (loads, stores, clflush)

# Execute-kind: which arm of the writeback/complete dispatch the op takes.
# One arm per distinct completion behaviour in OutOfOrderCore._writeback.
K_ALU = 0  # eval via the pre-bound closure
K_BRANCH = 1
K_STORE = 2
K_LOAD = 3  # result produced by the memory phase
K_CLFLUSH = 4
K_RDTSC = 5
K_RDMSR = 6
K_PASS = 7  # NOP / FENCE / HALT: nothing to compute

_SIXTY_THREE = 63


def _flags_for(op: Opcode) -> int:
    info = OP_INFO[op]
    flags = 0
    if info.is_load:
        flags |= F_LOAD
    if info.is_store:
        flags |= F_STORE
    if info.is_branch:
        flags |= F_BRANCH
    if info.is_indirect:
        flags |= F_INDIRECT
    if info.is_conditional:
        flags |= F_CONDITIONAL
    if info.is_call:
        flags |= F_CALL
    if info.is_ret:
        flags |= F_RET
    if info.is_load_like:
        flags |= F_LOAD_LIKE
    if info.is_serializing:
        flags |= F_SERIALIZING
    if info.writes_dest:
        flags |= F_WRITES_DEST
    if op in (Opcode.LOADB, Opcode.STOREB):
        flags |= F_MEM_BYTE
    if info.fu is FUType.MEM:
        flags |= F_MEM
    return flags


#: op -> flags bitmask (program-independent).
OP_FLAGS: Dict[Opcode, int] = {op: _flags_for(op) for op in Opcode}
OP_FLAGS_BY_ID: Tuple[int, ...] = tuple(OP_FLAGS[op] for op in OP_BY_ID)


def _kind_for(op: Opcode) -> int:
    info = OP_INFO[op]
    if info.is_branch:
        return K_BRANCH
    if info.is_store:
        return K_STORE
    if op is Opcode.CLFLUSH:
        return K_CLFLUSH
    if op is Opcode.RDTSC:
        return K_RDTSC
    if op is Opcode.RDMSR:
        return K_RDMSR
    if info.is_load:
        return K_LOAD
    if op in (Opcode.NOP, Opcode.FENCE, Opcode.HALT):
        return K_PASS
    return K_ALU


OP_KIND: Dict[Opcode, int] = {op: _kind_for(op) for op in Opcode}


# --------------------------------------------------------------------- #
# Per-opcode execute-closure factories.
#
# Each factory takes the static immediate and returns a closure
# ``fn(a, b) -> result``; the bound immediate removes one operand fetch
# and the opcode dispatch from the per-completion hot path.  These must
# compute exactly what :func:`repro.isa.semantics.eval_alu` computes —
# the property test compares them opcode by opcode.
# --------------------------------------------------------------------- #


def _f_add(imm):
    return lambda a, b: (a + b) & U64_MASK


def _f_sub(imm):
    return lambda a, b: (a - b) & U64_MASK


def _f_and(imm):
    return lambda a, b: a & b


def _f_or(imm):
    return lambda a, b: a | b


def _f_xor(imm):
    return lambda a, b: a ^ b


def _f_shl(imm):
    return lambda a, b: (a << (b & _SIXTY_THREE)) & U64_MASK


def _f_shr(imm):
    return lambda a, b: (a & U64_MASK) >> (b & _SIXTY_THREE)


def _f_slt(imm):
    return lambda a, b: 1 if to_signed(a) < to_signed(b) else 0


def _f_addi(imm):
    return lambda a, b: (a + imm) & U64_MASK


def _f_andi(imm):
    masked = imm & U64_MASK
    return lambda a, b: a & masked


def _f_ori(imm):
    masked = imm & U64_MASK
    return lambda a, b: a | masked


def _f_xori(imm):
    masked = imm & U64_MASK
    return lambda a, b: a ^ masked


def _f_shli(imm):
    shift = imm & _SIXTY_THREE
    return lambda a, b: (a << shift) & U64_MASK


def _f_shri(imm):
    shift = imm & _SIXTY_THREE
    return lambda a, b: (a & U64_MASK) >> shift


def _f_li(imm):
    value = imm & U64_MASK
    return lambda a, b: value


def _f_mul(imm):
    return lambda a, b: (a * b) & U64_MASK


def _f_div(imm):
    def div(a, b):
        divisor = to_signed(b)
        if divisor == 0:
            return U64_MASK
        return (to_signed(a) // divisor) & U64_MASK

    return div


def _f_fadd(imm):
    from repro.isa.semantics import _as_f64, _from_f64

    return lambda a, b: _from_f64(_as_f64(a) + _as_f64(b))


def _f_fmul(imm):
    from repro.isa.semantics import _as_f64, _from_f64

    return lambda a, b: _from_f64(_as_f64(a) * _as_f64(b))


def _f_fdiv(imm):
    from repro.isa.semantics import _as_f64, _from_f64

    def fdiv(a, b):
        fb = _as_f64(b)
        if fb == 0.0 or fb != fb:
            return 0
        return _from_f64(_as_f64(a) / fb)

    return fdiv


#: ALU-kind opcode -> closure factory.  Exactly the opcodes
#: :func:`repro.isa.semantics.eval_alu` accepts.
ALU_FACTORIES: Dict[Opcode, Callable] = {
    Opcode.ADD: _f_add,
    Opcode.SUB: _f_sub,
    Opcode.AND: _f_and,
    Opcode.OR: _f_or,
    Opcode.XOR: _f_xor,
    Opcode.SHL: _f_shl,
    Opcode.SHR: _f_shr,
    Opcode.SLT: _f_slt,
    Opcode.ADDI: _f_addi,
    Opcode.ANDI: _f_andi,
    Opcode.ORI: _f_ori,
    Opcode.XORI: _f_xori,
    Opcode.SHLI: _f_shli,
    Opcode.SHRI: _f_shri,
    Opcode.LI: _f_li,
    Opcode.MUL: _f_mul,
    Opcode.DIV: _f_div,
    Opcode.FADD: _f_fadd,
    Opcode.FMUL: _f_fmul,
    Opcode.FDIV: _f_fdiv,
}

#: Conditional-branch opcode -> direction closure ``fn(a, b) -> bool``.
#: Must match :func:`repro.isa.semantics.branch_taken`.
COND_FNS: Dict[Opcode, Callable] = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Opcode.BGE: lambda a, b: to_signed(a) >= to_signed(b),
}


def eval_uop(op: Opcode, a: int, b: int, imm: int) -> int:
    """Table-driven equivalent of :func:`repro.isa.semantics.eval_alu`.

    Exists for the property tests; the core binds the closure per
    static micro-op instead of dispatching per dynamic one.
    """
    factory = ALU_FACTORIES.get(op)
    if factory is None:
        from repro.errors import SimulationError

        raise SimulationError("eval_uop cannot evaluate %s" % op)
    return factory(imm)(a, b)


# --------------------------------------------------------------------- #
# The lowered program.
# --------------------------------------------------------------------- #


class MicroProgram:
    """One program lowered to dense, integer-indexed parallel arrays.

    Every list is indexed by static PC (instruction index).  The arrays
    carry only *static* facts — the dynamic state stays on
    :class:`~repro.core.rob.DynInstr` — so one ``MicroProgram`` is safely
    shared by every core that runs its program.
    """

    __slots__ = (
        "n",
        "op_ids", "kinds", "flags", "fu_ids", "latency",
        "rd", "srcs", "imm", "target",
        "exec_fns", "cond_fns",
    )

    def __init__(self, program: Program):
        # No back-reference to *program*: the lowering cache holds this
        # object strongly, so one would keep every program alive.
        instrs = program.instrs
        n = len(instrs)
        self.n = n
        self.op_ids: List[int] = [0] * n
        self.kinds: List[int] = [0] * n
        self.flags: List[int] = [0] * n
        self.fu_ids: List[int] = [0] * n
        self.latency: List[int] = [0] * n
        self.rd: List[int] = [-1] * n  # -1: no destination
        self.srcs: List[tuple] = [()] * n  # shared with Instr.srcs
        self.imm: List[int] = [0] * n
        self.target: List[int] = [-1] * n
        #: K_ALU pcs: pre-bound ``fn(a, b) -> result``; None otherwise.
        self.exec_fns: List[Optional[Callable]] = [None] * n
        #: Conditional-branch pcs: ``fn(a, b) -> taken``; None otherwise.
        self.cond_fns: List[Optional[Callable]] = [None] * n

        for pc, instr in enumerate(instrs):
            self._lower_one(pc, instr)

    def _lower_one(self, pc: int, instr: Instr) -> None:
        op = instr.op
        info = instr.info
        kind = OP_KIND[op]
        self.op_ids[pc] = OP_ID[op]
        self.kinds[pc] = kind
        self.flags[pc] = OP_FLAGS[op]
        self.fu_ids[pc] = FU_ID[info.fu]
        self.latency[pc] = info.latency
        self.rd[pc] = instr.rd if instr.rd is not None else -1
        self.srcs[pc] = instr.srcs
        self.imm[pc] = instr.imm
        self.target[pc] = instr.target if instr.target is not None else -1
        if kind == K_ALU:
            self.exec_fns[pc] = ALU_FACTORIES[op](instr.imm)
        cond = COND_FNS.get(op)
        if cond is not None:
            self.cond_fns[pc] = cond


#: Lowered-program cache: Program identity -> MicroProgram, weak on the
#: program so caching never extends a workload's lifetime.
_CACHE: "weakref.WeakKeyDictionary[Program, MicroProgram]" = (
    weakref.WeakKeyDictionary()
)


def lower_program(program: Program) -> MicroProgram:
    """Lower *program* once; repeated calls return the cached tables."""
    cached = _CACHE.get(program)
    if cached is None:
        cached = MicroProgram(program)
        _CACHE[program] = cached
    return cached
