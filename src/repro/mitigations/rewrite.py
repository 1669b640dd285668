"""Binary-rewriting engine for software mitigation passes.

The paper's §3.2 surveys software defenses (improved ``lfence`` insertion,
speculative load hardening, Retpoline) and argues they are per-technique
patches that must be compiled into every binary.  This package implements
such passes *as program transformations* over the micro-op ISA so their
security and cost can be measured on the same simulator as NDA.

The engine inserts instructions before chosen PCs and relocates every
static branch target and the fault handler.  **Indirect targets held in
data memory cannot be relocated** — exactly the limitation real binary
rewriting has — so passes refuse programs whose indirect branches they
would break unless the caller opts in.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import AssemblyError
from repro.isa.instruction import Instr
from repro.isa.program import Program


def clone_instr(instr: Instr) -> Instr:
    """Fresh, unlinked copy of a static instruction."""
    rs1 = instr.srcs[0] if len(instr.srcs) >= 1 else None
    rs2 = instr.srcs[1] if len(instr.srcs) >= 2 else None
    return Instr(
        instr.op,
        rd=instr.rd,
        rs1=rs1,
        rs2=rs2,
        imm=instr.imm,
        target=instr.target,
    )


def has_indirect_branches(program: Program) -> bool:
    """Does the program contain branches whose targets live in registers?

    (``RET`` is exempt: its target is a return address produced by a
    ``CALL`` *after* rewriting, so it relocates automatically.)
    """
    return any(
        instr.info.is_indirect and not instr.info.is_ret
        for instr in program.instrs
    )


def insert_instructions(
    program: Program,
    insertions: Dict[int, List[Instr]],
    allow_indirect: bool = False,
    name_suffix: str = "+rewritten",
) -> Program:
    """Insert ``insertions[pc]`` before original instruction *pc*.

    All static branch targets and the fault handler are relocated.  Raises
    :class:`~repro.errors.AssemblyError` for programs with register-indirect
    branches unless *allow_indirect* is set (the caller then guarantees no
    code address ever flows through data).
    """
    if not allow_indirect and has_indirect_branches(program):
        raise AssemblyError(
            "program %r has indirect branches whose targets cannot be "
            "relocated; pass allow_indirect=True only if no code address "
            "is materialized in data or registers" % program.name
        )
    for pc in insertions:
        if not 0 <= pc <= len(program.instrs):
            raise AssemblyError("insertion point %d out of range" % pc)

    # First pass: compute the relocation map old_pc -> new_pc.
    relocation: Dict[int, int] = {}
    new_pc = 0
    for old_pc in range(len(program.instrs)):
        new_pc += len(insertions.get(old_pc, ()))
        relocation[old_pc] = new_pc
        new_pc += 1
    relocation[len(program.instrs)] = new_pc  # one-past-the-end

    # Second pass: emit, fixing targets.
    new_instrs: List[Instr] = []
    for old_pc, instr in enumerate(program.instrs):
        for inserted in insertions.get(old_pc, ()):
            new_instrs.append(clone_instr(inserted))
        fixed = clone_instr(instr)
        if fixed.target is not None:
            fixed.target = relocation[instr.target]
        new_instrs.append(fixed)

    handler = program.fault_handler
    if handler is not None:
        handler = relocation[handler]
    return Program(
        new_instrs,
        data=dict(program.data),
        privileged=program.privileged,
        msrs=dict(program.msrs),
        fault_handler=handler,
        initial_regs=dict(program.initial_regs),
        name=program.name + name_suffix,
    )


def static_overhead(original: Program, hardened: Program) -> float:
    """Fractional static code-size growth of a pass."""
    return (len(hardened) - len(original)) / len(original)
