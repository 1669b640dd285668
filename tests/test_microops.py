"""Property tests for the table-driven micro-op pre-decode.

The core's correctness rests on two claims about
:mod:`repro.isa.microops`:

1. The pre-bound execute closures compute *exactly* what
   :func:`repro.isa.semantics.eval_alu` / ``branch_taken`` compute, for
   every opcode, over the full 64-bit operand range.
2. Lowering preserves every static fact the pipeline consults — flags
   mirror :data:`~repro.isa.opcodes.OP_INFO` booleans, kinds mirror the
   writeback dispatch arms, operands/immediates/targets round-trip.

Plus the end-to-end anchor: the core commits the reference evaluator's
architectural state on kernels that exercise every execute arm.  And
the lowering cache never keeps a program alive.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.core import make_core
from repro.errors import SimulationError
from repro.isa import microops
from repro.isa.instruction import Instr
from repro.isa.microops import (
    ALU_FACTORIES,
    COND_FNS,
    F_BRANCH,
    F_CALL,
    F_CONDITIONAL,
    F_INDIRECT,
    F_LOAD,
    F_LOAD_LIKE,
    F_MEM,
    F_MEM_BYTE,
    F_RET,
    F_SERIALIZING,
    F_STORE,
    F_WRITES_DEST,
    K_ALU,
    K_BRANCH,
    K_CLFLUSH,
    K_LOAD,
    K_PASS,
    K_RDMSR,
    K_RDTSC,
    K_STORE,
    FU_BY_ID,
    OP_BY_ID,
    OP_KIND,
    eval_uop,
    lower_program,
)
from repro.isa.opcodes import OP_INFO, Opcode
from repro.isa.program import Program
from repro.isa.registers import R1, R2, R3
from repro.isa.semantics import branch_taken, eval_alu, run_reference
from repro.workloads.generator import spec_program
from repro.workloads.kernels import ALL_KERNELS

# 64-bit edge patterns every arithmetic identity should survive, plus a
# deterministic random spray (seeded: the test must never flake).
_EDGES = [
    0, 1, 2, 3, 62, 63, 64, 65, 255, 256,
    2**31 - 1, 2**31, 2**32 - 1, 2**32,
    2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1,
    # Float-looking bit patterns: +0.0, -0.0, 1.0, -2.0, inf, -inf, NaN.
    0x0000000000000000, 0x8000000000000000,
    0x3FF0000000000000, 0xC000000000000000,
    0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000001,
]


def _corpus(count: int = 60):
    rng = random.Random(0xC0FFEE)
    return _EDGES + [rng.getrandbits(64) for _ in range(count)]


def _alu_domain():
    """The opcodes eval_alu accepts (probed, not hard-coded)."""
    domain = set()
    for op in Opcode:
        try:
            eval_alu(op, 1, 1, 1)
        except SimulationError:
            continue
        domain.add(op)
    return domain


class TestClosureEquivalence:
    def test_factories_cover_exactly_the_eval_alu_domain(self):
        assert set(ALU_FACTORIES) == _alu_domain()

    @pytest.mark.parametrize(
        "op", sorted(ALU_FACTORIES, key=lambda o: o.value),
        ids=lambda op: op.value,
    )
    def test_eval_uop_matches_eval_alu(self, op):
        values = _corpus()
        rng = random.Random(hash(op.value) & 0xFFFF)
        for _ in range(300):
            a = rng.choice(values)
            b = rng.choice(values)
            imm = rng.choice(values) - 2**63  # immediates may be signed
            assert eval_uop(op, a, b, imm) == eval_alu(op, a, b, imm), (
                "%s diverged on a=%#x b=%#x imm=%d" % (op, a, b, imm)
            )

    def test_cond_fns_cover_exactly_the_conditional_branches(self):
        conds = {
            op for op in Opcode if OP_INFO[op].is_conditional
        }
        assert set(COND_FNS) == conds

    @pytest.mark.parametrize(
        "op", sorted(COND_FNS, key=lambda o: o.value),
        ids=lambda op: op.value,
    )
    def test_cond_fns_match_branch_taken(self, op):
        values = _corpus()
        for a in values:
            for b in values[:20]:
                assert COND_FNS[op](a, b) == branch_taken(op, a, b)

    def test_bound_immediate_is_captured_not_read_back(self):
        # The closure must bind the static immediate at lowering time.
        fn = ALU_FACTORIES[Opcode.ADDI](5)
        assert fn(10, 0) == 15
        assert ALU_FACTORIES[Opcode.LI](-1)(0, 0) == 2**64 - 1


def _instr_for(op: Opcode) -> Instr:
    """A minimal valid Instr for *op* (mirrors assembler constraints)."""
    info = OP_INFO[op]
    two_src = {
        Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
        Opcode.SHL, Opcode.SHR, Opcode.SLT, Opcode.MUL, Opcode.DIV,
        Opcode.FADD, Opcode.FMUL, Opcode.FDIV,
        Opcode.STORE, Opcode.STOREB,
        Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
    }
    one_src = {
        Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
        Opcode.SHLI, Opcode.SHRI, Opcode.LOAD, Opcode.LOADB,
        Opcode.CLFLUSH, Opcode.JR, Opcode.CALLR,
    }
    kwargs = {}
    if info.writes_dest:
        kwargs["rd"] = R1
    if op in two_src:
        kwargs["rs1"], kwargs["rs2"] = R2, R3
    elif op in one_src:
        kwargs["rs1"] = R2
    if info.is_branch and not info.is_indirect:
        kwargs["target"] = 0
    if op is Opcode.RDMSR:
        kwargs["imm"] = 0
    else:
        kwargs["imm"] = 8
    return Instr(op, **kwargs)


class TestLowering:
    def test_every_opcode_lowers(self):
        instrs = [_instr_for(op) for op in Opcode]
        program = Program(instrs, name="all-opcodes")
        mp = lower_program(program)
        assert mp.n == len(instrs)
        for pc, instr in enumerate(instrs):
            op = instr.op
            info = OP_INFO[op]
            assert OP_BY_ID[mp.op_ids[pc]] is op
            flags = mp.flags[pc]
            assert bool(flags & F_LOAD) == info.is_load
            assert bool(flags & F_STORE) == info.is_store
            assert bool(flags & F_BRANCH) == info.is_branch
            assert bool(flags & F_INDIRECT) == info.is_indirect
            assert bool(flags & F_CONDITIONAL) == info.is_conditional
            assert bool(flags & F_CALL) == info.is_call
            assert bool(flags & F_RET) == info.is_ret
            assert bool(flags & F_LOAD_LIKE) == info.is_load_like
            assert bool(flags & F_SERIALIZING) == info.is_serializing
            assert bool(flags & F_WRITES_DEST) == info.writes_dest
            assert bool(flags & F_MEM_BYTE) == (
                op in (Opcode.LOADB, Opcode.STOREB)
            )
            assert bool(flags & F_MEM) == (info.fu.name == "MEM")
            assert FU_BY_ID[mp.fu_ids[pc]] is info.fu
            assert mp.latency[pc] == info.latency
            assert mp.rd[pc] == (
                instr.rd if instr.rd is not None else -1
            )
            assert mp.srcs[pc] == instr.srcs
            assert mp.imm[pc] == instr.imm
            assert mp.target[pc] == (
                instr.target if instr.target is not None else -1
            )
            # Exactly the writeback arm the op's class takes.
            kind = mp.kinds[pc]
            assert kind == OP_KIND[op]
            if info.is_branch:
                assert kind == K_BRANCH
            elif info.is_store:
                assert kind == K_STORE
            elif op is Opcode.CLFLUSH:
                assert kind == K_CLFLUSH
            elif op is Opcode.RDTSC:
                assert kind == K_RDTSC
            elif op is Opcode.RDMSR:
                assert kind == K_RDMSR
            elif info.is_load:
                assert kind == K_LOAD
            elif op in (Opcode.NOP, Opcode.FENCE, Opcode.HALT):
                assert kind == K_PASS
            else:
                assert kind == K_ALU
            # Closures exist exactly where the dispatch needs them.
            assert (mp.exec_fns[pc] is not None) == (kind == K_ALU)
            assert (mp.cond_fns[pc] is not None) == info.is_conditional

    def test_lowering_is_cached_per_program_identity(self):
        program = spec_program("mcf", instructions=200, seed=3)
        assert lower_program(program) is lower_program(program)
        other = spec_program("mcf", instructions=200, seed=3)
        assert lower_program(other) is not lower_program(program)

    def test_cache_entry_dies_with_its_program(self):
        gc.collect()
        microops._CACHE.clear()
        program = spec_program("mcf", instructions=200, seed=3)
        lower_program(program)
        assert len(microops._CACHE) == 1
        del program
        gc.collect()
        assert len(microops._CACHE) == 0


class TestFastEngineEquivalence:
    """The table-driven core commits the reference evaluator's state.

    Timing is pinned by the golden files; this anchors the lowered
    tables' *semantics* on kernels that exercise every execute arm.
    """

    @pytest.mark.parametrize("kernel", ["pointer_chase", "streaming",
                                        "mispredict_heavy",
                                        "store_load_aliasing"])
    def test_kernels_commit_reference_machine_state(self, kernel):
        if kernel == "pointer_chase":
            program = ALL_KERNELS[kernel](300, 512)
        elif kernel == "store_load_aliasing":
            program = ALL_KERNELS[kernel](150)
        else:
            program = ALL_KERNELS[kernel](300)
        golden = run_reference(program, max_steps=5_000_000)
        outcome = make_core(program, None).run()
        state = outcome.state
        assert state.halted == golden.halted
        assert state.regs == golden.regs
        assert state.memory.equal_contents(golden.memory)
        assert state.committed == golden.committed
