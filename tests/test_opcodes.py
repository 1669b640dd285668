"""Consistency tests for the opcode metadata table."""

from repro.isa.opcodes import (
    ALU_IMM_OPS,
    ALU_OPS,
    COND_BRANCH_OPS,
    FP_OPS,
    FUType,
    OP_INFO,
    Opcode,
    info,
)


class TestOpcodeTable:
    def test_every_opcode_has_info(self):
        for op in Opcode:
            assert op in OP_INFO, op

    def test_info_helper_matches_table(self):
        for op in Opcode:
            assert info(op) is OP_INFO[op]

    def test_latencies_positive(self):
        for op, op_info in OP_INFO.items():
            assert op_info.latency >= 1, op

    def test_long_latency_ops(self):
        assert info(Opcode.DIV).latency > info(Opcode.MUL).latency
        assert info(Opcode.MUL).latency > info(Opcode.ADD).latency
        assert info(Opcode.FDIV).latency > info(Opcode.FADD).latency


class TestOpcodeFlags:
    def test_loads_are_load_like(self):
        for op in (Opcode.LOAD, Opcode.LOADB):
            assert info(op).is_load
            assert info(op).is_load_like
            assert info(op).fu is FUType.MEM

    def test_rdmsr_is_load_like_but_not_load(self):
        op_info = info(Opcode.RDMSR)
        assert op_info.is_load_like
        assert not op_info.is_load
        # RDMSR must execute speculatively (the LazyFP flaw): it cannot be
        # a serializing op.
        assert not op_info.is_serializing

    def test_stores(self):
        for op in (Opcode.STORE, Opcode.STOREB):
            op_info = info(op)
            assert op_info.is_store
            assert not op_info.writes_dest

    def test_conditional_branches(self):
        for op in COND_BRANCH_OPS:
            op_info = info(op)
            assert op_info.is_branch
            assert op_info.is_conditional
            assert not op_info.is_indirect

    def test_indirect_branches(self):
        for op in (Opcode.JR, Opcode.CALLR, Opcode.RET):
            assert info(op).is_indirect

    def test_calls_write_link(self):
        for op in (Opcode.CALL, Opcode.CALLR):
            op_info = info(op)
            assert op_info.is_call
            assert op_info.writes_dest

    def test_ret_flags(self):
        op_info = info(Opcode.RET)
        assert op_info.is_ret
        assert op_info.is_branch
        assert not op_info.writes_dest

    def test_serializing_ops(self):
        for op in (Opcode.RDTSC, Opcode.FENCE, Opcode.HALT):
            assert info(op).is_serializing, op

    def test_branch_fu_binding(self):
        for op in Opcode:
            if info(op).is_branch:
                assert info(op).fu is FUType.BRANCH, op

    def test_groups_are_disjoint(self):
        groups = [set(ALU_OPS), set(ALU_IMM_OPS), set(FP_OPS),
                  set(COND_BRANCH_OPS)]
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                assert not group_a & group_b

    def test_alu_ops_single_cycle(self):
        for op in ALU_OPS + ALU_IMM_OPS:
            assert info(op).latency == 1
            assert info(op).fu is FUType.ALU
