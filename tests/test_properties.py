"""Property-based tests (hypothesis) for core invariants.

The headline property is golden-model equivalence over *random programs*:
any generated program must commit identical architectural state on the
reference evaluator, the insecure OoO core, every NDA policy, both
InvisiSpec variants, and the in-order core.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import (
    NDAPolicyName,
    baseline_ooo,
    invisispec_config,
    nda_config,
)
from repro.core.inorder import InOrderCore
from repro.core.ooo import OutOfOrderCore
from repro.isa.assembler import Assembler
from repro.isa.opcodes import ALU_IMM_OPS, ALU_OPS, Opcode
from repro.isa.semantics import branch_taken, eval_alu, run_reference
from repro.memory.memory import MainMemory, U64_MASK
from repro.frontend.ras import RAS

DATA_BASE = 0x1000
DATA_MASK = 0x7F8  # keeps addresses in [DATA_BASE, DATA_BASE + 0x800)
WORK_REGS = (1, 2, 3, 4, 5, 6, 7, 8)

u64 = st.integers(min_value=0, max_value=U64_MASK)
small_int = st.integers(min_value=-(1 << 16), max_value=1 << 16)
reg = st.sampled_from(WORK_REGS)


# ---------------------------------------------------------------------- #
# eval_alu algebraic properties.
# ---------------------------------------------------------------------- #


@given(a=u64, b=u64)
def test_add_commutes(a, b):
    assert eval_alu(Opcode.ADD, a, b, 0) == eval_alu(Opcode.ADD, b, a, 0)


@given(a=u64, b=u64)
def test_xor_self_inverse(a, b):
    mixed = eval_alu(Opcode.XOR, a, b, 0)
    assert eval_alu(Opcode.XOR, mixed, b, 0) == a


@given(a=u64)
def test_add_sub_roundtrip(a):
    plus = eval_alu(Opcode.ADD, a, 12345, 0)
    assert eval_alu(Opcode.SUB, plus, 12345, 0) == a


@given(a=u64, b=u64)
def test_results_stay_in_64_bits(a, b):
    for op in ALU_OPS + (Opcode.MUL, Opcode.DIV):
        result = eval_alu(op, a, b, 0)
        assert 0 <= result <= U64_MASK


@given(a=u64, shift=st.integers(min_value=0, max_value=63))
def test_shift_roundtrip_preserves_low_bits(a, shift):
    left = eval_alu(Opcode.SHL, a, shift, 0)
    back = eval_alu(Opcode.SHR, left, shift, 0)
    mask = U64_MASK >> shift
    assert back == (a & mask)


@given(a=u64, b=u64)
def test_slt_antisymmetric(a, b):
    if a != b:
        lt = eval_alu(Opcode.SLT, a, b, 0)
        gt = eval_alu(Opcode.SLT, b, a, 0)
        assert lt != gt


@given(a=u64, b=u64)
def test_branch_taken_consistency(a, b):
    assert branch_taken(Opcode.BEQ, a, b) != branch_taken(Opcode.BNE, a, b)
    assert branch_taken(Opcode.BLT, a, b) != branch_taken(Opcode.BGE, a, b)


# ---------------------------------------------------------------------- #
# Memory properties.
# ---------------------------------------------------------------------- #


@given(addr=st.integers(min_value=0, max_value=(1 << 48)), value=u64)
def test_memory_word_roundtrip(addr, value):
    memory = MainMemory()
    memory.write_word(addr, value)
    assert memory.read_word(addr) == value


@given(
    writes=st.lists(
        st.tuples(st.integers(min_value=0, max_value=256), u64),
        max_size=16,
    )
)
def test_memory_last_write_wins(writes):
    memory = MainMemory()
    final = {}
    for addr, value in writes:
        memory.write_word(addr * 8, value)
        final[addr * 8] = value
    for addr, value in final.items():
        assert memory.read_word(addr) == value


# ---------------------------------------------------------------------- #
# RAS properties.
# ---------------------------------------------------------------------- #


@given(pushes=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=8))
def test_ras_is_a_stack_within_capacity(pushes):
    ras = RAS(16)
    for value in pushes:
        ras.push(value)
    for value in reversed(pushes):
        assert ras.pop() == value


@given(pushes=st.lists(st.integers(min_value=0, max_value=1000),
                       min_size=1, max_size=12))
def test_ras_snapshot_restore_is_exact(pushes):
    ras = RAS(4)
    for value in pushes[: len(pushes) // 2]:
        ras.push(value)
    snap = ras.snapshot()
    drained = [ras.pop() for _ in range(5)]
    for value in pushes:
        ras.push(value)
    ras.restore(snap)
    again = [ras.pop() for _ in range(5)]
    assert drained == again


# ---------------------------------------------------------------------- #
# Cache property: resident set equals the trailing unique accesses.
# ---------------------------------------------------------------------- #


@given(lines=st.lists(st.integers(min_value=0, max_value=15), min_size=1,
                      max_size=40))
def test_lru_set_keeps_most_recent(lines):
    from repro.config import CacheConfig
    from repro.memory.cache import Cache
    # Single set, 4 ways.
    cache = Cache(CacheConfig(4 * 64, 64, 4, 4), "prop")
    for line in lines:
        cache.access(line * 64)
    recent_unique = []
    for line in reversed(lines):
        if line not in recent_unique:
            recent_unique.append(line)
        if len(recent_unique) == 4:
            break
    for line in recent_unique:
        assert cache.probe(line * 64)


# ---------------------------------------------------------------------- #
# Random-program golden equivalence.
# ---------------------------------------------------------------------- #


@st.composite
def random_programs(draw):
    asm = Assembler("hypothesis")
    asm.word(DATA_BASE, draw(u64))
    asm.word(DATA_BASE + 8, draw(u64))
    # Seed registers.
    for index in WORK_REGS:
        asm.li(index, draw(u64))
    # A bounded outer loop wraps a random body.
    iterations = draw(st.integers(min_value=1, max_value=4))
    asm.li(20, iterations)
    asm.label("outer")
    body_len = draw(st.integers(min_value=3, max_value=25))
    pending_skips = []
    for slot in range(body_len):
        pending_skips = [(n - 1, lbl) for n, lbl in pending_skips]
        for n, lbl in [p for p in pending_skips if p[0] <= 0]:
            asm.label(lbl)
        pending_skips = [p for p in pending_skips if p[0] > 0]
        kind = draw(st.sampled_from(
            ["alu", "alui", "mul", "div", "load", "store", "branch"]
        ))
        if kind == "alu":
            asm._alu(draw(st.sampled_from(ALU_OPS)), draw(reg), draw(reg),
                     draw(reg))
        elif kind == "alui":
            asm._alui(draw(st.sampled_from(ALU_IMM_OPS)), draw(reg),
                      draw(reg), draw(small_int))
        elif kind == "mul":
            asm.mul(draw(reg), draw(reg), draw(reg))
        elif kind == "div":
            asm.div(draw(reg), draw(reg), draw(reg))
        elif kind == "load":
            asm.andi(9, draw(reg), DATA_MASK)
            asm.addi(9, 9, DATA_BASE)
            if draw(st.booleans()):
                asm.load(draw(reg), 9, 0)
            else:
                asm.loadb(draw(reg), 9, 0)
        elif kind == "store":
            asm.andi(9, draw(reg), DATA_MASK)
            asm.addi(9, 9, DATA_BASE)
            if draw(st.booleans()):
                asm.store(draw(reg), 9, 0)
            else:
                asm.storeb(draw(reg), 9, 0)
        elif kind == "branch":
            label = "skip_%d_%d" % (len(pending_skips), slot)
            op = draw(st.sampled_from(
                [Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE]
            ))
            asm._branch(op, draw(reg), draw(reg), label)
            pending_skips.append(
                (draw(st.integers(min_value=1, max_value=4)), label)
            )
    for _, label in pending_skips:
        asm.label(label)
    asm.subi(20, 20, 1)
    asm.bne(20, 0, "outer")
    asm.halt()
    return asm.build()


EQUIVALENCE_CONFIGS = [
    ("ooo", baseline_ooo(), False),
    ("strict+br", nda_config(NDAPolicyName.STRICT_BR), False),
    ("full", nda_config(NDAPolicyName.FULL_PROTECTION), False),
    ("is-future", invisispec_config(True), False),
    ("in-order", baseline_ooo(), True),
]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=random_programs())
def test_random_program_golden_equivalence(program):
    reference = run_reference(program, max_steps=500_000)
    assert reference.halted
    for label, config, in_order in EQUIVALENCE_CONFIGS:
        core = InOrderCore(program, config) if in_order \
            else OutOfOrderCore(program, config)
        outcome = core.run(max_cycles=2_000_000)
        assert outcome.state.regs == reference.regs, label
        assert outcome.state.memory.equal_contents(reference.memory), label
        assert outcome.state.committed == reference.committed, label
