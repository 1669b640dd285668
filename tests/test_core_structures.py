"""Unit tests for rename, ROB, issue queue, FU pool, and LSQ.

Each structure is driven the way the core drives it: issue-queue
entries come from a small lowered program, so select sees real FU ids
and the serializing flag, and the ROB and LSQ tests fill
``rob.entries`` and ``lsq.loads``/``lsq.stores`` as dispatch does.

The ``*Model`` classes check the ROB, the issue queue and the LSQ
against small pure-Python models of their contracts over seeded random
operation sequences; ``TestLSQStepTable`` walks the LSQ through a fixed
table of steps covering forwarding, bypass, violation and squash.
``TestCoreOccupancy`` runs seeded random programs on the core and
replays its lifecycle events into :class:`LifecycleModel`, which checks
every structure's capacity and the issue rules; the capacity tests of
``TestROB``, ``TestIssueQueue`` and ``TestLSQ`` run programs built to
fill their structure.
"""

import random
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Optional, Tuple

import pytest

from repro.config import CoreConfig, config_registry
from repro.core.fu import FUPool
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LSQ, LoadAction
from repro.core.ooo import OutOfOrderCore
from repro.core.rename import PhysRegFile, RenameTable
from repro.core.rob import ROB, DynInstr
from repro.errors import SimulationError
from repro.frontend.fetch import FetchedOp
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instr
from repro.isa.microops import (
    F_LOAD, F_SERIALIZING, F_STORE, FU_ID, lower_program,
)
from repro.isa.opcodes import FUType, Opcode
from repro.isa.registers import (
    F0, F1, F2, NUM_ARCH_REGS, R0, R1, R2, R3, R4, R5, R6, R7, R8, R9,
)
from repro.obs.bus import ensure_bus

_BY_SEQ = attrgetter("seq")
SEEDS = range(6)


def dyn(seq, instr, dispatch_cycle=0) -> DynInstr:
    fetched = FetchedOp(instr, pc=seq, fetch_cycle=0, pred_next_pc=seq + 1)
    return DynInstr(seq, fetched, dispatch_cycle)


def alu(seq) -> DynInstr:
    return dyn(seq, Instr(Opcode.ADD, rd=R1, rs1=R2, rs2=R3))


def branch(seq) -> DynInstr:
    return dyn(seq, Instr(Opcode.BEQ, rs1=R1, rs2=R2, target=0))


def load(seq, addr=None, size=8) -> DynInstr:
    entry = dyn(seq, Instr(Opcode.LOAD, rd=R1, rs1=R2))
    entry.addr = addr
    entry.mem_size = size
    return entry


def store(seq, addr=None, data=None, size=8) -> DynInstr:
    entry = dyn(seq, Instr(Opcode.STORE, rs1=R2, rs2=R3))
    entry.addr = addr
    entry.store_data = data
    entry.mem_size = size
    return entry


def fill(lsq, *entries) -> None:
    """Append memory ops to the LSQ in program order, as dispatch does."""
    for entry in entries:
        (lsq.loads if entry.is_load else lsq.stores).append(entry)


def _iq_program():
    """One static micro-op per FU class the issue queue selects for."""
    asm = Assembler()
    asm.add(R1, R2, R3)
    asm.mul(R1, R2, R3)
    asm.div(R1, R2, R3)
    asm.fadd(F0, F1, F2)
    asm.load(R1, R2, 0)
    asm.beq(R1, R2, 0)
    asm.rdtsc(R1)
    asm.halt()
    return asm.build()


IQ_PROGRAM = _iq_program()
PC_ALU, PC_MUL, PC_DIV, PC_FP, PC_MEM, PC_BRANCH, PC_RDTSC = range(7)


def iq_entry(seq, pc, srcs=()) -> DynInstr:
    """A dispatched entry for static micro-op *pc* of the IQ program."""
    instr = IQ_PROGRAM.instrs[pc]
    entry = DynInstr(seq, FetchedOp(instr, pc, 0, pc + 1), 0)
    entry.phys_srcs = tuple(srcs)
    return entry


def make_iq(capacity=8, **core_fields):
    prf = PhysRegFile(256)
    fus = FUPool(CoreConfig(**core_fields))
    return IssueQueue(capacity, prf, fus, lower_program(IQ_PROGRAM)), prf


class TestPhysRegFile:
    def test_arch_regs_initially_ready(self):
        prf = PhysRegFile(64)
        assert all(prf.ready[:NUM_ARCH_REGS])

    def test_alloc_returns_unready_reg(self):
        prf = PhysRegFile(64)
        reg = prf.alloc()
        assert reg >= NUM_ARCH_REGS
        assert not prf.ready[reg]

    def test_alloc_exhaustion(self):
        prf = PhysRegFile(NUM_ARCH_REGS + 2)
        assert prf.alloc() is not None
        assert prf.alloc() is not None
        assert prf.alloc() is None

    def test_free_recycles(self):
        prf = PhysRegFile(NUM_ARCH_REGS + 1)
        reg = prf.alloc()
        prf.free(reg)
        assert prf.alloc() == reg

    def test_write_does_not_set_ready(self):
        iq, prf = make_iq()
        reg = prf.alloc()
        prf.value[reg] = 42  # what writeback does at completion
        assert not prf.ready[reg]
        iq.broadcast(reg)
        assert prf.ready[reg]
        assert prf.value[reg] == 42

    def test_too_few_regs_rejected(self):
        with pytest.raises(SimulationError):
            PhysRegFile(NUM_ARCH_REGS)


class TestRenameTable:
    def test_identity_initial_mapping(self):
        rat = RenameTable(PhysRegFile(64))
        assert rat.lookup(R2) == R2

    def test_rename_and_rollback(self):
        prf = PhysRegFile(64)
        rat = RenameTable(prf)
        new, prev = rat.rename_dest(R1)
        assert rat.lookup(R1) == new
        rat.rollback(R1, new, prev)
        assert rat.lookup(R1) == prev

    def test_rollback_must_be_youngest_first(self):
        prf = PhysRegFile(64)
        rat = RenameTable(prf)
        first, prev_first = rat.rename_dest(R1)
        second, prev_second = rat.rename_dest(R1)
        with pytest.raises(SimulationError):
            rat.rollback(R1, first, prev_first)  # out of order
        rat.rollback(R1, second, prev_second)
        rat.rollback(R1, first, prev_first)
        assert rat.lookup(R1) == R1

    def test_r0_never_renamed(self):
        rat = RenameTable(PhysRegFile(64))
        assert rat.rename_dest(R0) is None

    def test_retire_frees_previous(self):
        prf = PhysRegFile(NUM_ARCH_REGS + 1)
        rat = RenameTable(prf)
        _, prev = rat.rename_dest(R1)
        assert prf.free_count == 0
        rat.retire(prev)
        assert prf.free_count == 1


class TestROB:
    def test_fifo_order(self):
        rob = ROB(8)
        rob.entries.extend((alu(0), alu(1)))
        assert rob.head.seq == 0
        assert rob.entries.popleft().seq == 0
        assert rob.head.seq == 1

    def test_full(self):
        assert_fills("rob")

    def test_squash_younger(self):
        rob = ROB(8)
        rob.entries.extend(alu(seq) for seq in range(5))
        removed = rob.squash_younger(2)
        assert [e.seq for e in removed] == [4, 3]  # youngest first
        assert all(e.squashed for e in removed)
        assert len(rob) == 3

    def test_squash_all(self):
        rob = ROB(8)
        rob.entries.append(alu(0))
        removed = rob.squash_younger(-1)
        assert len(removed) == 1
        assert len(rob) == 0

    def test_nearest_older_branch(self):
        rob = ROB(8)
        guard = branch(1)
        rob.entries.extend((alu(0), guard, alu(2)))
        assert rob.nearest_older_branch(2) is guard
        assert rob.nearest_older_branch(1) is None


ALU = FU_ID[FUType.ALU]
MUL = FU_ID[FUType.MUL]
DIV = FU_ID[FUType.DIV]
BRANCH = FU_ID[FUType.BRANCH]


class TestFUPool:
    def test_per_cycle_limits(self):
        pool = FUPool(CoreConfig(num_alu=2))
        assert pool.can_issue_id(ALU, 0)
        pool.issue_id(ALU, 0, 1)
        pool.issue_id(ALU, 0, 1)
        assert not pool.can_issue_id(ALU, 0)
        assert pool.can_issue_id(ALU, 1)  # next cycle

    def test_div_unpipelined(self):
        pool = FUPool(CoreConfig(num_div=1))
        pool.issue_id(DIV, 0, 12)
        assert not pool.can_issue_id(DIV, 5)
        assert pool.can_issue_id(DIV, 12)

    def test_mul_pipelined(self):
        pool = FUPool(CoreConfig(num_mul=1))
        pool.issue_id(MUL, 0, 3)
        assert pool.can_issue_id(MUL, 1)

    def test_used_counter(self):
        pool = FUPool(CoreConfig(num_branch=1))
        pool.issue_id(BRANCH, 7, 1)
        assert not pool.can_issue_id(BRANCH, 7)  # the one slot is used
        assert pool.can_issue_id(BRANCH, 8)  # the counters roll per cycle


class TestIssueQueue:
    def test_ready_on_insert_when_sources_ready(self):
        iq, _ = make_iq()
        entry = iq_entry(0, PC_ALU, (R2, R3))  # arch-backed: ready
        iq.insert(entry)
        assert iq.select(0, 8, None, None) == [entry]

    def test_wakeup_via_broadcast(self):
        iq, prf = make_iq()
        producer_reg = prf.alloc()
        entry = iq_entry(0, PC_ALU, (producer_reg,))
        iq.insert(entry)
        assert iq.select(0, 8, None, None) == []
        iq.broadcast(producer_reg)
        assert iq.select(1, 8, None, None) == [entry]

    def test_two_source_wakeup_needs_both(self):
        iq, prf = make_iq()
        reg_a, reg_b = prf.alloc(), prf.alloc()
        entry = iq_entry(0, PC_ALU, (reg_a, reg_b))
        iq.insert(entry)
        iq.broadcast(reg_a)
        assert iq.select(0, 8, None, None) == []
        iq.broadcast(reg_b)
        assert iq.select(1, 8, None, None) == [entry]

    def test_select_oldest_first_and_width(self):
        iq, _ = make_iq(num_alu=8)
        entries = [iq_entry(seq, PC_ALU) for seq in range(4)]
        for entry in reversed(entries):
            iq.insert(entry)
        selected = iq.select(0, 2, None, None)
        assert [e.seq for e in selected] == [0, 1]

    def test_fu_slots_limit_select(self):
        iq, _ = make_iq(num_alu=2)
        for seq in range(3):
            iq.insert(iq_entry(seq, PC_ALU))
        iq.insert(iq_entry(3, PC_MUL))
        assert [e.seq for e in iq.select(0, 8, None, None)] == [0, 1, 3]
        assert [e.seq for e in iq.select(1, 8, None, None)] == [2]

    def test_serializing_waits_for_rob_head(self):
        iq, prf = make_iq()
        older = iq_entry(0, PC_ALU, (prf.alloc(),))
        rdtsc = iq_entry(1, PC_RDTSC)
        iq.insert(older)
        iq.insert(rdtsc)
        assert iq.select(0, 8, older, None) == []
        assert not iq.can_select(0, older, None)
        assert iq.can_select(1, rdtsc, None)
        assert iq.select(1, 8, rdtsc, None) == [rdtsc]

    def test_may_issue_veto(self):
        iq, _ = make_iq()
        iq.insert(iq_entry(0, PC_ALU))
        assert iq.select(0, 8, None, lambda e, n: False) == []
        assert not iq.can_select(0, None, lambda e, n: False)
        assert iq.size == 1

    def test_can_select_ignores_fu_slots(self):
        iq, _ = make_iq(num_alu=1)
        iq.insert(iq_entry(0, PC_ALU))
        iq.insert(iq_entry(1, PC_ALU))
        assert len(iq.select(0, 8, None, None)) == 1
        assert iq.can_select(0, None, None)  # FU-blocked is still busy

    def test_remove_squashed_updates_size(self):
        iq, prf = make_iq()
        ready_entry = iq_entry(0, PC_ALU)
        waiting_entry = iq_entry(1, PC_ALU, (prf.alloc(),))
        iq.insert(ready_entry)
        iq.insert(waiting_entry)
        ready_entry.squashed = True
        waiting_entry.squashed = True
        iq.remove_squashed()
        assert iq.size == 0

    def test_capacity(self):
        assert_fills("iq")


class TestLSQ:
    def test_load_with_no_stores_goes_to_memory(self):
        lsq = LSQ(4, 4)
        entry = load(1, addr=0x100)
        fill(lsq, entry)
        decision = lsq.decide_load(entry)
        assert decision.action is LoadAction.MEMORY
        assert not decision.bypassed_stores

    def test_bypass_unresolved_store(self):
        lsq = LSQ(4, 4)
        unresolved = store(0)
        target = load(1, addr=0x100)
        fill(lsq, unresolved, target)
        decision = lsq.decide_load(target)
        assert decision.action is LoadAction.MEMORY
        assert decision.bypassed_stores == {0}
        assert lsq.bypasses == 1

    def test_forward_from_containing_store(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x100, data=0xAABBCCDD)
        target = load(1, addr=0x100)
        fill(lsq, source, target)
        decision = lsq.decide_load(target)
        assert decision.action is LoadAction.FORWARD
        assert decision.value == 0xAABBCCDD
        assert decision.forwarded_from == 0

    def test_forward_byte_slice(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x100, data=0x1122334455667788)
        target = load(1, addr=0x102, size=1)
        fill(lsq, source, target)
        decision = lsq.decide_load(target)
        assert decision.action is LoadAction.FORWARD
        assert decision.value == 0x66

    def test_partial_overlap_waits(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x104, data=1, size=8)
        target = load(1, addr=0x100)  # overlaps bytes 0x104-0x107 only
        fill(lsq, source, target)
        assert lsq.decide_load(target).action is LoadAction.WAIT

    def test_store_without_data_waits(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x100, data=None)
        target = load(1, addr=0x100)
        fill(lsq, source, target)
        assert lsq.decide_load(target).action is LoadAction.WAIT

    def test_youngest_matching_store_wins(self):
        lsq = LSQ(4, 4)
        older = store(0, addr=0x100, data=1)
        newer = store(1, addr=0x100, data=2)
        target = load(2, addr=0x100)
        fill(lsq, older, newer, target)
        assert lsq.decide_load(target).value == 2

    def test_younger_stores_ignored(self):
        lsq = LSQ(4, 4)
        younger = store(5, addr=0x100, data=9)
        target = load(2, addr=0x100)
        fill(lsq, younger, target)
        assert lsq.decide_load(target).action is LoadAction.MEMORY

    def test_violation_detects_stale_load(self):
        lsq = LSQ(4, 4)
        source = store(0)
        target = load(1, addr=0x100)
        fill(lsq, source, target)
        target.data_obtained = True
        source.addr = 0x100
        source.mem_size = 8
        assert lsq.check_violation(source) is target
        assert lsq.violations == 1

    def test_violation_ignores_loads_without_data(self):
        lsq = LSQ(4, 4)
        source = store(0)
        target = load(1, addr=0x100)
        fill(lsq, source, target)
        source.addr = 0x100
        assert lsq.check_violation(source) is None

    def test_violation_ignores_disjoint_addresses(self):
        lsq = LSQ(4, 4)
        source = store(0)
        target = load(1, addr=0x200)
        fill(lsq, source, target)
        target.data_obtained = True
        source.addr = 0x100
        assert lsq.check_violation(source) is None

    def test_violation_exempts_forward_from_younger_store(self):
        lsq = LSQ(4, 4)
        resolving = store(0)
        middle = store(3, addr=0x100, data=7)
        target = load(4, addr=0x100)
        fill(lsq, resolving, middle, target)
        target.data_obtained = True
        target.forwarded_from = 3
        resolving.addr = 0x100
        assert lsq.check_violation(resolving) is None

    def test_eldest_violating_load_returned(self):
        lsq = LSQ(4, 4)
        source = store(0)
        first = load(1, addr=0x100)
        second = load(2, addr=0x100)
        fill(lsq, source, first, second)
        first.data_obtained = True
        second.data_obtained = True
        source.addr = 0x100
        assert lsq.check_violation(source) is first

    def test_capacity_gates_dispatch(self):
        assert_fills("lq")
        assert_fills("sq")

    def test_retire_removes(self):
        lsq = LSQ(4, 4)
        entry = load(0, addr=0x0)
        fill(lsq, entry)
        lsq.retire(entry)
        assert not lsq.loads


# ---------------------------------------------------------------------- #
# Randomized model checks.
# ---------------------------------------------------------------------- #


class TestROBModel:
    """The ROB against a list of ``(seq, is_branch)``, oldest first."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_model(self, seed):
        rng = random.Random(seed)
        capacity = rng.randint(1, 12)
        rob = ROB(capacity)
        model = []
        next_seq = 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.45:
                if len(model) < capacity:
                    is_branch = rng.random() < 0.3
                    rob.entries.append(branch(next_seq) if is_branch
                                       else alu(next_seq))
                    model.append((next_seq, is_branch))
                    next_seq += 1
            elif roll < 0.7:
                if model:
                    assert rob.entries.popleft().seq == model.pop(0)[0]
            elif roll < 0.85:
                cut = rng.randint(-1, next_seq)
                removed = rob.squash_younger(cut)
                assert [e.seq for e in removed] == [
                    s for s, _ in reversed(model) if s > cut
                ]
                assert all(e.squashed for e in removed)
                model = [(s, b) for s, b in model if s <= cut]
            else:
                probe = rng.randint(0, next_seq)
                older = [s for s, b in model if b and s < probe]
                found = rob.nearest_older_branch(probe)
                assert (found.seq if found else None) == (
                    older[-1] if older else None
                )
            assert [e.seq for e in rob] == [s for s, _ in model]
            assert len(rob) == len(model)
            assert (rob.head.seq if rob.head else None) == (
                model[0][0] if model else None
            )


class TestIssueQueueModel:
    """The issue queue against a model of wake-up and select.

    Entries are drawn from the lowered IQ program, so select meets every
    FU class.  The model picks, oldest first and up to the width, woken
    entries whose FU has a free slot this cycle (the divider stays busy
    for its latency; an FP op on a sleeping FPU pays the wake-up
    penalty), that are not a serializing op other than the ROB head, and
    that the scheme veto allows.
    """

    PCS = (PC_ALU, PC_ALU, PC_ALU, PC_MUL, PC_DIV, PC_FP, PC_MEM,
           PC_BRANCH, PC_RDTSC)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_model(self, seed):
        rng = random.Random(seed)
        config = CoreConfig(
            num_alu=rng.randint(1, 3), num_mem_ports=rng.randint(1, 2),
            num_fp=1, num_branch=1, fpu_sleep_cycles=rng.randint(2, 30),
            fpu_wakeup_cycles=7,
        )
        veto = rng.randrange(4)
        prf = PhysRegFile(256)
        fus = FUPool(config)
        iq = IssueQueue(rng.randint(2, 16), prf, fus,
                        lower_program(IQ_PROGRAM))
        waiting = {}  # live entry -> sources still awaiting a broadcast
        in_flight = []  # allocated, not yet broadcast
        div_free = [0] * config.num_div
        fp_last = -(10 ** 9)
        next_seq = 0

        def may_issue(entry, now):
            return entry.seq % 4 != veto

        for now in range(400):
            roll = rng.random()
            if roll < 0.4 and len(waiting) < iq.capacity:
                if len(in_flight) < 4:
                    in_flight.append(prf.alloc())
                srcs = tuple(
                    rng.choice(in_flight + [R2, R3])
                    for _ in range(rng.randint(0, 2))
                )
                entry = iq_entry(next_seq, rng.choice(self.PCS), srcs)
                next_seq += 1
                iq.insert(entry)
                waiting[entry] = [s for s in srcs if s in in_flight]
            elif roll < 0.6 and in_flight:
                reg = in_flight.pop(rng.randrange(len(in_flight)))
                iq.broadcast(reg)
                for entry, srcs in waiting.items():
                    waiting[entry] = [s for s in srcs if s != reg]
            elif roll < 0.7 and waiting:
                cut = rng.choice(list(waiting)).seq
                for entry in list(waiting):
                    if entry.seq >= cut:
                        entry.squashed = True
                        del waiting[entry]
                iq.remove_squashed()
            else:
                width = rng.randint(1, 4)
                live = sorted(waiting, key=_BY_SEQ)
                head = rng.choice(live[:1] + live + [None])
                expected, penalties = [], []
                used = dict.fromkeys(FUType, 0)
                for entry in live:
                    if waiting[entry] or len(expected) >= width:
                        continue
                    info = entry.instr.info
                    if used[info.fu] >= fus.counts[info.fu]:
                        continue
                    if info.fu is FUType.DIV and min(div_free) > now:
                        continue
                    if info.is_serializing and entry is not head:
                        continue
                    if not may_issue(entry, now):
                        continue
                    used[info.fu] += 1
                    penalty = 0
                    if info.fu is FUType.DIV:
                        unit = next(i for i, free in enumerate(div_free)
                                    if free <= now)
                        div_free[unit] = now + info.latency
                    elif info.fu is FUType.FP:
                        if now - fp_last > config.fpu_sleep_cycles:
                            penalty = config.fpu_wakeup_cycles
                        fp_last = now
                    expected.append(entry)
                    penalties.append(penalty)
                selected = iq.select(now, width, head, may_issue)
                assert selected == expected
                assert [e.issue_penalty for e in selected] == penalties
                for entry in expected:
                    del waiting[entry]
            assert iq.size == len(waiting)


def _model_bytes(entry) -> range:
    return range(entry.addr, entry.addr + entry.mem_size)


def _model_decide(stores, load) -> Tuple:
    """LSQ.decide_load's contract, as (action, value, from, bypassed).

    The youngest older store overlapping the load decides: it forwards
    when it covers every load byte and has its data, else the load
    waits.  Older stores with unknown addresses younger than that one
    are bypassed.
    """
    bypassed = set()
    for store in sorted(stores, key=_BY_SEQ, reverse=True):
        if store.seq > load.seq:
            continue
        if store.addr is None:
            bypassed.add(store.seq)
            continue
        covered = set(_model_bytes(store))
        wanted = list(_model_bytes(load))
        if not covered.intersection(wanted):
            continue
        if not covered.issuperset(wanted) or store.store_data is None:
            return (LoadAction.WAIT, None, None, set())
        data = [(store.store_data >> (8 * i)) & 0xFF
                for i in range(store.mem_size)]
        value = sum(data[addr - store.addr] << (8 * i)
                    for i, addr in enumerate(wanted))
        return (LoadAction.FORWARD, value, store.seq, bypassed)
    return (LoadAction.MEMORY, None, None, bypassed)


def _model_violation(loads, store) -> Optional[DynInstr]:
    """LSQ.check_violation's contract: the eldest younger load that
    took its data without seeing *store* and overlaps it."""
    stale = [
        load for load in loads
        if load.seq > store.seq and load.addr is not None
        and load.data_obtained
        and not (load.forwarded_from is not None
                 and load.forwarded_from > store.seq)
        and set(_model_bytes(load)) & set(_model_bytes(store))
    ]
    return min(stale, key=_BY_SEQ) if stale else None


def _decision(decision) -> Tuple:
    return (decision.action, decision.value, decision.forwarded_from,
            decision.bypassed_stores)


def _take_data(load, decision) -> None:
    """What the core's memory phase records once a load has data."""
    if decision.action is not LoadAction.WAIT:
        load.data_obtained = True
    if decision.action is LoadAction.FORWARD:
        load.forwarded_from = decision.forwarded_from


class TestLSQModel:
    """The LSQ against byte-level models of load and violation rules."""

    ADDRS = (0x100, 0x101, 0x104, 0x108)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_model(self, seed):
        rng = random.Random(seed)
        lq, sq = rng.randint(1, 6), rng.randint(1, 6)
        lsq = LSQ(lq, sq)
        loads, stores = [], []
        next_seq = 0
        for _ in range(400):
            roll = rng.random()
            if roll < 0.2:
                entry = load(next_seq, addr=rng.choice(self.ADDRS),
                             size=rng.choice((1, 8)))
                if len(loads) < lq:
                    fill(lsq, entry)
                    loads.append(entry)
                next_seq += 1
            elif roll < 0.4:
                entry = store(next_seq, size=rng.choice((1, 8)))
                if len(stores) < sq:
                    fill(lsq, entry)
                    stores.append(entry)
                next_seq += 1
            elif roll < 0.55 and loads:
                target = rng.choice(loads)
                expected = _model_decide(stores, target)
                decision = lsq.decide_load(target)
                assert _decision(decision) == expected
                _take_data(target, decision)
            elif roll < 0.7:
                unresolved = [s for s in stores if s.addr is None]
                if unresolved:
                    resolving = rng.choice(unresolved)
                    resolving.addr = rng.choice(self.ADDRS)
                    resolving.store_data = rng.getrandbits(64)
                    expected = _model_violation(loads, resolving)
                    assert lsq.check_violation(resolving) is expected
            elif roll < 0.8 and (loads or stores):
                cut = rng.choice(loads + stores).seq
                for entry in loads + stores:
                    if entry.seq > cut:
                        entry.squashed = True
                lsq.remove_squashed()
                loads = [e for e in loads if not e.squashed]
                stores = [e for e in stores if not e.squashed]
            elif loads or stores:
                oldest = min(loads + stores, key=_BY_SEQ)
                lsq.retire(oldest)
                (loads if oldest in loads else stores).remove(oldest)
            assert lsq.loads == loads
            assert lsq.stores == stores


@dataclass
class Step:
    """One LSQ step: dispatch, decide, resolve, squash or retire."""

    op: str
    seq: int
    addr: Optional[int] = None
    size: int = 8
    data: Optional[int] = None
    expect: object = None


#: Forwarding, bypass, violation and squash, in the order a core meets
#: them.  ``expect`` is the decision tuple for "decide" and the victim's
#: seq for "resolve".
LSQ_STEPS = [
    Step("store", 0),                               # address unknown
    Step("load", 1, addr=0x100),
    Step("decide", 1, expect=(LoadAction.MEMORY, None, None, {0})),
    Step("store", 2, addr=0x100, data=0x1122334455667788),
    Step("load", 3, addr=0x102, size=1),
    Step("decide", 3, expect=(LoadAction.FORWARD, 0x66, 2, set())),
    Step("store", 4, addr=0x104, size=1, data=0xAB),
    Step("load", 5, addr=0x100),                    # partial overlap
    Step("decide", 5, expect=(LoadAction.WAIT, None, None, set())),
    # Store 0 lands on load 1's bytes: load 1 bypassed it and is the
    # eldest stale load; load 3 forwarded from the younger store 2.
    Step("resolve", 0, addr=0x100, data=7, expect=1),
    Step("squash", 0),                              # refetch from load 1
    Step("load", 6, addr=0x100),
    Step("decide", 6, expect=(LoadAction.FORWARD, 7, 0, set())),
    Step("retire", 0),
    Step("decide", 6, expect=(LoadAction.MEMORY, None, None, set())),
]


class TestLSQStepTable:
    def test_steps(self):
        lsq = LSQ(4, 4)
        live = {}
        for step in LSQ_STEPS:
            if step.op == "load":
                live[step.seq] = load(step.seq, addr=step.addr,
                                      size=step.size)
                fill(lsq, live[step.seq])
            elif step.op == "store":
                live[step.seq] = store(step.seq, addr=step.addr,
                                       data=step.data, size=step.size)
                fill(lsq, live[step.seq])
            elif step.op == "decide":
                target = live[step.seq]
                decision = lsq.decide_load(target)
                assert _decision(decision) == step.expect, step
                assert _model_decide(lsq.stores, target) == step.expect
                _take_data(target, decision)
            elif step.op == "resolve":
                resolving = live[step.seq]
                resolving.addr, resolving.store_data = step.addr, step.data
                victim = lsq.check_violation(resolving)
                assert victim is _model_violation(lsq.loads, resolving)
                assert victim.seq == step.expect, step
            elif step.op == "squash":
                for seq, entry in list(live.items()):
                    if seq > step.seq:
                        entry.squashed = True
                        del live[seq]
                lsq.remove_squashed()
                assert [e.seq for e in lsq.loads + lsq.stores] == [0]
            else:  # retire
                lsq.retire(live.pop(step.seq))
        assert lsq.forwards == 2
        assert lsq.bypasses == 1
        assert lsq.violations == 1


# ---------------------------------------------------------------------- #
# The structures inside the core.
# ---------------------------------------------------------------------- #


class LifecycleModel:
    """A pure-Python model of the core's window, fed by its event bus.

    It replays ``instr_dispatch``, ``instr_issue``, ``instr_broadcast``,
    ``instr_retire`` and ``instr_squash`` into one ``seq -> entry`` map
    per structure, kept in program order, and records an error whenever

    * a structure holds more entries than its capacity, or the model's
      occupancy differs from the core's at a dispatch;
    * an entry issues before every producer of its sources broadcast;
    * a serializing micro-op issues while it is not the ROB head, or the
      ROB retires out of order;
    * an ALU micro-op issues while an older ALU micro-op that was ready
      in the same cycle is left waiting (select is oldest first).

    An entry is ready at cycle ``t`` when it was dispatched before ``t``
    (dispatch follows issue within a cycle) and every producer of its
    sources broadcast at or before ``t``.
    """

    def __init__(self, core):
        self.core = core
        sizes = core.config.core
        self.capacity = {
            "rob": sizes.rob_entries, "iq": sizes.iq_entries,
            "lq": sizes.lq_entries, "sq": sizes.sq_entries,
        }
        self.live = {name: {} for name in self.capacity}
        self.peak = dict.fromkeys(self.capacity, 0)
        self.producer = {}  # phys reg -> seq of its latest writer
        self.deps = {}  # seq -> seqs of its sources' producers
        self.dispatched = {}  # seq -> dispatch cycle
        self.bcast = {}  # seq -> broadcast cycle
        self.issued = 0
        self.retired = 0
        #: ALU issues that left a younger ready ALU op waiting in the IQ.
        self.alu_choices = 0
        self.errors = []
        self._flags = core.u.flags
        self._fu_ids = core.u.fu_ids
        ensure_bus(core).subscribe(self)

    def _is_alu(self, entry) -> bool:
        pc = entry.pc
        return self._fu_ids[pc] == ALU and not self._flags[pc] & F_SERIALIZING

    def _ready(self, seq, now) -> bool:
        return self.dispatched[seq] < now and all(
            self.bcast.get(dep, now + 1) <= now for dep in self.deps[seq]
        )

    def _enter(self, name, entry) -> None:
        live = self.live[name]
        live[entry.seq] = entry
        if len(live) > self.capacity[name]:
            self.errors.append("%s holds %d > %d entries at #%d" % (
                name, len(live), self.capacity[name], entry.seq,
            ))
        self.peak[name] = max(self.peak[name], len(live))

    def instr_dispatch(self, entry, now) -> None:
        seq = entry.seq
        self.dispatched[seq] = now
        self.deps[seq] = [
            self.producer[src] for src in entry.phys_srcs
            if src in self.producer
        ]
        if entry.phys_dest is not None:
            self.producer[entry.phys_dest] = seq
        self._enter("rob", entry)
        self._enter("iq", entry)
        flags = self._flags[entry.pc]
        if flags & F_LOAD:
            self._enter("lq", entry)
        elif flags & F_STORE:
            self._enter("sq", entry)
        core = self.core
        actual = {
            "rob": len(core.rob.entries), "iq": core.iq.size,
            "lq": len(core.lsq.loads), "sq": len(core.lsq.stores),
        }
        modelled = {name: len(live) for name, live in self.live.items()}
        if actual != modelled:
            self.errors.append("cycle %d: the core holds %s, the model %s"
                               % (now, actual, modelled))

    def instr_issue(self, entry, now) -> None:
        seq = entry.seq
        self.issued += 1
        waiting = self.live["iq"]
        if waiting.pop(seq, None) is None:
            self.errors.append("#%d issued from outside the IQ" % seq)
        late = [dep for dep in self.deps[seq]
                if self.bcast.get(dep, now + 1) > now]
        if late:
            self.errors.append("#%d issued at %d before producers %s "
                               "broadcast" % (seq, now, late))
        if (self._flags[entry.pc] & F_SERIALIZING
                and seq != next(iter(self.live["rob"]))):
            self.errors.append("serializing #%d issued behind the ROB "
                               "head" % seq)
        if self._is_alu(entry):
            for other_seq, other in waiting.items():
                if self._is_alu(other) and self._ready(other_seq, now):
                    if other_seq < seq:
                        self.errors.append(
                            "ALU #%d issued at %d ahead of ready #%d"
                            % (seq, now, other_seq)
                        )
                    else:
                        self.alu_choices += 1
                    break

    def instr_broadcast(self, entry, now) -> None:
        self.bcast[entry.seq] = now

    def instr_retire(self, entry, now) -> None:
        seq = entry.seq
        self.retired += 1
        rob = self.live["rob"]
        if next(iter(rob), None) != seq:
            self.errors.append("#%d retired behind the ROB head" % seq)
        rob.pop(seq, None)
        if seq in self.live["iq"]:
            self.errors.append("#%d retired without issuing" % seq)
        self.live["lq"].pop(seq, None)
        self.live["sq"].pop(seq, None)

    def instr_squash(self, entry, now) -> None:
        seq = entry.seq
        for live in self.live.values():
            live.pop(seq, None)
        dest = entry.phys_dest
        if dest is not None and self.producer.get(dest) == seq:
            del self.producer[dest]  # rollback frees the register


def run_with_model(program, config_name="ooo", **core_fields):
    """Run *program* to HALT on a resized core under a LifecycleModel."""
    config = config_registry()[config_name].config
    config = replace(config, core=replace(config.core, **core_fields))
    core = OutOfOrderCore(program, config)
    model = LifecycleModel(core)
    core.run(max_cycles=500_000)
    assert core.halted
    assert not model.errors, model.errors[:5]
    assert model.retired == core.committed
    return core, model


#: Structure -> (CoreConfig field, the small capacity its fill test uses).
FILL_SIZES = {
    "rob": ("rob_entries", 8),
    "iq": ("iq_entries", 4),
    "lq": ("lq_entries", 3),
    "sq": ("sq_entries", 3),
}


def fill_program(kind, count):
    """A cold load heads the ROB for a DRAM round trip while *count*
    micro-ops fill one structure behind it: independent ALU ops (ROB),
    ALU ops on the load's value (IQ), loads (LQ) or stores (SQ)."""
    asm = Assembler()
    asm.li(R1, 0x40000)
    asm.load(R2, R1, 0)
    for index in range(count):
        if kind == "rob":
            asm.addi(R3, R4, index)
        elif kind == "iq":
            asm.addi(R3, R2, index)
        elif kind == "lq":
            asm.load(R3, R1, 8 * (index + 1))
        else:
            asm.store(R4, R1, 0x1000 + 8 * index)
    asm.halt()
    return asm.build()


def assert_fills(kind):
    """Dispatch fills *kind* exactly to its capacity, never past it."""
    field, capacity = FILL_SIZES[kind]
    _, model = run_with_model(
        fill_program(kind, 2 * capacity + 4), **{field: capacity}
    )
    assert model.peak[kind] == capacity


def random_program(seed, blocks=30):
    """ALU chains and bursts, cold loads and their consumers, stores,
    RDTSC and forward branches, seeded.

    Each branch compares a cold load's value (0) with 1, so it resolves
    late; every sixth block's branch is not taken, which the
    weakly-taken initial prediction gets wrong, and squashes a wrong
    path.
    """
    rng = random.Random(seed)
    regs = (R3, R4, R5, R6, R7, R8)
    asm = Assembler()
    asm.li(R1, 0x40000)
    asm.li(R9, 1)
    for value, reg in enumerate(regs, 2):
        asm.li(reg, value)
    for block in range(blocks):
        page = 4096 * (block + 1)
        if block % 3 == 2:
            asm.load(R2, R1, page)
            skip = "skip%d" % block
            if block % 6 == 2:
                asm.beq(R2, R9, skip)  # not taken: mispredicted
            else:
                asm.bne(R2, R9, skip)  # taken, as predicted
            for _ in range(rng.randint(2, 8)):
                asm.add(rng.choice(regs), rng.choice(regs), rng.choice(regs))
            asm.label(skip)
            continue
        kind = rng.choice(("chain", "burst", "cold", "store", "rdtsc"))
        if kind == "chain":
            reg = rng.choice(regs)
            for _ in range(rng.randint(2, 6)):
                asm.addi(reg, reg, rng.randint(1, 9))
        elif kind == "burst":
            for _ in range(rng.randint(4, 10)):
                asm.add(rng.choice(regs), rng.choice(regs), rng.choice(regs))
        elif kind == "cold":
            dest = rng.choice(regs)
            asm.load(dest, R1, page)
            for _ in range(rng.randint(1, 4)):
                asm.add(rng.choice(regs), dest, rng.choice(regs))
        elif kind == "store":
            asm.store(rng.choice(regs), R1, page + 8 * rng.randrange(8))
        else:
            asm.rdtsc(rng.choice(regs))
    asm.halt()
    return asm.build()


class TestCoreOccupancy:
    """Every structure inside the core, checked by LifecycleModel on
    seeded random programs run on small windows."""

    @pytest.mark.parametrize("config_name", ["ooo", "strict"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_programs(self, seed, config_name):
        rng = random.Random(seed)
        core, model = run_with_model(
            random_program(seed), config_name,
            rob_entries=rng.choice((8, 12, 16)),
            iq_entries=rng.choice((4, 6, 8)),
            lq_entries=rng.choice((2, 3, 4)),
            sq_entries=rng.choice((2, 3, 4)),
            issue_width=4, num_alu=2,
        )
        assert model.issued >= core.committed
        assert model.alu_choices > 0  # select had ALU ops to order
        assert core.stats.branch_mispredicts > 0
        assert core.stats.squashed_ops > 0
