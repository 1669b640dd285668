"""Unit tests for rename, ROB, issue queue, FU pool, and LSQ.

The ``*Model`` classes check the ROB, the issue queue and the LSQ
against small pure-Python models of their contracts over seeded random
operation sequences; ``TestLSQStepTable`` walks the LSQ through a fixed
table of steps covering forwarding, bypass, violation and squash.
"""

import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Tuple

import pytest

from repro.config import CoreConfig
from repro.core.fu import FUPool
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LSQ, LoadAction
from repro.core.rename import PhysRegFile, RenameTable
from repro.core.rob import ROB, DynInstr
from repro.errors import SimulationError
from repro.frontend.fetch import FetchedOp
from repro.isa.instruction import Instr
from repro.isa.opcodes import FUType, Opcode
from repro.isa.registers import NUM_ARCH_REGS, R0, R1, R2, R3


def dyn(seq, instr, dispatch_cycle=0) -> DynInstr:
    fetched = FetchedOp(instr, pc=seq, fetch_cycle=0, pred_next_pc=seq + 1)
    return DynInstr(seq, fetched, dispatch_cycle)


def alu(seq) -> DynInstr:
    return dyn(seq, Instr(Opcode.ADD, rd=R1, rs1=R2, rs2=R3))


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
        prf = PhysRegFile(64)
        reg = prf.alloc()
        prf.write(reg, 42)
        assert prf.value[reg] == 42
        assert not prf.ready[reg]
        prf.mark_ready(reg)
        assert prf.ready[reg]

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
        rob.push(alu(0))
        rob.push(alu(1))
        assert rob.head.seq == 0
        assert rob.pop_head().seq == 0
        assert rob.head.seq == 1

    def test_full(self):
        rob = ROB(2)
        rob.push(alu(0))
        assert not rob.full
        rob.push(alu(1))
        assert rob.full

    def test_squash_younger(self):
        rob = ROB(8)
        for seq in range(5):
            rob.push(alu(seq))
        removed = rob.squash_younger(2)
        assert [e.seq for e in removed] == [4, 3]  # youngest first
        assert all(e.squashed for e in removed)
        assert len(rob) == 3

    def test_squash_all(self):
        rob = ROB(8)
        rob.push(alu(0))
        removed = rob.squash_younger(-1)
        assert len(removed) == 1
        assert len(rob) == 0

    def test_nearest_older_branch(self):
        rob = ROB(8)
        rob.push(alu(0))
        branch = dyn(1, Instr(Opcode.BEQ, rs1=R1, rs2=R2, target=0))
        rob.push(branch)
        rob.push(alu(2))
        assert rob.nearest_older_branch(2) is branch
        assert rob.nearest_older_branch(1) is None


class TestFUPool:
    def test_per_cycle_limits(self):
        pool = FUPool(CoreConfig(num_alu=2))
        assert pool.can_issue(FUType.ALU, 0)
        pool.issue(FUType.ALU, 0, 1)
        pool.issue(FUType.ALU, 0, 1)
        assert not pool.can_issue(FUType.ALU, 0)
        assert pool.can_issue(FUType.ALU, 1)  # next cycle

    def test_div_unpipelined(self):
        pool = FUPool(CoreConfig(num_div=1))
        pool.issue(FUType.DIV, 0, 12)
        assert not pool.can_issue(FUType.DIV, 5)
        assert pool.can_issue(FUType.DIV, 12)

    def test_mul_pipelined(self):
        pool = FUPool(CoreConfig(num_mul=1))
        pool.issue(FUType.MUL, 0, 3)
        assert pool.can_issue(FUType.MUL, 1)

    def test_used_counter(self):
        pool = FUPool(CoreConfig())
        pool.issue(FUType.BRANCH, 7, 1)
        assert pool.used(FUType.BRANCH, 7) == 1
        assert pool.used(FUType.BRANCH, 8) == 0


class TestIssueQueue:
    def _make(self, capacity=8):
        prf = PhysRegFile(64)
        return IssueQueue(capacity, prf), prf

    def test_ready_on_insert_when_sources_ready(self):
        iq, prf = self._make()
        entry = alu(0)
        entry.phys_srcs = (R2, R3)  # arch-backed: ready
        iq.insert(entry)
        pool = FUPool(CoreConfig())
        assert iq.select(0, 8, pool, lambda e, n: True) == [entry]

    def test_wakeup_via_broadcast(self):
        iq, prf = self._make()
        producer_reg = prf.alloc()
        entry = alu(0)
        entry.phys_srcs = (producer_reg,)
        iq.insert(entry)
        pool = FUPool(CoreConfig())
        assert iq.select(0, 8, pool, lambda e, n: True) == []
        prf.mark_ready(producer_reg)
        iq.on_broadcast(producer_reg)
        assert iq.select(1, 8, pool, lambda e, n: True) == [entry]

    def test_two_source_wakeup_needs_both(self):
        iq, prf = self._make()
        reg_a, reg_b = prf.alloc(), prf.alloc()
        entry = alu(0)
        entry.phys_srcs = (reg_a, reg_b)
        iq.insert(entry)
        pool = FUPool(CoreConfig())
        prf.mark_ready(reg_a)
        iq.on_broadcast(reg_a)
        assert iq.select(0, 8, pool, lambda e, n: True) == []
        prf.mark_ready(reg_b)
        iq.on_broadcast(reg_b)
        assert iq.select(1, 8, pool, lambda e, n: True) == [entry]

    def test_select_oldest_first_and_width(self):
        iq, prf = self._make()
        entries = [alu(seq) for seq in range(4)]
        for entry in reversed(entries):
            entry.phys_srcs = ()
            iq.insert(entry)
        pool = FUPool(CoreConfig(num_alu=8))
        selected = iq.select(0, 2, pool, lambda e, n: True)
        assert [e.seq for e in selected] == [0, 1]

    def test_may_issue_veto(self):
        iq, prf = self._make()
        entry = alu(0)
        entry.phys_srcs = ()
        iq.insert(entry)
        pool = FUPool(CoreConfig())
        assert iq.select(0, 8, pool, lambda e, n: False) == []
        assert len(iq) == 1

    def test_remove_squashed_updates_size(self):
        iq, prf = self._make()
        pending_reg = prf.alloc()
        ready_entry = alu(0)
        ready_entry.phys_srcs = ()
        waiting_entry = alu(1)
        waiting_entry.phys_srcs = (pending_reg,)
        iq.insert(ready_entry)
        iq.insert(waiting_entry)
        ready_entry.squashed = True
        waiting_entry.squashed = True
        iq.remove_squashed()
        assert len(iq) == 0

    def test_capacity(self):
        iq, _ = self._make(capacity=1)
        entry = alu(0)
        entry.phys_srcs = ()
        iq.insert(entry)
        assert iq.full


class TestLSQ:
    def test_load_with_no_stores_goes_to_memory(self):
        lsq = LSQ(4, 4)
        entry = load(1, addr=0x100)
        lsq.dispatch(entry)
        decision = lsq.decide_load(entry)
        assert decision.action is LoadAction.MEMORY
        assert not decision.bypassed_stores

    def test_bypass_unresolved_store(self):
        lsq = LSQ(4, 4)
        unresolved = store(0)
        target = load(1, addr=0x100)
        lsq.dispatch(unresolved)
        lsq.dispatch(target)
        decision = lsq.decide_load(target)
        assert decision.action is LoadAction.MEMORY
        assert decision.bypassed_stores == {0}
        assert lsq.bypasses == 1

    def test_forward_from_containing_store(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x100, data=0xAABBCCDD)
        target = load(1, addr=0x100)
        lsq.dispatch(source)
        lsq.dispatch(target)
        decision = lsq.decide_load(target)
        assert decision.action is LoadAction.FORWARD
        assert decision.value == 0xAABBCCDD
        assert decision.forwarded_from == 0

    def test_forward_byte_slice(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x100, data=0x1122334455667788)
        target = load(1, addr=0x102, size=1)
        lsq.dispatch(source)
        lsq.dispatch(target)
        decision = lsq.decide_load(target)
        assert decision.action is LoadAction.FORWARD
        assert decision.value == 0x66

    def test_partial_overlap_waits(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x104, data=1, size=8)
        target = load(1, addr=0x100)  # overlaps bytes 0x104-0x107 only
        lsq.dispatch(source)
        lsq.dispatch(target)
        assert lsq.decide_load(target).action is LoadAction.WAIT

    def test_store_without_data_waits(self):
        lsq = LSQ(4, 4)
        source = store(0, addr=0x100, data=None)
        target = load(1, addr=0x100)
        lsq.dispatch(source)
        lsq.dispatch(target)
        assert lsq.decide_load(target).action is LoadAction.WAIT

    def test_youngest_matching_store_wins(self):
        lsq = LSQ(4, 4)
        older = store(0, addr=0x100, data=1)
        newer = store(1, addr=0x100, data=2)
        target = load(2, addr=0x100)
        for entry in (older, newer, target):
            lsq.dispatch(entry)
        assert lsq.decide_load(target).value == 2

    def test_younger_stores_ignored(self):
        lsq = LSQ(4, 4)
        younger = store(5, addr=0x100, data=9)
        target = load(2, addr=0x100)
        lsq.dispatch(younger)
        lsq.dispatch(target)
        assert lsq.decide_load(target).action is LoadAction.MEMORY

    def test_violation_detects_stale_load(self):
        lsq = LSQ(4, 4)
        source = store(0)
        target = load(1, addr=0x100)
        lsq.dispatch(source)
        lsq.dispatch(target)
        target.data_obtained = True
        source.addr = 0x100
        source.mem_size = 8
        assert lsq.check_violation(source) is target
        assert lsq.violations == 1

    def test_violation_ignores_loads_without_data(self):
        lsq = LSQ(4, 4)
        source = store(0)
        target = load(1, addr=0x100)
        lsq.dispatch(source)
        lsq.dispatch(target)
        source.addr = 0x100
        assert lsq.check_violation(source) is None

    def test_violation_ignores_disjoint_addresses(self):
        lsq = LSQ(4, 4)
        source = store(0)
        target = load(1, addr=0x200)
        lsq.dispatch(source)
        lsq.dispatch(target)
        target.data_obtained = True
        source.addr = 0x100
        assert lsq.check_violation(source) is None

    def test_violation_exempts_forward_from_younger_store(self):
        lsq = LSQ(4, 4)
        resolving = store(0)
        middle = store(3, addr=0x100, data=7)
        target = load(4, addr=0x100)
        for entry in (resolving, middle, target):
            lsq.dispatch(entry)
        target.data_obtained = True
        target.forwarded_from = 3
        resolving.addr = 0x100
        assert lsq.check_violation(resolving) is None

    def test_eldest_violating_load_returned(self):
        lsq = LSQ(4, 4)
        source = store(0)
        first = load(1, addr=0x100)
        second = load(2, addr=0x100)
        for entry in (source, first, second):
            lsq.dispatch(entry)
        first.data_obtained = True
        second.data_obtained = True
        source.addr = 0x100
        assert lsq.check_violation(source) is first

    def test_capacity_gates_dispatch(self):
        lsq = LSQ(1, 1)
        first_load = load(0, addr=0x0)
        lsq.dispatch(first_load)
        assert not lsq.can_dispatch(load(1))
        assert lsq.can_dispatch(store(1))
        assert lsq.can_dispatch(alu(1))

    def test_retire_removes(self):
        lsq = LSQ(4, 4)
        entry = load(0, addr=0x0)
        lsq.dispatch(entry)
        lsq.retire(entry)
        assert not lsq.loads

    def test_unresolved_store_seqs(self):
        lsq = LSQ(4, 4)
        lsq.dispatch(store(0))
        lsq.dispatch(store(1, addr=0x50))
        assert lsq.unresolved_store_seqs() == {0}


# ---------------------------------------------------------------------- #
# Randomized model checks.
# ---------------------------------------------------------------------- #

_BY_SEQ = attrgetter("seq")
SEEDS = range(6)


def branch(seq) -> DynInstr:
    return dyn(seq, Instr(Opcode.BEQ, rs1=R1, rs2=R2, target=0))


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
                    rob.push(branch(next_seq) if is_branch
                             else alu(next_seq))
                    model.append((next_seq, is_branch))
                    next_seq += 1
            elif roll < 0.7:
                if model:
                    assert rob.pop_head().seq == model.pop(0)[0]
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
            assert rob.full == (len(model) >= capacity)
            assert (rob.head.seq if rob.head else None) == (
                model[0][0] if model else None
            )


class TestIssueQueueModel:
    """The issue queue against a map of entry -> unbroadcast sources.

    Every entry is an ALU op, so select's FU limit is ``num_alu`` per
    cycle; the model picks the oldest woken, unvetoed entries up to
    ``min(width, num_alu)``.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_ops_match_model(self, seed):
        rng = random.Random(seed)
        num_alu = rng.randint(1, 3)
        veto = rng.randrange(3)
        prf = PhysRegFile(256)
        iq = IssueQueue(rng.randint(2, 16), prf)
        pool = FUPool(CoreConfig(num_alu=num_alu))
        waiting = {}  # live entry -> sources still awaiting a broadcast
        in_flight = []  # allocated, not yet broadcast
        next_seq = 0

        def may_issue(entry, now):
            return entry.seq % 3 != veto

        for now in range(300):
            roll = rng.random()
            if roll < 0.4 and len(waiting) < iq.capacity:
                if len(in_flight) < 4:
                    in_flight.append(prf.alloc())
                entry = alu(next_seq)
                next_seq += 1
                entry.phys_srcs = tuple(
                    rng.choice(in_flight + [R2, R3])
                    for _ in range(rng.randint(0, 2))
                )
                iq.insert(entry)
                waiting[entry] = [
                    s for s in entry.phys_srcs if s in in_flight
                ]
            elif roll < 0.6 and in_flight:
                reg = in_flight.pop(rng.randrange(len(in_flight)))
                prf.mark_ready(reg)
                iq.on_broadcast(reg)
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
                expected = [
                    e for e in sorted(waiting, key=_BY_SEQ)
                    if not waiting[e] and may_issue(e, now)
                ][:min(width, num_alu)]
                assert iq.select(now, width, pool, may_issue) == expected
                for entry in expected:
                    del waiting[entry]
            assert len(iq) == len(waiting)
            assert iq.full == (len(waiting) >= iq.capacity)


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
                assert lsq.can_dispatch(entry) == (len(loads) < lq)
                if len(loads) < lq:
                    lsq.dispatch(entry)
                    loads.append(entry)
                next_seq += 1
            elif roll < 0.4:
                entry = store(next_seq, size=rng.choice((1, 8)))
                assert lsq.can_dispatch(entry) == (len(stores) < sq)
                if len(stores) < sq:
                    lsq.dispatch(entry)
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
            assert lsq.unresolved_store_seqs() == {
                s.seq for s in stores if s.addr is None
            }


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
                lsq.dispatch(live[step.seq])
            elif step.op == "store":
                live[step.seq] = store(step.seq, addr=step.addr,
                                       data=step.data, size=step.size)
                lsq.dispatch(live[step.seq])
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
