"""The out-of-order core.

A cycle-level model of the paper's baseline machine (Table 3): 8-issue,
192-entry ROB, physical-register renaming, an issue queue woken by tag
broadcast, split load/store queues with store-to-load forwarding and
speculative store bypass, branch prediction with squash-at-resolution, and
a non-blocking cache hierarchy.

The pipeline itself is scheme-agnostic: every protection scheme (the
insecure baseline, the six NDA policies, the InvisiSpec variants, the
fence-style mitigations, and anything registered through
:mod:`repro.schemes`) plugs in as a single
:class:`~repro.schemes.ProtectionModel` object held in
``self.protection``, consulted at the pipeline's decision points
(broadcast gating, issue gating, load visibility, and the
dispatch/resolve/squash/commit events).

The phases are table-driven: they read the dense micro-op tables of
:mod:`repro.isa.microops` (integer flag masks, int-indexed FU accounting,
pre-bound execute closures) instead of ``entry.instr.info.<attr>``
chains and opcode dispatch, and each phase makes one batched pass with
its loop invariants hoisted into locals.  Scheme hooks are bound once at
construction: a hook the scheme does not override is skipped at its call
site (the base implementation is a no-op or a constant), an override is
called at exactly its cycle.  Wake-up and select live in
:class:`~repro.core.issue_queue.IssueQueue` and fetch in
:class:`~repro.frontend.fetch.FetchUnit`; the phases call them.  The
golden files pin the resulting timing.

Stage order within a cycle (reverse pipeline order, standard for
cycle-level models): writeback -> deferred broadcast -> load visibility
-> load memory phase -> issue -> dispatch -> fetch -> commit.
"""

from __future__ import annotations

import heapq
import time
from operator import attrgetter
from typing import List, Optional, Tuple

from repro.config import SimConfig
from repro.core.fu import FUPool
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LSQ, LoadAction
from repro.core.outcome import RunOutcome
from repro.core.rename import PhysRegFile, RenameTable
from repro.core.rob import ROB, DynInstr
from repro.errors import DeadlockError, SimulationError
from repro.frontend.btb import BTB
from repro.frontend.direction import Tournament
from repro.frontend.fetch import FetchedOp, FetchUnit
from repro.frontend.ras import RAS
from repro.isa.microops import (
    F_CALL,
    F_CONDITIONAL,
    F_LOAD,
    F_MEM_BYTE,
    F_SERIALIZING,
    F_STORE,
    K_ALU,
    K_BRANCH,
    K_CLFLUSH,
    K_RDMSR,
    K_RDTSC,
    K_STORE,
    OP_ID,
    lower_program,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, R0
from repro.isa.semantics import MachineState
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.memory import MainMemory, U64_MASK
from repro.schemes.base import ProtectionModel
from repro.schemes.registry import make_protection
from repro.stats.counters import CycleClass, PipelineStats

_BY_SEQ = attrgetter("seq")

_OPID_JMP = OP_ID[Opcode.JMP]
_OPID_CALL = OP_ID[Opcode.CALL]
_OPID_CALLR = OP_ID[Opcode.CALLR]
_OPID_JR = OP_ID[Opcode.JR]
_OPID_RET = OP_ID[Opcode.RET]
_OPID_HALT = OP_ID[Opcode.HALT]

_F_MEMOP = F_LOAD | F_STORE


def _hook(prot: ProtectionModel, name: str):
    """*prot*'s bound hook *name*, or None when it keeps the base one."""
    if getattr(type(prot), name) is getattr(ProtectionModel, name):
        return None
    return getattr(prot, name)


class OutOfOrderCore:
    """One simulated OoO core running one program."""

    def __init__(
        self,
        program: Program,
        config: Optional[SimConfig] = None,
        *,
        fast_forward: bool = True,
        ctx: int = 0,
        shared: Optional["SharedState"] = None,
    ):
        self.config = (config or SimConfig()).validate()
        core = self.config.core
        self.program = program
        #: Hardware-context id (repro.smt).  0 for single-context runs;
        #: observers read it to tag events with the owning context.
        self.ctx = ctx

        if shared is not None and shared.mem is not None:
            self.mem = shared.mem
        else:
            self.mem = MainMemory()
        self.mem.load_image(program.data)
        self.msrs = dict(program.msrs)
        if shared is not None and shared.hierarchy is not None:
            self.hierarchy = shared.hierarchy
        else:
            self.hierarchy = MemoryHierarchy(self.config.mem)

        if shared is not None and shared.btb is not None:
            self.btb = shared.btb
        else:
            self.btb = BTB(core.btb_entries, core.btb_assoc)
        if shared is not None and shared.ras is not None:
            self.ras = shared.ras
        else:
            self.ras = RAS(core.ras_entries)
        if shared is not None and shared.direction is not None:
            self.direction = shared.direction
        else:
            self.direction = Tournament(core.bp_tables_bits)
        self.fetch_unit = FetchUnit(
            program, self.hierarchy, self.direction, self.btb, self.ras,
            core.fetch_width,
        )
        # The static micro-op tables (shared by every core running the
        # same program object).
        self.u = u = lower_program(program)

        self.prf = PhysRegFile(core.phys_regs)
        self.rat = RenameTable(self.prf)
        for reg, value in program.initial_regs.items():
            if reg != R0:
                self.prf.value[reg] = value & U64_MASK
        self.rob = ROB(core.rob_entries)
        self.fus = FUPool(core)
        self.iq = IssueQueue(core.iq_entries, self.prf, self.fus, u)
        self.lsq = LSQ(core.lq_entries, core.sq_entries)

        self.cycle = 0
        self.halted = False
        self.committed = 0
        self.stats = PipelineStats()
        # Event-driven idle-cycle fast-forward (bit-identical; see
        # DESIGN.md "The event-driven clock").  Not a SimConfig field on
        # purpose: results are unchanged, so it must not churn cache keys.
        self.fast_forward = fast_forward
        self.ff_skipped_cycles = 0

        # The one protection-scheme object; every scheme-sensitive
        # decision in the pipeline below delegates to it.
        self.protection = make_protection(self)

        self._next_seq = 0
        self._completions: List[Tuple[int, int, DynInstr]] = []
        # Min-heap of (ready_cycle, seq, entry) — seq breaks cycle ties so
        # entries never compare (and pops are deterministic).
        self._pending_mem: List[Tuple[int, int, DynInstr]] = []
        self._fence_seq: Optional[int] = None
        self._ports_used = 0
        self._issued_this_cycle = 0
        self._squashed_this_cycle = False
        self._last_commit_cycle = 0
        # Optional telemetry EventBus (see repro.obs.bus); carries the
        # pipeline tracer, metrics samplers, the fuzzer's taint oracle,
        # and any other subscriber.
        self.obs = None

        # Hot-loop invariants hoisted out of the per-cycle phases.
        self._issue_width = core.issue_width
        self._fetch_width = core.fetch_width
        self._commit_width = core.commit_width
        self._frontend_depth = core.frontend_depth
        self._fetch_cap = self.fetch_unit.capacity
        self._squash_penalty = core.squash_penalty
        self._dcache_ports = self.config.mem.l1d.ports
        self._priv_mode = self.config.privileged_mode
        self._fwd_faulting = self.config.forward_faulting_loads
        prot = self.protection
        self._arbiter = prot.arbiter
        # Hook elision (see _hook): None means the base implementation,
        # whose effect the call site applies inline.
        self._has_visibility_phase = (
            _hook(prot, "load_visibility_phase") is not None
        )
        self._has_next_event = _hook(prot, "next_event") is not None
        self._hook_may_issue = _hook(prot, "may_issue")
        self._hook_may_broadcast = _hook(prot, "may_broadcast")
        self._hook_on_dispatch = _hook(prot, "on_dispatch")
        self._hook_on_commit = _hook(prot, "on_commit")
        self._hook_on_branch_resolved = _hook(prot, "on_branch_resolved")
        self._hook_load_invisible = _hook(prot, "load_executes_invisibly")
        # Per-phase working sets, bundled so each phase pays ONE attribute
        # load plus a tuple unpack instead of re-hoisting ~20 locals per
        # call.  Only references that are never rebound belong here: the
        # micro-op tables, the RAT/PRF arrays, the ROB deque, the
        # completion heap and bound methods.  Anything a squash rebinds
        # (lsq.loads/stores, _pending_mem) is read fresh inside the phase.
        self._flags = u.flags
        self._disp_tables = (
            u.flags, u.rd, u.srcs, self.rat.map, self.iq.insert,
            self.rob.entries, self.rob.capacity, self.iq.capacity,
            self.rat.rename_dest, self.prf._free, self._hook_on_dispatch,
            self.stats,
        )
        self._issue_tables = (
            u.latency, u.flags, u.imm, self.prf.value, self.iq.select,
            self._hook_may_issue, self.rob.entries, self._completions,
            self.stats,
        )
        self._wb_tables = (
            u.kinds, u.exec_fns, u.imm, self.prf.value, self.iq.broadcast,
            self.rob.entries, self.protection, self._hook_may_broadcast,
        )
        self._commit_tables = (
            u.flags, u.op_ids, self.rob.entries, self.lsq,
            self.rat.retire, self.stats, self._hook_on_commit,
        )

    # ================================================================== #
    # Public driving interface.
    # ================================================================== #

    def run(
        self,
        max_cycles: int = 5_000_000,
        deadlock_cycles: int = 100_000,
    ) -> RunOutcome:
        """Simulate until HALT (or the program runs out), then report."""
        wall_start = time.perf_counter()
        fast = self.fast_forward
        iq = self.iq
        step = self.step
        probe = self._next_interesting_cycle
        skip = self._skip_to
        probe_busy = self._hook_may_issue is not None
        while not self.halted and self.cycle < max_cycles:
            # Inline gate: with a non-empty ready pool the probe can only
            # find a skip while a serializing op holds dispatch (the
            # window drains down to it) or when the scheme may veto every
            # ready entry; any other busy cycle steps without probing,
            # since on issue-bound phases the probe's cost per cycle is
            # the whole fast-forward overhead.  (iq.ready is read fresh
            # each iteration: select/remove_squashed rebind it.)
            if fast and (
                probe_busy or not iq.ready or self._fence_seq is not None
            ):
                # Never skip past the cycle at which the deadlock check
                # would fire, so a dead machine raises at the exact same
                # cycle (with identical accounting) as the stepped loop.
                limit = self._last_commit_cycle + deadlock_cycles + 1
                if max_cycles < limit:
                    limit = max_cycles
                if self.cycle < limit:
                    target = probe(limit)
                    if target > self.cycle:
                        skip(target)
                        if self.cycle >= max_cycles:
                            break
                        if (
                            self.cycle - self._last_commit_cycle
                            > deadlock_cycles
                        ):
                            raise self._deadlock_error(deadlock_cycles)
            step()
            if self.cycle - self._last_commit_cycle > deadlock_cycles:
                raise self._deadlock_error(deadlock_cycles)
        return self.finish_run(time.perf_counter() - wall_start)

    def finish_run(self, wall: float) -> RunOutcome:
        """Final accounting once a run is over (halted or out of budget)."""
        self.stats.cycles = self.cycle
        self.stats.committed = self.committed
        self.protection.finalize_stats(self.stats)
        self.stats.sim_wall_seconds = wall
        self.stats.kilo_cycles_per_sec = (
            self.cycle / wall / 1000.0 if wall > 0 else 0.0
        )
        return RunOutcome(
            state=self.arch_state(),
            stats=self.stats,
            label=self.config.label(),
        )

    def _deadlock_error(self, deadlock_cycles: int) -> DeadlockError:
        return DeadlockError(
            "no commit for %d cycles at cycle %d (head=%r)"
            % (deadlock_cycles, self.cycle, self.rob.head)
        )

    def run_to_commit(self, target: int, max_cycles: int) -> None:
        """Advance until *target* committed instructions, HALT, or budget.

        The driver behind sampling windows
        (:func:`repro.stats.sampling.run_window`): each iteration jumps
        over a quiescent span (never past *max_cycles*) when fast-forward
        is enabled, then steps once.  A jump commits nothing, so the
        boundary test sees identical warmup/measure boundaries, and
        stopping at an intermediate commit count and resuming is
        transparent: ``run_to_commit(a); run_to_commit(b)`` equals
        ``run_to_commit(b)`` for any ``a <= b``.  Unlike :meth:`run` it
        has no deadlock check, which is why the two loops stay separate.
        """
        fast = self.fast_forward
        iq = self.iq
        step = self.step
        probe = self._next_interesting_cycle
        skip = self._skip_to
        probe_busy = self._hook_may_issue is not None
        while (
            not self.halted
            and self.cycle < max_cycles
            and self.committed < target
        ):
            if fast and (
                probe_busy or not iq.ready or self._fence_seq is not None
            ):
                jump = probe(max_cycles)
                if jump > self.cycle:
                    skip(jump)
                    if self.cycle >= max_cycles:
                        return
            step()

    def arch_state(self) -> MachineState:
        """Committed architectural state (valid once the ROB is empty)."""
        regs = [
            self.prf.value[self.rat.lookup(reg)]
            for reg in range(NUM_ARCH_REGS)
        ]
        regs[R0] = 0
        return MachineState(
            regs=regs,
            memory=self.mem,
            halted=self.halted,
            pc=self.fetch_unit.fetch_pc,
            committed=self.committed,
            faults=self.stats.faults,
        )

    # ================================================================== #
    # Idle-cycle fast-forward (the event-driven clock).
    # ================================================================== #

    def _next_interesting_cycle(self, limit: int) -> int:
        """Earliest cycle in ``(now, limit]`` at which anything can happen.

        Returns ``now`` itself when the machine is busy this cycle (no
        skip).  A return of ``t > now`` asserts that every cycle in
        ``[now, t)`` is quiescent: every ``step()`` across the span would
        only run the per-cycle accounting that ``_skip_to`` batch-applies.
        The checks mirror ``step()``'s phases; each phase either acts this
        cycle (return ``now``), acts at a known future cycle (bound the
        horizon), or is blocked on one of the other phases' events.
        """
        now = self.cycle
        horizon = limit
        # Issue: busy if select could pick a ready entry this cycle.  A
        # serializing op that is not the ROB head and an entry the
        # scheme's may_issue vetoes wait on events bounded below.
        iq = self.iq
        if iq.ready:
            rob_entries = self.rob.entries
            if iq.can_select(
                now, rob_entries[0] if rob_entries else None,
                self._hook_may_issue,
            ):
                return now
        # Writeback: the completion heap is the primary event source.
        completions = self._completions
        if completions:
            due = completions[0][0]
            if due <= now:
                return now
            if due < horizon:
                horizon = due
        # Memory phase: pending loads retry at their scheduled cycle
        # (WAIT / port-blocked loads reschedule at now+1, so an actively
        # blocked load naturally vetoes skipping).
        pending = self._pending_mem
        if pending:
            due = pending[0][0]
            if due <= now:
                return now
            if due < horizon:
                horizon = due
        # Commit: a completed head either retires this cycle (busy),
        # waits for a known retire_ready (InvisiSpec validation), or
        # waits for its deferred broadcast (the protection's event).
        rob_entries = self.rob.entries
        if rob_entries:
            head = rob_entries[0]
            if head.completed:
                ready = head.retire_ready
                if ready > now:
                    if ready < horizon:
                        horizon = ready
                elif (
                    head.fault is not None
                    or head.bcast
                    or head.phys_dest is None
                ):
                    return now
        # Dispatch: the buffer head either dispatches this cycle (busy),
        # is still in the front-end pipe (event at fetch_cycle + depth),
        # or is structurally blocked — and every unblocker (commit, issue,
        # broadcast) is covered by the other event sources above.
        buffer = self.fetch_unit.buffer
        if buffer:
            fetched = buffer[0]
            due = fetched.fetch_cycle + self._frontend_depth
            if due > now:
                if due < horizon:
                    horizon = due
            elif not self._dispatch_blocked(fetched):
                return now
        # Fetch: acts now, at a known cycle, or on an event.
        due = self.fetch_unit.next_fetch_cycle(now)
        if due is not None:
            if due <= now:
                return now
            if due < horizon:
                horizon = due
        # The protection scheme's own clock (deferred broadcasts, ...).
        if self._has_next_event:
            event = self.protection.next_event(now)
            if event is not None:
                if event <= now:
                    return now
                if event < horizon:
                    horizon = event
        elif self._arbiter.deferred:
            # Inline of the base next_event: deferred broadcasts drain
            # every cycle, so the machine is busy right now.
            return now
        return horizon

    def _dispatch_blocked(self, fetched: FetchedOp) -> bool:
        """Would ``_dispatch`` break before dispatching *fetched*?

        Mirrors the structural break conditions of ``_dispatch`` for the
        buffer head (its age gate is checked by the caller).  The rename
        branch needs no separate check: ``rename_dest`` fails exactly
        when the free list is empty, i.e. when ``free_count == 0``.
        """
        if self._fence_seq is not None:
            return True
        rob = self.rob
        if len(rob.entries) >= rob.capacity:
            return True
        iq = self.iq
        if iq.size >= iq.capacity:
            return True
        u = self.u
        pc = fetched.pc
        if u.rd[pc] > 0 and self.prf.free_count == 0:
            return True
        fl = u.flags[pc]
        lsq = self.lsq
        if fl & F_LOAD and len(lsq.loads) >= lsq.lq_capacity:
            return True
        if fl & F_STORE and len(lsq.stores) >= lsq.sq_capacity:
            return True
        return False

    def _skip_to(self, target: int) -> None:
        """Jump the clock to *target*, batch-applying the accounting the
        skipped (strictly quiescent) cycles would have produced."""
        now = self.cycle
        span = target - now
        stats = self.stats
        # MLP: no new miss can start inside a quiescent span, so the
        # per-cycle outstanding counts collapse to one profile pass.
        mlp_sum, mlp_cycles = self.hierarchy.offchip_profile(now, target)
        if mlp_sum:
            stats.mlp_sum += mlp_sum
            stats.mlp_cycles += mlp_cycles
        # Cycle classification: no commits or squashes while skipping, so
        # every skipped cycle classifies identically (the ROB head and
        # its kind are frozen).  No ILP term either: nothing issues.
        rob_entries = self.rob.entries
        cycle_class = stats.cycle_class
        if rob_entries:
            if self._flags[rob_entries[0].pc] & _F_MEMOP:
                cycle_class[CycleClass.MEMORY_STALL] += span
            else:
                cycle_class[CycleClass.BACKEND_STALL] += span
        else:
            cycle_class[CycleClass.FRONTEND_STALL] += span
        self.ff_skipped_cycles += span
        self.cycle = target
        # Metrics sampling: every sample that would have landed inside
        # the (strictly quiescent, hence frozen) span collapses to one
        # at the landing cycle.  Observers never veto the skip itself.
        obs = self.obs
        if obs is not None and obs.sample_due <= target:
            obs.sample(self, target)

    # ================================================================== #
    # The cycle loop.  Each phase call is guarded by that phase's own
    # side-effect-free early-exit condition, so skipping the call is
    # observationally identical to making it.
    # ================================================================== #

    def step(self) -> None:
        """Advance the machine by one cycle."""
        now = self.cycle
        obs = self.obs
        if obs is not None and obs.sample_due <= now:
            obs.sample(self, now)
        self._ports_used = 0
        self._issued_this_cycle = 0
        self._squashed_this_cycle = False

        completions = self._completions
        if completions and completions[0][0] <= now:
            self._writeback(now)
        if self._arbiter.deferred:
            self._drain_broadcasts(now)
        if self._has_visibility_phase:
            self.protection.load_visibility_phase(now)
        pending = self._pending_mem
        if pending and pending[0][0] <= now:
            self._mem_phase(now)
        if self.iq.ready:
            self._issue(now)
        rob_entries = self.rob.entries
        buffer = self.fetch_unit.buffer
        if (
            buffer
            and self._fence_seq is None
            and buffer[0].fetch_cycle + self._frontend_depth <= now
            and len(rob_entries) < self.rob.capacity
            and self.iq.size < self.iq.capacity
        ):
            self._dispatch(now)
        if len(buffer) < self._fetch_cap:
            n_fetched = self.fetch_unit.fetch(now)
            if n_fetched:
                self.stats.fetched += n_fetched
        if rob_entries and rob_entries[0].completed:
            committed_now = self._commit(now)
        else:
            committed_now = 0

        # Accounting: ILP, MLP, and the Fig. 9a cycle class.
        stats = self.stats
        issued = self._issued_this_cycle
        if issued:
            stats.ilp_sum += issued
            stats.ilp_cycles += 1
        offchip = self.hierarchy._offchip  # rebound on prune: read fresh
        if offchip:
            outstanding = 0
            for c in offchip:
                if c > now:
                    outstanding += 1
            if outstanding:
                stats.mlp_sum += outstanding
                stats.mlp_cycles += 1
        cycle_class = stats.cycle_class
        if committed_now:
            cycle_class[CycleClass.COMMIT] += 1
        elif self._squashed_this_cycle or not rob_entries:
            cycle_class[CycleClass.FRONTEND_STALL] += 1
        elif self._flags[rob_entries[0].pc] & _F_MEMOP:
            cycle_class[CycleClass.MEMORY_STALL] += 1
        else:
            cycle_class[CycleClass.BACKEND_STALL] += 1

        # Program naturally drained?
        if (
            not self.halted
            and not rob_entries
            and not buffer
            and self.program.fetch(self.fetch_unit.fetch_pc) is None
        ):
            self.halted = True

        self.cycle = now + 1

    # ================================================================== #
    # Writeback: completions, branch resolution, violations, broadcast.
    # ================================================================== #

    def _writeback(self, now: int) -> None:
        # One batched pass: pop every due completion, then complete each
        # entry in age order — execute, write the PRF, and broadcast its
        # tag at completion when safe and a port is free (else defer).
        completions = self._completions
        due: List[DynInstr] = []
        pop = heapq.heappop
        while completions and completions[0][0] <= now:
            entry = pop(completions)[2]
            if not entry.squashed:
                due.append(entry)
        if len(due) > 1:
            due.sort(key=_BY_SEQ)
        (kinds, exec_fns, imms, prf_value, broadcast, rob_entries,
         protection, may_broadcast) = self._wb_tables
        issue_width = self._issue_width
        obs = self.obs
        obs_complete = obs.instr_complete if obs is not None else None
        obs_defer = obs.instr_defer if obs is not None else None
        obs_broadcast = obs.instr_broadcast if obs is not None else None
        for entry in due:
            if entry.squashed:
                continue  # an older entry in this batch squashed it
            pc = entry.pc
            kind = kinds[pc]
            if kind == K_ALU:
                vals = entry.src_vals
                a = vals[0] if vals else 0
                b = vals[1] if len(vals) > 1 else 0
                entry.result = exec_fns[pc](a, b)
            elif kind == K_BRANCH:
                self._resolve_branch(entry, now)
            elif kind == K_STORE:
                self._resolve_store(entry, now)
            elif kind == K_CLFLUSH:
                addr = (entry.src_vals[0] + imms[pc]) & U64_MASK
                self.hierarchy.flush_data_line(addr)
            elif kind == K_RDTSC:
                entry.result = now
            elif kind == K_RDMSR:
                imm = imms[pc]
                entry.result = self.msrs.get(imm, 0)
                if not self._priv_mode:
                    entry.fault = "user rdmsr %d" % imm
                    if not self._fwd_faulting:
                        entry.result = 0
            # K_LOAD: result set by the memory phase; K_PASS: nothing.
            entry.completed = True
            entry.complete_cycle = now
            pd = entry.phys_dest
            if pd is not None and entry.result is not None:
                prf_value[pd] = entry.result
            if obs_complete is not None:
                obs_complete(entry, now)
            if pd is None:
                entry.bcast = True  # nothing to broadcast
                continue
            if self._ports_used < issue_width and (
                may_broadcast is None
                or may_broadcast(
                    entry, rob_entries[0].seq if rob_entries else None
                )
            ):
                # Safe at completion: the normal wake-up path, no NDA
                # logic latency involved (only *deferred* wake-ups pay
                # the Fig 9e delay).
                broadcast(pd)
                entry.bcast = True
                entry.bcast_cycle = now
                self._ports_used += 1
                if obs_broadcast is not None:
                    obs_broadcast(entry, now)
            else:
                protection.defer_broadcast(entry)
                if obs_defer is not None:
                    obs_defer(entry, now)

    def _broadcast(self, entry: DynInstr, now: int) -> None:
        """A deferred broadcast, drained by the protection scheme."""
        self.iq.broadcast(entry.phys_dest)
        entry.bcast = True
        entry.bcast_cycle = now
        obs = self.obs
        if obs is not None and obs.instr_broadcast is not None:
            obs.instr_broadcast(entry, now)

    def _drain_broadcasts(self, now: int) -> None:
        head = self.rob.head
        self._ports_used += self.protection.drain_deferred(
            now,
            self._ports_used,
            head.seq if head is not None else None,
            self._broadcast,  # bound method: no per-cycle closure
        )

    # ------------------------------------------------------------------ #
    # Branch resolution.
    # ------------------------------------------------------------------ #

    def _resolve_branch(self, entry: DynInstr, now: int) -> None:
        u = self.u
        pc = entry.pc
        flags = u.flags[pc]
        vals = entry.src_vals

        if flags & F_CONDITIONAL:
            taken = u.cond_fns[pc](vals[0], vals[1])
            actual = u.target[pc] if taken else pc + 1
            self.direction.update(pc, taken)
        else:
            op_id = u.op_ids[pc]
            if op_id == _OPID_JMP:
                taken, actual = True, u.target[pc]
            elif op_id == _OPID_CALL:
                taken, actual = True, u.target[pc]
                entry.result = pc + 1
            elif op_id == _OPID_CALLR:
                taken, actual = True, vals[0] & U64_MASK
                entry.result = pc + 1
                self._update_btb(entry, actual)
            elif op_id == _OPID_JR:
                taken, actual = True, vals[0] & U64_MASK
                self._update_btb(entry, actual)
            elif op_id == _OPID_RET:
                taken, actual = True, vals[0] & U64_MASK
            else:
                raise SimulationError(
                    "unknown branch op %s" % entry.instr.op
                )

        entry.resolved = True
        entry.actual_taken = taken
        entry.actual_next_pc = actual
        on_branch_resolved = self._hook_on_branch_resolved
        if on_branch_resolved is not None:
            on_branch_resolved(entry)
        self.stats.branches_resolved += 1

        fetched = entry.fetched
        if fetched.unpredicted:
            # Fetch stalled behind this branch: no wrong path exists.
            if flags & F_CALL:
                self.ras.push(pc + 1)
            self.fetch_unit.redirect(actual, now + 1)
            return
        if actual != fetched.pred_next_pc:
            entry.mispredicted = True
            self.stats.branch_mispredicts += 1
            self._squash_after(
                entry.seq, actual, now + self._squash_penalty
            )
            self.fetch_unit.repair_ras(fetched.ras_snapshot)

    def _update_btb(self, entry: DynInstr, target: int) -> None:
        self.btb.update(entry.pc, target)
        obs = self.obs
        if obs is not None and obs.btb_update is not None:
            obs.btb_update(entry.pc, target, entry)

    # ------------------------------------------------------------------ #
    # Store resolution.
    # ------------------------------------------------------------------ #

    def _resolve_store(self, entry: DynInstr, now: int) -> None:
        instr = entry.instr
        entry.addr = (entry.src_vals[0] + instr.imm) & U64_MASK
        entry.store_data = entry.src_vals[1]
        if not self.config.privileged_mode and \
                self.program.is_privileged_addr(entry.addr):
            entry.fault = "user store to %#x" % entry.addr
        self.protection.on_store_resolved(entry)
        victim = self.lsq.check_violation(entry)
        if victim is not None:
            self.stats.memory_violations += 1
            self._squash_after(
                victim.seq - 1,
                victim.pc,
                now + self.config.core.squash_penalty,
            )
            older_branch = self.rob.nearest_older_branch(victim.seq)
            if older_branch is not None:
                self.fetch_unit.repair_ras(older_branch.fetched.ras_snapshot)

    # ================================================================== #
    # Squash.
    # ================================================================== #

    def _squash_after(self, seq: int, target_pc: int, refetch_cycle: int):
        """Discard every instruction younger than *seq* and refetch."""
        removed = self.rob.squash_younger(seq)
        for entry in removed:  # youngest first: rollback works in order
            if entry.phys_dest is not None:
                self.rat.rollback(
                    entry.instr.rd, entry.phys_dest, entry.prev_phys
                )
            self.protection.on_squash(entry)
        self.iq.remove_squashed()
        self.lsq.remove_squashed()
        self.protection.after_squash()
        self._pending_mem = [
            item for item in self._pending_mem if not item[2].squashed
        ]
        heapq.heapify(self._pending_mem)
        self.fetch_unit.buffer.clear()
        if self._fence_seq is not None and self._fence_seq > seq:
            self._fence_seq = None
        self.fetch_unit.redirect(target_pc, refetch_cycle)
        self.stats.squashes += 1
        self.stats.squashed_ops += len(removed)
        self._squashed_this_cycle = True
        obs = self.obs
        if obs is not None:
            now = self.cycle
            if obs.instr_squash is not None:
                for entry in removed:
                    obs.instr_squash(entry, now)
            if obs.squash is not None:
                obs.squash(seq, now)

    # ================================================================== #
    # Load memory phase.
    # ================================================================== #

    def _mem_phase(self, now: int) -> None:
        # One heap pop per due load — the pool is never rebuilt (squashed
        # entries are purged eagerly by _squash_after, and dropped here
        # if one squashed within the current cycle).
        pending = self._pending_mem
        ready: List[DynInstr] = []
        pop = heapq.heappop
        while pending and pending[0][0] <= now:
            _, _, entry = pop(pending)
            if not entry.squashed:
                ready.append(entry)
        if len(ready) > 1:
            ready.sort(key=_BY_SEQ)
        dcache_ports = self._dcache_ports
        dcache_used = 0
        push = heapq.heappush
        lsq = self.lsq
        protection = self.protection
        load_invisible = self._hook_load_invisible
        hierarchy = self.hierarchy
        completions = self._completions
        next_cycle = now + 1
        for entry in ready:
            decision = lsq.decide_load(entry)
            action = decision.action
            if action is LoadAction.MEMORY:
                if dcache_used >= dcache_ports:
                    push(pending, (next_cycle, entry.seq, entry))
                    continue
                dcache_used += 1
                entry.data_obtained = True
                entry.bypassed_stores = decision.bypassed_stores or None
                invisible = (
                    load_invisible is not None and load_invisible(entry)
                )
                result = hierarchy.data_access(
                    entry.addr, now, fill=not invisible, entry=entry,
                )
                if invisible:
                    protection.on_invisible_load(entry, result, now)
                entry.result = self._load_value(entry)
                push(completions, (now + result.latency, entry.seq, entry))
            elif action is LoadAction.WAIT:
                push(pending, (next_cycle, entry.seq, entry))
            else:  # FORWARD
                entry.data_obtained = True
                entry.forwarded_from = decision.forwarded_from
                entry.bypassed_stores = decision.bypassed_stores or None
                entry.result = decision.value
                push(completions, (next_cycle, entry.seq, entry))

    def _load_value(self, entry: DynInstr) -> int:
        """Architectural data for a load reading memory (possibly faulting)."""
        addr = entry.addr
        if not self._priv_mode and self.program.is_privileged_addr(addr):
            entry.fault = "user load from %#x" % addr
            if not self._fwd_faulting:
                return 0
        if entry.mem_size == 1:
            return self.mem.read_byte(addr)
        return self.mem.read_word(addr)

    # ================================================================== #
    # Issue: select, then read operands and schedule.
    # ================================================================== #

    def _issue(self, now: int) -> None:
        (latencies, flags, imms, prf_value, select, may_issue,
         rob_entries, completions, stats) = self._issue_tables
        selected = select(
            now, self._issue_width,
            rob_entries[0] if rob_entries else None, may_issue,
        )
        if not selected:
            return
        # Read operands, then queue the memory phase (loads) or the
        # completion (everything else).
        obs = self.obs
        obs_issue = obs.instr_issue if obs is not None else None
        pending_mem = self._pending_mem
        push = heapq.heappush
        for entry in selected:
            entry.issued = True
            entry.issue_cycle = now
            srcs = entry.phys_srcs
            n = len(srcs)
            if n == 2:
                vals = (prf_value[srcs[0]], prf_value[srcs[1]])
            elif n == 1:
                vals = (prf_value[srcs[0]],)
            elif n == 0:
                vals = ()
            else:
                vals = tuple(prf_value[s] for s in srcs)
            entry.src_vals = vals
            if obs_issue is not None:
                obs_issue(entry, now)
            pc = entry.pc
            if flags[pc] & F_LOAD:
                entry.addr = (vals[0] + imms[pc]) & U64_MASK
                push(pending_mem, (now + 1, entry.seq, entry))
            else:
                push(completions, (
                    now + latencies[pc] + entry.issue_penalty,
                    entry.seq, entry,
                ))
        n_issued = len(selected)
        stats.issued += n_issued
        self._issued_this_cycle += n_issued

    # ================================================================== #
    # Dispatch: rename, then insert into the ROB, IQ and LSQ.
    # ================================================================== #

    def _dispatch(self, now: int) -> None:
        (flags, rds, all_srcs, rat_map, iq_insert, rob_entries,
         rob_capacity, iq_capacity, rename_dest, prf_free, on_dispatch,
         stats) = self._disp_tables
        buffer = self.fetch_unit.buffer
        iq = self.iq
        width = self._fetch_width
        depth = self._frontend_depth
        # LSQ lists are rebound by squashes: read fresh each phase.
        lsq = self.lsq
        loads = lsq.loads
        stores = lsq.stores
        lq_capacity = lsq.lq_capacity
        sq_capacity = lsq.sq_capacity
        obs = self.obs
        obs_dispatch = obs.instr_dispatch if obs is not None else None
        count = 0
        while buffer and count < width:
            fetched = buffer[0]
            if fetched.fetch_cycle + depth > now:
                break
            if self._fence_seq is not None:
                break
            if (
                len(rob_entries) >= rob_capacity
                or iq.size >= iq_capacity
            ):
                break
            pc = fetched.pc
            rd = rds[pc]  # -1 for no dest; R0 (0) is never renamed
            if rd > 0 and not prf_free:
                break
            fl = flags[pc]
            # LSQ occupancy.
            if fl & F_LOAD:
                if len(loads) >= lq_capacity:
                    break
            elif fl & F_STORE:
                if len(stores) >= sq_capacity:
                    break
            entry = DynInstr(self._next_seq, fetched, now)
            srcs = all_srcs[pc]
            n = len(srcs)
            if n == 2:
                entry.phys_srcs = (rat_map[srcs[0]], rat_map[srcs[1]])
            elif n == 1:
                entry.phys_srcs = (rat_map[srcs[0]],)
            elif n:
                entry.phys_srcs = tuple(rat_map[s] for s in srcs)
            if rd > 0:
                renamed = rename_dest(rd)
                if renamed is None:
                    break
                entry.phys_dest, entry.prev_phys = renamed
            if fl & F_MEM_BYTE:
                entry.mem_size = 1
            self._next_seq += 1
            buffer.popleft()
            rob_entries.append(entry)
            iq_insert(entry)
            if fl & F_LOAD:
                loads.append(entry)
            elif fl & F_STORE:
                stores.append(entry)
            if on_dispatch is not None:
                on_dispatch(entry)
            if obs_dispatch is not None:
                obs_dispatch(entry, now)
            if fl & F_SERIALIZING:
                # FENCE (speculation barrier) and RDTSC (rdtscp-like
                # measurement fence) block dispatch until they commit.
                self._fence_seq = entry.seq
            stats.dispatched += 1
            count += 1

    # ================================================================== #
    # Commit.
    # ================================================================== #

    def _commit(self, now: int) -> int:
        committed_now = 0
        width = self._commit_width
        (flags, op_ids, rob_entries, lsq, rat_retire, stats,
         on_commit) = self._commit_tables
        obs = self.obs
        obs_retire = obs.instr_retire if obs is not None else None
        while committed_now < width and rob_entries:
            head = rob_entries[0]
            if not head.completed:
                break
            if head.retire_ready > now:
                break
            if head.fault is not None:
                self._commit_fault(head, now)
                committed_now += 1  # classification: progress happened
                break
            if head.phys_dest is not None and not head.bcast:
                break  # waiting for a broadcast port
            # Retire the head.
            pc = head.pc
            fl = flags[pc]
            rob_entries.popleft()
            if fl & _F_MEMOP:
                if fl & F_STORE:
                    self._commit_store(head)
                lsq.retire(head)
            prev = head.prev_phys
            if prev is not None:
                rat_retire(prev)
            if self._fence_seq == head.seq:
                self._fence_seq = None
            if op_ids[pc] == _OPID_HALT:
                self.halted = True
                # Drop anything fetched past the halt.
                if rob_entries:
                    self._squash_after(head.seq, 0, now + 1)
            self.committed += 1
            self._last_commit_cycle = now
            issue_cycle = head.issue_cycle
            if issue_cycle >= 0:
                # Inline stats.record_dispatch_to_issue: the bucket key
                # is the highest power of two <= latency (0 when <= 0).
                latency = issue_cycle - head.dispatch_cycle
                stats.dispatch_to_issue_sum += latency
                stats.dispatch_to_issue_count += 1
                key = (
                    0 if latency <= 0
                    else 1 << (latency.bit_length() - 1)
                )
                hist = stats.dispatch_to_issue_hist
                hist[key] = hist.get(key, 0) + 1
            if on_commit is not None:
                on_commit(head, now)
            if obs_retire is not None:
                obs_retire(head, now)
            committed_now += 1
            if self.halted:
                break
        return committed_now

    def _commit_store(self, head: DynInstr) -> None:
        if head.mem_size == 1:
            self.mem.write_byte(head.addr, head.store_data)
        else:
            self.mem.write_word(head.addr, head.store_data)
        # Write-allocate into the hierarchy (no latency: write buffer).
        self.hierarchy.l1d.fill(head.addr)
        self.hierarchy.l2.fill(head.addr)

    def _commit_fault(self, head: DynInstr, now: int) -> None:
        """The eldest instruction faulted: squash and redirect."""
        self.stats.faults += 1
        handler = self.program.fault_handler
        self._squash_after(
            head.seq - 1,
            handler if handler is not None else 0,
            now + self.config.core.squash_penalty,
        )
        # The faulting instruction architecturally commits as a fault
        # delivery (mirrors ReferenceMachine.step counting).
        self.committed += 1
        self._last_commit_cycle = now
        if handler is None:
            self.halted = True
