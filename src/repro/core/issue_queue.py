"""Issue queue: event-driven wake-up plus oldest-first select.

The implementation mirrors real wake-up/select logic: each waiting entry
holds a count of not-yet-ready sources; a tag broadcast sets the
register's ready bit and decrements the count of every consumer
registered on it, and entries whose count hits zero move to the ready
pool, from which select picks oldest-first.  Because readiness is driven
purely by broadcasts, the entire NDA mechanism (deferred tag broadcast)
naturally gates wake-up here, exactly as in the paper's Fig. 2.

This class is the only implementation of insert, wake-up and select:
the core's dispatch calls :meth:`IssueQueue.insert`, both broadcast
sites (at completion and deferred) call :meth:`IssueQueue.broadcast`,
the issue phase calls :meth:`IssueQueue.select`, and the idle-cycle
probe calls :meth:`IssueQueue.can_select`.  Selection reads the
micro-op tables of :mod:`repro.isa.microops` (FU ids, flags,
latencies) and the FU pool's per-cycle counters directly.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional

from repro.core.fu import FUPool
from repro.core.rename import PhysRegFile
from repro.core.rob import DynInstr
from repro.isa.microops import F_SERIALIZING, FU_ID, MicroProgram
from repro.isa.opcodes import FUType

_BY_SEQ = attrgetter("seq")

_FU_FP = FU_ID[FUType.FP]
_FU_DIV = FU_ID[FUType.DIV]

#: A scheme's issue veto, ``may_issue(entry, now)``; None allows all.
MayIssue = Optional[Callable[[DynInstr, int], bool]]


class IssueQueue:
    """Out-of-order scheduler window."""

    def __init__(
        self,
        capacity: int,
        prf: PhysRegFile,
        fus: FUPool,
        micro: MicroProgram,
    ):
        self.capacity = capacity
        # The PRF's ready bits (a list the PRF never rebinds).
        self._ready_bits = prf.ready
        self.fus = fus
        self._tables = (micro.fu_ids, micro.flags, micro.latency)
        #: Entries in the queue (ready or waiting).
        self.size = 0
        #: The ready pool: woken entries not yet selected.
        self.ready: List[DynInstr] = []
        # True while ready is known to be seq-sorted; appends clear it so
        # select() sorts only when a new entry actually arrived.
        self._ready_sorted = True
        # phys reg -> entries waiting on it.
        self._waiters: Dict[int, List[DynInstr]] = {}
        # entry -> outstanding source count (kept off DynInstr to avoid
        # widening its slots for a scheduler-private detail).
        self._pending: Dict[DynInstr, int] = {}

    def insert(self, entry: DynInstr) -> None:
        """Admit a dispatched entry: park it on its unready sources, or
        put it in the ready pool."""
        ready_bits = self._ready_bits
        waiters = self._waiters
        outstanding = 0
        for src in entry.phys_srcs:
            if not ready_bits[src]:
                outstanding += 1
                parked = waiters.get(src)
                if parked is None:
                    waiters[src] = [entry]
                else:
                    parked.append(entry)
        self.size += 1
        if outstanding:
            self._pending[entry] = outstanding
        else:
            self.ready.append(entry)
            self._ready_sorted = False

    def broadcast(self, phys_reg: int) -> None:
        """A tag broadcast on *phys_reg*: mark it ready, wake consumers."""
        self._ready_bits[phys_reg] = True
        waiters = self._waiters.pop(phys_reg, None)
        if not waiters:
            return
        pending = self._pending
        for entry in waiters:
            if entry.squashed:
                pending.pop(entry, None)
                continue
            if entry not in pending:
                continue  # already woken via another source's broadcast
            remaining = pending[entry] - 1
            if remaining <= 0:
                del pending[entry]
                self.ready.append(entry)
                self._ready_sorted = False
            else:
                pending[entry] = remaining

    def remove_squashed(self) -> None:
        self.ready = [e for e in self.ready if not e.squashed]
        self._pending = {
            entry: count
            for entry, count in self._pending.items()
            if not entry.squashed
        }
        self.size = len(self.ready) + len(self._pending)

    def select(
        self,
        now: int,
        width: int,
        head: Optional[DynInstr],
        may_issue: MayIssue,
    ) -> List[DynInstr]:
        """Pick up to *width* ready entries, oldest first.

        An entry is picked when its FU has a free slot this cycle, it is
        not a serializing micro-op (RDTSC, FENCE, HALT) waiting to become
        the ROB *head*, and the scheme's *may_issue* does not veto it.
        Picked entries leave the queue and hold their FU slot; an FP or
        divide op's ``issue_penalty`` is set.  The FU check is inlined
        for pipelined units; the divider (the only unit with per-slot
        busy state) keeps the method call.
        """
        ready = self.ready
        if not self._ready_sorted:
            if len(ready) > 1:
                ready.sort(key=_BY_SEQ)
            self._ready_sorted = True
        fu_ids, flags, latencies = self._tables
        fus = self.fus
        fus_used = fus._used
        if now != fus._used_cycle:
            # Inline fus._roll(now).
            for i in range(len(fus_used)):
                fus_used[i] = 0
            fus._used_cycle = now
        fus_counts = fus._counts_by_id
        can_issue = fus.can_issue_id
        selected: List[DynInstr] = []
        remaining: List[DynInstr] = []
        size_drop = 0
        for entry in ready:
            if entry.squashed:
                size_drop += 1
                continue
            if len(selected) >= width:
                remaining.append(entry)
                continue
            pc = entry.pc
            fu_id = fu_ids[pc]
            if (
                (
                    fus_used[fu_id] < fus_counts[fu_id]
                    and fu_id != _FU_DIV
                    or fu_id == _FU_DIV and can_issue(fu_id, now)
                )
                and (
                    not (flags[pc] & F_SERIALIZING)
                    or head is entry
                )
                and (may_issue is None or may_issue(entry, now))
            ):
                if fu_id == _FU_FP or fu_id == _FU_DIV:
                    entry.issue_penalty = fus.issue_id(
                        fu_id, now, latencies[pc]
                    )
                else:
                    # issue_penalty stays at its class default of 0.
                    fus_used[fu_id] += 1
                selected.append(entry)
                size_drop += 1
            else:
                remaining.append(entry)
        self.ready = remaining  # filtered in order: still seq-sorted
        self.size -= size_drop
        return selected

    def can_select(
        self,
        now: int,
        head: Optional[DynInstr],
        may_issue: MayIssue,
    ) -> bool:
        """Could :meth:`select` pick a ready entry this cycle?

        Applies select's serializing-at-head and *may_issue* rules but
        not FU availability: an FU-blocked entry counts as selectable.
        The idle-cycle probe uses this; an entry that fails either rule
        stays unselectable until a pipeline event (the head moves only
        on a commit or a squash; see ``may_issue``'s contract).
        """
        flags = self._tables[1]
        for entry in self.ready:
            if entry is not head and flags[entry.pc] & F_SERIALIZING:
                continue
            if may_issue is None or may_issue(entry, now):
                return True
        return False
