"""Reorder buffer and dynamic instruction records.

Each :class:`DynInstr` carries the three NDA status bits the paper adds to
ROB entries — ``unsafe`` (tracked implicitly through the safety logic),
``exec`` (here ``completed``) and ``bcast`` — plus the timestamps the
statistics module needs (dispatch/issue/complete/broadcast cycles).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, Optional, Set

from repro.frontend.fetch import FetchedOp
from repro.isa.instruction import Instr


class DynInstr:
    """One in-flight dynamic micro-op (a ROB entry).

    Class-level defaults stand in for the per-entry zero/None/False
    initialisations, so dispatching an entry pays five attribute stores
    instead of thirty; reads of never-written fields fall back to the
    class attributes (all immutable).
    """

    phys_dest: Optional[int] = None
    prev_phys: Optional[int] = None
    phys_srcs: tuple = ()
    issued = False
    issue_penalty = 0  # extra latency charged at issue (FPU wake)
    completed = False
    bcast = False
    squashed = False
    issue_cycle = -1
    complete_cycle = -1
    bcast_cycle = -1
    # Cycle at which the NDA safety condition was first satisfied; -1
    # while still unsafe.  Used to model extra broadcast-logic latency.
    safe_cycle = -1
    result: Optional[int] = None
    src_vals: tuple = ()  # source values captured at issue
    # Branch resolution.
    resolved = False
    actual_next_pc: Optional[int] = None
    actual_taken = False
    mispredicted = False
    # Memory.
    addr: Optional[int] = None
    mem_size = 8
    store_data: Optional[int] = None
    bypassed_stores: Optional[Set[int]] = None
    forwarded_from: Optional[int] = None
    data_obtained = False  # load has selected its data source
    invisible = False  # InvisiSpec: accessed without filling caches
    needs_validation = False
    retire_ready = 0  # earliest commit cycle (InvisiSpec validation)
    fault: Optional[str] = None

    def __init__(self, seq: int, fetched: FetchedOp, dispatch_cycle: int):
        self.seq = seq
        self.instr: Instr = fetched.instr
        self.pc: int = fetched.pc
        self.fetched = fetched
        self.dispatch_cycle = dispatch_cycle

    # Convenience properties used throughout the pipeline. ------------- #

    @property
    def is_branch(self) -> bool:
        return self.instr.info.is_branch

    @property
    def is_load(self) -> bool:
        return self.instr.info.is_load

    @property
    def is_store(self) -> bool:
        return self.instr.info.is_store

    @property
    def is_load_like(self) -> bool:
        return self.instr.info.is_load_like

    def __repr__(self) -> str:
        flags = "".join(
            ch for ch, cond in (
                ("I", self.issued), ("C", self.completed),
                ("B", self.bcast), ("X", self.squashed),
            ) if cond
        )
        return "<#%d %r %s>" % (self.seq, self.instr, flags or "-")


class ROB:
    """In-order window of in-flight instructions.

    The core appends to and pops from :attr:`entries` directly and
    checks ``len(entries)`` against :attr:`capacity` at dispatch.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.entries: Deque[DynInstr] = deque()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DynInstr]:
        return iter(self.entries)

    @property
    def head(self) -> Optional[DynInstr]:
        return self.entries[0] if self.entries else None

    def squash_younger(self, seq: int) -> "list[DynInstr]":
        """Remove every entry with ``seq > seq`` (youngest first).

        Returns the removed entries in removal (youngest-first) order so the
        caller can walk the rename rollback correctly.
        """
        removed = []
        while self.entries and self.entries[-1].seq > seq:
            entry = self.entries.pop()
            entry.squashed = True
            removed.append(entry)
        return removed

    def nearest_older_branch(self, seq: int) -> Optional[DynInstr]:
        """Youngest branch entry older than *seq* (for RAS repair)."""
        best = None
        for entry in self.entries:
            if entry.seq >= seq:
                break
            if entry.is_branch:
                best = entry
        return best
