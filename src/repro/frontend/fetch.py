"""Fetch unit: follows the predicted path through the static program.

The fetch unit is where wrong-path execution *begins*: it follows whatever
the direction predictor / BTB / RAS say, and the back-end discovers
mispredictions only at branch execution.  Instruction PCs are instruction
indices; the instruction cache is addressed at ``pc * INSTR_BYTES``.

Timing model: L1I hits are fully pipelined (no stall); an L1I miss stalls
fetch until the fill returns.  An indirect branch with no BTB/RAS prediction
stalls fetch at the branch until the back-end resolves it (the paper's §4.1
dispatch-stall argument for phantom branches applies the same way).

:class:`FetchUnit` is the only implementation of fetch: the core calls
:meth:`FetchUnit.fetch` each cycle and dispatches from
:attr:`FetchUnit.buffer`, and its idle-cycle probe asks
:meth:`FetchUnit.next_fetch_cycle`.  The fetch loop reads the micro-op
tables of :mod:`repro.isa.microops`, so only branches pay for a
prediction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.frontend.btb import BTB
from repro.frontend.direction import DirectionPredictor
from repro.frontend.ras import RAS
from repro.isa.instruction import Instr
from repro.isa.microops import F_BRANCH, OP_ID, lower_program
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy

INSTR_BYTES = 4

_OPID_HALT = OP_ID[Opcode.HALT]


class FetchedOp:
    """One fetched micro-op plus its front-end prediction metadata.

    A plain ``__slots__`` class (not a dataclass): one is allocated per
    fetched micro-op, which makes it one of the hottest allocations in
    the simulator.
    """

    __slots__ = (
        "instr", "pc", "fetch_cycle", "pred_next_pc", "pred_taken",
        "ras_snapshot", "btb_hit", "unpredicted",
    )

    def __init__(
        self,
        instr: Instr,
        pc: int,
        fetch_cycle: int,
        pred_next_pc: int,  # where fetch went after this instruction
        pred_taken: bool = False,  # conditional branches only
        ras_snapshot: Optional[tuple] = None,  # branches only (for repair)
        btb_hit: bool = False,
        # True when fetch had no prediction for an indirect branch and
        # stalled behind it: no wrong path to squash, only a redirect.
        unpredicted: bool = False,
    ):
        self.instr = instr
        self.pc = pc
        self.fetch_cycle = fetch_cycle
        self.pred_next_pc = pred_next_pc
        self.pred_taken = pred_taken
        self.ras_snapshot = ras_snapshot
        self.btb_hit = btb_hit
        self.unpredicted = unpredicted


class FetchUnit:
    """Prediction-directed fetch into the fetch buffer."""

    def __init__(
        self,
        program: Program,
        hierarchy: MemoryHierarchy,
        direction: DirectionPredictor,
        btb: BTB,
        ras: RAS,
        fetch_width: int = 8,
    ):
        self.program = program
        self.hierarchy = hierarchy
        self.direction = direction
        self.btb = btb
        self.ras = ras
        self.fetch_width = fetch_width
        #: Fetched micro-ops awaiting dispatch, oldest first.
        self.buffer: Deque[FetchedOp] = deque()
        #: Fetch runs only while the buffer holds fewer ops than this.
        self.capacity = 2 * fetch_width
        self.fetch_pc = 0
        u = lower_program(program)
        self._tables = (u.flags, u.op_ids, program.instrs,
                        len(program.instrs))
        self._icache_ready = 0
        self._current_line = -1
        self._wait_for_resolve = False
        self._halt_seen = False

    def fetch(self, now: int) -> int:
        """Fetch up to ``fetch_width`` micro-ops along the predicted path
        into :attr:`buffer`; returns how many.

        Nothing is fetched while the buffer is at capacity, after a
        HALT, behind an unpredicted indirect branch, or before an
        i-cache fill or a redirect is ready.  Non-branch micro-ops (the
        common case) skip the prediction; a taken prediction, an
        unpredicted indirect target, a HALT or an L1I miss ends the
        group.
        """
        buffer = self.buffer
        if (
            len(buffer) >= self.capacity
            or self._halt_seen
            or self._wait_for_resolve
            or now < self._icache_ready
        ):
            return 0
        flags, op_ids, instrs, n_instr = self._tables
        append = buffer.append
        line_available = self._line_available
        width = self.fetch_width
        count = 0
        while count < width:
            pc = self.fetch_pc
            # Inline program.fetch(pc) (the 0 <= guard matters: an
            # out-of-range pc fetches nothing, it never wraps).
            instr = instrs[pc] if 0 <= pc < n_instr else None
            if instr is None:
                break
            if not line_available(pc, now):
                break  # L1I miss: retry once the fill returns
            if flags[pc] & F_BRANCH:
                fetched = self._predict(instr, now)
                append(fetched)
                count += 1
                self.fetch_pc = fetched.pred_next_pc
                if self._wait_for_resolve:
                    break  # unpredicted indirect target
                if fetched.pred_next_pc != pc + 1:
                    break  # taken prediction ends the fetch group
            else:
                append(FetchedOp(instr, pc, now, pc + 1))
                count += 1
                self.fetch_pc = pc + 1
                if op_ids[pc] == _OPID_HALT:
                    self._halt_seen = True
                    break  # nothing meaningful follows a halt
        return count

    def next_fetch_cycle(self, now: int) -> Optional[int]:
        """First cycle ``>= now`` at which :meth:`fetch` acts, or None
        while fetch waits on an event.

        The events: dispatch drains a full buffer, and a redirect ends a
        HALT stall, an unpredicted-indirect stall, or a ``fetch_pc`` past
        the end of the program.  Otherwise fetch acts once the i-cache
        fill or redirect is ready.  The core's idle-cycle probe uses it.
        """
        if (
            len(self.buffer) >= self.capacity
            or self._halt_seen
            or self._wait_for_resolve
        ):
            return None
        if now < self._icache_ready:
            return self._icache_ready
        if self.program.fetch(self.fetch_pc) is None:
            return None
        return now

    def _line_available(self, pc: int, now: int) -> bool:
        line = (pc * INSTR_BYTES) >> 6
        if line == self._current_line:
            return True
        result = self.hierarchy.inst_access(pc * INSTR_BYTES, now)
        self._current_line = line
        if result.l1_hit:
            return True
        self._icache_ready = now + result.latency
        return False

    # ------------------------------------------------------------------ #

    def _predict(self, instr: Instr, now: int) -> FetchedOp:
        """Predict one branch; sets the stall flag when an indirect
        target is unknown."""
        pc = instr.pc
        op = instr.op
        if instr.info.is_conditional:
            taken = self.direction.predict(pc)
            next_pc = instr.target if taken else pc + 1
            return FetchedOp(
                instr, pc, now, next_pc, pred_taken=taken,
                ras_snapshot=self.ras.snapshot(),
            )
        if op is Opcode.JMP:
            return FetchedOp(
                instr, pc, now, instr.target,
                ras_snapshot=self.ras.snapshot(),
            )
        if op is Opcode.CALL:
            self.ras.push(pc + 1)
            return FetchedOp(
                instr, pc, now, instr.target, pred_taken=True,
                ras_snapshot=self.ras.snapshot(),
            )
        if op is Opcode.CALLR:
            predicted = self.btb.lookup(pc)
            if predicted is None:
                self._wait_for_resolve = True
                return FetchedOp(
                    instr, pc, now, pc + 1,
                    ras_snapshot=self.ras.snapshot(), unpredicted=True,
                )
            self.ras.push(pc + 1)
            return FetchedOp(
                instr, pc, now, predicted, pred_taken=True,
                ras_snapshot=self.ras.snapshot(), btb_hit=True,
            )
        if op is Opcode.JR:
            predicted = self.btb.lookup(pc)
            if predicted is None:
                self._wait_for_resolve = True
                return FetchedOp(
                    instr, pc, now, pc + 1,
                    ras_snapshot=self.ras.snapshot(), unpredicted=True,
                )
            return FetchedOp(
                instr, pc, now, predicted, pred_taken=True,
                ras_snapshot=self.ras.snapshot(), btb_hit=True,
            )
        if op is Opcode.RET:
            predicted = self.ras.pop()
            if predicted is None:
                predicted = self.btb.lookup(pc)
            if predicted is None:
                self._wait_for_resolve = True
                return FetchedOp(
                    instr, pc, now, pc + 1,
                    ras_snapshot=self.ras.snapshot(), unpredicted=True,
                )
            return FetchedOp(
                instr, pc, now, predicted, pred_taken=True,
                ras_snapshot=self.ras.snapshot(),
            )
        raise AssertionError("unhandled branch opcode %s" % op)

    # ------------------------------------------------------------------ #

    def redirect(self, target: int, ready_cycle: int) -> None:
        """Steer fetch to *target*; no instruction fetches before
        *ready_cycle* (squash penalty / front-end refill)."""
        self.fetch_pc = target
        # A squash cancels any in-flight wrong-path instruction fetch.
        self._icache_ready = ready_cycle
        self._wait_for_resolve = False
        self._halt_seen = False
        self._current_line = -1

    def repair_ras(self, snapshot) -> None:
        """Restore the RAS to the snapshot captured at a squashed branch."""
        if snapshot is not None:
            self.ras.restore(snapshot)
