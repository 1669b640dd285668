"""The two-context machine: construction, arbitration, and the run loop.

The model deliberately reuses :class:`OutOfOrderCore` unchanged: each
hardware context is one core instance holding the context's *private*
state (ROB, IQ, LSQ, rename tables, fetch buffer), so
per-context squash and recovery come from the existing machinery for
free.  Sharing is injected at construction through :class:`SharedState`:
the shared objects (main memory, cache hierarchy or L2, BTB, RAS,
direction predictor) are built once and handed to both contexts.

:class:`SmtMachine` steps the contexts in lockstep on a single global
cycle number.  A deterministic round-robin arbiter rotates which context
runs its pipeline phases first each cycle — the only ordering freedom
shared structures observe — so a run is a pure function of (programs,
config) and identical runs produce identical interleavings and stats.

The idle-cycle fast-forward composes: the machine skips a span only when
*every* active context proves quiescence over it, jumping all contexts to
the earliest interesting cycle.  A quiescent context cannot touch shared
state, so the per-core quiescence proofs remain valid jointly.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.config import CoreConfig, SimConfig
from repro.core.ooo import OutOfOrderCore
from repro.core.outcome import RunOutcome
from repro.errors import ConfigError
from repro.frontend.btb import BTB
from repro.frontend.direction import make_direction_predictor
from repro.frontend.ras import RAS
from repro.isa.program import Program
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.memory import MainMemory


@dataclass
class SharedState:
    """Microarchitectural structures shared between contexts.

    Any field left ``None`` is built privately by the receiving core, so
    a ``SharedState()`` with all defaults reproduces a plain
    single-context core bit for bit.
    """

    mem: Optional[MainMemory] = None
    hierarchy: Optional[MemoryHierarchy] = None
    btb: Optional[BTB] = None
    ras: Optional[RAS] = None
    direction: Optional[object] = None


def partitioned_core_config(core: CoreConfig) -> CoreConfig:
    """One context's share of a statically partitioned SMT core.

    Widths, window entries, and functional units are halved (floor 1) —
    the even static partition of Table 3's 8-issue machine.  The physical
    register file and the BTB/RAS sizes are untouched: the former is
    amply sized for the halved ROB, the latter describe the *shared*
    front-end structures.
    """

    def half(value: int) -> int:
        return max(1, value // 2)

    return replace(
        core,
        fetch_width=half(core.fetch_width),
        issue_width=half(core.issue_width),
        commit_width=half(core.commit_width),
        rob_entries=half(core.rob_entries),
        iq_entries=half(core.iq_entries),
        lq_entries=half(core.lq_entries),
        sq_entries=half(core.sq_entries),
        num_alu=half(core.num_alu),
        num_mul=half(core.num_mul),
        num_div=half(core.num_div),
        num_fp=half(core.num_fp),
        num_mem_ports=half(core.num_mem_ports),
        num_branch=half(core.num_branch),
    )


def context_config(config: SimConfig) -> SimConfig:
    """The per-context SimConfig derived from a two-context *config*.

    SMT mode partitions the back end; shared-L2 mode keeps full private
    cores.  The derived config is single-context: each context's core is
    an ordinary core.
    """
    core = (
        partitioned_core_config(config.core)
        if config.sharing == "smt" else config.core
    )
    return replace(config, core=core, num_contexts=1).validate()


class SmtMachine:
    """Two co-resident hardware contexts in lockstep.

    Parameters
    ----------
    programs:
        One :class:`Program` per context (``config.num_contexts`` of
        them).  All images are loaded into one shared main memory, so
        the programs must occupy disjoint address ranges except where
        they intentionally communicate (see ``CROSS_MAPS`` in
        :mod:`repro.attacks.common`).
    config:
        A two-context :class:`SimConfig` (``num_contexts=2``).

    Each context's core reads the shared hierarchy — and its observer
    slot — afresh on every access, which is what lets :meth:`_enter`
    re-route the shared hierarchy's events between contexts.
    """

    def __init__(
        self,
        programs: Sequence[Program],
        config: Optional[SimConfig] = None,
        direction_predictor: str = "tournament",
        fast_forward: bool = True,
    ):
        config = (config or SimConfig(num_contexts=2)).validate()
        if config.num_contexts != len(programs):
            raise ConfigError(
                "config.num_contexts=%d but %d programs supplied"
                % (config.num_contexts, len(programs))
            )
        if config.num_contexts < 2:
            raise ConfigError(
                "SmtMachine needs num_contexts >= 2; single-context runs "
                "use make_core()/simulate()"
            )
        self.config = config
        self.fast_forward = fast_forward

        mem = MainMemory()
        ctx_cfg = context_config(config)
        if config.sharing == "smt":
            base_core = config.core
            shared = SharedState(
                mem=mem,
                hierarchy=MemoryHierarchy(config.mem),
                btb=BTB(base_core.btb_entries, base_core.btb_assoc),
                ras=RAS(base_core.ras_entries),
                direction=make_direction_predictor(
                    direction_predictor, base_core.bp_tables_bits
                ),
            )
            shareds = [shared] * len(programs)
        else:  # "l2": private cores + L1s over one L2
            first = MemoryHierarchy(config.mem)
            shareds = [SharedState(mem=mem, hierarchy=first)]
            for _ in programs[1:]:
                shareds.append(SharedState(
                    mem=mem,
                    hierarchy=MemoryHierarchy(config.mem, l2=first.l2),
                ))
        self.cores: List[OutOfOrderCore] = [
            OutOfOrderCore(
                program, ctx_cfg,
                direction_predictor=direction_predictor,
                fast_forward=fast_forward,
                ctx=index, shared=shareds[index],
            )
            for index, program in enumerate(programs)
        ]
        self.cycle = 0
        #: Rolling digest of (active-mask, leading-context) per simulated
        #: cycle, skipped ones included — the arbiter's interleaving,
        #: pinned by determinism tests and equal with fast_forward off.
        self._interleave = hashlib.sha256()
        # Shared-slot routing (SMT mode only): the shared hierarchy has
        # one observer slot, so each context's event bus (carrying its
        # taint oracle, tracer, ...) is swapped in around that context's
        # phases.  Bound lazily at run() so buses attached after
        # construction are seen.
        self._route = False

    # ------------------------------------------------------------------ #
    # Observer routing over shared structures.
    # ------------------------------------------------------------------ #

    def _bind_routes(self) -> None:
        if self.config.sharing != "smt":
            self._route = False
            return
        self._buses = [c.obs for c in self.cores]
        self._route = any(bus is not None for bus in self._buses)

    def _enter(self, index: int) -> None:
        """Route the shared hierarchy's observer slot to context *index*."""
        self.cores[index].hierarchy.obs = self._buses[index]

    # ------------------------------------------------------------------ #
    # The lockstep run loop.
    # ------------------------------------------------------------------ #

    def _order(self) -> List[int]:
        """Round-robin arbitration: rotate which context goes first."""
        n = len(self.cores)
        start = self.cycle % n
        return [(start + i) % n for i in range(n)]

    def _ff_target(self, active, max_cycles: int,
                   deadlock_cycles: int) -> int:
        """Joint quiescence probe: the earliest cycle at which *any*
        active context can act, or ``now`` when one is busy.

        Valid jointly because a quiescent context performs no fetches,
        issues, fills, or predictor updates over the span — it cannot
        perturb the shared structures the other context's proof reads.
        """
        now = self.cycle
        target = max_cycles
        for core in active:
            if (core.iq.ready and core._fence_seq is None
                    and core._hook_may_issue is None):
                return now
            limit = core._last_commit_cycle + deadlock_cycles + 1
            if max_cycles < limit:
                limit = max_cycles
            if now >= limit:
                return now
            horizon = core._next_interesting_cycle(limit)
            if horizon <= now:
                return now
            if horizon < target:
                target = horizon
        return target

    def run(
        self,
        max_cycles: int = 5_000_000,
        deadlock_cycles: int = 100_000,
    ) -> List[RunOutcome]:
        """Run every context to HALT (or the shared cycle budget).

        Returns one :class:`RunOutcome` per context, in context order.
        A context that halts early freezes; the rest keep running.
        """
        wall_start = time.perf_counter()
        self._bind_routes()
        cores = self.cores
        route = self._route
        while self.cycle < max_cycles:
            active = [core for core in cores if not core.halted]
            if not active:
                break
            # No context halts inside a quiescent span: one mask covers
            # the skipped cycles and the stepped one.
            mask = sum(1 << core.ctx for core in active)
            if self.fast_forward:
                target = self._ff_target(active, max_cycles, deadlock_cycles)
                if target > self.cycle:
                    for core in active:
                        core._skip_to(target)
                    self._digest_span(mask, target)
                    self.cycle = target
                    if self.cycle >= max_cycles:
                        break
                    for core in active:
                        if (self.cycle - core._last_commit_cycle
                                > deadlock_cycles):
                            raise core._deadlock_error(deadlock_cycles)
            order = self._order()
            self._interleave.update(bytes((mask, order[0])))
            for index in order:
                core = cores[index]
                if core.halted:
                    continue
                if route:
                    self._enter(index)
                core.step()
            self.cycle += 1
            for core in active:
                if (not core.halted
                        and core.cycle - core._last_commit_cycle
                        > deadlock_cycles):
                    raise core._deadlock_error(deadlock_cycles)
        wall = time.perf_counter() - wall_start
        return [core.finish_run(wall) for core in cores]

    def _digest_span(self, mask: int, target: int) -> None:
        """Fold the skipped cycles ``[self.cycle, target)`` into the
        interleave digest exactly as stepping each would: the leader of
        cycle ``c`` is ``c % n``.  (Two bytes per cycle; a span never
        outlasts the deadlock window.)"""
        n = len(self.cores)
        start = self.cycle
        period = bytes(
            byte for c in range(start, start + n) for byte in (mask, c % n)
        )
        whole, rest = divmod(target - start, n)
        self._interleave.update(period * whole + period[:2 * rest])

    def interleave_digest(self) -> str:
        """Hex digest of the arbiter's interleaving so far."""
        return self._interleave.hexdigest()


def run_pair(
    programs: Sequence[Program],
    config: Optional[SimConfig] = None,
    *,
    max_cycles: int = 5_000_000,
    deadlock_cycles: int = 100_000,
    fast_forward: bool = True,
) -> List[RunOutcome]:
    """Convenience wrapper: build an :class:`SmtMachine` and run it."""
    machine = SmtMachine(programs, config, fast_forward=fast_forward)
    return machine.run(max_cycles=max_cycles, deadlock_cycles=deadlock_cycles)
