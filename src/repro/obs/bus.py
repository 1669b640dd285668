"""The structured event bus.

The bus is the single object the simulator's observer slots point at,
and the one instrumentation path: the pipeline tracer, the metrics
sampler and the fuzzer's taint oracle are all subscribers.  Every emit
site in the pipeline follows the same two-level guard:

    obs = self.obs
    if obs is not None and obs.instr_retire is not None:
        obs.instr_retire(entry, now)

* ``self.obs is None`` (the default) — one predicate per site, the
  simulation is bit-identical to a build without the bus, and the
  idle-cycle fast-forward is unaffected.  This is the **detached**
  contract, pinned by ``tests/test_obs_bus.py``.
* attached with no subscriber for that event — the per-event attribute
  is still ``None``, so the site costs two attribute loads and a test.
* attached with exactly one subscriber — the attribute *is* the bound
  subscriber method: dispatch is a direct call, no fan-out loop.
* attached with several subscribers — the attribute is a small fan-out
  closure over the subscriber methods.

Subscribers are duck-typed: any object defining one or more of the
:data:`EVENT_NAMES` methods receives those events.  Observers must be
pure — they may read simulator state but never mutate it; bit-identity
with the bus attached is part of the contract and is pinned by tests.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

#: Every event the bus can carry, with the payload each site sends.
#: (This tuple is the machine-readable half of the taxonomy table in
#: DESIGN.md §3.5; keep the two in sync.)
EVENT_NAMES = (
    # out-of-order core lifecycle -------------------------------------- #
    "instr_dispatch",   # (entry, now)   micro-op entered ROB/IQ/LSQ
    "instr_issue",      # (entry, now)   left the issue queue
    "instr_complete",   # (entry, now)   result computed / data returned
    "instr_broadcast",  # (entry, now)   result tag woke dependents
    "instr_defer",      # (entry, now)   broadcast deferred (NDA / ports)
    "instr_retire",     # (entry, now)   architecturally committed
    "instr_squash",     # (entry, now)   discarded on the wrong path
    "squash",           # (seq, now)     squash done: all younger gone
    "btb_update",       # (pc, target, entry)  branch entry wrote the BTB
    # in-order core lifecycle ------------------------------------------ #
    "inorder_step",     # (pc, instr, start_cycle, end_cycle)
    # protection schemes ----------------------------------------------- #
    "load_validate",    # (entry, now, latency)  InvisiSpec validation
    "load_expose",      # (entry, now)           InvisiSpec exposure
    # memory hierarchy ------------------------------------------------- #
    "data_fill",        # (addr, now, entry)  demand miss filled a d-side
                        # line for load entry (None: architectural fill)
    "inst_fill",        # (addr, now)    demand miss filled an i-side line
    # load/store queue ------------------------------------------------- #
    "store_forward",    # (load, store)  store-to-load forwarding
)


class EventBus:
    """Typed event dispatch plus the periodic-sampler clock.

    Construct, optionally :meth:`subscribe` observers and
    :meth:`add_sampler` samplers, then :meth:`attach` to a core.  All
    slots the bus occupies are restored to ``None`` by :meth:`detach`.
    """

    def __init__(self) -> None:
        self._subscribers: List[object] = []
        self._handlers: Dict[str, List] = {name: [] for name in EVENT_NAMES}
        for name in EVENT_NAMES:
            setattr(self, name, None)
        self._samplers: List[object] = []
        #: Next cycle at which :meth:`sample` must run; ``inf`` while no
        #: sampler is registered, so the per-cycle check in ``step()``
        #: never fires.
        self.sample_due: float = float("inf")
        # Weak, so that the core (which holds the bus) is freed by
        # reference counting.
        self._core: Optional[weakref.ref] = None

    # ------------------------------------------------------------------ #
    # Subscription.
    # ------------------------------------------------------------------ #

    def subscribe(self, subscriber: object):
        """Register *subscriber* for every event method it defines."""
        self._subscribers.append(subscriber)
        for name in EVENT_NAMES:
            method = getattr(subscriber, name, None)
            if method is None or not callable(method):
                continue
            handlers = self._handlers[name]
            handlers.append(method)
            if len(handlers) == 1:
                setattr(self, name, method)
            else:
                setattr(self, name, _fan_out(tuple(handlers)))
        return subscriber

    def add_sampler(self, sampler: object, start_cycle: int = 0):
        """Register a periodic sampler (``interval`` attribute, cycles;
        ``on_sample(core, now)`` callback)."""
        sampler._next_due = start_cycle
        self._samplers.append(sampler)
        self.sample_due = min(s._next_due for s in self._samplers)
        return sampler

    def sample(self, core, now: int) -> None:
        """Run every due sampler and advance the shared deadline.

        Called by the cores when ``now >= sample_due`` — including once
        at the end of a fast-forward jump, so quiescent spans collapse
        to a single sample at the landing cycle (the sampled state is
        frozen across the span anyway; see the overhead contract).
        """
        for sampler in self._samplers:
            if now >= sampler._next_due:
                sampler.on_sample(core, now)
                sampler._next_due = now + sampler.interval
        self.sample_due = min(s._next_due for s in self._samplers)

    # ------------------------------------------------------------------ #
    # Attachment.
    # ------------------------------------------------------------------ #

    def attach(self, core) -> "EventBus":
        """Occupy the observer slots of *core* and its subsystems.

        Works for both core classes: the out-of-order core exposes an
        LSQ slot, the in-order core only the hierarchy's.
        """
        self._core = weakref.ref(core)
        core.obs = self
        hierarchy = getattr(core, "hierarchy", None)
        if hierarchy is not None:
            hierarchy.obs = self
        lsq = getattr(core, "lsq", None)
        if lsq is not None:
            lsq.obs = self
        return self

    def detach(self) -> None:
        """Release every slot taken by :meth:`attach`."""
        core = self.core
        if core is None:
            return
        if getattr(core, "obs", None) is self:
            core.obs = None
        for sub in ("hierarchy", "lsq"):
            owner = getattr(core, sub, None)
            if owner is not None and getattr(owner, "obs", None) is self:
                owner.obs = None
        self._core = None

    @property
    def core(self):
        """The core this bus is attached to (None when detached)."""
        return self._core() if self._core is not None else None


def _fan_out(handlers):
    def emit(*args):
        for handler in handlers:
            handler(*args)
    return emit


def ensure_bus(core) -> EventBus:
    """Return the core's attached :class:`EventBus`, creating one if the
    observer slot is empty."""
    obs = getattr(core, "obs", None)
    if isinstance(obs, EventBus):
        return obs
    return EventBus().attach(core)
