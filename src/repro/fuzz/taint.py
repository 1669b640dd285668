"""Transient taint oracle for the out-of-order core.

The oracle answers one question about a single simulation: *did secret
data influence microarchitectural state that survived a squash?*  It is
a pure observer and an ordinary subscriber of the core's event bus
(:mod:`repro.obs.bus`), like the pipeline tracer: a core without a bus
runs the simulator's hot path and its idle-cycle fast-forward
bit-identically, and so does one with the oracle subscribed.  The
oracle never mutates simulator state and draws no randomness.

Taint sources are configured per run: static *secret address ranges*
(any load overlapping one returns tainted data, forever) and an initial
set of dynamically *tainted bytes* (cleared when an architecturally
committed store overwrites them with untainted data — this is how the
speculative-store-bypass slot is modelled: the stale value is secret,
the public overwrite declassifies it).

Propagation follows the dynamic dataflow of the pipeline itself:

* register writes — a completing micro-op taints its physical
  destination iff any physical source was tainted at issue;
* store-to-load forwarding — a load forwarding from a store whose data
  register was tainted becomes tainted (``store_forward``);
* address computation — a load whose *address* operand is tainted is
  itself tainted (double-dereference chains), and its cache fill is a
  transmission;
* control steering — a branch that redirects fetch using tainted
  operands (indirect target or secret-dependent direction) opens a
  *tainted-steered* window: everything younger executes under control
  taint until the branch commits or squashes.

A **candidate** is recorded whenever a tainted micro-op touches state
that squashes do not roll back: a d-cache line fill with a tainted
address (or on a tainted-steered path), a BTB install with a tainted
target, an FPU wake-up paid by a tainted FP op, or an i-cache line fill
while a tainted steer is in flight.  The ``data_fill`` and
``btb_update`` events name the responsible ROB entry; a fill without
one is architectural and ignored.  Candidates are *promoted* to
:class:`LeakWitness` records only when the responsible micro-op is
squashed — i.e. the update was transient yet persists — and are
discarded when it commits (architectural execution is allowed to touch
the caches).  See DESIGN.md §3.4 for the events consumed and the
witness schema.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Set, Tuple

from repro.isa.opcodes import FUType, Opcode
from repro.obs.bus import ensure_bus

#: Covert-channel classes the oracle can witness, matching the channel
#: spellings used by :data:`repro.attacks.taxonomy.IMPLEMENTED`.
CHANNELS: Tuple[str, ...] = ("d-cache", "i-cache", "btb", "fpu")

#: Structures a co-resident context can observe, per sharing mode
#: (repro.smt).  An SMT pair shares the whole L1/L2 hierarchy and the
#: BTB; a shared-L2 pair shares only the L2, but every L1 fill also
#: fills the L2, so d-/i-cache footprints are cross-visible there too.
#: The per-context functional units stay private in both modes, so the
#: fpu channel never crosses.
SHARED_CHANNELS = {
    "smt": ("d-cache", "i-cache", "btb"),
    "l2": ("d-cache", "i-cache"),
}


@dataclass(frozen=True)
class LeakWitness:
    """One observed transient leak: the witness schema (see DESIGN.md).

    ``channel``
        Covert-channel class, one of :data:`CHANNELS`.
    ``seq``
        ROB sequence number of the squashed micro-op responsible.
    ``pc``
        Program counter of that micro-op.
    ``addr``
        Channel-specific payload: filled line address (d-/i-cache),
        installed target (btb), or ``-1`` (fpu).
    ``cycle``
        Cycle at which the persistent state was touched.
    ``detail``
        Human-readable one-liner for reports.
    """

    channel: str
    seq: int
    pc: int
    addr: int
    cycle: int
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


class _Rec:
    """Per-in-flight-micro-op taint state (keyed by ROB seq)."""

    __slots__ = ("val", "addr", "data", "fwd", "ctl")

    def __init__(self):
        self.val = False  # any source register tainted at issue
        self.addr = False  # address operand tainted (loads/stores)
        self.data = False  # data operand tainted (stores)
        self.fwd = False  # forwarded from a tainted store
        self.ctl = False  # issued under an older tainted steer


class TaintOracle:
    """Observe one :class:`OutOfOrderCore` run for transient leaks.

    Attach with :meth:`attach` *before* ``core.run()``; inspect
    :attr:`witnesses` afterwards.  The oracle is single-use: attach a
    fresh instance to a fresh core per simulation.
    """

    def __init__(
        self,
        secret_ranges: Iterable[Tuple[int, int]] = (),
        tainted_bytes: Iterable[int] = (),
        secret_msrs: Iterable[int] = (),
        max_witnesses: int = 256,
        ctx: int = 0,
        shared_channels: Iterable[str] = (),
    ):
        #: Hardware context this oracle (and its secrets) belongs to.  In
        #: a two-context run each context gets its own oracle: the taint
        #: sources are that context's secrets, so a witness here is a
        #: transient promotion of *this* context's data.
        self.ctx = ctx
        #: Channels whose persistent state the co-resident context can
        #: observe (see :data:`SHARED_CHANNELS`).  Witnesses on these are
        #: renamed ``cross-<channel>``: the same squash-surviving update,
        #: but readable without any shared address space.
        self.shared_channels = frozenset(shared_channels)
        self.secret_ranges: Tuple[Tuple[int, int], ...] = tuple(
            (int(lo), int(hi)) for lo, hi in secret_ranges
        )
        for lo, hi in self.secret_ranges:
            if hi <= lo:
                raise ValueError("empty secret range [%#x, %#x)" % (lo, hi))
        self._mem: Set[int] = {int(a) for a in tainted_bytes}
        self.secret_msrs = frozenset(secret_msrs)
        self.max_witnesses = max_witnesses
        self.witnesses: List[LeakWitness] = []
        self.core = None
        self._reg = bytearray()  # physical-register taint bits
        self._recs: Dict[int, _Rec] = {}
        self._steer: Dict[int, int] = {}  # seq -> pc of tainted steers
        self._cands: Dict[int, List[LeakWitness]] = {}
        self._icands: List[Tuple[int, LeakWitness]] = []

    # ------------------------------------------------------------------ #
    # Attachment.
    # ------------------------------------------------------------------ #

    def attach(self, core) -> "TaintOracle":
        """Subscribe the oracle to *core*'s event bus (made if absent)."""
        if self.core is not None:
            raise ValueError("oracle is already attached")
        self.core = core
        self._reg = bytearray(len(core.prf.value))
        ensure_bus(core).subscribe(self)
        return self

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #

    def channels(self) -> Set[str]:
        """Covert-channel classes with at least one witness."""
        return {w.channel for w in self.witnesses}

    def by_channel(self) -> Dict[str, List[LeakWitness]]:
        out: Dict[str, List[LeakWitness]] = {}
        for w in self.witnesses:
            out.setdefault(w.channel, []).append(w)
        return out

    # ------------------------------------------------------------------ #
    # Taint helpers.
    # ------------------------------------------------------------------ #

    def _secret_data(self, addr: int, size: int) -> bool:
        """Does memory ``[addr, addr+size)`` hold tainted data?"""
        end = addr + size
        for lo, hi in self.secret_ranges:
            if addr < hi and end > lo:
                return True
        if self._mem:
            for byte in range(addr, end):
                if byte in self._mem:
                    return True
        return False

    def _under_steer(self, seq: int) -> bool:
        for steer_seq in self._steer:
            if steer_seq < seq:
                return True
        return False

    def _cross(self, channel: str, detail: str) -> Tuple[str, str]:
        """Rename a witness on a shared structure to its cross-* channel."""
        if channel in self.shared_channels:
            return (
                "cross-" + channel,
                detail + " (context %d secret, structure shared with the "
                         "co-resident context)" % self.ctx,
            )
        return channel, detail

    def _cand(self, entry, channel: str, addr: int, detail: str) -> None:
        channel, detail = self._cross(channel, detail)
        witness = LeakWitness(
            channel=channel,
            seq=entry.seq,
            pc=entry.pc,
            addr=addr,
            cycle=self.core.cycle,
            detail=detail,
        )
        self._cands.setdefault(entry.seq, []).append(witness)

    def _emit(self, witnesses: List[LeakWitness]) -> None:
        room = self.max_witnesses - len(self.witnesses)
        if room > 0:
            self.witnesses.extend(witnesses[:room])

    # ------------------------------------------------------------------ #
    # Bus events (repro.obs.bus.EVENT_NAMES).
    # ------------------------------------------------------------------ #

    def instr_issue(self, entry, now: int) -> None:
        """A micro-op left the issue queue with its operands read."""
        reg = self._reg
        rec = _Rec()
        for src in entry.phys_srcs:
            if reg[src]:
                rec.val = True
                break
        if self._steer and self._under_steer(entry.seq):
            rec.ctl = True
        srcs = entry.phys_srcs
        if entry.is_load:
            rec.addr = bool(srcs) and bool(reg[srcs[0]])
        elif entry.is_store:
            rec.addr = bool(srcs) and bool(reg[srcs[0]])
            rec.data = len(srcs) > 1 and bool(reg[srcs[1]])
        self._recs[entry.seq] = rec
        if (
            entry.issue_penalty > 0
            and entry.instr.info.fu is FUType.FP
            and (rec.val or rec.ctl)
        ):
            # Waking a power-gated FPU is persistent, timeable state
            # (the NetSpectre channel).
            self._cand(
                entry, "fpu", -1,
                "FPU woken by a tainted FP op" if rec.val
                else "FPU woken on a tainted-steered path",
            )

    def store_forward(self, load, store) -> None:
        """LSQ forwarded *store*'s data to *load* (store-to-load)."""
        rec = self._recs.get(load.seq)
        srec = self._recs.get(store.seq)
        if rec is not None and srec is not None and srec.data:
            rec.fwd = True

    def instr_complete(self, entry, now: int) -> None:
        """A micro-op finished executing (result already in the PRF).

        A load's taint is settled here rather than in its memory phase:
        a load that did not forward read memory, and nothing changes
        those bytes' taint in between (an older overlapping store that
        resolves meanwhile squashes the load; a younger one cannot
        commit first).
        """
        rec = self._recs.get(entry.seq)
        if rec is None:
            return
        if entry.is_load:
            if rec.addr or rec.fwd:
                rec.val = True
            elif entry.forwarded_from is None and self._secret_data(
                    entry.addr, entry.mem_size):
                rec.val = True
        instr = entry.instr
        if instr.op is Opcode.RDMSR and instr.imm in self.secret_msrs:
            rec.val = True
        if entry.phys_dest is not None:
            self._reg[entry.phys_dest] = 1 if rec.val else 0
        if instr.info.is_branch and rec.val:
            fetched = entry.fetched
            if fetched.unpredicted or \
                    entry.actual_next_pc != fetched.pred_next_pc:
                # Resolution redirected fetch to a tainted-derived
                # target (or direction): a tainted-steered window opens.
                self._steer[entry.seq] = entry.pc

    def instr_squash(self, entry, now: int) -> None:
        """*entry* was squashed: its candidates were transient — promote."""
        seq = entry.seq
        pending = self._cands.pop(seq, None)
        if pending:
            self._emit(pending)
        self._recs.pop(seq, None)
        self._steer.pop(seq, None)
        if entry.phys_dest is not None:
            self._reg[entry.phys_dest] = 0

    def squash(self, boundary_seq: int, now: int) -> None:
        """All entries younger than *boundary_seq* are gone; i-cache
        fills attributed to a squashed steer were transient.  (Promoted
        once per squash, after every squashed entry's own candidates.)"""
        if not self._icands:
            return
        keep: List[Tuple[int, LeakWitness]] = []
        for steer_seq, witness in self._icands:
            if steer_seq > boundary_seq:
                self._emit([witness])
            else:
                keep.append((steer_seq, witness))
        self._icands = keep

    def instr_retire(self, entry, now: int) -> None:
        """*entry* retired: its footprint is architectural, not a leak."""
        seq = entry.seq
        self._cands.pop(seq, None)
        rec = self._recs.pop(seq, None)
        if self._steer:
            self._steer.pop(seq, None)
        if self._icands:
            self._icands = [
                (s, w) for s, w in self._icands if s != seq
            ]
        if entry.is_store and rec is not None and entry.addr is not None:
            span = range(entry.addr, entry.addr + entry.mem_size)
            if rec.data:
                self._mem.update(span)
            else:
                # Declassify-by-overwrite: a committed store of public
                # data clears the dynamic taint on those bytes (static
                # secret_ranges are never declassified).
                for byte in span:
                    self._mem.discard(byte)
        if entry.prev_phys is not None:
            self._reg[entry.prev_phys] = 0

    def data_fill(self, addr: int, now: int, entry) -> None:
        """The d-side hierarchy filled a line for load *entry*."""
        if entry is None:
            return  # architectural fill (InvisiSpec expose)
        rec = self._recs.get(entry.seq)
        if rec is None or not (rec.addr or rec.ctl):
            return
        self._cand(
            entry, "d-cache", addr,
            "d-cache fill at a tainted address" if rec.addr
            else "d-cache fill on a tainted-steered path",
        )

    def inst_fill(self, addr: int, now: int) -> None:
        """The i-cache filled a line; attribute it to the youngest
        in-flight tainted steer, if any."""
        if not self._steer:
            return
        steer_seq = max(self._steer)
        channel, detail = self._cross(
            "i-cache", "i-cache fill on a tainted-steered path"
        )
        witness = LeakWitness(
            channel=channel,
            seq=steer_seq,
            pc=self._steer[steer_seq],
            addr=addr,
            cycle=now,
            detail=detail,
        )
        self._icands.append((steer_seq, witness))

    def btb_update(self, pc: int, target: int, entry) -> None:
        """Branch *entry* installed/refreshed ``pc -> target``."""
        rec = self._recs.get(entry.seq)
        if rec is None or not (rec.val or rec.ctl):
            return
        self._cand(
            entry, "btb", target,
            "BTB install with a tainted target" if rec.val
            else "BTB install on a tainted-steered path",
        )


def run_with_oracle(
    program,
    config=None,
    *,
    secret_ranges: Iterable[Tuple[int, int]] = (),
    tainted_bytes: Iterable[int] = (),
    secret_msrs: Iterable[int] = (),
    max_cycles: int = 400_000,
    direction_predictor: str = "tournament",
    fast_forward: bool = True,
    max_witnesses: int = 256,
):
    """Simulate *program* on the out-of-order core with a fresh oracle.

    Returns ``(outcome, witnesses)``.  This is the one-call entry point
    the campaign runner, the corpus replay test, and the CLI all share.
    """
    from repro.core import make_core

    core = make_core(
        program, config,
        direction_predictor=direction_predictor,
        fast_forward=fast_forward,
    )
    oracle = TaintOracle(
        secret_ranges=secret_ranges,
        tainted_bytes=tainted_bytes,
        secret_msrs=secret_msrs,
        max_witnesses=max_witnesses,
    )
    oracle.attach(core)
    outcome = core.run(max_cycles=max_cycles)
    return outcome, oracle.witnesses
