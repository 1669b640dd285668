"""Shared infrastructure for the attack proof-of-concepts.

Every attack is a complete micro-op program that runs on a simulated core:
it mis-trains predictors / arranges hardware state, triggers wrong-path
execution that accesses and covertly transmits a secret, and then executes
a *recover phase* that times the covert channel with ``RDTSC`` and stores
one cycle count per guess into a results array.  The host-side harness
reads the results array out of final memory and decides whether the secret
leaked.

Channel layout notes:

* The probe array uses a 4160-byte stride (4 kB + one line) instead of the
  paper's 512 so that consecutive guesses never collide in an L1 set during
  the destructive recover loop — the same trick real PoCs use.
* ``RDTSC`` is serializing in this ISA (it issues only at the head of the
  ROB), which gives it ``rdtscp``-like fencing semantics without extra
  fences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

from repro.config import SimConfig
from repro.core.inorder import InOrderCore
from repro.core import make_core
from repro.core.outcome import RunOutcome
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import R0, R20, R21, R22, R23, R24, R26, R27, R29

# Shared memory map for attack programs (distinct from workload addresses).
PROBE_BASE = 0x0200_0000
PROBE_STRIDE = 4160  # 4 kB + one line: guess lines never alias in the L1
N_BYTE_VALUES = 256
RESULTS_BASE = 0x0300_0000
SCRATCH_BASE = 0x0310_0000  # link-register save slots etc.

# Victim-side constants shared by several PoCs (and the fuzz generator).
ARRAY_SIZE = 8  # victim array length used by every bounds-check gadget
SECRET_OFFSET = 0x1000  # array[SECRET_OFFSET] aliases the secret byte

# Per-attack victim memory maps.  Every PoC gets its own non-overlapping
# block so that one attack's warm-up can never pollute another's channel
# when programs are concatenated or compared; the single table below is
# the one place those block assignments live (the attack modules and the
# fuzz generator all import from here).
VICTIM_MAPS = {
    "spectre_v1_cache": {"array": 0x0050_0000, "size": 0x0051_0000},
    "spectre_v1_btb": {
        "array": 0x0052_0000, "size": 0x0053_0000, "table": 0x0054_0000,
    },
    "spectre_v2": {"array": 0x0056_0000, "fptr": 0x0057_0000},
    "gpr_steering": {"secret": 0x0058_0000, "size": 0x0059_0000},
    "netspectre": {"array": 0x005A_0000, "size": 0x005B_0000},
    "spectre_icache": {"array": 0x005C_0000, "size": 0x005D_0000},
    "fuzz": {
        "array": 0x0060_0000, "size": 0x0061_0000, "table": 0x0062_0000,
        "slot": 0x0063_0000,
    },
    "meltdown": {
        "kernel": 0x0700_0000, "slow_chain": 0x0071_0000,
        "flag": 0x0072_0000,
    },
    "lazyfp": {"slow_chain": 0x0073_0000},
    "ssb": {"slot": 0x0080_0000},
    # Cross-context attacks (repro.smt): each pair of programs shares main
    # memory, so the attacker and victim blocks — including the handshake
    # flag words both sides poll — live in one table entry per attack
    # instead of being re-declared per module.  ``flags`` is a base; flag
    # word k sits at ``flags + 8*k``.
    "cross_prime_probe": {
        "array": 0x0090_0000, "size": 0x0091_0000, "flags": 0x0092_0000,
    },
    "cross_btb": {
        "array": 0x0093_0000, "size": 0x0094_0000, "flags": 0x0095_0000,
    },
    "cross_ras": {
        "array": 0x0096_0000, "flags": 0x0097_0000, "scratch": 0x0098_0000,
    },
    "smt_fuzz": {
        "array": 0x009A_0000, "size": 0x009B_0000, "table": 0x009C_0000,
        "flags": 0x009D_0000, "slot": 0x009E_0000,
    },
}


def victim_map(attack: str) -> dict:
    """The victim memory-map block assigned to *attack*."""
    return VICTIM_MAPS[attack]

# Margins for deciding that a timing difference constitutes a leak.
CACHE_LEAK_MARGIN = 20  # cycles; L1/L2 hit vs DRAM differ by >= ~100
BTB_LEAK_MARGIN = 5  # cycles; correct vs squashed prediction ~ 10-20


@dataclass
class AttackOutcome:
    """Result of one attack run on one configuration."""

    attack: str
    channel: str
    config_label: str
    secret: int
    timings: List[int]
    guesses: List[int]
    margin_required: int
    outcome: RunOutcome = field(repr=False, default=None)

    @property
    def recovered(self) -> int:
        """The guess whose access was fastest."""
        best = min(range(len(self.timings)), key=lambda i: self.timings[i])
        return self.guesses[best]

    @property
    def margin(self) -> float:
        """How far the fastest guess sits below the median timing."""
        ordered = sorted(self.timings)
        median = ordered[len(ordered) // 2]
        return median - min(self.timings)

    @property
    def leaked(self) -> bool:
        """True when the secret is recoverable from the covert channel."""
        return (
            self.recovered == self.secret
            and self.margin >= self.margin_required
        )

    def timing_of(self, guess: int) -> int:
        return self.timings[self.guesses.index(guess)]

    def __repr__(self) -> str:
        return (
            "<AttackOutcome %s/%s on %s: secret=%d recovered=%d "
            "margin=%.0f leaked=%s>"
            % (self.attack, self.channel, self.config_label, self.secret,
               self.recovered, self.margin, self.leaked)
        )


@dataclass
class BitChannelOutcome:
    """Result of a bit-serial covert channel (NetSpectre / i-cache PoCs).

    These channels transmit one bit per experiment; eight experiments
    reconstruct a byte.  ``bit_timings`` holds one cycle count per bit,
    and a bit decodes to 1 when its timing is *fast* (the wrong path
    warmed the structure).
    """

    attack: str
    channel: str
    config_label: str
    secret: int
    bit_timings: List[int]
    threshold: int  # timings strictly below decode as bit == 1
    margin_required: int
    outcome: RunOutcome = field(repr=False, default=None)

    @property
    def recovered(self) -> int:
        value = 0
        for bit, timing in enumerate(self.bit_timings):
            if timing < self.threshold:
                value |= 1 << bit
        return value

    @property
    def margin(self) -> float:
        """Separation between the fast and slow timing clusters."""
        fast = [t for t in self.bit_timings if t < self.threshold]
        slow = [t for t in self.bit_timings if t >= self.threshold]
        if not fast or not slow:
            return 0.0
        return min(slow) - max(fast)

    @property
    def leaked(self) -> bool:
        if self.recovered != self.secret:
            return False
        ones = bin(self.secret).count("1")
        if 0 < ones < 8:
            return self.margin >= self.margin_required
        # All-zero / all-one secrets have a single cluster; accept the
        # decode alone (the matrix tests use mixed-bit secrets anyway).
        return True

    def __repr__(self) -> str:
        return (
            "<BitChannelOutcome %s/%s on %s: secret=%d recovered=%d "
            "leaked=%s>"
            % (self.attack, self.channel, self.config_label, self.secret,
               self.recovered, self.leaked)
        )


def run_attack(
    program: Program,
    config: SimConfig,
    in_order: bool = False,
    max_cycles: int = 30_000_000,
    fast_forward: bool = True,
) -> RunOutcome:
    """Execute an attack program on the chosen core.

    ``fast_forward`` toggles the OoO core's bit-identical idle-cycle
    fast-forward (attack outcomes and timings are unchanged either way;
    the flag feeds the equivalence tests).
    """
    if in_order:
        return InOrderCore(program, config).run(max_cycles=max_cycles)
    core = make_core(program, config, fast_forward=fast_forward)
    return core.run(max_cycles=max_cycles)


def read_timings(
    outcome: RunOutcome, guesses: List[int]
) -> List[int]:
    """Pull the recover-phase cycle counts out of final memory."""
    memory = outcome.state.memory
    return [
        memory.read_word(RESULTS_BASE + index * 8)
        for index in range(len(guesses))
    ]


# ---------------------------------------------------------------------- #
# Emission helpers shared by the attack programs.  Register convention for
# these blocks: r20-r29 are scratch; attacks keep their own state in
# r8-r19.
# ---------------------------------------------------------------------- #


def emit_probe_flush(asm: Assembler, guesses: List[int]) -> None:
    """Flush every probe line that the recover phase will time.

    Fenced on both sides: CLFLUSH is weakly ordered, so without the leading
    fence a flush can execute before an *older* in-flight load to the same
    line completes, leaving the line resident (the same pitfall real PoCs
    guard against with ``mfence``).
    """
    asm.fence()
    for guess in guesses:
        asm.li(R20, PROBE_BASE + guess * PROBE_STRIDE)
        asm.clflush(R20, 0)
    asm.fence()


def emit_cache_recover(asm: Assembler, guesses: List[int]) -> None:
    """Time a probe-array load per guess; store cycles to the results array.

    Phase 3 of Fig. 3 — runs entirely on the architectural (correct) path.
    Before timing, every probe *page* is touched through a non-measured
    line so that TLB walks do not add noise to the per-line timings (the
    TLB is itself a side channel; here we deliberately neutralize it to
    isolate the d-cache signal).
    """
    for guess in guesses:
        asm.li(R20, PROBE_BASE + guess * PROBE_STRIDE + 1024)
        asm.load(R21, R20, 0)
    asm.fence()
    for index, guess in enumerate(guesses):
        asm.li(R20, PROBE_BASE + guess * PROBE_STRIDE)
        asm.rdtsc(R22)
        asm.load(R21, R20, 0)
        asm.rdtsc(R23)
        asm.sub(R24, R23, R22)
        asm.li(R26, RESULTS_BASE + index * 8)
        asm.store(R24, R26, 0)


# ---------------------------------------------------------------------- #
# Cross-context (repro.smt) helpers.  The attacker and victim are separate
# programs sharing one main memory; they synchronize through flag words
# (main memory is architecturally coherent — the caches model timing only)
# and, where the channel requires it, place key instructions at *matching*
# PCs in both address spaces (the shared BTB is PC-indexed).
# ---------------------------------------------------------------------- #


def pad_to(asm: Assembler, pc: int) -> None:
    """NOP-pad so the next emitted instruction lands exactly at *pc*.

    Cross-context attacks on PC-indexed shared structures (BTB, RAS) need
    the attacker's and victim's key instructions at identical PCs; this
    raises immediately when a program has already grown past the slot.
    """
    gap = pc - asm.here
    if gap < 0:
        raise ValueError(
            "program %r already at pc %d, cannot pad back to %d"
            % (asm.name, asm.here, pc)
        )
    asm.nops(gap)


def emit_set_flag(asm: Assembler, addr: int, value: int = 1) -> None:
    """Store *value* to the flag word at *addr*, fenced afterwards."""
    asm.li(R29, addr)
    asm.li(R27, value)
    asm.store(R27, R29, 0)
    asm.fence()


def emit_spin_nonzero(asm: Assembler, addr: int) -> None:
    """Spin until the flag word at *addr* is non-zero.

    The trailing fence keeps wrong-path execution past the spin exit from
    dispatching before the flag is architecturally observed — without it
    the code after a spin could run transiently while the other context
    is still setting up.
    """
    label = "spin_nz_%d" % asm.here
    asm.li(R29, addr)
    asm.label(label)
    asm.load(R27, R29, 0)
    asm.beq(R27, R0, label)
    asm.fence()


def emit_spin_geq(asm: Assembler, addr: int, reg: int) -> None:
    """Spin until the counter word at *addr* is >= the value in *reg*.

    The REQ/ACK handshake primitive for per-round lockstep between the
    contexts; fenced like :func:`emit_spin_nonzero`.
    """
    label = "spin_geq_%d" % asm.here
    asm.li(R29, addr)
    asm.label(label)
    asm.load(R27, R29, 0)
    asm.blt(R27, reg, label)
    asm.fence()


def run_cross_attack(
    programs: Sequence[Program],
    config: SimConfig,
    sharing: str,
    max_cycles: int = 30_000_000,
    fast_forward: bool = True,
) -> Tuple[object, List[RunOutcome]]:
    """Run an attacker/victim pair co-resident under *config*'s scheme.

    Derives the two-context config (the protection scheme, core, and
    memory parameters are taken from *config*; ``sharing`` picks the
    co-residency mode) and runs both programs on an
    :class:`~repro.smt.SmtMachine`.  Returns ``(machine, outcomes)`` —
    the machine so callers can also pin the arbiter's interleave digest.
    """
    from repro.smt import SmtMachine

    two = replace(
        config, num_contexts=len(programs), sharing=sharing,
    ).validate()
    machine = SmtMachine(list(programs), two, fast_forward=fast_forward)
    outcomes = machine.run(max_cycles=max_cycles)
    return machine, outcomes


def default_guesses(
    secret: int, count: int = 64, span: int = 256
) -> List[int]:
    """An evenly spread guess list guaranteed to include the secret.

    Attacks time every guess with a serializing recover loop, so the unit
    tests and the security matrix use a reduced guess set; the figure
    benchmarks pass ``range(256)`` for the full paper-style sweep.
    """
    if count >= span:
        return list(range(span))
    step = max(1, span // count)
    guesses = sorted(set(range(0, span, step)) | {secret})
    return guesses
