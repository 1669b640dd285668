"""Gadget-aware program generator for the speculative-leak fuzzer.

Uniform random programs almost never open a useful transient window, so
— like the paper's PoCs and unlike :mod:`repro.workloads.generator`'s
SPEC-like kernels — every generated program is built from one of five
*speculation-heavy templates*, then randomized around the skeleton:
train counts, secret placement and value, transmit strides, dependent-
chain depths and ALU filler all come from a deterministic per-seed RNG
stream, so ``generate(seed)`` is a pure function of the seed (string
sub-seeding, same discipline as the workload generator's data streams).

The five templates and the taxonomy attack whose Table 2 ground truth
they inherit (``FuzzProgram.analog``):

===============  =========  ==================  =======================
template         channel    analog              transient transmitter
===============  =========  ==================  =======================
bounds-check     d-cache    spectre_v1_cache    tainted-address load
indirect-table   btb        spectre_v1_btb      CALLR through a table
store-bypass     d-cache    ssb                 tainted-address load
fp-gadget        fpu        netspectre          FADD wakes gated FPU
cold-jump        i-cache    spectre_icache      JR into a cold stub
===============  =========  ==================  =======================

None of the programs carries a recover phase: leak detection is the
taint oracle's job, which keeps generated programs short (hundreds of
micro-ops) and campaign throughput high.  Secrets are only ever read on
transient paths, so architectural results are secret-independent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple

from repro.attacks.common import (
    ARRAY_SIZE,
    PROBE_BASE,
    PROBE_STRIDE,
    SCRATCH_BASE,
    victim_map,
)
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import (
    F0, F1, F2, LR,
    R10, R11, R12, R13, R14, R15, R16, R17, R18, R19,
    R20, R21, R22, R23,
)

_MAP = victim_map("fuzz")
ARRAY_BASE = _MAP["array"]
SIZE_ADDR = _MAP["size"]
TABLE_BASE = _MAP["table"]
SLOT_ADDR = _MAP["slot"]

#: Registers the ALU filler may clobber (never part of a gadget chain).
_FILLER_REGS = (R14, R15, R16, R17)
_FILLER_OPS = ("add", "sub", "xor", "or_", "and_")


@dataclass(frozen=True)
class FuzzProgram:
    """One generated program plus the oracle configuration it needs."""

    program: Program = field(repr=False)
    template: str
    channel: str  # primary covert-channel class the gadget targets
    analog: str  # taxonomy attack name with matching ground truth
    seed: int
    secret_ranges: Tuple[Tuple[int, int], ...] = ()
    tainted_bytes: Tuple[int, ...] = ()


def _rng_for(seed: int) -> random.Random:
    # String sub-seeding: SHA-512 based, stable across processes (tuple
    # seeds would go through PYTHONHASHSEED-randomized ``hash()``).
    return random.Random("fuzz/%d" % seed)


def _filler(asm: Assembler, rng: random.Random, budget: int = 3) -> None:
    """Emit 0..budget harmless ALU ops (program-shape diversity)."""
    for _ in range(rng.randrange(0, budget + 1)):
        op = getattr(asm, rng.choice(_FILLER_OPS))
        op(rng.choice(_FILLER_REGS), rng.choice(_FILLER_REGS),
           rng.choice(_FILLER_REGS))


def _train_and_fire(
    asm: Assembler, rng: random.Random, oob_index: int
) -> None:
    """Shared attack driver: train the bounds check in-bounds, flush the
    bounds variable, then call once out-of-bounds."""
    train_calls = rng.randrange(3, 8)
    for train in range(train_calls):
        asm.li(R10, train % ARRAY_SIZE)
        asm.call("victim")
    asm.fence()
    asm.li(R20, SIZE_ADDR)
    asm.clflush(R20, 0)
    asm.fence()
    asm.li(R10, oob_index)
    asm.call("victim")
    asm.fence()


def _victim_prologue(asm: Assembler, rng: random.Random) -> None:
    """Common victim head: slow bounds load + mis-trained check."""
    asm.label("victim")
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)  # flushed before the attack call
    _filler(asm, rng)
    asm.bge(R10, R20, "victim_done")
    asm.add(R21, R11, R10)
    asm.loadb(R21, R21, 0)  # the transient secret access


def _secret_site(rng: random.Random) -> Tuple[int, int, int]:
    """Random (offset, address, value) for this program's secret byte."""
    offset = rng.randrange(ARRAY_SIZE, 0x2000)
    return offset, ARRAY_BASE + offset, rng.randrange(1, 256)


def _build_bounds_check(seed: int, rng: random.Random) -> FuzzProgram:
    """Spectre-v1 shape: tainted-address load fills a probe line."""
    offset, secret_addr, secret = _secret_site(rng)
    stride = PROBE_STRIDE * rng.choice((1, 2))
    deep_chain = rng.random() < 0.5  # secret -> address -> second load

    asm = Assembler("fuzz-bounds-check-s%d" % seed)
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes(ARRAY_SIZE))
    asm.data(secret_addr, bytes([secret]))
    asm.jmp("main")

    _victim_prologue(asm, rng)
    _filler(asm, rng)
    asm.mul(R21, R21, R13)
    asm.add(R21, R21, R12)
    asm.load(R21, R21, 0)  # transmit: tainted-address fill
    if deep_chain:
        # Double dereference: the (tainted) loaded word addresses a
        # second load — taint must survive one more hop.
        asm.andi(R21, R21, 0xFFF8)
        asm.add(R21, R21, R12)
        asm.load(R21, R21, 0)
    asm.label("victim_done")
    asm.ret()

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R12, PROBE_BASE)
    asm.li(R13, stride)
    asm.li(R20, secret_addr)
    asm.loadb(R21, R20, 0)  # warm the secret's line
    _train_and_fire(asm, rng, oob_index=offset)
    asm.halt()
    return FuzzProgram(
        program=asm.build(),
        template="bounds-check",
        channel="d-cache",
        analog="spectre_v1_cache",
        seed=seed,
        secret_ranges=((secret_addr, secret_addr + 1),),
    )


def _build_indirect_table(seed: int, rng: random.Random) -> FuzzProgram:
    """CALLR through a corruptible function-pointer table: the BTB
    learns a secret-selected target on the wrong path."""
    offset, secret_addr, secret = _secret_site(rng)
    n_targets = rng.choice((4, 8))

    asm = Assembler("fuzz-indirect-table-s%d" % seed)
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes(ARRAY_SIZE))
    asm.data(secret_addr, bytes([secret]))
    asm.jmp("main")

    _victim_prologue(asm, rng)
    asm.andi(R21, R21, n_targets - 1)
    asm.shli(R21, R21, 3)
    asm.li(R22, TABLE_BASE)
    asm.add(R22, R22, R21)
    asm.load(R22, R22, 0)  # fn pointer: tainted value
    # Save/restore LR around the indirect call: the in-bounds training
    # path executes it architecturally, and CALLR clobbers LR.
    asm.li(R23, SCRATCH_BASE)
    asm.store(LR, R23, 0)
    asm.callr(R22)  # transmit: BTB install with a tainted target
    asm.li(R23, SCRATCH_BASE)
    asm.load(LR, R23, 0)
    asm.label("victim_done")
    asm.ret()

    # Call targets, each on its own i-cache line (cold until steered to).
    target_pcs = []
    asm.align(16)
    for index in range(n_targets):
        target_pcs.append(asm.here)
        asm.nops(rng.randrange(0, 3))
        asm.ret()
        asm.align(16)
    for index, pc in enumerate(target_pcs):
        asm.word(TABLE_BASE + index * 8, pc)

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R20, secret_addr)
    asm.loadb(R21, R20, 0)  # warm the secret's line
    # Warm the pointer table: the transient CALLR only fits inside the
    # window if its function-pointer load is an L1 hit.
    for index in range(n_targets):
        asm.li(R20, TABLE_BASE + index * 8)
        asm.load(R21, R20, 0)
    _train_and_fire(asm, rng, oob_index=offset)
    asm.halt()
    return FuzzProgram(
        program=asm.build(),
        template="indirect-table",
        channel="btb",
        analog="spectre_v1_btb",
        seed=seed,
        secret_ranges=((secret_addr, secret_addr + 1),),
    )


def _build_store_bypass(seed: int, rng: random.Random) -> FuzzProgram:
    """SSB window: a load outruns a slow-addressed store, reads the
    stale secret and transmits it before the violation squash."""
    secret = rng.randrange(1, 256)
    public = rng.randrange(1, 256)
    stride = PROBE_STRIDE * rng.choice((1, 2))
    chain_len = rng.randrange(1, 4)  # mul/div pairs delaying the address

    asm = Assembler("fuzz-store-bypass-s%d" % seed)
    asm.word(SLOT_ADDR, secret)  # stale (secret) contents
    asm.li(R12, PROBE_BASE)
    asm.li(R13, stride)
    asm.li(R20, SLOT_ADDR)
    asm.loadb(R21, R20, 0)  # warm: the bypassing load must be fast
    asm.fence()
    _filler(asm, rng)
    # Store address through a division chain (slow to resolve).
    asm.li(R18, SLOT_ADDR)
    for _ in range(chain_len):
        factor = rng.randrange(3, 9)
        asm.li(R17, factor)
        asm.mul(R18, R18, R17)
        asm.div(R18, R18, R17)  # == SLOT_ADDR, eventually
    asm.li(R20, public)
    asm.store(R20, R18, 0)  # the store the load will bypass
    asm.li(R21, SLOT_ADDR)
    asm.loadb(R10, R21, 0)  # bypasses -> reads the stale secret
    asm.mul(R21, R10, R13)
    asm.add(R21, R21, R12)
    asm.load(R21, R21, 0)  # transmit: tainted-address fill
    asm.fence()
    asm.halt()
    return FuzzProgram(
        program=asm.build(),
        template="store-bypass",
        channel="d-cache",
        analog="ssb",
        seed=seed,
        # Dynamic taint, not a static range: the committed public store
        # declassifies the slot, exactly like the architectural overwrite.
        tainted_bytes=tuple(range(SLOT_ADDR, SLOT_ADDR + 8)),
    )


def _emit_bit_steer(asm: Assembler, rng: random.Random, bit: int) -> None:
    """Secret bit -> indirect-jump target (the NetSpectre/i-cache trick).

    The jump lands on ``victim_done`` for bit 0 and on the instruction
    right after the JR for bit 1; the caller emits that instruction and
    a trailing NOP, then the ``victim_done`` label.
    """
    asm.shri(R21, R21, bit)
    asm.andi(R21, R21, 1)
    asm.shli(R23, R21, 1)
    asm.li(R22, asm.here + 5)  # pc of victim_done below
    asm.sub(R22, R22, R23)
    asm.jr(R22)  # done (bit=0) or the transmitter (bit=1)


def _build_fp_gadget(seed: int, rng: random.Random) -> FuzzProgram:
    """Secret-dependent FP op wakes the power-gated FPU transiently."""
    offset, secret_addr, secret = _secret_site(rng)
    bit = rng.choice([b for b in range(8) if (secret >> b) & 1])

    asm = Assembler("fuzz-fp-gadget-s%d" % seed)
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes(ARRAY_SIZE))  # benign values: bit == 0
    asm.data(secret_addr, bytes([secret]))
    asm.jmp("main")

    _victim_prologue(asm, rng)
    _emit_bit_steer(asm, rng, bit)
    asm.fadd(F0, F1, F2)  # transmit: wake the FPU
    asm.nop()
    asm.label("victim_done")
    asm.ret()

    # No FP op ever executes architecturally, so the FPU stays gated
    # from reset — no sleep spin needed before the attack call.
    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R20, secret_addr)
    asm.loadb(R21, R20, 0)  # warm the secret's line
    _train_and_fire(asm, rng, oob_index=offset)
    asm.halt()
    return FuzzProgram(
        program=asm.build(),
        template="fp-gadget",
        channel="fpu",
        analog="netspectre",
        seed=seed,
        secret_ranges=((secret_addr, secret_addr + 1),),
    )


def _build_cold_jump(seed: int, rng: random.Random) -> FuzzProgram:
    """Tainted JR steers fetch into a cold stub: the i-line fill leaks."""
    offset, secret_addr, secret = _secret_site(rng)
    bit = rng.choice([b for b in range(8) if (secret >> b) & 1])

    asm = Assembler("fuzz-cold-jump-s%d" % seed)
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes(ARRAY_SIZE))
    asm.data(secret_addr, bytes([secret]))
    asm.jmp("main")

    _victim_prologue(asm, rng)
    _emit_bit_steer(asm, rng, bit)
    asm.jmp("stub")  # transmit: fetch fills the stub's i-line
    asm.nop()
    asm.label("victim_done")
    asm.ret()

    # The cold stub: alone on its own i-cache line, never fetched
    # architecturally.
    asm.align(16)
    asm.label("stub")
    asm.nops(rng.randrange(0, 3))
    asm.ret()
    asm.align(16)

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R20, secret_addr)
    asm.loadb(R21, R20, 0)  # warm the secret's line
    _train_and_fire(asm, rng, oob_index=offset)
    asm.halt()
    return FuzzProgram(
        program=asm.build(),
        template="cold-jump",
        channel="i-cache",
        analog="spectre_icache",
        seed=seed,
        secret_ranges=((secret_addr, secret_addr + 1),),
    )


SMT_SLOT_ADDR = victim_map("smt_fuzz")["slot"]


@dataclass(frozen=True)
class SmtFuzzProgram:
    """A co-resident pair: attacker noise program + victim gadget.

    The victim is a regular single-context fuzz gadget; what makes the
    pair cross-context is the machine it runs on (repro.smt) and the
    oracle configuration — the victim's oracle is told which channels
    are shared, so its squash-surviving footprints on those structures
    come back as ``cross-*`` witnesses.  The attacker context never
    shares an address range with the victim's secrets; it exists to
    exercise the shared structures concurrently (arbiter interleaving,
    shared-predictor pollution, shared-cache pressure).
    """

    attacker: Program = field(repr=False)
    victim: FuzzProgram
    template: str
    sharing: str  # "smt" or "l2"
    channel: str  # cross-channel class the victim gadget targets
    seed: int

    @property
    def analog(self) -> str:
        return self.victim.analog


def _build_smt_attacker(seed: int, rng: random.Random) -> Program:
    """A benign co-resident context: a bounded loop of ALU work and
    loads into its own block.  No secrets, no gadgets — its job is to
    run *concurrently*, keeping the round-robin arbiter and the shared
    structures busy while the victim's window opens."""
    iterations = rng.randrange(8, 33)
    asm = Assembler("smt-fuzz-attacker-s%d" % seed)
    asm.li(R18, 0)
    asm.li(R19, iterations)
    asm.label("loop")
    _filler(asm, rng, budget=5)
    if rng.random() < 0.7:
        asm.li(R20, SMT_SLOT_ADDR + 64 * rng.randrange(0, 8))
        asm.load(R21, R20, 0)
    asm.addi(R18, R18, 1)
    asm.blt(R18, R19, "loop")
    asm.halt()
    return asm.build()


#: SMT template -> (victim gadget template, sharing mode).  The fpu
#: gadget is deliberately absent: functional units stay per-context even
#: under SMT partitioning, so that channel cannot cross.
_SMT_VICTIMS: Dict[str, Tuple[str, str]] = {
    "smt-prime-probe": ("bounds-check", "l2"),
    "smt-btb-poison": ("indirect-table", "smt"),
    "smt-cold-steer": ("cold-jump", "smt"),
}

#: SMT template names in round-robin order (seed -> template mapping).
SMT_TEMPLATES: Tuple[str, ...] = tuple(_SMT_VICTIMS)


def smt_template_for_seed(seed: int) -> str:
    """Round-robin SMT template choice."""
    return SMT_TEMPLATES[seed % len(SMT_TEMPLATES)]


def generate_smt(seed: int, template: str = "") -> SmtFuzzProgram:
    """Build the deterministic attacker/victim pair for *seed*."""
    name = template or smt_template_for_seed(seed)
    try:
        victim_template, sharing = _SMT_VICTIMS[name]
    except KeyError:
        raise ValueError(
            "unknown SMT fuzz template %r (have: %s)"
            % (name, ", ".join(SMT_TEMPLATES))
        )
    victim = generate(seed, template=victim_template)
    attacker = _build_smt_attacker(
        seed, random.Random("smt-fuzz/%d" % seed)
    )
    return SmtFuzzProgram(
        attacker=attacker,
        victim=victim,
        template=name,
        sharing=sharing,
        channel="cross-" + victim.channel,
        seed=seed,
    )


_BUILDERS: Dict[str, Callable[[int, random.Random], FuzzProgram]] = {
    "bounds-check": _build_bounds_check,
    "indirect-table": _build_indirect_table,
    "store-bypass": _build_store_bypass,
    "fp-gadget": _build_fp_gadget,
    "cold-jump": _build_cold_jump,
}

#: Template names in round-robin order (seed -> template mapping).
TEMPLATES: Tuple[str, ...] = tuple(_BUILDERS)


def template_for_seed(seed: int) -> str:
    """Round-robin template choice: every window of five consecutive
    seeds covers all four covert-channel classes."""
    return TEMPLATES[seed % len(TEMPLATES)]


def generate(seed: int, template: str = "") -> FuzzProgram:
    """Build the deterministic fuzz program for *seed*.

    Passing *template* overrides the round-robin choice (used by replay
    and the minimizer, which must regenerate exactly what a campaign
    ran).
    """
    name = template or template_for_seed(seed)
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            "unknown fuzz template %r (have: %s)"
            % (name, ", ".join(TEMPLATES))
        )
    return builder(seed, _rng_for(seed))
