"""Meltdown (Spectre v3) — chosen-code attack on privileged memory.

Micro-op realization of the paper's Listing 2.  The attacker's own code
loads a kernel byte; the hardware flaw (modeled by
``SimConfig.forward_faulting_loads``) forwards the loaded value to
dependents before the permission check squashes at retirement.  A chain of
flushed pointer-chase loads ahead of the faulting load keeps it away from
the ROB head long enough for the transmit sequence to touch the probe line.
The fault then fires, the handler runs the recover phase.

No branch is involved, so NDA's propagation policies do not block it —
only load restriction (and full protection) does, by refusing to wake the
faulting load's dependents before it can legally retire (Table 2 row 5).
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.common import (
    CACHE_LEAK_MARGIN,
    PROBE_BASE,
    PROBE_STRIDE,
    AttackOutcome,
    default_guesses,
    emit_cache_recover,
    emit_probe_flush,
    read_timings,
    run_attack,
    victim_map,
)
from repro.config import SimConfig
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import R0, R9, R10, R12, R13, R20, R21

_MAP = victim_map("meltdown")
KERNEL_BASE = _MAP["kernel"]
KERNEL_SIZE = 4096
KERNEL_SECRET = KERNEL_BASE + 0x80
SLOW_CHAIN = _MAP["slow_chain"]  # two dependent, flushed loads: the retire anchor
FLAG_ADDR = _MAP["flag"]  # 0 = warm-up fault, 1 = attack fault


def build_program(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Program:
    guesses = guesses if guesses is not None else default_guesses(secret)
    asm = Assembler("meltdown")
    asm.privileged_range(KERNEL_BASE, KERNEL_BASE + KERNEL_SIZE)
    asm.data(KERNEL_SECRET, bytes([secret]))
    asm.word(SLOW_CHAIN, SLOW_CHAIN + 0x800)
    asm.word(SLOW_CHAIN + 0x800, 1)
    asm.fault_handler("handler")

    asm.li(R12, PROBE_BASE)
    asm.li(R13, PROBE_STRIDE)
    # Warm-up: a deliberate faulting access pulls the kernel line into the
    # caches (the access itself fills them; only the architectural write is
    # suppressed).  The handler routes the first fault to the attack stage.
    asm.li(R20, KERNEL_SECRET)
    asm.loadb(R21, R20, 0)  # faults -> handler -> attack

    asm.label("attack")
    emit_probe_flush(asm, guesses)
    # Flush the retire anchor so it keeps the ROB head busy ~2 DRAM trips.
    asm.li(R20, SLOW_CHAIN)
    asm.clflush(R20, 0)
    asm.li(R20, SLOW_CHAIN + 0x800)
    asm.clflush(R20, 0)
    asm.fence()
    # Mark that the next fault is the real one.
    asm.li(R20, 1)
    asm.li(R21, FLAG_ADDR)
    asm.store(R20, R21, 0)
    asm.fence()
    # Retire anchor: two dependent off-chip loads.
    # Keep the critical sequence inside one i-cache line: a line boundary
    # in the middle would let an i-miss serialize its dispatch.
    asm.align(16)
    asm.li(R9, SLOW_CHAIN)
    asm.load(R9, R9, 0)
    asm.load(R9, R9, 0)
    # Phase 1 - access (Listing 2 line 2): the faulting load.
    asm.li(R20, KERNEL_SECRET)
    asm.loadb(R10, R20, 0)
    # Phase 2 - transmit (Listing 2 line 6), in the fault shadow.
    asm.mul(R21, R10, R13)
    asm.add(R21, R21, R12)
    asm.load(R21, R21, 0)
    asm.nop()
    # Unreachable architecturally: the fault always fires first.
    asm.jmp("handler")

    asm.label("handler")
    asm.li(R20, FLAG_ADDR)
    asm.load(R20, R20, 0)
    asm.beq(R20, R0, "attack")
    # Phase 3 - recover.
    emit_cache_recover(asm, guesses)
    asm.halt()
    return asm.build()


def run(
    config: SimConfig,
    secret: int = 42,
    guesses: Optional[List[int]] = None,
    in_order: bool = False,
    fast_forward: bool = True,
) -> AttackOutcome:
    """Run Meltdown on *config*."""
    guesses = guesses if guesses is not None else default_guesses(secret)
    program = build_program(secret, guesses)
    outcome = run_attack(
        program, config, in_order=in_order, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="meltdown",
        channel="cache",
        config_label=outcome.label,
        secret=secret,
        timings=read_timings(outcome, guesses),
        guesses=guesses,
        margin_required=CACHE_LEAK_MARGIN,
        outcome=outcome,
    )
