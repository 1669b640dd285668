"""Spectre v1 — bounds-check bypass with the d-cache covert channel.

The micro-op realization of the paper's Listing 1.  A victim function
bounds-checks its index before accessing ``array``; the attacker trains the
direction predictor with in-bounds calls, flushes the bounds variable so
the check resolves late, and then calls with an out-of-bounds index that
makes ``array[x]`` alias the secret.  The wrong path loads the secret and
transmits it by touching ``probe[secret * stride]``; the recover phase
times every probe line.

Control-steering attack, d-cache channel: blocked by every NDA policy and
by both InvisiSpec variants (Table 2).
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.common import (
    ARRAY_SIZE,
    CACHE_LEAK_MARGIN,
    PROBE_BASE,
    PROBE_STRIDE,
    SECRET_OFFSET,
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
from repro.isa.registers import R10, R11, R12, R13, R20, R21

_MAP = victim_map("spectre_v1_cache")
ARRAY_BASE = _MAP["array"]
SIZE_ADDR = _MAP["size"]
SECRET_ADDR = ARRAY_BASE + SECRET_OFFSET
TRAIN_CALLS = 6


def build_program(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Program:
    """Assemble the full train / access+transmit / recover program."""
    guesses = guesses if guesses is not None else default_guesses(secret)
    asm = Assembler("spectre_v1_cache")
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes(range(1, ARRAY_SIZE + 1)))
    asm.data(SECRET_ADDR, bytes([secret]))

    asm.jmp("main")

    # Victim (Listing 1 lines 5-9): r10 = x, r11 = array, r12 = probe base,
    # r13 = probe stride.
    asm.label("victim")
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)  # array_size (flushed before the attack call)
    asm.bge(R10, R20, "victim_done")  # the mis-trained bounds check
    asm.add(R21, R11, R10)
    asm.loadb(R21, R21, 0)  # (1) access: secret = array[x]
    asm.mul(R21, R21, R13)  # (2) pre-process: secret * stride
    asm.add(R21, R21, R12)
    asm.load(R21, R21, 0)  # (2) transmit: touch probe[secret * stride]
    asm.label("victim_done")
    asm.ret()

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R12, PROBE_BASE)
    asm.li(R13, PROBE_STRIDE)
    # Warm the secret's line: the victim touched its own secret recently.
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R21, R20, 0)
    # Train the direction predictor with in-bounds calls.
    for index in range(TRAIN_CALLS):
        asm.li(R10, index % ARRAY_SIZE)
        asm.call("victim")
    # Prepare the channel: probe lines cold, bounds check slow to resolve.
    emit_probe_flush(asm, guesses)
    asm.li(R20, SIZE_ADDR)
    asm.clflush(R20, 0)
    asm.fence()
    # The attack call (out-of-bounds x).
    asm.li(R10, SECRET_OFFSET)
    asm.call("victim")
    asm.fence()
    # (3) recover.
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
    """Run the attack on *config* and report whether the secret leaked."""
    guesses = guesses if guesses is not None else default_guesses(secret)
    program = build_program(secret, guesses)
    outcome = run_attack(
        program, config, in_order=in_order, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="spectre_v1",
        channel="cache",
        config_label=outcome.label,
        secret=secret,
        timings=read_timings(outcome, guesses),
        guesses=guesses,
        margin_required=CACHE_LEAK_MARGIN,
        outcome=outcome,
    )
