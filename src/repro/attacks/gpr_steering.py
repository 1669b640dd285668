"""Control-steering attack on a register-resident secret (§4.2).

No documented attack leaks from general-purpose registers, but the paper's
second threat model anticipates one: the victim already holds a secret in a
GPR when the attacker steers its control flow, and the wrong path
pre-processes and transmits the register's contents.  NDA's *strict*
propagation exists precisely for this case — permissive propagation marks
only loads unsafe, so the (non-load) pre-processing chain still runs and
the attack succeeds.

Expected Table 2 column: blocked by Strict, Strict+BR, and Full Protection
(the GPR diamonds), and by InvisiSpec (it transmits through the d-cache);
it leaks under Permissive(+BR) and Restricted Loads, which do not protect
GPRs.
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
from repro.isa.registers import R10, R11, R12, R13, R20, R21

_MAP = victim_map("gpr_steering")
SECRET_ADDR = _MAP["secret"]
SIZE_ADDR = _MAP["size"]
BOUND = 8
TRAIN_CALLS = 5


def build_program(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Program:
    guesses = guesses if guesses is not None else default_guesses(secret)
    asm = Assembler("gpr_steering")
    asm.word(SIZE_ADDR, BOUND)
    asm.data(SECRET_ADDR, bytes([secret]))
    asm.jmp("main")

    # Victim: the secret is already in r10; r11 is an attacker-influenced
    # index.  The in-bounds path's own micro-ops double as the wrong-path
    # transmit gadget.
    asm.label("victim")
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)
    asm.bge(R11, R20, "victim_done")  # the steering point
    asm.mul(R21, R10, R13)  # pre-process the GPR (non-load: safe under
    asm.add(R21, R21, R12)  # permissive propagation!)
    asm.load(R21, R21, 0)  # transmit
    asm.label("victim_done")
    asm.li(R10, 0)  # scrub
    asm.ret()

    asm.label("main")
    asm.li(R12, PROBE_BASE)
    asm.li(R13, PROBE_STRIDE)
    # The victim's secret line is warm (it uses the value regularly).
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R21, R20, 0)
    # Train the bounds check in-bounds with a harmless r10.
    for index in range(TRAIN_CALLS):
        asm.li(R10, 0)
        asm.li(R11, index % BOUND)
        asm.call("victim")
    emit_probe_flush(asm, guesses)
    asm.li(R20, SIZE_ADDR)
    asm.clflush(R20, 0)
    asm.fence()
    # The victim loads its secret into r10, then the attacker invokes it
    # with an out-of-bounds index: the wrong path transmits the register.
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R10, R20, 0)
    asm.li(R11, 0x1000)
    asm.call("victim")
    asm.fence()
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
    """Run the GPR-steering attack on *config*."""
    guesses = guesses if guesses is not None else default_guesses(secret)
    program = build_program(secret, guesses)
    outcome = run_attack(
        program, config, in_order=in_order, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="gpr_steering",
        channel="d-cache",
        config_label=outcome.label,
        secret=secret,
        timings=read_timings(outcome, guesses),
        guesses=guesses,
        margin_required=CACHE_LEAK_MARGIN,
        outcome=outcome,
    )
