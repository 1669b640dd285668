"""Synthetic SPEC-like program generator.

Turns a :class:`~repro.workloads.profiles.BenchmarkProfile` into a concrete,
deterministic micro-op :class:`~repro.isa.program.Program`:

* a main loop whose body realizes the profile's instruction mix,
* loads/stores spread over four access patterns (pointer-chase through a
  line-granular permutation table, a 4 kB hot set, sequential streaming with
  wraparound, and LCG-randomized accesses over the working set),
* data-dependent conditional branches with a controlled bias (forward
  "diamonds", so generated programs always terminate),
* direct and indirect (function-pointer table) calls to leaf functions.

The same ``(profile, instructions, seed)`` triple always produces the same
program, which is what lets the SMARTS-style sampling harness treat seeds
as checkpoints.
"""

from __future__ import annotations

import random
import struct
import zlib
from typing import List

from repro.isa.assembler import Assembler
from repro.isa.opcodes import ALU_IMM_OPS, ALU_OPS, FP_OPS
from repro.isa.program import Program
from repro.isa.registers import (
    F0, R0, R1, R2, R3, R4, R5, R6, R7, R25, R27, R28, R29,
)
from repro.workloads.profiles import BenchmarkProfile, profile as get_profile

# Memory map for generated programs.
HOT_BASE = 0x0008_0000  # 4 kB hot set
HOT_SIZE = 4 * 1024
FUNC_TABLE = 0x0004_0000  # indirect-call dispatch table
WS_BASE = 0x0100_0000  # working set (power-of-two sized, base-aligned)
CHASE_BASE = 0x0400_0000  # pointer-chase table, one entry per cache line

N_FUNCS = 8
DATA_POOL = tuple(range(9, 25))  # r9..r24 hold integer data
FP_POOL = tuple(range(F0, F0 + 8))
LCG_A = 6364136223846793005
LCG_C = 1442695040888963407


def _pow2_at_least(value: int) -> int:
    size = 1
    while size < value:
        size <<= 1
    return size


class _BodyEmitter:
    """Stateful emission of one loop body according to the mix."""

    def __init__(
        self,
        asm: Assembler,
        prof: BenchmarkProfile,
        rng: random.Random,
        func_labels: List[str],
        ws_mask: int,
        wrap_mask: int,
    ):
        self.asm = asm
        self.prof = prof
        self.rng = rng
        self.func_labels = func_labels
        self.ws_mask = ws_mask
        self.wrap_mask = wrap_mask
        self.emitted = 0
        self.last_dest = DATA_POOL[0]
        self.last_fp_dest = FP_POOL[0]
        self._pending: List[List] = []  # [remaining, label]
        self._label_counter = 0
        self._slots_since_lcg = 0

    # -------------------------------------------------------------- #

    def _note_emitted(self, count: int = 1) -> None:
        self.emitted += count
        for pending in self._pending:
            pending[0] -= count
        while self._pending and self._pending[0][0] <= 0:
            self.asm.label(self._pending.pop(0)[1])

    def _close_pending(self) -> None:
        while self._pending:
            self.asm.label(self._pending.pop(0)[1])

    def _src(self) -> int:
        """Pick a source register: recently written with high probability."""
        if self.rng.random() < 0.4:
            return self.last_dest
        return self.rng.choice(DATA_POOL)

    def _dest(self) -> int:
        dest = self.rng.choice(DATA_POOL)
        self.last_dest = dest
        return dest

    # -------------------------------------------------------------- #
    # Instruction emitters (each returns how many micro-ops it produced).
    # -------------------------------------------------------------- #

    def _emit_lcg_step(self) -> None:
        # r2 = r2 * A + C; A lives in r25.
        self.asm.mul(R2, R2, R25)
        self.asm.addi(R2, R2, LCG_C & 0xFFFF)
        self._note_emitted(2)

    def _maybe_lcg(self) -> None:
        self._slots_since_lcg += 1
        if self._slots_since_lcg >= 12:
            self._slots_since_lcg = 0
            self._emit_lcg_step()

    def emit_alu(self) -> None:
        if self.rng.random() < 0.5:
            op = self.rng.choice(ALU_OPS)
            self.asm._alu(op, self._dest(), self._src(), self._src())
        else:
            op = self.rng.choice(ALU_IMM_OPS)
            imm = self.rng.randrange(1, 64)
            self.asm._alui(op, self._dest(), self._src(), imm)
        self._note_emitted(1)

    def emit_mul(self) -> None:
        self.asm.mul(self._dest(), self._src(), self._src())
        self._note_emitted(1)

    def emit_div(self) -> None:
        # Guarantee a non-zero divisor: or with 1.
        divisor = self._dest()
        self.asm.ori(divisor, self._src(), 1)
        self.asm.div(self._dest(), self._src(), divisor)
        self._note_emitted(2)

    def emit_fp(self) -> None:
        op = self.rng.choice(FP_OPS)
        dest = self.rng.choice(FP_POOL)
        src1 = self.last_fp_dest if self.rng.random() < 0.5 \
            else self.rng.choice(FP_POOL)
        src2 = self.rng.choice(FP_POOL)
        self.asm._alu(op, dest, src1, src2)
        self.last_fp_dest = dest
        self._note_emitted(1)

    # -------------------------------------------------------------- #

    def _mem_pattern(self, allow_chase: bool) -> str:
        prof = self.prof
        roll = self.rng.random()
        if allow_chase and roll < prof.chase_frac:
            return "chase"
        roll -= prof.chase_frac if allow_chase else 0.0
        if roll < prof.hot_frac:
            return "hot"
        roll -= prof.hot_frac
        if roll < prof.stream_frac:
            return "stream"
        return "random"

    def _random_addr_into_r28(self) -> int:
        """Compute a pseudo-random aligned working-set address in r28."""
        self.asm.xor(R28, R2, self._src())
        self.asm.andi(R28, R28, self.ws_mask)
        self.asm.add(R28, R28, R6)
        return 3

    def emit_load(self) -> None:
        pattern = self._mem_pattern(allow_chase=True)
        if pattern == "chase":
            self.asm.load(R3, R3, 0)
            self._note_emitted(1)
            if self.rng.random() < 0.3:
                # Consume the chased pointer so it feeds real work.
                self.asm.add(self._dest(), R3, self._src())
                self._note_emitted(1)
        elif pattern == "hot":
            imm = self.rng.randrange(0, HOT_SIZE - 8) & ~7
            self.asm.load(self._dest(), R5, imm)
            self._note_emitted(1)
        elif pattern == "stream":
            imm = self.rng.randrange(0, 8) * 8
            self.asm.load(self._dest(), R4, imm)
            self._note_emitted(1)
            if self.rng.random() < 0.5:
                self.asm.addi(R4, R4, 64)
                self.asm.andi(R4, R4, self.wrap_mask)
                self._note_emitted(2)
        else:
            extra = self._random_addr_into_r28()
            self.asm.load(self._dest(), R28, 0)
            self._note_emitted(extra + 1)
        self._maybe_lcg()

    def emit_store(self) -> None:
        pattern = self._mem_pattern(allow_chase=False)
        value = self._src()
        if pattern == "hot":
            imm = self.rng.randrange(0, HOT_SIZE - 8) & ~7
            self.asm.store(value, R5, imm)
            self._note_emitted(1)
        elif pattern == "stream":
            imm = self.rng.randrange(0, 8) * 8
            self.asm.store(value, R4, imm)
            self._note_emitted(1)
        else:
            extra = self._random_addr_into_r28()
            self.asm.store(value, R28, 0)
            self._note_emitted(extra + 1)
        self._maybe_lcg()

    # -------------------------------------------------------------- #

    def emit_branch(self) -> None:
        """A forward diamond with the profile's taken bias."""
        self._label_counter += 1
        label = "skip_%d" % self._label_counter
        skip_len = self.rng.randrange(2, 6)
        # Condition mixes a data register with the LCG so that it depends
        # on loaded values but stays roughly uniform.
        self.asm.xor(R29, self._src(), R2)
        self.asm.andi(R29, R29, 0xFF)
        self.asm.blt(R29, R7, label)
        self._note_emitted(3)
        self._pending.append([skip_len, label])
        self._pending.sort(key=lambda pending: pending[0])

    def emit_call(self) -> None:
        if self.rng.random() < self.prof.indirect_call_frac:
            index = self.rng.randrange(N_FUNCS)
            self.asm.load(R28, R27, index * 8)
            self.asm.callr(R28)
            self._note_emitted(2)
        else:
            self.asm.call(self.rng.choice(self.func_labels))
            self._note_emitted(1)

    # -------------------------------------------------------------- #

    def emit_body(self, size: int) -> None:
        prof = self.prof
        thresholds = [
            (prof.load_frac, self.emit_load),
            (prof.store_frac, self.emit_store),
            (prof.fp_frac, self.emit_fp),
            (prof.mul_frac, self.emit_mul),
            (prof.div_frac, self.emit_div),
            (prof.branch_frac, self.emit_branch),
            (prof.call_frac, self.emit_call),
        ]
        while self.emitted < size:
            roll = self.rng.random()
            for fraction, emitter in thresholds:
                if roll < fraction:
                    emitter()
                    break
                roll -= fraction
            else:
                self.emit_alu()
        self._close_pending()


def generate_program(
    prof: BenchmarkProfile,
    instructions: int = 20_000,
    seed: int = 0,
) -> Program:
    """Emit a deterministic program realizing *prof*.

    *instructions* is the approximate number of dynamic micro-ops the main
    loop commits before halting; *seed* selects one of infinitely many
    program variants (the sampling harness's "checkpoints").
    """
    # Code structure depends only on the benchmark (one "binary" per
    # profile); the seed varies data contents and initial register state —
    # the analog of resuming the same binary from different checkpoints,
    # which is what keeps the SMARTS confidence intervals meaningful.
    name_hash = zlib.crc32(prof.name.encode("utf-8"))
    rng = random.Random(name_hash)
    asm = Assembler("%s-s%d" % (prof.name, seed))

    ws_size = _pow2_at_least(max(prof.working_set_bytes, 64 * 1024))
    ws_mask = (ws_size - 1) & ~7
    wrap_mask = WS_BASE | ((ws_size - 1) & ~63)

    # ------------------------------------------------------------------ #
    # Data image.
    # ------------------------------------------------------------------ #
    # Sub-RNG derivation: a distinct string stream per (seed, purpose).
    # The previous affine derivation (seed * 7919 + 13) interleaves the
    # Mersenne Twister seed space, so nearby seeds can produce correlated
    # data images; string seeds hash through SHA-512 (never through
    # PYTHONHASHSEED-randomized ``hash()``, which tuple seeds would use),
    # so they are both well-mixed and stable across processes.
    data_rng = random.Random("%d/data" % seed)
    asm.data(HOT_BASE, bytes(data_rng.randrange(256) for _ in range(HOT_SIZE)))
    seed_region = min(ws_size, 64 * 1024)
    asm.data(
        WS_BASE,
        bytes(data_rng.randrange(256) for _ in range(seed_region)),
    )
    # Pointer-chase table: one entry per 64-byte line, a random cycle,
    # written as one blob so loading the image copies whole pages.
    if prof.chase_frac > 0:
        chase_entries = min(max(ws_size // 64, 1024), 32768)
    else:
        chase_entries = 64
    order = list(range(1, chase_entries))
    data_rng.shuffle(order)
    order = [0] + order
    chase = bytearray(chase_entries * 64)
    for position, entry in enumerate(order):
        successor = order[(position + 1) % chase_entries]
        struct.pack_into("<Q", chase, entry * 64, CHASE_BASE + successor * 64)
    asm.data(CHASE_BASE, chase)

    # ------------------------------------------------------------------ #
    # Code: entry jump, leaf functions, dispatch table, main loop.
    # ------------------------------------------------------------------ #
    asm.jmp("main")
    func_labels: List[str] = []
    func_pcs: List[int] = []
    for index in range(N_FUNCS):
        label = "func_%d" % index
        func_labels.append(label)
        asm.label(label)
        func_pcs.append(asm.here)
        for _ in range(rng.randrange(3, 7)):
            op = rng.choice(ALU_OPS)
            asm._alu(
                op,
                rng.choice(DATA_POOL),
                rng.choice(DATA_POOL),
                rng.choice(DATA_POOL),
            )
        asm.ret()
    for index, pc in enumerate(func_pcs):
        asm.word(FUNC_TABLE + index * 8, pc)

    asm.label("main")
    body_size = prof.body_size
    iters = max(1, instructions // max(body_size, 1))
    asm.li(R1, iters)
    asm.li(R2, (seed * 2 + 1) * 0x5DEECE66D % (1 << 48) | 1)
    asm.li(R3, CHASE_BASE)
    asm.li(R4, WS_BASE)
    asm.li(R5, HOT_BASE)
    asm.li(R6, WS_BASE)
    asm.li(R7, max(1, min(255, int(round(prof.branch_bias * 256)))))
    asm.li(R25, LCG_A)
    asm.li(R27, FUNC_TABLE)
    for reg in DATA_POOL:
        asm.li(reg, data_rng.randrange(1, 1 << 32))
    for reg in FP_POOL:
        asm.li(reg, data_rng.randrange(1, 1 << 62))

    asm.label("loop")
    emitter = _BodyEmitter(asm, prof, rng, func_labels, ws_mask, wrap_mask)
    emitter.emit_body(body_size)
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()

    return asm.build()


def spec_program(
    name: str,
    instructions: int = 20_000,
    seed: int = 0,
) -> Program:
    """Generate the synthetic stand-in for SPEC benchmark *name*."""
    return generate_program(get_profile(name), instructions, seed)
