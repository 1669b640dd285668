"""Hand-written micro-kernels.

Small, analyzable programs used by unit tests, examples, and the ablation
benchmarks: each isolates one micro-architectural behaviour (pointer
chasing, streaming, dependence chains, branch misprediction, MLP).
"""

from __future__ import annotations

import random

from repro.isa.assembler import Assembler
from repro.isa.program import Program
from repro.isa.registers import R0, R1, R2, R3, R4, R5, R6, R7


def pointer_chase(
    iterations: int = 2000, entries: int = 4096, seed: int = 0
) -> Program:
    """Serial dependent loads through a shuffled in-memory linked list."""
    asm = Assembler("pointer_chase")
    base = 0x200000
    rng = random.Random(seed)
    order = list(range(1, entries))
    rng.shuffle(order)
    order = [0] + order
    for position, entry in enumerate(order):
        successor = order[(position + 1) % entries]
        asm.word(base + entry * 64, base + successor * 64)
    asm.li(R1, base)
    asm.li(R2, iterations)
    asm.label("loop")
    asm.load(R1, R1, 0)
    asm.subi(R2, R2, 1)
    asm.bne(R2, R0, "loop")
    asm.halt()
    return asm.build()


def streaming(iterations: int = 2000, stride: int = 64) -> Program:
    """Independent strided loads: maximum memory-level parallelism."""
    asm = Assembler("streaming")
    base = 0x400000
    asm.li(R1, base)
    asm.li(R2, iterations)
    asm.li(R5, 0)
    asm.label("loop")
    asm.load(R3, R1, 0)
    asm.load(R4, R1, stride)
    asm.load(R6, R1, 2 * stride)
    asm.load(R7, R1, 3 * stride)
    asm.add(R5, R5, R3)
    asm.addi(R1, R1, 4 * stride)
    asm.subi(R2, R2, 1)
    asm.bne(R2, R0, "loop")
    asm.halt()
    return asm.build()


def dependence_chain(iterations: int = 3000) -> Program:
    """A long serial ALU chain: ILP floor of 1."""
    asm = Assembler("dependence_chain")
    asm.li(R1, iterations)
    asm.li(R2, 1)
    asm.label("loop")
    asm.addi(R2, R2, 3)
    asm.xori(R2, R2, 0x55)
    asm.shli(R2, R2, 1)
    asm.shri(R2, R2, 1)
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    return asm.build()


def wide_alu(iterations: int = 3000) -> Program:
    """Independent ALU streams: high ILP, no memory traffic."""
    asm = Assembler("wide_alu")
    asm.li(R1, iterations)
    for reg in (R2, R3, R4, R5, R6, R7):
        asm.li(reg, reg * 17 + 1)
    asm.label("loop")
    asm.addi(R2, R2, 1)
    asm.addi(R3, R3, 2)
    asm.addi(R4, R4, 3)
    asm.addi(R5, R5, 4)
    asm.xori(R6, R6, 0x3C)
    asm.shli(R7, R7, 1)
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    return asm.build()


def mispredict_heavy(iterations: int = 2000, seed: int = 0) -> Program:
    """Branches on random loaded data: ~50% misprediction."""
    asm = Assembler("mispredict_heavy")
    base = 0x600000
    rng = random.Random(seed)
    for index in range(4096):
        asm.word(base + index * 8, rng.randrange(2))
    asm.li(R1, base)
    asm.li(R2, iterations)
    asm.li(R3, 0)
    asm.label("loop")
    asm.load(R4, R1, 0)
    asm.bne(R4, R0, "skip")
    asm.addi(R3, R3, 1)
    asm.label("skip")
    asm.addi(R1, R1, 8)
    asm.andi(R1, R1, base | 0x7FF8)
    asm.ori(R1, R1, base)
    asm.subi(R2, R2, 1)
    asm.bne(R2, R0, "loop")
    asm.halt()
    return asm.build()


def store_load_aliasing(iterations: int = 1500) -> Program:
    """Stores with slowly resolving addresses feeding nearby loads.

    Exercises speculative store bypass, forwarding, and the memory
    dependency unit; the ablation benchmarks use it to price NDA's Bypass
    Restriction.
    """
    asm = Assembler("store_load_aliasing")
    base = 0x800000
    asm.li(R1, iterations)
    asm.li(R2, base)
    asm.li(R3, 13)
    asm.li(R7, 1)
    asm.label("loop")
    # Store address depends on a DIV: resolves late.  It walks the slots
    # base+0 .. base+0x38, aliasing the load below every 8th iteration.
    asm.div(R4, R1, R7)
    asm.shli(R4, R4, 3)
    asm.andi(R4, R4, 0x38)
    asm.add(R5, R2, R4)
    asm.store(R3, R5, 0)
    # The load executes long before the store's address resolves.
    asm.load(R6, R2, 8)
    asm.add(R3, R3, R6)
    asm.ori(R3, R3, 1)
    asm.subi(R1, R1, 1)
    asm.bne(R1, R0, "loop")
    asm.halt()
    return asm.build()


ALL_KERNELS = {
    "pointer_chase": pointer_chase,
    "streaming": streaming,
    "dependence_chain": dependence_chain,
    "wide_alu": wide_alu,
    "mispredict_heavy": mispredict_heavy,
    "store_load_aliasing": store_load_aliasing,
}
