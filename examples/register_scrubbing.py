"""Listing 4: protecting a register-resident secret.

Permissive NDA protects secrets in *memory* but not in general-purpose
registers (§4.2/§5.5): once the victim has loaded a secret into a GPR, a
steered wrong path can still pre-process and transmit it, because non-load
micro-ops stay safe under permissive propagation.  The paper's §8 proposes
bracketing the window of vulnerability with speculation barriers
(Listing 4); this example emulates that with a FENCE after the steerable
branch, and also shows that strict propagation closes the gap in hardware.

    python examples/register_scrubbing.py
"""

from repro import NDAPolicyName, baseline_ooo, nda_config
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
)
from repro.isa.assembler import Assembler
from repro.isa.registers import R10, R11, R12, R13, R20, R21

SECRET_ADDR = 0x60000
SIZE_ADDR = 0x61000
SECRET = 42
GUESSES = default_guesses(SECRET, 24)


def build(with_barrier: bool):
    asm = Assembler("gpr_leak")
    asm.word(SIZE_ADDR, 8)
    asm.data(SECRET_ADDR, bytes([SECRET]))
    asm.jmp("main")

    # The victim: the secret already lives in r10 when control reaches the
    # steerable branch.  r11 is the attacker-influenced index.
    asm.label("victim")
    asm.li(R20, SIZE_ADDR)
    asm.load(R20, R20, 0)
    asm.bge(R11, R20, "victim_done")  # the steering point
    if with_barrier:
        asm.fence()  # Listing 4: no speculative window past this point
    # In-bounds work that *touches the secret register*: the wrong path
    # reuses exactly these micro-ops as its transmit gadget.
    asm.mul(R21, R10, R13)
    asm.add(R21, R21, R12)
    asm.load(R21, R21, 0)
    asm.label("victim_done")
    asm.li(R10, 0)  # scrub the secret
    asm.ret()

    asm.label("main")
    asm.li(R12, PROBE_BASE)
    asm.li(R13, PROBE_STRIDE)
    # Warm the secret's line: the victim uses it regularly.
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R21, R20, 0)
    # Train the bounds check in-bounds (with a non-secret r10).
    for index in range(5):
        asm.li(R10, 0)
        asm.li(R11, index % 8)
        asm.call("victim")
    emit_probe_flush(asm, GUESSES)
    asm.li(R20, SIZE_ADDR)
    asm.clflush(R20, 0)
    asm.fence()
    # The victim loads its secret into r10 (architecturally legal) and is
    # then invoked with an out-of-bounds index: the wrong path transmits
    # the register's contents.
    asm.li(R20, SECRET_ADDR)
    asm.loadb(R10, R20, 0)
    asm.li(R11, 0x1000)
    asm.call("victim")
    asm.fence()
    emit_cache_recover(asm, GUESSES)
    asm.halt()
    return asm.build()


def attempt(label, config, with_barrier):
    program = build(with_barrier)
    outcome = run_attack(program, config)
    result = AttackOutcome(
        attack="gpr_leak", channel="cache", config_label=outcome.label,
        secret=SECRET, timings=read_timings(outcome, GUESSES),
        guesses=GUESSES, margin_required=CACHE_LEAK_MARGIN,
    )
    print("%-42s leaked=%-5s recovered=%3d margin=%.0f" % (
        label, result.leaked, result.recovered, result.margin,
    ))
    return result


def main() -> None:
    permissive = nda_config(NDAPolicyName.PERMISSIVE)
    strict = nda_config(NDAPolicyName.STRICT)

    print("Secret resides in a GPR when the steering point is reached:\n")
    attempt("insecure OoO, no barrier", baseline_ooo(), False)
    attempt("NDA permissive, no barrier (GPR gap!)", permissive, False)
    attempt("NDA permissive + Listing-4 barrier", permissive, True)
    attempt("NDA strict, no barrier", strict, False)


if __name__ == "__main__":
    main()
