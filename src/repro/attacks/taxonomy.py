"""The paper's attack taxonomy (Table 1) and protection matrix (Table 2).

:data:`TABLE1` encodes the taxonomy of documented attacks by access method
(control-steering vs. chosen-code) and covert channel.  :func:`expected_leak`
gives Table 2's ground truth for whether a given attack PoC recovers the
secret under a given configuration; the security-matrix test suite checks
the simulator against every cell, and ``benchmarks/bench_table1_taxonomy``
prints the live matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.attacks import (
    cross_btb,
    cross_prime_probe,
    cross_ras,
    gpr_steering,
    lazyfp,
    meltdown,
    netspectre,
    spectre_btb,
    spectre_icache,
    spectre_v1,
    spectre_v2,
    ssb,
)
from repro.config import SimConfig


@dataclass(frozen=True)
class AttackInfo:
    """One taxonomy row."""

    name: str
    access_class: str  # "control-steering" or "chosen-code"
    channel: str  # covert channel used by our PoC
    module: object  # the PoC module (has .run)
    demonstrated_in: str  # citation context from Table 1
    # Cross-context attacks (repro.smt) run an attacker/victim pair of
    # co-resident hardware contexts; single-context rows keep the
    # defaults.
    contexts: int = 1
    sharing: str = ""  # "smt" or "l2" when contexts > 1


# The implemented PoCs, classified per Table 1.
IMPLEMENTED: Tuple[AttackInfo, ...] = (
    AttackInfo("spectre_v1_cache", "control-steering", "d-cache",
               spectre_v1, "Kocher et al. [34]"),
    AttackInfo("spectre_v1_btb", "control-steering", "btb",
               spectre_btb, "this paper, section 3"),
    AttackInfo("spectre_v2", "control-steering", "d-cache",
               spectre_v2, "Kocher et al. [34], v2"),
    AttackInfo("ssb", "control-steering", "d-cache",
               ssb, "Spectre v4 [27]"),
    AttackInfo("gpr_steering", "control-steering", "d-cache",
               gpr_steering, "hypothetical future attack, section 4.2"),
    AttackInfo("netspectre", "control-steering", "fpu",
               netspectre, "Schwarz et al. [55]"),
    AttackInfo("spectre_icache", "control-steering", "i-cache",
               spectre_icache, "Mambretti et al. [39]"),
    AttackInfo("meltdown", "chosen-code", "d-cache",
               meltdown, "Lipp et al. [36]"),
    AttackInfo("lazyfp", "chosen-code", "d-cache",
               lazyfp, "Stecklina & Prescher [59] / v3a"),
)

# Cross-context attacks: an attacker and a victim program co-resident on
# two hardware contexts (repro.smt).  Kept in their own tuple — they run
# on a pair of contexts, never on the single-context in-order core, and
# their channels get distinct "cross-*" names so single-context fuzzing
# claims are unaffected.  All are control-steering in the victim: the
# transient window opens under the victim's own unresolved branch/return.
CROSS_IMPLEMENTED: Tuple[AttackInfo, ...] = (
    AttackInfo("cross_prime_probe", "control-steering", "cross-d-cache",
               cross_prime_probe, "NDA threat model, section 3 (SMT/"
               "co-tenant co-residency)", contexts=2, sharing="l2"),
    AttackInfo("cross_btb", "control-steering", "cross-btb",
               cross_btb, "Spectre v2 cross-context variant [34]",
               contexts=2, sharing="smt"),
    AttackInfo("cross_ras", "control-steering", "cross-ras",
               cross_ras, "ret2spec cross-context variant [41]",
               contexts=2, sharing="smt"),
)

# Channels a co-resident receiver can observe without any shared address
# space; cross-i-cache has no dedicated PoC (the shared L1I is exercised
# incidentally by cross_btb's aliased fetch paths) but the taint oracle
# tracks it.
CROSS_CHANNELS: Tuple[str, ...] = (
    "cross-d-cache", "cross-i-cache", "cross-btb", "cross-ras",
)

# Table 1 rows that have no separate PoC here, with the implemented PoC
# that exercises the same mechanism.
TABLE1_COVERAGE: Dict[str, str] = {
    "Spectre v1": "spectre_v1_cache / spectre_v1_btb",
    "Spectre v1.1": "spectre_v1_cache (store variant of the same steering)",
    "Spectre v2": "spectre_v2",
    "ret2spec": "spectre_v2 (RAS steering uses the same unsafe-window rule)",
    "NetSpectre": "netspectre (FPU power-state channel)",
    "SMoTher Spectre": "netspectre (port-contention needs SMT, which "
                       "Table 3's core lacks; the FPU channel exercises the "
                       "same unsafe-chain dependence)",
    "i-cache channel [39]": "spectre_icache",
    "SSB (Spectre v4)": "ssb",
    "Meltdown (v3/v3a)": "meltdown / lazyfp",
    "LazyFP": "lazyfp",
    "Foreshadow (L1TF)": "meltdown (same faulting-load forwarding flaw)",
    "MDS attacks": "meltdown (same load-like forwarding flaw)",
}


def expected_leak(attack: AttackInfo, config: SimConfig,
                  in_order: bool = False) -> bool:
    """Table 2 ground truth: does *attack* leak under *config*?

    An in-order core never speculates; otherwise the question is
    delegated to the protection model's ``expected_leak`` classmethod, so
    a newly registered scheme ships its own security ground truth.
    """
    if in_order:
        return False
    from repro.schemes.registry import scheme_info

    info = scheme_info(config.scheme)
    return info.model.expected_leak(attack, config.scheme_params)
