"""FenceOnBranch: the lfence-style software-mitigation analog.

The conservative compiler mitigation the paper benchmarks NDA against
serializes execution around speculation sources instead of controlling
data propagation.  This model implements it as two issue-stage gates:

* no micro-op may issue while an *older branch* is unresolved (the
  "lfence after every branch" rule), and
* with ``fence_loads`` (default), a load-like micro-op may issue only
  once every older ROB entry has completed (the "lfence before every
  load" rule), which also stops the branch-free chosen-code attacks
  (Meltdown/LazyFP) and speculative store bypass.

Execution still overlaps within a straight-line, branch-resolved window,
so the scheme is faster than in-order but far slower than NDA — exactly
the trade-off that motivates hardware schemes.

This scheme is intentionally registered through nothing but the public
:func:`repro.schemes.registry.register_scheme` API: it is the worked
example (see DESIGN.md) proving that a new defense needs zero changes to
the core, the config layer, the CLI, the attack matrix, or the cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.rob import DynInstr
from repro.nda.safety import SafetyTracker
from repro.schemes.base import ProtectionModel, SchemeParams
from repro.schemes.registry import register_scheme


@dataclass(frozen=True)
class FenceOnBranchParams(SchemeParams):
    """FenceOnBranch tunables.

    ``fence_loads=False`` drops the second gate, modelling a literal
    "lfence after branches only" mitigation (blocks control steering but
    not chosen-code attacks or SSB).
    """

    fence_loads: bool = True


@register_scheme
class FenceOnBranchModel(ProtectionModel):
    """Serialize issue past unresolved branches (and before loads).

    The issue gates depend only on ROB/safety state, never on the cycle
    number, and are released only by completions (an older branch
    resolving, an older entry completing) or squashes.  So the scheme
    is purely reactive, inherits the base ``next_event()``, and keeps
    ``may_issue``'s fast-forward contract.
    """

    name = "fence-on-branch"
    params_cls = FenceOnBranchParams
    description = (
        "serialize issue past unresolved branches and before loads "
        "(lfence-style software mitigation)"
    )

    def __init__(self, core, params: FenceOnBranchParams):
        super().__init__(core, params)
        # Policy-less tracker: only the unresolved-branch border is used.
        self.safety = SafetyTracker(None)

    def may_issue(self, entry: DynInstr, now: int) -> bool:
        if self.safety.guarded_by_branch(entry):
            return False
        if self.params.fence_loads and entry.is_load_like:
            for older in self.core.rob:
                if older.seq >= entry.seq:
                    break
                if not older.completed:
                    return False
        return True

    def on_dispatch(self, entry: DynInstr) -> None:
        self.safety.on_dispatch(entry)

    def on_branch_resolved(self, entry: DynInstr) -> None:
        self.safety.on_branch_resolved(entry)

    def on_squash(self, entry: DynInstr) -> None:
        self.safety.on_squash(entry)

    @classmethod
    def label_for(cls, params: FenceOnBranchParams) -> str:
        return "FenceOnBranch"

    @classmethod
    def expected_leak(cls, attack, params: FenceOnBranchParams) -> bool:
        if params.fence_loads:
            return False  # both gates together block every PoC
        # Branch gate alone: control-steering attacks are blocked, but
        # branch-free windows (chosen-code, SSB) still leak.  The
        # cross-context PoCs are all control-steering in the victim (the
        # transient window opens under an unresolved branch or return),
        # so both variants block them.
        return attack.access_class == "chosen-code" or attack.name == "ssb"
