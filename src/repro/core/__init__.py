"""Processor cores: the out-of-order pipeline and the in-order baseline."""

from typing import Optional

from repro.config import SimConfig
from repro.core.fu import FUPool
from repro.core.inorder import InOrderCore
from repro.core.issue_queue import IssueQueue
from repro.core.lsq import LSQ, LoadAction, LoadDecision
from repro.core.ooo import OutOfOrderCore
from repro.core.outcome import RunOutcome
from repro.core.rename import PhysRegFile, RenameTable
from repro.core.rob import ROB, DynInstr


def make_core(
    program,
    config: Optional[SimConfig] = None,
    *,
    fast_forward: bool = True,
) -> OutOfOrderCore:
    """Construct a single-context :class:`OutOfOrderCore`.

    Two-context configs are rejected: co-resident contexts run through
    :class:`repro.smt.SmtMachine`, which builds one core per context.
    """
    from repro.errors import ConfigError

    config = (config or SimConfig()).validate()
    if config.num_contexts > 1:
        raise ConfigError(
            "make_core() builds single-context cores; two-context configs "
            "run through repro.smt.SmtMachine"
        )
    return OutOfOrderCore(program, config, fast_forward=fast_forward)


__all__ = [
    "FUPool",
    "InOrderCore",
    "IssueQueue",
    "LSQ",
    "LoadAction",
    "LoadDecision",
    "OutOfOrderCore",
    "RunOutcome",
    "PhysRegFile",
    "RenameTable",
    "ROB",
    "DynInstr",
    "make_core",
]
