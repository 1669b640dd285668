"""repro: a reproduction of "NDA: Preventing Speculative Execution Attacks
at Their Source" (Weisse et al., MICRO 2019).

The package implements, from scratch, a cycle-level out-of-order processor
simulator, the six NDA speculative-data-propagation policies, an InvisiSpec
comparison model, an in-order baseline, the attack proof-of-concepts
(Spectre v1 via the d-cache and the BTB, Meltdown, speculative store bypass,
LazyFP), synthetic SPEC CPU 2017-like workloads, and the harness that
regenerates every table and figure of the paper's evaluation.

Quick start::

    from repro import NDAPolicyName, baseline_ooo, nda_config, simulate
    from repro.workloads import spec_program

    program = spec_program("mcf", instructions=20_000, seed=1)
    insecure = simulate(program, baseline_ooo())
    protected = simulate(program, nda_config(NDAPolicyName.PERMISSIVE))
    print(insecure.cpi, protected.cpi)

Full sweeps (every figure/table of the paper) go through the parallel
suite engine, the same ``run_suite`` that ``nda-repro bench`` calls::

    from repro import ShardedDiskStore, run_suite

    suite = run_suite(jobs=8, cache=ShardedDiskStore())  # fan out + store
    print(suite.engine.describe())
"""

from repro.api import simulate
from repro.config import (
    CacheConfig,
    ConfigSpec,
    CoreConfig,
    MemConfig,
    NDAPolicyName,
    SimConfig,
    baseline_ooo,
    config_registry,
    invisispec_config,
    nda_config,
    with_nda_delay,
)
from repro.schemes import (
    ProtectionModel,
    SchemeParams,
    register_scheme,
    registered_schemes,
)
from repro.core import (
    InOrderCore,
    OutOfOrderCore,
    RunOutcome,
)
from repro.engine.store import ShardedDiskStore
from repro.harness.experiment import SuiteResult, run_suite
from repro.errors import (
    AssemblyError,
    ConfigError,
    DeadlockError,
    ReproError,
    SimulationError,
)
from repro.isa import Assembler, Opcode, Program, run_reference
from repro.stats.sampling import run_window

__version__ = "1.0.0"

__all__ = [
    "simulate",
    "run_window",
    "CacheConfig",
    "ConfigSpec",
    "CoreConfig",
    "MemConfig",
    "NDAPolicyName",
    "SimConfig",
    "baseline_ooo",
    "config_registry",
    "invisispec_config",
    "nda_config",
    "with_nda_delay",
    "ProtectionModel",
    "SchemeParams",
    "register_scheme",
    "registered_schemes",
    "ShardedDiskStore",
    "SuiteResult",
    "run_suite",
    "InOrderCore",
    "OutOfOrderCore",
    "RunOutcome",
    "AssemblyError",
    "ConfigError",
    "DeadlockError",
    "ReproError",
    "SimulationError",
    "Assembler",
    "Opcode",
    "Program",
    "run_reference",
    "__version__",
]
