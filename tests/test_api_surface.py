"""Public-API surface checks: exports, errors, outcome types."""

import importlib

import pytest

import repro
from repro.core.outcome import RunOutcome
from repro.errors import (
    AssemblyError,
    ConfigError,
    DeadlockError,
    ReproError,
    SimulationError,
)
from repro.isa.semantics import MachineState
from repro.memory.memory import MainMemory
from repro.stats.counters import PipelineStats

PACKAGES = [
    "repro",
    "repro.isa",
    "repro.memory",
    "repro.frontend",
    "repro.core",
    "repro.schemes",
    "repro.nda",
    "repro.invisispec",
    "repro.attacks",
    "repro.workloads",
    "repro.stats",
    "repro.harness",
    "repro.obs",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), "%s.%s missing" % (package, name)


def test_version_string():
    assert repro.__version__.count(".") == 2


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for error in (AssemblyError, ConfigError, DeadlockError,
                      SimulationError):
            assert issubclass(error, ReproError)

    def test_deadlock_is_simulation_error(self):
        assert issubclass(DeadlockError, SimulationError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise ConfigError("boom")


class TestRunOutcome:
    def _outcome(self):
        state = MachineState(
            regs=[0] * 40, memory=MainMemory(), halted=True, pc=0,
            committed=10,
        )
        stats = PipelineStats(cycles=20, committed=10)
        return RunOutcome(state=state, stats=stats, label="Test")

    def test_cpi_property(self):
        assert self._outcome().cpi == 2.0

    def test_reg_accessor(self):
        outcome = self._outcome()
        outcome.state.regs[3] = 77
        assert outcome.reg(3) == 77

    def test_repr_mentions_label_and_cpi(self):
        text = repr(self._outcome())
        assert "Test" in text
        assert "2.000" in text


class TestConsolidatedFacade:
    """repro.api is the single documented surface (PR 6)."""

    def test_run_functions_share_keyword_vocabulary(self):
        import inspect

        from repro import api

        shared = {"in_order", "max_cycles", "fast_forward", "manifest"}
        for func in (api.simulate, api.run_attack, api.run_window):
            params = set(inspect.signature(func).parameters)
            missing = shared - params
            assert not missing, "%s lacks %s" % (func.__name__, missing)

    def test_facade_all_resolves_including_lazy(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_server_client_lazy_export(self):
        import repro
        from repro import api
        from repro.server.client import ServerClient

        assert api.ServerClient is ServerClient
        # ... and forwarded one level up: repro.ServerClient is the same
        # object, reachable without importing repro.server eagerly.
        assert repro.ServerClient is ServerClient
        assert "ServerClient" in repro.__all__ and "ServerClient" in dir(repro)

    def test_unknown_attribute_raises(self):
        from repro import api

        with pytest.raises(AttributeError):
            api.not_a_thing

    def test_no_in_repo_caller_of_retired_shims(self):
        """src/, benchmarks/ and examples/ neither define nor call them."""
        import re
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent.parent.parent
        pattern = re.compile(r"\b(run_program|run_inorder)\s*\(")
        offenders = []
        for tree in ("src", "benchmarks", "examples"):
            base = root / tree
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                for lineno, line in enumerate(
                    path.read_text().splitlines(), 1
                ):
                    if pattern.search(line):
                        offenders.append("%s:%d" % (path, lineno))
        assert not offenders, "retired shims still present: %s" % offenders

    def test_window_facade_matches_sampling_layer(self):
        from repro import baseline_ooo, run_window
        from repro.stats.sampling import run_window as raw_run_window
        from repro.workloads import spec_program

        program = spec_program("exchange2", 3_000, seed=1)
        config = baseline_ooo()
        facade = run_window(program, config, 500, 1_000)
        raw = raw_run_window(program, config, 500, 1_000)
        assert facade.to_dict() == raw.to_dict()

    def test_run_attack_matches_simulate(self):
        from repro import baseline_ooo, run_attack, simulate
        from repro.workloads import spec_program

        program = spec_program("exchange2", 1_500, seed=2)
        config = baseline_ooo()
        assert run_attack(program, config).stats.cycles == \
            simulate(program, config).stats.cycles

    def test_submit_suite_runs_tiny_sweep(self):
        from repro import submit_suite

        suite = submit_suite(
            ["exchange2"], ["ooo"], samples=1, warmup=300,
            measure=600, instructions=2_000, jobs=1,
        )
        assert suite.benchmarks == ["exchange2"]
        assert suite.run("exchange2", "OoO").mean_cpi > 0
        assert suite.engine.jobs == 1


def test_quickstart_docstring_example_runs():
    """The package docstring's example must stay executable."""
    from repro import NDAPolicyName, baseline_ooo, nda_config, simulate
    from repro.workloads import spec_program

    program = spec_program("mcf", instructions=1_500, seed=1)
    insecure = simulate(program, baseline_ooo())
    protected = simulate(program, nda_config(NDAPolicyName.PERMISSIVE))
    assert insecure.cpi > 0
    assert protected.cpi >= insecure.cpi * 0.95
