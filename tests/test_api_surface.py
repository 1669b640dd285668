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

        shared = {"in_order", "max_cycles", "fast_forward"}
        for func in (repro.simulate, repro.run_window):
            params = set(inspect.signature(func).parameters)
            missing = shared - params
            assert not missing, "%s lacks %s" % (func.__name__, missing)

    def test_facade_all_resolves_including_lazy(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name) is not None

    @pytest.mark.parametrize("name", [
        "ServerClient", "JobStatus", "ServerError", "submit_suite",
    ])
    def test_job_server_surface_is_gone(self, name):
        # Jobs run through the CLI or the library functions only; the
        # HTTP client and the keyword facade over run_suite are deleted.
        from repro import api

        with pytest.raises(AttributeError):
            getattr(repro, name)
        with pytest.raises(AttributeError):
            getattr(api, name)
        assert name not in repro.__all__ and name not in api.__all__

    def test_unknown_attribute_raises(self):
        from repro import api

        with pytest.raises(AttributeError):
            api.not_a_thing

    def test_no_in_repo_caller_of_retired_shims(self):
        """src/, benchmarks/ and examples/ neither define, alias nor call
        them."""
        import re
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent.parent.parent
        pattern = re.compile(
            r"\b(run_program|run_inorder|run_windows|run_cores_lockstep"
            r"|execute_window_batch|run_slice|ResultCache"
            r"|WorkerProtocolBackend|worker_main|RemoteArtifactStore"
            r"|TieredStore|open_store|is_warm|AttackJob|text_exposition"
            r"|span_latency_summary|ingest_engine_stats|ingest_cache_stats"
            r"|metrics_text|issue_ready_horizon|_hook_ready_horizon"
            r"|ready_entries|has_ready|can_dispatch|unresolved_store_seqs"
            r"|pop_head|unresolved_branch|unresolved_store|fpu_awake"
            r"|sources_ready|mark_ready|on_broadcast|account_stalls"
            r"|halt_seen|waiting_for_resolve|icache_ready_cycle"
            r"|fetched_ops|icache_stall_cycles|indirect_stall_cycles"
            r"|ring_size|DEFAULT_RING_SIZE"
            # The job server's names.  The bracketed letters keep a
            # plain grep for the deleted names from matching this line.
            r"|ServerClient|ReproServer|DurableQueue|submit_suite"
            r"|Retry[P]olicy|parse_trace[p]arent|SpanContext|Json[L]ogger"
            r"|get_logger|error_envelope|validate_envelope"
            # The taint oracle's own observer slots and the metrics
            # registry, both retired for the event bus.
            r"|taint_[h]ook|exec_[c]tx|on_load_[e]xecuted|Metrics[R]egistry"
            r"|metrics_from_[r]un|metrics_from_[c]ampaign"
            # The simulator-speed harness, the engine's job trace and the
            # legacy config spellings.
            r"|run_[s]imspeed|compare_[s]imspeed|append_[h]istory"
            r"|engine_[t]race_events|collect_[t]race|Protection[S]cheme"
            r"|all_figure7_[c]onfigs"
            # The name-keyed alternatives behind job placement,
            # prefetching, replacement, memory-dependence prediction and
            # the direction predictor, and the checkpoint codec registry.
            r"|make_[b]ackend|available_[b]ackends|B[A]CKENDS"
            r"|Execution[B]ackend|Backend[C]ontext|Serial[B]ackend"
            r"|LocalPool[B]ackend|make_[p]refetcher|Stride[P]refetcher"
            r"|NextLine[P]refetcher|Null[P]refetcher|make_[m]emdep"
            r"|Wait[T]able|Always[B]ypass|make_[p]olicy|TreePLRU[P]olicy"
            r"|Random[P]olicy|Replacement[P]olicy"
            r"|make_direction_[p]redictor|register_result_[c]odec"
            # Checkpoint manifests, retired for resuming from the result
            # store.
            r"|build_[c]heckpoint|write_[c]heckpoint|read_[c]heckpoint"
            r"|load_[c]heckpoint|validate_[c]heckpoint|encode_[r]esult"
            r"|decode_[r]esult|checkpoint_[i]nterval"
            # Run manifests, retired: a run's numbers live in the
            # command's output or the result store.
            r"|build_[m]anifest|write_[m]anifest|load_[m]anifest"
            r"|validate_[m]anifest|list_[m]anifests|latest_[m]anifest"
            r"|render_[m]etrics)\s*[(=]"
        )
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


#: Classes of repro.core and repro.frontend the guard below skips: the
#: result type ``simulate()`` hands to library callers, whose accessors
#: serve code outside src/ (``outcome.reg(...)`` in the examples).
CALLER_TYPES = {"RunOutcome"}


def test_pipeline_structures_expose_only_what_src_uses():
    """Every public method or property of a class in repro.core and
    repro.frontend is referenced elsewhere in src/, as an attribute or
    as a ``getattr`` name: the simulator runs what the tests check, and
    no method exists only for the tests."""
    import ast
    from pathlib import Path

    src = Path(repro.__file__).resolve().parent
    referenced = set()
    public = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                referenced.add(node.value)
        if path.parent.name not in ("core", "frontend"):
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name in CALLER_TYPES:
                continue
            for item in cls.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    public.append((path.name, cls.name, item.name))
    assert public
    unused = ["%s %s.%s" % row for row in public if row[2] not in referenced]
    assert not unused, "no caller in src/: %s" % unused


def test_git_revision_for_benchmark_history_rows():
    """``benchmarks/e2e/run.py`` stamps its history rows through this
    import."""
    import re

    from repro.obs.manifest import git_revision

    revision = git_revision()
    assert revision == "unknown" or re.fullmatch(r"[0-9a-f]{40}", revision)


def test_benchmark_process_loads_only_bus_and_spans():
    """A benchmark pass imports the pipelines it times and no telemetry
    beyond the event bus and the span tracer: ``repro.obs`` re-exports
    nothing."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(repro.__file__).resolve().parent.parent.parent
    probe = (
        "import sys, pipelines; print(' '.join(sorted(m for m in ("
        "'repro.obs.bus', 'repro.obs.spans', 'repro.obs.perfetto', "
        "'repro.obs.sampler', 'repro.obs.manifest', 'platform') "
        "if m in sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "benchmarks" / "e2e")]
    ))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=str(root),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["repro.obs.bus", "repro.obs.spans"]


def test_quickstart_docstring_example_runs():
    """The package docstring's example must stay executable."""
    from repro import NDAPolicyName, baseline_ooo, nda_config, simulate
    from repro.workloads import spec_program

    program = spec_program("mcf", instructions=1_500, seed=1)
    insecure = simulate(program, baseline_ooo())
    protected = simulate(program, nda_config(NDAPolicyName.PERMISSIVE))
    assert insecure.cpi > 0
    assert protected.cpi >= insecure.cpi * 0.95
