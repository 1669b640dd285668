"""Tests for the parallel suite engine, result cache, and simulate()."""

import json
import pickle

import pytest

from repro.api import simulate
from repro.config import (
    ConfigSpec,
    NDAPolicyName,
    baseline_ooo,
    config_registry,
    nda_config,
)
from repro.engine import (
    ShardedDiskStore,
    SimJob,
    derive_seed,
    execute_job,
    expand_jobs,
    job_cache_key,
    resolve_workers,
    run_jobs,
)
from repro.errors import ConfigError, SimulationError
from repro.harness.experiment import figure7_config_specs, run_suite
from repro.stats.counters import PipelineStats
from repro.stats.sampling import run_window
from repro.workloads.generator import spec_program

TINY = dict(samples=2, warmup=300, measure=800, instructions=2_500)


def tiny_specs():
    return [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
        ConfigSpec("In-Order", baseline_ooo(), in_order=True),
    ]


def tiny_jobs(benchmarks=("exchange2",), specs=None):
    return expand_jobs(
        list(benchmarks), specs or tiny_specs(), TINY["samples"],
        TINY["warmup"], TINY["measure"], TINY["instructions"],
    )


class TestSeedDerivation:
    def test_pure_function_of_coordinates(self):
        assert derive_seed("mcf", "OoO", 0, 7) == 7
        assert derive_seed("mcf", "OoO", 3, 7) == 10

    def test_shared_across_configs_and_benchmarks(self):
        # Every config must measure the same program for a given
        # (benchmark, sample), or Fig. 7's normalization breaks.
        assert derive_seed("mcf", "OoO", 1, 0) == \
            derive_seed("leela", "Strict", 1, 0)

    def test_expansion_is_deterministic_and_ordered(self):
        first, second = tiny_jobs(), tiny_jobs()
        assert first == second
        assert [j.coordinates for j in first[:4]] == [
            ("exchange2", "OoO", 0), ("exchange2", "Strict", 0),
            ("exchange2", "In-Order", 0), ("exchange2", "OoO", 1),
        ]

    def test_jobs_are_picklable(self):
        job = tiny_jobs()[0]
        assert pickle.loads(pickle.dumps(job)) == job


class TestProgramReuse:
    """A sweep generates each ``(benchmark, sample)`` program once."""

    def test_one_generation_per_program_per_sweep(self, monkeypatch):
        import repro.engine.jobs as jobs_module

        calls = []
        generate = jobs_module.spec_program

        def counting(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(jobs_module, "spec_program", counting)
        kwargs = dict(
            benchmarks=["exchange2", "leela"], configs=tiny_specs(),
            jobs=1, **TINY
        )
        first = run_suite(**kwargs)
        assert len(calls) == 4  # 2 benchmarks x 2 samples, not x 3 configs
        second = run_suite(**kwargs)
        assert len(calls) == 8  # no program outlives its sweep
        assert {key: run.cpis for key, run in first.runs.items()} == \
            {key: run.cpis for key, run in second.runs.items()}
        # Even when a sweep's first program is the last one the previous
        # sweep ran (leela, sample 1):
        run_suite(**dict(kwargs, benchmarks=["leela"], samples=1, seed0=1))
        assert calls[-1] == ("leela", TINY["instructions"], 1)
        assert len(calls) == 9

    def test_each_job_gets_the_program_of_its_own_key(self):
        def job(benchmark, seed, instructions=2_500):
            return SimJob(
                benchmark=benchmark, label="OoO", config=baseline_ooo(),
                in_order=False, sample_index=0, seed=seed, warmup=300,
                measure=800, instructions=instructions,
            )

        a, b = job("exchange2", 3), job("leela", 4)
        programs = [each.program() for each in (a, b, a)]
        assert [program.name for program in programs] == \
            ["exchange2-s3", "leela-s4", "exchange2-s3"]
        assert a.program() is programs[2]
        assert job("exchange2", 3, instructions=5_000).program() \
            is not programs[2]

    def test_one_program_serves_every_configuration(self):
        # Reuse is sound only if no scheme's run mutates the program or
        # depends on what an earlier run left on it (the sweep goldens
        # cover only OoO, Strict and In-Order).
        def image(program):
            return (
                [(i.op, i.rd, i.srcs, i.imm, i.target)
                 for i in program.instrs],
                program.data, program.initial_regs, program.msrs,
                program.privileged,
            )

        shared = spec_program("mcf", 2_500, seed=7)
        for spec in config_registry().values():
            window = run_window(
                shared, spec.config, 300, 800, in_order=spec.in_order,
            )
            fresh = run_window(
                spec_program("mcf", 2_500, seed=7), spec.config, 300, 800,
                in_order=spec.in_order,
            )
            assert window.to_dict() == fresh.to_dict(), spec.label
        assert image(shared) == image(spec_program("mcf", 2_500, seed=7))


class TestParallelEqualsSerial:
    def test_suite_results_identical(self):
        kwargs = dict(
            benchmarks=["exchange2"], configs=tiny_specs(), **TINY
        )
        serial = run_suite(jobs=1, **kwargs)
        parallel = run_suite(jobs=2, **kwargs)
        assert serial.labels == parallel.labels
        for key, run in serial.runs.items():
            other = parallel.runs[key]
            assert [s.seed for s in run.samples] == \
                [s.seed for s in other.samples]
            assert run.cpis == other.cpis
            assert run.ci95 == other.ci95
            assert run.aggregate().to_dict() == other.aggregate().to_dict()
        assert parallel.engine.workers == 2
        assert parallel.engine.executed == parallel.engine.jobs

    def test_resolve_workers_caps_and_floors(self):
        assert resolve_workers(1, 100) == 1
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(None, 2) >= 1
        assert resolve_workers(-5, 10) == 1


class TestResultCache:
    def test_miss_then_hit_roundtrips_window(self, tmp_path):
        cache = ShardedDiskStore(tmp_path)
        job = tiny_jobs()[0]
        assert cache.load(job) is None
        result = execute_job(job)
        cache.store(job, result.window)
        again = cache.load(job)
        assert again is not None
        assert again.to_dict() == result.window.to_dict()
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.size() == 1

    def test_key_changes_with_config_and_params(self):
        job = tiny_jobs()[0]
        base = job_cache_key(job)
        other_config = SimJob(**{
            **job.__dict__, "config": nda_config(NDAPolicyName.PERMISSIVE),
        })
        other_seed = SimJob(**{**job.__dict__, "seed": job.seed + 1})
        other_window = SimJob(**{**job.__dict__, "measure": 999})
        assert len({base, job_cache_key(other_config),
                    job_cache_key(other_seed),
                    job_cache_key(other_window)}) == 4

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        cache = ShardedDiskStore(tmp_path)
        job = tiny_jobs()[0]
        cache.store(job, execute_job(job).window)
        path = cache._path(job_cache_key(job))
        path.write_text("{not json")
        assert cache.load(job) is None
        assert cache.stats.errors == 1
        assert not path.exists()  # bad entry evicted

    def test_clear_removes_everything(self, tmp_path):
        cache = ShardedDiskStore(tmp_path)
        for job in tiny_jobs()[:3]:
            cache.store(job, PipelineStats(cycles=10, committed=5))
        assert cache.size() == 3
        assert cache.clear() == 3
        assert cache.size() == 0

    def test_warm_suite_executes_zero_jobs(self, tmp_path):
        kwargs = dict(benchmarks=["exchange2"], configs=tiny_specs(), **TINY)
        cold = run_suite(jobs=2, cache=ShardedDiskStore(tmp_path), **kwargs)
        warm = run_suite(jobs=2, cache=ShardedDiskStore(tmp_path), **kwargs)
        assert cold.engine.executed == cold.engine.jobs
        assert warm.engine.executed == 0
        assert warm.engine.cache_hits == warm.engine.jobs
        for key in cold.runs:
            assert warm.runs[key].cpis == cold.runs[key].cpis

    def test_config_change_invalidates(self, tmp_path):
        base = dict(
            benchmarks=["exchange2"], samples=1, warmup=300, measure=800,
            instructions=2_500, cache=ShardedDiskStore(tmp_path),
        )
        run_suite(configs=[ConfigSpec("X", baseline_ooo())], **base)
        changed = run_suite(
            configs=[ConfigSpec("X", nda_config(NDAPolicyName.STRICT))],
            **base,
        )
        assert changed.engine.cache_hits == 0
        assert changed.engine.executed == changed.engine.jobs


class TestFailureHandling:
    def test_bad_job_fails_without_killing_sweep(self):
        jobs = tiny_jobs()
        bad = SimJob(**{**jobs[0].__dict__, "benchmark": "no_such_bench"})
        results, failures, stats = run_jobs([bad] + jobs[:2], jobs=2)
        assert len(results) == 2
        assert len(failures) == 1
        assert "no_such_bench" in failures[0].error
        assert stats.failures == 1
        assert stats.retries == 1  # retried serially before giving up

    def test_run_suite_surfaces_failures(self):
        with pytest.raises(SimulationError, match="sweep jobs failed"):
            run_suite(
                benchmarks=["no_such_bench"],
                configs=[ConfigSpec("OoO", baseline_ooo())],
                samples=1, warmup=300, measure=800, instructions=2_500,
            )

    def test_broken_pool_degrades_to_serial(self):
        class BrokenPool:
            def __init__(self, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                raise RuntimeError("pool exploded")

        jobs = tiny_jobs()[:3]
        results, failures, stats = run_jobs(
            jobs, jobs=2, executor_factory=BrokenPool
        )
        assert not failures
        assert len(results) == len(jobs)
        assert stats.degraded
        assert stats.executed == len(jobs)


class TestStatsRoundtrip:
    def test_int_keyed_histograms_survive_json(self):
        stats = PipelineStats(cycles=9, committed=4)
        stats.record_dispatch_to_issue(3)
        stats.record_dispatch_to_issue(9)
        stats.classify_cycle("commit")
        payload = json.loads(json.dumps(stats.to_dict()))
        restored = PipelineStats.from_dict(payload)
        assert restored.to_dict() == stats.to_dict()
        assert restored.dispatch_to_issue_hist == {2: 1, 8: 1}
        assert restored.cpi == stats.cpi


class TestSimulateFacade:
    def test_matches_cores_and_respects_in_order(self):
        program = spec_program("exchange2", 1_500, seed=1)
        ooo = simulate(program, baseline_ooo())
        inorder = simulate(program, baseline_ooo(), in_order=True)
        assert ooo.cpi > 0
        assert inorder.cpi >= ooo.cpi  # serial core is never faster
        assert inorder.stats.ilp <= 1.0

    def test_shims_retired_from_package_exports(self):
        import repro
        import repro.core
        import repro.core.inorder
        import repro.core.ooo

        for retired in ("run_program", "run_inorder"):
            assert retired not in repro.__all__
            assert retired not in repro.core.__all__
            assert not hasattr(repro, retired)
            assert not hasattr(repro.core.ooo, retired)
            assert not hasattr(repro.core.inorder, retired)


class TestConfigRegistry:
    def test_canonical_entries_in_legend_order(self):
        registry = config_registry()
        assert len(registry) == 11
        assert list(registry)[0] == "ooo"
        assert list(registry)[7] == "in-order"
        assert registry["in-order"].in_order
        assert registry["in-order"].label == "In-Order"
        assert [spec.label for spec in registry.values()] == \
            [spec.label for spec in figure7_config_specs()]

    def test_coerce_takes_only_specs_and_names(self):
        spec = config_registry()["strict"]
        assert ConfigSpec.coerce(spec) is spec
        assert ConfigSpec.coerce("strict") == spec
        for bad in ("nope", ("Strict", spec.config, False), ["strict"]):
            with pytest.raises(ConfigError):
                ConfigSpec.coerce(bad)

    def test_cache_key_is_stable_and_discriminating(self):
        a, b = baseline_ooo(), baseline_ooo()
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != nda_config(NDAPolicyName.STRICT).cache_key()
        assert len(a.cache_key()) == 64

    def test_describe_mentions_label_and_key(self):
        text = nda_config(NDAPolicyName.STRICT).describe()
        assert "Strict" in text
        assert "nda policy" in text
        assert "cache key" in text
