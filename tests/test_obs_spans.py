"""Tests for repro.obs.spans: the tracer's finished spans, the one
Perfetto trace a root span writes, the process tracer, the engine's
spans, and the telemetry-overhead gate (``benchmarks/obs_overhead.py``)."""

import importlib.util
import inspect
import json
import os
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import main
from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs, run_jobs
from repro.engine.store import ShardedDiskStore
from repro.obs.perfetto import validate_chrome_trace
from repro.obs.spans import (
    Tracer,
    install_tracer,
    maybe_tracer,
    uninstall_tracer,
)

DESIGN = Path(__file__).resolve().parent.parent / "DESIGN.md"


@pytest.fixture(autouse=True)
def _detached_tracer():
    """Every test starts and ends with tracing detached."""
    uninstall_tracer()
    yield
    uninstall_tracer()


def written(directory, name=None):
    """The ``X`` slices of the one valid trace file under *directory*,
    optionally only those named *name*."""
    files = list(Path(directory).iterdir())
    assert len(files) == 1, files
    payload = json.loads(files[0].read_text())
    assert validate_chrome_trace(payload) == []
    return [event for event in payload["traceEvents"]
            if event["ph"] == "X" and name in (None, event["name"])]


def inside(child, parent):
    """*child*'s slice lies within *parent*'s, on the same lane."""
    return (child["tid"] == parent["tid"]
            and parent["ts"] <= child["ts"]
            and child["ts"] + child["dur"] <= parent["ts"] + parent["dur"])


class TestTracer:
    def test_span_lands_in_spool(self, tmp_path):
        tracer = Tracer(str(tmp_path))
        with tracer.span("root"):
            with tracer.span("work", attrs={"k": 1}) as span:
                pass
            assert tracer.spans == [span]
        assert span.status == "ok"
        assert span.attrs == {"k": 1}
        assert span.finish >= span.start
        assert span.lane == os.getpid()

    def test_nested_spans_parent_automatically(self, tmp_path):
        tracer = Tracer(str(tmp_path))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, = written(tmp_path, "inner")
        outer, = written(tmp_path, "outer")
        assert inside(inner, outer)

    def test_exception_marks_error_and_propagates(self, tmp_path):
        tracer = Tracer(str(tmp_path))
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        boom, = written(tmp_path)
        assert boom["name"] == "[error] boom"
        assert boom["args"]["status"] == "error"

    def test_outermost_span_writes_one_valid_trace(self, tmp_path):
        directory = tmp_path / "traces"
        tracer = Tracer(str(directory))
        with tracer.span("cli.bench"):
            with tracer.span("engine.run"):
                tracer.record("engine.execute", 1.0, 2.0)
            assert len(tracer.spans) == 2
            assert not directory.exists()  # nothing before the root ends
        assert [path.name for path in directory.iterdir()] == [
            "cli.bench-%d.json" % os.getpid()
        ]
        assert len(written(directory)) == 3
        assert tracer.spans == []

    def test_record_is_retroactive(self, tmp_path):
        tracer = Tracer(str(tmp_path))
        span = tracer.record("engine.execute", 100.0, 100.25, lane=7)
        assert (span.start, span.finish, span.lane) == (100.0, 100.25, 7)
        assert tracer.spans == [span]
        assert list(tmp_path.iterdir()) == []  # no root span has ended

    def test_end_clamps_backwards_clock(self, tmp_path):
        tracer = Tracer(str(tmp_path))
        span = tracer.record("x", 200.0, 150.0)
        assert span.finish == span.start == 200.0


class TestProcessTracer:
    def test_detached_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        assert maybe_tracer() is None
        assert maybe_tracer() is None  # cached negative

    def test_env_var_activates_spooling(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        uninstall_tracer()  # force a fresh env check
        tracer = maybe_tracer()
        assert tracer is not None
        assert tracer.directory == str(tmp_path)
        assert maybe_tracer() is tracer

    def test_install_uninstall(self, tmp_path):
        tracer = install_tracer(Tracer(str(tmp_path)))
        assert maybe_tracer() is tracer
        uninstall_tracer()
        assert maybe_tracer() is None

    def test_raising_command_still_writes_its_trace(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))

        def crash(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(repro.cli, "_run_command", crash)
        with pytest.raises(RuntimeError):
            main(["matrix"])
        root, = written(tmp_path)
        assert root["name"] == "[error] cli.matrix"
        assert root["args"]["argv"] == "matrix"


class TestEngineSpans:
    def _jobs(self, samples=1):
        return expand_jobs(
            ["exchange2"], [ConfigSpec("OoO", baseline_ooo())],
            samples, 300, 800, 2_500,
        )

    def test_run_jobs_emits_engine_spans_when_attached(self, tmp_path):
        install_tracer(Tracer(str(tmp_path)))
        results, failures, stats = run_jobs(
            self._jobs(), jobs=1, cache=None,
        )
        assert not failures
        assert [path.name for path in tmp_path.iterdir()] == [
            "engine.run-%d.json" % os.getpid()
        ]
        run, = written(tmp_path, "engine.run")
        executes = written(tmp_path, "engine.execute")
        assert len(executes) == len(results)
        assert all(inside(execute, run) for execute in executes)
        assert run["args"]["executed"] == len(results)

    def test_run_that_raises_still_ends_its_span(self, tmp_path):
        install_tracer(Tracer(str(tmp_path)))

        def broken_progress(done, total, result):
            raise RuntimeError("progress callback")

        with pytest.raises(RuntimeError):
            run_jobs(self._jobs(), jobs=1, progress=broken_progress)
        assert [event["name"] for event in written(tmp_path)
                if "engine.run" in event["name"]] == ["[error] engine.run"]
        # The next run is a root again and writes its own trace.
        run_jobs(self._jobs(), jobs=1)
        assert len(written(tmp_path, "engine.run")) == 1

    def test_pool_jobs_land_on_worker_lanes(self, tmp_path):
        install_tracer(Tracer(str(tmp_path)))
        results, failures, stats = run_jobs(
            self._jobs(samples=2), jobs=2, cache=None,
        )
        assert not failures and stats.workers == 2
        run, = written(tmp_path, "engine.run")
        executes = written(tmp_path, "engine.execute")
        assert len(executes) == len(results) == 2
        main_lane = run["tid"]
        assert main_lane == os.getpid()
        for execute in executes:
            assert execute["tid"] != main_lane
            assert run["ts"] <= execute["ts"]
            assert (execute["ts"] + execute["dur"]
                    <= run["ts"] + run["dur"])

    def test_detached_run_identical_to_attached(self, tmp_path):
        detached, _, _ = run_jobs(self._jobs(), jobs=1, cache=None)
        install_tracer(Tracer(str(tmp_path)))
        attached, _, _ = run_jobs(self._jobs(), jobs=1, cache=None)
        uninstall_tracer()
        for before, after in zip(detached, attached):
            assert before.window.to_dict() == after.window.to_dict()

    def test_warm_rerun_spools_one_cache_hit_per_job(self, tmp_path):
        cache = ShardedDiskStore(tmp_path / "cache")
        run_jobs(self._jobs(samples=2), jobs=1, cache=cache)
        traces = tmp_path / "traces"
        install_tracer(Tracer(str(traces)))
        results, _, stats = run_jobs(
            self._jobs(samples=2), jobs=1, cache=cache,
        )
        assert stats.cache_hits == len(results) == 2
        run, = written(traces, "engine.run")
        hits = written(traces, "engine.cache.hit")
        assert len(hits) == len(results)
        assert all(inside(hit, run) for hit in hits)
        assert written(traces, "engine.execute") == []

    def test_merged_traced_bench_is_a_valid_trace(self, tmp_path,
                                                  monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        uninstall_tracer()  # force a fresh env check
        assert main([
            "bench", "--benchmarks", "exchange2", "--samples", "1",
            "--warmup", "300", "--measure", "800", "--jobs", "1",
            "--no-cache",
        ]) == 0
        executed = int(re.search(
            r"(\d+) executed", capsys.readouterr().out).group(1))
        assert [path.name for path in tmp_path.iterdir()] == [
            "cli.bench-%d.json" % os.getpid()
        ]
        root, = written(tmp_path, "cli.bench")
        run, = written(tmp_path, "engine.run")
        executes = written(tmp_path, "engine.execute")
        assert root["args"]["exit_code"] == 0
        assert inside(run, root)
        assert len(executes) == executed > 0
        # --jobs 1 runs every job on the main lane.
        assert all(inside(execute, run) for execute in executes)


NUMBERS = ("zero", "one", "two", "three", "four", "five", "six")
ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth")


def _obs_overhead_gate():
    path = (Path(__file__).resolve().parent.parent / "benchmarks"
            / "obs_overhead.py")
    spec = importlib.util.spec_from_file_location("obs_overhead", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestObsOverheadTracing:
    def test_tracing_variant_bit_identical_and_measured(self):
        gate = _obs_overhead_gate()
        # measure() raises OverheadError if any variant simulates
        # differently from the detached run.
        result = gate.measure(workload="exchange2", instructions=800,
                              rounds=1)
        assert result["rounds"] == 1 and result["cycles"] > 0
        assert result["samples"] > 0
        assert set(result["wall_seconds"]) == {
            "detached", "attached-idle", "sampling", "tracing",
        }
        assert all(seconds > 0
                   for seconds in result["wall_seconds"].values())
        assert set(result["overhead"]) == {
            "attached-idle", "sampling", "tracing",
        }
        # The tracing variant's install is scoped to its run.
        assert maybe_tracer() is None

    def test_design_states_the_gate_parameters(self):
        """DESIGN.md §3.5's gate parameters and §3.9's tracing variant
        are the script's own."""
        gate = _obs_overhead_gate()
        defaults = inspect.signature(gate.measure).parameters
        design = DESIGN.read_text()
        claim = re.search(
            r"`benchmarks/obs_overhead\.py` \((\w+) under (\w+), ([\d,]+)"
            r"\s+instructions; (\w+) variants: (.*?), interleaved over"
            r"\s+(\d+)\s+rounds.*?hard <(\d+)% ceiling", design, re.S)
        assert claim, "DESIGN.md §3.5 no longer states the gate"
        (workload, config, instructions, count, variants, rounds,
         ceiling) = claim.groups()
        assert workload == defaults["workload"].default
        assert config.lower() == gate.CONFIG
        assert (int(instructions.replace(",", ""))
                == defaults["instructions"].default)
        assert NUMBERS.index(count) == len(gate.VARIANTS)
        assert tuple(re.findall(r"`([\w-]+)`", variants)) == gate.VARIANTS
        assert int(rounds) == gate.ROUNDS == defaults["rounds"].default
        assert int(ceiling) / 100 == gate.BUDGET

        tracing = re.search(
            r"gates a (\w+) interleaved variant\s+\(`([\w-]+)`:.*?"
            r"`([\w.-]+)` span", design, re.S)
        assert tracing, "DESIGN.md §3.9 no longer describes the variant"
        ordinal, variant, span_name = tracing.groups()
        assert ORDINALS.index(ordinal) == gate.VARIANTS.index(variant)
        assert '"%s"' % span_name in Path(gate.__file__).read_text()
