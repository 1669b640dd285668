"""Tests for repro.obs.spans: the span stack, the span spool, the
process tracer, the Perfetto span merger, the engine's spans, and the
telemetry-overhead gate (``benchmarks/obs_overhead.py``)."""

import importlib.util
import json
import os
import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs, run_jobs
from repro.engine.store import ShardedDiskStore
from repro.obs.perfetto import (
    merge_span_spools,
    read_span_spools,
    span_trace_events,
    validate_chrome_trace,
)
from repro.obs.spans import (
    Tracer,
    install_tracer,
    maybe_tracer,
    uninstall_tracer,
)


@pytest.fixture(autouse=True)
def _detached_tracer():
    """Every test starts and ends with tracing detached."""
    uninstall_tracer()
    yield
    uninstall_tracer()


def spooled(tracer, name=None):
    """The spans *tracer* has spooled, optionally only those named
    *name*."""
    rows = read_span_spools(tracer.spool_dir)
    return [row for row in rows if name is None or row["name"] == name]


class TestTracer:
    def test_span_lands_in_spool(self, tmp_path):
        tracer = Tracer("t", spool_dir=str(tmp_path))
        with tracer.span("work", attrs={"k": 1}) as sp:
            assert tracer.current() is sp
        rows = spooled(tracer, "work")
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        assert row["attrs"] == {"k": 1}
        assert row["end_unix"] >= row["start_unix"]
        assert tracer.current() is None

    def test_nested_spans_parent_automatically(self, tmp_path):
        tracer = Tracer("t", spool_dir=str(tmp_path))
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        rows = {r["name"]: r for r in spooled(tracer)}
        assert rows["inner"]["parent_id"] == outer.span_id
        assert rows["inner"]["trace_id"] == outer.trace_id
        assert rows["outer"]["parent_id"] is None
        assert inner.trace_id == outer.trace_id

    def test_exception_marks_error_and_propagates(self, tmp_path):
        tracer = Tracer("t", spool_dir=str(tmp_path))
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert spooled(tracer, "boom")[0]["status"] == "error"
        assert tracer.current() is None

    def test_record_is_retroactive(self, tmp_path):
        tracer = Tracer("t", spool_dir=str(tmp_path))
        parent = tracer.start_span("engine.run")
        row = tracer.record("engine.queue", 100.0, 100.25, parent=parent)
        assert row["start_unix"] == 100.0
        assert row["end_unix"] == 100.25
        assert row["trace_id"] == parent.trace_id
        assert row["parent_id"] == parent.span_id

    def test_end_clamps_backwards_clock(self, tmp_path):
        tracer = Tracer("t", spool_dir=str(tmp_path))
        row = tracer.record("x", 200.0, 150.0)
        assert row["end_unix"] == row["start_unix"] == 200.0

    def test_spool_file_per_process(self, tmp_path):
        tracer = Tracer("my service!", spool_dir=str(tmp_path))
        tracer.record("x", 1.0, 2.0)
        assert os.path.basename(tracer.spool_path) == (
            "my-service--%d.spans.jsonl" % os.getpid()
        )
        lines = [json.loads(line) for line in
                 open(tracer.spool_path).read().splitlines()]
        assert lines[0]["name"] == "x"
        assert lines[0]["service"] == "my service!"
        assert tracer.spool_errors == 0


class TestProcessTracer:
    def test_detached_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_DIR", raising=False)
        assert maybe_tracer() is None
        assert maybe_tracer("hint") is None  # cached negative

    def test_env_var_activates_spooling(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        uninstall_tracer()  # force a fresh env check
        tracer = maybe_tracer("worker")
        assert tracer is not None
        assert tracer.service == "worker"
        assert tracer.spool_path.startswith(str(tmp_path))
        assert maybe_tracer("other-hint") is tracer

    def test_install_uninstall(self, tmp_path):
        tracer = install_tracer(Tracer("explicit", spool_dir=str(tmp_path)))
        assert maybe_tracer() is tracer
        uninstall_tracer()
        assert maybe_tracer() is None


class TestSpanMerger:
    def _spool(self, directory, service, pid, rows):
        path = os.path.join(
            directory, "%s-%d.spans.jsonl" % (service, pid)
        )
        with open(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")

    def _row(self, name, start, end, pid, service, span_id,
             parent_id=None, trace_id="ab" * 16, status="ok"):
        return {
            "schema": 1, "name": name, "trace_id": trace_id,
            "span_id": span_id, "parent_id": parent_id,
            "service": service, "pid": pid,
            "start_unix": start, "end_unix": end, "status": status,
        }

    def test_merge_stitches_processes_into_one_valid_trace(self, tmp_path):
        spool_dir = tmp_path / "spans"
        spool_dir.mkdir()
        self._spool(str(spool_dir), "cli", 100, [
            self._row("cli.fuzz", 10.0, 11.1, 100, "cli", "aa" * 8),
            self._row("engine.run", 10.1, 11.0, 100, "cli", "bb" * 8,
                      parent_id="aa" * 8),
        ])
        self._spool(str(spool_dir), "repro", 200, [
            self._row("simulate", 10.4, 11.0, 200, "repro",
                      "cc" * 8, parent_id="aa" * 8),
        ])
        # Junk in the directory must not break the merge.
        (spool_dir / "garbage.spans.jsonl").write_text("{not json\n")
        out = tmp_path / "merged.json"
        summary = merge_span_spools(str(spool_dir), str(out))
        assert summary["spans"] == 3
        assert summary["traces"] == 1
        assert summary["processes"] == ["cli:100", "repro:200"]
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {
            "cli.fuzz", "engine.run", "simulate",
        }
        # One Perfetto pid per (service, pid) process.
        assert len({e["pid"] for e in slices}) == 2
        # Parent->child links become flow events across processes.
        flows = [e for e in events if e["ph"] in ("s", "f")]
        assert len(flows) == 4  # two parent->child edges

    def test_read_span_spools_tolerates_bad_rows(self, tmp_path):
        self._spool(str(tmp_path), "s", 1, [
            self._row("good", 1.0, 2.0, 1, "s", "aa" * 8),
        ])
        with open(os.path.join(tmp_path, "s-2.spans.jsonl"), "w") as f:
            f.write("not json\n")
            f.write(json.dumps({"name": "no-times"}) + "\n")
            f.write(json.dumps([1, 2]) + "\n")
        rows = read_span_spools(str(tmp_path))
        assert [r["name"] for r in rows] == ["good"]

    def test_error_status_prefixes_slice_name(self, tmp_path):
        rows = [self._row("lease", 1.0, 2.0, 1, "coord", "aa" * 8,
                          status="lost")]
        events = span_trace_events(rows)
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names == ["[lost] lease"]

    def test_empty_directory_merges_to_zero(self, tmp_path):
        out = tmp_path / "merged.json"
        summary = merge_span_spools(str(tmp_path), str(out))
        assert summary["spans"] == 0


class TestEngineSpans:
    def _jobs(self, samples=1):
        return expand_jobs(
            ["exchange2"], [ConfigSpec("OoO", baseline_ooo())],
            samples, 300, 800, 2_500,
        )

    def test_run_jobs_emits_engine_spans_when_attached(self, tmp_path):
        tracer = install_tracer(
            Tracer("engine-test", spool_dir=str(tmp_path))
        )
        results, failures, stats = run_jobs(
            self._jobs(), jobs=1, cache=None,
        )
        assert not failures
        names = [r["name"] for r in spooled(tracer)]
        assert names.count("engine.run") == 1
        assert names.count("engine.execute") == len(results)
        run_row = spooled(tracer, "engine.run")[0]
        execute_row = spooled(tracer, "engine.execute")[0]
        assert execute_row["trace_id"] == run_row["trace_id"]
        assert execute_row["parent_id"] == run_row["span_id"]
        assert run_row["attrs"]["executed"] == len(results)

    def test_detached_run_identical_to_attached(self, tmp_path):
        detached, _, _ = run_jobs(self._jobs(), jobs=1, cache=None)
        install_tracer(Tracer("engine-test", spool_dir=str(tmp_path)))
        attached, _, _ = run_jobs(self._jobs(), jobs=1, cache=None)
        uninstall_tracer()
        for before, after in zip(detached, attached):
            assert before.window.to_dict() == after.window.to_dict()

    def test_warm_rerun_spools_one_cache_hit_per_job(self, tmp_path):
        cache = ShardedDiskStore(tmp_path / "cache")
        run_jobs(self._jobs(samples=2), jobs=1, cache=cache)
        tracer = install_tracer(
            Tracer("engine-test", spool_dir=str(tmp_path / "spans"))
        )
        results, _, stats = run_jobs(
            self._jobs(samples=2), jobs=1, cache=cache,
        )
        assert stats.cache_hits == len(results) == 2
        run_row = spooled(tracer, "engine.run")[0]
        hits = spooled(tracer, "engine.cache.hit")
        assert len(hits) == len(results)
        assert all(row["parent_id"] == run_row["span_id"] for row in hits)
        assert spooled(tracer, "engine.execute") == []
        assert spooled(tracer, "engine.queue") == []

    def test_merged_traced_bench_is_a_valid_trace(self, tmp_path,
                                                  monkeypatch, capsys):
        spool_dir = tmp_path / "spans"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(spool_dir))
        uninstall_tracer()  # force a fresh env check
        assert main([
            "bench", "--benchmarks", "exchange2", "--samples", "1",
            "--warmup", "300", "--measure", "800", "--jobs", "1",
            "--no-cache",
        ]) == 0
        executed = int(re.search(
            r"(\d+) executed", capsys.readouterr().out).group(1))
        out = tmp_path / "merged.json"
        assert main([
            "obs", "trace", "merge", "--dir", str(spool_dir),
            "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        slices = [e["name"] for e in payload["traceEvents"]
                  if e["ph"] == "X"]
        assert slices.count("cli.bench") == 1
        assert slices.count("engine.run") == 1
        assert slices.count("engine.execute") == executed > 0


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
