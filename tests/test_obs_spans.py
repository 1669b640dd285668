"""Tests for repro.obs.spans: trace contexts, the flight recorder and
spool, cross-process propagation, the Perfetto span merger, structured
logging, and the server observatory (/v1/status, span histograms)."""

import json
import os

import pytest

from repro.config import ConfigSpec, baseline_ooo
from repro.engine import expand_jobs, run_jobs
from repro.harness import simspeed
from repro.obs.log import JsonLogger
from repro.obs.perfetto import (
    merge_span_spools,
    read_span_spools,
    span_trace_events,
    validate_chrome_trace,
)
from repro.obs.spans import (
    SpanContext,
    Tracer,
    install_tracer,
    maybe_tracer,
    parse_traceparent,
    span_latency_summary,
    uninstall_tracer,
)
from repro.server.app import ReproServer
from repro.server.client import ServerClient

FUZZ_SPEC = {"seeds": 1, "configs": ["ooo"], "max_cycles": 200_000}


@pytest.fixture(autouse=True)
def _detached_tracer():
    """Every test starts and ends with tracing detached."""
    uninstall_tracer()
    yield
    uninstall_tracer()


class TestTraceparent:
    def test_roundtrip(self):
        ctx = SpanContext("ab" * 16, "cd" * 8)
        parsed = parse_traceparent(ctx.traceparent())
        assert parsed == ctx
        assert parsed.traceparent() == ctx.traceparent()

    def test_child_shares_trace_id(self):
        ctx = SpanContext("ab" * 16, "cd" * 8)
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id

    @pytest.mark.parametrize("bad", [
        None, 7, "", "not-a-traceparent", "00-zz-cd-01",
        "00-" + "a" * 31 + "-" + "b" * 16 + "-01",   # short trace id
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",   # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "00-" + "a" * 32 + "-" + "b" * 16,           # missing flags
    ])
    def test_malformed_is_none_not_error(self, bad):
        assert parse_traceparent(bad) is None


class TestTracer:
    def test_span_lands_in_ring(self):
        tracer = Tracer("t")
        with tracer.span("work", attrs={"k": 1}) as sp:
            assert tracer.current() == sp.context
        rows = tracer.finished("work")
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"
        assert row["attrs"] == {"k": 1}
        assert row["end_unix"] >= row["start_unix"]
        assert tracer.current() is None

    def test_nested_spans_parent_automatically(self):
        tracer = Tracer("t")
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        rows = {r["name"]: r for r in tracer.finished()}
        assert rows["inner"]["parent_id"] == outer.span_id
        assert rows["inner"]["trace_id"] == outer.trace_id
        assert rows["outer"]["parent_id"] is None
        assert inner.trace_id == outer.trace_id

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer("t")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert tracer.finished("boom")[0]["status"] == "error"
        assert tracer.current() is None

    def test_record_is_retroactive(self):
        tracer = Tracer("t")
        parent = SpanContext("ab" * 16, "cd" * 8)
        row = tracer.record("queue.wait", 100.0, 100.25, parent=parent)
        assert row["start_unix"] == 100.0
        assert row["end_unix"] == 100.25
        assert row["trace_id"] == parent.trace_id
        assert row["parent_id"] == parent.span_id

    def test_end_clamps_backwards_clock(self):
        tracer = Tracer("t")
        row = tracer.record("x", 200.0, 150.0)
        assert row["end_unix"] == row["start_unix"] == 200.0

    def test_string_parent_accepts_traceparent(self):
        tracer = Tracer("t")
        ctx = SpanContext("ab" * 16, "cd" * 8)
        sp = tracer.start_span("child", parent=ctx.traceparent())
        assert sp.trace_id == ctx.trace_id
        assert sp.parent_id == ctx.span_id
        sp.end()

    def test_since_cursor_never_double_counts(self):
        tracer = Tracer("t")
        tracer.record("a", 1.0, 2.0)
        cursor, rows = tracer.since(0)
        assert [r["name"] for r in rows] == ["a"]
        cursor2, rows2 = tracer.since(cursor)
        assert rows2 == [] and cursor2 == cursor
        tracer.record("b", 2.0, 3.0)
        cursor3, rows3 = tracer.since(cursor2)
        assert [r["name"] for r in rows3] == ["b"]
        assert cursor3 == cursor2 + 1

    def test_spool_file_per_process(self, tmp_path):
        tracer = Tracer("my service!", spool_dir=str(tmp_path))
        tracer.record("x", 1.0, 2.0)
        assert tracer.spool_path is not None
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

    def test_install_uninstall(self):
        tracer = install_tracer(Tracer("explicit"))
        assert maybe_tracer() is tracer
        uninstall_tracer()
        assert maybe_tracer() is None


class TestLatencySummary:
    def test_percentiles(self):
        rows = [
            {"name": "w", "start_unix": 0.0, "end_unix": 0.001 * (i + 1)}
            for i in range(10)
        ]
        summary = span_latency_summary(rows, "w")
        assert summary["count"] == 10
        assert summary["p50_ms"] == pytest.approx(6.0, abs=1.0)
        assert summary["max_ms"] == pytest.approx(10.0, abs=0.01)

    def test_empty(self):
        assert span_latency_summary([], "w")["count"] == 0


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
        self._spool(str(spool_dir), "server", 100, [
            self._row("submit", 10.0, 10.1, 100, "server", "aa" * 8),
            self._row("queue.wait", 10.1, 10.4, 100, "server", "bb" * 8,
                      parent_id="aa" * 8),
        ])
        self._spool(str(spool_dir), "worker", 200, [
            self._row("worker.execute", 10.4, 11.0, 200, "worker",
                      "cc" * 8, parent_id="aa" * 8),
        ])
        # Junk in the directory must not break the merge.
        (spool_dir / "garbage.spans.jsonl").write_text("{not json\n")
        out = tmp_path / "merged.json"
        summary = merge_span_spools(str(spool_dir), str(out))
        assert summary["spans"] == 3
        assert summary["traces"] == 1
        assert summary["processes"] == ["server:100", "worker:200"]
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} == {
            "submit", "queue.wait", "worker.execute",
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


class TestJsonLogger:
    def test_emits_sorted_json_lines(self):
        lines = []

        class Sink:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        log = JsonLogger("svc", stream=Sink())
        log.info("job.done", job_id="abc", cached=False, skipped=None)
        payload = json.loads(lines[0])
        assert payload["event"] == "job.done"
        assert payload["level"] == "info"
        assert payload["service"] == "svc"
        assert payload["job_id"] == "abc"
        assert "skipped" not in payload  # None fields dropped
        assert log.emitted == 1 and log.errors == 0

    def test_bind_adds_static_fields(self):
        lines = []

        class Sink:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        log = JsonLogger("svc", stream=Sink()).bind(worker="w1")
        log.warning("retry")
        assert json.loads(lines[0])["worker"] == "w1"

    def test_log_path_appends_file(self, tmp_path):
        target = tmp_path / "log.jsonl"
        log = JsonLogger("svc", path=str(target))
        log.info("a")
        log.error("b", detail="x")
        rows = [json.loads(line) for line in
                target.read_text().splitlines()]
        assert [r["event"] for r in rows] == ["a", "b"]
        assert rows[1]["level"] == "error"

    def test_never_raises_on_broken_stream(self):
        class Broken:
            def write(self, text):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        log = JsonLogger("svc", stream=Broken())
        log.info("x")  # must not raise
        assert log.errors == 1


class TestEngineSpans:
    def _jobs(self):
        return expand_jobs(
            ["exchange2"], [ConfigSpec("OoO", baseline_ooo())],
            1, 300, 800, 2_500,
        )

    def test_run_jobs_emits_engine_spans_when_attached(self):
        tracer = install_tracer(Tracer("engine-test"))
        results, failures, stats = run_jobs(
            self._jobs(), jobs=1, cache=None,
        )
        assert not failures
        names = [r["name"] for r in tracer.finished()]
        assert names.count("engine.run") == 1
        assert names.count("engine.execute") == len(results)
        run_row = tracer.finished("engine.run")[0]
        execute_row = tracer.finished("engine.execute")[0]
        assert execute_row["trace_id"] == run_row["trace_id"]
        assert execute_row["parent_id"] == run_row["span_id"]
        assert run_row["attrs"]["executed"] == len(results)

    def test_detached_run_identical_to_attached(self):
        detached, _, _ = run_jobs(self._jobs(), jobs=1, cache=None)
        install_tracer(Tracer("engine-test"))
        attached, _, _ = run_jobs(self._jobs(), jobs=1, cache=None)
        uninstall_tracer()
        for before, after in zip(detached, attached):
            assert before.window.to_dict() == after.window.to_dict()


class TestObsOverheadTracing:
    def test_tracing_variant_bit_identical_and_measured(self):
        overhead = simspeed.measure_obs_overhead(
            workload="exchange2", config_name="strict",
            instructions=800, repeats=1,
        )
        # _check_identical inside would have raised on divergence.
        assert "wall_seconds_tracing" in overhead
        assert "overhead_tracing" in overhead
        assert overhead["wall_seconds_tracing"] > 0
        # The install is scoped: nothing leaks into this process.
        assert maybe_tracer() is None


class TestBenchHistory:
    PAYLOAD = {
        "schema": 3, "instructions": 100, "seed": 7,
        "results": [
            {"workload": "mcf", "config": "ooo",
             "windows": 1, "cycles_per_sec": 1_000_000.0},
        ],
    }

    def test_append_then_compare(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        entry = simspeed.append_history(self.PAYLOAD, path=path)
        assert entry["cycles_per_sec"] == {"mcf/ooo/w1": 1_000_000.0}
        assert "recorded" in entry and "git_revision" in entry
        slower = json.loads(json.dumps(self.PAYLOAD))
        slower["results"][0]["cycles_per_sec"] = 500_000.0
        lines = simspeed.compare_history(slower, path=path)
        assert any("WARNING" in line and "50% slower" in line
                   for line in lines)
        steady = simspeed.compare_history(self.PAYLOAD, path=path)
        assert any("within" in line for line in steady)

    def test_compare_skips_rows_of_another_schema(self, tmp_path):
        path = str(tmp_path / "hist.jsonl")
        simspeed.append_history(dict(self.PAYLOAD, schema=2), path=path)
        lines = simspeed.compare_history(self.PAYLOAD, path=path)
        assert len(lines) == 1 and "schema" in lines[0]

    def test_compare_without_history_seeds(self, tmp_path):
        lines = simspeed.compare_history(
            self.PAYLOAD, path=str(tmp_path / "none.jsonl"),
        )
        assert any("no prior rows" in line for line in lines)

    def test_load_history_skips_garbage(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text('{"ok": 1}\nnot json\n[]\n\n{"ok": 2}\n')
        rows = simspeed.load_history(str(path))
        assert [r["ok"] for r in rows] == [1, 2]


class TestServerObservatory:
    @pytest.fixture
    def server(self, tmp_path):
        srv = ReproServer(
            queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
        )
        host, port = srv.start_background()
        client = ServerClient("http://%s:%d" % (host, port))
        yield srv, client
        srv.close()

    def test_submit_stamps_record_with_server_span(self, server):
        srv, client = server
        ctx = SpanContext("ab" * 16, "cd" * 8)
        job = client.submit(
            "fuzz", FUZZ_SPEC, traceparent=ctx.traceparent(),
        )
        record = srv.queue.get(job.id)
        stamped = parse_traceparent(record.traceparent)
        # The record carries the server's submit span, which continues
        # the client's trace.
        assert stamped is not None
        assert stamped.trace_id == ctx.trace_id
        assert stamped.span_id != ctx.span_id
        submit_rows = srv.tracer.finished("submit")
        assert submit_rows[0]["parent_id"] == ctx.span_id
        assert submit_rows[0]["attrs"]["outcome"] == "queued"

    def test_execution_produces_causally_linked_spans(self, server):
        srv, client = server
        job = client.submit("fuzz", FUZZ_SPEC)
        client.wait(job.id, timeout=120)
        rows = {r["name"]: r for r in srv.tracer.finished()}
        assert {"submit", "queue.wait", "job.execute"} <= set(rows)
        trace_id = rows["submit"]["trace_id"]
        assert rows["queue.wait"]["trace_id"] == trace_id
        assert rows["job.execute"]["trace_id"] == trace_id
        assert rows["job.execute"]["parent_id"] == \
            rows["submit"]["span_id"]
        assert rows["job.execute"]["status"] == "ok"

    def test_status_endpoint_reports_progress(self, server):
        srv, client = server
        job = client.submit("fuzz", FUZZ_SPEC)
        client.wait(job.id, timeout=120)
        status = client.status()
        assert status["kind"] == "status"
        assert status["queue"]["done"] == 1
        assert status["jobs"]["by_kind"]["fuzz"]["done"] == 1
        assert status["workers"]["executed"] == 1
        assert status["latency"]["execute"]["count"] == 1
        assert status["latency"]["execute"]["p95_ms"] > 0
        assert status["tracing"]["service"] == "server"

    def test_metrics_exports_span_histograms_once(self, server):
        srv, client = server
        job = client.submit("fuzz", FUZZ_SPEC)
        client.wait(job.id, timeout=120)
        text = client.metrics_text()
        assert "server_execute_milliseconds" in text
        assert 'server_queue_wait_milliseconds' in text
        count_line = [
            line for line in text.splitlines()
            if line.startswith("server_execute_milliseconds_count")
        ][0]
        assert count_line.split()[-1] == "1"
        # A second scrape must not double-count the drained spans.
        again = client.metrics_text()
        count_line2 = [
            line for line in again.splitlines()
            if line.startswith("server_execute_milliseconds_count")
        ][0]
        assert count_line2.split()[-1] == "1"

    def test_server_spools_spans_when_env_set(self, tmp_path,
                                              monkeypatch):
        spool_dir = tmp_path / "spans"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(spool_dir))
        uninstall_tracer()
        srv = ReproServer(
            queue_dir=tmp_path / "queue", cache_dir=tmp_path / "cache",
        )
        host, port = srv.start_background()
        try:
            client = ServerClient("http://%s:%d" % (host, port))
            job = client.submit("fuzz", FUZZ_SPEC)
            client.wait(job.id, timeout=120)
        finally:
            srv.close()
        spooled = read_span_spools(str(spool_dir))
        assert {"submit", "job.execute"} <= {r["name"] for r in spooled}
        out = tmp_path / "merged.json"
        summary = merge_span_spools(str(spool_dir), str(out))
        assert summary["spans"] >= 3
        assert validate_chrome_trace(json.loads(out.read_text())) == []
