"""Tests for the pipeline tracer."""

from repro.config import NDAPolicyName, baseline_ooo, nda_config
from repro.core.ooo import OutOfOrderCore
from repro.debug import PipelineTracer, TraceRecord
from repro.workloads.kernels import dependence_chain, mispredict_heavy


def traced_run(program, config=None, limit=1_000):
    core = OutOfOrderCore(program, config or baseline_ooo())
    tracer = PipelineTracer.attach(core, limit=limit)
    core.run()
    return core, tracer


class TestRecording:
    def test_records_every_committed_instruction(self):
        program = dependence_chain(20)
        core, tracer = traced_run(program)
        retired = [r for r in tracer.records if not r.squashed]
        assert len(retired) == core.committed

    def test_lifecycle_ordering(self):
        _, tracer = traced_run(dependence_chain(20))
        for record in tracer.records:
            if record.squashed:
                continue
            assert record.fetch <= record.dispatch
            assert record.dispatch <= record.issue
            assert record.issue < record.complete
            if record.broadcast >= 0:
                assert record.complete <= record.broadcast
                assert record.broadcast <= record.retire

    def test_squashed_instructions_marked(self):
        _, tracer = traced_run(mispredict_heavy(100))
        assert any(r.squashed for r in tracer.records)
        for record in tracer.records:
            if record.squashed:
                assert record.retire == -1

    def test_limit_respected(self):
        _, tracer = traced_run(dependence_chain(200), limit=25)
        assert len(tracer.records) == 25


class TestWakeupDelay:
    def test_baseline_has_no_deferral(self):
        _, tracer = traced_run(dependence_chain(50))
        assert tracer.mean_wakeup_delay() == 0.0

    def test_strict_policy_shows_deferral(self):
        _, tracer = traced_run(
            mispredict_heavy(200), nda_config(NDAPolicyName.STRICT)
        )
        assert tracer.mean_wakeup_delay() > 0.5

    def test_wakeup_delay_per_record(self):
        record = TraceRecord(
            seq=0, pc=0, disasm="x", fetch=0, dispatch=1, issue=2,
            complete=5, broadcast=9, retire=10, squashed=False,
        )
        assert record.wakeup_delay == 4


class TestRendering:
    def test_render_contains_stage_letters(self):
        _, tracer = traced_run(dependence_chain(10))
        text = tracer.render(width=80)
        assert "F" in text and "D" in text and "R" in text

    def test_render_empty(self):
        assert "no trace records" in PipelineTracer().render()

    def test_render_marks_squashed(self):
        _, tracer = traced_run(mispredict_heavy(80))
        assert "x |" in tracer.render()


def test_cli_trace(capsys):
    from repro.cli import main
    code = main(["trace", "dependence_chain", "--config", "strict",
                 "--instructions", "15", "--width", "40"])
    assert code == 0
    out = capsys.readouterr().out
    assert "wake-up" in out
