"""Self-test of the end-to-end benchmark on small inputs.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
from functools import partial

import pytest

import compare
import layers
import pipelines
from repro.attacks import taxonomy
from repro.core.ooo import OutOfOrderCore

SMALL = {
    "figures": partial(
        pipelines.figures, benchmarks=("exchange2",), samples=1,
        configs=["ooo", "permissive", "strict", "full-protection",
                 "in-order"],
        warmup=200, measure=600, instructions=1_200,
    ),
    "matrix": partial(pipelines.matrix, configs=["ooo", "strict"]),
    "fuzz": partial(pipelines.fuzz, seeds=3, configs=["ooo", "strict"]),
    "smt": partial(pipelines.smt, seeds=2, configs=["ooo", "permissive"]),
}


def run_small(name: str, traced: bool) -> dict:
    return pipelines.run_pass(name, 0, traced, workload=SMALL[name])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_matches_untraced(name):
    plain = run_small(name, traced=False)
    traced = run_small(name, traced=True)
    assert plain["problems"] == [] and traced["problems"] == []
    assert plain["attempted"] > 0 and plain["failed"] == 0
    assert plain["sim_digest"] == traced["sim_digest"]
    metrics = traced["layers"]
    assert metrics["step.busy_s"] > 0 and metrics["build.calls"] > 0
    assert metrics["gen.busy_s"] > 0 and metrics["render.busy_s"] > 0
    assert 0.5 < metrics["layers.coverage"] <= 1.0
    if name in ("fuzz", "smt"):
        assert metrics["fuzz.oracle_overhead"] != 0.0


def test_traced_pass_restores_wrapped_methods():
    original = OutOfOrderCore.__init__
    run_small("fuzz", traced=True)
    assert OutOfOrderCore.__init__ is original


def test_chrome_trace_is_valid(tmp_path):
    from repro.obs.perfetto import validate_chrome_trace

    path = tmp_path / "pass.trace.json"
    pipelines.run_pass("fuzz", 0, True, str(path), workload=SMALL["fuzz"])
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []
    names = {event["name"] for event in payload["traceEvents"]}
    assert {"pipeline", "engine.job", "core.build", "core.run"} <= names


def test_window_legs_are_named_warmup_and_measure():
    recorder = layers.Recorder().install()
    try:
        run = pipelines.PassContext(0, "", recorder)
        with run.span("pipeline", layers.PIPELINE):
            from repro.engine.jobs import SimJob
            from repro.config import config_registry

            spec = config_registry()["ooo"]
            SimJob("exchange2", spec.label, spec.config, False, 0, 1,
                   200, 600, 1_200).execute()
    finally:
        recorder.uninstall()
    steps = [s.name for s in recorder.spans if s.cat == layers.STEP]
    assert steps == ["core.warmup", "core.measure"]


def test_matrix_mismatch_counts_as_failed(monkeypatch):
    real = taxonomy.expected_leak

    def flipped(info, config, in_order=False):
        expected = real(info, config, in_order)
        return not expected if info.name == "spectre_v1_cache" else expected

    monkeypatch.setattr(taxonomy, "expected_leak", flipped)
    result = run_small("matrix", traced=False)
    assert result["attempted"] == 2 * len(taxonomy.IMPLEMENTED)
    assert result["failed"] == 2
    assert len(result["problems"]) == 2


# ---------------------------------------------------------------------- #
# compare.py on synthetic sets.
# ---------------------------------------------------------------------- #

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
]}


def rows(values, failed=0, digest="d"):
    """One run per value; every end-to-end metric reads that value."""
    return [
        {"workload": "w", "seed": seed, "trace": 0, "correct": True,
         "attempted": 10, "failed": failed, "sim_digest": digest,
         "metrics": {
             name: {"value": value, "unit": "s"}
             for name in ("wall_s", "setup_s", "peak_rss_mb")
         }}
        for seed, value in enumerate(values)
    ]


BASE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


@pytest.mark.parametrize("scale, verdict", [
    (1.0, "same"), (1.3, "regression"), (0.8, "improved"),
])
def test_compare_verdicts(scale, verdict):
    results, problems = compare.compare(
        rows(BASE), rows([v * scale for v in BASE]), SPEC,
    )
    assert [r["verdict"] for r in results] == [verdict]
    assert bool(problems) == (verdict == "regression")


def test_compare_unresolved_when_spread_exceeds_bound():
    wide = [6.0, 14.0, 8.0, 12.0, 10.0, 7.0, 13.0, 9.0, 11.0, 10.0]
    results, problems = compare.compare(
        rows(wide), rows(list(reversed(wide))), SPEC,
    )
    assert [r["verdict"] for r in results] == ["unresolved"]
    assert problems == []


def test_compare_flags_digest_mismatch_and_failures():
    _, problems = compare.compare(rows(BASE), rows(BASE, digest="e"), SPEC)
    assert any("sim_digest" in p for p in problems)
    _, problems = compare.compare(rows(BASE), rows(BASE, failed=1), SPEC)
    assert any("failed_ratio" in p for p in problems)


def test_compare_main_exit_status(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("".join(json.dumps(r) + "\n" for r in rows(BASE)))
    b.write_text("".join(
        json.dumps(dict(r, label="x")) + "\n"
        for r in rows([v * 1.3 for v in BASE])
    ))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b) + "#x"]) == 1
