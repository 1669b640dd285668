"""Run-manifest tests: schema, round-trips, and the `obs` CLI."""

from __future__ import annotations

import json

import pytest

from repro.api import simulate
from repro.cli import main
from repro.config import baseline_ooo
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    latest_manifest,
    list_manifests,
    load_manifest,
    manifest_dir,
    validate_manifest,
    write_manifest,
)
from repro.stats.counters import PipelineStats
from repro.workloads.generator import spec_program


@pytest.fixture
def manifests_in(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
    return tmp_path


def _outcome():
    program = spec_program("mcf", instructions=700, seed=9)
    return simulate(program, baseline_ooo())


class TestBuildAndValidate:
    def test_minimal_manifest_is_valid(self):
        manifest = build_manifest(baseline_ooo())
        assert validate_manifest(manifest) == []
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["scheme"] == "none"
        assert set(manifest["host"]) == {"hostname", "platform", "python"}

    def test_stats_populate_timings_and_metrics(self):
        outcome = _outcome()
        manifest = build_manifest(
            baseline_ooo(), workload="mcf", seed=9, stats=outcome.stats,
        )
        assert validate_manifest(manifest) == []
        assert manifest["timings"]["cycles"] == outcome.stats.cycles
        assert manifest["workload"] == "mcf"
        assert manifest["seed"] == 9
        assert manifest["stats"] == outcome.stats.to_dict()
        assert "campaign" not in manifest

    def test_validation_types_the_blocks(self):
        manifest = build_manifest(
            baseline_ooo(), stats=PipelineStats(cycles=20, committed=10),
            campaign={"runs": {"ooo": 1}, "leaked_runs": {"ooo": 0},
                      "witnesses": {"ooo": {}}, "counterexamples": 0,
                      "failures": 0},
        )
        assert validate_manifest(manifest) == []
        for block, key, value in (
            ("stats", "cycles", "20"),
            ("stats", "cycles", True),
            ("stats", "cycle_class", {"commit": 1.5}),
            ("stats", "sim_wall_seconds", None),
            ("stats", "mystery", 1),
            ("campaign", "witnesses", {"ooo": 3}),
            ("campaign", "failures", []),
        ):
            broken = json.loads(json.dumps(manifest))
            broken[block][key] = value
            problems = validate_manifest(broken)
            assert any(block + "." + key in p or repr(key) in p
                       for p in problems), (block, key, problems)
        partial = dict(manifest, stats={"cycles": 20})
        assert validate_manifest(partial) == []

    def test_validation_catches_problems(self):
        manifest = build_manifest(baseline_ooo())
        assert validate_manifest("not a dict")
        broken = dict(manifest, schema_version=99)
        assert any("schema_version" in p for p in validate_manifest(broken))
        del manifest["config_hash"]
        manifest["mystery"] = 1
        problems = validate_manifest(manifest)
        assert any("config_hash" in p for p in problems)
        assert any("mystery" in p for p in problems)


class TestWriteLoadList:
    def test_write_and_load_round_trip(self, manifests_in):
        outcome = _outcome()
        manifest = build_manifest(
            baseline_ooo(), workload="mcf", stats=outcome.stats,
        )
        path = write_manifest(manifest)
        assert str(manifests_in) in path
        assert load_manifest(path) == json.loads(json.dumps(manifest))

    def test_stats_survive_the_manifest(self, manifests_in):
        """PipelineStats -> manifest file -> from_dict() is exact."""
        outcome = _outcome()
        path = write_manifest(build_manifest(
            baseline_ooo(), stats=outcome.stats,
        ))
        restored = PipelineStats.from_dict(load_manifest(path)["stats"])
        assert restored == outcome.stats

    def test_list_and_latest(self, manifests_in):
        assert list_manifests() == []
        assert latest_manifest() is None
        first = build_manifest(baseline_ooo(), kind="run")
        second = build_manifest(baseline_ooo(), kind="trace")
        second["created_unix"] = first["created_unix"] + 1
        write_manifest(first)
        write_manifest(second)
        assert len(list_manifests()) == 2
        assert latest_manifest()["kind"] == "trace"

    def test_write_rejects_invalid(self, manifests_in):
        with pytest.raises(ValueError):
            write_manifest({"kind": "run"})
        assert list_manifests() == []

    def test_manifest_dir_resolution(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_MANIFEST_DIR", raising=False)
        assert manifest_dir() == "results/manifests"
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        assert manifest_dir() == str(tmp_path)
        assert manifest_dir("explicit") == "explicit"

    def test_simulate_manifest_opt_in(self, manifests_in):
        program = spec_program("mcf", instructions=400, seed=1)
        simulate(program, baseline_ooo())
        assert list_manifests() == []
        simulate(program, baseline_ooo(), manifest=True)
        paths = list_manifests()
        assert len(paths) == 1
        manifest = load_manifest(paths[0])
        assert validate_manifest(manifest) == []
        assert manifest["workload"] == program.name


class TestObsCli:
    def _trace(self, tmp_path, capsys):
        # Keep the trace out of the manifest directory: list_manifests()
        # scans every .json under REPRO_MANIFEST_DIR.
        code = main([
            "obs", "trace", "spectre_v1_cache", "--config", "strict",
            "--output", str(tmp_path / "traces" / "trace.json"),
        ])
        assert code == 0
        return capsys.readouterr().out

    def test_obs_trace_writes_trace_and_manifest(self, manifests_in,
                                                 tmp_path, capsys):
        out = self._trace(tmp_path, capsys)
        assert "deferred wake-ups" in out
        assert "ui.perfetto.dev" in out
        payload = json.loads(
            (tmp_path / "traces" / "trace.json").read_text()
        )
        from repro.obs import validate_chrome_trace
        assert validate_chrome_trace(payload) == []
        manifest = latest_manifest()
        assert manifest["kind"] == "trace"
        assert manifest["workload"] == "spectre_v1_cache"

    def test_obs_metrics_renders_latest(self, manifests_in, tmp_path,
                                        capsys):
        self._trace(tmp_path, capsys)
        assert main(["obs", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "stats.cycles" in out
        assert "stats.deferred_broadcasts" in out
        assert "stats.cycle_class.commit" in out

    def test_obs_metrics_without_manifests(self, manifests_in, capsys):
        assert main(["obs", "metrics"]) == 2
        assert "no manifests" in capsys.readouterr().out

    def test_obs_manifest_list_show_validate(self, manifests_in, tmp_path,
                                             capsys):
        self._trace(tmp_path, capsys)
        assert main(["obs", "manifest", "list"]) == 0
        listing = capsys.readouterr().out
        assert "trace" in listing
        path = list_manifests()[0]
        assert main(["obs", "manifest", "show", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["kind"] == "trace"
        assert main(["obs", "manifest", "validate", path]) == 0
        assert "valid manifest" in capsys.readouterr().out

    def test_obs_manifest_validate_rejects_corrupt(self, manifests_in,
                                                   tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "run"}')
        assert main(["obs", "manifest", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_obs_trace_unknown_target(self, manifests_in):
        with pytest.raises(SystemExit):
            main(["obs", "trace", "rowhammer"])


class TestFuzzManifest:
    def test_fuzz_run_writes_campaign_manifest(self, manifests_in, capsys):
        code = main([
            "fuzz", "run", "--seeds", "2", "--configs", "ooo",
            "--jobs", "1",
        ])
        assert code == 0
        manifest = latest_manifest()
        assert manifest["kind"] == "fuzz-campaign"
        assert manifest["extra"]["seeds"] == 2
        counts = manifest["campaign"]
        assert counts["runs"] == {"ooo": 2}
        assert 0 <= counts["leaked_runs"]["ooo"] <= 2
        assert counts["counterexamples"] == counts["failures"] == 0
        assert main(["obs", "metrics"]) == 0
        assert "campaign.runs.ooo" in capsys.readouterr().out
