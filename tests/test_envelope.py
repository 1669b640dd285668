"""The versioned result envelope (``repro.result/v1``) and its adopters."""

import json

import pytest

from repro import baseline_ooo, simulate
from repro.envelope import (
    RESULT_SCHEMA,
    attack_envelope,
    make_envelope,
    outcome_body,
    run_envelope,
)
from repro.workloads import spec_program


class TestMakeEnvelope:
    def test_stamps_schema_and_kind_over_flat_body(self):
        env = make_envelope("run", cycles=10, label="OoO")
        assert env["schema"] == RESULT_SCHEMA
        assert env["kind"] == "run"
        assert env["cycles"] == 10
        assert env["label"] == "OoO"

    def test_reserved_fields_rejected(self):
        with pytest.raises(ValueError):
            make_envelope("run", schema="evil")
        # "kind" collides with the positional parameter itself, which is
        # its own guarantee that a body can't smuggle one in.
        with pytest.raises(TypeError):
            make_envelope("run", **{"kind": "evil"})

    def test_empty_kind_rejected(self):
        with pytest.raises(ValueError):
            make_envelope("")

    def test_json_round_trip(self):
        env = make_envelope("suite", cpi={"mcf": {"OoO": 1.5}})
        assert json.loads(json.dumps(env)) == env


class TestRunEnvelope:
    def test_from_real_outcome(self):
        program = spec_program("exchange2", 1_500, seed=1)
        outcome = simulate(program, baseline_ooo())
        env = run_envelope(outcome, benchmark="exchange2", seed=1)
        assert env["schema"] == RESULT_SCHEMA
        assert env["kind"] == "run"
        assert env["cycles"] == outcome.stats.cycles
        assert env["cpi"] == outcome.cpi
        assert env["benchmark"] == "exchange2"
        assert env["stats"]["committed"] == outcome.stats.committed

    def test_outcome_body_round_trips_stats(self):
        from repro.stats.counters import PipelineStats

        program = spec_program("exchange2", 1_500, seed=1)
        outcome = simulate(program, baseline_ooo())
        body = outcome_body(outcome)
        restored = PipelineStats.from_dict(
            json.loads(json.dumps(body["stats"]))
        )
        assert restored.cycles == outcome.stats.cycles


class TestAttackEnvelope:
    def test_from_real_attack_outcome(self):
        from repro.attacks.common import default_guesses
        from repro.attacks.taxonomy import IMPLEMENTED

        info = next(i for i in IMPLEMENTED if i.name == "spectre_v1_cache")
        outcome = info.module.run(
            baseline_ooo(), secret=42, guesses=default_guesses(42, 8)
        )
        env = attack_envelope(outcome)
        assert env["schema"] == RESULT_SCHEMA
        assert env["kind"] == "attack"
        assert env["leaked"] is True
        assert env["recovered"] == 42
        assert len(env["guesses"]) == len(env["timings"])


class TestCorpusIsEnvelope:
    def _program(self):
        from repro.isa.assembler import Assembler
        from repro.isa.registers import R1

        asm = Assembler("tiny")
        asm.li(R1, 7)
        asm.halt()
        return asm.build()

    def test_save_writes_envelope_and_loads_back(self, tmp_path):
        from repro.fuzz.corpus import load_witness_file, save_witness_file

        path = tmp_path / "w.json"
        save_witness_file(
            path, self._program(), meta={"seed": 3, "channel": "cache"},
            secret_ranges=((16, 32),), tainted_bytes=(16, 17),
        )
        payload = json.loads(path.read_text())
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["kind"] == "fuzz-witness"
        loaded = load_witness_file(path)
        assert loaded["meta"]["seed"] == 3
        assert loaded["secret_ranges"] == ((16, 32),)

    def test_legacy_schema_1_still_loads(self, tmp_path):
        from repro.fuzz.corpus import (
            load_witness_file,
            program_to_dict,
            save_witness_file,
        )

        path = tmp_path / "w.json"
        save_witness_file(path, self._program(), meta={"seed": 1})
        payload = json.loads(path.read_text())
        del payload["kind"]
        payload["schema"] = 1
        path.write_text(json.dumps(payload))
        assert load_witness_file(path)["meta"]["seed"] == 1
        # sanity: the program body is unchanged between layouts
        assert payload["program"] == program_to_dict(self._program())

    def test_unknown_schema_rejected(self, tmp_path):
        from repro.fuzz.corpus import load_witness_file, save_witness_file

        path = tmp_path / "w.json"
        save_witness_file(path, self._program(), meta={})
        payload = json.loads(path.read_text())
        payload["schema"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_witness_file(path)

    def test_wrong_envelope_kind_rejected(self, tmp_path):
        from repro.fuzz.corpus import load_witness_file, save_witness_file

        path = tmp_path / "w.json"
        save_witness_file(path, self._program(), meta={})
        payload = json.loads(path.read_text())
        payload["kind"] = "run"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_witness_file(path)


class TestCliJson:
    def test_run_json_prints_envelope(self, capsys):
        from repro.cli import main

        assert main(["run", "exchange2", "--instructions", "2000",
                     "--json"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["schema"] == RESULT_SCHEMA
        assert env["kind"] == "run"
        assert env["benchmark"] == "exchange2"
        assert env["cycles"] > 0

    def test_attack_json_prints_envelope(self, capsys):
        from repro.cli import main

        rc = main(["attack", "spectre_v1_cache", "--guesses", "8",
                   "--json"])
        env = json.loads(capsys.readouterr().out)
        assert env["schema"] == RESULT_SCHEMA
        assert env["kind"] == "attack"
        assert env["leaked"] is True
        assert rc == 1  # leak under the baseline exits 1 by contract
