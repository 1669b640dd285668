"""Tests for the nda-repro command-line interface."""

import pytest

from repro.cli import main


def test_table3(capsys):
    assert main(["table3"]) == 0
    out = capsys.readouterr().out
    assert "Table 3" in out
    assert "8-issue" in out


def test_attack_blocked_returns_zero(capsys):
    code = main([
        "attack", "spectre_v1_cache", "--config", "permissive",
        "--guesses", "8",
    ])
    assert code == 0
    assert "leaked=False" in capsys.readouterr().out


def test_attack_leak_returns_one(capsys):
    code = main([
        "attack", "spectre_v1_cache", "--config", "ooo", "--guesses", "8",
    ])
    assert code == 1
    assert "leaked=True" in capsys.readouterr().out


def test_attack_custom_secret(capsys):
    code = main([
        "attack", "lazyfp", "--config", "ooo", "--secret", "7",
        "--guesses", "8",
    ])
    assert code == 1
    assert "secret=7" in capsys.readouterr().out


def test_unknown_attack_rejected():
    with pytest.raises(SystemExit):
        main(["attack", "rowhammer"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["fuzz", "run", "--windows", "2"],
    ["bench-simspeed", "--windows", "2"],
    ["bench-simspeed"],
    ["worker", "--connect", "127.0.0.1:1"],
    ["bench", "--remote-cache", "http://127.0.0.1:1"],
    ["bench", "--bind", "127.0.0.1:0"],
    ["bench", "--no-spawn"],
    ["bench", "--backend", "worker-protocol"],
    ["fuzz", "run", "--backend", "worker-protocol"],
    ["bench", "--backend", "serial"],
    ["fuzz", "run", "--backend", "serial"],
    ["bench", "--checkpoint", "ck.json"],
    ["figure", "7", "--resume", "ck.json"],
    ["fuzz", "run", "--checkpoint", "ck.json"],
    ["fuzz", "run", "--resume", "ck.json"],
    ["obs", "top"],
    ["obs", "export"],
    ["submit", "sweep", "--priority", "1"],
    ["serve"],
    ["submit", "sweep"],
    ["attack", "cross_btb", "--contexts", "2"],
    ["obs", "metrics"],
    ["obs", "manifest", "list"],
    ["obs", "trace", "merge", "--dir", "D"],
])
def test_retired_flag_rejected(argv, capsys):
    # Independent runs go through the engine on one host only; no
    # subcommand, flag or backend name picks another path.  A run's
    # numbers live in the command's output or the result store, so no
    # command reads or writes run manifests, and a traced command
    # writes its own trace, so there is nothing to merge.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_bench_tiny(capsys, tmp_path):
    code = main([
        "bench", "--benchmarks", "exchange2", "--samples", "2",
        "--warmup", "300", "--measure", "800",
        "--cache-dir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 7" in out
    assert "Table 2" in out
    assert "engine:" in out


def test_bench_warm_cache_executes_nothing(capsys, tmp_path):
    args = [
        "bench", "--benchmarks", "exchange2", "--samples", "1",
        "--warmup", "300", "--measure", "800", "--jobs", "2",
        "--cache-dir", str(tmp_path),
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "0 cache hits" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "0 executed" in warm


def test_bench_no_cache_flag(capsys):
    code = main([
        "bench", "--benchmarks", "exchange2", "--samples", "1",
        "--warmup", "300", "--measure", "800", "--no-cache",
    ])
    assert code == 0
    assert "0 cache hits" in capsys.readouterr().out


def test_fuzz_run_resumes_from_its_cache_dir(capsys, tmp_path, monkeypatch):
    store = str(tmp_path / "store")
    args = ["fuzz", "run", "--seeds", "4", "--configs", "strict",
            "--jobs", "1", "--cache-dir", store]
    assert main(args) == 0
    first = capsys.readouterr().out

    def no_execution(job):
        raise AssertionError("a stored run executed again")

    # The rerun serves all four runs from the store: nothing executes.
    monkeypatch.setattr("repro.engine.scheduler.execute_job", no_execution)
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert main(["cache", "info", "--cache-dir", store]) == 0
    assert "entries:   4" in capsys.readouterr().out


def test_fuzz_run_without_cache_dir_writes_no_file(capsys, tmp_path,
                                                  monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["fuzz", "run", "--seeds", "2", "--configs", "ooo",
                 "--jobs", "1"]) == 0
    assert "campaign: 2 seeds x 1 configs" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_config_describe(capsys):
    assert main(["config", "strict"]) == 0
    out = capsys.readouterr().out
    assert "Strict" in out
    assert "cache key" in out


def test_cache_info_and_clear(capsys, tmp_path):
    assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    assert "entries:   0" in capsys.readouterr().out
    main([
        "bench", "--benchmarks", "exchange2", "--samples", "1",
        "--warmup", "300", "--measure", "800",
        "--cache-dir", str(tmp_path),
    ])
    capsys.readouterr()
    assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    assert "entries:   0" not in capsys.readouterr().out
    assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["cache", "info", "--cache-dir", str(tmp_path)]) == 0
    assert "entries:   0" in capsys.readouterr().out
