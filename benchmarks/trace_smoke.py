#!/usr/bin/env python
"""CI smoke for end-to-end span tracing (``make trace-smoke``).

Runs real processes that share one ``REPRO_TRACE_DIR`` spool directory:

1. **Driver.** Run a traced ``nda-repro bench`` on the local-pool
   backend.  The CLI process must spool one ``cli.bench`` root, one
   ``engine.run`` child, and one ``engine.execute`` span per executed
   job, all on that root's trace.
2. **Merge.** ``nda-repro obs trace merge`` stitches every spool into
   one Perfetto trace that must pass ``validate_chrome_trace`` and
   contain spans from exactly one service: the CLI.

The spool directory is wiped at startup but kept afterwards so a CI
failure can upload it for triage.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from repro.obs.perfetto import (
    merge_span_spools,
    read_span_spools,
    validate_chrome_trace,
)


def cli(*argv: str, env=None, timeout: float = 120.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + list(argv),
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def _driver_leg(spool: str, env) -> None:
    out = cli("bench", "--benchmarks", "exchange2", "--samples", "2",
              "--warmup", "500", "--measure", "2000",
              "--jobs", "2", "--backend", "local-pool", "--no-cache",
              env=env, timeout=300)
    assert out.returncode == 0, out.stderr or out.stdout
    engine_line = next(
        line for line in out.stdout.splitlines()
        if line.startswith("engine: ")
    )
    executed = int(re.search(r"(\d+) executed", engine_line).group(1))

    rows = [r for r in read_span_spools(spool) if r["service"] == "cli"]
    roots = [r for r in rows if r["name"] == "cli.bench"]
    assert len(roots) == 1, "expected one cli.bench span, got %d" % len(
        roots)
    root = roots[0]
    assert not root["parent_id"], "cli.bench is not a root: %r" % root
    on_trace = [r for r in rows if r["trace_id"] == root["trace_id"]]
    runs = [r for r in on_trace if r["name"] == "engine.run"]
    assert len(runs) == 1, "expected one engine.run span, got %d" % len(
        runs)
    assert runs[0]["parent_id"] == root["span_id"], \
        "engine.run not parented on cli.bench"
    executes = [r for r in on_trace if r["name"] == "engine.execute"]
    assert len(executes) == executed, \
        "%d engine.execute spans for %d executed jobs" % (
            len(executes), executed)
    assert all(r["parent_id"] == runs[0]["span_id"] for r in executes), \
        "engine.execute not parented on engine.run"
    print("[trace-smoke] driver spans causally linked: cli.bench -> "
          "engine.run -> %d engine.execute (%s)"
          % (len(executes), engine_line))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spool-dir", default="results/traces-smoke/spans")
    args = parser.parse_args()

    shutil.rmtree(args.spool_dir, ignore_errors=True)
    Path(args.spool_dir).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, REPRO_TRACE_DIR=args.spool_dir)

    _driver_leg(args.spool_dir, env)

    # ---- Merge every spool into one validating Perfetto trace. ---- #
    merged = str(Path(args.spool_dir).parent / "merged.json")
    out = cli("obs", "trace", "merge", "--dir", args.spool_dir,
              "--output", merged, env=env)
    assert out.returncode == 0, out.stderr or out.stdout
    print("[trace-smoke] %s" % out.stdout.strip().splitlines()[-1])

    payload = json.loads(Path(merged).read_text())
    problems = validate_chrome_trace(payload)
    assert problems == [], "merged trace invalid: %s" % problems[:3]

    summary = merge_span_spools(args.spool_dir, merged)
    services = sorted(
        {entry.split(":")[0] for entry in summary["processes"]}
    )
    assert services == ["cli"], summary["processes"]
    print("[trace-smoke] merged trace validates with spans from %d "
          "processes: %s" % (
              len(summary["processes"]), ", ".join(summary["processes"]),
          ))

    print("trace-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
