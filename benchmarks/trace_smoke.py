#!/usr/bin/env python
"""CI smoke for end-to-end span tracing (``make trace-smoke``).

Runs a traced ``nda-repro bench --jobs 2`` on the fork pool with
``REPRO_TRACE_DIR`` set.  The command must leave exactly one file in
that directory, its own Perfetto trace ``cli.bench-<pid>.json``, which
must pass ``validate_chrome_trace`` and hold one ``cli.bench`` slice,
one ``engine.run`` slice nested inside it on the same lane, and one
``engine.execute`` slice per executed job, each inside ``engine.run``
and on a pool worker's lane.

The trace directory is wiped at startup but kept afterwards so a CI
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

from repro.obs.perfetto import validate_chrome_trace


def cli(*argv: str, env=None, timeout: float = 120.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + list(argv),
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def _inside(child: dict, parent: dict) -> bool:
    return (parent["ts"] <= child["ts"]
            and child["ts"] + child["dur"] <= parent["ts"] + parent["dur"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-dir", default="results/traces-smoke")
    args = parser.parse_args()

    shutil.rmtree(args.trace_dir, ignore_errors=True)
    Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, REPRO_TRACE_DIR=args.trace_dir)

    out = cli("bench", "--benchmarks", "exchange2", "--samples", "2",
              "--warmup", "500", "--measure", "2000",
              "--jobs", "2", "--no-cache",
              env=env, timeout=300)
    assert out.returncode == 0, out.stderr or out.stdout
    engine_line = next(
        line for line in out.stdout.splitlines()
        if line.startswith("engine: ")
    )
    executed = int(re.search(r"(\d+) executed", engine_line).group(1))

    files = sorted(path.name for path in Path(args.trace_dir).iterdir())
    assert len(files) == 1 and re.fullmatch(
        r"cli\.bench-\d+\.json", files[0]), files
    payload = json.loads((Path(args.trace_dir) / files[0]).read_text())
    problems = validate_chrome_trace(payload)
    assert problems == [], "trace invalid: %s" % problems[:3]

    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    roots = [e for e in slices if e["name"] == "cli.bench"]
    assert len(roots) == 1, "expected one cli.bench slice, got %d" % len(
        roots)
    root = roots[0]
    runs = [e for e in slices if e["name"] == "engine.run"]
    assert len(runs) == 1, "expected one engine.run slice, got %d" % len(
        runs)
    run = runs[0]
    assert run["tid"] == root["tid"] and _inside(run, root), \
        "engine.run not nested in cli.bench on its lane"
    executes = [e for e in slices if e["name"] == "engine.execute"]
    assert len(executes) == executed > 0, \
        "%d engine.execute slices for %d executed jobs" % (
            len(executes), executed)
    assert all(_inside(e, run) for e in executes), \
        "engine.execute outside engine.run"
    lanes = {e["tid"] for e in executes}
    assert root["tid"] not in lanes, "a job ran on the main lane"
    print("[trace-smoke] %s: cli.bench > engine.run > %d engine.execute "
          "on %d worker lanes (%s)"
          % (files[0], len(executes), len(lanes), engine_line))
    print("trace-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
