#!/usr/bin/env python
"""CI smoke for end-to-end distributed tracing (``make trace-smoke``).

Drives real processes that share one ``REPRO_TRACE_DIR`` spool
directory:

1. **Server leg.** Boot ``nda-repro serve``, submit a small fuzz
   campaign carrying a client ``traceparent``, and wait for the result.
   The server process must spool causally linked ``submit`` →
   ``queue.wait`` → ``job.execute`` spans continuing the client trace.
2. **Driver leg.** Run a traced ``nda-repro bench`` on the local-pool
   backend.  The CLI process must spool one ``cli.bench`` root, one
   ``engine.run`` child, and one ``engine.execute`` span per executed
   job, all on that root's trace.
3. **Merge.** ``nda-repro obs trace merge`` stitches every spool into
   one Perfetto trace that must pass ``validate_chrome_trace`` and
   contain spans from exactly two services: the server and the CLI.

Spool/queue directories are wiped at startup but kept afterwards so a
CI failure can upload them for triage.
"""

import argparse
import json
import re
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.perfetto import (
    merge_span_spools,
    read_span_spools,
    validate_chrome_trace,
)
from repro.server import ServerClient, ServerError

FUZZ = {"seeds": 2, "configs": ["ooo"], "max_cycles": 200_000}

#: A fixed client trace context; the server's submit span must continue
#: this trace rather than starting its own.
CLIENT_TRACE_ID = "f0" * 16
CLIENT_TRACEPARENT = "00-%s-%s-01" % (CLIENT_TRACE_ID, "aa" * 8)


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def wait_healthy(client: ServerClient, proc, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit("server process died during startup")
        try:
            client.health()
            return
        except ServerError:
            time.sleep(0.2)
    raise SystemExit("server not healthy after %.0fs" % timeout)


def cli(*argv: str, env=None, timeout: float = 120.0):
    return subprocess.run(
        [sys.executable, "-m", "repro.cli"] + list(argv),
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def _server_leg(spool: str, queue_dir: str, cache_dir: str, env) -> None:
    port = free_port()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
         "--queue-dir", queue_dir, "--cache-dir", cache_dir],
        env=env,
    )
    base = "http://127.0.0.1:%d" % port
    try:
        client = ServerClient(base)
        wait_healthy(client, proc)
        print("[trace-smoke] server on %s" % base)

        job = client.submit("fuzz", FUZZ, traceparent=CLIENT_TRACEPARENT)
        print("[trace-smoke] submitted fuzz job %s (%s)"
              % (job.id[:12], job.state))

        done = client.wait(job.id, timeout=300)
        assert done.state == "done", "fuzz job ended %s: %s" % (
            done.state, done.error)
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    rows = read_span_spools(spool)
    server_rows = [r for r in rows if r["service"] == "server"]
    submits = [r for r in server_rows if r["name"] == "submit"]
    assert submits, "server spooled no submit span"
    submit = submits[0]
    assert submit["trace_id"] == CLIENT_TRACE_ID, \
        "submit span did not continue the client trace: %r" % submit
    assert submit["parent_id"] == "aa" * 8, submit
    for name in ("queue.wait", "job.execute"):
        linked = [
            r for r in server_rows
            if r["name"] == name and r["trace_id"] == CLIENT_TRACE_ID
        ]
        assert linked, "no %s span on the client trace" % name
    execute = next(
        r for r in server_rows
        if r["name"] == "job.execute" and r["trace_id"] == CLIENT_TRACE_ID
    )
    assert execute["parent_id"] == submit["span_id"], \
        "job.execute not parented on the submit span"
    campaign = [r for r in server_rows if r["name"] == "fuzz.campaign"]
    assert campaign and campaign[0]["trace_id"] == CLIENT_TRACE_ID, \
        "fuzz.campaign span missing from the client trace"
    print("[trace-smoke] server spans causally linked: "
          "submit -> queue.wait -> job.execute -> fuzz.campaign")


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
    parser.add_argument("--queue-dir", default="results/queue-trace-smoke")
    parser.add_argument("--cache-dir", default="results/.cache-trace-smoke")
    args = parser.parse_args()

    for stale in (args.spool_dir, args.queue_dir, args.cache_dir):
        shutil.rmtree(stale, ignore_errors=True)
    Path(args.spool_dir).mkdir(parents=True, exist_ok=True)

    import os
    env = dict(os.environ, REPRO_TRACE_DIR=args.spool_dir)

    _server_leg(args.spool_dir, args.queue_dir, args.cache_dir, env)
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
    assert services == ["cli", "server"], summary["processes"]
    assert summary["traces"] >= 2, summary  # server leg + driver leg
    print("[trace-smoke] merged trace validates with spans from %d "
          "processes: %s" % (
              len(summary["processes"]), ", ".join(summary["processes"]),
          ))

    print("trace-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
