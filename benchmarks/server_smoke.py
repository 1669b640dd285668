#!/usr/bin/env python
"""CI smoke for the HTTP job server (``make server-smoke``).

Boots the real service twice through ``nda-repro serve`` subprocesses
and drives it over the socket:

1. **Cold run + dedup.** Submit a tiny sweep, wait for it, then submit
   the identical spec again — the second submission must come back as
   the *same* completed job (``submissions == 2``) without another
   engine execution.
2. **CLI client.** ``nda-repro submit --wait`` against the same server
   must print the suite result envelope; afterwards the job counts 3
   submissions and ``/healthz`` reports exactly one done job.
3. **Warm cache.** A second server with a *fresh* queue directory but
   the same result cache must run the same submission through its
   queue with zero engine executions in the result's accounting.

Queue directories are wiped at startup but kept afterwards so a CI
failure can upload them for triage.
"""

import argparse
import json
import shutil
import socket
import subprocess
import sys
import time

from repro.server import ServerClient, ServerError

SWEEP = {
    "benchmarks": ["exchange2"], "configs": ["ooo", "strict"],
    "samples": 1, "warmup": 500, "measure": 2000, "instructions": 5000,
}


def free_port() -> int:
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return port


def start_server(port: int, queue_dir: str, cache_dir: str):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", str(port),
         "--queue-dir", queue_dir, "--cache-dir", cache_dir],
    )


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queue-dir", default="results/queue-smoke",
                        help="queue root prefix (two dirs are derived)")
    parser.add_argument("--cache-dir", default="results/.cache-smoke")
    args = parser.parse_args()

    queue_a = args.queue_dir + "-a"
    queue_b = args.queue_dir + "-b"
    for stale in (queue_a, queue_b, args.cache_dir):
        shutil.rmtree(stale, ignore_errors=True)

    # ---- Server A: cold execution, then idempotent resubmission. ---- #
    port = free_port()
    proc = start_server(port, queue_a, args.cache_dir)
    base = "http://127.0.0.1:%d" % port
    try:
        client = ServerClient(base)
        wait_healthy(client, proc)
        print("[smoke] server A on %s" % base)

        job = client.submit("sweep", SWEEP)
        print("[smoke] cold submit: job %s %s" % (job.id[:12], job.state))
        done = client.wait(job.id, timeout=300)
        assert done.state == "done", "cold job ended %s: %s" % (
            done.state, done.error)
        result = client.result(job.id)
        executed = result["engine"]["executed"]
        assert result["kind"] == "suite", result["kind"]
        assert executed >= 1, "cold run executed nothing"
        print("[smoke] cold run executed %d windows" % executed)

        again = client.submit("sweep", SWEEP)
        assert again.id == job.id, "identical spec produced a new job"
        assert again.state == "done", "resubmission not answered done"
        assert again.submissions == 2, again.submissions
        print("[smoke] resubmission deduped to the completed job")

        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", "submit", "sweep",
             "--server", base, "--wait", "--spec", json.dumps(SWEEP)],
            capture_output=True, text=True, timeout=120,
        )
        assert cli.returncode == 0, cli.stderr
        envelope = json.loads(cli.stdout)
        assert envelope["schema"] == "repro.result/v1", envelope
        assert envelope["kind"] == "suite"
        print("[smoke] nda-repro submit --wait printed the envelope")

        submissions = client.job(job.id).submissions
        assert submissions == 3, submissions
        queue = client.health()["queue"]
        assert queue["done"] == 1, queue
        print("[smoke] one done job after 3 submissions (/healthz %s)"
              % queue)
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    # ---- Server B: fresh queue + warm cache => zero executions. ---- #
    port = free_port()
    proc = start_server(port, queue_b, args.cache_dir)
    base = "http://127.0.0.1:%d" % port
    try:
        client = ServerClient(base)
        wait_healthy(client, proc)
        print("[smoke] server B on %s (fresh queue, warm cache)" % base)

        job = client.submit("sweep", SWEEP)
        done = client.wait(job.id, timeout=300)
        assert done.state == "done", "warm job ended %s: %s" % (
            done.state, done.error)
        result = client.result(job.id)
        assert result["engine"]["executed"] == 0, \
            "warm run executed %d windows" % result["engine"]["executed"]
        print("[smoke] warm job ran from the result cache "
              "(0 executions, %d cache hits)"
              % result["engine"]["cache_hits"])
    finally:
        proc.terminate()
        proc.wait(timeout=10)

    print("server-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
