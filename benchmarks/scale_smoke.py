#!/usr/bin/env python
"""CI smoke for the execution backends (``make scale-smoke``).

One tiny sweep, two ways, one answer:

1. **Bit-identity.** Run the same job set through the ``serial`` and
   ``local-pool`` backends and require every measurement window of the
   pool run to be byte-identical to the serial reference.
2. **Kill/resume.** Launch a checkpointing fuzz campaign as a
   subprocess, SIGTERM it mid-run, validate the checkpoint manifest it
   left behind, then resume it — completed jobs must replay without
   re-execution and the finished campaign must report the same witness
   corpus as an uninterrupted reference run.

Checkpoint artifacts are written under ``results/scale-smoke/`` and
kept, so a CI failure can upload them for triage.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

from repro.config import ConfigSpec, NDAPolicyName, baseline_ooo, nda_config
from repro.engine import expand_jobs, run_jobs
from repro.fuzz.campaign import run_campaign
from repro.obs.manifest import validate_checkpoint

ARTIFACT_DIR = os.path.join("results", "scale-smoke")

SEEDS = 300
CONFIG = "strict"


def sweep_jobs():
    specs = [
        ConfigSpec("OoO", baseline_ooo()),
        ConfigSpec("Strict", nda_config(NDAPolicyName.STRICT)),
        ConfigSpec("In-Order", baseline_ooo(), in_order=True),
    ]
    return expand_jobs(["exchange2", "leela"], specs, 1, 500, 2000, 5000)


def windows(results):
    return {
        "%s/%s/%d" % (r.job.coordinates): r.window.to_dict()
        for r in results
    }


def check_bit_identity() -> None:
    jobs = sweep_jobs()
    reference, failures, serial_stats = run_jobs(jobs, backend="serial")
    assert not failures, failures
    print("serial:          %s" % serial_stats.describe())

    results, failures, stats = run_jobs(jobs, backend="local-pool", jobs=2)
    assert not failures, failures
    print("local-pool:      %s" % stats.describe())
    assert not stats.degraded, "local-pool degraded to serial"
    got, want = windows(results), windows(reference)
    diff = [coords for coords in want if got[coords] != want[coords]]
    assert not diff, "local-pool diverged from serial on %s" % diff
    print("bit-identity: local-pool matches the serial reference")


def check_kill_resume() -> None:
    checkpoint = os.path.join(ARTIFACT_DIR, "campaign.ck.json")
    child_code = (
        "import sys\n"
        "from repro.fuzz.campaign import run_campaign\n"
        "run_campaign(range(%d), config_names=[%r], jobs=1,\n"
        "             checkpoint=sys.argv[1], checkpoint_interval=1)\n"
        % (SEEDS, CONFIG)
    )
    child = subprocess.Popen([sys.executable, "-c", child_code, checkpoint])
    try:
        deadline = time.monotonic() + 120.0
        completed = 0
        while time.monotonic() < deadline:
            if child.poll() is not None:
                raise SystemExit(
                    "campaign finished before SIGTERM; raise SEEDS"
                )
            try:
                manifest = json.loads(open(checkpoint).read())
                completed = len(
                    manifest["extra"]["checkpoint"]["completed"]
                )
            except (OSError, ValueError, KeyError):
                completed = 0
            if completed >= 5:
                break
            time.sleep(0.01)
        assert completed >= 5, "no checkpoint progress within 120s"
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=30.0)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30.0)

    manifest = json.loads(open(checkpoint).read())
    problems = validate_checkpoint(manifest)
    assert not problems, problems
    done = len(manifest["extra"]["checkpoint"]["completed"])
    assert 0 < done < SEEDS
    print("preempted campaign: %d/%d complete in a valid checkpoint"
          % (done, SEEDS))

    resumed = run_campaign(
        range(SEEDS), config_names=[CONFIG], jobs=1, resume=checkpoint,
    )
    assert resumed.engine.resumed == done, (
        "resume replayed %d of %d checkpointed jobs"
        % (resumed.engine.resumed, done)
    )
    assert resumed.engine.executed == SEEDS - done, (
        "resume re-executed completed jobs: %d executed, expected %d"
        % (resumed.engine.executed, SEEDS - done)
    )
    print("resume:          %s" % resumed.engine.describe())

    reference = run_campaign(range(SEEDS), config_names=[CONFIG], jobs=2)
    corpus = lambda c: sorted(  # noqa: E731
        (r.seed, r.config_name, json.dumps(w.to_dict(), sort_keys=True))
        for r in c.results for w in r.witnesses
    )
    assert corpus(resumed) == corpus(reference), \
        "resumed campaign witness corpus diverged from reference"
    print("kill/resume: witness corpus identical to uninterrupted run "
          "(%d witnesses)" % len(corpus(resumed)))


def main() -> int:
    shutil.rmtree(ARTIFACT_DIR, ignore_errors=True)
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    check_bit_identity()
    check_kill_resume()
    print("scale smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
