#!/usr/bin/env python
"""CI smoke for job placement (``make scale-smoke``).

One tiny sweep, two ways, one answer: run the same job set with
``jobs=1`` (in this process) and ``jobs=2`` (on the fork pool) and
require every measurement window of the pool run to be byte-identical
to the serial reference.

Resuming a killed campaign from the result store is checked by
``tests/test_checkpoint.py::TestPreemptedCampaign`` in the tier-1 suite.
"""

import sys

from repro.config import ConfigSpec, NDAPolicyName, baseline_ooo, nda_config
from repro.engine import expand_jobs, run_jobs


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
    reference, failures, serial_stats = run_jobs(jobs, jobs=1)
    assert not failures, failures
    print("jobs=1:          %s" % serial_stats.describe())

    results, failures, stats = run_jobs(jobs, jobs=2)
    assert not failures, failures
    print("jobs=2:          %s" % stats.describe())
    assert stats.workers == 2, "jobs=2 did not run on the pool"
    assert not stats.degraded, "the pool degraded to serial"
    got, want = windows(results), windows(reference)
    diff = [coords for coords in want if got[coords] != want[coords]]
    assert not diff, "the pool diverged from serial on %s" % diff
    print("bit-identity: jobs=2 matches the jobs=1 reference")


def main() -> int:
    check_bit_identity()
    print("scale smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
