#!/usr/bin/env python
"""Simulator-speed benchmark runner.

Measures host wall-clock simulation throughput (kilo-cycles/sec) per
(workload, config) with the idle-cycle fast-forward on and off, and
writes the JSON (schema 3) payload consumed by the CI perf-smoke job::

    PYTHONPATH=src python benchmarks/bench_simspeed.py
    PYTHONPATH=src python benchmarks/bench_simspeed.py \\
        --quick --obs --output BENCH_simspeed.ci.json \\
        --baseline BENCH_simspeed.json

With ``--baseline``, regressions beyond 25% print WARNING lines but the
exit code stays 0 (runner wall clocks are too noisy for a hard
cross-run gate).  The hard gate is ``--obs``: metrics sampling and span
tracing must each cost under 10% wall clock, and every telemetry
variant must simulate bit-identically.  ``--profile`` dumps the slowest
row's cProfile under ``results/profiles/`` for triage; ``--windows N``
adds lockstep aggregate-throughput rows.  Unlike the ``bench_fig*``
modules this is a standalone script, not a pytest-benchmark suite: it
times the simulator itself, not the machine being simulated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.harness.simspeed import (
    DEFAULT_CONFIGS,
    DEFAULT_INSTRUCTIONS,
    DEFAULT_REPEATS,
    DEFAULT_SEED,
    DEFAULT_WORKLOADS,
    _slowest_row,
    compare_simspeed,
    profile_case,
    render_simspeed,
    run_simspeed,
)


def _profile_slowest(payload) -> str:
    """Dump a cProfile of the payload's slowest row; returns the path."""
    row = _slowest_row(payload)
    if row is None:
        return ""
    return profile_case(
        row["workload"], row["config"],
        "results/profiles/%s_%s.pstats" % (row["workload"], row["config"]),
        instructions=payload["instructions"],
        seed=payload["seed"],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", nargs="*", default=list(DEFAULT_WORKLOADS),
        metavar="NAME",
    )
    parser.add_argument(
        "--configs", nargs="*", default=list(DEFAULT_CONFIGS),
        metavar="NAME",
    )
    parser.add_argument(
        "--instructions", type=int, default=DEFAULT_INSTRUCTIONS
    )
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--output", default="BENCH_simspeed.json", metavar="FILE",
        help="where to write the JSON payload",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline payload to diff against (warn-only)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small matrix for CI smoke (mcf + ooo/strict, 2 repeats; "
             "instruction count stays comparable to the baseline)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="also measure telemetry overhead and enforce the DESIGN.md "
             "§3.5 contract (<10%% with sampling enabled)",
    )
    parser.add_argument(
        "--obs-budget", type=float, default=0.10, metavar="FRACTION",
        help="hard ceiling for the sampling-enabled overhead "
             "(default 0.10; the detached variant is bit-identity-"
             "checked but not wall-clock-gated — see --obs)",
    )
    parser.add_argument(
        "--windows", type=int, default=1, metavar="N",
        help="also measure lockstep aggregate throughput over N "
             "full runs per (workload, config)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the slowest row into results/profiles/",
    )
    parser.add_argument(
        "--history", action="store_true",
        help="append a git-SHA-stamped row to results/bench_history"
             ".jsonl and report drift vs the previous row (warn-only)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.workloads = ["mcf"]
        args.configs = ["ooo", "strict"]
        args.repeats = min(args.repeats, 2)

    payload = run_simspeed(
        workloads=args.workloads,
        configs=args.configs,
        instructions=args.instructions,
        repeats=args.repeats,
        seed=args.seed,
        verbose=True,
        obs=args.obs,
        windows=args.windows,
    )
    print()
    print(render_simspeed(payload))

    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print("wrote %s" % output)

    if args.profile:
        path = _profile_slowest(payload)
        if path:
            print("profiled slowest row to %s" % path)

    if args.obs:
        # Bit-identity for every attached variant (incl. tracing) was
        # already asserted inside measure_obs_overhead; here only the
        # wall-clock budget can still fail.
        failed = False
        for key, label in (
            ("overhead_sampling", "metrics sampling"),
            ("overhead_tracing", "span tracing"),
        ):
            overhead = payload["obs"][key]
            if overhead >= args.obs_budget:
                print(
                    "FAIL: %s costs %+.1f%% wall clock, over "
                    "the %.0f%% budget" % (
                        label, overhead * 100.0, args.obs_budget * 100.0,
                    )
                )
                failed = True
        if failed:
            return 1

    if args.baseline:
        baseline = json.loads(Path(args.baseline).read_text())
        warnings = compare_simspeed(payload, baseline)
        for line in warnings:
            print(line)
        if not warnings:
            print("no regressions vs %s" % args.baseline)

    if args.history:
        from repro.harness.simspeed import (
            HISTORY_PATH, append_history, compare_history,
        )
        for line in compare_history(payload):
            print(line)
        entry = append_history(payload)
        print("history: appended %s (%s) to %s" % (
            (entry["git_revision"] or "no-git")[:12],
            entry["recorded"], HISTORY_PATH,
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
