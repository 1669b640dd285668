"""End-to-end benchmark: time the paper's pipelines from outside.

    python3 benchmarks/e2e/run.py --workload matrix --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 3 --trace --out benchmarks/e2e/history.jsonl

A run of one workload is a series of identical *passes*, each a fresh
interpreter running ``pipelines.py``: as many as fill ``--seconds`` on
the reference host, and at least three (with ``--trace``, as many
untraced-then-traced pairs, at least two).  For each workload the last
line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` from the untraced passes, or its per-layer metrics
from the traced ones.  Progress goes to stderr.  ``--out FILE`` also
appends the run as one row to a JSONL history.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PASS_SCRIPT = HERE / "pipelines.py"

#: Seconds one pass takes, launch to exit, on the reference host (2 vCPU
#: x86-64, Python 3.11).  The pass count of a run is fixed from these, so
#: that every run of a workload takes the same number of passes.
PASS_SECONDS = {
    "figures-mem": 3.4, "figures-ilp": 2.9, "matrix": 6.6, "fuzz": 4.6,
    "smt": 8.2,
}
#: A traced pass also replays fuzz runs, with and without the oracle.
TRACED_PASS_FACTOR = 1.5
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
#: No pass starts that is expected to end later than this after the
#: run started, whatever the pass count says.
HARD_CAP_S = 150.0
PASS_TIMEOUT_S = 120.0


class PassError(RuntimeError):
    """A pass process failed or printed no result."""


def launch(workload: str, seed: int, traced: bool,
           trace_path: str = "") -> dict:
    """Run one pass in a fresh interpreter; returns its result."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE_DIR", None)  # the program's own tracer stays off
    paths = [str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    )
    env["PYTHONPATH"] = os.pathsep.join(paths)
    command = [sys.executable, str(PASS_SCRIPT), workload, str(seed),
               "1" if traced else "0"] + ([trace_path] if trace_path else [])
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise PassError("%s pass timed out after %.0f s"
                        % (workload, error.timeout)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError("%s pass exited %d:\n%s" % (
            workload, proc.returncode, proc.stderr[-2000:],
        ))
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_start"] - launched
    return result


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes (or untraced/traced pairs) that fill *seconds*."""
    if trace:
        pair = PASS_SECONDS[workload] * (1 + TRACED_PASS_FACTOR)
        return max(MIN_TRACED_PAIRS, round(seconds / pair))
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """The run's passes (fewer if the hard cap would be hit)."""
    started = time.monotonic()
    durations, passes = [], []
    trace_path = str(HERE / "out" / ("%s-seed%d.trace.json"
                                     % (workload, seed)))
    for _ in range(pass_count(workload, seconds, trace)):
        now = time.monotonic()
        if durations and now - started + max(durations) > HARD_CAP_S:
            break
        passes.append(launch(workload, seed, False))
        if trace:
            passes.append(launch(workload, seed, True, trace_path))
        durations.append(time.monotonic() - now)
        print("  %s seed %d: %s" % (workload, seed, " ".join(
            "%s%.2fs" % ("T" if p["traced"] else "", p["wall_s"])
            for p in passes
        )), file=sys.stderr)
    return passes


# Timing under interference.  On a shared host, other tenants slow this
# one down by up to 1.7x for seconds at a time, and only ever add time.
# Every pass of a run does identical work, so each piece of it is taken
# at its fastest over the run's passes: each operation (engine job or
# matrix cell) separately, plus the rest of the pipeline call.


def pipeline_seconds(passes) -> float:
    """Pipeline seconds with every operation at its fastest pass."""
    rest = min(p["wall_s"] - sum(p["op_s"]) for p in passes)
    per_op = zip(*(p["op_s"] for p in passes))
    return rest + sum(min(times) for times in per_op)


def summarize(passes, spec: dict, trace: bool) -> dict:
    """The run's result object, plus its problems and digest."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = [problem for p in passes for problem in p["problems"]]
    digests = sorted({p["sim_digest"] for p in passes})
    if len(digests) > 1:
        problems.append("sim_digest differs between passes: %s" % digests)

    if trace:
        values = dict(min(traced, key=lambda p: p["wall_s"])["layers"])
        values["setup.import_s"] = min(p["import_s"] for p in passes)
        values["trace_overhead"] = (
            pipeline_seconds(traced) / pipeline_seconds(plain) - 1.0
        )
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": pipeline_seconds(plain),
            "setup_s": min(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
        wanted = spec["end_to_end"]
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
        "problems": problems,
        "sim_digest": digests[0] if len(digests) == 1 else None,
        "passes": len(passes),
    }


def history_row(summary: dict, args, workload: str) -> dict:
    from repro.obs.manifest import git_revision

    return {
        "schema": 1,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_revision(),
        "label": args.label,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "passes": summary["passes"],
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "sim_digest": summary["sim_digest"],
        "metrics": summary["metrics"],
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
    }


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="append one row per workload here")
    parser.add_argument("--label", default="",
                        help="tag for --out rows (compare.py FILE#LABEL)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no repro package under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    all_correct = True
    for workload in args.workload:
        try:
            passes = run_passes(workload, args.seed, args.seconds,
                                bool(args.trace))
        except PassError as error:
            print("error: %s" % error, file=sys.stderr)
            return 1
        summary = summarize(passes, spec, bool(args.trace))
        for problem in summary["problems"][:20]:
            print("  PROBLEM %s: %s" % (workload, problem), file=sys.stderr)
        all_correct &= summary["correct"]
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(
                    history_row(summary, args, workload), sort_keys=True,
                ) + "\n")
        print("%s: %d passes, sim_digest %s" % (
            workload, summary["passes"], summary["sim_digest"],
        ), file=sys.stderr)
        print(json.dumps({
            key: summary[key]
            for key in ("correct", "attempted", "failed", "metrics")
        }), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
