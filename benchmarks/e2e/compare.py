"""Compare two sets of end-to-end benchmark runs, workload by workload.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl
    python3 benchmarks/e2e/compare.py benchmarks/e2e/history.jsonl#accept-a \\
        benchmarks/e2e/history.jsonl#accept-b

A is the base (the parent commit), B the candidate.  Rows are the ones
``run.py --out`` appends; ``FILE#LABEL`` keeps only rows with that
label, and only untraced rows count.  For every workload and end-to-end
metric of BENCHMARK.json this prints each side's median and quartiles,
the share of pairs B wins (runs paired by seed; ties count for neither)
and a verdict:

* ``regression``: B's median is worse than A's by more than the bound;
* ``improved``: B wins at least nine tenths of the pairs and the medians
  differ by more than A's quartile distance;
* ``unresolved``: neither, and one side's quartile distance, as a share
  of its median, is wider than the bound, unless every B run beats
  every A run;
* ``same``: otherwise.

Operations are checked too: B may not fail a larger share of them than
A, every B run must be correct, and every seed must hash to one
``sim_digest``.  Exits 1 on any regression, failure or digest mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_rows(selector: str) -> list:
    """Untraced rows of ``FILE`` or ``FILE#LABEL``."""
    path, _, label = selector.partition("#")
    rows = [
        json.loads(line) for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    return [
        row for row in rows
        if not row.get("trace") and (not label or row.get("label") == label)
    ]


def quartiles(values):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _pairs(a_rows, b_rows):
    """Runs paired by seed; every cross pair when no seed matches."""
    by_seed = {}
    for row in b_rows:
        by_seed.setdefault(row["seed"], []).append(row)
    pairs = []
    for seed in sorted({row["seed"] for row in a_rows}):
        mine = [row for row in a_rows if row["seed"] == seed]
        pairs += list(zip(mine, by_seed.get(seed, [])))
    return pairs or [(a, b) for a in a_rows for b in b_rows]


def compare_metric(a_rows, b_rows, metric: dict) -> dict:
    name = metric["name"]
    lower = metric["better"] == "lower"

    def value(row):
        return row["metrics"][name]["value"]

    def better(b, a):
        return b < a if lower else b > a

    a_values = [value(row) for row in a_rows]
    b_values = [value(row) for row in b_rows]
    a_q1, a_med, a_q3 = quartiles(a_values)
    b_q1, b_med, b_q3 = quartiles(b_values)
    pairs = _pairs(a_rows, b_rows)
    won = sum(better(value(b), value(a)) for a, b in pairs) / len(pairs)
    worse = (b_med - a_med) / a_med if lower else (a_med - b_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    all_better = all(better(b, a) for a in a_values for b in b_values)
    bound = metric["bound"]
    if worse > bound:
        verdict = "regression"
    elif won >= 0.9 and abs(b_med - a_med) > a_q3 - a_q1 and (
        spread <= bound or all_better
    ):
        verdict = "improved"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "same"
    return {
        "metric": name, "unit": metric["unit"], "bound": bound,
        "a": (a_q1, a_med, a_q3), "b": (b_q1, b_med, b_q3),
        "won": won, "worse": worse, "spread": spread, "verdict": verdict,
    }


def _failed_ratio(rows) -> float:
    attempted = sum(r["attempted"] for r in rows)
    return sum(r["failed"] for r in rows) / max(1, attempted)


def compare(a_rows, b_rows, spec: dict):
    """Returns (per-metric results, problems); problems fail the compare."""
    results, problems = [], []
    workloads = sorted({r["workload"] for r in a_rows + b_rows})
    for workload in workloads:
        a = [r for r in a_rows if r["workload"] == workload]
        b = [r for r in b_rows if r["workload"] == workload]
        if not a or not b:
            problems.append("%s: runs on one side only" % workload)
            continue
        for metric in spec["end_to_end"]:
            result = compare_metric(a, b, metric)
            result["workload"] = workload
            results.append(result)
            if result["verdict"] == "regression":
                problems.append(
                    "%s %s: regression" % (workload, metric["name"])
                )
        if _failed_ratio(b) > _failed_ratio(a):
            problems.append("%s: failed_ratio %.4f > %.4f" % (
                workload, _failed_ratio(b), _failed_ratio(a),
            ))
        if not all(r["correct"] for r in b):
            problems.append("%s: incorrect runs in B" % workload)
        for seed in sorted({r["seed"] for r in a + b}):
            digests = {r["sim_digest"] for r in a + b if r["seed"] == seed}
            if len(digests) != 1 or None in digests:
                problems.append("%s seed %d: sim_digest mismatch %s" % (
                    workload, seed, sorted(map(str, digests)),
                ))
    return results, problems


def render(results) -> str:
    lines = ["%-12s %-12s %-28s %-28s %6s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "won", "worse", "bound", "verdict",
    )]
    for r in results:
        lines.append("%-12s %-12s %-28s %-28s %5.0f%% %+7.1f%% %5.0f%%  %s" % (
            r["workload"], r["metric"],
            "%.4g [%.4g, %.4g]" % (r["a"][1], r["a"][0], r["a"][2]),
            "%.4g [%.4g, %.4g]" % (r["b"][1], r["b"][0], r["b"][2]),
            100 * r["won"], 100 * r["worse"], 100 * r["bound"], r["verdict"],
        ))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    results, problems = compare(load_rows(argv[0]), load_rows(argv[1]), spec)
    print(render(results))
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
