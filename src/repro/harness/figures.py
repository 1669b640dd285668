"""Regeneration of every figure in the paper's evaluation (Figs. 4, 7, 8, 9).

Each ``figureN`` function returns plain data (dicts/lists) and has a
``render_figureN`` companion producing the text form the benchmark harness
prints and EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.attacks import spectre_btb, spectre_v1
from repro.attacks.common import AttackOutcome
from repro.config import (
    ConfigSpec,
    NDAPolicyName,
    SimConfig,
    baseline_ooo,
    nda_config,
    with_nda_delay,
)
from repro.harness.experiment import (
    IN_ORDER_LABEL,
    SuiteResult,
    run_suite,
)
from repro.stats.counters import CycleClass
from repro.stats.report import render_table
from repro.workloads.profiles import DEFAULT_SUITE

# ---------------------------------------------------------------------- #
# Fig. 4 — Spectre v1 via cache and BTB on the insecure OoO baseline.
# ---------------------------------------------------------------------- #


def figure4(
    secret: int = 42,
    guesses: Optional[List[int]] = None,
    config: Optional[SimConfig] = None,
) -> Dict[str, AttackOutcome]:
    """Cycles-per-guess curves for both covert channels (insecure OoO)."""
    config = config or baseline_ooo()
    guesses = guesses if guesses is not None else list(range(256))
    return {
        "cache": spectre_v1.run(config, secret=secret, guesses=guesses),
        "btb": spectre_btb.run(config, secret=secret, guesses=guesses),
    }


def render_figure4(data: Dict[str, AttackOutcome], name: str = "Figure 4"):
    lines = ["%s: Spectre v1 guess timings (config: %s)"
             % (name, data["cache"].config_label)]
    for channel, outcome in data.items():
        lines.append(
            "  %-5s secret=%d recovered=%d leaked=%s margin=%.0f cycles"
            % (channel, outcome.secret, outcome.recovered, outcome.leaked,
               outcome.margin)
        )
        hot = [
            (g, t) for g, t in zip(outcome.guesses, outcome.timings)
            if t <= min(outcome.timings) + 2
        ]
        lines.append("        fastest guesses: %s" % hot[:4])
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Fig. 8 — the same attacks under NDA permissive propagation.
# ---------------------------------------------------------------------- #


def figure8(
    secret: int = 42, guesses: Optional[List[int]] = None
) -> Dict[str, AttackOutcome]:
    """Fig. 4 repeated with NDA permissive: the signal must vanish."""
    return figure4(
        secret=secret,
        guesses=guesses,
        config=nda_config(NDAPolicyName.PERMISSIVE),
    )


def render_figure8(data: Dict[str, AttackOutcome]) -> str:
    return render_figure4(data, name="Figure 8")


# ---------------------------------------------------------------------- #
# Fig. 7 — CPI normalized to OoO for all ten configurations.
# ---------------------------------------------------------------------- #


def figure7(suite: SuiteResult) -> List[dict]:
    """Rows of {benchmark, config, normalized CPI, 95% CI}."""
    rows = []
    for bench in suite.benchmarks:
        for label in suite.labels:
            rows.append({
                "benchmark": bench,
                "config": label,
                "norm_cpi": suite.normalized_cpi(bench, label),
                "ci95": suite.normalized_ci(bench, label),
            })
    return rows


def render_figure7(suite: SuiteResult) -> str:
    headers = ["benchmark"] + list(suite.labels)
    rows = []
    for bench in suite.benchmarks:
        row = [bench]
        for label in suite.labels:
            row.append(
                "%.2f+/-%.2f" % (
                    suite.normalized_cpi(bench, label),
                    suite.normalized_ci(bench, label),
                )
            )
        rows.append(row)
    mean_row = ["MEAN"]
    for label in suite.labels:
        mean_row.append("%.2f" % suite.mean_normalized_cpi(label))
    rows.append(mean_row)
    return render_table(
        headers, rows,
        title="Figure 7: CPI normalized to OoO (95% CI half-widths)",
    )


# ---------------------------------------------------------------------- #
# Fig. 9a — cycle breakdown.
# ---------------------------------------------------------------------- #


def figure9a(suite: SuiteResult) -> Dict[str, Dict[str, float]]:
    """Per-config cycle-class totals, normalized to baseline OoO cycles."""
    return {
        label: suite.breakdown(label)
        for label in suite.labels
        if label != IN_ORDER_LABEL
    }


def render_figure9a(suite: SuiteResult) -> str:
    data = figure9a(suite)
    headers = ["config"] + list(CycleClass.ALL) + ["total"]
    rows = []
    for label, breakdown in data.items():
        row = [label]
        for name in CycleClass.ALL:
            row.append("%.2f" % breakdown.get(name, 0.0))
        row.append("%.2f" % sum(breakdown.values()))
        rows.append(row)
    return render_table(
        headers, rows,
        title="Figure 9a: cycle breakdown (normalized to OoO cycles)",
    )


# ---------------------------------------------------------------------- #
# Fig. 9b/9c — MLP and ILP.
# ---------------------------------------------------------------------- #


def figure9b(suite: SuiteResult) -> Dict[str, float]:
    """Geometric-mean MLP per configuration."""
    return {label: suite.geomean_metric(label, "mlp")
            for label in suite.labels}


def figure9c(suite: SuiteResult) -> Dict[str, float]:
    """Geometric-mean ILP per configuration."""
    return {label: suite.geomean_metric(label, "ilp")
            for label in suite.labels}


def render_figure9bc(suite: SuiteResult) -> str:
    mlp = figure9b(suite)
    ilp = figure9c(suite)
    rows = [
        (label, "%.2f" % mlp[label], "%.2f" % ilp[label])
        for label in suite.labels
    ]
    return render_table(
        ("config", "MLP", "ILP"), rows,
        title="Figure 9b/9c: memory- and instruction-level parallelism",
    )


# ---------------------------------------------------------------------- #
# Fig. 9d — dispatch-to-issue latency.
# ---------------------------------------------------------------------- #


def figure9d(suite: SuiteResult) -> Dict[str, float]:
    """Mean dispatch-to-issue latency per configuration (cycles)."""
    return {
        label: suite.mean_metric(label, "mean_dispatch_to_issue")
        for label in suite.labels
        if label != IN_ORDER_LABEL
    }


def render_figure9d(suite: SuiteResult) -> str:
    data = figure9d(suite)
    rows = [(label, "%.1f" % value) for label, value in data.items()]
    text = render_table(
        ("config", "dispatch-to-issue (cycles)"), rows,
        title="Figure 9d: latency from dispatch to issue (means)",
    )
    # Distribution detail: bucketed latency histogram per configuration.
    buckets = set()
    histograms = {}
    for label in suite.labels:
        if label == IN_ORDER_LABEL:
            continue
        merged: Dict[int, int] = {}
        for bench in suite.benchmarks:
            agg = suite.run(bench, label).aggregate()
            for key, count in agg.dispatch_to_issue_hist.items():
                merged[key] = merged.get(key, 0) + count
        histograms[label] = merged
        buckets |= set(merged)
    ordered = sorted(buckets)
    headers = ["config"] + ["<%d" % (2 * b) if b else "0-1" for b in ordered]
    hist_rows = []
    for label, merged in histograms.items():
        total = sum(merged.values()) or 1
        hist_rows.append(
            [label] + ["%.0f%%" % (100 * merged.get(b, 0) / total)
                       for b in ordered]
        )
    text += "\n\n" + render_table(
        headers, hist_rows,
        title="Figure 9d detail: dispatch-to-issue latency distribution",
    )
    return text


# ---------------------------------------------------------------------- #
# Fig. 9e — sensitivity to NDA broadcast-logic latency.
# ---------------------------------------------------------------------- #


def figure9e(
    benchmarks: Sequence[str] = DEFAULT_SUITE,
    delays: Sequence[int] = (0, 1, 2),
    samples: int = 2,
    warmup: int = 2_000,
    measure: int = 6_000,
    instructions: int = 12_000,
    jobs: Optional[int] = None,
    cache=False,
    checkpoint=None,
    resume=None,
) -> Dict[str, float]:
    """Permissive-policy CPI (normalized to OoO) vs. extra wake-up delay.

    ``jobs``/``checkpoint``/``resume`` pass straight through to the
    engine (see :func:`repro.harness.experiment.run_suite`), so the
    delay sweep runs on a process pool and survives preemption like any
    other campaign.
    """
    specs = [ConfigSpec("OoO", baseline_ooo())]
    for delay in delays:
        config = with_nda_delay(nda_config(NDAPolicyName.PERMISSIVE), delay)
        specs.append(
            ConfigSpec("Permissive, %d cycle delay" % delay, config)
        )
    suite = run_suite(
        benchmarks=benchmarks,
        configs=specs,
        samples=samples,
        warmup=warmup,
        measure=measure,
        instructions=instructions,
        jobs=jobs,
        cache=cache,
        checkpoint=checkpoint,
        resume=resume,
    )
    return {
        label: suite.mean_normalized_cpi(label)
        for label in suite.labels
        if label != "OoO"
    }


def render_figure9e(data: Dict[str, float]) -> str:
    rows = [(label, "%.3f" % value) for label, value in data.items()]
    return render_table(
        ("config", "normalized CPI"), rows,
        title="Figure 9e: impact of NDA logic latency on CPI",
    )
