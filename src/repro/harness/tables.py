"""Regeneration of the paper's tables (Tables 1, 2, 3)."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.attacks.taxonomy import IMPLEMENTED, expected_leak
from repro.config import ConfigSpec, SimConfig, baseline_ooo
from repro.harness.experiment import (
    BASELINE_LABEL,
    SuiteResult,
    figure7_config_specs,
)
from repro.stats.report import render_table


# ---------------------------------------------------------------------- #
# Table 1 — the attack taxonomy, measured live.
# ---------------------------------------------------------------------- #


def table1_matrix(
    configs: Optional[Sequence[ConfigSpec]] = None,
    guesses: int = 32,
) -> List[dict]:
    """Run every implemented attack on every configuration.

    Returns rows of {attack, access_class, channel, config, leaked,
    expected} — the live counterpart of Tables 1 and 2's security columns.
    """
    from repro.attacks.common import default_guesses
    from repro.attacks.ssb import attack_guesses

    specs = (
        [ConfigSpec.coerce(spec) for spec in configs]
        if configs is not None else figure7_config_specs()
    )
    rows = []
    for info in IMPLEMENTED:
        if info.name == "ssb":
            guess_list = attack_guesses(42, guesses)
        else:
            guess_list = default_guesses(42, guesses)
        for spec in specs:
            outcome = info.module.run(
                spec.config, guesses=guess_list, in_order=spec.in_order
            )
            rows.append({
                "attack": info.name,
                "access_class": info.access_class,
                "channel": info.channel,
                "config": spec.label,
                "leaked": outcome.leaked,
                "expected": expected_leak(info, spec.config, spec.in_order),
            })
    return rows


def _render_matrix(rows: List[dict], tag: str, field: str,
                   title: str) -> str:
    """One row per attack, one column per config: LEAK or safe, with
    ``!?`` where the outcome diverges from the expectation.  The attack
    column shows *field* of the attack's first row, cut to 7 characters
    (the access class; sharing names are shorter), under the heading
    ``attack (<tag>/channel)``."""
    configs = list(dict.fromkeys(row["config"] for row in rows))
    attacks = list(dict.fromkeys(row["attack"] for row in rows))
    cell = {(r["attack"], r["config"]): r for r in rows}
    headers = ["attack (%s/channel)" % tag] + configs
    table_rows = []
    for attack in attacks:
        sample = next(r for r in rows if r["attack"] == attack)
        row = ["%s (%s/%s)" % (attack, sample[field][:7],
                               sample["channel"])]
        for config in configs:
            entry = cell[(attack, config)]
            mark = "LEAK" if entry["leaked"] else "safe"
            if entry["leaked"] != entry["expected"]:
                mark += "!?"
            row.append(mark)
        table_rows.append(row)
    return render_table(headers, table_rows, title=title)


def render_table1(rows: List[dict]) -> str:
    return _render_matrix(
        rows, "class", "access_class",
        title="Table 1/2 security matrix (LEAK = secret recovered; "
              "'!?' marks divergence from the paper's expectation)",
    )


# ---------------------------------------------------------------------- #
# Cross-context security matrix (repro.smt co-residency channels).
# ---------------------------------------------------------------------- #


def cross_matrix(
    configs: Optional[Sequence[ConfigSpec]] = None,
    guesses: int = 16,
) -> List[dict]:
    """Run every cross-context attack pair on every OoO configuration.

    Same row shape as :func:`table1_matrix`.  In-order specs are skipped:
    the co-residency model runs pairs of OoO contexts only.
    """
    from repro.attacks.common import default_guesses
    from repro.attacks.taxonomy import CROSS_IMPLEMENTED

    specs = (
        [ConfigSpec.coerce(spec) for spec in configs]
        if configs is not None else figure7_config_specs()
    )
    rows = []
    for info in CROSS_IMPLEMENTED:
        guess_list = default_guesses(42, guesses)
        for spec in specs:
            if spec.in_order:
                continue
            outcome = info.module.run(spec.config, guesses=guess_list)
            rows.append({
                "attack": info.name,
                "access_class": info.access_class,
                "channel": info.channel,
                "sharing": info.sharing,
                "config": spec.label,
                "leaked": outcome.leaked,
                "expected": expected_leak(info, spec.config),
            })
    return rows


def render_cross_matrix(rows: List[dict]) -> str:
    return _render_matrix(
        rows, "sharing", "sharing",
        title="Cross-context security matrix (two co-resident contexts; "
              "'!?' marks divergence from the expected claim)",
    )


# ---------------------------------------------------------------------- #
# Table 2 — policies, protections, and overheads.
# ---------------------------------------------------------------------- #

_PAPER_OVERHEADS = {
    "Permissive": 10.7,
    "Permissive+BR": 22.3,
    "Strict": 36.1,
    "Strict+BR": 45.0,
    "Restricted Loads": 100.0,
    "Full Protection": 125.0,
    "InvisiSpec-Spectre": 7.6,
    "InvisiSpec-Future": 32.7,
}


def table2(suite: SuiteResult) -> List[dict]:
    """Overhead vs. OoO per mechanism, with the paper's numbers alongside."""
    rows = []
    for label in suite.labels:
        if label in (BASELINE_LABEL,):
            continue
        row = {
            "mechanism": label,
            "overhead_pct": suite.overhead_pct(label),
            "paper_pct": _PAPER_OVERHEADS.get(label),
            "speedup_vs_inorder": suite.speedup_over_inorder(label),
            "gap_closed_pct": suite.gap_closed_pct(label),
        }
        rows.append(row)
    return rows


def render_table2(rows: List[dict]) -> str:
    table_rows = []
    for row in rows:
        paper = row["paper_pct"]
        table_rows.append((
            row["mechanism"],
            "%.1f%%" % row["overhead_pct"],
            ("%.1f%%" % paper) if paper is not None else "-",
            "%.2fx" % row["speedup_vs_inorder"],
            "%.0f%%" % row["gap_closed_pct"],
        ))
    return render_table(
        ("mechanism", "overhead", "paper", "vs In-Order", "gap closed"),
        table_rows,
        title="Table 2: slowdown vs. insecure OoO "
              "(measured vs. paper; gap closed = share of the In-Order/OoO "
              "gap recovered)",
    )


# ---------------------------------------------------------------------- #
# Table 3 — the simulated machine.
# ---------------------------------------------------------------------- #


def table3(config: Optional[SimConfig] = None) -> List[Tuple[str, str]]:
    config = config or baseline_ooo()
    core = config.core
    mem = config.mem
    return [
        ("Architecture", "micro-op RISC at 2.0 GHz (cycle-level model)"),
        ("Core (OoO)",
         "%d-issue, %d LQ, %d SQ, %d ROB, %d BTB, %d RAS"
         % (core.issue_width, core.lq_entries, core.sq_entries,
            core.rob_entries, core.btb_entries, core.ras_entries)),
        ("Core (in-order)", "serial timing core (TimingSimpleCPU analog)"),
        ("L1-I/L1-D",
         "%dkB, %dB line, %d-way, %d-cycle RT, %d port"
         % (mem.l1d.size_bytes // 1024, mem.l1d.line_bytes, mem.l1d.assoc,
            mem.l1d.round_trip_cycles, mem.l1d.ports)),
        ("L2",
         "%dMB, %dB line, %d-way, %d-cycle RT"
         % (mem.l2.size_bytes // (1024 * 1024), mem.l2.line_bytes,
            mem.l2.assoc, mem.l2.round_trip_cycles)),
        ("DRAM", "%d-cycle response (50 ns at 2 GHz)" % mem.dram_cycles),
    ]


def render_table3(config: Optional[SimConfig] = None) -> str:
    rows = table3(config)
    return render_table(
        ("Parameter", "Value"), rows, title="Table 3: simulated machine"
    )
