"""The benchmark's five workloads, and one timed *pass* of a workload.

A pass builds one workload's inputs from the seed, calls the repo's
public pipeline functions serially (``jobs=1``, serial backend), renders
the output, checks it, and hashes every simulated result into
``sim_digest``.  ``run.py`` runs each pass in a fresh interpreter::

    python benchmarks/e2e/pipelines.py WORKLOAD SEED TRACED [TRACE_FILE]

which prints the pass as one JSON line.  A fresh process per pass keeps
passes independent: state that lives for the whole process (the
lowered-program cache in ``repro.isa.microops``) would otherwise make a
pass's cost depend on the passes run before it.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List, Optional  # noqa: E402

from repro.attacks import taxonomy  # noqa: E402
from repro.attacks.common import default_guesses  # noqa: E402
from repro.attacks.ssb import attack_guesses  # noqa: E402
from repro.config import config_registry  # noqa: E402
from repro.engine.store import ShardedDiskStore  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.fuzz import campaign as fuzz_campaign  # noqa: E402
from repro.fuzz.taint import TaintOracle  # noqa: E402
from repro.harness import (  # noqa: E402
    render_figure7,
    render_figure9a,
    render_figure9bc,
    render_figure9d,
    render_table1,
    render_table2,
    run_suite,
    table2,
)
from repro.harness.tables import render_cross_matrix  # noqa: E402

import layers  # noqa: E402

#: Per-pass result stores and Chrome traces (inside the checkout).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Secrets for which every cell of both attack matrices reproduces the
#: taxonomy's expectation (each checked cell by cell before it was listed
#: here).  Other secrets are not safe: with 113, 123, 150, 186 or 250
#: spectre_v1_btb does not leak on the insecure core, and with 14, 54,
#: 61, 77, 150 or 205 netspectre leaks under InvisiSpec-Future.
MATRIX_SECRETS = (42, 99, 27, 233, 90, 171)

#: Host-time fields of PipelineStats; excluded from ``sim_digest``.
HOST_FIELDS = ("sim_wall_seconds", "kilo_cycles_per_sec")


@dataclass
class PassContext:
    """What one pass lends its workload."""

    seed: int
    #: Fresh, empty directory for the pass's result store.
    store_dir: str
    recorder: Optional[layers.Recorder] = None

    def span(self, name: str, cat: str):
        return layers.span_of(self.recorder, name, cat)


@dataclass
class Outcome:
    """What a workload did, for accounting, checking and hashing."""

    attempted: int
    failed: int
    #: Output checks that did not hold (empty when correct).
    problems: List[str]
    #: Every simulated result, JSON-serializable, in a canonical order.
    payload: object
    #: Host seconds of each operation (job or matrix cell), in a fixed
    #: order, so passes can be compared operation by operation.
    op_seconds: List[float]
    #: Fuzz campaigns, which traced passes replay with and without the
    #: taint oracle.
    campaign: object = None
    smt: bool = False
    #: Result-derived layer metrics of fuzz campaigns.
    counts: dict = field(default_factory=lambda: {
        "fuzz.witnesses": 0, "fuzz.leaky_run_ratio": 0.0,
    })


def _stats(stats) -> dict:
    payload = stats.to_dict()
    for name in HOST_FIELDS:
        payload.pop(name, None)
    return payload


def sim_digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _job_seconds(engine) -> List[float]:
    """Per-job host seconds the engine measured, in coordinate order."""
    return [seconds for _, seconds in sorted(engine.job_seconds.items())]


def _specs(configs):
    registry = config_registry()
    names = configs if configs is not None else list(registry)
    return [registry[name] for name in names]


# ---------------------------------------------------------------------- #
# Fig. 7 / Fig. 9 / Table 2 sweep.
# ---------------------------------------------------------------------- #


def _figure_problems(suite) -> List[str]:
    """Shape checks that hold for every seed (paper Fig. 7 / Table 2)."""
    problems = []
    means = {label: suite.mean_normalized_cpi(label) for label in suite.labels}
    for label, value in means.items():
        if value < 0.95:
            problems.append("%s runs faster than OoO: %.3f" % (label, value))
    if "In-Order" in means and max(means, key=means.get) != "In-Order":
        problems.append("In-Order is not the slowest configuration")
    nda = [means[label] for label in ("Permissive", "Strict",
                                      "Full Protection") if label in means]
    if nda != sorted(nda):
        problems.append("NDA overheads out of order: %s" % nda)
    return problems


def figures(ctx: PassContext, benchmarks, samples: int, configs=None,
            warmup: int = 600, measure: int = 2_400,
            instructions: int = 4_000) -> Outcome:
    """``run_suite`` into a fresh store, then every suite figure/table."""
    specs = _specs(configs)
    attempted = len(benchmarks) * len(specs) * samples
    try:
        suite = run_suite(
            benchmarks=list(benchmarks), configs=specs, samples=samples,
            warmup=warmup, measure=measure, instructions=instructions,
            seed0=1000 * ctx.seed, jobs=1, backend="serial",
            cache=ShardedDiskStore(Path(ctx.store_dir)),
        )
    except ReproError as error:
        return Outcome(attempted, attempted, [repr(error)], None, [])
    with ctx.span("harness.render", layers.RENDER):
        text = "\n".join((
            render_figure7(suite), render_figure9a(suite),
            render_figure9bc(suite), render_figure9d(suite),
            render_table2(table2(suite)),
        ))
    with ctx.span("check.figures", layers.CHECK):
        problems = _figure_problems(suite)
        payload = {
            "windows": [
                [bench, label, [_stats(s.window)
                                for s in suite.run(bench, label).samples]]
                for bench in suite.benchmarks for label in suite.labels
            ],
            "rendered": text,
        }
    return Outcome(attempted, 0, problems, payload,
                   _job_seconds(suite.engine))


# ---------------------------------------------------------------------- #
# Table 1 security matrix and the cross-context matrix.
# ---------------------------------------------------------------------- #


def _attack_cells(infos, specs, secret: int, guesses: int):
    """Each attack's ``run`` on each configuration, as ``table1_matrix``
    and ``cross_matrix`` do, but with the pass's secret.

    Returns (rows, errors, per-cell host seconds).
    """
    rows, errors, seconds = [], [], []
    for info in infos:
        pick = attack_guesses if info.name == "ssb" else default_guesses
        guess_list = pick(secret, guesses)
        for spec in specs:
            start = time.perf_counter()
            try:
                outcome = info.module.run(
                    spec.config, secret=secret, guesses=guess_list,
                    in_order=spec.in_order,
                )
            except ReproError as error:
                errors.append(
                    "%s on %s raised %r" % (info.name, spec.label, error)
                )
                continue
            finally:
                seconds.append(time.perf_counter() - start)
            timings = getattr(outcome, "timings", None)
            rows.append({
                "attack": info.name,
                "access_class": info.access_class,
                "channel": info.channel,
                "sharing": info.sharing,
                "config": spec.label,
                "leaked": outcome.leaked,
                "expected": taxonomy.expected_leak(
                    info, spec.config, spec.in_order,
                ),
                "recovered": outcome.recovered,
                "timings": list(
                    outcome.bit_timings if timings is None else timings
                ),
                "stats": _stats(outcome.outcome.stats),
            })
    return rows, errors, seconds


def _matrix_outcome(cells, attempted, text, extra=None) -> Outcome:
    rows, errors, seconds = cells
    mismatched = [r for r in rows if r["leaked"] != r["expected"]]
    problems = errors + [
        "%s on %s: leaked=%s, expected %s" % (
            r["attack"], r["config"], r["leaked"], r["expected"],
        )
        for r in mismatched
    ]
    payload = {"cells": rows, "rendered": text}
    payload.update(extra or {})
    return Outcome(
        attempted, len(errors) + len(mismatched), problems, payload, seconds,
    )


def matrix(ctx: PassContext, guesses: int = 32, configs=None) -> Outcome:
    """Every implemented attack's ``run`` on every configuration."""
    secret = MATRIX_SECRETS[ctx.seed % len(MATRIX_SECRETS)]
    specs = _specs(configs)
    cells = _attack_cells(taxonomy.IMPLEMENTED, specs, secret, guesses)
    with ctx.span("harness.render", layers.RENDER):
        text = render_table1(cells[0]) if cells[0] else ""
    with ctx.span("check.matrix", layers.CHECK):
        return _matrix_outcome(
            cells, len(taxonomy.IMPLEMENTED) * len(specs), text,
        )


# ---------------------------------------------------------------------- #
# Fuzz campaigns.
# ---------------------------------------------------------------------- #


def _campaign_payload(campaign) -> list:
    return [
        [
            r.seed, r.config_name, r.template, r.channel, r.analog, r.cycles,
            sorted(
                [w.channel, w.seq, w.pc, w.addr, w.cycle, w.detail]
                for w in r.witnesses
            ),
        ]
        for r in sorted(
            campaign.results, key=lambda r: (r.seed, r.config_name)
        )
    ]


def _campaign_accounting(campaign):
    """(failed runs, problems, result-derived counts) of one campaign."""
    bad_runs = {(c.seed, c.config_name) for c in campaign.counterexamples}
    problems = [c.describe() for c in campaign.counterexamples]
    problems += ["%s: %s" % failure for failure in campaign.failures]
    runs = campaign.results
    counts = {
        "fuzz.witnesses": sum(len(r.witnesses) for r in runs),
        "fuzz.leaky_run_ratio": (
            sum(1 for r in runs if r.witnesses) / len(runs) if runs else 0.0
        ),
    }
    return len(bad_runs) + len(campaign.failures), problems, counts


def fuzz(ctx: PassContext, seeds: int = 40, configs=None) -> Outcome:
    """``run_campaign`` over the out-of-order configurations."""
    seed_list = range(1000 * ctx.seed, 1000 * ctx.seed + seeds)
    campaign = fuzz_campaign.run_campaign(
        seed_list, config_names=configs, jobs=1, backend="serial",
    )
    with ctx.span("harness.render", layers.RENDER):
        text = campaign.describe()
    with ctx.span("check.fuzz", layers.CHECK):
        failed, problems, counts = _campaign_accounting(campaign)
        payload = {"runs": _campaign_payload(campaign), "rendered": text}
    attempted = len(campaign.results) + len(campaign.failures)
    return Outcome(attempted, failed, problems, payload,
                   _job_seconds(campaign.engine), campaign=campaign,
                   counts=counts)


def smt(ctx: PassContext, seeds: int = 10, guesses: int = 16,
        configs=None) -> Outcome:
    """A two-context campaign plus the cross-context attack matrix."""
    seed_list = range(1000 * ctx.seed, 1000 * ctx.seed + seeds)
    campaign = fuzz_campaign.run_campaign(
        seed_list, config_names=configs, jobs=1, backend="serial", smt=True,
    )
    secret = MATRIX_SECRETS[ctx.seed % len(MATRIX_SECRETS)]
    specs = [spec for spec in _specs(configs) if not spec.in_order]
    cells = _attack_cells(taxonomy.CROSS_IMPLEMENTED, specs, secret, guesses)
    with ctx.span("harness.render", layers.RENDER):
        text = campaign.describe() + "\n" + (
            render_cross_matrix(cells[0]) if cells[0] else ""
        )
    with ctx.span("check.smt", layers.CHECK):
        failed, problems, counts = _campaign_accounting(campaign)
        matrix_part = _matrix_outcome(
            cells, len(taxonomy.CROSS_IMPLEMENTED) * len(specs), text,
            extra={"runs": _campaign_payload(campaign)},
        )
    return Outcome(
        len(campaign.results) + len(campaign.failures)
        + matrix_part.attempted,
        failed + matrix_part.failed, problems + matrix_part.problems,
        matrix_part.payload,
        _job_seconds(campaign.engine) + matrix_part.op_seconds,
        campaign=campaign, smt=True, counts=counts,
    )


#: name -> workload; sizes are chosen so one pass takes a few seconds.
WORKLOADS = {
    "figures-mem": partial(figures, benchmarks=("mcf", "lbm"), samples=1),
    "figures-ilp": partial(
        figures, benchmarks=("exchange2", "leela"), samples=1,
    ),
    "matrix": matrix,
    "fuzz": fuzz,
    "smt": smt,
}


# ---------------------------------------------------------------------- #
# One pass.
# ---------------------------------------------------------------------- #


def replay_campaign(campaign, smt_pairs: bool, recorder) -> List[str]:
    """Rerun every campaign run twice, with and without the taint oracle.

    The two replays of a run go back to back (alternating which goes
    first), so both see the same host speed; their stepping times give
    ``fuzz.oracle_overhead``.  The oracle is a pure observer: both
    replays must take the campaign's cycle count, and only the one with
    the oracle may, and must, find the campaign's witnesses.
    """
    run = fuzz_campaign.run_smt_seed if smt_pairs else fuzz_campaign.run_seed
    attach = TaintOracle.attach

    def replay(result, oracle: bool):
        if not oracle:
            TaintOracle.attach = lambda self, core: self
        try:
            with recorder.span("replay.%s" % ("oracle" if oracle else "bare"),
                               layers.REPLAY):
                return run(result.seed, result.config_name,
                           template=result.template)
        finally:
            TaintOracle.attach = attach

    problems = []
    for index, result in enumerate(campaign.results):
        order = (True, False) if index % 2 else (False, True)
        again = {oracle: replay(result, oracle) for oracle in order}
        if (again[True].cycles != result.cycles
                or again[False].cycles != result.cycles
                or again[True].witnesses != result.witnesses
                or again[False].witnesses):
            problems.append(
                "seed %d on %s: replay differs from the campaign run"
                % (result.seed, result.config_name)
            )
    return problems


def run_pass(name: str, seed: int, traced: bool,
             trace_path: Optional[str] = None, workload=None) -> dict:
    """Time one pass of workload *name* in this process."""
    workload = workload or WORKLOADS[name]
    recorder = layers.Recorder().install() if traced else None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as store_dir:
            ctx = PassContext(seed, store_dir, recorder)
            config_registry()
            t_start = time.monotonic()
            wall_start = time.perf_counter()
            with ctx.span("pipeline", layers.PIPELINE):
                outcome = workload(ctx)
                with ctx.span("check.digest", layers.CHECK):
                    digest = sim_digest(outcome.payload)
            wall_s = time.perf_counter() - wall_start
        problems = list(outcome.problems)
        result = {
            "workload": name,
            "seed": seed,
            "traced": traced,
            "t_start": t_start,
            "wall_s": wall_s,
            "op_s": outcome.op_seconds,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "sim_digest": digest,
        }
        if recorder is not None:
            if outcome.campaign is not None:
                problems += replay_campaign(
                    outcome.campaign, outcome.smt, recorder,
                )
            metrics = layers.layer_metrics(recorder.spans, wall_s)
            metrics.update(outcome.counts)
            result["layers"] = metrics
            if trace_path:
                recorder.write_chrome_trace(trace_path, metadata={
                    "workload": name, "seed": seed, "wall_s": wall_s,
                })
    finally:
        if recorder is not None:
            recorder.uninstall()
    result["problems"] = problems
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    return result


def main(argv: List[str]) -> int:
    name, seed, traced = argv[1], int(argv[2]), argv[3] == "1"
    trace_path = argv[4] if len(argv) > 4 else None
    import_s = time.perf_counter() - _IMPORT_START
    result = run_pass(name, seed, traced, trace_path)
    result["import_s"] = import_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
