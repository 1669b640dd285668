"""``nda-repro`` command-line front-end.

Subcommands::

    nda-repro table3                 # print the simulated machine
    nda-repro attack spectre_v1 --config permissive
    nda-repro matrix                 # full security matrix (Tables 1/2)
    nda-repro matrix --configs ooo strict fence-on-branch   # subset
    nda-repro bench --benchmarks mcf leela --samples 2 --jobs 4
    nda-repro run mcf --config strict --stats
    nda-repro figure 4|7|8|9a|9b|9c|9d|9e
    nda-repro config ooo             # describe one configuration
    nda-repro config list            # registered schemes + named configs
    nda-repro cache info|clear       # inspect/drop the result cache
    nda-repro cache gc --older-than 14      # prune stale cache entries
    nda-repro fuzz run --seeds 200 --jobs 8   # differential leak fuzzing
    nda-repro fuzz run --seeds 5000 --cache-dir D   # resumable campaign
    nda-repro fuzz replay 7 --config strict   # one seed on one config
    nda-repro fuzz minimize 7 --output w.json # ddmin to a reproducer
    nda-repro obs trace spectre_v1 --config strict   # Perfetto export

Sweeps (``bench``/``figure``) run on the parallel suite engine and cache
windows under ``results/.cache/``; use ``--jobs N`` to size the worker
pool (``--jobs 1`` runs every job in this process) and ``--no-cache``
to force re-simulation.  A killed sweep resumes by being rerun: every
window stored before the kill is served from the cache, and a fuzz
campaign given ``--cache-dir DIR`` resumes the same way (see DESIGN.md
§3.6).  With ``REPRO_TRACE_DIR=D`` set, a traced command writes its
spans as one Perfetto trace, ``D/cli.<command>-<pid>.json``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.attacks.taxonomy import CROSS_IMPLEMENTED, IMPLEMENTED
from repro.config import config_registry
from repro.engine.store import ShardedDiskStore
from repro.harness import (
    render_figure4,
    render_figure7,
    render_figure8,
    render_figure9a,
    render_figure9bc,
    render_figure9d,
    render_figure9e,
    render_table1,
    render_table2,
    render_table3,
    run_suite,
    table1_matrix,
    table2,
)
from repro.harness.figures import figure4, figure8, figure9e
from repro.workloads.profiles import DEFAULT_SUITE, PROFILES

_CONFIG_NAMES = sorted(config_registry())


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep (default: cpu count)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache location (default: results/.cache, "
             "or $REPRO_CACHE_DIR)",
    )


def _engine_kwargs(args) -> dict:
    return {
        "jobs": args.jobs,
        "cache": None if args.no_cache else ShardedDiskStore(args.cache_dir),
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nda-repro",
        description="NDA (MICRO 2019) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table3", help="print the simulated machine description")

    attack = sub.add_parser("attack", help="run one attack PoC")
    attack.add_argument(
        "name",
        choices=sorted(
            {info.name for info in IMPLEMENTED}
            | {info.name for info in CROSS_IMPLEMENTED}
        ),
    )
    attack.add_argument(
        "--config", default="ooo", choices=_CONFIG_NAMES
    )
    attack.add_argument("--secret", type=int, default=42)
    attack.add_argument("--guesses", type=int, default=64)
    attack.add_argument(
        "--json", action="store_true",
        help="print a repro.result/v1 attack envelope instead of text",
    )

    matrix = sub.add_parser(
        "matrix", help="run every attack on every configuration"
    )
    matrix.add_argument("--guesses", type=int, default=32)
    matrix.add_argument(
        "--configs", nargs="*", default=None, choices=_CONFIG_NAMES,
        metavar="NAME",
        help="restrict the matrix to these configurations "
             "(default: every registered one)",
    )
    matrix.add_argument(
        "--cross", action="store_true",
        help="run the two-context cross-context matrix instead "
             "(repro.smt co-residency attacks; in-order configs skipped)",
    )

    bench = sub.add_parser("bench", help="performance sweep (Fig 7/Table 2)")
    bench.add_argument(
        "--benchmarks", nargs="*", default=list(DEFAULT_SUITE),
        choices=sorted(PROFILES),
    )
    bench.add_argument("--samples", type=int, default=3)
    bench.add_argument("--warmup", type=int, default=2000)
    bench.add_argument("--measure", type=int, default=8000)
    _add_engine_args(bench)

    run_cmd = sub.add_parser(
        "run", help="run one generated workload to completion"
    )
    run_cmd.add_argument("benchmark", choices=sorted(PROFILES))
    run_cmd.add_argument("--config", default="ooo", choices=_CONFIG_NAMES)
    run_cmd.add_argument("--instructions", type=int, default=3000)
    run_cmd.add_argument("--seed", type=int, default=0)
    run_cmd.add_argument(
        "--stats", action="store_true",
        help="print the full counter summary (incl. simulator speed)",
    )
    run_cmd.add_argument(
        "--no-fast-forward", action="store_true",
        help="disable the bit-identical idle-cycle fast-forward",
    )
    run_cmd.add_argument(
        "--json", action="store_true",
        help="print a repro.result/v1 run envelope instead of text",
    )

    config_cmd = sub.add_parser(
        "config", help="describe one named configuration, or list them all"
    )
    config_cmd.add_argument("name", choices=["list"] + _CONFIG_NAMES)

    cache_cmd = sub.add_parser(
        "cache", help="inspect, clear, or garbage-collect the result cache"
    )
    cache_cmd.add_argument("action", choices=["info", "clear", "gc"])
    cache_cmd.add_argument("--cache-dir", default=None, metavar="DIR")
    cache_cmd.add_argument(
        "--older-than", type=float, default=None, metavar="DAYS",
        help="gc: drop entries last touched more than DAYS "
             "days ago (required for gc)",
    )

    trace = sub.add_parser(
        "trace", help="pipeline trace of a micro-kernel (ASCII chart)"
    )
    trace.add_argument("kernel", choices=sorted(
        __import__("repro.workloads.kernels", fromlist=["ALL_KERNELS"])
        .ALL_KERNELS
    ))
    trace.add_argument("--config", default="ooo", choices=_CONFIG_NAMES)
    trace.add_argument("--instructions", type=int, default=60)
    trace.add_argument("--width", type=int, default=80)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument(
        "which", choices=["4", "7", "8", "9a", "9b", "9c", "9d", "9e"]
    )
    figure.add_argument("--benchmarks", nargs="*", default=None)
    figure.add_argument("--samples", type=int, default=3)
    _add_engine_args(figure)

    fuzz = sub.add_parser(
        "fuzz", help="differential speculative-leak fuzzing"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run", help="run a differential campaign (seeds x configs)"
    )
    fuzz_run.add_argument("--seeds", type=int, default=50, metavar="N",
                          help="number of fuzz seeds (default: 50)")
    fuzz_run.add_argument("--seed0", type=int, default=0, metavar="S",
                          help="first seed (default: 0)")
    fuzz_run.add_argument(
        "--configs", nargs="*", default=None, choices=_CONFIG_NAMES,
        metavar="NAME",
        help="restrict the campaign to these configurations "
             "(default: every out-of-order one)",
    )
    fuzz_run.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: cpu count)",
    )
    fuzz_run.add_argument("--max-cycles", type=int, default=400_000)
    fuzz_run.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="store every run in this result store and serve runs it "
             "already holds, so a killed campaign resumes when rerun "
             "(default: store nothing)",
    )
    fuzz_run.add_argument(
        "--smt", action="store_true",
        help="fuzz paired two-context programs on the co-residency "
             "model (cross-context channels)",
    )

    fuzz_replay = fuzz_sub.add_parser(
        "replay", help="re-run one seed or corpus file on one config"
    )
    fuzz_replay.add_argument(
        "what", metavar="SEED|FILE",
        help="a fuzz seed number, or a witness corpus JSON file",
    )
    fuzz_replay.add_argument(
        "--config", default="ooo", choices=_CONFIG_NAMES
    )

    fuzz_min = fuzz_sub.add_parser(
        "minimize", help="ddmin a leaking seed to a minimal reproducer"
    )
    fuzz_min.add_argument("seed", type=int)
    fuzz_min.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the minimized witness as a corpus JSON file",
    )
    fuzz_min.add_argument(
        "--blocked-under", nargs="*", default=["full-protection"],
        choices=_CONFIG_NAMES, metavar="NAME",
        help="configs the minimized program must NOT leak under",
    )
    fuzz_min.add_argument("--max-tests", type=int, default=400)

    obs = sub.add_parser("obs", help="telemetry: Perfetto traces")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    obs_trace = obs_sub.add_parser(
        "trace",
        help="run one target under the event bus and export a "
             "Chrome/Perfetto trace (open at ui.perfetto.dev)",
    )
    obs_trace.add_argument(
        "target", metavar="TARGET",
        help="an attack name (e.g. spectre_v1), a micro-kernel or a "
             "workload profile",
    )
    obs_trace.add_argument(
        "--config", default="strict", choices=_CONFIG_NAMES,
        help="configuration to trace under (default: strict, which "
             "shows NDA defer gaps)",
    )
    obs_trace.add_argument("--instructions", type=int, default=2000,
                           help="length of kernel/workload targets")
    obs_trace.add_argument("--seed", type=int, default=0)
    obs_trace.add_argument("--limit", type=int, default=20_000,
                           help="max traced instructions")
    obs_trace.add_argument("--sample-interval", type=int, default=200,
                           metavar="CYCLES",
                           help="metrics sampling period (counter tracks)")
    obs_trace.add_argument(
        "--output", default=None, metavar="FILE",
        help="trace path (default results/traces/<target>-<config>.json)",
    )

    return parser


#: Commands that get a root trace span when REPRO_TRACE_DIR is set —
#: the entry points named by DESIGN.md §3.9's span taxonomy.
_TRACED_COMMANDS = frozenset({
    "run", "attack", "matrix", "bench", "figure", "fuzz",
})


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro.obs.spans import maybe_tracer
    if args.command not in _TRACED_COMMANDS:
        return _run_command(args)
    tracer = maybe_tracer()
    if tracer is None:
        return _run_command(args)
    with tracer.span(
        "cli." + args.command,
        attrs={"argv": " ".join(argv if argv is not None else sys.argv[1:])},
    ) as span:
        code = _run_command(args)
        span.attrs["exit_code"] = code
        return code


def _input_error(problem) -> int:
    """Reject a file that cannot be used: one ``error:`` line, exit 2."""
    print("error: %s" % problem, file=sys.stderr)
    return 2


def _run_command(args) -> int:
    if args.command == "table3":
        print(render_table3())
        return 0

    if args.command == "config":
        if args.name == "list":
            from repro.schemes import describe_schemes
            print(describe_schemes())
            print()
            print("Named configurations (nda-repro config <name>):")
            for name, spec in config_registry().items():
                core = "in-order" if spec.in_order else "out-of-order"
                print("  %-20s %-20s (%s)" % (name, spec.label, core))
            return 0
        spec = config_registry()[args.name]
        print(spec.config.describe())
        if spec.in_order:
            print("  core class: in-order (TimingSimpleCPU analog)")
        return 0

    if args.command == "cache":
        cache = ShardedDiskStore(args.cache_dir)
        if args.action == "clear":
            removed = cache.clear()
            print("removed %d entries from %s" % (removed, cache.root))
        elif args.action == "gc":
            if args.older_than is None:
                print("cache gc requires --older-than DAYS", file=sys.stderr)
                return 2
            removed = cache.gc(args.older_than)
            print("gc removed %d entries older than %g days from %s"
                  % (removed, args.older_than, cache.root))
        else:
            print("cache dir: %s" % cache.root)
            print("entries:   %d" % cache.size())
        return 0

    if args.command == "attack":
        cross_info = next(
            (i for i in CROSS_IMPLEMENTED if i.name == args.name), None
        )
        spec = config_registry()[args.config]
        config, in_order = spec.config, spec.in_order
        from repro.attacks.common import default_guesses
        guesses = default_guesses(args.secret, args.guesses)
        if cross_info is not None:
            if in_order:
                sys.stderr.write(
                    "error: cross-context attacks pair two out-of-order "
                    "contexts; pick an OoO --config\n"
                )
                return 2
            outcome = cross_info.module.run(
                config, secret=args.secret, guesses=guesses,
                in_order=in_order,
            )
        else:
            outcome = next(
                i for i in IMPLEMENTED if i.name == args.name
            ).module.run(
                config, secret=args.secret, guesses=guesses,
                in_order=in_order,
            )
        if args.json:
            import json as json_mod

            from repro.envelope import attack_envelope
            print(json_mod.dumps(
                attack_envelope(outcome), indent=2, sort_keys=True
            ))
        else:
            print(outcome)
            if hasattr(outcome, "bit_timings"):
                print("bit timings:", outcome.bit_timings)
            else:
                print("timings:",
                      dict(zip(outcome.guesses, outcome.timings)))
        return 0 if not outcome.leaked else 1

    if args.command == "matrix":
        configs = None
        if args.configs:
            registry = config_registry()
            configs = [registry[name] for name in args.configs]
        if args.cross:
            from repro.harness.tables import (
                cross_matrix, render_cross_matrix,
            )
            rows = cross_matrix(configs=configs, guesses=args.guesses)
            print(render_cross_matrix(rows))
        else:
            rows = table1_matrix(configs=configs, guesses=args.guesses)
            print(render_table1(rows))
        mismatches = [r for r in rows if r["leaked"] != r["expected"]]
        return 1 if mismatches else 0

    if args.command == "run":
        from repro.api import simulate
        from repro.workloads.generator import spec_program
        spec = config_registry()[args.config]
        program = spec_program(
            args.benchmark, instructions=args.instructions, seed=args.seed
        )
        outcome = simulate(
            program, spec.config, in_order=spec.in_order,
            fast_forward=not args.no_fast_forward,
        )
        if args.json:
            import json as json_mod

            from repro.envelope import run_envelope
            print(json_mod.dumps(run_envelope(
                outcome, benchmark=args.benchmark, config=args.config,
                seed=args.seed, instructions=args.instructions,
            ), indent=2, sort_keys=True))
            return 0
        print(outcome)
        if args.stats:
            for key, value in outcome.stats.summary().items():
                if isinstance(value, float):
                    print("  %-28s %.3f" % (key, value))
                else:
                    print("  %-28s %s" % (key, value))
        return 0

    if args.command == "bench":
        suite = run_suite(
            benchmarks=args.benchmarks,
            samples=args.samples,
            warmup=args.warmup,
            measure=args.measure,
            verbose=True,
            **_engine_kwargs(args),
        )
        print("engine: %s" % suite.engine.describe())
        print()
        print(render_figure7(suite))
        print()
        print(render_table2(table2(suite)))
        return 0

    if args.command == "trace":
        from repro.core import make_core
        from repro.debug import PipelineTracer
        from repro.workloads.kernels import ALL_KERNELS
        spec = config_registry()[args.config]
        config, in_order = spec.config, spec.in_order
        if in_order:
            print("trace requires an out-of-order configuration")
            return 2
        program = ALL_KERNELS[args.kernel](args.instructions)
        core = make_core(program, config)
        tracer = PipelineTracer.attach(core, limit=args.instructions * 8)
        core.run()
        print(tracer.render(width=args.width))
        print()
        print("mean complete-to-broadcast (wake-up) delay: %.1f cycles"
              % tracer.mean_wakeup_delay())
        return 0

    if args.command == "figure":
        return _figure(args)

    if args.command == "fuzz":
        return _fuzz(args)

    if args.command == "obs":
        return _obs(args)

    return 2


def _obs_trace_program(args):
    """Resolve an ``obs trace`` target to a Program: attack name first,
    then micro-kernel, then workload profile."""
    attacks = {info.name: info for info in IMPLEMENTED}
    if args.target in attacks:
        return attacks[args.target].module.build_program()
    from repro.workloads.kernels import ALL_KERNELS
    if args.target in ALL_KERNELS:
        return ALL_KERNELS[args.target](args.instructions)
    if args.target in PROFILES:
        from repro.workloads.generator import spec_program
        return spec_program(args.target, args.instructions, args.seed)
    raise SystemExit(
        "unknown trace target %r (attacks: %s; kernels and workload "
        "profiles also accepted)"
        % (args.target, ", ".join(sorted(attacks)))
    )


def _obs(args) -> int:
    import os

    from repro.core.inorder import InOrderCore
    from repro.core import make_core
    from repro.debug import PipelineTracer
    from repro.obs.bus import EventBus
    from repro.obs.perfetto import (
        counter_trace_events,
        lifecycle_trace_events,
        write_chrome_trace,
    )
    from repro.obs.sampler import MetricsSampler

    program = _obs_trace_program(args)
    spec = config_registry()[args.config]
    core = (
        InOrderCore(program, spec.config) if spec.in_order
        else make_core(program, spec.config)
    )
    bus = EventBus().attach(core)
    tracer = PipelineTracer(limit=args.limit)
    bus.subscribe(tracer)
    sampler = bus.add_sampler(MetricsSampler(args.sample_interval))
    outcome = core.run()

    events = lifecycle_trace_events(tracer.records)
    events += counter_trace_events(sampler)
    output = args.output or os.path.join(
        "results", "traces",
        "%s-%s.json" % (args.target, args.config),
    )
    write_chrome_trace(output, events, metadata={
        "target": args.target,
        "config": args.config,
        "scheme": spec.config.scheme,
        "cycles": outcome.stats.cycles,
    })
    deferred = sum(
        1 for r in tracer.records
        if not r.squashed and r.wakeup_delay > 1
    )
    print("traced %s on %s: %d instructions, %d samples, "
          "%d deferred wake-ups"
          % (args.target, args.config, len(tracer.records),
             len(sampler.rows), deferred))
    print("trace: %s  (open at https://ui.perfetto.dev)" % output)
    return 0


def _fuzz(args) -> int:
    import repro.fuzz as fuzz_mod

    if args.fuzz_command == "run":
        def progress(done, total, _result):
            if done % 25 == 0 or done == total:
                sys.stderr.write("\r[%d/%d]" % (done, total))
                sys.stderr.flush()
                if done == total:
                    sys.stderr.write("\n")

        campaign = fuzz_mod.run_campaign(
            range(args.seed0, args.seed0 + args.seeds),
            config_names=args.configs,
            jobs=args.jobs,
            progress=progress,
            max_cycles=args.max_cycles,
            cache=ShardedDiskStore(args.cache_dir) if args.cache_dir
            else None,
            smt=args.smt,
        )
        print(campaign.describe())
        return 0 if campaign.ok else 1

    if args.fuzz_command == "replay":
        spec = config_registry()[args.config]
        if args.what.isdigit():
            run = fuzz_mod.run_seed(int(args.what), args.config)
            witnesses = run.witnesses
            print(
                "seed %d [%s -> %s] on %s: %d witnesses, %d cycles"
                % (run.seed, run.template, run.channel, args.config,
                   len(witnesses), run.cycles)
            )
        else:
            try:
                entry = fuzz_mod.load_witness_file(args.what)
            except ValueError as error:
                return _input_error(error)
            _, witnesses = fuzz_mod.run_with_oracle(
                entry["program"], spec.config,
                secret_ranges=entry["secret_ranges"],
                tainted_bytes=entry["tainted_bytes"],
            )
            print(
                "%s (%s) on %s: %d witnesses"
                % (args.what, entry["meta"].get("channel", "?"),
                   args.config, len(witnesses))
            )
        for witness in witnesses:
            print("  %s" % (witness.to_dict(),))
        return 0

    if args.fuzz_command == "minimize":
        fp = fuzz_mod.generate(args.seed)
        predicate = fuzz_mod.differential_predicate(
            secret_ranges=fp.secret_ranges,
            tainted_bytes=fp.tainted_bytes,
            channel=fp.channel,
            blocked_under=args.blocked_under,
        )
        try:
            result = fuzz_mod.minimize_program(
                fp.program, predicate, max_tests=args.max_tests
            )
        except ValueError as error:
            print("seed %d [%s]: %s" % (args.seed, fp.template, error))
            return 2
        print("seed %d [%s/%s]: %s"
              % (args.seed, fp.template, fp.channel, result.describe()))
        if args.output:
            fuzz_mod.save_witness_file(
                args.output, result.program,
                meta={
                    "template": fp.template,
                    "channel": fp.channel,
                    "seed": args.seed,
                    "analog": fp.analog,
                    "config_name": "ooo",
                    "original_size": result.original_size,
                    "minimized_size": result.size,
                },
                secret_ranges=fp.secret_ranges,
                tainted_bytes=fp.tainted_bytes,
            )
            print("wrote %s" % args.output)
        return 0

    return 2


def _figure(args) -> int:
    benchmarks = args.benchmarks or list(DEFAULT_SUITE)
    if args.which == "4":
        print(render_figure4(figure4()))
        return 0
    if args.which == "8":
        print(render_figure8(figure8()))
        return 0
    if args.which == "9e":
        print(render_figure9e(figure9e(
            benchmarks=benchmarks, **_engine_kwargs(args)
        )))
        return 0
    suite = run_suite(
        benchmarks=benchmarks, samples=args.samples, **_engine_kwargs(args)
    )
    print("engine: %s" % suite.engine.describe())
    if args.which == "7":
        print(render_figure7(suite))
    elif args.which == "9a":
        print(render_figure9a(suite))
    elif args.which in ("9b", "9c"):
        print(render_figure9bc(suite))
    elif args.which == "9d":
        print(render_figure9d(suite))
    return 0


if __name__ == "__main__":
    sys.exit(main())
