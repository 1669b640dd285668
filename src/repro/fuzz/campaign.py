"""Differential fuzzing campaigns over the protection-scheme registry.

A campaign runs every generated program under every (out-of-order)
registry configuration and compares the taint oracle's leak witnesses
against each scheme's *claims*.  The claims are not hand-maintained:
:func:`claimed_blocked_channels` derives them from the attack taxonomy's
``expected_leak`` ground truth — a channel class is claimed-blocked by a
scheme exactly when the taxonomy says every implemented attack on that
channel is blocked (paper Table 2, folded down to channels).

A witness on a claimed-blocked channel is a :class:`Counterexample`:
either the scheme's implementation has a hole or the oracle has a false
positive — both are bugs worth a minimized reproducer.  Witnesses on
unclaimed channels are expected signal (e.g. InvisiSpec leaking through
the BTB) and are kept for the per-channel coverage report.

Campaigns run through the suite engine's parallel scheduler
(:func:`repro.engine.run_jobs`).  By default nothing is stored — fuzz
jobs are cheap (hundreds of instructions), so disk I/O would only add
cost.  A long campaign given a result store (``cache=``) stores every
run as it completes, and rerunning it against the same store executes
only the runs that had not finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.taxonomy import (
    CROSS_CHANNELS,
    CROSS_IMPLEMENTED,
    IMPLEMENTED,
    expected_leak,
)
from repro.config import ConfigSpec, config_registry
from repro.fuzz.generator import (
    generate,
    generate_smt,
    smt_template_for_seed,
    template_for_seed,
)
from repro.fuzz.taint import (
    CHANNELS,
    SHARED_CHANNELS,
    LeakWitness,
    run_with_oracle,
)

#: Baseline configuration a witness must reproduce under to count as
#: channel coverage (the unprotected out-of-order core).
BASELINE = "ooo"


def fuzz_configs() -> List[str]:
    """Registry configurations worth fuzzing: every out-of-order scheme.

    The in-order core is excluded — it has no transient window by
    construction, so fuzzing it only burns cycles.
    """
    return [
        name for name, spec in config_registry().items() if not spec.in_order
    ]


def claimed_blocked_channels(spec: ConfigSpec) -> Tuple[str, ...]:
    """Channel classes *spec* claims to block, from taxonomy ground truth.

    A channel is claimed-blocked iff every implemented attack using that
    channel has ``expected_leak(attack, spec) == False``.  This is
    deliberately conservative: a scheme that blocks some-but-not-all
    d-cache attacks (e.g. NDA permissive, which stops Spectre but not
    Meltdown/LazyFP) claims nothing for d-cache, so expected witnesses
    there never count as counterexamples.
    """
    claimed = []
    for channel in CHANNELS:
        attacks = [a for a in IMPLEMENTED if a.channel == channel]
        if attacks and not any(
            expected_leak(a, spec.config, in_order=spec.in_order)
            for a in attacks
        ):
            claimed.append(channel)
    return tuple(claimed)


def claimed_blocked_cross_channels(spec: ConfigSpec) -> Tuple[str, ...]:
    """Cross-context channels *spec* claims to block, same derivation as
    :func:`claimed_blocked_channels` but over the cross-context taxonomy.

    cross-i-cache has no dedicated PoC, so no scheme claims it and a
    cross-i-cache witness is never a counterexample — expected signal
    only.
    """
    claimed = []
    for channel in CROSS_CHANNELS:
        attacks = [a for a in CROSS_IMPLEMENTED if a.channel == channel]
        if attacks and not any(
            expected_leak(a, spec.config) for a in attacks
        ):
            claimed.append(channel)
    return tuple(claimed)


@dataclass(frozen=True)
class FuzzRunResult:
    """One (seed, config) fuzz run — picklable, returned by workers."""

    seed: int
    config_name: str
    template: str
    channel: str  # the template's target channel class
    analog: str
    witnesses: Tuple[LeakWitness, ...]
    cycles: int

    @property
    def leaked(self) -> bool:
        return bool(self.witnesses)

    def witness_channels(self) -> Tuple[str, ...]:
        return tuple(sorted({w.channel for w in self.witnesses}))

    def to_dict(self) -> dict:
        """JSON form (the result store round-trips through this)."""
        return {
            "seed": self.seed,
            "config_name": self.config_name,
            "template": self.template,
            "channel": self.channel,
            "analog": self.analog,
            "witnesses": [w.to_dict() for w in self.witnesses],
            "cycles": self.cycles,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FuzzRunResult":
        """Inverse of :meth:`to_dict`.  Raises ``ValueError`` unless every
        field, and every field of every witness, is present with its
        declared type (no int field takes a bool)."""
        run = _typed(payload, _RUN_FIELDS, "fuzz run")
        run["witnesses"] = tuple(
            LeakWitness(**_typed(witness, _WITNESS_FIELDS, "witness"))
            for witness in run["witnesses"]
        )
        return cls(**run)


#: Declared field types of a stored run and of each of its witnesses.
_RUN_FIELDS = {
    "seed": int, "config_name": str, "template": str, "channel": str,
    "analog": str, "witnesses": list, "cycles": int,
}
_WITNESS_FIELDS = {
    "channel": str, "seq": int, "pc": int, "addr": int, "cycle": int,
    "detail": str,
}


def _typed(payload, types: Dict[str, type], what: str) -> dict:
    """The fields of *payload* named in *types*; ``ValueError`` unless
    *payload* is an object holding each with its type (never a bool)."""
    if not isinstance(payload, dict):
        raise ValueError("%s must be an object" % what)
    for name, kind in types.items():
        value = payload.get(name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(
                "%s field %r must be %s" % (what, name, kind.__name__)
            )
    return {name: payload[name] for name in types}


@dataclass(frozen=True)
class FuzzJob:
    """One fuzz execution for the engine scheduler (picklable)."""

    result_type = FuzzRunResult

    seed: int
    config_name: str
    template: str
    max_cycles: int = 400_000

    @property
    def coordinates(self) -> tuple:
        return (self.seed, self.config_name)

    def describe(self) -> str:
        return "fuzz seed %d [%s] on %s" % (
            self.seed, self.template, self.config_name,
        )

    def execute(self) -> FuzzRunResult:
        """Regenerate the program and run it under the taint oracle.

        Regenerating in the worker (rather than shipping the program)
        keeps the job tiny on the wire; generation is deterministic, so
        every worker builds the identical program.
        """
        return run_seed(
            self.seed,
            self.config_name,
            template=self.template,
            max_cycles=self.max_cycles,
        )


@dataclass(frozen=True)
class SmtFuzzJob:
    """One two-context fuzz execution for the engine scheduler."""

    result_type = FuzzRunResult

    seed: int
    config_name: str
    template: str
    max_cycles: int = 400_000

    @property
    def coordinates(self) -> tuple:
        return (self.seed, self.config_name)

    def describe(self) -> str:
        return "smt-fuzz seed %d [%s] on %s" % (
            self.seed, self.template, self.config_name,
        )

    def execute(self) -> FuzzRunResult:
        return run_smt_seed(
            self.seed,
            self.config_name,
            template=self.template,
            max_cycles=self.max_cycles,
        )


def run_smt_seed(
    seed: int,
    config_name: str,
    template: str = "",
    max_cycles: int = 400_000,
) -> FuzzRunResult:
    """Run one fuzz seed as a co-resident pair under one configuration.

    The victim context (context 1) gets the taint oracle, configured
    with the pair's sharing mode so squash-surviving footprints on
    shared structures surface as ``cross-*`` witnesses.  The attacker
    context carries no secrets and needs no oracle.
    """
    from dataclasses import replace

    from repro.fuzz.taint import TaintOracle
    from repro.smt import SmtMachine

    spec = config_registry()[config_name]
    pair = generate_smt(seed, template=template)
    config = replace(
        spec.config, num_contexts=2, sharing=pair.sharing,
    ).validate()
    machine = SmtMachine([pair.attacker, pair.victim.program], config)
    oracle = TaintOracle(
        secret_ranges=pair.victim.secret_ranges,
        tainted_bytes=pair.victim.tainted_bytes,
        ctx=1,
        shared_channels=SHARED_CHANNELS[pair.sharing],
    )
    oracle.attach(machine.cores[1])
    outcomes = machine.run(max_cycles=max_cycles)
    return FuzzRunResult(
        seed=seed,
        config_name=config_name,
        template=pair.template,
        channel=pair.channel,
        analog=pair.analog,
        witnesses=tuple(oracle.witnesses),
        cycles=outcomes[1].stats.cycles,
    )


def run_seed(
    seed: int,
    config_name: str,
    template: str = "",
    max_cycles: int = 400_000,
) -> FuzzRunResult:
    """Run one fuzz seed under one registry configuration."""
    spec = config_registry()[config_name]
    fp = generate(seed, template=template)
    outcome, witnesses = run_with_oracle(
        fp.program,
        spec.config,
        secret_ranges=fp.secret_ranges,
        tainted_bytes=fp.tainted_bytes,
        max_cycles=max_cycles,
    )
    return FuzzRunResult(
        seed=seed,
        config_name=config_name,
        template=fp.template,
        channel=fp.channel,
        analog=fp.analog,
        witnesses=tuple(witnesses),
        cycles=outcome.stats.cycles,
    )


@dataclass(frozen=True)
class Counterexample:
    """A witness under a scheme that claims to block that channel."""

    seed: int
    config_name: str
    template: str
    witness: LeakWitness

    def describe(self) -> str:
        return (
            "seed %d [%s]: %s witness under %s (claimed blocked) — "
            "pc=%#x addr=%#x cycle=%d"
            % (
                self.seed, self.template, self.witness.channel,
                self.config_name, self.witness.pc, self.witness.addr,
                self.witness.cycle,
            )
        )


@dataclass
class CampaignResult:
    """Everything a differential campaign learned."""

    results: List[FuzzRunResult] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    #: seeds whose simulation raised, with the failure reason
    failures: List[Tuple[str, str]] = field(default_factory=list)
    #: scheduler accounting for the run (EngineStats; executed and
    #: cache-hit counts — preemption tests assert on these)
    engine: object = None

    def baseline_channel_counts(self) -> Dict[str, int]:
        """Witness count per channel class under the unprotected core.

        Cross-context campaigns produce ``cross-*`` channels beyond the
        single-context :data:`CHANNELS` set; those appear as extra keys.
        """
        counts = {channel: 0 for channel in CHANNELS}
        for result in self.results:
            if result.config_name != BASELINE:
                continue
            for witness in result.witnesses:
                counts[witness.channel] = counts.get(witness.channel, 0) + 1
        return counts

    @property
    def ok(self) -> bool:
        return not self.counterexamples and not self.failures

    def describe(self) -> str:
        lines = []
        seeds = sorted({r.seed for r in self.results})
        configs = sorted({r.config_name for r in self.results})
        lines.append(
            "campaign: %d seeds x %d configs = %d runs"
            % (len(seeds), len(configs), len(self.results))
        )
        counts = self.baseline_channel_counts()
        channel_order = list(CHANNELS) + sorted(
            set(counts) - set(CHANNELS)
        )
        lines.append(
            "baseline (%s) witnesses by channel: %s"
            % (
                BASELINE,
                "  ".join(
                    "%s=%d" % (channel, counts[channel])
                    for channel in channel_order
                ),
            )
        )
        leaks_by_config: Dict[str, int] = {}
        for result in self.results:
            if result.leaked:
                leaks_by_config[result.config_name] = (
                    leaks_by_config.get(result.config_name, 0) + 1
                )
        for name in configs:
            lines.append(
                "  %-20s %d/%d seeds leaked"
                % (name, leaks_by_config.get(name, 0), len(seeds))
            )
        if self.counterexamples:
            lines.append("COUNTEREXAMPLES (%d):" % len(self.counterexamples))
            for cex in self.counterexamples:
                lines.append("  " + cex.describe())
        else:
            lines.append("no counterexamples")
        if self.failures:
            lines.append("failures (%d):" % len(self.failures))
            for what, why in self.failures:
                lines.append("  %s: %s" % (what, why))
        return "\n".join(lines)


def run_campaign(
    seeds: Sequence[int],
    config_names: Optional[Sequence[str]] = None,
    jobs: Optional[int] = None,
    progress=None,
    max_cycles: int = 400_000,
    backend: Optional[str] = None,
    cache=None,
    smt: bool = False,
) -> CampaignResult:
    """Run the differential campaign: ``seeds x configs`` fuzz runs.

    With ``smt=True`` every seed runs as a co-resident attacker/victim
    pair on the two-context machine (repro.smt) and witnesses are judged
    against each scheme's *cross-context* claims
    (:func:`claimed_blocked_cross_channels`).

    Executes through the suite engine's parallel scheduler (fork-based
    workers, deterministic results, serial fallback on worker failure);
    ``jobs`` has the same meaning as the engine's ``--jobs`` and
    ``backend``/``cache`` as ``run_jobs``'s.  With a result store as
    ``cache`` a killed campaign leaves every finished run behind;
    rerunning the same seeds/configs against that store serves them
    from it and executes only the remainder, converging on the
    identical witness corpus (fuzz jobs are deterministic).  The store's
    key carries the package version, not the source, so give a campaign
    a store only while the code under test stays unchanged.
    """
    from repro.engine import run_jobs  # deferred: engine pulls in pools

    names = list(config_names) if config_names else fuzz_configs()
    registry = config_registry()
    claims_for = (
        claimed_blocked_cross_channels if smt else claimed_blocked_channels
    )
    claimed = {
        name: frozenset(claims_for(registry[name])) for name in names
    }
    if smt:
        fuzz_jobs = [
            SmtFuzzJob(
                seed=seed,
                config_name=name,
                template=smt_template_for_seed(seed),
                max_cycles=max_cycles,
            )
            for seed in seeds
            for name in names
        ]
    else:
        fuzz_jobs = [
            FuzzJob(
                seed=seed,
                config_name=name,
                template=template_for_seed(seed),
                max_cycles=max_cycles,
            )
            for seed in seeds
            for name in names
        ]
    def _execute():
        return run_jobs(
            fuzz_jobs, jobs=jobs, cache=cache, progress=progress,
            backend=backend,
        )

    from repro.obs.spans import maybe_tracer

    tracer = maybe_tracer()
    if tracer is None:
        results, failures, stats = _execute()
    else:
        with tracer.span(
            "fuzz.campaign",
            attrs={"runs": len(fuzz_jobs), "configs": len(names),
                   "smt": bool(smt)},
        ) as span:
            results, failures, stats = _execute()
            span.attrs["failures"] = len(failures)

    campaign = CampaignResult(engine=stats)
    for job_result in results:
        run: FuzzRunResult = job_result.window
        campaign.results.append(run)
        blocked = claimed[run.config_name]
        for witness in run.witnesses:
            if witness.channel in blocked:
                campaign.counterexamples.append(Counterexample(
                    seed=run.seed,
                    config_name=run.config_name,
                    template=run.template,
                    witness=witness,
                ))
    for failure in failures:
        campaign.failures.append(
            (failure.job.describe(), failure.error)
        )
    return campaign
