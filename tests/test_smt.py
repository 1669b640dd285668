"""Two-context co-residency model (:mod:`repro.smt`).

Four contracts:

* **Guard rails** — ``make_core`` rejects multi-context configs with
  a clear :class:`~repro.errors.ConfigError` pointing at
  ``SmtMachine``.
* **Single-context bit-identity** — ``num_contexts=1`` (explicit or
  default) is invisible: cache keys and ``to_dict`` payloads are
  unchanged, and the golden scheme-equivalence counters reproduce
  exactly under an explicit single-context config.
* **Arbiter determinism** — the same program pair under the same config
  produces the same round-robin interleaving (pinned by the machine's
  sha256 interleave digest) and the same per-context counters.  The
  digest folds in every simulated cycle, skipped ones included, so a
  cross attack gives the same digest and counters with the idle-cycle
  fast-forward on and off.
* **Two-context golden** — ``tests/golden/smt_equivalence.json`` pins
  the per-context counters and interleave digest of every cross-context
  attack, and the victim cycles plus witnesses of ``run_smt_seed``, on
  every out-of-order configuration.  It is the spec for two-context
  runs: any diff is a timing change, never noise.  Its digests are the
  machine's interleaving, not its fast-forward decisions.

Regenerating the two-context golden (only after an *intentional* timing
change, never to paper over a diff)::

    PYTHONPATH=src python -c \
        "from tests.test_smt import write_smt_golden; write_smt_golden()"
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from dataclasses import replace

import pytest

from repro.api import simulate
from repro.attacks.common import default_guesses, run_cross_attack
from repro.attacks.taxonomy import CROSS_IMPLEMENTED
from repro.config import SimConfig, config_registry
from repro.core import make_core
from repro.debug.trace import TraceRecord
from repro.errors import ConfigError
from repro.fuzz import fuzz_configs, run_smt_seed
from repro.fuzz.generator import generate_smt
from repro.obs.perfetto import smt_trace_events
from repro.smt import SmtMachine, run_pair
from repro.workloads import spec_program

GOLDEN = pathlib.Path(__file__).parent / "golden" / "scheme_equivalence.json"
SMT_GOLDEN = pathlib.Path(__file__).parent / "golden" / "smt_equivalence.json"

#: Cross-attack golden parameters: secret 42 (42 & 7 != 0, as cross_btb
#: requires) timed over 16 guesses.
SMT_GOLDEN_SECRET = 42
SMT_GOLDEN_GUESSES = 16
SMT_GOLDEN_SEEDS = range(10)

#: Host-time fields: nondeterministic, never part of a golden.
_HOST_FIELDS = ("sim_wall_seconds", "kilo_cycles_per_sec")


def _two_context(sharing: str = "smt") -> SimConfig:
    return replace(
        SimConfig(), num_contexts=2, sharing=sharing
    ).validate()


# ---------------------------------------------------------------------- #
# Guard rails.
# ---------------------------------------------------------------------- #


def test_validate_rejects_bad_context_counts_and_sharing():
    with pytest.raises(ConfigError, match="num_contexts"):
        replace(SimConfig(), num_contexts=3).validate()
    with pytest.raises(ConfigError, match="sharing"):
        replace(SimConfig(), num_contexts=2, sharing="bogus").validate()


def test_make_core_rejects_two_contexts():
    program = spec_program("mcf", 200, seed=0)
    with pytest.raises(ConfigError, match="SmtMachine"):
        make_core(program, _two_context())


def test_smt_machine_rejects_wrong_program_count():
    config = _two_context()
    program = spec_program("mcf", 200, seed=0)
    with pytest.raises(ConfigError, match="programs"):
        SmtMachine([program], config)


# ---------------------------------------------------------------------- #
# Single-context bit-identity.
# ---------------------------------------------------------------------- #


def test_context_fields_absent_from_single_context_payloads():
    base = SimConfig()
    assert "num_contexts" not in base.to_dict()
    assert "sharing" not in base.to_dict()
    two = replace(base, num_contexts=2)
    assert two.to_dict()["num_contexts"] == 2
    assert two.to_dict()["sharing"] == "smt"


def test_cache_key_unchanged_by_explicit_single_context():
    base = SimConfig()
    explicit = replace(base, num_contexts=1, sharing="l2")
    assert explicit.cache_key() == base.cache_key()
    two = replace(base, num_contexts=2)
    assert two.cache_key() != base.cache_key()


@pytest.mark.parametrize(
    "name", ["ooo", "strict", "invisispec-spectre", "in-order"]
)
def test_explicit_single_context_reproduces_goldens(name):
    """num_contexts=1 is the pre-SMT machine, bit for bit."""
    golden = json.loads(GOLDEN.read_text())
    case = "mcf/%s" % name
    meta = golden["programs"]["mcf"]
    program = spec_program("mcf", meta["instructions"], seed=meta["seed"])
    spec = config_registry()[name]
    config = replace(spec.config, num_contexts=1, sharing="smt")
    stats = simulate(program, config, in_order=spec.in_order).stats
    got = {field: getattr(stats, field)
           for field in golden["counters"][case]}
    assert got == golden["counters"][case]


# ---------------------------------------------------------------------- #
# Structure sharing per mode.
# ---------------------------------------------------------------------- #


def _fuzz_pair(sharing: str):
    """A deterministic disjoint-address program pair for *sharing*."""
    template = {
        "smt": "smt-btb-poison", "l2": "smt-prime-probe",
    }[sharing]
    pair = generate_smt(3, template=template)
    assert pair.sharing == sharing
    return [pair.attacker, pair.victim.program]


def test_smt_mode_shares_frontend_structures():
    machine = SmtMachine(_fuzz_pair("smt"), _two_context("smt"))
    a, b = machine.cores
    assert a.btb is b.btb
    assert a.ras is b.ras
    assert a.hierarchy is b.hierarchy
    assert a.mem is b.mem


def test_l2_mode_shares_only_l2_and_memory():
    machine = SmtMachine(_fuzz_pair("l2"), _two_context("l2"))
    a, b = machine.cores
    assert a.btb is not b.btb
    assert a.ras is not b.ras
    assert a.hierarchy is not b.hierarchy
    assert a.hierarchy.l2 is b.hierarchy.l2
    assert a.mem is b.mem


# ---------------------------------------------------------------------- #
# Arbiter determinism.
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("sharing", ["smt", "l2"])
def test_same_pair_same_interleaving(sharing):
    config = _two_context(sharing)

    def one_run():
        machine = SmtMachine(_fuzz_pair(sharing), config)
        outcomes = machine.run(max_cycles=400_000)
        return (
            machine.interleave_digest(),
            [(o.stats.cycles, o.stats.committed) for o in outcomes],
        )

    first, second = one_run(), one_run()
    assert first == second
    digest, counters = first
    assert len(digest) == 64
    for cycles, committed in counters:
        assert committed > 0, "a context never committed"


def test_skipped_span_digests_like_stepped_cycles():
    """A skipped span folds in one (mask, leader) pair per cycle, the
    leader rotating from the span's first cycle."""
    machine = SmtMachine(_fuzz_pair("smt"), _two_context("smt"))
    start, stop = 7, 7 + 10_001  # odd start and odd length
    machine.cycle = start
    machine._digest_span(0b11, stop)
    stepped = hashlib.sha256()
    for cycle in range(start, stop):
        stepped.update(bytes((0b11, cycle % 2)))
    assert machine.interleave_digest() == stepped.hexdigest()


def test_run_pair_matches_machine_run():
    config = _two_context("smt")
    programs = _fuzz_pair("smt")
    direct = SmtMachine(programs, config).run(max_cycles=400_000)
    wrapped = run_pair(programs, config, max_cycles=400_000)
    assert [
        (o.stats.cycles, o.stats.committed) for o in direct
    ] == [(o.stats.cycles, o.stats.committed) for o in wrapped]


# ---------------------------------------------------------------------- #
# Per-context trace lanes.
# ---------------------------------------------------------------------- #


def test_smt_trace_events_use_per_context_pids():
    def record(seq, fetch):
        return TraceRecord(
            seq=seq, pc=seq, disasm="nop", fetch=fetch,
            dispatch=fetch + 1, issue=fetch + 2, complete=fetch + 3,
            broadcast=fetch + 4, retire=fetch + 5, squashed=False,
        )

    events = smt_trace_events([
        [record(0, 0), record(1, 2)],
        [record(0, 1)],
    ])
    pids = {event["pid"] for event in events}
    assert pids == {1, 2}
    names = {
        event["args"]["name"] for event in events if event["ph"] == "M"
    }
    assert names == {"context 0 pipeline", "context 1 pipeline"}


# ---------------------------------------------------------------------- #
# Two-context golden.
# ---------------------------------------------------------------------- #


def _counters(stats) -> dict:
    payload = stats.to_dict()
    for name in _HOST_FIELDS:
        del payload[name]
    return payload


def _cross_attack_case(info, config_name: str,
                       fast_forward: bool = True) -> dict:
    """Per-context counters and interleave digest of one cross attack."""
    machines = []

    def recording(*args, **kwargs):
        machine, outcomes = run_cross_attack(*args, **kwargs)
        machines.append(machine)
        return machine, outcomes

    config = config_registry()[config_name].config
    guesses = default_guesses(SMT_GOLDEN_SECRET, SMT_GOLDEN_GUESSES)
    original = info.module.run_cross_attack
    info.module.run_cross_attack = recording
    try:
        outcome = info.module.run(
            config, secret=SMT_GOLDEN_SECRET, guesses=guesses,
            fast_forward=fast_forward,
        )
    finally:
        info.module.run_cross_attack = original
    (machine,) = machines
    return {
        "leaked": outcome.leaked,
        "interleave_digest": machine.interleave_digest(),
        "contexts": [_counters(core.stats) for core in machine.cores],
    }


@pytest.mark.parametrize("config_name", ["ooo", "fence-on-branch"])
@pytest.mark.parametrize(
    "info", CROSS_IMPLEMENTED, ids=[i.name for i in CROSS_IMPLEMENTED]
)
def test_cross_attack_fast_forward_invisible(info, config_name):
    """Skipping idle cycles changes neither the interleave digest nor
    any per-context counter."""
    fast = _cross_attack_case(info, config_name, fast_forward=True)
    slow = _cross_attack_case(info, config_name, fast_forward=False)
    assert fast == slow


def _fuzz_seed_case(seed: int, config_name: str) -> dict:
    """Victim cycles and sorted witnesses of one two-context fuzz run."""
    result = run_smt_seed(seed, config_name)
    witnesses = sorted(
        (w.channel, w.seq, w.pc, w.addr, w.cycle, w.detail)
        for w in result.witnesses
    )
    return {
        "cycles": result.cycles,
        "witnesses": [list(w) for w in witnesses],
    }


def _smt_golden_cases():
    attacks = ["attack/%s/%s" % (info.name, name)
               for info in CROSS_IMPLEMENTED for name in fuzz_configs()]
    seeds = ["fuzz/%d/%s" % (seed, name)
             for seed in SMT_GOLDEN_SEEDS for name in fuzz_configs()]
    return attacks + seeds


def _smt_case(case: str) -> dict:
    kind, what, config_name = case.split("/")
    if kind == "attack":
        (info,) = [i for i in CROSS_IMPLEMENTED if i.name == what]
        return _cross_attack_case(info, config_name)
    return _fuzz_seed_case(int(what), config_name)


def write_smt_golden() -> None:
    """Regenerate ``tests/golden/smt_equivalence.json``."""
    payload = {
        "comment": "see tests/test_smt.py",
        "secret": SMT_GOLDEN_SECRET,
        "guesses": SMT_GOLDEN_GUESSES,
        "cases": {case: _smt_case(case) for case in _smt_golden_cases()},
    }
    SMT_GOLDEN.write_text(json.dumps(payload, indent=1, sort_keys=True)
                          + "\n")


@pytest.fixture(scope="module")
def smt_golden():
    return json.loads(SMT_GOLDEN.read_text())


def test_smt_golden_covers_every_case(smt_golden):
    assert sorted(smt_golden["cases"]) == sorted(_smt_golden_cases())


@pytest.mark.parametrize("case", _smt_golden_cases())
def test_smt_golden_bit_identical(case, smt_golden):
    assert _smt_case(case) == smt_golden["cases"][case], (
        "two-context timing changed for %s (see the module docstring "
        "before regenerating)" % case
    )
