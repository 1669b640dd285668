"""Stress tests: constrained resources and alternate direction predictors.

Every structural stall path (tiny ROB/IQ/LSQ, exhausted rename registers,
single-wide machines) and every direction predictor must still commit
exactly the reference architectural state.
"""

from dataclasses import replace

import pytest

from repro.config import CoreConfig, MemConfig, SimConfig, baseline_ooo
from repro.core.ooo import OutOfOrderCore
from repro.frontend.direction import (
    AlwaysNotTaken,
    AlwaysTaken,
    Bimodal,
    GShare,
    Tournament,
)
from repro.isa.registers import NUM_ARCH_REGS
from repro.isa.semantics import run_reference
from repro.smt import SharedState
from repro.workloads.generator import spec_program
from repro.workloads.kernels import (
    mispredict_heavy,
    pointer_chase,
    store_load_aliasing,
    streaming,
)

PROGRAMS = {
    "mispredict_heavy": lambda: mispredict_heavy(300),
    "aliasing": lambda: store_load_aliasing(200),
    "streaming": lambda: streaming(200),
    "spec-leela": lambda: spec_program("leela", 1_500, seed=11),
}


def assert_golden(program, config, max_cycles=3_000_000):
    reference = run_reference(program, max_steps=3_000_000)
    outcome = OutOfOrderCore(program, config).run(max_cycles=max_cycles)
    assert outcome.state.regs == reference.regs
    assert outcome.state.memory.equal_contents(reference.memory)
    assert outcome.state.committed == reference.committed


def constrained(**core_kwargs) -> SimConfig:
    return replace(
        baseline_ooo(), core=CoreConfig(**core_kwargs)
    ).validate()


@pytest.mark.parametrize("name,make", PROGRAMS.items(), ids=PROGRAMS.keys())
class TestResourcePressure:
    def test_tiny_rob(self, name, make):
        assert_golden(make(), constrained(rob_entries=8, phys_regs=100))

    def test_tiny_issue_queue(self, name, make):
        assert_golden(make(), constrained(iq_entries=2))

    def test_tiny_lsq(self, name, make):
        assert_golden(make(), constrained(lq_entries=2, sq_entries=2))

    def test_single_wide(self, name, make):
        assert_golden(make(), constrained(
            fetch_width=1, issue_width=1, commit_width=1,
        ))

    def test_rename_pressure(self, name, make):
        # Free list of just a handful of registers beyond the ROB minimum.
        config = constrained(rob_entries=16, phys_regs=NUM_ARCH_REGS + 10)
        assert_golden(make(), config)

    def test_single_fu_of_each(self, name, make):
        assert_golden(make(), constrained(
            num_alu=1, num_mul=1, num_div=1, num_fp=1, num_mem_ports=1,
            num_branch=1,
        ))


PREDICTORS = {
    "bimodal": Bimodal,
    "gshare": GShare,
    "tournament": Tournament,
    "taken": AlwaysTaken,
    "not-taken": AlwaysNotTaken,
}


@pytest.mark.parametrize("predictor", list(PREDICTORS))
def test_direction_predictor_variants(predictor):
    program = mispredict_heavy(300)
    reference = run_reference(program, max_steps=2_000_000)
    outcome = OutOfOrderCore(
        program, baseline_ooo(),
        shared=SharedState(direction=PREDICTORS[predictor]()),
    ).run()
    assert outcome.state.regs == reference.regs


@pytest.mark.parametrize("nda_delay", [0, 1, 3])
def test_broadcast_delay_preserves_correctness(nda_delay):
    from repro.config import NDAPolicyName, nda_config, with_nda_delay
    program = store_load_aliasing(200)
    reference = run_reference(program, max_steps=2_000_000)
    config = with_nda_delay(
        nda_config(NDAPolicyName.FULL_PROTECTION), nda_delay
    )
    outcome = OutOfOrderCore(program, config).run()
    assert outcome.state.regs == reference.regs


def test_tiny_caches_still_correct():
    from repro.config import CacheConfig
    mem = MemConfig(
        l1i=CacheConfig(1024, 64, 2, 4),
        l1d=CacheConfig(1024, 64, 2, 4),
        l2=CacheConfig(8192, 64, 4, 40),
        mshrs=2,
    )
    config = replace(baseline_ooo(), mem=mem).validate()
    assert_golden(pointer_chase(150, 256), config)


def test_small_btb_and_ras():
    config = constrained(btb_entries=8, btb_assoc=2, ras_entries=1)
    assert_golden(spec_program("omnetpp", 1_500, seed=2), config)


def test_attack_still_blocked_under_constrained_nda():
    """Security must not depend on resource sizing."""
    from repro.attacks import spectre_v1
    from repro.config import NDAPolicyName
    from repro.schemes import NDAParams
    config = SimConfig(
        core=CoreConfig(rob_entries=32, iq_entries=8, phys_regs=100),
        scheme="nda",
        scheme_params=NDAParams(policy=NDAPolicyName.PERMISSIVE),
    ).validate()
    outcome = spectre_v1.run(config, guesses=list(range(32, 52)))
    assert not outcome.leaked
