"""A finished machine is freed by reference counting, not by the cycle
collector.

Every object that points back at its core (the protection model, the
event bus, the fuzzer's taint oracle) holds it weakly, so dropping the
last reference to a core frees its caches, memory pages and ROB at once.
Each matrix cell, sweep window and fuzz run then returns its memory
when it ends, and peak RSS does not depend on when collections run.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro.config import SimConfig, config_registry
from repro.core import InOrderCore, make_core
from repro.debug import PipelineTracer
from repro.fuzz.campaign import run_seed, run_smt_seed
from repro.fuzz.generator import generate_smt
from repro.obs.bus import ensure_bus
from repro.obs.sampler import MetricsSampler
from repro.smt import SmtMachine
from repro.workloads.generator import spec_program

OOO_CONFIGS = [name for name, spec in config_registry().items()
               if not spec.in_order]


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def freed_on_drop(build) -> bool:
    """Build a machine, run it, drop it: is it gone with gc disabled,
    every core of an SMT machine included?"""
    with collector_off():
        machine = build()
        machine.run(max_cycles=200_000)
        parts = [machine, *getattr(machine, "cores", ())]
        refs = [weakref.ref(part) for part in parts]
        del parts
        del machine
        return all(ref() is None for ref in refs)


def program():
    return spec_program("leela", 1_500, seed=3)


@pytest.mark.parametrize("name", OOO_CONFIGS)
def test_ooo_core_under_every_scheme(name):
    config = config_registry()[name].config
    assert freed_on_drop(lambda: make_core(program(), config))


def test_ooo_core_with_tracer_and_sampler():
    def build():
        core = make_core(program(), config_registry()["strict"].config)
        PipelineTracer.attach(core)
        ensure_bus(core).add_sampler(MetricsSampler(interval=500))
        return core

    assert freed_on_drop(build)


def test_in_order_core():
    assert freed_on_drop(lambda: InOrderCore(program(), SimConfig()))


@pytest.mark.parametrize("template", ["smt-btb-poison", "smt-prime-probe"])
def test_smt_machine(template):
    pair = generate_smt(3, template=template)
    config = SimConfig(num_contexts=2, sharing=pair.sharing)
    assert freed_on_drop(
        lambda: SmtMachine([pair.attacker, pair.victim.program], config)
    )


def test_oracle_runs_leave_no_cyclic_garbage():
    with collector_off():
        for seed in range(3):
            run_seed(seed, "strict")
            run_smt_seed(seed, "strict")
        assert gc.collect() == 0
