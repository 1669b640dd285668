"""Tests for the synthetic SPEC-like workload generator and kernels."""

import pytest

from repro.isa.opcodes import Opcode
from repro.isa.semantics import run_reference
from repro.workloads.generator import generate_program, spec_program
from repro.workloads.kernels import ALL_KERNELS
from repro.workloads.profiles import (
    DEFAULT_SUITE,
    FPRATE,
    INTRATE,
    PROFILES,
    BenchmarkProfile,
    profile,
)


class TestProfiles:
    def test_all_profiles_validate(self):
        for prof in PROFILES.values():
            prof.validate()

    def test_suite_membership(self):
        for name in DEFAULT_SUITE:
            assert name in PROFILES
        assert set(INTRATE) | set(FPRATE) == set(PROFILES)
        assert not set(INTRATE) & set(FPRATE)

    def test_paper_benchmarks_present(self):
        for name in ("perlbench", "gcc", "mcf", "omnetpp", "xalancbmk",
                     "x264", "deepsjeng", "leela", "exchange2", "xz",
                     "bwaves", "lbm", "imagick", "nab", "fotonik3d"):
            assert name in PROFILES

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            profile("spec_nothing")

    def test_character_expectations(self):
        assert PROFILES["mcf"].chase_frac > PROFILES["lbm"].chase_frac
        assert PROFILES["lbm"].stream_frac > PROFILES["leela"].stream_frac
        assert PROFILES["leela"].branch_bias < PROFILES["lbm"].branch_bias
        assert PROFILES["bwaves"].fp_frac > 0
        assert PROFILES["mcf"].fp_frac == 0

    def test_invalid_profile_rejected(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad", suite="intrate",
                load_frac=0.5, store_frac=0.5, fp_frac=0.2, mul_frac=0,
                div_frac=0, branch_frac=0, call_frac=0,
                working_set_bytes=1024, chase_frac=0, hot_frac=0,
                stream_frac=0, branch_bias=0.9, indirect_call_frac=0,
                body_size=100,
            ).validate()


class TestGenerator:
    def test_deterministic_per_seed(self):
        first = spec_program("leela", 3_000, seed=5)
        second = spec_program("leela", 3_000, seed=5)
        assert len(first) == len(second)
        assert all(
            a.op is b.op and a.imm == b.imm and a.srcs == b.srcs
            for a, b in zip(first.instrs, second.instrs)
        )

    def test_deterministic_across_hash_seeds(self):
        # Regression test for the data-RNG derivation: seeding a
        # sub-stream off a tuple would route through PYTHONHASHSEED-
        # randomized hash(), silently making "the same seed" generate
        # different data images in different interpreter processes
        # (breaking the result cache and cross-run reproducibility).
        # The string sub-seeding ("<seed>/data") hashes with SHA-512,
        # which is process-independent.
        import os
        import subprocess
        import sys

        snippet = (
            "import hashlib, json;"
            "from repro.workloads.generator import spec_program;"
            "p = spec_program('mcf', 1500, seed=9);"
            "blob = json.dumps(["
            "    [str(i.op), i.rd, list(i.srcs), i.imm, i.target]"
            "    for i in p.instrs"
            "]) + json.dumps("
            "    {str(a): d.hex() for a, d in sorted(p.data.items())}"
            ");"
            "print(hashlib.sha256(blob.encode()).hexdigest())"
        )
        digests = set()
        for hash_seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(sys.path)
            out = subprocess.run(
                [sys.executable, "-c", snippet],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1, (
            "program bytes depend on PYTHONHASHSEED: %s" % digests
        )

    def test_same_seed_identical_data_image(self):
        first = spec_program("xz", 2_000, seed=11)
        second = spec_program("xz", 2_000, seed=11)
        assert first.data == second.data
        assert first.initial_regs == second.initial_regs

    def test_different_seeds_differ(self):
        first = spec_program("leela", 3_000, seed=0)
        second = spec_program("leela", 3_000, seed=1)
        different = any(
            a.op is not b.op or a.imm != b.imm
            for a, b in zip(first.instrs, second.instrs)
        )
        assert different or len(first) != len(second)

    def test_programs_terminate_architecturally(self):
        program = spec_program("deepsjeng", 3_000, seed=2)
        state = run_reference(program, max_steps=2_000_000)
        assert state.halted

    def test_dynamic_length_close_to_target(self):
        target = 5_000
        program = spec_program("x264", target, seed=0)
        state = run_reference(program, max_steps=2_000_000)
        assert 0.3 * target <= state.committed <= 3 * target

    def test_mix_roughly_respected(self):
        prof = profile("lbm")
        program = generate_program(prof, 4_000, seed=0)
        ops = [i.op for i in program.instrs]
        loads = sum(op in (Opcode.LOAD, Opcode.LOADB) for op in ops)
        fps = sum(op in (Opcode.FADD, Opcode.FMUL, Opcode.FDIV)
                  for op in ops)
        total = len(ops)
        assert loads / total > 0.1  # lbm is load-heavy
        assert fps / total > 0.1  # and FP-heavy

    def test_branchy_profile_emits_branches(self):
        program = spec_program("leela", 4_000, seed=0)
        branches = sum(
            1 for i in program.instrs if i.info.is_conditional
        )
        assert branches > 20

    def test_indirect_calls_present_for_omnetpp(self):
        program = spec_program("omnetpp", 4_000, seed=0)
        assert any(i.op is Opcode.CALLR for i in program.instrs)

    def test_chase_table_initialized(self):
        # The table is one cycle through every line-sized entry: a chase
        # from CHASE_BASE visits each entry once, then returns to it.
        from repro.memory.memory import MainMemory
        from repro.workloads.generator import CHASE_BASE

        entries = {"mcf": 32768, "leela": 2048, "lbm": 64}
        for name, count in entries.items():
            for seed in (0, 5):
                memory = MainMemory()
                memory.load_image(spec_program(name, 2_000, seed).data)
                seen = {CHASE_BASE}
                addr = memory.read_word(CHASE_BASE)
                while addr != CHASE_BASE:
                    assert addr not in seen, (name, seed, hex(addr))
                    seen.add(addr)
                    addr = memory.read_word(addr)
                assert seen == {
                    CHASE_BASE + 64 * k for k in range(count)
                }, (name, seed)
                assert memory.read_word(CHASE_BASE + 64 * count) == 0

    def test_no_privileged_ranges(self):
        program = spec_program("gcc", 2_000, seed=0)
        assert not program.privileged


class TestKernels:
    @pytest.mark.parametrize("name", sorted(ALL_KERNELS))
    def test_kernels_run_to_completion(self, name):
        kernel = ALL_KERNELS[name](200)
        state = run_reference(kernel, max_steps=1_000_000)
        assert state.halted

    def test_pointer_chase_is_serial(self):
        from repro.config import baseline_ooo
        from repro.api import simulate
        from repro.workloads.kernels import pointer_chase, wide_alu
        chase = simulate(pointer_chase(300, 512), baseline_ooo())
        wide = simulate(wide_alu(300), baseline_ooo())
        assert chase.cpi > wide.cpi

    def test_streaming_has_mlp(self):
        from repro.config import baseline_ooo
        from repro.api import simulate
        from repro.workloads.kernels import streaming
        outcome = simulate(streaming(300), baseline_ooo())
        assert outcome.stats.mlp > 1.5

    def test_mispredict_heavy_mispredicts(self):
        from repro.config import baseline_ooo
        from repro.api import simulate
        from repro.workloads.kernels import mispredict_heavy
        outcome = simulate(mispredict_heavy(500), baseline_ooo())
        assert outcome.stats.mispredict_rate > 0.1

    def test_store_load_aliasing_violates(self):
        from repro.config import baseline_ooo
        from repro.api import simulate
        from repro.workloads.kernels import store_load_aliasing
        outcome = simulate(store_load_aliasing(300), baseline_ooo())
        assert outcome.stats.memory_violations > 0
