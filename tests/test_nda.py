"""NDA unit and behavioural tests: policies, safety tracking, broadcast."""

from repro.config import NDAPolicyName, baseline_ooo, nda_config
from repro.api import simulate
from repro.core.rob import DynInstr
from repro.frontend.fetch import FetchedOp
from repro.isa.assembler import Assembler
from repro.isa.instruction import Instr
from repro.isa.opcodes import Opcode
from repro.isa.registers import R0, R1, R2, R3, R4, R5, R6, R7
from repro.nda.broadcast import BroadcastArbiter
from repro.nda.policy import ALL_POLICIES, policy_for
from repro.nda.safety import SafetyTracker


def dyn(seq, instr):
    fetched = FetchedOp(instr, pc=seq, fetch_cycle=0, pred_next_pc=seq + 1)
    return DynInstr(seq, fetched, 0)


def branch(seq):
    return dyn(seq, Instr(Opcode.BEQ, rs1=R1, rs2=R2, target=0))


def load(seq):
    return dyn(seq, Instr(Opcode.LOAD, rd=R1, rs1=R2))


def alu(seq):
    return dyn(seq, Instr(Opcode.ADD, rd=R1, rs1=R2, rs2=R3))


def store(seq):
    return dyn(seq, Instr(Opcode.STORE, rs1=R2, rs2=R3))


class TestPolicyTable:
    def test_all_six_rows_exist(self):
        assert len(ALL_POLICIES) == 6
        assert {p.name for p in ALL_POLICIES} == set(NDAPolicyName)

    def test_permissive_rules(self):
        policy = policy_for(NDAPolicyName.PERMISSIVE)
        assert policy.branch_borders
        assert not policy.restrict_all
        assert not policy.bypass_restriction
        assert not policy.load_restriction
        assert not policy.blocks_ssb
        assert not policy.blocks_chosen_code
        assert policy.blocks_control_steering

    def test_strict_protects_gprs(self):
        assert policy_for(NDAPolicyName.STRICT).protects_gprs
        assert not policy_for(NDAPolicyName.PERMISSIVE).protects_gprs

    def test_br_rows_block_ssb(self):
        for name in (NDAPolicyName.PERMISSIVE_BR, NDAPolicyName.STRICT_BR,
                     NDAPolicyName.LOAD_RESTRICTION,
                     NDAPolicyName.FULL_PROTECTION):
            assert policy_for(name).blocks_ssb, name

    def test_only_load_restriction_blocks_chosen_code(self):
        for policy in ALL_POLICIES:
            expected = policy.name in (
                NDAPolicyName.LOAD_RESTRICTION,
                NDAPolicyName.FULL_PROTECTION,
            )
            assert policy.blocks_chosen_code == expected

    def test_full_protection_is_union(self):
        policy = policy_for(NDAPolicyName.FULL_PROTECTION)
        assert policy.branch_borders and policy.restrict_all
        assert policy.bypass_restriction and policy.load_restriction


class TestSafetyTracker:
    def test_no_policy_everything_safe(self):
        tracker = SafetyTracker(None)
        entry = load(5)
        tracker.on_dispatch(branch(1))
        assert tracker.is_safe(entry, head_seq=0)

    def test_branch_guard_blocks_younger(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.PERMISSIVE))
        older_branch = branch(1)
        tracker.on_dispatch(older_branch)
        target = load(5)
        assert not tracker.is_safe(target, head_seq=0)
        tracker.on_branch_resolved(older_branch)
        assert tracker.is_safe(target, head_seq=0)

    def test_branch_guard_ignores_older_entries(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.PERMISSIVE))
        tracker.on_dispatch(branch(10))
        assert tracker.is_safe(load(5), head_seq=0)  # load is older

    def test_permissive_lets_alu_through(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.PERMISSIVE))
        tracker.on_dispatch(branch(1))
        assert tracker.is_safe(alu(5), head_seq=0)
        assert not tracker.is_safe(load(5), head_seq=0)

    def test_strict_blocks_alu_too(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.STRICT))
        tracker.on_dispatch(branch(1))
        assert not tracker.is_safe(alu(5), head_seq=0)

    def test_rdmsr_treated_like_load(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.PERMISSIVE))
        tracker.on_dispatch(branch(1))
        msr_read = dyn(5, Instr(Opcode.RDMSR, rd=R1, imm=0))
        assert not tracker.is_safe(msr_read, head_seq=0)

    def test_bypass_restriction(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.PERMISSIVE_BR))
        pending_store = store(2)
        tracker.on_dispatch(pending_store)
        target = load(5)
        target.bypassed_stores = {2}
        assert not tracker.is_safe(target, head_seq=0)
        tracker.on_store_resolved(pending_store)
        assert tracker.is_safe(target, head_seq=0)

    def test_bypass_ignored_without_br(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.PERMISSIVE))
        tracker.on_dispatch(store(2))
        target = load(5)
        target.bypassed_stores = {2}
        assert tracker.is_safe(target, head_seq=0)

    def test_load_restriction_requires_head(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.LOAD_RESTRICTION))
        target = load(5)
        assert not tracker.is_safe(target, head_seq=3)
        assert tracker.is_safe(target, head_seq=5)

    def test_load_restriction_blocks_faulting_head(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.LOAD_RESTRICTION))
        target = load(5)
        target.fault = "user load"
        assert not tracker.is_safe(target, head_seq=5)

    def test_load_restriction_lets_alu_through(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.LOAD_RESTRICTION))
        assert tracker.is_safe(alu(5), head_seq=0)

    def test_squash_clears_guards(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.STRICT))
        wrong_path_branch = branch(3)
        tracker.on_dispatch(wrong_path_branch)
        tracker.on_squash(wrong_path_branch)
        assert tracker.is_safe(alu(5), head_seq=0)

    def test_eldest_unresolved_branch_tracking(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.STRICT))
        first, second = branch(2), branch(7)
        tracker.on_dispatch(first)
        tracker.on_dispatch(second)
        assert tracker.eldest_unresolved_branch() == 2
        tracker.on_branch_resolved(first)
        assert tracker.eldest_unresolved_branch() == 7

    def test_reset(self):
        tracker = SafetyTracker(policy_for(NDAPolicyName.STRICT))
        tracker.on_dispatch(branch(1))
        tracker.reset()
        assert tracker.eldest_unresolved_branch() is None


class TestBroadcastArbiter:
    def _entry(self, seq, dest=40):
        entry = alu(seq)
        entry.phys_dest = dest
        entry.completed = True
        return entry

    def test_drain_broadcasts_safe_entries(self):
        arbiter = BroadcastArbiter(ports=2)
        entry = self._entry(0)
        arbiter.defer(entry)
        done = arbiter.drain(5, 0, lambda e: True, lambda e: None)
        assert done == 1
        assert not arbiter.deferred

    def test_unsafe_entries_stay(self):
        arbiter = BroadcastArbiter(ports=2)
        arbiter.defer(self._entry(0))
        done = arbiter.drain(5, 0, lambda e: False, lambda e: None)
        assert done == 0
        assert len(arbiter.deferred) == 1

    def test_port_limit(self):
        arbiter = BroadcastArbiter(ports=2)
        for seq in range(3):
            arbiter.defer(self._entry(seq))
        done = arbiter.drain(5, 0, lambda e: True, lambda e: None)
        assert done == 2
        assert len(arbiter.deferred) == 1
        assert arbiter.port_conflicts >= 1

    def test_completing_instructions_have_priority(self):
        arbiter = BroadcastArbiter(ports=2)
        arbiter.defer(self._entry(0))
        done = arbiter.drain(5, ports_used=2, is_safe=lambda e: True,
                             broadcast=lambda e: None)
        assert done == 0

    def test_oldest_first(self):
        arbiter = BroadcastArbiter(ports=1)
        young, old = self._entry(9), self._entry(1)
        arbiter.defer(young)
        arbiter.defer(old)
        broadcast = []
        arbiter.drain(5, 0, lambda e: True, broadcast.append)
        assert broadcast == [old]

    def test_extra_delay(self):
        arbiter = BroadcastArbiter(ports=2, extra_delay=2)
        entry = self._entry(0)
        arbiter.defer(entry)
        assert arbiter.drain(10, 0, lambda e: True, lambda e: None) == 0
        assert entry.safe_cycle == 10
        assert arbiter.drain(11, 0, lambda e: True, lambda e: None) == 0
        assert arbiter.drain(12, 0, lambda e: True, lambda e: None) == 1

    def test_delay_resets_if_unsafe_again(self):
        arbiter = BroadcastArbiter(ports=2, extra_delay=1)
        entry = self._entry(0)
        arbiter.defer(entry)
        arbiter.drain(10, 0, lambda e: True, lambda e: None)
        arbiter.drain(11, 0, lambda e: False, lambda e: None)
        assert entry.safe_cycle == -1

    def test_remove_squashed(self):
        arbiter = BroadcastArbiter(ports=2)
        entry = self._entry(0)
        arbiter.defer(entry)
        entry.squashed = True
        arbiter.remove_squashed()
        assert not arbiter.deferred


class TestNDABehaviour:
    """End-to-end effects of each policy on the dynamic schedule."""

    def _slow_branch_loop(self):
        asm = Assembler()
        asm.li(R1, 150)
        asm.li(R7, 7)
        asm.li(R2, 0)
        asm.label("loop")
        asm.div(R3, R1, R7)  # slow condition: branch resolves late
        asm.bne(R3, R3, "loop_b")  # never taken, resolves late
        asm.label("loop_b")
        asm.addi(R2, R2, 1)  # dependent chain after the branch
        asm.add(R4, R2, R2)
        asm.add(R5, R4, R2)
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        asm.halt()
        return asm.build()

    def test_strict_slower_than_baseline_behind_slow_branches(self):
        program = self._slow_branch_loop()
        base = simulate(program, baseline_ooo())
        strict = simulate(program, nda_config(NDAPolicyName.STRICT))
        assert strict.stats.cycles > base.stats.cycles

    def test_permissive_tracks_baseline_on_alu_chains(self):
        program = self._slow_branch_loop()
        base = simulate(program, baseline_ooo())
        permissive = simulate(
            program, nda_config(NDAPolicyName.PERMISSIVE)
        )
        # No loads: permissive marks nothing unsafe.
        assert permissive.stats.cycles == base.stats.cycles

    def test_dispatch_to_issue_grows_with_strict(self):
        program = self._slow_branch_loop()
        base = simulate(program, baseline_ooo())
        strict = simulate(program, nda_config(NDAPolicyName.STRICT))
        assert strict.stats.mean_dispatch_to_issue > \
            base.stats.mean_dispatch_to_issue

    def test_load_restriction_delays_load_consumers(self):
        asm = Assembler()
        base_addr = 0xE000
        asm.li(R1, 200)
        asm.li(R2, base_addr)
        asm.label("loop")
        asm.load(R3, R2, 0)
        asm.add(R4, R3, R3)  # consumer must wait for retire
        asm.load(R5, R2, 8)
        asm.add(R6, R5, R4)
        asm.subi(R1, R1, 1)
        asm.bne(R1, R0, "loop")
        asm.halt()
        program = asm.build()
        base = simulate(program, baseline_ooo())
        restricted = simulate(
            program, nda_config(NDAPolicyName.LOAD_RESTRICTION)
        )
        assert restricted.stats.cycles > base.stats.cycles
        assert restricted.stats.deferred_broadcasts > 0

    def test_policy_overhead_ordering_on_mixed_kernel(self):
        from repro.workloads.kernels import mispredict_heavy
        program = mispredict_heavy(500)
        cycles = {}
        for name in (None, NDAPolicyName.PERMISSIVE, NDAPolicyName.STRICT,
                     NDAPolicyName.FULL_PROTECTION):
            config = baseline_ooo() if name is None else nda_config(name)
            label = "ooo" if name is None else name.value
            cycles[label] = simulate(program, config).stats.cycles
        assert cycles["ooo"] <= cycles["permissive"]
        assert cycles["permissive"] <= cycles["strict"]
        assert cycles["strict"] <= cycles["full-protection"]

    def test_broadcast_delay_knob_slows_execution(self):
        from repro.config import with_nda_delay
        from repro.workloads.kernels import mispredict_heavy
        program = mispredict_heavy(400)
        base_config = nda_config(NDAPolicyName.PERMISSIVE)
        delayed = with_nda_delay(base_config, 2)
        fast = simulate(program, base_config)
        slow = simulate(program, delayed)
        assert slow.stats.cycles >= fast.stats.cycles

    def test_nda_preserves_mlp_over_inorder(self):
        from repro.api import simulate
        from repro.workloads.kernels import streaming
        program = streaming(400)
        full = simulate(
            program, nda_config(NDAPolicyName.FULL_PROTECTION)
        )
        assert full.stats.mlp > 1.0  # independent misses still overlap
