"""In-order timing core (gem5 ``TimingSimpleCPU`` analog).

One instruction at a time: fetch pays the instruction cache when it crosses
a line boundary, execution pays the functional-unit latency, memory ops pay
the full data-cache round trip, and nothing overlaps.  The core performs no
speculation of any kind, so it is trivially immune to every attack in the
paper — it is the performance floor NDA is measured against (the only other
execution model known to defeat all 25 documented attacks, §6.3).
"""

from __future__ import annotations

import time
from typing import Optional

from repro.config import SimConfig
from repro.core.outcome import RunOutcome
from repro.errors import DeadlockError
from repro.frontend.fetch import INSTR_BYTES
from repro.isa.opcodes import FUType, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, R0
from repro.isa.semantics import MachineState, branch_taken, eval_alu
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.memory import MainMemory, U64_MASK
from repro.stats.counters import CycleClass, PipelineStats


class InOrderCore:
    """Serial fetch/execute/memory machine sharing the OoO cache hierarchy."""

    def __init__(self, program: Program, config: Optional[SimConfig] = None):
        self.config = (config or SimConfig()).validate()
        self.program = program
        self.mem = MainMemory()
        self.mem.load_image(program.data)
        self.msrs = dict(program.msrs)
        self.hierarchy = MemoryHierarchy(self.config.mem)
        self.regs = [0] * NUM_ARCH_REGS
        for reg, value in program.initial_regs.items():
            self.regs[reg] = value & U64_MASK
        self.regs[R0] = 0
        self.pc = 0
        self.cycle = 0
        self.halted = False
        self.committed = 0
        self.stats = PipelineStats()
        self._current_line = -1
        self._fpu_last_issue = -(10 ** 9)  # FPU power gating
        # Optional telemetry EventBus (see repro.obs.bus): pure
        # observer, guarded by an is-None test at every use.
        self.obs = None

    # ------------------------------------------------------------------ #

    def run(self, max_cycles: int = 50_000_000) -> RunOutcome:
        wall_start = time.perf_counter()
        while not self.halted and self.cycle < max_cycles:
            self.step()
        if not self.halted and self.cycle >= max_cycles:
            raise DeadlockError(
                "in-order core exceeded %d cycles" % max_cycles
            )
        self.stats.cycles = self.cycle
        self.stats.committed = self.committed
        wall = time.perf_counter() - wall_start
        self.stats.sim_wall_seconds = wall
        self.stats.kilo_cycles_per_sec = (
            self.cycle / wall / 1000.0 if wall > 0 else 0.0
        )
        return RunOutcome(
            state=self.arch_state(), stats=self.stats, label="In-Order"
        )

    def run_to_commit(self, target: int, max_cycles: int) -> None:
        """Step until *target* committed instructions, HALT, or budget
        (driver-loop parity with ``OutOfOrderCore.run_to_commit``)."""
        while (
            not self.halted
            and self.cycle < max_cycles
            and self.committed < target
        ):
            self.step()

    def arch_state(self) -> MachineState:
        return MachineState(
            regs=list(self.regs),
            memory=self.mem,
            halted=self.halted,
            pc=self.pc,
            committed=self.committed,
            faults=self.stats.faults,
        )

    # ------------------------------------------------------------------ #

    def _write(self, rd: Optional[int], value: int) -> None:
        if rd is not None and rd != R0:
            self.regs[rd] = value & U64_MASK

    def _charge(self, cycles: int, label: str) -> None:
        self.cycle += cycles
        self.stats.cycle_class[label] += cycles
        if label == CycleClass.MEMORY_STALL and cycles > 0:
            # Exactly one memory access is ever outstanding: MLP == 1.
            self.stats.mlp_sum += cycles
            self.stats.mlp_cycles += cycles

    def step(self) -> None:
        """Fetch, execute, and retire exactly one instruction."""
        start_cycle = self.cycle
        obs = self.obs
        if obs is not None and obs.sample_due <= start_cycle:
            obs.sample(self, start_cycle)
        instr = self.program.fetch(self.pc)
        if instr is None:
            self.halted = True
            return
        pc = self.pc

        # Instruction fetch: pay the I-side latency on each new line.
        line = (self.pc * INSTR_BYTES) >> 6
        if line != self._current_line:
            result = self.hierarchy.inst_access(self.pc * INSTR_BYTES,
                                                self.cycle)
            self._charge(result.latency, CycleClass.FRONTEND_STALL)
            self._current_line = line

        op = instr.op
        info = instr.info
        regs = self.regs
        next_pc = self.pc + 1
        fault: Optional[str] = None

        if op in (Opcode.NOP, Opcode.FENCE):
            self._charge(1, CycleClass.COMMIT)
        elif op is Opcode.HALT:
            self._charge(1, CycleClass.COMMIT)
            self.halted = True
        elif op is Opcode.RDTSC:
            self._charge(1, CycleClass.COMMIT)
            self._write(instr.rd, self.cycle)
        elif op is Opcode.RDMSR:
            self._charge(info.latency - 1, CycleClass.BACKEND_STALL)
            self._charge(1, CycleClass.COMMIT)
            if self.config.privileged_mode:
                self._write(instr.rd, self.msrs.get(instr.imm, 0))
            else:
                fault = "user rdmsr"
        elif op is Opcode.CLFLUSH:
            addr = (regs[instr.srcs[0]] + instr.imm) & U64_MASK
            self.hierarchy.flush_data_line(addr)
            self._charge(1, CycleClass.COMMIT)
        elif info.is_load:
            addr = (regs[instr.srcs[0]] + instr.imm) & U64_MASK
            result = self.hierarchy.data_access(addr, self.cycle)
            self._charge(result.latency - 1, CycleClass.MEMORY_STALL)
            self._charge(1, CycleClass.COMMIT)
            if not self.config.privileged_mode and \
                    self.program.is_privileged_addr(addr):
                fault = "user load"
            elif op is Opcode.LOADB:
                self._write(instr.rd, self.mem.read_byte(addr))
            else:
                self._write(instr.rd, self.mem.read_word(addr))
        elif info.is_store:
            addr = (regs[instr.srcs[0]] + instr.imm) & U64_MASK
            result = self.hierarchy.data_access(addr, self.cycle)
            self._charge(result.latency - 1, CycleClass.MEMORY_STALL)
            self._charge(1, CycleClass.COMMIT)
            if not self.config.privileged_mode and \
                    self.program.is_privileged_addr(addr):
                fault = "user store"
            else:
                value = regs[instr.srcs[1]]
                if op is Opcode.STOREB:
                    self.mem.write_byte(addr, value)
                else:
                    self.mem.write_word(addr, value)
        elif info.is_branch:
            self._charge(1, CycleClass.COMMIT)
            next_pc = self._branch(instr, next_pc)
        else:
            if info.fu is FUType.FP:
                core = self.config.core
                if self.cycle - self._fpu_last_issue > core.fpu_sleep_cycles:
                    self._charge(core.fpu_wakeup_cycles,
                                 CycleClass.BACKEND_STALL)
                self._fpu_last_issue = self.cycle
            self._charge(info.latency - 1, CycleClass.BACKEND_STALL)
            self._charge(1, CycleClass.COMMIT)
            a = regs[instr.srcs[0]] if instr.srcs else 0
            b = regs[instr.srcs[1]] if len(instr.srcs) > 1 else 0
            self._write(instr.rd, eval_alu(op, a, b, instr.imm))

        if fault is not None:
            self.stats.faults += 1
            if self.program.fault_handler is None:
                self.halted = True
            else:
                next_pc = self.program.fault_handler
        self.committed += 1
        # One instruction per busy cycle: ILP == 1 by construction.
        self.stats.issued += 1
        self.stats.ilp_sum += 1
        self.stats.ilp_cycles += 1
        self.regs[R0] = 0
        if not self.halted:
            self.pc = next_pc
        self.stats.branches_resolved += int(info.is_branch)
        if obs is not None and obs.inorder_step is not None:
            obs.inorder_step(pc, instr, start_cycle, self.cycle)

    def _branch(self, instr, next_pc: int) -> int:
        op = instr.op
        regs = self.regs
        if instr.info.is_conditional:
            a, b = regs[instr.srcs[0]], regs[instr.srcs[1]]
            return instr.target if branch_taken(op, a, b) else next_pc
        if op is Opcode.JMP:
            return instr.target
        if op is Opcode.JR:
            return regs[instr.srcs[0]] & U64_MASK
        if op is Opcode.CALL:
            self._write(instr.rd, next_pc)
            return instr.target
        if op is Opcode.CALLR:
            target = regs[instr.srcs[0]] & U64_MASK
            self._write(instr.rd, next_pc)
            return target
        return regs[instr.srcs[0]] & U64_MASK  # RET
