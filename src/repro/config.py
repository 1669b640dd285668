"""Simulation configuration (paper Table 3).

The defaults reproduce the gem5 configuration of the paper: an 8-issue
Haswell-like out-of-order core at 2 GHz with 192 ROB entries, 32-entry load
and store queues, a 4096-entry BTB, a 16-entry RAS, 32 kB 8-way L1 caches
with a 4-cycle round trip and one port, a 2 MB 16-way L2 with a 40-cycle
round trip, and 50 ns DRAM (100 cycles at 2 GHz).
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Optional

from repro.errors import ConfigError


#: Legacy scheme spellings -> (registry name, parameter overrides).
_LEGACY_SCHEMES = {
    "ooo": ("none", None),
    "invisispec-spectre": ("invisispec", {"future": False}),
    "invisispec-future": ("invisispec", {"future": True}),
}


class NDAPolicyName(enum.Enum):
    """The six NDA propagation policies (Table 2 rows 1-6)."""

    PERMISSIVE = "permissive"
    PERMISSIVE_BR = "permissive+br"
    STRICT = "strict"
    STRICT_BR = "strict+br"
    LOAD_RESTRICTION = "restricted-loads"
    FULL_PROTECTION = "full-protection"


@dataclass(frozen=True)
class CacheConfig:
    """One cache level."""

    size_bytes: int
    line_bytes: int
    assoc: int
    round_trip_cycles: int
    ports: int = 1

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)

    def validate(self, name: str) -> None:
        if self.size_bytes % (self.line_bytes * self.assoc):
            raise ConfigError(
                "%s size %d not divisible by line*assoc" % (name, self.size_bytes)
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("%s line size must be a power of two" % name)
        num_sets = self.num_sets
        if num_sets & (num_sets - 1):
            raise ConfigError("%s set count must be a power of two" % name)
        if self.round_trip_cycles < 1:
            raise ConfigError("%s latency must be positive" % name)


@dataclass(frozen=True)
class MemConfig:
    """Cache hierarchy + DRAM timing (Table 3)."""

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 64, 8, 4)
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 64, 8, 4)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 64, 16, 40)
    )
    dram_cycles: int = 100  # 50 ns at 2 GHz
    mshrs: int = 16  # outstanding off-chip misses

    def validate(self) -> None:
        self.l1i.validate("l1i")
        self.l1d.validate("l1d")
        self.l2.validate("l2")
        if self.dram_cycles < 1:
            raise ConfigError("dram_cycles must be positive")
        if self.mshrs < 1:
            raise ConfigError("mshrs must be positive")


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order back-end resources (Table 3)."""

    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 192
    iq_entries: int = 64
    lq_entries: int = 32
    sq_entries: int = 32
    phys_regs: int = 300
    btb_entries: int = 4096
    btb_assoc: int = 4
    ras_entries: int = 16
    bp_tables_bits: int = 12  # direction-predictor index width
    # Functional units: (count, type) mirrors a Haswell-like 8-issue core.
    num_alu: int = 4
    num_mul: int = 1
    num_div: int = 1
    num_fp: int = 2
    num_mem_ports: int = 2  # AGU/issue slots; L1D port count gates data access
    num_branch: int = 2
    # Cycles between branch resolution and the first redirected fetch.
    squash_penalty: int = 3
    # Front-end pipeline depth: cycles from fetch to rename/dispatch.
    frontend_depth: int = 4
    # Extra NDA broadcast-logic latency (Fig 9e sensitivity knob).
    nda_broadcast_delay: int = 0
    # FPU power gating (the NetSpectre covert channel, §3): after
    # fpu_sleep_cycles without an FP issue the unit powers down, and the
    # next FP op pays fpu_wakeup_cycles extra.  Wrong-path FP execution
    # wakes the unit and the squash does not put it back to sleep.
    fpu_sleep_cycles: int = 200
    fpu_wakeup_cycles: int = 20

    def validate(self) -> None:
        positive = [
            ("fetch_width", self.fetch_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("rob_entries", self.rob_entries),
            ("iq_entries", self.iq_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
            ("btb_entries", self.btb_entries),
            ("ras_entries", self.ras_entries),
            ("num_alu", self.num_alu),
            ("num_fp", self.num_fp),
            ("num_mem_ports", self.num_mem_ports),
            ("num_branch", self.num_branch),
        ]
        for name, value in positive:
            if value < 1:
                raise ConfigError("%s must be positive (got %r)" % (name, value))
        from repro.isa.registers import NUM_ARCH_REGS

        if self.phys_regs < NUM_ARCH_REGS + self.rob_entries // 2:
            raise ConfigError(
                "phys_regs=%d too small for rob_entries=%d"
                % (self.phys_regs, self.rob_entries)
            )
        if self.nda_broadcast_delay < 0:
            raise ConfigError("nda_broadcast_delay cannot be negative")
        if self.squash_penalty < 0:
            raise ConfigError("squash_penalty cannot be negative")
        if self.frontend_depth < 1:
            raise ConfigError("frontend_depth must be at least 1")
        if self.fpu_sleep_cycles < 1:
            raise ConfigError("fpu_sleep_cycles must be positive")
        if self.fpu_wakeup_cycles < 0:
            raise ConfigError("fpu_wakeup_cycles cannot be negative")


@dataclass(frozen=True)
class SimConfig:
    """Complete machine description handed to a core.

    ``scheme`` is a registry name from :mod:`repro.schemes` ("none",
    "nda", "invisispec", "fence-on-branch", or any scheme registered via
    :func:`repro.schemes.register_scheme`); ``scheme_params`` is the
    scheme's parameter dataclass (defaulted from the registry when
    omitted).  The registry's legacy names ("ooo", "invisispec-spectre",
    "invisispec-future") are coerced on construction.
    """

    core: CoreConfig = field(default_factory=CoreConfig)
    mem: MemConfig = field(default_factory=MemConfig)
    scheme: str = "none"
    scheme_params: Optional["SchemeParams"] = None
    privileged_mode: bool = False
    # Insecure-implementation flag: when True, faulting loads forward their
    # data to dependents before the fault squashes at commit (the Meltdown
    # flaw).  The paper's baseline OoO has this flaw; NDA does not need it
    # fixed because load restriction makes it unexploitable.
    forward_faulting_loads: bool = True
    # Hardware contexts sharing microarchitectural state (repro.smt).
    # ``num_contexts=1`` (the default) is the classic single-context
    # machine; ``num_contexts=2`` runs two programs co-resident under the
    # ``sharing`` mode: "smt" (one core: partitioned fetch/ROB/IQ/LSQ plus
    # shared BTB, RAS, direction predictor, and L1/L2) or "l2" (two
    # private cores + L1s sharing one L2).  Both fields are EXCLUDED from
    # to_dict()/cache_key() at their single-context defaults so existing
    # cache keys and golden files are untouched.
    num_contexts: int = 1
    sharing: str = "smt"

    def __post_init__(self) -> None:
        scheme, overrides = _LEGACY_SCHEMES.get(
            self.scheme, (self.scheme, None)
        )
        params = self.scheme_params
        if params is None:
            from repro.schemes.registry import scheme_info

            params = scheme_info(scheme).params(**(overrides or {}))
        elif overrides:
            params = replace(params, **overrides)
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "scheme_params", params)

    @property
    def nda_policy(self) -> Optional[NDAPolicyName]:
        """The Table 2 policy when ``scheme == "nda"``, else ``None``."""
        return getattr(self.scheme_params, "policy", None)

    def validate(self) -> "SimConfig":
        self.core.validate()
        self.mem.validate()
        from repro.schemes.registry import scheme_info

        info = scheme_info(self.scheme)
        if not isinstance(self.scheme_params, info.params):
            raise ConfigError(
                "scheme %r expects %s parameters (got %s)" % (
                    self.scheme, info.params.__name__,
                    type(self.scheme_params).__name__,
                )
            )
        if self.num_contexts not in (1, 2):
            raise ConfigError(
                "num_contexts must be 1 or 2 (got %r)" % (self.num_contexts,)
            )
        if self.sharing not in ("smt", "l2"):
            raise ConfigError(
                "unknown sharing mode %r (expected 'smt' or 'l2')"
                % (self.sharing,)
            )
        return self

    def label(self) -> str:
        """Human-readable configuration name used in reports."""
        from repro.schemes.registry import scheme_info

        return scheme_info(self.scheme).model.label_for(self.scheme_params)

    def to_dict(self) -> dict:
        """Nested plain-dict form (enums become their string values)."""

        def convert(obj):
            if isinstance(obj, enum.Enum):
                return obj.value
            if isinstance(obj, dict):
                return {key: convert(value) for key, value in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [convert(item) for item in obj]
            return obj

        payload = asdict(self)
        if self.num_contexts == 1:
            # Single-context configs serialize exactly as they did before
            # the context model existed, keeping cache keys and golden
            # files byte-identical.
            payload.pop("num_contexts", None)
            payload.pop("sharing", None)
        return convert(payload)

    def cache_key(self) -> str:
        """Stable content hash of the complete machine description.

        Two ``SimConfig`` instances have equal keys iff every field (core,
        memory, scheme name, the scheme's full parameter block, flags) is
        equal, so the key is safe to use for on-disk result caching and two
        schemes sharing core/mem settings can never alias.  The key only
        covers the configuration; the engine's cache additionally mixes in
        the workload and sampling parameters plus the code version.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Multi-line human-readable description of this machine."""
        lines = [
            "config: %s (scheme=%s)" % (self.label(), self.scheme),
        ]
        if self.nda_policy is not None:
            lines.append("  nda policy: %s" % self.nda_policy.value)
            if self.core.nda_broadcast_delay:
                lines.append(
                    "  nda broadcast delay: %d cycles"
                    % self.core.nda_broadcast_delay
                )
        core = self.core
        mem = self.mem
        lines.append(
            "  core: %d-issue OoO, %d ROB, %d IQ, %d/%d LQ/SQ, "
            "%d phys regs" % (
                core.issue_width, core.rob_entries, core.iq_entries,
                core.lq_entries, core.sq_entries, core.phys_regs,
            )
        )
        lines.append(
            "  frontend: %d-wide fetch, %d-entry BTB, %d-entry RAS, "
            "depth %d" % (
                core.fetch_width, core.btb_entries, core.ras_entries,
                core.frontend_depth,
            )
        )
        lines.append(
            "  memory: L1 %dkB/%d-way %dc, L2 %dkB/%d-way %dc, "
            "DRAM %dc, %d MSHRs" % (
                mem.l1d.size_bytes // 1024, mem.l1d.assoc,
                mem.l1d.round_trip_cycles,
                mem.l2.size_bytes // 1024, mem.l2.assoc,
                mem.l2.round_trip_cycles,
                mem.dram_cycles, mem.mshrs,
            )
        )
        if self.num_contexts > 1:
            lines.append(
                "  contexts: %d (%s sharing)"
                % (self.num_contexts,
                   "SMT core" if self.sharing == "smt" else "shared-L2")
            )
        lines.append("  cache key: %s" % self.cache_key()[:16])
        return "\n".join(lines)


def baseline_ooo() -> SimConfig:
    """The unconstrained (insecure) OoO baseline."""
    return SimConfig().validate()


def nda_config(policy: NDAPolicyName, **core_overrides) -> SimConfig:
    """An NDA configuration with the given Table 2 policy."""
    from repro.schemes.nda import NDAParams

    if not isinstance(policy, NDAPolicyName):
        policy = NDAPolicyName(policy)
    core = CoreConfig(**core_overrides) if core_overrides else CoreConfig()
    return SimConfig(
        core=core, scheme="nda", scheme_params=NDAParams(policy=policy)
    ).validate()


def invisispec_config(future: bool = False) -> SimConfig:
    """An InvisiSpec comparison configuration."""
    from repro.schemes.invisispec import InvisiSpecParams

    return SimConfig(
        scheme="invisispec",
        scheme_params=InvisiSpecParams(future=bool(future)),
    ).validate()


def scheme_config(name: str, **params) -> SimConfig:
    """A configuration for any registered scheme, by registry name.

    ``params`` override fields of the scheme's parameter dataclass::

        scheme_config("fence-on-branch", fence_loads=False)

    Legacy scheme spellings ("ooo", "invisispec-future", ...) are
    accepted.
    """
    from repro.schemes.registry import scheme_info

    scheme, overrides = _LEGACY_SCHEMES.get(name, (name, None))
    merged = dict(overrides or {})
    merged.update(params)
    info = scheme_info(scheme)
    return SimConfig(
        scheme=scheme, scheme_params=info.params(**merged)
    ).validate()


@dataclass(frozen=True)
class ConfigSpec:
    """One named entry of the configuration sweep.

    ``name`` is the CLI/registry key (kebab-case), ``label`` the paper's
    legend text.
    """

    label: str
    config: SimConfig
    in_order: bool = False
    name: str = ""

    @classmethod
    def coerce(cls, spec) -> "ConfigSpec":
        """Accept a ConfigSpec or a registry name ("ooo", "strict", ...)."""
        if isinstance(spec, cls):
            return spec
        registry = config_registry()
        if not isinstance(spec, str) or spec not in registry:
            raise ConfigError(
                "unknown config name %r; known: %s"
                % (spec, ", ".join(sorted(registry)))
            )
        return registry[spec]


def config_registry() -> "Dict[str, ConfigSpec]":
    """Canonical name -> :class:`ConfigSpec` map for every configuration.

    This is the single source of truth shared by the CLI ``--config``
    choices, ``figure7_config_specs()``, and the benchmarks.  It is
    derived from the scheme registry (:mod:`repro.schemes`): each
    registered scheme contributes its ``variants()`` presets, so newly
    registered schemes appear here — and therefore in the CLI, the attack
    matrix, and the sweeps — automatically.  Insertion order is the
    paper's Fig. 7 legend order (In-Order sits between the NDA policies
    and InvisiSpec; extra schemes append at the end), so
    ``list(config_registry().values())`` is directly usable as a sweep.
    """
    from repro.schemes.registry import registered_schemes

    registry: Dict[str, ConfigSpec] = {}

    def add(name: str, config: SimConfig, in_order: bool = False,
            label: str = "") -> None:
        registry[name] = ConfigSpec(
            label=label or config.label(), config=config,
            in_order=in_order, name=name,
        )

    for scheme_name, info in registered_schemes().items():
        for name, params in info.model.variants():
            add(name, SimConfig(
                scheme=scheme_name, scheme_params=params
            ).validate())
        if scheme_name == "nda":
            # The in-order baseline is a different core class, not a
            # scheme; the legend slots it between NDA and InvisiSpec.
            add("in-order", baseline_ooo(), in_order=True, label="In-Order")
    return registry


def with_nda_delay(config: SimConfig, delay: int) -> SimConfig:
    """Clone *config* with a different NDA broadcast-logic delay (Fig 9e)."""
    return replace(
        config, core=replace(config.core, nda_broadcast_delay=delay)
    ).validate()
