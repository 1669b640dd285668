"""Tests for simulation configuration validation and factories."""

from dataclasses import replace

import pytest

from repro.config import (
    CacheConfig,
    CoreConfig,
    MemConfig,
    NDAPolicyName,
    baseline_ooo,
    config_registry,
    invisispec_config,
    nda_config,
    with_nda_delay,
)
from repro.errors import ConfigError


class TestCacheConfig:
    def test_table3_l1_geometry(self):
        config = MemConfig()
        assert config.l1d.num_sets == 64
        assert config.l1d.round_trip_cycles == 4
        assert config.l2.num_sets == 2048

    def test_bad_line_size(self):
        with pytest.raises(ConfigError):
            CacheConfig(1024, 48, 2, 4).validate("x")

    def test_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheConfig(3 * 64 * 2, 64, 2, 4).validate("x")

    def test_zero_latency(self):
        with pytest.raises(ConfigError):
            CacheConfig(1024, 64, 2, 0).validate("x")


class TestCoreConfig:
    def test_default_is_table3(self):
        core = CoreConfig()
        assert core.issue_width == 8
        assert core.rob_entries == 192
        assert core.lq_entries == 32
        assert core.sq_entries == 32
        assert core.btb_entries == 4096
        assert core.ras_entries == 16

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(issue_width=0).validate()

    def test_too_few_phys_regs(self):
        with pytest.raises(ConfigError):
            CoreConfig(phys_regs=50).validate()

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            CoreConfig(nda_broadcast_delay=-1).validate()

    def test_frontend_depth_minimum(self):
        with pytest.raises(ConfigError):
            CoreConfig(frontend_depth=0).validate()


class TestSimConfig:
    def test_baseline_label(self):
        assert baseline_ooo().label() == "OoO"

    def test_nda_labels(self):
        assert nda_config(NDAPolicyName.PERMISSIVE).label() == "Permissive"
        assert nda_config(
            NDAPolicyName.FULL_PROTECTION
        ).label() == "Full Protection"

    def test_invisispec_labels(self):
        assert invisispec_config(False).label() == "InvisiSpec-Spectre"
        assert invisispec_config(True).label() == "InvisiSpec-Future"

    def test_nda_factory_scheme(self):
        config = nda_config(NDAPolicyName.STRICT)
        assert config.scheme == "nda"
        assert config.nda_policy is NDAPolicyName.STRICT

    def test_core_overrides(self):
        config = nda_config(NDAPolicyName.STRICT, rob_entries=64)
        assert config.core.rob_entries == 64

    def test_with_nda_delay(self):
        config = with_nda_delay(nda_config(NDAPolicyName.PERMISSIVE), 2)
        assert config.core.nda_broadcast_delay == 2
        assert config.nda_policy is NDAPolicyName.PERMISSIVE

    def test_figure7_configs_complete(self):
        labels = [spec.label for spec in config_registry().values()
                  if not spec.in_order]
        assert labels == [
            "OoO", "Permissive", "Permissive+BR", "Strict", "Strict+BR",
            "Restricted Loads", "Full Protection", "InvisiSpec-Spectre",
            "InvisiSpec-Future", "FenceOnBranch",
        ]

    def test_forward_faulting_loads_default_on(self):
        # The paper's baseline hardware has the Meltdown flaw.
        assert baseline_ooo().forward_faulting_loads

    def test_validate_returns_self(self):
        config = baseline_ooo()
        assert config.validate() is config
