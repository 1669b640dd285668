"""Unit tests for the Table 1/2 taxonomy and expectation logic."""

import re
from pathlib import Path

import pytest

from repro.attacks.taxonomy import (
    IMPLEMENTED,
    TABLE1_COVERAGE,
    AttackInfo,
    expected_leak,
)
from repro.config import (
    NDAPolicyName,
    baseline_ooo,
    config_registry,
    invisispec_config,
    nda_config,
)


def by_name(name: str) -> AttackInfo:
    return next(info for info in IMPLEMENTED if info.name == name)


class TestTaxonomyStructure:
    def test_nine_attacks_implemented(self):
        assert len(IMPLEMENTED) == 9

    def test_access_classes(self):
        classes = {info.access_class for info in IMPLEMENTED}
        assert classes == {"control-steering", "chosen-code"}

    def test_chosen_code_attacks(self):
        chosen = {i.name for i in IMPLEMENTED
                  if i.access_class == "chosen-code"}
        assert chosen == {"meltdown", "lazyfp"}

    def test_btb_channel_attack_present(self):
        assert by_name("spectre_v1_btb").channel == "btb"

    def test_every_module_has_run(self):
        for info in IMPLEMENTED:
            assert callable(info.module.run)

    def test_table1_coverage_mentions_all_rows(self):
        for row in ("Spectre v1", "Spectre v2", "SSB (Spectre v4)",
                    "Meltdown (v3/v3a)", "LazyFP", "Foreshadow (L1TF)",
                    "MDS attacks", "NetSpectre", "SMoTher Spectre",
                    "ret2spec"):
            assert row in TABLE1_COVERAGE


class TestExpectedLeak:
    def test_everything_leaks_on_baseline(self):
        for info in IMPLEMENTED:
            assert expected_leak(info, baseline_ooo())

    def test_nothing_leaks_in_order(self):
        for info in IMPLEMENTED:
            assert not expected_leak(info, baseline_ooo(), in_order=True)

    def test_nothing_leaks_full_protection(self):
        config = nda_config(NDAPolicyName.FULL_PROTECTION)
        for info in IMPLEMENTED:
            assert not expected_leak(info, config)

    def test_chosen_code_needs_load_restriction(self):
        meltdown = by_name("meltdown")
        for policy in (NDAPolicyName.PERMISSIVE, NDAPolicyName.STRICT_BR):
            assert expected_leak(meltdown, nda_config(policy))
        for policy in (NDAPolicyName.LOAD_RESTRICTION,
                       NDAPolicyName.FULL_PROTECTION):
            assert not expected_leak(meltdown, nda_config(policy))

    def test_ssb_needs_bypass_restriction(self):
        ssb = by_name("ssb")
        assert expected_leak(ssb, nda_config(NDAPolicyName.PERMISSIVE))
        assert expected_leak(ssb, nda_config(NDAPolicyName.STRICT))
        assert not expected_leak(
            ssb, nda_config(NDAPolicyName.PERMISSIVE_BR)
        )
        assert not expected_leak(
            ssb, nda_config(NDAPolicyName.LOAD_RESTRICTION)
        )

    def test_gpr_needs_strict(self):
        gpr = by_name("gpr_steering")
        assert expected_leak(gpr, nda_config(NDAPolicyName.PERMISSIVE))
        assert expected_leak(
            gpr, nda_config(NDAPolicyName.LOAD_RESTRICTION)
        )
        assert not expected_leak(gpr, nda_config(NDAPolicyName.STRICT))

    def test_invisispec_fails_on_btb_channel(self):
        btb = by_name("spectre_v1_btb")
        assert expected_leak(btb, invisispec_config(False))
        assert expected_leak(btb, invisispec_config(True))

    def test_invisispec_blocks_cache_steering(self):
        v1 = by_name("spectre_v1_cache")
        assert not expected_leak(v1, invisispec_config(False))
        assert not expected_leak(v1, invisispec_config(True))

    def test_invisispec_spectre_misses_chosen_code(self):
        meltdown = by_name("meltdown")
        assert expected_leak(meltdown, invisispec_config(False))
        assert not expected_leak(meltdown, invisispec_config(True))

    def test_every_nda_policy_blocks_btb_channel(self):
        btb = by_name("spectre_v1_btb")
        for policy in NDAPolicyName:
            assert not expected_leak(btb, nda_config(policy))


class TestTable1Drift:
    """The checked-in Table 1 artifact and EXPERIMENTS.md's counts follow
    the attack list and the config registry, so a registered config
    cannot go missing from them unnoticed."""

    ROOT = Path(__file__).resolve().parent.parent

    def test_artifact_columns_and_rows_follow_the_registry(self):
        lines = (self.ROOT / "results" / "table1_matrix.txt") \
            .read_text().splitlines()
        header = re.split(r"\s{2,}", lines[1].strip())
        assert header[0] == "attack (class/channel)"
        assert header[1:] == [spec.label
                              for spec in config_registry().values()]
        attacks = [line.split()[0] for line in lines[3:] if line.strip()]
        assert attacks == [info.name for info in IMPLEMENTED]

    def test_experiments_counts_follow_the_registry(self):
        text = (self.ROOT / "EXPERIMENTS.md").read_text()
        attacks, configs = len(IMPLEMENTED), len(config_registry())
        words = {"nine": 9, "ten": 10, "eleven": 11, "twelve": 12,
                 "thirteen": 13}
        classes, columns = map(int, re.search(
            r"(\d+) PoC classes × (\d+) configs", text).groups())
        assert (classes, columns) == (attacks, configs)
        live = re.search(
            r"(\w+) attack PoCs run live against all (\w+) configurations",
            text,
        ).groups()
        assert [words[word.lower()] for word in live] == [attacks, configs]
        cells = int(re.search(r"\((\d+) parametrized cells\)", text)
                    .group(1))
        assert cells == attacks * configs


class TestTable2Drift:
    """EXPERIMENTS.md's Table 2 rows and the cost ordering it claims
    follow the checked-in results/table2.txt."""

    ROOT = Path(__file__).resolve().parent.parent
    ORDER = ["permissive", "permissive+br", "strict", "strict+br",
             "restricted loads", "full protection", "in-order"]

    def _artifact(self):
        """mechanism -> (overhead %, paper % or None)."""
        lines = (self.ROOT / "results" / "table2.txt").read_text() \
            .splitlines()
        assert re.split(r"\s{2,}", lines[1].strip())[:3] == [
            "mechanism", "overhead", "paper"]
        rows = {}
        for line in lines[3:]:
            name, overhead, paper = re.split(r"\s{2,}", line.strip())[:3]
            rows[name] = (float(overhead.rstrip("%")),
                          None if paper == "-" else float(paper.rstrip("%")))
        return rows

    def _section(self) -> str:
        text = (self.ROOT / "EXPERIMENTS.md").read_text()
        start = text.index("## Table 2")
        return text[start:text.index("\n## ", start + 1)]

    def _doc_rows(self):
        """mechanism -> (paper cell, measured cell)."""
        rows = {}
        for line in self._section().splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) == 4 and cells[1].endswith(("%", ")")):
                rows[cells[0]] = (cells[1], cells[2])
        return rows

    @staticmethod
    def _number(cell: str, unit: str) -> str:
        return re.search(r"([\d.]+)" + unit, cell).group(1)

    def test_every_row_matches_the_artifact(self):
        artifact, doc = self._artifact(), self._doc_rows()
        assert sorted(doc) == sorted(artifact)
        for name, (paper_cell, measured_cell) in doc.items():
            overhead, paper = artifact[name]
            assert float(self._number(measured_cell, "%")) == overhead, name
            if paper is not None:
                assert float(self._number(paper_cell, "%")) == paper, name
        # In-Order's slowdown factor, to the digits the doc shows.
        factor = self._number(doc["In-Order"][1], "×")
        digits = len(factor.partition(".")[2])
        overhead = artifact["In-Order"][0]
        assert float(factor) == round(1 + overhead / 100, digits)

    def test_claimed_cost_ordering_holds(self):
        claim = re.search(r"Security-ordering of costs — (.+?) —",
                          self._section(), re.S).group(1)
        order = [name.strip().lower() for name in claim.split("<")]
        assert order == self.ORDER
        overheads = {name.lower(): overhead
                     for name, (overhead, _) in self._artifact().items()}
        costs = [overheads[name] for name in order]
        assert costs == sorted(costs) and len(set(costs)) == len(costs)
