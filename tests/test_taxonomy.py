"""Unit tests for the Table 1/2 taxonomy and expectation logic."""

import math
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


class TestFigureDrift:
    """EXPERIMENTS.md's figure numbers and headline rows follow the
    checked-in results/*.txt."""

    ROOT = Path(__file__).resolve().parent.parent
    NDA = ["Permissive", "Permissive+BR", "Strict", "Strict+BR",
           "Restricted Loads", "Full Protection"]
    #: EXPERIMENTS.md's short names for the artifacts' row labels.
    SHORT = {"Full": "Full Protection", "IS-Spectre": "InvisiSpec-Spectre",
             "IS-Future": "InvisiSpec-Future"}

    def _raw_section(self, heading: str) -> str:
        text = (self.ROOT / "EXPERIMENTS.md").read_text()
        start = text.index("\n## " + heading)
        end = text.find("\n## ", start + 1)
        return text[start:end if end > 0 else None]

    def _section(self, heading: str) -> str:
        """One section of EXPERIMENTS.md, whitespace collapsed."""
        return " ".join(self._raw_section(heading).split())

    def _tables(self, name: str) -> dict:
        """title -> {row label: {column: cell}} for each table in
        results/<name>: a title, a header and a dashed rule, then rows."""
        tables = {}
        text = (self.ROOT / "results" / name).read_text()
        for block in text.split("\n\n"):
            lines = block.strip("\n").splitlines()
            if len(lines) < 3 or set(lines[2]) - {"-", " "}:
                continue
            header = re.split(r"\s{2,}", lines[1].strip())
            tables[lines[0]] = {
                cells[0]: dict(zip(header[1:], cells[1:]))
                for cells in (re.split(r"\s{2,}", line.strip())
                              for line in lines[3:])
            }
        return tables

    def _table(self, name: str) -> dict:
        (table,) = self._tables(name).values()
        return table

    def _doc_table(self, heading: str) -> list:
        """The cells of each markdown table row in one EXPERIMENTS.md
        section, header first, the |---| rule skipped."""
        return [[cell.strip() for cell in line.strip("|").split("|")]
                for line in self._raw_section(heading).splitlines()
                if line.startswith("|") and not line.startswith("|--")]

    def _series(self, name: str) -> dict:
        """channel -> {guess: cycles} of a Fig. 4/8 artifact."""
        return {
            re.search(r"\((\w+) channel", title).group(1): {
                int(guess): int(row["cycles"]) for guess, row in rows.items()
            }
            for title, rows in self._tables(name).items()
        }

    def test_fig4_timings_and_plateaus(self):
        doc = self._section("Fig. 4")
        series = self._series("figure4.txt")
        sweep, secret = map(int, re.search(
            r"(\d+)-guess sweep, secret byte (\d+)", doc).groups())
        cache = re.search(r"cache channel: guess (\d+) reads in "
                          r"\*\*(\d+) cycles\*\* vs\. a ~(\d+)-cycle", doc)
        btb = re.search(r"BTB channel: guess (\d+) in \*\*(\d+) cycles\*\* "
                        r"vs\. a (\d+)-cycle plateau \(\*\*Δ ≈ (\d+)", doc)
        for channel, match in (("cache", cache), ("btb", btb)):
            guess, hit, plateau = map(int, match.groups()[:3])
            timings = series[channel]
            assert len(timings) == sweep and guess == secret, channel
            assert timings.pop(secret) == hit, channel
            assert set(timings.values()) == {plateau}, channel
        assert int(btb.group(4)) == int(btb.group(3)) - int(btb.group(2))

    def test_fig8_series_are_flat(self):
        doc = self._section("Fig. 8")
        series = self._series("figure8.txt")
        cache, btb = map(int, re.search(
            r"cache: every guess (\d+) cycles; BTB: every guess (\d+) "
            r"cycles", doc).groups())
        assert set(series["cache"].values()) == {cache}
        assert set(series["btb"].values()) == {btb}
        others = int(re.search(r"other (\d+) candidates", doc).group(1))
        assert len(series["cache"]) == len(series["btb"]) == others + 1

    def test_fig7_mean_row_and_ci_range(self):
        doc = self._section("Fig. 7")
        table = self._table("figure7.txt")
        claimed = re.search(r"Mean normalized CPI: (.+?)\. ", doc).group(1)
        means = {}
        for item in claimed.split(", "):
            name, value = item.rsplit(" ", 1)
            means[self.SHORT.get(name, name)] = value
        assert means == table.pop("MEAN")
        halves = [float(cell.split("+/-")[1])
                  for row in table.values() for cell in row.values()]
        low, high = re.search(r"95% CIs .+? are ±(\d+\.\d+)–(\d+\.\d+)",
                              doc).groups()
        assert (low, high) == ("%.2f" % min(halves), "%.2f" % max(halves))
        mcf = float(table["mcf"]["In-Order"].split("+/-")[0])
        assert re.search(r"\(mcf ([\d.]+)×\)", doc).group(1) == \
            "%.1f" % mcf

    def test_fig9a_cells(self):
        doc = self._section("Fig. 9a")
        table = self._table("figure9a.txt")
        ooo, full = table["OoO"], table["Full Protection"]
        memory = re.search(r"memory stalls \(([\d.]+) → ([\d.]+) for full "
                           r"protection\)", doc).groups()
        commit = re.search(r"commit cycles \(([\d.]+) → ([\d.]+)\)",
                           doc).groups()
        assert memory == (ooo["memory_stall"], full["memory_stall"])
        assert commit == (ooo["commit"], full["commit"])
        flat = re.search(r"front-end stalls flat \(~([\d.]+)", doc).group(1)
        assert {table[name]["frontend_stall"]
                for name in ["OoO"] + self.NDA} == {flat}

    def test_fig9bc_table_and_dips(self):
        header, *rows = self._doc_table("Fig. 9b/9c")
        columns = [self.SHORT.get(name, name) for name in header[1:]]
        table = self._table("figure9bc.txt")
        assert [row[0] for row in rows] == ["MLP", "ILP"]
        for metric, *cells in rows:
            assert cells == [table[name][metric] for name in columns]
        doc = self._section("Fig. 9b/9c")
        bounds = re.search(r"≤ (\d+)% / ≤ (\d+)%", doc).groups()
        for metric, bound in zip(("MLP", "ILP"), bounds):
            base = float(table["OoO"][metric])
            lowest = min(float(table[name][metric]) for name in self.NDA)
            assert int(bound) == math.ceil(100.0 * (1.0 - lowest / base))
            assert lowest > float(table["In-Order"][metric]) == 1.0
        # InvisiSpec's MLP reads higher than OoO's.
        assert min(float(table[name]["MLP"]) for name in (
            "InvisiSpec-Spectre", "InvisiSpec-Future",
        )) > float(table["OoO"]["MLP"])

    def test_fig9d_deltas(self):
        doc = self._section("Fig. 9d")
        means = {name: float(row["dispatch-to-issue (cycles)"])
                 for name, row in self._tables("figure9d.txt")[
                     "Figure 9d: latency from dispatch to issue (means)"
                 ].items()}
        base, *deltas = map(int, re.search(
            r"Means: OoO (\d+) → Permissive \+(\d+) → Strict \+(\d+) → "
            r"Full \+(\d+) cycles", doc).groups())
        assert base == round(means["OoO"])
        assert deltas == [
            round(means[name] - means["OoO"])
            for name in ("Permissive", "Strict", "Full Protection")
        ]

    def test_fig9e_cpis(self):
        doc = self._section("Fig. 9e")
        cpis = [row["normalized CPI"]
                for row in self._table("figure9e.txt").values()]
        match = re.search(r"normalized CPI ([\d.]+) / ([\d.]+) / ([\d.]+) "
                          r"— a one-cycle delay costs \*\*([\d.]+)%\*\*", doc)
        assert list(match.groups()[:3]) == cpis
        cost = 100.0 * (float(cpis[1]) / float(cpis[0]) - 1.0)
        assert match.group(4) == "%.1f" % cost

    def test_headline_rows(self):
        table = self._table("table2.txt")
        rows = {cells[0]: cells[1:3]
                for cells in self._doc_table("Headline claims")[1:]}
        closed = [int(table[name]["gap closed"].rstrip("%"))
                  for name in self.NDA]
        assert rows["NDA variants close the in-order ↔ OoO gap"][1] == \
            "%d–%d%%" % (min(closed), max(closed))
        for claim, name in (
                ("Permissive+BR blocks all control-steering attacks",
                 "Permissive+BR"),
                ("Full protection slowdown", "Full Protection")):
            paper, measured = rows[claim]
            assert float(re.match(r"[\d.]+", paper).group()) == \
                float(table[name]["paper"].rstrip("%")), claim
            assert measured.strip("*") == table[name]["overhead"], claim
        for claim, name in (
                ("Permissive policy vs. in-order", "Permissive"),
                ("Full protection vs. in-order", "Full Protection")):
            factor = float(table[name]["vs In-Order"].rstrip("x"))
            assert rows[claim][1] == "%.1f× faster" % factor, claim
