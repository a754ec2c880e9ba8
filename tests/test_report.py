"""Reproduction report rendering and the experiments CLI."""

import pytest

from repro.analysis.report import ClaimCheck, ReproductionReport
from repro.errors import SimulationError
from repro.experiments.cli import main as experiments_main


class TestReproductionReport:
    def test_sections_render_in_order(self):
        report = ReproductionReport(title="t")
        report.add_section("fig05", "body five", elapsed=1.5)
        report.add_section("fig06", "body six")
        text = report.render()
        assert text.index("fig05") < text.index("fig06")
        assert "(1.5 s)" in text
        assert "body five" in text

    def test_claims_table(self):
        report = ReproductionReport()
        report.add_claim("drift", "13%", "13.0%", True)
        report.add_claim("area", "22.9%", "12.1%", False)
        text = report.render()
        assert "1/2 hold" in text
        assert "| drift | 13% | 13.0% | yes |" in text
        assert "NO" in text
        assert report.claims_held == 1

    def test_empty_section_name_rejected(self):
        with pytest.raises(SimulationError):
            ReproductionReport().add_section("", "x")

    def test_write(self, tmp_path):
        report = ReproductionReport()
        report.add_section("s", "b")
        path = tmp_path / "report.md"
        report.write(str(path))
        assert "## s" in path.read_text()

    def test_claimcheck_dataclass(self):
        check = ClaimCheck("c", "p", "m", True)
        assert check.holds


class TestCli:
    def test_list_experiments(self, capsys):
        assert experiments_main([]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "ext_em" in out

    def test_run_one_with_report(self, tmp_path, capsys):
        path = tmp_path / "run.md"
        code = experiments_main(
            ["fig07", "--scale", "0.05", "--report", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert "fig07" in text
        assert "drift" in text.lower() or "column" in text
