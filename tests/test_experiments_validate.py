"""Tests for the self-validation command."""

from repro.cli import main
from repro.experiments.validate import (Check, render_validation,
                                        run_validation)


class TestValidation:
    def test_all_checks_pass(self):
        checks = run_validation()
        assert len(checks) == 7
        failing = [check for check in checks if not check.passed]
        assert not failing, failing

    def test_render(self):
        checks = [Check("good", True, "fine"),
                  Check("bad", False, "broken")]
        text = render_validation(checks)
        assert "[PASS] good" in text
        assert "[FAIL] bad" in text
        assert "1/2 checks passed" in text

    def test_cli_command(self, capsys):
        code = main(["validate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "7/7 checks passed" in out

    def test_cli_exits_1_when_a_check_fails(self, capsys, monkeypatch):
        from repro.experiments import validate

        monkeypatch.setattr(validate, "run_validation", lambda: [
            Check("good", True, "fine"), Check("bad", False, "broken")])
        code = main(["validate"])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] bad" in out
        assert "1/2 checks passed" in out
