"""CLI tests for `repro verify-plan` and the `repro lint` forwarding stub."""

import json

import pytest

from repro.circuits import ghz_circuit, to_qasm
from repro.cli import main


class TestVerifyPlan:
    def test_benchmark_all_levels_text(self, capsys):
        # one lowering per circuit: the text report covers its one plan
        code = main(["verify-plan", "--benchmark", "4gt13"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: ok" in out
        assert "contract" in out and "lowering" in out
        assert "result: all plans verified" in out

    def test_single_level_json(self, capsys):
        code = main(
            ["verify-plan", "--benchmark", "4gt13", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["circuit"] == "4gt13"
        assert payload["contract"]["ok"] and payload["lowering"]["ok"]
        assert "noise" not in payload

    def test_noisy_path(self, capsys):
        code = main(["verify-plan", "--benchmark", "4gt13", "--noisy"])
        assert code == 0
        assert "noise" in capsys.readouterr().out

    def test_qasm_circuit_input_certifies_clifford(self, tmp_path, capsys):
        path = tmp_path / "ghz.qasm"
        path.write_text(to_qasm(ghz_circuit(4)))
        code = main(
            ["verify-plan", "--circuit", str(path), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tableau"]["status"] == "certified"

    def test_unknown_benchmark_exits_two(self, capsys):
        code = main(["verify-plan", "--benchmark", "nope"])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_missing_circuit_file_exits_two(self, capsys):
        code = main(["verify-plan", "--circuit", "/does/not/exist.qasm"])
        assert code == 2


class TestLintForwarding:
    def test_lint_clean_dir(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("x = 1\n")
        code = main(["lint", str(pkg), "--no-baseline"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_violation_exit_code(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import random\n")
        code = main(["lint", str(pkg), "--no-baseline"])
        assert code == 2
        assert "stdlib-random" in capsys.readouterr().out

    def test_lint_forwards_format_flag(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("import random\n")
        code = main(
            ["lint", str(pkg), "--no-baseline", "--format", "json"]
        )
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
