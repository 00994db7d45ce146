"""Determinism linter: rules, suppression, baseline, CLI."""

import json

import pytest

from repro.lint import (
    RULES,
    Baseline,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import main as lint_main


def _rules_of(violations):
    return [v.rule for v in violations]


class TestRules:
    def test_rule_catalogue(self):
        assert set(RULES) == {
            "unseeded-rng",
            "stdlib-random",
            "nonpicklable-registration",
            "raw-hashlib",
        }

    def test_unseeded_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert _rules_of(lint_source(src)) == ["unseeded-rng"]

    def test_explicit_none_seed_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(None)\n"
        assert _rules_of(lint_source(src)) == ["unseeded-rng"]

    def test_seeded_rng_clean(self):
        src = "import numpy as np\nrng = np.random.default_rng(1234)\n"
        assert lint_source(src) == []

    def test_seed_variable_clean(self):
        src = (
            "import numpy as np\n"
            "def f(seed):\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert lint_source(src) == []

    def test_stdlib_random_import_flagged(self):
        assert _rules_of(lint_source("import random\n")) == [
            "stdlib-random"
        ]
        assert _rules_of(
            lint_source("from random import shuffle\n")
        ) == ["stdlib-random"]

    def test_unrelated_import_clean(self):
        assert lint_source("import secrets\nimport numpy\n") == []

    def test_lambda_registration_flagged(self):
        src = "register(lambda job: job)\n"
        assert _rules_of(lint_source(src)) == [
            "nonpicklable-registration"
        ]

    def test_nested_def_registration_flagged(self):
        src = (
            "def setup():\n"
            "    def handler(job):\n"
            "        return job\n"
            "    register(handler)\n"
        )
        assert _rules_of(lint_source(src)) == [
            "nonpicklable-registration"
        ]

    def test_module_level_registration_clean(self):
        src = (
            "def handler(job):\n"
            "    return job\n"
            "register(handler)\n"
        )
        assert lint_source(src) == []

    def test_task_keyword_lambda_flagged(self):
        src = "spec = ExperimentSpec(task=lambda: 1)\n"
        assert _rules_of(lint_source(src)) == [
            "nonpicklable-registration"
        ]

    def test_raw_hashlib_flagged(self):
        src = "import hashlib\nh = hashlib.sha256(b'x')\n"
        assert "raw-hashlib" in _rules_of(lint_source(src))

    def test_hashlib_allowed_inside_hashing_module(self):
        src = "import hashlib\nh = hashlib.blake2b(b'x')\n"
        assert lint_source(src, path="src/repro/_hashing.py") == []

    def test_suppression_comment(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # lint: allow-unseeded-rng\n"
        )
        assert lint_source(src) == []

    def test_suppression_is_rule_specific(self):
        src = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # lint: allow-stdlib-random\n"
        )
        assert _rules_of(lint_source(src)) == ["unseeded-rng"]

    def test_syntax_error_becomes_violation(self):
        violations = lint_source("def broken(:\n")
        assert len(violations) == 1
        assert violations[0].rule == "syntax-error"

    def test_violations_sorted_by_position(self):
        src = (
            "import random\n"
            "import numpy as np\n"
            "rng = np.random.default_rng()\n"
        )
        assert _rules_of(lint_source(src)) == [
            "stdlib-random",
            "unseeded-rng",
        ]


class TestBaseline:
    def test_split_grandfathers_known_violations(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        violations = lint_source(src, path="pkg/mod.py")
        baseline = Baseline(
            [
                {
                    "path": "pkg/mod.py",
                    "rule": "unseeded-rng",
                    "snippet": violations[0].snippet.strip(),
                    "justification": "legacy",
                }
            ]
        )
        fresh, grandfathered = baseline.split(violations)
        assert fresh == []
        assert len(grandfathered) == 1

    def test_baseline_survives_line_moves(self):
        old = "import numpy as np\nrng = np.random.default_rng()\n"
        entry = lint_source(old, path="pkg/mod.py")[0]
        baseline = Baseline(
            [
                {
                    "path": "pkg/mod.py",
                    "rule": entry.rule,
                    "snippet": entry.snippet.strip(),
                    "justification": "legacy",
                }
            ]
        )
        moved = "import numpy as np\n\n\nrng = np.random.default_rng()\n"
        fresh, grandfathered = baseline.split(
            lint_source(moved, path="pkg/mod.py")
        )
        assert fresh == []
        assert len(grandfathered) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "absent.json")
        assert len(baseline) == 0

    def test_write_then_load_roundtrip(self, tmp_path):
        violations = lint_source(
            "import random\n", path="pkg/mod.py"
        )
        path = tmp_path / "baseline.json"
        write_baseline(path, violations)
        baseline = load_baseline(path)
        fresh, grandfathered = baseline.split(violations)
        assert fresh == [] and len(grandfathered) == 1


class TestCli:
    def _dirty_tree(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "good.py").write_text("x = 1\n")
        (pkg / "bad.py").write_text(
            "import numpy as np\nrng = np.random.default_rng()\n"
        )
        return pkg

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("value = 3\n")
        code = lint_main([str(pkg), "--no-baseline"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_two(self, tmp_path, capsys):
        pkg = self._dirty_tree(tmp_path)
        code = lint_main([str(pkg), "--no-baseline"])
        assert code == 2
        out = capsys.readouterr().out
        assert "unseeded-rng" in out
        assert "bad.py" in out

    def test_json_format(self, tmp_path, capsys):
        pkg = self._dirty_tree(tmp_path)
        code = lint_main([str(pkg), "--no-baseline", "--format", "json"])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["rule"] == "unseeded-rng"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        pkg = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        code = lint_main(
            [str(pkg), "--write-baseline", str(baseline)]
        )
        assert code == 0
        assert baseline.exists()
        capsys.readouterr()
        code = lint_main([str(pkg), "--baseline", str(baseline)])
        assert code == 0

    def test_repo_src_is_clean(self, capsys):
        """The acceptance gate: repro's own library code lints clean."""
        code = lint_main(["src", "--no-baseline"])
        assert code == 0, capsys.readouterr().out
