"""Engine tests: suppressions, reporters, exit codes, path mapping."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.devtools.lint import (
    PARSE_ERROR,
    check_source,
    execute,
    lint_paths,
    logical_path_for,
    main,
)

BAD_SIM_SOURCE = "import random\n\n\ndef f():\n    return random.random()\n"
SIM_PATH = "repro/sim/module.py"


def test_violation_found_without_suppression():
    violations = check_source(BAD_SIM_SOURCE, SIM_PATH, select=["RPL002"])
    assert len(violations) == 1
    violation = violations[0]
    assert violation.rule == "RPL002"
    assert violation.line == 5
    assert violation.path == SIM_PATH
    assert "random" in violation.message


def test_inline_suppression_silences_the_line():
    source = BAD_SIM_SOURCE.replace(
        "return random.random()",
        "return random.random()  # reprolint: disable=RPL002",
    )
    assert check_source(source, SIM_PATH, select=["RPL002"]) == []


def test_suppression_on_comment_line_above():
    source = BAD_SIM_SOURCE.replace(
        "    return random.random()",
        "    # reprolint: disable=RPL002 -- fixture justification\n"
        "    return random.random()",
    )
    assert check_source(source, SIM_PATH, select=["RPL002"]) == []


def test_suppression_takes_multiple_codes():
    source = (
        "import random\n"
        "import time\n"
        "\n"
        "\n"
        "def f():\n"
        "    # reprolint: disable=RPL002, RPL006\n"
        "    return random.random() + time.time()\n"
    )
    assert check_source(source, SIM_PATH, select=["RPL002"]) == []


def test_file_wide_suppression():
    source = "# reprolint: disable-file=RPL002\n" + BAD_SIM_SOURCE
    assert check_source(source, SIM_PATH, select=["RPL002"]) == []


def test_suppressing_one_rule_keeps_the_others():
    source = BAD_SIM_SOURCE.replace(
        "return random.random()",
        "return random.random()  # reprolint: disable=RPL001",
    )
    violations = check_source(source, SIM_PATH, select=["RPL002"])
    assert len(violations) == 1


def test_directive_inside_a_string_is_not_a_suppression():
    source = BAD_SIM_SOURCE.replace(
        "def f():",
        'MARKER = "# reprolint: disable-file=RPL002"\n\n\ndef f():',
    )
    violations = check_source(source, SIM_PATH, select=["RPL002"])
    assert len(violations) == 1


def test_parse_error_reports_rpl000():
    violations = check_source("def broken(:\n", SIM_PATH)
    assert len(violations) == 1
    assert violations[0].rule == PARSE_ERROR


def test_unknown_select_code_raises():
    with pytest.raises(ValueError, match="RPL999"):
        check_source(BAD_SIM_SOURCE, SIM_PATH, select=["RPL999"])


def test_logical_path_mapping():
    assert (
        logical_path_for(Path("src/repro/sim/medium.py"))
        == "repro/sim/medium.py"
    )
    assert (
        logical_path_for(Path("/abs/repo/src/repro/net/udp.py"))
        == "repro/net/udp.py"
    )
    assert (
        logical_path_for(Path("benchmarks/bench_kernels.py"))
        == "benchmarks/bench_kernels.py"
    )
    assert logical_path_for(Path("scripts/tool.py")) == "tool.py"


class TestReportsAndExitCodes:
    def _write_tree(self, tmp_path: Path, bad: bool) -> Path:
        tree = tmp_path / "src" / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "clean.py").write_text("VALUE = 3\n")
        if bad:
            (tree / "dirty.py").write_text(BAD_SIM_SOURCE)
        return tmp_path / "src"

    def test_lint_paths_clean(self, tmp_path):
        report = lint_paths([self._write_tree(tmp_path, bad=False)])
        assert report.violations == ()
        assert report.files_checked == 1
        assert report.exit_code == 0

    def test_lint_paths_dirty(self, tmp_path):
        report = lint_paths([self._write_tree(tmp_path, bad=True)])
        assert report.exit_code == 1
        assert [v.rule for v in report.violations] == ["RPL002"]
        assert report.violations[0].path.endswith("dirty.py")

    def test_json_reporter_schema(self, tmp_path):
        report = lint_paths([self._write_tree(tmp_path, bad=True)])
        document = json.loads(report.to_json())
        assert set(document) == {
            "version",
            "files_checked",
            "rules",
            "violations",
        }
        assert document["version"] == 1
        assert document["files_checked"] == 2
        assert document["rules"] == [
            f"RPL00{i}" for i in range(1, 10) if i not in (7, 8)
        ]
        (violation,) = document["violations"]
        assert set(violation) == {"rule", "path", "line", "col", "message"}
        assert violation["rule"] == "RPL002"
        assert violation["line"] == 5

    def test_text_reporter_format(self, tmp_path):
        report = lint_paths([self._write_tree(tmp_path, bad=True)])
        text = report.format_text()
        assert "dirty.py:5:" in text
        assert "RPL002" in text
        assert text.endswith("1 violation in 2 files (7 rules)")

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = self._write_tree(tmp_path / "a", bad=False)
        dirty = self._write_tree(tmp_path / "b", bad=True)
        assert main([str(clean)]) == 0
        assert main([str(dirty)]) == 1
        assert main([str(tmp_path / "missing")]) == 2
        capsys.readouterr()
        assert main([str(clean), "--select", "NOPE99"]) == 2
        assert "NOPE99" in capsys.readouterr().err

    def test_main_json_output(self, tmp_path, capsys):
        dirty = self._write_tree(tmp_path, bad=True)
        assert main([str(dirty), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["violations"]

    def test_main_select_filters_rules(self, tmp_path, capsys):
        dirty = self._write_tree(tmp_path, bad=True)
        assert main([str(dirty), "--select", "RPL001"]) == 0
        out = capsys.readouterr().out
        assert "(1 rules)" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for index in range(1, 10):
            assert (f"RPL00{index}" in out) == (index not in (7, 8))

    def test_execute_matches_main(self, tmp_path, capsys):
        dirty = self._write_tree(tmp_path, bad=True)
        assert execute([dirty]) == 1
        capsys.readouterr()


class TestMultiLineSuppressions:
    """A directive anywhere in a multi-line logical statement covers
    the whole statement, and a comment-only directive covers the next
    statement's full span."""

    def test_directive_on_last_physical_line(self):
        source = (
            "import random\n"
            "\n"
            "def build():\n"
            "    return random.Random(\n"
            "    )  # reprolint: disable=RPL002\n"
        )
        assert check_source(source, SIM_PATH, select=["RPL002"]) == []

    def test_directive_on_inner_physical_line(self):
        source = (
            "import random\n"
            "\n"
            "def build():\n"
            "    return random.Random(\n"
            "        # reprolint: disable=RPL002\n"
            "    )\n"
        )
        assert check_source(source, SIM_PATH, select=["RPL002"]) == []

    def test_comment_line_covers_following_multiline_statement(self):
        source = (
            "import random\n"
            "\n"
            "def build():\n"
            "    # reprolint: disable=RPL002\n"
            "    return random.Random(\n"
            "    )\n"
        )
        assert check_source(source, SIM_PATH, select=["RPL002"]) == []

    def test_unsuppressed_multiline_statement_still_fires(self):
        source = (
            "import random\n"
            "\n"
            "def build():\n"
            "    return random.Random(\n"
            "    )\n"
        )
        violations = check_source(source, SIM_PATH, select=["RPL002"])
        assert [v.rule for v in violations] == ["RPL002"]

    def test_directive_does_not_leak_past_the_statement(self):
        source = (
            "import random\n"
            "\n"
            "def build():\n"
            "    a = random.Random(\n"
            "    )  # reprolint: disable=RPL002\n"
            "    b = random.Random()\n"
            "    return a, b\n"
        )
        violations = check_source(source, SIM_PATH, select=["RPL002"])
        assert [v.line for v in violations] == [6]


class TestGithubFormat:
    def _dirty(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "dirty.py").write_text(BAD_SIM_SOURCE)
        return tmp_path / "src"

    def test_workflow_command_lines(self, tmp_path):
        report = lint_paths([self._dirty(tmp_path)])
        text = report.format_github()
        line = text.splitlines()[0]
        assert line.startswith("::error file=")
        assert "title=reprolint RPL002" in line
        assert ",line=5," in line

    def test_main_github_format(self, tmp_path, capsys):
        assert main([str(self._dirty(tmp_path)), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error ")
        assert "1 violation" in out


class TestFaultBoundary:
    """Violations exit 1; crashes and bad arguments exit 2 — CI can
    tell 'the tree is dirty' from 'the linter broke'."""

    def test_internal_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        from repro.devtools import lint as lint_module

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic engine crash")

        monkeypatch.setattr(lint_module, "lint_paths", boom)
        assert lint_module.execute([tmp_path]) == 2
        err = capsys.readouterr().err
        assert "internal reprolint failure" in err
        assert "synthetic engine crash" in err

    def test_project_select_without_project_flag_exits_two(
        self, tmp_path, capsys
    ):
        tree = tmp_path / "src" / "repro" / "sim"
        tree.mkdir(parents=True)
        (tree / "ok.py").write_text("VALUE = 3\n")
        assert main([str(tmp_path / "src"), "--select", "RPL010"]) == 2
        assert "--project" in capsys.readouterr().err
