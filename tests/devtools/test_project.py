"""Whole-program pass: index construction, the RPL010..RPL012 fixture
corpus, per-file rules still firing under ``--project``, and the
project-level self-clean gate."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import lint_paths
from repro.devtools.project import (
    build_index,
    check_project_sources,
    module_name_for,
)
from repro.devtools.project_rules import PROJECT_RULES, project_rule_catalog

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parent.parent.parent

#: project rule code -> (logical path in scope, violations in the bad
#: fixture). Counts are pinned: each shape the rule documents fires
#: exactly once in its fixture.
PROJECT_CASES = {
    "RPL010": ("repro/sim/fixture_mod.py", 3),
    "RPL011": ("repro/perf/fixture_mod.py", 3),
    "RPL012": ("repro/cluster/fixture_mod.py", 4),
}


def fixture_source(code: str, kind: str) -> str:
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    return path.read_text(encoding="utf-8")


# -- fixture corpus ---------------------------------------------------------


@pytest.mark.parametrize("code", sorted(PROJECT_CASES))
def test_bad_fixture_fails(code):
    logical, expected = PROJECT_CASES[code]
    violations = check_project_sources(
        {logical: fixture_source(code, "bad")}, select=[code]
    )
    assert len(violations) == expected, [v.format() for v in violations]
    assert {v.rule for v in violations} == {code}


@pytest.mark.parametrize("code", sorted(PROJECT_CASES))
def test_good_fixture_passes(code):
    logical, _ = PROJECT_CASES[code]
    violations = check_project_sources(
        {logical: fixture_source(code, "good")}, select=[code]
    )
    assert violations == [], [v.format() for v in violations]


@pytest.mark.parametrize("code", sorted(PROJECT_CASES))
def test_bad_fixture_is_clean_outside_rule_scope(code):
    violations = check_project_sources(
        {"not_a_package/module.py": fixture_source(code, "bad")},
        select=[code],
    )
    assert violations == []


def test_project_rules_honour_suppressions():
    logical, expected = PROJECT_CASES["RPL010"]
    source = fixture_source("RPL010", "bad").replace(
        "def dropped(values, seed):",
        "def dropped(values, seed):  # reprolint: disable=RPL010",
    )
    violations = check_project_sources({logical: source}, select=["RPL010"])
    assert len(violations) == expected - 1


# -- index mechanics --------------------------------------------------------


def test_module_name_for():
    assert module_name_for("repro/sim/fleet.py") == "repro.sim.fleet"
    assert module_name_for("repro/sim/__init__.py") == "repro.sim"
    assert (
        module_name_for("benchmarks/bench_kernels.py")
        == "benchmarks.bench_kernels"
    )


def test_rpl010_resolves_calls_across_modules():
    """The unthreaded-callee shape fires on a from-import of another
    indexed module — the cross-file case no per-file rule can see."""
    sources = {
        "repro/sim/provider.py": "def make(seed=0):\n    return seed\n",
        "repro/sim/consumer.py": (
            "from repro.sim.provider import make\n"
            "\n"
            "def run(seed):\n"
            "    base = seed + 1\n"
            "    return make(), base\n"
        ),
    }
    violations = check_project_sources(sources, select=["RPL010"])
    assert len(violations) == 1, [v.format() for v in violations]
    assert violations[0].path == "repro/sim/consumer.py"
    assert "make()" in violations[0].message


def test_rpl010_resolves_module_alias_calls():
    sources = {
        "repro/sim/provider.py": "def make(seed=0):\n    return seed\n",
        "repro/sim/consumer.py": (
            "import repro.sim.provider as provider\n"
            "\n"
            "def run(seed):\n"
            "    child = seed + 1\n"
            "    good = provider.make(child)\n"
            "    bad = provider.make()\n"
            "    return good, bad\n"
        ),
    }
    violations = check_project_sources(sources, select=["RPL010"])
    assert len(violations) == 1, [v.format() for v in violations]
    assert violations[0].line == 6


def test_rpl012_sees_producer_and_consumer_in_different_modules():
    sources = {
        "repro/cluster/sender.py": (
            "def announce(stream):\n"
            '    stream.send({"type": "hello", "token": 1})\n'
        ),
        "repro/cluster/receiver.py": (
            "def handle(message):\n"
            '    return message["token"]\n'
        ),
    }
    assert check_project_sources(sources, select=["RPL012"]) == []
    sources["repro/cluster/receiver.py"] = (
        "def handle(message):\n"
        '    return message["tokenn"]\n'
    )
    violations = check_project_sources(sources, select=["RPL012"])
    codes = sorted(v.message.split("'")[1] for v in violations)
    assert codes == ["token", "tokenn"], [v.format() for v in violations]


def test_project_rule_catalog():
    catalog = project_rule_catalog()
    assert [code for code, _, _ in catalog] == ["RPL010", "RPL011", "RPL012"]
    assert len(PROJECT_RULES) == 3


# -- per-file rules under the project pass ----------------------------------


def _write_fixture_tree(tmp_path: Path) -> Path:
    """A src-like tree holding the RPL009 bad fixture at its scoped
    path, to prove the per-file corpus still fires when the
    whole-program pass is on."""
    for code, rel in (("rpl009", "repro/protocols/fixture_mod.py"),):
        target = tmp_path / "src" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            (FIXTURES / f"{code}_bad.py").read_text(encoding="utf-8")
        )
    return tmp_path / "src"


def test_file_rules_still_fire_under_project_pass(tmp_path):
    tree = _write_fixture_tree(tmp_path)
    report = lint_paths([tree], project=True)
    per_rule = {}
    for violation in report.violations:
        per_rule.setdefault(violation.rule, 0)
        per_rule[violation.rule] += 1
    assert per_rule.get("RPL009") == 2, per_rule
    assert "RPL010" in report.rules and "RPL012" in report.rules


def test_project_select_requires_project_flag(tmp_path):
    tree = _write_fixture_tree(tmp_path)
    with pytest.raises(ValueError, match="--project"):
        lint_paths([tree], select=["RPL010"])
    report = lint_paths([tree], select=["RPL010"], project=True)
    assert report.rules == ("RPL010",)


# -- the tree is clean under the whole-program pass -------------------------


def test_src_and_benchmarks_are_project_clean():
    report = lint_paths(
        [ROOT / "src", ROOT / "benchmarks"], project=True
    )
    assert report.files_checked > 80
    assert len(report.rules) == 11
    assert report.violations == (), "\n" + report.format_text()
