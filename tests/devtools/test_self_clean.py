"""The tier-1 invariant gate: the shipped tree passes its own linter.

This is the test that turns the RPL rules into a pre-merge gate even
without CI: a stray ``hashlib`` call, an unseeded RNG in ``sim/``, a
blocking call in an async transport path, or a cache-key-invisible
config knob fails ``pytest`` here with the full violation listing. The
whole-tree pass is the session's ``tree_lint_report``; the entry-point
check runs on a small clean tree.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_src_and_benchmarks_are_reprolint_clean(tree_lint_report):
    assert tree_lint_report.files_checked > 80
    assert tree_lint_report.violations == (), (
        "\n" + tree_lint_report.format_text()
    )


def test_module_entry_point_exits_zero(clean_lint_tree):
    """`python -m repro.devtools.lint PATH` — the CI invocation."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", str(clean_lint_tree)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 violations" in result.stdout
