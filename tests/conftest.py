"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest

from repro.crypto import MacScheme, MicroMacScheme, OneWayFunction, standard_functions
from repro.devtools.lint import LintReport, lint_paths
from repro.timesync import IntervalSchedule, LooseTimeSync, SecurityCondition

SEED = b"test-seed"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def functions():
    """The standard one-way function family."""
    return standard_functions()


@pytest.fixture
def owf():
    """A fresh 80-bit one-way function."""
    return OneWayFunction("F")


@pytest.fixture
def mac_scheme():
    """The 80-bit MAC scheme."""
    return MacScheme()


@pytest.fixture
def micro_scheme():
    """The 24-bit μMAC scheme."""
    return MicroMacScheme()


@pytest.fixture
def schedule():
    """A unit-duration schedule starting at t=0."""
    return IntervalSchedule(start=0.0, duration=1.0)


@pytest.fixture
def sync():
    """A tight loose-sync bound (10 ms)."""
    return LooseTimeSync(max_offset=0.01)


@pytest.fixture
def condition(schedule, sync):
    """Security condition with disclosure delay 1."""
    return SecurityCondition(schedule, sync, disclosure_delay=1)


@pytest.fixture
def rng():
    """A deterministic RNG."""
    return random.Random(12345)


@pytest.fixture(scope="session")
def tree_lint_report() -> LintReport:
    """One reprolint pass over ``src`` and ``benchmarks`` for the whole
    session. The project pass runs every per-file rule as well, so the
    per-file and whole-program self-clean checks both read it."""
    return lint_paths([ROOT / "src", ROOT / "benchmarks"], project=True)


@pytest.fixture
def clean_lint_tree(tmp_path) -> Path:
    """A small lint-clean ``src`` tree: two real modules copied to
    their package paths, so scoped rules see them in scope."""
    for rel in ("repro/errors.py", "repro/cluster/protocol.py"):
        target = tmp_path / "src" / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / "src" / rel, target)
    return tmp_path / "src"
