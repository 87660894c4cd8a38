"""Fixture-corpus tests: every rule fails its known-bad snippet and
passes its known-good one, at the logical path that puts the snippet in
the rule's scope."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.devtools.lint import check_source
from repro.devtools.rules import ALL_RULES, rule_catalog

FIXTURES = Path(__file__).parent / "fixtures"

#: rule code -> (logical path used for scoping, violations in the bad
#: fixture). The paths deliberately sit *outside* the real package
#: files so the corpus keeps working however the tree evolves.
CASES = {
    "RPL001": ("repro/protocols/fixture_mod.py", 3),
    "RPL002": ("repro/sim/fixture_mod.py", 4),
    "RPL003": ("repro/net/fixture_mod.py", 2),
    "RPL004": ("repro/analysis/fixture_mod.py", 3),
    "RPL005": ("repro/sim/fixture_mod.py", 4),
    "RPL006": ("repro/game/fixture_mod.py", 1),
    "RPL008": ("repro/sim/fixture_mod.py", 3),
    "RPL009": ("repro/protocols/fixture_mod.py", 2),
}


def fixture_source(code: str, kind: str) -> str:
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_fails(code):
    logical, expected = CASES[code]
    violations = check_source(
        fixture_source(code, "bad"), logical, select=[code]
    )
    assert len(violations) == expected, [v.format() for v in violations]
    assert {v.rule for v in violations} == {code}


@pytest.mark.parametrize("code", sorted(CASES))
def test_good_fixture_passes(code):
    logical, _ = CASES[code]
    violations = check_source(
        fixture_source(code, "good"), logical, select=[code]
    )
    assert violations == [], [v.format() for v in violations]


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_is_clean_outside_rule_scope(code):
    """Scoped rules ignore files outside their directories."""
    violations = check_source(
        fixture_source(code, "bad"), "not_a_package/module.py", select=[code]
    )
    assert violations == []


def test_rpl001_allowlists_the_kernel_modules():
    """The kernels themselves may (must) touch the primitives."""
    source = fixture_source("rpl001", "bad")
    for allowed in ("repro/crypto/kernels.py", "repro/engine/hashing.py"):
        assert check_source(source, allowed, select=["RPL001"]) == []


def test_rpl002_seeded_random_is_fine_in_scope():
    source = "import random\nrng = random.Random(7)\n"
    assert check_source(source, "repro/sim/x.py", select=["RPL002"]) == []


def test_rpl002_catches_aliased_imports():
    source = "from random import random as rnd\n\n\ndef f():\n    return rnd()\n"
    violations = check_source(source, "repro/game/x.py", select=["RPL002"])
    assert len(violations) == 1


def test_rpl002_catches_datetime_chain():
    source = "import datetime\n\n\ndef f():\n    return datetime.datetime.now()\n"
    violations = check_source(source, "repro/crypto/x.py", select=["RPL002"])
    assert len(violations) == 1


def test_rpl003_flags_from_import_sleep():
    source = (
        "from time import sleep\n\n\nasync def pump():\n    sleep(1)\n"
    )
    violations = check_source(source, "repro/net/x.py", select=["RPL003"])
    assert len(violations) == 1


def test_rpl004_flags_initializer_lambda_in_any_call():
    source = (
        "def build(pool_cls):\n"
        "    return pool_cls(initializer=lambda: None)\n"
    )
    violations = check_source(
        source, "repro/engine/x.py", select=["RPL004"]
    )
    assert len(violations) == 1


def test_rpl004_cluster_fixture_flags_fork_primitives():
    """The coordinator fixture: os.fork + set_start_method('fork') +
    get_context('fork') are each one violation."""
    violations = check_source(
        fixture_source("rpl004_cluster", "bad"),
        "repro/cluster/fixture_mod.py",
        select=["RPL004"],
    )
    assert len(violations) == 3, [v.format() for v in violations]
    messages = " ".join(v.message for v in violations)
    assert "os.fork" in messages
    assert "spawn" in messages


def test_rpl004_cluster_fixture_spawn_style_passes():
    violations = check_source(
        fixture_source("rpl004_cluster", "good"),
        "repro/cluster/fixture_mod.py",
        select=["RPL004"],
    )
    assert violations == [], [v.format() for v in violations]


def test_rpl004_spawn_context_is_allowed():
    source = (
        "import multiprocessing\n"
        "ctx = multiprocessing.get_context('spawn')\n"
    )
    assert check_source(source, "repro/engine/x.py", select=["RPL004"]) == []


def test_rpl004_flags_method_keyword_fork():
    source = (
        "from multiprocessing import set_start_method\n"
        "set_start_method(method='fork')\n"
    )
    violations = check_source(
        source, "repro/cluster/x.py", select=["RPL004"]
    )
    assert len(violations) == 1


def test_rpl005_marker_applies_to_decorated_class():
    source = (
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "# reprolint: cache-keyed\n"
        "@dataclass(frozen=True)\n"
        "class Opted:\n"
        "    knob = 3\n"
    )
    violations = check_source(source, "repro/sim/x.py", select=["RPL005"])
    assert len(violations) == 1
    assert "knob" in violations[0].message


def test_rpl006_reraising_boundary_is_allowed():
    source = (
        "def boundary(fn):\n"
        "    try:\n"
        "        return fn()\n"
        "    except Exception as exc:\n"
        "        raise RuntimeError('wrapped') from exc\n"
    )
    assert check_source(source, "repro/game/x.py", select=["RPL006"]) == []


def test_rule_catalog_covers_all_rules():
    catalog = rule_catalog()
    assert len(catalog) == len(ALL_RULES) == 8
    codes = [code for code, _name, _description in catalog]
    assert codes == sorted(codes)
    assert codes[0] == "RPL001" and codes[-1] == "RPL009"
    for _code, name, description in catalog:
        assert name and description
