"""The lock-discipline checker against violating and clean fixtures."""

from __future__ import annotations

from repro.lint.locks import (
    GUARDED_BY,
    RULE_BLOCKING,
    RULE_UNGUARDED,
    LockChecker,
)

GUARDS = {
    "locks_bad.py": {"Stats": {"_count": "_lock", "_events": "_lock"}},
    "locks_clean.py": {"Stats": {"_count": "_lock", "_events": "_lock"}},
}


def test_unguarded_writes_and_blocking_call_are_flagged(fixture_project):
    project = fixture_project("locks_bad.py")
    findings = LockChecker(guarded_by=GUARDS).run(project)
    by_rule = sorted(f.rule for f in findings)
    assert by_rule == [RULE_BLOCKING, RULE_UNGUARDED, RULE_UNGUARDED]
    blob = " ".join(f.message for f in findings)
    assert "Stats._count is GUARDED_BY _lock" in blob
    assert "mutated via .append()" in blob
    assert "time.sleep" in blob


def test_init_writes_are_exempt(fixture_project):
    project = fixture_project("locks_bad.py")
    findings = LockChecker(guarded_by=GUARDS).run(project)
    # __init__ seeds both guarded fields without the lock; only the three
    # post-construction violations may appear.
    assert all(f.line > 11 for f in findings)


def test_guarded_fixture_is_clean(fixture_project):
    project = fixture_project("locks_clean.py")
    assert LockChecker(guarded_by=GUARDS).run(project) == []


def test_registry_rot_is_itself_a_finding(fixture_project):
    project = fixture_project("locks_clean.py")
    guards = {
        "locks_clean.py": {
            "Vanished": {"_x": "_lock"},
            # A field the class never assigns: the ledger outlived the code.
            "Stats": {"_count": "_lock", "_dropped": "_lock"},
        }
    }
    findings = LockChecker(guarded_by=guards).run(project)
    assert len(findings) == 2
    blob = " ".join(f.message for f in findings)
    assert "class Vanished, which no longer exists" in blob
    assert "Stats._dropped, which Stats never assigns through self._dropped" in blob


def test_default_registry_names_only_real_repo_files():
    for path in GUARDED_BY:
        assert path.startswith("src/repro/"), path
