"""The overflow checker: proofs, gates, stale entries, and the site report."""

from __future__ import annotations

import pytest

from repro.lint.overflow import (
    OVERFLOW_SCOPE,
    PROOFS,
    RULE_OVERFLOW,
    RULE_STALE,
    RULE_UNPROVEN,
    OverflowChecker,
    SiteProof,
)

SCOPE = {"overflow_mod.py": frozenset({"Mod.forward"})}
KEY = ("overflow_mod.py", "Mod.forward", "a * b")


def _proof(worst_bits: int = 41, requires: tuple[str, ...] = ()) -> SiteProof:
    return SiteProof(
        kind="gated",
        worst_bits=worst_bits,
        note="|a| <= 2**20 by the runtime gate; b is in-range int",
        requires=requires,
    )


def test_unproven_site_is_flagged(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(scope=SCOPE, proofs={})
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "'a * b'" in findings[0].message
    assert checker.site_report == []


def test_unproven_einsum_mac_is_flagged(fixture_project):
    """A MAC spelled ``np.einsum`` is an arithmetic site like ``@``."""
    project = fixture_project("overflow_calls.py")
    checker = OverflowChecker(
        scope={"overflow_calls.py": frozenset({"Calls.einsum"})}, proofs={}
    )
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "np.einsum('ij,j->i', window, envelope, dtype=np.int64)" in findings[0].message


@pytest.mark.parametrize(
    ("method", "site"),
    [
        ("dot", "np.dot(a, b)"),
        ("matmul", "np.matmul(a, b)"),
        ("tensordot", "np.tensordot(a, b, axes=1)"),
        ("inner", "np.inner(a, b)"),
        ("add", "np.add(slot0, slot1, out=acc, dtype=np.int64)"),
        ("subtract", "np.subtract(a, b)"),
        ("left_shift", "np.left_shift(a, bits)"),
        ("sum", "trace[:, :4].sum(axis=1)"),
        ("cumsum", "np.cumsum(a, axis=1)"),
        ("prod", "np.prod(a, axis=1)"),
        ("cumprod", "(a * b).cumprod(axis=1)"),
        ("reduce", "np.add.reduce(trace, axis=2, dtype=np.int64)"),
        ("accumulate", "np.add.accumulate(trace, axis=2)"),
        ("method_dot", "window[:, :8].dot(envelope)"),
    ],
)
def test_every_numpy_call_spelling_is_a_site(fixture_project, method, site):
    """Function and method spellings alike, on a name or any expression."""
    project = fixture_project("overflow_calls.py")
    checker = OverflowChecker(
        scope={"overflow_calls.py": frozenset({f"Calls.{method}"})}, proofs={}
    )
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert f"'{site}'" in findings[0].message


def test_proved_site_is_clean_and_reported(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(
        scope=SCOPE, proofs={KEY: _proof(requires=("abs(a) > 1048576",))}
    )
    assert checker.run(project) == []
    (site,) = checker.site_report
    assert site["status"] == "proven"
    assert site["worst_bits"] == 41
    assert site["headroom_bits"] == 63 - 41
    assert site["where"] == "Mod.forward"


def test_removing_the_gate_voids_the_proof(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(
        scope=SCOPE, proofs={KEY: _proof(requires=("abs(a) > 9999999",))}
    )
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_UNPROVEN]
    assert "which is gone" in findings[0].message
    (site,) = checker.site_report
    assert site["status"] == "violated"


def test_worst_case_beyond_int64_is_an_overflow(fixture_project):
    project = fixture_project("overflow_mod.py")
    checker = OverflowChecker(scope=SCOPE, proofs={KEY: _proof(worst_bits=70)})
    findings = checker.run(project)
    assert [f.rule for f in findings] == [RULE_OVERFLOW]
    assert "2**69" in findings[0].message


def test_stale_proof_and_stale_scope_are_flagged(fixture_project):
    project = fixture_project("overflow_mod.py")
    stale_key = ("overflow_mod.py", "Mod.forward", "a + deleted")
    checker = OverflowChecker(
        scope={"overflow_mod.py": frozenset({"Mod.forward", "Mod.gone"})},
        proofs={KEY: _proof(), stale_key: _proof()},
    )
    rules = sorted(f.rule for f in checker.run(project))
    assert rules == [RULE_STALE, RULE_STALE]


def test_repo_ledger_proves_every_site_with_headroom():
    """Every PROOFS entry fits int64 and every scope key is a real file."""
    for (path, where, expr), proof in PROOFS.items():
        assert proof.worst_bits <= 63, (path, where, expr)
        assert proof.headroom_bits >= 0
        assert proof.note
    for path in OVERFLOW_SCOPE:
        assert path.startswith("src/repro/"), path
