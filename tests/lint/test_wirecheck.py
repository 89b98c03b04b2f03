"""The wire-exhaustiveness checker on a miniature wire/net fixture pair."""

from __future__ import annotations

from repro.lint.wirecheck import RULE, WireChecker


def _checker(net: str) -> WireChecker:
    return WireChecker(
        wire_module="wire/wire.py",
        net_module=f"wire/{net}",
        server_handler=("Server", "_reply_for"),
        client_class="Client",
        non_kind_constants=frozenset({"WIRE_VERSION"}),
    )


def test_forgotten_frames_are_flagged(fixture_project):
    project = fixture_project("wire/wire.py", "wire/net_bad.py")
    findings = _checker("net_bad.py").run(project)
    assert len(findings) == 2
    assert all(f.rule == RULE for f in findings)
    messages = sorted(f.message for f in findings)
    assert any("SWAP_REQUEST" in m for m in messages)
    # The reply-frame finding names SWAP without the _REQUEST suffix.
    assert any("SWAP" in m and "SWAP_REQUEST" not in m for m in messages)


def test_complete_dispatch_is_clean(fixture_project):
    project = fixture_project("wire/wire.py", "wire/net_clean.py")
    assert _checker("net_clean.py").run(project) == []


def test_missing_modules_disable_the_check(fixture_project):
    # Fixture runs never see the real src/repro/engine/wire.py, so the
    # default-configured checker must stay silent rather than misfire.
    project = fixture_project("wire/wire.py")
    assert WireChecker().run(project) == []
