"""Tests for the installation self-check battery."""

import pytest

from repro.analysis.selfcheck import CHECKS, run_self_check


def test_all_checks_pass():
    assert run_self_check(verbose=False)


def test_check_inventory():
    assert [name for name, _ in CHECKS] == [
        "partitioner equivalence",
        "optimizer agreement",
        "complexity counters",
        "Table I formulas",
        "pruning soundness",
        "executor correctness",
    ]


@pytest.mark.parametrize("name,check", CHECKS, ids=[n for n, _ in CHECKS])
def test_individual_check(name, check):
    detail = check()  # raises on failure
    assert isinstance(detail, str) and detail


def test_failures_are_reported_not_raised(monkeypatch, capsys):
    import repro.analysis.selfcheck as selfcheck

    def broken():
        raise AssertionError("injected failure")

    monkeypatch.setattr(
        selfcheck, "CHECKS", [("injected", broken)] + selfcheck.CHECKS[:1]
    )
    assert not selfcheck.run_self_check(verbose=True)
    out = capsys.readouterr().out
    assert "[FAIL] injected: injected failure" in out
    assert "[ok ]" in out
