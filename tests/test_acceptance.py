"""Acceptance gate: every criterion runs at full tolerance and is timed.

Each test prints one human-readable pass/fail line so the criterion status
survives in captured CI logs, then asserts the criterion's own verdict and
its wall-clock budget.
"""

import pytest

from freenormal.errors import DomainError
from freenormal.verify import CRITERIA, run_criterion, run_profile

IDS = [f"{idx:02d}-{name}" for idx, name, _, _ in CRITERIA]


@pytest.mark.parametrize("idx,name", [(i, n) for i, n, _, _ in CRITERIA], ids=IDS)
def test_criterion(idx, name, capsys):
    report = run_criterion(idx, "full")
    verdict = "PASS" if report["passed"] else "FAIL"
    line = (
        f"criterion {idx:2d} {name:<28s} {verdict} "
        f"({report['seconds']:.2f}s of {report['limit_seconds']:g}s)"
    )
    with capsys.disabled():
        print(line, flush=True)
    assert report["passed"], f"criterion {idx} ({name}) failed: {report}"
    assert report["seconds"] < report["limit_seconds"], (
        f"criterion {idx} ({name}) took {report['seconds']:.2f}s, "
        f"budget {report['limit_seconds']:g}s"
    )


def test_unknown_criterion_or_profile_is_a_domain_error():
    with pytest.raises(DomainError):
        run_criterion(13)
    with pytest.raises(DomainError):
        run_profile("x")
