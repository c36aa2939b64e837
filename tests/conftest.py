"""Shared pytest wiring: acceptance-line reporting."""

import re

_verdicts: dict[int, bool] = {}
# Call seconds of each criterion's test, printed beside its verdict so
# that every log shows how close the timing gates (criteria 1 and 3) run.
_call_seconds: dict[int, float] = {}
_CRITERION_TEST = re.compile(r"::test_criterion_(\d+)_")


def record_criterion(number: int, passed: bool) -> None:
    _verdicts[number] = passed


def pytest_runtest_logreport(report):
    match = _CRITERION_TEST.search(report.nodeid)
    if match and report.when == "call":
        _call_seconds[int(match.group(1))] = report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts:
        terminalreporter.write_sep("-", "acceptance criteria")
        for number in sorted(_verdicts):
            verdict = "PASS" if _verdicts[number] else "FAIL"
            seconds = _call_seconds.get(number)
            timing = "" if seconds is None else f" ({seconds:.1f} s)"
            terminalreporter.write_line(
                f"[acceptance] criterion {number}: {verdict}{timing}")
