"""Shared test plumbing: the hypothesis profiles and the acceptance gate
verdict block.

The ``ci`` profile (``pytest --hypothesis-profile=ci``) derandomizes every
hypothesis test and changes no other setting, so a run's draws are the same
on every run; without it the draws are random.

test_acceptance.py records one line per criterion here; printing happens
in the terminal summary so the lines survive output capture and land in
tee'd logs.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)

# criterion number -> "[criterion N] PASS/FAIL: ..." line
GATE_LINES: dict[int, str] = {}


def pytest_terminal_summary(terminalreporter):
    if not GATE_LINES:
        return
    terminalreporter.section("acceptance gate")
    for num in sorted(GATE_LINES):
        terminalreporter.write_line(GATE_LINES[num])
