"""Shared pytest wiring: the acceptance summary block and a link spy.

Each test in test_acceptance.py is named test_criterion_<NN>_<label>; after
the run one PASS/FAIL line per criterion is printed, so the verdicts are
visible even with output capture on.
"""

import math
import re
from collections import defaultdict

import pytest

from chain2sim import harness
from chain2sim.frames import SEQ

_PATTERN = re.compile(r"test_criterion_(\d+)_([a-z0-9_]+)")
_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    match = _PATTERN.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    label = match.group(2).replace("_", " ")
    if report.when == "call":
        outcome = "PASS" if report.passed else "FAIL"
        _RESULTS[number] = (label, outcome)
    elif report.when == "setup" and (report.failed or report.skipped):
        _RESULTS[number] = (label, "SKIP" if report.skipped else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_RESULTS):
        label, outcome = _RESULTS[number]
        terminalreporter.write_line(
            f"[acceptance] criterion {number:2d} ({label}): {outcome}"
        )


@pytest.fixture
def device_arrivals(monkeypatch):
    """Pod -> the arrival time of each frame the device takes in a run,
    observed through the block entry points: the run puts a link's frame
    rows on `Channel.arrivals`, then hands the ones it lets through to
    `Device.ingest`, one user after another in `harness._run_user`."""
    arrivals = defaultdict(list)
    pod = None  # the user running now
    on_link = {}  # seq -> arrival time of each frame of that user's link
    run_user, send, ingest = harness._run_user, harness.Channel.arrivals, harness.Device.ingest

    def spy_run_user(spec, *args):
        nonlocal pod
        pod = spec.pod_id
        on_link.clear()
        return run_user(spec, *args)

    def spy_arrivals(self, rows):
        t_arrive = send(self, rows)
        on_link.update(zip(rows[:, SEQ].tolist(), t_arrive.tolist()))
        return t_arrive

    def spy_ingest(self, rows):
        for seq in rows[:, SEQ].tolist():
            t_arrive = on_link.pop(seq)
            assert not math.isnan(t_arrive), "the device took a frame the channel did not deliver"
            arrivals[pod].append(t_arrive)
        return ingest(self, rows)

    monkeypatch.setattr(harness, "_run_user", spy_run_user)
    monkeypatch.setattr(harness.Channel, "arrivals", spy_arrivals)
    monkeypatch.setattr(harness.Device, "ingest", spy_ingest)
    return arrivals
