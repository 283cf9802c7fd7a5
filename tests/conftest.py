"""Shared pytest wiring: the acceptance summary block and a link spy.

Each test in test_acceptance.py is named test_criterion_<NN>_<label>; after
the run one PASS/FAIL line per criterion is printed, so the verdicts are
visible even with output capture on.
"""

import re
from collections import defaultdict

import pytest

from chain2sim import harness

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
    observed through the classes.  The run hands a frame to `Device.on_frame`
    right after `Channel.transmit` gives its arrival time, or not at all."""
    arrivals = defaultdict(list)
    arriving = None  # the arrival time of the frame on the link now
    transmit, on_frame = harness.Channel.transmit, harness.Device.on_frame

    def spy_transmit(self, frame_type, t_send):
        nonlocal arriving
        arriving = transmit(self, frame_type, t_send)
        return arriving

    def spy_on_frame(self, frame):
        nonlocal arriving
        t_arrive, arriving = arriving, None
        assert t_arrive is not None, "the device took a frame the channel did not deliver"
        arrivals[frame.pod_id].append(t_arrive)
        return on_frame(self, frame)

    monkeypatch.setattr(harness.Channel, "transmit", spy_transmit)
    monkeypatch.setattr(harness.Device, "on_frame", spy_on_frame)
    return arrivals
