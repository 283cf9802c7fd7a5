"""The names the benchmark's span tracer wraps must keep existing.

`perfbench/tracer.py` patches harness-level imports, class methods and
`frames.crc16` by name.  Its own tests live outside `testpaths`, so these
checks keep a rename or deletion in the package from silently breaking the
benchmark.  The tracer is only loaded, never modified.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from chain2sim import frames, harness
from chain2sim.frames import CompactFrame, FrameType, T1Payload

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("chain2sim_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files next to the tracer
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_traced_target_resolves(tracer):
    assert tracer.TARGETS
    for layer, path, _boundary in tracer.TARGETS:
        owner, attr = tracer.resolve(path)
        # The tracer saves and restores `owner.__dict__[attr]`, so the name
        # must be defined on the owner itself, not inherited.
        assert attr in vars(owner), f"{layer}: {path} no longer resolves"
        assert callable(vars(owner)[attr]), f"{layer}: {path} is not callable"


def test_run_keeps_the_benchmark_signature():
    params = inspect.signature(harness.run).parameters
    assert list(params)[:3] == ["config", "out_dir", "parallel"]


def test_one_crc_per_encode_and_per_decode(monkeypatch):
    calls = []
    real = frames.crc16
    monkeypatch.setattr(frames, "crc16", lambda data: calls.append(data) or real(data))
    raw = frames.encode_frame(CompactFrame(FrameType.T1, "IT001E00000001", 1, 900, T1Payload(0, 5)))
    assert len(calls) == 1
    frames.decode_frame(raw)
    assert len(calls) == 2
