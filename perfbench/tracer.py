"""Span tracer for the per-layer pass.

The tracer wraps layer entry points from outside the program: module-level
callables that ``chain2sim.harness`` imported by name, ``frames.crc16`` (which
the codec looks up in its own module), and class methods.  Per-call layers are
aggregated in memory into count / total / self time per (layer, parent);
only the per-run and per-user boundaries keep full spans.  Nothing is written
while the run is traced.

The span stack is a plain list, so the traced run must be single-threaded
(``harness.run(..., parallel=False)``).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Callable, Iterator

# (layer name, module or class attribute path, boundary?)
# Boundary layers keep one full span per call; the rest are aggregated.
TARGETS: tuple[tuple[str, str, bool], ...] = (
    ("harness.run", "chain2sim.harness:run", True),
    ("harness.run_user", "chain2sim.harness:_run_user", True),
    ("harness.write_outputs", "chain2sim.harness:_write_outputs", False),
    ("harness.report_csv", "chain2sim.harness:CampaignReport.to_csv_text", False),
    ("profiles.household_profile", "chain2sim.harness:household_profile", False),
    ("profiles.profile_from_csv", "chain2sim.harness:profile_from_csv", False),
    ("meter.step", "chain2sim.meter:Meter.step", False),
    ("frames.encode_frame", "chain2sim.harness:encode_frame", False),
    ("frames.decode_frame", "chain2sim.harness:decode_frame", False),
    ("frames.crc16", "chain2sim.frames:crc16", False),
    ("channel.transmit", "chain2sim.channel:Channel.transmit", False),
    ("portal.admits", "chain2sim.portal:Portal.admits", False),
    ("device.on_frame", "chain2sim.device:Device.on_frame", False),
    ("automation.dr_site_step", "chain2sim.harness:dr_site_step", False),
    ("automation.peak_shave_step", "chain2sim.harness:peak_shave_step", False),
    ("automation.load_shift_schedule", "chain2sim.harness:load_shift_schedule", False),
    ("automation.mevu_settle", "chain2sim.harness:mevu_settle", False),
)


def resolve(path: str) -> tuple[Any, str]:
    """Return (owner, attribute name) for a ``module:Class.attr`` path."""
    module_name, _, attr_path = path.partition(":")
    owner: Any = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with parent links."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Open spans: [layer, child time, start, span id or None].
        self._stack: list[list] = []
        # (layer, parent layer) -> [count, total s, self s]
        self.aggregates: dict[tuple[str, str | None], list] = {}
        self.spans: list[dict] = []

    def wrap(self, fn: Callable, layer: str, boundary: bool) -> Callable:
        stack = self._stack
        aggregates = self.aggregates
        clock = self.clock

        def record(frame: list, end: float) -> None:
            duration = end - frame[2]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += duration
            key = (layer, parent[0] if parent is not None else None)
            agg = aggregates.get(key)
            if agg is None:
                aggregates[key] = [1, duration, duration - frame[1]]
            else:
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
            if boundary:
                span = self.spans[frame[3]]
                span["end"] = end
                span["self"] = duration - frame[1]

        if boundary:

            def traced(*args, **kwargs):
                parent_id = next(
                    (f[3] for f in reversed(stack) if f[3] is not None), None
                )
                span_id = len(self.spans)
                start = clock()
                self.spans.append(
                    {"id": span_id, "parent": parent_id, "layer": layer, "start": start,
                     "attrs": _span_attrs(args)}
                )
                frame = [layer, 0.0, start, span_id]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    record(frame, clock())

        else:

            def traced(*args, **kwargs):
                frame = [layer, 0.0, clock(), None]
                stack.append(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    record(frame, end)

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore the
        exact original attribute objects."""
        saved: list[tuple[Any, str, Any]] = []
        try:
            for layer, path, boundary in TARGETS:
                owner, attr = resolve(path)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, layer, boundary))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per-layer count, total and self time summed over parents."""
        out: dict[str, dict[str, float]] = {}
        for (layer, _parent), (count, total, self_s) in self.aggregates.items():
            row = out.setdefault(layer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += count
            row["total_s"] += total
            row["self_s"] += self_s
        return out

    def dump(self) -> dict:
        """The trace as plain data: aggregates per (layer, parent) and spans."""
        return {
            "aggregates": [
                {"layer": layer, "parent": parent, "count": c, "total_s": t, "self_s": s}
                for (layer, parent), (c, t, s) in sorted(
                    self.aggregates.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
                )
            ],
            "spans": self.spans,
        }


def _span_attrs(args: tuple) -> dict:
    # _run_user(spec, ...) carries the pod; harness.run(config, ...) the size.
    first = args[0] if args else None
    if hasattr(first, "pod_id"):
        return {"pod_id": first.pod_id}
    if hasattr(first, "users"):
        return {"users": len(first.users)}
    return {}
