"""Distributor portal mock: POD eligibility and POD-device pairing.

A POD may talk to a user device only if it is registered, metered by a
second-generation meter, and active.  Pairing a device is asynchronous:
the request is accepted immediately but frames flow only after an
activation delay drawn uniformly from a configurable window (default one
to four hours), and stop flowing at revocation.  A pairing is therefore
two times, `active_at` and `revoked_at`; `window` is the span between
them in which frames pass, and the scenario runner reads it once per user.

Every `pair` and `revoke` is appended to an optional line-delimited JSON
log, and `replay_log` rebuilds a portal from such a log, so a run can be
resumed or audited.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import IO

from chain2sim.frames import is_pod_id


class MeterGeneration(Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class PodRecord:
    pod_id: str
    meter_generation: MeterGeneration
    active: bool
    dso: str = "default-dso"


class IneligiblePodError(Exception):
    def __init__(self, pod_id: str, reason: str) -> None:
        super().__init__(f"POD {pod_id} is not eligible: {reason}")
        self.reason = reason


class DuplicatePairingError(Exception):
    pass


@dataclass(frozen=True)
class Eligibility:
    eligible: bool
    # one of: unknown_pod, meter_generation, inactive; None when eligible
    reason: str | None = None


@dataclass
class Pairing:
    """Admits frames from `active_at` until `revoked_at`; live while not revoked."""

    pod_id: str
    device_id: str
    requested_at: float
    active_at: float
    revoked_at: float | None = None


def load_registry(path: str) -> dict[str, PodRecord]:
    """Read a registry seed file: `pod_id,meter_generation,active[,dso]`.

    Raises:
        ValueError: naming the file, and the row of a malformed row.
    """
    registry: dict[str, PodRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")  # a short row reads as empty fields
        needed = {"pod_id", "meter_generation", "active"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: header must contain {sorted(needed)}, got {reader.fieldnames}"
            )
        for i, row in enumerate(reader):
            pod = row["pod_id"].strip()
            active = row["active"].strip().lower()
            try:
                if not is_pod_id(pod):
                    raise ValueError(f"pod_id must be 14 ASCII alphanumeric characters, got {pod!r}")
                if pod in registry:
                    raise ValueError(f"duplicate pod_id {pod}")
                if active not in ("true", "false"):
                    raise ValueError(f"active must be true/false, got {row['active']!r}")
                generation = MeterGeneration(row["meter_generation"].strip())
            except ValueError as exc:
                raise ValueError(f"{path}: row {i}: {exc}") from None
            dso = (row.get("dso") or "default-dso").strip()
            registry[pod] = PodRecord(pod, generation, active == "true", dso)
    return registry


class Portal:
    """Registry lookups plus the pairings.

    `admits` is purely time-based: a pairing admits a frame at `t` when
    `active_at <= t < revoked_at`, so nothing has to run at activation.
    """

    def __init__(
        self,
        registry: dict[str, PodRecord],
        rng: random.Random | None = None,
        activation_delay_h: tuple[float, float] = (1.0, 4.0),
    ) -> None:
        lo, hi = activation_delay_h
        if not 0 <= lo <= hi:  # NaN too
            raise ValueError(f"bad activation window [{lo}, {hi}] hours")
        self.registry = dict(registry)
        self.activation_delay_h = (lo, hi)
        self._rng = rng if rng is not None else random.Random(0)
        self._log_sink: IO[str] | None = None
        self._pairings: dict[tuple[str, str], Pairing] = {}

    def set_log_sink(self, sink: IO[str] | None) -> None:
        """Attach (or detach) the transition log; used when resuming from a replay."""
        self._log_sink = sink

    # -- eligibility -------------------------------------------------------

    def check_eligibility(self, pod_id: str) -> Eligibility:
        record = self.registry.get(pod_id)
        if record is None:
            return Eligibility(False, "unknown_pod")
        if record.meter_generation is not MeterGeneration.SECOND:
            return Eligibility(False, "meter_generation")
        if not record.active:
            return Eligibility(False, "inactive")
        return Eligibility(True)

    # -- pairing lifecycle ---------------------------------------------------

    def _log(self, action: str, pod_id: str, device_id: str, t: float, **extra: float) -> None:
        if self._log_sink is not None:
            entry = {"action": action, "t": t, "pod_id": pod_id, "device_id": device_id, **extra}
            self._log_sink.write(json.dumps(entry, sort_keys=True) + "\n")

    def pair(self, pod_id: str, device_id: str, t: float) -> Pairing:
        """Request a pairing; activation lands a few hours later.

        Raises:
            IneligiblePodError: the POD fails the eligibility check.
            DuplicatePairingError: a live pairing for this pair already exists.
        """
        verdict = self.check_eligibility(pod_id)
        if not verdict.eligible:
            assert verdict.reason is not None
            raise IneligiblePodError(pod_id, verdict.reason)
        return self._pair(pod_id, device_id, t)

    def _pair(
        self, pod_id: str, device_id: str, t: float, active_at: float | None = None
    ) -> Pairing:
        """`pair` past the eligibility check.  A replay passes the logged
        `active_at`; the delay is drawn anyway, to keep the generator in step."""
        existing = self._pairings.get((pod_id, device_id))
        if existing is not None and existing.revoked_at is None:
            raise DuplicatePairingError(f"pairing {pod_id}<->{device_id} already live")
        lo, hi = self.activation_delay_h
        delay_s = self._rng.uniform(lo * 3600.0, hi * 3600.0)
        pairing = Pairing(pod_id, device_id, t, t + delay_s if active_at is None else active_at)
        self._pairings[(pod_id, device_id)] = pairing
        self._log("pair", pod_id, device_id, t, active_at=pairing.active_at)
        return pairing

    def revoke(self, pod_id: str, device_id: str, t: float) -> Pairing:
        """End a pairing; frames at or after `t` no longer reach the device.

        Raises:
            KeyError: no live pairing of the pair.
            ValueError: `t` is before the pairing was requested.
        """
        pairing = self._pairings.get((pod_id, device_id))
        if pairing is None or pairing.revoked_at is not None:
            raise KeyError(f"no live pairing {pod_id}<->{device_id}")
        if t < pairing.requested_at:
            raise ValueError(f"revoke at {t} is before the pairing request at {pairing.requested_at}")
        pairing.revoked_at = t
        self._log("revoke", pod_id, device_id, t)
        return pairing

    # -- queries ---------------------------------------------------------

    def window(self, pod_id: str, device_id: str) -> tuple[float, float]:
        """`(active_at, revoked_at)`, the span `admits` lets frames through:
        revoked_at is inf if never revoked, and both are inf if never paired."""
        pairing = self._pairings.get((pod_id, device_id))
        if pairing is None:
            return math.inf, math.inf
        revoked_at = pairing.revoked_at
        return pairing.active_at, math.inf if revoked_at is None else revoked_at

    def admits(self, pod_id: str, device_id: str, t: float) -> bool:
        """Whether a frame arriving at `t` may be processed by the device."""
        active_at, revoked_at = self.window(pod_id, device_id)
        return active_at <= t < revoked_at


def _time(entry: dict, key: str) -> float:
    value = entry.get(key)
    if type(value) is not float or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return value


def replay_log(
    registry: dict[str, PodRecord], path: str, rng: random.Random | None = None
) -> Portal:
    """Rebuild a portal from a transition log.

    Activation times are taken from the log, not re-drawn, so a replayed
    portal admits exactly the same frames as the original.  Each replayed
    `pair` still advances `rng` by one draw, so a portal replayed with the
    generator the log was written with draws the delays that follow as the
    original would have.

    Raises:
        ValueError: naming the file and line of a malformed entry.
    """
    portal = Portal(registry, rng)
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line, parse_int=float)  # so every number is a float
                action = entry.get("action") if isinstance(entry, dict) else None
                if action not in ("pair", "revoke"):
                    raise ValueError(f"unknown action {action!r}")
                pod_id, device_id = entry.get("pod_id"), entry.get("device_id")
                if not isinstance(pod_id, str) or not isinstance(device_id, str):
                    raise ValueError("pod_id and device_id must be strings")
                if action == "pair":
                    portal._pair(pod_id, device_id, _time(entry, "t"), _time(entry, "active_at"))
                else:
                    portal.revoke(pod_id, device_id, _time(entry, "t"))
            except (ValueError, DuplicatePairingError, KeyError) as exc:
                detail = exc.args[0] if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}:{line_no}: bad log entry: {detail}") from None
    return portal
