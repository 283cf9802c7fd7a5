"""Distributor portal mock: POD eligibility and POD-device pairing lifecycle.

A POD may talk to a user device only if it is registered, metered by a
second-generation meter, and active.  Pairing a device is asynchronous:
the request is accepted immediately but frames flow only after an
activation delay drawn uniformly from a configurable window (default one
to four hours), and stop flowing at revocation.  `admits` is the gate the
scenario runner consults per frame.

Every transition (pair, activate, revoke) is appended to an optional
line-delimited JSON log, and `replay_log` rebuilds a portal from such a
log, so a run can be resumed or audited.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import IO


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


class PairingStatus(Enum):
    PENDING = "pending"
    ACTIVE = "active"
    REVOKED = "revoked"


@dataclass(frozen=True)
class Eligibility:
    eligible: bool
    # one of: unknown_pod, meter_generation, inactive; None when eligible
    reason: str | None = None


@dataclass
class Pairing:
    pod_id: str
    device_id: str
    requested_at: float
    active_at: float
    status: PairingStatus = PairingStatus.PENDING
    revoked_at: float | None = None


def load_registry(path: str) -> dict[str, PodRecord]:
    """Read a registry seed file: `pod_id,meter_generation,active[,dso]`."""
    registry: dict[str, PodRecord] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"pod_id", "meter_generation", "active"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ValueError(
                f"{path}: header must contain {sorted(needed)}, got {reader.fieldnames}"
            )
        for i, row in enumerate(reader):
            pod = row["pod_id"].strip()
            if pod in registry:
                raise ValueError(f"{path}: row {i}: duplicate pod_id {pod}")
            active_raw = row["active"].strip().lower()
            if active_raw not in ("true", "false"):
                raise ValueError(
                    f"{path}: row {i}: active must be true/false, got {row['active']!r}"
                )
            registry[pod] = PodRecord(
                pod_id=pod,
                meter_generation=MeterGeneration(row["meter_generation"].strip()),
                active=active_raw == "true",
                dso=(row.get("dso") or "default-dso").strip(),
            )
    return registry


class Portal:
    """Registry lookups plus the pairing state machine.

    Pairings move pending -> active -> revoked, never backwards.  `admits`
    is purely time-based (a pending pairing whose activation time has come
    admits frames even before `activate_due` promoted its status), so gate
    decisions do not depend on how often bookkeeping ran.
    """

    def __init__(
        self,
        registry: dict[str, PodRecord],
        rng: random.Random | None = None,
        activation_delay_h: tuple[float, float] = (1.0, 4.0),
        log_sink: IO[str] | None = None,
    ) -> None:
        lo, hi = activation_delay_h
        if lo < 0 or hi < lo:
            raise ValueError(f"bad activation window [{lo}, {hi}] hours")
        self.registry = dict(registry)
        self.activation_delay_h = (lo, hi)
        self._rng = rng if rng is not None else random.Random(0)
        self._log_sink = log_sink
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

    def _log(self, entry: dict) -> None:
        if self._log_sink is not None:
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
        key = (pod_id, device_id)
        existing = self._pairings.get(key)
        if existing is not None and existing.status is not PairingStatus.REVOKED:
            raise DuplicatePairingError(
                f"pairing {pod_id}<->{device_id} already {existing.status.value}"
            )
        lo, hi = self.activation_delay_h
        delay_s = self._rng.uniform(lo * 3600.0, hi * 3600.0)
        pairing = Pairing(pod_id, device_id, t, t + delay_s)
        self._pairings[key] = pairing
        self._log(
            {
                "action": "pair",
                "t": t,
                "pod_id": pod_id,
                "device_id": device_id,
                "active_at": pairing.active_at,
            }
        )
        return pairing

    def activate_due(self, t: float) -> list[Pairing]:
        """Promote pending pairings whose activation time has passed."""
        promoted = []
        for pairing in self._pairings.values():
            if pairing.status is PairingStatus.PENDING and t >= pairing.active_at:
                pairing.status = PairingStatus.ACTIVE
                promoted.append(pairing)
                self._log(
                    {
                        "action": "activate",
                        "t": pairing.active_at,
                        "pod_id": pairing.pod_id,
                        "device_id": pairing.device_id,
                    }
                )
        return promoted

    def revoke(self, pod_id: str, device_id: str, t: float) -> Pairing:
        """End a pairing; frames at or after `t` no longer reach the device."""
        pairing = self._pairings.get((pod_id, device_id))
        if pairing is None or pairing.status is PairingStatus.REVOKED:
            raise KeyError(f"no live pairing {pod_id}<->{device_id}")
        pairing.status = PairingStatus.REVOKED
        pairing.revoked_at = t
        self._log(
            {"action": "revoke", "t": t, "pod_id": pod_id, "device_id": device_id}
        )
        return pairing

    # -- queries ---------------------------------------------------------

    def pairing(self, pod_id: str, device_id: str) -> Pairing | None:
        return self._pairings.get((pod_id, device_id))

    def admits(self, pod_id: str, device_id: str, t: float) -> bool:
        """Whether a frame arriving at `t` may be processed by the device."""
        pairing = self._pairings.get((pod_id, device_id))
        if pairing is None:
            return False
        if t < pairing.active_at:
            return False
        return pairing.revoked_at is None or t < pairing.revoked_at


def replay_log(registry: dict[str, PodRecord], path: str) -> Portal:
    """Rebuild portal pairing state from a transition log.

    Activation times are taken from the log, not re-drawn, so a replayed
    portal admits exactly the same frames as the original.
    """
    portal = Portal(registry)
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                action = entry["action"]
                key = (entry["pod_id"], entry["device_id"])
            except (json.JSONDecodeError, KeyError) as exc:
                raise ValueError(f"{path}:{line_no}: bad log entry: {exc}") from None
            if action == "pair":
                portal._pairings[key] = Pairing(
                    key[0], key[1], entry["t"], entry["active_at"]
                )
            elif action == "activate":
                pairing = portal._pairings[key]
                pairing.status = PairingStatus.ACTIVE
            elif action == "revoke":
                pairing = portal._pairings[key]
                pairing.status = PairingStatus.REVOKED
                pairing.revoked_at = entry["t"]
            else:
                raise ValueError(f"{path}:{line_no}: unknown action {action!r}")
    return portal
