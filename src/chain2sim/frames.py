"""Compact-frame codec for the meter-to-device telemetry link.

Four frame types travel from a smart meter to its paired user device:

    T1  load curve        active energy of the closed quarter hour
    T2  band crossing     instantaneous power on crossing a k*Pn/10 band
    T3  exceedance        contractual power / energy threshold events
    T4  supply event      interruption start/end, voltage events

Wire layout (big-endian, fixed length per frame type):

    | offset | size | field                                          |
    |--------|------|------------------------------------------------|
    | 0      | 1    | version, currently 0x01                        |
    | 1      | 1    | frame type (1=T1, 2=T2, 3=T3, 4=T4)            |
    | 2      | 14   | POD id, ASCII alphanumeric                     |
    | 16     | 4    | sequence number (uint32, one counter per meter)|
    | 20     | 4    | timestamp, seconds since scenario epoch        |
    | 24     | n    | payload, fixed size per type (below)           |
    | 24+n   | 2    | CRC-16/CCITT-FALSE over bytes 0 .. 24+n-1      |

Payloads:

    T1 (4 bytes): quarter index u8 (0-95) | direction u8 | energy u16 [Wh]
    T2 (6 bytes): band index u8 (0-10) | crossing direction u8 | power u32 [W]
    T3 (5 bytes): cause u8 | value u32 (W or Wh depending on cause)
    T4 (5 bytes): event u8 | duration u32 [s] (zero unless interruption end)

Totals: T1 30 B, T2 32 B, T3 31 B, T4 31 B.  At the 4800 bit/s channel
rate a T1 frame (240 bits) serializes in 50 ms.

Timestamps are scenario-epoch seconds, never wall clock, so encoded
byte streams are fully reproducible.  All functions here are pure.

The frame records (`CompactFrame` and the payloads) are slotted value
records, built once and never changed: they compare by type and fields, and
are not hashable.
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass
from enum import IntEnum

VERSION = 0x01

POD_ID_LEN = 14

_U16 = 0xFFFF
_U32 = 0xFFFFFFFF


class FrameType(IntEnum):
    T1 = 1
    T2 = 2
    T3 = 3
    T4 = 4


class EnergyDirection(IntEnum):
    """Direction of the energy flow a T1 quarter reports."""

    WITHDRAWN = 0
    FED_IN = 1


class CrossingDirection(IntEnum):
    """Which way the power crossed a band threshold."""

    UP = 0
    DOWN = 1


class ExceedanceCause(IntEnum):
    """What a T3 frame reports; `value` is W for power causes, Wh for energy."""

    POWER_EXCEEDED = 0
    ENERGY_THRESHOLD_EXCEEDED = 1
    RESTORED = 2


class SupplyEventKind(IntEnum):
    INTERRUPTION_START = 0
    INTERRUPTION_END = 1
    VOLTAGE_EVENT = 2


# -- Errors -------------------------------------------------------------------


class FrameError(Exception):
    """Base class for every codec error."""


class FrameEncodeError(FrameError):
    """A frame field is outside its declared range; message names the field."""


class FrameDecodeError(FrameError):
    """Base class for decode failures."""


class TruncatedFrameError(FrameDecodeError):
    """Input shorter (or longer) than the fixed length of its frame type."""


class UnknownFrameTypeError(FrameDecodeError):
    """Type byte does not name a known frame type."""


class UnsupportedVersionError(FrameDecodeError):
    """Version byte differs from the supported codec version."""


class CrcMismatchError(FrameDecodeError):
    """Checksum does not match the frame body."""


class FieldValueError(FrameDecodeError):
    """CRC is valid but a payload field is outside its declared range."""


# -- Frame model --------------------------------------------------------------


@dataclass(slots=True)
class T1Payload:
    """Closed quarter-hour energy, 0-95 within the day."""

    quarter_index: int
    energy_wh: int
    direction: EnergyDirection = EnergyDirection.WITHDRAWN


@dataclass(slots=True)
class T2Payload:
    """Band crossing: `band_index` is the k of the k*Pn/10 threshold crossed."""

    band_index: int
    power_w: int
    direction: CrossingDirection


@dataclass(slots=True)
class T3Payload:
    cause: ExceedanceCause
    value: int


@dataclass(slots=True)
class T4Payload:
    """Supply event; `duration_s` only accompanies an interruption end."""

    event: SupplyEventKind
    duration_s: int | None = None


Payload = T1Payload | T2Payload | T3Payload | T4Payload

_PAYLOAD_TYPE = {
    FrameType.T1: T1Payload,
    FrameType.T2: T2Payload,
    FrameType.T3: T3Payload,
    FrameType.T4: T4Payload,
}


@dataclass(slots=True)
class CompactFrame:
    """One telemetry message.  `seq` is a single monotone counter per meter,
    shared by all frame types, so the receiver can detect losses as gaps."""

    frame_type: FrameType
    pod_id: str
    seq: int
    timestamp: int
    payload: Payload


_HEADER = ">BB14sII"  # version, type, pod id, seq, timestamp
_CRC_BYTES = 2

# Whole-body layout (header plus payload, no CRC) per frame type, shared by
# encode and decode.
_BODY: dict[FrameType, struct.Struct] = {
    FrameType.T1: struct.Struct(_HEADER + "BBH"),  # quarter, direction, energy Wh
    FrameType.T2: struct.Struct(_HEADER + "BBI"),  # band, direction, power W
    FrameType.T3: struct.Struct(_HEADER + "BI"),  # cause, value
    FrameType.T4: struct.Struct(_HEADER + "BI"),  # event, duration s
}

_FRAME_BYTES = {t: layout.size + _CRC_BYTES for t, layout in _BODY.items()}

# Frame type (member or equal value) -> (member, body layout, payload class).
_ENCODING = {t: (t, _BODY[t], _PAYLOAD_TYPE[t]) for t in FrameType}
# The same entries indexed by the type byte; None where no type is defined.
_DECODING = tuple(_ENCODING.get(b) for b in range(max(FrameType) + 1))

# Valid enum values mapped to their wire byte.  A dict lookup accepts exactly
# what the enum constructor accepts (members, plain ints, equal numbers) and
# rejects everything else with KeyError or, for unhashable values, TypeError.
_ENERGY_DIRECTION_BYTE = {m: m.value for m in EnergyDirection}
_CROSSING_DIRECTION_BYTE = {m: m.value for m in CrossingDirection}
_EXCEEDANCE_CAUSE_BYTE = {m: m.value for m in ExceedanceCause}
_SUPPLY_EVENT_BYTE = {m: m.value for m in SupplyEventKind}


def _members_by_value(enum_cls) -> tuple:
    """Members indexed by their value; the values must be 0, 1, 2, ..."""
    members = tuple(enum_cls)
    assert [m.value for m in members] == list(range(len(members)))
    return members


_ENERGY_DIRECTIONS = _members_by_value(EnergyDirection)
_CROSSING_DIRECTIONS = _members_by_value(CrossingDirection)
_EXCEEDANCE_CAUSES = _members_by_value(ExceedanceCause)
_SUPPLY_EVENTS = _members_by_value(SupplyEventKind)


def frame_bytes(frame_type: FrameType) -> int:
    """Total encoded length of a frame of the given type, in bytes."""
    return _FRAME_BYTES[FrameType(frame_type)]


def frame_bits(frame_type: FrameType) -> int:
    """Total encoded length in bits; drives the channel serialization delay."""
    return 8 * frame_bytes(frame_type)


# -- CRC-16/CCITT-FALSE -------------------------------------------------------
# Polynomial 0x1021, init 0xFFFF, no reflection, no final XOR.
# Check value: crc16("123456789") == 0x29B1.  `binascii.crc_hqx` computes
# exactly this CRC when seeded with 0xFFFF.


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE over a byte sequence."""
    return binascii.crc_hqx(data, 0xFFFF)


# -- Pod ids ------------------------------------------------------------------
# A run sends thousands of frames per pod, so each pod id is validated once
# and its wire image (and the reverse) remembered.

_POD_CACHE_MAX = 4096
_POD_BYTES: dict[str, bytes] = {}
_POD_IDS: dict[bytes, str] = {}


def _remember_pod(pod_id: str, raw: bytes) -> None:
    if len(_POD_BYTES) < _POD_CACHE_MAX:
        _POD_BYTES[pod_id] = raw
        _POD_IDS[raw] = pod_id


def _check_pod_id(pod_id: str) -> bytes:
    if not isinstance(pod_id, str) or len(pod_id) != POD_ID_LEN:
        raise FrameEncodeError(
            f"pod_id must be exactly {POD_ID_LEN} characters, got {pod_id!r}"
        )
    if not (pod_id.isascii() and pod_id.isalnum()):
        raise FrameEncodeError(f"pod_id must be ASCII alphanumeric, got {pod_id!r}")
    raw = pod_id.encode("ascii")
    _remember_pod(pod_id, raw)
    return raw


def _decode_pod_id(raw: bytes) -> str:
    try:
        pod_id = raw.decode("ascii")
    except UnicodeDecodeError:
        raise FieldValueError(f"pod_id is not ASCII: {raw!r}") from None
    if not pod_id.isalnum():
        raise FieldValueError(f"pod_id is not alphanumeric: {pod_id!r}")
    _remember_pod(pod_id, raw)
    return pod_id


# -- Encoding -----------------------------------------------------------------
# Each field is checked inline with `type(v) is int and lo <= v <= hi`, which
# rejects bools.  Only a value that fails it reaches `_check_int`, which
# raises naming the field, or returns the value if it is a non-bool int
# subclass in range.


def _check_int(field: str, value: int, lo: int, hi: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise FrameEncodeError(f"{field} must be an integer, got {value!r}")
    if value < lo or value > hi:
        raise FrameEncodeError(f"{field} out of range: {value} (allowed {lo}..{hi})")
    return value


def _enum_error(field: str, value) -> FrameEncodeError:
    return FrameEncodeError(f"{field} out of range: {value!r}")


def encode_frame(frame: CompactFrame) -> bytes:
    """Serialize a frame to its fixed-length wire image.

    Raises:
        FrameEncodeError: if any field is outside its declared range; the
            message names the offending field.
    """
    try:
        frame_type, layout, expected = _ENCODING[frame.frame_type]
    except (KeyError, TypeError):
        raise FrameEncodeError(f"unknown frame type {frame.frame_type!r}") from None
    pod_id = frame.pod_id
    try:
        pod = _POD_BYTES[pod_id]
    except (KeyError, TypeError):
        pod = _check_pod_id(pod_id)
    seq = frame.seq
    if type(seq) is not int or not 0 <= seq <= _U32:
        seq = _check_int("seq", seq, 0, _U32)
    ts = frame.timestamp
    if type(ts) is not int or not 0 <= ts <= _U32:
        ts = _check_int("timestamp", ts, 0, _U32)

    payload = frame.payload
    if type(payload) is not expected:
        raise FrameEncodeError(
            f"payload for {frame_type.name} must be {expected.__name__}, "
            f"got {type(payload).__name__}"
        )
    if expected is T1Payload:
        quarter = payload.quarter_index
        if type(quarter) is not int or not 0 <= quarter <= 95:
            quarter = _check_int("quarter_index", quarter, 0, 95)
        try:
            direction = _ENERGY_DIRECTION_BYTE[payload.direction]
        except (KeyError, TypeError):
            raise _enum_error("direction", payload.direction) from None
        energy = payload.energy_wh
        if type(energy) is not int or not 0 <= energy <= _U16:
            energy = _check_int("energy_wh", energy, 0, _U16)
        body = layout.pack(VERSION, frame_type, pod, seq, ts, quarter, direction, energy)
    elif expected is T2Payload:
        band = payload.band_index
        if type(band) is not int or not 0 <= band <= 10:
            band = _check_int("band_index", band, 0, 10)
        try:
            direction = _CROSSING_DIRECTION_BYTE[payload.direction]
        except (KeyError, TypeError):
            raise _enum_error("direction", payload.direction) from None
        power = payload.power_w
        if type(power) is not int or not 0 <= power <= _U32:
            power = _check_int("power_w", power, 0, _U32)
        body = layout.pack(VERSION, frame_type, pod, seq, ts, band, direction, power)
    elif expected is T3Payload:
        try:
            cause = _EXCEEDANCE_CAUSE_BYTE[payload.cause]
        except (KeyError, TypeError):
            raise _enum_error("cause", payload.cause) from None
        value = payload.value
        if type(value) is not int or not 0 <= value <= _U32:
            value = _check_int("value", value, 0, _U32)
        body = layout.pack(VERSION, frame_type, pod, seq, ts, cause, value)
    else:
        try:
            event = _SUPPLY_EVENT_BYTE[payload.event]
        except (KeyError, TypeError):
            raise _enum_error("event", payload.event) from None
        # The duration field is meaningful only on an interruption end and
        # must be absent (None) otherwise, so the wire image is unambiguous.
        duration = payload.duration_s
        if event == SupplyEventKind.INTERRUPTION_END:
            if duration is None:
                raise FrameEncodeError("duration_s required for interruption_end")
            if type(duration) is not int or not 0 <= duration <= _U32:
                duration = _check_int("duration_s", duration, 0, _U32)
        elif duration is not None:
            raise FrameEncodeError(
                f"duration_s only valid for interruption_end, got {duration}"
            )
        else:
            duration = 0
        body = layout.pack(VERSION, frame_type, pod, seq, ts, event, duration)
    return body + crc16(body).to_bytes(2, "big")


# -- Decoding -----------------------------------------------------------------


def decode_frame(data: bytes) -> CompactFrame:
    """Parse a wire image back into a CompactFrame.

    Exact inverse of encode_frame on valid input.  Never raises anything
    other than a FrameDecodeError subclass, whatever the input bytes.
    Enum fields always come back as enum members.

    Raises:
        TruncatedFrameError: input shorter/longer than the type's fixed length.
        UnsupportedVersionError: version byte is not supported.
        UnknownFrameTypeError: type byte names no known frame type.
        CrcMismatchError: checksum check failed.
        FieldValueError: checksum valid but a field is out of range.
    """
    size = len(data)
    if size < 2:
        raise TruncatedFrameError(f"need at least 2 bytes, got {size}")
    if data[0] != VERSION:
        raise UnsupportedVersionError(f"unsupported version byte 0x{data[0]:02X}")
    type_byte = data[1]
    entry = _DECODING[type_byte] if type_byte < len(_DECODING) else None
    if entry is None:
        raise UnknownFrameTypeError(f"unknown frame type byte 0x{type_byte:02X}")
    frame_type, layout, payload_type = entry
    body_size = layout.size
    if size != body_size + _CRC_BYTES:
        raise TruncatedFrameError(
            f"{frame_type.name} frame must be {body_size + _CRC_BYTES} bytes, got {size}"
        )
    received_crc = data[body_size] << 8 | data[body_size + 1]
    computed_crc = crc16(data[:body_size])
    if received_crc != computed_crc:
        raise CrcMismatchError(
            f"CRC mismatch: received 0x{received_crc:04X}, computed 0x{computed_crc:04X}"
        )
    if payload_type is T1Payload:
        _, _, pod_raw, seq, ts, quarter, direction, energy = layout.unpack_from(data)
        if quarter > 95:
            raise FieldValueError(f"quarter_index out of range: {quarter}")
        try:
            payload = T1Payload(quarter, energy, _ENERGY_DIRECTIONS[direction])
        except IndexError:
            raise FieldValueError(f"direction byte invalid: {direction}") from None
    elif payload_type is T2Payload:
        _, _, pod_raw, seq, ts, band, direction, power = layout.unpack_from(data)
        if band > 10:
            raise FieldValueError(f"band_index out of range: {band}")
        try:
            payload = T2Payload(band, power, _CROSSING_DIRECTIONS[direction])
        except IndexError:
            raise FieldValueError(f"direction byte invalid: {direction}") from None
    elif payload_type is T3Payload:
        _, _, pod_raw, seq, ts, cause, value = layout.unpack_from(data)
        try:
            payload = T3Payload(_EXCEEDANCE_CAUSES[cause], value)
        except IndexError:
            raise FieldValueError(f"cause byte invalid: {cause}") from None
    else:
        _, _, pod_raw, seq, ts, event_byte, duration = layout.unpack_from(data)
        try:
            event = _SUPPLY_EVENTS[event_byte]
        except IndexError:
            raise FieldValueError(f"event byte invalid: {event_byte}") from None
        if event is SupplyEventKind.INTERRUPTION_END:
            payload = T4Payload(event, duration)
        elif duration != 0:
            raise FieldValueError(f"duration_s must be zero for {event.name.lower()}")
        else:
            payload = T4Payload(event, None)
    pod_id = _POD_IDS.get(pod_raw) or _decode_pod_id(pod_raw)
    return CompactFrame(frame_type, pod_id, seq, ts, payload)


# -- Canonical text form ------------------------------------------------------
# One-line description used by the golden-vector corpus
# (`hex_bytes<TAB>description`, one record per line) and by log output.


def describe_frame(frame: CompactFrame) -> str:
    """Canonical one-line description, stable across releases."""
    head = (
        f"{FrameType(frame.frame_type).name} pod={frame.pod_id} "
        f"seq={frame.seq} ts={frame.timestamp}"
    )
    p = frame.payload
    if isinstance(p, T1Payload):
        return (
            f"{head} quarter={p.quarter_index} "
            f"direction={EnergyDirection(p.direction).name.lower()} energy_wh={p.energy_wh}"
        )
    if isinstance(p, T2Payload):
        return (
            f"{head} band={p.band_index} "
            f"direction={CrossingDirection(p.direction).name.lower()} power_w={p.power_w}"
        )
    if isinstance(p, T3Payload):
        return f"{head} cause={ExceedanceCause(p.cause).name.lower()} value={p.value}"
    if p.event is SupplyEventKind.INTERRUPTION_END:
        return f"{head} event=interruption_end duration_s={p.duration_s}"
    return f"{head} event={SupplyEventKind(p.event).name.lower()}"


def frame_from_description(text: str) -> CompactFrame:
    """Parse the canonical description back into a frame.

    Raises:
        ValueError: on malformed descriptions.
    """
    parts = text.split()
    if not parts:
        raise ValueError("empty frame description")
    try:
        frame_type = FrameType[parts[0]]
    except KeyError:
        raise ValueError(f"unknown frame type {parts[0]!r}") from None
    fields: dict[str, str] = {}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed field {part!r}")
        fields[key] = value
    payload: Payload
    if frame_type is FrameType.T1:
        payload = T1Payload(
            int(fields["quarter"]),
            int(fields["energy_wh"]),
            EnergyDirection[fields["direction"].upper()],
        )
    elif frame_type is FrameType.T2:
        payload = T2Payload(
            int(fields["band"]),
            int(fields["power_w"]),
            CrossingDirection[fields["direction"].upper()],
        )
    elif frame_type is FrameType.T3:
        payload = T3Payload(ExceedanceCause[fields["cause"].upper()], int(fields["value"]))
    else:
        event = SupplyEventKind[fields["event"].upper()]
        duration = int(fields["duration_s"]) if "duration_s" in fields else None
        payload = T4Payload(event, duration)
    return CompactFrame(
        frame_type, fields["pod"], int(fields["seq"]), int(fields["ts"]), payload
    )
