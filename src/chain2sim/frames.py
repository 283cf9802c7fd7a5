"""Compact-frame codec for the meter-to-device telemetry link.

Four frame types travel from a smart meter to its paired user device:

    T1  load curve        active energy of the closed quarter hour
    T2  band crossing     instantaneous power on crossing a k*Pn/10 band
    T3  exceedance        contractual power / energy threshold events
    T4  supply event      interruption start/end, voltage events

Wire layout (big-endian, fixed length per frame type).  The tables below are
the spec for readers; the code reads the payloads from one table, `_LAYOUT`:

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


@dataclass(slots=True)
class CompactFrame:
    """One telemetry message.  `seq` is a single monotone counter per meter,
    shared by all frame types, so the receiver can detect losses as gaps."""

    frame_type: FrameType
    pod_id: str
    seq: int
    timestamp: int
    payload: Payload


# The payload of each frame type: its record, and its fields in wire order as
# record attribute -> (key in the text form, struct code, largest value or enum).
# A T4 duration is carried only on an interruption end; elsewhere it is None
# in the record, zero on the wire and absent from the text.
_LAYOUT: dict[FrameType, tuple[type, dict[str, tuple[str, str, int | type[IntEnum]]]]] = {
    FrameType.T1: (T1Payload, {
        "quarter_index": ("quarter", "B", 95),
        "direction": ("direction", "B", EnergyDirection),
        "energy_wh": ("energy_wh", "H", _U16),
    }),
    FrameType.T2: (T2Payload, {
        "band_index": ("band", "B", 10),
        "direction": ("direction", "B", CrossingDirection),
        "power_w": ("power_w", "I", _U32),
    }),
    FrameType.T3: (T3Payload, {
        "cause": ("cause", "B", ExceedanceCause),
        "value": ("value", "I", _U32),
    }),
    FrameType.T4: (T4Payload, {
        "event": ("event", "B", SupplyEventKind),
        "duration_s": ("duration_s", "I", _U32),
    }),
}

_HEADER = ">BB14sII"  # version, type, pod id, seq, timestamp
_CRC_BYTES = 2

# Whole-body layout (header plus payload, no CRC) per frame type.
_BODY = {
    t: struct.Struct(_HEADER + "".join(code for _, code, _ in fields.values()))
    for t, (_, fields) in _LAYOUT.items()
}


def field_max(frame_type: FrameType, field: str) -> int:
    """Largest value the integer payload field `field` carries on the wire."""
    return _LAYOUT[frame_type][1][field][2]


def is_pod_id(value) -> bool:
    """Whether `value` is a POD id: 14 ASCII alphanumeric characters."""
    return (
        isinstance(value, str) and len(value) == POD_ID_LEN and value.isascii() and value.isalnum()
    )


def frame_bytes(frame_type: FrameType) -> int:
    """Total encoded length of a frame of the given type, in bytes."""
    return _BODY[FrameType(frame_type)].size + _CRC_BYTES


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


# -- Encoding -----------------------------------------------------------------


def _wire_value(field: str, value, limit: int | type[IntEnum]) -> int:
    """`value` as the wire carries it: an integer (a bool is not one) in
    0..limit, or a member of the enum `limit`.

    Raises:
        ValueError: naming the field, if `value` is neither.
    """
    if isinstance(limit, type):
        try:
            return limit(value)
        except (ValueError, TypeError):
            raise ValueError(f"{field} out of range: {value!r}") from None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if value < 0 or value > limit:
        raise ValueError(f"{field} out of range: {value} (allowed 0..{limit})")
    return value


def encode_frame(frame: CompactFrame) -> bytes:
    """Serialize a frame to its fixed-length wire image.

    Raises:
        FrameEncodeError: if any field is outside its declared range; the
            message names the offending field.
    """
    try:
        frame_type = FrameType(frame.frame_type)
    except (ValueError, TypeError):
        raise FrameEncodeError(f"unknown frame type {frame.frame_type!r}") from None
    if not is_pod_id(frame.pod_id):
        raise FrameEncodeError(
            f"pod_id must be {POD_ID_LEN} ASCII alphanumeric characters, got {frame.pod_id!r}"
        )
    payload_type, fields = _LAYOUT[frame_type]
    payload = frame.payload
    if type(payload) is not payload_type:
        raise FrameEncodeError(
            f"payload for {frame_type.name} must be {payload_type.__name__}, "
            f"got {type(payload).__name__}"
        )
    values = [getattr(payload, name) for name in fields]
    if payload_type is T4Payload:
        event, duration = values
        if (event == SupplyEventKind.INTERRUPTION_END) != (duration is not None):
            raise FrameEncodeError(f"duration_s required on interruption_end only, got {duration!r}")
        values[1] = 0 if duration is None else duration
    try:
        seq = _wire_value("seq", frame.seq, _U32)
        ts = _wire_value("timestamp", frame.timestamp, _U32)
        values = [
            _wire_value(name, value, limit)
            for (name, (_, _, limit)), value in zip(fields.items(), values)
        ]
    except ValueError as exc:
        raise FrameEncodeError(str(exc)) from None
    pod = frame.pod_id.encode("ascii")
    body = _BODY[frame_type].pack(VERSION, frame_type, pod, seq, ts, *values)
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
    try:
        frame_type = FrameType(data[1])
    except ValueError:
        raise UnknownFrameTypeError(f"unknown frame type byte 0x{data[1]:02X}") from None
    payload_type, fields = _LAYOUT[frame_type]
    body_size = _BODY[frame_type].size
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
    _, _, pod_raw, seq, ts, *raw = _BODY[frame_type].unpack_from(data)
    try:
        values = {
            name: _wire_value(name, value, limit)
            for (name, (_, _, limit)), value in zip(fields.items(), raw)
        }
    except ValueError as exc:
        raise FieldValueError(str(exc)) from None
    if payload_type is T4Payload and values["event"] is not SupplyEventKind.INTERRUPTION_END:
        if values["duration_s"] != 0:
            raise FieldValueError(f"duration_s must be zero for {values['event'].name.lower()}")
        values["duration_s"] = None
    pod_id = pod_raw.decode("latin-1")
    if not is_pod_id(pod_id):
        raise FieldValueError(f"pod_id is not ASCII alphanumeric: {pod_raw!r}")
    return CompactFrame(frame_type, pod_id, seq, ts, payload_type(**values))


# -- Canonical text form ------------------------------------------------------
# One-line description used by the golden-vector corpus
# (`hex_bytes<TAB>description`, one record per line) and by log output.


def describe_frame(frame: CompactFrame) -> str:
    """Canonical one-line description, stable across releases."""
    frame_type = FrameType(frame.frame_type)
    words = [f"{frame_type.name} pod={frame.pod_id} seq={frame.seq} ts={frame.timestamp}"]
    for name, (key, _, limit) in _LAYOUT[frame_type][1].items():
        value = getattr(frame.payload, name)
        if value is not None:
            words.append(f"{key}={limit(value).name.lower() if isinstance(limit, type) else value}")
    return " ".join(words)


def frame_from_description(text: str) -> CompactFrame:
    """Parse the canonical description back into a frame.

    Raises:
        ValueError: on malformed descriptions, naming the missing key or the
            bad value.
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

    def read(key: str, kind=int):
        if key not in fields:
            raise ValueError(f"{frame_type.name} description has no {key}=")
        value = fields[key]
        try:
            return kind[value.upper()] if issubclass(kind, IntEnum) else kind(value)
        except (KeyError, ValueError):
            raise ValueError(f"bad {key}={value}") from None

    payload_type, layout = _LAYOUT[frame_type]
    values = {
        name: None
        if name == "duration_s" and key not in fields
        else read(key, limit if isinstance(limit, type) else int)
        for name, (key, _, limit) in layout.items()
    }
    return CompactFrame(
        frame_type, read("pod", str), read("seq"), read("ts"), payload_type(**values)
    )
