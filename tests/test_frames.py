"""Codec tests: roundtrips, corruption rejection, golden vectors."""

import random
import string
from dataclasses import astuple, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain2sim.device import QuarterRecord
from chain2sim.frames import (
    CompactFrame,
    CrcMismatchError,
    CrossingDirection,
    EnergyDirection,
    ExceedanceCause,
    FieldValueError,
    FrameDecodeError,
    FrameEncodeError,
    FrameType,
    SupplyEventKind,
    T1Payload,
    T2Payload,
    T3Payload,
    T4Payload,
    TruncatedFrameError,
    UnknownFrameTypeError,
    UnsupportedVersionError,
    crc16,
    decode_frame,
    describe_frame,
    encode_frame,
    frame_bits,
    frame_bytes,
    frame_from_description,
)

GOLDEN = Path(__file__).parent / "data" / "golden_frames.txt"

ALNUM = string.ascii_letters + string.digits

pod_ids = st.text(alphabet=ALNUM, min_size=14, max_size=14)


def _payloads():
    t1 = st.builds(
        T1Payload,
        quarter_index=st.integers(0, 95),
        energy_wh=st.integers(0, 0xFFFF),
        direction=st.sampled_from(EnergyDirection),
    )
    t2 = st.builds(
        T2Payload,
        band_index=st.integers(0, 10),
        power_w=st.integers(0, 0xFFFFFFFF),
        direction=st.sampled_from(CrossingDirection),
    )
    t3 = st.builds(
        T3Payload,
        cause=st.sampled_from(ExceedanceCause),
        value=st.integers(0, 0xFFFFFFFF),
    )
    t4_end = st.builds(
        T4Payload,
        event=st.just(SupplyEventKind.INTERRUPTION_END),
        duration_s=st.integers(0, 0xFFFFFFFF),
    )
    t4_other = st.builds(
        T4Payload,
        event=st.sampled_from(
            [SupplyEventKind.INTERRUPTION_START, SupplyEventKind.VOLTAGE_EVENT]
        ),
        duration_s=st.none(),
    )
    return st.one_of(t1, t2, t3, t4_end, t4_other)


_TYPE_FOR_PAYLOAD = {
    T1Payload: FrameType.T1,
    T2Payload: FrameType.T2,
    T3Payload: FrameType.T3,
    T4Payload: FrameType.T4,
}

frames = st.builds(
    lambda pod, seq, ts, payload: CompactFrame(
        _TYPE_FOR_PAYLOAD[type(payload)], pod, seq, ts, payload
    ),
    pod_ids,
    st.integers(0, 0xFFFFFFFF),
    st.integers(0, 0xFFFFFFFF),
    _payloads(),
)


@given(frames)
def test_roundtrip(frame):
    assert decode_frame(encode_frame(frame)) == frame


@given(frames)
def test_encoded_length_is_fixed(frame):
    raw = encode_frame(frame)
    assert len(raw) == frame_bytes(frame.frame_type)
    assert frame_bits(frame.frame_type) == 8 * len(raw)


@given(st.binary(max_size=64))
def test_decode_never_crashes(data):
    """Arbitrary bytes either decode or raise a codec error, nothing else."""
    try:
        frame = decode_frame(data)
    except FrameDecodeError:
        return
    assert encode_frame(frame) == data


@settings(max_examples=300)
@given(frames, st.data())
def test_single_byte_corruption_rejected(frame, data):
    raw = bytearray(encode_frame(frame))
    pos = data.draw(st.integers(0, len(raw) - 1))
    flip = data.draw(st.integers(1, 255))
    raw[pos] ^= flip
    with pytest.raises(FrameDecodeError):
        decode_frame(bytes(raw))


def test_crc_check_value():
    assert crc16(b"123456789") == 0x29B1
    assert crc16(b"") == 0xFFFF


def test_crc_against_bitwise_reference():
    """The CRC equals a naive bit-by-bit computation."""

    def reference(data: bytes) -> int:
        crc = 0xFFFF
        for byte in data:
            crc ^= byte << 8
            for _ in range(8):
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF if crc & 0x8000 else (crc << 1) & 0xFFFF
        return crc

    rng = random.Random(2024)
    for _ in range(200):
        blob = rng.randbytes(rng.randrange(0, 40))
        assert crc16(blob) == reference(blob)


def test_t1_frame_fits_50ms_at_4800bps():
    # The load-curve frame is 240 bits, i.e. 50 ms of air time at 4800 bit/s.
    assert frame_bits(FrameType.T1) == 240
    assert frame_bits(FrameType.T1) / 4800.0 == pytest.approx(0.050)


def test_frame_sizes():
    assert frame_bytes(FrameType.T1) == 30
    assert frame_bytes(FrameType.T2) == 32
    assert frame_bytes(FrameType.T3) == 31
    assert frame_bytes(FrameType.T4) == 31


def _frame(payload, frame_type, pod="IT001E00000042", seq=7, ts=90):
    return CompactFrame(frame_type, pod, seq, ts, payload)


def test_encode_rejects_bad_pod_ids():
    frame = _frame(T1Payload(0, 1), FrameType.T1, pod="short")
    with pytest.raises(FrameEncodeError, match="pod_id"):
        encode_frame(frame)
    frame = _frame(T1Payload(0, 1), FrameType.T1, pod="IT001E0000000!")
    with pytest.raises(FrameEncodeError, match="alphanumeric"):
        encode_frame(frame)


@pytest.mark.parametrize(
    "payload,frame_type,field",
    [
        (T1Payload(96, 0), FrameType.T1, "quarter_index"),
        (T1Payload(0, -1), FrameType.T1, "energy_wh"),
        (T1Payload(0, 0x10000), FrameType.T1, "energy_wh"),
        (T2Payload(11, 0, CrossingDirection.UP), FrameType.T2, "band_index"),
        (T2Payload(0, -5, CrossingDirection.UP), FrameType.T2, "power_w"),
        (T3Payload(ExceedanceCause.RESTORED, -1), FrameType.T3, "value"),
        (T1Payload(0, 0, direction=5), FrameType.T1, "direction"),
        (T2Payload(0, 0, direction=7), FrameType.T2, "direction"),
        (T3Payload(cause=9, value=0), FrameType.T3, "cause"),
        (T4Payload(event=9), FrameType.T4, "event"),
        # Bools are not integers, whatever their value.
        pytest.param(T1Payload(True, 0), FrameType.T1, "quarter_index", id="quarter_bool"),
        pytest.param(T1Payload(0, 0, [1]), FrameType.T1, "direction", id="direction_unhashable"),
        # A dict instead of a payload overrides the header of a valid frame.
        pytest.param({"seq": True}, FrameType.T1, "seq", id="seq_bool"),
        pytest.param({"ts": -1}, FrameType.T1, "timestamp", id="timestamp_negative"),
    ],
)
def test_encode_rejects_out_of_range_fields(payload, frame_type, field):
    if isinstance(payload, dict):
        frame = _frame(T1Payload(0, 0), frame_type, **payload)
    else:
        frame = _frame(payload, frame_type)
    with pytest.raises(FrameEncodeError, match=field):
        encode_frame(frame)


_ENUM_FIELD = {
    T1Payload: "direction",
    T2Payload: "direction",
    T3Payload: "cause",
    T4Payload: "event",
}


def _with_plain_ints(frame):
    """The same frame with its frame type and enum field as plain ints."""
    name = _ENUM_FIELD[type(frame.payload)]
    payload = replace(frame.payload, **{name: int(getattr(frame.payload, name))})
    return replace(frame, frame_type=int(frame.frame_type), payload=payload)


@given(frames)
def test_plain_int_enum_fields_encode_identically(frame):
    plain = _with_plain_ints(frame)
    assert type(plain.frame_type) is int
    assert encode_frame(plain) == encode_frame(frame)


@given(frames)
def test_decode_returns_enum_members(frame):
    decoded = decode_frame(encode_frame(_with_plain_ints(frame)))
    assert type(decoded.frame_type) is FrameType
    name = _ENUM_FIELD[type(decoded.payload)]
    value = getattr(decoded.payload, name)
    assert type(value) is type(getattr(frame.payload, name))
    assert decoded == frame


def test_payloads_of_different_types_never_compare_equal():
    # Same field values, different record types.
    pairs = [
        (T1Payload(1, 7, EnergyDirection.WITHDRAWN), T2Payload(1, 7, CrossingDirection.UP)),
        (T3Payload(ExceedanceCause.POWER_EXCEEDED, 7), T4Payload(SupplyEventKind.INTERRUPTION_START, 7)),
        (T3Payload(ExceedanceCause.RESTORED, 0), T4Payload(SupplyEventKind.VOLTAGE_EVENT, 0)),
    ]
    for a, b in pairs:
        assert astuple(a) == astuple(b)
        assert a != b and b != a


@pytest.mark.parametrize(
    "record",
    [
        T1Payload(0, 5),
        T2Payload(3, 900, CrossingDirection.UP),
        T3Payload(ExceedanceCause.POWER_EXCEEDED, 3500),
        T4Payload(SupplyEventKind.INTERRUPTION_START),
        CompactFrame(FrameType.T1, "IT001E00000001", 1, 900, T1Payload(0, 5)),
        QuarterRecord(5, EnergyDirection.WITHDRAWN, 1),
    ],
    ids=lambda record: type(record).__name__,
)
def test_frame_records_are_slotted(record):
    assert "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")


def test_encode_rejects_mismatched_payload():
    with pytest.raises(FrameEncodeError, match="payload"):
        encode_frame(_frame(T1Payload(0, 1), FrameType.T2))


def test_t4_duration_only_on_interruption_end():
    with pytest.raises(FrameEncodeError, match="duration_s"):
        encode_frame(_frame(T4Payload(SupplyEventKind.INTERRUPTION_END), FrameType.T4))
    with pytest.raises(FrameEncodeError, match="duration_s"):
        encode_frame(
            _frame(T4Payload(SupplyEventKind.VOLTAGE_EVENT, 12), FrameType.T4)
        )
    raw = encode_frame(
        _frame(T4Payload(SupplyEventKind.INTERRUPTION_END, 3600), FrameType.T4)
    )
    assert decode_frame(raw).payload.duration_s == 3600


def test_decode_error_taxonomy():
    good = encode_frame(_frame(T2Payload(3, 1500, CrossingDirection.UP), FrameType.T2))

    with pytest.raises(TruncatedFrameError):
        decode_frame(good[:1])
    with pytest.raises(TruncatedFrameError):
        decode_frame(good[:-1])
    with pytest.raises(TruncatedFrameError):
        decode_frame(good + b"\x00")

    wrong_version = b"\x07" + good[1:]
    with pytest.raises(UnsupportedVersionError):
        decode_frame(wrong_version)

    wrong_type = bytearray(good)
    wrong_type[1] = 9
    with pytest.raises(UnknownFrameTypeError):
        decode_frame(bytes(wrong_type))

    bad_crc = good[:-1] + bytes([good[-1] ^ 0xFF])
    with pytest.raises(CrcMismatchError):
        decode_frame(bad_crc)


@pytest.mark.parametrize(
    "payload,frame_type,patch,field",
    [
        (T2Payload(10, 1500, CrossingDirection.UP), FrameType.T2, {24: 11}, "band_index"),
        (T1Payload(95, 250), FrameType.T1, {24: 96}, "quarter_index"),
        (T1Payload(0, 250), FrameType.T1, {25: 2}, "direction"),
        (T2Payload(3, 1500, CrossingDirection.UP), FrameType.T2, {25: 2}, "direction"),
        (T3Payload(ExceedanceCause.RESTORED, 9), FrameType.T3, {24: 3}, "cause"),
        (T4Payload(SupplyEventKind.VOLTAGE_EVENT), FrameType.T4, {24: 3}, "event"),
        # duration_s is bytes 25-28
        (T4Payload(SupplyEventKind.INTERRUPTION_START), FrameType.T4, {28: 1}, "duration_s"),
    ],
    ids=["t2_band", "t1_quarter", "t1_direction", "t2_direction", "t3_cause", "t4_event",
         "t4_duration_on_start"],
)
def test_decode_rejects_bad_fields_behind_valid_crc(payload, frame_type, patch, field):
    # Rebuild a frame byte-for-byte with an out-of-range field and a fresh CRC:
    # the checksum passes, the range check must still catch it.
    good = encode_frame(_frame(payload, frame_type))
    body = bytearray(good[:-2])
    for offset, byte in patch.items():
        body[offset] = byte
    raw = bytes(body) + crc16(bytes(body)).to_bytes(2, "big")
    with pytest.raises(FieldValueError, match=field):
        decode_frame(raw)


@given(frames)
def test_description_roundtrip(frame):
    assert frame_from_description(describe_frame(frame)) == frame


@pytest.mark.parametrize(
    "text,match",
    [
        ("T1 pod=IT001E00000001 seq=1", "no quarter="),
        ("T1 pod=IT001E00000001 seq=1 ts=900 quarter=0 direction=up energy_wh=250", "direction=up"),
        ("T4 pod=IT001E00000001 seq=1 ts=900 event=nope", "event=nope"),
    ],
    ids=["t1_missing_quarter", "t1_direction_up", "t4_event_nope"],
)
def test_malformed_description_raises_value_error(text, match):
    with pytest.raises(ValueError, match=match):
        frame_from_description(text)


def test_golden_vectors():
    """Frozen wire images: hex and canonical description per line."""
    lines = GOLDEN.read_text().splitlines()
    vectors = [l for l in lines if l and not l.startswith("#")]
    assert len(vectors) >= 10
    for line in vectors:
        hex_bytes, description = line.split("\t")
        raw = bytes.fromhex(hex_bytes)
        frame = decode_frame(raw)
        assert describe_frame(frame) == description
        assert encode_frame(frame_from_description(description)) == raw
