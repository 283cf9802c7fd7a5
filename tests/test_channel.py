"""Link timing, serialization, loss statistics, replay determinism."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chain2sim.channel import (
    BernoulliLoss,
    Channel,
    ChannelConfig,
    GilbertElliottLoss,
    _uniforms,
)
from chain2sim.frames import ROW_WIDTH, TIMESTAMP, TYPE, FrameType, frame_bits
from reference import ScalarChannel


def test_idle_link_arrival_time():
    link = Channel(ChannelConfig(), seed=1)
    # 240 bits at 4800 bit/s is 50 ms on the wire plus 50 ms processing.
    assert link.transmit(FrameType.T1, 10.0) == pytest.approx(10.0 + 0.05 + 0.05)


def test_burst_of_frames_serializes():
    link = Channel(ChannelConfig(proc_delay_s=0.0), seed=1)
    arrivals = [link.transmit(FrameType.T2, 100.0) for _ in range(3)]
    slot = 256 / 4800.0
    assert arrivals == pytest.approx([100.0 + slot, 100.0 + 2 * slot, 100.0 + 3 * slot])
    assert arrivals == sorted(arrivals)


def test_lost_frame_still_occupies_the_link():
    # The good state loses every frame and the bad state none; the state
    # flips after every frame, so the first frame is lost, the second not.
    loss = GilbertElliottLoss(1.0, 1.0, loss_good=1.0, loss_bad=0.0)
    link = Channel(ChannelConfig(loss=loss), seed=3)
    assert link.transmit(FrameType.T1, 0.0) is None
    # The next frame queues behind the corrupted one: 2 x 50 ms on the wire.
    assert link.transmit(FrameType.T1, 0.0) == pytest.approx(0.10 + 0.05)


def test_no_loss_model_delivers_everything():
    link = Channel(ChannelConfig(), seed=99)
    assert all(link.transmit(FrameType.T3, float(t)) is not None for t in range(500))


def test_bernoulli_loss_rate_is_plausible():
    link = ScalarChannel(ChannelConfig(loss=BernoulliLoss(0.1)), seed=42)
    lost = sum(link.transmit(FrameType.T1, float(t)) is None for t in range(20_000))
    assert lost / 20_000 == pytest.approx(0.1, abs=0.01)


def test_gilbert_elliott_starts_good_and_matches_stationary_rate():
    # pi_bad = 0.1 / (0.1 + 0.3) = 0.25; mean loss = 0.25 * 0.5 = 0.125
    loss = GilbertElliottLoss(0.1, 0.3, loss_good=0.0, loss_bad=0.5)
    for seed in range(5):
        link = ScalarChannel(ChannelConfig(loss=loss), seed=seed)
        assert link.transmit(FrameType.T1, 0.0) is not None  # good state, loss 0
    link = ScalarChannel(ChannelConfig(loss=loss), seed=7)
    lost = sum(link.transmit(FrameType.T1, float(t)) is None for t in range(40_000))
    assert lost / 40_000 == pytest.approx(0.125, abs=0.02)


def test_gilbert_elliott_losses_cluster():
    """Bursty losses have more loss-after-loss pairs than independent ones."""

    def adjacent_loss_fraction(loss_model, seed):
        link = ScalarChannel(ChannelConfig(loss=loss_model), seed=seed)
        outcomes = [link.transmit(FrameType.T1, float(t)) is not None for t in range(30_000)]
        pairs = sum(
            1 for a, b in zip(outcomes, outcomes[1:]) if not a and not b
        )
        losses = outcomes.count(False)
        return pairs / losses, losses / len(outcomes)

    bursty, rate_b = adjacent_loss_fraction(
        GilbertElliottLoss(0.02, 0.18, loss_good=0.0, loss_bad=0.5), seed=5
    )
    independent, rate_i = adjacent_loss_fraction(BernoulliLoss(0.05), seed=5)
    assert rate_b == pytest.approx(rate_i, abs=0.02)  # comparable loss rates
    assert bursty > 2 * independent


def test_replay_is_bit_identical():
    config = ChannelConfig(loss=GilbertElliottLoss(0.05, 0.2))
    rng = random.Random(11)
    transcript = [
        (rng.choice(list(FrameType)), float(i) + rng.random()) for i in range(2_000)
    ]

    def replay(seed):
        link = ScalarChannel(config, seed)
        return [link.transmit(frame_type, t_send) for frame_type, t_send in transcript]

    first = replay(123)
    assert first == replay(123)
    assert first != replay(124)


def test_config_validation():
    with pytest.raises(ValueError, match="p_loss"):
        BernoulliLoss(1.5)
    with pytest.raises(ValueError, match="p_bad_to_good"):
        GilbertElliottLoss(0.1, -0.1)
    with pytest.raises(ValueError, match="rate_bps"):
        ChannelConfig(rate_bps=0.0)
    with pytest.raises(ValueError, match="proc_delay_s"):
        ChannelConfig(proc_delay_s=-1.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"rate_bps": math.nan},
        {"rate_bps": math.inf},
        {"proc_delay_s": math.nan},
        {"proc_delay_s": math.inf},
    ],
    ids=lambda kw: "=".join(map(str, *kw.items())),
)
def test_channel_config_refuses_nan_and_inf(kw):
    """A NaN rate would lose every frame of a run, an infinite delay would
    gate every one."""
    (field,) = kw
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ChannelConfig(**kw)


_LOSSES = st.none() | st.builds(BernoulliLoss, st.floats(0, 1)) | st.builds(
    GilbertElliottLoss, *[st.floats(0, 1)] * 4
)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 5])
def test_arrivals_draws_replay_random_bit_for_bit(seed):
    """A block's loss draws are the values of `random()`, bit for bit, and
    leave the generator where as many calls would leave it."""
    block, one = random.Random(seed), random.Random(seed)
    for n in (1, 2, 311, 624, 100_003):
        assert _uniforms(block, n).tolist() == [one.random() for _ in range(n)]
        assert block.getstate() == one.getstate()


def _long_block(seed, n, t):
    """`n` rows sent from time `t` on, as a campaign link sends them: a few
    frames to a send time, send times a tick or a quarter apart."""
    rng = np.random.default_rng(seed)
    rows = np.zeros((n, ROW_WIDTH), dtype=np.int64)
    rows[:, TYPE] = rng.integers(1, len(FrameType) + 1, n)
    gaps = rng.choice([0, 0, 60, 60, 900, 1], n)
    rows[:, TIMESTAMP] = t + np.cumsum(gaps)
    return rows


@st.composite
def _blocks(draw):
    """A link and blocks of frame rows in send order: each block a run of
    send times, several frames to a time, at rates and spacings where a
    tick's frames may or may not serialize before the next send time; or
    a block of thousands of rows, as a campaign link sends."""
    config = ChannelConfig(
        rate_bps=draw(st.sampled_from([4800.0, 300.0, 10.0])),
        proc_delay_s=draw(st.sampled_from([0.05, 0.0, 30.0])),
        loss=draw(_LOSSES),
    )
    blocks, t = [], 0
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()) and draw(st.booleans()):
            rows = _long_block(draw(st.integers(0, 2**32)), draw(st.integers(1000, 5000)), t)
            blocks.append(rows)
            t = int(rows[-1, TIMESTAMP])
            continue
        rows = []
        for _ in range(draw(st.integers(0, 12))):
            t += draw(st.sampled_from([0, 1, 60, 900]))
            for _ in range(draw(st.integers(1, 4))):
                rows.append([draw(st.sampled_from(FrameType)), 0, t, 0, 0, 0])
        blocks.append(np.array(rows, dtype=np.int64).reshape(-1, ROW_WIDTH))
    return config, draw(st.integers(0, 2**32)), blocks


def _rows(*sent):
    """A block of frame rows, one per (frame type, send time)."""
    rows = np.zeros((len(sent), ROW_WIDTH), dtype=np.int64)
    rows[:, [TYPE, TIMESTAMP]] = sent
    return rows


_CAMPAIGN_LINK = _long_block(1, 4200, 0)
# About 8,000 rows at a rate that keeps the link busy for as long as they
# take to send: busy periods of every length, and some of thousands of rows.
_BUSY_LINK = _long_block(2, 8000, 0)
_BUSY_RATE = sum(map(frame_bits, _BUSY_LINK[:, TYPE].tolist())) / int(_BUSY_LINK[-1, TIMESTAMP])


@settings(max_examples=200, deadline=None)
@given(_blocks())
@example((ChannelConfig(loss=BernoulliLoss(0.01)), 7, [_CAMPAIGN_LINK]))
@example((ChannelConfig(loss=GilbertElliottLoss(0.02, 0.18)), 7, [_CAMPAIGN_LINK]))
@example((ChannelConfig(rate_bps=_BUSY_RATE, loss=BernoulliLoss(0.01)), 7, [_BUSY_LINK]))
# The second block starts while the first still holds the link: three T1
# frames of 24 s each from t = 0 take it to t = 72.
@example((ChannelConfig(rate_bps=10.0), 0, [_rows((1, 0), (1, 0), (1, 0)), _rows((2, 60), (1, 61))]))
# The T3 is sent at 9, when the T1 before it finishes, to the last bit:
# 6 + 3.0.  The serialization summed from the start, 3.2 + 3.0, rounds
# otherwise, so the period boundary is repaired from the finish times.
@example((ChannelConfig(rate_bps=80.0), 0, [_rows((2, 2), (1, 6), (3, 9))]))
def test_arrivals_equal_transmitting_each_row(case):
    """A block on the link gives, bit for bit, the arrival times of the
    per-frame link `ScalarChannel` sending its rows one by one (NaN for a
    lost frame), and leaves the link in the same state: the same busy time,
    loss state and generator state."""
    config, seed, blocks = case
    one, block = ScalarChannel(config, seed), Channel(config, seed)
    for rows in blocks:
        want = [one.transmit(t, ts) for t, ts in rows[:, [TYPE, TIMESTAMP]].tolist()]
        got = block.arrivals(rows).tolist()
        assert [None if math.isnan(t) else t for t in got] == want
    assert block._busy_until == one._busy_until
    assert block._bad == one._bad
    assert block._rng.getstate() == one._rng.getstate()
    assert block.transmit(FrameType.T1, 10**6) == one.transmit(FrameType.T1, 10**6)


@pytest.mark.parametrize(
    "loss", [None, BernoulliLoss(1.0), GilbertElliottLoss(0.3, 0.6, loss_good=0.2)]
)
def test_transmit_is_arrivals_of_one_row(loss):
    """`transmit` gives the arrival time that a one-row block gets, and None
    where that row's is NaN, a lost frame."""
    config = ChannelConfig(rate_bps=300.0, loss=loss)
    one, block = Channel(config, 5), Channel(config, 5)
    sent = []
    for frame_type, t in [(1, 0), (2, 0), (4, 1), (3, 2), (1, 60), (2, 60), (1, 900)] * 3:
        (want,) = block.arrivals(_rows((frame_type, t))).tolist()
        sent.append(one.transmit(FrameType(frame_type), t))
        assert sent[-1] == (None if math.isnan(want) else want)
    assert (None in sent) == (loss is not None)
