"""Link timing, serialization, loss statistics, replay determinism."""

import random

import pytest

from chain2sim.channel import (
    BernoulliLoss,
    Channel,
    ChannelConfig,
    GilbertElliottLoss,
)
from chain2sim.frames import FrameType


def test_idle_link_arrival_time():
    link = Channel(ChannelConfig(), seed=1)
    verdict = link.transmit(FrameType.T1, 10.0)
    assert verdict.delivered
    # 240 bits at 4800 bit/s is 50 ms on the wire plus 50 ms processing.
    assert verdict.t_arrive == pytest.approx(10.0 + 0.05 + 0.05)


def test_burst_of_frames_serializes():
    link = Channel(ChannelConfig(proc_delay_s=0.0), seed=1)
    verdicts = [link.transmit(FrameType.T2, 100.0) for _ in range(3)]
    slot = 256 / 4800.0
    arrivals = [v.t_arrive for v in verdicts]
    assert arrivals == pytest.approx([100.0 + slot, 100.0 + 2 * slot, 100.0 + 3 * slot])
    assert arrivals == sorted(arrivals)


def test_lost_frame_still_occupies_the_link():
    link = Channel(ChannelConfig(loss=BernoulliLoss(1.0)), seed=3)
    first = link.transmit(FrameType.T1, 0.0)
    assert not first.delivered and first.t_arrive is None
    assert first.t_link_free == pytest.approx(0.05)
    # The next frame queues behind the corrupted one.
    second = link.transmit(FrameType.T1, 0.0)
    assert second.t_link_free == pytest.approx(0.10)


def test_no_loss_model_delivers_everything():
    link = Channel(ChannelConfig(), seed=99)
    assert all(link.transmit(FrameType.T3, float(t)).delivered for t in range(500))


def test_bernoulli_loss_rate_is_plausible():
    link = Channel(ChannelConfig(loss=BernoulliLoss(0.1)), seed=42)
    lost = sum(not link.transmit(FrameType.T1, float(t)).delivered for t in range(20_000))
    assert lost / 20_000 == pytest.approx(0.1, abs=0.01)


def test_gilbert_elliott_starts_good_and_matches_stationary_rate():
    # pi_bad = 0.1 / (0.1 + 0.3) = 0.25; mean loss = 0.25 * 0.5 = 0.125
    loss = GilbertElliottLoss(0.1, 0.3, loss_good=0.0, loss_bad=0.5)
    for seed in range(5):
        link = Channel(ChannelConfig(loss=loss), seed=seed)
        assert link.transmit(FrameType.T1, 0.0).delivered  # good state, loss 0
    link = Channel(ChannelConfig(loss=loss), seed=7)
    lost = sum(not link.transmit(FrameType.T1, float(t)).delivered for t in range(40_000))
    assert lost / 40_000 == pytest.approx(0.125, abs=0.02)


def test_gilbert_elliott_losses_cluster():
    """Bursty losses have more loss-after-loss pairs than independent ones."""

    def adjacent_loss_fraction(loss_model, seed):
        link = Channel(ChannelConfig(loss=loss_model), seed=seed)
        outcomes = [link.transmit(FrameType.T1, float(t)).delivered for t in range(30_000)]
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
        link = Channel(config, seed)
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
