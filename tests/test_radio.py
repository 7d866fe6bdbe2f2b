"""Radio medium tests, including a brute-force reception oracle."""

import itertools
import math
from statistics import NormalDist
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.engine import Engine, RandomSource
from meshsim.errors import ConfigError
from meshsim.radio import (
    ALL_CHANNELS,
    PHY_1M,
    PHY_2M,
    PRIMARY_CHANNELS,
    ChannelFrame,
    FrameKind,
    Medium,
    Outcome,
    airtime_us,
)

CONTINUOUS = 10**9  # scan interval long enough that t stays in the first window


def loss_table(losses):
    """Symmetric (index, table) from a {(a, b): dB} dict, inf on the diagonal.

    A pair the dict leaves out holds None, so a read of it fails.
    """
    names = sorted({n for pair in losses for n in pair})
    index = {n: i for i, n in enumerate(names)}
    table = [[math.inf if i == j else None for j in range(len(names))]
             for i in range(len(names))]
    for (a, b), v in losses.items():
        table[index[a]][index[b]] = table[index[b]][index[a]] = v
    return index, table


def make_medium(losses, sigma=0.0, capture=10.0, scan_interval=CONTINUOUS, scan_window=None):
    eng = Engine()
    med = Medium(eng, loss_table(losses), scan_interval,
                 scan_window if scan_window is not None else scan_interval,
                 shadowing_sigma_db=sigma, capture_db=capture)
    nodes = sorted({n for pair in losses for n in pair})
    delivered = []
    root = RandomSource(99)
    for n in nodes:
        med.register(
            n, root.stream(f"chan:{n}"),
            lambda frame, rssi, n=n: delivered.append((n, frame, rssi)),
        )
    med.finalize(0.0)
    return eng, med, delivered


def test_airtime_examples():
    assert airtime_us(39, PHY_1M) == 392
    assert airtime_us(39, PHY_2M) == 200
    assert airtime_us(1, PHY_1M) == 88
    with pytest.raises(ConfigError):
        airtime_us(0, PHY_1M)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=379))
def test_airtime_monotonic_in_octets(n):
    assert airtime_us(n + 1, PHY_1M) > airtime_us(n, PHY_1M)
    assert airtime_us(n + 1, PHY_2M) > airtime_us(n, PHY_2M)


def test_frame_channel_kind_validation():
    with pytest.raises(ConfigError):
        ChannelFrame.checked("a", 15, PHY_1M, 0.0, 0, 11, kind=FrameKind.ADV)
    with pytest.raises(ConfigError):
        ChannelFrame.checked("a", 37, PHY_2M, 0.0, 0, 11, kind=FrameKind.AUX)
    for kind, channel in ((FrameKind.ADV, 37), (FrameKind.EXT_IND, 38),
                          (FrameKind.AUX, 5), (FrameKind.NOISE, 39)):
        with pytest.raises(ConfigError, match="empty frame"):
            ChannelFrame.checked("a", channel, PHY_1M, 0.0, 0, 0, kind=kind)
    f = ChannelFrame.checked("a", 37, PHY_1M, 0.0, 100, 11)
    assert f.end - f.start == airtime_us(11, PHY_1M)


def if_chain_frame_check(kind, channel):
    """ChannelFrame.checked's check as an if-chain over FrameKind: None, or the error text."""
    if kind in (FrameKind.ADV, FrameKind.EXT_IND):
        if channel not in PRIMARY_CHANNELS:
            return f"{kind.value} frame on channel {channel}: primary channels only"
    elif kind is FrameKind.AUX:
        if not 0 <= channel <= 36:
            return f"aux frame on channel {channel}: secondary channels only"
    elif channel not in ALL_CHANNELS:
        return f"frame on unknown channel {channel}"
    return None


@pytest.mark.parametrize("kind", list(FrameKind))
def test_frame_channel_check_matches_if_chain_oracle(kind):
    for channel in range(-2, 42):
        expected = if_chain_frame_check(kind, channel)
        if expected is None:
            ChannelFrame.checked("a", channel, PHY_1M, 0.0, 0, 11, kind)
        else:
            with pytest.raises(ConfigError) as exc:
                ChannelFrame.checked("a", channel, PHY_1M, 0.0, 0, 11, kind)
            assert str(exc.value) == expected


def test_capture_threshold_must_be_positive():
    with pytest.raises(ConfigError):
        Medium(Engine(), loss_table({("a", "b"): 60.0}), CONTINUOUS, CONTINUOUS,
               capture_db=0.0)


@pytest.mark.parametrize("sigma", [-1.0, math.inf, math.nan])
def test_shadowing_sigma_must_be_finite_and_non_negative(sigma):
    # an infinite slack would let the inf loss on the diagonal through the
    # candidate prune, making a node a candidate for its own frames
    with pytest.raises(ConfigError, match="shadowing sigma"):
        Medium(Engine(), loss_table({("a", "b"): 60.0}), CONTINUOUS, CONTINUOUS,
               shadowing_sigma_db=sigma)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_candidates_match_per_pair_prune(data):
    # the parent's per-pair spelling: every other receiver in registration
    # order whose mean RSSI clears the lowest sensitivity less 6 sigma
    names = data.draw(st.permutations(["a", "b", "c", "d", "e"]))
    losses = {(a, b): data.draw(st.sampled_from([100.0, 113.9, 114.0, 114.1, 130.0]))
              for a, b in itertools.combinations(sorted(names), 2)}
    power = data.draw(st.sampled_from([0.0, -0.5]))
    index, table = loss_table(losses)
    med = Medium(Engine(), (index, table), CONTINUOUS, CONTINUOUS,
                 shadowing_sigma_db=4.0)
    root = RandomSource(1)
    streams, callbacks = {}, {}
    for n in names:
        streams[n] = root.stream(n)
        # a without an RSSI callback, as a node without power control
        callbacks[n] = (lambda f, r: None, None if n == "a" else lambda ch, r: None)
        med.register(n, streams[n], *callbacks[n])
    med.finalize(power)
    floor = min(PHY_1M.sensitivity_dbm, PHY_2M.sensitivity_dbm)
    state = {}      # rx -> the one state tuple every candidate list shares
    for tx in names:
        expected = [rx for rx in names if rx != tx
                    and power - losses[tuple(sorted((tx, rx)))] >= floor - 6.0 * 4.0]
        got = med._candidates[tx]
        assert [c[0] for c in got] == expected
        for c in got:
            rx, on_frame, on_rssi, rand, j = c
            assert (on_frame, on_rssi) == callbacks[rx]
            assert rand == streams[rx].random
            assert j == index[rx]
            assert table[index[tx]][j] == losses[tuple(sorted((tx, rx)))]
            assert state.setdefault(rx, c) is c


def test_lone_frame_delivered_to_scanning_neighbors():
    eng, med, delivered = make_medium({("a", "b"): 60.0, ("a", "c"): 60.0, ("b", "c"): 60.0})
    f = ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11)
    med.begin_transmission(f)
    eng.run_until_idle()
    assert sorted(n for n, _, _ in delivered) == ["b", "c"]
    assert all(rssi == -60.0 for _, _, rssi in delivered)


def test_sensitivity_boundary_inclusive():
    eng, med, delivered = make_medium({("a", "b"): 90.0})
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11))
    eng.run_until_idle()
    assert [n for n, _, _ in delivered] == ["b"]  # rssi == -90 == sensitivity


def test_below_sensitivity_lost():
    eng, med, delivered = make_medium({("a", "b"): 90.5})
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11))
    eng.run_until_idle()
    assert delivered == []


def test_capture_lets_much_stronger_frame_through():
    losses = {("a", "r"): 60.0, ("b", "r"): 95.0, ("a", "b"): 70.0}
    eng, med, delivered = make_medium(losses)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame.checked("b", 37, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    assert ("r", delivered[0][1], -60.0) in delivered or any(n == "r" for n, _, _ in delivered)
    got = {(n, f.transmitter) for n, f, _ in delivered}
    assert ("r", "a") in got          # 35 dB over the interferer: captured
    assert ("r", "b") not in got      # collided at r (and a was transmitting)


def test_near_equal_overlap_loses_both():
    losses = {("a", "r"): 60.0, ("b", "r"): 65.0, ("a", "b"): 70.0}
    eng, med, delivered = make_medium(losses)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame.checked("b", 37, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    assert not any(n == "r" for n, _, _ in delivered)
    assert med.outcome_counts[Outcome.COLLISION] >= 2


def test_receiver_transmitting_misses_frame():
    losses = {("a", "b"): 60.0}
    eng, med, delivered = make_medium(losses)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame.checked("b", 38, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    # different channels, so no collision; but each was transmitting during the other
    assert delivered == []
    assert med.outcome_counts[Outcome.NOT_LISTENING] == 2


def test_half_duplex_transmit_overlap_asserts():
    eng, med, _ = make_medium({("a", "b"): 60.0})
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11))
    with pytest.raises(AssertionError):
        med.begin_transmission(ChannelFrame.checked("a", 38, PHY_1M, 0.0, 50, 11))


def test_one_call_is_one_event_of_one_transmitter():
    # begin_transmission looks the transmitter and its last end up once per
    # call, so each of these must still raise: frames of one call that
    # overlap each other, a call whose first frame starts before the
    # transmitter's last end, and a call with frames of two transmitters
    # (the second one's half duplex would otherwise go unchecked)
    def frame(tx, channel, start):
        return ChannelFrame.checked(tx, channel, PHY_1M, 0.0, start, 11)   # 168 µs

    _, med, _ = make_medium({("a", "b"): 60.0})
    with pytest.raises(AssertionError, match="already transmitting at t=100"):
        med.begin_transmission(frame("a", 37, 0), frame("a", 38, 100))

    _, med, _ = make_medium({("a", "b"): 60.0})
    med.begin_transmission(frame("a", 37, 0), frame("a", 38, 568))    # ends 736
    with pytest.raises(AssertionError, match="already transmitting at t=700"):
        med.begin_transmission(frame("a", 39, 700), frame("a", 37, 2_000))

    for pair in ((frame("a", 37, 0), frame("b", 38, 568)),
                 (frame("b", 37, 0), frame("a", 38, 568)),
                 (frame("env", 37, 0), frame("a", 38, 568))):
        _, med, _ = make_medium({("a", "b"): 60.0})
        with pytest.raises(AssertionError, match="registered as one event"):
            med.begin_transmission(*pair)

    # back to back, one call at a time or in one call, is accepted
    eng, med, delivered = make_medium({("a", "b"): 60.0})
    med.begin_transmission(frame("a", 37, 0), frame("a", 38, 168))
    med.begin_transmission(frame("a", 39, 336))
    eng.run_until_idle()
    assert [f.channel for _, f, _ in delivered] == [37]


def test_scanner_channel_rotates_per_interval():
    # scan interval 1000 µs, window 1000 µs: second interval listens on 38
    eng, med, delivered = make_medium({("a", "b"): 60.0}, scan_interval=1000)
    med.begin_transmission(ChannelFrame.checked("a", 38, PHY_1M, 0.0, 1200, 11))
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 1600, 11))
    eng.run_until_idle()
    got = {f.channel for _, f, _ in delivered}
    assert got == {38}


def test_frame_straddling_interval_boundary_lost():
    eng, med, delivered = make_medium({("a", "b"): 60.0}, scan_interval=1000)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 900, 11))  # ends at 1068
    eng.run_until_idle()
    assert delivered == []


def test_duty_cycled_window_idles_late_in_interval():
    eng, med, delivered = make_medium(
        {("a", "b"): 60.0}, scan_interval=10_000, scan_window=2_000)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 500, 11))
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 5_000, 11))
    eng.run_until_idle()
    starts = sorted(f.start for _, f, _ in delivered)
    assert starts == [500]


def test_frame_the_scanner_misses_still_interferes():
    # a's frame (830..998 us) sits inside the first interval; c's (900..1068)
    # straddles the channel switch, so no scanner catches it, yet at b it
    # overlaps a's on channel 37 at equal power
    eng, med, delivered = make_medium(
        {("a", "b"): 60.0, ("c", "b"): 60.0, ("a", "c"): 60.0}, scan_interval=1000)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 830, 11))
    med.begin_transmission(ChannelFrame.checked("c", 37, PHY_1M, 0.0, 900, 11))
    eng.run_until_idle()
    assert delivered == []
    counts = med.outcome_counts
    assert counts[Outcome.COLLISION] == 1        # a's frame at b
    assert counts[Outcome.NOT_LISTENING] == 3    # c's frame at a and b; a's at c


def test_noise_frame_interferes_but_never_delivers():
    eng, med, delivered = make_medium({("a", "b"): 60.0})
    noise = ChannelFrame.checked("ext", 37, PHY_1M, -55.0, 0, 39, kind=FrameKind.NOISE)
    med.begin_transmission(noise)
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    assert delivered == []  # -60 vs -55 noise: capture fails


def test_history_outlives_a_short_frame_while_a_long_one_is_pending():
    # c's first frame ends at 168 us, long before c transmits again at
    # 1500 us, yet a's 1680 us frame (100..1780) is still unresolved and
    # overlaps it; the second, faint frame must not prune the first
    eng, med, delivered = make_medium(
        {("a", "b"): 60.0, ("c", "b"): 60.0, ("a", "c"): 60.0})
    med.begin_transmission(ChannelFrame.checked("c", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, 100, 200))
    eng.schedule(1500, med.begin_transmission,
                 ChannelFrame.checked("c", 37, PHY_1M, -100.0, 1500, 11))
    eng.run_until_idle()
    assert delivered == []
    counts = med.outcome_counts
    assert counts[Outcome.COLLISION] == 2      # b: c's first frame and a's
    counts[Outcome.COLLISION] = 0              # a copy: the medium keeps its own
    assert med.outcome_counts[Outcome.COLLISION] == 2


def test_blackout_window_forces_loss():
    eng, med, delivered = make_medium({("a", "b"): 60.0})
    frame = ChannelFrame.checked("a", 37, PHY_1M, 0.0, 0, 11)
    frame.rssi_cache = [None] * len(med.table)
    frame.rssi_cache[med.index["b"]] = -math.inf   # set before airing: used as is
    med.begin_transmission(frame)
    eng.run_until_idle()
    assert delivered == []
    assert med.outcome_counts[Outcome.BELOW_SENSITIVITY] == 1


def test_shadowing_draws_are_per_frame_and_reproducible():
    losses = {("a", "b"): 80.0}
    outs = []
    for _ in range(2):
        eng, med, delivered = make_medium(losses, sigma=4.0)
        for i in range(20):
            med.begin_transmission(ChannelFrame.checked("a", 37, PHY_1M, 0.0, i * 1000, 11))
        eng.run_until_idle()
        outs.append([round(r, 6) for _, _, r in delivered])
    assert outs[0] == outs[1]
    assert len(set(outs[0])) > 1  # redrawn per frame




# --------------------------------------------------------------------------
# Brute-force oracle: an independent spelling of the reception rules in
# radio.py's docstring, checked against the medium's live resolution, call
# by call and RSSI by RSSI.
# --------------------------------------------------------------------------

CAPTURE = 10.0
MAX_POWER = 0.0         # every frame's power is at most this; finalize() reads it


class Spec(NamedTuple):
    """One frame to air; AUX frames use the 2M PHY, all others 1M.

    eligible is, for an EXT_IND or AUX frame, the position of its event's
    eligible set in the case's list of sets, and None for other frames.
    """

    tx: str
    kind: FrameKind
    channel: int
    power: float
    start: int
    octets: int
    eligible: int | None = None

    @property
    def end(self) -> int:
        if self.kind is FrameKind.AUX:
            return self.start + (11 + self.octets) * 4     # 2M airtime by hand
        return self.start + (10 + self.octets) * 8         # 1M airtime by hand

    @property
    def sensitivity(self) -> float:
        return -85.0 if self.kind is FrameKind.AUX else -90.0


def adv(tx, channel, power, start, octets) -> Spec:
    return Spec(tx, FrameKind.ADV, channel, power, start, octets)


def singly(frames, ahead=False):
    """Each frame registered on its own: at its start, or with ahead at t = 0."""
    return [(0 if ahead else f.start, (i,)) for i, f in enumerate(frames)]


def oracle(nodes, frames, loss, calls, sets=(), *, sigma=0.0,
           scan=(CONTINUOUS, CONTINUOUS), seed=5):
    """What the receivers must see: (callbacks in order, outcome totals,
    final eligible sets).

    nodes are the receivers in registration order; loss maps a frozenset
    pair to dB.  calls are the registrations (time, frame positions) in the
    order they are scheduled.  sets holds each eligible set's starting
    members.  The callbacks are ("rssi", rx, channel, rssi) and ("frame",
    rx, position, rssi).  Frames resolve at their end, ties in
    registration order.  A caught indication adds rx to its set and makes
    no "frame" callback; an AUX frame reaches only the members of its set
    as it stands when the frame resolves.  Receiver rx draws from its stream
    "chan:rx", lazily and once per (frame, rx): for each resolved frame, in
    candidate order, the frame's own RSSI and then each same-channel
    overlap's in registration order until one fails capture.  Noise is
    heard at its power, with no draw.
    """
    interval, window = scan
    order = [i for _, group in sorted(calls, key=lambda c: c[0]) for i in group]
    rank = {i: r for r, i in enumerate(order)}
    streams = {}                # rx -> its channel stream, made at its first draw
    counts = dict.fromkeys(Outcome, 0)
    log, rssi = [], {}
    members = [set(s) for s in sets]

    def candidates(tx):
        return [rx for rx in nodes if rx != tx
                and MAX_POWER - loss[frozenset((tx, rx))] >= -90.0 - 6.0 * sigma]

    def heard(j, rx):
        if (j, rx) not in rssi:
            g = frames[j]
            if g.kind is FrameKind.NOISE:
                rssi[j, rx] = g.power
            else:
                if rx not in streams:
                    streams[rx] = RandomSource(seed).stream(f"chan:{rx}").random
                u = streams[rx]() or 5e-324
                rssi[j, rx] = (g.power - loss[frozenset((g.tx, rx))]
                               + sigma * NormalDist().inv_cdf(u))
        return rssi[j, rx]

    resolved = []
    for i in order:
        f = frames[i]
        if f.kind is FrameKind.NOISE:
            continue
        k = f.start // interval
        if f.kind is not FrameKind.AUX and (
                f.channel != 37 + k % 3 or f.end > k * interval + window):
            counts[Outcome.NOT_LISTENING] += len(candidates(f.tx))
            continue
        resolved.append(i)
    for i in sorted(resolved, key=lambda i: (frames[i].end, rank[i])):
        f = frames[i]
        concurrent = [j for j in order if j != i
                      and frames[j].start < f.end and f.start < frames[j].end]
        busy = {frames[j].tx for j in concurrent}
        rivals = [j for j in concurrent if frames[j].channel == f.channel]
        for rx in candidates(f.tx):
            if f.kind is FrameKind.AUX and rx not in members[f.eligible]:
                continue
            if rx in busy:
                counts[Outcome.NOT_LISTENING] += 1
                continue
            mine = heard(i, rx)
            if mine < f.sensitivity:
                counts[Outcome.BELOW_SENSITIVITY] += 1
                continue
            captured = all(mine - heard(j, rx) >= CAPTURE for j in rivals)
            if f.channel >= 37:
                log.append(("rssi", rx, f.channel, mine))
            if not captured:
                counts[Outcome.COLLISION] += 1
                continue
            counts[Outcome.DELIVERED] += 1
            if f.kind is FrameKind.EXT_IND:
                members[f.eligible].add(rx)
            else:
                log.append(("frame", rx, i, mine))
    return log, counts, members


def run_impl(nodes, frames, loss, calls, sets=(), *, sigma=0.0,
             scan=(CONTINUOUS, CONTINUOUS), seed=5):
    """Air the frames through a Medium; the same summary as oracle().

    Each call registers its frames with one begin_transmission, as a node
    registers a whole advertising event when the event starts.
    """
    eng = Engine()
    med = Medium(eng, loss_table(loss), *scan, shadowing_sigma_db=sigma,
                 capture_db=CAPTURE)
    position = {}               # ChannelFrame -> its position in frames
    log = []
    root = RandomSource(seed)
    for rx in nodes:
        med.register(rx, root.stream(f"chan:{rx}"),
                     lambda f, r, rx=rx: log.append(("frame", rx, position[f], r)),
                     lambda ch, r, rx=rx: log.append(("rssi", rx, ch, r)))
    med.finalize(MAX_POWER)
    members = [set(s) for s in sets]
    aired = []
    for f in frames:
        fr = ChannelFrame.checked(
            f.tx, f.channel, PHY_2M if f.kind is FrameKind.AUX else PHY_1M,
            f.power, f.start, f.octets, f.kind, None,
            None if f.eligible is None else members[f.eligible])
        position[fr] = len(aired)
        aired.append(fr)
    for t, group in calls:
        eng.schedule(t, med.begin_transmission, *[aired[i] for i in group])
    eng.run_until_idle()
    return log, med.outcome_counts, members


def test_reception_oracle_two_frames():
    nodes = ("a", "b", "c")
    loss_values = (60.0, 70.0, 72.0, 95.0)
    checked = 0
    for la, lb, lc in itertools.product(loss_values, repeat=3):
        loss = {
            frozenset(("a", "b")): la,
            frozenset(("a", "c")): lb,
            frozenset(("b", "c")): lc,
        }
        for tx2 in ("b", "c"):
            for s2 in range(0, 1000, 100):
                for p1, p2 in itertools.product((0.0, -9.0), repeat=2):
                    frames = [adv("a", 37, p1, 0, 11), adv(tx2, 37, p2, s2, 11)]
                    for ahead in (False, True):
                        calls = singly(frames, ahead)
                        assert (run_impl(nodes, frames, loss, calls)
                                == oracle(nodes, frames, loss, calls))
                    checked += 1
    assert checked == 64 * 2 * 10 * 4


def test_reception_oracle_three_frames():
    nodes = ("a", "b", "c")
    loss_values = (60.0, 70.0, 72.0, 95.0)
    for la, lb, lc in itertools.product(loss_values, repeat=3):
        loss = {
            frozenset(("a", "b")): la,
            frozenset(("a", "c")): lb,
            frozenset(("b", "c")): lc,
        }
        # a third frame on channel 38 is never heard, but its transmitter
        # is still deaf to the others (half duplex), and capture ignores it
        for s2, s3, ch3 in itertools.product((0, 150, 300, 600),
                                             (0, 150, 300, 600), (37, 38)):
            frames = [
                adv("a", 37, 0.0, 0, 11),
                adv("b", 37, -9.0, s2, 11),
                adv("c", ch3, 0.0, s3, 11),
            ]
            for ahead in (False, True):
                calls = singly(frames, ahead)
                assert (run_impl(nodes, frames, loss, calls)
                        == oracle(nodes, frames, loss, calls))


def test_reception_oracle_indication_then_aux():
    nodes = ("a", "b", "c")
    loss_values = (60.0, 70.0, 72.0, 95.0)
    for la, lb, lc in itertools.product(loss_values, repeat=3):
        loss = {
            frozenset(("a", "b")): la,
            frozenset(("a", "c")): lb,
            frozenset(("b", "c")): lc,
        }
        # a's indication meets a legacy frame from b or c: its transmitter
        # is busy, and the third node may lose the indication to it.  Only
        # a receiver that caught the indication joins, and the aux, long
        # after both, reaches the set as it then stands
        for tx2, s2, p2 in itertools.product(("b", "c"), (0, 100, 300), (0.0, -9.0)):
            frames = [Spec("a", FrameKind.EXT_IND, 37, 0.0, 0, 10, 0),
                      adv(tx2, 37, p2, s2, 11),
                      Spec("a", FrameKind.AUX, 1, 0.0, 1_000, 20, 0)]
            for start in (frozenset(), frozenset({"c"})):
                calls = singly(frames)
                assert (run_impl(nodes, frames, loss, calls, [start])
                        == oracle(nodes, frames, loss, calls, [start]))


# loss values around the sensitivity and capture thresholds at 0, -6 and -12 dBm
LOSSES = (55.0, 62.0, 68.0, 72.0, 78.0, 84.0, 88.0, 90.0, 96.0, 104.0, 115.0)
# where the frames start: the first scan window, and just before the
# 100 ms / 30 ms scanner closes its window or moves to 38 or 39
ORIGINS = (0, 29_400, 99_400, 199_400)


@st.composite
def medium_cases(draw):
    """Nodes, loss, frames, registrations and eligible sets for one
    oracle comparison.

    A node's frames follow each other without overlap, so half duplex
    holds.  Each node that airs an EXT_IND or AUX frame has two event sets,
    each starting from a drawn set of members, and each such frame shares
    one of them.  Batched, each node's frames are cut into runs, and a run
    is registered with one call at its first start; noise is always
    registered alone, at its start.
    """
    nodes = draw(st.permutations([f"n{i}" for i in range(draw(st.integers(2, 8)))]))
    loss = {frozenset(pair): draw(st.sampled_from(LOSSES))
            for pair in itertools.combinations(sorted(nodes), 2)}
    origin = draw(st.sampled_from(ORIGINS))
    frames, free, sets, own = [], {}, [], {}
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(list(FrameKind)))
        if kind is FrameKind.NOISE:
            tx, channel = "env", draw(st.sampled_from([37, 38, 0]))
            power = draw(st.sampled_from([-100.0, -80.0, -65.0]))
        else:
            tx = draw(st.sampled_from(nodes))
            channel = draw(st.sampled_from([0, 1] if kind is FrameKind.AUX
                                           else list(PRIMARY_CHANNELS)))
            power = draw(st.sampled_from([0.0, -6.0, -12.0]))
        if tx in free:
            start = free[tx] + draw(st.integers(0, 400))
        else:
            start = origin + draw(st.integers(0, 1_500))
        eligible = None
        if kind in (FrameKind.EXT_IND, FrameKind.AUX):
            if tx not in own:
                own[tx] = len(sets)
                sets += [draw(st.frozensets(st.sampled_from(nodes))) for _ in range(2)]
            eligible = own[tx] + draw(st.integers(0, 1))
        f = Spec(tx, kind, channel, power, start, draw(st.integers(1, 40)), eligible)
        if tx != "env":
            free[tx] = f.end
        frames.append(f)
    if draw(st.booleans()):
        calls = [(f.start, (i,)) for i, f in enumerate(frames) if f.tx == "env"]
        for tx in nodes:
            own = [i for i, f in enumerate(frames) if f.tx == tx]
            while own:
                size = draw(st.integers(1, 4))
                calls.append((frames[own[0]].start, tuple(own[:size])))
                own = own[size:]
    else:
        calls = singly(frames)
    return nodes, loss, frames, calls, sets


@settings(max_examples=200, deadline=None)
@given(medium_cases(), st.sampled_from([0.0, 4.0]),
       st.sampled_from([(CONTINUOUS, CONTINUOUS), (100_000, 30_000)]),
       st.integers(0, 2**32))
def test_medium_matches_oracle(case, sigma, scan, seed):
    nodes, loss, frames, calls, sets = case
    want = oracle(nodes, frames, loss, calls, sets, sigma=sigma, scan=scan, seed=seed)
    assert run_impl(nodes, frames, loss, calls, sets, sigma=sigma, scan=scan,
                    seed=seed) == want


def test_on_air_record_keeps_no_ended_frame(monkeypatch):
    # a's event registers all three frames at t = 0, the last one long
    # (1136..2816 us); b, c and d then air short frames one at a time.  An
    # ended frame must leave the record at the next registration wherever
    # it sits, not wait behind a's last frame
    horizons = []
    inner = Medium.begin_transmission

    def checked(med, *frames):
        inner(med, *frames)
        horizon = med.engine.now - med._max_airtime_us
        assert all(f.end >= horizon for f in med._on_air)
        horizons.append(horizon)

    monkeypatch.setattr(Medium, "begin_transmission", checked)
    nodes = ("a", "b", "c", "d")
    loss = {frozenset(pair): 60.0 for pair in itertools.combinations(nodes, 2)}
    event = [adv("a", 37, 0.0, 0, 11), adv("a", 38, 0.0, 568, 11),
             adv("a", 39, 0.0, 1136, 200)]
    shorts = [adv("bcd"[k % 3], 37, 0.0, 100 + 120 * k, 1) for k in range(60)]
    frames = event + shorts
    batched = [(0, (0, 1, 2))] + singly(frames)[3:]
    got = run_impl(nodes, frames, loss, batched, sigma=4.0)
    assert max(horizons) > frames[2].end      # a's last frame did become prunable
    assert got == run_impl(nodes, frames, loss, singly(frames), sigma=4.0)
    assert got == oracle(nodes, frames, loss, batched, sigma=4.0)
