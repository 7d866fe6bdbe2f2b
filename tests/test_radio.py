"""Radio medium tests, including a brute-force reception oracle."""

import itertools
import math

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
        ChannelFrame("a", 15, PHY_1M, 0.0, 0, 11, kind=FrameKind.ADV)
    with pytest.raises(ConfigError):
        ChannelFrame("a", 37, PHY_2M, 0.0, 0, 11, kind=FrameKind.AUX)
    f = ChannelFrame("a", 37, PHY_1M, 0.0, 100, 11)
    assert f.end - f.start == airtime_us(11, PHY_1M)


def if_chain_frame_check(kind, channel):
    """ChannelFrame's check as an if-chain over FrameKind: None, or the error text."""
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
            ChannelFrame("a", channel, PHY_1M, 0.0, 0, 11, kind)
        else:
            with pytest.raises(ConfigError) as exc:
                ChannelFrame("a", channel, PHY_1M, 0.0, 0, 11, kind)
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
    for n in names:
        med.register(n, root.stream(n), lambda f, r: None)
    med.finalize(power)
    floor = min(PHY_1M.sensitivity_dbm, PHY_2M.sensitivity_dbm)
    state = {}      # rx -> the one state tuple every candidate list shares
    for tx in names:
        expected = [rx for rx in names if rx != tx
                    and power - losses[tuple(sorted((tx, rx)))] >= floor - 6.0 * 4.0]
        got = med._candidates[tx]
        assert [rx for rx, _, _, _ in got] == expected
        for c in got:
            rx, receiver, rand, j = c
            assert receiver is med._receivers[rx]
            assert j == index[rx]
            assert table[index[tx]][j] == losses[tuple(sorted((tx, rx)))]
            assert state.setdefault(rx, c) is c


def test_lone_frame_delivered_to_scanning_neighbors():
    eng, med, delivered = make_medium({("a", "b"): 60.0, ("a", "c"): 60.0, ("b", "c"): 60.0})
    f = ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11)
    med.begin_transmission(f)
    eng.run_until_idle()
    assert sorted(n for n, _, _ in delivered) == ["b", "c"]
    assert all(rssi == -60.0 for _, _, rssi in delivered)


def test_sensitivity_boundary_inclusive():
    eng, med, delivered = make_medium({("a", "b"): 90.0})
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11))
    eng.run_until_idle()
    assert [n for n, _, _ in delivered] == ["b"]  # rssi == -90 == sensitivity


def test_below_sensitivity_lost():
    eng, med, delivered = make_medium({("a", "b"): 90.5})
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11))
    eng.run_until_idle()
    assert delivered == []


def test_capture_lets_much_stronger_frame_through():
    losses = {("a", "r"): 60.0, ("b", "r"): 95.0, ("a", "b"): 70.0}
    eng, med, delivered = make_medium(losses)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame("b", 37, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    assert ("r", delivered[0][1], -60.0) in delivered or any(n == "r" for n, _, _ in delivered)
    got = {(n, f.transmitter) for n, f, _ in delivered}
    assert ("r", "a") in got          # 35 dB over the interferer: captured
    assert ("r", "b") not in got      # collided at r (and a was transmitting)


def test_near_equal_overlap_loses_both():
    losses = {("a", "r"): 60.0, ("b", "r"): 65.0, ("a", "b"): 70.0}
    eng, med, delivered = make_medium(losses)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame("b", 37, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    assert not any(n == "r" for n, _, _ in delivered)
    assert med.outcome_counts[Outcome.COLLISION] >= 2


def test_receiver_transmitting_misses_frame():
    losses = {("a", "b"): 60.0}
    eng, med, delivered = make_medium(losses)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame("b", 38, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    # different channels, so no collision; but each was transmitting during the other
    assert delivered == []
    assert med.outcome_counts[Outcome.NOT_LISTENING] == 2


def test_half_duplex_transmit_overlap_asserts():
    eng, med, _ = make_medium({("a", "b"): 60.0})
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11))
    with pytest.raises(AssertionError):
        med.begin_transmission(ChannelFrame("a", 38, PHY_1M, 0.0, 50, 11))


def test_scanner_channel_rotates_per_interval():
    # scan interval 1000 µs, window 1000 µs: second interval listens on 38
    eng, med, delivered = make_medium({("a", "b"): 60.0}, scan_interval=1000)
    med.begin_transmission(ChannelFrame("a", 38, PHY_1M, 0.0, 1200, 11))
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 1600, 11))
    eng.run_until_idle()
    got = {f.channel for _, f, _ in delivered}
    assert got == {38}


def test_frame_straddling_interval_boundary_lost():
    eng, med, delivered = make_medium({("a", "b"): 60.0}, scan_interval=1000)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 900, 11))  # ends at 1068
    eng.run_until_idle()
    assert delivered == []


def test_duty_cycled_window_idles_late_in_interval():
    eng, med, delivered = make_medium(
        {("a", "b"): 60.0}, scan_interval=10_000, scan_window=2_000)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 500, 11))
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 5_000, 11))
    eng.run_until_idle()
    starts = sorted(f.start for _, f, _ in delivered)
    assert starts == [500]


def test_frame_the_scanner_misses_still_interferes():
    # a's frame (830..998 us) sits inside the first interval; c's (900..1068)
    # straddles the channel switch, so no scanner catches it, yet at b it
    # overlaps a's on channel 37 at equal power
    eng, med, delivered = make_medium(
        {("a", "b"): 60.0, ("c", "b"): 60.0, ("a", "c"): 60.0}, scan_interval=1000)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 830, 11))
    med.begin_transmission(ChannelFrame("c", 37, PHY_1M, 0.0, 900, 11))
    eng.run_until_idle()
    assert delivered == []
    counts = med.outcome_counts
    assert counts[Outcome.COLLISION] == 1        # a's frame at b
    assert counts[Outcome.NOT_LISTENING] == 3    # c's frame at a and b; a's at c


def test_noise_frame_interferes_but_never_delivers():
    eng, med, delivered = make_medium({("a", "b"): 60.0})
    noise = ChannelFrame("ext", 37, PHY_1M, -55.0, 0, 39, kind=FrameKind.NOISE)
    med.begin_transmission(noise)
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 50, 11))
    eng.run_until_idle()
    assert delivered == []  # -60 vs -55 noise: capture fails


def test_history_outlives_a_short_frame_while_a_long_one_is_pending():
    # c's first frame ends at 168 us, long before c transmits again at
    # 1500 us, yet a's 1680 us frame (100..1780) is still unresolved and
    # overlaps it; the second, faint frame must not prune the first
    eng, med, delivered = make_medium(
        {("a", "b"): 60.0, ("c", "b"): 60.0, ("a", "c"): 60.0})
    med.begin_transmission(ChannelFrame("c", 37, PHY_1M, 0.0, 0, 11))
    med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, 100, 200))
    eng.schedule(1500, med.begin_transmission,
                 ChannelFrame("c", 37, PHY_1M, -100.0, 1500, 11))
    eng.run_until_idle()
    assert delivered == []
    counts = med.outcome_counts
    assert counts[Outcome.COLLISION] == 2      # b: c's first frame and a's
    counts[Outcome.COLLISION] = 0              # a copy: the medium keeps its own
    assert med.outcome_counts[Outcome.COLLISION] == 2


def test_blackout_window_forces_loss():
    eng, med, delivered = make_medium({("a", "b"): 60.0})
    frame = ChannelFrame("a", 37, PHY_1M, 0.0, 0, 11)
    frame.rssi_cache["b"] = -math.inf     # an RSSI set before airing is used as is
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
            med.begin_transmission(ChannelFrame("a", 37, PHY_1M, 0.0, i * 1000, 11))
        eng.run_until_idle()
        outs.append([round(r, 6) for _, _, r in delivered])
    assert outs[0] == outs[1]
    assert len(set(outs[0])) > 1  # redrawn per frame


# --------------------------------------------------------------------------
# Brute-force oracle: an independent spelling of the reception rules,
# checked against the medium's live resolution over enumerated
# micro-instances.
# --------------------------------------------------------------------------

SENS = -90.0
CAPTURE = 10.0


def oracle(nodes, frames, loss):
    """frames: list of (tx, channel, power, start, octets); returns {(rx,i): Outcome}."""
    spans = []
    for tx, ch, p, s, n in frames:
        spans.append((s, s + (10 + n) * 8))  # 1M airtime by hand
    out = {}
    for i, (tx, ch, p, s, n) in enumerate(frames):
        s0, e0 = spans[i]
        for rx in nodes:
            if rx == tx:
                continue
            # continuous scanning in the first interval: channel 37 only
            if ch != 37:
                out[(rx, i)] = Outcome.NOT_LISTENING
                continue
            busy = any(
                frames[j][0] == rx and spans[j][0] < e0 and s0 < spans[j][1]
                for j in range(len(frames))
            )
            if busy:
                out[(rx, i)] = Outcome.NOT_LISTENING
                continue
            rssi = p - loss[frozenset((tx, rx))]
            if rssi < SENS:
                out[(rx, i)] = Outcome.BELOW_SENSITIVITY
                continue
            collided = False
            for j, (tx2, ch2, p2, s2, n2) in enumerate(frames):
                if j == i or ch2 != ch:
                    continue
                if spans[j][0] < e0 and s0 < spans[j][1]:
                    if rssi - (p2 - loss[frozenset((tx2, rx))]) < CAPTURE:
                        collided = True
                        break
            out[(rx, i)] = Outcome.COLLISION if collided else Outcome.DELIVERED
    return out


def expected(nodes, frames, loss):
    """The oracle's (delivered pairs, collided pairs, outcome totals).

    The medium gives no outcome to a receiver that 0 dBm cannot bring to
    sensitivity (no shadowing here), so those pairs stay out of the totals.
    """
    outcomes = oracle(nodes, frames, loss)
    counts = {o: 0 for o in Outcome}
    for (rx, i), o in outcomes.items():
        if 0.0 - loss[frozenset((frames[i][0], rx))] >= SENS:
            counts[o] += 1
    return ({k for k, o in outcomes.items() if o is Outcome.DELIVERED},
            {k for k, o in outcomes.items() if o is Outcome.COLLISION},
            counts)


def run_impl(nodes, frames, loss, ahead=False):
    """Air the frames through a Medium; same summary as expected().

    Each frame is registered at its start, or, with ahead, all of them at
    t = 0 in list order, as a node registers a whole advertising event
    when the event starts.  A pair is delivered when on_frame fires and
    collided when on_rssi fires without on_frame (the frame cleared
    sensitivity but lost on capture).
    """
    eng = Engine()
    med = Medium(eng, loss_table(loss), CONTINUOUS, CONTINUOUS,
                 shadowing_sigma_db=0.0, capture_db=CAPTURE)
    index = {}                  # ChannelFrame -> its position in `frames`
    resolving = []              # frames in the order the medium resolves them
    delivered, heard = set(), set()
    root = RandomSource(5)
    for nd in nodes:
        med.register(nd, root.stream(nd),
                     lambda f, r, nd=nd: delivered.add((nd, index[f])),
                     lambda ch, r, nd=nd: heard.add((nd, index[resolving[-1]])))
    med.finalize(0.0)
    resolve = med._resolve_all

    def tracked(frame):
        resolving.append(frame)
        resolve(frame)

    med._resolve_all = tracked
    for i, (tx, ch, p, s, n) in enumerate(frames):
        fr = ChannelFrame(tx, ch, PHY_1M, p, s, n)
        index[fr] = i
        eng.schedule(0 if ahead else fr.start, med.begin_transmission, fr)
    eng.run_until_idle()
    return delivered, heard - delivered, dict(med.outcome_counts)


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
                    frames = [("a", 37, p1, 0, 11), (tx2, 37, p2, s2, 11)]
                    want = expected(nodes, frames, loss)
                    for ahead in (False, True):
                        assert run_impl(nodes, frames, loss, ahead) == want
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
                ("a", 37, 0.0, 0, 11),
                ("b", 37, -9.0, s2, 11),
                ("c", ch3, 0.0, s3, 11),
            ]
            want = expected(nodes, frames, loss)
            for ahead in (False, True):
                assert run_impl(nodes, frames, loss, ahead) == want
