"""Model oracles: results that follow from the model's rules alone.

Golden digests pin what the code does; these pin what it must do, so they
stay fixed when a change re-pins a digest on purpose.  Some are closed
forms; the advertiser's is a differential one, a second spelling of the
scheduling rules in stack.py's docstring run against a live Node.
"""

import math
from collections import Counter
from statistics import NormalDist

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.engine import Engine, RandomSource
from meshsim.metrics import DELIVERED
from meshsim.radio import PHY_1M, ChannelFrame, FrameKind, Medium, Outcome, airtime_us
from meshsim.runner import run_experiment
from meshsim.scenario import ScenarioConfig, ms_to_us
from meshsim.stack import GROUP_ADV_EVENTS, INTER_CHANNEL_GAP_US, MeshPdu, Node
from meshsim.topology import load_topology
from test_radio import CONTINUOUS, loss_table
from test_runner import FrameLog
from test_stack import SCAN_US, World, quiet_params


@pytest.mark.parametrize("k,latency_us", [(0, 168), (1, 736), (2, 1304)])
def test_first_event_latency(k, latency_us):
    # without shadowing a 60 dB link always delivers.  Published at the
    # start of scan interval k, the first event airs 37, 38, 39 while the
    # scanner listens on channel 37 + k, so frame k, the first one heard,
    # ends k * (airtime + gap) after the first frame's end
    airtime = airtime_us(11, PHY_1M)
    assert latency_us == airtime + k * (airtime + INTER_CHANNEL_GAP_US)
    w = World(["a", "b"], 60.0, sigma=0.0, cfg=quiet_params())
    w.publish_at(k * SCAN_US, "a", w.addr["b"], bytes(11), 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.delivery_time_us - rec.send_time_us == latency_us


@pytest.mark.parametrize("noise_dbm", [-100.0, -78.0])
def test_capture_against_noise_of_known_power(noise_dbm):
    # noise is heard at its own power, with no path loss and no shadow
    # draw, so over a link of loss L a frame at P survives a noise burst of
    # power I when P - L + sigma Z >= max(sens, I + capture): its share is
    # Phi((P - L - max(sens, I + capture)) / sigma).  At -100 dBm the noise
    # is below sensitivity and only sensitivity binds; at -78 dBm capture does
    sigma, capture, sens, n = 4.0, 10.0, PHY_1M.sensitivity_dbm, 2_000
    links = {"r1": 62.0, "r2": 66.0, "r3": 70.0, "r4": 86.0, "r5": 90.0, "r6": 94.0}
    losses = {("a", rx): v for rx, v in links.items()}
    losses.update({(x, y): 200.0 for x in links for y in links if x < y})
    engine = Engine()
    medium = Medium(engine, loss_table(losses), CONTINUOUS, CONTINUOUS,
                    shadowing_sigma_db=sigma, capture_db=capture)
    delivered = Counter()
    root = RandomSource(2024)
    for rx in ["a", *links]:
        medium.register(rx, root.stream(f"chan:{rx}"),
                        lambda frame, rssi, rx=rx: delivered.update([rx]))
    medium.finalize(0.0)
    for k in range(n):
        # the burst (39 octets, 392 us) covers the whole 168 us frame
        noise = ChannelFrame.checked("env", 37, PHY_1M, noise_dbm, 1_000 * k, 39,
                                     FrameKind.NOISE)
        frame = ChannelFrame.checked("a", 37, PHY_1M, 0.0, 1_000 * k + 50, 11)
        engine.schedule(noise.start, medium.begin_transmission, noise)
        engine.schedule(frame.start, medium.begin_transmission, frame)
    engine.run_until_idle()
    z = NormalDist().inv_cdf(0.9995)
    for rx, loss in links.items():
        p = NormalDist().cdf((0.0 - loss - max(sens, noise_dbm + capture)) / sigma)
        # the normal approximation's 99.9 % interval, with continuity correction
        assert abs(delivered[rx] - n * p) <= z * math.sqrt(n * p * (1 - p)) + 0.5, rx


@pytest.mark.parametrize("margin_db", [-4.0, 0.0, 4.0])
def test_group_link_delivery(margin_db):
    # one link whose mean RSSI is margin_db over sensitivity, with nothing
    # else on the air.  The scanner listens on one primary channel through
    # each whole event, so an event reaches the slave iff the frame on that
    # channel survives its own shadow draw, with probability
    # Phi(margin / sigma); a group message has GROUP_ADV_EVENTS events, each
    # drawn afresh, and no acknowledgment or retry
    sigma, seeds, iterations = 4.0, (1, 2), 800
    loss = 0.0 - PHY_1M.sensitivity_dbm - margin_db
    topology = load_topology(f"meshsim-topology v1\nnode a\nnode b\nloss a b {loss}\n")
    cfg = ScenarioConfig(pattern="one-to-many", mode="group-acked-fixed",
                         controller="a", slaves=("b",), iterations=iterations)
    records = [r for seed in seeds for r in run_experiment(topology, cfg, seed).records]
    n = len(seeds) * iterations
    assert len(records) == n
    delivered = sum(r.status == DELIVERED for r in records)
    p = 1.0 - (1.0 - NormalDist().cdf(margin_db / sigma)) ** GROUP_ADV_EVENTS
    z = NormalDist().inv_cdf(0.9995)
    # the normal approximation's 99.9 % interval, with continuity correction
    assert abs(delivered - n * p) <= z * math.sqrt(n * p * (1 - p)) + 0.5


@pytest.mark.parametrize("extended", [False, True])
def test_duty_cycled_scanner_catch_rate(extended):
    # every node scans channel 37 + k % 3 for the first W µs of interval k,
    # I µs long.  A frame of airtime a is caught whole iff it starts within
    # [kI, kI + W - a] of an interval on its channel.  An event's primary
    # frames start d = a + gap apart on 37, 38, 39, so an event starting
    # at phase t of the 3I cycle is caught on frame i iff t lies in
    # [iI - id, iI - id + W - a].  Its span, 3a + 2 gap, plus the window
    # is under one interval, so those three ranges are disjoint and at
    # most one frame of an event is caught: an event whose start is
    # uniform over the cycle's 3I integer phases is caught with
    # probability (W - a + 1) / I.  Without shadowing a 60 dB link with
    # nothing else on the air delivers every caught frame; for an
    # extended event a caught indication admits the receiver to the aux
    # frame, and one delivery counts the event either way.  The catching
    # channel follows the event's phase, so a legacy event is caught on
    # each channel with probability p / 3
    interval, window, n, receivers = ms_to_us(100), ms_to_us(30), 3_000, ("b", "c")
    octets = 50 if extended else 11
    airtime = airtime_us(10 if extended else octets, PHY_1M)
    assert 3 * airtime + 2 * INTER_CHANNEL_GAP_US + window < interval
    p = (window - airtime + 1) / interval
    losses = {("a", rx): 60.0 for rx in receivers}
    losses[receivers] = 300.0
    engine = Engine()
    medium = Medium(engine, loss_table(losses), interval, window,
                    shadowing_sigma_db=0.0)
    delivered = Counter()
    root = RandomSource(5)
    node = Node("a", 1, ScenarioConfig(extended=extended), False, engine, medium,
                root.stream("proto:a"), root.stream("chan:a"), CollectorLog(), {}, {})
    for rx in receivers:
        medium.register(rx, root.stream(f"chan:{rx}"),
                        lambda frame, rssi, rx=rx: delivered.update([rx, (rx, frame.channel)]))
    medium.finalize(0.0)
    # one event per PDU, each starting at a fresh uniform phase of the 3I
    # cycle; events are two cycles apart, so none overlaps another
    jitter = root.stream("jitter")
    for seq in range(n):
        engine.schedule(6 * interval * seq + jitter.randrange(3 * interval),
                        node._enqueue, MeshPdu(1, 2, seq, 5, bytes(octets), seq), 1)
    engine.run_until_idle()
    caught = delivered["b"]
    assert delivered["c"] == caught     # one scan config: both hear the same frames
    z = NormalDist().inv_cdf(0.9995)

    def inside(count, p):
        # the normal approximation's 99.9 % interval, with continuity correction
        return abs(count - n * p) <= z * math.sqrt(n * p * (1 - p)) + 0.5

    assert inside(caught, p)
    if not extended:
        assert all(inside(delivered["b", ch], p / 3) for ch in (37, 38, 39))
    # every primary frame no scanner catches is not listened to at both
    # receivers; a caught indication counts as delivered, and so does its aux
    counts = medium.outcome_counts
    assert counts[Outcome.NOT_LISTENING] == len(receivers) * (3 * n - caught)
    assert counts[Outcome.DELIVERED] == len(receivers) * caught * (2 if extended else 1)


# --------------------------------------------------------------------------
# The advertiser, against a reference scheduler written from stack.py's
# docstring.  Its constants and airtimes are spelled by hand, so a change
# to the stack's own cannot move both sides at once.
# --------------------------------------------------------------------------

GAP_US = 400                # between an event's frames, and after its last
AUX_OFFSET_US = 1_000       # from the last indication's end to the aux frame
INDICATION_OCTETS = 10


def reference_advertiser(sends, cfg, rng):
    """(start, channel, seq) of every frame a node airs, in airing order.

    sends is [(enqueue time, seq, octets, events)] in enqueue order.  The
    node has one radio and serves the earliest-due job, ties going to
    enqueue order.  A new job is due at once; a job's next event is due
    adv_interval plus a fresh advDelay after its previous event's start.
    An event airs on 37, 38 and 39 one gap apart, in extended mode as
    indications followed by the aux frame on a random secondary channel,
    and the radio frees one gap after its last frame.
    """
    interval = ms_to_us(cfg.adv_interval_ms)
    delay_max = ms_to_us(cfg.adv_delay_max_ms)
    # [due, enqueue order, seq, octets, events left]; lists compare by
    # (due, order), and order is unique
    jobs = [[t, order, seq, octets, n]
            for order, (t, seq, octets, n) in enumerate(sends)]
    free, out = 0, []
    while jobs:
        start = max(free, min(job[0] for job in jobs))
        job = min(job for job in jobs if job[0] <= start)
        _, _, seq, octets, left = job
        if left > 1:
            job[0] = start + interval + int(rng.uniform(0, delay_max))
        primary_octets = INDICATION_OCTETS if cfg.extended else octets
        t = start
        for channel in (37, 38, 39):
            out.append((t, channel, seq))
            end = t + (10 + primary_octets) * 8          # 1M airtime
            t = end + GAP_US
        if cfg.extended:
            aux_start = end + AUX_OFFSET_US
            out.append((aux_start, rng.randrange(37), seq))
            end = aux_start + (11 + octets) * 4          # 2M airtime
        free = end + GAP_US
        job[4] -= 1
        if not job[4]:
            jobs.remove(job)
    return out


class CollectorLog:
    """Stands in for the collector: the message id of every counted frame."""

    def __init__(self):
        self.ids = []

    def on_frame(self, app_msg_id, power_dbm, count):
        self.ids += [app_msg_id] * count


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60).map(lambda k: 500 * k),
                          st.integers(1, 100), st.integers(1, 4)),
                min_size=1, max_size=8),
       st.booleans(), st.sampled_from([5.0, 20.0]), st.sampled_from([0.0, 10.0]),
       st.integers(0, 2**32))
def test_advertiser_matches_reference_scheduler(sends, extended, interval_ms,
                                                delay_ms, seed):
    # enqueue times on a 500 µs grid, so same-instant enqueues and jobs
    # that come due while an event is on the air are common
    cfg = ScenarioConfig(extended=extended, adv_interval_ms=interval_ms,
                         adv_delay_max_ms=delay_ms)
    sends = sorted(sends, key=lambda s: s[0])       # stable: list order breaks ties
    engine, medium, log = Engine(), FrameLog(), CollectorLog()
    node = Node("a", 1, cfg, True, engine, medium,
                RandomSource(seed).stream("proto:a"),
                RandomSource(seed).stream("chan:a"), log, {}, {})
    for seq, (t, octets, events) in enumerate(sends):
        engine.schedule(t, node._enqueue,
                        MeshPdu(1, 2, seq, 5, bytes(octets), seq), events)
    engine.run_until_idle()
    assert len(log.ids) == len(medium.frames)
    got = [(f.start, f.channel, seq) for f, seq in zip(medium.frames, log.ids)]
    want = reference_advertiser(
        [(t, seq, octets, events) for seq, (t, octets, events) in enumerate(sends)],
        cfg, RandomSource(seed).stream("proto:a"))
    assert got == want
