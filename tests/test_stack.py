"""Protocol machine behavior: flooding, transport recovery, advertising cadence."""

import logging
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshsim.engine import Engine, RandomSource
from meshsim.errors import ConfigError
from meshsim.metrics import DELIVERED, FLAGGED, LOST, Collector
from meshsim.radio import (
    PHY_1M,
    PRIMARY_CHANNELS,
    ChannelFrame,
    FrameKind,
    Medium,
    _scanner_catches,
    airtime_us,
)
from meshsim.scenario import ScenarioConfig
from meshsim.stack import (
    EXT_INDICATION_OCTETS,
    INTER_CHANNEL_GAP_US,
    RX_DONE_CAPACITY,
    SEG_ROUND_BASE_US,
    SEG_ROUND_PER_TTL_US,
    TRANSPORT_RETRY_ROUNDS,
    MAX_TTL,
    MeshPdu,
    NetworkCache,
    Node,
    RssiObserver,
    controlled_power_dbm,
    segment_payload,
)

SCAN_US = 2_000_000     # scan interval and window: continuous, 2 s per channel


def node_config(**kw) -> ScenarioConfig:
    """The scenario a node reads: the defaults with the given fields replaced."""
    return ScenarioConfig(**kw)


class World:
    """Fully wired micro-network over a loss matrix (or one shared loss value).

    Every node reads cfg (default: node_config()) unless per_node names
    another for it; the nodes in relay_off do not relay.
    blackout(start, end, pair) forces total loss on every frame that starts
    in [start, end): at all receivers, or only on the (tx, rx) pair given.
    """

    def __init__(self, names, loss, *, seed=7, sigma=0.0, cfg=None,
                 per_node=None, relay_off=(), groups=None):
        self.engine = Engine()
        root = RandomSource(seed)
        if isinstance(loss, (int, float)):
            loss = {(a, b): float(loss)
                    for i, a in enumerate(names) for b in names[i + 1:]}
        index = {n: i for i, n in enumerate(names)}
        # a pair `loss` leaves out holds None, so a read of it fails
        table = [[math.inf if i == j else None for j in range(len(names))]
                 for i in range(len(names))]
        for (a, b), v in loss.items():
            table[index[a]][index[b]] = table[index[b]][index[a]] = v
        self.medium = Medium(self.engine, (index, table), SCAN_US, SCAN_US,
                             shadowing_sigma_db=sigma)
        self.addr = {n: i + 1 for i, n in enumerate(names)}
        directory = {v: n for n, v in self.addr.items()}
        self.collector = Collector()
        self.nodes = {}
        max_power = -1000.0
        for n in names:
            c = (per_node or {}).get(n) or cfg or node_config()
            self.nodes[n] = Node(
                n, self.addr[n], c, n not in relay_off, self.engine, self.medium,
                root.stream("proto:" + n), root.stream("chan:" + n),
                self.collector, directory, dict(groups or {}))
            max_power = max(max_power, c.tx_power_dbm)
        self.medium.finalize(max_power)
        self.frames = []
        self._blackouts = []
        inner = self.medium.begin_transmission

        def logged(*frames):
            self.frames.extend(frames)
            for frame in frames:
                for start, end, pair in self._blackouts:
                    if start <= frame.start < end:
                        tx = frame.transmitter
                        if frame.rssi_cache is None:
                            frame.rssi_cache = [None] * len(names)
                        for rx in names:
                            if rx != tx and (pair is None or pair == (tx, rx)):
                                frame.rssi_cache[index[rx]] = -math.inf
            inner(*frames)

        self.medium.begin_transmission = logged

    def blackout(self, start_us, end_us, pair=None):
        self._blackouts.append((start_us, end_us, pair))

    def publish_at(self, t_us, src, dst, payload, msg_id):
        self.engine.schedule(t_us, self.nodes[src].publish, dst, payload, msg_id)

    def records(self, msg_id=None):
        recs = self.collector.records()
        if msg_id is None:
            return recs
        return [r for r in recs if r.app_msg_id == msg_id]

    def sent_by(self, name, kind=None):
        out = [f for f in self.frames if f.transmitter == name]
        if kind is not None:
            out = [f for f in out if getattr(f.payload, "kind", None) == kind]
        return out


# ------------------------------------------------------------- pure functions

def test_scanner_channel_rotation():
    def caught_on(interval, window, t_us):
        """Primary channels on which the scanner catches a 1-octet frame at t_us."""
        return [ch for ch in PRIMARY_CHANNELS if _scanner_catches(
            interval, window, ChannelFrame.checked("a", ch, PHY_1M, 0.0, t_us, 1))]

    interval = 2_000_000
    assert caught_on(interval, interval, 0) == [37]
    assert caught_on(interval, interval, interval - airtime_us(1, PHY_1M)) == [37]
    assert caught_on(interval, interval, 2_000_000) == [38]
    assert caught_on(interval, interval, 4_000_000) == [39]
    assert caught_on(interval, interval, 6_000_000) == [37]
    # a frame that runs across the channel switch is caught on neither side
    assert caught_on(interval, interval, 1_999_999) == []
    # duty-cycled scanner idles once the window closes
    assert caught_on(1_000_000, 10_000, 5_000) == [37]
    assert caught_on(1_000_000, 10_000, 10_000) == []
    assert caught_on(1_000_000, 10_000, 1_004_000) == [38]


@pytest.mark.parametrize("size,expected", [
    (0, []),
    (11, [11]),
    (12, [12]),
    (19, [12, 7]),
    (24, [12, 12]),
    (380, [12] * 31 + [8]),
])
def test_segment_chunk_shapes(size, expected):
    chunks = segment_payload(bytes(size))
    assert [len(c) for c in chunks] == expected


def test_segment_chunk_shapes_extended():
    assert [len(c) for c in segment_payload(bytes(100), extended=True)] == [96, 4]
    assert [len(c) for c in segment_payload(bytes(101), extended=True)] == [96, 5]
    assert [len(c) for c in segment_payload(bytes(380), extended=True)] == [96, 96, 96, 92]


def test_oversized_payload_rejected():
    with pytest.raises(ConfigError):
        segment_payload(bytes(381))


@given(st.binary(min_size=0, max_size=380), st.booleans())
def test_segments_rejoin(payload, extended):
    chunks = segment_payload(payload, extended=extended)
    assert b"".join(chunks) == payload
    cap = 96 if extended else 12
    assert len(chunks) == -(-len(payload) // cap)
    assert all(len(c) == cap for c in chunks[:-1])


def property_octets(pdu):
    """MeshPdu.octets as a property formula, computed on every read."""
    if pdu.kind == "seg_ack":
        return 7
    return max(1, len(pdu.payload))


@settings(max_examples=20)
@given(st.integers(1, 127), st.binary(min_size=1, max_size=1))
def test_pdu_octets_match_property_formula(ttl, fill):
    for kind in ("data", "app_ack", "seg_ack"):
        for size in range(381):
            pdu = MeshPdu(1, 2, 0, ttl, fill * size, 5, kind=kind)
            assert pdu.octets == property_octets(pdu)
            copy = pdu.relayed_copy()
            assert copy.octets == pdu.octets == property_octets(copy)


@pytest.mark.parametrize("ttl, seq, problem", [
    (-1, 0, "ttl -1 outside 0..127"),
    (MAX_TTL + 1, 0, "ttl 128 outside 0..127"),
    (7, -1, "sequence number -1 outside"),
    (7, 1 << 24, "sequence number 16777216 outside"),
])
def test_pdu_ttl_and_seq_out_of_range_rejected(ttl, seq, problem):
    with pytest.raises(ConfigError, match=problem):
        MeshPdu(1, 2, seq, ttl, b"x", 5)


def pdu_slots(pdu):
    return {name: getattr(pdu, name) for name in MeshPdu.__slots__}


@settings(max_examples=60)
@given(st.integers(2, MAX_TTL), st.integers(0, (1 << 24) - 1),
       st.sampled_from(["data", "app_ack", "seg_ack"]), st.binary(max_size=40),
       st.sampled_from([None, (0, 2, 5), (1, 2, 5)]),
       st.sampled_from([None, (5, frozenset({0}))]))
def test_relayed_copy_is_a_validated_pdu_at_ttl_minus_one(ttl, seq, kind, payload,
                                                          seg, ack_info):
    # relayed_copy skips __init__; at every ttl the relay rule lets through
    # it must give what __init__ would, slot by slot
    pdu = MeshPdu(3, 0xC001, seq, ttl, payload, 9, kind=kind, seg=seg,
                  ack_info=ack_info)
    fresh = MeshPdu(3, 0xC001, seq, ttl - 1, payload, 9, kind=kind, seg=seg,
                    ack_info=ack_info)
    copy = pdu.relayed_copy()
    assert type(copy) is MeshPdu and copy is not pdu
    assert pdu_slots(copy) == pdu_slots(fresh)
    assert pdu.ttl == ttl


def test_receive_path_relays_only_from_ttl_two():
    # what relayed_copy leaves unchecked the relay rule guarantees: a copy
    # is made only of a PDU at ttl >= 2, so no relayed ttl is below 1
    w = World(["a", "b"], 60.0, cfg=quiet_params())
    relay = w.nodes["b"]
    for seq, ttl in enumerate([0, 1, 2, 3, MAX_TTL]):
        # from a, to an address no node holds: only b's relay rule acts
        w.collector.on_send(seq, "a", (), 0)
        relay.receive_network_pdu(MeshPdu(w.addr["a"], 0x0100, seq, ttl, b"x", seq))
    w.engine.run_until_idle()
    relayed = {f.payload.seq: f.payload.ttl for f in w.sent_by("b")}
    assert relayed == {2: 1, 3: 2, 4: MAX_TTL - 1}
    assert not w.sent_by("a")   # a drops its own PDU, relayed back to it


def test_network_cache_fifo_eviction():
    cache = NetworkCache(capacity=3)
    for key in ("k1", "k2", "k3"):
        cache.insert(key)
    cache.insert("k1")            # re-insert must not reorder or grow
    cache.insert("k4")
    assert "k1" not in cache      # oldest entry evicted
    assert "k2" in cache and "k3" in cache and "k4" in cache
    assert len(cache) == 3
    with pytest.raises(ConfigError):
        NetworkCache(capacity=0)


# -------------------------------------------------------- advertising cadence

def quiet_params(**kw):
    # far retry horizon so only the initial copy is on the air: the one
    # retry falls past the guard and sends nothing, so a run drains
    kw.setdefault("retry_interval_ms", 10 ** 6)
    return node_config(**kw)


def test_adv_event_cadence():
    w = World(["a", "b"], 300.0, cfg=quiet_params())
    w.publish_at(0, "a", w.addr["b"], b"x" * 11, 1)
    w.engine.run_until_idle()
    frames = w.sent_by("a")
    assert len(frames) == 9
    assert [f.channel for f in frames] == [37, 38, 39] * 3
    assert len({id(f.payload) for f in frames}) == 1
    assert all(f.end - f.start == (10 + 11) * 8 for f in frames)
    for i in (0, 1, 3, 4, 6, 7):
        assert frames[i + 1].start == frames[i].end + 400
    for first, nxt in ((frames[0], frames[3]), (frames[3], frames[6])):
        gap = nxt.start - first.start
        assert 20_000 <= gap < 30_000


def test_legacy_event_structure():
    # b is out of range, so nothing feeds a's observer but the test itself
    w = World(["a", "b"], 300.0, cfg=quiet_params(power_control=True))
    observer = w.nodes["a"].observer
    for ch in (37, 38, 39):
        observer.observe(ch, -60.0)     # power 0 + 60 - 70 = -10
    # two PDUs: the second one's first event waits only for the radio
    w.publish_at(0, "a", w.addr["b"], b"x" * 11, 1)
    w.publish_at(0, "a", w.addr["b"], b"y" * 11, 2)
    # mid-way through the first event the floor drops: raw 0 + 80 - 70
    # clamps to 0 dBm, from the next event on
    w.engine.schedule(300, observer.observe, 37, -80.0)
    w.engine.run_until_idle()
    frames = w.sent_by("a")
    assert len(frames) == 18
    events = [frames[i:i + 3] for i in range(0, 18, 3)]
    for ev in events:
        assert [f.channel for f in ev] == [37, 38, 39]
        assert len({id(f.payload) for f in ev}) == 1
        assert ev[1].start == ev[0].end + 400
        assert ev[2].start == ev[1].end + 400
    assert [{f.power_dbm for f in ev} for ev in events] == [{-10.0}] + [{0.0}] * 5
    assert events[1][0].start == events[0][2].end + 400
    for ev, nxt in zip(events, events[1:]):
        assert nxt[0].start >= ev[2].end + 400


@pytest.mark.parametrize("extended", [False, True])
def test_stack_frames_equal_the_checked_builders(extended):
    # Node._start_event builds with the unchecked constructor and its own
    # airtime; the checked builder, given the same arguments, must give the
    # same frame slot by slot.  Power control is on and engaged, so the
    # event's power is not the default
    w = World(["a", "b"], 60.0,
              cfg=quiet_params(extended=extended, power_control=True))
    for ch in (37, 38, 39):
        w.nodes["a"].observer.observe(ch, -60.0)    # power 0 + 60 - 70 = -10
    registered = []     # each frame's slots as it was registered
    inner = w.medium.begin_transmission

    def snapshot(*frames):
        registered.append([{name: getattr(f, name) for name in ChannelFrame.__slots__}
                           for f in frames])
        inner(*frames)

    w.medium.begin_transmission = snapshot
    w.publish_at(0, "a", w.addr["b"], bytes(50 if extended else 11), 1)
    w.engine.run_until_idle()
    first = registered[0]
    assert [f["channel"] for f in first][:3] == [37, 38, 39]
    assert len(first) == (4 if extended else 3)
    assert {f["power_dbm"] for f in first} == {-10.0}
    for event in registered:
        for f in event:
            octets = EXT_INDICATION_OCTETS if f["kind"] is FrameKind.EXT_IND \
                else f["payload"].octets
            built = ChannelFrame.checked(f["transmitter"], f["channel"], f["phy"],
                                         f["power_dbm"], f["start"], octets,
                                         f["kind"], f["payload"], f["eligible"])
            assert {name: getattr(built, name)
                    for name in ChannelFrame.__slots__} == f
            assert built.payload is f["payload"] and built.eligible is f["eligible"]


def test_aux_eligible_only_to_nodes_that_caught_its_indications(monkeypatch):
    caught = []         # (receiver, frame) for every frame handed to a node
    at_resolution = {}  # aux frame -> its eligible set as the aux resolved
    on_frame, resolve = Node._on_frame, Medium._resolve_all

    def logged(self, frame, rssi):
        caught.append((self.node_id, frame))
        on_frame(self, frame, rssi)

    def resolving(med, frame):
        if frame.kind is FrameKind.AUX:
            at_resolution[frame] = set(frame.eligible)
        resolve(med, frame)

    monkeypatch.setattr(Node, "_on_frame", logged)
    monkeypatch.setattr(Medium, "_resolve_all", resolving)
    w = World(["a", "b", "c"], 60.0, cfg=node_config(extended=True))
    # c misses only the first event's indications
    w.blackout(0, 2_280, pair=("a", "c"))
    w.publish_at(0, "a", w.addr["b"], bytes(50), 1)
    w.engine.run_until_idle()
    # a caught indication joins its set in the medium; none reaches a node
    assert caught and all(f.kind is not FrameKind.EXT_IND for _, f in caught)
    sent = w.sent_by("a")
    events = [sent[i:i + 4] for i in range(0, len(sent), 4)]
    assert len(events) >= 3
    sets = []
    for *inds, aux in events:
        assert [f.kind for f in inds] == [FrameKind.EXT_IND] * 3
        assert aux.kind is FrameKind.AUX
        assert all(f.payload is aux.payload and f.eligible is aux.eligible
                   for f in inds)
        # the indications resolve before the aux, and nothing joins after it
        assert at_resolution[aux] == aux.eligible
        got_aux = {rx for rx, f in caught if f is aux}
        assert got_aux <= aux.eligible
        # a receiver outside the set is not resolved at all: no RSSI drawn
        drawn = {rx for rx, j in w.medium.index.items()
                 if aux.rssi_cache is not None and aux.rssi_cache[j] is not None}
        assert drawn <= aux.eligible
        sets.append(aux.eligible)
    assert len({id(e) for e in sets}) == len(sets)   # a fresh set per event
    first_aux = events[0][3]
    assert first_aux.eligible == {"b"}
    assert {rx for rx, f in caught if f is first_aux} == {"b"}
    assert any("c" in e for e in sets[1:])


def test_adv_queue_interleaves_pdus():
    w = World(["a", "b"], 300.0, cfg=quiet_params())
    w.publish_at(0, "a", w.addr["b"], b"m1", 1)
    w.publish_at(0, "a", w.addr["b"], b"m2", 2)
    w.engine.run_until_idle()
    frames = w.sent_by("a")
    assert len(frames) == 18
    ids = [f.payload.app_msg_id for f in frames]
    # one radio: frames never overlap
    for prev, cur in zip(frames, frames[1:]):
        assert cur.start >= prev.end
    # whole events at a time: bursts of three channels carrying one PDU
    events = [frames[i:i + 3] for i in range(0, 18, 3)]
    for ev in events:
        assert [f.channel for f in ev] == [37, 38, 39]
        assert len({id(f.payload) for f in ev}) == 1
        assert ev[1].start == ev[0].end + 400
        assert ev[2].start == ev[1].end + 400
    # the second PDU does not wait for the first to finish all its events;
    # its first event starts the instant the radio frees (one trailing gap)
    assert ids[:6] == [1, 1, 1, 2, 2, 2]
    assert frames[3].start == frames[2].end + 400
    assert sorted(ids) == [1] * 9 + [2] * 9
    # each PDU still keeps its own event cadence
    for msg in (1, 2):
        starts = [ev[0].start for ev in events if ev[0].payload.app_msg_id == msg]
        assert len(starts) == 3
        for s0, s1 in zip(starts, starts[1:]):
            assert 20_000 <= s1 - s0 < 32_000


# ------------------------------------------------------------ unicast publish

def test_unicast_single_hop():
    w = World(["a", "b"], 60.0)
    w.publish_at(0, "a", w.addr["b"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.retransmissions == 0
    # 3 source + 2 relay events for the command, same again for the ack
    assert rec.frames_total == (3 + 2 + 3 + 2) * 3
    assert rec.one_way_ms == pytest.approx(0.104)   # (10 + 3 octets) * 8 us
    assert rec.ack_time_us is not None and rec.round_trip_ms < 1.0


def test_unicast_retries_until_link_returns():
    w = World(["a", "b"], 60.0)
    w.blackout(0, 1_000_000)
    w.publish_at(0, "a", w.addr["b"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.retransmissions == 5        # 200 ms cadence across a 1 s outage
    assert 1_000_000 <= rec.delivery_time_us < 1_005_000
    assert rec.ack_time_us is not None


def test_publish_rejects_oversized_payload():
    w = World(["a", "b"], 60.0)
    with pytest.raises(ConfigError, match="payload of 381 octets exceeds "
                                          "transport maximum 380"):
        w.nodes["a"].publish(w.addr["b"], bytes(381), 1)
    w.engine.run_until_idle()
    assert w.frames == []


@pytest.mark.parametrize("dst", [
    3,          # unicast, but no node has it
    0xC065,     # group, but not in groups
    0x8000,     # virtual: neither unicast nor group
])
def test_publish_rejects_unknown_destination(dst):
    w = World(["a", "b"], 60.0, groups={0xC064: ("b",)})
    with pytest.raises(ConfigError, match="no node or group at address"):
        w.nodes["a"].publish(dst, b"cmd", 1)
    assert w.collector.records() == []


def test_retry_cap_stops_republishing():
    w = World(["a", "b"], 60.0, cfg=node_config(retry_cap=2))
    w.blackout(0, 10 ** 12)
    w.publish_at(0, "a", w.addr["b"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == LOST
    assert rec.retransmissions == 2
    assert rec.delivery_time_us is None and rec.ack_time_us is None


def test_guard_flags_runaway_retry():
    w = World(["a", "b"], 60.0, cfg=node_config(guard_s=1.0))
    w.blackout(0, 10 ** 12)
    w.publish_at(0, "a", w.addr["b"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == FLAGGED
    assert rec.retransmissions == 4        # retries at 200..800 ms, flag at 1 s
    assert rec.delivery_time_us is None


def test_destination_acks_every_received_copy():
    w = World(["a", "b"], 60.0)
    w.blackout(0, 350_000, pair=("b", "a"))   # ack path only
    w.publish_at(0, "a", w.addr["b"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.one_way_ms == pytest.approx(0.104)        # first copy got through
    assert rec.retransmissions == 2
    assert 400_000 < rec.ack_time_us < 405_000
    # one fresh ack per received copy; relayed PDUs reuse the origin sequence
    assert w.nodes["b"]._seq == 3


# ------------------------------------------------------------------- flooding

def chain3():
    return {("a", "b"): 60.0, ("b", "c"): 60.0, ("a", "c"): 300.0}


def test_two_hop_needs_ttl_two():
    w = World(["a", "b", "c"], chain3(), cfg=node_config(default_ttl=2))
    w.publish_at(0, "a", w.addr["c"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.frames_total == 30
    assert rec.one_way_ms < 5.0
    relayed = [f.payload.ttl for f in w.sent_by("b") if f.payload.kind == "data"]
    assert relayed and set(relayed) == {1}


def test_ttl_one_never_relayed():
    w = World(["a", "b", "c"], chain3(),
              cfg=node_config(default_ttl=1, retry_cap=1))
    w.publish_at(0, "a", w.addr["c"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == LOST
    assert rec.frames_total == 18          # initial copy plus one retry, no relay
    assert not w.sent_by("b")


def test_relay_disabled_breaks_the_path():
    w = World(["a", "b", "c"], chain3(),
              cfg=node_config(retry_cap=1), relay_off={"b"})
    w.publish_at(0, "a", w.addr["c"], b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == LOST
    assert not w.sent_by("b")


def test_group_publish_budget_and_ack():
    w = World(["a", "b"], 60.0, groups={0xC064: ("b",)})
    w.nodes["b"].subscriptions.add(0xC064)
    w.publish_at(0, "a", 0xC064, b"cmd", 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.retransmissions == 0
    assert rec.ack_time_us is not None
    # 2 source events, 2 relay events, 3-event ack, 2-event ack relay
    assert rec.frames_total == (2 + 2 + 3 + 2) * 3


def test_group_flood_terminates_without_loops():
    names = ["a", "b", "c", "d"]
    w = World(names, 60.0, groups={0xC064: ("b", "c", "d")})
    for n in names[1:]:
        w.nodes[n].subscriptions.add(0xC064)
    w.publish_at(0, "a", 0xC064, b"cmd", 1)
    dispatched = w.engine.run_until_idle(max_events=50_000)
    assert dispatched < 50_000             # the flood must die out
    recs = w.records(1)
    assert len(recs) == 3
    assert all(r.status == DELIVERED for r in recs)
    per_key = {}
    for f in w.frames:
        key = (f.transmitter, f.payload.src, f.payload.seq)
        per_key[key] = per_key.get(key, 0) + 1
    # each node serves one advertising job (at most 3 events) per network PDU
    assert max(per_key.values()) <= 9


# ------------------------------------------------------- segmented transport

def deliver_spy(monkeypatch, node):
    """The data payloads node delivers; a node has no instance dict, so the
    spy wraps the class's method and records only node's calls."""
    seen = []
    orig = Node._access_deliver

    def spy(self, src_value, kind, payload, app_msg_id):
        if self is node and kind == "data":
            seen.append(payload)
        orig(self, src_value, kind, payload, app_msg_id)

    monkeypatch.setattr(Node, "_access_deliver", spy)
    return seen


def test_segmented_roundtrip_lossless(monkeypatch):
    w = World(["a", "b"], 60.0)
    seen = deliver_spy(monkeypatch, w.nodes["b"])
    sender = w.nodes["a"]
    block_acks = []
    on_block_ack = Node._on_block_ack

    def ack_spy(self, pdu):
        if self is sender:
            block_acks.append(pdu.ack_info)
        on_block_ack(self, pdu)

    monkeypatch.setattr(Node, "_on_block_ack", ack_spy)
    payload = bytes(range(19))
    w.publish_at(0, "a", w.addr["b"], payload, 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert rec.retransmissions == 0
    assert seen == [payload]
    # the two segments pipeline through the advertiser back-to-back, so the
    # train lands within a handful of milliseconds
    assert 1.0 < rec.one_way_ms < 5.0
    assert rec.round_trip_ms < 10.0
    # every block ack covers the whole train, and the finished attempt is gone
    assert block_acks and all(info == (0, frozenset({0, 1})) for info in block_acks)
    assert not sender._tx_attempts


@pytest.mark.parametrize("extended,size,segs", [
    (False, 11, {None}),
    (False, 12, {(0, 1, 0)}),
    (True, 100, {None}),
    (True, 101, {(0, 2, 0), (1, 2, 0)}),
], ids=["legacy-11", "legacy-12", "extended-100", "extended-101"])
def test_twelve_octets_use_segmented_transport(extended, size, segs):
    # publish alone decides between unsegmented and segmented transport
    w = World(["a", "b"], 60.0, cfg=node_config(extended=extended))
    w.publish_at(0, "a", w.addr["b"], bytes(size), 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED and rec.retransmissions == 0
    data = w.sent_by("a", kind="data")
    assert {f.payload.seg for f in data} == segs
    # only a segmented unicast is block-acknowledged
    assert bool(w.sent_by("b", kind="seg_ack")) == (segs != {None})


@pytest.mark.parametrize("seed", [7, 11, 23])
def test_lost_segment_recovered_by_block_ack(monkeypatch, seed):
    w = World(["a", "b"], 60.0, seed=seed)
    seen = deliver_spy(monkeypatch, w.nodes["b"])
    # window sized so only segment 0's opening frame survives; every later
    # event of the first pass is gone, and the 200 ms report gets through
    w.blackout(1_000, 150_000, pair=("a", "b"))
    payload = bytes(range(19))
    w.publish_at(0, "a", w.addr["b"], payload, 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert seen == [payload]
    # one round, fired by the receiver's 200 ms partial report
    assert rec.retransmissions == 1
    assert 200.0 < rec.one_way_ms < 300.0
    assert not w.nodes["b"]._rx_bufs
    assert (w.addr["a"], 0) in w.nodes["b"]._rx_done


def test_unacked_segments_abandoned_after_timer_rounds(monkeypatch, caplog):
    # the block-ack path is dead, so only the sender's round timer drives
    # the resends; the publication's own retry waits past the guard
    w = World(["a", "b"], 60.0, cfg=quiet_params())
    w.blackout(0, 10 ** 12, pair=("b", "a"))
    sender = w.nodes["a"]
    rounds = []          # (engine time, rounds done) at every timer firing
    transport_round = Node._transport_round

    def round_spy(self, tag, attempt):
        if self is sender:
            rounds.append((w.engine.now, attempt.rounds))
        transport_round(self, tag, attempt)

    monkeypatch.setattr(Node, "_transport_round", round_spy)
    caplog.set_level(logging.DEBUG, logger="meshsim.stack")
    w.publish_at(0, "a", w.addr["b"], bytes(19), 1)
    w.engine.run_until_idle()
    # every round but the last resends; the last finds the budget spent
    assert [done for _, done in rounds] == list(range(TRANSPORT_RETRY_ROUNDS + 1))
    # each firing is one round gap after the previous train left the radio
    gap = SEG_ROUND_BASE_US + SEG_ROUND_PER_TTL_US * node_config().default_ttl
    data = w.sent_by("a", kind="data")
    for t, _ in rounds:
        last = max(f.end for f in data if f.start < t)
        assert t == last + INTER_CHANNEL_GAP_US + gap
    assert len(data) == (TRANSPORT_RETRY_ROUNDS + 1) * 2 * 3 * 3
    (rec,) = w.records(1)
    assert rec.retransmissions == TRANSPORT_RETRY_ROUNDS
    assert not sender._tx_attempts
    assert "a: transport attempt 0 abandoned" in caplog.messages


def test_partial_buffer_acks_then_expires():
    w = World(["a", "b"], 60.0)
    w.collector.on_send(55, "a", ("b",), 0)
    pdu = MeshPdu(w.addr["a"], w.addr["b"], 0, 7, bytes(12), 55,
                  seg=(0, 2, 9))
    w.engine.schedule(0, w.nodes["b"].receive_network_pdu, pdu)
    w.engine.run_until_idle()
    acks = w.sent_by("b", kind="seg_ack")
    # a report every 200 ms tick; the tenth silent tick discards instead
    assert len(acks) == 9 * 9
    assert all(f.payload.ack_info == (9, frozenset({0})) for f in acks)
    assert not w.nodes["b"]._rx_bufs
    assert (w.addr["a"], 9) not in w.nodes["b"]._rx_done
    (rec,) = w.records(55)
    assert rec.status == LOST


def test_finished_reassemblies_age_out_oldest_first(monkeypatch):
    w = World(["a", "b"], 60.0)
    b, src = w.nodes["b"], w.addr["a"]
    delivered = []
    monkeypatch.setattr(Node, "_access_deliver",
                        lambda _self, _src, _kind, _payload, msg_id:
                        delivered.append(msg_id))

    def finish(tag):
        b._reassemble(MeshPdu(src, w.addr["b"], tag, 7, bytes(12), tag,
                              seg=(0, 1, tag)))

    for tag in range(RX_DONE_CAPACITY + 1):
        finish(tag)
    assert delivered == list(range(RX_DONE_CAPACITY + 1))
    assert len(b._rx_done) == RX_DONE_CAPACITY
    assert list(b._rx_done) == [(src, tag) for tag in range(1, RX_DONE_CAPACITY + 1)]
    # a late segment of a remembered message is only re-acked; one of the
    # aged-out message is delivered again
    finish(1)
    assert len(delivered) == RX_DONE_CAPACITY + 1
    finish(0)
    assert delivered[-1] == 0 and len(delivered) == RX_DONE_CAPACITY + 2


# ------------------------------------------------------- extended advertising

def test_extended_event_structure():
    w = World(["a", "b"], 60.0, cfg=node_config(extended=True))
    w.publish_at(0, "a", w.addr["b"], bytes(50), 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED and rec.retransmissions == 0
    assert rec.frames_total == (3 + 2 + 3 + 2) * 4
    inds = [f for f in w.sent_by("a") if f.kind is FrameKind.EXT_IND][:3]
    aux = [f for f in w.sent_by("a") if f.kind is FrameKind.AUX][0]
    assert [f.channel for f in inds] == [37, 38, 39]
    assert all(f.end - f.start == 160 for f in inds)
    assert inds[1].start - inds[0].start == 560
    assert inds[2].start - inds[1].start == 560
    assert 0 <= aux.channel <= 36
    assert aux.phy.name == "2M"
    assert aux.start == inds[0].start + 2_280
    assert aux.end - aux.start == (11 + 50) * 8 // 2
    assert rec.one_way_ms == pytest.approx(2.524)
    assert 4.5 < rec.round_trip_ms < 5.5


def test_aux_requires_a_heard_indication():
    w = World(["a", "b"], 60.0, cfg=node_config(extended=True))
    # kill only the first event's indications; its aux is then invisible
    w.blackout(0, 2_280, pair=("a", "b"))
    w.publish_at(0, "a", w.addr["b"], bytes(50), 1)
    w.engine.run_until_idle()
    (rec,) = w.records(1)
    assert rec.status == DELIVERED
    assert 20.0 < rec.one_way_ms < 40.0    # delivered by the second event


# ----------------------------------------------------------- power adaptation

def observer_with(minima):
    obs = RssiObserver(window=16)
    for ch, val in minima.items():
        obs.observe(ch, val)
    return obs


def test_gate_closed_until_all_channels_sampled():
    cfg = node_config(power_control=True)
    obs = RssiObserver(window=16)
    assert controlled_power_dbm(cfg, obs) == cfg.tx_power_dbm
    obs.observe(37, -60.0)
    obs.observe(38, -60.0)
    assert obs.floor_dbm() is None
    assert controlled_power_dbm(cfg, obs) == cfg.tx_power_dbm
    obs.observe(39, -55.0)
    assert obs.floor_dbm() == -60.0
    assert controlled_power_dbm(cfg, obs) == pytest.approx(-10.0)


@pytest.mark.parametrize("p_r,expected", [
    (-60.0, -10.0),   # 0 - (-60) + (-70)
    (-80.0, 0.0),     # raw +10 clamps to p_max
    (-45.0, -20.0),   # raw -25 clamps to the floor
    (-70.0, 0.0),
])
def test_control_law_examples(p_r, expected):
    cfg = node_config(tx_power_dbm=0.0, power_control=True,
                      power_control_zeta_th_dbm=-70.0)
    obs = observer_with({37: p_r, 38: p_r + 3, 39: p_r + 7})
    assert controlled_power_dbm(cfg, obs) == pytest.approx(expected)


def test_margin_shifts_the_law():
    tight = node_config(power_control=True, power_control_zeta_th_dbm=-70.0)
    lax = node_config(power_control=True, power_control_zeta_th_dbm=-70.0,
                      power_control_margin_db=5.0)
    obs = observer_with({37: -60.0, 38: -60.0, 39: -60.0})
    assert controlled_power_dbm(lax, obs) - controlled_power_dbm(tight, obs) == 5.0


def test_window_forgets_old_minimum():
    obs = RssiObserver(window=16)
    obs.observe(37, -95.0)
    for _ in range(16):
        obs.observe(37, -50.0)
    assert obs.channel_minima()[37] == -50.0


def test_controlled_power_engages_after_observation():
    ctl = node_config(power_control=True)
    w = World(["a", "b"], 40.0, per_node={"a": ctl})
    w.publish_at(0, "a", w.addr["b"], b"m1", 1)

    def fill_remaining_channels():
        w.nodes["a"].observer.observe(38, -40.0)
        w.nodes["a"].observer.observe(39, -40.0)

    w.engine.schedule(500_000, fill_remaining_channels)
    w.publish_at(1_000_000, "a", w.addr["b"], b"m2", 2)
    w.engine.run_until_idle()

    first_event = w.sent_by("a", kind="data")[:3]
    assert {f.power_dbm for f in first_event} == {0.0}   # gate still closed
    assert w.nodes["a"].observer.channel_minima()[37] == -40.0
    late = [f for f in w.sent_by("a", kind="data") if f.start >= 1_000_000]
    # p_max - p_r + zeta = 0 + 40 - 70 = -30, clamped to the -20 floor
    assert len(late) == 9 and {f.power_dbm for f in late} == {-20.0}
    rec = w.records(2)[0]
    assert rec.status == DELIVERED and rec.retransmissions == 0
