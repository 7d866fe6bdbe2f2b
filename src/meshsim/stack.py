"""Per-node mesh protocol machine: advertising bearer, managed flooding, transport.

Message path, source to destination:

* publish() splits the access payload into transport chunks, numbers each
  network PDU from the node's own 24-bit sequence counter and queues them
  on the advertiser.
* The advertiser holds one job per queued PDU; relayed PDUs join the same
  queue as locally originated ones.  Each job keeps its own cadence: its
  next event is due advInterval plus a fresh random advDelay after the
  start of its previous one, and a new job is due at once.  The node has
  one radio, so events never overlap: whenever the radio frees, it serves
  the earliest-due job, ties going to enqueue order.  A PDU that arrives
  while another is between events therefore goes out as soon as the
  current event ends instead of waiting behind all of its repeats.  A
  legacy advertising event transmits the same PDU on channels 37, 38 and
  39 back to back; in extended mode an event instead sends three short
  indications on the primary channels that point at one auxiliary frame on
  a randomly chosen secondary channel, which the medium delivers only to
  the nodes that caught one of them.  Either way all of the event's
  frames are built and registered on the medium when it starts
  (_start_event), and the radio frees one gap after the last of them.
* Receivers deduplicate on (src, seq) with a FIFO cache, hand matching
  destinations to the access layer, and relay a copy with ttl-1 when the
  relay rule allows and a relay buffer is free.
* Segmented unicast messages are block-acknowledged; the sender resends
  missing segments for a bounded number of rounds.  Application-level
  acknowledgments ride the same flooding path as unsegmented data.
* Each advertiser job carries the callback that releases what it holds (a
  relay buffer, a publication copy, a place in a segment round), run
  after the job's last event.

runner.run_experiment builds one Node per topology node.  Each reads the
run's ScenarioConfig as it stands and holds its relay flag, which
runner.choose_relays decides.  Power control (RssiObserver and
controlled_power_dbm) lives here, with the advertiser that uses it.

Wire headers are folded into the PHY frame overhead, so PDU octet counts
equal payload octet counts (with small fixed sizes for control PDUs).
"""

import heapq
import logging
from collections import OrderedDict, deque
from functools import partial

from .engine import Engine, RandomSource
from .errors import ConfigError
from .radio import ADV, AUX, EXT_IND, PHY_1M, PHY_2M, ChannelFrame, Medium, airtime_us
from .scenario import MAX_TTL, TRANSPORT_MAX_OCTETS, ScenarioConfig, ms_to_us, s_to_us

log = logging.getLogger(__name__)

UNSEGMENTED_MAX_OCTETS = 11
SEGMENT_CAPACITY_OCTETS = 12
EXT_UNSEGMENTED_MAX_OCTETS = 100   # aux frames carry larger PDUs unsegmented
EXT_SEGMENT_CAPACITY_OCTETS = 96
CACHE_CAPACITY = 128
# finished reassemblies a node remembers, to re-ack late copies of their
# segments; the bundled segmented runs (100 iterations, seed 1) finish at
# most 22 per node
RX_DONE_CAPACITY = 1024
MAX_SEQ = 1 << 24
GROUP_ADV_EVENTS = 2               # fixed per-message budget in group mode
INTER_CHANNEL_GAP_US = 400
EXT_INDICATION_OCTETS = 10
EXT_INDICATION_AIRTIME_US = airtime_us(EXT_INDICATION_OCTETS, PHY_1M)
EXT_AUX_OFFSET_US = 1_000
BLOCK_ACK_OCTETS = 7
APP_ACK_OCTETS = 4
REASSEMBLY_TIMEOUT_US = 200_000
TRANSPORT_RETRY_ROUNDS = 4
REASSEMBLY_IDLE_ROUNDS = 10        # partial buffers die after this many silent timeouts
# sender-side round cadence: the gap must cover a multi-hop block-ack round
# trip or every round fires spuriously and congestion feeds itself
SEG_ROUND_BASE_US = 400_000
SEG_ROUND_PER_TTL_US = 50_000
# address ranges of Bluetooth Mesh Profile 1.0 §3.4.2; an address that
# publish() accepted is unicast iff it is at most UNICAST_MAX
UNICAST_MIN, UNICAST_MAX = 0x0001, 0x7FFF
GROUP_MIN, GROUP_MAX = 0xC000, 0xFEFF


class MeshPdu:
    """One network PDU.  seg is (index, count, tag) for segmented transport.

    octets, the frame payload size, is fixed at construction from kind and
    payload; neither changes afterwards.
    """

    __slots__ = ("src", "dst", "seq", "ttl", "seg", "payload", "app_msg_id",
                 "kind", "ack_info", "octets")

    def __init__(self, src, dst, seq, ttl, payload, app_msg_id,
                 kind="data", seg=None, ack_info=None):
        if not 0 <= ttl <= MAX_TTL:
            raise ConfigError(f"ttl {ttl} outside 0..{MAX_TTL}")
        if not 0 <= seq < MAX_SEQ:
            raise ConfigError(f"sequence number {seq} outside 24-bit range")
        self.src = src
        self.dst = dst
        self.seq = seq
        self.ttl = ttl
        self.seg = seg
        self.payload = payload
        self.app_msg_id = app_msg_id
        self.kind = kind
        self.ack_info = ack_info
        self.octets = BLOCK_ACK_OCTETS if kind == "seg_ack" else max(1, len(payload))

    def relayed_copy(self) -> "MeshPdu":
        """This PDU at ttl - 1, every other slot the same.

        A slot copy, not a second trip through __init__: the relay rule
        relays only at ttl >= 2, so the copy's ttl is in range, and its
        seq and octets are this PDU's, already checked and computed.
        """
        copy = object.__new__(MeshPdu)
        copy.src = self.src
        copy.dst = self.dst
        copy.seq = self.seq
        copy.ttl = self.ttl - 1
        copy.seg = self.seg
        copy.payload = self.payload
        copy.app_msg_id = self.app_msg_id
        copy.kind = self.kind
        copy.ack_info = self.ack_info
        copy.octets = self.octets
        return copy


def segment_payload(payload: bytes, *, extended: bool = False) -> list[bytes]:
    """Split a payload into segments of the bearer's fixed capacity, the last shorter.

    Whether a payload is segmented at all is Node._send_copy's decision;
    any payload given here is segmented, even one that fits one segment.
    """
    if len(payload) > TRANSPORT_MAX_OCTETS:
        raise ConfigError(
            f"payload of {len(payload)} octets exceeds transport maximum "
            f"{TRANSPORT_MAX_OCTETS}")
    cap = EXT_SEGMENT_CAPACITY_OCTETS if extended else SEGMENT_CAPACITY_OCTETS
    return [payload[i:i + cap] for i in range(0, len(payload), cap)]


class NetworkCache(OrderedDict):
    """FIFO set of recently seen (src, seq): the duplicate and loop filter.

    Membership is the dict's own ``in``, so testing a duplicate costs no
    Python-level call; insert() adds a key and evicts the oldest one.  A
    node also keeps its finished reassemblies, (src, tag), in one.
    """

    __slots__ = ("capacity",)

    def __init__(self, capacity: int = CACHE_CAPACITY):
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        super().__init__()
        self.capacity = capacity

    def insert(self, key) -> None:
        self[key] = None
        if len(self) > self.capacity:
            self.popitem(last=False)


class RssiObserver:
    """Sliding-window minimum of overheard RSSI, kept per primary channel."""

    __slots__ = ("_windows",)

    def __init__(self, window: int):
        self._windows = {ch: deque(maxlen=window) for ch in (37, 38, 39)}

    def observe(self, channel: int, rssi_dbm: float) -> None:
        self._windows[channel].append(rssi_dbm)

    def channel_minima(self) -> dict:
        return {ch: min(w) for ch, w in self._windows.items() if w}

    def floor_dbm(self) -> float | None:
        """Min across the three per-channel minima; None until all have samples."""
        minima = self.channel_minima()
        if len(minima) < 3:
            return None
        return min(minima.values())


def controlled_power_dbm(cfg: ScenarioConfig, observer: RssiObserver) -> float:
    """Transmit power for the next advertising event.

    The dB form of the control law, with tx_power_dbm as p_max:
    p_max - p_r + zeta_th + margin, clamped to [floor, p_max].  The gate
    stays closed (full power) until every primary channel has contributed
    at least one sample.
    """
    p_max = cfg.tx_power_dbm
    p_r = observer.floor_dbm()
    if p_r is None:
        return p_max
    raw = p_max - p_r + cfg.power_control_zeta_th_dbm + cfg.power_control_margin_db
    return min(p_max, max(cfg.power_control_floor_dbm, raw))


class _AdvJob:
    """One PDU on the advertiser: events left, next due time, and its on_done callback."""

    __slots__ = ("pdu", "events_left", "due", "order", "on_done")

    def __init__(self, pdu, events_left, due, order, on_done):
        self.pdu = pdu
        self.events_left = events_left
        self.due = due
        self.order = order
        self.on_done = on_done


class _Publication:
    __slots__ = ("app_msg_id", "dst", "payload", "send_time",
                 "retries", "retry_timer", "active_tag", "outstanding")

    def __init__(self, app_msg_id, dst, payload, send_time):
        self.app_msg_id = app_msg_id
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        self.retries = 0
        self.retry_timer = None
        self.active_tag = None
        self.outstanding = 0   # unsegmented copies queued but not fully aired

    def copy_aired(self) -> None:
        self.outstanding -= 1


class _TxAttempt:
    __slots__ = ("chunks", "dst", "acked", "rounds", "timer", "app_msg_id",
                 "outstanding")

    def __init__(self, chunks, dst, app_msg_id):
        self.chunks = chunks
        self.dst = dst
        self.acked = set()
        self.rounds = 0
        self.timer = None
        self.app_msg_id = app_msg_id
        self.outstanding = 0   # segment jobs of the current round still queued


class _RxBuf:
    __slots__ = ("count", "got", "timer", "idle", "kind", "app_msg_id", "dst")

    def __init__(self, count, kind, app_msg_id, dst):
        self.count = count
        self.got = {}
        self.timer = None
        self.idle = 0
        self.kind = kind
        self.app_msg_id = app_msg_id
        self.dst = dst


class Node:
    """One mesh node bound to the shared engine and radio medium.

    cfg is the run's scenario, read as it stands; the four times the node
    schedules with are converted to µs once, here.
    """

    __slots__ = ("node_id", "address", "cfg", "relay_enabled", "adv_interval_us",
                 "adv_delay_max_us", "retry_interval_us", "guard_us", "engine",
                 "medium", "rng", "collector", "directory", "groups",
                 "subscriptions", "_cache", "_seq", "_tag", "_adv_heap",
                 "_adv_order", "_in_service", "_wakeup", "_relay_backlog",
                 "relay_drops", "_pubs", "_tx_attempts", "_rx_bufs", "_rx_done",
                 "observer")

    def __init__(self, node_id, address: int, cfg: ScenarioConfig,
                 relay_enabled: bool, engine: Engine, medium: Medium,
                 proto_rng: RandomSource, chan_rng: RandomSource,
                 collector, directory: dict, groups: dict):
        self.node_id = node_id
        self.address = address
        self.cfg = cfg
        self.relay_enabled = relay_enabled
        self.adv_interval_us = ms_to_us(cfg.adv_interval_ms)
        self.adv_delay_max_us = ms_to_us(cfg.adv_delay_max_ms)
        self.retry_interval_us = ms_to_us(cfg.retry_interval_ms)
        self.guard_us = s_to_us(cfg.guard_s)
        self.engine = engine
        self.medium = medium
        self.rng = proto_rng
        self.collector = collector
        self.directory = directory       # unicast address value -> node id
        self.groups = groups             # group address value -> tuple of node ids
        self.subscriptions: set[int] = set()
        self._cache = NetworkCache()
        self._seq = 0
        self._tag = 0
        # advertiser: a heap of (due, enqueue order, job) for every job not
        # on the air.  While an event is in progress _in_service is set and
        # nothing else starts; while the radio is idle with jobs waiting,
        # exactly one wakeup is pending at the earliest due time, held as
        # (due, engine handle)
        self._adv_heap: list = []
        self._adv_order = 0
        self._in_service = False
        self._wakeup = None
        self._relay_backlog = 0
        self.relay_drops = 0
        self._pubs: dict = {}
        self._tx_attempts: dict = {}
        self._rx_bufs: dict = {}
        # a late segment of a message aged out of here is reassembled and
        # delivered again
        self._rx_done = NetworkCache(RX_DONE_CAPACITY)
        self.observer = RssiObserver(cfg.power_control_window) \
            if cfg.power_control else None
        medium.register(node_id, chan_rng, self._on_frame,
                        self.observer.observe if self.observer else None)

    # ------------------------------------------------------------------ access
    def publish(self, dst: int, payload: bytes, app_msg_id: int) -> int:
        """Originate one application message; returns its correlation id.

        Only a unicast dst is acknowledged and retried.
        """
        if UNICAST_MIN <= dst <= UNICAST_MAX and dst in self.directory:
            destinations = (self.directory[dst],)
        elif GROUP_MIN <= dst <= GROUP_MAX and dst in self.groups:
            destinations = tuple(self.groups[dst])
        else:
            raise ConfigError(f"no node or group at address {dst!r}")
        now = self.engine.now
        self.collector.on_send(app_msg_id, self.node_id, destinations, now)
        pub = _Publication(app_msg_id, dst, payload, now)
        self._send_copy(pub)
        if dst <= UNICAST_MAX:
            # only an acknowledged publication is looked up again
            self._pubs[app_msg_id] = pub
            pub.retry_timer = self.engine.schedule_after(
                self.retry_interval_us, self._retry_fire, pub)
        return app_msg_id

    def _send_copy(self, pub: _Publication) -> None:
        limit = EXT_UNSEGMENTED_MAX_OCTETS if self.cfg.extended \
            else UNSEGMENTED_MAX_OCTETS
        events = self.cfg.n_adv_events_source if pub.dst <= UNICAST_MAX \
            else GROUP_ADV_EVENTS
        if len(pub.payload) <= limit:
            pub.outstanding += 1
            self._enqueue(self._make_pdu(pub.dst, pub.payload, pub.app_msg_id),
                          events, pub.copy_aired)
            return
        chunks = segment_payload(pub.payload, extended=self.cfg.extended)
        tag = self._tag
        self._tag += 1
        attempt = None
        if pub.dst <= UNICAST_MAX:
            attempt = _TxAttempt(chunks, pub.dst, pub.app_msg_id)
            self._tx_attempts[tag] = attempt
            pub.active_tag = tag
        self._queue_segments(pub.dst, chunks, pub.app_msg_id, tag, events, attempt)

    def _retry_fire(self, pub: _Publication) -> None:
        now = self.engine.now
        if now - pub.send_time >= self.guard_us:
            del self._pubs[pub.app_msg_id]
            self.collector.flag_guard(pub.app_msg_id)
            return
        if self.cfg.retry_cap and pub.retries >= self.cfg.retry_cap:
            del self._pubs[pub.app_msg_id]
            return
        if pub.active_tag in self._tx_attempts or pub.outstanding > 0:
            # let the queued copy air before republishing; stacking copies in
            # a congested advertiser only feeds the backlog
            pub.retry_timer = self.engine.schedule_after(
                self.retry_interval_us, self._retry_fire, pub)
            return
        pub.retries += 1
        self.collector.on_retransmission(pub.app_msg_id)
        self._send_copy(pub)
        pub.retry_timer = self.engine.schedule_after(
            self.retry_interval_us, self._retry_fire, pub)

    def _access_deliver(self, src: int, kind: str, payload: bytes,
                        app_msg_id: int) -> None:
        if kind == "data":
            self.collector.on_delivery(app_msg_id, self.node_id, self.engine.now)
            if src != self.address:
                ack = self._make_pdu(src, bytes(APP_ACK_OCTETS),
                                     app_msg_id, kind="app_ack")
                self._enqueue(ack, self.cfg.n_adv_events_source)
        elif kind == "app_ack":
            self.collector.on_ack(app_msg_id, self.directory[src], self.engine.now)
            pub = self._pubs.pop(app_msg_id, None)
            if pub is not None:
                Engine.cancel(pub.retry_timer)

    # ----------------------------------------------------------------- network
    def _make_pdu(self, dst, payload, app_msg_id, kind="data", seg=None,
                  ack_info=None) -> MeshPdu:
        seq = self._seq
        self._seq += 1
        return MeshPdu(self.address, dst, seq, self.cfg.default_ttl, payload,
                       app_msg_id, kind=kind, seg=seg, ack_info=ack_info)

    def receive_network_pdu(self, pdu: MeshPdu) -> None:
        key = (pdu.src, pdu.seq)
        cache = self._cache
        if key in cache:
            return
        cache.insert(key)
        # subscriptions holds group addresses only, so this test is exact
        dst = pdu.dst
        if dst == self.address or dst in self.subscriptions:
            self._transport_receive(pdu)
        if (self.relay_enabled and pdu.ttl >= 2
                and pdu.src != self.address):
            # relay copies come from a finite buffer pool; when it is
            # exhausted the copy is shed and neighbours with room cover.
            # without the cap a loaded mesh accumulates backlog without bound
            if self._relay_backlog >= self.cfg.relay_buffer_cap:
                self.relay_drops += 1
                return
            self._relay_backlog += 1
            # a relay copy, like a local PDU, starts as soon as the radio
            # frees; neighbours that caught the same frame may air their
            # first events together, and the fresh advDelay of each later
            # event pulls them out of step
            self._enqueue(pdu.relayed_copy(), self.cfg.n_adv_events_relay,
                          self._relay_aired)

    def _relay_aired(self) -> None:
        self._relay_backlog -= 1

    # --------------------------------------------------------------- transport
    def _transport_receive(self, pdu: MeshPdu) -> None:
        if pdu.kind == "seg_ack":
            self._on_block_ack(pdu)
        elif pdu.seg is None:
            self._access_deliver(pdu.src, pdu.kind, pdu.payload, pdu.app_msg_id)
        else:
            self._reassemble(pdu)

    def _reassemble(self, pdu: MeshPdu) -> None:
        idx, count, tag = pdu.seg
        key = (pdu.src, tag)
        if key in self._rx_done:
            if pdu.dst <= UNICAST_MAX:
                self._send_block_ack(pdu.src, tag, range(count), pdu.app_msg_id)
            return
        buf = self._rx_bufs.get(key)
        if buf is None:
            buf = _RxBuf(count, pdu.kind, pdu.app_msg_id, pdu.dst)
            self._rx_bufs[key] = buf
            buf.timer = self.engine.schedule_after(
                REASSEMBLY_TIMEOUT_US, self._reassembly_timeout, key)
        if idx in buf.got:
            return
        buf.got[idx] = pdu.payload
        buf.idle = 0
        if len(buf.got) == buf.count:
            Engine.cancel(buf.timer)
            del self._rx_bufs[key]
            self._rx_done.insert(key)
            payload = b"".join(buf.got[i] for i in range(count))
            if pdu.dst <= UNICAST_MAX:
                self._send_block_ack(pdu.src, tag, range(count), pdu.app_msg_id)
            self._access_deliver(pdu.src, buf.kind, payload, buf.app_msg_id)
        elif idx == count - 1 and pdu.dst <= UNICAST_MAX:
            # the train has passed with gaps; report them without waiting
            # for the timer
            self._send_block_ack(pdu.src, tag, buf.got.keys(), pdu.app_msg_id)

    def _reassembly_timeout(self, key) -> None:
        buf = self._rx_bufs[key]
        buf.idle += 1
        if buf.idle >= REASSEMBLY_IDLE_ROUNDS:
            del self._rx_bufs[key]
            return
        if buf.dst <= UNICAST_MAX:
            src, tag = key
            self._send_block_ack(src, tag, buf.got.keys(), buf.app_msg_id)
        buf.timer = self.engine.schedule_after(
            REASSEMBLY_TIMEOUT_US, self._reassembly_timeout, key)

    def _send_block_ack(self, dst, tag, received, app_msg_id) -> None:
        pdu = self._make_pdu(dst, b"", app_msg_id, kind="seg_ack",
                             ack_info=(tag, frozenset(received)))
        self._enqueue(pdu, self.cfg.n_adv_events_source)

    def _on_block_ack(self, pdu: MeshPdu) -> None:
        tag, received = pdu.ack_info
        attempt = self._tx_attempts.get(tag)
        if attempt is None:
            return
        attempt.acked |= received
        if len(attempt.acked) == len(attempt.chunks):
            del self._tx_attempts[tag]
            if attempt.timer is not None:
                Engine.cancel(attempt.timer)
            return
        if attempt.outstanding == 0:
            # a partial ack while the round is still queued must not spawn
            # another round on top of copies that have not aired yet
            self._transport_round(tag, attempt)

    def _transport_round(self, tag, attempt: _TxAttempt) -> None:
        if attempt.timer is not None:
            Engine.cancel(attempt.timer)
            attempt.timer = None
        if attempt.rounds >= TRANSPORT_RETRY_ROUNDS:
            del self._tx_attempts[tag]
            log.debug("%s: transport attempt %d abandoned", self.node_id, tag)
            return
        attempt.rounds += 1
        self.collector.on_retransmission(attempt.app_msg_id)
        self._queue_segments(attempt.dst, attempt.chunks, attempt.app_msg_id,
                             tag, self.cfg.n_adv_events_source, attempt)

    def _queue_segments(self, dst, chunks, app_msg_id, tag, events,
                        attempt: _TxAttempt | None) -> None:
        """Queue a segment train: one job per chunk, each PDU seg=(i, count, tag).

        The train airs as repeated whole-message cycles: every job is due at
        once, so the segments go out back to back in segment order and
        repeat about one advertising interval later; receivers drop a
        repeat they already caught through the cache.  An acknowledged
        train has an attempt: the chunks it has acked are left out, and it
        counts the jobs queued until each has aired.
        """
        on_done = None
        todo = range(len(chunks))
        if attempt is not None:
            on_done = partial(self._segment_aired, tag, attempt)
            todo = [i for i in todo if i not in attempt.acked]
            attempt.outstanding = len(todo)
        for i in todo:
            self._enqueue(self._make_pdu(dst, chunks[i], app_msg_id,
                                         seg=(i, len(chunks), tag)),
                          events, on_done)

    def _segment_aired(self, tag, attempt: _TxAttempt) -> None:
        # an attempt leaves _tx_attempts when it ends, and tags are never
        # reused
        if tag not in self._tx_attempts:
            return
        attempt.outstanding -= 1
        if attempt.outstanding == 0:
            # the round timer is armed once the train has left the advertiser
            attempt.timer = self.engine.schedule_after(
                SEG_ROUND_BASE_US + SEG_ROUND_PER_TTL_US * self.cfg.default_ttl,
                self._transport_round, tag, attempt)

    # --------------------------------------------------------------- advertiser
    def _enqueue(self, pdu: MeshPdu, n_events: int, on_done=None) -> None:
        """Queue pdu for n_events advertising events, due at once.

        on_done, when given, runs after the job's last event.
        """
        now = self.engine.now
        order = self._adv_order
        self._adv_order += 1
        heapq.heappush(self._adv_heap,
                       (now, order, _AdvJob(pdu, n_events, now, order, on_done)))
        self._maybe_schedule()

    def _maybe_schedule(self) -> None:
        """Keep the idle radio's one wakeup at the earliest due time."""
        if self._in_service or not self._adv_heap:
            return
        due = self._adv_heap[0][0]
        if self._wakeup is not None:
            if due >= self._wakeup[0]:
                return
            Engine.cancel(self._wakeup[1])
        self._wakeup = (due, self.engine.schedule(due, self._event_fire))

    def _event_fire(self) -> None:
        self._wakeup = None
        self._in_service = True
        self._start_event(heapq.heappop(self._adv_heap)[2])

    def _start_event(self, job: _AdvJob) -> None:
        """Build the event's frames, all at its one power, and register them.

        A legacy event is the PDU on 37, 38 and 39, one gap apart; an
        extended event is three indications laid out the same way, then the
        PDU on a random secondary channel EXT_AUX_OFFSET_US after them.
        Every frame carries the PDU as its payload.  An extended event's
        frames share one fresh eligible set, which every node that catches
        one of its indications joins, and the aux frame reaches only that
        set: the indications resolve before it starts.  The whole event is
        registered with the medium in one call and counted with the
        collector in one call, both now and in frame order, and the event
        ends one gap after its last frame.  The frames are built with the
        unchecked ChannelFrame constructor: the channels here are valid by
        construction, and the airtime is computed once per event.
        """
        now = self.engine.now
        rng = self.rng
        if job.events_left > 1:
            # uniform(0, m) is 0 + m * random(): the same value, one call less
            job.due = (now + self.adv_interval_us
                       + int(self.adv_delay_max_us * rng.random()))
        observer = self.observer
        power = self.cfg.tx_power_dbm if observer is None \
            else controlled_power_dbm(self.cfg, observer)
        pdu = job.pdu
        if self.cfg.extended:
            kind, airtime, eligible = EXT_IND, EXT_INDICATION_AIRTIME_US, set()
        else:
            kind, airtime, eligible = ADV, airtime_us(pdu.octets, PHY_1M), None
        node_id = self.node_id
        gap = INTER_CHANNEL_GAP_US
        t38 = now + airtime + gap
        t39 = t38 + airtime + gap
        end = t39 + airtime
        frames = (
            ChannelFrame(node_id, 37, PHY_1M, power, now, now + airtime, kind,
                         pdu, eligible),
            ChannelFrame(node_id, 38, PHY_1M, power, t38, t38 + airtime, kind,
                         pdu, eligible),
            ChannelFrame(node_id, 39, PHY_1M, power, t39, end, kind, pdu,
                         eligible))
        if kind is EXT_IND:
            start = end + EXT_AUX_OFFSET_US
            end = start + airtime_us(pdu.octets, PHY_2M)
            frames += (ChannelFrame(node_id, rng.randrange(37), PHY_2M, power,
                                    start, end, AUX, pdu, eligible),)
        self.medium.begin_transmission(*frames)
        self.collector.on_frame(pdu.app_msg_id, power, len(frames))
        self.engine.schedule(end + gap, self._finish_event, job)

    def _finish_event(self, job: _AdvJob) -> None:
        heap = self._adv_heap
        job.events_left -= 1
        if job.events_left:
            heapq.heappush(heap, (job.due, job.order, job))
        elif job.on_done is not None:
            job.on_done()
        if heap and heap[0][0] <= self.engine.now:
            # the radio is free and a job is already due: start it here
            # rather than through a zero-delay wakeup
            self._start_event(heapq.heappop(heap)[2])
        else:
            self._in_service = False
            self._maybe_schedule()

    # ------------------------------------------------------------------- radio
    def _on_frame(self, frame: ChannelFrame, rssi: float) -> None:
        self.receive_network_pdu(frame.payload)
