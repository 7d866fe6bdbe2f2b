"""Shared radio medium: airtime, occupancy and reception resolution.

The medium is time-sliced by the event kernel, never threaded.  A frame is
registered at or before its start (a node registers all the frames of an
advertising event in one begin_transmission call when the event starts, and
one call is always one event of one transmitter) and resolved for every
candidate receiver in a single event at the frame's end.  Reception requires, in
order: the receiver's scanner tuned to the frame's channel for the whole
frame, no transmission of its own during the frame, received power at or
above the PHY's sensitivity, and a capture margin over every overlapping
frame on the same channel.  At most one frame of an overlap group can
qualify.

Every node scans with the medium's one scan config, so the scanner rule is
decided once per frame, in Medium.begin_transmission: a primary-channel
frame that no scanner catches whole is not listened to by any candidate and
gets no resolution event, but stays registered and still interferes.  AUX
frames skip the scanner rule; membership of frame.eligible replaces it.
Medium._resolve_all is the one place the other rules are decided, the
extended-advertising one included: an extended event's indications and its
aux frame share one eligible set, and a receiver that catches an
indication joins that set instead of getting a delivery callback, so the
aux frame, resolved after them, reaches only the receivers that caught one.

Shadowing is drawn lazily, once per (frame, receiver), from the receiver's
own channel stream, and cached on the frame: one generator step u becomes
sigma times the standard normal quantile of u.  The cache is a list with
one slot per row of the loss table, addressed by the receiver's position
there; it is made when the frame is resolved, or found overlapping a
resolved frame on its channel, whichever comes first, so most frames that
no scanner catches never get one.  An RSSI already in a frame's cache is
used as it is, with no draw.  The draws of one stream are therefore made
in resolution order: for each resolved frame, in candidate order, the
frame's own RSSI and then, until one fails capture, each overlapping
frame's RSSI not yet cached.  Every digest depends on that order; a change
to the loop must keep it, or alter results on purpose.

One list of frames in registration order records what is on the air; half
duplex and capture both read it.  A frame awaiting resolution at time now
ends at or after now, so it started no earlier than now minus the longest
airtime registered so far, and no frame starts before its registration.  A
frame that ended more than that airtime before now can overlap neither it
nor any later frame, and each registration drops every such frame, wherever
it sits in the list: a frame registered early with a late end (an event's
last frame) holds back none registered after it.

The stack builds its frames with the ChannelFrame constructor, which
checks nothing; every other frame is built with ChannelFrame.checked, which
checks the channel against the kind and the octets.  The medium re-checks
neither.

Wire-format headers of the mesh stack are folded into the per-PHY frame
overhead, so a frame's pdu_octets is just its payload size.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .engine import Engine, RandomSource, normal_quantile
from .errors import ConfigError

PRIMARY_CHANNELS = (37, 38, 39)
ALL_CHANNELS = tuple(range(40))


@dataclass(frozen=True)
class PhyMode:
    name: str
    bit_rate: int          # bits/s
    overhead_octets: int   # preamble+access address+header+CRC equivalent
    sensitivity_dbm: float


PHY_1M = PhyMode("1M", 1_000_000, 10, -90.0)
PHY_2M = PhyMode("2M", 2_000_000, 11, -85.0)


def airtime_us(pdu_octets: int, phy: PhyMode) -> int:
    """On-air time in µs of a PDU with the PHY's fixed per-frame overhead."""
    if pdu_octets < 1:
        raise ConfigError(f"airtime of empty frame ({pdu_octets} octets)")
    return (phy.overhead_octets + pdu_octets) * 8 * 1_000_000 // phy.bit_rate


class FrameKind(Enum):
    ADV = "adv"          # legacy advertising PDU, primary channels only
    EXT_IND = "ext_ind"  # extended-advertising indication, primary channels only
    AUX = "aux"          # auxiliary data frame on a secondary channel
    NOISE = "noise"      # background interferer, any channel


# the members bound once: per-frame code compares kinds by identity against
# these globals, as reading FrameKind.ADV goes through the enum class each time
ADV, EXT_IND, AUX, NOISE = FrameKind.ADV, FrameKind.EXT_IND, FrameKind.AUX, FrameKind.NOISE


class Outcome(Enum):
    DELIVERED = "delivered"
    NOT_LISTENING = "not-listening"
    BELOW_SENSITIVITY = "below-sensitivity"
    COLLISION = "collision"


class ChannelFrame:
    """One on-air frame, from start to end µs.

    payload is what a delivery hands on (None for noise).  eligible is
    the receiver-id set an extended event's frames share, None otherwise.

    The constructor checks nothing and takes the end as given: it is the
    stack's path, whose channels are 37, 38, 39 and randrange(37) and whose
    airtime it computes once per event.  Every other frame is built with
    ChannelFrame.checked, the one place the channel is checked against the
    kind and the end is start + airtime_us(octets, phy).

    rssi_cache is None until the medium first needs an RSSI of the frame,
    then a list holding, at a receiver's loss-table position, the dBm that
    receiver heard the frame at, or None where it has not been drawn.
    """

    __slots__ = (
        "transmitter", "channel", "phy", "power_dbm", "start", "end",
        "kind", "payload", "eligible", "rssi_cache",
    )

    def __init__(self, transmitter, channel, phy, power_dbm, start, end,
                 kind, payload, eligible):
        self.transmitter = transmitter
        self.channel = channel
        self.phy = phy
        self.power_dbm = power_dbm
        self.start = start
        self.end = end
        self.kind = kind
        self.payload = payload
        self.eligible = eligible
        self.rssi_cache = None

    @classmethod
    def checked(cls, transmitter, channel, phy, power_dbm, start, octets,
                kind=ADV, payload=None, eligible=None) -> "ChannelFrame":
        """The frame of octets starting at start, its channel checked against its kind."""
        if kind is ADV or kind is EXT_IND:
            if channel not in PRIMARY_CHANNELS:
                raise ConfigError(f"{kind.value} frame on channel {channel}: primary channels only")
        elif kind is AUX:
            if not 0 <= channel <= 36:
                raise ConfigError(f"aux frame on channel {channel}: secondary channels only")
        elif channel not in ALL_CHANNELS:
            raise ConfigError(f"frame on unknown channel {channel}")
        return cls(transmitter, channel, phy, power_dbm, start,
                   start + airtime_us(octets, phy), kind, payload, eligible)


def _scanner_catches(scan_interval_us: int, scan_window_us: int,
                     frame: ChannelFrame) -> bool:
    """True when a scanner with this config is tuned to the frame's channel for all of it."""
    k = frame.start // scan_interval_us
    return (37 + k % 3 == frame.channel
            and frame.end <= k * scan_interval_us + scan_window_us)


class Medium:
    """Channel occupancy registry plus the reception-resolution rules.

    `loss` is an (index, table) pair, as Topology.loss_table() returns:
    `table[index[tx]][index[rx]]` is the loss in dB from tx to rx, and inf
    where tx is rx.  Both are kept as given, not copied, so the caller's
    table must be symmetric and stay unchanged.  Every registered receiver
    scans with the one config given here.
    """

    def __init__(self, engine: Engine, loss, scan_interval_us: int,
                 scan_window_us: int, *, shadowing_sigma_db: float = 4.0,
                 capture_db: float = 10.0):
        if capture_db <= 0:
            raise ConfigError(f"capture threshold must be positive, got {capture_db}")
        if shadowing_sigma_db < 0:
            raise ConfigError(f"negative shadowing sigma {shadowing_sigma_db}")
        if not math.isfinite(shadowing_sigma_db):
            raise ConfigError(f"non-finite shadowing sigma {shadowing_sigma_db}")
        self.engine = engine
        self.index, self.table = loss
        self.shadowing_sigma_db = shadowing_sigma_db
        self.capture_db = capture_db
        self._scan_interval_us = scan_interval_us
        self._scan_window_us = scan_window_us
        self._receivers: dict = {}      # rx -> (rx, on_frame, on_rssi, rand, j)
        self._on_air: list = []         # ChannelFrames in registration order
        self._tx_end: dict = {}         # registered node -> end of its last frame
        self._candidates: dict = {}
        self._max_airtime_us = 0
        self._not_listening = self._below_sensitivity = 0
        self._collision = self._delivered = 0

    @property
    def outcome_counts(self) -> dict:
        """Reception outcomes so far, {Outcome: count}; a fresh dict per read."""
        return {Outcome.DELIVERED: self._delivered,
                Outcome.NOT_LISTENING: self._not_listening,
                Outcome.BELOW_SENSITIVITY: self._below_sensitivity,
                Outcome.COLLISION: self._collision}

    def register(self, node_id, chan_rng: RandomSource, on_frame, on_rssi=None) -> None:
        if node_id in self._receivers:
            raise ConfigError(f"duplicate radio registration for {node_id!r}")
        self._receivers[node_id] = (node_id, on_frame, on_rssi, chan_rng.random,
                                    self.index[node_id])
        self._tx_end[node_id] = -math.inf

    def finalize(self, max_power_dbm: float) -> None:
        """Precompute each transmitter's candidate receivers.

        register() stores every receiver as one tuple (rx, on_frame,
        on_rssi, rand, j): rand is the bound generator step of its channel
        stream and j its position in the loss table.  A transmitter's
        candidates are a tuple of references to the tuples of the
        receivers, in registration order, whose mean RSSI at max_power_dbm
        can plausibly clear the lower of the two PHYs' sensitivities
        (6-sigma slack); the inf loss to itself never does.
        """
        floor = min(PHY_1M.sensitivity_dbm, PHY_2M.sensitivity_dbm)
        threshold = floor - 6.0 * self.shadowing_sigma_db
        table = self.table
        state = list(self._receivers.values())
        for tx, _, _, _, j in state:
            row = table[j]
            self._candidates[tx] = tuple([
                s for s in state if max_power_dbm - row[s[4]] >= threshold])

    def begin_transmission(self, *frames: ChannelFrame) -> None:
        """Register one advertising event, its frames in airing order.

        This is the one way onto the air, and one call is one event: a
        node passes all of an event's frames when the event starts, at or
        before each frame's own start, and a noise burst comes as one
        frame.  The transmitter, its last end and its candidates are
        looked up once per call, so frames of two transmitters raise, as
        does any frame that starts before the previous one of its
        transmitter ends (half duplex).  Overlap is decided from start
        and end alone, so a frame interferes and keeps its transmitter
        busy only while it is on the air.  The on-air record is pruned
        once and the frames appended.  A primary-channel frame that the
        scan config cannot catch whole is counted as not listening at
        every candidate, with no resolution event; it stays recorded, so
        it still interferes.  Every other frame but noise gets one
        resolution event at its end.  Frames are taken as built: their
        channels and airtimes were checked, if at all, by their builder.
        """
        engine = self.engine
        interval, window = self._scan_interval_us, self._scan_window_us
        tx = frames[0].transmitter
        last_end = self._tx_end.get(tx)   # None for a virtual interferer
        # the frames this call adds start at or after now, so the horizon
        # of the frames registered before it is the one that matters
        max_airtime = self._max_airtime_us
        horizon = engine.now - max_airtime
        uncaught = 0
        for frame in frames:
            if frame.transmitter != tx:
                raise AssertionError(
                    f"frames of {tx!r} and {frame.transmitter!r} registered as one event")
            start, end = frame.start, frame.end
            if end - start > max_airtime:
                max_airtime = end - start
            if last_end is not None:
                if start < last_end:
                    raise AssertionError(f"node {tx!r} already transmitting at t={start}")
                last_end = end
            kind = frame.kind
            if kind is NOISE:
                continue
            if kind is AUX or _scanner_catches(interval, window, frame):
                engine.schedule(end, self._resolve_all, frame)
            else:
                uncaught += 1
        self._max_airtime_us = max_airtime
        if last_end is not None:
            self._tx_end[tx] = last_end
        if uncaught:
            self._not_listening += uncaught * len(self._candidates[tx])
        on_air = [o for o in self._on_air if o.end >= horizon]
        on_air.extend(frames)
        self._on_air = on_air

    def _resolve_all(self, frame: ChannelFrame) -> None:
        """Decide the frame's outcome at every candidate receiver.

        begin_transmission has already applied the scanner rule.  A
        receiver needs, in order: membership of frame.eligible (AUX frames
        only), no transmission of its own during the frame, RSSI at or above
        the PHY's sensitivity, and a capture margin over every overlapping
        frame.  A receiver that catches an indication joins frame.eligible;
        any other caught frame goes to its on_frame.  One pass over the
        on-air record finds the transmitters busy during the frame and the
        same-channel overlaps, each with its cache and its loss row (None
        for noise, heard at its power).
        """
        candidates = self._candidates[frame.transmitter]
        eligible = frame.eligible
        if frame.kind is AUX:
            candidates = [c for c in candidates if c[0] in eligible]
        joining = eligible if frame.kind is EXT_IND else None
        index, table = self.index, self.table
        start, end, channel = frame.start, frame.end, frame.channel
        busy = set()
        overlaps = []
        for o in self._on_air:
            if o.start < end and start < o.end and o is not frame:
                busy.add(o.transmitter)
                if o.channel == channel:
                    other_cache = o.rssi_cache
                    if other_cache is None:
                        other_cache = o.rssi_cache = [None] * len(table)
                    overlaps.append((other_cache, o.power_dbm, None if o.kind is NOISE
                                     else table[index[o.transmitter]]))
        row = table[index[frame.transmitter]]
        sigma = self.shadowing_sigma_db
        sens = frame.phy.sensitivity_dbm
        capture = self.capture_db
        power = frame.power_dbm
        cache = frame.rssi_cache
        if cache is None:
            cache = frame.rssi_cache = [None] * len(table)
        primary = channel >= 37
        # a shadow is normal_quantile(u, 0.0, sigma), which returns 0.0 + x *
        # sigma for the standard quantile x: sigma times x to the bit.  It is
        # undefined at sigma 0, where the shadow is 0.0
        n_nl = n_bs = n_col = n_del = 0
        for rx, on_frame, on_rssi, rand, j in candidates:
            if rx in busy:      # half duplex: rx transmitted during the frame
                n_nl += 1
                continue
            rssi = cache[j]
            if rssi is None:
                u = rand()
                if u <= 0.0:
                    u = 5e-324
                rssi = cache[j] = power - row[j] + (
                    normal_quantile(u, 0.0, sigma) if sigma else 0.0)
            if rssi < sens:
                n_bs += 1
                continue
            captured = True
            for other_cache, other_power, other_row in overlaps:
                other_rssi = other_cache[j]
                if other_rssi is None:
                    if other_row is None:
                        other_rssi = other_power
                    else:
                        u = rand()
                        if u <= 0.0:
                            u = 5e-324
                        other_rssi = other_power - other_row[j] + (
                            normal_quantile(u, 0.0, sigma) if sigma else 0.0)
                    other_cache[j] = other_rssi
                if rssi - other_rssi < capture:
                    captured = False
                    break
            if primary and on_rssi is not None:
                on_rssi(channel, rssi)
            if captured:
                n_del += 1
                if joining is None:
                    on_frame(frame, rssi)
                else:
                    joining.add(rx)
            else:
                n_col += 1
        self._not_listening += n_nl
        self._below_sensitivity += n_bs
        self._collision += n_col
        self._delivered += n_del
