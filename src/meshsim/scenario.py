"""Scenario documents: run configuration and traffic-schedule generation.

Format (UTF-8, line oriented, ``#`` comments)::

    meshsim-scenario v1
    pattern many-to-many(3)
    message_size_octets 11
    ...

One key per line, value tokens separated by whitespace.  Absent keys take
the defaults below.  ``--set key=value`` assignments replace the file's
value for that key before validation.

``pattern`` is ``one-to-many`` (a controller to its slaves) or
``many-to-many``, written ``many-to-many(N)`` for N senders.  ``mode`` is
``unicast`` (one send per destination, acknowledged and retried) or
``group`` (one send per iteration to a group address on a fixed event
budget, never retried; each receiver still acknowledges it), and
many-to-many is unicast only.  Each value has this one spelling.

The key table, ``_KEYS``, is derived from the ``ScenarioConfig`` fields at
import, so a new knob is one field line.

many-to-many draws fresh sender pairs each iteration, each pick uniform over
the ordered pairs at least ``MIN_PAIR_HOPS`` apart that touch no node picked
so far.  The pairs come from a ``topology.PairSpace``, which counts and
indexes them without listing them.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from itertools import count, repeat
from operator import add, itemgetter
from typing import NamedTuple

from .engine import RandomSource
from .errors import ConfigError
from .topology import PairSpace, Topology, document_lines

SCENARIO_HEADER = "meshsim-scenario v1"
GROUP_ADDRESS = 0xC000
MIN_PAIR_HOPS = 2
PAIR_DRAW_ATTEMPTS = 200
# bounds on what a run schedules before its first event, far above the
# largest bundled run: 1,400 sends, and about 32k noise bursts for mm3 at
# 200 bursts/s
MAX_SCHEDULED_SENDS = 100_000
MAX_NOISE_BURSTS = 1_000_000

# the scanner's idle time per interval when scan_window_ms is not given
SCAN_TURNAROUND_MS = 30.0
# document bounds from the Mesh Profile; stack.py takes them from here
MAX_TTL = 127
TRANSPORT_MAX_OCTETS = 380

PATTERNS = ("one-to-many", "many-to-many")
MODES = ("unicast", "group")
_MM_SUGAR = re.compile(r"^many-to-many\((\d+)\)$")


def ms_to_us(ms: float) -> int:
    """The simulator's integer µs for a scenario time in ms."""
    return round(ms * 1000)


def s_to_us(s: float) -> int:
    """The simulator's integer µs for a scenario time in s."""
    return round(s * 1_000_000)


# slots, as on stack.Node: every cfg.<field> read is a slot load, however
# many fields the scenario has
@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    pattern: str = "many-to-many"
    senders: int = 3
    mode: str = "unicast"
    message_size_octets: int = 11
    iterations: int = 100
    period_ms: float = 1000.0
    jitter_ms: float = 0.0
    controller: str | None = None
    slaves: tuple[str, ...] = ()
    adv_interval_ms: float = 20.0
    adv_delay_max_ms: float = 10.0
    scan_interval_ms: float = 2000.0
    scan_window_ms: float | None = None
    tx_power_dbm: float = 0.0
    n_adv_events_source: int = 3
    n_adv_events_relay: int = 2
    relay_buffer_cap: int = 5       # relay PDUs held at once; excess is dropped
    retry_interval_ms: float = 200.0
    retry_cap: int = 0              # 0 = retry until acknowledged (or guard)
    default_ttl: int = 7
    relay_fraction: float = 1.0
    extended: bool = False
    guard_s: float = 60.0
    power_control: bool = False
    power_control_zeta_th_dbm: float = field(
        default=-70.0, metadata={"key": "power_control.zeta_th_dbm"})
    power_control_margin_db: float = field(
        default=0.0, metadata={"key": "power_control.margin_db"})
    power_control_floor_dbm: float = field(
        default=-20.0, metadata={"key": "power_control.floor_dbm"})
    power_control_window: int = field(
        default=16, metadata={"key": "power_control.window"})
    interference_rate_per_s: float = 0.0
    interference_power_dbm: float = -60.0

    @property
    def scan_window_resolved_ms(self) -> float:
        """Explicit window, or the interval minus the scanner turnaround."""
        if self.scan_window_ms is not None:
            return self.scan_window_ms
        return self.scan_interval_ms - SCAN_TURNAROUND_MS

    def problems(self) -> list[str]:
        out: list[str] = []

        def check(ok: bool, msg: str) -> None:
            if not ok:
                out.append(msg)

        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float):
                check(math.isfinite(value), f"{f.name}: must be finite")
        check(self.pattern in PATTERNS,
              f"pattern: unknown pattern {self.pattern!r}")
        check(self.mode in MODES, f"mode: unknown mode {self.mode!r}")
        check(0 <= self.message_size_octets <= TRANSPORT_MAX_OCTETS,
              f"message_size_octets: {self.message_size_octets} outside "
              f"0..{TRANSPORT_MAX_OCTETS}")
        check(self.iterations >= 1, "iterations: must be >= 1")
        check(self.period_ms > 0, "period_ms: must be > 0")
        check(self.jitter_ms >= 0, "jitter_ms: must be >= 0")
        check(self.adv_interval_ms > 0, "adv_interval_ms: must be > 0")
        check(self.adv_delay_max_ms >= 0, "adv_delay_max_ms: must be >= 0")
        check(self.scan_interval_ms > 0, "scan_interval_ms: must be > 0")
        if self.scan_window_ms is not None:
            check(0 < self.scan_window_ms <= self.scan_interval_ms,
                  "scan_window_ms: must be in (0, scan_interval_ms]")
        else:
            check(self.scan_interval_ms > SCAN_TURNAROUND_MS,
                  f"scan_interval_ms: the {SCAN_TURNAROUND_MS:g} ms scanner "
                  "turnaround leaves no scan window (set scan_window_ms)")
        check(self.n_adv_events_source >= 1, "n_adv_events_source: must be >= 1")
        check(self.n_adv_events_relay >= 1, "n_adv_events_relay: must be >= 1")
        check(self.relay_buffer_cap >= 1, "relay_buffer_cap: must be >= 1")
        check(self.retry_interval_ms > 0, "retry_interval_ms: must be > 0")
        check(self.retry_cap >= 0, "retry_cap: must be >= 0")
        check(1 <= self.default_ttl <= MAX_TTL,
              f"default_ttl: outside 1..{MAX_TTL}")
        check(0 < self.relay_fraction <= 1.0,
              "relay_fraction: must be in (0, 1]")
        check(self.guard_s > 0, "guard_s: must be > 0")
        check(self.power_control_window >= 1,
              "power_control.window: must be >= 1")
        if self.power_control:
            check(self.power_control_floor_dbm <= self.tx_power_dbm,
                  "power_control.floor_dbm: above tx_power_dbm")
        check(self.interference_rate_per_s >= 0,
              "interference_rate_per_s: must be >= 0")
        # a positive time that rounds to 0 µs stalls, divides by zero or
        # collapses a schedule onto one instant
        for name, value, to_us in (
                ("period_ms", self.period_ms, ms_to_us),
                ("jitter_ms", self.jitter_ms, ms_to_us),
                ("adv_interval_ms", self.adv_interval_ms, ms_to_us),
                ("scan_interval_ms", self.scan_interval_ms, ms_to_us),
                ("scan_window_ms", self.scan_window_resolved_ms, ms_to_us),
                ("retry_interval_ms", self.retry_interval_ms, ms_to_us),
                ("guard_s", self.guard_s, s_to_us)):
            check(not 0 < value < math.inf or to_us(value) >= 1,
                  f"{name}: {value} rounds to less than 1 µs")

        if self.pattern == "one-to-many":
            check(self.controller is not None,
                  f"controller: required for pattern {self.pattern}")
            check(len(self.slaves) >= 1,
                  f"slaves: required for pattern {self.pattern}")
            check(len(set(self.slaves)) == len(self.slaves),
                  "slaves: duplicate entries")
            if self.controller is not None:
                check(self.controller not in self.slaves,
                      "slaves: controller listed as its own slave")
            per_iteration = 1 if self.mode == "group" else len(self.slaves)
        else:
            check(self.senders >= 1, "senders: must be >= 1")
            check(self.controller is None and not self.slaves,
                  "controller/slaves: only apply to one-to-many")
            check(self.mode == "unicast",
                  "mode: many-to-many supports unicast only")
            per_iteration = self.senders
        check(self.iterations * per_iteration <= MAX_SCHEDULED_SENDS,
              f"iterations: schedules more than {MAX_SCHEDULED_SENDS} sends")
        # a larger count cannot pass the checks above, and it would
        # overflow the float span below
        if 1 <= self.iterations <= MAX_SCHEDULED_SENDS:
            span_s = ((self.iterations - 1) * self.period_ms
                      + self.jitter_ms) / 1000 + self.guard_s
            check(self.interference_rate_per_s * span_s <= MAX_NOISE_BURSTS,
                  "interference_rate_per_s: expects more than "
                  f"{MAX_NOISE_BURSTS} noise bursts")
        return out

    def __post_init__(self) -> None:
        # once, at construction; unpickling restores fields without it
        probs = self.problems()
        if probs:
            raise ConfigError("invalid scenario:\n  " + "\n  ".join(probs))

    def workload_signature(self) -> tuple:
        """Fields that must match for two runs to be comparable."""
        return (self.pattern, self.senders, self.mode,
                self.message_size_octets, self.iterations,
                self.controller, self.slaves)


_RawMap = dict[str, tuple[tuple[str, ...], str]]


def _parse_bool(token: str) -> bool:
    if token not in ("on", "off"):
        raise ValueError(f"expected on/off, got {token!r}")
    return token == "on"


def _parse_int(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"expected integer, got {token!r}") from None


def _parse_float(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"expected number, got {token!r}") from None


# field type -> parser of one value token; a tuple field takes every token
_PARSERS = {"bool": _parse_bool, "int": _parse_int, "float": _parse_float,
            "float | None": _parse_float, "str": str, "str | None": str,
            "tuple[str, ...]": str}

# file key -> (attr, parser, takes every token), one per ScenarioConfig
# field; a field type without a parser fails here, at import
_KEYS = {
    f.metadata.get("key", f.name):
        (f.name, _PARSERS[f.type], f.type.startswith("tuple["))
    for f in dataclasses.fields(ScenarioConfig)}


def read_scenario_document(text: str) -> _RawMap:
    raw: _RawMap = {}
    errors: list[str] = []
    for no, tok in document_lines(text, SCENARIO_HEADER):
        if len(tok) < 2:
            errors.append(f"line {no}: key {tok[0]!r} has no value")
            continue
        if tok[0] in raw:
            errors.append(f"line {no}: duplicate key {tok[0]!r}")
            continue
        raw[tok[0]] = (tuple(tok[1:]), f"line {no}")
    if errors:
        raise ConfigError("invalid scenario:\n  " + "\n  ".join(errors))
    return raw


def apply_overrides(raw: _RawMap, assignments) -> _RawMap:
    """Apply ``key=value`` assignments on top of a parsed document."""
    out = dict(raw)
    for a in assignments:
        key, sep, value = a.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"override {a!r} is not of the form key=value")
        out[key] = (tuple(value.split()), f"override {key}")
    return out


def scenario_from_raw(raw: _RawMap) -> ScenarioConfig:
    errors: list[str] = []
    kwargs: dict = {}
    for key, (tokens, where) in raw.items():
        spec = _KEYS.get(key)
        if spec is None:
            errors.append(f"{where}: unknown key {key!r}")
            continue
        attr, parse, many = spec
        if not many and len(tokens) != 1:
            errors.append(f"{where}: {key} takes one value")
            continue
        try:
            values = tuple(map(parse, tokens))
            kwargs[attr] = values if many else values[0]
        except ValueError as exc:
            errors.append(f"{where}: {key}: {exc}")

    pattern = kwargs.get("pattern")
    if isinstance(pattern, str):
        m = _MM_SUGAR.match(pattern)
        if m:
            if "senders" in kwargs:
                errors.append(
                    "senders: given both as a key and inside the pattern")
            kwargs["pattern"] = "many-to-many"
            try:
                kwargs["senders"] = _parse_int(m[1])
            except ValueError as exc:   # past int()'s digit limit
                errors.append(f"pattern: {exc}")

    if errors:
        raise ConfigError("invalid scenario:\n  " + "\n  ".join(errors))
    return ScenarioConfig(**kwargs)


def load_scenario(text: str, overrides=()) -> ScenarioConfig:
    return scenario_from_raw(apply_overrides(read_scenario_document(text), overrides))


def scenario_to_document(cfg: ScenarioConfig) -> str:
    """Render a document that loads back to an equal config."""
    lines = [SCENARIO_HEADER]
    for key, (attr, _parse, _many) in _KEYS.items():
        value = getattr(cfg, attr)
        if value is None or value == ():
            continue
        if attr == "pattern" and value == "many-to-many":
            lines.append(f"pattern many-to-many({cfg.senders})")
            continue
        if attr == "senders" and cfg.pattern == "many-to-many":
            continue
        if isinstance(value, bool):
            value = "on" if value else "off"
        elif isinstance(value, tuple):
            value = " ".join(value)
        lines.append(f"{key} {value}")
    return "\n".join(lines) + "\n"


class ScheduledSend(NamedTuple):
    """One application message, published by source at time_us.

    A plain tuple underneath: it compares equal to the tuple of its five
    fields, in this order.  run_experiment passes a send's fields, in
    this order, as the arguments of the event that publishes it.
    """

    app_msg_id: int
    time_us: int
    source: str
    dst_node: str | None    # unicast destination
    group: int | None       # group address value


def _draw_disjoint_pairs(space: PairSpace, k: int, rng: RandomSource):
    """k pairs of `space` drawn one at a time, none sharing a node.

    Each pick is uniform over the pairs that touch no node picked so far:
    it draws an index below their count and takes that free pair.
    """
    for _ in range(PAIR_DRAW_ATTEMPTS):
        space.clear()
        chosen: list[tuple[str, str]] = []
        for _ in range(k):
            n = space.free
            if n == 0:
                break
            chosen.append(space.take(min(int(rng.uniform(0, n)), n - 1)))
        if len(chosen) == k:
            return chosen
    raise ConfigError(
        f"could not draw {k} disjoint sender pairs with >= {MIN_PAIR_HOPS} "
        f"hops after {PAIR_DRAW_ATTEMPTS} attempts")


def build_traffic(topology: Topology, cfg: ScenarioConfig,
                  rng: RandomSource) -> tuple[ScheduledSend, ...]:
    """Expand a scenario into per-message sends, sorted by time.

    Iteration m starts at m * period, plus one jitter offset when the
    scenario has jitter, drawn before the iteration's sender pairs: sends
    inside an iteration stay simultaneous (worst-case contention) while
    the iteration's phase relative to the scan cycle is randomized.
    Sends are numbered from 1 in time order; an iteration's sends keep
    their order among equal times.
    """
    period_us = ms_to_us(cfg.period_ms)
    jitter_us = ms_to_us(cfg.jitter_ms)
    # one offset per iteration, drawn lazily: each just before its
    # iteration's sender pairs.  An offset is uniform(0, jitter_us), that
    # is 0 + jitter_us * u (adding 0 is exact), truncated and capped at
    # jitter_us - 1; spelled inline, as a uniform and a min() call
    # per iteration made this function about a third slower on room8_group
    draw, last = rng.random, jitter_us - 1
    offsets = (o if (o := int(jitter_us * draw())) <= last else last
               for _ in range(cfg.iterations)) if jitter_us else repeat(0)
    starts = map(add, range(0, cfg.iterations * period_us, period_us),
                 offsets)

    if cfg.pattern == "one-to-many":
        missing = [n for n in (cfg.controller, *cfg.slaves)
                   if n not in topology.nodes]
        if missing:
            raise ConfigError(
                "scenario names nodes missing from the topology: "
                + ", ".join(repr(m) for m in missing))
        routes = ((cfg.controller, None, GROUP_ADDRESS),) if cfg.mode == "group" \
            else tuple((cfg.controller, s, None) for s in cfg.slaves)
        # every iteration sends the same routes, so sorting the starts
        # alone orders the sends
        times = [t for t in sorted(starts) for _ in routes]
        routes *= cfg.iterations
    else:
        if 2 * cfg.senders > len(topology.nodes):
            raise ConfigError(
                f"many-to-many({cfg.senders}) needs {2 * cfg.senders} distinct "
                f"nodes, topology has {len(topology.nodes)}")
        space = PairSpace(topology, MIN_PAIR_HOPS, cfg.tx_power_dbm)
        if space.size == 0:
            raise ConfigError(
                f"topology has no pairs >= {MIN_PAIR_HOPS} hops apart")
        iterations = [(t, _draw_disjoint_pairs(space, cfg.senders, rng))
                      for t in starts]
        iterations.sort(key=itemgetter(0))
        times = [t for t, pairs in iterations for _ in pairs]
        routes = [(src, dst, None) for _, pairs in iterations for src, dst in pairs]

    # one C-level pass numbers the sends and builds each ScheduledSend:
    # tuple.__new__ takes its five fields as one tuple, skipping the
    # Python-level __new__ that checks their count (starmap over
    # ScheduledSend made this function about half again slower on
    # room8_group)
    sources, dst_nodes, groups = zip(*routes)
    return tuple(map(tuple.__new__, repeat(ScheduledSend), zip(
        count(1), times, sources, dst_nodes, groups)))
