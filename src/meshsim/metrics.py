"""Per-message records, aggregation, file export and A/B comparison."""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean, quantiles

from .errors import ConfigError

CSV_COLUMNS = (
    "app_msg_id", "source", "destination", "status", "send_time_us",
    "delivery_time_us", "ack_time_us", "one_way_ms", "round_trip_ms",
    "retransmissions", "frames_total",
)

DELIVERED = "delivered"
LOST = "lost"
FLAGGED = "guard-flagged"


@dataclass(frozen=True)
class MessageRecord:
    """Outcome of one (message, destination) pair."""

    app_msg_id: int
    source: str
    destination: str
    send_time_us: int
    delivery_time_us: int | None
    ack_time_us: int | None
    retransmissions: int
    frames_total: int
    status: str

    @property
    def one_way_ms(self) -> float | None:
        if self.delivery_time_us is None:
            return None
        return (self.delivery_time_us - self.send_time_us) / 1000.0

    @property
    def round_trip_ms(self) -> float | None:
        if self.ack_time_us is None:
            return None
        return (self.ack_time_us - self.send_time_us) / 1000.0


class _Msg:
    __slots__ = ("source", "destinations", "send_time", "deliveries",
                 "acks", "retx", "frames", "flagged")

    def __init__(self, source, destinations, send_time):
        self.source = source
        self.destinations = destinations
        self.send_time = send_time
        self.deliveries = {}
        self.acks = {}
        self.retx = 0
        self.frames = 0
        self.flagged = False


class Collector:
    """Accumulates message state during a run; one record per (message, destination)."""

    def __init__(self, addr_to_node: dict | None = None):
        self._msgs: dict[int, _Msg] = {}
        self._addr_to_node = addr_to_node or {}
        self.frames_sent = 0
        self.power_sum_dbm = 0.0

    def on_send(self, app_msg_id, source, destinations, t_us) -> None:
        if app_msg_id in self._msgs:
            raise ConfigError(f"duplicate message id {app_msg_id}")
        self._msgs[app_msg_id] = _Msg(source, tuple(destinations), t_us)

    def on_delivery(self, app_msg_id, node_id, t_us) -> None:
        self._msgs[app_msg_id].deliveries.setdefault(node_id, t_us)

    def on_ack(self, app_msg_id, from_addr_value, t_us) -> None:
        node = self._addr_to_node.get(from_addr_value, from_addr_value)
        self._msgs[app_msg_id].acks.setdefault(node, t_us)

    def on_retransmission(self, app_msg_id) -> None:
        self._msgs[app_msg_id].retx += 1

    def on_frame(self, app_msg_id, power_dbm, count) -> None:
        """Count the frames of one advertising event, all aired at power_dbm."""
        self._msgs[app_msg_id].frames += count
        self.frames_sent += count
        for _ in range(count):  # once per frame: the float sum of frame-by-frame calls
            self.power_sum_dbm += power_dbm

    def flag_guard(self, app_msg_id) -> None:
        self._msgs[app_msg_id].flagged = True

    @property
    def mean_tx_power_dbm(self) -> float | None:
        if not self.frames_sent:
            return None
        return self.power_sum_dbm / self.frames_sent

    def records(self) -> list[MessageRecord]:
        out = []
        for msg_id, m in self._msgs.items():
            for dst in m.destinations:
                delivery = m.deliveries.get(dst)
                if m.flagged:
                    status = FLAGGED
                elif delivery is not None:
                    status = DELIVERED
                else:
                    status = LOST
                out.append(MessageRecord(
                    msg_id, m.source, dst, m.send_time, delivery,
                    m.acks.get(dst), m.retx, m.frames, status))
        out.sort(key=lambda r: (r.send_time_us, r.app_msg_id, r.destination))
        return out


# ------------------------------------------------------------------- aggregate

@dataclass(frozen=True)
class SummaryStats:
    kind: str
    n_scheduled: int
    n_delivered: int
    reliability_pct: float
    mean_ms: float | None
    p90_ms: float | None
    max_ms: float | None
    per_node: dict


def _latency_ms(record: MessageRecord, kind: str) -> float | None:
    return record.one_way_ms if kind == "one-way" else record.round_trip_ms


def nearest_rank_p90(values) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def aggregate(records, kind: str = "one-way") -> SummaryStats:
    """Latency and reliability summary over one run's records."""
    if kind not in ("one-way", "round-trip"):
        raise ConfigError(f"unknown latency kind {kind!r}")
    records = list(records)
    if not records:
        raise ConfigError("aggregate over empty record set")
    delivered = [r for r in records if r.status == DELIVERED]
    values = [v for r in delivered if (v := _latency_ms(r, kind)) is not None]
    per_node: dict = {}
    for r in records:
        slot = per_node.setdefault(r.destination, {"scheduled": 0, "delivered": 0, "values": []})
        slot["scheduled"] += 1
        if r.status == DELIVERED:
            slot["delivered"] += 1
            v = _latency_ms(r, kind)
            if v is not None:
                slot["values"].append(v)
    breakdown = {
        dst: {
            "scheduled": s["scheduled"],
            "delivered": s["delivered"],
            "mean_ms": (sum(s["values"]) / len(s["values"])) if s["values"] else None,
        }
        for dst, s in sorted(per_node.items())
    }
    return SummaryStats(
        kind=kind,
        n_scheduled=len(records),
        n_delivered=len(delivered),
        reliability_pct=100.0 * len(delivered) / len(records),
        mean_ms=(sum(values) / len(values)) if values else None,
        p90_ms=nearest_rank_p90(values) if values else None,
        max_ms=max(values) if values else None,
        per_node=breakdown,
    )


# ---------------------------------------------------------------------- export

def _fmt_ms(v: float | None) -> str:
    return "" if v is None else f"{v:.3f}"


def write_messages_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in records:
            w.writerow([
                r.app_msg_id, r.source, r.destination, r.status, r.send_time_us,
                "" if r.delivery_time_us is None else r.delivery_time_us,
                "" if r.ack_time_us is None else r.ack_time_us,
                _fmt_ms(r.one_way_ms), _fmt_ms(r.round_trip_ms),
                r.retransmissions, r.frames_total,
            ])


def _row_problem(r: MessageRecord) -> str | None:
    """Why no run writes record r, or None when one can."""
    if r.status not in (DELIVERED, LOST, FLAGGED):
        return f"unknown status {r.status!r}"
    if r.status == DELIVERED and r.delivery_time_us is None:
        return "status delivered without a delivery time"
    if r.status == LOST and r.delivery_time_us is not None:
        return "status lost with a delivery time"
    for name, t in (("delivery", r.delivery_time_us), ("ack", r.ack_time_us)):
        if t is not None and t < r.send_time_us:
            return f"{name} at {t} µs before send at {r.send_time_us} µs"
    if r.retransmissions < 0 or r.frames_total < 0:
        return "negative retransmissions or frames_total"
    return None


def read_messages_csv(path) -> list[MessageRecord]:
    """Records written by write_messages_csv; any other row raises ConfigError."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ConfigError(f"unexpected message CSV header in {path}")
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            # DictReader puts the cells past the header under the key None
            if None in row:
                raise ConfigError(f"{where}: {len(row[None])} cell(s) past "
                                  f"the {len(CSV_COLUMNS)} columns")
            try:
                r = MessageRecord(
                    int(row["app_msg_id"]), row["source"], row["destination"],
                    int(row["send_time_us"]),
                    int(row["delivery_time_us"]) if row["delivery_time_us"] else None,
                    int(row["ack_time_us"]) if row["ack_time_us"] else None,
                    int(row["retransmissions"]), int(row["frames_total"]),
                    row["status"],
                )
            except (TypeError, ValueError) as exc:
                # a short row fills its missing columns with None
                raise ConfigError(f"{where}: bad message row: {exc}") from None
            problem = _row_problem(r)
            if problem is not None:
                raise ConfigError(f"{where}: {problem}")
            out.append(r)
    return out


def stats_as_dict(stats: SummaryStats) -> dict:
    return {
        "kind": stats.kind,
        "n_scheduled": stats.n_scheduled,
        "n_delivered": stats.n_delivered,
        "reliability_pct": round(stats.reliability_pct, 6),
        "mean_ms": None if stats.mean_ms is None else round(stats.mean_ms, 6),
        "p90_ms": None if stats.p90_ms is None else round(stats.p90_ms, 6),
        "max_ms": None if stats.max_ms is None else round(stats.max_ms, 6),
        "per_node": {
            dst: {
                "scheduled": s["scheduled"],
                "delivered": s["delivered"],
                "mean_ms": None if s["mean_ms"] is None else round(s["mean_ms"], 6),
            }
            for dst, s in stats.per_node.items()
        },
    }


def write_summary_json(summary: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_cdf_csv(records, kind, path) -> None:
    """Plot-ready latency CDF: one row per distinct latency value."""
    values = sorted(
        v for r in records if r.status == DELIVERED
        if (v := _latency_ms(r, kind)) is not None)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("latency_ms", "cumulative_fraction"))
        n = len(values)
        i = 0
        while i < n:
            v = values[i]
            j = i
            while j < n and values[j] == v:
                j += 1
            w.writerow((f"{v:.3f}", f"{j / n:.6f}"))
            i = j


# --------------------------------------------------------------------- compare

@dataclass(frozen=True)
class CompareResult:
    kind: str
    baseline_mean_ms: float
    variant_mean_ms: float
    pct_change: float
    ci_low: float
    ci_high: float
    n_seeds: tuple

    @property
    def excludes_zero(self) -> bool:
        return self.ci_low > 0 or self.ci_high < 0


def per_seed_means(records_by_seed: dict, kind: str) -> list[float]:
    means = []
    for seed in sorted(records_by_seed):
        stats = aggregate(records_by_seed[seed], kind)
        if stats.mean_ms is None:
            raise ConfigError(f"seed {seed}: no delivered messages to average")
        means.append(stats.mean_ms)
    return means


def compare(baseline_by_seed: dict, variant_by_seed: dict, kind: str = "one-way",
            resamples: int = 10_000, min_seeds: int = 5,
            rng_seed: int = 0x5EED) -> CompareResult:
    """Percent change of mean latency with a bootstrap 95% CI over per-seed means.

    Each resample draws both arms' seeds with replacement; the CI's ends
    are the 2.5th and 97.5th percentiles of the resampled changes,
    interpolated linearly between ranks.
    """
    if len(baseline_by_seed) < min_seeds or len(variant_by_seed) < min_seeds:
        raise ConfigError(
            f"compare needs at least {min_seeds} seeds per arm, got "
            f"{len(baseline_by_seed)} and {len(variant_by_seed)}")
    b = per_seed_means(baseline_by_seed, kind)
    v = per_seed_means(variant_by_seed, kind)
    b_mean, v_mean = fmean(b), fmean(v)
    rng = random.Random(rng_seed)
    pct = []
    for _ in range(resamples):
        bm = fmean(rng.choices(b, k=len(b)))
        pct.append((fmean(rng.choices(v, k=len(v))) - bm) / bm * 100.0)
    cuts = quantiles(pct, n=40, method="inclusive")
    return CompareResult(kind, b_mean, v_mean, (v_mean - b_mean) / b_mean * 100.0,
                         cuts[0], cuts[-1], (len(b), len(v)))
