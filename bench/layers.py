"""Per-layer split of a traced run: cProfile exclusive time summed by source module.

A layer is one module of the ``meshsim`` package.  Time spent outside the
package (heapq, ``statistics``, enum hashing, dataclass-generated methods,
other builtins) belongs to the package module that called it, found through
the profile's caller edges and split by the time spent under each caller.
What reaches no package module is ``other``.
"""

from __future__ import annotations

import cProfile
import pstats
from functools import cache
from pathlib import Path

import meshsim

PACKAGE_DIR = Path(meshsim.__file__).resolve().parent
LAYERS = ("engine", "radio", "stack", "metrics", "topology", "scenario",
          "tuning", "runner")
OTHER = "other"

# (name, unit, better) of every metric a traced run reports
PER_LAYER = (
    ("engine.self_share", "share", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_frame", "events/frame", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("engine.cancelled", "count", "lower"),
    ("radio.self_share", "share", "lower"),
    ("radio.frames", "count", "lower"),
    ("radio.us_per_frame", "us", "lower"),
    ("radio.shadow_draws", "count", "lower"),
    ("radio.shadow_share", "share", "lower"),
    ("radio.outcome.delivered", "count", "higher"),
    ("radio.outcome.not_listening", "count", "lower"),
    ("radio.outcome.below_sensitivity", "count", "lower"),
    ("radio.outcome.collision", "count", "lower"),
    ("radio.delivered_ratio", "ratio", "higher"),
    ("stack.self_share", "share", "lower"),
    ("stack.pdus_received", "count", "lower"),
    ("stack.duplicate_share", "share", "lower"),
    ("stack.relay_drops", "count", "lower"),
    ("stack.retransmissions", "count", "lower"),
    ("metrics.self_share", "share", "lower"),
    ("metrics.summary_s", "s", "lower"),
    ("topology.load_s", "s", "lower"),
    ("topology.loss_map_s", "s", "lower"),
    ("topology.adjacency_calls", "count", "lower"),
    ("topology.self_share", "share", "lower"),
    ("scenario.load_s", "s", "lower"),
    ("scenario.build_traffic_s", "s", "lower"),
    ("scenario.self_share", "share", "lower"),
    ("tuning.choose_relays_s", "s", "lower"),
    ("tuning.self_share", "share", "lower"),
    ("runner.self_share", "share", "lower"),
    ("other.self_share", "share", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# metrics that count work; they must repeat exactly for one seed
COUNTS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")


def profile(fn, *args):
    """Run fn(*args) under cProfile; returns (result, pstats table)."""
    prof = cProfile.Profile()
    result = prof.runcall(fn, *args)
    return result, pstats.Stats(prof).stats


@cache
def _module_of(filename: str) -> str | None:
    """Layer of a source file: a LAYERS name, OTHER in the package, else None."""
    path = Path(filename)
    if not path.is_absolute() or path.resolve().parent != PACKAGE_DIR:
        return None
    return path.stem if path.stem in LAYERS else OTHER


def self_times(stats) -> dict[str, float]:
    """Exclusive seconds per layer (and OTHER) over the whole profile."""
    memo: dict = {}

    def weights(func, visiting: frozenset) -> dict[str, float]:
        if func in memo:
            return memo[func]
        layer = _module_of(func[0])
        if layer is not None:
            return {layer: 1.0}
        # caller edges are (ncalls, primitive calls, tottime, cumtime)
        callers = {c: e for c, e in stats[func][4].items() if c not in visiting}
        key = 2 if any(e[2] > 0 for e in callers.values()) else 0
        total = sum(e[key] for e in callers.values())
        out: dict[str, float] = {}
        for caller, edge in callers.items():
            for lay, w in weights(caller, visiting | {func}).items():
                out[lay] = out.get(lay, 0.0) + w * edge[key] / total
        memo[func] = out or {OTHER: 1.0}
        return memo[func]

    times: dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        for lay, w in weights(func, frozenset()).items():
            times[lay] = times.get(lay, 0.0) + w * tt
    return times


def shares(times: dict[str, float]) -> dict[str, float]:
    """Self-time share per layer; OTHER is the remainder, so they sum to 1."""
    total = sum(times.values())
    out = {f"{lay}.self_share": times.get(lay, 0.0) / total for lay in LAYERS}
    out[f"{OTHER}.self_share"] = 1.0 - sum(out.values())
    return out


def _entries(stats, module: str, name: str):
    return [v for k, v in stats.items()
            if k[2] == name and _module_of(k[0]) == module]


def calls(stats, module: str, name: str) -> int:
    return sum(v[1] for v in _entries(stats, module, name))


def cumtime(stats, module: str, name: str) -> float:
    return sum(v[3] for v in _entries(stats, module, name))


def profile_metrics(stats, call) -> dict[str, float]:
    """Metrics read from one traced call's profile and result."""
    times = self_times(stats)
    result = call.result
    events = result.events_dispatched
    frames = calls(stats, "radio", "begin_transmission")
    received = calls(stats, "stack", "receive_network_pdu")
    outcomes = call.outcome_counts
    out = shares(times)
    out.update({
        "engine.events": events,
        "engine.cancelled": calls(stats, "engine", "schedule") - events,
        "engine.events_per_frame": events / result.frames_sent,
        "radio.frames": frames,
        "radio.us_per_frame": 1e6 * times.get("radio", 0.0) / frames,
        "radio.shadow_draws": calls(stats, "engine", "draw_normal"),
        "radio.shadow_share": cumtime(stats, "engine", "draw_normal")
        / sum(times.values()),
        "radio.delivered_ratio": outcomes["delivered"] / sum(outcomes.values()),
        "stack.pdus_received": received,
        "stack.duplicate_share": 1.0 - calls(stats, "stack", "insert") / received,
        "stack.relay_drops": result.relay_drops,
        "stack.retransmissions": calls(stats, "metrics", "on_retransmission"),
        "topology.adjacency_calls": calls(stats, "topology", "adjacency"),
    })
    for outcome, n in outcomes.items():
        out[f"radio.outcome.{outcome.replace('-', '_')}"] = n
    return out
