"""Experiment orchestration: assemble a world from documents and run it.

One call to run_experiment expands the scenario's traffic schedule, draws
the relay subset (choose_relays), builds one stack.Node per topology node
from the run's ScenarioConfig and that node's relay flag, runs the kernel
until every retry, guard, and reassembly timer has drained, and returns the
per-message records.
Multi-seed runs fan out over a process pool; results carry everything the
exporters and the bootstrap comparison need.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import attrgetter

from .engine import Engine, RandomSource
from .errors import ConfigError
from .metrics import Collector, CompareResult, MessageRecord, compare
from .radio import (
    PHY_1M,
    PRIMARY_CHANNELS,
    ChannelFrame,
    FrameKind,
    Medium,
)
from .scenario import GROUP_ADDRESS, ScenarioConfig, build_traffic, ms_to_us, s_to_us
from .stack import UNICAST_MAX, Node
from .topology import Topology, flood_reaches_all

# hard stop against non-terminating schedules; generous next to the ~1M
# events of the largest bundled run
MAX_EVENTS_PER_RUN = 50_000_000
RELAY_DRAW_ATTEMPTS = 200

ENV_TRANSMITTER = "env"
NOISE_BURST_OCTETS = 30


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    seed: int
    relays: tuple[str, ...]
    records: tuple[MessageRecord, ...]
    frames_sent: int
    relay_drops: int
    mean_tx_power_dbm: float | None
    events_dispatched: int


def choose_relays(topology: Topology, cfg: ScenarioConfig,
                  rng: RandomSource) -> frozenset[str]:
    """Relay subset for the run; partial subsets must still flood everywhere.

    A partial subset is ceil(relay_fraction * N) node ids drawn uniformly
    without replacement, redrawn at most RELAY_DRAW_ATTEMPTS times.
    """
    if cfg.relay_fraction >= 1.0:
        return frozenset(topology.node_ids)
    # the ceiling of the decimal the scenario gave; the float product
    # overshoots it (0.55 * 100 is 55.00000000000001)
    k = math.ceil(Fraction(repr(cfg.relay_fraction)) * len(topology.node_ids))
    ordered = sorted(topology.node_ids)
    for _ in range(RELAY_DRAW_ATTEMPTS):
        chosen = frozenset(rng.sample(ordered, k))
        if flood_reaches_all(topology, set(chosen), cfg.tx_power_dbm):
            return chosen
    raise ConfigError(
        f"no relay subset of size {k} reaches every node in "
        f"{RELAY_DRAW_ATTEMPTS} draws")


def _emit_noise(medium: Medium, channel: int, power_dbm: float, start: int) -> None:
    medium.begin_transmission(ChannelFrame.checked(
        ENV_TRANSMITTER, channel, PHY_1M, power_dbm, start,
        NOISE_BURST_OCTETS, FrameKind.NOISE))


def _schedule_interference(engine: Engine, medium: Medium, cfg: ScenarioConfig,
                           rng: RandomSource, horizon_us: int) -> None:
    bursts = []
    t = 0.0
    while True:
        u = rng.uniform(0.0, 1.0)
        t += -math.log(max(1e-12, 1.0 - u)) * 1e6 / cfg.interference_rate_per_s
        if t >= horizon_us:
            break
        channel = PRIMARY_CHANNELS[min(2, int(rng.uniform(0, 3)))]
        start = round(t)
        bursts.append((start, _emit_noise,
                       (medium, channel, cfg.interference_power_dbm, start)))
    engine.schedule_many(bursts)


def run_experiment(topology: Topology, cfg: ScenarioConfig, seed: int) -> RunResult:
    # node addresses are 1..N; checked before any set-up work
    if len(topology.nodes) > UNICAST_MAX:
        raise ConfigError(f"{len(topology.nodes)} nodes exceed {UNICAST_MAX} addresses")
    root = RandomSource(seed)
    schedule = build_traffic(topology, cfg, root.stream("traffic"))
    relays = choose_relays(topology, cfg, root.stream("relays"))

    engine = Engine()
    # noise frames reach every receiver at the interference power, so the
    # env interferer needs no loss row
    medium = Medium(engine, topology.loss_table(),
                    ms_to_us(cfg.scan_interval_ms),
                    ms_to_us(cfg.scan_window_resolved_ms))
    addr = {nid: i + 1 for i, nid in enumerate(topology.node_ids)}
    directory = {v: nid for nid, v in addr.items()}
    groups = {GROUP_ADDRESS: tuple(cfg.slaves)} if cfg.mode == "group" else {}
    collector = Collector()

    nodes: dict[str, Node] = {}
    for nid in topology.node_ids:
        nodes[nid] = Node(
            nid, addr[nid], cfg, nid in relays, engine, medium,
            root.stream(f"proto:{nid}"), root.stream(f"chan:{nid}"),
            collector, directory, groups)
    for s in groups.get(GROUP_ADDRESS, ()):
        nodes[s].subscriptions.add(GROUP_ADDRESS)
    medium.finalize(cfg.tx_power_dbm)

    payload = bytes(cfg.message_size_octets)

    # a send's fields, in ScheduledSend's order, are its event's arguments
    def publish(app_msg_id, _time_us, source, dst_node, group):
        nodes[source].publish(
            addr[dst_node] if dst_node is not None else group, payload,
            app_msg_id)

    # each send paired with its time and the action in one C-level pass
    engine.schedule_many(
        zip(map(attrgetter("time_us"), schedule), repeat(publish), schedule))
    if cfg.interference_rate_per_s > 0:
        horizon = schedule[-1].time_us + s_to_us(cfg.guard_s)
        _schedule_interference(engine, medium, cfg,
                               root.stream("interference"), horizon)

    # one event past the cap tells a run that drains exactly at it from
    # one that does not drain
    dispatched = engine.run_until_idle(MAX_EVENTS_PER_RUN + 1)
    if dispatched > MAX_EVENTS_PER_RUN:
        raise RuntimeError(
            f"run passed the {MAX_EVENTS_PER_RUN}-event cap; schedule not draining")
    return RunResult(cfg, seed, tuple(sorted(relays)),
                     tuple(collector.records()), collector.frames_sent,
                     sum(n.relay_drops for n in nodes.values()),
                     collector.mean_tx_power_dbm, dispatched)


def run_many(topology: Topology, cfg: ScenarioConfig, seeds,
             jobs: int | None = None) -> dict[int, RunResult]:
    """Run one seed per process; results keyed by seed, in seed order."""
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("no seeds given")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("duplicate seeds")
    if jobs is None:
        jobs = min(len(seeds), os.cpu_count() or 1)
    if jobs <= 1 or len(seeds) == 1:
        results = [run_experiment(topology, cfg, s) for s in seeds]
    else:
        # imported here: a single-process run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # map zips its arguments, so the repeats stop at the last seed
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_experiment, repeat(topology),
                                    repeat(cfg), seeds))
    return {r.seed: r for r in results}


def compare_runs(baseline: dict[int, RunResult], variant: dict[int, RunResult],
                 kind: str = "one-way") -> CompareResult:
    """Bootstrap comparison of two arms; arms must share a workload."""
    if not baseline or not variant:
        raise ConfigError("compare needs runs in both arms")
    sigs = []
    for arm in (baseline, variant):
        arm_sigs = {r.config.workload_signature() for r in arm.values()}
        if len(arm_sigs) != 1:
            raise ConfigError("runs within one arm use different workloads")
        sigs.append(arm_sigs.pop())
    if sigs[0] != sigs[1]:
        raise ConfigError(
            f"arms are not comparable: workload {sigs[0]} vs {sigs[1]}")
    return compare({s: r.records for s, r in baseline.items()},
                   {s: r.records for s, r in variant.items()}, kind)
