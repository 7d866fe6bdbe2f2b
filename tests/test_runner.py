"""Experiment orchestration: multi-seed fan-out, arm comparison, the event cap."""

import concurrent.futures
import hashlib
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import meshsim
from meshsim import runner
from meshsim.engine import Engine, RandomSource
from meshsim.errors import ConfigError
from meshsim.runner import choose_relays, compare_runs, run_experiment, run_many
from meshsim.scenario import ScenarioConfig, load_scenario
from meshsim.topology import (
    Topology,
    TopologyNode,
    bundled_data_path,
    load_bundled_topology,
    load_topology,
)
from test_golden import grid_topology_document


def bundled(scenario: str, *overrides):
    return load_scenario(bundled_data_path(scenario).read_text(encoding="utf-8"),
                         list(overrides))


def test_run_many_same_results_in_process_and_in_pool():
    topo = load_bundled_topology("office_single_floor_8.topo")
    cfg = bundled("single_hop_group.scn", "iterations=3")
    serial = run_many(topo, cfg, [4, 9], jobs=1)
    pooled = run_many(topo, cfg, [4, 9], jobs=2)
    assert list(serial) == list(pooled) == [4, 9]
    assert serial == pooled


def test_importing_meshsim_loads_no_process_pool():
    # only run_many's pooled branch needs a process pool; a fresh
    # interpreter shows what importing every module loads
    code = ("import importlib, pkgutil, sys, meshsim\n"
            "for m in pkgutil.iter_modules(meshsim.__path__):\n"
            "    importlib.import_module('meshsim.' + m.name)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    src = str(Path(meshsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_setup_of_400_node_grid_stays_small(monkeypatch):
    # set-up keeps one float per pair and one state tuple per receiver; the
    # per-pair dict rows and candidate tuples before it peaked at 21.7 MB
    class LoopReached(Exception):
        pass

    def stop(engine, max_events=None):
        raise LoopReached

    monkeypatch.setattr(Engine, "run_until_idle", stop)
    lines = ["meshsim-topology v1"]
    for n in range(400):
        floor, row, col = n // 200, n // 20 % 10, n % 20
        lines.append(f"node g{n + 1:03d} {floor} {14.0 * col:g} {14.0 * row:g}")
    cfg = bundled("mm3.scn", "iterations=2", "relay_fraction=0.5")
    tracemalloc.start()
    try:
        with pytest.raises(LoopReached):
            run_experiment(load_topology("\n".join(lines)), cfg, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_compare_runs_rejects_arms_with_different_workloads():
    topo = load_bundled_topology("office_single_floor_8.topo")
    seeds = range(1, 6)     # compare needs five seeds per arm
    short = run_many(topo, bundled("single_hop_group.scn", "iterations=2"), seeds, jobs=1)
    longer = run_many(topo, bundled("single_hop_group.scn", "iterations=3"), seeds, jobs=1)
    assert compare_runs(short, short).n_seeds == (5, 5)
    with pytest.raises(ConfigError, match="not comparable"):
        compare_runs(short, longer)
    with pytest.raises(ConfigError, match="within one arm use different workloads"):
        compare_runs(short, {**short, 6: longer[1]})
    for baseline, variant in ((short, {}), ({}, short)):
        with pytest.raises(ConfigError, match="runs in both arms"):
            compare_runs(baseline, variant)


def test_run_many_checks_seeds_and_runs_one_seed_in_process(monkeypatch):
    topo = load_bundled_topology("office_single_floor_8.topo")
    cfg = bundled("single_hop_group.scn", "iterations=1")
    with pytest.raises(ConfigError, match="no seeds given"):
        run_many(topo, cfg, [])
    with pytest.raises(ConfigError, match="duplicate seeds"):
        run_many(topo, cfg, [3, 4, 3])

    def no_pool(*args, **kwargs):
        raise AssertionError("one seed started a process pool")

    # the default jobs for one seed is one: no pool is started
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool,
                        raising=False)
    assert run_many(topo, cfg, [4]) == {4: run_experiment(topo, cfg, 4)}


def test_more_nodes_than_unicast_addresses_rejected_before_set_up():
    # abstract nodes without loss lines: any set-up work on them would
    # fail with another error, so only the address check can raise
    ids = [f"n{i:05d}" for i in range(0x8000)]
    topo = Topology({n: TopologyNode(n) for n in ids})
    cfg = ScenarioConfig(pattern="one-to-many", controller=ids[0],
                         slaves=(ids[1],), iterations=1)
    with pytest.raises(ConfigError, match="32768 nodes exceed"):
        run_experiment(topo, cfg, 1)


def test_event_cap_raises(monkeypatch):
    monkeypatch.setattr(runner, "MAX_EVENTS_PER_RUN", 50)
    with pytest.raises(RuntimeError, match="50-event cap"):
        run_experiment(load_bundled_topology("office_single_floor_8.topo"),
                       bundled("single_hop_group.scn", "iterations=3"), 1)


def test_run_that_drains_at_the_event_cap_completes(monkeypatch):
    topo = load_bundled_topology("office_single_floor_8.topo")
    cfg = bundled("single_hop_group.scn", "iterations=3")
    result = run_experiment(topo, cfg, 1)
    n = result.events_dispatched
    for cap in (n, n + 1):
        monkeypatch.setattr(runner, "MAX_EVENTS_PER_RUN", cap)
        assert run_experiment(topo, cfg, 1) == result
    monkeypatch.setattr(runner, "MAX_EVENTS_PER_RUN", n - 1)
    with pytest.raises(RuntimeError, match=f"{n - 1}-event cap"):
        run_experiment(topo, cfg, 1)


def test_transport_state_pruned_after_run(monkeypatch):
    # acked, flagged and abandoned publications and finished segment
    # attempts leave the per-node tables, so they follow the messages in
    # flight, not the messages sent
    nodes = []

    class RecordedNode(runner.Node):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            nodes.append(self)

    monkeypatch.setattr(runner, "Node", RecordedNode)
    result = run_experiment(load_bundled_topology("office_two_floor_20.topo"),
                            bundled("mm3_seg19.scn", "iterations=40"), 1)
    assert len(nodes) == 20 and result.records
    assert sum(len(n._pubs) for n in nodes) == 0
    assert sum(len(n._tx_attempts) for n in nodes) == 0


@pytest.mark.parametrize("topology,scenario,overrides", [
    ("office_two_floor_20.topo", "mm3_seg19.scn", ()),
    ("office_single_floor_8.topo", "single_hop_group.scn", ("power_control=on",)),
], ids=["mm3_seg19", "single_hop_group+power_control=on"])
def test_node_has_no_instance_dict(monkeypatch, topology, scenario, overrides):
    # a node's fields are slots, so every read of one is a slot load
    # however many it has; and each slot is set once the node is built
    nodes = []
    init = runner.Node.__init__

    def recorded(self, *args, **kw):
        init(self, *args, **kw)
        nodes.append(self)

    monkeypatch.setattr(runner.Node, "__init__", recorded)
    run_experiment(load_bundled_topology(topology),
                   bundled(scenario, "iterations=10", *overrides), 1)
    assert nodes and all(type(n) is runner.Node for n in nodes)
    assert not any(hasattr(n, "__dict__") for n in nodes)
    assert all(hasattr(n, slot) for n in nodes for slot in runner.Node.__slots__)


@pytest.mark.parametrize("topology,scenario", [
    ("office_single_floor_8.topo", "single_hop_group.scn"),
    ("office_two_floor_20.topo", "mm3.scn"),
    ("office_two_floor_20.topo", "mm3_ext50.scn"),
], ids=["single_hop_group", "mm3", "mm3_ext50"])
def test_fewer_engine_events_than_aired_frames(topology, scenario):
    # an advertising event of three or four frames costs the engine its
    # _finish_event, at most one wakeup, and a resolution only for each
    # frame a scanner catches: about one primary frame per event
    result = run_experiment(load_bundled_topology(topology),
                            bundled(scenario, "iterations=10"), 1)
    assert result.events_dispatched < result.frames_sent


# ------------------------------------------------------------ relay subsets

def one_room(n: int) -> Topology:
    """n nodes on a 1 m grid in one room: every node hears every other."""
    lines = ["meshsim-topology v1"]
    lines += [f"node n{i:03d} 0 {i % 10} {i // 10}" for i in range(n)]
    return load_topology("\n".join(lines))


def chain4() -> Topology:
    """a - b - c - d: neighbours hear each other, no one else does."""
    lines = ["meshsim-topology v1", *(f"node {n}" for n in "abcd")]
    for i, a in enumerate("abcd"):
        for j, b in enumerate("abcd"[i + 1:], i + 1):
            lines.append(f"loss {a} {b} {60 if j == i + 1 else 300}")
    return load_topology("\n".join(lines))


def relays(topology, seed=1, **kw):
    return choose_relays(topology, ScenarioConfig(**kw),
                         RandomSource(seed).stream("relays"))


def test_choose_relays_count_and_determinism():
    room = one_room(20)
    picked = relays(room, 42, relay_fraction=0.25)
    assert picked == relays(room, 42, relay_fraction=0.25)
    assert len(picked) == 5
    assert picked <= frozenset(room.node_ids)
    assert relays(room, relay_fraction=1.0) == frozenset(room.node_ids)
    assert len(relays(room, relay_fraction=0.5)) == 10


@pytest.mark.parametrize("n", [8, 20, 100])
def test_relay_count_is_the_ceiling_of_the_given_decimal(n):
    # the float product overshoots for some fractions: 0.55 * 100 is
    # 55.00000000000001, whose ceiling is 56
    room = one_room(n)
    for k in range(1, 101):
        assert len(relays(room, relay_fraction=k / 100)) == -(-k * n // 100), k


def test_grid100_relay_subset_sizes():
    grid = load_topology(grid_topology_document())
    assert len(relays(grid, relay_fraction=0.55)) == 55
    assert len(relays(grid, relay_fraction=0.14)) == 14


def test_choose_relays_keeps_the_flood_connected():
    # of the pairs on a four-node chain only the middle two carry a flood
    # from either end to the other
    for seed in range(1, 6):
        assert relays(chain4(), seed, relay_fraction=0.5) == {"b", "c"}
    with pytest.raises(ConfigError, match="no relay subset of size 1"):
        relays(chain4(), relay_fraction=0.25)


@pytest.mark.parametrize("fraction", [0.0, 1.5])
def test_relay_fraction_checked_before_relays_are_drawn(fraction):
    # choose_relays leaves the range to ScenarioConfig, which rejects it
    # at construction, before any run
    with pytest.raises(ConfigError, match="relay_fraction: must be in"):
        run_experiment(chain4(), ScenarioConfig(relay_fraction=fraction), 1)


# ------------------------------------------------------------ background noise

class FrameLog:
    """Stands in for the medium: keeps every frame it is asked to air."""

    def __init__(self):
        self.frames = []

    def register(self, *args):
        pass

    def begin_transmission(self, *frames):
        self.frames.extend(frames)


def test_noise_schedule():
    engine, log = Engine(), FrameLog()
    cfg = ScenarioConfig(interference_rate_per_s=200.0)
    horizon = 10_000_000
    runner._schedule_interference(engine, log, cfg,
                                  RandomSource(3).stream("interference"), horizon)
    assert engine.run_until_idle() == len(log.frames)
    bursts = [(f.start, f.channel) for f in log.frames]
    # pinned when each burst was still queued by its own schedule() call
    assert hashlib.sha256(repr(bursts).encode()).hexdigest() == \
        "3da941dbcbfc229f80549b8242ccf453c29de9a28816294a2e5f2e8d3bfcb081"
    assert all(0 <= start < horizon for start, _ in bursts)
    assert {channel for _, channel in bursts} <= {37, 38, 39}
    assert all(f.power_dbm == cfg.interference_power_dbm for f in log.frames)
    # a Poisson count with mean rate x horizon, inside its 99.9 % interval
    mean = cfg.interference_rate_per_s * horizon / 1e6
    count = statistics.NormalDist(mean, math.sqrt(mean))
    assert count.inv_cdf(0.0005) <= len(bursts) <= count.inv_cdf(0.9995)
