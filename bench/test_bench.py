"""Self-tests of the benchmark: python3 -m pytest bench -q"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from meshsim.engine import Engine  # noqa: E402
from meshsim.radio import Medium  # noqa: E402
from meshsim.topology import load_topology  # noqa: E402


def _short_call(name="room8_group", iterations=2, seed=7, profiled=False):
    docs = workloads.WORKLOADS[name].documents()
    overrides = [f"iterations={iterations}"]
    with workloads.Probe() as probe:
        args = (docs, overrides, seed, probe)
        if profiled:
            return layers.profile(workloads.run_call, *args)
        return workloads.run_call(*args), None


def test_grid_generator_is_deterministic():
    text = workloads.grid_topology_document()
    assert text == workloads.grid_topology_document()
    topo = load_topology(text)
    assert topo.node_ids == tuple(f"g{i:03d}" for i in range(1, 101))
    first, last = topo.nodes["g001"], topo.nodes["g100"]
    assert (first.floor, first.x, first.y) == (0, 0.0, 0.0)
    assert (last.floor, last.x, last.y) == (1, 126.0, 56.0)


def test_inputs_are_the_benchmarks_own_files():
    for wl in workloads.WORKLOADS.values():
        for name in (wl.topology, wl.scenario):
            assert name is None or (workloads.DATA / name).is_file()


def test_sound_records_pass_the_check():
    call, _ = _short_call()
    cfg_pairs = 2 * 7       # two group messages to seven slaves
    assert workloads.check_records(call.result.records, cfg_pairs) == []


def test_tampered_record_fails_the_check():
    call, _ = _short_call()
    records = list(call.result.records)
    delivered = next(i for i, r in enumerate(records) if r.delivery_time_us)
    early = dataclasses.replace(
        records[delivered], delivery_time_us=records[delivered].send_time_us - 1)
    tampered = records[:delivered] + [early] + records[delivered + 1:]
    assert workloads.check_records(tampered, len(records))
    assert workloads.check_records(records[1:], len(records))
    lost = [dataclasses.replace(r, status=workloads.LOST, delivery_time_us=None)
            for r in records]
    assert workloads.check_records(lost, len(records))
    changed = dataclasses.replace(call.result, records=tuple(tampered))
    assert workloads.digest(changed) != workloads.digest(call.result)


def test_repeat_run_gives_the_same_digest():
    a, _ = _short_call("office20_mm7", seed=3)
    b, _ = _short_call("office20_mm7", seed=3)
    assert workloads.digest(a.result) == workloads.digest(b.result)


def test_layer_shares_sum_to_one():
    call, stats = _short_call("office20_mm7", profiled=True)
    metrics = layers.profile_metrics(stats, call)
    shares = [v for k, v in metrics.items() if k.endswith(".self_share")]
    assert len(shares) == len(layers.LAYERS) + 1
    assert abs(sum(shares) - 1.0) < 1e-12
    assert min(shares) > -1e-12
    assert metrics["engine.events"] == call.result.events_dispatched


def test_builtins_go_to_the_calling_module():
    engine_py = str(layers.PACKAGE_DIR / "engine.py")
    radio_py = str(layers.PACKAGE_DIR / "radio.py")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    inv_cdf = ("/lib/statistics.py", 1, "inv_cdf")
    schedule = (engine_py, 1, "schedule")
    resolve = (radio_py, 1, "_resolve_all")
    draw = (engine_py, 2, "draw_normal")
    stats = {
        push: (4, 4, 0.4, 0.4, {schedule: (4, 4, 0.4, 0.4)}),
        schedule: (4, 4, 0.1, 0.5, {}),
        inv_cdf: (2, 2, 0.2, 0.2, {draw: (2, 2, 0.2, 0.2)}),
        draw: (2, 2, 0.1, 0.3, {resolve: (2, 2, 0.1, 0.3)}),
        resolve: (1, 1, 0.2, 0.5, {}),
    }
    times = layers.self_times(stats)
    assert times == pytest.approx({"engine": 0.8, "radio": 0.2})


def test_probe_restores_the_program():
    saved = (Engine.run_until_idle, Medium.finalize)
    with workloads.Probe():
        assert Engine.run_until_idle is not saved[0]
    assert (Engine.run_until_idle, Medium.finalize) == saved


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
