"""Record bookkeeping, aggregation, file formats, bootstrap comparison."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meshsim
from meshsim.errors import ConfigError
from meshsim.metrics import (
    CSV_COLUMNS,
    DELIVERED,
    FLAGGED,
    LOST,
    Collector,
    MessageRecord,
    aggregate,
    compare,
    nearest_rank_p90,
    per_seed_means,
    stats_as_dict,
    write_cdf_csv,
    write_messages_csv,
    write_summary_json,
)


def rec(msg_id, dst="b", send=0, delivery=None, ack=None, retx=0, frames=0,
        status=LOST, source="a"):
    return MessageRecord(msg_id, source, dst, send, delivery, ack, retx,
                         frames, status)


def test_collector_records_and_statuses():
    c = Collector()
    c.on_send(1, "a", ("b",), 0)
    c.on_delivery(1, "b", 5_000)
    c.on_delivery(1, "b", 9_999)          # duplicate delivery keeps the first
    c.on_ack(1, "b", 9_000)
    c.on_send(2, "a", ("b",), 1_000)
    c.on_send(3, "a", ("b",), 2_000)
    c.on_delivery(3, "b", 30_000)
    c.flag_guard(3)
    r1, r2, r3 = c.records()
    assert (r1.status, r2.status, r3.status) == (DELIVERED, LOST, FLAGGED)
    assert r1.one_way_ms == 5.0
    assert r1.round_trip_ms == 9.0
    assert r2.one_way_ms is None and r2.round_trip_ms is None
    with pytest.raises(ConfigError):
        c.on_send(1, "a", ("b",), 5_000)


def test_collector_mean_power():
    c = Collector()
    assert c.mean_tx_power_dbm is None
    c.on_send(1, "a", ("b",), 0)
    c.on_frame(1, -10.0, 1)
    c.on_frame(1, -20.0, 1)
    assert c.mean_tx_power_dbm == -15.0
    assert c.records()[0].frames_total == 2


def test_one_record_per_destination():
    c = Collector()
    c.on_send(1, "a", ("b", "c"), 0)
    c.on_delivery(1, "c", 7_000)
    by_dst = {r.destination: r for r in c.records()}
    assert by_dst["b"].status == LOST
    assert by_dst["c"].status == DELIVERED


def test_nearest_rank_p90():
    assert nearest_rank_p90([5.0]) == 5.0
    assert nearest_rank_p90(list(range(1, 11))) == 9
    assert nearest_rank_p90(list(range(1, 101))) == 90
    assert nearest_rank_p90([3.0, 1.0, 2.0]) == 3.0


def test_aggregate_reliability_and_latency():
    records = [
        rec(1, delivery=10_000, ack=30_000, status=DELIVERED),
        rec(2, delivery=20_000, status=DELIVERED),
        rec(3),
        rec(4, status=FLAGGED, delivery=99_000),
    ]
    stats = aggregate(records, "one-way")
    assert stats.n_scheduled == 4 and stats.n_delivered == 2
    assert stats.reliability_pct == 50.0
    assert stats.mean_ms == 15.0
    assert stats.p90_ms == 20.0 and stats.max_ms == 20.0
    assert stats.per_node["b"]["scheduled"] == 4
    rt = aggregate(records, "round-trip")
    assert rt.mean_ms == 30.0              # only the acked record contributes
    with pytest.raises(ConfigError):
        aggregate([], "one-way")
    with pytest.raises(ConfigError):
        aggregate(records, "p50")


def test_messages_csv_roundtrip(tmp_path):
    records = [
        rec(1, delivery=5_000, ack=9_000, retx=2, frames=30, status=DELIVERED),
        rec(2, send=1_000),
    ]
    path = tmp_path / "messages.csv"
    write_messages_csv(records, path)
    assert path.read_text().splitlines() == [
        ",".join(CSV_COLUMNS),
        "1,a,b,delivered,0,5000,9000,5.000,9.000,2,30",
        "2,a,b,lost,1000,,,,,0,0",
    ]


def test_summary_json_stable_bytes(tmp_path):
    stats = aggregate([rec(1, delivery=5_000, status=DELIVERED)], "one-way")
    payload = {"one_way": stats_as_dict(stats), "seed": 3}
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    write_summary_json(payload, p1)
    write_summary_json(payload, p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded = json.loads(p1.read_text())
    assert loaded["one_way"]["reliability_pct"] == 100.0
    assert list(loaded) == sorted(loaded)


def test_cdf_rows(tmp_path):
    records = [
        rec(1, delivery=5_000, status=DELIVERED),
        rec(2, delivery=5_000, status=DELIVERED),
        rec(3, delivery=10_000, status=DELIVERED),
        rec(4),                            # lost: not part of the CDF
    ]
    path = tmp_path / "cdf.csv"
    write_cdf_csv(records, "one-way", path)
    rows = [line.split(",") for line in path.read_text().splitlines()]
    assert rows[0] == ["latency_ms", "cumulative_fraction"]
    assert rows[1] == ["5.000", "0.666667"]
    assert rows[2] == ["10.000", "1.000000"]
    assert len(rows) == 3


def seeded(mean_ms_by_seed):
    return {
        seed: [rec(1, delivery=int(ms * 1000), status=DELIVERED)]
        for seed, ms in mean_ms_by_seed.items()
    }


def test_per_seed_means_sorted_and_guarded():
    means = per_seed_means(seeded({3: 30.0, 1: 10.0, 2: 20.0}), "one-way")
    assert means == [10.0, 20.0, 30.0]
    with pytest.raises(ConfigError):
        per_seed_means({1: [rec(1)]}, "one-way")


def test_compare_point_estimate_and_ci():
    base = seeded({s: 10.0 for s in range(5)})
    var = seeded({s: 8.0 for s in range(5)})
    result = compare(base, var, "one-way")
    assert result.pct_change == pytest.approx(-20.0)
    assert result.ci_low == pytest.approx(-20.0)
    assert result.ci_high == pytest.approx(-20.0)
    assert result.excludes_zero
    same = compare(base, base, "one-way")
    assert same.pct_change == 0.0 and not same.excludes_zero


def test_compare_needs_five_seeds():
    base = seeded({s: 10.0 for s in range(4)})
    with pytest.raises(ConfigError):
        compare(base, base, "one-way")


def test_compare_reproducible(monkeypatch):
    # with numpy blocked: a None entry in sys.modules makes `import numpy` raise
    monkeypatch.setitem(sys.modules, "numpy", None)
    base = seeded({0: 9.0, 1: 11.0, 2: 10.0, 3: 12.0, 4: 8.0})
    var = seeded({0: 7.0, 1: 10.0, 2: 9.5, 3: 9.0, 4: 8.5})
    first = compare(base, var, "one-way")
    second = compare(base, var, "one-way")
    assert (first.ci_low, first.ci_high) == (second.ci_low, second.ci_high)
    assert first.pct_change == pytest.approx(-12.0)
    assert first.ci_low < first.pct_change < first.ci_high


def test_importing_meshsim_loads_only_the_standard_library():
    # a fresh interpreter shows what importing every module loads beyond
    # what the interpreter had at start-up
    code = ("import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import meshsim\n"
            "for m in pkgutil.iter_modules(meshsim.__path__):\n"
            "    importlib.import_module('meshsim.' + m.name)\n"
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}\n"
            "             - set(sys.stdlib_module_names) - {'meshsim'}))")
    src = str(Path(meshsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
