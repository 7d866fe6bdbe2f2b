import dataclasses
import hashlib
import math
import pickle
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meshsim.engine import RandomSource
from meshsim.errors import ConfigError
from meshsim.runner import run_experiment
from meshsim.scenario import (
    GROUP_ADDRESS,
    MIN_PAIR_HOPS,
    PAIR_DRAW_ATTEMPTS,
    ScenarioConfig,
    ScheduledSend,
    apply_overrides,
    build_traffic,
    load_scenario,
    read_scenario_document,
    scenario_to_document,
    _KEYS,
    _draw_disjoint_pairs,
)
from meshsim.topology import (
    PairSpace,
    bundled_data_path,
    load_bundled_topology,
    load_topology,
)
from test_topology import hops, mixed_topologies, oracle_eligible_pairs, split_topologies

HEADER = "meshsim-scenario v1"


def scn(*body: str, overrides=()) -> ScenarioConfig:
    return load_scenario("\n".join([HEADER, *body]), overrides)


def line_topology(n: int, spacing_m: float = 3.0):
    lines = ["meshsim-topology v1"]
    lines += [f"node x{i:02d} 0 {i * spacing_m} 0" for i in range(n)]
    return load_topology("\n".join(lines))


# --------------------------------------------------------------------- parsing

def test_defaults_match_reference_table():
    cfg = scn()
    assert cfg.pattern == "many-to-many" and cfg.senders == 3
    assert cfg.mode == "unicast-acked"
    assert cfg.message_size_octets == 11
    assert cfg.iterations == 100 and cfg.period_ms == 1000.0
    assert cfg.adv_interval_ms == 20.0 and cfg.adv_delay_max_ms == 10.0
    assert cfg.scan_interval_ms == 2000.0
    assert cfg.tx_power_dbm == 0.0
    assert cfg.n_adv_events_source == 3 and cfg.n_adv_events_relay == 2
    assert cfg.relay_fraction == 1.0
    assert not cfg.extended and not cfg.power_control


def test_header_required():
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario("pattern many-to-many(3)\n")


def test_pattern_sugar_sets_senders():
    assert scn("pattern many-to-many(7)").senders == 7


def test_pattern_sugar_conflicts_with_senders_key():
    with pytest.raises(ConfigError, match="senders: given both"):
        scn("pattern many-to-many(7)", "senders 3")


def test_mode_aliases():
    assert scn("mode unicast").mode == "unicast-acked"
    assert scn("pattern one-to-many", "mode group", "controller c",
               "slaves s1 s2").mode == "group-acked-fixed"


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2: unknown key 'advz'"):
        scn("advz 10")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        scn("iterations 5", "iterations 6")


def test_value_errors_collected_with_paths():
    with pytest.raises(ConfigError) as exc:
        scn("iterations x", "tx_power_dbm strong")
    msg = str(exc.value)
    assert "line 2: iterations: expected integer" in msg
    assert "line 3: tx_power_dbm: expected number" in msg


def test_zero_adv_interval_rejected():
    with pytest.raises(ConfigError, match="adv_interval_ms"):
        scn("adv_interval_ms 0")


@pytest.mark.parametrize("body,path", [
    ("default_ttl 128", "default_ttl"),
    ("relay_fraction 0", "relay_fraction"),
    ("relay_fraction 1.5", "relay_fraction"),
    ("message_size_octets 381", "message_size_octets"),
    ("n_adv_events_source 0", "n_adv_events_source"),
    ("retry_interval_ms 0", "retry_interval_ms"),
    ("extended maybe", "extended"),
    ("period_ms 0", "period_ms"),
    # 120,000 sends (40,000 iterations x 3 senders), all listed up front
    ("iterations 40000", "iterations"),
    # about 1.6e11 noise bursts over 159 s
    ("interference_rate_per_s 1e9", "interference_rate_per_s"),
    ("power_control on\npower_control.window 0", "power_control.window"),
    # the floor bounds the controlled power only while power control is on
    ("power_control on\ntx_power_dbm -30", "power_control.floor_dbm"),
])
def test_out_of_range_values_name_their_key(body, path):
    with pytest.raises(ConfigError, match=path):
        scn(body)


def test_power_control_config_validation():
    # a zero-length RSSI window and a floor above the maximum power are
    # rejected once power control is on
    with pytest.raises(ConfigError, match="power_control.window"):
        scn("power_control on", "power_control.window 0")
    with pytest.raises(ConfigError, match="power_control.floor_dbm"):
        scn("power_control on", "tx_power_dbm 0", "power_control.floor_dbm 5")


@pytest.mark.parametrize("body", [
    "interference_rate_per_s inf",
    "period_ms inf",
    "jitter_ms nan",
    "tx_power_dbm -inf",
    "scan_window_ms inf",
    "power_control.zeta_th_dbm nan",
])
def test_non_finite_values_rejected(body):
    # parse and validate only: a run with interference_rate_per_s inf would
    # never advance the noise schedule
    key = body.split()[0].replace(".", "_")
    with pytest.raises(ConfigError, match=f"{key}: must be finite"):
        scn(body)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.type.startswith("float")]


@pytest.mark.parametrize("name", FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_every_float_field_must_be_finite(name, value):
    with pytest.raises(ConfigError, match=f"{name}: must be finite"):
        dataclasses.replace(ScenarioConfig(), **{name: value})


def test_scenario_checked_once_per_load_and_run(monkeypatch):
    # construction is the one check: a run, its traffic expansion and an
    # unpickled copy (as run_many's workers get) do not repeat it
    calls = []
    inner = ScenarioConfig.problems

    def counted(self):
        calls.append(self)
        return inner(self)

    monkeypatch.setattr(ScenarioConfig, "problems", counted)
    cfg = scn("iterations 1")
    assert len(calls) == 1
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and len(calls) == 1
    run_experiment(load_bundled_topology("office_two_floor_20.topo"), copy, 1)
    assert len(calls) == 1


@pytest.mark.parametrize("body,path", [
    (("adv_interval_ms 0.0004",), "adv_interval_ms"),
    (("scan_interval_ms 0.0004", "scan_window_ms 0.0004"), "scan_interval_ms"),
    (("scan_window_ms 0.0004",), "scan_window_ms"),
    (("scan_interval_ms 30.0004",), "scan_window_ms"),  # interval - turnaround
    (("retry_interval_ms 0.0004",), "retry_interval_ms"),
    (("period_ms 0.0004",), "period_ms"),
    (("jitter_ms 0.0004",), "jitter_ms"),
    (("guard_s 0.0000004",), "guard_s"),
])
def test_times_rounding_below_one_us_rejected(body, path):
    with pytest.raises(ConfigError, match=f"{path}: .* rounds to less than 1 µs"):
        scn(*body)


def test_scan_window_defaults_to_interval_minus_turnaround():
    cfg = scn()
    assert cfg.scan_window_ms is None
    assert cfg.scan_window_resolved_ms == 1970.0
    assert scn("scan_interval_ms 500").scan_window_resolved_ms == 470.0


def test_explicit_scan_window_honored():
    cfg = scn("scan_window_ms 1000")
    assert cfg.scan_window_resolved_ms == 1000.0
    with pytest.raises(ConfigError, match="scan_window_ms"):
        scn("scan_window_ms 2500")


def test_turnaround_swallowing_whole_interval_rejected():
    with pytest.raises(ConfigError, match="scan_turnaround_ms"):
        scn("scan_interval_ms 25")


def test_one_to_many_needs_controller_and_slaves():
    with pytest.raises(ConfigError) as exc:
        scn("pattern one-to-many")
    assert "controller: required" in str(exc.value)
    assert "slaves: required" in str(exc.value)


def test_controller_cannot_be_slave():
    with pytest.raises(ConfigError, match="its own slave"):
        scn("pattern one-to-many", "controller c", "slaves c s1")


def test_controller_rejected_for_many_to_many():
    with pytest.raises(ConfigError, match="only apply to"):
        scn("controller c", "slaves s1")


def test_group_mode_rejected_for_many_to_many():
    with pytest.raises(ConfigError, match="unicast-acked only"):
        scn("mode group")


def test_overrides_replace_file_values():
    cfg = scn("adv_interval_ms 20", overrides=["adv_interval_ms=10",
                                               "scan_interval_ms=1000"])
    assert cfg.adv_interval_ms == 10.0
    assert cfg.scan_interval_ms == 1000.0


def test_override_form_validated():
    raw = read_scenario_document(HEADER + "\n")
    with pytest.raises(ConfigError, match="not of the form"):
        apply_overrides(raw, ["adv_interval_ms"])


def test_override_unknown_key_names_override():
    with pytest.raises(ConfigError, match="override bogus: unknown key"):
        scn(overrides=["bogus=1"])


@pytest.mark.parametrize("cfg", [
    ScenarioConfig(),
    ScenarioConfig(pattern="one-to-many", mode="group-acked-fixed",
                   controller="n01", slaves=("n05", "n08")),
    ScenarioConfig(senders=7, adv_interval_ms=10.0, scan_interval_ms=1000.0,
                   extended=True, power_control=True,
                   power_control_zeta_th_dbm=-80.0, relay_fraction=0.5),
    # every field off its default, so a field whose type or metadata the
    # derived key table misreads fails to round-trip
    ScenarioConfig(
        pattern="many-to-one", senders=5, mode="group-acked-fixed",
        message_size_octets=19, iterations=7, period_ms=500.0, jitter_ms=2.5,
        controller="n01", slaves=("n05", "n08"), adv_interval_ms=30.0,
        adv_delay_max_ms=5.0, scan_interval_ms=100.0, scan_window_ms=30.0,
        scan_turnaround_ms=10.0, tx_power_dbm=-4.0, n_adv_events_source=4,
        n_adv_events_relay=3, relay_buffer_cap=2, retry_interval_ms=150.0,
        retry_cap=3, default_ttl=5, relay_fraction=0.5, extended=True,
        guard_s=30.0, power_control=True, power_control_zeta_th_dbm=-80.0,
        power_control_margin_db=2.0, power_control_floor_dbm=-15.0,
        power_control_window=8, interference_rate_per_s=5.0,
        interference_power_dbm=-50.0),
    # below the power-control floor, which applies only with power control
    ScenarioConfig(tx_power_dbm=-30.0),
])
def test_document_round_trip(cfg):
    assert load_scenario(scenario_to_document(cfg)) == cfg


@pytest.mark.parametrize("name", [
    "mm3.scn", "mm7.scn", "mm3_seg19.scn", "mm3_legacy50.scn",
    "mm3_ext50.scn", "otm_unicast.scn", "otm_group.scn",
    "single_hop_group.scn",
])
def test_bundled_scenarios_load(name):
    cfg = load_scenario(bundled_data_path(name).read_text(encoding="utf-8"))
    assert cfg.iterations == 100


def test_bundled_mm3_fields():
    cfg = load_scenario(bundled_data_path("mm3.scn").read_text(encoding="utf-8"))
    assert (cfg.pattern, cfg.senders, cfg.message_size_octets) == \
        ("many-to-many", 3, 11)


# -------------------------------------------------------------------- schedule

def test_one_to_many_unicast_schedule():
    t = line_topology(4)
    cfg = ScenarioConfig(pattern="one-to-many", controller="x00",
                         slaves=("x01", "x02", "x03"), iterations=2,
                         period_ms=1000.0)
    sends = build_traffic(t, cfg, RandomSource(1).stream("traffic"))
    assert len(sends) == 6
    assert [s.time_us for s in sends] == [0, 0, 0, 1_000_000, 1_000_000, 1_000_000]
    assert all(s.source == "x00" for s in sends)
    assert [s.dst_node for s in sends[:3]] == ["x01", "x02", "x03"]
    assert [s.app_msg_id for s in sends] == [1, 2, 3, 4, 5, 6]
    assert all(s.group is None for s in sends)


def test_one_to_many_fourteen_slaves():
    t = line_topology(15)
    cfg = ScenarioConfig(pattern="one-to-many", controller="x00",
                         slaves=tuple(f"x{i:02d}" for i in range(1, 15)),
                         iterations=100)
    sends = build_traffic(t, cfg, RandomSource(1).stream("traffic"))
    assert len(sends) == 1400


def test_group_schedule_one_send_per_iteration():
    t = line_topology(4)
    cfg = ScenarioConfig(pattern="one-to-many", mode="group-acked-fixed",
                         controller="x00", slaves=("x01", "x02"), iterations=3)
    sends = build_traffic(t, cfg, RandomSource(1).stream("traffic"))
    assert len(sends) == 3
    assert all(s.group == GROUP_ADDRESS and s.dst_node is None for s in sends)


def test_many_to_one_is_alias_of_one_to_many():
    t = line_topology(4)
    kw = dict(controller="x00", slaves=("x01", "x02"), iterations=5)
    a = build_traffic(t, ScenarioConfig(pattern="one-to-many", **kw),
                      RandomSource(3).stream("traffic"))
    b = build_traffic(t, ScenarioConfig(pattern="many-to-one", **kw),
                      RandomSource(3).stream("traffic"))
    assert a == b


def test_scheduled_nodes_must_exist():
    t = line_topology(3)
    cfg = ScenarioConfig(pattern="one-to-many", controller="x00",
                         slaves=("x01", "zz"))
    with pytest.raises(ConfigError, match="'zz'"):
        build_traffic(t, cfg, RandomSource(1).stream("traffic"))


def test_many_to_many_rejects_single_hop_topology():
    t = line_topology(2)
    cfg = ScenarioConfig(senders=1, iterations=1)
    with pytest.raises(ConfigError, match="no pairs >= 2 hops"):
        build_traffic(t, cfg, RandomSource(1).stream("traffic"))


def test_many_to_many_rejects_too_many_senders():
    t = load_bundled_topology("office_two_floor_20.topo")
    cfg = ScenarioConfig(senders=11, iterations=1)
    with pytest.raises(ConfigError, match="needs 22 distinct nodes"):
        build_traffic(t, cfg, RandomSource(1).stream("traffic"))


def test_many_to_many_pairs_disjoint_and_distant():
    t = load_bundled_topology("office_two_floor_20.topo")
    cfg = ScenarioConfig(senders=7, iterations=20)
    sends = build_traffic(t, cfg, RandomSource(11).stream("traffic"))
    assert len(sends) == 140
    by_time: dict[int, list] = {}
    for s in sends:
        by_time.setdefault(s.time_us, []).append(s)
    assert len(by_time) == 20
    for batch in by_time.values():
        endpoints = [n for s in batch for n in (s.source, s.dst_node)]
        assert len(endpoints) == 14
        assert len(set(endpoints)) == 14
        for s in batch:
            assert hops(t, s.source, s.dst_node) >= 2


def test_schedule_is_deterministic_per_seed():
    t = load_bundled_topology("office_two_floor_20.topo")
    cfg = ScenarioConfig(senders=3, iterations=10)
    a = build_traffic(t, cfg, RandomSource(5).stream("traffic"))
    b = build_traffic(t, cfg, RandomSource(5).stream("traffic"))
    c = build_traffic(t, cfg, RandomSource(6).stream("traffic"))
    assert a == b
    assert a != c


def test_sends_are_plain_tuples():
    t = line_topology(4)
    cfg = ScenarioConfig(pattern="one-to-many", mode="group-acked-fixed",
                         controller="x00", slaves=("x01",), iterations=2)
    sends = build_traffic(t, cfg, RandomSource(1).stream("traffic"))
    assert sends == ((1, 0, "x00", None, GROUP_ADDRESS),
                     (2, 1_000_000, "x00", None, GROUP_ADDRESS))
    assert all(type(s) is ScheduledSend for s in sends)
    assert sends[1]._asdict()["time_us"] == 1_000_000


def test_jitter_past_the_period_reorders_whole_iterations():
    # iterations overlap, so later ones can start first; each keeps its
    # sends together and in slave order, and ids follow time
    t = line_topology(4)
    cfg = ScenarioConfig(pattern="one-to-many", controller="x00",
                         slaves=("x01", "x02", "x03"), iterations=30,
                         period_ms=10.0, jitter_ms=100.0)
    sends = build_traffic(t, cfg, RandomSource(4).stream("traffic"))
    assert [s.app_msg_id for s in sends] == list(range(1, 91))
    times = [s.time_us for s in sends]
    assert times == sorted(times)
    assert [s.dst_node for s in sends] == ["x01", "x02", "x03"] * 30
    assert times[::3] == times[1::3] == times[2::3]
    # uniform(0, jitter) truncated: the same offsets, in iteration order,
    # as the sorted starts
    rng = RandomSource(4).stream("traffic")
    assert times[::3] == sorted(10_000 * m + int(rng.uniform(0, 100_000))
                                for m in range(30))
    assert times[::3] != [10_000 * m for m in range(30)]


def test_schedules_of_bundled_scenarios_pinned():
    # every bundled scenario at seeds 1-12, also with iterations that
    # overlap, field by field; pinned while each send was a frozen dataclass
    # that also carried the scenario's message size as its last field
    out = []
    for scn in ("mm3.scn", "mm3_ext50.scn", "mm3_legacy50.scn", "mm3_seg19.scn",
                "mm7.scn", "otm_group.scn", "otm_unicast.scn",
                "single_hop_group.scn"):
        topo = load_bundled_topology(
            "office_single_floor_8.topo" if scn == "single_hop_group.scn"
            else "office_two_floor_20.topo")
        text = bundled_data_path(scn).read_text(encoding="utf-8")
        for overrides in ((), ("jitter_ms=2500",)):
            cfg = load_scenario(text, ["iterations=20", *overrides])
            for seed in range(1, 13):
                sends = build_traffic(topo, cfg, RandomSource(seed).stream("traffic"))
                out.append([(*s, cfg.message_size_octets) for s in sends])
    assert hashlib.sha256(repr(out).encode()).hexdigest() == \
        "1b8f668ca6caf0516102891c601b34550f03e65901232864b3110f5bdb6d1286"


def test_jitter_offsets_iterations_not_sends():
    t = load_bundled_topology("office_two_floor_20.topo")
    cfg = ScenarioConfig(senders=3, iterations=5, jitter_ms=5.0)
    sends = build_traffic(t, cfg, RandomSource(2).stream("traffic"))
    times = [s.time_us for s in sends]
    assert times == sorted(times)
    assert [s.app_msg_id for s in sends] == list(range(1, 16))
    by_iteration: dict[int, set[int]] = {}
    for s in sends:
        base = (s.time_us // 1_000_000) * 1_000_000
        assert 0 <= s.time_us - base < 5_000
        by_iteration.setdefault(base, set()).add(s.time_us)
    # one draw per iteration: concurrent sends stay simultaneous
    assert all(len(v) == 1 for v in by_iteration.values())
    assert len(by_iteration) == 5
    assert len({t % 1_000_000 for t in times}) > 1


def filtered_list_draw(eligible, k, rng):
    """Reference definition: each pick is uniform over the filtered pair list."""
    for _ in range(PAIR_DRAW_ATTEMPTS):
        used = set()
        chosen = []
        for _ in range(k):
            cand = [p for p in eligible if p[0] not in used and p[1] not in used]
            if not cand:
                break
            idx = min(int(rng.uniform(0, len(cand))), len(cand) - 1)
            chosen.append(cand[idx])
            used.update(cand[idx])
        if len(chosen) == k:
            return chosen
    raise ConfigError(
        f"could not draw {k} disjoint sender pairs with >= {MIN_PAIR_HOPS} "
        f"hops after {PAIR_DRAW_ATTEMPTS} attempts")


def draw_or_error(draw, rng):
    try:
        return draw(rng)
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(st.one_of(mixed_topologies(), split_topologies()),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**32))
def test_draw_disjoint_pairs_matches_filtered_list(t, min_hops, k, seed):
    eligible = oracle_eligible_pairs(t, min_hops)
    space = PairSpace(t, min_hops)
    ref_rng, rng = RandomSource(seed), RandomSource(seed)
    for _ in range(2):   # the space is reused across draws, as per iteration
        expected = draw_or_error(lambda r: filtered_list_draw(eligible, k, r), ref_rng)
        got = draw_or_error(lambda r: _draw_disjoint_pairs(space, k, r), rng)
        assert got == expected
        # the same number of draws was taken
        assert rng.getstate() == ref_rng.getstate()


def test_draw_disjoint_pairs_matches_filtered_list_on_bundled_pairs():
    t = load_bundled_topology("office_two_floor_20.topo")
    eligible = oracle_eligible_pairs(t, 2)
    space = PairSpace(t, 2)
    for seed in range(20):
        ref_rng, rng = RandomSource(seed), RandomSource(seed)
        for _ in range(5):
            assert _draw_disjoint_pairs(space, 7, rng) \
                == filtered_list_draw(eligible, 7, ref_rng)


def test_build_traffic_memory_does_not_grow_with_all_pairs():
    # 2 floors x 10 rows x 20 columns at 14 m: 400 nodes, about 150k
    # eligible ordered pairs, which a listed pair set would hold at once
    lines = ["meshsim-topology v1"]
    lines += [f"node g{f}-{r}-{c} {f} {14 * c} {14 * r}"
              for f in range(2) for r in range(10) for c in range(20)]
    t = load_topology("\n".join(lines))
    cfg = ScenarioConfig(senders=3, iterations=100)
    t.adjacency(cfg.tx_power_dbm)
    tracemalloc.start()
    try:
        sends = build_traffic(t, cfg, RandomSource(1).stream("traffic"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sends) == 300
    assert peak < 2_000_000


SCENARIO_VALUES = ["0", "-1", "1", "3", "0.0004", "1e400", "nan", "-inf", "on",
                   "off", "many-to-many(3)", "one-to-many", "group", "n01",
                   "9" * 5000, "#", "\u00e9", "\u2028"]


@st.composite
def scenario_texts(draw):
    """Lines of known or random keys with random values, mostly after the header."""
    lines = [draw(st.sampled_from([HEADER, HEADER, HEADER, "", "junk"]))]
    for _ in range(draw(st.integers(0, 8))):
        key = draw(st.one_of(st.sampled_from(sorted(_KEYS)), st.text(max_size=5)))
        values = draw(st.lists(st.one_of(st.sampled_from(SCENARIO_VALUES),
                                         st.text(max_size=5)), max_size=3))
        lines.append(" ".join([key, *values]))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), scenario_texts()),
       st.lists(st.text(max_size=12), max_size=2))
@example(HEADER + "\npattern many-to-many(" + "9" * 5000 + ")", [])
def test_any_scenario_text_loads_or_raises_config_error(text, overrides):
    try:
        load_scenario(text, overrides)
    except ConfigError:
        pass
