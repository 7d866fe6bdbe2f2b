import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshsim.topology
from meshsim.errors import ConfigError
from meshsim.topology import (
    DEFAULT_FLOOR_ATTENUATION_DB,
    UNREACHABLE,
    Topology,
    TopologyNode,
    flood_reaches_all,
    load_bundled_topology,
    load_topology,
)

HEADER = "meshsim-topology v1"


def topo(*body: str) -> Topology:
    return load_topology("\n".join([HEADER, *body]))


def test_header_required():
    with pytest.raises(ConfigError, match="line 1"):
        load_topology("node a 0 0 0\n")


def test_coordinate_loss_ten_meters():
    t = topo("node a 0 0 0", "node b 0 10 0")
    # 40 + 27 * log10(10)
    assert t.path_loss_db("a", "b") == pytest.approx(67.0)
    assert t.path_loss_db("b", "a") == pytest.approx(67.0)


def test_cross_floor_adds_height_and_attenuation():
    t = topo("node a 0 0 0", "node b 1 0 0")
    # 3 m vertical separation plus one 15 dB floor crossing
    assert t.path_loss_db("a", "b") == pytest.approx(40 + 27 * math.log10(3) + 15)
    assert t.floor_attenuation_db == DEFAULT_FLOOR_ATTENUATION_DB


def test_floor_attenuation_override():
    t = topo("floor-attenuation-db 25", "node a 0 0 0", "node b 1 0 0")
    assert t.path_loss_db("a", "b") == pytest.approx(40 + 27 * math.log10(3) + 25)


def test_matrix_form_minimal():
    t = topo("node a", "node b", "loss a b 60")
    assert t.path_loss_db("a", "b") == 60.0
    assert t.path_loss_db("b", "a") == 60.0


def test_symmetric_matrix_rows_accepted():
    t = topo("node a", "node b", "loss a b 60", "loss b a 60")
    assert t.path_loss_db("a", "b") == 60.0


def test_asymmetric_matrix_rejected_naming_pair():
    with pytest.raises(ConfigError, match=r"asymmetric pair a,b"):
        topo("node a", "node b", "loss a b 60", "loss b a 70")


def test_override_beats_coordinates():
    t = topo("node a 0 0 0", "node b 0 10 0", "loss a b 99")
    assert t.path_loss_db("a", "b") == 99.0


def test_all_problems_reported_at_once():
    doc = "\n".join([
        HEADER,
        "node a 0 0 0",
        "node a 0 1 0",          # duplicate id
        "gremlin 3",             # unknown directive
        "node b 0 zz 0",         # bad coordinate
        "loss a c 60",           # unknown node
        "loss a a 10",           # self loss
    ])
    with pytest.raises(ConfigError) as exc:
        load_topology(doc)
    msg = str(exc.value)
    assert "line 3: duplicate node 'a'" in msg
    assert "line 4: unknown directive 'gremlin'" in msg
    assert "line 5: bad coordinates for node 'b'" in msg
    assert "line 6: loss references unknown node 'c'" in msg
    assert "line 7: loss of node 'a' to itself" in msg


@pytest.mark.parametrize("line", [
    "node b 0 nan 0",
    "node b 0 0 inf",
    "node b 0 -inf 5",
    "floor-attenuation-db nan",
    "floor-attenuation-db inf",
    "loss a b nan",
    "loss a b inf",
])
def test_non_finite_values_rejected_naming_line(line):
    # a NaN loss would otherwise drop the link from the hop graph, since
    # NaN <= limit is False
    with pytest.raises(ConfigError, match=r"line 3: non-finite"):
        topo("node a 0 0 0", line, "node c 0 10 0")


def test_fewer_than_two_nodes_rejected():
    with pytest.raises(ConfigError, match="at least 2 nodes"):
        topo("node a 0 0 0")


def test_abstract_node_needs_loss_cover():
    with pytest.raises(ConfigError, match=r"pair \(a,b\) has no loss entry"):
        topo("node a 0 0 0", "node b")


def test_identical_positions_rejected():
    with pytest.raises(ConfigError, match="share the same position"):
        topo("node a 0 5 5", "node b 0 5 5")


def test_comments_and_blank_lines_ignored():
    t = topo("", "# layout", "node a 0 0 0   # corner", "node b 0 10 0")
    assert set(t.node_ids) == {"a", "b"}


def test_unknown_node_queries_rejected():
    t = topo("node a 0 0 0", "node b 0 10 0")
    with pytest.raises(ConfigError, match="unknown node 'z'"):
        t.path_loss_db("a", "z")
    with pytest.raises(ConfigError, match="unknown node"):
        t.hop_distance("z", "a")


def test_hop_distance_direct_link():
    t = topo("node a 0 0 0", "node b 0 10 0")
    assert t.hop_distance("a", "b") == 1
    assert t.hop_distance("a", "a") == 0


def test_hop_distance_relay_chain():
    # a-b spans 80 m (91.4 dB, past the edge limit); the midpoint bridges it
    t = topo("node a 0 0 0", "node r 0 40 0", "node b 0 80 0")
    assert t.hop_distance("a", "r") == 1
    assert t.hop_distance("a", "b") == 2


def test_hop_distance_unreachable_is_infinite():
    t = topo("node a", "node b", "loss a b 200")
    assert t.hop_distance("a", "b") == UNREACHABLE
    assert math.isinf(t.hop_distance("a", "b"))


def test_edge_rule_follows_tx_power():
    # loss 86 dB: no edge at 0 dBm (limit 85), edge at +2 dBm (limit 87)
    t = topo("node a", "node b", "loss a b 86")
    assert t.hop_distance("a", "b", tx_power_dbm=0.0) == UNREACHABLE
    assert t.hop_distance("a", "b", tx_power_dbm=2.0) == 1


def test_loss_map_symmetric_and_total():
    t = load_bundled_topology("office_two_floor_20.topo")
    m = t.loss_map()
    assert len(m) == 20 * 19
    for (a, b), v in m.items():
        assert m[(b, a)] == v


def test_bundled_two_floor_structure():
    t = load_bundled_topology("office_two_floor_20.topo")
    assert len(t.node_ids) == 20
    assert t.adjacency()["n01"] == ("n02", "n03", "n04", "n11")
    # the annex pair sits past the edge margin on every link
    assert t.adjacency()["n10"] == ()
    assert t.adjacency()["n20"] == ()
    assert math.isinf(t.hop_distance("n01", "n20"))
    # still audible: the best annex links stay under 96 dB
    assert t.path_loss_db("n09", "n10") < 90
    assert t.path_loss_db("n19", "n20") < 95
    hops = [t.hop_distance(a, b)
            for a, b in itertools.combinations(t.node_ids, 2)
            if a not in ("n10", "n20") and b not in ("n10", "n20")]
    assert max(hops) == 4
    assert t.hop_distance("n01", "n19") == 4
    assert len(t.eligible_pairs(2)) == 204


def test_bundled_single_floor_is_single_hop():
    t = load_bundled_topology("office_single_floor_8.topo")
    assert len(t.node_ids) == 8
    assert all(t.hop_distance(a, b) == 1
               for a, b in itertools.combinations(t.node_ids, 2))


def test_flood_reaches_all_line_topology():
    t = topo("node a 0 0 0", "node b 0 40 0", "node c 0 80 0")
    assert flood_reaches_all(t, {"a", "b", "c"})
    assert flood_reaches_all(t, {"b"})
    assert not flood_reaches_all(t, set())


def test_flood_reaches_all_bundled_subsets():
    t = load_bundled_topology("office_two_floor_20.topo")
    assert flood_reaches_all(t, set(t.node_ids))
    assert flood_reaches_all(t, set(t.node_ids[::2]))
    # annex nodes are outside every flood, so dropping them changes nothing
    assert flood_reaches_all(t, set(t.node_ids) - {"n10", "n20"})


def test_topology_node_placed_flag():
    assert TopologyNode("a", 0, 1.0, 2.0).placed
    assert not TopologyNode("a").placed


# ------------------------------------------------- reference oracles (set-up)
# The per-source spellings below are the definitions the component-based
# set-up in topology.py must reproduce.

def bfs(adj, src, forwarding=None):
    """Hop counts from src; with `forwarding`, only src and its members forward."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            if forwarding is not None and u != src and u not in forwarding:
                continue
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def oracle_eligible_pairs(t, min_hops):
    adj = t.adjacency()
    out = []
    for a in t.node_ids:
        dist = bfs(adj, a)
        for b in t.node_ids:
            d = dist.get(b)
            if b != a and d is not None and d >= min_hops:
                out.append((a, b))
    return tuple(out)


def oracle_flood_reaches_all(t, relays):
    adj = t.adjacency()
    return all(len(bfs(adj, src, relays)) == len(bfs(adj, src))
               for src in t.node_ids)


@st.composite
def split_topologies(draw):
    """Abstract nodes with `loss` lines, split into at least two components.

    Node ids are listed in a drawn order, so node_ids order differs from
    sorted order.  Links inside a group are drawn around the 85 dB edge
    limit; links across groups are never edges.
    """
    n = draw(st.integers(min_value=3, max_value=11))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    groups = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
                  .filter(lambda g: len(set(g)) >= 2))
    lines = [HEADER] + [f"node {name}" for name in names]
    for i, j in itertools.combinations(range(n), 2):
        loss = 120.0
        if groups[i] == groups[j]:
            loss = draw(st.sampled_from([60.0, 80.0, 85.0, 86.0, 100.0]))
        lines.append(f"loss {names[i]} {names[j]} {loss}")
    return load_topology("\n".join(lines))


@settings(max_examples=150, deadline=None)
@given(split_topologies(), st.integers(min_value=1, max_value=3))
def test_eligible_pairs_match_per_source_oracle(t, min_hops):
    assert t.eligible_pairs(min_hops) == oracle_eligible_pairs(t, min_hops)


@settings(max_examples=150, deadline=None)
@given(split_topologies(), st.data())
def test_flood_reaches_all_matches_per_source_oracle(t, data):
    relays = data.draw(st.sets(st.sampled_from(t.node_ids)))
    assert flood_reaches_all(t, relays) == oracle_flood_reaches_all(t, relays)


def test_pair_losses_computed_once(monkeypatch):
    calls = []
    real = meshsim.topology.path_loss_db

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(meshsim.topology, "path_loss_db", counting)
    t = load_bundled_topology("office_two_floor_20.topo")
    t.loss_map()
    t.adjacency(0.0)
    t.eligible_pairs()
    assert len(calls) == 20 * 19 // 2


def test_loss_map_is_read_only():
    t = load_bundled_topology("office_two_floor_20.topo")
    with pytest.raises(TypeError):
        t.loss_map()[("n01", "n02")] = 0.0
