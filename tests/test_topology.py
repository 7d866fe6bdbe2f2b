import itertools
import math
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meshsim.topology
from meshsim.errors import ConfigError
from meshsim.runner import run_experiment
from meshsim.scenario import load_scenario
from meshsim.topology import (
    DEFAULT_FLOOR_ATTENUATION_DB,
    FLOOR_HEIGHT_M,
    PairSpace,
    Topology,
    TopologyNode,
    _hops_from,
    bundled_data_path,
    flood_reaches_all,
    load_bundled_topology,
    load_topology,
)

HEADER = "meshsim-topology v1"


def topo(*body: str) -> Topology:
    return load_topology("\n".join([HEADER, *body]))


def loss_db(t: Topology, a: str, b: str) -> float:
    """The loss in dB from a to b, read from t's loss table."""
    index, table = t.loss_table()
    return table[index[a]][index[b]]


def hops(t: Topology, a: str, b: str, tx_power_dbm: float = 0.0) -> float:
    """Shortest hop count from a to b on t's hop graph; inf if unreachable."""
    return _hops_from(t.adjacency(tx_power_dbm), a).get(b, math.inf)


def test_header_required():
    with pytest.raises(ConfigError, match="line 1"):
        load_topology("node a 0 0 0\n")


def test_coordinate_loss_ten_meters():
    t = topo("node a 0 0 0", "node b 0 10 0")
    # 40 + 27 * log10(10)
    assert loss_db(t, "a", "b") == pytest.approx(67.0)
    assert loss_db(t, "b", "a") == pytest.approx(67.0)


def test_cross_floor_adds_height_and_attenuation():
    t = topo("node a 0 0 0", "node b 1 0 0")
    # 3 m vertical separation plus one 15 dB floor crossing
    assert loss_db(t, "a", "b") == pytest.approx(40 + 27 * math.log10(3) + 15)
    assert t.floor_attenuation_db == DEFAULT_FLOOR_ATTENUATION_DB


def test_pair_inside_reference_distance_gets_reference_loss():
    assert loss_db(topo("node a 0 0 0", "node b 0 0.5 0"), "a", "b") == 40.0
    assert loss_db(topo("node a 0 0 0", "node b 0 0 1e-7"), "a", "b") == 40.0


def test_path_loss_reference_points():
    def loss(d):
        return loss_db(Topology({"a": TopologyNode("a", 0, 0.0, 0.0),
                                 "b": TopologyNode("b", 0, d, 0.0)}), "a", "b")

    assert loss(1.0) == pytest.approx(40.0)
    assert loss(10.0) == pytest.approx(67.0)
    # inside the reference distance the loss stays at the reference loss
    assert loss(0.5) == 40.0
    assert loss(1e-7) == 40.0
    # load_topology rejects shared positions; a Topology built directly
    # meets the same rule in the loss pass
    with pytest.raises(ConfigError, match="share the same position"):
        loss(0.0)
    with pytest.raises(ConfigError, match="share the same position"):
        loss(-0.0)


def test_floor_attenuation_override():
    t = topo("floor-attenuation-db 25", "node a 0 0 0", "node b 1 0 0")
    assert loss_db(t, "a", "b") == pytest.approx(40 + 27 * math.log10(3) + 25)


def test_matrix_form_minimal():
    t = topo("node a", "node b", "loss a b 60")
    assert loss_db(t, "a", "b") == 60.0
    assert loss_db(t, "b", "a") == 60.0


def test_symmetric_matrix_rows_accepted():
    t = topo("node a", "node b", "loss a b 60", "loss b a 60")
    assert loss_db(t, "a", "b") == 60.0


def test_asymmetric_matrix_rejected_naming_pair():
    with pytest.raises(ConfigError, match=r"asymmetric pair a,b"):
        topo("node a", "node b", "loss a b 60", "loss b a 70")


def test_override_beats_coordinates():
    t = topo("node a 0 0 0", "node b 0 10 0", "loss a b 99")
    assert loss_db(t, "a", "b") == 99.0


def test_all_problems_reported_at_once():
    doc = "\n".join([
        HEADER,
        "node a 0 0 0",
        "node a 0 1 0",          # duplicate id
        "gremlin 3",             # unknown directive
        "node b 0 zz 0",         # bad coordinate
        "loss a c 60",           # unknown node
        "loss a a 10",           # self loss
        "floor-attenuation-db ten",  # bad attenuation
        "floor-attenuation-db 12",
        "floor-attenuation-db 14",   # duplicate attenuation
        "loss a b far",          # bad loss value
    ])
    with pytest.raises(ConfigError) as exc:
        load_topology(doc)
    msg = str(exc.value)
    assert "line 3: duplicate node 'a'" in msg
    assert "line 4: unknown directive 'gremlin'" in msg
    assert "line 5: bad coordinates for node 'b'" in msg
    assert "line 6: loss references unknown node 'c'" in msg
    assert "line 7: loss of node 'a' to itself" in msg
    assert "line 8: bad attenuation 'ten'" in msg
    assert "line 9:" not in msg
    assert "line 10: duplicate floor-attenuation-db" in msg
    assert "line 11: bad loss value 'far'" in msg


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


@pytest.mark.parametrize("line, problem", [
    ("node b " + "9" * 400 + " 0 0", "node 'b' outside"),
    ("node b -1000001 0 0", "node 'b' outside"),
    ("node b 0 1e308 0", "node 'b' outside"),
    ("node b 0 0 -1.000001e9", "node 'b' outside"),
    ("floor-attenuation-db 1e308", "attenuation '1e308' outside"),
], ids=["400-digit floor", "floor", "x", "y", "attenuation"])
def test_placement_beyond_bounds_rejected_naming_node(line, problem):
    # at such sizes a pair's loss overflows to inf or cannot become a float
    with pytest.raises(ConfigError, match=rf"line 3: {problem}"):
        topo("node a 0 0 0", line, "node c 1 10 0")


def test_pair_space_take_out_of_range():
    space = PairSpace(load_bundled_topology("office_two_floor_20.topo"))
    for pos in (-1, space.size):
        with pytest.raises(IndexError, match=f"pair {pos} of {space.size} free"):
            space.take(pos)
    space.take(0)
    with pytest.raises(IndexError):
        space.take(space.free)
    assert space.take(space.free - 1)


def test_placement_at_bounds_gives_finite_losses():
    t = topo("floor-attenuation-db -1e6", "node a -1000000 -1e9 1e9",
             "node b 1000000 1e9 -1e9")
    assert math.isfinite(loss_db(t, "a", "b"))


def test_fewer_than_two_nodes_rejected():
    with pytest.raises(ConfigError, match="at least 2 nodes"):
        topo("node a 0 0 0")


def test_abstract_node_needs_loss_cover():
    with pytest.raises(ConfigError, match=r"pair \(a,b\) has no loss entry"):
        topo("node a 0 0 0", "node b")
    # a Topology built directly meets the same rule in the loss pass
    for nodes, lack in (((TopologyNode("a"), TopologyNode("b", 0, 0.0, 0.0)), "one node"),
                        ((TopologyNode("a"), TopologyNode("b")), "both nodes")):
        t = Topology({n.node_id: n for n in nodes})
        with pytest.raises(ConfigError,
                           match=rf"^pair \(a,b\) has no loss entry and {lack} lack"):
            t.loss_table()


def test_identical_positions_rejected():
    with pytest.raises(ConfigError, match="share the same position"):
        topo("node a 0 5 5", "node b 0 5 5")


def test_comments_and_blank_lines_ignored():
    t = topo("", "# layout", "node a 0 0 0   # corner", "node b 0 10 0")
    assert set(t.node_ids) == {"a", "b"}


def test_hop_distance_direct_link():
    t = topo("node a 0 0 0", "node b 0 10 0")
    assert hops(t, "a", "b") == 1
    assert hops(t, "a", "a") == 0


def test_hop_distance_relay_chain():
    # a-b spans 80 m (91.4 dB, past the edge limit); the midpoint bridges it
    t = topo("node a 0 0 0", "node r 0 40 0", "node b 0 80 0")
    assert hops(t, "a", "r") == 1
    assert hops(t, "a", "b") == 2


def test_hop_distance_unreachable_is_infinite():
    t = topo("node a", "node b", "loss a b 200")
    assert hops(t, "a", "b") == math.inf
    assert math.isinf(hops(t, "a", "b"))


def test_edge_rule_follows_tx_power():
    # loss 86 dB: no edge at 0 dBm (limit 85), edge at +2 dBm (limit 87)
    t = topo("node a", "node b", "loss a b 86")
    assert hops(t, "a", "b", tx_power_dbm=0.0) == math.inf
    assert hops(t, "a", "b", tx_power_dbm=2.0) == 1


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
    assert math.isinf(hops(t, "n01", "n20"))
    # still audible: the best annex links stay under 96 dB
    assert loss_db(t, "n09", "n10") < 90
    assert loss_db(t, "n19", "n20") < 95
    counts = [hops(t, a, b)
              for a, b in itertools.combinations(t.node_ids, 2)
              if a not in ("n10", "n20") and b not in ("n10", "n20")]
    assert max(counts) == 4
    assert hops(t, "n01", "n19") == 4
    assert PairSpace(t, 2).size == 204


def test_bundled_single_floor_is_single_hop():
    t = load_bundled_topology("office_single_floor_8.topo")
    assert len(t.node_ids) == 8
    assert all(hops(t, a, b) == 1
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


@st.composite
def mixed_topologies(draw):
    """Placed and abstract nodes in several components.

    Placed nodes sit on a 25 m lattice in one of three clusters 10 km
    apart: lattice neighbours, diagonals included, are edges and nodes two
    cells apart are not, so a cluster spans up to five hops.  Each abstract
    node has a loss line to every other node, drawn around the 85 dB edge
    limit or far above it, so it may join clusters or stand alone.
    """
    n_placed = draw(st.integers(min_value=0, max_value=10))
    n_abstract = draw(st.integers(min_value=max(0, 2 - n_placed), max_value=4))
    cells = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 5),
                                    st.integers(0, 1)),
                          min_size=n_placed, max_size=n_placed, unique=True))
    names = draw(st.permutations([f"n{i}" for i in range(n_placed + n_abstract)]))
    placed, abstract = names[:n_placed], names[n_placed:]
    lines = [HEADER]
    for name, (cluster, i, j) in zip(placed, cells):
        lines.append(f"node {name} 0 {10_000 * cluster + 25 * i} {25 * j}")
    lines += [f"node {name}" for name in abstract]
    for i, a in enumerate(abstract):
        for b in placed + abstract[i + 1:]:
            loss = draw(st.sampled_from([60.0, 80.0, 85.0, 86.0, 120.0]))
            lines.append(f"loss {a} {b} {loss}")
    return load_topology("\n".join(lines))


def enumerate_pair_space(space):
    """Every pair of `space` in pair order: the pos-th free pair, nothing taken."""
    out = []
    for pos in range(space.size):
        space.clear()
        out.append(space.take(pos))
    space.clear()
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(st.one_of(split_topologies(), mixed_topologies()),
       st.integers(min_value=1, max_value=3))
def test_eligible_pairs_match_per_source_oracle(t, min_hops):
    space = PairSpace(t, min_hops)
    assert enumerate_pair_space(space) == oracle_eligible_pairs(t, min_hops)
    assert space.size == space.free == len(oracle_eligible_pairs(t, min_hops))


@settings(max_examples=150, deadline=None)
@given(split_topologies(), st.data())
def test_flood_reaches_all_matches_per_source_oracle(t, data):
    relays = data.draw(st.sets(st.sampled_from(t.node_ids)))
    assert flood_reaches_all(t, relays) == oracle_flood_reaches_all(t, relays)


def test_pair_losses_computed_once(monkeypatch):
    # the loss pass measures each placed pair's distance with math.hypot,
    # looked up when the pass starts
    calls = []
    real = math.hypot

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(meshsim.topology.math, "hypot", counting)
    t = load_bundled_topology("office_two_floor_20.topo")
    t.loss_map()
    t.adjacency(0.0)
    PairSpace(t)
    assert len(calls) == 20 * 19 // 2
    # a run reads the same table
    cfg = load_scenario(bundled_data_path("mm3.scn").read_text(encoding="utf-8"),
                        ["iterations=1"])
    run_experiment(t, cfg, 1)
    assert len(calls) == 20 * 19 // 2


@st.composite
def loss_table_topologies(draw):
    """mixed_topologies() built directly, on up to three floors, with some
    placed pairs given a loss line too."""
    t = draw(mixed_topologies())
    nodes = {a: TopologyNode(a, draw(st.integers(0, 2)), n.x, n.y) if n.placed else n
             for a, n in t.nodes.items()}
    overrides = dict(t.overrides)
    placed = [a for a, n in nodes.items() if n.placed]
    for a, b in itertools.combinations(placed, 2):
        if draw(st.booleans()):
            overrides[(min(a, b), max(a, b))] = draw(st.sampled_from([60.0, 85.0, 120.0]))
    return Topology(nodes, draw(st.sampled_from([0.0, 15.0, 25.5])), overrides)


@settings(max_examples=150, deadline=None)
@given(st.one_of(split_topologies(), loss_table_topologies()))
def test_loss_table_matches_per_pair_oracle(t):
    ids = t.node_ids
    index, table = t.loss_table()
    assert index == {a: i for i, a in enumerate(ids)}
    for a, i in index.items():
        assert len(table[i]) == len(ids) and table[i][i] == math.inf
        for b, j in index.items():
            if b != a:
                assert table[i][j] is table[j][i]   # one float per pair
                assert table[i][j] == oracle_pair_loss(t, a, b)
    for power in (-5.0, 0.0, 2.0):
        # the edge rule: mean RSSI clears the -90 dBm sensitivity by 5 dB
        assert dict(t.adjacency(power)) == {
            a: tuple(b for b in ids if b != a and oracle_pair_loss(t, a, b) <= power + 85.0)
            for a in ids}


def test_pickle_leaves_out_derived_tables():
    t = load_bundled_topology("office_two_floor_20.topo")
    size = len(pickle.dumps(t))
    index, table = t.loss_table()
    adjacency = dict(t.adjacency())
    t.adjacency(2.0)
    assert len(pickle.dumps(t)) == size
    copy = pickle.loads(pickle.dumps(t))
    copy_index, copy_table = copy.loss_table()
    assert copy_index == index
    assert [[v.hex() for v in row] for row in copy_table] == \
        [[v.hex() for v in row] for row in table]
    assert dict(copy.adjacency()) == adjacency


def test_loss_map_is_read_only():
    t = load_bundled_topology("office_two_floor_20.topo")
    with pytest.raises(TypeError):
        t.loss_map()[("n01", "n02")] = 0.0


# ----------------------------------------- reference oracles (checks, losses)
# The parent's all-pairs spellings: load_topology visits only the pairs that
# can fail a check, and loss_table() fills the table in one pass.

def oracle_pair_errors(nodes, overrides):
    errors = []
    ids = list(nodes)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if (min(a, b), max(a, b)) in overrides:
                continue
            na, nb = nodes[a], nodes[b]
            if not (na.placed and nb.placed):
                errors.append(
                    f"pair ({a},{b}) has no loss entry and "
                    f"{'both nodes lack' if not (na.placed or nb.placed) else 'one node lacks'}"
                    " coordinates")
            elif (na.floor, na.x, na.y) == (nb.floor, nb.x, nb.y):
                errors.append(f"nodes {a!r} and {b!r} share the same position")
    return errors


def oracle_pair_loss(t, a, b):
    key = (min(a, b), max(a, b))
    if key in t.overrides:
        return t.overrides[key]
    na, nb = t.nodes[a], t.nodes[b]
    dfloors = abs(na.floor - nb.floor)
    d = math.hypot(na.x - nb.x, na.y - nb.y, FLOOR_HEIGHT_M * dfloors)
    # the log-distance law as first written: 40 dB at the 1 m reference
    # distance, exponent 2.7
    path_loss = 40.0 + 10.0 * 2.7 * math.log10(max(d, 1.0) / 1.0)
    return path_loss + t.floor_attenuation_db * dfloors


@st.composite
def checked_documents(draw):
    """(document, nodes, overrides): abstract nodes, shared positions, partial loss lines.

    Positions come from a small set, spelled several ways ("-0" equals
    "0"), so nodes often share one.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    names = draw(st.permutations([f"n{i}" for i in range(n)]))
    lines, nodes = [HEADER], {}
    for name in names:
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(f"node {name}")
            nodes[name] = TopologyNode(name)
        else:
            floor = draw(st.integers(0, 1))
            x, y = (draw(st.sampled_from(["0", "-0", "0.5", "3", "3.0"]))
                    for _ in range(2))
            lines.append(f"node {name} {floor} {x} {y}")
            nodes[name] = TopologyNode(name, floor, float(x), float(y))
    overrides = {}
    for a, b in itertools.combinations(names, 2):
        if draw(st.booleans()):
            v = draw(st.sampled_from([60.0, 85.0, 100.0]))
            overrides[(min(a, b), max(a, b))] = v
            for _ in range(draw(st.integers(1, 2))):
                first, second = draw(st.permutations([a, b]))
                lines.append(f"loss {first} {second} {v}")
    return "\n".join(lines), nodes, overrides


@settings(max_examples=200, deadline=None)
@given(checked_documents())
def test_load_topology_checks_match_all_pairs_oracle(case):
    text, nodes, overrides = case
    errors = [] if len(nodes) >= 2 else [
        f"topology needs at least 2 nodes, found {len(nodes)}"]
    errors += oracle_pair_errors(nodes, overrides)
    if errors:
        with pytest.raises(ConfigError) as exc:
            load_topology(text)
        assert str(exc.value) == "invalid topology:\n  " + "\n  ".join(errors)
        return
    t = load_topology(text)
    index, table = t.loss_table()
    assert list(index) == list(t.node_ids)
    for a, i in index.items():
        assert len(table[i]) == len(index) and table[i][i] == math.inf
        for b, j in index.items():
            if b != a:
                assert table[i][j] == table[j][i] == oracle_pair_loss(t, a, b)


TOPOLOGY_TOKENS = ["node", "loss", "floor-attenuation-db", "a", "b", "c", "0",
                   "-0", "1", "3.5", "-2", "1e400", "nan", "-inf", "0x10", "1_0",
                   "9" * 5000, "#", "\u00e9", "\x0b", "\u2028", "1e308", "-1e308",
                   "9" * 400, "1000000", "1e9"]


@st.composite
def fuzz_lines(draw, header, tokens):
    """Text of random lines, mostly after a valid header."""
    first = draw(st.sampled_from([header, header, header, "", "junk"]))
    body = draw(st.lists(
        st.lists(st.one_of(st.sampled_from(tokens), st.text(max_size=5)),
                 max_size=6).map(" ".join), max_size=10))
    return "\n".join([first, *body])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), fuzz_lines(HEADER, TOPOLOGY_TOKENS)))
@example(HEADER + "\nnode a 0 0 0\nnode b " + "9" * 5000 + " 0 0")
@example(HEADER + "\nnode a 0 0 0\nnode b " + "9" * 400 + " 0 0")
@example(HEADER + "\nnode a 0 1e308 0\nnode b 0 -1e308 0")
@example(HEADER + "\nfloor-attenuation-db 1e308\nnode a 0 0 0\nnode b 2 0 0")
def test_any_topology_text_loads_or_raises_config_error(text):
    try:
        t = load_topology(text)
    except ConfigError:
        return
    _, table = t.loss_table()
    assert all(math.isfinite(v) for i, row in enumerate(table)
               for j, v in enumerate(row) if j != i)
