"""Topology documents: node placement, pairwise loss, and hop structure.

Format (UTF-8, line oriented, ``#`` comments)::

    meshsim-topology v1
    floor-attenuation-db 15        # optional, default 15
    node <id> <floor> <x> <y>      # coordinate node (meters)
    node <id>                      # abstract node, loss given explicitly
    loss <a> <b> <dB>              # pairwise override, symmetric

Coordinate pairs get log-distance path loss over the 3-D separation (floors
are 3 m apart; pairs closer than the 1 m reference distance get the
reference loss, as the law holds only in the far field) plus the per-floor
attenuation once per floor crossed.  Shadowing is added per frame by the
radio.  Any pair involving an abstract node must be covered by a ``loss``
line.

The losses live in one symmetric table indexed by node position,
``table[index[a]][index[b]]``, filled in a single pass over unordered pairs
the first time a loss is needed; both halves of a pair hold the same float,
and the diagonal holds ``inf``, so a filter on loss drops a node itself with
no test.  The hop graph, ``loss_map`` and the radio's ``Medium`` all read
that table; none copies it, and a pickled ``Topology`` leaves it out.
Loading checks only the pairs that can fail: those with an abstract node,
and nodes found sharing a position through a dict.

Sender pairs are never listed: a ``PairSpace`` counts them per source and
finds the pos-th pair that touches no taken node.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from importlib.resources import files
from types import MappingProxyType

from .errors import ConfigError
from .radio import PHY_1M

TOPOLOGY_HEADER = "meshsim-topology v1"
DEFAULT_FLOOR_ATTENUATION_DB = 15.0
FLOOR_HEIGHT_M = 3.0

# log-distance path loss: REF_LOSS_DB at the 1 m reference distance,
# rising by 10 * PATH_LOSS_EXPONENT dB per decade of distance beyond it
REF_LOSS_DB = 40.0
PATH_LOSS_EXPONENT = 2.7
_LOSS_PER_DECADE_DB = 10.0 * PATH_LOSS_EXPONENT

# connectivity-graph edge rule: mean RSSI at full power clears sensitivity
# by this margin (shadowing excluded)
EDGE_SENSITIVITY_DBM = PHY_1M.sensitivity_dbm
EDGE_MARGIN_DB = 5.0

# placement bounds far beyond any building; within them every pair's loss,
# path loss plus attenuation times floors crossed, is a finite float
MAX_ABS_FLOOR = 10**6
MAX_ABS_COORDINATE_M = 1e9
MAX_ABS_FLOOR_ATTENUATION_DB = 1e6


@dataclass(frozen=True)
class TopologyNode:
    node_id: str
    floor: int | None = None
    x: float | None = None
    y: float | None = None

    @property
    def placed(self) -> bool:
        return self.floor is not None


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _uncovered_pair(a: str, b: str, nodes: Mapping[str, TopologyNode]) -> str:
    """The problem with a pair that has no loss entry and an abstract node."""
    lack = "one node lacks" if nodes[a].placed or nodes[b].placed else "both nodes lack"
    return f"pair ({a},{b}) has no loss entry and {lack} coordinates"


class _PairView(Mapping):
    """Read-only view of a loss table keyed by ordered pairs (a, b), a != b."""

    __slots__ = ("_index", "_table")

    def __init__(self, index: dict[str, int], table: list[list[float]]):
        self._index = index
        self._table = table

    def __getitem__(self, key: tuple[str, str]) -> float:
        a, b = key
        if a == b:
            raise KeyError(key)
        index = self._index
        return self._table[index[a]][index[b]]

    def __iter__(self):
        for a in self._index:
            for b in self._index:
                if a != b:
                    yield a, b

    def __len__(self) -> int:
        n = len(self._index)
        return n * (n - 1)


class Topology:
    """Immutable node set with a total pairwise loss function."""

    def __init__(self, nodes, floor_attenuation_db=DEFAULT_FLOOR_ATTENUATION_DB,
                 overrides=None):
        self.nodes: dict[str, TopologyNode] = dict(nodes)
        self.floor_attenuation_db = float(floor_attenuation_db)
        self.overrides: dict[tuple[str, str], float] = dict(overrides or {})
        self._table: tuple[dict[str, int], list[list[float]]] | None = None
        self._adjacency: dict[float, dict[str, tuple[str, ...]]] = {}

    def __getstate__(self) -> dict:
        # the derived tables are rebuilt on demand, bit-identical
        state = self.__dict__.copy()
        state["_table"] = None
        state["_adjacency"] = {}
        return state

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(self.nodes)

    def loss_table(self) -> tuple[dict[str, int], list[list[float]]]:
        """(index, table): table[index[a]][index[b]] is the loss in dB from a to b.

        index maps each node id to its position in node_ids, and table[i]
        lists N losses in node_ids order, inf at i itself.  The table is
        symmetric, built once and shared with every caller, who must not
        change it.  A pair with an abstract node and no loss entry raises
        ConfigError.
        """
        if self._table is None:
            over: dict[str, dict[str, float]] = {}
            for (a, b), v in self.overrides.items():
                over.setdefault(a, {})[b] = v
                over.setdefault(b, {})[a] = v
            n = len(self.nodes)
            index = {a: i for i, a in enumerate(self.nodes)}
            table = [[math.inf] * n for _ in range(n)]
            att = self.floor_attenuation_db
            hypot, log10 = math.hypot, math.log10
            # per node, in node_ids order: (id, floor, x, y, row)
            info = [(a, nd.floor, nd.x, nd.y, row)
                    for (a, nd), row in zip(self.nodes.items(), table)]
            for i, (a, fa, xa, ya, row) in enumerate(info):
                fixed = over.get(a, {})
                for j, (b, fb, xb, yb, row_b) in enumerate(info[i + 1:], i + 1):
                    v = fixed.get(b)
                    if v is None:
                        try:
                            dfloors = abs(fa - fb)
                        except TypeError:   # an abstract node: floor is None
                            raise ConfigError(
                                _uncovered_pair(a, b, self.nodes)) from None
                        d = hypot(xa - xb, ya - yb, FLOOR_HEIGHT_M * dfloors)
                        if d < 1.0:
                            if d <= 0:
                                raise ConfigError(
                                    f"nodes {a!r} and {b!r} share the same position")
                            d = 1.0
                        # log10(d / 1 m) is log10(d) for d in metres
                        v = REF_LOSS_DB + _LOSS_PER_DECADE_DB * log10(d) + att * dfloors
                    row[j] = row_b[i] = v
            self._table = index, table
        return self._table

    def loss_map(self) -> Mapping[tuple[str, str], float]:
        """Loss for every ordered pair of distinct nodes; a read-only view of loss_table()."""
        return _PairView(*self.loss_table())

    def adjacency(self, tx_power_dbm: float = 0.0) -> Mapping[str, tuple[str, ...]]:
        """Hop-graph neighbours of every node; built once per power, read-only."""
        neigh = self._adjacency.get(tx_power_dbm)
        if neigh is None:
            limit = tx_power_dbm - (EDGE_SENSITIVITY_DBM + EDGE_MARGIN_DB)
            ids = self.node_ids
            neigh = self._adjacency[tx_power_dbm] = {
                a: tuple([b for b, v in zip(ids, row) if v <= limit])
                for a, row in zip(ids, self.loss_table()[1])}
        return MappingProxyType(neigh)


def _hops_from(adj: Mapping[str, tuple[str, ...]], src: str,
               forwarding: set[str] | None = None,
               depth: int | None = None) -> dict[str, int]:
    """Breadth-first hop counts from src to every node a flood reaches.

    With `forwarding` given, only src and its members pass the flood on;
    other nodes are reached but forward nothing.  With `depth` given, the
    search stops at nodes `depth` hops out, so only nodes within that many
    hops are returned (depth <= 0 returns src alone).
    """
    dist = {src: 0}
    frontier = [src]
    hops = 0
    while frontier and (depth is None or hops < depth):
        hops += 1
        nxt: list[str] = []
        for u in frontier:
            if forwarding is not None and u != src and u not in forwarding:
                continue
            for v in adj[u]:
                if v not in dist:
                    dist[v] = hops
                    nxt.append(v)
        frontier = nxt
    return dist


class PairSpace:
    """Ordered (src, dst) pairs at least min_hops apart and reachable, unlisted.

    dst lies in src's connected component but not "near" it, within
    min_hops - 1 hops (src included); nearness is symmetric, as the
    adjacency is.  Pairs run by src, then dst, in node_ids order.  take(pos)
    returns the pos-th free pair, one touching no taken node, and takes its
    nodes; `free` counts the free pairs and clear() frees every node.  An
    untaken source's free pairs are its pairs, less the taken nodes of its
    component, plus the taken nodes near it (never its pairs), so a pick
    walks the sources with O(1) work each, then the chosen source's
    component.
    """

    def __init__(self, topology: Topology, min_hops: int = 2,
                 tx_power_dbm: float = 0.0):
        adj = topology.adjacency(tx_power_dbm)
        # per component: its members in node_ids order
        self._members: list[list[str]] = []
        comp: dict[str, int] = {}
        for a in topology.node_ids:
            if a not in comp:
                comp.update(dict.fromkeys(_hops_from(adj, a), len(self._members)))
                self._members.append([])
            self._members[comp[a]].append(a)
        # per node: the nodes near it, as hop counts
        self._near = {a: _hops_from(adj, a, depth=min_hops - 1)
                      for a in topology.node_ids}
        # per source, in node_ids order: (component, pairs from it)
        self._sources = {
            a: (comp[a], len(self._members[comp[a]]) - len(self._near[a]))
            for a in topology.node_ids}
        self.size = sum(n for _, n in self._sources.values())
        self.clear()

    def clear(self) -> None:
        self._taken: set[str] = set()
        self._comp_taken = [0] * len(self._members)
        self._near_taken: dict[str, int] = {}
        self.free = self.size

    def _take(self, a: str) -> None:
        c, n = self._sources[a]
        # the free pairs touching a: those from a and, by symmetry, as many to a
        self.free -= 2 * (n - self._comp_taken[c] + self._near_taken.get(a, 0))
        self._taken.add(a)
        self._comp_taken[c] += 1
        near_taken = self._near_taken
        for b in self._near[a]:
            near_taken[b] = near_taken.get(b, 0) + 1

    def take(self, pos: int) -> tuple[str, str]:
        """The pos-th free pair in pair order; both its nodes become taken."""
        if not 0 <= pos < self.free:
            raise IndexError(f"pair {pos} of {self.free} free pairs")
        taken, comp_taken, near_taken = self._taken, self._comp_taken, self._near_taken
        for src, (c, n) in self._sources.items():
            if src in taken:
                continue
            k = n - comp_taken[c] + near_taken.get(src, 0)
            if pos < k:
                break
            pos -= k
        near = self._near[src]
        for dst in self._members[c]:
            if dst not in near and dst not in taken:
                if pos == 0:
                    break
                pos -= 1
        self._take(src)
        self._take(dst)
        return src, dst


def flood_reaches_all(topology: Topology, relays: set[str],
                      tx_power_dbm: float = 0.0) -> bool:
    """True when `relays` preserve the coverage an all-relay flood achieves.

    Sources always transmit their own messages, so the origin forwards
    regardless of relay membership.  Nodes that no flood reaches even with
    every node forwarding do not count against the subset.

    An all-relay flood reaches exactly the source's connected component, so
    each component is checked on its own.  Call a connected component of the
    relay-only subgraph a relay cluster.  A flood from src reaches src, its
    neighbours, and every relay cluster that contains src or one of its
    neighbours, together with that cluster's neighbours.  From a relay r
    that is just r's cluster C and C's neighbours.  So if the component
    holds two clusters, a flood from one misses the other; if it holds one
    cluster C, every source reaches the whole component exactly when C and
    its neighbours make up the component, since every other source then
    neighbours C.  One flood from any relay of the component decides both.
    A component without relays is covered only when every node hears every
    other directly.
    """
    adj = topology.adjacency(tx_power_dbm)
    done: set[str] = set()
    for src in topology.node_ids:
        if src in done:
            continue
        component = _hops_from(adj, src)
        done.update(component)
        relay = next((n for n in component if n in relays), None)
        if relay is None:
            if any(len(adj[n]) != len(component) - 1 for n in component):
                return False
        elif len(_hops_from(adj, relay, relays)) != len(component):
            return False
    return True


def document_lines(text: str, header: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each non-blank line after the header line.

    ``#`` starts a comment; a first line other than `header` raises ConfigError.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ConfigError(f"line 1: first line must be {header!r}")
    out = []
    for no, raw in enumerate(lines[1:], start=2):
        tok = raw.split("#", 1)[0].split()
        if tok:
            out.append((no, tok))
    return out


def load_topology(text: str) -> Topology:
    """Parse a topology document, reporting every problem found."""
    errors: list[str] = []
    nodes: dict[str, TopologyNode] = {}
    att: float | None = None
    loss_entries: list[tuple[str, str, float, int]] = []

    for no, tok in document_lines(text, TOPOLOGY_HEADER):
        if tok[0] == "floor-attenuation-db":
            if len(tok) != 2:
                errors.append(f"line {no}: floor-attenuation-db takes one value")
                continue
            if att is not None:
                errors.append(f"line {no}: duplicate floor-attenuation-db")
                continue
            try:
                att = float(tok[1])
            except ValueError:
                errors.append(f"line {no}: bad attenuation {tok[1]!r}")
                continue
            if not math.isfinite(att):
                errors.append(f"line {no}: non-finite attenuation {tok[1]!r}")
            elif abs(att) > MAX_ABS_FLOOR_ATTENUATION_DB:
                errors.append(f"line {no}: attenuation {tok[1]!r} outside "
                              f"±{MAX_ABS_FLOOR_ATTENUATION_DB:g} dB")
        elif tok[0] == "node":
            if len(tok) not in (2, 5):
                errors.append(
                    f"line {no}: node takes <id> or <id> <floor> <x> <y>")
                continue
            nid = tok[1]
            if nid in nodes:
                errors.append(f"line {no}: duplicate node {nid!r}")
                continue
            if len(tok) == 2:
                nodes[nid] = TopologyNode(nid)
                continue
            try:
                floor = int(tok[2])
                x, y = float(tok[3]), float(tok[4])
            except ValueError:
                errors.append(f"line {no}: bad coordinates for node {nid!r}")
                continue
            if not (math.isfinite(x) and math.isfinite(y)):
                errors.append(f"line {no}: non-finite coordinates for node {nid!r}")
                continue
            if abs(floor) > MAX_ABS_FLOOR or max(abs(x), abs(y)) > MAX_ABS_COORDINATE_M:
                errors.append(f"line {no}: node {nid!r} outside ±{MAX_ABS_FLOOR} "
                              f"floors or ±{MAX_ABS_COORDINATE_M:g} m")
                continue
            nodes[nid] = TopologyNode(nid, floor, x, y)
        elif tok[0] == "loss":
            if len(tok) != 4:
                errors.append(f"line {no}: loss takes <a> <b> <dB>")
                continue
            try:
                val = float(tok[3])
            except ValueError:
                errors.append(f"line {no}: bad loss value {tok[3]!r}")
                continue
            if not math.isfinite(val):
                errors.append(f"line {no}: non-finite loss value {tok[3]!r}")
                continue
            loss_entries.append((tok[1], tok[2], val, no))
        else:
            errors.append(f"line {no}: unknown directive {tok[0]!r}")

    overrides: dict[tuple[str, str], float] = {}
    first_line: dict[tuple[str, str], int] = {}
    for a, b, val, no in loss_entries:
        if a == b:
            errors.append(f"line {no}: loss of node {a!r} to itself")
            continue
        missing = [n for n in (a, b) if n not in nodes]
        if missing:
            errors.append(
                f"line {no}: loss references unknown node"
                f" {', '.join(repr(m) for m in missing)}")
            continue
        key = _pair(a, b)
        if key in overrides:
            if overrides[key] != val:
                errors.append(
                    f"line {no}: loss({a},{b})={val} conflicts with "
                    f"line {first_line[key]} (asymmetric pair {key[0]},{key[1]})")
            continue
        overrides[key] = val
        first_line[key] = no

    if len(nodes) < 2:
        errors.append(f"topology needs at least 2 nodes, found {len(nodes)}")

    # a pair needs a loss line when a node lacks coordinates, and distinct
    # positions otherwise; only pairs that can break either rule are
    # visited, (i, j) being the nodes' order in the document
    ids = list(nodes)
    suspects: set[tuple[int, int]] = set()
    at: dict[tuple[int, float, float], list[int]] = {}
    for i, n in enumerate(nodes.values()):
        if n.placed:
            at.setdefault((n.floor, n.x, n.y), []).append(i)
        else:
            suspects.update((min(i, j), max(i, j))
                            for j in range(len(ids)) if j != i)
    for group in at.values():
        suspects.update(itertools.combinations(group, 2))
    for i, j in sorted(suspects):
        a, b = ids[i], ids[j]
        if _pair(a, b) in overrides:
            continue
        if not (nodes[a].placed and nodes[b].placed):
            errors.append(_uncovered_pair(a, b, nodes))
        else:
            errors.append(f"nodes {a!r} and {b!r} share the same position")

    if errors:
        raise ConfigError("invalid topology:\n  " + "\n  ".join(errors))
    return Topology(nodes, att if att is not None else DEFAULT_FLOOR_ATTENUATION_DB,
                    overrides)


def bundled_data_path(name: str):
    return files("meshsim").joinpath("data", name)


def load_bundled_topology(name: str) -> Topology:
    return load_topology(bundled_data_path(name).read_text(encoding="utf-8"))
