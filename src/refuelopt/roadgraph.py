"""Road network routing substrate.

A small built-in router (Dijkstra by travel time with a deterministic
lexicographic tie-break on the node sequence) stands in for an external
engine.

A `RoadGraph` is fixed when built: it checks its node and edge rows, then
holds them in out-edge lists by node rank (the position in sorted id
order). Its in-edge lists, each entering edge reversed, and unit vectors
are built on first use, and it remembers every snap by (lat, lon);
`scenario.load_scenarios` snaps the whole station catalogue once, so no run
snaps a station again. On a twin-edge graph, where every road has a twin
of equal length and time listed in the same order (as `generate_city` and
`save_road_graph` write them), the reversed in-edges are the out-edges, and
the graph keeps one edge table.

A `BuiltinRouter` memoises every route it returns and runs one resumable
search both ways: over the out-edges from each one-stop start node (every
departure -> stop leg; it settles only as far as the farthest stop asked
for), and over the reversed in-edges into each destination (every stop ->
first waypoint leg, and the waypoint tail). A reverse-search path is used
only when a certificate shows that no other path comes within rounding of
it, which makes it the path the forward search returns; otherwise a
forward search runs. On a twin-edge graph the search into a node is the
search out of it, so the router runs one search per node. The harness
builds one router per scenario run.

Snapping screens by unit-vector dot products, the edges' geodesic check
and corridor filtering by numpy distances (the corridor in one pass of
segments x points, in bounded blocks); the scalar `geo` functions decide
every close call, so they return exactly what a scalar scan returns.
"""

from __future__ import annotations

import heapq
import math
import numbers
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import errors
from .geo import (haversine_m, haversine_m_array, point_polyline_distance_m,
                  point_segment_distance_m_array, valid_coords)
from .tables import read_table, row_line, write_table

NODES_HEADER = ["id", "lat", "lon"]
EDGES_HEADER = ["from", "to", "length_m", "time_s"]

DEFAULT_CORRIDOR_RADIUS_M = 2000.0

# Screening margins: numpy's sin/cos/arcsin may differ from libm's in the
# last bits, far less than these, so every point or edge the scalar functions
# could decide differently from the screen is re-checked with them.
EDGE_MARGIN_M = 1e-6
EDGE_MARGIN_REL = 1e-9
CORRIDOR_MARGIN_M = 1e-3
# Snapping keeps every node whose dot product with the point is within this
# of the largest. The exact dot of two unit vectors falls as their distance
# rises. Each computed unit-vector coordinate is within a few ulps of its
# value, so a computed dot is within about 1e-15 of the exact one, and
# `haversine_m` is within nanometres of the exact distance, which moves the
# dot by under 1e-14 at any range: the node the scalar scan of every node
# picks is always kept. The margin keeps the nodes whose squared distance is
# within about 81 m² of the nearest node's.
SNAP_DOT_MARGIN = 1e-12
# Elements per numpy screening block (points x nodes, segments x points),
# which bounds each temporary array at 64 kB.
SCREEN_BLOCK = 1 << 13
# Certificate margin of a reverse-search path, in seconds. An
# n-edge float path sum is within about n * 2**-53 of its value, relative,
# so 1e-9 of the path cost covers paths of millions of edges; the absolute
# term keeps a margin on paths of near-zero cost.
CERTIFY_MARGIN_REL = 1e-9
CERTIFY_MARGIN_ABS = 1e-9


@dataclass(frozen=True)
class Route:
    nodes: tuple[str, ...]
    distance_km: float
    time_s: float

    def polyline(self, graph: "RoadGraph") -> list[tuple[float, float]]:
        return [graph.nodes[n] for n in self.nodes]


class BadRow(ValueError):
    """A bad node or edge row; `index` is its position in the rows of
    `table` ("nodes" or "edges") given to `RoadGraph`."""

    def __init__(self, table: str, index: int, message: str):
        super().__init__(message)
        self.table = table
        self.index = index


Edge = tuple[int, int, float, float]  # (rank left, rank reached, length_m, time_s)


class RoadGraph:
    """A road network, fixed when built.

    `nodes` maps each id to its (lat, lon), in row order; `ids` holds the
    ids sorted and `rank` each id's position in `ids`. `out_edges[u]` holds
    the edges (u, v, length_m, time_s) leaving rank u and `in_edges[v]` the
    edges entering v, each reversed as (v, u, length_m, time_s), so an
    edge's second rank is always the node it reaches; parallel edges keep
    row order in both. On a twin-edge graph `in_edges` is `out_edges`.
    Ranks follow the sorted ids, so the searches index lists, not
    string-keyed dicts.
    """

    def __init__(self, nodes: Sequence[tuple[str, float, float]],
                 edges: Sequence[tuple[str, str, float, float]]):
        """Build from (id, lat, lon) node rows and (from, to, length_m,
        time_s) edge rows.

        The first bad row decides the error, node rows first. A node row is
        a BadRow if its id came before or its coordinates are invalid. An
        edge row is a BadRow if it names an unknown node, or if its length
        or time is not finite and positive or its length is under 0.999 of
        the geodesic (TypeError if one is not a real number). A numpy
        haversine over every edge row screens that bound; `haversine_m`
        decides each row within the edge margin of it.
        """
        self.nodes: dict[str, tuple[float, float]] = {}
        for i, (node_id, lat, lon) in enumerate(nodes):
            if node_id in self.nodes:
                raise BadRow("nodes", i, f"node {node_id} defined twice")
            if not valid_coords(lat, lon):
                raise BadRow("nodes", i, f"invalid coordinates for node {node_id}")
            self.nodes[node_id] = (lat, lon)
        self.ids = sorted(self.nodes)
        self.rank = dict(zip(self.ids, range(len(self.ids))))
        out: list[list[Edge]] = [[] for _ in self.ids]
        for u, v, (_, _, length_m, time_s) in zip(*self._checked_ends(edges), edges):
            out[u].append((u, v, length_m, time_s))
        self.out_edges = [tuple(leaving) for leaving in out]
        # Every snap so far: (lat, lon) -> (node id, meters).
        self._snaps: dict[tuple[float, float], tuple[str, float]] = {}

    def _checked_ends(self, rows: Sequence[tuple[str, str, float, float]]) -> list[list[int]]:
        """The from and to ranks of every edge row, once every row passes."""
        nodes, rank = self.nodes, self.rank
        ends = np.array([[rank.get(row[0], -1) for row in rows],
                         [rank.get(row[1], -1) for row in rows]], dtype=int).reshape(2, -1)
        unknown = (ends < 0).any(axis=0)
        # Only the rows before the first one with an unknown node have values to check.
        dangling = int(unknown.argmax()) if unknown.any() else len(rows)
        checked = rows[:dangling]
        coords = np.array([nodes[n] for n in self.ids], dtype=float).reshape(-1, 2)
        # Indexed by (end, row, lat/lon); transposed to (end, lat/lon, row).
        (lat1, lon1), (lat2, lon2) = coords[ends[:, :dangling]].transpose(0, 2, 1)
        lengths, times = [row[2] for row in checked], [row[3] for row in checked]
        # numpy would read "5" as 5.0 and None as NaN; a comparison refuses both.
        if not all(issubclass(kind, numbers.Real) for kind in {*map(type, lengths),
                                                               *map(type, times)}):
            raise TypeError("edge lengths and times must be real numbers")
        length, time = np.array(lengths, dtype=float), np.array(times, dtype=float)
        bound = haversine_m_array(lat1, lon1, lat2, lon2) * 0.999
        short = length < bound
        for i in np.flatnonzero(np.abs(length - bound)
                                <= EDGE_MARGIN_M + EDGE_MARGIN_REL * bound).tolist():
            src, dst, length_m, _ = checked[i]
            short[i] = length_m < haversine_m(*nodes[src], *nodes[dst]) * 0.999
        # Each check's pass mask and its message, in the order a row is checked.
        rule = ((~((length <= 0) | (time <= 0)), "must have positive length and time"),
                (~short, "shorter than the geodesic ({0:.1f} m < {2:.1f} m)"),
                (np.isfinite(length) & np.isfinite(time),
                 "must have finite length and time, got {0} m and {1} s"))
        ok = np.logical_and.reduce([passes for passes, _ in rule])
        if not ok.all():
            i = int(ok.argmin())
            src, dst, length_m, time_s = checked[i]
            message = next(message for passes, message in rule if not passes[i])
            geo = haversine_m(*nodes[src], *nodes[dst])
            raise BadRow("edges", i, f"edge {src}->{dst} " + message.format(length_m, time_s, geo))
        if dangling < len(rows):
            src, dst, _, _ = rows[dangling]
            raise BadRow("edges", dangling, f"edge {src}->{dst} references unknown node")
        return ends.tolist()

    @cached_property
    def in_edges(self) -> list[tuple[Edge, ...]]:
        """The edges entering each rank, reversed, built on first use, by
        the rank they leave, parallel edges in row order.

        On a twin-edge graph these lists equal the out-edge lists, tuple for
        tuple, and the out-edge table itself is returned: one table, so a
        search into a node and a search out of it are the same search.
        """
        into: list[list[Edge]] = [[] for _ in self.ids]
        for edges in self.out_edges:
            for u, v, length_m, time_s in edges:
                into[v].append((v, u, length_m, time_s))
        reversed_edges = [tuple(edges) for edges in into]
        return self.out_edges if reversed_edges == self.out_edges else reversed_edges

    @cached_property
    def _units(self) -> np.ndarray:
        """The nodes' unit vectors' coordinates as three rows, by rank;
        built on the first snap."""
        return _unit_vectors(np.array([self.nodes[n] for n in self.ids]))

    def nearest_node(self, lat: float, lon: float) -> tuple[str, float]:
        """Snap a coordinate to the closest graph node; returns (id, meters).

        Equal distances go to the smallest id. ValueError for an empty
        graph or invalid coordinates. See `nearest_nodes`.
        """
        return self.nearest_nodes([(lat, lon)])[0]

    def nearest_nodes(self, points: Sequence[tuple[float, float]]) -> list[tuple[str, float]]:
        """`nearest_node` of every (lat, lon) point, in order.

        Each snap is remembered for the graph's life. A new point is
        screened by the dot product of its unit vector with every node's;
        `haversine_m` then decides, in id order, among the nodes within
        `SNAP_DOT_MARGIN` of the largest dot, which gives the scan of every
        node in id order.
        """
        if not self.nodes:
            raise ValueError("empty graph")
        snaps = self._snaps
        new = [point for point in dict.fromkeys(points) if point not in snaps]
        for lat, lon in new:
            if not valid_coords(lat, lon):
                raise ValueError(f"invalid coordinates ({lat}, {lon})")
        if new:
            self._screen(new)
        return [snaps[point] for point in points]

    def _screen(self, points: list[tuple[float, float]]) -> None:
        """Snap valid points not snapped yet, in blocks of `SCREEN_BLOCK`."""
        ids, units = self.ids, self._units
        nodes, snaps = self.nodes, self._snaps
        queries = _unit_vectors(np.array(points, dtype=float))
        step = max(1, SCREEN_BLOCK // len(ids))
        for start in range(0, len(points), step):
            # einsum's own loops, not a matrix product: BLAS would add its
            # buffers to the process's memory for one small product per block.
            dots = np.einsum("ij,ik->jk", queries[:, start:start + step], units)
            near = np.flatnonzero(dots >= dots.max(axis=1, keepdims=True) - SNAP_DOT_MARGIN)
            # Row-major: each point's kept nodes in id order.
            for row, i in zip(*(part.tolist() for part in divmod(near, len(ids)))):
                point = points[start + row]
                d = haversine_m(*point, *nodes[ids[i]])
                if point not in snaps or d < snaps[point][1]:
                    snaps[point] = (ids[i], d)


def _unit_vectors(coords: np.ndarray) -> np.ndarray:
    """(lat, lon) rows in degrees -> the rows cos φ cos λ, cos φ sin λ and
    sin φ of their unit vectors."""
    phi, lam = np.radians(coords).T
    cos_phi = np.cos(phi)
    return np.stack([cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)])


class BuiltinRouter:
    """Dijkstra router over a RoadGraph, minimising travel time.

    Among equal-time paths the lexicographically smallest node sequence
    wins, which makes results reproducible across runs and platforms; of
    parallel edges, a path uses the first fastest one in row order.
    A route's distance and time are summed along its path from 0.0, in path
    order.

    One resumable search, `_Search`, runs both ways: over the out-edges
    from each one-stop start node, and over the reversed in-edges into each
    destination. Each is kept for the router's life and resumed only until
    the node asked for is settled; every route is memoised by (src, dst).
    On a twin-edge graph (`graph.in_edges is graph.out_edges`) the two
    directions share one dict of searches, one per node: a node's search
    serves the legs out of it and the legs into it.
    A leg from a start node reads its forward search's path. A leg whose
    source has no forward search resumes the destination's reverse search
    until the source is settled, then walks the successor chain. The chain
    is taken only if, at each node u on it, every out-edge (u, w) that
    leaves the chain costs more than `CERTIFY_MARGIN_REL * d(src) +
    CERTIFY_MARGIN_ABS` over the chain: `time(u, w) + d(w) - d(u)`, with
    d(w) bounded below by the last settled cost while w is unsettled. No
    other path then sums to within rounding of the chain, forward or in
    reverse, so the forward search would return the chain too, and the
    reverse relaxation kept the forward rule's parallel edge. Otherwise, or
    when the source cannot reach the destination, a fresh forward search
    runs to the destination and `fallbacks` counts it.

    The searches run on node ranks; ranks follow the sorted ids, so
    ordering by (cost, rank) or by rank tuples breaks ties as the ids do.
    Routes name nodes by id.
    """

    def __init__(self, graph: RoadGraph):
        self.graph = graph
        self._routes: dict[tuple[str, str], Route] = {}
        self._forward: dict[str, _Search] = {}
        self.fallbacks = 0

    @cached_property
    def _reverse(self) -> dict[str, _Search]:
        """The searches into each destination, over `graph.in_edges`: the
        forward searches' dict itself when that is the out-edge table."""
        graph = self.graph
        return self._forward if graph.in_edges is graph.out_edges else {}

    def _check(self, src: str, dst: str) -> None:
        if src not in self.graph.nodes or dst not in self.graph.nodes:
            raise errors.Unreachable(f"unknown node in query {src}->{dst}")

    def shortest_route(self, src: str, dst: str) -> Route:
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            self._check(src, dst)
            search = self._forward.get(src)
            if search is None:
                route = self._certified_route(src, dst)
                if route is None:
                    self.fallbacks += 1
                    search = _Search(self.graph.out_edges, self.graph.rank[src])
            if route is None:
                route = self._forward_route(search, dst)
            self._routes[key] = route
        return route

    def _forward_route(self, search: _Search, dst: str) -> Route:
        """The route along a forward search's path to dst; Unreachable if
        there is none."""
        ids, pred, src = self.graph.ids, search.pred, search.src
        node = self.graph.rank[dst]
        if not search.settle(node):
            raise errors.Unreachable(f"no path {ids[src]}->{dst}")
        path = _path(pred, src, node)
        dist_m = total_time_s = 0.0
        for v in path[1:]:
            _, _, length_m, time_s = pred[v]
            dist_m += length_m
            total_time_s += time_s
        # From a list: tuple() of a generator regrows its block as it goes,
        # which fragments the heap over many routes.
        return Route(nodes=tuple([ids[v] for v in path]), distance_km=dist_m / 1000.0,
                     time_s=total_time_s)

    def _certified_route(self, src: str, dst: str) -> Route | None:
        """The reverse-search path src -> dst if it passes the certificate,
        else None (also when src cannot reach dst)."""
        graph = self.graph
        search = self._reverse.get(dst)
        if search is None:
            search = self._reverse[dst] = _Search(graph.in_edges, graph.rank[dst])
        u = graph.rank[src]
        if not search.settle(u):
            return None
        cost, pred, done = search.cost, search.pred, search.done
        # Unsettled nodes cost at least the last settled cost, or cannot
        # reach dst at all once the search is exhausted.
        floor = search.last if search.heap else math.inf
        margin = CERTIFY_MARGIN_REL * cost[u] + CERTIFY_MARGIN_ABS
        out_edges, ids = graph.out_edges, graph.ids
        nodes = [src]
        dist_m = time_s = 0.0
        while u != search.src:
            nxt, _, length_m, edge_s = pred[u]
            d_u = cost[u]
            for _, to, _, t in out_edges[u]:
                if to != nxt and t + (cost[to] if done[to] else floor) - d_u <= margin:
                    return None
            dist_m += length_m
            time_s += edge_s
            nodes.append(ids[nxt])
            u = nxt
        return Route(nodes=tuple(nodes), distance_km=dist_m / 1000.0, time_s=time_s)

    def one_stop_route(self, start: str, stop: str, remaining: list[str]) -> Route:
        """Route start -> stop -> every remaining waypoint, in order.

        The first leg comes from one forward search from `start`, shared by
        every one-stop route from it and resumed until `stop` is settled; the
        other legs are searched once each.
        """
        self._check(start, stop)
        if start not in self._forward:
            self._forward[start] = _Search(self.graph.out_edges, self.graph.rank[start])
        waypoints = [start, stop] + list(remaining)
        legs = [self.shortest_route(a, b) for a, b in zip(waypoints, waypoints[1:])]
        nodes: tuple[str, ...] = legs[0].nodes
        for leg in legs[1:]:
            nodes = nodes + leg.nodes[1:]
        return Route(nodes=nodes,
                     distance_km=sum(l.distance_km for l in legs),
                     time_s=sum(l.time_s for l in legs))


class _Search:
    """Dijkstra from rank `src` over the edge table `edges`, advanced only
    as far as asked: over `RoadGraph.out_edges` from a departure, over the
    reversed `RoadGraph.in_edges` into a destination, where `pred[u][0]` is
    u's successor on the way there.

    Indexed by rank: `cost[v]` and `pred[v]`, the edge that reached v, are
    final for every node settled in `done`, which holds every settled
    node's ancestors too. `last`, the cost of the node settled last when
    `settle` returned, bounds every unsettled node's cost from below. An
    exact cost tie goes to the smaller path, reconstructed from `pred`,
    which gives the same paths as ordering the heap by (cost, path). A
    search settled to any node has made the first moves of the search of
    the whole graph, in its order, so its settled paths are that search's
    paths.
    """

    def __init__(self, edges: list[tuple[Edge, ...]], src: int):
        self.edges = edges
        self.src = src
        n = len(edges)
        self.cost: list[float | None] = [None] * n
        self.cost[src] = 0.0
        self.pred: list[Edge | None] = [None] * n
        self.done = bytearray(n)
        self.heap = [(0.0, src)]
        self.last = 0.0

    def settle(self, node: int) -> bool:
        """Resume until `node` is settled; False if `src` cannot reach it."""
        done = self.done
        if done[node]:
            return True
        edges, src = self.edges, self.src
        cost, pred, heap = self.cost, self.pred, self.heap
        while heap:
            c, v = heapq.heappop(heap)
            if done[v]:
                continue
            done[v] = 1
            for edge in edges[v]:
                _, to, _, time_s = edge
                if done[to]:
                    continue
                new = c + time_s
                old = cost[to]
                if old is None or new < old:
                    cost[to] = new
                    pred[to] = edge
                    heapq.heappush(heap, (new, to))
                elif new == old:
                    prev = pred[to]
                    if prev[0] == v:
                        # A parallel edge: keep the faster one (costs can
                        # round equal while times differ), the first in row
                        # order on equal time.
                        if time_s < prev[3]:
                            pred[to] = edge
                    elif (_path(pred, src, v) + (to,)
                          < _path(pred, src, prev[0]) + (to,)):
                        pred[to] = edge
            if v == node:
                self.last = c
                return True
        return False


def _path(pred: list, src: int, node: int) -> tuple[int, ...]:
    """Rank sequence src -> node through the settled predecessors."""
    path = [node]
    while node != src:
        node = pred[node][0]
        path.append(node)
    return tuple(reversed(path))


def corridor_filter(polyline: list[tuple[float, float]], points: list[tuple[float, float]],
                    radius_m: float = DEFAULT_CORRIDOR_RADIUS_M) -> list[int]:
    """Indices of points within `radius_m` of the polyline.

    Screens every segment against every point with numpy, in blocks of
    segments, keeping a running minimum; `point_polyline_distance_m`
    decides every point whose screened distance is within the corridor
    margin of the radius.
    """
    if not polyline:
        raise ValueError("empty route polyline")
    if not points:
        return []
    lat, lon = np.array(points, dtype=float).T
    line = np.array(polyline, dtype=float)
    # A one-vertex polyline is one zero-length segment: distance to the vertex.
    ends = (line[:-1], line[1:]) if len(line) > 1 else (line, line)
    # Each end as (lat, lon) columns, one row per segment.
    (lat1, lon1), (lat2, lon2) = (end.T[:, :, None] for end in ends)
    screened = np.full(len(points), math.inf)
    step = max(1, SCREEN_BLOCK // len(points))
    for start in range(0, len(lat1), step):
        block = slice(start, start + step)
        distances = point_segment_distance_m_array(lat, lon, lat1[block], lon1[block],
                                                   lat2[block], lon2[block])
        np.minimum(screened, distances.min(axis=0), out=screened)
    keep = screened < radius_m - CORRIDOR_MARGIN_M
    for i in np.flatnonzero(~keep & ~(screened > radius_m + CORRIDOR_MARGIN_M)):
        keep[i] = point_polyline_distance_m(*points[i], polyline) <= radius_m
    return np.flatnonzero(keep).tolist()


def load_road_graph(nodes_path: str, edges_path: str) -> RoadGraph:
    """Load the graph CSV pair as `RoadGraph` does, a bad row as ParseError
    on its line. The first bad row, nodes file first, decides the error, as
    if each row were checked as it is read."""
    nodes: list[tuple[str, float, float]] = []
    edges: list[tuple[str, str, float, float]] = []
    try:
        read_table(nodes_path, NODES_HEADER,
                   lambda row: nodes.append((row[0], float(row[1]), float(row[2]))))
        read_table(edges_path, EDGES_HEADER,
                   lambda row: edges.append((row[0], row[1], float(row[2]), float(row[3]))))
    except errors.RefuelOptError:
        _build(nodes, edges, nodes_path, edges_path)  # a bad row before the unreadable one
        raise
    return _build(nodes, edges, nodes_path, edges_path)


def _build(nodes: list, edges: list, nodes_path: str, edges_path: str) -> RoadGraph:
    try:
        return RoadGraph(nodes, edges)
    except BadRow as exc:
        path = nodes_path if exc.table == "nodes" else edges_path
        raise errors.ParseError(row_line(path, exc.index), str(exc)) from None


def save_road_graph(graph: RoadGraph, nodes_path: str, edges_path: str) -> None:
    """Write the graph CSV pair, nodes by id and edges by (from, to, length,
    time); ranks follow the ids, so sorting each rank's edges sorts them all."""
    ids = graph.ids
    write_table(nodes_path, NODES_HEADER,
                ([nid, repr(lat), repr(lon)]
                 for nid, (lat, lon) in sorted(graph.nodes.items())))
    write_table(edges_path, EDGES_HEADER,
                ([ids[u], ids[v], repr(length_m), repr(time_s)]
                 for leaving in graph.out_edges for u, v, length_m, time_s in sorted(leaving)))


def generate_city(seed: int, rows: int = 12, cols: int = 12) -> RoadGraph:
    """Synthetic grid city: 4-connected lattice with jittered road lengths.

    Nodes sit 500 m apart around (44.65, 10.92). Road length is the geodesic
    times a 1.0-1.25 wiggle factor; travel time follows a per-edge speed
    drawn between 30 and 60 km/h. Deterministic per seed.
    """
    rng = random.Random(seed)
    center = (44.65, 10.92)
    dlat = 500.0 / 111_194.9
    dlon = 500.0 / (111_194.9 * math.cos(math.radians(center[0])))

    ids = [[f"N{r:02d}_{c:02d}" for c in range(cols)] for r in range(rows)]
    nodes = {ids[r][c]: (center[0] + (r - rows / 2) * dlat, center[1] + (c - cols / 2) * dlon)
             for r in range(rows) for c in range(cols)}
    edges = []
    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 >= rows or c2 >= cols:
                    continue
                a, b = ids[r][c], ids[r2][c2]
                geo = haversine_m(*nodes[a], *nodes[b])
                length = geo * rng.uniform(1.0, 1.25)
                speed_ms = rng.uniform(30.0, 60.0) / 3.6
                time_s = length / speed_ms
                edges += [(a, b, length, time_s), (b, a, length, time_s)]
    # Each node's roads in id order, so the graph keeps one edge table.
    return RoadGraph([(node_id, *point) for node_id, point in nodes.items()], sorted(edges))
