"""Road network routing substrate.

A small built-in router (Dijkstra with a deterministic lexicographic
tie-break on the node sequence) stands in for an external engine. The
RouterPort protocol keeps the rest of the system engine-agnostic, so a
different router can be plugged in without touching the optimizer.

What is computed once: a `BuiltinRouter` memoises every route it returns
and keeps one full shortest-path tree per one-stop start node, so the legs
that many one-stop routes share (departure -> stop, stop -> first
waypoint, the waypoint tail) are each searched once. The harness builds one
router per scenario run and drops it with the run's context; the graph
itself holds no routes, only a coordinate index for `nearest_node`.
Snapping and corridor filtering screen with numpy and let the scalar
`geo` functions decide every close call, so they return exactly what a
scalar scan returns.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from . import errors
from .geo import (haversine_m, haversine_m_array, point_polyline_distance_m,
                  point_segment_distance_m_array, valid_coords)
from .tables import read_table, write_table

NODES_HEADER = ["id", "lat", "lon"]
EDGES_HEADER = ["from", "to", "length_m", "time_s"]

DEFAULT_CORRIDOR_RADIUS_M = 2000.0

# Screening margins: numpy's sin/cos/arcsin may differ from libm's in the
# last bits, far less than these, so every point the scalar functions could
# decide differently from the screen is re-checked with them.
SNAP_MARGIN_M = 1e-6
SNAP_MARGIN_REL = 1e-9
CORRIDOR_MARGIN_M = 1e-3


@dataclass(frozen=True)
class Route:
    nodes: tuple[str, ...]
    distance_km: float
    time_s: float

    def polyline(self, graph: "RoadGraph") -> list[tuple[float, float]]:
        return [graph.nodes[n] for n in self.nodes]


@dataclass
class RoadGraph:
    nodes: dict[str, tuple[float, float]] = field(default_factory=dict)
    # adjacency: from -> list of (to, length_m, time_s)
    adj: dict[str, list[tuple[str, float, float]]] = field(default_factory=dict)
    # Sorted node ids and their (lats, lons) arrays for nearest_node; built
    # on the first snap, reset by add_node.
    _index: tuple[list[str], np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def add_node(self, node_id: str, lat: float, lon: float) -> None:
        if not valid_coords(lat, lon):
            raise ValueError(f"invalid coordinates for node {node_id}")
        self.nodes[node_id] = (lat, lon)
        self.adj.setdefault(node_id, [])
        self._index = None

    def add_edge(self, src: str, dst: str, length_m: float, time_s: float) -> None:
        if src not in self.nodes or dst not in self.nodes:
            raise errors.DanglingEdge(f"edge {src}->{dst} references unknown node")
        if length_m <= 0 or time_s <= 0:
            raise ValueError(f"edge {src}->{dst} must have positive length and time")
        geo = haversine_m(*self.nodes[src], *self.nodes[dst])
        if length_m < geo * 0.999:
            raise ValueError(f"edge {src}->{dst} shorter than the geodesic "
                             f"({length_m:.1f} m < {geo:.1f} m)")
        self.adj.setdefault(src, []).append((dst, length_m, time_s))

    def nearest_node(self, lat: float, lon: float) -> tuple[str, float]:
        """Snap a coordinate to the closest graph node; returns (id, meters).

        Equal distances go to the smallest id. A numpy haversine over all
        nodes screens; `haversine_m` then decides, in id order, among the
        nodes within the snap margin of the screened minimum, which gives
        the scan of every node in id order.
        """
        if not self.nodes:
            raise ValueError("empty graph")
        if self._index is None:
            ids = sorted(self.nodes)
            self._index = (ids, np.array([self.nodes[n] for n in ids]).T)
        ids, (lats, lons) = self._index
        screened = haversine_m_array(lat, lon, lats, lons)
        floor = screened.min()
        best_id, best_d = None, math.inf
        for i in np.flatnonzero(screened <= floor + SNAP_MARGIN_M + SNAP_MARGIN_REL * floor):
            d = haversine_m(lat, lon, *self.nodes[ids[i]])
            if d < best_d:
                best_id, best_d = ids[i], d
        return best_id, best_d


class RouterPort(Protocol):
    """Routing engine interface; any implementation must keep one-stop
    routes no shorter than the direct route (triangle property)."""

    def shortest_route(self, src: str, dst: str, metric: str = "time") -> Route: ...

    def one_stop_route(self, start: str, stop: str,
                       remaining: list[str], metric: str = "time") -> Route: ...


class BuiltinRouter:
    """Dijkstra router over a RoadGraph.

    Among equal-cost paths the lexicographically smallest node sequence
    wins, which makes results reproducible across runs and platforms; of
    parallel edges, a path uses the first minimum-weight one in `adj` order.
    A route's distance and time are summed along its path from 0.0, in path
    order.

    The router memoises every route by (src, dst, metric) and keeps one full
    tree per one-stop start node and metric, so it assumes the graph does
    not change while it lives: build one per scenario run (the harness
    keeps it in the run's context) and drop it afterwards.
    """

    def __init__(self, graph: RoadGraph):
        self.graph = graph
        self._routes: dict[tuple[str, str, str], Route] = {}
        self._trees: dict[tuple[str, str], dict] = {}

    def _check(self, src: str, dst: str, metric: str) -> None:
        if src not in self.graph.nodes or dst not in self.graph.nodes:
            raise errors.Unreachable(f"unknown node in query {src}->{dst}")
        if metric not in ("time", "distance"):
            raise ValueError(f"unknown metric {metric!r}")

    def _search(self, src: str, metric: str, dst: str | None = None) -> dict:
        """Predecessor map of a Dijkstra search from `src`, run until `dst`
        is settled (or the whole reachable graph when `dst` is None).

        `pred[v] = (u, length_m, time_s)` is the edge into v; it is final for
        every settled node, which includes `dst` and all its ancestors. An
        exact cost tie goes to the smaller path, reconstructed from `pred`,
        which gives the same paths as ordering the heap by (cost, path).
        """
        adj = self.graph.adj
        by_time = metric == "time"
        cost = {src: 0.0}
        pred: dict[str, tuple[str, float, float]] = {}
        done: set[str] = set()
        heap = [(0.0, src)]
        while heap:
            c, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            if node == dst:
                break
            for to, length_m, time_s in adj.get(node, ()):
                if to in done:
                    continue
                w = time_s if by_time else length_m
                new = c + w
                old = cost.get(to)
                if old is None or new < old:
                    cost[to] = new
                    pred[to] = (node, length_m, time_s)
                    heapq.heappush(heap, (new, to))
                elif new == old:
                    prev = pred[to]
                    if prev[0] == node:
                        # A parallel edge: keep the lighter one (costs can
                        # round equal while weights differ), the first in
                        # adj order on equal weight.
                        if w < (prev[2] if by_time else prev[1]):
                            pred[to] = (node, length_m, time_s)
                    elif (_path(pred, src, node) + (to,)
                          < _path(pred, src, prev[0]) + (to,)):
                        pred[to] = (node, length_m, time_s)
        return pred

    def shortest_route(self, src: str, dst: str, metric: str = "time") -> Route:
        key = (src, dst, metric)
        route = self._routes.get(key)
        if route is None:
            self._check(src, dst, metric)
            pred = self._trees.get((src, metric))
            if pred is None:
                pred = self._search(src, metric, dst)
            route = self._routes[key] = _route(pred, src, dst)
        return route

    def one_stop_route(self, start: str, stop: str,
                       remaining: list[str], metric: str = "time") -> Route:
        """Route start -> stop -> every remaining waypoint, in order.

        The first leg comes from one full tree from `start`, shared by every
        one-stop route from it; the other legs are searched once each.
        """
        self._check(start, stop, metric)
        if (start, metric) not in self._trees:
            self._trees[(start, metric)] = self._search(start, metric)
        waypoints = [start, stop] + list(remaining)
        legs = [self.shortest_route(a, b, metric=metric)
                for a, b in zip(waypoints, waypoints[1:])]
        nodes: tuple[str, ...] = legs[0].nodes
        for leg in legs[1:]:
            nodes = nodes + leg.nodes[1:]
        return Route(nodes=nodes,
                     distance_km=sum(l.distance_km for l in legs),
                     time_s=sum(l.time_s for l in legs))


def _path(pred: dict, src: str, node: str) -> tuple[str, ...]:
    """Node sequence src -> node through the settled predecessors."""
    path = [node]
    while node != src:
        node = pred[node][0]
        path.append(node)
    return tuple(reversed(path))


def _route(pred: dict, src: str, dst: str) -> Route:
    if dst != src and dst not in pred:
        raise errors.Unreachable(f"no path {src}->{dst}")
    nodes = _path(pred, src, dst)
    dist_m = 0.0
    total_time_s = 0.0
    for node in nodes[1:]:
        _prev, length_m, time_s = pred[node]
        dist_m += length_m
        total_time_s += time_s
    return Route(nodes=nodes, distance_km=dist_m / 1000.0, time_s=total_time_s)


def corridor_filter(polyline: list[tuple[float, float]], points: list[tuple[float, float]],
                    radius_m: float = DEFAULT_CORRIDOR_RADIUS_M) -> list[int]:
    """Indices of points within `radius_m` of the polyline.

    Screens all points segment by segment with numpy, keeping a running
    minimum; `point_polyline_distance_m` decides every point whose screened
    distance is within the corridor margin of the radius.
    """
    if not polyline:
        raise ValueError("empty route polyline")
    if not points:
        return []
    lat, lon = np.array(points, dtype=float).T
    # A one-vertex polyline is one zero-length segment: distance to the vertex.
    segments = list(zip(polyline, polyline[1:])) or [(polyline[0], polyline[0])]
    screened = np.full(len(points), math.inf)
    for (a_lat, a_lon), (b_lat, b_lon) in segments:
        np.minimum(screened, point_segment_distance_m_array(lat, lon, a_lat, a_lon,
                                                            b_lat, b_lon), out=screened)
    keep = screened < radius_m - CORRIDOR_MARGIN_M
    for i in np.flatnonzero(~keep & ~(screened > radius_m + CORRIDOR_MARGIN_M)):
        keep[i] = point_polyline_distance_m(*points[i], polyline) <= radius_m
    return np.flatnonzero(keep).tolist()


def load_road_graph(nodes_path: str, edges_path: str) -> RoadGraph:
    """Load the graph CSV pair, rejecting dangling or degenerate edges."""
    graph = RoadGraph()
    read_table(nodes_path, NODES_HEADER,
               lambda row: graph.add_node(row[0], float(row[1]), float(row[2])))
    read_table(edges_path, EDGES_HEADER,
               lambda row: graph.add_edge(row[0], row[1], float(row[2]), float(row[3])))
    return graph


def save_road_graph(graph: RoadGraph, nodes_path: str, edges_path: str) -> None:
    write_table(nodes_path, NODES_HEADER,
                ([nid, repr(lat), repr(lon)]
                 for nid, (lat, lon) in sorted(graph.nodes.items())))
    write_table(edges_path, EDGES_HEADER,
                ([src, to, repr(length_m), repr(time_s)]
                 for src in sorted(graph.adj)
                 for to, length_m, time_s in sorted(graph.adj[src])))


def generate_city(seed: int, rows: int = 12, cols: int = 12,
                  spacing_m: float = 500.0,
                  center: tuple[float, float] = (44.65, 10.92)) -> RoadGraph:
    """Synthetic grid city: 4-connected lattice with jittered road lengths.

    Road length is the geodesic times a 1.0-1.25 wiggle factor; travel time
    follows a per-edge speed drawn between 30 and 60 km/h. Deterministic
    per seed.
    """
    rng = random.Random(seed)
    graph = RoadGraph()
    dlat = spacing_m / 111_194.9
    dlon = spacing_m / (111_194.9 * math.cos(math.radians(center[0])))

    def node_id(r: int, c: int) -> str:
        return f"N{r:02d}_{c:02d}"

    for r in range(rows):
        for c in range(cols):
            graph.add_node(node_id(r, c),
                           center[0] + (r - rows / 2) * dlat,
                           center[1] + (c - cols / 2) * dlon)
    for r in range(rows):
        for c in range(cols):
            for r2, c2 in ((r + 1, c), (r, c + 1)):
                if r2 >= rows or c2 >= cols:
                    continue
                a, b = node_id(r, c), node_id(r2, c2)
                geo = haversine_m(*graph.nodes[a], *graph.nodes[b])
                length = geo * rng.uniform(1.0, 1.25)
                speed_ms = rng.uniform(30.0, 60.0) / 3.6
                time_s = length / speed_ms
                graph.add_edge(a, b, length, time_s)
                graph.add_edge(b, a, length, time_s)
    return graph
