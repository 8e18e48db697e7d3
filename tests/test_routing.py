import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refuelopt import errors
from refuelopt.geo import haversine_m, haversine_m_array, point_polyline_distance_m
from refuelopt.roadgraph import (BuiltinRouter, RoadGraph, Route,
                                 corridor_filter, generate_city,
                                 load_road_graph, save_road_graph)

M_PER_DEG = 111_194.9


def grid_coords(r, c, lat0=44.65, lon0=10.92, spacing_m=500.0):
    return (lat0 + r * spacing_m / M_PER_DEG,
            lon0 + c * spacing_m / (M_PER_DEG * math.cos(math.radians(lat0))))


def diamond_graph():
    """A -> {B, C} -> D with two equal-time paths through B and C."""
    g = RoadGraph()
    g.add_node("A", *grid_coords(0, 0))
    g.add_node("B", *grid_coords(0, 1))
    g.add_node("C", *grid_coords(1, 0))
    g.add_node("D", *grid_coords(1, 1))
    for a, b in [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")]:
        g.add_edge(a, b, 600.0, 60.0)
        g.add_edge(b, a, 600.0, 60.0)
    return g


def random_graph(rng, n):
    g = RoadGraph()
    ids = [f"X{i}" for i in range(n)]
    for i, nid in enumerate(ids):
        g.add_node(nid, *grid_coords(i // 4, i % 4))
    for a, b in itertools.permutations(ids, 2):
        if rng.random() < 0.4:
            geo = max(1.0, haversine_m(*g.nodes[a], *g.nodes[b]))
            g.add_edge(a, b, geo * rng.uniform(1.0, 2.0), rng.uniform(10.0, 300.0))
    return g


def brute_force_shortest(g, src, dst, metric):
    """Enumerate all simple paths; return (cost, lexicographically-first path)."""
    idx = 2 if metric == "time" else 1
    best = None
    stack = [(src, (src,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == dst:
            key = (cost, path)
            if best is None or key < best:
                best = key
            continue
        for to, length_m, time_s in g.adj.get(node, []):
            if to not in path:
                w = min(e[idx] for e in g.adj[node] if e[0] == to)
                stack.append((to, path + (to,), cost + w))
    return best


# --- graph construction ---------------------------------------------------------

def test_dangling_edge_rejected():
    g = RoadGraph()
    g.add_node("A", 44.0, 11.0)
    with pytest.raises(errors.DanglingEdge):
        g.add_edge("A", "Z", 100.0, 10.0)


def test_edge_shorter_than_geodesic_rejected():
    g = RoadGraph()
    g.add_node("A", *grid_coords(0, 0))
    g.add_node("B", *grid_coords(0, 1))  # ~500 m apart
    with pytest.raises(ValueError):
        g.add_edge("A", "B", 100.0, 10.0)


def test_nearest_node_snap():
    g = diamond_graph()
    lat, lon = grid_coords(0, 0)
    nid, d = g.nearest_node(lat + 0.0001, lon)
    assert nid == "A"
    assert d == pytest.approx(0.0001 * M_PER_DEG, rel=1e-3)


# --- shortest routes ------------------------------------------------------------

def test_equal_cost_tie_breaks_lexicographically():
    r = BuiltinRouter(diamond_graph()).shortest_route("A", "D", metric="time")
    assert r.nodes == ("A", "B", "D")
    assert r.time_s == 120.0
    assert r.distance_km == pytest.approx(1.2)


def test_metrics_can_disagree():
    g = diamond_graph()
    # Make the B path faster but longer than the C path.
    g.adj["A"] = [(t, 900.0 if t == "B" else l, 30.0 if t == "B" else s)
                  for t, l, s in g.adj["A"]]
    router = BuiltinRouter(g)
    assert router.shortest_route("A", "D", metric="time").nodes == ("A", "B", "D")
    assert router.shortest_route("A", "D", metric="distance").nodes == ("A", "C", "D")


def test_unreachable_raises():
    g = RoadGraph()
    g.add_node("A", *grid_coords(0, 0))
    g.add_node("B", *grid_coords(3, 3))
    with pytest.raises(errors.Unreachable):
        BuiltinRouter(g).shortest_route("A", "B")
    with pytest.raises(errors.Unreachable):
        BuiltinRouter(g).shortest_route("A", "missing")


def test_self_route_is_empty():
    g = diamond_graph()
    r = BuiltinRouter(g).shortest_route("A", "A")
    assert r.nodes == ("A",)
    assert r.distance_km == 0.0 and r.time_s == 0.0


@pytest.mark.parametrize("metric", ["time", "distance"])
def test_matches_bruteforce_on_random_graphs(metric):
    rng = random.Random(42)
    for trial in range(25):
        g = random_graph(rng, rng.randint(4, 9))
        router = BuiltinRouter(g)
        ids = sorted(g.nodes)
        for src in ids:
            for dst in ids:
                expected = brute_force_shortest(g, src, dst, metric)
                if expected is None:
                    with pytest.raises(errors.Unreachable):
                        router.shortest_route(src, dst, metric=metric)
                    continue
                got = router.shortest_route(src, dst, metric=metric)
                cost = got.time_s if metric == "time" else got.distance_km * 1000.0
                assert cost == pytest.approx(expected[0], rel=1e-9, abs=1e-6)
                assert got.nodes == expected[1]


def test_one_stop_route_concatenates_legs():
    g = diamond_graph()
    router = BuiltinRouter(g)
    r = router.one_stop_route("A", "D", ["A"])
    direct = router.shortest_route("A", "D")
    back = router.shortest_route("D", "A")
    assert r.nodes == direct.nodes + back.nodes[1:]
    assert r.time_s == pytest.approx(direct.time_s + back.time_s)
    assert r.distance_km == pytest.approx(direct.distance_km + back.distance_km)


def test_one_stop_never_beats_direct():
    g = generate_city(seed=9, rows=6, cols=6)
    router = BuiltinRouter(g)
    direct = router.shortest_route("N00_00", "N05_05")
    for via in ("N02_04", "N05_00", "N03_03"):
        detour = router.one_stop_route("N00_00", via, ["N05_05"])
        assert detour.time_s >= direct.time_s - 1e-9


# --- corridor filter ------------------------------------------------------------

def test_corridor_includes_near_excludes_far():
    line = [grid_coords(0, c) for c in range(5)]  # ~2 km west-east
    near = grid_coords(1, 2)    # 500 m north of the line
    far = grid_coords(5, 2)     # 2.5 km north
    on_line = grid_coords(0, 3)
    kept = corridor_filter(line, [near, far, on_line], radius_m=2000.0)
    assert kept == [0, 2]


def test_corridor_measures_to_segments_not_vertices():
    # Point near the middle of one long segment, far from both endpoints.
    line = [grid_coords(0, 0), grid_coords(0, 10)]  # 5 km segment
    mid = grid_coords(0.6, 5)  # 300 m off the segment midpoint
    assert corridor_filter(line, [mid], radius_m=500.0) == [0]
    d = point_polyline_distance_m(*mid, line)
    assert d == pytest.approx(300.0, rel=0.01)


def test_corridor_boundary_is_inclusive():
    line = [grid_coords(0, 0), grid_coords(0, 2)]
    p = grid_coords(0, 1)
    d = point_polyline_distance_m(*p, line)
    assert corridor_filter(line, [p], radius_m=d) == [0]


def test_corridor_rejects_empty_polyline():
    with pytest.raises(ValueError):
        corridor_filter([], [(44.0, 11.0)])


# --- persistence and generation -------------------------------------------------

def test_save_load_save_is_byte_identical(tmp_path):
    g = generate_city(seed=4, rows=5, cols=5)
    n1, e1 = tmp_path / "n1.csv", tmp_path / "e1.csv"
    save_road_graph(g, str(n1), str(e1))
    g2 = load_road_graph(str(n1), str(e1))
    n2, e2 = tmp_path / "n2.csv", tmp_path / "e2.csv"
    save_road_graph(g2, str(n2), str(e2))
    assert n1.read_bytes() == n2.read_bytes()
    assert e1.read_bytes() == e2.read_bytes()


def test_load_rejects_dangling_edge(tmp_path):
    (tmp_path / "n.csv").write_text("id,lat,lon\nA,44.0,11.0\n")
    (tmp_path / "e.csv").write_text("from,to,length_m,time_s\nA,Z,100.0,10.0\n")
    with pytest.raises(errors.DanglingEdge):
        load_road_graph(str(tmp_path / "n.csv"), str(tmp_path / "e.csv"))


def test_generate_city_deterministic_and_connected():
    a = generate_city(seed=11, rows=6, cols=6)
    b = generate_city(seed=11, rows=6, cols=6)
    assert a.nodes == b.nodes and a.adj == b.adj
    router = BuiltinRouter(a)
    r = router.shortest_route("N00_00", "N05_05")
    assert r.time_s > 0
    # All road lengths respect the geodesic sanity bound by construction.
    for src, edges in a.adj.items():
        for to, length_m, _ in edges:
            assert length_m >= haversine_m(*a.nodes[src], *a.nodes[to]) * 0.999


# --- equivalence with the scans the screened and memoised code replaced ---------

class PathHeapRouter:
    """Reference router: Dijkstra whose heap holds (cost, full path) tuples,
    so equal costs pop in path order, and which looks each edge up again to
    sum the route. No memo, no tree."""

    def __init__(self, graph):
        self.graph = graph

    def shortest_route(self, src, dst, metric="time"):
        graph = self.graph
        if src not in graph.nodes or dst not in graph.nodes:
            raise errors.Unreachable(f"unknown node in query {src}->{dst}")
        if metric not in ("time", "distance"):
            raise ValueError(f"unknown metric {metric!r}")
        weight_idx = 2 if metric == "time" else 1
        heap = [(0.0, (src,))]
        done = set()
        while heap:
            cost, path = heapq.heappop(heap)
            node = path[-1]
            if node in done:
                continue
            done.add(node)
            if node == dst:
                dist_m = 0.0
                total_time_s = 0.0
                for a, b in zip(path, path[1:]):
                    edge = min((e for e in graph.adj[a] if e[0] == b),
                               key=lambda e: e[weight_idx])
                    dist_m += edge[1]
                    total_time_s += edge[2]
                return Route(nodes=path, distance_km=dist_m / 1000.0, time_s=total_time_s)
            for to, length_m, time_s in graph.adj.get(node, []):
                if to not in done:
                    heapq.heappush(heap, (cost + (length_m, time_s)[weight_idx - 1],
                                          path + (to,)))
        raise errors.Unreachable(f"no path {src}->{dst}")

    def one_stop_route(self, start, stop, remaining, metric="time"):
        legs = []
        waypoints = [start, stop] + list(remaining)
        for a, b in zip(waypoints, waypoints[1:]):
            legs.append(self.shortest_route(a, b, metric=metric))
        nodes = legs[0].nodes
        for leg in legs[1:]:
            nodes = nodes + leg.nodes[1:]
        return Route(nodes=nodes,
                     distance_km=sum(l.distance_km for l in legs),
                     time_s=sum(l.time_s for l in legs))


def full_scan_nearest(graph, lat, lon):
    best_id, best_d = None, math.inf
    for nid in sorted(graph.nodes):
        d = haversine_m(lat, lon, *graph.nodes[nid])
        if d < best_d:
            best_id, best_d = nid, d
    return best_id, best_d


def outcome(fn, *args, **kwargs):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except (errors.RefuelOptError, ValueError) as exc:
        return type(exc), str(exc)


# Small integer weights make exact cost ties common; 1 + 2**-52 adds to an
# integer cost >= 2 exactly as 1.0 does, so parallel edges tie on cost while
# their weights differ.
WEIGHTS = st.sampled_from([1.0, 2.0, 3.0, 1.0 + 2.0 ** -52])
NODE_IDS = st.sampled_from([f"V{i}" for i in range(7)])


@st.composite
def small_graphs(draw):
    ids = draw(st.lists(NODE_IDS, min_size=2, max_size=7, unique=True))
    g = RoadGraph()
    for i, nid in enumerate(ids):
        # All nodes within a metre, so any length >= 1 m passes the geodesic check.
        g.add_node(nid, 44.65 + i * 1e-6, 10.92)
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    WEIGHTS, WEIGHTS), max_size=24))
    for a, b, length_m, time_s in edges:
        g.add_edge(a, b, length_m, time_s)
    return g


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_router_matches_path_heap_router(data):
    g = data.draw(small_graphs())
    ids = sorted(g.nodes) + ["missing"]
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    metric = st.sampled_from(["time", "distance"])
    queries = data.draw(st.lists(st.one_of(
        st.tuples(st.just("shortest_route"), st.sampled_from(ids), st.sampled_from(ids),
                  metric),
        st.tuples(st.just("one_stop_route"), st.sampled_from(ids), st.sampled_from(ids),
                  st.lists(st.sampled_from(ids), max_size=3), metric)),
        min_size=1, max_size=20))
    for name, *args in queries:
        assert outcome(getattr(router, name), *args) == outcome(getattr(ref, name), *args)
    # Every (src, dst) pair again on the same router: memo and trees hit.
    for a, b in itertools.product(ids, ids):
        for m in ("time", "distance"):
            assert outcome(router.shortest_route, a, b, m) == \
                outcome(ref.shortest_route, a, b, m)


class ForwardRouter(BuiltinRouter):
    """The router with every certificate refused: each leg without a
    departure tree runs the forward search."""

    def _certified_route(self, src, dst, metric):
        return None


def tie_graph(edges):
    """Nodes at one point, so any positive length passes the geodesic
    check; (a, b, weight) edges whose length and time are both `weight`."""
    g = RoadGraph()
    for nid in sorted({n for a, b, _w in edges for n in (a, b)}):
        g.add_node(nid, 44.65, 10.92)
    for a, b, w in edges:
        g.add_edge(a, b, w, w)
    return g


def test_rounding_tie_falls_back_to_the_forward_path():
    # A -> C -> D sums to exactly 2; A -> B -> D to 2 + 2**-52, which rounds
    # to 2 as well, so the forward search takes the smaller node sequence
    # A -> B -> D. The reverse chain is within rounding of that path and
    # must not be trusted.
    g = tie_graph([("A", "B", 1.0 + 2.0 ** -52), ("B", "D", 1.0),
                   ("A", "C", 1.0), ("C", "D", 1.0)])
    router = BuiltinRouter(g)
    for metric in ("time", "distance"):
        route = router.shortest_route("A", "D", metric)
        assert route == ForwardRouter(g).shortest_route("A", "D", metric) == \
            PathHeapRouter(g).shortest_route("A", "D", metric)
        assert route.nodes == ("A", "B", "D") and route.time_s == 2.0
    assert router.fallbacks == 2


def test_unsettled_neighbour_within_rounding_falls_back():
    # S -> W -> X -> Z costs 1 + 2e-20, which rounds to 1, the cost of
    # S -> Z, and is the smaller node sequence. When the reverse search
    # settles S, X ties with it unsettled and W is unreached: only the
    # last-settled-cost bound on W shows that the chain S -> Z is not alone.
    g = tie_graph([("S", "Z", 1.0), ("S", "W", 1e-20), ("W", "X", 1e-20),
                   ("X", "Z", 1.0)])
    router = BuiltinRouter(g)
    route = router.shortest_route("S", "Z")
    assert route == PathHeapRouter(g).shortest_route("S", "Z")
    assert route.nodes == ("S", "W", "X", "Z") and route.time_s == 1.0
    assert router.fallbacks == 1


def test_exact_ties_on_a_uniform_grid_fall_back():
    g = RoadGraph()
    for r, c in itertools.product(range(4), range(4)):
        g.add_node(f"G{r}{c}", *grid_coords(r, c))
    for r, c in itertools.product(range(4), range(4)):
        for r2, c2 in ((r + 1, c), (r, c + 1)):
            if r2 < 4 and c2 < 4:
                g.add_edge(f"G{r}{c}", f"G{r2}{c2}", 600.0, 60.0)
                g.add_edge(f"G{r2}{c2}", f"G{r}{c}", 600.0, 60.0)
    router, forward, ref = BuiltinRouter(g), ForwardRouter(g), PathHeapRouter(g)
    for a, b in itertools.product(sorted(g.nodes), repeat=2):
        assert router.shortest_route(a, b) == forward.shortest_route(a, b) == \
            ref.shortest_route(a, b)
    assert router.fallbacks > 0
    # Straight legs have one shortest path and are certified.
    assert router.fallbacks < forward.fallbacks


def test_city_stop_legs_are_all_certified():
    g = generate_city(seed=3, rows=12, cols=12)
    router, forward = BuiltinRouter(g), ForwardRouter(g)
    tail = ["N08_09", "N11_00"]
    for metric in ("time", "distance"):
        for stop in sorted(g.nodes):
            assert router.one_stop_route("N02_03", stop, tail, metric) == \
                forward.one_stop_route("N02_03", stop, tail, metric)
    assert router.fallbacks == 0
    # Every stop -> N08_09 leg and the N08_09 -> N11_00 leg, per metric.
    assert forward.fallbacks == 2 * len(g.nodes)


def test_reverse_index_sees_edges_added_after_a_route():
    g = diamond_graph()
    assert BuiltinRouter(g).shortest_route("A", "D").nodes == ("A", "B", "D")
    g.add_edge("A", "D", 800.0, 30.0)
    router = BuiltinRouter(g)
    assert router.shortest_route("A", "D") == Route(("A", "D"), 0.8, 30.0)
    # Certified from the new in-edge, not rescued by the forward search.
    assert router.fallbacks == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shared_destinations_match_path_heap_router(data):
    ids = [f"V{i}" for i in range(data.draw(st.integers(2, 10)))]
    g = RoadGraph()
    for i, nid in enumerate(ids):
        g.add_node(nid, 44.65 + i * 1e-6, 10.92)
    weight = st.one_of(WEIGHTS, st.floats(1.0, 4.0))
    for a, b, length_m, time_s in data.draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(ids), weight, weight),
            max_size=40)):
        g.add_edge(a, b, length_m, time_s)
    dsts = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    # Sources in drawn order, destinations interleaved: each query resumes
    # the reverse search its destination left off.
    for src, dst, metric in data.draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(dsts),
                      st.sampled_from(["time", "distance"])), min_size=1, max_size=40)):
        assert outcome(router.shortest_route, src, dst, metric) == \
            outcome(ref.shortest_route, src, dst, metric)


def test_unknown_metric_raises_like_path_heap_router():
    g = diamond_graph()
    for router in (BuiltinRouter(g), PathHeapRouter(g)):
        with pytest.raises(ValueError, match="unknown metric 'hops'"):
            router.shortest_route("A", "D", metric="hops")
        with pytest.raises(ValueError, match="unknown metric 'hops'"):
            router.one_stop_route("A", "D", ["B"], metric="hops")


def test_one_stop_routes_on_a_city_match_path_heap_router():
    g = generate_city(seed=9, rows=8, cols=8)
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    tail = ["N07_07", "N00_07", "N03_02"]
    for stop in sorted(g.nodes):
        for metric in ("time", "distance"):
            assert router.one_stop_route("N04_04", stop, tail, metric) == \
                ref.one_stop_route("N04_04", stop, tail, metric)


def path_heap_routes(graph, src, metric):
    """`PathHeapRouter.shortest_route(src, v, metric)` for every v that src
    reaches, from one run: that search pops the same entries whatever its
    destination, up to the pop of the destination."""
    k = 2 if metric == "time" else 1
    routes, done, heap = {}, set(), [(0.0, (src,))]
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        dist_m = total_time_s = 0.0
        for a, b in zip(path, path[1:]):
            edge = min((e for e in graph.adj[a] if e[0] == b), key=lambda e: e[k])
            dist_m += edge[1]
            total_time_s += edge[2]
        routes[node] = Route(nodes=path, distance_km=dist_m / 1000.0, time_s=total_time_s)
        for to, length_m, time_s in graph.adj.get(node, []):
            if to not in done:
                heapq.heappush(heap, (cost + (length_m, time_s)[k - 1], path + (to,)))
    return routes


def test_departure_search_settles_only_as_far_as_its_stops():
    g = generate_city(seed=3, rows=40, cols=40)
    start, stops = "N20_20", sorted(g.nodes)
    router = BuiltinRouter(g)
    router.one_stop_route(start, "N20_21", ["N05_30"])
    settled = router._forward[(start, "time")].done
    assert "N20_21" in settled and len(settled) < len(g.nodes) // 10
    # Every node as a stop, both metrics, in shuffled order on one router:
    # each resumes the search the last left off, and the routes are those of
    # a fresh router asked in sorted order and of the path-heap reference.
    queries = random.Random(3).sample([(s, m) for s in stops for m in ("time", "distance")],
                                      2 * len(stops))
    shuffled = {(s, m): router.one_stop_route(start, s, [], m) for s, m in queries}
    fresh = BuiltinRouter(g)
    ref = PathHeapRouter(g)
    for metric in ("time", "distance"):
        heap_routes = path_heap_routes(g, start, metric)
        for stop in stops[::200]:
            assert heap_routes[stop] == ref.shortest_route(start, stop, metric)
        for stop in stops:
            assert shuffled[stop, metric] == fresh.one_stop_route(start, stop, [], metric) == \
                heap_routes[stop]
    assert len(router._forward[(start, "time")].done) == len(g.nodes)


COORD = st.floats(-0.01, 0.01, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(nodes=st.lists(st.tuples(st.text("abcXYZ09", min_size=1, max_size=3), COORD, COORD),
                      min_size=1, max_size=40, unique_by=lambda n: n[0]),
       copies=st.lists(st.text("abcXYZ09", min_size=1, max_size=3), max_size=6),
       query=st.tuples(COORD, COORD))
def test_nearest_node_matches_full_scan(nodes, copies, query):
    g = RoadGraph()
    for nid, dlat, dlon in nodes:
        g.add_node(nid, 44.65 + dlat, 10.92 + dlon)
    # Equidistant nodes: the same coordinates under other ids, and the
    # query point mirrored through the first node.
    _nid, dlat, dlon = nodes[0]
    for i, nid in enumerate(copies):
        if nid not in g.nodes:
            g.add_node(nid, *g.nodes[nodes[i % len(nodes)][0]])
    lat, lon = 44.65 + query[0], 10.92 + query[1]
    g.add_node("~mirror", 2 * (44.65 + dlat) - lat, 2 * (10.92 + dlon) - lon)
    assert g.nearest_node(lat, lon) == full_scan_nearest(g, lat, lon)
    assert g.nearest_node(*g.nodes[nodes[0][0]]) == \
        full_scan_nearest(g, *g.nodes[nodes[0][0]])


def test_nearest_node_sees_nodes_added_after_a_snap():
    g = diamond_graph()
    lat, lon = grid_coords(0.3, 0.3)
    assert g.nearest_node(lat, lon)[0] == "A"
    g.add_node("E", lat, lon)
    assert g.nearest_node(lat, lon) == ("E", 0.0)


@settings(max_examples=200, deadline=None)
@given(line=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
       points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=12),
       pick=st.integers(0, 11), ulps=st.sampled_from([-1, 0, 1]))
def test_corridor_filter_matches_scalar_scan(line, points, pick, ulps):
    polyline = [(44.65 + a, 10.92 + b) for a, b in line]
    pts = [(44.65 + a, 10.92 + b) for a, b in points]
    dist = [point_polyline_distance_m(lat, lon, polyline) for lat, lon in pts]
    # The radius is a point's exact scalar distance, or one ulp either side.
    radius = dist[pick % len(pts)]
    for _ in range(abs(ulps)):
        radius = math.nextafter(radius, math.copysign(math.inf, ulps))
    assert corridor_filter(polyline, pts, radius_m=radius) == \
        [i for i, d in enumerate(dist) if d <= radius]


def test_corridor_filter_without_points():
    assert corridor_filter([grid_coords(0, 0), grid_coords(0, 1)], []) == []


# Points whose numpy-screened distance from QUERY is one ulp off the scalar
# haversine_m (numpy's arcsin is not libm's): 557.2095238945577 m screened
# one ulp above, 1527.3243724779702 m screened one ulp below.
QUERY = (44.66, 10.93)
SCREENED_HIGH = (44.66023093547619, 10.922962379721508)
SCREENED_LOW = (44.66493516540588, 10.911977992763937)


def test_screened_points_differ_from_scalar_distance():
    # Guard for the two tests below: if numpy and libm agree on these
    # points, the tests no longer reach the scalar decision.
    screened = haversine_m_array(*QUERY, np.array([SCREENED_HIGH[0], SCREENED_LOW[0]]),
                                 np.array([SCREENED_HIGH[1], SCREENED_LOW[1]]))
    high, low = haversine_m(*QUERY, *SCREENED_HIGH), haversine_m(*QUERY, *SCREENED_LOW)
    if (screened[0], screened[1]) == (high, low):
        pytest.skip("numpy's haversine agrees with the scalar one on this platform")
    assert screened[0] == math.nextafter(high, math.inf)
    assert screened[1] == math.nextafter(low, -math.inf)


def test_corridor_boundary_is_decided_by_the_scalar_distance():
    high, low = haversine_m(*QUERY, *SCREENED_HIGH), haversine_m(*QUERY, *SCREENED_LOW)
    assert corridor_filter([QUERY], [SCREENED_HIGH, SCREENED_LOW], radius_m=high) == [0]
    assert corridor_filter([QUERY], [SCREENED_LOW], radius_m=math.nextafter(low, -math.inf)) == []


def test_nearest_node_returns_the_scalar_distance():
    g = RoadGraph()
    g.add_node("B", *SCREENED_LOW)
    g.add_node("A", *SCREENED_HIGH)
    assert g.nearest_node(*QUERY) == ("A", haversine_m(*QUERY, *SCREENED_HIGH))
