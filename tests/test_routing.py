import heapq
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refuelopt import errors
from refuelopt.geo import haversine_m, haversine_m_array, point_polyline_distance_m
from refuelopt.roadgraph import (SCREEN_BLOCK, BadRow, BuiltinRouter, RoadGraph, Route,
                                 _path, _Search, corridor_filter, generate_city,
                                 load_road_graph, save_road_graph)

M_PER_DEG = 111_194.9


def grid_coords(r, c, lat0=44.65, lon0=10.92, spacing_m=500.0):
    return (lat0 + r * spacing_m / M_PER_DEG,
            lon0 + c * spacing_m / (M_PER_DEG * math.cos(math.radians(lat0))))


def diamond_graph():
    """A -> {B, C} -> D with two equal-time paths through B and C."""
    nodes = [("A", *grid_coords(0, 0)), ("B", *grid_coords(0, 1)),
             ("C", *grid_coords(1, 0)), ("D", *grid_coords(1, 1))]
    edges = []
    for a, b in [("A", "B"), ("B", "D"), ("A", "C"), ("C", "D")]:
        edges += [(a, b, 600.0, 60.0), (b, a, 600.0, 60.0)]
    return RoadGraph(nodes, edges)


def random_graph(rng, n):
    coords = {f"X{i}": grid_coords(i // 4, i % 4) for i in range(n)}
    edges = []
    for a, b in itertools.permutations(coords, 2):
        if rng.random() < 0.4:
            geo = max(1.0, haversine_m(*coords[a], *coords[b]))
            edges.append((a, b, geo * rng.uniform(1.0, 2.0), rng.uniform(10.0, 300.0)))
    return RoadGraph([(nid, *point) for nid, point in coords.items()], edges)


def adjacency(g):
    """id -> [(to, length_m, time_s)], parallel edges in row order, read
    from the graph's rank-indexed out-edges."""
    return {g.ids[u]: [(g.ids[v], length_m, time_s) for _u, v, length_m, time_s in leaving]
            for u, leaving in enumerate(g.out_edges)}


def brute_force_shortest(g, src, dst):
    """Enumerate all simple paths; return (time, lexicographically-first path)."""
    adj = adjacency(g)
    best = None
    stack = [(src, (src,), 0.0)]
    while stack:
        node, path, cost = stack.pop()
        if node == dst:
            key = (cost, path)
            if best is None or key < best:
                best = key
            continue
        for to, length_m, time_s in adj[node]:
            if to not in path:
                w = min(e[2] for e in adj[node] if e[0] == to)
                stack.append((to, path + (to,), cost + w))
    return best


# --- graph construction ---------------------------------------------------------

AB = [("A", *grid_coords(0, 0)), ("B", *grid_coords(0, 1))]  # ~500 m apart


def test_dangling_edge_rejected():
    with pytest.raises(errors.DanglingEdge):
        RoadGraph([("A", 44.0, 11.0)], [("A", "Z", 100.0, 10.0)])


def test_edge_shorter_than_geodesic_rejected():
    with pytest.raises(ValueError):
        RoadGraph(AB, [("A", "B", 100.0, 10.0)])


@pytest.mark.parametrize("length_m,time_s", [(math.nan, 1.0), (1000.0, math.inf),
                                             (math.inf, 60.0), (1000.0, math.nan)])
def test_non_finite_edge_rejected(length_m, time_s):
    # NaN and +inf pass the `<= 0` check and the geodesic bound; the
    # finiteness check refuses them.
    with pytest.raises(ValueError, match=r"^edge A->B must have finite length and time, "
                                         rf"got {length_m} m and {time_s} s$"):
        RoadGraph(AB, [("A", "B", length_m, time_s)])


@pytest.mark.parametrize("length_m,time_s", [("600", 60.0), (600.0, None)])
def test_non_numeric_edge_rejected(length_m, time_s):
    with pytest.raises(TypeError):
        RoadGraph(AB, [("A", "B", length_m, time_s)])


def test_constructor_checks_edge_rows_in_order():
    good = ("A", "B", 600.0, 60.0)
    with pytest.raises(BadRow, match="^edge B->A must have positive length") as exc:
        RoadGraph(AB, [good, ("B", "A", -1.0, 60.0), ("A", "Z", 600.0, 60.0)])
    assert (exc.value.table, exc.value.index) == ("edges", 1)
    with pytest.raises(errors.DanglingEdge, match="^edge A->Z references unknown node$"):
        RoadGraph(AB, [good, ("A", "Z", 600.0, 60.0), ("B", "A", -1.0, 60.0)])
    g = RoadGraph(AB, [good, good, ("B", "A", 700.0, 70.0)])
    assert g.out_edges == [((0, 1, 600.0, 60.0),) * 2, ((1, 0, 700.0, 70.0),)]
    assert g.in_edges == [((0, 1, 700.0, 70.0),), ((1, 0, 600.0, 60.0),) * 2]
    assert RoadGraph(AB, []).out_edges == [(), ()]


def test_constructor_checks_node_rows_before_edge_rows():
    dangling = [("A", "Z", 600.0, 60.0)]
    with pytest.raises(BadRow, match="^node A defined twice$") as exc:
        RoadGraph(AB + [("C", 44.0, 11.0), ("A", 44.0, 11.0)], dangling)
    assert (exc.value.table, exc.value.index) == ("nodes", 3)
    with pytest.raises(BadRow, match="^invalid coordinates for node C$") as exc:
        RoadGraph(AB + [("C", 91.0, 11.0), ("A", 44.0, 11.0)], dangling)
    assert (exc.value.table, exc.value.index) == ("nodes", 2)
    g = RoadGraph([("B", 44.0, 11.001), ("A", 44.0, 11.0)], [])
    assert list(g.nodes) == ["B", "A"]
    assert g.ids == ["A", "B"] and g.rank == {"A": 0, "B": 1}


def test_nearest_node_snap():
    g = diamond_graph()
    lat, lon = grid_coords(0, 0)
    nid, d = g.nearest_node(lat + 0.0001, lon)
    assert nid == "A"
    assert d == pytest.approx(0.0001 * M_PER_DEG, rel=1e-3)


# --- shortest routes ------------------------------------------------------------

def test_equal_cost_tie_breaks_lexicographically():
    r = BuiltinRouter(diamond_graph()).shortest_route("A", "D")
    assert r.nodes == ("A", "B", "D")
    assert r.time_s == 120.0
    assert r.distance_km == pytest.approx(1.2)


def test_unreachable_raises():
    g = RoadGraph([("A", *grid_coords(0, 0)), ("B", *grid_coords(3, 3))], [])
    with pytest.raises(errors.Unreachable):
        BuiltinRouter(g).shortest_route("A", "B")
    with pytest.raises(errors.Unreachable):
        BuiltinRouter(g).shortest_route("A", "missing")


def test_self_route_is_empty():
    g = diamond_graph()
    r = BuiltinRouter(g).shortest_route("A", "A")
    assert r.nodes == ("A",)
    assert r.distance_km == 0.0 and r.time_s == 0.0


def path_length_m(g, path):
    """Length of `path` over the fastest edge of each hop."""
    adj = adjacency(g)
    return sum(min((e for e in adj[a] if e[0] == b), key=lambda e: e[2])[1]
               for a, b in zip(path, path[1:]))


@pytest.mark.parametrize("reported", ["time", "distance"])
def test_matches_bruteforce_on_random_graphs(reported):
    """The fastest route's reported time (or distance) matches brute force;
    each case draws its own 25 graphs."""
    rng = random.Random(42 if reported == "time" else 43)
    for trial in range(25):
        g = random_graph(rng, rng.randint(4, 9))
        router = BuiltinRouter(g)
        ids = sorted(g.nodes)
        for src in ids:
            for dst in ids:
                expected = brute_force_shortest(g, src, dst)
                if expected is None:
                    with pytest.raises(errors.Unreachable):
                        router.shortest_route(src, dst)
                    continue
                got = router.shortest_route(src, dst)
                if reported == "time":
                    assert got.time_s == pytest.approx(expected[0], rel=1e-9, abs=1e-6)
                else:
                    assert got.distance_km * 1000.0 == pytest.approx(
                        path_length_m(g, expected[1]), rel=1e-9, abs=1e-6)
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


EDGE_NODES = "id,lat,lon\nA,44.0,11.0\nB,44.0,11.001\n"  # 80 m apart
GOOD_EDGE = "A,B,100.0,10.0"
SHORT_EDGE = "B,A,10.0,5.0"
DANGLING_EDGE = "A,Z,100.0,10.0"
SHORT = "edge B->A shorter than the geodesic (10.0 m < 80.0 m)"


@pytest.mark.parametrize("rows,error,line,message", [
    ([GOOD_EDGE, SHORT_EDGE, DANGLING_EDGE], errors.ParseError, 3, SHORT),
    ([GOOD_EDGE, DANGLING_EDGE, SHORT_EDGE], errors.DanglingEdge, None,
     "edge A->Z references unknown node"),
    ([GOOD_EDGE, SHORT_EDGE, "A,B,x,1.0"], errors.ParseError, 3, SHORT),
    ([GOOD_EDGE, "A,B,x,1.0", SHORT_EDGE], errors.ParseError, 3,
     "could not convert string to float: 'x'"),
    ([GOOD_EDGE, SHORT_EDGE, "A,B,1.0"], errors.ParseError, 3, SHORT),
    # The finiteness check comes last: a short edge with an infinite time
    # is refused as short.
    ([GOOD_EDGE, "B,A,10.0,inf"], errors.ParseError, 3, SHORT),
    # A quoted line break: the row ends on line 4, so the next is line 5.
    ([GOOD_EDGE, '"A",B,100.0,"10.0\n"', SHORT_EDGE], errors.ParseError, 5, SHORT),
])
def test_load_reports_the_first_bad_edge_row_in_file_order(tmp_path, rows, error, line, message):
    # The rows are checked in one bulk call after reading; the verdict is
    # still that of checking each row as it is read. Line 1 is the header.
    (tmp_path / "n.csv").write_text(EDGE_NODES)
    (tmp_path / "e.csv").write_text("from,to,length_m,time_s\n" + "".join(f"{r}\n" for r in rows))
    with pytest.raises(error) as exc:
        load_road_graph(str(tmp_path / "n.csv"), str(tmp_path / "e.csv"))
    assert getattr(exc.value, "line", None) == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_load_rejects_non_finite_edge_with_its_line(tmp_path):
    (tmp_path / "n.csv").write_text(EDGE_NODES)
    (tmp_path / "e.csv").write_text("from,to,length_m,time_s\nA,B,100.0,10.0\nB,A,100.0,nan\n")
    with pytest.raises(errors.ParseError) as exc:
        load_road_graph(str(tmp_path / "n.csv"), str(tmp_path / "e.csv"))
    assert str(exc.value) == "line 3: edge B->A must have finite length and time, got 100.0 m and nan s"


def test_load_rejects_a_node_defined_twice_at_its_line(tmp_path):
    # The last definition won: A moved 20 m north loaded without a word.
    (tmp_path / "n.csv").write_text(EDGE_NODES + "A,44.00018,11.0\n")
    (tmp_path / "e.csv").write_text("from,to,length_m,time_s\nA,B,100.0,10.0\n")
    with pytest.raises(errors.ParseError) as exc:
        load_road_graph(str(tmp_path / "n.csv"), str(tmp_path / "e.csv"))
    assert str(exc.value) == "line 4: node A defined twice"


@pytest.mark.parametrize("nodes_tail,edges_text", [
    # A repeated node wins over a later unreadable node row ...
    ("A,44.00018,11.0\nC,x,11.0\n", "from,to,length_m,time_s\nA,B,100.0,10.0\n"),
    # ... and over an edges file that cannot be read at all.
    ("A,44.00018,11.0\n", "wrong,header\n"),
])
def test_load_reports_a_bad_node_row_before_a_later_read_error(tmp_path, nodes_tail, edges_text):
    (tmp_path / "n.csv").write_text(EDGE_NODES + nodes_tail)
    (tmp_path / "e.csv").write_text(edges_text)
    with pytest.raises(errors.ParseError) as exc:
        load_road_graph(str(tmp_path / "n.csv"), str(tmp_path / "e.csv"))
    assert str(exc.value) == "line 4: node A defined twice"


def test_load_save_round_trips_a_metro_city(tmp_path):
    # The file holds each node's out-edges sorted by destination, so by rank.
    n, e = str(tmp_path / "n.csv"), str(tmp_path / "e.csv")
    city = generate_city(seed=3, rows=40, cols=40)
    save_road_graph(city, n, e)
    got = load_road_graph(n, e)
    assert list(got.nodes.items()) == list(city.nodes.items())
    assert got.ids == city.ids and got.rank == city.rank
    assert got.out_edges == [tuple(sorted(leaving)) for leaving in city.out_edges]


def test_generate_city_deterministic_and_connected():
    a = generate_city(seed=11, rows=6, cols=6)
    b = generate_city(seed=11, rows=6, cols=6)
    assert a.nodes == b.nodes and a.out_edges == b.out_edges
    router = BuiltinRouter(a)
    r = router.shortest_route("N00_00", "N05_05")
    assert r.time_s > 0
    # All road lengths respect the geodesic sanity bound by construction.
    for src, edges in adjacency(a).items():
        for to, length_m, _ in edges:
            assert length_m >= haversine_m(*a.nodes[src], *a.nodes[to]) * 0.999


# --- equivalence with the scans the screened and memoised code replaced ---------

class PathHeapRouter:
    """Reference router: Dijkstra whose heap holds (cost, full path) tuples,
    so equal costs pop in path order, and which looks each edge up again to
    sum the route. No memo, no tree."""

    def __init__(self, graph):
        self.graph = graph
        self.adj = adjacency(graph)

    def shortest_route(self, src, dst):
        graph, adj = self.graph, self.adj
        if src not in graph.nodes or dst not in graph.nodes:
            raise errors.Unreachable(f"unknown node in query {src}->{dst}")
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
                    edge = min((e for e in adj[a] if e[0] == b),
                               key=lambda e: e[2])
                    dist_m += edge[1]
                    total_time_s += edge[2]
                return Route(nodes=path, distance_km=dist_m / 1000.0, time_s=total_time_s)
            for to, length_m, time_s in adj[node]:
                if to not in done:
                    heapq.heappush(heap, (cost + time_s, path + (to,)))
        raise errors.Unreachable(f"no path {src}->{dst}")

    def one_stop_route(self, start, stop, remaining):
        legs = []
        waypoints = [start, stop] + list(remaining)
        for a, b in zip(waypoints, waypoints[1:]):
            legs.append(self.shortest_route(a, b))
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
    # All nodes within a metre, so any length >= 1 m passes the geodesic check.
    nodes = [(nid, 44.65 + i * 1e-6, 10.92) for i, nid in enumerate(ids)]
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    WEIGHTS, WEIGHTS), max_size=24))
    return RoadGraph(nodes, edges)


@st.composite
def twin_graphs(draw):
    """Twin-edge graphs: each drawn road (a, b, length, time) comes with its
    twin (b, a, length, time), parallel roads and exact ties included. The
    rows are sorted stably by (from, to), so each node's out-edges and
    reversed in-edges hold the same tuples in the same order."""
    ids = draw(st.lists(NODE_IDS, min_size=2, max_size=7, unique=True))
    nodes = [(nid, 44.65 + i * 1e-6, 10.92) for i, nid in enumerate(ids)]
    roads = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                    WEIGHTS, WEIGHTS), max_size=12))
    rows = [row for a, b, length, time in roads for row in ((a, b, length, time),
                                                             (b, a, length, time))]
    return RoadGraph(nodes, sorted(rows, key=lambda row: row[:2]))


def edge_rows(g):
    """The graph's edge rows, by rank and, for parallel edges, in row order."""
    return [(g.ids[u], g.ids[v], length_m, time_s)
            for leaving in g.out_edges for u, v, length_m, time_s in leaving]


def same_graph(g, rows):
    """A RoadGraph of g's nodes with the edge rows `rows`."""
    return RoadGraph([(nid, *g.nodes[nid]) for nid in g.ids], rows)


def assert_matches_path_heap_router(data, g):
    ids = sorted(g.nodes) + ["missing"]
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    queries = data.draw(st.lists(st.one_of(
        st.tuples(st.just("shortest_route"), st.sampled_from(ids), st.sampled_from(ids)),
        st.tuples(st.just("one_stop_route"), st.sampled_from(ids), st.sampled_from(ids),
                  st.lists(st.sampled_from(ids), max_size=3))),
        min_size=1, max_size=20))
    for name, *args in queries:
        assert outcome(getattr(router, name), *args) == outcome(getattr(ref, name), *args)
    # Every (src, dst) pair again on the same router: memo and trees hit.
    for a, b in itertools.product(ids, ids):
        assert outcome(router.shortest_route, a, b) == outcome(ref.shortest_route, a, b)
    return router


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_router_matches_path_heap_router(data):
    assert_matches_path_heap_router(data, data.draw(small_graphs()))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_twin_edge_graph_keeps_one_table_and_matches_path_heap_router(data):
    g = data.draw(twin_graphs())
    assert g.in_edges is g.out_edges
    router = assert_matches_path_heap_router(data, g)
    assert router._reverse is router._forward


def test_generated_city_and_its_files_keep_one_table(tmp_path):
    city = generate_city(seed=3, rows=12, cols=12)
    assert city.in_edges is city.out_edges
    n, e = str(tmp_path / "n.csv"), str(tmp_path / "e.csv")
    save_road_graph(city, n, e)
    loaded = load_road_graph(n, e)
    assert loaded.in_edges is loaded.out_edges


@pytest.mark.parametrize("change", ["reversed rows", "slower twin", "one-way road"])
def test_other_graphs_keep_a_separate_reversed_table(change):
    city = generate_city(seed=9, rows=6, cols=6)
    rows = edge_rows(city)
    if change == "reversed rows":
        rows.reverse()
    elif change == "slower twin":
        a, b, length_m, time_s = rows[7]
        rows[7] = (a, b, length_m, time_s * 2)
    else:
        del rows[7]
    g = same_graph(city, rows)
    assert g.in_edges is not g.out_edges
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    assert router._reverse is not router._forward
    tail = ["N05_05", "N00_05"]
    for stop in sorted(g.nodes):
        assert outcome(router.one_stop_route, "N02_03", stop, tail) == \
            outcome(ref.one_stop_route, "N02_03", stop, tail)


def test_a_round_trip_runs_one_search_per_node():
    # Out of the departure and back into it: on a twin-edge graph the leg
    # home is read from the departure's own search.
    g = generate_city(seed=3, rows=12, cols=12)
    router = BuiltinRouter(g)
    route = router.one_stop_route("N02_03", "N08_09", ["N02_03"])
    assert route == PathHeapRouter(g).one_stop_route("N02_03", "N08_09", ["N02_03"])
    assert router._reverse is router._forward and list(router._forward) == ["N02_03"]
    assert router.fallbacks == 0


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reverse_search_is_the_forward_search_of_the_reversed_graph(data):
    g = data.draw(small_graphs())
    rows = [(v, u, length_m, time_s) for u, v, length_m, time_s in edge_rows(g)]
    # Shuffled rows reorder parallel edges, which must not move a cost.
    flipped = same_graph(g, data.draw(st.permutations(rows)))
    dst = data.draw(st.integers(0, len(g.ids) - 1))
    reverse, forward = _Search(g.in_edges, dst), _Search(flipped.out_edges, dst)
    for node in data.draw(st.lists(st.integers(0, len(g.ids) - 1), max_size=len(g.ids))):
        assert reverse.settle(node) == forward.settle(node)
        assert reverse.done == forward.done
        settled = [v for v in range(len(g.ids)) if reverse.done[v]]
        assert [reverse.cost[v] for v in settled] == [forward.cost[v] for v in settled]
        for u in settled:
            # u's successor chain into dst is the reversed graph's path from
            # dst to u, read backwards, its ties broken the same way.
            chain = [u]
            while chain[-1] != dst:
                chain.append(reverse.pred[chain[-1]][0])
            assert tuple(reversed(chain)) == _path(forward.pred, dst, u)
            if u != dst:
                # The edge to the successor is the forward rule's: the first
                # fastest parallel edge in row order.
                nxt = reverse.pred[u][0]
                first = min((e for e in g.out_edges[u] if e[1] == nxt), key=lambda e: e[3])
                assert reverse.pred[u] == (nxt, u, *first[2:])


class ForwardRouter(BuiltinRouter):
    """The router with every certificate refused: each leg without a
    departure tree runs the forward search."""

    def _certified_route(self, src, dst):
        return None


def tie_graph(edges):
    """Nodes at one point, so any positive length passes the geodesic
    check; (a, b, weight) edges whose length and time are both `weight`."""
    return RoadGraph([(nid, 44.65, 10.92) for nid in sorted({n for a, b, _w in edges
                                                             for n in (a, b)})],
                     [(a, b, w, w) for a, b, w in edges])


def test_rounding_tie_falls_back_to_the_forward_path():
    # A -> C -> D sums to exactly 2; A -> B -> D to 2 + 2**-52, which rounds
    # to 2 as well, so the forward search takes the smaller node sequence
    # A -> B -> D. The reverse chain is within rounding of that path and
    # must not be trusted.
    g = tie_graph([("A", "B", 1.0 + 2.0 ** -52), ("B", "D", 1.0),
                   ("A", "C", 1.0), ("C", "D", 1.0)])
    router = BuiltinRouter(g)
    route = router.shortest_route("A", "D")
    assert route == ForwardRouter(g).shortest_route("A", "D") == \
        PathHeapRouter(g).shortest_route("A", "D")
    assert route.nodes == ("A", "B", "D") and route.time_s == 2.0
    assert router.fallbacks == 1


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
    edges = []
    for r, c in itertools.product(range(4), range(4)):
        for r2, c2 in ((r + 1, c), (r, c + 1)):
            if r2 < 4 and c2 < 4:
                edges += [(f"G{r}{c}", f"G{r2}{c2}", 600.0, 60.0),
                          (f"G{r2}{c2}", f"G{r}{c}", 600.0, 60.0)]
    g = RoadGraph([(f"G{r}{c}", *grid_coords(r, c))
                   for r, c in itertools.product(range(4), range(4))], edges)
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
    for stop in sorted(g.nodes):
        assert router.one_stop_route("N02_03", stop, tail) == \
            forward.one_stop_route("N02_03", stop, tail)
    assert router.fallbacks == 0
    # Every stop -> N08_09 leg and the N08_09 -> N11_00 leg.
    assert forward.fallbacks == len(g.nodes)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_shared_destinations_match_path_heap_router(data):
    ids = [f"V{i}" for i in range(data.draw(st.integers(2, 10)))]
    weight = st.one_of(WEIGHTS, st.floats(1.0, 4.0))
    g = RoadGraph([(nid, 44.65 + i * 1e-6, 10.92) for i, nid in enumerate(ids)],
                  data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                                               weight, weight), max_size=40)))
    dsts = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    # Sources in drawn order, destinations interleaved: each query resumes
    # the reverse search its destination left off.
    for src, dst in data.draw(st.lists(
            st.tuples(st.sampled_from(ids), st.sampled_from(dsts)), min_size=1, max_size=40)):
        assert outcome(router.shortest_route, src, dst) == outcome(ref.shortest_route, src, dst)


def test_one_stop_routes_on_a_city_match_path_heap_router():
    g = generate_city(seed=9, rows=8, cols=8)
    router, ref = BuiltinRouter(g), PathHeapRouter(g)
    tail = ["N07_07", "N00_07", "N03_02"]
    for stop in sorted(g.nodes):
        assert router.one_stop_route("N04_04", stop, tail) == \
            ref.one_stop_route("N04_04", stop, tail)


def path_heap_routes(graph, src):
    """`PathHeapRouter.shortest_route(src, v)` for every v that src reaches,
    from one run: that search pops the same entries whatever its
    destination, up to the pop of the destination."""
    adj = adjacency(graph)
    routes, done, heap = {}, set(), [(0.0, (src,))]
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in done:
            continue
        done.add(node)
        dist_m = total_time_s = 0.0
        for a, b in zip(path, path[1:]):
            edge = min((e for e in adj[a] if e[0] == b), key=lambda e: e[2])
            dist_m += edge[1]
            total_time_s += edge[2]
        routes[node] = Route(nodes=path, distance_km=dist_m / 1000.0, time_s=total_time_s)
        for to, length_m, time_s in adj[node]:
            if to not in done:
                heapq.heappush(heap, (cost + time_s, path + (to,)))
    return routes


def test_departure_search_settles_only_as_far_as_its_stops():
    g = generate_city(seed=3, rows=40, cols=40)
    start, stops = "N20_20", sorted(g.nodes)
    router = BuiltinRouter(g)
    router.one_stop_route(start, "N20_21", ["N05_30"])
    done = router._forward[start].done
    settled = {g.ids[r] for r in range(len(done)) if done[r]}
    assert sum(done) == len(settled) < len(g.nodes) // 10
    assert {start, "N20_21"} <= settled
    # Every node as a stop, in shuffled order on one router: each resumes the
    # search the last left off, and the routes are those of a fresh router
    # asked in sorted order and of the path-heap reference.
    shuffled = {s: router.one_stop_route(start, s, [])
                for s in random.Random(3).sample(stops, len(stops))}
    fresh = BuiltinRouter(g)
    ref = PathHeapRouter(g)
    heap_routes = path_heap_routes(g, start)
    for stop in stops[::200]:
        assert heap_routes[stop] == ref.shortest_route(start, stop)
    for stop in stops:
        assert shuffled[stop] == fresh.one_stop_route(start, stop, []) == heap_routes[stop]
    assert sum(router._forward[start].done) == len(g.nodes)


COORD = st.floats(-0.01, 0.01, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(nodes=st.lists(st.tuples(st.text("abcXYZ09", min_size=1, max_size=3), COORD, COORD),
                      min_size=1, max_size=40, unique_by=lambda n: n[0]),
       copies=st.lists(st.text("abcXYZ09", min_size=1, max_size=3), max_size=6),
       query=st.tuples(COORD, COORD), late=st.tuples(COORD, COORD))
def test_nearest_node_matches_full_scan(nodes, copies, query, late):
    coords = {nid: (44.65 + dlat, 10.92 + dlon) for nid, dlat, dlon in nodes}
    # Equidistant nodes: the same coordinates under other ids, and the
    # query point mirrored through the first node.
    _nid, dlat, dlon = nodes[0]
    for i, nid in enumerate(copies):
        coords.setdefault(nid, coords[nodes[i % len(nodes)][0]])
    lat, lon = 44.65 + query[0], 10.92 + query[1]
    coords["~mirror"] = (2 * (44.65 + dlat) - lat, 2 * (10.92 + dlon) - lon)
    g = RoadGraph([(nid, *point) for nid, point in coords.items()], [])
    assert g.nearest_node(lat, lon) == full_scan_nearest(g, lat, lon)
    assert g.nearest_node(*g.nodes[nodes[0][0]]) == \
        full_scan_nearest(g, *g.nodes[nodes[0][0]])
    # A batch with repeats, of remembered and new points.
    batch = [(lat, lon), g.nodes[nodes[-1][0]], (lat, lon), (44.65 + late[0], 10.92 + late[1]),
             g.nodes[nodes[0][0]], (lat, lon)]
    assert g.nearest_nodes(batch) == [full_scan_nearest(g, *p) for p in batch]


@pytest.mark.parametrize("lat,lon", [(math.nan, 10.9), (44.6, math.inf), (95.0, 10.9),
                                     (44.6, -180.5)])
def test_nearest_node_rejects_invalid_coordinates(lat, lon):
    # No node is nearest to a point that is not finite or out of range.
    g = generate_city(seed=3)
    with pytest.raises(ValueError, match="^invalid coordinates"):
        g.nearest_node(lat, lon)
    with pytest.raises(ValueError, match="^invalid coordinates"):
        g.nearest_nodes([g.nodes["N00_00"], (lat, lon)])


@settings(max_examples=200, deadline=None)
@given(line=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
       points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=12),
       pick=st.integers(0, 11), ulps=st.sampled_from([-1, 0, 1]), long=st.booleans())
def test_corridor_filter_matches_scalar_scan(line, points, pick, ulps, long):
    polyline = [(44.65 + a, 10.92 + b) for a, b in line]
    if long and len(polyline) > 1:
        # Each segment cut into enough pieces that the screen takes more
        # than one block of segments.
        pieces = SCREEN_BLOCK // (len(points) * (len(polyline) - 1)) + 1
        polyline = [(a_lat + (b_lat - a_lat) * k / pieces, a_lon + (b_lon - a_lon) * k / pieces)
                    for (a_lat, a_lon), (b_lat, b_lon) in zip(polyline, polyline[1:])
                    for k in range(pieces)] + polyline[-1:]
        assert (len(polyline) - 1) * len(points) > SCREEN_BLOCK
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


def test_geodesic_bound_is_decided_by_the_scalar_distance(tmp_path):
    # Q -> H screens one ulp long, so the screen alone would reject an edge
    # exactly at the scalar bound; Q -> L screens one ulp short, so it would
    # pass one an ulp below it.
    nodes = [("Q", *QUERY), ("H", *SCREENED_HIGH), ("L", *SCREENED_LOW)]
    edges = [("Q", nid, haversine_m(*QUERY, *point) * 0.999, 60.0)
             for nid, point in (("H", SCREENED_HIGH), ("L", SCREENED_LOW))]
    g = RoadGraph(nodes, edges)
    for i, (src, dst, bound, time_s) in enumerate(edges):
        with pytest.raises(ValueError, match=f"^edge Q->{dst} shorter than the geodesic"):
            RoadGraph(nodes, edges[:i] + [(src, dst, math.nextafter(bound, 0.0), time_s)])
    # The same verdicts through the file reader, on the row's line.
    n, e = str(tmp_path / "n.csv"), tmp_path / "e.csv"
    save_road_graph(g, n, str(e))
    assert load_road_graph(n, str(e)).out_edges == g.out_edges
    below = math.nextafter(haversine_m(*QUERY, *SCREENED_LOW) * 0.999, 0.0)
    e.write_text(e.read_text() + f"Q,L,{below!r},60.0\n")
    with pytest.raises(errors.ParseError) as exc:
        load_road_graph(n, str(e))
    assert exc.value.line == 4


def test_nearest_node_returns_the_scalar_distance():
    g = RoadGraph([("B", *SCREENED_LOW), ("A", *SCREENED_HIGH)], [])
    assert g.nearest_node(*QUERY) == ("A", haversine_m(*QUERY, *SCREENED_HIGH))
