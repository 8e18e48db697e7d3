"""Habitual destination extraction and the per-weekday trip graph.

Stop events are clustered incrementally in timestamp order: an event joins
the nearest existing cluster whose running-mean centroid lies within the
cluster radius, otherwise it founds a new one. Clusters frequent enough
(MEDIUM or above) become habitual destinations, and each weekday's visits
are condensed into the modal ordered sequence of destinations, stored as a
chain of transition edges.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import date

from . import errors
from .geo import haversine_m
from .tables import read_table, write_table
from .telemetry import WEEKDAYS, StopEvent

DEFAULT_CLUSTER_RADIUS_M = 100.0

NODES_HEADER = ["id", "lat", "lon", "visits_total", "visits_weekday",
                "visits_weekend", "category", "days_visited"]
EDGES_HEADER = ["day", "seq_index", "dest_id", "dest_lat", "dest_lon"]


class FrequencyCategory(enum.IntEnum):
    VERY_LOW = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3
    VERY_HIGH = 4


ACCEPTED_CATEGORIES = frozenset({
    FrequencyCategory.MEDIUM, FrequencyCategory.HIGH, FrequencyCategory.VERY_HIGH,
})


@dataclass
class StopCluster:
    identifier: str
    centroid_lat: float
    centroid_lon: float
    visits_total: int = 0
    visits_weekday: int = 0
    visits_weekend: int = 0
    days_visited: set[str] = field(default_factory=set)
    member_events: list[StopEvent] = field(default_factory=list)

    def add(self, event: StopEvent) -> None:
        n = self.visits_total
        self.centroid_lat = (self.centroid_lat * n + event.lat) / (n + 1)
        self.centroid_lon = (self.centroid_lon * n + event.lon) / (n + 1)
        self.visits_total += 1
        if event.day.weekday() < 5:
            self.visits_weekday += 1
        else:
            self.visits_weekend += 1
        self.days_visited.add(WEEKDAYS[event.day.weekday()])
        self.member_events.append(event)


@dataclass(frozen=True)
class PoiNode:
    identifier: str
    lat: float
    lon: float
    visits_total: int
    visits_weekday: int
    visits_weekend: int
    category: FrequencyCategory
    days_visited: frozenset[str]
    member_events: tuple[StopEvent, ...] = field(default=(), compare=False)


@dataclass(frozen=True)
class TripEdge:
    day_id: str
    seq_index: int
    dest_poi_id: str
    dest_lat: float
    dest_lon: float


@dataclass(frozen=True)
class DailyTripGraph:
    """Per-weekday chain of transition edges between habitual destinations.

    Each edge stores only its destination; the source is implicitly the
    previous edge's destination (the day's first destination sources at the
    day's starting location, which is supplied by the caller at query time).
    """

    edges: dict[str, tuple[TripEdge, ...]]

    def day_destinations(self, day: str) -> list[str]:
        return [e.dest_poi_id for e in self.edges.get(day, ())]


def assign_clusters(events: list[StopEvent],
                    cluster_radius_m: float = DEFAULT_CLUSTER_RADIUS_M) -> list[StopCluster]:
    """Cluster stop events with a single chronological pass.

    Events must be sorted by timestamp; the result is deterministic given
    that order. Identifiers STOP_### are assigned in founding order.
    """
    if not 0 < cluster_radius_m < math.inf:
        raise ValueError(f"cluster_radius_m must be positive and finite, got {cluster_radius_m}")
    clusters: list[StopCluster] = []
    for ev in events:
        best = None
        best_d = math.inf
        for c in clusters:
            d = haversine_m(ev.lat, ev.lon, c.centroid_lat, c.centroid_lon)
            if d < best_d:
                best, best_d = c, d
        if best is not None and best_d <= cluster_radius_m:
            best.add(ev)
        else:
            cluster = StopCluster(identifier=f"STOP_{len(clusters) + 1:03d}",
                                  centroid_lat=ev.lat, centroid_lon=ev.lon)
            clusters.append(cluster)
            cluster.add(ev)
    return clusters


def categorize_frequency(v: float) -> FrequencyCategory:
    """Map average visits per week to a frequency category."""
    if not math.isfinite(v) or v < 0:
        raise errors.InvalidFrequency(f"invalid visit frequency {v}")
    if v <= 1:
        return FrequencyCategory.VERY_LOW
    if v <= 2:
        return FrequencyCategory.LOW
    if v <= 4:
        return FrequencyCategory.MEDIUM
    if v < 10:
        return FrequencyCategory.HIGH
    return FrequencyCategory.VERY_HIGH


def categorize_clusters(clusters: list[StopCluster],
                        observation_weeks: int) -> list[PoiNode]:
    """Attach frequency categories to every cluster (no filtering)."""
    if observation_weeks < 2:
        raise errors.ObservationTooShort(
            f"need >= 2 observation weeks, got {observation_weeks}")
    nodes = []
    for c in clusters:
        category = categorize_frequency(c.visits_total / observation_weeks)
        nodes.append(PoiNode(
            identifier=c.identifier, lat=c.centroid_lat, lon=c.centroid_lon,
            visits_total=c.visits_total, visits_weekday=c.visits_weekday,
            visits_weekend=c.visits_weekend, category=category,
            days_visited=frozenset(c.days_visited),
            member_events=tuple(c.member_events)))
    return nodes


def select_pois(clusters: list[StopCluster], observation_weeks: int,
                ) -> tuple[list[PoiNode], list[PoiNode]]:
    """Promote clusters of an ACCEPTED_CATEGORIES frequency to habitual
    destinations.

    Returns (promoted, all_categorized); the full categorized list keeps
    non-promoted stops available for export.
    """
    all_nodes = categorize_clusters(clusters, observation_weeks)
    return [n for n in all_nodes if n.category in ACCEPTED_CATEGORIES], all_nodes


def build_daily_flows(pois: list[PoiNode]) -> DailyTripGraph:
    """Condense the POIs' visits into one modal destination sequence per weekday.

    The visits are the POIs' `member_events`; stops of no POI are linked
    across. Each calendar day's chronological POI visits (consecutive
    duplicates collapsed) form one observed sequence; per weekday the most
    frequent sequence wins, ties broken by the most recent calendar day.
    Sequences with fewer than two visits yield no edges.
    """
    poi_by_id = {p.identifier: p for p in pois}
    visits = sorted(((ev.timestamp, ev.day, p.identifier)
                     for p in pois for ev in p.member_events), key=lambda v: v[0])
    by_day: dict[date, list[str]] = {}
    for _ts, day, pid in visits:
        seq = by_day.setdefault(day, [])
        if not seq or seq[-1] != pid:
            seq.append(pid)

    edges: dict[str, tuple[TripEdge, ...]] = {}
    for wd_index, wd in enumerate(WEEKDAYS):
        observed = [(d, tuple(seq)) for d, seq in by_day.items()
                    if d.weekday() == wd_index]
        if not observed:
            edges[wd] = ()
            continue
        counts = Counter(seq for _, seq in observed)
        latest = {}
        for d, seq in observed:
            latest[seq] = max(latest.get(seq, d), d)
        modal = max(counts, key=lambda seq: (counts[seq], latest[seq]))
        day_edges = []
        for i, pid in enumerate(modal[1:], start=1):
            p = poi_by_id[pid]
            day_edges.append(TripEdge(day_id=wd, seq_index=i, dest_poi_id=pid,
                                      dest_lat=p.lat, dest_lon=p.lon))
        edges[wd] = tuple(day_edges)
    return DailyTripGraph(edges=edges)


def export_graph_csv(nodes: list[PoiNode], graph: DailyTripGraph,
                     nodes_path: str, edges_path: str) -> None:
    """Write the nodes and edges CSV pair; re-importing round-trips exactly."""
    write_table(nodes_path, NODES_HEADER,
                ([n.identifier, repr(n.lat), repr(n.lon), n.visits_total,
                  n.visits_weekday, n.visits_weekend, n.category.name,
                  "|".join(d for d in WEEKDAYS if d in n.days_visited)]
                 for n in nodes))
    write_table(edges_path, EDGES_HEADER,
                ([e.day_id, e.seq_index, e.dest_poi_id, repr(e.dest_lat), repr(e.dest_lon)]
                 for wd in WEEKDAYS for e in graph.edges.get(wd, ())))


def import_graph_csv(nodes_path: str, edges_path: str,
                     ) -> tuple[list[PoiNode], DailyTripGraph]:
    """Inverse of export_graph_csv (member events are not persisted)."""
    nodes = read_table(nodes_path, NODES_HEADER, lambda row: PoiNode(
        identifier=row[0], lat=float(row[1]), lon=float(row[2]),
        visits_total=int(row[3]), visits_weekday=int(row[4]),
        visits_weekend=int(row[5]), category=FrequencyCategory[row[6]],
        days_visited=frozenset(row[7].split("|")) if row[7] else frozenset()))
    edges: dict[str, list[TripEdge]] = {wd: [] for wd in WEEKDAYS}
    read_table(edges_path, EDGES_HEADER, lambda row: edges[row[0]].append(TripEdge(
        day_id=row[0], seq_index=int(row[1]), dest_poi_id=row[2],
        dest_lat=float(row[3]), dest_lon=float(row[4]))))
    graph = DailyTripGraph(edges={wd: tuple(es) for wd, es in edges.items()})
    return nodes, graph
