"""Geodesic primitives: great-circle distance and point-to-polyline distance.

The scalar functions are the definitions. `haversine_m_array` evaluates the
same formula over numpy arrays; its results may differ from the scalar ones
in the last bits (numpy's sin/cos/arcsin are not libm's), so callers use it
only to screen candidates and let the scalar functions decide near a
threshold.
"""

import math

import numpy as np

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two lat/lon points (degrees) in meters."""
    phi1, lam1, phi2, lam2 = map(math.radians, (lat1, lon1, lat2, lon2))
    dphi = phi2 - phi1
    dlam = lam2 - lam1
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def haversine_m_array(lat1, lon1, lat2, lon2) -> np.ndarray:
    """`haversine_m` over numpy arrays (broadcast), with the same operations."""
    phi1, lam1, phi2, lam2 = (np.radians(x) for x in (lat1, lon1, lat2, lon2))
    a = (np.sin((phi2 - phi1) / 2.0) ** 2
         + np.cos(phi1) * np.cos(phi2) * np.sin((lam2 - lam1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(a)))


def point_segment_distance_m(lat: float, lon: float,
                             lat1: float, lon1: float,
                             lat2: float, lon2: float) -> float:
    """Distance from a point to a geodesic segment, in meters.

    Uses an equirectangular projection centered on the segment, which is
    accurate to well under a meter at the few-km scales this package
    operates at.
    """
    lat0 = math.radians((lat1 + lat2) / 2.0)
    kx = EARTH_RADIUS_M * math.cos(lat0) * math.pi / 180.0
    ky = EARTH_RADIUS_M * math.pi / 180.0

    px, py = (lon - lon1) * kx, (lat - lat1) * ky
    sx, sy = (lon2 - lon1) * kx, (lat2 - lat1) * ky

    seg_sq = sx * sx + sy * sy
    if seg_sq == 0.0:
        return haversine_m(lat, lon, lat1, lon1)
    t = max(0.0, min(1.0, (px * sx + py * sy) / seg_sq))
    nearest_lon = lon1 + t * (lon2 - lon1)
    nearest_lat = lat1 + t * (lat2 - lat1)
    return haversine_m(lat, lon, nearest_lat, nearest_lon)


def point_segment_distance_m_array(lat, lon, lat1: float, lon1: float,
                                   lat2: float, lon2: float) -> np.ndarray:
    """`point_segment_distance_m` from arrays of points to one segment."""
    lat0 = math.radians((lat1 + lat2) / 2.0)
    kx = EARTH_RADIUS_M * math.cos(lat0) * math.pi / 180.0
    ky = EARTH_RADIUS_M * math.pi / 180.0

    px, py = (lon - lon1) * kx, (lat - lat1) * ky
    sx, sy = (lon2 - lon1) * kx, (lat2 - lat1) * ky

    seg_sq = sx * sx + sy * sy
    if seg_sq == 0.0:
        return haversine_m_array(lat, lon, lat1, lon1)
    t = np.maximum(0.0, np.minimum(1.0, (px * sx + py * sy) / seg_sq))
    return haversine_m_array(lat, lon, lat1 + t * (lat2 - lat1), lon1 + t * (lon2 - lon1))


def point_polyline_distance_m(lat: float, lon: float,
                              polyline: list[tuple[float, float]]) -> float:
    """Minimum distance from a point to a polyline of (lat, lon) vertices."""
    if not polyline:
        raise ValueError("empty polyline")
    if len(polyline) == 1:
        return haversine_m(lat, lon, polyline[0][0], polyline[0][1])
    best = math.inf
    for (a_lat, a_lon), (b_lat, b_lon) in zip(polyline, polyline[1:]):
        d = point_segment_distance_m(lat, lon, a_lat, a_lon, b_lat, b_lon)
        if d < best:
            best = d
    return best


def valid_coords(lat: float, lon: float) -> bool:
    return (math.isfinite(lat) and math.isfinite(lon)
            and -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0)
