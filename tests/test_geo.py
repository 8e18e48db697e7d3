import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from refuelopt.geo import (EARTH_RADIUS_M, haversine_m, haversine_m_each,
                           point_polyline_distance_m, point_segment_distance_m)

coords = st.tuples(st.floats(-80, 80), st.floats(-179, 179))


def test_haversine_identity():
    assert haversine_m(45.0, 11.0, 45.0, 11.0) == 0.0


def test_haversine_equatorial_degree():
    # one degree of longitude on the equator is R * pi / 180
    assert haversine_m(0.0, 0.0, 0.0, 1.0) == pytest.approx(111_194.9, abs=0.1)


def test_haversine_antipodal():
    assert haversine_m(0.0, 0.0, 0.0, 180.0) == pytest.approx(math.pi * EARTH_RADIUS_M, abs=1.0)


@given(coords, coords)
def test_haversine_symmetry(a, b):
    d_ab = haversine_m(a[0], a[1], b[0], b[1])
    d_ba = haversine_m(b[0], b[1], a[0], a[1])
    assert d_ab == pytest.approx(d_ba, rel=1e-6, abs=1e-9)


@given(coords, coords, coords)
def test_haversine_triangle_inequality(a, b, c):
    d_ac = haversine_m(a[0], a[1], c[0], c[1])
    d_ab = haversine_m(a[0], a[1], b[0], b[1])
    d_bc = haversine_m(b[0], b[1], c[0], c[1])
    assert d_ac <= d_ab + d_bc + 1e-6 * max(d_ab + d_bc, 1.0)


LATS = st.sampled_from([90.0, -90.0, 0.0]) | st.floats(-90.0, 90.0)
LONS = st.sampled_from([180.0, -180.0, 0.0]) | st.floats(-180.0, 180.0)
# A near-antipodal pair whose `a` rounds above 1.0, so asin's argument is
# min(1.0, sqrt(a)) = 1.0.
OVER_ONE = (-73.52426643203805, -29.908002492092578, 73.524266432038, 150.09199750790734)


def nudged(x: float, ulps: int, limit: float) -> float:
    """`x` moved by `ulps` units in the last place, kept within +-`limit`."""
    return max(-limit, min(limit, x + ulps * math.ulp(x)))


@st.composite
def fans(draw):
    """A point and the points to measure from it: anywhere, at a pole or on
    the antimeridian, the point itself, a few ulps off it, or a few ulps off
    its antipode."""
    lat, lon = draw(LATS), draw(LONS)
    antipode = (-lat, lon - 180.0 if lon > 0.0 else lon + 180.0)
    others = []
    for kind in draw(st.lists(st.sampled_from(["any", "same", "near", "antipode"]),
                              max_size=8)):
        if kind == "any":
            others.append((draw(LATS), draw(LONS)))
        elif kind == "same":
            others.append((lat, lon))
        else:
            base_lat, base_lon = (lat, lon) if kind == "near" else antipode
            others.append((nudged(base_lat, draw(st.integers(-4, 4)), 90.0),
                           nudged(base_lon, draw(st.integers(-4, 4)), 180.0)))
    return lat, lon, others


@settings(max_examples=2000, deadline=None)
@given(fans())
@example((OVER_ONE[0], OVER_ONE[1], [OVER_ONE[2:]]))
def test_haversine_m_each_is_haversine_m_bit_for_bit(fan):
    lat, lon, others = fan
    lats, lons = np.array([p[0] for p in others]), np.array([p[1] for p in others])
    got = haversine_m_each(lat, lon, lats, lons)
    assert got.dtype == np.float64 and got.shape == (len(others),)
    assert got.tobytes() == np.array([haversine_m(lat, lon, *p) for p in others]).tobytes()


def test_over_one_pair_reaches_the_clamp():
    phi1, lam1, phi2, lam2 = map(math.radians, OVER_ONE)
    a = (math.sin((phi2 - phi1) / 2.0) ** 2
         + math.cos(phi1) * math.cos(phi2) * math.sin((lam2 - lam1) / 2.0) ** 2)
    assert a > 1.0
    assert haversine_m(*OVER_ONE) == 2.0 * EARTH_RADIUS_M * math.asin(1.0)


def test_point_on_segment_distance_zero():
    assert point_segment_distance_m(44.0, 10.5, 44.0, 10.0, 44.0, 11.0) < 0.5


def test_point_segment_endpoint_clamp():
    # point past the segment end snaps to the endpoint
    d = point_segment_distance_m(44.0, 11.1, 44.0, 10.0, 44.0, 11.0)
    assert d == pytest.approx(haversine_m(44.0, 11.1, 44.0, 11.0), rel=1e-6)


def test_point_polyline_takes_minimum_over_segments():
    poly = [(44.0, 10.0), (44.0, 10.5), (44.5, 10.5)]
    d = point_polyline_distance_m(44.25, 10.5, poly)
    assert d < 1.0  # lies on the second segment


def test_point_polyline_single_vertex():
    d = point_polyline_distance_m(44.0, 10.0, [(44.0, 10.1)])
    assert d == pytest.approx(haversine_m(44.0, 10.0, 44.0, 10.1))


def test_point_polyline_rejects_empty():
    with pytest.raises(ValueError):
        point_polyline_distance_m(44.0, 10.0, [])
