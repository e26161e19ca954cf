import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geoaccess import GeoPoint, SpatialIndex, ValidationError, haversine_miles
from geoaccess.geo import near_pairs

from oracles import R_MILES, ref_haversine, ref_haversine_libm

# Frozen before the build by an independent haversine script.
BALTIMORE_ANNAPOLIS_MILES = 22.496019573570347

lat_strategy = st.floats(min_value=-89.0, max_value=89.0)
lon_strategy = st.floats(min_value=-179.0, max_value=179.0)


def test_identity_distance_is_zero():
    p = GeoPoint(39.0, -76.0)
    assert haversine_miles(p, p) == 0.0


def test_one_degree_longitude_at_equator():
    d = haversine_miles(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
    assert d == pytest.approx(69.0933, abs=1e-3)
    assert d == pytest.approx(3958.7613 * math.pi / 180.0, rel=1e-12)


def test_reference_city_pair_matches_scripted_oracle():
    d = haversine_miles(GeoPoint(39.2904, -76.6122), GeoPoint(38.9784, -76.4922))
    assert d == pytest.approx(BALTIMORE_ANNAPOLIS_MILES, rel=1e-6)


@given(lat_strategy, lon_strategy, lat_strategy, lon_strategy)
def test_distance_symmetry(lat1, lon1, lat2, lon2):
    a, b = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2)
    assert haversine_miles(a, b) == haversine_miles(b, a)


@settings(max_examples=50)
@given(st.lists(st.tuples(lat_strategy, lon_strategy), min_size=3, max_size=3))
def test_triangle_inequality(coords):
    a, b, c = (GeoPoint(la, lo) for la, lo in coords)
    ab = haversine_miles(a, b)
    bc = haversine_miles(b, c)
    ac = haversine_miles(a, c)
    assert ac <= ab + bc + 1e-9 * max(1.0, ac)


@pytest.mark.parametrize("lat,lon", [(90.5, 0.0), (-91.0, 0.0), (0.0, 180.1), (0.0, -200.0)])
def test_out_of_range_points_rejected(lat, lon):
    with pytest.raises(ValidationError):
        GeoPoint(lat, lon)


def _one(point):
    return SpatialIndex([("c", point)])


def _scan(left, right, radius):
    """Every (left index, right index, distance) within radius, by a scalar libm scan."""
    return [(a, b, ref_haversine_libm(p, q))
            for a, (_, p) in enumerate(left) for b, (_, q) in enumerate(right)
            if ref_haversine_libm(p, q) <= radius]


def test_empty_index_returns_empty():
    i, j, dist = SpatialIndex([]).pairs_within(_one(GeoPoint(0.0, 0.0)), 100.0)
    assert i.size == 0 and j.size == 0 and dist.tolist() == []


def test_index_holds_all_points():
    pts = [("a", GeoPoint(0.0, 0.0)), ("b", GeoPoint(1.0, 1.0)), ("c", GeoPoint(2.0, 2.0))]
    assert len(SpatialIndex(pts)) == 3


def test_duplicate_id_rejected_by_name():
    pts = [("a", GeoPoint(0.0, 0.0)), ("a", GeoPoint(1.0, 1.0))]
    with pytest.raises(ValidationError, match="'a'"):
        SpatialIndex(pts)


def test_zero_radius_excluding_center_is_empty():
    index = SpatialIndex([("a", GeoPoint(1.0, 1.0))])
    assert index.pairs_within(_one(GeoPoint(0.0, 0.0)), 0.0)[2].tolist() == []


def test_zero_radius_on_coincident_point():
    index = SpatialIndex([("a", GeoPoint(1.0, 1.0)), ("b", GeoPoint(2.0, 2.0))])
    i, j, dist = index.pairs_within(_one(GeoPoint(1.0, 1.0)), 0.0)
    assert (i.tolist(), j.tolist(), dist.tolist()) == ([0], [0], [0.0])


def test_negative_radius_rejected():
    index = SpatialIndex([("a", GeoPoint(0.0, 0.0))])
    with pytest.raises(ValidationError):
        index.pairs_within(_one(GeoPoint(0.0, 0.0)), -1.0)


@pytest.mark.parametrize("radius", [math.nan, math.inf, None])
def test_a_radius_that_is_no_finite_number_fails_the_shared_rule(radius):
    index = SpatialIndex([("a", GeoPoint(0.0, 0.0))])
    with pytest.raises(ValidationError, match=f"^radius must be finite and >= 0, got {radius!r}$"):
        index.pairs_within(_one(GeoPoint(0.0, 0.0)), radius)


@pytest.mark.parametrize("radius", [15.0, 0.5, 120.0])
def test_index_matches_linear_scan(radius):
    rng = np.random.default_rng(7)

    def scatter(prefix, n):
        return [(f"{prefix}{i:04d}", GeoPoint(float(rng.uniform(37.0, 40.0)),
                                              float(rng.uniform(-79.0, -75.0))))
                for i in range(n)]

    points, centers = scatter("p", 1000), scatter("c", 50)
    i, j, dist = SpatialIndex(centers).pairs_within(SpatialIndex(points), radius)
    assert list(zip(i.tolist(), j.tolist(), dist.tolist())) == _scan(centers, points, radius)


def test_boundary_distance_is_included():
    pts = [("edge", GeoPoint(0.0, 1.0)), ("far", GeoPoint(0.0, 3.0))]
    center = GeoPoint(0.0, 0.0)
    exact = haversine_miles(center, pts[0][1])
    i, j, dist = SpatialIndex(pts).pairs_within(_one(center), exact)
    assert (i.tolist(), dist.tolist()) == ([0], [exact])


def test_haversine_agrees_with_independent_formula():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lat1, lat2 = rng.uniform(-80, 80, 2)
        lon1, lon2 = rng.uniform(-170, 170, 2)
        got = haversine_miles(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
        assert got == pytest.approx(ref_haversine(lat1, lon1, lat2, lon2), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("radius", [15.0, 0.5, 120.0])
def test_pairs_within_matches_pairwise_scan(radius):
    rng = np.random.default_rng(5)

    def scatter(prefix, n):
        return [(f"{prefix}{i:03d}", GeoPoint(float(rng.uniform(37.0, 40.0)),
                                              float(rng.uniform(-79.0, -75.0))))
                for i in range(n)]

    left, right = scatter("a", 60), scatter("b", 400)
    i, j, dist = SpatialIndex(left).pairs_within(SpatialIndex(right), radius)
    assert list(zip(i.tolist(), j.tolist(), dist.tolist())) == _scan(left, right, radius)


def test_pairs_within_keeps_boundary_and_coincident_pairs():
    left = SpatialIndex([("c", GeoPoint(0.0, 0.0))])
    pts = [("same", GeoPoint(0.0, 0.0)), ("edge", GeoPoint(0.0, 1.0)), ("far", GeoPoint(0.0, 3.0))]
    exact = haversine_miles(GeoPoint(0.0, 0.0), pts[1][1])
    i, j, dist = left.pairs_within(SpatialIndex(pts), exact)
    assert j.tolist() == [0, 1] and dist.tolist() == [0.0, exact]
    assert [len(a) for a in left.pairs_within(SpatialIndex([]), 10.0)] == [0, 0, 0]


HALF_CIRCUMFERENCE_MILES = math.pi * R_MILES
globe_point = st.builds(
    GeoPoint,
    st.one_of(st.sampled_from([-90.0, 0.0, 90.0]), st.floats(-90.0, 90.0)),
    st.one_of(st.sampled_from([-180.0, 0.0, 180.0]), st.floats(-180.0, 180.0)),
)


def _antipode(p, nudge):
    lon = p.lon - 180.0 if p.lon > 0.0 else p.lon + 180.0
    return GeoPoint(-p.lat, min(180.0, max(-180.0, lon + nudge)))


@settings(max_examples=200, deadline=None)
@given(st.lists(globe_point, min_size=1, max_size=12), st.lists(globe_point, max_size=30),
       st.lists(st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)), max_size=12),
       st.one_of(st.sampled_from([0.0, HALF_CIRCUMFERENCE_MILES]),
                 st.floats(0.0, HALF_CIRCUMFERENCE_MILES)))
# An exact antipode whose libm s rounds to 1 + 2**-52, above 1; its distance is
# the half circumference, the largest radius asked for.
@example([GeoPoint(48.333, -141.899)], [], [0.0], HALF_CIRCUMFERENCE_MILES)
# Points and their antipodes, whose mean direction is zero.
@example([GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)], [], [0.0, 0.0], 100.0)
def test_pairs_within_is_the_libm_scan_on_the_whole_globe(left, extra, nudges, radius):
    # The right side holds coincident copies of left points and their
    # (nearly) antipodal points, besides points anywhere on the globe.
    right = extra + left[: len(left) // 2 + 1] + [_antipode(p, d) for p, d in zip(left, nudges)]
    left = [(f"a{k}", p) for k, p in enumerate(left)]
    right = [(f"b{k}", p) for k, p in enumerate(right)]
    i, j, dist = SpatialIndex(left).pairs_within(SpatialIndex(right), radius)
    assert list(zip(i.tolist(), j.tolist(), dist.tolist())) == _scan(left, right, radius)
    assert dist.tolist() == [haversine_miles(left[a][1], right[b][1])
                             for a, b in zip(i.tolist(), j.tolist())]


def _brute_pairs(a, b, bound):
    """Sorted (i, j, squared distance) of every pair at most ``bound`` apart, over all pairs."""
    d = (a[:, None, :] - (a if b is None else b)[None, :, :]) ** 2
    d2 = d[..., 0] + d[..., 1]
    d2 += d[..., 2]
    i, j = np.nonzero((d2 <= bound * bound) & (np.arange(len(a))[:, None] <
                                                   np.arange(d2.shape[1])[None, :]
                                                   if b is None else True))
    return sorted(zip(i.tolist(), j.tolist(), d2[i, j].tolist()))


def _near(a, b, bound):
    i, j, d2 = near_pairs(a, b, bound)
    return sorted(zip(i.tolist(), j.tolist(), d2.tolist()))


def _on_sphere(rng, n):
    v = rng.normal(size=(n, 3))
    return R_MILES * v / np.linalg.norm(v, axis=1)[:, None]


def _lattice(u, v, n=12):
    """The n x n lattice spanned by steps ``u`` and ``v``, far from the origin."""
    i, j = np.meshgrid(np.arange(n), np.arange(n))
    return i.reshape(-1, 1) * u + j.reshape(-1, 1) * v + [0.0, 0.0, R_MILES]


# Steps of equal length 0.5 or 0.625 whose coordinates are multiples of 1/8,
# so that every squared distance between lattice points is exact.
SQUARE = (np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0]))
TURNED = (np.array([0.375, 0.5, 0.0]), np.array([-0.5, 0.375, 0.0]))
TILTED = (np.array([0.375, 0.0, 0.5]), np.array([0.0, 0.625, 0.0]))


def _near_pair_cases():
    rng = np.random.default_rng(3)
    # Neighbours exactly one bound apart, across many cell borders.
    yield "lattice", _lattice(*SQUARE), None, 0.5
    yield "lattice_two_sets", _lattice(*SQUARE)[::2], _lattice(*SQUARE)[1::2], 0.5
    yield "turned_lattice", _lattice(*TURNED), None, 0.625
    yield "tilted_lattice", _lattice(*TILTED), None, 0.625
    globe = _on_sphere(rng, 150)
    yield "full_diameter", globe, None, 2.0 * R_MILES + 1.0
    yield "full_diameter_two_sets", globe[:40], globe[40:], 2.0 * R_MILES + 1.0
    repeated = np.repeat(_on_sphere(rng, 30) * 1e-3 + [0.0, 0.0, R_MILES], 3, axis=0)
    yield "zero_bound", repeated, None, 0.0
    yield "zero_bound_two_sets", repeated[:40], repeated[40:], 0.0
    # Each point beside its antipode: the mean direction is exactly zero.
    yield "whole_globe", np.concatenate([(p, -p) for p in globe[:60]]), None, 3000.0
    yield "whole_globe_two_sets", globe[:70], globe[70:], 3000.0


@pytest.mark.parametrize("a, b, bound", [case[1:] for case in _near_pair_cases()],
                         ids=[case[0] for case in _near_pair_cases()])
def test_near_pairs_is_the_brute_force_scan(a, b, bound):
    got = _near(a, b, bound)
    assert got == _brute_pairs(a, b, bound)
    assert got


@pytest.mark.parametrize("steps", [SQUARE, TURNED, TILTED])
def test_near_pairs_keep_every_pair_exactly_a_bound_apart(steps):
    bound = float(np.linalg.norm(steps[0]))
    edges = [(bound * bound, 2 * 12 * 11)]
    got = _near(_lattice(*steps), None, bound)
    assert [(d2, len(got)) for d2 in {d2 for _, _, d2 in got}] == edges


@pytest.mark.parametrize("two_sets", [False, True])
def test_near_pairs_keep_a_pair_a_bound_apart_from_just_inside_a_cell(two_sets):
    # Mirrored about the z axis, so the points project onto their own x
    # coordinates, and the lowest at x = -1 starts the first cell. Each
    # pair (x, x + 0.5) is exactly 0.5 apart, with x just short of the
    # first cell border at x = -0.75: cells a hair narrower than a half
    # bound would put its partner three cells on.
    x = -1.0 + (0.25 - np.arange(1, 21) * 1e-7)
    assert ((x + 0.5) - x == 0.5).all()

    def mirrored(values):
        v = np.concatenate([(v, -v) for v in values])
        return np.column_stack((v, np.zeros(v.size), np.full(v.size, R_MILES)))

    a, b = mirrored(np.append(x, -1.0)), mirrored(x + 0.5)
    if not two_sets:
        a, b = np.concatenate((a, b)), None
    got = _near(a, b, 0.5)
    assert got == _brute_pairs(a, b, 0.5)
    assert sum(d2 == 0.25 for _, _, d2 in got) >= 20


def test_near_pairs_of_an_empty_set_or_one_point_are_none():
    lattice = _lattice(*SQUARE)
    assert _near(np.zeros((0, 3)), lattice, 1.0) == [] == _near(lattice, np.zeros((0, 3)), 1.0)
    assert _near(lattice[:1], None, 1.0) == []
