import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocatch.geometry import (
    Point2,
    Direction,
    Scene,
    SceneError,
    build_obstacle_scene,
    disk,
    point_segment_distance,
    rectangle,
    segment_distance,
    torus,
    zone_segment,
)
from geocatch.catcher import CatcherPath
from geocatch.evader import _first_threat
from oracle import torus_distance, zone_distance, zone_membership


def brute_segment_distance(p, a, b, n=20001):
    # independent oracle: dense sampling along the segment
    best = float("inf")
    for k in range(n):
        t = k / (n - 1)
        x = a.x + t * (b.x - a.x)
        y = a.y + t * (b.y - a.y)
        best = min(best, math.hypot(p.x - x, p.y - y))
    return best


@pytest.fixture(scope="module")
def scene():
    return build_obstacle_scene(0.05, 2.0)


def test_centers_form_triangle_of_side_one_plus_two_r0(scene):
    c = scene.centers
    for i in range(3):
        assert math.dist(c[i], c[(i + 1) % 3]) == pytest.approx(1.1, abs=1e-12)


def test_gap_between_circles_is_one(scene):
    c = scene.centers
    for i in range(3):
        gap = math.dist(c[i], c[(i + 1) % 3]) - 2 * scene.r0
        assert gap == pytest.approx(1.0, abs=1e-12)


def test_centroid_at_origin_and_first_center_on_y_axis(scene):
    cx = sum(c.x for c in scene.centers) / 3
    cy = sum(c.y for c in scene.centers) / 3
    assert abs(cx) < 1e-12 and abs(cy) < 1e-12
    assert abs(scene.centers[0].x) < 1e-12 and scene.centers[0].y > 0


def test_degenerate_r0_rejected():
    with pytest.raises(SceneError):
        build_obstacle_scene(0.0, 2.0)
    with pytest.raises(SceneError):
        build_obstacle_scene(-0.1, 2.0)
    with pytest.raises(SceneError):
        build_obstacle_scene(0.3, 2.0)


def test_outer_radius_too_small_rejected():
    # circumradius + r0 = 1.1/sqrt(3) + 0.05 ~ 0.685
    with pytest.raises(SceneError):
        build_obstacle_scene(0.05, 0.6)


NOT_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NOT_FINITE)
@pytest.mark.parametrize("build", [
    torus,
    disk,
    lambda v: rectangle(v, 1.0),
    lambda v: rectangle(1.0, v),
    lambda v: build_obstacle_scene(v, 2.0),
    lambda v: build_obstacle_scene(0.05, v),
], ids=["torus", "disk", "width", "height", "r0", "outer_radius"])
def test_non_finite_scene_parameter_rejected(build, value):
    with pytest.raises(SceneError):
        build(value)


@pytest.mark.parametrize("spec", [
    '{"kind":"torus","side":NaN}',
    '{"kind":"disk","radius":Infinity}',
    '{"kind":"rectangle","width":1,"height":NaN}',
    '{"kind":"obstacle","r0":0.05,"outer_radius":Infinity}',
])
def test_non_finite_scene_json_rejected(spec):
    with pytest.raises(SceneError):
        Scene.from_json(spec)


@pytest.mark.parametrize("spec", ['[]', '1', '"x"', 'null'])
def test_scene_json_that_is_not_an_object_rejected(spec):
    # once an AttributeError from d.get, which the CLI did not catch
    with pytest.raises(SceneError):
        Scene.from_json(spec)


def test_gap_midpoint_belongs_to_single_zone(scene):
    c2, c3 = scene.centers[1], scene.centers[2]
    mid = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
    assert zone_membership(scene, mid) == {1}


def test_centroid_in_no_zone(scene):
    # oracle: the centroid sits at the triangle inradius from every side
    centroid = Point2(0.0, 0.0)
    for a in (1, 2, 3):
        ca, cb = zone_segment(scene, a)
        d = brute_segment_distance(centroid, ca, cb)
        assert d == pytest.approx(1.1 / (2 * math.sqrt(3)), abs=1e-6)
        assert d > scene.r0
    assert zone_membership(scene, centroid) == set()


def test_circle_center_belongs_to_its_two_hulls(scene):
    assert zone_membership(scene, scene.centers[0]) == {2, 3}
    assert zone_membership(scene, scene.centers[1]) == {1, 3}
    assert zone_membership(scene, scene.centers[2]) == {1, 2}


def test_zone_distance_matches_brute_force(scene):
    pts = [Point2(0.3, 0.1), Point2(-0.4, -0.2), Point2(0.0, 0.5),
           Point2(0.9, 0.9), Point2(-0.01, -0.3)]
    for p in pts:
        for a in (1, 2, 3):
            ca, cb = zone_segment(scene, a)
            want = max(0.0, brute_segment_distance(p, ca, cb) - scene.r0)
            assert zone_distance(scene, p, a) == pytest.approx(want, abs=1e-6)


def test_zone_distance_is_positive_exactly_outside_the_zone(scene):
    pts = [Point2(0.0, 0.0), Point2(0.0, -0.3175426480542942),
           Point2(0.3, 0.2), scene.centers[0]]
    for p in pts:
        members = zone_membership(scene, p)
        for a in (1, 2, 3):
            assert (zone_distance(scene, p, a) > 0.0) == (a not in members)


def ball_intersects_zone(scene, center, eps, a):
    """Does the open ball B(center, eps) meet the closed zone Z_a?  Decided
    as the evader's planner and validator decide it, for a ball parked at
    center."""
    path = CatcherPath(waypoints=[(0.0, center), (1.0, center)], eps=eps,
                       v=0.0, scene=scene)
    return _first_threat(path, scene, a, 0.0, 1.0, eps) is not None


def test_ball_intersects_zone_on_axis(scene):
    c2, c3 = scene.centers[1], scene.centers[2]
    mid = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
    assert ball_intersects_zone(scene, mid, 0.05, 1)


def test_ball_at_centroid_misses_all_zones_for_small_eps(scene):
    centroid = Point2(0.0, 0.0)
    d = min(zone_distance(scene, centroid, a) for a in (1, 2, 3))
    for a in (1, 2, 3):
        assert not ball_intersects_zone(scene, centroid, d * 0.99, a)
        assert ball_intersects_zone(scene, centroid, d * 1.01 + 1e-9, a)


def test_ball_far_outside_misses(scene):
    assert not ball_intersects_zone(scene, Point2(1.9, 0.0), 0.05, 1)


def test_ball_intersects_zone_monotone_in_eps(scene):
    p = Point2(0.2, -0.1)
    for a in (1, 2, 3):
        hits = [ball_intersects_zone(scene, p, e, a) for e in (0.01, 0.1, 0.5, 1.0)]
        # once true, stays true
        assert hits == sorted(hits)


@settings(max_examples=200, deadline=None)
@given(x=st.floats(-1.5, 1.5), y=st.floats(-1.5, 1.5))
def test_membership_equivariant_under_three_fold_rotation(x, y):
    scene = build_obstacle_scene(0.05, 2.0)
    p = Point2(x, y)
    rot = 2 * math.pi / 3
    q = Point2(p.x * math.cos(rot) - p.y * math.sin(rot),
               p.x * math.sin(rot) + p.y * math.cos(rot))
    # rotating by 2*pi/3 maps C1->C2->C3->C1, hence permutes zones 1->2->3->1
    perm = {1: 2, 2: 3, 3: 1}
    got = {perm[a] for a in zone_membership(scene, p)}
    want = zone_membership(scene, q)
    if got != want:
        # tolerate boundary-of-zone disagreements at float precision
        for a in got ^ want:
            assert abs(zone_distance(scene, q, a)) < 1e-9


def test_membership_subset_of_indices(scene):
    for p in [Point2(0, 0), Point2(0.55, -0.31), Point2(-2, 1)]:
        assert zone_membership(scene, p) <= {1, 2, 3}


def test_scene_json_round_trip(scene):
    s = json.dumps(scene.to_dict())
    assert json.loads(s)["kind"] == "obstacle"
    back = Scene.from_json(s)
    assert back == scene
    t = torus(1.0)
    assert Scene.from_json(json.dumps(t.to_dict())) == t


def test_scene_value(scene):
    # NamedTuple fields in declaration order, so the repr of the frozen
    # record it replaced; equal scenes hash alike
    assert repr(torus(1.0)) == (
        "Scene(kind='torus', side=1.0, width=0.0, height=0.0, radius=0.0, "
        "r0=0.0, outer_radius=0.0, centers=())")
    assert repr(scene) == (
        "Scene(kind='obstacle', side=0.0, width=0.0, height=0.0, radius=0.0, "
        "r0=0.05, outer_radius=2.0, centers=(Point2(x=0.0, "
        "y=0.6350852961085884), Point2(x=-0.55, y=-0.3175426480542942), "
        "Point2(x=0.55, y=-0.3175426480542942)))")
    assert {torus(1.0), torus(1.0), scene,
            build_obstacle_scene(0.05, 2.0)} == {torus(1.0), scene}
    assert torus(1.0) != torus(2.0)


def test_point_value():
    p = Point2(0.5, -1.25)
    assert repr(p) == "Point2(x=0.5, y=-1.25)"
    assert p == Point2(0.5, -1.25) and hash(p) == hash(Point2(0.5, -1.25))
    assert p != Point2(-1.25, 0.5)
    assert tuple(p) == (0.5, -1.25)
    assert p != (0.5, -1.25)  # equal only to a Point2


def test_direction_value():
    d = Direction(7.0)
    assert repr(d) == "Direction(angle=0.7168146928204138)"
    assert d == Direction(7.0 - 2 * math.pi) and hash(d) == hash(Direction(d.angle))
    v = Direction.from_vec(3.0, 4.0)
    assert repr(v) == "Direction(angle=0.9272952180016122)"
    assert v.vec == (0.6, 0.8)


def test_direction_compares_angles_only():
    # from_vec keeps the exact components, Direction(angle) takes cos and
    # sin of the angle; equality and hash read the angle alone
    exact = Direction.from_vec(0.0, 1.0)
    rounded = Direction(math.pi / 2)
    assert exact.vec == (0.0, 1.0)
    assert rounded.vec != exact.vec
    assert exact == rounded and hash(exact) == hash(rounded)
    assert Direction.from_vec(0.0, -1.0).vec == (0.0, -1.0)


def test_direction_vector_is_cos_and_sin_of_its_angle():
    # a Direction built from an angle computes its vector when read, from
    # the same normalized angle it stored, so every read gives the same bits
    rng = random.Random(29)
    for a in [rng.uniform(-20.0, 20.0) for _ in range(1000)] + [
            0.0, -0.0, 2 * math.pi, math.nextafter(2 * math.pi, 0.0),
            -2 * math.pi]:
        d = Direction(a)
        n = d.angle
        assert d.vec == (math.cos(n), math.sin(n)), a
        kept = Direction(a, *d.vec)  # as the Events columns rebuild it
        assert kept == d and kept.vec == d.vec, a


def test_from_vec_with_a_nan_component_falls_back_to_its_angle():
    # hypot(inf, 1) is inf, so the x component divides to nan; the vector
    # read is then cos and sin of the angle atan2(1, inf) = 0
    d = Direction.from_vec(math.inf, 1.0)
    assert d.angle == 0.0
    assert d.vec == (1.0, 0.0)


def test_direction_from_an_angle_holds_no_vector():
    # 88.5 traced bytes a Direction(angle) on Python 3.10-3.13, the 8 of its
    # list slot included: the object and its angle float.  Storing cos and
    # sin besides took two more floats, 136.5 bytes.
    rng = random.Random(7)
    angles = [rng.uniform(0.0, 2 * math.pi) for _ in range(10_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dirs = [Direction(a) for a in angles]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(dirs) == len(angles)
    assert held / len(angles) <= 112


def test_torus_distance_wraps():
    assert torus_distance(Point2(0.95, 0.0), Point2(0.05, 0.0), 1.0) == pytest.approx(0.1, abs=1e-12)
    assert torus_distance(Point2(0.2, 0.9), Point2(0.2, 0.1), 1.0) == pytest.approx(0.2, abs=1e-12)


def test_direction_normalizes():
    d = Direction(7.0)
    assert 0.0 <= d.angle < 2 * math.pi
    assert d.angle == pytest.approx(7.0 - 2 * math.pi, abs=1e-12)
    v = Direction.from_vec(0.0, -1.0)
    assert v.angle == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_point_segment_distance_against_oracle():
    a, b = Point2(-0.3, 0.2), Point2(0.7, -0.5)
    for p in [Point2(0, 0), Point2(1, 1), Point2(-1, 0.2), Point2(0.2, -0.15)]:
        assert point_segment_distance(p, a, b) == pytest.approx(
            brute_segment_distance(p, a, b), abs=1e-6)


def test_segment_distance_against_oracle():
    # oracle: the least endpoint-to-segment distance, sampled, unless the
    # segments cross; a crossing pair, a parallel pair and a degenerate one
    a, b = Point2(-0.3, 0.2), Point2(0.7, -0.5)
    assert segment_distance(Point2(0.0, -0.5), Point2(0.3, 0.4), a, b) == 0.0
    p, q = Point2(-0.3, 0.6), Point2(0.7, -0.1)
    for u, v in ((p, q), (p, p), (Point2(1.0, -1.0), Point2(2.0, 0.0))):
        want = min(brute_segment_distance(u, a, b), brute_segment_distance(v, a, b),
                   brute_segment_distance(a, u, v), brute_segment_distance(b, u, v))
        assert segment_distance(u, v, a, b) == pytest.approx(want, abs=1e-6)
        assert segment_distance(a, b, u, v) == segment_distance(u, v, a, b)
