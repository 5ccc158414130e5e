import copy
import math
import pickle
import random
import struct
import tracemalloc
from itertools import takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocatch.geometry import (Point2, Direction, SceneError,
                               build_obstacle_scene, disk, rectangle)
from geocatch.flow import (
    BounceEvent,
    Events,
    OutOfRange,
    RayState,
    Trajectory,
    bounces,
    contact,
    flow_torus,
    position_at,
    reflect,
    trace,
)
from geocatch.cli import _trajectory_csv


SCENE = build_obstacle_scene(0.05, 2.0)


def brute_circle_hit(p, d, c, r, t_max=3.0, steps=300000):
    # oracle: scan for the first sign change of |p + t d - c| - r, then bisect
    f = lambda t: math.hypot(p.x + t * d[0] - c.x, p.y + t * d[1] - c.y) - r
    prev = f(1e-9)
    if prev < 0:
        return None
    dt = t_max / steps
    for k in range(1, steps + 1):
        t = k * dt
        cur = f(t)
        if prev > 0 and cur <= 0:
            lo, hi = t - dt, t
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if f(mid) > 0:
                    lo = mid
                else:
                    hi = mid
            return 0.5 * (lo + hi)
        prev = cur
    return None


def gap_midpoint(scene, i, j):
    a, b = scene.centers[i - 1], scene.centers[j - 1]
    return Point2((a.x + b.x) / 2, (a.y + b.y) / 2)


def aim(p, q):
    return Direction.from_vec(q.x - p.x, q.y - p.y)


def first_event(scene, s):
    """The first bounce of the geodesic from s, or None on the torus."""
    return next(bounces(scene, s), None)


class TestFirstEvent:
    """The first event of flow.bounces: the wall that flow._wall_ahead finds
    ahead of the start."""

    def test_gap_midpoint_hits_circle_at_half(self):
        mid = gap_midpoint(SCENE, 2, 3)
        d = aim(mid, SCENE.centers[2])
        e = first_event(SCENE, RayState(mid, d))
        assert e.wall == "obstacle3"
        assert e.time == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            p = Point2(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            if any(math.hypot(p.x - c.x, p.y - c.y) < SCENE.r0 + 0.05 for c in SCENE.centers):
                continue
            d = Direction(rng.uniform(0, 2 * math.pi))
            e = first_event(SCENE, RayState(p, d))
            hits = []
            for idx, c in enumerate(SCENE.centers):
                t = brute_circle_hit(p, d.vec, c, SCENE.r0)
                if t is not None:
                    hits.append((t, f"obstacle{idx + 1}"))
            t_outer = brute_circle_hit(p, d.vec, Point2(0, 0), SCENE.outer_radius + 1e-12)
            # outer wall hit from inside: scan for |q| reaching outer radius
            f = lambda t: math.hypot(p.x + t * d.vec[0], p.y + t * d.vec[1]) - SCENE.outer_radius
            lo, hi = 0.0, 6.0
            for _ in range(200):
                m = 0.5 * (lo + hi)
                if f(m) < 0:
                    lo = m
                else:
                    hi = m
            hits.append((0.5 * (lo + hi), "outer"))
            want_t, want_wall = min(hits)
            assert e.time == pytest.approx(want_t, abs=1e-7)
            assert e.wall == want_wall

    def test_disk_center_hits_at_radius(self):
        e = first_event(disk(1.0), RayState(Point2(0, 0), Direction(1.234)))
        assert e.time == pytest.approx(1.0, abs=1e-12)

    def test_rectangle_halfway(self):
        e = first_event(rectangle(1, 1), RayState(Point2(0.5, 0.5), Direction(0.0)))
        assert e.wall == "right"
        assert e.time == pytest.approx(0.5, abs=1e-12)

    def test_torus_escapes(self):
        from geocatch.geometry import torus
        assert first_event(torus(1.0), RayState(Point2(0, 0), Direction(0))) is None


class TestReflect:
    def test_normal_incidence_reverses(self):
        mid = gap_midpoint(SCENE, 2, 3)
        d = aim(mid, SCENE.centers[2])
        e = first_event(SCENE, RayState(mid, d))
        out = reflect(SCENE, e.point, e.wall, d)
        assert out.angle == pytest.approx((d.angle + math.pi) % (2 * math.pi), abs=1e-12)

    def test_mirror_on_floor(self):
        scn = rectangle(2, 1)
        d = Direction.from_vec(math.cos(math.pi / 4), -math.sin(math.pi / 4))
        e = first_event(scn, RayState(Point2(0.2, 0.5), d))
        assert e.wall == "bottom"
        out = reflect(scn, e.point, e.wall, d)
        assert out.vec[0] == pytest.approx(d.vec[0], abs=1e-12)
        assert out.vec[1] == pytest.approx(-d.vec[1], abs=1e-12)

    def test_unit_speed_and_tangential_component_preserved(self):
        rng = random.Random(3)
        for _ in range(50):
            p = Point2(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            if any(math.hypot(p.x - c.x, p.y - c.y) < SCENE.r0 + 0.02 for c in SCENE.centers):
                continue
            d = Direction(rng.uniform(0, 2 * math.pi))
            e = first_event(SCENE, RayState(p, d))
            if e.wall == "outer":
                continue
            out = reflect(SCENE, e.point, e.wall, d)
            assert e.out_dir == out  # the event leaves along its reflection
            assert math.hypot(*out.vec) == pytest.approx(1.0, abs=1e-12)
            if e.wall.startswith("obstacle"):
                c = SCENE.centers[int(e.wall[-1]) - 1]
                nx, ny = (e.point.x - c.x) / SCENE.r0, (e.point.y - c.y) / SCENE.r0
                tx, ty = -ny, nx
                din, dout = d.vec, out.vec
                assert din[0] * tx + din[1] * ty == pytest.approx(
                    dout[0] * tx + dout[1] * ty, abs=1e-12)

    def test_involution(self):
        mid = Point2(0.1, 0.05)
        d = aim(mid, SCENE.centers[0])
        e = first_event(SCENE, RayState(mid, d))
        out = reflect(SCENE, e.point, e.wall, d)
        back = reflect(SCENE, e.point, e.wall, Direction(out.angle + math.pi))
        assert back.angle == pytest.approx((d.angle + math.pi) % (2 * math.pi), abs=1e-9)

    def test_exact_tangent_reflects_into_itself(self):
        # the vertical line x = r0 touches C1 = (0, C1.y) at (r0, C1.y),
        # where the normal is (1, 0): the reflection is the ray itself
        c = SCENE.centers[0]
        up = Direction.from_vec(0.0, 1.0)
        e = first_event(SCENE, RayState(Point2(SCENE.r0, 0.0), up))
        assert e.wall == "obstacle1"
        assert e.point == Point2(SCENE.r0, c.y)
        assert e.out_dir == up

    # each side of the 1.5 x 1 rectangle, both ways along it: a start 1e-12
    # from the middle of the side, heading 1e-10 rad into it
    @pytest.mark.parametrize("x, y, angle", [
        (0.75, 1e-12, -1e-10), (0.75, 1e-12, math.pi + 1e-10),
        (0.75, 1 - 1e-12, 1e-10), (0.75, 1 - 1e-12, math.pi - 1e-10),
        (1e-12, 0.5, math.pi / 2 + 1e-10), (1e-12, 0.5, -math.pi / 2 - 1e-10),
        (1.5 - 1e-12, 0.5, math.pi / 2 - 1e-10),
        (1.5 - 1e-12, 0.5, -math.pi / 2 + 1e-10)],
        ids=["bottom-east", "bottom-west", "top-east", "top-west",
             "left-north", "left-south", "right-north", "right-south"])
    def test_grazing_hit_reflects_and_stays_on_the_rectangle(self, x, y,
                                                             angle):
        # the grazing hit reflects, so the ray never runs on past the side
        scn = rectangle(1.5, 1.0)
        tr = trace(scn, RayState(Point2(x, y), Direction(angle)), horizon=20.0)
        assert tr.events
        for e in tr.events:
            assert on_closed_domain(scn, e.point, tol=1e-12), e


class TestTrace:
    def test_period_two_orbit(self):
        # the C2-C3 axis is exactly horizontal, so this orbit never drifts
        mid = gap_midpoint(SCENE, 2, 3)
        d = aim(mid, SCENE.centers[2])
        tr = trace(SCENE, RayState(mid, d), horizon=100.0)
        times = [e.time for e in tr.events]
        assert len(times) >= 99
        assert times[0] == pytest.approx(0.5, abs=1e-9)
        for a, b in zip(times, times[1:]):
            assert b - a == pytest.approx(1.0, abs=1e-9)
        walls = [e.wall for e in tr.events[:6]]
        assert walls == ["obstacle3", "obstacle2"] * 3

    def test_period_two_orbit_off_axis_pair_short_run(self):
        # the C1-C2 axis is not float-exact; the unstable orbit still holds
        # the 1.0 bounce interval over the first bounces before noise grows
        mid = gap_midpoint(SCENE, 1, 2)
        d = aim(mid, SCENE.centers[0])
        tr = trace(SCENE, RayState(mid, d), horizon=10.0)
        times = [e.time for e in tr.events[:7]]
        for a, b in zip(times, times[1:]):
            assert b - a == pytest.approx(1.0, abs=1e-9)

    def test_rectangle_matches_unfolding_oracle(self):
        rng = random.Random(11)
        w, h = 1.0, 1.0
        scn = rectangle(w, h)
        for _ in range(100):
            p = Point2(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            ang = rng.uniform(0.05, 2 * math.pi)
            d = Direction(ang)
            tr = trace(scn, RayState(p, d), horizon=7.0)
            dx, dy = d.vec
            crossings = []
            for k in range(1, 40):
                if dx > 0:
                    crossings.append((k * w - p.x) / dx)
                elif dx < 0:
                    crossings.append(((1 - k) * w - p.x) / dx)
                if dy > 0:
                    crossings.append((k * h - p.y) / dy)
                elif dy < 0:
                    crossings.append(((1 - k) * h - p.y) / dy)
            want = sorted(t for t in crossings if 0 < t <= 7.0)
            got = [e.time for e in tr.events]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a == pytest.approx(b, abs=1e-9)
            # positions match the folded straight line
            fold = lambda u, L: (lambda m: m if m <= L else 2 * L - m)(u % (2 * L))
            for e in tr.events:
                assert e.point.x == pytest.approx(fold(p.x + e.time * dx, w), abs=1e-9)
                assert e.point.y == pytest.approx(fold(p.y + e.time * dy, h), abs=1e-9)

    @pytest.mark.xfail(strict=True, reason="a corner hit reflects one "
                       "component only, and the ray leaves the rectangle")
    def test_rectangle_corner_hit_stays_in_the_square(self):
        # from (0.75, 0.75) at pi/4 the first hit is the corner (1, 1)
        tr = trace(rectangle(1.0, 1.0),
                   RayState(Point2(0.75, 0.75), Direction(math.pi / 4)), 6.0)
        for e in tr.events:
            assert -1e-9 <= e.point.x <= 1 + 1e-9, e
            assert -1e-9 <= e.point.y <= 1 + 1e-9, e

    def test_disk_chords_all_equal(self):
        scn = disk(1.0)
        # launch from the boundary at angle alpha to the tangent
        alpha = 0.713
        p = Point2(1.0, 0.0)
        d = Direction(math.pi / 2 + alpha)  # tangent at (1,0) is +y; tilt inward
        tr = trace(scn, RayState(p, d), horizon=50.0)
        pts = [tr.start.pos] + [e.point for e in tr.events]
        want = 2 * math.sin(alpha)
        for a, b in zip(pts, pts[1:]):
            assert math.hypot(b.x - a.x, b.y - a.y) == pytest.approx(want, abs=1e-9)
        for e in tr.events:
            assert math.hypot(e.point.x, e.point.y) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scn", [rectangle(1.0, 1.0), disk(1.0)])
    def test_max_bounces_below_one_refused(self, scn):
        s = RayState(Point2(0.1, 0.2), Direction(0.7))
        with pytest.raises(ValueError, match="max_bounces"):
            trace(scn, s, horizon=50.0, max_bounces=0)
        assert len(trace(scn, s, horizon=50.0, max_bounces=1).events) == 1

    def test_time_additivity(self):
        mid = Point2(0.07, -0.02)
        d = Direction(1.1)
        t1, t2 = 4.0, 3.0
        full = trace(SCENE, RayState(mid, d), horizon=t1 + t2)
        part = trace(SCENE, RayState(mid, d), horizon=t1)
        head = [e for e in full.events if e.time <= t1]
        assert len(head) == len(part.events)
        for a, b in zip(head, part.events):
            assert a.time == b.time and a.wall == b.wall

    def test_speed_conserved_over_many_bounces(self):
        tr = trace(SCENE, RayState(Point2(0.03, 0.11), Direction(0.37)), horizon=50.0)
        for e in tr.events:
            assert math.hypot(*e.out_dir.vec) == pytest.approx(1.0, abs=1e-12)

    def test_segment_lengths_match_times(self):
        tr = trace(SCENE, RayState(Point2(0.03, 0.11), Direction(0.37)), horizon=30.0)
        prev_t, prev_p = 0.0, tr.start.pos
        for e in tr.events:
            seg = math.hypot(e.point.x - prev_p.x, e.point.y - prev_p.y)
            assert seg == pytest.approx(e.time - prev_t, abs=1e-9)
            prev_t, prev_p = e.time, e.point

    def test_obstacle_only_trajectory_stays_in_zones(self):
        from oracle import zone_membership
        # the symmetric 1-2-3 periodic orbit through the inner points q_j
        q = []
        for c in SCENE.centers:
            n = math.hypot(c.x, c.y)
            q.append(Point2(c.x - SCENE.r0 * c.x / n, c.y - SCENE.r0 * c.y / n))
        tr = trace(SCENE, RayState(q[0], aim(q[0], q[1])), horizon=8.0)
        assert all(e.wall.startswith("obstacle") for e in tr.events)
        for k in range(300):
            t = 8.0 * k / 300
            p = position_at(tr, t)
            assert zone_membership(SCENE, p) != set()

    def test_obstacle_bounce_intervals_in_expected_window(self):
        tr = trace(SCENE, RayState(Point2(0.03, 0.11), Direction(0.37)), horizon=40.0)
        obs = [e for e in tr.events if e.wall.startswith("obstacle")]
        if len(obs) > 3 and all(e.wall.startswith("obstacle") for e in tr.events):
            gaps = [b.time - a.time for a, b in zip(obs, obs[1:])]
            assert all(1.0 - 1e-9 <= g <= 1.5 for g in gaps)


class TestPositionAt:
    def test_endpoints_and_midpoints(self):
        mid = gap_midpoint(SCENE, 1, 2)
        d = aim(mid, SCENE.centers[0])
        tr = trace(SCENE, RayState(mid, d), horizon=5.0)
        p0 = position_at(tr, 0.0)
        assert (p0.x, p0.y) == (mid.x, mid.y)
        e0 = tr.events[0]
        pe = position_at(tr, e0.time)
        assert pe.x == pytest.approx(e0.point.x, abs=1e-12)
        e1 = tr.events[1]
        pm = position_at(tr, 0.5 * (e0.time + e1.time))
        assert pm.x == pytest.approx(0.5 * (e0.point.x + e1.point.x), abs=1e-12)
        assert pm.y == pytest.approx(0.5 * (e0.point.y + e1.point.y), abs=1e-12)

    def test_matches_a_scan_of_the_events(self):
        # oracle: the leg of the first event at or after t, found by a scan
        def scanned(tr, t):
            prev_t, prev_p, prev_d = 0.0, tr.start.pos, tr.start.dir
            for e in tr.events:
                if t <= e.time:
                    if e.time == prev_t:
                        return prev_p
                    lam = (t - prev_t) / (e.time - prev_t)
                    return Point2(prev_p.x + lam * (e.point.x - prev_p.x),
                                  prev_p.y + lam * (e.point.y - prev_p.y))
                prev_t, prev_p, prev_d = e.time, e.point, e.out_dir
            dx, dy = prev_d.vec
            return Point2(prev_p.x + (t - prev_t) * dx, prev_p.y + (t - prev_t) * dy)

        rng = random.Random(3)
        for scene, start in ((rectangle(1.0, 1.5), Point2(0.31, 0.47)),
                             (disk(1.0), Point2(0.2, -0.1)),
                             (SCENE, Point2(0.03, 0.11))):
            tr = trace(scene, RayState(start, Direction(0.83)), horizon=60.0)
            ts = [e.time for e in tr.events if e.time <= 60.0]
            ts += [0.0, 60.0] + [rng.uniform(0.0, 60.0) for _ in range(300)]
            for t in ts:
                p, q = position_at(tr, t), scanned(tr, t)
                assert (p.x, p.y) == (q.x, q.y)

    def test_out_of_range(self):
        tr = trace(SCENE, RayState(Point2(0.0, 0.0), Direction(0.3)), horizon=2.0)
        with pytest.raises(OutOfRange):
            position_at(tr, 2.5)
        with pytest.raises(OutOfRange):
            position_at(tr, -0.5)


class TestEvents:
    # the obstacle start meets all three scatterers and the outer wall
    STARTS = [RayState(Point2(0.31, 0.47), Direction(0.83)),
              RayState(Point2(0.2, -0.1), Direction(0.83)),
              RayState(Point2(0.03, 0.11), Direction(1.6))]
    SCENES = [rectangle(1.5, 1.0), disk(1.0), SCENE]

    @pytest.mark.parametrize("scene, s", zip(SCENES, STARTS),
                             ids=["rectangle", "disk", "obstacle"])
    def test_columns_give_back_the_bounce_stream(self, scene, s):
        tr = trace(scene, s, horizon=60.0)
        assert isinstance(tr.events, Events)
        stream = list(takewhile(lambda e: e.time <= 60.0, bounces(scene, s)))
        assert len(stream) > 20
        assert list(tr.events) == stream
        # equality reads a Direction's angle; its vector is kept too
        assert ([e.out_dir.vec for e in tr.events]
                == [e.out_dir.vec for e in stream])

    def test_index_and_slice_as_a_list(self):
        tr = trace(SCENE, self.STARTS[2], horizon=20.0)
        listed = list(tr.events)
        n = len(listed)
        assert len(tr.events) == n > 5
        for k in range(-n, n):
            assert tr.events[k] == listed[k]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                tr.events[k]
        for sl in (slice(None), slice(2, 5), slice(-3, None), slice(None, -2),
                   slice(None, None, -2), slice(5, 2), slice(-100, 100)):
            assert tr.events[sl] == listed[sl]

    def test_a_plain_list_is_stored_as_columns(self):
        tr = trace(self.SCENES[0], self.STARTS[0], horizon=20.0)
        copy = Trajectory(tr.scene, tr.start, list(tr.events), tr.horizon)
        assert isinstance(copy.events, Events)
        assert copy == tr
        assert copy.events != Events(list(tr.events)[:-1])

    def test_trace_holds_at_most_64_bytes_per_bounce(self):
        # six float64s and a wall code: 49 bytes and the bytearrays' slack
        tracemalloc.start()
        try:
            tr = trace(self.SCENES[0], self.STARTS[0], horizon=1e9,
                       max_bounces=10 ** 5)
            assert len(tr.events) == 10 ** 5
            held = tracemalloc.get_traced_memory()[0]
            del tr
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 64 * 10 ** 5


class TestBilliardCoordinates:
    def test_inv_relation_on_period_two_orbit(self):
        # incoming angle must be pi - outgoing angle (mod 2*pi); each
        # incoming direction is the previous event's outgoing one
        mid = gap_midpoint(SCENE, 1, 2)
        tr = trace(SCENE, RayState(mid, aim(mid, SCENE.centers[0])), horizon=6.0)
        incoming = tr.start.dir
        for e in tr.events:
            c = SCENE.centers[e.obstacle_index - 1]
            theta_q = math.atan2(e.point.y - c.y, e.point.x - c.x)
            phi_in = (incoming.angle - theta_q) % (2 * math.pi)
            phi_out = (e.out_dir.angle - theta_q) % (2 * math.pi)
            assert (phi_in + phi_out) % (2 * math.pi) == pytest.approx(
                math.pi, abs=1e-9)
            assert math.pi / 2 - 1e-9 <= phi_in <= 3 * math.pi / 2 + 1e-9
            incoming = e.out_dir


class TestTorusFlow:
    def test_axis_direction_returns_at_side(self):
        tr = flow_torus(1.0, Point2(0, 0), Direction(0.0), horizon=3.0)
        p = position_at(tr, 1.0)
        assert math.hypot(p.x % 1.0, p.y % 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_rational_slope_closes_at_lattice_time(self):
        # slope 2/1 -> closes at L * sqrt(5)
        L = 1.0
        d = Direction.from_vec(1.0, 2.0)
        tr = flow_torus(L, Point2(0.3, 0.4), d, horizon=10.0)
        t_close = L * math.sqrt(5.0)
        from oracle import torus_distance
        p = position_at(tr, t_close)
        assert torus_distance(p, Point2(0.3, 0.4), L) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("side", [math.nan, math.inf, 0.0, -1.0])
    def test_side_not_positive_and_finite_refused(self, side):
        with pytest.raises(SceneError):
            flow_torus(side, Point2(0.1, 0.2), Direction(0.5), 10.0)

    def test_irrational_slope_does_not_return_early(self):
        from oracle import torus_distance
        L = 1.0
        slope = (math.sqrt(5) - 1) / 2  # golden; worst-case approximable
        d = Direction.from_vec(1.0, slope)
        tr = flow_torus(L, Point2(0.0, 0.0), d, horizon=1300.0)
        dx = d.vec[0]
        best = math.inf
        for k in range(1, 1001):
            t = k * L / dx  # x returns to 0 mod L exactly at these times
            best = min(best, torus_distance(position_at(tr, t), Point2(0, 0), L))
        assert best > 1e-6


def test_ray_state_value():
    s = RayState(Point2(0.1, 0.2), Direction(0.5))
    assert RayState._fields == ("pos", "dir")
    assert repr(s) == ("RayState(pos=Point2(x=0.1, y=0.2), "
                       "dir=Direction(angle=0.5))")
    assert s == RayState(Point2(0.1, 0.2), Direction(0.5))
    assert hash(s) == hash(RayState(Point2(0.1, 0.2), Direction(0.5)))
    assert s != RayState(Point2(0.1, 0.2), Direction(0.6))
    assert len({s, RayState(Point2(0.1, 0.2), Direction(0.5))}) == 1


def _bits(*values):
    return struct.pack(f"{len(values)}d", *values)


# angles at and beside the ends of [0, 2*pi), axis vectors, and the small
# integer vectors of rational slopes that the torus extra states use
_HEADINGS = st.one_of(
    st.one_of(st.sampled_from([-0.0, 0.0, 2 * math.pi,
                               math.nextafter(2 * math.pi, 0.0)]),
              st.floats(-20.0, 20.0)).map(Direction),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    .filter(lambda v: v != (0, 0)).map(lambda v: Direction.from_vec(*v)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0), d=_HEADINGS)
def test_ray_state_gives_back_its_point_and_direction(x, y, d):
    p = Point2(x, y)
    s = RayState(p, d)
    assert s.pos == p and s.dir == d
    assert _bits(*s.pos) == _bits(*p)
    assert _bits(s.dir.angle, *s.dir.vec) == _bits(d.angle, *d.vec)
    assert _bits(*s.vec) == _bits(*d.vec)
    for twin in (copy.copy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and hash(twin) == hash(s) and repr(twin) == repr(s)
        assert (_bits(twin.x, twin.y, twin.angle, *twin.vec)
                == _bits(s.x, s.y, s.angle, *s.vec))


def test_ray_state_holds_floats_not_objects():
    # 104.5 traced bytes a RayState(Point2, Direction(angle)) in a list,
    # the 8 of its list slot included: the object with its five slots and
    # the angle float (x and y are the caller's).  Holding the Point2 and
    # the Direction took 184.5.  Measured on Python 3.11.7 only.
    rng = random.Random(7)
    samples = [(rng.random(), rng.random(), rng.uniform(0.0, 2 * math.pi))
               for _ in range(10_000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        states = [RayState(Point2(x, y), Direction(a)) for x, y, a in samples]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(states) == len(samples)
    assert held / len(samples) <= 128


def test_bounce_event_value():
    e = BounceEvent(time=1.5, point=Point2(0.0, 1.0), wall="obstacle1",
                    out_dir=Direction(1.0))
    assert BounceEvent._fields == ("time", "point", "wall", "out_dir")
    assert repr(e) == ("BounceEvent(time=1.5, point=Point2(x=0.0, y=1.0), "
                       "wall='obstacle1', out_dir=Direction(angle=1.0))")
    assert e.obstacle_index == 1
    same = BounceEvent(1.5, Point2(0.0, 1.0), "obstacle1", Direction(1.0))
    assert same == e and hash(same) == hash(e)
    assert len({e, same}) == 1
    assert e != BounceEvent(1.5, Point2(0.0, 1.0), "obstacle1",
                            Direction(1.1))
    with pytest.raises(TypeError):
        BounceEvent(1.5, Point2(0.0, 1.0), "obstacle1")  # out_dir is required
    assert BounceEvent(2.0, Point2(0.0, 1.0), "outer",
                       Direction(1.0)).obstacle_index is None


@pytest.mark.parametrize("g, c", [
    ((0.0, 0.0, 0.0, 2.0, 2.0, 0.0), (0.0, 0.0, 0.1, 2.0, 2.0, 0.1)),
    ((1.0, 0.3, 0.4, 1.0, 0.3, 0.4), (1.0, 0.3, 0.5, 1.0, 0.3, 0.5))],
    ids=["moving-together", "both-held-still"])
def test_contact_at_zero_relative_velocity(g, c):
    # the separation stays 0.1 over the piece, so the whole piece is the
    # chord of a wider ball, and a narrower one has none
    q, chord = contact(0.5, 1.5, g, c, 0.2)
    assert q == pytest.approx(0.01, rel=1e-12)
    assert chord == (0.5, 1.5)
    q, chord = contact(0.5, 1.5, g, c, 0.05)
    assert q == pytest.approx(0.01, rel=1e-12)
    assert chord is None


def test_trajectory_csv_shape():
    mid = gap_midpoint(SCENE, 1, 2)
    tr = trace(SCENE, RayState(mid, aim(mid, SCENE.centers[0])), horizon=3.0)
    csv = _trajectory_csv(tr)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x,y,wall"
    assert lines[1].endswith(",")
    assert "obstacle1" in csv
    # deterministic: re-render identical
    assert _trajectory_csv(tr) == csv


# each side of the unit square: the coordinate fixed on it, its value there
# and the unit normal into the square
RECTANGLE_SIDES = {"left": ("x", 0.0, (1.0, 0.0)),
                   "right": ("x", 1.0, (-1.0, 0.0)),
                   "bottom": ("y", 0.0, (0.0, 1.0)),
                   "top": ("y", 1.0, (0.0, -1.0))}


def wall_point(wall, u):
    """(scene, foot, normal): the point at parameter u in [0, 1] of a wall
    and the unit normal there into the domain.  A side of the unit square
    gives its middle half, away from the corners (a corner hit is the
    strict xfail above); a circle gives any point."""
    if wall in RECTANGLE_SIDES:
        axis, value, n = RECTANGLE_SIDES[wall]
        s = 0.25 + 0.5 * u
        foot = (value, s) if axis == "x" else (s, value)
        return rectangle(1.0, 1.0), foot, n
    ux, uy = math.cos(2 * math.pi * u), math.sin(2 * math.pi * u)
    if wall == "disk":
        return disk(1.0), (ux, uy), (-ux, -uy)
    if wall == "outer":
        R = SCENE.outer_radius
        return SCENE, (R * ux, R * uy), (-ux, -uy)
    c = SCENE.centers[int(wall[-1]) - 1]
    return SCENE, (c.x + SCENE.r0 * ux, c.y + SCENE.r0 * uy), (ux, uy)


def on_closed_domain(scene, p, tol=1e-9):
    if scene.kind == "rectangle":
        return (-tol <= p.x <= scene.width + tol
                and -tol <= p.y <= scene.height + tol)
    R = scene.radius if scene.kind == "disk" else scene.outer_radius
    return math.hypot(p.x, p.y) <= R + tol and all(
        math.hypot(p.x - c.x, p.y - c.y) >= scene.r0 - tol
        for c in scene.centers)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(wall=st.sampled_from(sorted(RECTANGLE_SIDES) + [
           "disk", "outer", "obstacle1", "obstacle2", "obstacle3"]),
       u=st.floats(0.0, 1.0), log_gap=st.floats(-12.0, -8.0),
       tilt=st.floats(-math.pi / 3, math.pi / 3))
def test_a_start_next_to_a_wall_heading_into_it_meets_it_first(wall, u,
                                                                log_gap,
                                                                tilt):
    # a start closer to a wall than MIN_FLIGHT once passed through it, or
    # met no wall at all: the first step skipped flights up to MIN_FLIGHT
    scene, (fx, fy), (nx, ny) = wall_point(wall, u)
    gap = 10.0 ** log_gap
    s = RayState(Point2(fx + gap * nx, fy + gap * ny),
                 Direction(math.atan2(-ny, -nx) + tilt))
    tr = trace(scene, s, horizon=5.0, max_bounces=20)
    assert tr.events[0].wall == wall
    assert 0 < tr.events[0].time < 3 * gap  # about gap / cos(tilt)
    for e in tr.events:
        assert on_closed_domain(scene, e.point), e
