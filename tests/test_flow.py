import math
import random

import pytest

from geocatch.geometry import Point2, Direction, build_obstacle_scene, disk, rectangle
from geocatch.flow import (
    NotObstacleBounce,
    OutOfRange,
    RayState,
    TangentialHit,
    billiard_coordinates,
    first_collision,
    flow_torus,
    position_at,
    reflect,
    trace,
    trajectory_csv,
)


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


class TestFirstCollision:
    def test_gap_midpoint_hits_circle_at_half(self):
        mid = gap_midpoint(SCENE, 2, 3)
        d = aim(mid, SCENE.centers[2])
        e = first_collision(SCENE, RayState(mid, d))
        assert e.wall == "obstacle3"
        assert e.time == pytest.approx(0.5, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(25):
            p = Point2(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            if any(math.hypot(p.x - c.x, p.y - c.y) < SCENE.r0 + 0.05 for c in SCENE.centers):
                continue
            d = Direction(rng.uniform(0, 2 * math.pi))
            e = first_collision(SCENE, RayState(p, d))
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
        e = first_collision(disk(1.0), RayState(Point2(0, 0), Direction(1.234)))
        assert e.time == pytest.approx(1.0, abs=1e-12)

    def test_rectangle_halfway(self):
        e = first_collision(rectangle(1, 1), RayState(Point2(0.5, 0.5), Direction(0.0)))
        assert e.wall == "right"
        assert e.time == pytest.approx(0.5, abs=1e-12)

    def test_torus_escapes(self):
        from geocatch.geometry import torus
        assert first_collision(torus(1.0), RayState(Point2(0, 0), Direction(0))) is None


class TestReflect:
    def test_normal_incidence_reverses(self):
        mid = gap_midpoint(SCENE, 2, 3)
        d = aim(mid, SCENE.centers[2])
        e = first_collision(SCENE, RayState(mid, d))
        out = reflect(SCENE, e, d)
        assert out.angle == pytest.approx((d.angle + math.pi) % (2 * math.pi), abs=1e-12)

    def test_mirror_on_floor(self):
        scn = rectangle(2, 1)
        d = Direction.from_vec(math.cos(math.pi / 4), -math.sin(math.pi / 4))
        e = first_collision(scn, RayState(Point2(0.2, 0.5), d))
        assert e.wall == "bottom"
        out = reflect(scn, e, d)
        assert out.vec[0] == pytest.approx(d.vec[0], abs=1e-12)
        assert out.vec[1] == pytest.approx(-d.vec[1], abs=1e-12)

    def test_unit_speed_and_tangential_component_preserved(self):
        rng = random.Random(3)
        for _ in range(50):
            p = Point2(rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            if any(math.hypot(p.x - c.x, p.y - c.y) < SCENE.r0 + 0.02 for c in SCENE.centers):
                continue
            d = Direction(rng.uniform(0, 2 * math.pi))
            e = first_collision(SCENE, RayState(p, d))
            if e.wall == "outer" or e.tangential:
                continue
            out = reflect(SCENE, e, d)
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
        e = first_collision(SCENE, RayState(mid, d))
        out = reflect(SCENE, e, d)
        back = reflect(SCENE, e, Direction(out.angle + math.pi))
        assert back.angle == pytest.approx((d.angle + math.pi) % (2 * math.pi), abs=1e-9)

    def test_tangential_raises(self):
        # aim exactly at the tangent line touch point of C1 from far away
        c = SCENE.centers[0]
        p = Point2(c.x - 1.0, c.y)
        d = Direction.from_vec(1.0, SCENE.r0 / math.sqrt(1 - SCENE.r0 ** 2))
        e = first_collision(SCENE, RayState(p, d))
        if e.tangential:
            with pytest.raises(TangentialHit):
                reflect(SCENE, e, d)


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
        from geocatch.geometry import zone_membership
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

    def test_out_of_range(self):
        tr = trace(SCENE, RayState(Point2(0.0, 0.0), Direction(0.3)), horizon=2.0)
        with pytest.raises(OutOfRange):
            position_at(tr, 2.5)
        with pytest.raises(OutOfRange):
            position_at(tr, -0.5)


class TestBilliardCoordinates:
    def test_marked_point_gives_r_zero(self):
        # hit C1 exactly at its inner point q_1, radially
        c = SCENE.centers[0]
        n = math.hypot(c.x, c.y)
        q1 = Point2(c.x - SCENE.r0 * c.x / n, c.y - SCENE.r0 * c.y / n)
        tr = trace(SCENE, RayState(Point2(0, 0), aim(Point2(0, 0), q1)), horizon=2.0)
        e = tr.events[0]
        j, r, phi = billiard_coordinates(SCENE, e)
        assert j == 1
        assert r == pytest.approx(0.0, abs=1e-9) or r == pytest.approx(
            2 * math.pi * SCENE.r0, abs=1e-9)

    def test_normal_incidence_outgoing_phi_zero(self):
        mid = gap_midpoint(SCENE, 1, 2)
        tr = trace(SCENE, RayState(mid, aim(mid, SCENE.centers[0])), horizon=2.0)
        e = tr.events[0]
        j, r, phi = billiard_coordinates(SCENE, e)
        assert j == 1
        assert min(phi, 2 * math.pi - phi) == pytest.approx(0.0, abs=1e-9)

    def test_inv_relation_on_period_two_orbit(self):
        # incoming angle must be pi - outgoing angle (mod 2*pi)
        mid = gap_midpoint(SCENE, 1, 2)
        tr = trace(SCENE, RayState(mid, aim(mid, SCENE.centers[0])), horizon=6.0)
        for e in tr.events:
            c = SCENE.centers[e.obstacle_index - 1]
            theta_q = math.atan2(e.point.y - c.y, e.point.x - c.x)
            phi_in = (e.in_dir.angle - theta_q) % (2 * math.pi)
            phi_out = (e.out_dir.angle - theta_q) % (2 * math.pi)
            assert (phi_in + phi_out) % (2 * math.pi) == pytest.approx(
                math.pi, abs=1e-9)
            assert math.pi / 2 - 1e-9 <= phi_in <= 3 * math.pi / 2 + 1e-9

    def test_r_stays_in_circumference_range(self):
        tr = trace(SCENE, RayState(Point2(0.03, 0.11), Direction(0.37)), horizon=40.0)
        circ = 2 * math.pi * SCENE.r0
        for e in tr.events:
            if e.wall.startswith("obstacle"):
                assert 0.0 <= billiard_coordinates(SCENE, e)[1] < circ + 1e-12

    def test_non_obstacle_bounce_rejected(self):
        scn = disk(1.0)
        tr = trace(scn, RayState(Point2(0, 0), Direction(0.5)), horizon=3.0)
        with pytest.raises(NotObstacleBounce):
            billiard_coordinates(scn, tr.events[0])


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
        from geocatch.geometry import torus_distance
        p = position_at(tr, t_close)
        assert torus_distance(p, Point2(0.3, 0.4), L) == pytest.approx(0.0, abs=1e-9)

    def test_irrational_slope_does_not_return_early(self):
        from geocatch.geometry import torus_distance
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


def test_trajectory_csv_shape():
    mid = gap_midpoint(SCENE, 1, 2)
    tr = trace(SCENE, RayState(mid, aim(mid, SCENE.centers[0])), horizon=3.0)
    csv = trajectory_csv(tr)
    lines = csv.strip().split("\n")
    assert lines[0] == "t,x,y,wall"
    assert lines[1].endswith(",")
    assert "obstacle1" in csv
    # deterministic: re-render identical
    assert trajectory_csv(tr) == csv
