import functools
import math
import random

import pytest

import geocatch.flow
import geocatch.tgcc
from geocatch.geometry import (Point2, Direction, build_obstacle_scene, disk,
                               rectangle, strict_interior, torus,
                               torus_distance)
from geocatch.catcher import CatcherPath, build_catcher
from geocatch.evader import random_slow_path
from geocatch.flow import RayState, flow_torus, trace
from geocatch.tgcc import check_tgcc, first_hit_time

T1 = torus(1.0)


def static_ball(center, eps, horizon, scene):
    return CatcherPath(waypoints=[(0.0, center), (horizon, center)],
                       eps=eps, v=0.0, scene=scene)


def brute_first_hit(scene, s, path, T, dt=5e-5):
    # oracle: dense time sampling of the modular distance
    ux, uy = s.dir.vec
    n = int(T / dt)
    for k in range(n + 1):
        t = k * dt
        p = Point2((s.pos.x + t * ux) % 1.0, (s.pos.y + t * uy) % 1.0)
        c = path.center(t)
        if torus_distance(p, Point2(c.x % 1.0, c.y % 1.0), 1.0) < path.eps:
            return t
    return None


class TestFirstHitTorus:
    def test_against_brute_force_on_random_cases(self):
        rng = random.Random(8)
        for _ in range(12):
            # short random path with a couple of legs
            pts = [Point2(rng.random(), rng.random())]
            times = [0.0]
            for _ in range(3):
                times.append(times[-1] + 2.0 + 3.0 * rng.random())
                step = 0.04 * (times[-1] - times[-2])
                pts.append(Point2(pts[-1].x + step * (rng.random() - 0.5),
                                  pts[-1].y + step * (rng.random() - 0.5)))
            path = CatcherPath(waypoints=list(zip(times, pts)), eps=0.15,
                               v=0.05, scene=T1)
            s = RayState(Point2(rng.random(), rng.random()),
                         Direction(rng.uniform(0, 2 * math.pi)))
            T = times[-1]
            exact = first_hit_time(T1, s, path, T)
            brute = brute_first_hit(T1, s, path, T)
            if brute is None:
                assert exact is None or exact > T - 1e-9
            else:
                assert exact is not None
                assert exact <= brute + 1e-9
                assert brute - exact <= 2e-4  # brute lags by at most a step

    def test_axis_geodesic_vs_static_ball_same_height(self):
        # slope-0 line at the ball's height: caught within one period
        path = static_ball(Point2(0.5, 0.3), 0.1, 10.0, T1)
        s = RayState(Point2(0.0, 0.3), Direction(0.0))
        t = first_hit_time(T1, s, path, 10.0)
        # ball x-range [0.4, 0.6]: the point starting at x=0 enters at t=0.4
        assert t == pytest.approx(0.4, abs=1e-9)

    def test_axis_geodesic_offset_above_eps_never_caught(self):
        path = static_ball(Point2(0.5, 0.5), 0.1, 1000.0, T1)
        s = RayState(Point2(0.0, 0.75), Direction(0.0))
        assert first_hit_time(T1, s, path, 1000.0) is None

    def test_start_inside_ball(self):
        path = static_ball(Point2(0.2, 0.2), 0.15, 5.0, T1)
        s = RayState(Point2(0.25, 0.2), Direction(1.0))
        t = first_hit_time(T1, s, path, 5.0)
        assert t == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("y, want", [(0.55, 0.0), (0.9, None)])
    def test_ball_moving_with_the_geodesic(self, y, want):
        # no relative motion: caught from the start or never
        path = CatcherPath(waypoints=[(0.0, Point2(0.5, 0.5)),
                                      (10.0, Point2(10.5, 0.5))],
                           eps=0.1, v=1.0, scene=T1)
        s = RayState(Point2(0.5, y), Direction(0.0))
        assert first_hit_time(T1, s, path, 10.0) == want

    def test_diagonal_period_certificate_is_fast_and_correct(self):
        # slope-1 line kept at distance > eps from the site for all time
        path = static_ball(Point2(0.0, 0.5), 0.1, 1e6, T1)
        d = Direction.from_vec(1.0, 1.0)
        s = RayState(Point2(0.0, 0.0), d)  # line y = x: distance to (0,.5)
        # modular distance from line {y=x} to (0, 0.5) is 0.25*sqrt(2) > 0.1
        import time
        t0 = time.perf_counter()
        assert first_hit_time(T1, s, path, 1e6) is None
        assert time.perf_counter() - t0 < 0.5

    def test_start_inside_a_column_slab_does_not_certify_a_miss(self):
        # a grid sample of the static control: the start lies in the slab
        # of its first lattice column, whose window is cut at t = 0 and
        # holds no copy; the line enters the next copy's ball at t ~ 1.144
        path = static_ball(Point2(0.5, 0.5), 0.2, 200.0, T1)
        s = RayState(Point2(0.25, 0.5), Direction(2.0 * math.pi * 20 / 32))
        t = first_hit_time(T1, s, path, 200.0)
        assert t == pytest.approx(brute_first_hit(T1, s, path, 2.0), abs=1e-4)

    def test_wrapping_transit_catches_crossing_line(self):
        # transit from (0.5, 0.5) to (1.0, 1.0) sweeps across x = 0.75
        path = CatcherPath(waypoints=[(0.0, Point2(0.5, 0.5)),
                                      (float(math.hypot(0.5, 0.5) / 0.05),
                                       Point2(1.0, 1.0))],
                           eps=0.2, v=0.05, scene=T1)
        s = RayState(Point2(0.75, 0.1), Direction(math.pi / 2))
        t = first_hit_time(T1, s, path, path.end_time)
        assert t is not None

    def test_ball_wider_than_half_the_side_is_refused(self):
        # the lattice copies of a wider ball overlap, and the walk assumes
        # them disjoint
        s = RayState(Point2(0.1, 0.2), Direction(0.3))
        with pytest.raises(ValueError):
            first_hit_time(T1, s, static_ball(Point2(0.5, 0.5), 0.6, 10.0, T1),
                           10.0)
        path = static_ball(Point2(0.5, 0.5), 0.5, 10.0, T1)
        assert first_hit_time(T1, s, path, 10.0) == pytest.approx(
            brute_first_hit(T1, s, path, 1.0), abs=1e-4)

    def test_monotone_in_T(self):
        path = static_ball(Point2(0.5, 0.3), 0.1, 100.0, T1)
        s = RayState(Point2(0.0, 0.31), Direction(0.0))
        t_long = first_hit_time(T1, s, path, 100.0)
        t_short = first_hit_time(T1, s, path, max(t_long / 2, 1e-3))
        assert t_short is None or t_short == pytest.approx(t_long)

    def test_monotone_in_eps(self):
        s = RayState(Point2(0.0, 0.28), Direction(0.0))
        t_small = first_hit_time(
            T1, s, static_ball(Point2(0.5, 0.2), 0.09, 50.0, T1), 50.0)
        t_big = first_hit_time(
            T1, s, static_ball(Point2(0.5, 0.2), 0.2, 50.0, T1), 50.0)
        assert t_big is not None
        if t_small is not None:
            assert t_big <= t_small + 1e-12

    def test_upper_semicontinuity_probe(self):
        # refining the angle grid around a caught sample must not push the
        # local max first-hit time up by more than the refinement scale allows
        path = static_ball(Point2(0.5, 0.31), 0.1, 400.0, T1)
        base_ang = 0.0
        s = RayState(Point2(0.0, 0.3), Direction(base_ang))
        t_base = first_hit_time(T1, s, path, 400.0)
        assert t_base is not None
        delta = 1e-6  # refinement scale: hit drift bounded by t * delta * C
        refined = []
        for k in range(-4, 5):
            sk = RayState(Point2(0.0, 0.3), Direction(base_ang + k * delta / 4))
            tk = first_hit_time(T1, sk, path, 400.0)
            assert tk is not None
            refined.append(tk)
        assert max(refined) <= t_base + (1.0 + t_base) * delta * 10


class TestFirstHitBounded:
    SCENE = build_obstacle_scene(0.05, 2.0)

    def test_geodesic_through_parked_ball_is_caught(self):
        c2, c3 = self.SCENE.centers[1], self.SCENE.centers[2]
        mid = Point2(0.0, c2.y)  # on the period-2 orbit segment
        path = static_ball(mid, 0.04, 50.0, self.SCENE)
        s = RayState(Point2(0.25, c2.y), Direction.from_vec(1.0, 0.0))
        t = first_hit_time(self.SCENE, s, path, 50.0)
        assert t is not None and t < 2.0

    def test_confined_geodesic_vs_far_ball(self):
        c2 = self.SCENE.centers[1]
        mid = Point2(0.0, c2.y)
        path = static_ball(Point2(0.0, 0.55), 0.04, 40.0, self.SCENE)
        s = RayState(mid, Direction.from_vec(1.0, 0.0))
        assert first_hit_time(self.SCENE, s, path, 40.0) is None

    def test_early_hit_reads_only_the_bounces_before_it(self, monkeypatch):
        scene = rectangle(1.0, 1.0)
        s = RayState(Point2(0.1, 0.2), Direction(0.7))
        want = first_hit_time(scene, s, static_ball(Point2(0.5, 0.5), 0.2,
                                                    100.0, scene), 100.0)
        assert want == 0.30120516696589006
        calls = []
        first_collision = geocatch.flow.first_collision
        monkeypatch.setattr(geocatch.flow, "first_collision",
                            lambda *a: calls.append(a) or first_collision(*a))
        path = static_ball(Point2(0.5, 0.5), 0.2, 1e5, scene)
        assert first_hit_time(scene, s, path, 1e5) == want
        assert len(calls) <= 2  # not one per bounce up to T

    def test_hit_search_has_no_bounce_cap(self, monkeypatch):
        # the diameter orbit from the centre of the unit disk bounces at odd
        # times; the ball waits off the orbit until t = 100, then reaches the
        # centre at t = 110, long after a 10-bounce trace has ended
        scene = disk(1.0)
        path = CatcherPath(waypoints=[(0.0, Point2(0.0, 0.5)),
                                      (100.0, Point2(0.0, 0.5)),
                                      (110.0, Point2(0.0, 0.0)),
                                      (200.0, Point2(0.0, 0.0))],
                           eps=0.1, v=0.05, scene=scene)
        s = RayState(Point2(0.0, 0.0), Direction(0.0))
        monkeypatch.setattr(geocatch.tgcc, "trace",
                            functools.partial(trace, max_bounces=10))
        assert first_hit_time(scene, s, path, 200.0) == 108.00000000000011


class TestCheckTgcc:
    def test_static_ball_leaves_axis_witnesses(self):
        path = static_ball(Point2(0.5, 0.5), 0.1, 50.0, T1)
        rep = check_tgcc(T1, path, T=50.0, n_pos=4, n_ang=8)
        assert rep.caught_fraction < 1.0
        assert rep.t0_estimate is None
        assert len(rep.witnesses) == rep.n_samples - rep.caught
        # an axis-parallel line far from the ball is among the witnesses
        assert any(abs(a) < 1e-12 and abs(y - 0.0) < 1e-12
                   for (x, y, a) in rep.witnesses)

    def test_extra_samples_appended(self):
        path = static_ball(Point2(0.5, 0.5), 0.1, 20.0, T1)
        extra = [RayState(Point2(0.0, 0.0), Direction(0.0))]
        rep = check_tgcc(T1, path, T=20.0, n_pos=1, n_ang=1, extra=extra)
        assert rep.n_samples == 2

    def test_report_json_round_trip(self):
        path = static_ball(Point2(0.5, 0.5), 0.1, 10.0, T1)
        rep = check_tgcc(T1, path, T=10.0, n_pos=2, n_ang=2)
        import json
        d = json.loads(rep.to_json())
        assert d["grid"] == {"n_pos": 2, "n_ang": 2}
        assert "evidence" in d["note"]

    def test_extras_are_evaluated_as_given(self):
        # an extra trajectory on the torus wraps through the ball: the line
        # from x = 0.1 heading left reaches x = 0.6 at t = 0.5
        path = static_ball(Point2(0.5, 0.5), 0.1, 10.0, T1)
        tr = flow_torus(1.0, Point2(0.1, 0.5), Direction.from_vec(-1.0, 0.0),
                        10.0)
        rep = check_tgcc(T1, path, T=10.0, n_pos=1, n_ang=1,
                         extra_trajectories=[tr])
        assert rep.first_hits[-1] == first_hit_time(T1, tr.start, path, 10.0)
        assert rep.first_hits[-1] == pytest.approx(0.5, abs=1e-12)
        assert (0.1, 0.5, tr.start.dir.angle) not in rep.witnesses
        # extra states keep their exact from_vec headings on the obstacle
        # scene; the first start is caught at ~174.5 only on its own heading
        scene = build_obstacle_scene(0.05, 2.0)
        cases = [(11, Point2(0.02172895148717857, -0.3424012234652922),
                  Direction.from_vec(-0.8685438705124601, 0.4956122930227167))]
        for seed in range(200):
            rng = random.Random(seed)
            p = Point2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            while not strict_interior(scene, p):
                p = Point2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            cases.append((seed, p, Direction.from_vec(rng.uniform(-1.0, 1.0),
                                                      rng.uniform(-1.0, 1.0))))
        hits = []
        for seed, p, d in cases:
            path = random_slow_path(scene, eps=0.05, v=0.01, T=200.0,
                                    seed=seed)
            s = RayState(p, d)
            rep = check_tgcc(scene, path, T=200.0, n_pos=1, n_ang=1,
                             extra=[s])
            assert rep.first_hits[-1] == first_hit_time(scene, s, path, 200.0)
            hits.append(rep.first_hits[-1])
        assert hits[0] == pytest.approx(174.5465, abs=1e-4)
        assert None in hits[1:]
