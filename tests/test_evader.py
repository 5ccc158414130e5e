import hashlib
import math
import tracemalloc

import pytest

from geocatch.geometry import (Direction, Point2, build_obstacle_scene,
                               zone_distance, zone_membership)
from geocatch.catcher import CatcherPath
from geocatch.flow import BounceEvent, RayState, Trajectory, position_at
from geocatch.symbolic import Itinerary, itinerary_of
from geocatch.evader import (
    EvasionCertificate,
    PlanningFailure,
    ZoneSchedule,
    plan_schedule,
    prohibited_zones,
    random_slow_path,
    realize_schedule,
    validate_schedule,
    verify_evasion,
)

SCENE = build_obstacle_scene(0.05, 2.0)


def parked(center, eps, T, v=0.01):
    return CatcherPath(waypoints=[(0.0, center), (T, center)], eps=eps, v=v,
                       scene=SCENE)


class TestProhibitedZones:
    def test_far_center_prohibits_nothing(self):
        path = parked(Point2(1.5, 0.0), 0.05, 100.0)
        assert prohibited_zones(path, 10.0, SCENE) == set()

    def test_center_on_zone_axis(self):
        c2, c3 = SCENE.centers[1], SCENE.centers[2]
        mid = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
        path = parked(mid, 0.05, 100.0)
        assert 1 in prohibited_zones(path, 0.0, SCENE)

    def test_center_near_circle_prohibits_two_zones(self):
        c1 = SCENE.centers[0]
        near = Point2(c1.x, c1.y + SCENE.r0 + 0.01)
        path = parked(near, 0.05, 100.0)
        zs = prohibited_zones(path, 0.0, SCENE)
        assert zs == {2, 3}


class TestPlanSchedule:
    def test_far_static_ball_single_segment(self):
        path = parked(Point2(1.5, 0.0), 0.05, 200.0)
        sched = plan_schedule(path, 200.0, SCENE)
        assert len(sched.zones) == 1
        assert validate_schedule(sched, path, SCENE) == []

    def test_ball_inside_zone_one_forever(self):
        c2, c3 = SCENE.centers[1], SCENE.centers[2]
        mid = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
        path = parked(mid, 0.05, 200.0)
        sched = plan_schedule(path, 200.0, SCENE)
        assert 1 not in sched.zones
        assert validate_schedule(sched, path, SCENE) == []

    def test_touring_ball_forces_valid_switches(self):
        # the ball visits all three zone axes in turn, so no single zone
        # stays clean and the planner must emit switches
        c1, c2, c3 = SCENE.centers
        mids = [Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2),
                Point2((c1.x + c3.x) / 2, (c1.y + c3.y) / 2),
                Point2((c1.x + c2.x) / 2, (c1.y + c2.y) / 2)]
        leg = math.hypot(mids[1].x - mids[0].x, mids[1].y - mids[0].y)
        v = 0.01
        dt = leg / v
        wps = [(k * dt, mids[k % 3]) for k in range(4)]
        T = wps[-1][0]
        path = CatcherPath(waypoints=wps, eps=0.05, v=v, scene=SCENE)
        sched = plan_schedule(path, T, SCENE)
        assert len(sched.zones) >= 2
        assert validate_schedule(sched, path, SCENE) == []
        for g in (t1 - t0 for t0, t1 in zip(sched.times, sched.times[1:])):
            assert g >= 10.0

    def test_planning_failure_for_fat_fast_ball(self):
        # a ball sweeping all zones quickly leaves no safe zone
        pts = [SCENE.centers[i] for i in (0, 1, 2)]
        wps = [(0.0, Point2(pts[0].x, pts[0].y + 0.2))]
        t = 0.0
        for k in range(1, 12):
            p = pts[k % 3]
            t += 4.0
            wps.append((t, Point2(p.x, p.y + 0.2)))
        path = CatcherPath(waypoints=wps, eps=0.3, v=0.5, scene=SCENE)
        with pytest.raises(PlanningFailure):
            plan_schedule(path, 40.0, SCENE)


class TestRealizeSchedule:
    def test_single_zone_periodic_word(self):
        sched = ZoneSchedule(times=[0.0], zones=[1], T=40.0)
        cert = realize_schedule(sched, SCENE)
        w = cert.word.word
        assert set(w) == {2, 3}
        assert cert.realized_switches == [0.0]
        assert cert.geodesic.events[0].time == 0.0

    def test_two_zone_switch_lands_close(self):
        sched = ZoneSchedule(times=[0.0, 20.0], zones=[1, 2], T=45.0)
        cert = realize_schedule(sched, SCENE)
        assert len(cert.realized_switches) == 2
        assert abs(cert.realized_switches[1] - 20.0) <= 3.0
        # block 0 bounces on zone 1's circles, block 1 on zone 2's
        w = cert.word.word
        i_switch = next(k for k, e in enumerate(cert.geodesic.events)
                        if e.time >= cert.realized_switches[1])
        assert set(w[:i_switch]) <= {2, 3}
        assert set(w[i_switch:]) <= {1, 3}

    def test_five_zone_schedule(self):
        sched = ZoneSchedule(times=[0.0, 15.0, 30.0, 45.0, 60.0],
                             zones=[1, 2, 3, 1, 2], T=80.0)
        cert = realize_schedule(sched, SCENE)
        for r, t in zip(cert.realized_switches, sched.times):
            assert abs(r - t) <= 3.0

    def test_itinerary_matches_word(self):
        sched = ZoneSchedule(times=[0.0, 20.0], zones=[3, 1], T=45.0)
        cert = realize_schedule(sched, SCENE)
        got = itinerary_of(cert.geodesic, len(cert.word))
        assert got.word == cert.word.word

    def test_geodesic_stays_in_scheduled_zones(self):
        sched = ZoneSchedule(times=[0.0, 20.0], zones=[1, 3], T=45.0)
        cert = realize_schedule(sched, SCENE)
        tr = cert.geodesic
        t_switch = cert.realized_switches[1]
        for k in range(0, 450):
            t = 0.1 * k
            zones = zone_membership(SCENE, position_at(tr, t))
            if t < t_switch - 1e-9:
                assert 1 in zones
            elif t > t_switch + 1e-9:
                assert 3 in zones

    def test_reflection_residual_tiny(self):
        sched = ZoneSchedule(times=[0.0], zones=[2], T=30.0)
        cert = realize_schedule(sched, SCENE)
        for e in cert.geodesic.events:
            j = e.obstacle_index
            c = SCENE.centers[j - 1]
            nx, ny = (e.point.x - c.x) / SCENE.r0, (e.point.y - c.y) / SCENE.r0
            ix, iy = e.in_dir.vec
            ox, oy = e.out_dir.vec
            assert ox == pytest.approx(ix - 2 * (ix * nx + iy * ny) * nx, abs=1e-9)
            assert oy == pytest.approx(iy - 2 * (ix * nx + iy * ny) * ny, abs=1e-9)


class TestVerifyEvasion:
    def test_positive_certificate(self):
        path = parked(Point2(1.2, 0.9), 0.05, 100.0)
        sched = plan_schedule(path, 100.0, SCENE)
        cert = realize_schedule(sched, SCENE)
        assert verify_evasion(cert, path, 100.0)
        assert cert.min_distance >= 0.05
        assert cert.margin == pytest.approx(cert.min_distance - 0.05)

    def test_negative_control(self):
        # park the ball right on the period-2 orbit: the confined geodesic
        # passes through it, so verification must fail
        c2, c3 = SCENE.centers[1], SCENE.centers[2]
        mid = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
        path = parked(mid, 0.05, 50.0)
        sched = ZoneSchedule(times=[0.0], zones=[1], T=50.0)
        cert = realize_schedule(sched, SCENE)
        assert not verify_evasion(cert, path, 50.0)


def interp(ts, xp, fp):
    """np.interp over increasing ts, in pure Python: linear between the knots
    xp, held at the end values beyond them."""
    out, j = [], 0
    for t in ts:
        while j + 1 < len(xp) and xp[j + 1] <= t:
            j += 1
        if t <= xp[0] or j + 1 == len(xp):
            out.append(fp[0] if t <= xp[0] else fp[-1])
        else:
            slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
            out.append(slope * (t - xp[j]) + fp[j])
    return out


def grid_verifier(cert, path, T, grid_dt):
    """The sampling verifier verify_evasion replaced: the geodesic-to-center
    distance on the grid i * grid_dt, i < ceil((T + grid_dt) / grid_dt).
    Returns (last grid time, grid minimum, certified bound = minimum minus
    the (1 + v) * grid_dt drift)."""
    tr = cert.geodesic
    n = math.ceil((T + grid_dt) / grid_dt)
    ts = [i * grid_dt for i in range(n)]
    ev_t = [tr.start.time] + [e.time for e in tr.events]
    wp_t = [t for t, _ in path.waypoints]
    gx = interp(ts, ev_t, [tr.start.pos.x] + [e.point.x for e in tr.events])
    gy = interp(ts, ev_t, [tr.start.pos.y] + [e.point.y for e in tr.events])
    cx = interp(ts, wp_t, [p.x for _, p in path.waypoints])
    cy = interp(ts, wp_t, [p.y for _, p in path.waypoints])
    closest = min(math.hypot(a - c, b - d)
                  for a, b, c, d in zip(gx, gy, cx, cy))
    return ts[-1], closest, closest - (1.0 + path.v) * grid_dt


def evasion_case(seed, T):
    path = random_slow_path(SCENE, eps=0.05, v=0.01, T=T, seed=seed)
    return realize_schedule(plan_schedule(path, T, SCENE), SCENE), path


def segment_certificate(p, q):
    """A certificate whose geodesic runs at unit speed from p to q."""
    L = math.hypot(q.x - p.x, q.y - p.y)
    tr = Trajectory(scene=SCENE,
                    start=RayState(p, Direction.from_vec(q.x - p.x, q.y - p.y)),
                    events=[BounceEvent(time=L, point=q, wall="outer")],
                    horizon=L)
    return EvasionCertificate(geodesic=tr,
                              schedule=ZoneSchedule([0.0], [1], L),
                              word=Itinerary(()), realized_switches=[0.0])


class TestExactVerification:
    def test_between_grid_minimum_and_its_certified_bound(self):
        # oracle: over the grid's own span, the exact minimum is at most the
        # sampled minimum and at least the sampled minimum less the drift
        for seed in range(6):
            for T, dt in ((150.0, 0.005), (400.0, 0.0037), (1000.0, 0.02)):
                cert, path = evasion_case(seed, T)
                t_last, closest, bound = grid_verifier(cert, path, T, dt)
                verify_evasion(cert, path, t_last)
                assert bound <= cert.min_distance <= closest + 1e-12, (seed, T)

    def test_moving_ball_minimum_between_knots(self):
        # ball and geodesic cross at right angles; the closest approach,
        # 0.4 * sqrt(0.5) at t = 1.4, lies inside both segments
        cert = segment_certificate(Point2(-1.0, 0.0), Point2(1.0, 0.0))
        path = CatcherPath(waypoints=[(0.0, Point2(0.6, -1.2)),
                                      (2.0, Point2(0.6, 0.8))],
                           eps=0.05, v=1.0, scene=SCENE)
        assert verify_evasion(cert, path, 2.0)
        assert cert.min_distance == pytest.approx(0.4 * math.sqrt(0.5),
                                                  rel=1e-15)

    # in floats 0.07 * 0.07 rounds below 0.07**2: only the exact
    # recomputation verifies the ball at exactly 0.07
    @pytest.mark.parametrize("eps", [0.05, 0.07])
    def test_ball_exactly_eps_away_verifies_and_one_ulp_closer_does_not(
            self, eps):
        cert = segment_certificate(Point2(-1.0, 0.0), Point2(1.0, 0.0))
        at = parked(Point2(0.3, eps), eps, 2.0)
        assert verify_evasion(cert, at, 2.0)
        assert cert.min_distance == eps and cert.margin == 0.0
        closer = parked(Point2(0.3, math.nextafter(eps, 0.0)), eps, 2.0)
        assert not verify_evasion(cert, closer, 2.0)
        assert cert.min_distance == math.nextafter(eps, 0.0)
        assert cert.margin < 0.0

    def test_nan_separation_does_not_verify(self):
        cert = segment_certificate(Point2(-1.0, 0.0), Point2(1.0, 0.0))
        path = CatcherPath(waypoints=[(0.0, Point2(0.3, 0.5)),
                                      (1.0, Point2(math.nan, 0.5)),
                                      (2.0, Point2(0.3, 0.5))],
                           eps=0.05, v=0.01, scene=SCENE)
        assert not verify_evasion(cert, path, 2.0)
        assert math.isnan(cert.min_distance)

    def test_memory_is_bounded_by_the_inputs(self):
        cert, path = evasion_case(1, 2000.0)
        tracemalloc.start()
        try:
            verify_evasion(cert, path, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # a 400k-point sampling grid took ~24.5 MB


class TestEndToEnd:
    def test_pipeline_on_random_paths(self):
        for seed in range(6):
            path = random_slow_path(SCENE, eps=0.05, v=0.01, T=200.0, seed=seed)
            sched = plan_schedule(path, 200.0, SCENE)
            assert validate_schedule(sched, path, SCENE) == []
            cert = realize_schedule(sched, SCENE)
            assert verify_evasion(cert, path, 200.0)
            for r, t in zip(cert.realized_switches, sched.times):
                assert abs(r - t) <= 3.0

    def test_golden_certificates(self):
        # sha256 recorded with the array-based realizer and whole-prefix
        # block sizing: words, switch times and events must not move a bit
        h = hashlib.sha256()
        for seed, T in ((0, 200.0), (1, 400.0), (2, 700.0), (3, 200.0)):
            cert, _ = evasion_case(seed, T)
            h.update(cert.word.to_string().encode() + b"\n")
            h.update(" ".join(t.hex() for t in cert.realized_switches).encode()
                     + b"\n")
            s = cert.geodesic.start
            h.update(" ".join(v.hex() for v in (s.pos.x, s.pos.y, *s.dir.vec))
                     .encode() + b"\n")
            for e in cert.geodesic.events:
                h.update(" ".join(v.hex() for v in (
                    e.time, e.point.x, e.point.y, *e.in_dir.vec,
                    *e.out_dir.vec)).encode() + b"\n")
        assert h.hexdigest() == (
            "d143bd8118e502e90fcbf0a45e5a76b2b21a5ee585274db0465ffda3ee0fcb85")

    def test_certificate_json(self):
        import json
        path = random_slow_path(SCENE, eps=0.05, v=0.01, T=150.0, seed=3)
        sched = plan_schedule(path, 150.0, SCENE)
        cert = realize_schedule(sched, SCENE)
        verify_evasion(cert, path, 150.0)
        d = json.loads(cert.to_json())
        assert set(d) == {"schedule", "itinerary", "realized_switches",
                          "min_distance", "margin"}

    def test_tgcc_reports_evader_among_witnesses(self):
        from geocatch.tgcc import check_tgcc
        path = random_slow_path(SCENE, eps=0.05, v=0.01, T=200.0, seed=1)
        sched = plan_schedule(path, 200.0, SCENE)
        cert = realize_schedule(sched, SCENE)
        assert verify_evasion(cert, path, 200.0)
        rep = check_tgcc(SCENE, path, T=200.0, n_pos=4, n_ang=8,
                         extra_trajectories=[cert.geodesic])
        assert rep.caught_fraction < 1.0
        s = cert.geodesic.start
        assert any(abs(x - s.pos.x) < 1e-12 and abs(y - s.pos.y) < 1e-12
                   for (x, y, a) in rep.witnesses)
