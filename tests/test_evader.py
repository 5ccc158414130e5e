import math
import tracemalloc

import numpy as np
import pytest

from geocatch.geometry import Point2, build_obstacle_scene, zone_distance, zone_membership
from geocatch.catcher import CatcherPath
from geocatch.flow import position_at
from geocatch.symbolic import itinerary_of
from geocatch.evader import (
    VERIFY_CHUNK,
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

    def test_certified_bound_is_conservative(self):
        path = parked(Point2(1.2, 0.9), 0.05, 60.0)
        sched = plan_schedule(path, 60.0, SCENE)
        cert = realize_schedule(sched, SCENE)
        verify_evasion(cert, path, 60.0, grid_dt=0.005)
        coarse = cert.min_distance
        verify_evasion(cert, path, 60.0, grid_dt=0.0005)
        fine = cert.min_distance
        assert coarse <= fine + 1e-12  # coarser grid certifies less


def dense_certified(cert, path, T, grid_dt):
    """The whole-grid form of verify_evasion's certified distance: every
    sample of np.arange(0, T + grid_dt, grid_dt) held at once."""
    tr = cert.geodesic
    ts = np.arange(0.0, T + grid_dt, grid_dt)
    ev_t = np.array([tr.start.time] + [e.time for e in tr.events])
    ev_x = np.array([tr.start.pos.x] + [e.point.x for e in tr.events])
    ev_y = np.array([tr.start.pos.y] + [e.point.y for e in tr.events])
    wp_t = np.array([t for t, _ in path.waypoints])
    wp_x = np.array([p.x for _, p in path.waypoints])
    wp_y = np.array([p.y for _, p in path.waypoints])
    dist = np.hypot(np.interp(ts, ev_t, ev_x) - np.interp(ts, wp_t, wp_x),
                    np.interp(ts, ev_t, ev_y) - np.interp(ts, wp_t, wp_y))
    return float(np.min(dist)) - (1.0 + path.v) * grid_dt


def evasion_case(seed, T):
    path = random_slow_path(SCENE, eps=0.05, v=0.01, T=T, seed=seed)
    return realize_schedule(plan_schedule(path, T, SCENE), SCENE), path


class TestStreamedVerification:
    def assert_matches_dense(self, cert, path, T, grid_dt):
        verify_evasion(cert, path, T, grid_dt=grid_dt)
        want = dense_certified(cert, path, T, grid_dt)
        assert cert.min_distance.hex() == want.hex(), (T, grid_dt)
        assert cert.margin.hex() == (want - path.eps).hex(), (T, grid_dt)

    def test_bit_identical_to_dense_grid(self):
        # T = 2000 at grid_dt = 0.0005 is left out: its dense reference
        # alone would hold 4M-point arrays (~300 MB)
        cases = [(150.0, dt) for dt in (0.005, 0.0005, 0.0037)]
        cases += [(2000.0, dt) for dt in (0.005, 0.0037)]
        for seed in (0, 1, 2, 5):
            for T, dt in cases:
                cert, path = evasion_case(seed, T)
                self.assert_matches_dense(cert, path, T, dt)

    def test_partial_and_whole_last_chunk(self):
        # the ball closes on the geodesic at the last grid time, so that
        # sample holds the minimum and a grid one point short would show
        dt = 0.005
        cert, _ = evasion_case(4, 100.0)
        remainders = set()
        for k in (VERIFY_CHUNK - 1, VERIFY_CHUNK, 2 * VERIFY_CHUNK - 1,
                  2 * VERIFY_CHUNK + 3):
            T = k * dt
            n = math.ceil((T + dt) / dt)
            remainders.add(n % VERIFY_CHUNK == 0)
            t_last = (n - 1) * dt
            hit = position_at(cert.geodesic, t_last)
            path = CatcherPath(waypoints=[(0.0, Point2(1.2, 0.9)),
                                          (t_last - 1.0, Point2(1.2, 0.9)),
                                          (t_last, hit)],
                               eps=0.05, v=0.01, scene=SCENE)
            self.assert_matches_dense(cert, path, T, dt)
            assert cert.min_distance + (1.0 + path.v) * dt < 1e-9
        assert remainders == {True, False}

    def test_grid_memory_does_not_grow_with_horizon(self):
        cert, path = evasion_case(1, 2000.0)
        tracemalloc.start()
        try:
            verify_evasion(cert, path, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # the whole 400k-point grid took ~24.5 MB


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
