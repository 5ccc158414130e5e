import math

import pytest

from geocatch.geometry import Point2, build_obstacle_scene, disk, rectangle, torus
from geocatch.catcher import (
    CatcherError,
    HorizonTooShort,
    build_catcher,
    dense_sites,
)


class TestDenseSites:
    def test_torus_first_four_points_fixed_order(self):
        pts = dense_sites(torus(1.0), 4)
        assert [(p.x, p.y) for p in pts] == [(0.0, 0.0), (0.0, 0.5),
                                             (0.5, 0.0), (0.5, 0.5)]

    def test_single_point_is_grid_origin(self):
        pts = dense_sites(torus(1.0), 1)
        assert (pts[0].x, pts[0].y) == (0.0, 0.0)

    def test_disk_points_strictly_inside(self):
        pts = dense_sites(disk(1.0), 40)
        assert all(math.hypot(p.x, p.y) < 1.0 for p in pts)

    def test_rectangle_points_strictly_inside(self):
        pts = dense_sites(rectangle(1.0, 2.0), 30)
        assert all(0 < p.x < 1 and 0 < p.y < 2 for p in pts)

    def test_enumeration_is_dense_in_the_limit(self):
        # every target is eventually approximated within 2^-4
        pts = dense_sites(torus(1.0), 1024)
        for target in [Point2(0.33, 0.77), Point2(0.9, 0.1)]:
            d = min(math.hypot(p.x - target.x, p.y - target.y) for p in pts)
            assert d < 2 ** -4

    def test_deterministic(self):
        a = dense_sites(torus(1.0), 50)
        b = dense_sites(torus(1.0), 50)
        assert a == b


def schedule(horizon):
    """(site, arrival, departure) of each step of the 4-site torus catcher,
    read off its waypoints: after the first, they come in (arrival,
    departure) pairs, and a transit the horizon cuts adds one lone last
    waypoint.  Sites are 1-based indices into dense_sites."""
    sites = dense_sites(torus(1.0), 4)
    wps = build_catcher(torus(1.0), 0.2, 0.05, horizon, sites=4).waypoints
    out = []
    for (t1, p), (t2, q) in zip(wps[1::2], wps[2::2]):
        assert p == q  # parked between arrival and departure
        out.append((sites.index(Point2(p.x % 1.0, p.y % 1.0)) + 1, t1, t2))
    return out


class TestSchedule:
    def test_first_dwell_follows_rule(self):
        site, arrival, departure = schedule(1e6)[0]
        assert site == 1
        assert arrival == pytest.approx(1.0)
        assert departure - arrival == pytest.approx(arrival * 2.0)

    def test_dwell_rule_at_every_complete_step(self):
        for j, (_, arrival, departure) in enumerate(schedule(1e9), start=1):
            if departure < 1e9:
                assert departure - arrival == pytest.approx(
                    arrival * 2.0 ** j, rel=1e-12)

    def test_visiting_order_revisits_first_sites(self):
        order = [site for site, _, _ in schedule(1e12)]
        assert order[:6] == [1, 2, 1, 2, 3, 4]

    def test_parked_fraction_tends_to_one(self):
        parked = sum(departure - arrival for _, arrival, departure
                     in schedule(1e9))
        assert parked / 1e9 > 0.9

    def test_parked_fraction_lower_bound_per_step(self):
        # geometric-series bound: after step j the parked fraction of the
        # elapsed time is at least 1 - 2^(1-j)
        parked = 0.0
        for j, (_, arrival, departure) in enumerate(schedule(1e12), start=1):
            if departure >= 1e12:
                break
            parked += departure - arrival
            assert parked / departure >= 1.0 - 2.0 ** (1 - j) - 1e-12

    def test_b_window_assertion(self):
        # a parked window [T', T''] at each site with T' > T = 10 and
        # (T'' - T')/T'' > K
        steps = schedule(1e12)
        for K in (0.5, 0.9):
            for site in (1, 2, 3):
                assert any(s == site and t1 > 10.0 and (t2 - t1) / t2 > K
                           for s, t1, t2 in steps)

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort):
            schedule(2.0)


class TestBuildCatcher:
    def test_speed_profile(self):
        path = build_catcher(torus(1.0), eps=0.2, v=0.05, horizon=1e5)
        legs = [math.hypot(p1.x - p0.x, p1.y - p0.y) / (t1 - t0)
                for (t0, p0), (t1, p1) in zip(path.waypoints,
                                              path.waypoints[1:])]
        assert max(legs) <= 0.05 + 1e-12
        # transits run at exactly v
        speeds = [sp for sp in legs if sp > 1e-9]
        assert speeds and all(s == pytest.approx(0.05, rel=1e-9) for s in speeds)

    def test_rejects_zero_eps(self):
        with pytest.raises(CatcherError):
            build_catcher(torus(1.0), eps=0.0, v=0.05, horizon=100.0)

    def test_rejects_obstacle_scene(self):
        with pytest.raises(CatcherError):
            build_catcher(build_obstacle_scene(0.05, 2.0), 0.05, 0.01, 100.0)

    def test_waypoint_times_increasing(self):
        path = build_catcher(torus(1.0), eps=0.2, v=0.05, horizon=1e6)
        times = [t for t, _ in path.waypoints]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(1e6)

    def test_horizon_cuts_a_transit(self):
        # steps at (0, 0) over [1, 3] and (0, 0.5) over [13, 65]; the leg back
        # to (0, 0) wraps upward (tie toward positive) and lasts 10, so the
        # horizon at 70 ends it halfway
        path = build_catcher(torus(1.0), 0.2, 0.05, 70.0)
        assert path.waypoints == [
            (0.0, Point2(0.0, 0.0)), (1.0, Point2(0.0, 0.0)),
            (3.0, Point2(0.0, 0.0)), (13.0, Point2(0.0, 0.5)),
            (65.0, Point2(0.0, 0.5)), (70.0, Point2(0.0, 0.75))]

    def test_csv_and_header(self, tmp_path):
        from geocatch.cli import main
        assert main(["catch", "--horizon", "1e4", "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "catcher.csv").read_text()
        assert csv.splitlines()[0] == "t,cx,cy"
        hdr = (tmp_path / "catcher.json").read_text()
        assert '"header":{"eps":0.2,"scene":{"kind":"torus"' in hdr


class TestTransitLegs:
    def test_torus_tie_broken_toward_positive(self):
        from geocatch.catcher import _leg
        dx, dy = _leg(torus(1.0), Point2(0.5, 0.5), Point2(0.0, 0.0))
        assert (dx, dy) == (0.5, 0.5)

    def test_torus_shortest_leg_wraps(self):
        from geocatch.catcher import _leg
        dx, dy = _leg(torus(1.0), Point2(0.9, 0.1), Point2(0.1, 0.9))
        assert dx == pytest.approx(0.2)
        assert dy == pytest.approx(-0.2)


class TestClockResolution:
    @pytest.mark.parametrize("v, horizon", [(1e6, 1e12), (0.05, 1e18)])
    def test_transit_below_time_resolution_is_refused(self, v, horizon):
        # the transit would not advance the float64 clock: two waypoints at
        # one time with different points, a teleporting ball
        with pytest.raises(CatcherError, match=r"transit to step \d+ at t = "):
            build_catcher(torus(1.0), eps=0.2, v=v, horizon=horizon)

    def test_refusal_is_a_config_error_on_the_cli(self, tmp_path):
        from geocatch.cli import main
        assert main(["catch", "--v", "1e6", "--horizon", "1e12",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("v, horizon", [(0.05, 4e7), (0.05, 1e12),
                                            (1e6, 1e6)])
    def test_waypoint_times_strictly_increase(self, v, horizon):
        path = build_catcher(torus(1.0), eps=0.2, v=v, horizon=horizon)
        times = [t for t, _ in path.waypoints]
        assert all(a < b for a, b in zip(times, times[1:]))
