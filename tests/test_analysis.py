import math
import time
import tracemalloc

import pytest

from geocatch.geometry import Point2, Direction, disk, rectangle, torus
from geocatch.flow import OutOfRange, RayState, flow_torus, trace
from geocatch.analysis import (
    dichotomy_check,
    disk_structure,
    occupancy,
    star_discrepancy,
    subsequence_grc,
)


def quadrature_occupancy(tr, center, radius, horizon, n=400000):
    # oracle: Riemann sum of the indicator of the ball
    from geocatch.flow import position_at
    from oracle import torus_distance
    total = 0.0
    dt = horizon / n
    for k in range(n):
        p = position_at(tr, (k + 0.5) * dt)
        if tr.scene.kind == "torus":
            d = torus_distance(p, center, tr.scene.side)
        else:
            d = math.hypot(p.x - center.x, p.y - center.y)
        if d < radius:
            total += dt
    return total / horizon


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOccupancy:
    def test_single_pass_through_center_lasts_diameter(self):
        tr = flow_torus(10.0, Point2(0.0, 5.0), Direction(0.0), horizon=9.0)
        series = occupancy(tr, Point2(5.0, 5.0), 0.5, [9.0])
        assert series.fractions[0] == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_axis_line_through_ball_asymptotic_fraction(self):
        tr = flow_torus(1.0, Point2(0.0, 0.3), Direction(0.0), horizon=1000.0)
        series = occupancy(tr, Point2(0.5, 0.3), 0.1, [10.0, 100.0, 1000.0])
        for f in series.fractions:
            assert f == pytest.approx(0.2, abs=0.02)
        assert series.fractions[-1] == pytest.approx(0.2, abs=1e-3)

    def test_never_entering_ball_gives_zero(self):
        tr = flow_torus(1.0, Point2(0.0, 0.8), Direction(0.0), horizon=100.0)
        series = occupancy(tr, Point2(0.5, 0.3), 0.1, [50.0, 100.0])
        assert series.fractions == [0.0, 0.0]

    def test_certified_miss_ends_the_walk(self):
        # slope 1 passes the radius-0.05 ball at 0.1/sqrt(2): one lattice
        # column certifies the miss, where a full walk crosses ~7e5 columns
        tr = flow_torus(1.0, Point2(0.1, 0.2), Direction.from_vec(1.0, 1.0),
                        horizon=1e6)
        t0 = time.perf_counter()
        series = occupancy(tr, Point2(0.5, 0.5), 0.05, [1e6])
        assert time.perf_counter() - t0 < 0.5
        assert series.fractions == [0.0]

    def test_start_inside_a_column_slab_does_not_certify_a_miss(self):
        # the start lies in column 0's slab, so that column's window is cut
        # at t = 0 and holds no copy; every later column passes its copy at
        # 0.05/sqrt(2), inside the ball, for a chord of 2*sqrt(0.00875)
        tr = flow_torus(1.0, Point2(0.599, 0.649), Direction.from_vec(1.0, 1.0),
                        horizon=1e3)
        series = occupancy(tr, Point2(0.5, 0.5), 0.1, [1e3])
        want = 2.0 * math.sqrt(0.00875) / math.sqrt(2.0)
        assert series.fractions[0] == pytest.approx(want, abs=1e-3)

    def test_matches_quadrature_oracle_on_irrational_line(self):
        slope = math.sqrt(2) - 1
        tr = flow_torus(1.0, Point2(0.1, 0.2), Direction.from_vec(1.0, slope),
                        horizon=50.0)
        series = occupancy(tr, Point2(0.6, 0.5), 0.15, [50.0])
        want = quadrature_occupancy(tr, Point2(0.6, 0.5), 0.15, 50.0)
        assert series.fractions[0] == pytest.approx(want, abs=2e-4)

    def test_matches_quadrature_on_rectangle_trace(self):
        scn = rectangle(1.0, 1.0)
        tr = trace(scn, RayState(Point2(0.31, 0.47), Direction(0.83)),
                   horizon=40.0)
        series = occupancy(tr, Point2(0.5, 0.5), 0.2, [40.0])
        want = quadrature_occupancy(tr, Point2(0.5, 0.5), 0.2, 40.0)
        assert series.fractions[0] == pytest.approx(want, abs=2e-4)

    def test_torus_walk_runs_in_constant_memory(self):
        # 2e4 chords to 1e5: a list of them would take about 2 MiB
        tr = flow_torus(1.0, Point2(0.1, 0.2),
                        Direction.from_vec(1.0, math.sqrt(2) - 1), horizon=1e5)
        peak = traced_peak(lambda: occupancy(tr, Point2(0.5, 0.5), 0.1,
                                             [1e3, 1e4, 1e5]))
        assert peak < 64 * 1024

    def test_bounded_chords_run_in_constant_memory(self):
        # the trajectory's own events are allocated before tracing starts
        tr = trace(rectangle(1.0, 1.5), RayState(Point2(0.31, 0.47),
                                                 Direction(0.83)), horizon=2e4)
        peak = traced_peak(lambda: occupancy(tr, Point2(0.5, 0.7), 0.2,
                                             [1e3, 2e4]))
        assert peak < 64 * 1024

    def test_rejects_horizon_beyond_trajectory(self):
        tr = flow_torus(1.0, Point2(0, 0), Direction(0.5), horizon=10.0)
        with pytest.raises(OutOfRange):
            occupancy(tr, Point2(0.5, 0.5), 0.1, [20.0])
        # no horizon, a zero one or a negative one: no fraction to report
        for horizons in ([], [0.0], [-1.0, 5.0]):
            with pytest.raises(ValueError):
                occupancy(tr, Point2(0.5, 0.5), 0.1, horizons)

    def test_torus_radius_above_half_the_side_is_refused(self):
        # overlapping lattice copies would count shared chords twice and
        # give fractions above 1
        tr = flow_torus(1.0, Point2(0.1, 0.3), Direction(0.5), horizon=100.0)
        for radius in (0.6, 1.0):
            with pytest.raises(ValueError):
                occupancy(tr, Point2(0.5, 0.5), radius, [100.0])
        # half the side is the largest radius whose copies stay disjoint
        tr2 = flow_torus(2.0, Point2(0.1, 0.3), Direction(0.5), horizon=100.0)
        for t, r in ((tr, 0.5), (tr2, 1.0)):
            frac = occupancy(t, Point2(0.5, 0.5), r, [100.0]).fractions[0]
            assert 0.0 < frac <= 1.0


class TestDichotomy:
    def test_torus_rational_slope_periodic(self):
        s = RayState(Point2(0.1, 0.2), Direction.from_vec(2.0, 1.0))
        rep = dichotomy_check(torus(1.0), s, Point2(0.5, 0.5), 0.1,
                              horizon=100.0)
        assert rep.periodic
        assert rep.period == pytest.approx(math.sqrt(5.0), abs=1e-9)

    def test_torus_irrational_slope_equidistributes(self):
        slope = math.sqrt(2) - 1
        s = RayState(Point2(0.1, 0.2), Direction.from_vec(1.0, slope))
        rep = dichotomy_check(torus(1.0), s, Point2(0.6, 0.4), 0.1,
                              horizon=10000.0)
        assert not rep.periodic
        assert rep.expected_fraction == pytest.approx(math.pi * 0.01, abs=1e-15)
        assert rep.deviation < 0.01

    def test_rectangle_axis_parallel_period_two(self):
        rep = dichotomy_check(rectangle(1.0, 1.0),
                              RayState(Point2(0.5, 0.5), Direction(0.0)),
                              Point2(0.5, 0.5), 0.1, horizon=50.0)
        assert rep.periodic
        assert rep.period == pytest.approx(2.0, abs=1e-12)

    def test_fractions_match_the_traced_trajectory(self):
        # recorded when the rectangle case still built a whole trace, from
        # the starts dichotomy_check then fixed itself: the rectangle's
        # centre and (0.1, 0.2) on the torus
        rep = dichotomy_check(rectangle(2.0, 1.0),
                              RayState(Point2(1.0, 0.5), Direction(0.41)),
                              Point2(0.9, 0.4), 0.2, 2e3)
        assert rep.fraction == float.fromhex("0x1.00d0df4950a21p-4")
        s = RayState(Point2(0.1, 0.2),
                     Direction.from_vec(1.0, math.sqrt(2) - 1))
        rep = dichotomy_check(torus(1.0), s, Point2(0.6, 0.4), 0.1, 1e4)
        assert rep.fraction == float.fromhex("0x1.0167d8755e481p-5")

    def test_rectangle_runs_in_constant_memory(self):
        # about 1.7e4 bounces to 2e4: a trace of them took about 5.5 MiB
        peak = traced_peak(lambda: dichotomy_check(
            rectangle(2.0, 1.0), RayState(Point2(1.0, 0.5), Direction(0.41)),
            Point2(0.9, 0.4), 0.2, 2e4))
        assert peak < 64 * 1024

    def test_disk_scene_rejected(self):
        with pytest.raises(ValueError):
            dichotomy_check(disk(1.0), RayState(Point2(0, 0), Direction(0.0)),
                            Point2(0, 0), 0.1, 10.0)


class TestDiskStructure:
    def test_triangle_orbit(self):
        rep = disk_structure(math.pi / 3, theta0=0.3, n=30)
        assert rep.periodic and rep.period_bounces == 3
        assert rep.inner_radius == pytest.approx(0.5, abs=1e-12)
        assert len({round(a, 9) for a in rep.angles}) == 3
        assert rep.chord_distance_max_err < 1e-12

    def test_irrational_rotation_not_periodic_and_equidistributes(self):
        alpha = math.pi / math.sqrt(7.0)
        if alpha >= math.pi / 2:
            alpha /= 2
        reps = [disk_structure(alpha, 0.0, n) for n in (64, 512, 4096)]
        assert all(not r.periodic for r in reps)
        assert reps[2].star_discrepancy < reps[0].star_discrepancy
        for r in reps:
            assert r.chord_distance_max_err < 1e-12

    def test_single_chord(self):
        rep = disk_structure(0.7, 0.0, 1)
        assert rep.n == 1 and len(rep.angles) == 1

    def test_matches_traced_disk_orbit(self):
        # dual route: the flow module's chord map must produce the same
        # boundary angles as the arithmetic progression
        alpha = 0.613
        scn = disk(1.0)
        start = Point2(1.0, 0.0)
        d = Direction(math.pi / 2 + alpha)
        tr = trace(scn, RayState(start, d), horizon=30.0)
        rep = disk_structure(alpha, theta0=0.0, n=len(tr.events) + 1)
        for e, want in zip(tr.events, rep.angles[1:]):
            got = math.atan2(e.point.y, e.point.x) % (2 * math.pi)
            assert got == pytest.approx(want, abs=1e-9)


class TestStarDiscrepancy:
    def test_uniform_grid_has_small_discrepancy(self):
        xs = [(k + 0.5) / 100 for k in range(100)]
        assert star_discrepancy(xs) <= 0.01 + 1e-12

    def test_clustered_points_have_large_discrepancy(self):
        xs = [0.01 * k / 50 for k in range(50)]
        assert star_discrepancy(xs) > 0.9


class TestSubsequenceGrc:
    def test_periodic_orbit_ball_found_near_orbit(self):
        tr = flow_torus(1.0, Point2(0.0, 0.25), Direction(0.0), horizon=200.0)
        rep = subsequence_grc(tr, eps=0.2, horizons=[50.0, 100.0, 200.0])
        assert rep.positive_on_subsequence
        # the max-mass cell must sit on the orbit line y = 0.25
        assert abs(rep.ball_center.y - 0.25) < 0.2

    def test_equidistributed_line_fraction_near_area(self):
        slope = math.sqrt(2) - 1
        tr = flow_torus(1.0, Point2(0.1, 0.2), Direction.from_vec(1.0, slope),
                        horizon=5000.0)
        rep = subsequence_grc(tr, eps=0.2, horizons=[5000.0])
        assert rep.fractions[0] == pytest.approx(math.pi * 0.04, abs=0.02)

    def test_short_trajectory_rejected(self):
        tr = flow_torus(1.0, Point2(0, 0), Direction(0.3), horizon=10.0)
        with pytest.raises(OutOfRange):
            subsequence_grc(tr, 0.1, horizons=[50.0])

    def test_horizon_below_one_sample_rejected(self):
        # positions are sampled at t = 1, 2, ...: none before t = 1
        tr = flow_torus(1.0, Point2(0, 0), Direction(0.3), horizon=10.0)
        rect = trace(rectangle(1.0, 1.0), RayState(Point2(0.3, 0.4),
                                                   Direction(0.3)), horizon=10.0)
        for t in (tr, rect):
            with pytest.raises(ValueError):
                subsequence_grc(t, 0.1, horizons=[0.5])

    def test_nonpositive_eps_rejected(self):
        # eps = 0 would make a zero grid step, and a ZeroDivisionError
        # escape `geocatch grc --op subsequence --radius 0` as a traceback
        tr = flow_torus(1.0, Point2(0, 0), Direction(0.3), horizon=10.0)
        for eps in (0.0, -0.1):
            with pytest.raises(ValueError):
                subsequence_grc(tr, eps, horizons=[10.0])

    def test_memory_depends_on_cells_not_horizon(self):
        # 1600 cells; one Point2 per unit of time would take about 2.5 MiB
        tr = flow_torus(1.0, Point2(0.1, 0.2),
                        Direction.from_vec(1.0, math.sqrt(2) - 1), horizon=2e4)
        peak = traced_peak(lambda: subsequence_grc(tr, 0.1, horizons=[2e4]))
        assert peak < 512 * 1024
