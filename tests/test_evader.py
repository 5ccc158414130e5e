import hashlib
import math
import random
import time
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geocatch.geometry import (Direction, Point2, build_obstacle_scene, disk,
                               point_segment_distance, rectangle,
                               zone_distance, zone_membership, zone_segment)
from geocatch.catcher import CatcherPath
from geocatch.flow import (BounceEvent, OutOfRange, RayState, Trajectory,
                           contact, knots, pieces, position_at, trace)
from geocatch.tgcc import first_hit_time
from geocatch.symbolic import Itinerary, itinerary_of, shadow_orbit
from geocatch import evader
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
FIVE_ZONES = ZoneSchedule(times=[0.0, 15.0, 30.0, 45.0, 60.0],
                          zones=[1, 2, 3, 1, 2], T=80.0)


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

    @pytest.mark.parametrize("clearance, flagged", [(5e-6, False),
                                                    (-1e-12, True)])
    def test_validator_is_exact_at_the_zone_rim(self, clearance, flagged):
        # a ball parked below zone 1's axis, clearance beyond touching: 5e-6
        # is below the Lipschitz slack v * step / 2 = 1e-5 that sampling at
        # step 0.002 would need, so only an exact distance passes it
        c2, c3 = SCENE.centers[1], SCENE.centers[2]
        y = c2.y - SCENE.r0 - 0.05 - clearance
        path = parked(Point2((c2.x + c3.x) / 2, y), 0.05, 100.0)
        sched = ZoneSchedule(times=[0.0], zones=[1], T=100.0)
        errs = validate_schedule(sched, path, SCENE)
        assert errs == (["ball touches zone 1 during block 0"] if flagged else [])

    def test_ball_in_a_zone_before_t0_is_seen(self):
        # a path from t = -10 that sits on zone 3's axis until t = -2: the
        # window [-SWITCH_SLACK, LOOKAHEAD] of the first zone reaches back
        # into that stay, so zone 3 is not clean at t = 0
        c1, c2 = SCENE.centers[0], SCENE.centers[1]
        mid = Point2((c1.x + c2.x) / 2, (c1.y + c2.y) / 2)
        far = Point2(1.5, 0.0)
        path = CatcherPath(waypoints=[(-10.0, mid), (-2.0, mid), (0.0, far),
                                      (200.0, far)], eps=0.05, v=2.0,
                           scene=SCENE)
        sched = plan_schedule(path, 200.0, SCENE)
        assert sched.zones == [1]
        assert validate_schedule(sched, path, SCENE) == []

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

    def test_planning_failure_after_a_switch(self):
        # a slow ball walks up to the centroid and parks there: the planner
        # starts clean and then runs out of clean zones on the way.  Zone 2,
        # planned from t = 0, is first threatened where the center (0, y)
        # comes within eps + PLAN_MARGIN + r0 = 0.32 of its axis, at
        # 0.5 * (c1.y - y) = 0.32, t = (1.2 + c1.y - 0.64) / 0.02 = 59.754;
        # the switch SWITCH_SLACK before it finds no clean zone
        path = CatcherPath(waypoints=[(0.0, Point2(0.0, -1.2)),
                                      (60.0, Point2(0.0, 0.0)),
                                      (400.0, Point2(0.0, 0.0))],
                           eps=0.25, v=0.05, scene=SCENE)
        with pytest.raises(PlanningFailure,
                           match="no admissible zone at t = 56.75"):
            plan_schedule(path, 300.0, SCENE)

    @pytest.mark.parametrize("v", [0.01, 0.0])
    def test_plan_sees_legs_faster_than_the_declared_speed(self, v):
        # parked above circle 1 (so zone 1 comes first), the ball darts
        # round circle 3 onto zone 1's axis and back within two seconds,
        # far faster than its declared speed v: the plan must leave zone 1
        # before the dart, and the validator must agree with it
        top, out = Point2(0.0, 1.6), Point2(1.6, -1.2)
        axis = Point2(0.0, -0.3175)
        wps = [(0.0, top), (50.0, top), (50.5, out), (51.0, axis),
               (51.5, out), (52.0, top), (200.0, top)]
        path = CatcherPath(waypoints=wps, eps=0.05, v=v, scene=SCENE)
        sched = plan_schedule(path, 200.0, SCENE)
        assert sched.zones == [1, 2]
        assert 47.0 < sched.times[1] < 48.0
        assert validate_schedule(sched, path, SCENE) == []

    def test_plan_refuses_a_dart_across_every_zone(self):
        # the same dart straight down through circle 1 and zone 1's axis
        # threatens all three zones at once: no zone plan exists
        top = Point2(0.0, 1.6)
        wps = [(0.0, top), (50.0, top), (50.5, Point2(0.0, -0.8175)),
               (51.0, top), (200.0, top)]
        path = CatcherPath(waypoints=wps, eps=0.05, v=0.01, scene=SCENE)
        assert evader._first_threat(path, SCENE, 1, 0.0, 200.0,
                                    0.07) == pytest.approx(50.3718, abs=1e-4)
        with pytest.raises(PlanningFailure, match="no admissible zone"):
            plan_schedule(path, 200.0, SCENE)


def _threat_case(rng):
    """A seeded random center path (slow, fast, parked, or starting on a
    zone's axis) whose legs head for points near zone a's axis, with zone
    a, a radius and a window reaching past the path's span on either side."""
    kind = rng.choice(["slow", "fast", "parked", "inside"])
    a = rng.randint(1, 3)
    ca, cb = zone_segment(SCENE, a)

    def near_axis(spread):
        s = rng.random()
        return Point2(ca.x + s * (cb.x - ca.x) + rng.gauss(0.0, spread),
                      ca.y + s * (cb.y - ca.y) + rng.gauss(0.0, spread))

    p = near_axis(0.0 if kind == "inside" else 0.6)
    t, wps = 0.0, [(0.0, p)]
    for _ in range(rng.randint(1, 4)):
        if kind == "parked":
            t += rng.uniform(1.0, 30.0)
        else:
            q = near_axis(0.3)
            speed = rng.uniform(0.5, 3.0) if kind == "fast" else 0.01
            t += math.hypot(q.x - p.x, q.y - p.y) / speed
            p = q
        wps.append((t, p))
    path = CatcherPath(waypoints=wps, eps=0.05, v=0.01, scene=SCENE)
    t_from = rng.uniform(-3.0, 0.5 * t)
    return path, a, rng.uniform(0.02, 0.3), t_from, rng.uniform(t_from, t + 3.0)


@pytest.mark.parametrize("seed", range(4))
def test_first_threat_matches_dense_sampling(seed):
    # oracle: the center sampled densely over the window; a sample is inside
    # when its distance from zone a, less r0, is below the radius by more
    # than rounding can move it
    rng = random.Random(seed)
    hits = 0
    for _ in range(50):
        path, a, radius, t_from, t_to = _threat_case(rng)
        ca, cb = zone_segment(SCENE, a)

        def reach(t):
            return point_segment_distance(path.center(t), ca, cb) - SCENE.r0

        got = evader._first_threat(path, SCENE, a, t_from, t_to, radius)
        n = 2000
        ts = [t_from + (t_to - t_from) * k / n for k in range(n + 1)]
        inside = [t for t in ts if reach(t) < radius - 1e-12]
        if got is None:
            assert inside == []
            continue
        hits += 1
        assert t_from <= got <= t_to
        assert not [t for t in inside if t < got]
        assert reach(got) < radius + 1e-12
        if got > t_from:
            assert reach(got) > radius - 1e-9
    assert hits >= 10


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
        cert = realize_schedule(FIVE_ZONES, SCENE)
        for r, t in zip(cert.realized_switches, FIVE_ZONES.times):
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
        assert_reflection_law(realize_schedule(sched, SCENE))

    @pytest.mark.parametrize("case", ["five_zones", "seed_1_T_2000"])
    def test_reflection_law_where_windows_join(self, case):
        # every block is relaxed in its own window, pinned at a bounce that
        # an earlier window placed: the law must hold there too
        assert_reflection_law(several_blocks(case))

    @pytest.mark.parametrize("case", ["five_zones", "seed_1_T_2000"])
    def test_no_call_relaxes_the_whole_word(self, case, monkeypatch):
        lengths = []

        def recording(scene, start, circles, *args, **kwargs):
            lengths.append(len(circles))
            return shadow_orbit(scene, start, circles, *args, **kwargs)

        monkeypatch.setattr(evader, "shadow_orbit", recording)
        cert = several_blocks(case)
        n = len(cert.word)
        times = [e.time for e in cert.geodesic.events]
        starts = [times.index(r) + 1 for r in cert.realized_switches[1:]]
        assert len(lengths) >= len(starts) + 1
        assert max(lengths) < n - 1
        # the last call relaxes the last block and the CONTEXT accepted
        # bounces before it, up to the end of the word
        assert lengths[-1] == evader.CONTEXT + n - starts[-1]


def several_blocks(case):
    if case == "five_zones":
        return realize_schedule(FIVE_ZONES, SCENE)
    return evasion_case(1, 2000.0)[0]


def assert_reflection_law(cert):
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


@st.composite
def contact_cases(draw):
    """A rectangle or disk geodesic against a ball of radius 0.05 to 0.3
    whose center moves along up to four legs at speeds up to v <= 1, then
    parks, over a horizon of 2 to 8."""
    scene = draw(st.sampled_from((rectangle(1.0, 1.0), rectangle(1.5, 1.0),
                                  disk(1.0))))
    if scene.kind == "disk":
        r, phi = draw(st.floats(0.0, 0.95)), draw(st.floats(0.0, 2 * math.pi))
        start = Point2(r * math.cos(phi), r * math.sin(phi))
        lo_x, lo_y, hi_x, hi_y = -1.0, -1.0, 1.0, 1.0
    else:
        start = Point2(draw(st.floats(0.01, scene.width - 0.01)),
                       draw(st.floats(0.01, scene.height - 0.01)))
        lo_x, lo_y, hi_x, hi_y = 0.0, 0.0, scene.width, scene.height
    s = RayState(start, Direction(draw(st.floats(0.0, 2 * math.pi))))
    v = draw(st.floats(0.0, 1.0))
    t, c = 0.0, Point2(draw(st.floats(lo_x, hi_x)), draw(st.floats(lo_y, hi_y)))
    wps = [(t, c)]
    for _ in range(draw(st.integers(0, 4))):
        dt = draw(st.floats(0.25, 3.0))
        step = v * dt * draw(st.floats(0.0, 1.0))
        ux, uy = Direction(draw(st.floats(0.0, 2 * math.pi))).vec
        t, c = t + dt, Point2(c.x + step * ux, c.y + step * uy)
        wps.append((t, c))
    path = CatcherPath(waypoints=wps, eps=draw(st.floats(0.05, 0.3)), v=v,
                       scene=scene)
    return scene, s, path, draw(st.floats(2.0, 8.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=contact_cases())
def test_contact_matches_time_marching(case):
    """Every chord of flow.contact and the first entry against a time-marching
    oracle (position_at and CatcherPath.center), and the clamped minimum
    against the grid verifier's certified bound."""
    scene, s, path, T = case
    dt, graze = 2e-3, 1e-9
    tr = trace(scene, s, horizon=T + 3.0)  # events past the grid's last time
    assume(tr.horizon >= T + 3.0)          # no grazing exit from the disk
    t_last, closest, bound = grid_verifier(SimpleNamespace(geodesic=tr), path,
                                           T, dt)
    chords, qmin = [], math.inf
    for piece in pieces(knots(tr.start, tr.events, t_last), path.knots(), 0.0, t_last):
        q, chord = contact(*piece, path.eps)
        qmin = min(qmin, q)
        if chord is not None:
            chords.append(chord)
    assert bound <= math.sqrt(qmin) <= closest + 1e-12
    assert all(a <= b <= c <= d for (a, b), (c, d) in zip(chords, chords[1:]))
    for k in range(round(t_last / dt) + 1):
        t = k * dt
        p, c = position_at(tr, t), path.center(t)
        d = math.hypot(p.x - c.x, p.y - c.y)
        if d < path.eps - graze:
            assert any(lo - graze <= t <= hi + graze for lo, hi in chords), t
        elif d > path.eps + graze:
            assert not any(lo + graze < t < hi - graze for lo, hi in chords)
    hit = first_hit_time(scene, s, path, t_last)
    if not chords:
        assert hit is None
        return
    lo = chords[0][0]
    assert hit == pytest.approx(lo, abs=1e-9)
    if lo > 0.0:  # a real entry: the ball's rim
        p, c = position_at(tr, lo), path.center(lo)
        assert math.hypot(p.x - c.x, p.y - c.y) == pytest.approx(path.eps,
                                                                 abs=1e-9)


def evasion_case(seed, T):
    path = random_slow_path(SCENE, eps=0.05, v=0.01, T=T, seed=seed)
    return realize_schedule(plan_schedule(path, T, SCENE), SCENE), path


def segment_certificate(p, q):
    """A certificate whose geodesic runs at unit speed from p to q, and on
    beyond q."""
    L = math.hypot(q.x - p.x, q.y - p.y)
    d = Direction.from_vec(q.x - p.x, q.y - p.y)
    tr = Trajectory(scene=SCENE, start=RayState(p, d),
                    events=[BounceEvent(time=L, point=q, wall="outer",
                                        in_dir=d, out_dir=d)],
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

    def test_verifier_and_tgcc_agree(self):
        # the geodesic verifies exactly when check_tgcc leaves it uncaught:
        # on certificates, on a caught control, and on segments grazing a
        # ball parked eps from them, where rounding decides every verdict
        # each case is read over the window its geodesic covers
        from geocatch.tgcc import check_tgcc
        cases = [(*evasion_case(seed, 200.0), 200.0) for seed in range(3)]
        c2, c3 = SCENE.centers[1], SCENE.centers[2]
        on_orbit = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
        cases.append((realize_schedule(ZoneSchedule([0.0], [1], 50.0), SCENE),
                      parked(on_orbit, 0.05, 50.0), 50.0))
        rng = random.Random(7)
        for _ in range(200):
            eps = rng.choice((0.03, 0.05, 0.07, 0.1))
            p = Point2(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            ux, uy = Direction(rng.uniform(0.0, 2.0 * math.pi)).vec
            s, side = rng.uniform(0.0, 2.0), rng.choice((-1.0, 1.0))
            ball = Point2(p.x + s * ux - side * eps * uy,
                          p.y + s * uy + side * eps * ux)
            cases.append((segment_certificate(p, Point2(p.x + 2.0 * ux,
                                                        p.y + 2.0 * uy)),
                          parked(ball, eps, 2.0), 2.0))
        verdicts = set()
        for cert, path, T in cases:
            ok = verify_evasion(cert, path, T)
            rep = check_tgcc(SCENE, path, T=T, n_pos=1, n_ang=1,
                             extra_trajectories=[cert.geodesic])
            s = cert.geodesic.start
            listed = (s.pos.x, s.pos.y, s.dir.angle) in rep.witnesses
            assert ok == listed == (rep.first_hits[-1] is None)
            verdicts.add(ok)
        assert verdicts == {True, False}

    def test_nan_separation_does_not_verify(self):
        cert = segment_certificate(Point2(-1.0, 0.0), Point2(1.0, 0.0))
        path = CatcherPath(waypoints=[(0.0, Point2(0.3, 0.5)),
                                      (1.0, Point2(math.nan, 0.5)),
                                      (2.0, Point2(0.3, 0.5))],
                           eps=0.05, v=0.01, scene=SCENE)
        assert not verify_evasion(cert, path, 2.0)
        assert math.isnan(cert.min_distance)

    def test_geodesic_is_not_read_past_its_horizon(self):
        # the geodesic ends at t = 2; past it the ball, parked on its line,
        # would be met by a straight continuation
        cert = segment_certificate(Point2(-1.0, 0.0), Point2(1.0, 0.0))
        path = CatcherPath(waypoints=[(0.0, Point2(4.0, 0.0)),
                                      (50.0, Point2(4.0, 0.0))],
                           eps=0.05, v=0.01, scene=SCENE)
        with pytest.raises(OutOfRange):
            verify_evasion(cert, path, 50.0)
        assert verify_evasion(cert, path, 2.0)

    def test_memory_is_bounded_by_the_inputs(self):
        cert, path = evasion_case(1, 2000.0)
        tracemalloc.start()
        try:
            verify_evasion(cert, path, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20  # a 400k-point sampling grid took ~24.5 MB


class TestRandomSlowPath:
    def test_no_admissible_start_is_refused(self):
        # eps = 1.0 leaves no start clear of the scatterers within r_max
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="no admissible start for eps = 1.0"):
            random_slow_path(SCENE, eps=1.0, v=0.01, T=100.0, seed=0)
        assert time.monotonic() - t0 < 30.0


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
        # two sha256 digests.  The words, recorded with the array-based
        # realizer and whole-prefix block sizing, must not move a bit.  The
        # switch times and events were re-recorded when the certificate
        # became the orbit that block sizing accepts, window by window,
        # instead of a second relaxation of the whole word; no point moved
        # by more than 5.4e-15.  They must not move a bit either.
        words, events = hashlib.sha256(), hashlib.sha256()
        for seed, T in ((0, 200.0), (1, 400.0), (2, 700.0), (3, 200.0)):
            cert, _ = evasion_case(seed, T)
            words.update(cert.word.to_string().encode() + b"\n")
            events.update(" ".join(t.hex() for t in cert.realized_switches)
                          .encode() + b"\n")
            s = cert.geodesic.start
            events.update(" ".join(v.hex() for v in (s.pos.x, s.pos.y,
                                                     *s.dir.vec))
                          .encode() + b"\n")
            for e in cert.geodesic.events:
                events.update(" ".join(v.hex() for v in (
                    e.time, e.point.x, e.point.y, *e.in_dir.vec,
                    *e.out_dir.vec)).encode() + b"\n")
        assert words.hexdigest() == (
            "fe86d839dad857a8eb52451f8d2e814cbbc5450820c55c22f6e519bced86da1e")
        assert events.hexdigest() == (
            "70aea776ef3d3ca3ad46bca2459427c2dd744d90120938ff73e2330ed46c03f6")

    def test_certificate_horizon_covers_its_events(self):
        # the T = 150, seed 11 certificate bounces on past T; its geodesic
        # must answer at every event time
        cert, _ = evasion_case(11, 150.0)
        tr = cert.geodesic
        assert tr.events[-1].time > 150.0
        assert tr.horizon == tr.events[-1].time
        for e in tr.events:
            p = position_at(tr, e.time)
            assert math.hypot(p.x - e.point.x, p.y - e.point.y) < 1e-12

    def test_certificate_json(self):
        import json
        path = random_slow_path(SCENE, eps=0.05, v=0.01, T=150.0, seed=3)
        sched = plan_schedule(path, 150.0, SCENE)
        cert = realize_schedule(sched, SCENE)
        verify_evasion(cert, path, 150.0)
        d = json.loads(json.dumps(cert.to_dict()))
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
