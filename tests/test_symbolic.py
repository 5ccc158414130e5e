import functools
import hashlib
import json
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geocatch.geometry import Direction, Point2, build_obstacle_scene, strict_interior
from geocatch import hpmath
from geocatch.flow import RayState, position_at, reflect, trace
from geocatch.symbolic import (
    AngleInterval,
    EmptyInterval,
    InadmissibleWord,
    Itinerary,
    NumericFailure,
    RealizationFailure,
    StabilityViolation,
    TouchesOuterWall,
    _hp_trace,
    itinerary_of,
    realize,
    rho_for,
    shadow_orbit,
    solve_itinerary,
    stability_report,
)

SCENE = build_obstacle_scene(0.05, 2.0)
CENTROID = Point2(0.0, 0.0)


def rand_word(n, rng):
    w = [rng.choice((1, 2, 3))]
    while len(w) < n:
        w.append(rng.choice([s for s in (1, 2, 3) if s != w[-1]]))
    return Itinerary(tuple(w))


def assert_oracle(A, w, iv):
    """Angles at 10%, 50% and 90% of the interval's width realize w under
    the extended-precision tracer; angles 1% of the width outside do not."""
    for f in (0.1, 0.5, 0.9, -0.01, 1.01):
        with hpmath.precision(iv.bits):
            eta = iv.lo + iv.width * Decimal(f)
        realized = _hp_trace(SCENE, A, eta, len(w), iv.bits)[0] == list(w.word)
        assert realized == (0 < f < 1), (A, w.to_string(), f)


@functools.lru_cache(maxsize=None)
def seeded_solves():
    """(word, interval) of solve_itinerary from the origin on seeded words of
    lengths 1-12 and 30."""
    rng = random.Random(2024)
    words = [rand_word(n, rng) for n in list(range(1, 13)) + [30]]
    return [(w, solve_itinerary(SCENE, CENTROID, w)) for w in words]


class TestItinerary:
    def test_rejects_immediate_repetition(self):
        with pytest.raises(InadmissibleWord):
            Itinerary((1, 1))
        with pytest.raises(InadmissibleWord):
            Itinerary.from_string("12332")

    def test_rejects_bad_symbols(self):
        with pytest.raises(InadmissibleWord):
            Itinerary((1, 4))

    def test_string_round_trip(self):
        w = Itinerary.from_string("121312")
        assert w.to_string() == "121312"
        assert w.word == (1, 2, 1, 3, 1, 2)

    def test_value(self):
        w = Itinerary([1, 2, 3])
        assert w.word == (1, 2, 3)
        assert repr(w) == "Itinerary(word=(1, 2, 3))"
        assert w == Itinerary.from_string("123")
        assert hash(w) == hash(Itinerary((1, 2, 3)))
        assert w != (1, 2, 3) and w != Itinerary((1, 2))
        assert len(w) == 3 and w[-1] == 3


def test_angle_interval_value():
    iv = AngleInterval(Decimal("0.1"), Decimal("0.2"))
    assert repr(iv) == "AngleInterval(lo=Decimal('0.1'), hi=Decimal('0.2'), bits=53)"
    assert iv == AngleInterval(lo=Decimal("0.1"), hi=Decimal("0.2"), bits=53)
    assert iv != AngleInterval(Decimal("0.1"), Decimal("0.2"), 64)
    with pytest.raises(TypeError):
        hash(iv)
    for lo, hi in ((0.2, 0.1), (0.1, 0.1), (math.nan, 0.1)):
        with pytest.raises(EmptyInterval):
            AngleInterval(lo, hi)


class TestDRho:
    def test_rho_for_default_radius(self):
        rho = rho_for(0.05)
        assert rho == pytest.approx(1.0 / 21.0, abs=1e-15)


class TestItineraryOf:
    def test_period_two_orbit_word(self):
        c2, c3 = SCENE.centers[1], SCENE.centers[2]
        mid = Point2((c2.x + c3.x) / 2, (c2.y + c3.y) / 2)
        from geocatch.geometry import Direction
        tr = trace(SCENE, RayState(mid, Direction.from_vec(1.0, 0.0)), horizon=10.0)
        assert itinerary_of(tr, 8).word == (3, 2, 3, 2, 3, 2, 3, 2)

    def test_aimed_ray_first_symbol(self):
        from geocatch.geometry import Direction
        c3 = SCENE.centers[2]
        tr = trace(SCENE, RayState(CENTROID, Direction.from_vec(c3.x, c3.y)),
                   horizon=3.0)
        assert itinerary_of(tr, 1).word == (3,)

    def test_outer_wall_raises(self):
        from geocatch.geometry import Direction
        # aim through the gap between C1 and C3: escapes to the outer wall
        tr = trace(SCENE, RayState(CENTROID, Direction(math.pi / 12)), horizon=6.0)
        if any(e.wall == "outer" for e in tr.events[:1]):
            with pytest.raises(TouchesOuterWall):
                itinerary_of(tr, 1)


class TestSolveItinerary:
    def test_depth_one_matches_tangent_cone_width(self):
        iv = solve_itinerary(SCENE, CENTROID, Itinerary((1,)))
        c1 = SCENE.centers[0]
        d = math.hypot(c1.x, c1.y)
        want = 2.0 * math.asin(SCENE.r0 / d)
        assert float(iv.width) == pytest.approx(want, rel=1e-9)

    def test_depth_one_endpoints_behave_like_tangencies(self):
        # oracle: angles just inside hit C1 first; just outside do not
        from geocatch.geometry import Direction
        iv = solve_itinerary(SCENE, CENTROID, Itinerary((1,)))
        w = float(iv.width)
        for ang, inside in [(float(iv.lo) + 1e-6 * w, True),
                            (float(iv.hi) - 1e-6 * w, True),
                            (float(iv.lo) - 1e-4 * w, False),
                            (float(iv.hi) + 1e-4 * w, False)]:
            tr = trace(SCENE, RayState(CENTROID, Direction(ang)), horizon=3.0)
            hit_first = tr.events and tr.events[0].wall == "obstacle1"
            assert bool(hit_first) == inside

    def test_nested_under_extension(self):
        rng = random.Random(5)
        w = rand_word(10, rng)
        prev = None
        for k in range(1, 11):
            iv = solve_itinerary(SCENE, CENTROID, Itinerary(w.word[:k]))
            if prev is not None:
                assert prev.lo <= iv.lo and iv.hi <= prev.hi
            prev = iv

    def test_widths_decay_geometrically(self):
        rng = random.Random(9)
        w = rand_word(12, rng)
        widths = [float(solve_itinerary(SCENE, CENTROID,
                                        Itinerary(w.word[:k])).width)
                  for k in range(1, 13)]
        ratios = [b / a for a, b in zip(widths, widths[1:])]
        assert all(r < 0.2 for r in ratios)
        # fitted contraction rate is bounded away from 1
        slope = (math.log(widths[-1]) - math.log(widths[0])) / (len(widths) - 1)
        assert slope < math.log(0.2)

    def test_contains_direction(self):
        iv = solve_itinerary(SCENE, CENTROID, Itinerary((1,)))
        from geocatch.geometry import Direction
        assert iv.contains_direction(Direction(float(iv.mid)))
        assert iv.contains_direction(Direction(float(iv.lo) + 2 * math.pi))
        assert not iv.contains_direction(Direction(float(iv.hi) + 1e-9))
        assert not iv.contains_direction(Direction(float(iv.mid) + math.pi))

    def test_mid_and_width_at_working_precision(self):
        # width ~1e-19 at an angle near 1.6: at 53 bits the midpoint would
        # round outside [lo, hi]
        iv = solve_itinerary(SCENE, CENTROID, Itinerary.from_string("123" * 4))
        assert iv.lo < iv.mid < iv.hi
        assert 0 < iv.width < 1e-15
        with hpmath.precision(iv.bits):
            assert iv.lo + iv.width == iv.hi

    def test_golden_endpoint_strings(self):
        # sha256 re-recorded when extended precision moved from mpmath to
        # decimal: every endpoint stayed within 1.5e-29 of its width of the
        # mpmath value, and all 28 strings moved, as they now carry
        # int(bits * log10(2)) + 2 digits (27 of 28 read the same rounded to
        # mpmath's digit count, one differs in its last digit).  The
        # full-precision endpoints must not move by one digit
        w = Itinerary.from_string("1213")
        cases = seeded_solves() + [(w, solve_itinerary(SCENE, Point2(1.99, 0.0), w))]
        h = hashlib.sha256()
        for w, iv in cases:
            lo, hi = iv.as_strings()
            h.update(f"{w.to_string()} {lo} {hi}\n".encode())
        assert h.hexdigest() == (
            "c278f129a8b628291ad94e16dfe64b43bd389447627c8a44a49dcd3db8778072")

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
           .map(lambda xy: Point2(*xy))
           .filter(lambda A: strict_interior(SCENE, A)),
           st.sampled_from((1, 2, 3)), st.lists(st.booleans(), max_size=9))
    def test_intervals_pass_the_oracle_from_random_starts(self, A, first, turns):
        w = [first]
        for turn in turns:
            w.append([s for s in (1, 2, 3) if s != w[-1]][turn])
        w = Itinerary(tuple(w))
        try:
            iv = solve_itinerary(SCENE, A, w)
        except (EmptyInterval, NumericFailure):
            return
        assert_oracle(A, w, iv)
        # the realizer either refuses the word (its last leg is head-on, and
        # such an orbit need not exist) or launches inside the interval
        try:
            tr = realize(SCENE, A, w)
        except (EmptyInterval, RealizationFailure):
            return
        assert iv.contains_direction(tr.start.dir), (A, w.to_string())

    @pytest.mark.parametrize("x, y, word", [
        # bands at depth 1 narrower than a step of a seed scan
        (0.733, 1.619, "123"),
        (0.13732017530497043, 1.0718047316523855, "121212123"),
        (0.9051676371110973, -1.1971791824999274, "312"),
        # the first circle's cone is partly shadowed by a nearer scatterer
        (-1.4669868339523173, -0.23110262113418845, "312321"),
        (1.4678858723740862, -0.20086371969812555, "2"),
        # C1 hides part of C2: one end of 12's interval is C1's cone edge,
        # whose ray grazes C1 and goes straight on to C2
        (0.733, 1.619, "12"),
        (0.6225429819637869, 1.4376702174166884, "12"),
        # the cone of C3 straddles the branch cut of atan2 at -pi, and the
        # interval of 31 lies beyond it
        (1.4029822211005913, -0.29802861554002225, "3"),
        (1.4029822211005913, -0.29802861554002225, "31"),
    ])
    def test_guard_starts_pass_the_oracle(self, x, y, word):
        A, w = Point2(x, y), Itinerary.from_string(word)
        assert_oracle(A, w, solve_itinerary(SCENE, A, w))

    def test_bad_first_symbol_from_inside_circle_region(self):
        # a start point wedged next to C1 can still see all circles, so use
        # an inadmissible-word error instead: length-0 is rejected upfront
        with pytest.raises(ValueError):
            solve_itinerary(SCENE, CENTROID, Itinerary(()))


class TestRealize:
    def test_alternating_word_round_trip(self):
        w = Itinerary.from_string("12" * 10)
        tr = realize(SCENE, CENTROID, w)
        assert itinerary_of(tr, 20).word == w.word
        assert len(tr.events) == 20

    @pytest.mark.parametrize("word", ["1", "2", "3"])
    def test_one_bounce_leaves_by_reflection(self, word):
        # the bounce's incoming leg is the one from A
        tr = realize(SCENE, CENTROID, Itinerary.from_string(word))
        (e,) = tr.events
        c = SCENE.centers[int(word) - 1]
        assert e.wall == f"obstacle{word}"
        assert math.hypot(e.point.x - c.x, e.point.y - c.y) == pytest.approx(
            SCENE.r0, abs=1e-15)
        assert e.out_dir == reflect(SCENE, e.point, e.wall, tr.start.dir)
        assert tr.horizon == e.time

    def test_one_two_three(self):
        tr = realize(SCENE, CENTROID, Itinerary((1, 2, 3)))
        assert tr.events[2].wall == "obstacle3"

    def test_round_trip_random_words(self):
        rng = random.Random(77)
        for _ in range(5):
            w = rand_word(30, rng)
            tr = realize(SCENE, CENTROID, w)
            assert itinerary_of(tr, 30).word == w.word

    def test_realized_trajectory_satisfies_flow_invariants(self):
        rng = random.Random(13)
        w = rand_word(25, rng)
        tr = realize(SCENE, CENTROID, w)
        prev_t, prev_p, incoming = 0.0, tr.start.pos, tr.start.dir
        for e in tr.events:
            j = e.obstacle_index
            c = SCENE.centers[j - 1]
            assert math.hypot(e.point.x - c.x, e.point.y - c.y) == pytest.approx(
                SCENE.r0, abs=1e-9)
            seg = math.hypot(e.point.x - prev_p.x, e.point.y - prev_p.y)
            assert seg == pytest.approx(e.time - prev_t, abs=1e-9)
            # reflection law: incoming (the previous event's outgoing) and
            # outgoing mirror across the tangent
            nx, ny = (e.point.x - c.x) / SCENE.r0, (e.point.y - c.y) / SCENE.r0
            ix, iy = incoming.vec
            ox, oy = e.out_dir.vec
            assert ox == pytest.approx(ix - 2 * (ix * nx + iy * ny) * nx, abs=1e-9)
            assert oy == pytest.approx(iy - 2 * (ix * nx + iy * ny) * ny, abs=1e-9)
            prev_t, prev_p, incoming = e.time, e.point, e.out_dir

    def test_position_at_works_on_realized_trajectory(self):
        w = Itinerary.from_string("1213")
        tr = realize(SCENE, CENTROID, w)
        p = position_at(tr, tr.events[0].time)
        assert p.x == pytest.approx(tr.events[0].point.x, abs=1e-12)

    def test_inadmissible_rejected_before_solving(self):
        with pytest.raises(InadmissibleWord):
            realize(SCENE, CENTROID, Itinerary((1, 1)))

    def test_eclipsed_start_raises_empty_interval(self):
        # just behind C2 as seen from C1: every ray toward C1 crosses C2
        c1, c2 = SCENE.centers[0], SCENE.centers[1]
        d = math.hypot(c2.x - c1.x, c2.y - c1.y)
        behind = Point2(c2.x + 0.06 * (c2.x - c1.x) / d,
                        c2.y + 0.06 * (c2.y - c1.y) / d)
        # C1 hides all of C3 but a sliver beyond its cone's lower edge; the
        # relaxation flips its last node between two faces of C3 and never
        # converges: no orbit meets C3 head-on
        flipping = Point2(-0.396, 1.189)
        with pytest.raises(EmptyInterval):
            solve_itinerary(SCENE, behind, Itinerary((1, 3)))
        for A in (behind, flipping):
            with pytest.raises(EmptyInterval):
                realize(SCENE, A, Itinerary((1, 3)))

        def cone(A, j):
            """(lo, hi): the tangent angles of circle j seen from A"""
            c = SCENE.centers[j - 1]
            d = math.hypot(c.x - A.x, c.y - A.y)
            theta, half = math.atan2(c.y - A.y, c.x - A.x), math.asin(SCENE.r0 / d)
            return theta - half, theta + half

        # yet rays just inside that edge bounce off C1 with a slight
        # deflection and go on to C3: 13 is realized between C1's edge and
        # the orbit grazing C3
        iv = solve_itinerary(SCENE, flipping, Itinerary((1, 3)))
        assert float(iv.lo) == pytest.approx(cone(flipping, 1)[0], abs=1e-14)
        assert 0 < float(iv.width) < 1e-5
        assert_oracle(flipping, Itinerary((1, 3)), iv)
        # C1 is nearer and hides the upper part of C2's cone: the interval
        # of 2 runs from C2's lower tangent to C1's, not over C2's whole cone
        A = Point2(0.18948579192538872, 1.1424424685799983)
        iv = solve_itinerary(SCENE, A, Itinerary((2,)))
        (lo1, _), (lo2, hi2) = cone(A, 1), cone(A, 2)
        assert float(iv.lo) == pytest.approx(lo2, abs=1e-14)
        assert float(iv.hi) == pytest.approx(lo1, abs=1e-14)
        assert hi2 - lo1 > 0.01
        assert_oracle(A, Itinerary((2,)), iv)

    def test_golden_points(self):
        # sha256 recorded with the array-based realizer: the pure-float one
        # must give the same points, times and directions bit for bit.  Each
        # event's incoming direction is the previous event's out_dir (the
        # start's dir for the first); it equals the incoming direction that
        # events used to carry bit for bit, so the digest did not move
        rng = random.Random(11)
        cases = [(A, rand_word(n, rng)) for n in (1, 2, 7, 30, 300)
                 for A in (CENTROID, Point2(0.3, -0.2), Point2(-1.1, 0.7))]
        # its last bounce moves by 2 ulps unless the final node's norm is
        # fused as numpy's was
        cases.append((Point2(0.3, -0.2), Itinerary.from_string("321321231321")))
        h = hashlib.sha256()
        for A, w in cases:
            tr = realize(SCENE, A, w)
            s = tr.start
            h.update(" ".join(v.hex() for v in (s.pos.x, s.pos.y, *s.dir.vec))
                     .encode() + b"\n")
            incoming = s.dir
            for e in tr.events:
                h.update(" ".join(v.hex() for v in (
                    e.time, e.point.x, e.point.y, *incoming.vec,
                    *e.out_dir.vec)).encode() + b"\n")
                incoming = e.out_dir
        assert h.hexdigest() == (
            "6c93ef9d5888115231b50cdac83ab3dd393c18bb21b67e21e0cbc684b3be7fb4")

    def test_launch_angle_inside_extended_precision_interval(self):
        # oracle: the float64 shadowed launch direction against the
        # nested-interval solver, widened by 4 * 2**-52 rad on each side;
        # the angle is taken in mpmath, independently of the solver's
        # elementary functions
        import mpmath as mp
        for w, iv in seeded_solves():
            vx, vy = realize(SCENE, CENTROID, w).start.dir.vec
            with mp.workprec(iv.bits):
                lo, hi, mid = (mp.mpf(str(v)) for v in (iv.lo, iv.hi, iv.mid))
                theta = mp.atan2(vy, vx)
                theta += 2 * mp.pi * round(float((mid - theta) / (2 * mp.pi)))
                slack = 4 * mp.mpf(2) ** -52
                assert lo - slack <= theta <= hi + slack, w.to_string()


@pytest.mark.parametrize("A", [Point2(0.01, 0.635),  # inside scatterer 1
                               Point2(3.0, 0.0)])   # beyond the outer wall
@pytest.mark.parametrize("construct", [solve_itinerary, realize])
def test_start_outside_the_domain_is_refused(A, construct):
    with pytest.raises(EmptyInterval,
                       match=rf"start \({A.x}, {A.y}\) is not inside"):
        construct(SCENE, A, Itinerary.from_string("1213"))


@pytest.mark.xfail(strict=True, raises=EmptyInterval, reason=(
    "ROADMAP item 12: realize looks only for an orbit whose last leg meets "
    "its circle head-on; it should realize from an angle inside the solved "
    "interval instead"))
def test_realize_word_with_no_head_on_orbit(tmp_path):
    # from here C1 hides all of C3 but a sliver beyond its cone's edge: 13
    # solves to an interval about 5e-6 rad wide whose midpoint flow.trace
    # confirms, yet no orbit meets C3 head-on, and geocatch itinerary exits 4
    from geocatch.cli import main
    from geocatch.geometry import Direction
    A, w = Point2(-0.396, 1.189), Itinerary((1, 3))
    iv = solve_itinerary(SCENE, A, w)
    tr = trace(SCENE, RayState(A, Direction(float(iv.mid))), horizon=5.0)
    assert itinerary_of(tr, 2) == w
    tr = realize(SCENE, A, w)
    assert itinerary_of(tr, 2) == w
    assert iv.contains_direction(tr.start.dir)
    assert main(["itinerary", "--scene", json.dumps(SCENE.to_dict()),
                 "--word", "13", "--x=-0.396", "--y=1.189",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("bits", [53, 200])
def test_extended_precision_tracer_agrees_with_the_float_flow(bits):
    # the same ray step, on Decimals and on floats: seeded rays from inside
    # the domain, each aimed into a random scatterer's cone, bounce on the
    # same walls (0 for the outer wall, where the extended-precision tracer
    # stops) at the same times
    rng = random.Random(7)
    rays = 0
    while rays < 150:
        r, a = 2.0 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
        A = Point2(r * math.cos(a), r * math.sin(a))
        if not strict_interior(SCENE, A):
            continue
        rays += 1
        c = rng.choice(SCENE.centers)
        d = math.hypot(c.x - A.x, c.y - A.y)
        eta = (math.atan2(c.y - A.y, c.x - A.x)
               + rng.uniform(-1.0, 1.0) * math.asin(SCENE.r0 / d))
        events = trace(SCENE, RayState(A, Direction(eta)), horizon=50.0).events
        symbols, times = _hp_trace(SCENE, A, Decimal(eta), 4, bits)
        expected = [e.obstacle_index or 0 for e in events[:len(symbols)]]
        assert symbols == expected, (A, eta)
        assert len(symbols) == 4 or symbols[-1] == 0
        for e, t in zip(events, times):
            assert abs(e.time - float(t)) < 1e-9, (A, eta)


class TestShadowOrbit:
    def test_unconverged_relaxation_raises_with_move_and_sweeps(self):
        w = rand_word(30, random.Random(3))
        with pytest.raises(RealizationFailure) as info:
            shadow_orbit(SCENE, (0.0, 0.0), w.word, max_sweeps=2)
        assert info.value.sweeps == 2
        assert info.value.move >= 1e-13


class TestStability:
    def test_alternating_word_spread_within_stability_bound(self):
        w = Itinerary.from_string("12" * 6)  # 12 symbols
        rep = stability_report(SCENE, w, trials=12, seed=3)
        assert rep.spread_final <= rep.bound
        assert rep.bound == pytest.approx(0.15, abs=1e-12)

    def test_golden_report(self):
        # sha256 recorded with the grazing-orbit solver, whose endpoints
        # moved the samples: spread_final by 1.2e-11, fit_slope by 6.3e-10;
        # hashed over the fields in order, the word as its string
        rep = stability_report(SCENE, Itinerary.from_string("12" * 6),
                               trials=12, seed=3)
        s = json.dumps(dict(rep._asdict(), word=rep.word.to_string()))
        assert hashlib.sha256(s.encode()).hexdigest() == (
            "0c3b0c266057daa9a20a571cb937e4e337fc06995c5aa12d85bc6fceb850b9a8")

    def test_short_word_trivially_bounded(self):
        rep = stability_report(SCENE, Itinerary((1, 2)), trials=6, seed=1)
        assert rep.spread_final <= rep.bound

    def test_per_depth_spread_decays(self):
        w = Itinerary.from_string("121312131213")
        rep = stability_report(SCENE, w, trials=10, seed=5)
        spreads = rep.per_depth_spread
        # spreads shrink moving away from the disagreement index
        assert spreads[0] < spreads[-1]
        assert rep.fit_slope < 0
