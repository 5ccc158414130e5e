"""Empirical recurrence and equidistribution diagnostics.

Occupancy times are exact: they are the t-GCC check's own in-ball chords
(tgcc.ball_chords) against a parked ball.  Each straight piece of a
trajectory contributes the chord of its intersection with the ball
(flow.contact; on the torus, one chord per unfolded lattice copy, from the
lattice walk tgcc.lattice_intervals, which refuses a radius above half the
side, with no column cap), so no sampling error enters the reported
fractions.  The chords come lazily, disjoint and in time order: occupancy
relies on that order to close every horizon in one pass, in
O(len(horizons)) memory.  subsequence_grc re-reads its integer-time
positions instead of keeping them, so its memory grows with the number of
grid cells, not with the horizon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence

from .geometry import RECTANGLE, TORUS, Point2, Scene
from .flow import (RayState, Trajectory, bounces, check_covers, knots,
                   position_at)
from .tgcc import ball_chords


class OccupancySeries(NamedTuple):
    center: Point2
    radius: float
    horizons: List[float]
    fractions: List[float]


def occupancy(tr: Trajectory, center: Point2, radius: float,
              horizons: Sequence[float]) -> OccupancySeries:
    """Exact time-in-ball fractions at the requested horizons.

    One pass over the in-ball intervals, which come in time order: done sums
    the whole chords seen so far, left to right, and a horizon h closes as
    done / h, or as (done + (h - a)) / h when h cuts the current chord
    (a, b).  O(intervals + horizons) time and O(len(horizons)) memory."""
    geodesic = tr.events.knots(tr.start, max(horizons, default=0.0))
    return _occupancy(tr.scene, tr.start, geodesic, tr.horizon, center,
                      radius, horizons)


def _occupancy(scene: Scene, s: RayState, geodesic, covered: float,
               center: Point2, radius: float,
               horizons: Sequence[float]) -> OccupancySeries:
    """occupancy of the geodesic from s, whose knot stream to the last
    horizon is `geodesic` and whose events cover [0, covered]."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    horizons = sorted(horizons)
    if not horizons or not all(h > 0 for h in horizons):
        raise ValueError(f"need at least one horizon, every one positive; "
                         f"got {horizons}")
    check_covers(covered, horizons[-1])
    fractions = []
    done = 0.0
    parked = [(0.0, center.x, center.y)]
    for a, b in ball_chords(scene, s, geodesic, parked, radius, horizons[-1]):
        while len(fractions) < len(horizons) and horizons[len(fractions)] < b:
            h = horizons[len(fractions)]
            fractions.append((done + (h - a)) / h if a < h else done / h)
        done += b - a
    fractions += [done / h for h in horizons[len(fractions):]]
    return OccupancySeries(center=center, radius=radius,
                           horizons=horizons, fractions=fractions)


def _rational_slope(num: float, den: float, max_den: int = 100000,
                    tol: float = 1e-9):
    """(p, q) in lowest terms, q > 0, with num/den ~ p/q, (1, 0) when den is
    0, or None when no small fraction fits."""
    if den == 0.0:
        return (1, 0)
    fr = Fraction(num / den).limit_denominator(max_den)
    if abs(num / den - float(fr)) < tol / max(1, fr.denominator) ** 2:
        return (fr.numerator, fr.denominator)
    return None


class DichotomyReport(NamedTuple):
    periodic: bool
    period: Optional[float]
    fraction: Optional[float]
    expected_fraction: Optional[float]
    deviation: Optional[float]


def dichotomy_check(scene: Scene, s: RayState, center: Point2,
                    radius: float, horizon: float) -> DichotomyReport:
    """Classify the direction of s as periodic (reporting the minimal period)
    or equidistributing (reporting the occupancy deviation from the area
    ratio of the ball about center, along the geodesic from s)."""
    ux, uy = s.vec
    if scene.kind == TORUS:
        L = scene.side
        pq = _rational_slope(uy, ux)
        if pq is not None:
            p, q = pq
            if q == 0:
                period = L / abs(uy)
            else:
                period = L * math.hypot(p, q)
            return DichotomyReport(True, period, None, None, None)
        area_m = L * L
    elif scene.kind == RECTANGLE:
        w, h = scene.width, scene.height
        pq = _rational_slope(uy * w, ux * h)
        if pq is not None:
            p, q = pq
            if q == 0:
                period = 2 * h / abs(uy)
            else:
                # closure on the unfolded (2w, 2h) torus
                period = math.hypot(2 * w * q, 2 * h * p) if p else 2 * w / abs(ux)
            return DichotomyReport(True, period, None, None, None)
        area_m = w * h
    else:
        raise ValueError("dichotomy check applies to torus and rectangle")

    # the bounce stream cut at the horizon, read lazily: constant memory and
    # no bounce cap, at any horizon
    frac = _occupancy(scene, s, knots(s, bounces(scene, s), horizon), horizon,
                      center, radius, [horizon]).fractions[-1]
    expected = math.pi * radius * radius / area_m
    return DichotomyReport(False, None, frac, expected, abs(frac - expected))


class DiskStructureReport(NamedTuple):
    alpha: float
    theta0: float
    n: int
    angles: List[float]            # boundary trace angles theta_k
    inner_radius: float            # cos(alpha): the caustic radius
    chord_distance_max_err: float  # max | |chord to 0| - cos(alpha) |
    star_discrepancy: float        # of (theta_k mod pi)/pi
    periodic: bool
    period_bounces: Optional[int]


def star_discrepancy(xs: Sequence[float]) -> float:
    """Star discrepancy of points in [0, 1)."""
    n = len(xs)
    if n == 0:
        return 1.0
    s = sorted(xs)
    d = 0.0
    for i, x in enumerate(s, start=1):
        d = max(d, abs(x - (i - 1) / n), abs(i / n - x))
    return d


def disk_structure(alpha: float, theta0: float, n: int) -> DiskStructureReport:
    """Boundary-trace structure of the unit-disk orbit with chord angle alpha
    to the tangent: angles advance by 2*alpha per bounce, every chord is
    tangent to the circle of radius cos(alpha)."""
    if not (0 < alpha < math.pi / 2 + 1e-15):
        raise ValueError("alpha must lie in (0, pi/2]")
    if n < 1:
        raise ValueError("n must be >= 1")
    angles = [(theta0 + 2.0 * alpha * k) % (2 * math.pi) for k in range(n)]
    inner = math.cos(alpha)
    max_err = 0.0
    for k in range(n - 1):
        a0, a1 = angles[k], angles[k + 1]
        p0 = (math.cos(a0), math.sin(a0))
        p1 = (math.cos(a1), math.sin(a1))
        ex, ey = p1[0] - p0[0], p1[1] - p0[1]
        norm = math.hypot(ex, ey)
        d = abs(ex * (-p0[1]) - ey * (-p0[0])) / norm if norm else 0.0
        max_err = max(max_err, abs(d - inner))
    pq = _rational_slope(alpha, math.pi, max_den=1000000, tol=1e-9)
    periodic = pq is not None
    period = pq[1] if periodic else None
    xs = [(a % math.pi) / math.pi for a in angles]
    return DiskStructureReport(
        alpha=alpha, theta0=theta0, n=n, angles=angles, inner_radius=inner,
        chord_distance_max_err=max_err, star_discrepancy=star_discrepancy(xs),
        periodic=periodic, period_bounces=period)


class SubsequenceGrcReport(NamedTuple):
    ball_center: Point2
    ball_radius: float
    candidate_mass: int
    n_points: int
    horizons: List[float]
    fractions: List[float]
    positive_on_subsequence: bool


def subsequence_grc(tr: Trajectory, eps: float,
                    horizons: Sequence[float]) -> SubsequenceGrcReport:
    """Empirical surrogate of the subsequence recurrence property: build the
    empirical measure of positions at integer times, find the (eps/4)-ball of
    maximal mass on an (eps/4)-grid, and report the exact occupancy of the
    concentric eps-ball along the horizons."""
    horizons = sorted(horizons)
    if not horizons:
        raise ValueError("need at least one horizon")
    check_covers(tr.horizon, horizons[-1])
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = int(min(tr.horizon, horizons[-1]))
    if n < 1:
        raise ValueError("need a horizon of at least 1: positions are "
                         "sampled at integer times")

    def positions():
        return (position_at(tr, float(i)) for i in range(1, n + 1))

    scene = tr.scene
    step = eps / 4.0
    if scene.kind == TORUS:
        L = scene.side
        cells = max(1, int(round(L / step)))
        step_x = step_y = L / cells
        nx = ny = cells
        x0 = y0 = 0.0
        wrap = True
    else:
        x0 = y0 = math.inf
        x1 = y1 = -math.inf
        for p in positions():
            x0, x1 = min(x0, p.x), max(x1, p.x)
            y0, y1 = min(y0, p.y), max(y1, p.y)
        nx = max(1, int((x1 - x0) / step) + 1)
        ny = max(1, int((y1 - y0) / step) + 1)
        step_x = step_y = step
        wrap = False
    counts = {}
    for p in positions():
        if wrap:
            i = int((p.x % L) / step_x) % nx
            j = int((p.y % L) / step_y) % ny
        else:
            i = int((p.x - x0) / step_x)
            j = int((p.y - y0) / step_y)
        counts[(i, j)] = counts.get((i, j), 0) + 1
    (bi, bj), mass = max(counts.items(), key=lambda kv: (kv[1], (-kv[0][0], -kv[0][1])))
    center = Point2(x0 + (bi + 0.5) * step_x, y0 + (bj + 0.5) * step_y)
    series = occupancy(tr, center, eps, horizons)
    positive = all(f > 0 for f in series.fractions)
    return SubsequenceGrcReport(
        ball_center=center, ball_radius=eps, candidate_mass=mass,
        n_points=n, horizons=list(horizons), fractions=series.fractions,
        positive_on_subsequence=positive)
