"""Empirical recurrence and equidistribution diagnostics.

Occupancy times are exact: each straight piece of a trajectory contributes
the chord of its intersection with the ball (flow.contact against a parked
ball; on the torus, one chord per unfolded lattice copy, from the lattice
walk tgcc.lattice_intervals, which refuses a radius above half the side),
so no sampling error enters the reported fractions.  Both kernels are the
t-GCC check's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from .geometry import RECTANGLE, TORUS, Direction, Point2, Scene
from .flow import (OutOfRange, Trajectory, contact, knots, pieces,
                   position_at)
from .tgcc import lattice_intervals


@dataclass
class OccupancySeries:
    center: Point2
    radius: float
    horizons: List[float]
    fractions: List[float]

    def to_dict(self) -> dict:
        return {"center": [self.center.x, self.center.y],
                "radius": self.radius,
                "horizons": self.horizons,
                "fractions": self.fractions}

    def to_csv(self) -> str:
        def f(x):
            return format(x, ".17g")
        lines = ["T,fraction"]
        for h, fr in zip(self.horizons, self.fractions):
            lines.append(f"{f(h)},{f(fr)}")
        return "\n".join(lines) + "\n"


def _ball_intervals(tr: Trajectory, center: Point2, radius: float,
                    t_max: float):
    """Exact in-ball time intervals of the trajectory over [0, t_max]."""
    if tr.scene.kind == TORUS:
        L = tr.scene.side
        ux, uy = tr.start.dir.vec
        return sorted(lattice_intervals((tr.start.pos.x - center.x) / L,
                                        (tr.start.pos.y - center.y) / L,
                                        ux / L, uy / L, 0.0, t_max, radius / L))
    ball = [(0.0, center.x, center.y)]
    chords = (contact(*piece, radius)[1]
              for piece in pieces(knots(tr.start, tr.events, t_max), ball, 0.0, t_max))
    return [c for c in chords if c is not None]


def occupancy(tr: Trajectory, center: Point2, radius: float,
              horizons: Sequence[float]) -> OccupancySeries:
    """Exact time-in-ball fractions at the requested horizons."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    horizons = sorted(horizons)
    if not horizons or not all(h > 0 for h in horizons):
        raise ValueError(f"need at least one horizon, every one positive; "
                         f"got {horizons}")
    if horizons[-1] > tr.horizon + 1e-9:
        raise OutOfRange(f"horizon {horizons[-1]} beyond trajectory "
                         f"horizon {tr.horizon}")
    intervals = _ball_intervals(tr, center, radius, horizons[-1])
    fractions = []
    for h in horizons:
        tot = sum(min(b, h) - a for a, b in intervals if a < h)
        fractions.append(tot / h)
    return OccupancySeries(center=center, radius=radius,
                           horizons=list(horizons), fractions=fractions)


def _rational_slope(num: float, den: float, max_den: int = 100000,
                    tol: float = 1e-9):
    """(p, q) with num/den ~ p/q, or None when no small fraction fits."""
    if den == 0.0:
        return (1, 0)
    fr = Fraction(num / den).limit_denominator(max_den)
    if abs(num / den - float(fr)) < tol / max(1, fr.denominator) ** 2:
        return (fr.numerator, fr.denominator)
    return None


@dataclass
class DichotomyReport:
    periodic: bool
    period: Optional[float]
    fraction: Optional[float]
    expected_fraction: Optional[float]
    deviation: Optional[float]

    def to_dict(self) -> dict:
        return {"periodic": self.periodic, "period": self.period,
                "fraction": self.fraction,
                "expected_fraction": self.expected_fraction,
                "deviation": self.deviation}


def dichotomy_check(scene: Scene, direction: Direction, center: Point2,
                    radius: float, horizon: float) -> DichotomyReport:
    """Classify the direction as periodic (reporting the minimal period) or
    equidistributing (reporting the occupancy deviation from the area ratio)."""
    ux, uy = direction.vec
    if scene.kind == TORUS:
        L = scene.side
        pq = _rational_slope(uy, ux)
        if pq is not None:
            p, q = pq
            if q == 0:
                period = L / abs(uy)
            else:
                g = math.gcd(abs(p), abs(q)) or 1
                p, q = p // g, q // g
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
                g = math.gcd(abs(p), abs(q)) or 1
                p, q = p // g, q // g
                # closure on the unfolded (2w, 2h) torus
                period = math.hypot(2 * w * q, 2 * h * p) if p else 2 * w / abs(ux)
            return DichotomyReport(True, period, None, None, None)
        area_m = w * h
    else:
        raise ValueError("dichotomy check applies to torus and rectangle")

    from .flow import RayState, flow_torus, trace
    if scene.kind == TORUS:
        tr = flow_torus(scene.side, Point2(0.1, 0.2), direction, horizon)
    else:
        tr = trace(scene, RayState(Point2(scene.width / 2, scene.height / 2),
                                   direction), horizon)
    series = occupancy(tr, center, radius, [horizon])
    frac = series.fractions[-1]
    expected = math.pi * radius * radius / area_m
    return DichotomyReport(False, None, frac, expected, abs(frac - expected))


@dataclass
class DiskStructureReport:
    alpha: float
    theta0: float
    n: int
    angles: List[float]            # boundary trace angles theta_k
    inner_radius: float            # cos(alpha): the caustic radius
    chord_distance_max_err: float  # max | |chord dist| - cos(alpha) |
    star_discrepancy: float        # of (theta_k mod pi)/pi
    periodic: bool
    period_bounces: Optional[int]

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "theta0": self.theta0, "n": self.n,
                "inner_radius": self.inner_radius,
                "chord_distance_max_err": self.chord_distance_max_err,
                "star_discrepancy": self.star_discrepancy,
                "periodic": self.periodic,
                "period_bounces": self.period_bounces}


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
        dist = abs(ex * (-p0[1]) - ey * (-p0[0])) / norm if norm else 0.0
        max_err = max(max_err, abs(dist - inner))
    pq = _rational_slope(alpha, math.pi, max_den=1000000, tol=1e-9)
    periodic = pq is not None
    period = None
    if periodic:
        p, q = pq
        g = math.gcd(abs(p), abs(q)) or 1
        period = q // g
    xs = [(a % math.pi) / math.pi for a in angles]
    return DiskStructureReport(
        alpha=alpha, theta0=theta0, n=n, angles=angles, inner_radius=inner,
        chord_distance_max_err=max_err, star_discrepancy=star_discrepancy(xs),
        periodic=periodic, period_bounces=period)


@dataclass
class SubsequenceGrcReport:
    ball_center: Point2
    ball_radius: float
    candidate_mass: int
    n_points: int
    horizons: List[float]
    fractions: List[float]
    positive_on_subsequence: bool

    def to_dict(self) -> dict:
        return {"ball_center": [self.ball_center.x, self.ball_center.y],
                "ball_radius": self.ball_radius,
                "candidate_mass": self.candidate_mass,
                "n_points": self.n_points,
                "horizons": self.horizons,
                "fractions": self.fractions,
                "positive_on_subsequence": self.positive_on_subsequence}


def subsequence_grc(tr: Trajectory, eps: float,
                    horizons: Sequence[float]) -> SubsequenceGrcReport:
    """Empirical surrogate of the subsequence recurrence property: build the
    empirical measure of positions at integer times, find the (eps/4)-ball of
    maximal mass on an (eps/4)-grid, and report the exact occupancy of the
    concentric eps-ball along the horizons."""
    horizons = sorted(horizons)
    if not horizons:
        raise ValueError("need at least one horizon")
    if horizons[0] > tr.horizon + 1e-9 or horizons[-1] > tr.horizon + 1e-9:
        raise OutOfRange("requested horizon beyond the trajectory")
    n = int(min(tr.horizon, horizons[-1]))
    pts = [position_at(tr, float(i)) for i in range(1, n + 1)]
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
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        x0, y0 = min(xs), min(ys)
        nx = max(1, int((max(xs) - x0) / step) + 1)
        ny = max(1, int((max(ys) - y0) / step) + 1)
        step_x = step_y = step
        wrap = False
    counts = {}
    for p in pts:
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
