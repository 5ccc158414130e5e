"""Moving-ball catcher synthesis on recurrence-friendly scenes.

The ball visits a dense site sequence in blocks 1,2; 1..4; 1..8; ... and the
dwell at the j-th step equals (arrival time) * 2^j, so the fraction of time
spent parked tends to one and every site eventually hosts arbitrarily long
parks late in any horizon window.  Transits run at speed exactly v along
straight legs (shortest modular legs on the torus, ties broken toward
positive coordinates).

One walk of the visiting order builds the step schedule and the center's
unwrapped waypoints together; where the horizon cuts a transit, the path
ends at the point that transit reaches at the horizon.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import List, Optional, Tuple

from .geometry import (
    OBSTACLE,
    TORUS,
    Point2,
    Scene,
    scene_box,
    strict_interior,
    torus_delta,
)

T_INIT = 1.0  # initial parking at site 1 before the dwell rule engages


class CatcherError(ValueError):
    pass


class HorizonTooShort(CatcherError):
    pass


@dataclass(frozen=True)
class Step:
    site_index: int       # 1-based index into the dense site list
    arrival_time: float
    departure_time: float


@dataclass
class StepSchedule:
    steps: List[Step]
    sites: List[Point2]
    horizon: float

    def b_window(self, site_index: int, K: float, T: float) -> Optional[Tuple[float, float]]:
        """A parked window [T', T''] at the site with T' > T and
        (T'' - T')/T'' > K, if one exists within the schedule."""
        for s in self.steps:
            if s.site_index != site_index or s.arrival_time <= T:
                continue
            if (s.departure_time - s.arrival_time) / s.departure_time > K:
                return (s.arrival_time, s.departure_time)
        return None


@dataclass
class CatcherPath:
    """Piecewise-linear center path with ball radius eps and speed bound v.

    Waypoint coordinates are unwrapped plane coordinates even on the torus
    (interpolation must follow the shortest modular leg, not the long way
    around); reduce modulo the side when comparing with scene points.
    """
    waypoints: List[Tuple[float, Point2]]
    eps: float
    v: float
    scene: Scene

    @property
    def end_time(self) -> float:
        return self.waypoints[-1][0]

    def center(self, t: float) -> Point2:
        """Unwrapped center position at time t (clamped to the path's span)."""
        wp = self.waypoints
        if t <= wp[0][0]:
            return wp[0][1]
        if t >= wp[-1][0]:
            return wp[-1][1]
        # the leg whose end is the first waypoint after t
        k = bisect_right(wp, t, key=itemgetter(0))
        t0, p0 = wp[k - 1]
        t1, p1 = wp[k]
        lam = (t - t0) / (t1 - t0)
        return Point2(p0.x + lam * (p1.x - p0.x), p0.y + lam * (p1.y - p0.y))

    def knots(self, t: float = -math.inf):
        """The waypoints as knots (t, x, y) of the center's polyline, from
        the last one at or before t (or the first) on."""
        k = max(bisect_right(self.waypoints, t, key=itemgetter(0)) - 1, 0)
        return ((s, p.x, p.y) for s, p in islice(self.waypoints, k, None))


def ball_contains(path: CatcherPath, t: float, p: Point2, scene: Scene) -> bool:
    """Is p inside the open ball at time t?  (Torus: modular metric.)"""
    if t < 0 or t > path.end_time:
        from .flow import OutOfRange
        raise OutOfRange(f"t={t} outside [0, {path.end_time}]")
    c = path.center(t)
    if scene.kind == TORUS:
        L = scene.side
        d = math.hypot(torus_delta(p.x - c.x, L), torus_delta(p.y - c.y, L))
    else:
        d = math.hypot(p.x - c.x, p.y - c.y)
    return d < path.eps


def dense_sites(scene: Scene, count: int) -> List[Point2]:
    """Deterministic dense enumeration: dyadic grid refinement, coarse levels
    first, row-major within a level, restricted to the domain interior."""
    if count < 1:
        raise ValueError("count must be >= 1")
    x0, y0, x1, y1 = scene_box(scene)
    wrap = scene.kind == TORUS
    out: List[Point2] = []
    level = 0
    while len(out) < count:
        m = 1 << level
        top = m if wrap else m + 1
        for i in range(top):
            for j in range(top):
                if level > 0 and i % 2 == 0 and j % 2 == 0:
                    continue  # appeared at a coarser level
                p = Point2(x0 + (x1 - x0) * i / m, y0 + (y1 - y0) * j / m)
                if not wrap and not strict_interior(scene, p):
                    continue
                out.append(p)
                if len(out) == count:
                    return out
        level += 1
        if level > 24:
            raise CatcherError("site enumeration failed to fill the domain")
    return out


def _site_order(n_sites: int):
    """1,2, 1..4, 1..8, ... capped at n_sites, forever."""
    block = 2
    while True:
        for i in range(1, min(block, n_sites) + 1):
            yield i
        block *= 2


def _leg(scene: Scene, a: Point2, b: Point2) -> Tuple[float, float]:
    """Displacement of the transit leg a -> b (shortest modular leg on the
    torus, ties broken toward the positive direction)."""
    dx, dy = b.x - a.x, b.y - a.y
    if scene.kind == TORUS:
        L = scene.side
        dx = torus_delta(dx, L)
        dy = torus_delta(dy, L)
        if dx == -L / 2:
            dx = L / 2
        if dy == -L / 2:
            dy = L / 2
    return dx, dy


def _walk(sites: int, v: float, scene: Scene, horizon: float):
    """Visiting order with transit legs at speed v and the doubling dwell rule,
    truncated at the horizon: the StepSchedule and the unwrapped waypoints
    that realize it, where a transit the horizon cuts ends at the horizon."""
    if v <= 0:
        raise CatcherError("speed bound must be positive")
    if horizon <= 0:
        raise CatcherError("horizon must be positive")
    pts = dense_sites(scene, sites)
    steps: List[Step] = []
    t = T_INIT  # step 1 arrives after the initial parking
    cur = pts[0]  # unwrapped coordinates accumulate the modular legs
    wps: List[Tuple[float, Point2]] = [(0.0, cur)]
    for j, site in enumerate(_site_order(sites), start=1):
        if j > 1:
            dx, dy = _leg(scene, pts[steps[-1].site_index - 1], pts[site - 1])
            dist = math.hypot(dx, dy)
            transit = dist / v
            if 0.0 < transit < math.ulp(t):
                raise CatcherError(
                    f"transit to step {j} at t = {t!r} lasts {transit:.3g}, "
                    f"below the float64 resolution {math.ulp(t):.3g} of its "
                    f"start time")
            if t + transit > horizon:
                frac = min(1.0, v * (horizon - t) / dist)
                wps.append((horizon, Point2(cur.x + dx * frac,
                                            cur.y + dy * frac)))
                break
            t += transit
            cur = Point2(cur.x + dx, cur.y + dy)
        elif t > horizon:  # not even step 1 fits
            break
        dwell = t * (2.0 ** j)
        steps.append(Step(site_index=site, arrival_time=t,
                          departure_time=min(t + dwell, horizon)))
        wps += [(t, cur), (steps[-1].departure_time, cur)]
        if t + dwell >= horizon:
            break
        t += dwell
    if len(steps) < 2:
        raise HorizonTooShort(
            f"horizon {horizon} does not fit the first two steps")
    return StepSchedule(steps=steps, sites=pts, horizon=horizon), wps


def synthesize_schedule(sites: int, v: float, scene: Scene, horizon: float) -> StepSchedule:
    """Visiting order with transit legs at speed v and the doubling dwell rule,
    truncated at the horizon."""
    return _walk(sites, v, scene, horizon)[0]


def build_catcher(scene: Scene, eps: float, v: float, horizon: float,
                  sites: int = 16) -> CatcherPath:
    """CatcherPath realizing the schedule with straight constant-speed legs."""
    if eps <= 0:
        raise CatcherError("ball radius must be positive")
    if scene.kind == OBSTACLE:
        raise CatcherError("no catcher is synthesized on the obstacle domain")
    wps = _walk(sites, v, scene, horizon)[1]
    return CatcherPath(waypoints=_dedup(wps), eps=eps, v=v, scene=scene)


def _dedup(wps):
    """Drop repeated waypoint times; the walk refuses transits too short to
    advance the clock, so a repeated time repeats its point."""
    return wps[:1] + [w for prev, w in zip(wps, wps[1:]) if w[0] > prev[0]]


def max_leg_speed(path: CatcherPath) -> float:
    best = 0.0
    for (t0, p0), (t1, p1) in zip(path.waypoints, path.waypoints[1:]):
        if t1 > t0:
            best = max(best, math.hypot(p1.x - p0.x, p1.y - p0.y) / (t1 - t0))
    return best
