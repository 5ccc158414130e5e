"""Exact event-driven billiard propagation.

Collision times are solved in closed form (quadratics for circular walls,
linear equations for flat sides); there is no time stepping, so trajectories
do not drift over thousands of bounces.  One rule holds at every wall hit:
the ray reflects.  At a tangency the reflection is the ray itself, and near
one the velocity changes by only 2 |v . n|, so the flow is continuous there
and a grazing ray stays on the closed domain.

Every geodesic starts at its RayState at t = 0, the one clock of event
times, horizons and positions.  bounces is the one ray step: per event it
finds the wall ahead, the hit point and one reflection, and builds the
BounceEvent whole.  It yields the events lazily, in time order, with no
horizon; trace collects them into a Trajectory over a horizon, and the
bounded t-GCC hit search reads the stream only up to its first hit.  The
wall search among circles, _first_wall, runs on floats or Decimals, and
symbolic's extended-precision tracer loops it too.

A Trajectory stores its bounces as Events: columns of packed float64s and
wall codes, 49 bytes a bounce.

The one kernel for polylines against a moving ball lives here too: a knot
stream reads a geodesic's polyline, knots from its start and a lazy bounce
stream, Events.knots from the columns; pieces merges two polylines into
pieces of joint linear motion, and contact gives a piece's closest approach
(exact near eps**2) and in-ball chord.  The bounded t-GCC hit search,
bounded occupancy and the evasion verifier are loops over it.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Tuple

from .geometry import (
    DISK,
    OBSTACLE,
    RECTANGLE,
    TORUS,
    Direction,
    Point2,
    Scene,
    _Value,
    torus,
)

MIN_FLIGHT = 1e-9     # after a bounce, ignore re-hits of the wall just left

WALL_OBSTACLES = ("obstacle1", "obstacle2", "obstacle3")
WALL_OUTER = "outer"
WALL_DISK = "disk"
# Events' wall codes index this tuple
WALLS = ("left", "right", "bottom", "top", WALL_DISK, WALL_OUTER,
         *WALL_OBSTACLES)
_WALL_CODE = {wall: code for code, wall in enumerate(WALLS)}
_F64 = struct.Struct("d").pack


class FlowError(Exception):
    pass


class NoCollision(FlowError):
    """The ray meets no wall: it starts outside the domain, or on its
    boundary heading out."""


class OutOfRange(FlowError):
    pass


def check_covers(horizon: float, T: float) -> None:
    """Raise OutOfRange unless a trajectory of this horizon covers [0, T].
    The 1e-9 of slack admits a horizon that rounds just below T."""
    if T > horizon + 1e-9:
        raise OutOfRange(f"horizon {T} beyond trajectory horizon {horizon}")


class RayState(_Value):
    """A point of the unit tangent bundle: the geodesic from it, at t = 0."""
    __slots__ = _fields = ("pos", "dir")

    def __init__(self, pos: Point2, dir: Direction):
        self.pos = pos
        self.dir = dir


class BounceEvent(_Value):
    """A wall hit.  Its incoming direction is the previous event's out_dir,
    or the trajectory start's dir for a first event after the start (an
    evader's start bounce has no incoming leg)."""
    __slots__ = _fields = ("time", "point", "wall", "out_dir")

    def __init__(self, time: float, point: Point2, wall: str,
                 out_dir: Direction):
        self.time = time
        self.point = point
        self.wall = wall
        self.out_dir = out_dir

    @property
    def obstacle_index(self) -> Optional[int]:
        if self.wall in WALL_OBSTACLES:
            return int(self.wall[-1])
        return None


class Events(_Value):
    """Bounce events in time order, as columns: a bytearray of float64s
    each for the times, the hit points' x and y and the outgoing
    Directions' angle, _vx and _vy, and one of wall codes (indices into
    WALLS).  An index or a slice builds BounceEvents, equal to the ones
    appended bit for bit."""
    __slots__ = _fields = ("time", "x", "y", "angle", "vx", "vy", "walls")
    __hash__ = None

    def __init__(self, events: Iterable[BounceEvent] = ()):
        for name in self._fields:
            setattr(self, name, bytearray())
        for e in events:
            self.append(e)

    def append(self, e: BounceEvent) -> None:
        d = e.out_dir
        self.time += _F64(e.time)
        self.x += _F64(e.point.x)
        self.y += _F64(e.point.y)
        self.angle += _F64(d.angle)
        self.vx += _F64(d._vx)
        self.vy += _F64(d._vy)
        self.walls.append(_WALL_CODE[e.wall])

    def __len__(self) -> int:
        return len(self.walls)

    def __getitem__(self, k):
        i = range(len(self))[k]
        if isinstance(i, range):
            return [self[j] for j in i]
        t, x, y, angle, vx, vy = (c[i] for c in self.columns())
        return BounceEvent(t, Point2(x, y), WALLS[self.walls[i]],
                           Direction(angle, vx, vy))

    def columns(self):
        """[time, x, y, angle, vx, vy] as float memoryviews, which `append`
        may not outlive."""
        return [memoryview(c).cast("d") for c in
                (self.time, self.x, self.y, self.angle, self.vx, self.vy)]

    def knots(self, start: RayState, t_end: float):
        """knots(start, self, t_end), read off the columns."""
        time, x, y, _, vx, vy = self.columns()
        k = bisect_right(time, t_end)  # the events up to t_end
        yield 0.0, start.pos.x, start.pos.y
        yield from zip(time[:k], x[:k], y[:k])
        if k:
            k -= 1
            t, px, py, ux, uy = time[k], x[k], y[k], vx[k], vy[k]
        else:
            t, (px, py), (ux, uy) = 0.0, start.pos, start.dir.vec
        if t < t_end:
            yield t_end, px + (t_end - t) * ux, py + (t_end - t) * uy


class Trajectory(_Value):
    """The geodesic from start and its bounces up to the horizon, stored as
    Events (into which any other iterable of BounceEvents is copied)."""
    __slots__ = _fields = ("scene", "start", "events", "horizon")
    __hash__ = None

    def __init__(self, scene: Scene, start: RayState,
                 events: Iterable[BounceEvent] = (), horizon: float = 0.0):
        self.scene = scene
        self.start = start
        self.events = events if isinstance(events, Events) else Events(events)
        self.horizon = horizon


_FLAT_NORMALS = {"left": (1.0, 0.0), "right": (-1.0, 0.0),
                 "bottom": (0.0, 1.0), "top": (0.0, -1.0)}


def _outward_normal(scene: Scene, point: Point2, wall: str) -> Tuple[float, float]:
    """Unit normal at a wall point, pointing into the domain."""
    if wall in WALL_OBSTACLES:
        c = scene.centers[int(wall[-1]) - 1]
        return ((point.x - c.x) / scene.r0, (point.y - c.y) / scene.r0)
    if wall in (WALL_OUTER, WALL_DISK):
        n = scene.outer_radius if wall == WALL_OUTER else scene.radius
        return (-point.x / n, -point.y / n)
    if wall in _FLAT_NORMALS:
        return _FLAT_NORMALS[wall]
    raise FlowError(f"unknown wall {wall!r}")


def _first_wall(px, py, dx, dy, centers, r0, R, sqrt, tmin):
    """(t, j): the earliest t > tmin at which p + t d enters the circle of
    radius r0 around centers[j - 1] (points with .x and .y), or for j = 0
    leaves the outer circle |q| = R.  Floats with math.sqrt, or Decimals
    with Decimal.sqrt.  A scatterer the ray moves away from costs no square
    root, and the outer wall is solved only when no scatterer is met (they
    lie strictly inside it).  Raises NoCollision when no wall is met."""
    best_t, best_j = None, 0
    r0sq = r0 * r0
    for j, c in enumerate(centers, 1):
        rx, ry = px - c.x, py - c.y
        b = dx * rx + dy * ry
        if b >= 0:
            continue
        disc = b * b - (rx * rx + ry * ry - r0sq)
        if disc < 0:
            continue
        t = -b - sqrt(disc)
        if t > tmin and (best_t is None or t < best_t):
            best_t, best_j = t, j
    if best_t is not None:
        return best_t, best_j
    b = dx * px + dy * py
    disc = b * b - (px * px + py * py - R * R)
    if disc >= 0:
        t = -b + sqrt(disc)
        if t > tmin:
            return t, 0
    raise NoCollision("ray meets no wall")


def _wall_ahead(scene: Scene, px, py, dx, dy, tmin) -> Tuple[float, str]:
    """(t, wall): the earliest wall that p + t d meets at t > tmin.  On the
    rectangle an x wall wins a tie.  Raises NoCollision when no wall is
    met."""
    if scene.kind == OBSTACLE:
        t, j = _first_wall(px, py, dx, dy, scene.centers, scene.r0,
                           scene.outer_radius, math.sqrt, tmin)
        return t, WALL_OBSTACLES[j - 1] if j else WALL_OUTER
    if scene.kind == DISK:
        return _first_wall(px, py, dx, dy, (), 0.0, scene.radius, math.sqrt,
                           tmin)[0], WALL_DISK
    if scene.kind != RECTANGLE:
        raise FlowError(f"unsupported scene kind {scene.kind!r}")
    best_t, best_wall = math.inf, None
    if dx:
        t = ((scene.width if dx > 0 else 0.0) - px) / dx
        if tmin < t < best_t:
            best_t, best_wall = t, "right" if dx > 0 else "left"
    if dy:
        t = ((scene.height if dy > 0 else 0.0) - py) / dy
        if tmin < t < best_t:
            best_t, best_wall = t, "top" if dy > 0 else "bottom"
    if best_wall is None:
        raise NoCollision("ray meets no wall")
    return best_t, best_wall


def reflect(scene: Scene, point: Point2, wall: str,
            incoming: Direction) -> Direction:
    """Specular reflection of `incoming` at a point of the wall."""
    nx, ny = _outward_normal(scene, point, wall)
    dx, dy = incoming.vec
    dot = dx * nx + dy * ny
    return Direction.from_vec(dx - 2.0 * dot * nx, dy - 2.0 * dot * ny)


def bounces(scene: Scene, s: RayState) -> Iterator[BounceEvent]:
    """The flow's bounce events from s, in time order, computed lazily.

    None on the torus.  Elsewhere one ray step per event: the wall ahead,
    the hit point and its reflection there, a grazing hit too.  The first
    step takes any flight t > 0, however close the start lies to a wall,
    since a start has left no wall; every later step takes t > MIN_FLIGHT.
    The disk takes that step only to its first bounce, then the chord map:
    the boundary angle advances by a constant per bounce, which keeps
    arbitrarily long orbits drift-free.  A ray that grazes the rim leaves
    it along a chord shorter than MIN_FLIGHT, so the stream ends with that
    first event."""
    if scene.kind == TORUS:
        return
    t, p, d, tmin = 0.0, s.pos, s.dir, 0.0
    while True:
        dx, dy = d.vec
        dt, wall = _wall_ahead(scene, p.x, p.y, dx, dy, tmin)
        tmin = MIN_FLIGHT
        t += dt
        p = Point2(p.x + dt * dx, p.y + dt * dy)
        d = reflect(scene, p, wall, d)
        yield BounceEvent(t, p, wall, d)
        if scene.kind == DISK:
            break

    R = scene.radius
    theta = math.atan2(p.y, p.x)
    px, py = p.x, p.y
    dx, dy = d.vec
    # signed central-angle advance; chord length is 2 R sin(|delta|/2)
    inward = -(px * dx + py * dy) / R          # cos of angle to inner normal
    inward = min(1.0, max(-1.0, inward))
    half = math.acos(inward)                   # in [0, pi/2): angle to normal
    delta = math.pi - 2.0 * half
    if px * dy - py * dx < 0:
        delta = -delta
    chord = 2.0 * R * math.sin(abs(delta) / 2.0)
    if chord < MIN_FLIGHT:
        return
    k = 1
    while True:
        t += chord
        th = theta + k * delta
        point = Point2(R * math.cos(th), R * math.sin(th))
        sgn = 1.0 if delta >= 0 else -1.0
        yield BounceEvent(time=t, point=point, wall=WALL_DISK,
                          out_dir=Direction(th + 0.5 * delta + sgn * math.pi / 2.0))
        k += 1


def trace(scene: Scene, s: RayState, horizon: float, max_bounces: int = 10 ** 6) -> Trajectory:
    """The bounces of s over [0, horizon], at most `max_bounces` of them.
    When the cap or the end of the flow (a disk ray grazing the rim) comes
    first, the horizon ends at the last bounce."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if max_bounces < 1:
        raise ValueError(f"max_bounces must be at least 1, not {max_bounces!r}")
    events = Events()
    for e in bounces(scene, s):
        if e.time > horizon:
            return Trajectory(scene=scene, start=s, events=events, horizon=horizon)
        events.append(e)
        if len(events) == max_bounces:
            break
    return Trajectory(scene=scene, start=s, events=events,
                      horizon=events[-1].time if events else horizon)


def flow_torus(L: float, start: Point2, direction: Direction, horizon: float) -> Trajectory:
    """Straight-line flow on the square torus of side L (no bounce events)."""
    return trace(torus(L), RayState(start, direction), horizon)


def position_at(tr: Trajectory, t: float) -> Point2:
    """Position along the trajectory at time t."""
    if t < -1e-12 or t > tr.horizon + 1e-12:
        raise OutOfRange(f"t={t} outside [0, {tr.horizon}]")
    t = min(max(t, 0.0), tr.horizon)
    if tr.scene.kind == TORUS:
        L = tr.scene.side
        dx, dy = tr.start.dir.vec
        return Point2((tr.start.pos.x + t * dx) % L, (tr.start.pos.y + t * dy) % L)
    time, x, y, _, vx, vy = tr.events.columns()
    # the first event at or after t; the events come in time order
    k = bisect_left(time, t)
    if k:
        t0, x0, y0, ux, uy = time[k - 1], x[k - 1], y[k - 1], vx[k - 1], vy[k - 1]
    else:
        t0, (x0, y0), (ux, uy) = 0.0, tr.start.pos, tr.start.dir.vec
    if k < len(time):
        if time[k] == t0:
            return Point2(x0, y0)
        lam = (t - t0) / (time[k] - t0)
        return Point2(x0 + lam * (x[k] - x0), y0 + lam * (y[k] - y0))
    return Point2(x0 + (t - t0) * ux, y0 + (t - t0) * uy)


def knots(start: RayState, events: Iterable[BounceEvent], t_end: float):
    """The knots (t, x, y) of the geodesic from start through a lazy stream
    of its events, read up to its first event after t_end: the start and
    the events up to t_end, then, if the last of them comes before t_end, a
    tail knot at t_end on its outgoing direction.  (A stored trajectory's
    knots are its Events.knots.)"""
    t, p, d = 0.0, start.pos, start.dir
    yield t, p.x, p.y
    for e in events:
        if e.time > t_end:
            break
        t, p, d = e.time, e.point, e.out_dir
        yield t, p.x, p.y
    if t < t_end:
        ux, uy = d.vec
        yield t_end, p.x + (t_end - t) * ux, p.y + (t_end - t) * uy


def legs(stream, t_lo: float, t_hi: float):
    """(ta, tb, motion) in time order: the linear motions (t0, x0, y0, t1,
    x1, y1) of the polyline through a knot stream, with the nonempty,
    abutting spans of [t_lo, t_hi] they cover.  Before the first knot and
    after the last the polyline is held still (t0 == t1)."""
    it = iter(stream)
    prev = next(it)
    ta = t_lo
    if ta < prev[0] and ta < t_hi:
        ta = min(prev[0], t_hi)
        yield t_lo, ta, prev + prev
    for k in it:
        if ta >= t_hi:
            return
        if ta < k[0]:
            tb = k[0] if k[0] < t_hi else t_hi
            yield ta, tb, prev + k
            ta = tb
        prev = k
    if ta < t_hi:
        yield ta, t_hi, prev + prev


def pieces(a, b, t_lo: float, t_hi: float):
    """Two knot streams merged, two pointers walking their legs: the pieces
    (ta, tb, ga, gb) of [t_lo, t_hi] on which both polylines move linearly,
    with their motions ga and gb (see legs), in time order."""
    la, lb = legs(a, t_lo, t_hi), legs(b, t_lo, t_hi)
    ta, ea, ga = next(la, (None, None, None))
    if ta is None:
        return  # empty interval
    _, eb, gb = next(lb)
    while True:
        tb = eb if eb < ea else ea
        yield ta, tb, ga, gb
        if tb >= t_hi:
            return
        if ea == tb:
            _, ea, ga = next(la)
        if eb == tb:
            _, eb, gb = next(lb)
        ta = tb


def motion(m, t):
    """Position at time t and velocity of the linear motion m (see legs); a
    point held still when t0 == t1.  Floats or Fractions alike."""
    t0, x0, y0, t1, x1, y1 = m
    if t1 == t0:
        return x0, y0, 0, 0
    vx = (x1 - x0) / (t1 - t0)
    vy = (y1 - y0) / (t1 - t0)
    return x0 + (t - t0) * vx, y0 + (t - t0) * vy, vx, vy


def _closest_sq(g, c, ta, tb):
    """(squared separation, separation at ta and its velocity) of the
    motions g and c over [ta, tb]; the first is the quadratic's minimum, at
    its vertex clamped to the piece.  Floats or Fractions alike."""
    gx, gy, gvx, gvy = motion(g, ta)
    cx, cy, cvx, cvy = motion(c, ta)
    dx, dy = gx - cx, gy - cy
    wx, wy = gvx - cvx, gvy - cvy
    ww = wx * wx + wy * wy
    mx, my = dx, dy
    if ww > 0:
        s = -(dx * wx + dy * wy) / ww
        if s < 0:
            s = 0
        elif tb - ta < s:
            s = tb - ta
        mx, my = dx + s * wx, dy + s * wy
    return mx * mx + my * my, (dx, dy, wx, wy)


def contact(ta: float, tb: float, g, c, eps: float):
    """(q, chord) of the motions g and c (see legs) on the piece [ta, tb].

    q is their minimum squared separation, in floats except within a
    relative 1e-9 of eps**2 (or a few ulps of the coordinates, for tiny
    eps), where it is recomputed exactly as a Fraction of the float knots.
    chord is None unless q < eps**2 exactly; then it is the float (lo, hi)
    inside the ball, clipped to the piece, with lo == hi at the clamped
    vertex for a touch whose float chord rounds to nothing."""
    eps2 = eps * eps
    q, (dx, dy, wx, wy) = _closest_sq(g, c, ta, tb)
    # the float separation is good to a few ulps of the coordinates, which
    # the root of their sum of squares bounds
    _, gx0, gy0, _, gx1, gy1 = g
    _, cx0, cy0, _, cx1, cy1 = c
    scale = math.sqrt(gx0 * gx0 + gy0 * gy0 + gx1 * gx1 + gy1 * gy1
                      + cx0 * cx0 + cy0 * cy0 + cx1 * cx1 + cy1 * cy1)
    if abs(q - eps2) <= 1e-9 * eps2 + 2.0 ** -40 * scale * eps:
        F = Fraction
        q = _closest_sq(tuple(map(F, g)), tuple(map(F, c)), F(ta), F(tb))[0]
        inside = q < F(eps) ** 2
    else:
        inside = q < eps2
    if not inside:
        return q, None
    ww = wx * wx + wy * wy
    if not ww > 0:
        return q, (ta, tb)
    s = -(dx * wx + dy * wy) / ww
    mx, my = dx + s * wx, dy + s * wy
    half = math.sqrt(max(eps2 - (mx * mx + my * my), 0.0) / ww)
    lo, hi = max(ta + (s - half), ta), min(ta + (s + half), tb)
    if lo < hi:
        return q, (lo, hi)
    t = min(max(ta + s, ta), tb)
    return q, (t, t)

