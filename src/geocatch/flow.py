"""Exact event-driven billiard propagation.

Collision times are solved in closed form (quadratics for circular walls,
linear equations for flat sides); there is no time stepping, so trajectories
do not drift over thousands of bounces.  A hit is tangential when the incoming
velocity is within TANGENCY_TOL of the wall tangent; tangential hits are
recorded but the ray passes straight through (grazing rays do not reflect).

bounces yields the events lazily, in time order, with no horizon; trace is
the one consumer that collects them into a Trajectory over a horizon, and the
bounded t-GCC hit search reads the stream itself, only up to its first hit.

The one kernel for polylines against a moving ball lives here too: knots
reads a geodesic's polyline from its start and events, pieces merges two
polylines into pieces of joint linear motion, and contact gives a piece's
closest approach (exact near eps**2) and in-ball chord.  The bounded t-GCC hit search, bounded
occupancy and the evasion verifier are loops over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

from .geometry import (
    DISK,
    OBSTACLE,
    RECTANGLE,
    TORUS,
    Direction,
    Point2,
    Scene,
    norm_angle,
)

TANGENCY_TOL = 1e-9   # |v . n| below this means a grazing hit
MIN_FLIGHT = 1e-9     # ignore re-hits of the wall just left

WALL_OBSTACLES = ("obstacle1", "obstacle2", "obstacle3")
WALL_OUTER = "outer"
WALL_DISK = "disk"
RECT_WALLS = ("left", "right", "bottom", "top")


class FlowError(Exception):
    pass


class NoCollision(FlowError):
    """The ray provably never meets a wall (torus scenes only)."""


class TangentialHit(FlowError):
    """reflect() was asked to reflect a grazing ray."""


class OutOfRange(FlowError):
    pass


class NotObstacleBounce(FlowError):
    pass


@dataclass(frozen=True, slots=True)
class RayState:
    pos: Point2
    dir: Direction
    time: float = 0.0


@dataclass(slots=True)
class BounceEvent:
    time: float
    point: Point2
    wall: str
    tangential: bool = False
    in_dir: Optional[Direction] = None
    out_dir: Optional[Direction] = None

    @property
    def obstacle_index(self) -> Optional[int]:
        if self.wall in WALL_OBSTACLES:
            return int(self.wall[-1])
        return None


@dataclass
class Trajectory:
    scene: Scene
    start: RayState
    events: List[BounceEvent] = field(default_factory=list)
    horizon: float = 0.0


def _outward_normal(scene: Scene, point: Point2, wall: str) -> Tuple[float, float]:
    """Unit normal at a wall point, pointing into the domain."""
    if wall in WALL_OBSTACLES:
        c = scene.centers[int(wall[-1]) - 1]
        return ((point.x - c.x) / scene.r0, (point.y - c.y) / scene.r0)
    if wall == WALL_OUTER:
        n = scene.outer_radius
        return (-point.x / n, -point.y / n)
    if wall == WALL_DISK:
        n = scene.radius
        return (-point.x / n, -point.y / n)
    if wall == "left":
        return (1.0, 0.0)
    if wall == "right":
        return (-1.0, 0.0)
    if wall == "bottom":
        return (0.0, 1.0)
    if wall == "top":
        return (0.0, -1.0)
    raise FlowError(f"unknown wall {wall!r}")


def _circle_entry_time(px, py, dx, dy, cx, cy, rad, tmin):
    """Earliest t > tmin at which p + t d enters the circle from outside."""
    rx, ry = px - cx, py - cy
    b = dx * rx + dy * ry
    cc = rx * rx + ry * ry - rad * rad
    disc = b * b - cc
    if disc < 0.0:
        return None
    t = -b - math.sqrt(disc)
    if t > tmin:
        return t
    return None


def _circle_exit_time(px, py, dx, dy, rad, tmin):
    """t > tmin at which p + t d reaches the circle |q| = rad from inside."""
    b = dx * px + dy * py
    cc = px * px + py * py - rad * rad
    disc = b * b - cc
    if disc < 0.0:
        return None
    t = -b + math.sqrt(disc)
    if t > tmin:
        return t
    return None


def first_collision(scene: Scene, s: RayState) -> Optional[BounceEvent]:
    """Earliest wall hit strictly after s.time, or None (escape) on the torus."""
    if scene.kind == TORUS:
        return None
    px, py = s.pos.x, s.pos.y
    dx, dy = s.dir.vec
    best_t = math.inf
    best_wall = None

    if scene.kind == OBSTACLE:
        for j, c in enumerate(scene.centers):
            t = _circle_entry_time(px, py, dx, dy, c.x, c.y, scene.r0, MIN_FLIGHT)
            if t is not None and t < best_t:
                best_t, best_wall = t, WALL_OBSTACLES[j]
        t = _circle_exit_time(px, py, dx, dy, scene.outer_radius, MIN_FLIGHT)
        if t is not None and t < best_t:
            best_t, best_wall = t, WALL_OUTER
    elif scene.kind == DISK:
        t = _circle_exit_time(px, py, dx, dy, scene.radius, MIN_FLIGHT)
        if t is not None and t < best_t:
            best_t, best_wall = t, WALL_DISK
    elif scene.kind == RECTANGLE:
        if dx > 0:
            t = (scene.width - px) / dx
            if t > MIN_FLIGHT and t < best_t:
                best_t, best_wall = t, "right"
        elif dx < 0:
            t = -px / dx
            if t > MIN_FLIGHT and t < best_t:
                best_t, best_wall = t, "left"
        if dy > 0:
            t = (scene.height - py) / dy
            if t > MIN_FLIGHT and t < best_t:
                best_t, best_wall = t, "top"
        elif dy < 0:
            t = -py / dy
            if t > MIN_FLIGHT and t < best_t:
                best_t, best_wall = t, "bottom"
    else:
        raise FlowError(f"unsupported scene kind {scene.kind!r}")

    if best_wall is None:
        raise NoCollision("ray meets no wall")

    hit = Point2(px + best_t * dx, py + best_t * dy)
    nx, ny = _outward_normal(scene, hit, best_wall)
    tangential = abs(dx * nx + dy * ny) < TANGENCY_TOL
    return BounceEvent(time=s.time + best_t, point=hit, wall=best_wall,
                       tangential=tangential, in_dir=s.dir)


def reflect(scene: Scene, e: BounceEvent, incoming: Direction) -> Direction:
    """Specular reflection of `incoming` at the event's wall point."""
    nx, ny = _outward_normal(scene, e.point, e.wall)
    dx, dy = incoming.vec
    dot = dx * nx + dy * ny
    if abs(dot) < TANGENCY_TOL:
        raise TangentialHit(f"grazing hit at {e.point} on {e.wall}")
    return Direction.from_vec(dx - 2.0 * dot * nx, dy - 2.0 * dot * ny)


def _marked_point_angle(scene: Scene, j: int) -> float:
    # q_j is the point of C^j nearest the centroid (the origin)
    c = scene.centers[j - 1]
    return math.atan2(-c.y, -c.x)


def billiard_coordinates(scene: Scene, e: BounceEvent) -> Tuple[int, float, float]:
    """Boundary coordinates (j, r, phi) of an obstacle bounce.

    r is the arclength from the marked point q_j to the bounce point, measured
    clockwise along C^j, in [0, 2*pi*r0).  phi is the angle from the inner
    normal at the bounce point to the *outgoing* velocity, measured
    counterclockwise; under this convention incoming vectors have
    phi_in = pi - phi_out (mod 2*pi) and lie in [pi/2, 3*pi/2].
    """
    j = e.obstacle_index
    if j is None:
        raise NotObstacleBounce(f"event on wall {e.wall!r}")
    c = scene.centers[j - 1]
    theta_q = math.atan2(e.point.y - c.y, e.point.x - c.x)
    r = scene.r0 * norm_angle(_marked_point_angle(scene, j) - theta_q)
    if e.out_dir is None:
        raise FlowError("event has no outgoing direction")
    phi = norm_angle(e.out_dir.angle - theta_q)  # inner normal has angle theta_q
    return j, r, phi


def bounces(scene: Scene, s: RayState) -> Iterator[BounceEvent]:
    """The flow's bounce events from s, in time order, computed lazily.

    None on the torus.  On the disk the chord map: the boundary angle
    advances by a constant per bounce, which keeps arbitrarily long orbits
    drift-free; a grazing hit there means leaving the closed disk, so the
    stream ends with it rather than fabricate further bounces.  Elsewhere
    one first_collision and reflect per event; grazing rays pass straight
    through."""
    if scene.kind == TORUS:
        return
    if scene.kind != DISK:
        while True:
            e = first_collision(scene, s)
            e.out_dir = s.dir if e.tangential else reflect(scene, e, s.dir)
            yield e
            s = RayState(pos=e.point, dir=e.out_dir, time=e.time)
    first = first_collision(scene, s)
    if first.tangential:
        first.out_dir = s.dir
        yield first
        return
    out = reflect(scene, first, s.dir)
    first.out_dir = out
    yield first

    R = scene.radius
    theta = math.atan2(first.point.y, first.point.x)
    px, py = first.point.x, first.point.y
    dx, dy = out.vec
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
    t = first.time
    while True:
        t += chord
        th = theta + k * delta
        point = Point2(R * math.cos(th), R * math.sin(th))
        sgn = 1.0 if delta >= 0 else -1.0
        yield BounceEvent(time=t, point=point, wall=WALL_DISK, tangential=False,
                          in_dir=Direction(th - 0.5 * delta + sgn * math.pi / 2.0),
                          out_dir=Direction(th + 0.5 * delta + sgn * math.pi / 2.0))
        k += 1


def trace(scene: Scene, s: RayState, horizon: float, max_bounces: int = 10 ** 6) -> Trajectory:
    """The bounces of s over `horizon` seconds after s.time, at most
    `max_bounces` of them.  When the cap or the end of the flow (a grazing
    exit from the disk) comes first, the horizon ends at the last bounce."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if max_bounces < 1:
        raise ValueError(f"max_bounces must be at least 1, not {max_bounces!r}")
    t_end = s.time + horizon
    events: List[BounceEvent] = []
    for e in bounces(scene, s):
        if e.time > t_end:
            return Trajectory(scene=scene, start=s, events=events, horizon=horizon)
        events.append(e)
        if len(events) == max_bounces:
            break
    return Trajectory(scene=scene, start=s, events=events,
                      horizon=events[-1].time - s.time if events else horizon)


def flow_torus(L: float, start: Point2, direction: Direction, horizon: float) -> Trajectory:
    """Straight-line flow on the square torus of side L (no bounce events)."""
    if L <= 0:
        raise ValueError("torus side must be positive")
    scene = Scene(kind=TORUS, side=L)
    return trace(scene, RayState(pos=start, dir=direction, time=0.0), horizon)


def position_at(tr: Trajectory, t: float) -> Point2:
    """Position along the trajectory at absolute time offset t from the start."""
    if t < -1e-12 or t > tr.horizon + 1e-12:
        raise OutOfRange(f"t={t} outside [0, {tr.horizon}]")
    t = min(max(t, 0.0), tr.horizon)
    t_abs = tr.start.time + t
    if tr.scene.kind == TORUS:
        L = tr.scene.side
        dx, dy = tr.start.dir.vec
        return Point2((tr.start.pos.x + t * dx) % L, (tr.start.pos.y + t * dy) % L)
    prev_t, prev_p, prev_d = tr.start.time, tr.start.pos, tr.start.dir
    for e in tr.events:
        if t_abs <= e.time:
            if e.time == prev_t:
                return prev_p
            lam = (t_abs - prev_t) / (e.time - prev_t)
            return Point2(prev_p.x + lam * (e.point.x - prev_p.x),
                          prev_p.y + lam * (e.point.y - prev_p.y))
        prev_t, prev_p, prev_d = e.time, e.point, e.out_dir
    dx, dy = prev_d.vec
    dt = t_abs - prev_t
    return Point2(prev_p.x + dt * dx, prev_p.y + dt * dy)


def knots(start: RayState, events: Iterable[BounceEvent], t_end: float):
    """The knots (t, x, y) of the geodesic from start through its events,
    read lazily: the start and the events, then, if the last event comes
    before t_end, a tail knot at t_end on that event's outgoing direction."""
    t, p, d = start.time, start.pos, start.dir
    yield t, p.x, p.y
    for e in events:
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


def trajectory_csv(tr: Trajectory) -> str:
    """CSV rows (t, x, y, wall_or_empty) with 17 significant digits."""
    def f(x: float) -> str:
        return format(x, ".17g")

    lines = ["t,x,y,wall"]
    lines.append(f"{f(0.0)},{f(tr.start.pos.x)},{f(tr.start.pos.y)},")
    for e in tr.events:
        lines.append(f"{f(e.time - tr.start.time)},{f(e.point.x)},{f(e.point.y)},{e.wall}")
    last_t = tr.events[-1].time - tr.start.time if tr.events else 0.0
    if tr.horizon > last_t:
        p = position_at(tr, tr.horizon)
        lines.append(f"{f(tr.horizon)},{f(p.x)},{f(p.y)},")
    return "\n".join(lines) + "\n"
