"""Exact event-driven billiard propagation.

Collision times are solved in closed form (quadratics for circular walls,
linear equations for flat sides); there is no time stepping, so trajectories
do not drift over thousands of bounces.  A hit is tangential when the incoming
velocity is within TANGENCY_TOL of the wall tangent; tangential hits are
recorded but the ray passes straight through (grazing rays do not reflect).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

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
    r: Optional[float] = None     # obstacle bounces: clockwise arclength from q_j
    phi: Optional[float] = None   # obstacle bounces: outgoing angle to inner normal

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

    def obstacle_bounces(self) -> List[BounceEvent]:
        return [e for e in self.events if e.wall in WALL_OBSTACLES]


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
    root = math.sqrt(disc)
    t = -b - root
    if t > tmin:
        return t
    # ray may start marginally inside due to rounding; take the exit crossing
    t2 = -b + root
    if cc < 0.0 and t2 > tmin:
        return None  # genuinely inside an obstacle: not a valid state
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


def _trace_disk(scene: Scene, s: RayState, horizon: float, max_bounces: int) -> Trajectory:
    """Disk flow via the chord map: the boundary angle advances by a constant
    per bounce, which keeps arbitrarily long orbits drift-free."""
    tr = Trajectory(scene=scene, start=s, events=[], horizon=horizon)
    first = first_collision(scene, s)
    t_end = s.time + horizon
    if first is None or first.time > t_end:
        return tr
    if first.tangential:
        # grazing the boundary from inside means leaving the closed disk;
        # record and stop rather than fabricate further bounces
        first.out_dir = s.dir
        tr.events.append(first)
        tr.horizon = first.time - s.time
        return tr
    out = reflect(scene, first, s.dir)
    first.out_dir = out
    tr.events.append(first)

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
        return tr
    k = 1
    t = first.time
    while len(tr.events) < max_bounces:
        t += chord
        if t > t_end:
            return tr
        th = theta + k * delta
        point = Point2(R * math.cos(th), R * math.sin(th))
        sgn = 1.0 if delta >= 0 else -1.0
        e = BounceEvent(time=t, point=point, wall=WALL_DISK, tangential=False,
                        in_dir=Direction(th - 0.5 * delta + sgn * math.pi / 2.0),
                        out_dir=Direction(th + 0.5 * delta + sgn * math.pi / 2.0))
        tr.events.append(e)
        k += 1
    tr.horizon = tr.events[-1].time - s.time
    return tr


def trace(scene: Scene, s: RayState, horizon: float, max_bounces: int = 10 ** 6) -> Trajectory:
    """Propagate until `horizon` seconds after s.time or `max_bounces` events."""
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if scene.kind == TORUS:
        return Trajectory(scene=scene, start=s, events=[], horizon=horizon)
    if scene.kind == DISK:
        return _trace_disk(scene, s, horizon, max_bounces)
    tr = Trajectory(scene=scene, start=s, events=[], horizon=horizon)
    state = s
    t_end = s.time + horizon
    while len(tr.events) < max_bounces:
        e = first_collision(scene, state)
        if e is None or e.time > t_end:
            tr.horizon = horizon
            return tr
        if e.tangential:
            out = state.dir  # grazing: pass straight through
        else:
            out = reflect(scene, e, state.dir)
        e.out_dir = out
        if e.wall in WALL_OBSTACLES:
            _, e.r, e.phi = billiard_coordinates(scene, e)
        tr.events.append(e)
        state = RayState(pos=e.point, dir=out, time=e.time)
    tr.horizon = tr.events[-1].time - s.time
    return tr


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
