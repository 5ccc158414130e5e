"""Flat-plane primitives, scene construction, and the zones' axis segments.

All scenes live in the Euclidean plane. The obstacle scene consists of three
circular scatterers of radius r0 whose centers form an equilateral triangle of
side 1 + 2*r0 (so the gap between any two circles is exactly 1), enclosed by a
circular outer wall. Zones are the pairwise convex hulls (stadiums) of the
scatterers.

Point2 and Direction (like flow's RayState) are __slots__ classes with
hand-written constructors, which no code assigns to after construction: every
grid sample, extra state and bounce builds them, and construction is what
they cost.  Scene is a NamedTuple.  All functions are pure.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Tuple


TWO_PI = 2.0 * math.pi

# Scene kind tags (also the JSON "kind" field values).
TORUS = "torus"
RECTANGLE = "rectangle"
DISK = "disk"
OBSTACLE = "obstacle"


class _Value:
    """Equality, hash and repr over the fields named in _fields, in the
    Name(field=value, ...) form; an instance equals only an instance of its
    own class.  A mutable subclass sets __hash__ = None."""
    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Point2(_Value):
    __slots__ = _fields = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def __iter__(self):
        return iter((self.x, self.y))


def norm_angle(a: float) -> float:
    """Reduce an angle to [0, 2*pi)."""
    a = math.fmod(a, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    if a >= TWO_PI:  # fmod can return exactly 2*pi after the += above
        a -= TWO_PI
    return a


class Direction(_Value):
    """A unit-speed heading with angle in [0, 2*pi).

    When built from a vector, the exact normalized components are kept so that
    axis-aligned headings stay bitwise axis-aligned through reflections
    (cos/sin of the stored angle would reintroduce ~1e-16 cross-axis noise,
    which dispersing walls amplify).  Equality, hash and repr read the angle
    alone."""
    __slots__ = ("angle", "_vx", "_vy")
    _fields = ("angle",)

    def __init__(self, angle: float, _vx: float = math.nan,
                 _vy: float = math.nan):
        a = norm_angle(float(angle))
        self.angle = a
        if _vx != _vx:  # nan: no vector given
            self._vx = math.cos(a)
            self._vy = math.sin(a)
        else:
            self._vx = _vx
            self._vy = _vy

    @property
    def vec(self) -> Tuple[float, float]:
        return (self._vx, self._vy)

    @staticmethod
    def from_vec(dx: float, dy: float) -> "Direction":
        n = math.hypot(dx, dy)
        if n == 0.0:
            raise ValueError("zero direction vector")
        return Direction(math.atan2(dy, dx), dx / n, dy / n)


class Scene(NamedTuple):
    """A flat 2D domain: torus, rectangle, disk, or three-disc scattering domain.

    For the obstacle domain, ``centers`` holds the three scatterer centers with
    centroid at the origin and center 1 on the positive y-axis; the outer wall
    is the circle of radius ``outer_radius`` about the origin.
    """
    kind: str
    # torus
    side: float = 0.0
    # rectangle
    width: float = 0.0
    height: float = 0.0
    # disk / obstacle outer wall
    radius: float = 0.0
    # obstacle domain
    r0: float = 0.0
    outer_radius: float = 0.0
    centers: Tuple[Point2, ...] = ()

    def to_dict(self) -> dict:
        if self.kind == TORUS:
            return {"kind": TORUS, "side": self.side}
        if self.kind == RECTANGLE:
            return {"kind": RECTANGLE, "width": self.width, "height": self.height}
        if self.kind == DISK:
            return {"kind": DISK, "radius": self.radius}
        return {"kind": OBSTACLE, "r0": self.r0, "outer_radius": self.outer_radius}

    @staticmethod
    def from_dict(d: dict) -> "Scene":
        kind = d.get("kind")
        if kind == TORUS:
            return torus(float(d["side"]))
        if kind == RECTANGLE:
            return rectangle(float(d["width"]), float(d["height"]))
        if kind == DISK:
            return disk(float(d["radius"]))
        if kind == OBSTACLE:
            return build_obstacle_scene(float(d.get("r0", 0.05)),
                                        float(d.get("outer_radius", 2.0)))
        raise SceneError(f"unknown scene kind: {kind!r}")

    @staticmethod
    def from_json(s: str) -> "Scene":
        return Scene.from_dict(json.loads(s))


class SceneError(ValueError):
    """Raised when scene parameters violate a construction invariant."""


def torus(side: float) -> Scene:
    if not 0 < side < math.inf:
        raise SceneError(f"torus side must be positive and finite, got {side}")
    return Scene(kind=TORUS, side=side)


def rectangle(width: float, height: float) -> Scene:
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise SceneError(f"rectangle sides must be positive and finite, got "
                         f"{width} and {height}")
    return Scene(kind=RECTANGLE, width=width, height=height)


def disk(radius: float) -> Scene:
    if not 0 < radius < math.inf:
        raise SceneError(f"disk radius must be positive and finite, got {radius}")
    return Scene(kind=DISK, radius=radius)


def build_obstacle_scene(r0: float, outer_radius: float = 2.0) -> Scene:
    """Three scatterers of radius r0 at the vertices of an equilateral triangle
    of side 1 + 2*r0, centroid at the origin, center 1 on the positive y-axis.

    The outer wall must strictly enclose the convex hull of the circles.
    """
    if not (0.0 < r0 <= 0.2):
        raise SceneError(f"obstacle radius must satisfy 0 < r0 <= 0.2, got {r0}")
    side = 1.0 + 2.0 * r0
    circum = side / math.sqrt(3.0)
    if not circum + r0 < outer_radius < math.inf:
        raise SceneError(f"outer_radius {outer_radius} must be finite and "
                         f"> {circum + r0}")
    # explicit symmetric coordinates (no trig) so that mirror-image pairs are
    # bitwise symmetric; the C2-C3 axis is then exactly horizontal
    half = side / 2.0
    low = circum / 2.0
    centers = (Point2(0.0, circum), Point2(-half, -low), Point2(half, -low))
    return Scene(kind=OBSTACLE, r0=r0, outer_radius=outer_radius, centers=centers)


def scene_box(scene: Scene) -> Tuple[float, float, float, float]:
    """(x0, y0, x1, y1): the fundamental square of a torus, otherwise the
    smallest axis-parallel box that holds the domain."""
    if scene.kind == TORUS:
        return (0.0, 0.0, scene.side, scene.side)
    if scene.kind == RECTANGLE:
        return (0.0, 0.0, scene.width, scene.height)
    R = scene.radius if scene.kind == DISK else scene.outer_radius
    return (-R, -R, R, R)


# --- segment distances ---

def point_segment_distance(p: Point2, a: Point2, b: Point2) -> float:
    """Distance from p to the closed segment [a, b]."""
    ax, ay = a.x, a.y
    ux, uy = b.x - ax, b.y - ay
    L2 = ux * ux + uy * uy
    if L2 == 0.0:
        return math.hypot(p.x - ax, p.y - ay)
    t = ((p.x - ax) * ux + (p.y - ay) * uy) / L2
    t = 0.0 if t < 0.0 else (1.0 if t > 1.0 else t)
    return math.hypot(p.x - (ax + t * ux), p.y - (ay + t * uy))


def segment_distance(p: Point2, q: Point2, a: Point2, b: Point2) -> float:
    """Distance between the closed segments [p, q] and [a, b]: 0 when they
    cross, else the least distance from an endpoint to the other segment."""
    def side(o: Point2, u: Point2, w: Point2) -> float:
        return (u.x - o.x) * (w.y - o.y) - (u.y - o.y) * (w.x - o.x)
    if side(p, q, a) * side(p, q, b) < 0 and side(a, b, p) * side(a, b, q) < 0:
        return 0.0
    return min(point_segment_distance(p, a, b), point_segment_distance(q, a, b),
               point_segment_distance(a, p, q), point_segment_distance(b, p, q))


# Zone a is the convex hull (stadium) of the two circles with indices != a.
ZONE_PAIRS = {1: (2, 3), 2: (1, 3), 3: (1, 2)}


def zone_segment(scene: Scene, a: int) -> Tuple[Point2, Point2]:
    """Axis segment of zone a: the segment joining its two defining centers."""
    i, j = ZONE_PAIRS[a]
    return scene.centers[i - 1], scene.centers[j - 1]


def strict_interior(scene: Scene, p: Point2) -> bool:
    """Is p in the open domain?  (Torus: always.)"""
    if scene.kind == RECTANGLE:
        return 0 < p.x < scene.width and 0 < p.y < scene.height
    if scene.kind == DISK:
        return math.hypot(p.x, p.y) < scene.radius
    if scene.kind == OBSTACLE:
        if math.hypot(p.x, p.y) >= scene.outer_radius:
            return False
        return all(math.hypot(p.x - c.x, p.y - c.y) > scene.r0
                   for c in scene.centers)
    return True


def torus_delta(dx: float, L: float) -> float:
    """Representative of dx mod L in [-L/2, L/2)."""
    dx = math.fmod(dx, L)
    if dx < -L / 2:
        dx += L
    elif dx >= L / 2:
        dx -= L
    return dx
