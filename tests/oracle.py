"""Reference predicates that the tests compare the constructions against.

No construction reads them, so they live beside the tests rather than in
geocatch: the torus metric, and distance to and membership of the obstacle
scene's zones (the stadium hulls of two scatterers).
"""

import math

from geocatch.geometry import (
    OBSTACLE,
    Point2,
    Scene,
    SceneError,
    point_segment_distance,
    torus_delta,
    zone_segment,
)


def torus_distance(p: Point2, q: Point2, L: float) -> float:
    return math.hypot(torus_delta(p.x - q.x, L), torus_delta(p.y - q.y, L))


def zone_distance(scene: Scene, p: Point2, a: int) -> float:
    """Distance from p to the closed stadium Z_a (0 inside)."""
    ca, cb = zone_segment(scene, a)
    return max(0.0, point_segment_distance(p, ca, cb) - scene.r0)


def zone_membership(scene: Scene, p: Point2) -> set:
    """Indices a with p in the closed zone Z_a."""
    if scene.kind != OBSTACLE:
        raise SceneError("zones are defined only for the obstacle domain")
    out = set()
    for a in (1, 2, 3):
        ca, cb = zone_segment(scene, a)
        if point_segment_distance(p, ca, cb) <= scene.r0:
            out.add(a)
    return out
