"""Minimal SVG rendering of scenes, trajectories, and catcher paths.

Presentation only: nothing here carries numerical weight, and SVG output is
excluded from byte-exactness guarantees.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .geometry import DISK, OBSTACLE, TORUS, Point2, Scene, scene_box, zone_segment
from .flow import Trajectory, position_at
from .catcher import CatcherPath

SIZE = 640  # pixels along the longer side of the padded scene box
SAMPLES = 2000  # torus trajectories are sampled, and split at wrap-arounds
TRAJECTORY = "steelblue"
CATCHER = "firebrick"


def render_trajectory(scene: Scene, tr: Trajectory,
                      path: Optional[CatcherPath] = None) -> str:
    """The scene's outline, the catcher's path and first ball if given, and
    the trajectory up to its horizon, as one SVG document."""
    x0, y0, x1, y1 = scene_box(scene)
    pad = 0.05 * max(x1 - x0, y1 - y0)
    left, bottom = x0 - pad, y0 - pad
    scale = SIZE / max(x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)
    w = int((x1 - x0 + 2 * pad) * scale)
    h = int((y1 - y0 + 2 * pad) * scale)
    parts: List[str] = []

    def pt(x: float, y: float) -> Tuple[float, float]:
        return ((x - left) * scale, h - (y - bottom) * scale)

    def circle(c: Point2, r: float, stroke="black", fill="none",
               opacity=1.0):
        cx, cy = pt(c.x, c.y)
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r * scale:.2f}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="1.5" '
            f'opacity="{opacity}"/>')

    def polyline(pts: List[Tuple[float, float]], stroke=TRAJECTORY,
                 width=1.0, dash: Optional[str] = None):
        if len(pts) < 2:
            return
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                          (pt(px, py) for px, py in pts))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline points="{coords}" stroke="{stroke}" fill="none" '
            f'stroke-width="{width}"{d}/>')

    if scene.kind == DISK:
        circle(Point2(0, 0), scene.radius)
    elif scene.kind == OBSTACLE:
        circle(Point2(0, 0), scene.outer_radius)
        for c in scene.centers:
            circle(c, scene.r0, fill="lightgray")
        for a in (1, 2, 3):  # zone stadiums, faint
            pa, pb = zone_segment(scene, a)
            polyline([(pa.x, pa.y), (pb.x, pb.y)], stroke="#c0d0c0",
                     width=2.0, dash="4,3")
    else:  # the torus's fundamental square, or the rectangle
        px, py = pt(x0, y1)
        stroke = "gray" if scene.kind == TORUS else "black"
        parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{(x1 - x0) * scale:.2f}" '
            f'height="{(y1 - y0) * scale:.2f}" stroke="{stroke}" fill="none" '
            f'stroke-width="1.5"/>')

    if path is not None:
        polyline([(p.x, p.y) for _, p in path.waypoints], stroke=CATCHER,
                 dash="6,4")
        circle(path.waypoints[0][1], path.eps, stroke=CATCHER, opacity=0.7)

    if scene.kind == TORUS:
        L = scene.side
        pts: List[Tuple[float, float]] = []
        for k in range(SAMPLES + 1):
            p = position_at(tr, tr.horizon * k / SAMPLES)
            if pts and (abs(p.x - pts[-1][0]) > L / 2
                        or abs(p.y - pts[-1][1]) > L / 2):
                polyline(pts)
                pts = []
            pts.append((p.x, p.y))
        polyline(pts)
    else:
        polyline([(x, y) for _, x, y in tr.events.knots(tr.start, tr.horizon)])

    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">')
    return head + "".join(parts) + "</svg>\n"
