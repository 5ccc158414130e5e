"""Minimal SVG rendering of scenes, trajectories, and catcher paths.

Presentation only: nothing here carries numerical weight, and SVG output is
excluded from byte-exactness guarantees.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .geometry import DISK, RECTANGLE, TORUS, Point2, Scene
from .flow import Trajectory, position_at
from .catcher import CatcherPath


def _bounds(scene: Scene) -> Tuple[float, float, float, float]:
    if scene.kind == TORUS:
        return (0.0, 0.0, scene.side, scene.side)
    if scene.kind == RECTANGLE:
        return (0.0, 0.0, scene.width, scene.height)
    if scene.kind == DISK:
        r = scene.radius
        return (-r, -r, r, r)
    r = scene.outer_radius
    return (-r, -r, r, r)


class SvgCanvas:
    def __init__(self, scene: Scene, size: int = 640):
        x0, y0, x1, y1 = _bounds(scene)
        pad = 0.05 * max(x1 - x0, y1 - y0)
        self.x0, self.y0 = x0 - pad, y0 - pad
        self.scale = size / max(x1 - x0 + 2 * pad, y1 - y0 + 2 * pad)
        self.w = int((x1 - x0 + 2 * pad) * self.scale)
        self.h = int((y1 - y0 + 2 * pad) * self.scale)
        self.parts: List[str] = []
        self.scene = scene

    def _pt(self, x: float, y: float) -> Tuple[float, float]:
        return ((x - self.x0) * self.scale,
                self.h - (y - self.y0) * self.scale)

    def circle(self, c: Point2, r: float, stroke="black", fill="none",
               width=1.5, opacity=1.0):
        cx, cy = self._pt(c.x, c.y)
        self.parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r * self.scale:.2f}" '
            f'stroke="{stroke}" fill="{fill}" stroke-width="{width}" '
            f'opacity="{opacity}"/>')

    def rect_outline(self, x: float, y: float, w: float, h: float,
                     stroke="black"):
        px, py = self._pt(x, y + h)
        self.parts.append(
            f'<rect x="{px:.2f}" y="{py:.2f}" width="{w * self.scale:.2f}" '
            f'height="{h * self.scale:.2f}" stroke="{stroke}" fill="none" '
            f'stroke-width="1.5"/>')

    def polyline(self, pts: List[Tuple[float, float]], stroke="steelblue",
                 width=1.0, dash: Optional[str] = None):
        if len(pts) < 2:
            return
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in
                          (self._pt(px, py) for px, py in pts))
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{coords}" stroke="{stroke}" fill="none" '
            f'stroke-width="{width}"{d}/>')

    def scene_outline(self):
        s = self.scene
        if s.kind == TORUS:
            self.rect_outline(0, 0, s.side, s.side, stroke="gray")
        elif s.kind == RECTANGLE:
            self.rect_outline(0, 0, s.width, s.height)
        elif s.kind == DISK:
            self.circle(Point2(0, 0), s.radius)
        else:
            self.circle(Point2(0, 0), s.outer_radius)
            for c in s.centers:
                self.circle(c, s.r0, fill="lightgray")
            # zone stadiums, faint
            from .geometry import zone_segment
            for a in (1, 2, 3):
                pa, pb = zone_segment(s, a)
                self.polyline([(pa.x, pa.y), (pb.x, pb.y)], stroke="#c0d0c0",
                              width=2.0, dash="4,3")

    def trajectory(self, tr: Trajectory, samples: int = 2000,
                   stroke="steelblue"):
        if tr.scene.kind == TORUS:
            # draw with jumps suppressed by splitting at wrap-arounds
            L = tr.scene.side
            pts: List[Tuple[float, float]] = []
            prev = None
            for k in range(samples + 1):
                t = tr.horizon * k / samples
                p = position_at(tr, t)
                if prev is not None and (abs(p.x - prev[0]) > L / 2
                                         or abs(p.y - prev[1]) > L / 2):
                    self.polyline(pts, stroke=stroke)
                    pts = []
                pts.append((p.x, p.y))
                prev = (p.x, p.y)
            self.polyline(pts, stroke=stroke)
            return
        pts = [(tr.start.pos.x, tr.start.pos.y)]
        pts.extend((e.point.x, e.point.y) for e in tr.events
                   if e.time <= tr.start.time + tr.horizon)
        end = position_at(tr, tr.horizon)
        pts.append((end.x, end.y))
        self.polyline(pts, stroke=stroke)

    def catcher(self, path: CatcherPath, stroke="firebrick"):
        self.polyline([(p.x, p.y) for _, p in path.waypoints],
                      stroke=stroke, dash="6,4")
        self.circle(path.waypoints[0][1], path.eps, stroke=stroke,
                    opacity=0.7)

    def to_svg(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
                f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">')
        return head + "".join(self.parts) + "</svg>\n"


def render_trajectory(scene: Scene, tr: Trajectory,
                      path: Optional[CatcherPath] = None) -> str:
    cv = SvgCanvas(scene)
    cv.scene_outline()
    if path is not None:
        cv.catcher(path)
    cv.trajectory(tr)
    return cv.to_svg()
