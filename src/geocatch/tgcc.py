"""Certify or refute the time-dependent geometric control condition by
exhaustive sampling of initial conditions.

One routine, _trajectory_hit, finds the first hit of a geodesic, given by
its start and its bounce events, on the moving ball; first_hit_time runs it
on the lazy bounce stream from a start (flow.bounces, cut at T), and
check_tgcc runs first_hit_time on every grid sample and extra state, and
_trajectory_hit on every extra trajectory, in one in-process loop.

On the torus the geodesic is a straight line modulo the lattice, so hits
against each piecewise-linear catcher leg are found exactly by walking
lattice columns transverse to the relative motion (lattice_intervals: O(1)
work per lattice copy, with a periodicity certificate for rational relative
slopes).  This stays exact over the enormous time spans produced by the
doubling dwell rule, where naive time marching would be hopeless.  The same
kernel gives analysis.occupancy its torus chords; it refuses balls wider
than half the side, whose lattice copies overlap.  The column cap, with its
TgccError, is the t-GCC check's own guard; occupancy walks any horizon.  On
bounded scenes the hit is the first in-ball chord of flow.contact on the
pieces of geodesic and catcher (flow.pieces): the evader verifier's kernel,
so an uncaught extra trajectory is exactly a verified evader.  The pieces
read the bounce stream one event at a time and stop at the first chord, so
a caught sample costs work in proportion to its hit time, and an uncaught
one O(T) time and O(1) memory, with no bounce cap.

A caught_fraction of 1 on a finite grid is evidence for t-GCC, not a proof;
the JSON report carries a note to that effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Iterable, List, Optional, Sequence, Tuple

from .geometry import TORUS, Direction, Scene
from .catcher import CatcherPath, dense_sites
from .flow import (BounceEvent, RayState, Trajectory, bounces, contact, knots,
                   legs, motion, pieces)
from .flow import trace  # noqa: F401  perfbench's traced run rebinds tgcc.trace

_COLUMN_CAP = 2_000_000  # t-GCC's guard on the columns of one lattice walk


class TgccError(Exception):
    pass


def lattice_intervals(zx, zy, rx, ry, tA, tB, rho):
    """In-ball intervals (lo, hi) of the line (zx, zy) + t*(rx, ry) against
    the rho-balls around the points of Z^2, clipped to [tA, tB].

    One interval per lattice copy, yielded in time order (the balls are
    disjoint for rho <= 1/2); a touch whose chord rounds to zero yields
    lo == hi.  Exact per copy: lattice columns are walked transverse to the
    slower axis, every copy in a column whose row the line crosses within
    the column window (the times the line spends in the column's slab of
    half-width rho).  Each interval is also clipped to its column window,
    which holds the ball: that clip only undoes rounding, and makes entries
    and exits through a ball's extreme points exact.  A relative slope that
    is rational with period q in {1, 2} ends the walk early: the column
    pattern repeats, so q consecutive columns whose whole windows lie in
    [tA, tB] and miss with margin certify the rest.  Raises ValueError for
    rho > 1/2, where the balls overlap."""
    if rho > 0.5:
        raise ValueError(f"ball radius {rho!r} times the torus side exceeds "
                         f"1/2: its lattice copies overlap")
    if abs(rx) > abs(ry):
        zx, zy, rx, ry = zy, zx, ry, rx  # walk columns of the slower axis
    if ry == 0.0:  # no relative motion
        if tA < tB and math.hypot(zx - round(zx), zy - round(zy)) < rho:
            yield tA, tB
        return
    r2 = rx * rx + ry * ry
    span = rho / abs(ry)
    step = 1 if ry > 0 else -1
    if rx == 0.0:
        m_first = round(zx)
        sgn, n_cols = 1, int(abs(zx - m_first) < rho)
    else:
        # column index range swept by the slow coordinate
        x_a, x_b = zx + rx * tA, zx + rx * tB
        sgn = 1 if rx > 0 else -1
        m_first = math.floor(x_a - rho) + 1 if sgn > 0 else math.ceil(x_a + rho) - 1
        m_last = math.floor(x_b + rho) if sgn > 0 else math.ceil(x_b - rho)
        n_cols = (m_last - m_first) * sgn + 1

    period = 0
    if n_cols > 64:
        sigma = ry / rx
        for q in (1, 2):
            if abs(sigma * q - round(sigma * q)) * n_cols < 0.01 * rho:
                period = q
                break

    checked = 0
    worst_margin = math.inf
    for m in range(m_first, m_first + sgn * n_cols, sgn):
        if rx == 0.0:
            wa, wb = tA, tB
        else:
            wa = ((m - rho) - zx) / rx
            wb = ((m + rho) - zx) / rx
            if wa > wb:
                wa, wb = wb, wa
            whole = tA <= wa and wb <= tB
            wa, wb = max(wa, tA), min(wb, tB)
            if wa >= wb:
                continue
        y_lo = zy + ry * (wa - span)
        n = math.ceil(y_lo) if ry > 0 else math.floor(y_lo)
        best_miss2 = math.inf
        while (n - zy) / ry <= wb + span:
            tstar = ((m - zx) * rx + (n - zy) * ry) / r2
            mx = zx + rx * tstar - m
            my = zy + ry * tstar - n
            miss2 = mx * mx + my * my
            if miss2 < best_miss2:
                best_miss2 = miss2
            if miss2 < rho * rho:
                dt = math.sqrt((rho * rho - miss2) / r2)
                if tstar + dt > wa and tstar - dt < wb:
                    yield max(tstar - dt, wa), min(tstar + dt, wb)
            n += step
        if not period or not whole:
            continue  # a window cut by tA or tB shows only part of its column
        # a hit makes the margin negative, so only a missing period certifies
        worst_margin = min(worst_margin, math.sqrt(best_miss2) - rho)
        checked += 1
        if checked >= period:
            if worst_margin > 0.01 * rho:
                return  # repeats with margin: certified miss
            period = 0  # hit, or too close to the rim: walk everything


def first_hit_time(scene: Scene, s: RayState, path: CatcherPath,
                   T: float) -> Optional[float]:
    """Smallest t in (0, T) with geodesic(t) inside the moving ball, or None:
    _trajectory_hit on the bounces of s up to s.time + T, read lazily, so the
    search stops at the first hit and knows no bounce cap."""
    if T <= 0:
        raise ValueError("T must be positive")
    t_end = s.time + T
    events = takewhile(lambda e: e.time <= t_end, bounces(scene, s))
    return _trajectory_hit(scene, s, events, path, T)


def _trajectory_hit(scene: Scene, s: RayState, events: Iterable[BounceEvent],
                    path: CatcherPath, T: float) -> Optional[float]:
    """Entry time of the first crossing into the moving ball, over [0, T],
    of the geodesic from s through `events`, or None; clamped to 0 when the
    start lies inside the ball.

    On the torus the line from s is walked against each catcher leg
    (lattice_intervals); TgccError names the start and catcher segment whose
    walk would cross more than _COLUMN_CAP columns.  Elsewhere it is the
    first in-ball chord of flow.contact on the pieces of the geodesic's
    polyline and the catcher, which read `events` only up to that chord."""
    if scene.kind == TORUS:
        L = scene.side
        ux, uy = s.dir.vec
        rho = path.eps / L
        for k, (ta, tb, m) in enumerate(legs(path.knots(), 0.0, T)):
            t0, x0, y0 = m[:3]
            wx, wy = motion(m, t0)[2:]
            zx = (s.pos.x - x0 + t0 * wx) / L
            zy = (s.pos.y - y0 + t0 * wy) / L
            rx = (ux - wx) / L
            ry = (uy - wy) / L
            # estimate, within a couple of columns of the walk's own count
            n_cols = min(abs(rx), abs(ry)) * (tb - ta)
            if n_cols > _COLUMN_CAP:
                raise TgccError(
                    f"lattice walk of {n_cols:.0f} columns exceeds the cap "
                    f"{_COLUMN_CAP}: sample x={s.pos.x!r} y={s.pos.y!r} "
                    f"angle={s.dir.angle!r}, catcher segment {k} "
                    f"[{ta!r}, {tb!r}]")
            hit = next(lattice_intervals(zx, zy, rx, ry, ta, tb, rho), None)
            if hit is not None:
                return max(hit[0], 0.0)
        return None
    for piece in pieces(knots(s, events, T), path.knots(), 0.0, T):
        chord = contact(*piece, path.eps)[1]
        if chord is not None:
            return chord[0]
    return None


@dataclass
class TgccReport:
    scene: Scene
    n_pos: int
    n_ang: int
    T: float
    n_samples: int
    caught: int
    caught_fraction: float
    t0_estimate: Optional[float]
    witnesses: List[Tuple[float, float, float]]  # (x, y, angle) uncaught
    max_hit_time: Optional[float]
    first_hits: Optional[List[Optional[float]]] = None  # per sample, in order

    def to_dict(self) -> dict:
        return {
            "scene": self.scene.to_dict(),
            "grid": {"n_pos": self.n_pos, "n_ang": self.n_ang},
            "T": self.T,
            "n_samples": self.n_samples,
            "caught": self.caught,
            "caught_fraction": self.caught_fraction,
            "t0_estimate": self.t0_estimate,
            "witness_count": self.n_samples - self.caught,
            "witnesses": [list(w) for w in self.witnesses[:100]],
            "max_hit_time": self.max_hit_time,
            "note": "caught_fraction = 1 on a finite grid is evidence, "
                    "not a proof, of t-GCC",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def witnesses_csv(self) -> str:
        def f(x):
            return format(x, ".17g")
        lines = ["x,y,angle"]
        for (x, y, ang) in self.witnesses:
            lines.append(f"{f(x)},{f(y)},{f(ang)}")
        return "\n".join(lines) + "\n"


def check_tgcc(scene: Scene, path: CatcherPath, T: float, n_pos: int = 1024,
               n_ang: int = 256,
               extra: Sequence[RayState] = (),
               extra_trajectories: Sequence[Trajectory] = ()) -> TgccReport:
    """Evaluate first_hit_time over the dyadic-position x uniform-angle grid,
    then on the `extra` states as given, in one deterministic pass.

    An explicitly constructed geodesic (whose float64 re-trace would shadow
    a different continuation) is checked as given via `extra_trajectories`:
    its first hit is _trajectory_hit's, the same routine first_hit_time
    runs on a traced start."""
    if n_pos < 1 or n_ang < 1:
        raise ValueError("grid sizes must be >= 1")
    dirs = [Direction(2.0 * math.pi * k / n_ang) for k in range(n_ang)]
    grid = (RayState(p, d) for p in dense_sites(scene, n_pos) for d in dirs)
    evaluated = chain(
        ((s, first_hit_time(scene, s, path, T)) for s in chain(grid, extra)),
        ((tr.start, _trajectory_hit(tr.scene, tr.start, tr.events, path, T))
         for tr in extra_trajectories))
    hits: List[Optional[float]] = []
    witnesses = []
    for s, h in evaluated:
        hits.append(h)
        if h is None:
            witnesses.append((s.pos.x, s.pos.y, s.dir.angle))
    caught = len(hits) - len(witnesses)
    max_hit = max((h for h in hits if h is not None), default=None)
    frac = caught / len(hits)
    return TgccReport(
        scene=scene, n_pos=n_pos, n_ang=n_ang, T=T, n_samples=len(hits),
        caught=caught, caught_fraction=frac,
        t0_estimate=max_hit if frac == 1.0 else None,
        witnesses=witnesses, max_hit_time=max_hit, first_hits=hits)
