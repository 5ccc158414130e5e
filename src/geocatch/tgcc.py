"""Certify or refute the time-dependent geometric control condition by
exhaustive sampling of initial conditions.

One chord stream, ball_chords, yields the in-ball intervals of a geodesic,
given by its start and its knot stream, against a ball whose centre moves
along a knot polyline: the moving catcher here, a parked ball for
analysis.occupancy.  A first hit (_trajectory_hit) is its first chord;
first_hit_time runs that on the lazy bounce stream from a start
(flow.bounces, cut at T), and check_tgcc runs first_hit_time on every grid
sample and extra state, and _trajectory_hit on every extra trajectory, in
one in-process loop.

On the torus the geodesic is a straight line modulo the lattice, so chords
against each piecewise-linear leg of the centre are found exactly by walking
lattice columns transverse to the relative motion (lattice_intervals: O(1)
work per lattice copy, with a periodicity certificate for rational relative
slopes).  This stays exact over the enormous time spans produced by the
doubling dwell rule, where naive time marching would be hopeless.  The
kernel refuses balls wider than half the side, whose lattice copies
overlap.  The column cap, counted as the walk goes, is the t-GCC check's own
guard; occupancy walks any horizon, in constant memory.  On bounded scenes
the chords are those of flow.contact on the pieces of geodesic and centre
(flow.pieces): the evader verifier's kernel, so an uncaught extra trajectory
is exactly a verified evader.  The pieces read the bounce stream one event
at a time and stop at the first chord a caller asks for, so a caught sample
costs work in proportion to its hit time, and an uncaught one O(T) time and
O(1) memory, with no bounce cap.

A caught_fraction of 1 on a finite grid is evidence for t-GCC, not a proof;
the CLI's tgcc.json carries a note to that effect.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .geometry import TORUS, Direction, Scene
from .catcher import CatcherPath, dense_sites
from .flow import (RayState, Trajectory, bounces, check_covers, contact,
                   knots, legs, motion, pieces)
from .flow import trace  # noqa: F401  perfbench's traced run rebinds tgcc.trace

_COLUMN_CAP = 2_000_000  # t-GCC's guard on the columns of one lattice walk


class TgccError(Exception):
    pass


def lattice_intervals(zx, zy, rx, ry, tA, tB, rho, max_cols=None):
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
    rho > 1/2, where the balls overlap, and TgccError when the walk, not
    ended by a hit or the certificate, would pass max_cols columns."""
    if rho > 0.5:
        raise ValueError(f"ball radius {rho!r} times the torus side exceeds "
                         f"1/2: its lattice copies overlap")
    # from 2**52 on a float is an integer: a lattice translate of the origin
    zx, zy = (z if abs(z) < 2.0 ** 52 else 0.0 for z in (zx, zy))
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

    walked = n_cols if max_cols is None else min(n_cols, max_cols)
    checked = 0
    worst_margin = math.inf
    for m in range(m_first, m_first + sgn * walked, sgn):
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
    if walked < n_cols:
        raise TgccError(f"lattice walk of {n_cols} columns exceeds the cap "
                        f"{max_cols}")


def first_hit_time(scene: Scene, s: RayState, path: CatcherPath,
                   T: float) -> Optional[float]:
    """Smallest t in (0, T) with geodesic(t) inside the moving ball, or None:
    _trajectory_hit on the bounces of s up to T, read lazily, so the search
    stops at the first hit and knows no bounce cap."""
    if T <= 0:
        raise ValueError("T must be positive")
    return _trajectory_hit(scene, s, knots(s, bounces(scene, s), T), path, T)


def _trajectory_hit(scene: Scene, s: RayState, geodesic, path: CatcherPath,
                    T: float) -> Optional[float]:
    """Entry time of the first crossing into the moving ball, over [0, T],
    of the geodesic from s whose knot stream is `geodesic`, or None; 0 when
    the start lies inside the ball.  The first chord of ball_chords, whose
    walks stop at _COLUMN_CAP columns, so the knots are read only up to
    that chord."""
    chord = next(ball_chords(scene, s, geodesic, path.knots(), path.eps, T,
                             _COLUMN_CAP), None)
    return None if chord is None else chord[0]


def ball_chords(scene: Scene, s: RayState, geodesic, centre_knots,
                eps: float, T: float, max_cols: Optional[int] = None
                ) -> Iterator[Tuple[float, float]]:
    """In-ball intervals (lo, hi) over [0, T] of the geodesic from s, whose
    knot stream to T is `geodesic`, against the eps-ball around the polyline
    through centre_knots (knot streams, see flow.legs), read lazily,
    disjoint and in time order.

    On the torus the line from s is walked against each leg of the centre
    (lattice_intervals); TgccError names the start and the segment whose
    walk passes max_cols columns with neither a hit nor the periodicity
    certificate.  Elsewhere they are the in-ball chords of flow.contact on
    the pieces of the geodesic's polyline and the centre's, which read
    `geodesic` only as far as the chords are read."""
    if scene.kind != TORUS:
        for piece in pieces(geodesic, centre_knots, 0.0, T):
            chord = contact(*piece, eps)[1]
            if chord is not None:
                yield chord
        return
    L = scene.side
    ux, uy = s.dir.vec
    rho = eps / L
    for k, (ta, tb, m) in enumerate(legs(centre_knots, 0.0, T)):
        t0, x0, y0 = m[:3]
        wx, wy = motion(m, t0)[2:]
        zx = (s.pos.x - x0 + t0 * wx) / L
        zy = (s.pos.y - y0 + t0 * wy) / L
        rx = (ux - wx) / L
        ry = (uy - wy) / L
        try:
            yield from lattice_intervals(zx, zy, rx, ry, ta, tb, rho, max_cols)
        except TgccError as ex:
            raise TgccError(
                f"{ex}: sample x={s.pos.x!r} y={s.pos.y!r} "
                f"angle={s.dir.angle!r}, catcher segment {k} "
                f"[{ta!r}, {tb!r}]") from None


class TgccReport(NamedTuple):
    scene: Scene
    T: float
    n_samples: int
    caught: int
    caught_fraction: float
    t0_estimate: Optional[float]
    witnesses: List[Tuple[float, float, float]]  # (x, y, angle) uncaught
    max_hit_time: Optional[float]
    first_hits: Optional[List[Optional[float]]] = None  # per sample, in order


def check_tgcc(scene: Scene, path: CatcherPath, T: float, n_pos: int = 1024,
               n_ang: int = 256,
               extra: Sequence[RayState] = (),
               extra_trajectories: Sequence[Trajectory] = ()) -> TgccReport:
    """Evaluate first_hit_time over the dyadic-position x uniform-angle grid,
    then on the `extra` states as given, in one deterministic pass.

    An explicitly constructed geodesic (whose float64 re-trace would shadow
    a different continuation) is checked as given via `extra_trajectories`:
    its first hit is _trajectory_hit's, the same routine first_hit_time
    runs on a traced start.  Each must cover [0, T] (flow.OutOfRange)."""
    if n_pos < 1 or n_ang < 1:
        raise ValueError("grid sizes must be >= 1")
    for tr in extra_trajectories:
        check_covers(tr.horizon, T)
    dirs = [Direction(2.0 * math.pi * k / n_ang) for k in range(n_ang)]
    grid = (RayState(p, d) for p in dense_sites(scene, n_pos) for d in dirs)
    evaluated = chain(
        ((s, first_hit_time(scene, s, path, T)) for s in chain(grid, extra)),
        ((tr.start, _trajectory_hit(tr.scene, tr.start,
                                    tr.events.knots(tr.start, T), path, T))
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
        scene=scene, T=T, n_samples=len(hits),
        caught=caught, caught_fraction=frac,
        t0_estimate=max_hit if frac == 1.0 else None,
        witnesses=witnesses, max_hit_time=max_hit, first_hits=hits)
