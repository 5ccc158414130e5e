"""Itinerary coding of scattering trajectories: the interval solver and the
shadowing realizer, both boundary-value solvers.

A length-n itinerary pins the initial angle down to an interval whose width
shrinks by a factor of roughly 1/(1 + 2*gap/r0) ~ 1/40 per symbol, far below
float64 resolution beyond a dozen symbols.  Neither construction shoots
through that interval.  Both solve the boundary-value problem instead
(Birkhoff's variational principle; Biham & Kvale, Phys. Rev. A 46, 1992):
bounce points are relaxed on their prescribed circles until the equal-angle
law holds at every node, which stays well-conditioned at any word length.

Both run one Jacobi sweep, _relax, written once for floats and Decimals
alike; they differ only in the rule for the final node.

- The realizer (shadow_orbit, behind realize and the evader) relaxes in
  float64, and its last leg meets its circle head-on.  Realized
  trajectories satisfy the flow invariants to well below 1e-9.
- The interval solver (solve_itinerary) relaxes the two orbits that graze
  the last circle, one on each side (_grazing_node: the final node is a
  tangent point), in extended precision with bits proportional to the word
  length.  Their launch angles are the interval's endpoints.  The stability
  report samples inside the intervals.

Extended precision is the standard library's decimal module, which is
written in C and rounds correctly: a b-bit computation runs at
int(b * log10(2)) + 2 significant digits, and hpmath holds the elementary
functions it needs (pi, atan2, asin, sin and cos).  The package has no
runtime dependency; the realizer runs on plain floats.
"""

from __future__ import annotations

import math
from decimal import Decimal
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

from .geometry import (OBSTACLE, Direction, Point2, Scene, _Value,
                       point_segment_distance, strict_interior)
from .flow import (WALL_OBSTACLES, BounceEvent, Events, RayState, Trajectory,
                   _first_wall, reflect)
from . import hpmath

# the extended-precision library, reported by the benchmark harness
_BACKEND = "decimal"

class InadmissibleWord(ValueError):
    pass


class TouchesOuterWall(Exception):
    pass


class EmptyInterval(Exception):
    pass


class NumericFailure(Exception):
    """The working precision cannot resolve the requested interval."""


class RealizationFailure(Exception):
    """The shadowing relaxation did not converge; carries the last sweep's
    largest node move, the number of sweeps made and the last iterate's
    points."""

    def __init__(self, msg, move=None, sweeps=None, points=None):
        super().__init__(msg)
        self.move = move
        self.sweeps = sweeps
        self.points = points


class StabilityViolation(AssertionError):
    def __init__(self, msg, pair=None):
        super().__init__(msg)
        self.pair = pair


class Itinerary(_Value):
    __slots__ = _fields = ("word",)

    def __init__(self, word: Sequence[int]):
        w = tuple(int(s) for s in word)
        self.word = w
        for s in w:
            if s not in (1, 2, 3):
                raise InadmissibleWord(f"symbol {s} not in {{1,2,3}}")
        for a, b in zip(w, w[1:]):
            if a == b:
                raise InadmissibleWord(f"immediate repetition {a}{b}")

    def __len__(self):
        return len(self.word)

    def __getitem__(self, k):
        return self.word[k]

    def to_string(self) -> str:
        return "".join(str(s) for s in self.word)

    @staticmethod
    def from_string(s: str) -> "Itinerary":
        return Itinerary(tuple(int(ch) for ch in s))


def rho_for(r0: float) -> float:
    """Contraction rate of the coding metric for obstacle radius r0."""
    return r0 / (1.0 + r0)


def itinerary_of(tr: Trajectory, n: int) -> Itinerary:
    """Obstacle indices of the first n bounces of the trajectory's event list."""
    symbols = []
    for e in tr.events:
        if len(symbols) == n:
            break
        j = e.obstacle_index
        if j is None:
            raise TouchesOuterWall(
                f"wall {e.wall!r} hit after {len(symbols)} obstacle bounces")
        symbols.append(j)
    if len(symbols) < n:
        raise ValueError(f"trajectory has only {len(symbols)} obstacle bounces")
    return Itinerary(tuple(symbols))


class AngleInterval(_Value):
    """Angles [lo, hi] (Decimals, possibly unnormalized representatives)
    whose geodesics from the anchor point realize a fixed itinerary prefix;
    an endpoint's geodesic grazes the final circle, or (see solve_itinerary)
    the first one or a scatterer shadowing it.  bits is the working
    precision they were computed at."""
    __slots__ = _fields = ("lo", "hi", "bits")
    __hash__ = None

    def __init__(self, lo: Any, hi: Any, bits: int = 53):
        if not lo < hi:
            raise EmptyInterval(f"[{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.bits = bits

    @property
    def width(self):
        """hi - lo, rounded to the interval's working precision."""
        with hpmath.precision(self.bits):
            return self.hi - self.lo

    @property
    def mid(self):
        """(lo + hi) / 2, rounded to the interval's working precision."""
        with hpmath.precision(self.bits):
            return (self.lo + self.hi) / 2

    def as_floats(self) -> Tuple[float, float]:
        return float(self.lo), float(self.hi)

    def as_strings(self) -> Tuple[str, str]:
        """Decimal strings of lo and hi to the interval's working precision."""
        with hpmath.precision(self.bits):
            return str(+self.lo), str(+self.hi)

    def contains_direction(self, d: Direction) -> bool:
        """Whether the float64 heading d points into [lo, hi] widened by
        4 * 2**-52 radians on either side (the rounding of a unit vector's
        components).  The angle of d's exact vector is taken in extended
        precision, at the representative mod 2*pi nearest the interval."""
        with hpmath.precision(self.bits):
            vx, vy = d.vec
            theta = hpmath.atan2(Decimal(vy), Decimal(vx))
            two_pi = 2 * hpmath.pi()
            theta += two_pi * round(float((self.mid - theta) / two_pi))
            slack = Decimal(4 * 2.0 ** -52)
            return self.lo - slack <= theta <= self.hi + slack


# --- the obstacle scene in extended precision, and its tracer -------------
#
# The tracer's ray step is the float flow's own, flow._first_wall, on
# Decimals with Decimal.sqrt and no minimum flight.  The reflection stays
# here: it does not renormalize the direction, which a float Direction could
# not hold anyway.

def _decimal_scene(scene: Scene) -> Tuple[List[Point2], Decimal]:
    """The obstacle scene's scatterer centres and radius as exact Decimals."""
    return ([Point2(Decimal(c.x), Decimal(c.y)) for c in scene.centers],
            Decimal(scene.r0))


def _hp_trace(scene: Scene, A: Point2, eta, n: int, bits: int):
    """(symbols, times) of the first n bounces from A at angle eta, traced
    at `bits` of working precision by looping flow's ray step.  symbols[k]
    is the obstacle index, or 0 for the outer wall, where tracing stops."""
    symbols: List[int] = []
    times: List[Any] = []
    with hpmath.precision(bits):
        centers, r0 = _decimal_scene(scene)
        R = Decimal(scene.outer_radius)
        px, py = Decimal(A.x), Decimal(A.y)
        dy, dx = hpmath.sin_cos(eta)
        t = px - px  # zero at working precision
        while len(symbols) < n:
            dt, j = _first_wall(px, py, dx, dy, centers, r0, R, Decimal.sqrt, 0)
            t += dt
            px, py = px + dt * dx, py + dt * dy
            symbols.append(j)
            times.append(t)
            if not j:
                break
            c = centers[j - 1]
            nx, ny = (px - c.x) / r0, (py - c.y) / r0
            dot = dx * nx + dy * ny
            dx, dy = dx - 2 * dot * nx, dy - 2 * dot * ny
    return symbols, times


# --- the Jacobi sweep of both boundary-value solvers ------------------------
#
# Orbits are parallel x/y lists.  The arithmetic keeps the operation order of
# the numpy version the float realizer replaced (row norms as
# sqrt(x*x + y*y), each leg's unit vector divided by its norm before two are
# combined, (r0 * s) / |s|), so its points are the same bit for bit.

def _relax(x0, y0, centres, r0, sqrt, last, tol, max_sweeps):
    """Relax the bounce points of the orbit leaving the pinned point (x0, y0),
    one on the circle of radius r0 around each of `centres` in order; floats
    with math.sqrt, or Decimals with Decimal.sqrt at the context precision.

    Each Jacobi sweep moves every interior node to the point of its circle
    where the equal-angle reflection law holds for its current neighbours
    (a node whose bisector is shorter than 1e-14 stays put), and the final
    node to last(x, y, centre), a point of its circle computed from the node
    (x, y) before it.  Returns (xs, ys, move): the nodes of the last sweep,
    (x0, y0) first, and None once a sweep moves no node by tol, or else the
    last sweep's largest node move after max_sweeps sweeps."""
    xs, ys = [x0], [y0]
    for cx, cy in centres:
        # every node starts at the point of its circle nearest the origin
        n = sqrt(cx * cx + cy * cy)
        xs.append(cx - r0 * cx / n)
        ys.append(cy - r0 * cy / n)
    # of x0's type, so that no compare mixes types and move takes sqrt
    zero, tiny = type(x0)(0), type(x0)(1e-14)
    move = math.inf
    for _ in range(max_sweeps):
        nxs, nys = [x0], [y0]
        add_x, add_y = nxs.append, nys.append
        worst = zero  # largest squared node move of this sweep
        # (x, y) is node k and (ix, iy) the unit vector of the leg into it;
        # the one out of it is the next leg's, and node k's bisector is
        # (out - in)
        x, y = xs[1], ys[1]
        dx, dy = x - x0, y - y0
        n = sqrt(dx * dx + dy * dy)
        ix, iy = dx / n, dy / n
        for x1, y1, (cx, cy) in zip(xs[2:], ys[2:], centres):
            dx, dy = x1 - x, y1 - y
            n = sqrt(dx * dx + dy * dy)
            ox, oy = dx / n, dy / n
            bx, by = ox - ix, oy - iy
            nb = sqrt(bx * bx + by * by)
            if nb > tiny:
                qx = cx + r0 * bx / nb
                qy = cy + r0 * by / nb
                dx, dy = qx - x, qy - y
                d2 = dx * dx + dy * dy
                if d2 > worst:
                    worst = d2
                add_x(qx)
                add_y(qy)
            else:
                add_x(x)
                add_y(y)
            x, y, ix, iy = x1, y1, ox, oy
        qx, qy = last(xs[-2], ys[-2], centres[-1])
        dx, dy = qx - x, qy - y
        move = sqrt(max(worst, dx * dx + dy * dy))
        add_x(qx)
        add_y(qy)
        xs, ys = nxs, nys
        if move < tol:
            return xs, ys, None
    return xs, ys, move


def _solver_bits(n: int) -> int:
    # per-symbol contraction is at most ~2^6.2 here; 8 bits/symbol is ample
    return 96 + 8 * n


def _grazing_node(scene: Scene, A: Point2, circles: Sequence[int], side: int,
                  bits: int):
    """First bounce point of the orbit from A that bounces on circles[:-1]
    and grazes circles[-1], touching it on the side `side` (+1 or -1) of
    the last leg.

    The sweep of shadow_orbit (_relax) in extended precision, with the final
    node's rule the tangent point from the node before it instead of the
    head-on one.  It sweeps until no node moves by 2**-bits, working with 8
    guard bits so that the sweep's rounding (a node can flip by one ulp for
    ever) stays below that tolerance.  After `bits` sweeps it raises as
    realize does: EmptyInterval when the last iterate is no billiard path (a
    bounce point reached from inside its circle or left inward),
    NumericFailure otherwise."""
    with hpmath.precision(bits + 8):
        centers, r0 = _decimal_scene(scene)
        r0sq = r0 * r0

        def tangent(x, y, centre):
            # the tangent point from (x, y): at angle acos(r0 / d) from the
            # centre's ray towards it
            cx, cy = centre
            ux, uy = x - cx, y - cy
            d2 = ux * ux + uy * uy
            a, b = r0sq / d2, side * r0 * (d2 - r0sq).sqrt() / d2
            return cx + a * ux - b * uy, cy + a * uy + b * ux

        cs = [tuple(centers[j - 1]) for j in circles]  # unpacked per sweep
        xs, ys, move = _relax(Decimal(A.x), Decimal(A.y), cs, r0,
                              Decimal.sqrt, tangent, Decimal(2) ** -bits, bits)
        for k, (cx, cy) in enumerate(cs[:-1], 1):
            nx, ny = xs[k] - cx, ys[k] - cy  # outward normal at bounce k
            if ((xs[k] - xs[k - 1]) * nx + (ys[k] - ys[k - 1]) * ny >= 0
                    or (xs[k + 1] - xs[k]) * nx + (ys[k + 1] - ys[k]) * ny <= 0):
                raise EmptyInterval(
                    f"the orbit grazing circle {circles[-1]} is no billiard "
                    f"path at bounce {k - 1} (circle {circles[k - 1]})")
        if move is not None:
            raise NumericFailure(
                f"grazing orbit of {len(cs)} bounces did not converge in "
                f"{bits} sweeps (last move {move:.3g})")
        return xs[1], ys[1]


def solve_itinerary(scene: Scene, A: Point2, prefix: Itinerary) -> AngleInterval:
    """Interval of initial angles at A realizing the itinerary prefix.

    Each endpoint is the launch angle of the orbit that bounces on all but
    the last circle and grazes the last one (_grazing_node), on one side for
    one endpoint and on the other side for the other; both are taken at the
    representative nearest the direction from A to the first circle's
    centre.  Where the first circle hides part of the second from A, the
    ray along the edge of the first circle's cone goes straight on to the
    second, and that edge is the endpoint whose grazing orbit is no billiard
    path.  The interval is clipped to the part of the first circle's cone
    that no nearer scatterer shadows (with a gap of 1 >> r0 between circles
    only the first leg can be eclipsed), and verified by re-tracing its
    midpoint.  A word of length one is that clipped cone.  Raises
    EmptyInterval when nothing is left, or when a grazing orbit is no
    billiard path otherwise."""
    if scene.kind != OBSTACLE:
        raise ValueError("itineraries require the obstacle scene")
    n = len(prefix)
    if n < 1:
        raise ValueError("prefix must have length >= 1")
    bits = _solver_bits(n)
    if bits > 6000:
        raise NumericFailure(f"word length {n} needs {bits} bits; cap exceeded")
    _check_start(scene, A)
    with hpmath.precision(bits):
        centers, r0 = _decimal_scene(scene)
        ax, ay = Decimal(A.x), Decimal(A.y)
        two_pi = 2 * hpmath.pi()
        c0x, c0y = centers[prefix[0] - 1]
        theta0 = hpmath.atan2(c0y - ay, c0x - ax)

        def near(eta):
            """eta's representative mod 2*pi nearest theta0"""
            return eta + two_pi * round(float((theta0 - eta) / two_pi))

        def cone(cx, cy):
            """(distance, direction, half-angle) of a circle seen from A"""
            ux, uy = cx - ax, cy - ay
            d = (ux * ux + uy * uy).sqrt()
            return d, near(hpmath.atan2(uy, ux)), hpmath.asin(r0 / d)

        d0, _, half = cone(c0x, c0y)
        lo, hi = theta0 - half, theta0 + half
        edge = None  # the edge of that cone whose ray goes on to prefix[1]
        for j, (cx, cy) in enumerate(centers, 1):
            d, theta, half_j = cone(cx, cy)
            if j == prefix[0]:
                continue
            if d < d0:
                # a ray meeting two disjoint equal circles meets the nearer
                # first: this scatterer shadows part of the cone
                if theta < theta0:
                    lo = max(lo, theta + half_j)
                else:
                    hi = min(hi, theta - half_j)
            elif n > 1 and j == prefix[1]:
                edge = next((e for e in (theta0 - half, theta0 + half)
                             if abs(e - theta) < half_j), None)
        if n > 1 and lo < hi:
            ends = []
            for side in (1, -1):
                try:
                    x1, y1 = _grazing_node(scene, A, prefix.word, side, bits)
                except EmptyInterval:
                    if edge is None:
                        raise
                    # prefix[0] hides part of prefix[1]: at this end the
                    # orbit grazes prefix[0] and goes straight on instead
                    ends.append(edge)
                else:
                    ends.append(near(hpmath.atan2(y1 - ay, x1 - ax)))
            lo, hi = max(lo, min(ends)), min(hi, max(ends))
        if not lo < hi:
            raise EmptyInterval(f"the first leg of {prefix.to_string()} is "
                                f"eclipsed from {A}")
        mid = (lo + hi) / 2
    if _hp_trace(scene, A, mid, n, bits)[0] != list(prefix.word):
        raise NumericFailure("midpoint fails to realize the prefix")
    return AngleInterval(lo=lo, hi=hi, bits=bits)


# --- float64 shadowing realizer (shared with the evader) ---------------------
#
# The norm of a single vector is _fused_norm and the leg lengths are summed
# in order, as in the numpy version this replaced (see _relax).

def _centers(scene: Scene) -> List[Tuple[float, float]]:
    return [(c.x, c.y) for c in scene.centers]


def _fused_norm(x: float, y: float) -> float:
    """sqrt(x*x + y*y) with y*y fused into the sum (rounded once), as the BLAS
    dot product behind numpy's norm of a single vector computes it on FMA
    hardware; the final node and the evader's gap point use this norm."""
    n, d = y.as_integer_ratio()
    pn, pd = (x * x).as_integer_ratio()
    return math.sqrt((n * n * pd + pn * d * d) / (d * d * pd))


def shadow_orbit(scene: Scene, start, circles: Sequence[int],
                 tol: float = 1e-13, max_sweeps: int = 300):
    """Bounce points, one on each circle of `circles` in order, of the orbit
    leaving the pinned point `start`.

    The Jacobi sweep (_relax) in float64, with the final node's rule the
    head-on one: the point of its circle nearest the node before it (the
    last leg is length-minimizing).  It sweeps until no node moves by tol.
    Whether the legs form a billiard path is left to the caller.

    Returns (points, times): m + 1 (x, y) tuples with points[0] = start, and
    their cumulative leg lengths.  Raises RealizationFailure, carrying the
    last sweep's points, when max_sweeps sweeps do not converge."""
    if len(circles) < 1:
        raise RealizationFailure("need at least one circle to shadow")
    r0 = scene.r0
    centers = _centers(scene)

    def head_on(x, y, centre):
        # the point of the last circle nearest the node before it
        cx, cy = centre
        dx, dy = x - cx, y - cy
        n = _fused_norm(dx, dy)
        return cx + r0 * dx / n, cy + r0 * dy / n

    xs, ys, move = _relax(float(start[0]), float(start[1]),
                          [centers[j - 1] for j in circles], r0, math.sqrt,
                          head_on, tol, max_sweeps)
    if move is not None:
        raise RealizationFailure(
            f"shadowing of {len(circles)} bounces did not converge in "
            f"{max_sweeps} sweeps (last move {move:.3e} >= tol {tol:.1e})",
            move=move, sweeps=max_sweeps, points=list(zip(xs, ys)))
    m = len(circles)
    times = [0.0]
    t = 0.0
    for k in range(m):
        dx, dy = xs[k + 1] - xs[k], ys[k + 1] - ys[k]
        t += math.sqrt(dx * dx + dy * dy)
        times.append(t)
    return list(zip(xs, ys)), times


def _check_start(scene: Scene, A: Point2) -> None:
    """Raise EmptyInterval unless A lies in the open domain: inside the outer
    wall and outside every scatterer."""
    if not strict_interior(scene, A):
        raise EmptyInterval(
            f"start ({float(A.x)}, {float(A.y)}) is not inside the domain")


def _check_billiard_path(scene: Scene, circles: Sequence[int], P) -> None:
    """Raise EmptyInterval unless the polyline P (a start point, then one point
    on each circle of `circles`) is a billiard path in the scene: every leg
    meets no scatterer but its own end circles, arrives at its circle from
    outside and leaves each bounce outward."""
    centers = _centers(scene)
    r0 = scene.r0
    m = len(circles)
    D = [(P[k + 1][0] - P[k][0], P[k + 1][1] - P[k][1]) for k in range(m)]
    N = [((P[k + 1][0] - centers[j - 1][0]) / r0,   # outward normals
          (P[k + 1][1] - centers[j - 1][1]) / r0)
         for k, j in enumerate(circles)]
    for k in range(m):
        if D[k][0] * N[k][0] + D[k][1] * N[k][1] >= 0:
            raise EmptyInterval(
                f"leg {k} reaches circle {circles[k]} from inside or grazing")
    for k in range(m - 1):
        if D[k + 1][0] * N[k][0] + D[k + 1][1] * N[k][1] <= 0:
            raise EmptyInterval(
                f"leg {k + 1} does not leave circle {circles[k]} outward")
    Q = [Point2(x, y) for x, y in P]
    for j, c in enumerate(scene.centers, 1):
        for k in range(m):
            if j == circles[k] or (k > 0 and j == circles[k - 1]):
                continue
            if point_segment_distance(c, Q[k], Q[k + 1]) <= r0:
                raise EmptyInterval(f"leg {k} meets scatterer {j}")


def orbit_to_trajectory(scene: Scene, circles: Sequence[int], orbit,
                        start_circle: Optional[int] = None) -> Trajectory:
    """Trajectory through the shadowed orbit for `circles`, an iterable of
    nodes (x, y, t): shadow_orbit's points and times.  It starts at the
    first node along the first leg.  With start_circle, the first node is
    itself a bounce on that circle and is recorded as the first event,
    which has no incoming leg.  The horizon is the last bounce's time, so
    the events cover it."""
    events = Events()
    nodes = iter(orbit)
    x0, y0, t0 = next(nodes)
    for k, (x1, y1, t1) in enumerate(nodes):
        d = Direction.from_vec(x1 - x0, y1 - y0)  # leg k, out of node k
        if k == 0:
            start = RayState(Point2(x0, y0), d)
        j = circles[k - 1] if k else start_circle  # the circle of node k
        if j is not None:
            events.append(BounceEvent(t0, Point2(x0, y0),
                                      WALL_OBSTACLES[j - 1], d))
        x0, y0, t0 = x1, y1, t1
    # the last bounce leaves by reflection
    p, wall = Point2(x0, y0), WALL_OBSTACLES[circles[-1] - 1]
    events.append(BounceEvent(t0, p, wall, reflect(scene, p, wall, d)))
    return Trajectory(scene=scene, start=start, events=events, horizon=t0)


def realize(scene: Scene, A: Point2, prefix: Itinerary) -> Trajectory:
    """Trajectory from A through the prefix's bounces, ending at its last
    bounce.

    The bounce points are shadowed in float64 (shadow_orbit with A pinned);
    the last leg meets its circle head-on.  The launch angle lies in
    solve_itinerary's interval to float rounding.  Raises EmptyInterval when
    A is not inside the domain or the shadowed polyline is not a billiard
    path (for instance, a scatterer eclipses the next circle), also when the
    relaxation's last iterate shows that, and RealizationFailure when the
    relaxation does not converge."""
    if scene.kind != OBSTACLE:
        raise ValueError("itineraries require the obstacle scene")
    if len(prefix) < 1:
        raise ValueError("prefix must have length >= 1")
    _check_start(scene, A)
    # the launch direction inherits the first node's error: converge down to
    # float64 resolution rather than the evader's timing tolerance
    try:
        P, times = shadow_orbit(scene, (A.x, A.y), prefix.word, tol=1e-15)
    except RealizationFailure as ex:
        # when a scatterer eclipses a circle, a node can flip between two
        # faces of it for ever: its iterate is then no billiard path
        _check_billiard_path(scene, prefix.word, ex.points)
        raise
    _check_billiard_path(scene, prefix.word, P)
    return orbit_to_trajectory(scene, prefix.word,
                               ((x, y, t) for (x, y), t in zip(P, times)))


class StabilityReport(NamedTuple):
    word: Itinerary
    trials: int
    spread_final: float          # spread of (t_n - t_0) across the sample
    bound: float                 # 3 * C * r0 with C = 1
    per_depth_spread: List[float]  # spread of flight time tau_k, k = 0..n-2
    fit_slope: float             # log(spread) per unit (n - k)
    log_rho: float
    rho: float


def stability_report(scene: Scene, w: Itinerary, trials: int = 50,
                     seed: int = 0, A: Optional[Point2] = None) -> StabilityReport:
    """Empirical check of the shared-prefix bounce-time stability bound.

    Samples pairs of geodesics from the same start point whose itineraries
    agree exactly on w (continuations forced to differ at index len(w)),
    measures the spread of the last shared bounce time relative to the first,
    and raises StabilityViolation if it exceeds 3*r0."""
    import random as _random

    if len(w) < 2:
        raise ValueError("word must have length >= 2")
    if A is None:
        A = Point2(0.0, 0.0)
    n = len(w) - 1  # bounce indices 0..n; t_0 normalized out
    last = w[len(w) - 1]
    conts = [s for s in (1, 2, 3) if s != last]
    branch_a = Itinerary(w.word + (conts[0],))
    branch_b = Itinerary(w.word + (conts[1],))
    iv_a = solve_itinerary(scene, A, branch_a)
    iv_b = solve_itinerary(scene, A, branch_b)
    rng = _random.Random(seed)
    bits = max(iv_a.bits, iv_b.bits)

    all_times = []
    for _ in range(trials):
        ua = 0.05 + 0.9 * rng.random()
        ub = 0.05 + 0.9 * rng.random()
        # the offsets underflow at float precision
        with hpmath.precision(bits):
            eta_a = iv_a.lo + iv_a.width * Decimal(ua)
            eta_b = iv_b.lo + iv_b.width * Decimal(ub)
        for eta in (eta_a, eta_b):
            symbols, times = _hp_trace(scene, A, eta, len(w), bits)
            if 0 in symbols:
                raise TouchesOuterWall("outer wall before requested depth")
            all_times.append([float(t) for t in times])

    # spreads of t_k - t_0 and of flight intervals tau_k = t_{k+1} - t_k
    rel = [[t[k] - t[0] for k in range(len(w))] for t in all_times]
    spread_final = max(r[n] for r in rel) - min(r[n] for r in rel)
    per_depth = []
    for k in range(len(w) - 1):
        taus = [t[k + 1] - t[k] for t in all_times]
        per_depth.append(max(taus) - min(taus))

    rho = rho_for(scene.r0)
    bound = 3.0 * scene.r0
    # log-linear fit of spread_k against distance from the disagreement index
    xs, ys = [], []
    for k, s in enumerate(per_depth):
        if s > 1e-13:  # ignore the numeric floor
            xs.append(float(len(w) - 1 - k))
            ys.append(math.log(s))
    slope = float("nan")
    if len(xs) >= 3:
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        var = sum((x - mx) ** 2 for x in xs)
        if var > 0:
            slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var

    report = StabilityReport(
        word=w, trials=trials, spread_final=spread_final, bound=bound,
        per_depth_spread=per_depth, fit_slope=slope,
        log_rho=math.log(rho), rho=rho)
    if spread_final > bound:
        worst = max(range(len(rel)), key=lambda i: rel[i][n])
        best = min(range(len(rel)), key=lambda i: rel[i][n])
        raise StabilityViolation(
            f"bounce-time spread {spread_final:.6f} exceeds {bound:.6f}",
            pair=(worst, best))
    return report
