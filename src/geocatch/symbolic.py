"""Itinerary coding of scattering trajectories: the nested-interval solver
and the shadowing realizer.

A length-n itinerary pins the initial angle down to an interval whose width
shrinks by a factor of roughly 1/(1 + 2*gap/r0) ~ 1/40 per symbol, far below
float64 resolution beyond a dozen symbols.  The interval solver therefore
runs in extended precision (mpmath), allocating bits proportionally to the
word length; the stability report samples inside its intervals.

Realization does not shoot through that interval.  It solves the
boundary-value problem instead (Birkhoff's variational principle): bounce
points are relaxed in float64 on their prescribed circles until the
equal-angle law holds at every node, which stays well-conditioned at any
word length.  The evader shares this realizer.  Realized trajectories satisfy
the flow invariants to well below 1e-9.

The realizer runs on plain floats and needs no numpy.  Importing this module
does not load mpmath either: it loads on the first extended-precision call
(solve_itinerary, stability_report, the AngleInterval methods).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from .geometry import (OBSTACLE, Direction, Point2, Scene, point_segment_distance,
                       strict_interior)
from .flow import BounceEvent, RayState, Trajectory

# the extended-precision library, reported by the benchmark harness
_BACKEND = "mpmath"

REL_TOL = 1e-9  # interval endpoints are refined to this share of the bracket


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


@dataclass(frozen=True)
class Itinerary:
    word: Tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(s) for s in self.word)
        object.__setattr__(self, "word", w)
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


def d_rho(xi: Itinerary, eta: Itinerary, rho: float) -> float:
    """Ultrametric rho**n with n the first index of disagreement on the common
    range; 0.0 when the words agree on all shared indices."""
    if not (0.0 < rho < 1.0):
        raise ValueError("rho must be in (0, 1)")
    n_common = min(len(xi), len(eta))
    for n in range(n_common):
        if xi[n] != eta[n]:
            return rho ** n
    return 0.0


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


@dataclass
class AngleInterval:
    """Angles [lo, hi] (extended-precision scalars, possibly unnormalized
    representatives) whose geodesics from the anchor point realize a fixed
    itinerary prefix; the endpoints graze the final circle tangentially."""
    lo: Any
    hi: Any
    bits: int = 53

    def __post_init__(self):
        if not self.lo < self.hi:
            raise EmptyInterval(f"[{self.lo}, {self.hi}]")

    @property
    def width(self):
        """hi - lo, rounded to the interval's working precision."""
        import mpmath as mp

        with mp.workprec(self.bits):
            return self.hi - self.lo

    @property
    def mid(self):
        """(lo + hi) / 2, rounded to the interval's working precision."""
        import mpmath as mp

        with mp.workprec(self.bits):
            return (self.lo + self.hi) / 2

    def as_floats(self) -> Tuple[float, float]:
        return float(self.lo), float(self.hi)

    def as_strings(self) -> Tuple[str, str]:
        """Decimal strings of lo and hi to the interval's working precision."""
        import mpmath as mp

        with mp.workprec(self.bits):
            return str(self.lo), str(self.hi)

    def contains_direction(self, d: Direction) -> bool:
        """Whether the float64 heading d points into [lo, hi] widened by
        4 * 2**-52 radians on either side (the rounding of a unit vector's
        components).  The angle of d's exact vector is taken in extended
        precision, at the representative mod 2*pi nearest the interval."""
        import mpmath as mp

        with mp.workprec(self.bits):
            vx, vy = d.vec
            theta = mp.atan2(mp.mpf(vy), mp.mpf(vx))
            two_pi = 2 * +mp.pi
            theta = theta + two_pi * round(float((self.mid - theta) / two_pi))
            slack = mp.mpf(4 * 2.0 ** -52)
            return self.lo - slack <= theta <= self.hi + slack


# --- extended-precision mini-tracer over the obstacle scene ----------------

class _HPScene:
    __slots__ = ("centers", "r0", "r0sq", "Rsq")

    def __init__(self, scene: Scene):
        import mpmath as mp

        self.centers = [(mp.mpf(c.x), mp.mpf(c.y)) for c in scene.centers]
        self.r0 = mp.mpf(scene.r0)
        self.r0sq = self.r0 * self.r0
        R = mp.mpf(scene.outer_radius)
        self.Rsq = R * R


def _hp_advance(sc: _HPScene, px, py, dx, dy, nb: int):
    """First nb bounces: (symbols, times, final outgoing state).

    symbols[k] is the obstacle index, or 0 if the outer wall was reached
    (tracing stops there)."""
    import mpmath as mp

    symbols: List[int] = []
    times: List[Any] = []
    t_acc = px - px  # zero at working precision
    for _ in range(nb):
        best_t = None
        best_j = 0
        for j in (0, 1, 2):
            cx, cy = sc.centers[j]
            rx = px - cx
            ry = py - cy
            b = dx * rx + dy * ry
            if b >= 0:  # not approaching this circle
                continue
            disc = b * b - (rx * rx + ry * ry - sc.r0sq)
            if disc <= 0:
                continue
            tt = -b - mp.sqrt(disc)
            if tt > 0 and (best_t is None or tt < best_t):
                best_t = tt
                best_j = j + 1
        if best_t is None:
            b = dx * px + dy * py
            disc = b * b - (px * px + py * py - sc.Rsq)
            t_out = -b + mp.sqrt(disc)
            t_acc = t_acc + t_out
            symbols.append(0)
            times.append(t_acc)
            px, py = px + t_out * dx, py + t_out * dy
            return symbols, times, (px, py, dx, dy)
        t_acc = t_acc + best_t
        qx, qy = px + best_t * dx, py + best_t * dy
        cx, cy = sc.centers[best_j - 1]
        nx, ny = (qx - cx) / sc.r0, (qy - cy) / sc.r0
        dot = dx * nx + dy * ny
        dx, dy = dx - 2 * dot * nx, dy - 2 * dot * ny
        px, py = qx, qy
        symbols.append(best_j)
        times.append(t_acc)
    return symbols, times, (px, py, dx, dy)


def _hp_trace(scene: Scene, A: Point2, eta, n: int, bits: int):
    """(symbols, times) of the first n bounces from A at angle eta, traced
    at `bits` of working precision (see _hp_advance)."""
    import mpmath as mp

    with mp.workprec(bits):
        sc = _HPScene(scene)
        symbols, times, _ = _hp_advance(sc, mp.mpf(A.x), mp.mpf(A.y),
                                        mp.cos(eta), mp.sin(eta), n)
    return symbols, times


def _solver_bits(n: int) -> int:
    # per-symbol contraction is at most ~2^6.2 here; 8 bits/symbol is ample
    return 96 + 8 * n


def _refine_endpoint(miss, good, eta_in, g_in, side_end, r0, rel_tol):
    """Angle where the next bounce becomes tangent, between eta_in (which
    realizes the extended prefix, |miss| < r0) and side_end (which does not).

    The miss-distance is close to linear across the admissible band, so a
    secant through two in-band points converges in a handful of steps; every
    proposal stays bracketed, with bisection as the degenerate fallback.
    Returns a point on the in-band side of the tangency, within rel_tol of it.
    """
    import mpmath as mp

    span = side_end - eta_in
    tol = abs(span) * rel_tol
    # second in-band sample toward the target side, for the secant slope
    step = mp.mpf(1) / 64
    e1 = g1 = None
    for _ in range(7):
        cand = eta_in + span * step
        g = miss(cand)
        if g is not None and abs(g) < r0 and g != g_in:
            e1, g1 = cand, g
            break
        step = step / 4
    if e1 is None:
        # band thinner than resolution of the probe ladder: plain bisection
        e_in, e_out = eta_in, side_end
        while abs(e_out - e_in) > tol:
            m = (e_in + e_out) / 2
            if good(m):
                e_in = m
            else:
                e_out = m
        return e_in

    tgt = r0 if g1 > g_in else -r0  # boundary value approached on this side
    e_prev, g_prev = eta_in, g_in
    e_cur, g_cur = e1, g1
    e_out = side_end  # invariant: tangency lies in (e_cur-ish, e_out)
    e_best = e1
    g_stop = r0 * rel_tol * 16
    for _ in range(200):
        if abs(e_out - e_best) <= tol:
            break
        if abs(e_cur - e_prev) <= tol and abs(g_cur - tgt) < g_stop:
            break  # secant landed on the tangency to working tolerance
        e_next = None
        if g_cur != g_prev:
            e_next = e_cur - (g_cur - tgt) * (e_cur - e_prev) / (g_cur - g_prev)
            lo_b, hi_b = (e_best, e_out) if e_best < e_out else (e_out, e_best)
            if not (lo_b < e_next < hi_b):
                e_next = None
        if e_next is None:
            e_next = (e_best + e_out) / 2
        g_next = miss(e_next)
        if g_next is not None and abs(g_next) < r0:
            e_prev, g_prev = e_cur, g_cur
            e_cur, g_cur = e_next, g_next
            e_best = e_next
        else:
            # out of band: tighten the outer bound; the stale secant pair then
            # fails the bracket clamp and the next step bisects
            e_out = e_next
    return e_best


def solve_itinerary(scene: Scene, A: Point2, prefix: Itinerary) -> AngleInterval:
    """Interval of initial angles at A realizing the itinerary prefix.

    Endpoints are refined to REL_TOL of the bracket width via bracketed secant
    on the signed miss-distance of the next bounce (with predicate bisection
    as fallback); every returned interval is verified by re-tracing its
    midpoint."""
    if scene.kind != OBSTACLE:
        raise ValueError("itineraries require the obstacle scene")
    n = len(prefix)
    if n < 1:
        raise ValueError("prefix must have length >= 1")
    bits = _solver_bits(n)
    if bits > 6000:
        raise NumericFailure(f"word length {n} needs {bits} bits; cap exceeded")
    _check_start(scene, A)
    import mpmath as mp

    # step 0: tangent cone from A to the first circle
    with mp.workprec(_solver_bits(1)):
        sc = _HPScene(scene)
        ax, ay = mp.mpf(A.x), mp.mpf(A.y)
        c0x, c0y = sc.centers[prefix[0] - 1]
        d0 = mp.sqrt((c0x - ax) ** 2 + (c0y - ay) ** 2)
        theta_c = mp.atan2(c0y - ay, c0x - ax)
        half = mp.asin(sc.r0 / d0)
        lo, hi = theta_c - half, theta_c + half
        mid = (lo + hi) / 2
    if _hp_trace(scene, A, mid, 1, _solver_bits(1))[0] != [prefix[0]]:
        raise EmptyInterval(f"first symbol {prefix[0]} unreachable from {A}")

    for i in range(1, n):
        # working precision grows with depth; scene constants are exact
        # float64 images, so per-depth contexts stay mutually consistent
        with mp.workprec(_solver_bits(i + 1)):
            sc = _HPScene(scene)
            ax, ay = mp.mpf(A.x), mp.mpf(A.y)

            def launch(eta):
                return ax, ay, mp.cos(eta), mp.sin(eta)

            def symbols_at(eta, k):
                px, py, dx, dy = launch(eta)
                s, _, _ = _hp_advance(sc, px, py, dx, dy, k)
                return s

            def miss(eta, i=i):
                """Signed perpendicular offset of bounce i's outgoing ray to
                the next target circle, or None when the prefix breaks."""
                px, py, dx, dy = launch(eta)
                s, _, (qx, qy, ux, uy) = _hp_advance(sc, px, py, dx, dy, i)
                if s != list(prefix.word[:i]):
                    return None
                cx, cy = sc.centers[prefix[i] - 1]
                wx, wy = cx - qx, cy - qy
                if ux * wx + uy * wy <= 0:  # target behind the ray
                    return None
                return ux * wy - uy * wx

            width = hi - lo
            target = prefix[i]

            def good(eta):
                return symbols_at(eta, i + 1) == list(prefix.word[: i + 1])

            # seed: an angle whose bounce i hits the target
            eta_in = None
            mid = (lo + hi) / 2
            g_mid = miss(mid, i)
            if g_mid is not None and abs(g_mid) < sc.r0 and good(mid):
                eta_in = mid
            if eta_in is None and g_mid is not None:
                # secant toward miss = 0
                e0, g0 = mid, g_mid
                e1 = mid + width / 64
                g1 = miss(e1, i)
                for _ in range(24):
                    if g1 is None or g1 == g0:
                        break
                    e2 = e1 - g1 * (e1 - e0) / (g1 - g0)
                    if not (lo < e2 < hi):
                        break
                    g2 = miss(e2, i)
                    e0, g0, e1, g1 = e1, g1, e2, g2
                    if g2 is not None and abs(g2) < sc.r0 / 2:
                        if good(e2):
                            eta_in = e2
                        break
            if eta_in is None:
                # scan fallback (the miss function need not be monotone)
                found = False
                for npts in (17, 65, 257, 1025):
                    for k in range(1, npts):
                        eta = lo + width * k / npts
                        if good(eta):
                            eta_in = eta
                            found = True
                            break
                    if found:
                        break
                if not found:
                    raise EmptyInterval(
                        f"no extension to symbol {target} at depth {i}")

            g_in = miss(eta_in)
            new_ends = [
                _refine_endpoint(miss, good, eta_in, g_in, side_end, sc.r0,
                                 mp.mpf(REL_TOL))
                for side_end in (lo, hi)
            ]
            lo, hi = min(new_ends), max(new_ends)
            if not lo < hi:
                raise NumericFailure(
                    f"interval collapsed at depth {i} (bits={bits})")

    with mp.workprec(bits):
        mid = (lo + hi) / 2
    if _hp_trace(scene, A, mid, n, bits)[0] != list(prefix.word):
        raise NumericFailure("midpoint fails to realize the prefix")
    return AngleInterval(lo=lo, hi=hi, bits=bits)


# --- float64 shadowing realizer (shared with the evader) ---------------------
#
# Orbits are parallel x/y lists.  The arithmetic keeps the operation order of
# the numpy version this replaced (row norms as sqrt(x*x + y*y), the norm of
# a single vector as _fused_norm, each leg's unit vector divided by its norm
# before two are combined, (r0 * s) / |s|, a sequential sum of the leg
# lengths), so its points are the same bit for bit.

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

    Each Jacobi sweep moves every interior node to the point of its circle
    where the equal-angle reflection law holds for its current neighbours,
    and the final node to the point of its circle nearest the node before it
    (the last leg is length-minimizing), until no node moves by tol.  Whether
    the legs form a billiard path is left to the caller.

    Returns (points, times): m + 1 (x, y) tuples with points[0] = start, and
    their cumulative leg lengths.  Raises RealizationFailure, carrying the
    last sweep's points, when max_sweeps sweeps do not converge."""
    if len(circles) < 1:
        raise RealizationFailure("need at least one circle to shadow")
    sqrt = math.sqrt
    r0 = scene.r0
    centers = _centers(scene)
    cx = [centers[j - 1][0] for j in circles]
    cy = [centers[j - 1][1] for j in circles]
    xs, ys = [float(start[0])], [float(start[1])]
    for x, y in zip(cx, cy):
        # every node starts at the point of its circle nearest the origin
        n = sqrt(x * x + y * y)
        xs.append(x - r0 * x / n)
        ys.append(y - r0 * y / n)
    m = len(circles)
    move = math.inf
    for _ in range(max_sweeps):
        nxs, nys = [xs[0]], [ys[0]]
        add_x, add_y = nxs.append, nys.append
        worst = 0.0  # largest squared node move of this sweep
        # (x, y) is node k and (ix, iy) the unit vector of the leg into it;
        # the one out of it is the next leg's, and node k's bisector is
        # (out - in)
        x, y = xs[1], ys[1]
        dx, dy = x - xs[0], y - ys[0]
        n = sqrt(dx * dx + dy * dy)
        ix, iy = dx / n, dy / n
        for x1, y1, ccx, ccy in zip(xs[2:], ys[2:], cx, cy):
            dx, dy = x1 - x, y1 - y
            n = sqrt(dx * dx + dy * dy)
            ox, oy = dx / n, dy / n
            bx, by = ox - ix, oy - iy
            nb = sqrt(bx * bx + by * by)
            if nb > 1e-14:
                qx = ccx + r0 * bx / nb
                qy = ccy + r0 * by / nb
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
        dx, dy = xs[m - 1] - cx[m - 1], ys[m - 1] - cy[m - 1]
        n = _fused_norm(dx, dy)
        qx, qy = cx[m - 1] + r0 * dx / n, cy[m - 1] + r0 * dy / n
        dx, dy = qx - x, qy - y
        move = sqrt(max(worst, dx * dx + dy * dy))
        add_x(qx)
        add_y(qy)
        xs, ys = nxs, nys
        if move < tol:
            break
    else:
        raise RealizationFailure(
            f"shadowing of {len(circles)} bounces did not converge in "
            f"{max_sweeps} sweeps (last move {move:.3e} >= tol {tol:.1e})",
            move=move, sweeps=max_sweeps, points=list(zip(xs, ys)))
    times = [0.0]
    t = 0.0
    for k in range(m):
        dx, dy = xs[k + 1] - xs[k], ys[k + 1] - ys[k]
        t += sqrt(dx * dx + dy * dy)
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


def orbit_to_trajectory(scene: Scene, circles: Sequence[int], P, times,
                        start_circle: Optional[int] = None) -> Trajectory:
    """Trajectory through the shadowed points P (as returned by shadow_orbit
    for `circles`), starting at P[0] along the first leg.  With start_circle,
    P[0] is itself a bounce on that circle and is recorded as the first event,
    its incoming leg synthesized as the mirror image of the outgoing one.
    The horizon is times[-1], the last bounce, so the events cover it."""

    def mirror(d: Direction, pt: Point2, j: int) -> Direction:
        c = scene.centers[j - 1]
        nx, ny = (pt.x - c.x) / scene.r0, (pt.y - c.y) / scene.r0
        dx, dy = d.vec
        dot = dx * nx + dy * ny
        return Direction.from_vec(dx - 2 * dot * nx, dy - 2 * dot * ny)

    pts = [Point2(x, y) for x, y in P]
    legs = [Direction.from_vec(x1 - x0, y1 - y0)
            for (x0, y0), (x1, y1) in zip(P, P[1:])]

    def event(k: int, j: int, inc: Direction, out: Direction) -> BounceEvent:
        return BounceEvent(time=times[k], point=pts[k], wall=f"obstacle{j}",
                           tangential=False, in_dir=inc, out_dir=out)

    events: List[BounceEvent] = []
    out = legs[0]
    if start_circle is not None:
        events.append(event(0, start_circle,
                            mirror(out, pts[0], start_circle), out))
    start = RayState(pos=pts[0], dir=out, time=0.0)
    m = len(circles)
    for k in range(1, m + 1):
        inc = legs[k - 1]
        out = legs[k] if k < m else mirror(inc, pts[k], circles[k - 1])
        events.append(event(k, circles[k - 1], inc, out))
    return Trajectory(scene=scene, start=start, events=events,
                      horizon=times[-1])


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
    return orbit_to_trajectory(scene, prefix.word, P, times)


@dataclass
class StabilityReport:
    word: Itinerary
    trials: int
    spread_final: float          # spread of (t_n - t_0) across the sample
    bound: float                 # 3 * C * r0 with C = 1
    per_depth_spread: List[float]  # spread of flight time tau_k, k = 0..n-2
    fit_slope: float             # log(spread) per unit (n - k)
    log_rho: float
    rho: float

    def to_dict(self) -> dict:
        return {
            "word": self.word.to_string(),
            "trials": self.trials,
            "spread_final": self.spread_final,
            "bound": self.bound,
            "per_depth_spread": self.per_depth_spread,
            "fit_slope": self.fit_slope,
            "log_rho": self.log_rho,
            "rho": self.rho,
        }


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
    import mpmath as mp

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
        with mp.workprec(bits):  # the offsets underflow at float precision
            eta_a = iv_a.lo + iv_a.width * mp.mpf(ua)
            eta_b = iv_b.lo + iv_b.width * mp.mpf(ub)
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
