"""Construction of a geodesic avoiding a given slow moving ball on the
three-disc scattering domain.

The planner keeps the evader inside a zone (stadium hull of two scatterers)
until the fattened ball first threatens it, and switches SWITCH_SLACK before
that through the circle the two zones share.  One rule picks the zone at
t = 0 and at every switch: the first zone in preference order, other than
the current one, that the fattened ball leaves clean over
[t - SWITCH_SLACK, t + LOOKAHEAD].  Threats are exact and read no speed
bound (_first_threat, which the schedule validator asks too).
The realizer turns the planned zone blocks into an explicit bounce chain by
relaxing bounce points on their circles until the equal-angle reflection law
holds at every node (symbolic.shadow_orbit, which also realizes itineraries);
bounce counts per block are chosen adaptively, reading the realized block-end
time off the partial orbit before sizing the next block, so realized switch
times land within 3 seconds of the planned ones (shared-prefix time stability
keeps those readings meaningful).  Each block is relaxed in a window that
reaches CONTEXT accepted bounces back, and the accepted windows are the
certificate's geodesic: nothing relaxes the whole word.

The checks are exact.  The verifier minimizes the separation of geodesic
and ball center on the pieces of the t-GCC check's own polyline kernel
(flow.contact), so a verified geodesic is exactly one that check_tgcc leaves
uncaught.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .geometry import (
    OBSTACLE,
    Point2,
    Scene,
    ZONE_PAIRS,
    _Value,
    segment_distance,
    zone_segment,
)
from .flow import Trajectory, check_covers, contact, legs, motion, pieces
from .catcher import CatcherPath
from .symbolic import (Itinerary, RealizationFailure, _fused_norm,
                       orbit_to_trajectory, shadow_orbit)

SWITCH_SLACK = 3.0   # allowed |T'_j - T_j|
MIN_GAP = 10.0       # minimal spacing of planned switch times
LOOKAHEAD = 20.0     # clean-window horizon secured at each switch
PLAN_MARGIN = 0.02   # plan against a ball fattened by this margin
# accepted bounces re-relaxed before each candidate block while sizing it: a
# perturbation decays by ~1/40 per bounce, so 16 leave the earlier ones final
# to far below float64 resolution
CONTEXT = 16
_NODE = struct.Struct("3d")  # a node (x, y, t) of the accepted orbit


class PlanningFailure(Exception):
    """No admissible zone exists at some switch (ball too large or fast)."""


class ZoneSchedule(NamedTuple):
    times: List[float]          # 0 = T_0 < T_1 < ... < T_{n-1}
    zones: List[int]            # a_0 ... a_{n-1}, consecutive entries differ
    T: float


def validate_schedule(schedule: ZoneSchedule, path: CatcherPath,
                      scene: Scene) -> List[str]:
    """Check of the three schedule invariants that trusts no planner
    decision; returns a list of violation messages (empty when the schedule
    is sound).  Each block, widened by SWITCH_SLACK, must leave its zone
    clean of the ball of radius eps (_first_threat)."""
    errs = []
    ts, zs = schedule.times, schedule.zones
    if len(ts) != len(zs) or not ts or ts[0] != 0.0:
        return ["times/zones malformed"]
    for a, b in zip(ts, ts[1:]):
        if b - a < MIN_GAP - 1e-9:
            errs.append(f"switch gap {b - a:.3f} < {MIN_GAP}")
    for a, b in zip(zs, zs[1:]):
        if a == b:
            errs.append("consecutive zones equal")
    for j, (t0, t1, a) in enumerate(zip(ts, ts[1:] + [schedule.T], zs)):
        if _first_threat(path, scene, a, t0 - SWITCH_SLACK, t1 + SWITCH_SLACK,
                         path.eps) is not None:
            errs.append(f"ball touches zone {a} during block {j}")
    return errs


def _first_threat(path: CatcherPath, scene: Scene, a: int, t_from: float,
                  t_to: float, radius: float) -> Optional[float]:
    """Earliest time in [t_from, t_to] at which the open ball of the given
    radius about the center meets zone a, or None.  Exact: a center leg's
    part walked by t is within radius of the zone (distance from its axis
    segment, less r0) from that time on; bisected to float resolution."""
    ca, cb = zone_segment(scene, a)

    def meets(m, ta, t):
        p, q = (Point2(*motion(m, s)[:2]) for s in (ta, t))
        return segment_distance(p, q, ca, cb) - scene.r0 < radius

    for ta, tb, m in legs(path.knots(t_from), t_from, t_to):
        if meets(m, ta, tb):
            if meets(m, ta, ta):
                return ta
            lo, hi = ta, tb
            while lo < (mid := (lo + hi) / 2) < hi:
                lo, hi = (lo, mid) if meets(m, ta, mid) else (mid, hi)
            return hi
    return None


def _zone_preference(path: CatcherPath, scene: Scene, t: float) -> List[int]:
    """Planner tie-break: first the zone whose defining circles exclude the
    obstacle nearest the ball's forecast position, then lowest index."""
    c = path.center(t + LOOKAHEAD)
    nearest = min(((math.hypot(c.x - sc.x, c.y - sc.y), j + 1)
                   for j, sc in enumerate(scene.centers)))[1]
    return sorted((1, 2, 3), key=lambda a: (a != nearest, a))


def _clean_zone(path: CatcherPath, scene: Scene, t: float,
                current: Optional[int], eps_eff: float) -> Optional[int]:
    """The first zone in _zone_preference order, other than the current one,
    that the fattened ball leaves clean over [t - SWITCH_SLACK, t + LOOKAHEAD],
    or None."""
    for a in _zone_preference(path, scene, t):
        if a != current and _first_threat(path, scene, a, t - SWITCH_SLACK,
                                          t + LOOKAHEAD, eps_eff) is None:
            return a
    return None


def plan_schedule(path: CatcherPath, T: float, scene: Scene) -> ZoneSchedule:
    """Greedy zone segmentation: stay in the current zone until the widened
    avoidance window is about to fail, then switch to a zone that is clean
    over the lookahead."""
    if scene.kind != OBSTACLE:
        raise ValueError("evader planning requires the obstacle scene")
    if T <= 0:
        raise ValueError("T must be positive")
    eps_eff = path.eps + PLAN_MARGIN
    cur = _clean_zone(path, scene, 0.0, None, eps_eff)
    if cur is None:
        raise PlanningFailure("no clean zone at t = 0")
    times, zones = [0.0], [cur]
    t_cur = 0.0
    while True:
        threat = _first_threat(path, scene, cur, t_cur, T + SWITCH_SLACK,
                               eps_eff)
        if threat is None or threat - SWITCH_SLACK >= T:
            return ZoneSchedule(times=times, zones=zones, T=T)
        t_switch = threat - SWITCH_SLACK
        if t_switch < t_cur + MIN_GAP:
            raise PlanningFailure(
                f"zone {cur} threatened at {threat:.2f}, too soon after the "
                f"switch at {t_cur:.2f} (ball too large or too fast)")
        cur = _clean_zone(path, scene, t_switch, cur, eps_eff)
        if cur is None:
            raise PlanningFailure(f"no admissible zone at t = {t_switch:.2f}")
        times.append(t_switch)
        zones.append(cur)
        t_cur = t_switch


# --- zone-block word assembly and shadowing realization ---------------------

def _pivot(a: int, b: int) -> int:
    (rest,) = {1, 2, 3} - {a, b}
    return rest


def _alternating(first: int, other: int, count: int) -> List[int]:
    return [first if k % 2 == 0 else other for k in range(count)]


def _assemble_word(schedule: ZoneSchedule, scene: Scene):
    """Zone blocks to a bounce word and its shadowed orbit, block by block.
    Each block is relaxed with the CONTEXT accepted bounces before it, pinned
    at the accepted orbit's bounce before those, and the window replaces
    that tail of the orbit.  An interior block's bounce count is adjusted in
    parity-preserving steps of two until the block-end time read off the
    window lands near the planned switch; the last block is relaxed once.
    Returns (word, block_starts, orbit): the orbit packed in a bytearray,
    a _NODE (x, y, t) per symbol of the word."""
    ts, zs, T = schedule.times, schedule.zones, schedule.T
    n = len(zs)
    word: List[int] = []
    starts: List[int] = []
    orbit = bytearray()  # accepted orbit of word
    t_now = 0.0
    leg_est = 1.001  # alternating legs equal the unit gap up to the wobble
    for j in range(n):
        starts.append(len(word))
        p, q = ZONE_PAIRS[zs[j]]
        first = p if not word or word[-1] == q else q
        if j + 1 < n:
            piv = _pivot(zs[j], zs[j + 1])
            oth = p if piv == q else q
            target = ts[j + 1]
            span = target - t_now
            m = max(1, round(span / leg_est))
            if j == 0:
                first = piv if m % 2 == 1 else oth  # free choice fixes parity
            else:
                want_odd = (piv == first)  # last symbol must be the pivot
                if (m % 2 == 1) != want_odd:
                    m = m + 1 if span / leg_est >= m else max(1, m - 1)
                    if (m % 2 == 1) != want_odd:
                        m += 2
            tries = 8
        else:
            # every leg is at least the inter-circle gap of 1, so this count
            # certainly carries the orbit past T
            m = max(2, math.ceil(T - t_now) + 4)
            target, tries = None, 1
        second = q if first == p else p
        if not word:
            # the orbit leaves the gap point of block 0's first circle facing
            # its second; the rest of the block is relaxed as any other
            (ax, ay), (bx, by) = (scene.centers[first - 1],
                                  scene.centers[second - 1])
            ux, uy = bx - ax, by - ay
            n_u = _fused_norm(ux, uy)
            word = [first]
            orbit += _NODE.pack(ax + scene.r0 * ux / n_u,
                                ay + scene.r0 * uy / n_u, 0.0)
            first, second, m = second, first, m - 1
        s = max(0, len(word) - 1 - CONTEXT)
        x, y, base = _NODE.unpack_from(orbit, _NODE.size * s)
        for _ in range(tries):
            block = _alternating(first, second, m)
            wP, wt = shadow_orbit(scene, (x, y), word[s + 1:] + block)
            t_end = base + wt[-1]
            if target is None or abs(t_end - target) <= 1.5:
                break
            dev = t_end - target
            leg_meas = t_end / (len(word) + m - 1)
            shift = 2 * round(dev / (2 * leg_meas))
            if shift == 0:
                shift = 2 if dev > 0 else -2
            if m - shift < 1:
                break
            m -= shift
        word += block
        del orbit[_NODE.size * s:]
        orbit += b"".join(_NODE.pack(px, py, base + t)
                          for (px, py), t in zip(wP, wt))
        t_now = t_end
    return word, starts, orbit


class EvasionCertificate(_Value):
    """verify_evasion fills in min_distance and margin."""
    __slots__ = _fields = ("geodesic", "schedule", "word", "realized_switches",
                           "min_distance", "margin")
    __hash__ = None

    def __init__(self, geodesic: Trajectory, schedule: ZoneSchedule,
                 word: Itinerary, realized_switches: List[float],
                 min_distance: float = math.nan, margin: float = math.nan):
        self.geodesic = geodesic
        self.schedule = schedule
        self.word = word
        self.realized_switches = realized_switches
        self.min_distance = min_distance
        self.margin = margin


def realize_schedule(schedule: ZoneSchedule, scene: Scene) -> EvasionCertificate:
    """Bounce word and explicit geodesic realizing the zone schedule with
    switch times within SWITCH_SLACK of the planned ones: the orbit that
    _assemble_word accepted block by block, read as it stands."""
    if scene.kind != OBSTACLE:
        raise ValueError("evader realization requires the obstacle scene")
    ts, zs, T = schedule.times, schedule.zones, schedule.T
    word, starts, orbit = _assemble_word(schedule, scene)

    def time_at(k):
        return _NODE.unpack_from(orbit, _NODE.size * k)[2]

    realized = [0.0] + [time_at(starts[j + 1] - 1) for j in range(len(zs) - 1)]
    worst = max((abs(r - t) for r, t in zip(realized, ts)), default=0.0)
    if worst > SWITCH_SLACK:
        raise RealizationFailure(
            f"switch deviation {worst:.3f} exceeds {SWITCH_SLACK}: "
            f"planned {ts}, realized {realized}")
    if time_at(len(word) - 1) < T:
        raise RealizationFailure(
            f"assembled word covers {time_at(len(word) - 1):.2f} < T = {T}")
    tr = orbit_to_trajectory(scene, word[1:], _NODE.iter_unpack(orbit),
                             start_circle=word[0])
    return EvasionCertificate(
        geodesic=tr, schedule=schedule, word=Itinerary(tuple(word)),
        realized_switches=realized)


def _floor_sqrt(q) -> float:
    """The largest float whose square does not exceed q >= 0 (a float or a
    Fraction), exactly."""
    f = math.sqrt(q)
    q = Fraction(q)
    while f > 0 and Fraction(f) ** 2 > q:
        f = math.nextafter(f, 0.0)
    while Fraction(math.nextafter(f, math.inf)) ** 2 <= q:
        f = math.nextafter(f, math.inf)
    return f


def verify_evasion(cert: EvasionCertificate, path: CatcherPath,
                   T: float) -> bool:
    """Exact separation check over [0, T]: whether the geodesic stays at
    distance >= eps from the ball's center.

    The minimum of flow.contact over the pieces of geodesic and center: the
    t-GCC hit search's pieces and decision, exact where floats cannot
    decide.  Sets the
    certificate's min_distance to the largest float not above the minimum
    separation, and margin to min_distance - eps.  The geodesic must cover
    [0, T] (flow.OutOfRange)."""
    if not T > 0:
        raise ValueError(f"empty verification interval for T = {T}")
    g = cert.geodesic
    check_covers(g.horizon, T)
    best = math.inf
    for piece in pieces(g.events.knots(g.start, T), path.knots(), 0.0, T):
        q = contact(*piece, path.eps)[0]
        if q < best or q != q:  # a NaN separation sticks
            best = q
    cert.min_distance = math.nan if best != best else _floor_sqrt(best)
    cert.margin = cert.min_distance - path.eps
    return cert.min_distance >= path.eps


def random_slow_path(scene: Scene, eps: float, v: float, T: float,
                     seed: int) -> CatcherPath:
    """Seeded random center path on the obstacle domain: piecewise linear,
    speed at most v, kept clear of the scatterers and the outer wall.
    Raises ValueError when it finds no admissible start."""
    import random as _random
    rng = _random.Random(seed)
    # keep the walk in the central region so it actually menaces the zones
    r_max = min(scene.outer_radius - eps - 0.1, 1.0)
    if r_max <= 0:
        raise ValueError(f"no admissible start for eps = {eps}: the walk's "
                         f"radius outer_radius - eps - 0.1 = {r_max} is not "
                         f"positive")

    rho = scene.r0 + eps + 0.05

    def admissible(px, py):
        return math.hypot(px, py) < r_max and all(
            math.hypot(px - c.x, py - c.y) > rho for c in scene.centers)

    # The point of the walk's disc farthest from every scatterer is its
    # centre or a rim point opposite a scatterer (the centres form an
    # equilateral triangle about the origin): with none of them more than
    # rho from every scatterer, no start exists, and none is drawn.
    candidates = [(0.0, 0.0)] + [(-r_max * c.x / math.hypot(c.x, c.y),
                                  -r_max * c.y / math.hypot(c.x, c.y))
                                 for c in scene.centers]
    if not any(all(math.hypot(px - c.x, py - c.y) > rho
                   for c in scene.centers) for px, py in candidates):
        raise ValueError(f"no admissible start for eps = {eps}: no point of "
                         f"the walk's disc of radius {r_max} lies more than "
                         f"{rho} from every scatterer")

    def step_toward(px, py, tx, ty, step):
        ang = math.atan2(ty - py, tx - px)
        for _ in range(40):
            nx, ny = px + step * math.cos(ang), py + step * math.sin(ang)
            if admissible(nx, ny):
                return nx, ny
            ang = rng.uniform(0, 2 * math.pi)
        return px, py

    draws = 10 ** 6  # bounds the search for a start in a tiny region
    for _ in range(draws):
        x = rng.uniform(-r_max, r_max)
        y = rng.uniform(-r_max, r_max)
        if admissible(x, y):
            break
    else:
        raise ValueError(f"no admissible start for eps = {eps} in {draws} "
                         f"draws")
    mode = seed % 3  # 0: commit to a crossing, 1: orbit the triangle, 2: walk
    if mode == 1:
        # start on the orbital ring
        ring = 0.45 + 0.2 * rng.random()
        phase = rng.uniform(0, 2 * math.pi)
        x, y = ring * math.cos(phase), ring * math.sin(phase)
        if not admissible(x, y):
            ring = 0.9
            x, y = ring * math.cos(phase), ring * math.sin(phase)
    wps: List[Tuple[float, Point2]] = [(0.0, Point2(x, y))]
    t = 0.0
    target = (-x * (0.8 + 0.4 * rng.random()), -y * (0.8 + 0.4 * rng.random()))
    while t < T:
        dt = rng.uniform(10.0, 30.0)
        speed = rng.uniform(0.5, 1.0) * v
        if mode == 0:
            nx, ny = step_toward(x, y, target[0], target[1], speed * dt)
            if math.hypot(nx - target[0], ny - target[1]) < 0.05:
                target = (rng.gauss(0, 0.4), rng.gauss(0, 0.4))
        elif mode == 1:
            phase += speed * dt / max(ring, 0.2)
            cand = (ring * math.cos(phase), ring * math.sin(phase))
            nx, ny = step_toward(x, y, cand[0], cand[1], speed * dt)
        else:
            if rng.random() < 0.5:
                nx, ny = step_toward(x, y, rng.gauss(0, 0.25),
                                     rng.gauss(0, 0.25), speed * dt)
            else:
                ang = rng.uniform(0, 2 * math.pi)
                nx, ny = step_toward(x, y, x + math.cos(ang), y + math.sin(ang),
                                     speed * dt)
        t += dt
        x, y = nx, ny
        wps.append((t, Point2(x, y)))
    return CatcherPath(waypoints=wps, eps=eps, v=v, scene=scene)
