"""The exact lattice walk shared by the t-GCC check and the occupancy
diagnostics: a brute-force oracle property, and digests that pin the
results of both callers bit for bit."""

import hashlib
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geocatch.analysis import occupancy, subsequence_grc
from geocatch.catcher import CatcherPath, build_catcher
from geocatch.cli import _report
from geocatch.flow import RayState, flow_torus, trace
from geocatch.geometry import Direction, Point2, disk, rectangle, torus
from geocatch.tgcc import check_tgcc, lattice_intervals

T1 = torus(1.0)
TOL = 1e-6     # endpoint agreement between the kernel and the oracle
GRAZE = 1e-7   # copies this close to tangency are left undecided


def brute_intervals(zx, zy, rx, ry, tA, tB, rho):
    """In-ball intervals of every lattice copy within one unit of the segment,
    each from its own perpendicular distance, clipped to [tA, tB] and sorted.
    Returns None when some copy grazes its ball or touches it only at a
    window end, where float rounding may decide either way."""
    a = rx * rx + ry * ry
    xs = (zx + rx * tA, zx + rx * tB)
    out = []
    for m in range(math.floor(min(xs)) - 1, math.ceil(max(xs)) + 2):
        # times at which the line is within one unit of column m
        if rx == 0.0:
            ta, tb = tA, tB
        else:
            ta, tb = sorted(((m - 1 - zx) / rx, (m + 1 - zx) / rx))
            ta, tb = max(ta, tA), min(tb, tB)
            if ta > tb:
                continue
        ys = (zy + ry * ta, zy + ry * tb)
        for n in range(math.floor(min(ys)) - 1, math.ceil(max(ys)) + 2):
            dx, dy = zx - m, zy - n
            miss = abs(dx * ry - dy * rx) / math.sqrt(a)
            if abs(miss - rho) < GRAZE:
                return None
            if miss >= rho:
                continue
            tstar = -(dx * rx + dy * ry) / a
            half = math.sqrt((rho * rho - miss * miss) / a)
            lo, hi = tstar - half, tstar + half
            if min(abs(hi - tA), abs(lo - tB)) < TOL:
                return None
            if hi > tA and lo < tB:
                out.append((max(lo, tA), min(hi, tB)))
    return sorted(out)


@st.composite
def lattice_lines(draw):
    """Lines with slopes p/q for q = 1, 2 (the periodicity certificate), p/q
    for q >= 3 (the full walk) or generic, windows up to 1e4 long, some of
    them starting inside a column slab, and radii up to 0.3."""
    kind = draw(st.sampled_from(("certified", "rational", "generic")))
    if kind == "generic":
        angle = draw(st.floats(0.0, math.pi / 2))
    else:
        q = draw(st.sampled_from((1, 2) if kind == "certified" else (3, 5, 7, 12)))
        angle = math.atan2(draw(st.integers(0, 2 * q)), q)
    angle += draw(st.sampled_from((0.0, 0.5, 1.0, 1.5))) * math.pi
    if draw(st.booleans()):
        angle = math.pi / 2 - angle  # slope q/p
    speed = draw(st.floats(0.5, 1.5))
    rx, ry = speed * math.cos(angle), speed * math.sin(angle)
    tA = draw(st.floats(-5.0, 1e4))
    length = draw(st.sampled_from((3.0, 100.0, 1e3, 1e4))) * draw(st.floats(0.5, 1.0))
    zx, zy = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    rho = draw(st.floats(0.01, 0.3))
    if draw(st.booleans()):
        # start the window inside a column slab of the slower axis, so the
        # first column's window is cut by tA
        u = draw(st.floats(-0.95, 0.95)) * rho
        if abs(rx) <= abs(ry):
            zx = (u - rx * tA) % 1.0
        else:
            zy = (u - ry * tA) % 1.0
    return zx, zy, rx, ry, tA, tA + length, rho


def _assert_close(got, want):
    assert len(got) == len(want)
    for (a, b), (c, d) in zip(got, want):
        assert abs(a - c) < TOL and abs(b - d) < TOL


@settings(max_examples=150, deadline=None, derandomize=True)
@given(line=lattice_lines())
def test_kernel_matches_brute_force(line):
    want = brute_intervals(*line)
    assume(want is not None)
    got = [iv for iv in lattice_intervals(*line) if iv[1] - iv[0] > TOL]
    _assert_close(got, want)
    assert got == sorted(got)  # yielded in time order
    first = next(lattice_intervals(*line), None)
    if want:
        _assert_close([first], want[:1])
    else:
        assert first is None or first[1] - first[0] <= TOL


@settings(max_examples=300, deadline=None, derandomize=True)
@given(line=lattice_lines())
def test_kernel_yields_disjoint_intervals_in_time_order(line):
    # occupancy sums the intervals in one pass and relies on this order,
    # zero-length touches included
    got = list(lattice_intervals(*line))
    assert all(lo <= hi for lo, hi in got)
    assert all(b <= c for (_, b), (c, _) in zip(got, got[1:]))


def test_kernel_certificate_on_rational_slopes():
    # slope 1/2 hits once every two columns, all the way along
    line = (0.5, 0.27, 1.0, 0.5, 0.0, 1e3, 0.1)
    got = list(lattice_intervals(*line))
    assert len(got) == 500
    _assert_close(got, brute_intervals(*line))


def test_chord_end_is_clipped_to_its_column_window():
    # a line of the torus_tgcc occupancy workload that leaves its ball near
    # the ball's extreme point in x: the raw exit tstar + dt rounds to
    # 47146.487741082274, one ulp past the end of column 18042's window
    # (|x - 18042| < rho), which holds the ball.  The kernel yields the
    # window end; the occupancy walk before the merge kept the raw exit.
    zx = 0.3897613349112493 - 0.4695140509159724
    zy = 0.3395948125096854 - 0.6645415779979692
    rx, ry = Direction(5.105088062083414).vec
    window_end = ((18042 + 0.1) - zx) / rx
    assert window_end == 47146.48774108227
    got = list(lattice_intervals(zx, zy, rx, ry, 47146.0, 47147.0, 0.1))
    assert got == [(47146.411203387506, window_end)]


def test_offset_beyond_float_resolution_walks_as_a_lattice_point():
    # every float from 2**52 on is an integer, so these lines run through
    # lattice points as the line through the origin does; the walk once
    # stepped rows by 1 at a magnitude where that changes no float
    want = list(lattice_intervals(0.0, 0.0, 0.6, 0.8, 0.0, 50.0, 0.1))
    assert len(want) > 10
    for zx, zy in ((1e300, 0.0), (0.0, -1e300), (2.0 ** 52, 1e20)):
        assert list(lattice_intervals(zx, zy, 0.6, 0.8, 0.0, 50.0, 0.1)) == want


def _digest(values) -> str:
    return hashlib.sha256("\n".join(map(repr, values)).encode()).hexdigest()


def test_golden_first_hits_and_occupancy():
    """Digests of both callers' results; any change to either shows here.
    The catcher and occupancy digests were recorded before the t-GCC walk
    and the occupancy walk were merged into one kernel.  The static digest
    was recorded after a column window cut by the start time stopped
    certifying misses: the pre-merge walk reported 12 of these 2048
    samples as never caught."""
    path = build_catcher(T1, eps=0.2, v=0.05, horizon=4e7)
    rep = check_tgcc(T1, path, T=4e7, n_pos=64, n_ang=32)
    assert _digest(rep.first_hits) == (
        "5af7ec508f8bcb7797681a65265d35a373eb538f9833db446f2d145c7c2614f0")
    centre = Point2(0.5, 0.5)
    static = CatcherPath(waypoints=[(0.0, centre), (200.0, centre)],
                         eps=0.2, v=0.0, scene=T1)
    rep = check_tgcc(T1, static, T=200.0, n_pos=64, n_ang=32)
    assert _digest(rep.first_hits) == (
        "187488c31b42916a22f0e075dd6fcf3d53d2f7e2edc93d762277bc9d8956902b")
    fractions = []
    for k, slope in enumerate((math.sqrt(2.0) - 1.0, (math.sqrt(5.0) - 1.0) / 2,
                               math.pi - 3.0, math.e - 2.0)):
        tr = flow_torus(1.0, Point2(0.1 * k, 0.3), Direction.from_vec(1.0, slope),
                        1e5)
        fractions += occupancy(tr, Point2(0.5, 0.45), 0.1,
                               [1e3, 1e4, 1e5]).fractions
    assert _digest(fractions) == (
        "cbc46feef2750f27b9db1027df6d7295e0d0ee8786425fd7f4c0d5355a22d9ac")


def test_golden_bounded_occupancy_and_subsequence_grc():
    """Digests recorded on Python 3.11 before occupancy and subsequence_grc
    became single streaming passes.  The bounded horizons fall before the first chord, at
    a chord's end and inside a chord; the sums are left to right, so the
    fractions do not depend on how the Python version's sum() rounds.  The
    subsequence reports are hashed as grc.json's payload of them, which
    keeps the digest recorded on the reports' former to_dict."""
    rect = trace(rectangle(2.0, 1.0), RayState(Point2(0.31, 0.47), Direction(0.83)),
                 horizon=300.0)
    dsk = trace(disk(1.0), RayState(Point2(0.2, -0.1), Direction(1.1)),
                horizon=300.0)
    fractions = occupancy(rect, Point2(1.3, 0.6), 0.2,
                          [1.0, 27.464983424677186, 30.9, 100.0, 300.0]).fractions
    fractions += occupancy(dsk, Point2(0.3, 0.4), 0.25,
                           [0.2, 14.341187203830946, 15.0, 100.0, 300.0]).fractions
    assert _digest(fractions) == (
        "36259c0b87e131b3c14eba57180dab03bcd888bfb36ed47e584cefd7ef5fdf88")
    line = flow_torus(1.0, Point2(0.1, 0.2),
                      Direction.from_vec(1.0, math.sqrt(2.0) - 1.0), 2000.0)
    reports = [_report(subsequence_grc(line, 0.1, [500.0, 2000.0])),
               _report(subsequence_grc(rect, 0.2, [100.0, 300.0]))]
    assert _digest(reports) == (
        "67eabf33228daafce9acbf14ae72306f6bc589bac9a8735d971b637d689d658a")
