"""The four benchmark workloads: seeded inputs, the ops of one round, and the
checks on every op's output.

A round is a workload's fixed problem. Every round has the same shape (word
lengths, grid sizes, horizons) and fresh content drawn from the seed, chosen
so that rounds do nearly the same work and the fastest one is a fair measure
of it. All inputs of a run are generated at set-up. Ops that a run performs
once (the CLI op, and for itinerary the stability report) come from
``once_ops``.

Ops call the library through attribute lookups on the ``geocatch`` package
(``gc.realize(...)``), so that the traced run can rebind them.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, List

import geocatch as gc
import geocatch.cli  # noqa: F401  (binds gc.cli for the CLI ops)

HERE = Path(__file__).resolve().parent
MAX_ROUNDS = 64  # inputs generated at set-up; a longer run reuses them
OBSTACLE_SPEC = {"kind": "obstacle", "r0": 0.05, "outer_radius": 2.0}
FLOAT_RTOL = 1e-9  # tolerance for floats a CLI op reports back


class CheckFailed(Exception):
    pass


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


@dataclass
class Op:
    kind: str                                   # span name suffix: op.<kind>
    run: Callable[[], Any]
    check: Callable[[Any], None]                # raises CheckFailed
    units: Callable[[Any], int] = lambda out: 0  # work counted by throughput


def _api(name: str, *args, **kwargs):
    """Call geocatch.<name>, looked up at call time (the traced run rebinds it)."""
    return getattr(gc, name)(*args, **kwargs)


def _cli(argv: List[str], out_dir: str, report: str):
    code = gc.cli.main(argv + ["--out", out_dir])
    with open(os.path.join(out_dir, report)) as fh:
        return code, json.load(fh)


def _random_word(rng: random.Random, n: int):
    w = [rng.choice((1, 2, 3))]
    while len(w) < n:
        w.append(rng.choice([s for s in (1, 2, 3) if s != w[-1]]))
    return gc.Itinerary(tuple(w))


# The obstacle scene is symmetric under every permutation of the scatterer
# labels, and A = origin is fixed by all of them. Relabelled words pose
# congruent problems of equal cost, so every round relabels the same base
# words afresh: the inputs change with the seed and the round, the work per
# round does not, and the fastest round is a clean estimate of its cost.
_RELABELLINGS = tuple(itertools.permutations((1, 2, 3)))


def _relabel(word, perm):
    return gc.Itinerary(tuple(perm[s - 1] for s in word.word))


class Itinerary:
    """Solve, realize and re-read admissible words from A = origin on the
    r0 = 0.05 scene (fixed base words, relabelled from the seed); once per
    run, a stability report and the CLI op."""

    name = "itinerary"
    tail_pct = 75
    LENGTHS = (6, 18, 30)
    STABILITY_LEN = 21  # A2's second half: bounce indices 0..20
    STABILITY_TRIALS = 50
    CLI_LEN = 12

    def __init__(self, seed: int, tiny: bool = False):
        base = random.Random(f"{self.name}:base")
        rng = random.Random(f"{self.name}:{seed}")

        def relabelled(w):
            return _relabel(w, rng.choice(_RELABELLINGS))

        self.scene = gc.Scene.from_dict(OBSTACLE_SPEC)
        self.A = gc.Point2(0.0, 0.0)
        lengths = (4, 7) if tiny else self.LENGTHS
        words = [_random_word(base, n) for n in lengths]
        self.rounds = [[relabelled(w) for w in words] for _ in range(MAX_ROUNDS)]
        self.stability_word = relabelled(
            _random_word(base, 5 if tiny else self.STABILITY_LEN))
        self.stability_seed = base.randrange(2 ** 31)
        self.cli_word = relabelled(_random_word(base, 4 if tiny else self.CLI_LEN))

    def round_ops(self, r: int) -> List[Op]:
        return [Op("word", partial(self._word, w), partial(self._check_word, w),
                   lambda out, n=len(w): n) for w in self.rounds[r % MAX_ROUNDS]]

    def once_ops(self, out_dir: str) -> List[Op]:
        argv = ["itinerary", "--scene", json.dumps(OBSTACLE_SPEC),
                "--word", self.cli_word.to_string()]
        return [Op("stability",
                   partial(_api, "stability_report", self.scene, self.stability_word,
                           trials=self.STABILITY_TRIALS, seed=self.stability_seed),
                   self._check_stability),
                Op("cli", partial(_cli, argv, out_dir, "itinerary.json"),
                   self._check_cli, lambda out: len(self.cli_word))]

    def _word(self, w):
        interval = gc.solve_itinerary(self.scene, self.A, w)
        tr = gc.realize(self.scene, self.A, w)
        return interval, tr, gc.itinerary_of(tr, len(w))

    def _check_word(self, w, out):
        interval, tr, back = out
        expect(back.word == w.word, f"round trip of {w.to_string()} "
                                    f"reads {back.to_string()}")
        expect(len(tr.events) == len(w), "realized event count")
        expect(interval.lo < interval.hi, "empty interval")

    def _check_stability(self, rep):
        bound = 3 * self.scene.r0 + 1e-12
        expect(rep.spread_final <= bound,
               f"spread {rep.spread_final} exceeds {bound}")

    def _check_cli(self, out):
        code, js = out
        expect(code == 0, f"itinerary CLI exit code {code}")
        expect(js["verified"] is True, "CLI round trip not verified")
        lo, hi = gc.solve_itinerary(self.scene, self.A, self.cli_word).as_floats()
        expect(close(js["interval_lo"], lo) and close(js["interval_hi"], hi),
               "CLI interval differs from the API result")


# badly approximable slopes, so the lines equidistribute quickly; each round
# walks one line of each slope, in a seeded one of the 8 orientations that
# keep the lattice walk's length, from seeded start points and ball centres
_OCC_SLOPES = (math.sqrt(2.0) - 1.0, (math.sqrt(5.0) - 1.0) / 2.0)


def _torus_extras(rng: random.Random, count: int):
    """Seeded extra ray states: a quarter axis-parallel, a quarter with small
    rational slopes p/q (q <= 5), the rest at uniform random angles."""
    out = []
    for k in range(count):
        pos = gc.Point2(rng.random(), rng.random())
        kind = k % 4
        if kind == 0:
            d = gc.Direction(rng.randrange(4) * math.pi / 2)
        elif kind == 1:
            p, q = rng.randint(1, 5), rng.randint(1, 5)
            dx, dy = rng.choice((q, -q)), rng.choice((p, -p))
            if rng.random() < 0.5:
                dx, dy = dy, dx
            d = gc.Direction.from_vec(dx, dy)
        else:
            d = gc.Direction(rng.uniform(0.0, 2 * math.pi))
        out.append(gc.RayState(pos, d))
    return out


class TorusTgcc:
    """Moderate t-GCC grids on A3's torus catcher with seeded extra states,
    the static-ball control and exact occupancy on irrational lines."""

    name = "torus_tgcc"
    tail_pct = 95
    EPS, V, HORIZON = 0.2, 0.05, 4e7
    CALLS, GRID, EXTRAS = 8, (64, 64), 32
    STATIC_GRID, STATIC_T = (128, 64), 200.0
    OCC_HORIZON, OCC_RADIUS = 2e5, 0.1
    OCC_TOL = 0.01  # A5's bound on |fraction - pi r^2 / L^2|
    CLI_GRID = (64, 32)

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        self.scene = gc.torus(1.0)
        self.path = gc.build_catcher(self.scene, eps=self.EPS, v=self.V,
                                     horizon=self.HORIZON)
        centre = gc.Point2(0.5, 0.5)
        self.static = gc.CatcherPath(
            waypoints=[(0.0, centre), (self.STATIC_T, centre)],
            eps=self.EPS, v=0.0, scene=self.scene)
        if tiny:
            self.calls, self.grid, self.extras = 2, (8, 8), 8
            self.static_grid, self.occ_horizon = (8, 8), 1e3
        else:
            self.calls, self.grid, self.extras = self.CALLS, self.GRID, self.EXTRAS
            self.static_grid, self.occ_horizon = self.STATIC_GRID, self.OCC_HORIZON
        self.rounds = [([_torus_extras(rng, self.extras) for _ in range(self.calls)],
                        [self._occupancy_input(rng, s) for s in _OCC_SLOPES])
                       for _ in range(MAX_ROUNDS)]
        self.cli_seed = rng.randrange(2 ** 31)

    @staticmethod
    def _occupancy_input(rng: random.Random, s: float):
        dx, dy = rng.choice((1.0, -1.0)), rng.choice((s, -s))
        if rng.random() < 0.5:
            dx, dy = dy, dx
        return (gc.Point2(rng.random(), rng.random()),
                gc.Direction.from_vec(dx, dy),
                gc.Point2(rng.random(), rng.random()))

    def round_ops(self, r: int) -> List[Op]:
        extras, occ = self.rounds[r % MAX_ROUNDS]
        n_pos, n_ang = self.grid
        ops = [Op("tgcc", partial(_api, "check_tgcc", self.scene, self.path,
                                  T=self.HORIZON, n_pos=n_pos, n_ang=n_ang,
                                  extra=ex),
                  partial(self._check_grid, n_pos * n_ang + len(ex)),
                  lambda rep: rep.n_samples)
               for ex in extras]
        n_pos, n_ang = self.static_grid
        ops.append(Op("static", partial(_api, "check_tgcc", self.scene, self.static,
                                        T=self.STATIC_T, n_pos=n_pos, n_ang=n_ang),
                      self._check_static, lambda rep: rep.n_samples))
        ops += [Op("occupancy", partial(self._occupancy, *args), self._check_occupancy)
                for args in occ]
        return ops

    def once_ops(self, out_dir: str) -> List[Op]:
        n_pos, n_ang = self.CLI_GRID
        argv = ["tgcc", "--scene", json.dumps(self.scene.to_dict()),
                "--eps", repr(self.EPS), "--v", repr(self.V),
                "--T", repr(self.HORIZON), "--grid-pos", str(n_pos),
                "--grid-ang", str(n_ang), "--seed", str(self.cli_seed)]
        return [Op("cli", partial(_cli, argv, out_dir, "tgcc.json"),
                   self._check_cli, lambda out: out[1]["n_samples"])]

    def _occupancy(self, start, direction, centre):
        tr = gc.flow_torus(1.0, start, direction, self.occ_horizon)
        return gc.occupancy(tr, centre, self.OCC_RADIUS, [self.occ_horizon])

    def _check_grid(self, n_samples, rep):
        expect(rep.n_samples == n_samples, "sample count")
        expect(rep.caught_fraction == 1.0,
               f"catcher missed {rep.n_samples - rep.caught} samples")

    def _check_static(self, rep):
        expect(rep.caught_fraction < 1.0, "static ball caught every sample")
        expect(any(abs(a % (math.pi / 2)) < 1e-12 for (_, _, a) in rep.witnesses),
               "static control has no axis-parallel witness")

    def _check_occupancy(self, series):
        want = math.pi * self.OCC_RADIUS ** 2
        dev = abs(series.fractions[0] - want)
        expect(dev <= self.OCC_TOL, f"occupancy deviation {dev}")

    def _check_cli(self, out):
        code, js = out
        expect(code == 0, f"tgcc CLI exit code {code}")
        n_pos, n_ang = self.CLI_GRID
        rep = gc.check_tgcc(self.scene, self.path, T=self.HORIZON,
                            n_pos=n_pos, n_ang=n_ang)
        expect((js["n_samples"], js["caught"]) == (rep.n_samples, rep.caught),
               "CLI counts differ from the API result")
        expect(close(js["max_hit_time"], rep.max_hit_time),
               "CLI max hit time differs from the API result")


class BoundedTgcc:
    """check_tgcc on rectangle and disk catchers at a long T on small grids,
    compared exactly against the counts stored in bounded_expected.json."""

    name = "bounded_tgcc"
    tail_pct = 65

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        with open(HERE / "bounded_expected.json") as fh:
            table = json.load(fh)
        self.T, self.horizon = table["T"], table["horizon"]
        self.cli_config = table["cli"]
        configs = [self.cli_config] if tiny else table["configs"]
        self.paths = [self._catcher(c) for c in configs]
        self.configs = configs
        # one configuration per scene each round: the scene sets the cost of
        # tracing, the seeded eps and v only where and whether the ball is met
        by_scene = {}
        for i, c in enumerate(configs):
            by_scene.setdefault(json.dumps(c["scene"], sort_keys=True), []).append(i)
        self.rounds = [[rng.choice(idx) for _, idx in sorted(by_scene.items())]
                       for _ in range(MAX_ROUNDS)]

    def _catcher(self, c):
        scene = gc.Scene.from_dict(c["scene"])
        return gc.build_catcher(scene, eps=c["eps"], v=c["v"], horizon=self.horizon)

    def round_ops(self, r: int) -> List[Op]:
        ops = []
        for i in self.rounds[r % MAX_ROUNDS]:
            c, path = self.configs[i], self.paths[i]
            ops.append(Op("tgcc", partial(_api, "check_tgcc", path.scene, path, T=self.T,
                                          n_pos=c["n_pos"], n_ang=c["n_ang"]),
                          partial(self._check_report, c), lambda rep: rep.n_samples))
        return ops

    def once_ops(self, out_dir: str) -> List[Op]:
        c = self.cli_config
        argv = ["tgcc", "--scene", json.dumps(c["scene"]), "--eps", repr(c["eps"]),
                "--v", repr(c["v"]), "--T", repr(self.T),
                "--horizon", repr(self.horizon), "--grid-pos", str(c["n_pos"]),
                "--grid-ang", str(c["n_ang"])]
        return [Op("cli", partial(_cli, argv, out_dir, "tgcc.json"),
                   self._check_cli, lambda out: out[1]["n_samples"])]

    @staticmethod
    def _check_counts(c, n_samples, caught, max_hit):
        expect((n_samples, caught) == (c["n_samples"], c["caught"]),
               f"{c['scene']} eps {c['eps']} v {c['v']}: caught {caught}/"
               f"{n_samples}, expected {c['caught']}/{c['n_samples']}")
        expect(close(max_hit, c["max_hit_time"]), "max hit time")

    def _check_report(self, c, rep):
        self._check_counts(c, rep.n_samples, rep.caught, rep.max_hit_time)
        expect(len(rep.witnesses) == c["n_samples"] - c["caught"], "witness count")

    def _check_cli(self, out):
        code, js = out
        expect(code == 0, f"tgcc CLI exit code {code}")
        self._check_counts(self.cli_config, js["n_samples"], js["caught"],
                           js["max_hit_time"])
        expect(js["witness_count"] == 0, "CLI witness count")


class Evade:
    """Seeded slow balls (all three random_slow_path modes) and the evading
    geodesic built, verified and grid-checked against each (A4)."""

    name = "evade"
    tail_pct = 90
    EPS, V = 0.05, 0.01
    HORIZONS = (200.0, 400.0, 700.0, 1000.0, 1400.0, 2000.0)
    SWITCH_DEV = 3.0
    CHECK_GRID = (4, 8)
    CLI_T = 200.0

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(f"{self.name}:{seed}")
        self.scene = gc.Scene.from_dict(OBSTACLE_SPEC)
        horizons = (150.0,) if tiny else self.HORIZONS
        # path seed = mode (mod 3): every mode meets every horizon across rounds
        self.rounds = [[(3 * rng.randrange(2 ** 28) + (j + r) % 3, T)
                        for j, T in enumerate(horizons)]
                       for r in range(MAX_ROUNDS)]
        self.cli_seed = 3 * rng.randrange(2 ** 28) + rng.randrange(3)

    def round_ops(self, r: int) -> List[Op]:
        return [Op("evade", partial(self._evade, s, T), self._check, lambda out: 1)
                for s, T in self.rounds[r % MAX_ROUNDS]]

    def once_ops(self, out_dir: str) -> List[Op]:
        argv = ["evade", "--scene", json.dumps(OBSTACLE_SPEC), "--eps", repr(self.EPS),
                "--v", repr(self.V), "--T", repr(self.CLI_T),
                "--seed", str(self.cli_seed)]
        return [Op("cli", partial(_cli, argv, out_dir, "evasion.json"),
                   self._check_cli, lambda out: 1)]

    def _evade(self, seed: int, T: float):
        path = gc.random_slow_path(self.scene, eps=self.EPS, v=self.V, T=T, seed=seed)
        schedule = gc.plan_schedule(path, T, self.scene)
        cert = gc.realize_schedule(schedule, self.scene)
        ok = gc.verify_evasion(cert, path, T)
        n_pos, n_ang = self.CHECK_GRID
        rep = gc.check_tgcc(self.scene, path, T=T, n_pos=n_pos, n_ang=n_ang,
                            extra_trajectories=[cert.geodesic])
        return path, cert, ok, rep

    def _check(self, out):
        path, cert, ok, rep = out
        expect(ok, "evasion certificate does not verify")
        expect(cert.min_distance >= path.eps, "certified distance below eps")
        dev = max(abs(a - b) for a, b in zip(cert.realized_switches,
                                             cert.schedule.times))
        expect(dev <= self.SWITCH_DEV, f"switch deviation {dev}")
        s = cert.geodesic.start
        expect(any(abs(x - s.pos.x) < 1e-12 and abs(y - s.pos.y) < 1e-12
                   for (x, y, _) in rep.witnesses),
               "evader start is not among the t-GCC witnesses")

    def _check_cli(self, out):
        code, js = out
        expect(code == 0, f"evade CLI exit code {code}")
        _, cert, _, _ = self._evade(self.cli_seed, self.CLI_T)
        expect(js["itinerary"] == cert.word.to_string(),
               "CLI itinerary differs from the API result")
        expect(all(close(a, b) for a, b in zip(js["realized_switches"],
                                                 cert.realized_switches)),
               "CLI switch times differ from the API result")
        expect(close(js["min_distance"], cert.min_distance),
               "CLI certified distance differs from the API result")


WORKLOADS = {w.name: w for w in (Itinerary, TorusTgcc, BoundedTgcc, Evade)}
