"""Command-line front end: reproducible runs with CSV/JSON/SVG outputs.

Subcommands: simulate | itinerary | catch | evade | tgcc | grc.
Exit codes: 0 success, 2 invalid configuration, 3 t-GCC refuted on the grid,
4 construction or verification failure.  itinerary and evade default to the
obstacle scene, the rest to the unit torus; --scene alone names the scene.
Each input rule is stated once, for every subcommand: the option table
(POSITIVE, FINITE) and the --scene parse, both applied in main, and the
start rule (_start), by which simulate, itinerary and grc --op dichotomy
refuse a start (--x, --y) outside the open domain.  A run that breaks one
exits 2 before it writes any file.
Each JSON's "config" records every option of its subcommand but --out
(_config).  With a fixed --seed (evade and tgcc take one), JSON and CSV
outputs are byte-identical across runs (SVG is presentation-only).  Every
CSV and JSON under --out is built and formatted here: each JSON payload
from its report's fields (_report writes a NamedTuple report's fields, each
Point2 as [x, y]), CSV numbers with 17 significant digits (_csv), JSON with
sorted keys and no spaces (_emit_json).

itinerary.json's "verified" is true when the realized orbit's launch
direction lies in the word's interval from the extended-precision solver.
A --path CSV is refused (exit 2) unless its rows are three finite numbers
t,x,y with strictly increasing times and no leg faster than --v, and, on a
bounded scene, every leg stays on the closed domain (_leaves_domain): inside
the closed rectangle, disk or outer wall, and no closer than r0 to any
scatterer centre.  The torus has no such rule.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .geometry import (Direction, Point2, Scene, SceneError,
                       point_segment_distance, strict_interior)
from .flow import (WALLS, NoCollision, RayState, Trajectory, flow_torus,
                   position_at, trace)
from .symbolic import (EmptyInterval, InadmissibleWord, Itinerary,
                       NumericFailure, realize, solve_itinerary)
from .catcher import CatcherPath, build_catcher
from .evader import (PlanningFailure, RealizationFailure, plan_schedule,
                     random_slow_path, realize_schedule, verify_evasion)
from .tgcc import TgccError, check_tgcc
from .analysis import dichotomy_check, disk_structure, occupancy, subsequence_grc
from .render import render_trajectory

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUTED = 3
EXIT_FAILED = 4


# The option table: each rule holds for its option in every subcommand that
# takes it (tgcc's --horizon may be absent, and then defaults to --T).
POSITIVE = ("eps", "v", "T", "horizon", "radius")    # positive and finite
FINITE = ("x", "y", "angle", "cx", "cy", "alpha")


class ConfigError(Exception):
    pass


def _parse_scene(spec: str) -> Scene:
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r") as fh:
                spec = fh.read()
        except OSError as ex:
            raise ConfigError(f"bad scene: {ex}")
    try:
        return Scene.from_json(spec)
    except (json.JSONDecodeError, SceneError, KeyError, TypeError) as ex:
        raise ConfigError(f"bad scene: {ex}")


def _check_options(args) -> None:
    """Refuse a value of any option that breaks its rule in the table."""
    for name, value in vars(args).items():
        if name in POSITIVE and value is not None and not 0 < value < math.inf:
            raise ConfigError(f"--{name} must be positive and finite, "
                              f"got {value!r}")
        if name in FINITE and not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value!r}")


def _config(args, scene: Scene) -> dict:
    """The run's record: every parsed option but --out, the scene as its
    dict, and evade's and tgcc's path as resolved: the --path file,
    "random" on the obstacle scene, or else "catcher"."""
    config = {k: v for k, v in vars(args).items() if k not in ("fn", "out")}
    config["scene"] = scene.to_dict()
    if "path" in config:
        config["path"] = args.path or (
            "random" if scene.kind == "obstacle" else "catcher")
    return config


def _dump(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _csv(header: str, rows) -> str:
    """CSV text under header: numbers with 17 significant digits, which
    read back to the same floats, and strings as they are."""
    lines = [header]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else format(x, ".17g")
                              for x in row))
    return "\n".join(lines) + "\n"


def _trajectory_csv(tr: Trajectory) -> str:
    """Rows (t, x, y, wall) from t = 0: the start, every bounce, and the
    point at the horizon when the last bounce comes before it."""
    time, x, y = tr.events.columns()[:3]
    rows = [(0.0, tr.start.x, tr.start.y, "")]
    rows += zip(time, x, y, map(WALLS.__getitem__, tr.events.walls))
    if tr.horizon > (time[-1] if time else 0.0):
        p = position_at(tr, tr.horizon)
        rows.append((tr.horizon, p.x, p.y, ""))
    return _csv("t,x,y,wall", rows)


def _report(rep, *omit: str) -> dict:
    """JSON payload of a NamedTuple report: its fields but `omit`, each
    Point2 written as [x, y]."""
    return {k: list(v) if isinstance(v, Point2) else v
            for k, v in rep._asdict().items() if k not in omit}


def _emit_json(out_dir: str, name: str, payload: dict, config: dict) -> str:
    payload = dict(payload)
    payload["config"] = config
    return _dump(out_dir, name,
                 json.dumps(payload, sort_keys=True, separators=(",", ":"),
                            allow_nan=False) + "\n")


def _fail(out_dir: str, report: str, others, config: dict, what: str,
          ex: Exception) -> int:
    """Error report of a failed run.  The run's other outputs are removed
    first, so none left by an earlier run in --out passes for this one's."""
    for name in others:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))
    _emit_json(out_dir, report, {"error": str(ex)}, config)
    print(f"{what} failed: {ex}", file=sys.stderr)
    return EXIT_FAILED


def _start(scene: Scene, args) -> Point2:
    """The start (--x, --y), refused unless it lies in the open domain
    (geometry.strict_interior)."""
    p = Point2(args.x, args.y)
    if not strict_interior(scene, p):
        raise ConfigError(f"start ({args.x!r}, {args.y!r}) is not inside "
                          f"the domain")
    return p


def cmd_simulate(args, scene: Scene) -> int:
    tr = trace(scene, RayState(_start(scene, args), Direction(args.angle)),
               args.horizon, max_bounces=args.max_bounces)
    _dump(args.out, "trajectory.csv", _trajectory_csv(tr))
    _dump(args.out, "trajectory.svg", render_trajectory(scene, tr))
    _emit_json(args.out, "simulate.json",
               {"bounces": len(tr.events),
                "walls": [e.wall for e in tr.events[:64]]},
               _config(args, scene))
    return EXIT_OK


def cmd_itinerary(args, scene: Scene) -> int:
    if scene.kind != "obstacle":
        raise ConfigError("itinerary requires an obstacle scene")
    A = _start(scene, args)
    try:
        word = Itinerary.from_string(args.word)
    except InadmissibleWord as ex:
        raise ConfigError(f"inadmissible word: {ex}")
    config = _config(args, scene)
    try:
        interval = solve_itinerary(scene, A, word)
        tr = realize(scene, A, word)
    except (EmptyInterval, NumericFailure, RealizationFailure) as ex:
        return _fail(args.out, "itinerary.json",
                     ("itinerary.csv", "itinerary.svg"), config,
                     "itinerary construction", ex)
    # the float orbit is checked against the independent extended-precision
    # solve
    verified = interval.contains_direction(tr.start.dir)
    _dump(args.out, "itinerary.csv", _trajectory_csv(tr))
    _dump(args.out, "itinerary.svg", render_trajectory(scene, tr))
    lo, hi = interval.as_floats()
    lo_str, hi_str = interval.as_strings()
    _emit_json(args.out, "itinerary.json",
               {"interval_lo": lo, "interval_hi": hi,
                "interval_lo_str": lo_str, "interval_hi_str": hi_str,
                "width": float(interval.width), "verified": verified}, config)
    return EXIT_OK if verified else EXIT_FAILED


def cmd_catch(args, scene: Scene) -> int:
    path = build_catcher(scene, eps=args.eps, v=args.v, horizon=args.horizon,
                         sites=args.sites)
    _dump(args.out, "catcher.csv", _csv("t,cx,cy", path.knots()))
    _emit_json(args.out, "catcher.json",
               {"waypoints": len(path.waypoints),
                "header": {"eps": path.eps, "v": path.v,
                           "scene": path.scene.to_dict()}},
               _config(args, scene))
    return EXIT_OK


def _leaves_domain(scene: Scene, a: Point2, b: Point2) -> bool:
    """Does the segment [a, b] leave the closed domain, past the rectangle's
    sides, the disk's rim or the outer wall, or into a scatterer's open disc
    of radius r0?  The first three bound convex sets, so its ends tell.
    (Torus: never.)"""
    if scene.kind == "torus":
        return False
    if scene.kind == "rectangle":
        return not all(0 <= p.x <= scene.width and 0 <= p.y <= scene.height
                       for p in (a, b))
    R = scene.radius if scene.kind == "disk" else scene.outer_radius
    return (max(math.hypot(a.x, a.y), math.hypot(b.x, b.y)) > R
            or any(point_segment_distance(c, a, b) < scene.r0
                   for c in scene.centers))


def _load_path(scene: Scene, args) -> CatcherPath:
    """The ball's path: the --path CSV of rows t,x,y (under an optional
    header), or else a seeded random slow path.  Every row must hold three
    finite numbers, the times must strictly increase, no leg may be faster
    than --v by more than the rounding of its two times allows, and no leg
    (nor the first waypoint) may leave the closed domain."""
    if not args.path:
        return random_slow_path(scene, eps=args.eps, v=args.v, T=args.T,
                                seed=args.seed)
    try:
        fh = open(args.path)
    except OSError as ex:
        raise ConfigError(f"bad --path: {ex}")
    wps = []
    with fh:
        for n, line in enumerate(fh, 1):
            cells = line.strip().split(",")
            if cells == [""] or (not wps and cells[0] == "t"):
                continue
            try:
                t, x, y = map(float, cells)
                ok = all(map(math.isfinite, (t, x, y)))
            except ValueError:
                ok = False
            if not ok:
                raise ConfigError(f"{args.path} line {n}: need three finite "
                                  f"numbers t,x,y, got {line.strip()!r}")
            if wps:
                t0, p0 = wps[-1]
                if not t > t0:
                    raise ConfigError(f"{args.path} line {n}: time {t!r} "
                                      f"does not follow {t0!r}")
                length = math.hypot(x - p0.x, y - p0.y)
                if length > args.v * (t - t0 + math.ulp(t0) + math.ulp(t)):
                    raise ConfigError(f"{args.path} line {n}: the leg from "
                                      f"t = {t0!r} runs at speed "
                                      f"{length / (t - t0):.3g}, faster than "
                                      f"--v {args.v!r}")
            p = Point2(x, y)
            if _leaves_domain(scene, wps[-1][1] if wps else p, p):
                raise ConfigError(f"{args.path} line {n}: the path leaves "
                                  f"the domain by t = {t!r}")
            wps.append((t, p))
    if not wps:
        raise ConfigError(f"{args.path}: no waypoints")
    return CatcherPath(waypoints=wps, eps=args.eps, v=args.v, scene=scene)


def cmd_evade(args, scene: Scene) -> int:
    if scene.kind != "obstacle":
        raise ConfigError("evade requires an obstacle scene")
    path = _load_path(scene, args)
    config = _config(args, scene)
    try:
        schedule = plan_schedule(path, args.T, scene)
        cert = realize_schedule(schedule, scene)
    except (PlanningFailure, RealizationFailure) as ex:
        return _fail(args.out, "evasion.json",
                     ("evader.csv", "path.csv", "evasion.svg"), config,
                     "evasion construction", ex)
    ok = verify_evasion(cert, path, args.T)
    _dump(args.out, "evader.csv", _trajectory_csv(cert.geodesic))
    _dump(args.out, "path.csv", _csv("t,cx,cy", path.knots()))
    _dump(args.out, "evasion.svg",
          render_trajectory(scene, cert.geodesic, path))
    _emit_json(args.out, "evasion.json",
               {"schedule": cert.schedule._asdict(),
                "itinerary": cert.word.to_string(),
                "realized_switches": cert.realized_switches,
                "min_distance": cert.min_distance, "margin": cert.margin},
               config)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_tgcc(args, scene: Scene) -> int:
    if args.path or scene.kind == "obstacle":
        path = _load_path(scene, args)
    else:
        horizon = args.T if args.horizon is None else args.horizon
        path = build_catcher(scene, eps=args.eps, v=args.v, horizon=horizon)
    config = _config(args, scene)
    try:
        rep = check_tgcc(scene, path, T=args.T, n_pos=args.grid_pos,
                         n_ang=args.grid_ang)
    except TgccError as ex:
        return _fail(args.out, "tgcc.json", ("witnesses.csv",), config,
                     "t-GCC check", ex)
    payload = _report(rep, "scene", "witnesses", "first_hits")
    payload.update(scene=scene.to_dict(),
                   grid={"n_pos": args.grid_pos, "n_ang": args.grid_ang},
                   witness_count=rep.n_samples - rep.caught,
                   witnesses=rep.witnesses[:100],
                   note="caught_fraction = 1 on a finite grid is evidence, "
                        "not a proof, of t-GCC")
    _emit_json(args.out, "tgcc.json", payload, config)
    _dump(args.out, "witnesses.csv", _csv("x,y,angle", rep.witnesses))
    return EXIT_OK if rep.caught_fraction == 1.0 else EXIT_REFUTED


def cmd_grc(args, scene: Scene) -> int:
    config = _config(args, scene)
    if args.op == "dichotomy":
        s = RayState(_start(scene, args), Direction(args.angle))
        payload = _report(dichotomy_check(scene, s, Point2(args.cx, args.cy),
                                          args.radius, args.horizon))
    elif args.op == "disk":
        payload = _report(disk_structure(args.alpha, args.angle, args.n),
                          "angles")
    elif scene.kind != "torus":
        raise ConfigError(f"{args.op} op runs on the torus scene")
    else:
        tr = flow_torus(scene.side, Point2(args.x, args.y),
                        Direction(args.angle), args.horizon)
        if args.op == "occupancy":
            rep = occupancy(tr, Point2(args.cx, args.cy), args.radius,
                            [args.horizon * f for f in (0.25, 0.5, 1.0)])
            _dump(args.out, "occupancy.csv",
                  _csv("T,fraction", zip(rep.horizons, rep.fractions)))
        else:
            rep = subsequence_grc(tr, args.radius,
                                  [args.horizon * f for f in (0.5, 1.0)])
        payload = _report(rep)
    _emit_json(args.out, "grc.json", payload, config)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geocatch",
        description="billiard/geodesic simulation, moving-ball catchers, "
                    "scattering evaders, and t-GCC checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, scene='{"kind":"torus","side":1.0}'):
        p.add_argument("--scene", default=scene,
                       help="scene JSON (inline or @file)")
        p.add_argument("--out", default="out", help="output directory")

    obstacle = '{"kind":"obstacle","r0":0.05,"outer_radius":2.0}'

    p = sub.add_parser("simulate", help="trace a single trajectory")
    common(p)
    p.add_argument("--x", type=float, default=0.1)
    p.add_argument("--y", type=float, default=0.1)
    p.add_argument("--angle", type=float, default=0.5)
    p.add_argument("--horizon", type=float, default=50.0)
    p.add_argument("--max-bounces", type=int, default=10 ** 6)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("itinerary", help="solve and realize a bounce word")
    common(p, obstacle)
    p.add_argument("--word", required=True, help="word over {1,2,3}")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.set_defaults(fn=cmd_itinerary)

    p = sub.add_parser("catch", help="synthesize a moving-ball catcher")
    common(p)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--v", type=float, default=0.05)
    p.add_argument("--horizon", type=float, default=4e7)
    p.add_argument("--sites", type=int, default=16)
    p.set_defaults(fn=cmd_catch)

    p = sub.add_parser("evade", help="construct an evading geodesic")
    common(p, obstacle)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--v", type=float, default=0.01)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--path", default=None, help="catcher path CSV")
    p.set_defaults(fn=cmd_evade)

    p = sub.add_parser("tgcc", help="grid-check the t-GCC for a moving ball")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--v", type=float, default=0.05)
    p.add_argument("--T", type=float, default=4e7)
    p.add_argument("--horizon", type=float, default=None)
    p.add_argument("--grid-pos", type=int, default=1024)
    p.add_argument("--grid-ang", type=int, default=256)
    p.add_argument("--path", default=None, help="catcher path CSV")
    p.set_defaults(fn=cmd_tgcc)

    p = sub.add_parser("grc", help="recurrence/equidistribution diagnostics")
    common(p)
    p.add_argument("--op", default="dichotomy",
                   choices=["dichotomy", "disk", "occupancy", "subsequence"])
    p.add_argument("--angle", type=float, default=0.5)
    p.add_argument("--x", type=float, default=0.1)
    p.add_argument("--y", type=float, default=0.2)
    p.add_argument("--cx", type=float, default=0.5)
    p.add_argument("--cy", type=float, default=0.5)
    p.add_argument("--radius", type=float, default=0.1)
    p.add_argument("--horizon", type=float, default=1000.0)
    p.add_argument("--alpha", type=float, default=math.pi / 3)
    p.add_argument("--n", type=int, default=256)
    p.set_defaults(fn=cmd_grc)
    return ap


def _join_negative_values(argv) -> list:
    """argv with each negative number after an --option joined to it as
    --option=value: argparse alone may read -1e-3 or -inf as an option."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        out.append(arg)
        if prev[:2] == "--" and "=" not in prev and arg[:1] == "-":
            with contextlib.suppress(ValueError):
                float(arg)
                out[-2:] = [f"{prev}={arg}"]
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        _check_options(args)
        return args.fn(args, _parse_scene(args.scene))
    except (ConfigError, SceneError, InadmissibleWord, NoCollision,
            ValueError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
