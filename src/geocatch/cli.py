"""Command-line front end: reproducible runs with CSV/JSON/SVG outputs.

Subcommands: simulate | itinerary | catch | evade | tgcc | grc.
Exit codes: 0 success, 2 invalid configuration, 3 t-GCC refuted on the grid,
4 construction or verification failure.  With a fixed --seed, JSON and CSV
outputs are byte-identical across runs (SVG is presentation-only).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from .geometry import Direction, Point2, Scene, SceneError
from .flow import RayState, trace, trajectory_csv
from .symbolic import (EmptyInterval, InadmissibleWord, Itinerary,
                       NumericFailure, itinerary_of, realize, solve_itinerary)
from .catcher import CatcherError, CatcherPath, build_catcher
from .evader import (PlanningFailure, RealizationFailure, plan_schedule,
                     random_slow_path, realize_schedule, verify_evasion)
from .tgcc import TgccError, check_tgcc
from .analysis import dichotomy_check, disk_structure, occupancy, subsequence_grc
from .render import render_trajectory
from .flow import flow_torus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUTED = 3
EXIT_FAILED = 4


class ConfigError(Exception):
    pass


def _parse_scene(spec: str) -> Scene:
    if spec.startswith("@"):
        with open(spec[1:], "r") as fh:
            spec = fh.read()
    try:
        return Scene.from_json(spec)
    except (json.JSONDecodeError, SceneError, KeyError, TypeError) as ex:
        raise ConfigError(f"bad scene: {ex}")


def _resolve_scene(args) -> Scene:
    """Flag precedence: an explicit --r0 builds the obstacle scene directly,
    overriding --scene."""
    if getattr(args, "r0", None) is not None:
        try:
            from .geometry import build_obstacle_scene
            return build_obstacle_scene(args.r0, 2.0)
        except SceneError as ex:
            raise ConfigError(str(ex))
    return _parse_scene(args.scene)


def _dump(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _emit_json(out_dir: str, name: str, payload: dict, config: dict) -> str:
    payload = dict(payload)
    payload["config"] = config
    return _dump(out_dir, name,
                 json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


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


def _positive(value: float, name: str) -> float:
    if value is None or value <= 0:
        raise ConfigError(f"{name} must be positive")
    return value


def cmd_simulate(args) -> int:
    scene = _resolve_scene(args)
    horizon = _positive(args.horizon, "--horizon")
    state = RayState(Point2(args.x, args.y), Direction(args.angle))
    tr = trace(scene, state, horizon, max_bounces=args.max_bounces)
    _dump(args.out, "trajectory.csv", trajectory_csv(tr))
    _dump(args.out, "trajectory.svg", render_trajectory(scene, tr))
    config = {"command": "simulate", "scene": scene.to_dict(), "x": args.x,
              "y": args.y, "angle": args.angle, "horizon": horizon,
              "max_bounces": args.max_bounces}
    _emit_json(args.out, "simulate.json",
               {"bounces": len(tr.events),
                "walls": [e.wall for e in tr.events[:64]]}, config)
    return EXIT_OK


def cmd_itinerary(args) -> int:
    scene = _resolve_scene(args)
    if scene.kind != "obstacle":
        raise ConfigError("itinerary requires an obstacle scene")
    try:
        word = Itinerary.from_string(args.word)
    except InadmissibleWord as ex:
        raise ConfigError(f"inadmissible word: {ex}")
    A = Point2(args.x, args.y)
    config = {"command": "itinerary", "scene": scene.to_dict(),
              "word": args.word, "x": args.x, "y": args.y}
    try:
        interval = solve_itinerary(scene, A, word)
        tr = realize(scene, A, word)
    except (EmptyInterval, NumericFailure, RealizationFailure) as ex:
        return _fail(args.out, "itinerary.json",
                     ("itinerary.csv", "itinerary.svg"), config,
                     "itinerary construction", ex)
    # the shadowed orbit must read back the word and leave A inside the
    # independently solved extended-precision interval
    verified = (itinerary_of(tr, len(word)).word == word.word
                and interval.contains_direction(tr.start.dir))
    _dump(args.out, "itinerary.csv", trajectory_csv(tr))
    _dump(args.out, "itinerary.svg", render_trajectory(scene, tr))
    lo, hi = interval.as_floats()
    lo_str, hi_str = interval.as_strings()
    _emit_json(args.out, "itinerary.json",
               {"interval_lo": lo, "interval_hi": hi,
                "interval_lo_str": lo_str, "interval_hi_str": hi_str,
                "width": float(interval.width), "verified": verified}, config)
    return EXIT_OK if verified else EXIT_FAILED


def cmd_catch(args) -> int:
    scene = _resolve_scene(args)
    eps = _positive(args.eps, "--eps")
    v = _positive(args.v, "--v")
    horizon = _positive(args.horizon, "--horizon")
    try:
        path = build_catcher(scene, eps=eps, v=v, horizon=horizon,
                             sites=args.sites)
    except CatcherError as ex:
        raise ConfigError(str(ex))
    _dump(args.out, "catcher.csv", path.to_csv())
    config = {"command": "catch", "scene": scene.to_dict(), "eps": eps,
              "v": v, "horizon": horizon, "sites": args.sites}
    _emit_json(args.out, "catcher.json",
               {"waypoints": len(path.waypoints),
                "header": json.loads(path.header_json())}, config)
    return EXIT_OK


def _load_path(scene: Scene, args) -> CatcherPath:
    if args.path:
        with open(args.path) as fh:
            rows = [ln.strip().split(",") for ln in fh if ln.strip()]
        if rows and rows[0][0] == "t":
            rows = rows[1:]
        wps = [(float(t), Point2(float(x), float(y))) for t, x, y in rows]
        return CatcherPath(waypoints=wps, eps=args.eps, v=args.v, scene=scene)
    return random_slow_path(scene, eps=args.eps, v=args.v, T=args.T,
                            seed=args.seed)


def cmd_evade(args) -> int:
    scene = _resolve_scene(args)
    if scene.kind != "obstacle":
        raise ConfigError("evade requires an obstacle scene")
    _positive(args.eps, "--eps")
    _positive(args.v, "--v")
    T = _positive(args.T, "--T")
    path = _load_path(scene, args)
    config = {"command": "evade", "scene": scene.to_dict(), "eps": args.eps,
              "v": args.v, "T": T, "seed": args.seed,
              "path": args.path or "random"}
    try:
        schedule = plan_schedule(path, T, scene)
        cert = realize_schedule(schedule, scene)
    except (PlanningFailure, RealizationFailure) as ex:
        return _fail(args.out, "evasion.json",
                     ("evader.csv", "path.csv", "evasion.svg"), config,
                     "evasion construction", ex)
    ok = verify_evasion(cert, path, T)
    _dump(args.out, "evader.csv", trajectory_csv(cert.geodesic))
    _dump(args.out, "path.csv", path.to_csv())
    _dump(args.out, "evasion.svg",
          render_trajectory(scene, cert.geodesic, path))
    _emit_json(args.out, "evasion.json", cert.to_dict(), config)
    return EXIT_OK if ok else EXIT_FAILED


def cmd_tgcc(args) -> int:
    scene = _resolve_scene(args)
    T = _positive(args.T, "--T")
    if args.path or scene.kind == "obstacle":
        path = _load_path(scene, args)
    else:
        horizon = args.horizon if args.horizon else T
        path = build_catcher(scene, eps=args.eps, v=args.v, horizon=horizon)
    config = {"command": "tgcc", "scene": scene.to_dict(), "eps": args.eps,
              "v": args.v, "T": T, "grid_pos": args.grid_pos,
              "grid_ang": args.grid_ang, "seed": args.seed,
              "path": args.path or ("random" if scene.kind == "obstacle"
                                    else "catcher")}
    try:
        rep = check_tgcc(scene, path, T=T, n_pos=args.grid_pos,
                         n_ang=args.grid_ang)
    except TgccError as ex:
        return _fail(args.out, "tgcc.json", ("witnesses.csv",), config,
                     "t-GCC check", ex)
    _emit_json(args.out, "tgcc.json", rep.to_dict(), config)
    _dump(args.out, "witnesses.csv", rep.witnesses_csv())
    return EXIT_OK if rep.caught_fraction == 1.0 else EXIT_REFUTED


def cmd_grc(args) -> int:
    scene = _resolve_scene(args)
    config = {"command": "grc", "scene": scene.to_dict(), "op": args.op,
              "angle": args.angle, "x": args.x, "y": args.y,
              "radius": args.radius, "horizon": args.horizon,
              "alpha": args.alpha, "n": args.n}
    if args.op == "dichotomy":
        rep = dichotomy_check(scene, Direction(args.angle),
                              Point2(args.x, args.y), args.radius,
                              args.horizon)
        _emit_json(args.out, "grc.json", rep.to_dict(), config)
    elif args.op == "disk":
        rep = disk_structure(args.alpha, args.angle, args.n)
        _emit_json(args.out, "grc.json", rep.to_dict(), config)
    elif args.op == "occupancy":
        if scene.kind != "torus":
            raise ConfigError("occupancy op runs on the torus scene")
        tr = flow_torus(scene.side, Point2(args.x, args.y),
                        Direction(args.angle), args.horizon)
        series = occupancy(tr, Point2(args.cx, args.cy), args.radius,
                           [args.horizon * f for f in (0.25, 0.5, 1.0)])
        _dump(args.out, "occupancy.csv", series.to_csv())
        _emit_json(args.out, "grc.json", series.to_dict(), config)
    elif args.op == "subsequence":
        if scene.kind != "torus":
            raise ConfigError("subsequence op runs on the torus scene")
        tr = flow_torus(scene.side, Point2(args.x, args.y),
                        Direction(args.angle), args.horizon)
        rep = subsequence_grc(tr, args.radius,
                              [args.horizon * f for f in (0.5, 1.0)])
        _emit_json(args.out, "grc.json", rep.to_dict(), config)
    else:
        raise ConfigError(f"unknown grc op {args.op!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geocatch",
        description="billiard/geodesic simulation, moving-ball catchers, "
                    "scattering evaders, and t-GCC checks")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scene", default='{"kind":"torus","side":1.0}',
                       help="scene JSON (inline or @file)")
        p.add_argument("--r0", type=float, default=None,
                       help="shorthand: obstacle scene with this radius")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="trace a single trajectory")
    common(p)
    p.add_argument("--x", type=float, default=0.1)
    p.add_argument("--y", type=float, default=0.1)
    p.add_argument("--angle", type=float, default=0.5)
    p.add_argument("--horizon", type=float, default=50.0)
    p.add_argument("--max-bounces", type=int, default=10 ** 6)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("itinerary", help="solve and realize a bounce word")
    common(p)
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
    common(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--v", type=float, default=0.01)
    p.add_argument("--T", type=float, default=200.0)
    p.add_argument("--path", default=None, help="catcher path CSV")
    p.set_defaults(fn=cmd_evade)

    p = sub.add_parser("tgcc", help="grid-check the t-GCC for a moving ball")
    common(p)
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, SceneError, InadmissibleWord, ValueError) as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
