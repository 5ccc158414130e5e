"""Import footprint: mpmath loads only when a run first needs it, and numpy
never does.  Each check runs in a fresh interpreter, because the test session
itself has long since imported both."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys, tempfile
if sys.argv[1] == "block-numpy":
    sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import geocatch, geocatch.cli
from geocatch import (Direction, Itinerary, Point2, RayState, build_catcher,
                      build_obstacle_scene, check_tgcc, flow_torus, occupancy,
                      plan_schedule, random_slow_path, realize,
                      realize_schedule, rectangle, solve_itinerary, torus,
                      trace, verify_evasion)

HEAVY = ("numpy", "mpmath", "gmpy2")

def loaded():
    return [m for m in HEAVY if sys.modules.get(m) is not None]

out = {"import": loaded()}
tor = torus(1.0)
path = build_catcher(tor, eps=0.2, v=0.05, horizon=1e4)
check_tgcc(tor, path, T=1e4, n_pos=4, n_ang=4)
rect = rectangle(1.0, 1.0)
tr = trace(rect, RayState(Point2(0.1, 0.2), Direction(0.7)), 50.0)
rect_path = build_catcher(rect, eps=0.2, v=0.05, horizon=200.0)
check_tgcc(rect, rect_path, T=200.0, n_pos=2, n_ang=2)
occupancy(flow_torus(1.0, Point2(0.1, 0.2), Direction(0.7), 100.0),
          Point2(0.5, 0.5), 0.1, [50.0, 100.0])
out["geometry"] = loaded()
out["bounces"] = len(tr.events)
out["backend"] = geocatch.symbolic._BACKEND
scene = build_obstacle_scene(0.05, 2.0)
out["realized"] = len(realize(scene, Point2(0.0, 0.0),
                              Itinerary.from_string("1213" * 5)).events)
out["realize"] = loaded()
slow = random_slow_path(scene, eps=0.05, v=0.01, T=200.0, seed=1)
cert = realize_schedule(plan_schedule(slow, 200.0, scene), scene)
out["verified"] = verify_evasion(cert, slow, 200.0)
out["evade"] = loaded()
solve_itinerary(scene, Point2(0.0, 0.0), Itinerary.from_string("123"))
out["solve"] = loaded()
scene_arg = json.dumps(scene.to_dict())
with tempfile.TemporaryDirectory() as d:
    out["cli_codes"] = [
        geocatch.cli.main(["itinerary", "--scene", scene_arg, "--word", "1213",
                           "--out", d]),
        geocatch.cli.main(["evade", "--scene", scene_arg, "--T", "150",
                           "--seed", "4", "--out", d])]
out["cli"] = loaded()
print(json.dumps(out))
"""


def run_probe(mode):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", PROBE, mode], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_heavy_libraries_load_on_first_use():
    out = run_probe("plain")
    assert out["import"] == []
    assert out["geometry"] == []  # t-GCC, flow, catcher and analysis calls
    assert out["bounces"] > 0
    assert out["backend"] == "mpmath"
    assert out["realize"] == []
    assert out["evade"] == []
    assert out["solve"] == ["mpmath"]
    assert out["cli"] == ["mpmath"]


def test_runs_without_numpy():
    out = run_probe("block-numpy")
    assert out["realized"] == 20
    assert out["verified"] is True
    assert out["cli_codes"] == [0, 0]


def test_names_the_benchmark_harness_rebinds_exist():
    # perfbench/tracing.py's install rebinds these names, on these modules,
    # for its traced run
    import geocatch
    import geocatch.cli
    rebound = {
        geocatch: ("solve_itinerary", "realize", "stability_report",
                   "itinerary_of", "check_tgcc", "build_catcher", "occupancy",
                   "random_slow_path", "plan_schedule", "realize_schedule",
                   "verify_evasion"),
        geocatch.symbolic: ("solve_itinerary",),
        geocatch.tgcc: ("first_hit_time", "trace", "dense_sites"),
        geocatch.cli: ("main",),
    }
    for module, names in rebound.items():
        for name in names:
            assert callable(getattr(module, name, None)), (module.__name__, name)
