"""Import footprint: no run loads numpy or mpmath, and every run works with
either blocked (extended precision is the standard library's decimal).  Each
check runs in a fresh interpreter, because the test session itself has long
since imported both."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys, tempfile
if sys.argv[1].startswith("block-"):
    # any import of the blocked library now raises ImportError
    sys.modules[sys.argv[1][len("block-"):]] = None
import geocatch, geocatch.cli
from geocatch import (Direction, Itinerary, Point2, RayState, build_catcher,
                      build_obstacle_scene, check_tgcc, flow_torus, occupancy,
                      plan_schedule, random_slow_path, realize,
                      realize_schedule, rectangle, solve_itinerary,
                      stability_report, torus, trace, verify_evasion)

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
out["width"] = float(solve_itinerary(scene, Point2(0.0, 0.0),
                                     Itinerary.from_string("123")).width)
out["spread"] = stability_report(scene, Itinerary.from_string("1213"),
                                 trials=4).spread_final
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
    assert out["backend"] == "decimal"
    assert out["realize"] == []
    assert out["evade"] == []
    assert out["solve"] == []
    assert out["cli"] == []


def test_import_leaves_out_dataclasses_and_inspect():
    # the value types are hand-written classes and NamedTuples, so that a
    # fresh interpreter's import (every CLI run's, and the benchmark's
    # setup_s) does not pay for dataclasses and the inspect, ast, dis and
    # tokenize modules it pulls in
    probe = ("import json, sys; before = set(sys.modules); import geocatch; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    res = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    added = json.loads(res.stdout)
    assert "geocatch" in added
    assert [m for m in ("dataclasses", "inspect") if m in added] == []


def assert_every_run_succeeds(out):
    assert out["realized"] == 20
    assert out["verified"] is True
    assert out["width"] > 0
    assert out["spread"] <= 0.15
    assert out["cli_codes"] == [0, 0]


def test_runs_without_numpy():
    assert_every_run_succeeds(run_probe("block-numpy"))


def test_runs_without_mpmath():
    assert_every_run_succeeds(run_probe("block-mpmath"))


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


def referenced_names(path, strings=False):
    """Names read in the file, as AST names or attributes (and, with
    strings, string constants, which getattr and setattr take), leaving out
    references inside a top-level definition to that definition's own name."""
    names = set()
    for stmt in ast.parse(path.read_text()).body:
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif strings and isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name != own:
                names.add(name)
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # every name geocatch exports is read by a construction in src (outside
    # __init__.py and its own definition) or by the benchmark harness, which
    # calls and rebinds some of them by their names as strings
    pkg = SRC / "geocatch"
    exported = {alias.asname or alias.name
                for node in ast.parse((pkg / "__init__.py").read_text()).body
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = set()
    for path in pkg.glob("*.py"):
        if path.name != "__init__.py":
            used |= referenced_names(path)
    for path in (SRC.parent / "perfbench").glob("*.py"):
        used |= referenced_names(path, strings=True)
    # validate_schedule is the planner's independent invariant check: the
    # tests compare plan_schedule against it, and no construction may call it
    # without ceasing to be independent of the planner
    assert sorted(exported - used - {"validate_schedule"}) == []
