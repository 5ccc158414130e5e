"""geocatch benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload itinerary --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Ops run one after another in this process. The run first performs its
once-per-run ops, then repeats rounds, each the workload's fixed problem with
fresh seeded inputs, until ``--seconds`` is used up. Every op's output is
checked after its round, outside the timed region. The last line of stdout is
a JSON object with the metrics gated in BENCHMARK.json: the end-to-end ones
with ``--trace 0``; with ``--trace 1`` each round runs untraced and then
traced on the same inputs, and it carries the per-layer ones. The line before
it (``report {...}``) holds every figure of the run. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("itinerary", "torus_tgcc", "bounded_tgcc", "evade")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"))
IMPORT_PROBE = ("import time; t = time.perf_counter(); import geocatch; "
                "print(time.perf_counter() - t, geocatch.__file__)")


class BenchError(Exception):
    pass


def import_geocatch():
    """Import geocatch from the checkout's src/ and nowhere else."""
    pkg = SRC / "geocatch"
    if not (pkg / "__init__.py").is_file():
        raise BenchError(f"no geocatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import geocatch
    if Path(geocatch.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"geocatch imported from {geocatch.__file__}, not {pkg}")
    return geocatch


def child_import_s() -> float:
    """Seconds one fresh interpreter spends on `import geocatch`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    seconds, path = out.stdout.split()
    if Path(path).resolve().parent != (SRC / "geocatch").resolve():
        raise BenchError(f"child imported geocatch from {path}")
    return float(seconds)


def environment(gc) -> dict:
    import mpmath
    import numpy
    return {"backend": gc.symbolic._BACKEND, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "GEOCATCH_THREADS": os.environ.get("GEOCATCH_THREADS")}


def percentile(values, pct):
    """Nearest-rank percentile and the number of values beyond it."""
    v = sorted(values)
    k = max(1, math.ceil(pct / 100 * len(v)))
    return v[k - 1], len(v) - k


def run_op(op, tracer):
    t0 = time.perf_counter()
    try:
        out = tracer.run_op(op.kind, op.run) if tracer else op.run()
        err = None
    except Exception as ex:  # a raising op is a failed op, not a failed run
        out, err = None, f"{type(ex).__name__}: {ex}"
    return out, err, time.perf_counter() - t0


def check_outputs(ops, results, failures):
    """Check each op's output; returns (failed count, units of work)."""
    failed = units = 0
    for op, (out, err, _) in zip(ops, results):
        if err is None:
            try:
                op.check(out)
                units += op.units(out)
                continue
            except Exception as ex:  # any exception in a check is a wrong output
                err = f"{type(ex).__name__}: {ex}"
        failed += 1
        failures.append(f"{op.kind}: {err}")
    return failed, units


def run_ops(ops, tracer=None, gc=None):
    """Run ops back to back; returns (wall seconds, per-op results)."""
    undo = None
    if tracer is not None:
        undo = tracing.install(tracer, gc)
    try:
        t0 = time.perf_counter()
        results = [run_op(op, tracer) for op in ops]
        return time.perf_counter() - t0, results
    finally:
        if undo:
            undo()


def measure(gc, wl, seconds, tracer, out_dir):
    """Once-per-run ops, then rounds until `seconds` is used up. With a
    tracer, each round runs untraced and then traced on the same inputs."""
    stats = {"attempted": 0, "failed": 0, "latencies": [], "walls": [],
             "rates": [], "traced_walls": [], "failures": []}
    t_start = time.perf_counter()

    def account(ops, results):
        failed, units = check_outputs(ops, results, stats["failures"])
        stats["attempted"] += len(ops)
        stats["failed"] += failed
        stats["latencies"] += [dt for _, _, dt in results]
        return units

    once = wl.once_ops(out_dir)
    account(once, run_ops(once, tracer, gc)[1])
    cpus = sorted(os.sched_getaffinity(0))
    r, last = 0, 0.0
    try:
        while r == 0 or time.perf_counter() - t_start + last <= seconds:
            # rounds take turns on the CPUs this process may use: on a shared
            # host one CPU can run 1.4x slower than another for a minute
            os.sched_setaffinity(0, {cpus[r % len(cpus)]})
            t_round = time.perf_counter()
            ops = wl.round_ops(r)
            wall, results = run_ops(ops)
            units = account(ops, results)
            stats["walls"].append(wall)
            stats["rates"].append(units / wall)
            if tracer is not None:
                wall, results = run_ops(ops, tracer, gc)
                account(ops, results)
                stats["traced_walls"].append(wall)
            last = time.perf_counter() - t_round
            r += 1
    finally:
        os.sched_setaffinity(0, cpus)
    stats["rounds"] = r
    return stats


def setup(gc, cls, seed, tracer):
    """Median set-up time and the workload object.

    Set-up is the import of geocatch, measured in fresh interpreters, plus
    the workload's scene and catcher construction and input generation,
    repeated in this process. A traced run sets up once, traced."""
    if tracer is not None:
        undo = tracing.install(tracer, gc)
        try:
            return math.nan, cls(seed)
        finally:
            undo()
    imports = [child_import_s() for _ in range(SETUP_REPEATS)]
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = cls(seed)
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), wl


def run_one(args) -> int:
    gc = import_geocatch()
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    setup_s, wl = setup(gc, cls, args.seed, tracer)
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        st = measure(gc, wl, args.seconds, tracer, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass
    lat = st["latencies"]
    tail, beyond = percentile(lat, wl.tail_pct)
    # printed with every result, but not gated in BENCHMARK.json (see README)
    reported = {"wall_s": (min(st["walls"]), "s"), "throughput": (max(st["rates"]), "1/s"),
                "op_p50_s": (statistics.median(lat), "s"), "op_tail_s": (tail, "s"),
                "failed_frac": (st["failed"] / st["attempted"], "ratio")}
    if tracer is not None:
        overhead = sum(st["traced_walls"]) / sum(st["walls"]) - 1
        values = tracing.layer_metrics(tracer, st["rounds"], overhead)
        spec = tracing.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment(gc), "rounds": st["rounds"],
              "round_walls": st["walls"], "ops": len(lat),
              "tail": {"percentile": wl.tail_pct, "ops": len(lat), "ops_beyond": beyond},
              "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
              "failures": st["failures"][:5], "metrics": metrics}
    print(f"# {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"{st['rounds']} rounds, {len(lat)} ops")
    rows = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    rows += [(k, v, u) for k, (v, u) in reported.items()]
    for name, value, unit in rows:
        print(f"#   {name:36s} {value:.6g} {unit}")
    print(f"#   op_tail_s is p{wl.tail_pct}: {beyond} of {len(lat)} ops beyond it")
    for msg in st["failures"][:5]:
        print(f"# failed: {msg}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": st["failed"] == 0, "attempted": st["attempted"],
                      "failed": st["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so set-up and peak memory stay
    per workload; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stderr)
            raise BenchError(f"workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except (BenchError, subprocess.SubprocessError) as ex:
        print(f"benchmark error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
