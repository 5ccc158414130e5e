"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import tracing

gc = run.import_geocatch()
import workloads  # noqa: E402  (needs geocatch on the path)

NAMES = sorted(workloads.WORKLOADS)


def tiny_ops(name, seed, out_dir):
    wl = workloads.WORKLOADS[name](seed, tiny=True)
    return wl.once_ops(str(out_dir)) + wl.round_ops(0)


def run_checked(ops, tracer=None):
    failures = []
    _, results = run.run_ops(ops, tracer, gc)
    failed, units = run.check_outputs(ops, results, failures)
    assert failed == 0, failures
    assert units > 0
    return [out for out, _, _ in results]


@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_tiny(name, tmp_path):
    run_checked(tiny_ops(name, 1, tmp_path))


@pytest.mark.parametrize("name", NAMES)
def test_traced_round_reports_every_layer_metric(name, tmp_path):
    tracer = tracing.Tracer()
    run_checked(tiny_ops(name, 1, tmp_path), tracer)
    values = tracing.layer_metrics(tracer, rounds=1, overhead=0.0)
    assert set(values) == {n for n, _ in tracing.PER_LAYER}
    assert all(math.isfinite(v) for v in values.values())
    assert any(v > 0 for k, v in values.items() if not k.startswith("cli."))


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs(name):
    cls = workloads.WORKLOADS[name]
    assert cls(1).rounds != cls(2).rounds
    assert cls(1).rounds == cls(1).rounds


def discrete(out):
    """The parts of an op's output that must repeat exactly."""
    if isinstance(out, gc.TgccReport):
        return out.n_samples, out.caught, out.witnesses
    if isinstance(out, gc.OccupancySeries):
        return out.horizons
    if isinstance(out, tuple) and isinstance(out[0], int):  # CLI: (code, json)
        return out[0], {k: v for k, v in out[1].items() if isinstance(v, (int, str))}
    if isinstance(out, tuple) and isinstance(out[0], gc.AngleInterval):
        return out[2].word, [e.wall for e in out[1].events]
    if isinstance(out, tuple) and isinstance(out[1], gc.EvasionCertificate):
        return out[1].word.word, out[2], discrete(out[3])
    return type(out).__name__


@pytest.mark.parametrize("name", NAMES)
def test_fixed_seed_reproduces_discrete_outputs(name, tmp_path):
    first = run_checked(tiny_ops(name, 7, tmp_path / "a"))
    second = run_checked(tiny_ops(name, 7, tmp_path / "b"))
    assert [discrete(o) for o in first] == [discrete(o) for o in second]


def test_torus_first_hits_do_not_depend_on_worker_count(monkeypatch):
    wl = workloads.TorusTgcc(3, tiny=True)
    op = wl.round_ops(0)[0]
    monkeypatch.delenv("GEOCATCH_THREADS", raising=False)
    one = op.run()
    monkeypatch.setenv("GEOCATCH_THREADS", "2")
    two = op.run()
    assert one.first_hits == two.first_hits
    assert one.n_samples == two.n_samples > 0


def test_percentile_reports_ops_beyond():
    assert run.percentile(range(1, 21), 90) == (18, 2)
    assert run.percentile([5.0], 75) == (5.0, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, str(tmp_path / "perfbench" / "run.py"),
                          "--workload", "evade", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_metric_names_and_units_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
