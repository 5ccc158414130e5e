"""Spans for the traced run and the per-layer metrics derived from them.

The traced run rebinds public functions, from the benchmark's own code, on
the modules that call them: on the ``geocatch`` package for the benchmark's
own calls, and on ``geocatch.symbolic`` and ``geocatch.tgcc`` for the
cross-layer calls (``solve_itinerary`` as ``realize`` and
``stability_report`` call it; ``trace``, ``first_hit_time`` and
``dense_sites`` as ``check_tgcc`` calls them). The library itself is not
changed. Spans stay in memory until the run ends. High-frequency spans
(``HOT``) are folded into per-name totals and counts as they close.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

HOT = frozenset({"tgcc.first_hit_time", "flow.trace"})


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    parent_name: Optional[str]
    op: int
    op_kind: str
    start: float
    end: float = math.nan
    self_s: float = math.nan   # duration minus the time its children cover
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class HotTotal:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    attrs: Dict[str, float] = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.hot: Dict[tuple, HotTotal] = {}  # (name, op_kind) -> totals
        self._stack: List[list] = []  # [span id or None, name, start, child_s]
        self.op = 0
        self.op_kind = "setup"

    def run_op(self, kind: str, fn: Callable[[], Any]) -> Any:
        self.op += 1
        self.op_kind = kind
        return self.call("op." + kind, None, fn)

    def call(self, name: str, attrs: Optional[Callable], fn: Callable,
             *args, **kwargs) -> Any:
        hot = name in HOT
        parent = self._stack[-1] if self._stack else None
        span = None
        if not hot:
            span = Span(id=len(self.spans), name=name,
                        parent=parent[0] if parent else None,
                        parent_name=parent[1] if parent else None,
                        op=self.op, op_kind=self.op_kind, start=0.0)
            self.spans.append(span)
        frame = [span.id if span else None, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            if self._stack:
                self._stack[-1][3] += dur
            extra = attrs(result, args) if attrs and result is not None else {}
            if hot:
                tot = self.hot.setdefault((name, self.op_kind), HotTotal())
                tot.calls += 1
                tot.total_s += dur
                tot.self_s += dur - frame[3]
                for k, v in extra.items():
                    tot.attrs[k] = tot.attrs.get(k, 0) + v
            else:
                span.start, span.end = frame[2], end
                span.self_s = dur - frame[3]
                span.attrs = extra

    def wrap(self, name: str, fn: Callable, attrs: Optional[Callable] = None):
        def traced(*args, **kwargs):
            return self.call(name, attrs, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced


def _report_attrs(rep, args):
    out = {"samples": rep.n_samples, "caught": rep.caught,
           "witnesses": rep.n_samples - rep.caught}
    if rep.scene.kind != "torus":
        out["useful"] = sum(rep.T if h is None else min(h, rep.T)
                            for h in rep.first_hits)
        out["traced"] = rep.n_samples * rep.T
    return out


def _switch_dev(cert):
    return max((abs(a - b) for a, b in zip(cert.realized_switches,
                                           cert.schedule.times)), default=0.0)


def install(tracer: Tracer, gc) -> Callable[[], None]:
    """Rebind the traced functions; returns the function that undoes it."""
    targets = [
        (gc, "solve_itinerary", "symbolic.solve_itinerary",
         lambda r, a: {"symbols": len(a[2]), "bits": r.bits}),
        (gc.symbolic, "solve_itinerary", "symbolic.solve_itinerary",
         lambda r, a: {"symbols": len(a[2]), "bits": r.bits}),
        (gc, "realize", "symbolic.realize", lambda r, a: {"symbols": len(a[2])}),
        (gc, "stability_report", "symbolic.stability_report", None),
        (gc, "itinerary_of", "flow.itinerary_of", None),
        (gc, "check_tgcc", "tgcc.check_tgcc", _report_attrs),
        (gc.tgcc, "first_hit_time", "tgcc.first_hit_time", None),
        (gc.tgcc, "trace", "flow.trace", lambda r, a: {"events": len(r.events)}),
        (gc.tgcc, "dense_sites", "catcher.dense_sites", None),
        (gc, "build_catcher", "catcher.build_catcher",
         lambda r, a: {"waypoints": len(r.waypoints)}),
        (gc, "occupancy", "analysis.occupancy",
         lambda r, a: {"horizon": max(a[3])}),
        (gc, "random_slow_path", "evader.random_slow_path", None),
        (gc, "plan_schedule", "evader.plan_schedule", None),
        (gc, "realize_schedule", "evader.realize_schedule",
         lambda r, a: {"word_len": len(r.word), "switch_dev": _switch_dev(r)}),
        (gc, "verify_evasion", "evader.verify_evasion",
         lambda r, a: {"margin": a[0].margin}),
        (gc.cli, "main", "cli.main", lambda r, a: {"command": a[0][0]}),
    ]
    saved = []
    for module, attr, name, attrs in targets:
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(name, fn, attrs))

    def undo():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
    return undo


# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    ("symbolic.solve_s", "s"),
    ("symbolic.solve_s_per_symbol.short", "s/symbol"),
    ("symbolic.solve_s_per_symbol.long", "s/symbol"),
    ("symbolic.realize_s", "s"),
    ("symbolic.realize_inner_solve_s", "s"),
    ("symbolic.stability_s", "s"),
    ("symbolic.symbols", "count"),
    ("symbolic.bits_max", "bits"),
    ("flow.itinerary_of_s", "s"),
    ("flow.trace_calls", "count"),
    ("flow.trace_s", "s"),
    ("flow.events", "count"),
    ("flow.events_per_s", "1/s"),
    ("tgcc.check_s", "s"),
    ("tgcc.samples", "count"),
    ("tgcc.samples_per_s", "1/s"),
    ("tgcc.caught", "count"),
    ("tgcc.witnesses", "count"),
    ("tgcc.first_hit_calls", "count"),
    ("tgcc.first_hit_self_s", "s"),
    ("tgcc.useful_horizon_frac", "ratio"),
    ("catcher.build_s", "s"),
    ("catcher.waypoints", "count"),
    ("catcher.dense_sites_s", "s"),
    ("analysis.occupancy_s", "s"),
    ("analysis.occupancy_horizon_per_s", "s/s"),
    ("evader.plan_s", "s"),
    ("evader.realize_schedule_s", "s"),
    ("evader.verify_s", "s"),
    ("evader.word_len", "count"),
    ("evader.min_margin", "length"),
    ("evader.worst_switch_dev", "s"),
    ("cli.itinerary_s", "s"),
    ("cli.tgcc_s", "s"),
    ("cli.evade_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
)
SHORT_WORD, LONG_WORD = 12, 24


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int, overhead: float) -> Dict[str, float]:
    """Per-layer values. Times and counts of round work are means per traced
    round; spans inside the CLI op count only towards cli.*, and set-up spans
    only towards catcher.build_s and catcher.waypoints."""
    work = [s for s in tracer.spans if s.op_kind not in ("cli", "setup")]

    def spans(name, parent=None):
        return [s for s in work if s.name == name
                and (parent is None or s.parent_name == parent)]

    n = max(rounds, 1)

    def per_round(values):
        return sum(values) / n

    def hot(name):
        out = HotTotal()
        for (n, kind), tot in tracer.hot.items():
            if n == name and kind not in ("cli", "setup"):
                out.calls += tot.calls
                out.total_s += tot.total_s
                out.self_s += tot.self_s
                for k, v in tot.attrs.items():
                    out.attrs[k] = out.attrs.get(k, 0) + v
        return out

    solves = spans("symbolic.solve_itinerary", parent="op.word")
    short = [s for s in solves if s.attrs.get("symbols", 0) <= SHORT_WORD]
    long_ = [s for s in solves if s.attrs.get("symbols", 0) >= LONG_WORD]
    checks = spans("tgcc.check_tgcc")
    bounded = [s for s in checks if "traced" in s.attrs]
    trace, first_hit = hot("flow.trace"), hot("tgcc.first_hit_time")
    occupancy = spans("analysis.occupancy")
    realized = spans("evader.realize_schedule")
    verified = spans("evader.verify_evasion")
    builds = [s for s in tracer.spans
              if s.name == "catcher.build_catcher" and s.op_kind == "setup"]
    cli = [s for s in tracer.spans if s.name == "cli.main"]
    all_solves = spans("symbolic.solve_itinerary")

    m = {
        "symbolic.solve_s": per_round(s.dur for s in solves),
        "symbolic.solve_s_per_symbol.short": _ratio(
            sum(s.dur for s in short), sum(s.attrs["symbols"] for s in short)),
        "symbolic.solve_s_per_symbol.long": _ratio(
            sum(s.dur for s in long_), sum(s.attrs["symbols"] for s in long_)),
        "symbolic.realize_s": per_round(s.dur for s in spans("symbolic.realize")),
        "symbolic.realize_inner_solve_s": per_round(
            s.dur for s in spans("symbolic.solve_itinerary", parent="symbolic.realize")),
        "symbolic.stability_s": sum(s.dur for s in spans("symbolic.stability_report")),
        "symbolic.symbols": per_round(s.attrs.get("symbols", 0) for s in solves),
        "symbolic.bits_max": max((s.attrs.get("bits", 0) for s in all_solves), default=0),
        "flow.itinerary_of_s": per_round(s.dur for s in spans("flow.itinerary_of")),
        "flow.trace_calls": trace.calls / n,
        "flow.trace_s": trace.total_s / n,
        "flow.events": trace.attrs.get("events", 0) / n,
        "flow.events_per_s": _ratio(trace.attrs.get("events", 0), trace.total_s),
        "tgcc.check_s": per_round(s.dur for s in checks),
        "tgcc.samples": per_round(s.attrs.get("samples", 0) for s in checks),
        "tgcc.samples_per_s": _ratio(sum(s.attrs.get("samples", 0) for s in checks),
                                     sum(s.dur for s in checks)),
        "tgcc.caught": per_round(s.attrs.get("caught", 0) for s in checks),
        "tgcc.witnesses": per_round(s.attrs.get("witnesses", 0) for s in checks),
        "tgcc.first_hit_calls": first_hit.calls / n,
        "tgcc.first_hit_self_s": first_hit.self_s / n,
        "tgcc.useful_horizon_frac": _ratio(sum(s.attrs["useful"] for s in bounded),
                                           sum(s.attrs["traced"] for s in bounded)),
        "catcher.build_s": sum(s.dur for s in builds),
        "catcher.waypoints": sum(s.attrs.get("waypoints", 0) for s in builds),
        "catcher.dense_sites_s": per_round(
            s.dur for s in spans("catcher.dense_sites", parent="tgcc.check_tgcc")),
        "analysis.occupancy_s": per_round(s.dur for s in occupancy),
        "analysis.occupancy_horizon_per_s": _ratio(
            sum(s.attrs.get("horizon", 0) for s in occupancy),
            sum(s.dur for s in occupancy)),
        "evader.plan_s": per_round(s.dur for s in spans("evader.plan_schedule")),
        "evader.realize_schedule_s": per_round(s.dur for s in realized),
        "evader.verify_s": per_round(s.dur for s in verified),
        "evader.word_len": per_round(s.attrs.get("word_len", 0) for s in realized),
        "evader.min_margin": min((s.attrs["margin"] for s in verified
                                  if "margin" in s.attrs), default=0.0),
        "evader.worst_switch_dev": max((s.attrs.get("switch_dev", 0.0)
                                        for s in realized), default=0.0),
        "bench.trace_overhead_frac": overhead,
    }
    for command in ("itinerary", "tgcc", "evade"):
        m[f"cli.{command}_s"] = sum(s.dur for s in cli
                                    if s.attrs.get("command") == command)
    return m
