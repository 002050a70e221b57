"""In-memory spans around the program's public functions, and their summary.

``Tracer.patch`` replaces each function in ``TRACED`` by a wrapper in every
``hypergrowth`` module namespace that holds it (``hypergrowth.report`` binds
``fit_hyperbolic`` as well as ``hypergrowth.fit``), so calls between modules
and calls inside one module are both seen.  The program's files are not
touched.  A span is (name, start, end, parent span, op id); the wrapper also
keeps a few argument references and result sizes, and every count below is
derived after the run, outside the timed spans.  Counts of the benchmark's
own inputs (CSV bytes and cells, table years, configured regions, generated
points) come from the workload's ``input_sizes``, not from the program's
data structures; from the program only series lengths, call arguments and
return values are read.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# module -> public functions wrapped.  ``op`` is the benchmark's own root span.
TRACED = {
    "ingest": ("parse_long_csv", "parse_region_config", "build_region_series"),
    "fit": ("fit_hyperbolic", "scan_windows"),
    "regime": ("segment_two_hyperbolic", "detect_diversion"),
    "takeoff": ("takeoff_test", "takeoff_scan"),
    "report": ("run_analysis", "render_report"),
    "synth": ("generate",),
    "cli": ("main",),
}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _keep(name, args, kwargs, result):
    """What a span keeps for the counts: cheap references and sizes only."""
    if name == "ingest.build_region_series":
        return None if result is None else len(result)
    if name == "fit.fit_hyperbolic":
        return _arg(args, kwargs, 0, "series"), _arg(args, kwargs, 1, "window")
    if name == "fit.scan_windows":
        return (len(_arg(args, kwargs, 0, "series")), _arg(args, kwargs, 1, "min_points", 3),
                None if result is None else len(result))
    if name == "regime.segment_two_hyperbolic":
        return len(_arg(args, kwargs, 0, "series")), _arg(args, kwargs, 1, "min_points", 3)
    if name == "regime.detect_diversion":
        return result is not None
    if name == "takeoff.takeoff_test":
        return len(_arg(args, kwargs, 0, "series")), result is not None and result.positive
    if name == "report.run_analysis":
        return None if result is None else len(result[1])
    if name == "report.render_report":
        return None if result is None else len(result)
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    ok: bool = True
    kept: object = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int = -1
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self.spans.append(span)
            self._stack.append(sid)
            result, span.start = None, perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.ok = False
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
                try:
                    span.kept = _keep(name, args, kwargs, result)
                except Exception:  # a counting miss must never fail the call
                    span.kept = None

        return traced

    @contextmanager
    def patch(self):
        """Wrap every TRACED function wherever a hypergrowth module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hypergrowth" or n.startswith("hypergrowth."))]
        undo = []
        for mod_name, fns in TRACED.items():
            home = sys.modules[f"hypergrowth.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self.wrap(f"{mod_name}.{fn_name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            undo.append((m, attr, orig))
        try:
            yield self
        finally:
            for m, attr, orig in undo:
                setattr(m, attr, orig)

    @contextmanager
    def root(self, op: int):
        """The op's own span; everything the op calls nests under it."""
        self.op = op
        sid = len(self.spans)
        span = Span("op", perf_counter(), 0.0, None, op)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def dump(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                    "parent": s.parent, "op": s.op, "ok": s.ok}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (single thread), so the
    covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _windows_tried(n: int, min_points: int) -> int:
    # Pairs (i, j), j - i + 1 >= m, of n observed years; scan_windows returns
    # early when n < m.
    m = max(min_points, 3)
    return 0 if n < m else (n - m + 1) * (n - m + 2) // 2


def _breakpoints_tried(n: int, min_points: int) -> int:
    m = max(min_points, 3)
    return 0 if n < 2 * m else n - 2 * m + 2


def _candidate_breaks(n: int) -> int:
    # Observed years with >= 2 points at or before and >= 2 after.
    return max(n - 3, 0)


def _points_in(series, window) -> int:
    y = series.years
    return int(((y >= window.start_year) & (y <= window.end_year)).sum())


# (metric, unit) per layer, in output order.
LAYER_METRICS = (
    ("ingest.parse_long_csv.self_s", "s"), ("ingest.parse_long_csv.calls", "count"),
    ("ingest.parse_long_csv.cells", "count"), ("ingest.parse_long_csv.bytes", "bytes"),
    ("ingest.build_region_series.self_s", "s"), ("ingest.build_region_series.calls", "count"),
    ("ingest.build_region_series.years_kept_ratio", "ratio"),
    ("fit.scan_windows.self_s", "s"), ("fit.scan_windows.calls", "count"),
    ("fit.scan_windows.windows_tried", "count"), ("fit.scan_windows.windows_kept_ratio", "ratio"),
    ("fit.fit_hyperbolic.self_s", "s"), ("fit.fit_hyperbolic.calls", "count"),
    ("fit.fit_hyperbolic.points", "count"), ("fit.fit_hyperbolic.rejected", "count"),
    ("regime.segment_two_hyperbolic.self_s", "s"), ("regime.segment_two_hyperbolic.calls", "count"),
    ("regime.segment_two_hyperbolic.breakpoints_tried", "count"),
    ("regime.detect_diversion.self_s", "s"), ("regime.detect_diversion.calls", "count"),
    ("regime.detect_diversion.findings", "count"),
    ("takeoff.takeoff_test.self_s", "s"), ("takeoff.takeoff_test.calls", "count"),
    ("takeoff.takeoff_test.candidate_breaks", "count"), ("takeoff.takeoff_test.positive", "count"),
    ("synth.generate.self_s", "s"), ("synth.generate.calls", "count"),
    ("synth.generate.points", "count"),
    ("report.run_analysis.self_s", "s"), ("report.run_analysis.calls", "count"),
    ("report.run_analysis.regions", "count"), ("report.run_analysis.region_errors", "count"),
    ("report.render_report.self_s", "s"), ("report.render_report.bytes", "bytes"),
    ("cli.main.self_s", "s"), ("cli.main.calls", "count"),
    ("trace.overhead_frac", "ratio"),
)


def layer_metrics(spans: list[Span], op_factor: dict[int, float],
                  op_inputs: dict[int, dict] | None = None) -> dict[str, float]:
    """Per-layer totals over the traced ops.

    ``self_s`` is self time rescaled by its op's host-speed factor (see
    clock.py).  ``op_inputs`` maps an op to the sizes of its inputs
    (``bytes``, ``cells``, ``table_years``, ``regions``, ``points``); each call
    that consumes the op's input adds them.  A layer the workload never
    calls reports zeros, and a span that kept nothing adds no counts.
    """
    op_inputs = op_inputs or {}
    m: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        m[f"{s.name}.self_s"] += t * op_factor.get(s.op, 1.0)
        m[f"{s.name}.calls"] += 1
        size = op_inputs.get(s.op, {})
        if s.name == "ingest.parse_long_csv":
            m["ingest.parse_long_csv.bytes"] += size.get("bytes", 0)
            m["ingest.parse_long_csv.cells"] += size.get("cells", 0)
        elif s.name == "ingest.build_region_series":
            m["_table_years"] += size.get("table_years", 0)
        elif s.name == "fit.fit_hyperbolic":
            m["fit.fit_hyperbolic.rejected"] += not s.ok
        elif s.name == "synth.generate":
            m["synth.generate.points"] += size.get("points", 0)
        elif s.name == "report.run_analysis":
            m["report.run_analysis.regions"] += size.get("regions", 0)
        k = s.kept
        if k is None:
            continue
        if s.name == "ingest.build_region_series":
            m["_years_kept"] += k
        elif s.name == "fit.fit_hyperbolic":
            m["fit.fit_hyperbolic.points"] += _points_in(*k)
        elif s.name == "fit.scan_windows":
            m["fit.scan_windows.windows_tried"] += _windows_tried(k[0], k[1])
            m["_windows_kept"] += k[2] or 0
        elif s.name == "regime.segment_two_hyperbolic":
            m["regime.segment_two_hyperbolic.breakpoints_tried"] += (
                _breakpoints_tried(*k) if s.ok else 0)
        elif s.name == "regime.detect_diversion":
            m["regime.detect_diversion.findings"] += bool(k)
        elif s.name == "takeoff.takeoff_test":
            m["takeoff.takeoff_test.candidate_breaks"] += _candidate_breaks(k[0]) if s.ok else 0
            m["takeoff.takeoff_test.positive"] += bool(k[1])
        elif s.name == "report.run_analysis":
            m["report.run_analysis.region_errors"] += k
        elif s.name == "report.render_report":
            m["report.render_report.bytes"] += k
    m["ingest.build_region_series.years_kept_ratio"] = (
        m["_years_kept"] / m["_table_years"] if m["_table_years"] else 0.0)
    tried = m["fit.scan_windows.windows_tried"]
    m["fit.scan_windows.windows_kept_ratio"] = m["_windows_kept"] / tried if tried else 0.0
    return {name: m.get(name, 0.0) for name, _ in LAYER_METRICS if name != "trace.overhead_frac"}
