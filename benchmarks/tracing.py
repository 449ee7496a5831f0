"""Span tracing of freezeflow's layers from outside the package.

The tracer wraps the functions and methods that the solver calls by name
(module attributes and class attributes), records one span per call and
derives per-layer counts, self times and ratios from them.  Nothing inside
``src/`` changes: a layer whose attribute is gone is reported as absent.

Spans form a tree through their parent ids.  A span's self time is its
duration minus the durations of its direct child spans; calls are strictly
nested in one thread, so the children never overlap.  Aggregates are kept for
every span, while full span records are kept only up to ``keep`` spans so a
traced run of millions of membership probes stays small in memory.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (span name, module, attribute path, optional measure of the return value)
TARGETS = [
    ("cli.solve", "freezeflow.cli", "cmd_solve", None),
    ("geometry.extract", "freezeflow.geometry", "extract_boundaries", None),
    ("geometry.march", "freezeflow.geometry", "_march_segments", None),
    ("geometry.march", "freezeflow.geometry", "_chain", None),
    ("geometry.refine", "freezeflow.geometry", "_refine_corner", None),
    ("geometry.refine", "freezeflow.geometry", "_refine_tip", None),
    ("characteristics.trace", "freezeflow.characteristics", "_trace", None),
    ("characteristics.classify", "freezeflow.characteristics", "classify", None),
    ("levelset.eval_grid", "freezeflow.levelset", "SolutionField.eval_grid", None),
    ("levelset.eval", "freezeflow.levelset", "SolutionField.eval_v", None),
    ("levelset.eval", "freezeflow.levelset", "SolutionField.eval_w", None),
    ("levelset.level_pair", "freezeflow.levelset", "_LevelPair.__init__", None),
    ("levelset.slice", "freezeflow.levelset", "_LevelSlice.__init__", None),
    ("levelset.membership", "freezeflow.levelset", "_LevelSlice.membership", None),
    ("levelset.survivors", "freezeflow.levelset", "_LevelSlice.survivors", None),
    ("levelset.k_regions", "freezeflow.levelset", "_k_regions", lambda r: len(r[0])),
    ("levelset.component_structure", "freezeflow.levelset", "_component_structure", None),
    ("problem.validate", "freezeflow.levelset", "validate", None),
    ("problem.level_intervals", "freezeflow.problem", "PiecewiseLinear._level_intervals", None),
    ("intervals.union", "freezeflow.intervals", "IntervalUnion.__init__", None),
]


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.stack: list = []  # frames: [span id, name, start, time in children]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.incl_s: dict = defaultdict(float)
        self.measured: dict = defaultdict(float)
        self.edge_calls: dict = defaultdict(int)  # (parent name, name) -> calls
        self.edge_s: dict = defaultdict(float)  # (parent name, name) -> inclusive s
        self.spans: list = []  # (id, parent id, name, start, end)
        self.dropped = 0
        self.next_id = 0
        self.absent: list = []
        self._installed: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, measure=None):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            self.next_id += 1
            frame = [self.next_id, name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(frame, end)
            if measure is not None:
                self.measured[name] += measure(result)
            return result

        return traced

    def _close(self, frame, end):
        span_id, name, start, child_s = frame
        dur = end - start
        self.calls[name] += 1
        self.incl_s[name] += dur
        self.self_s[name] += dur - child_s
        parent = self.stack[-1] if self.stack else None
        parent_name = parent[1] if parent else None
        self.edge_calls[(parent_name, name)] += 1
        self.edge_s[(parent_name, name)] += dur
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < self.keep:
            self.spans.append((span_id, parent[0] if parent else 0, name, start, end))
        else:
            self.dropped += 1

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace every target attribute by its traced wrapper."""
        for name, module_name, path, measure in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, measure))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per traced round (see README.md for the map)."""
        r = float(rounds)
        c, s, e = self.calls, self.self_s, self.edge_calls

        def ratio(num, den):
            return num / den if den else 0.0

        evals = c["levelset.eval"]
        eval_probes = e[("levelset.eval", "levelset.membership")]
        eval_misses = e[("levelset.eval", "levelset.level_pair")]
        return {
            "problem.level_intervals.calls": c["problem.level_intervals"] / r,
            "problem.level_intervals.s": s["problem.level_intervals"] / r,
            "levelset.eval.calls": evals / r,
            "levelset.eval.s": s["levelset.eval"] / r,
            "levelset.probes": c["levelset.membership"] / r,
            "levelset.membership.s": s["levelset.membership"] / r,
            "levelset.probes_per_eval": ratio(eval_probes, evals),
            "levelset.slices_built": c["levelset.slice"] / r,
            "levelset.slice_build.s": (self.incl_s["levelset.level_pair"] + self.incl_s["levelset.slice"]) / r,
            "levelset.slices_per_eval": ratio(e[("levelset.eval", "levelset.slice")], evals),
            "levelset.cache_hit_ratio": ratio(eval_probes - eval_misses, eval_probes),
            "levelset.k_regions.calls": c["levelset.k_regions"] / r,
            "levelset.k_regions.s": s["levelset.k_regions"] / r,
            "levelset.k_regions.nodes_mean": ratio(self.measured["levelset.k_regions"], c["levelset.k_regions"]),
            "levelset.component_structure.calls": c["levelset.component_structure"] / r,
            "levelset.component_structure.s": s["levelset.component_structure"] / r,
            "levelset.survivors.calls": c["levelset.survivors"] / r,
            "levelset.survivors.s": s["levelset.survivors"] / r,
            "intervals.union.calls": c["intervals.union"] / r,
            "intervals.union.s": s["intervals.union"] / r,
            "characteristics.trace.s": s["characteristics.trace"] / r,
            "characteristics.classify.calls": c["characteristics.classify"] / r,
            "characteristics.classify.s": s["characteristics.classify"] / r,
            "characteristics.evals_per_trace": ratio(evals, c["characteristics.trace"]),
            "geometry.eval_grid.s": self.edge_s[("geometry.extract", "levelset.eval_grid")] / r,
            "geometry.march.s": self.incl_s["geometry.march"] / r,
            "geometry.refine.s": self.incl_s["geometry.refine"] / r,
            "geometry.refine.evals": e[("geometry.refine", "levelset.eval")] / r,
            "cli.solve.s": self.incl_s["cli.solve"] / r,
            "cli.format.s": s["cli.solve"] / r,
        }

    def write(self, path, extra: dict):
        """Write the kept spans and the per-name aggregates as JSON."""
        names = sorted(self.calls)
        obj = dict(extra)
        obj.update(
            {
                "absent": self.absent,
                "layers": {
                    n: {"calls": self.calls[n], "self_s": self.self_s[n], "incl_s": self.incl_s[n]}
                    for n in names
                },
                "spans_kept": len(self.spans),
                "spans_dropped": self.dropped,
                "spans": [list(sp) for sp in self.spans],
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
