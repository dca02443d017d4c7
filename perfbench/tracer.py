"""Spans around curvekit's public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
module (or class) where a caller looks the name up, and `uninstall()` puts
the originals back, so an untraced run executes the package unpatched.

A span has a name, a start, an end, a parent span and the id of the op that
caused it.  Spans are kept in memory and written out by `write()` at the
end.  The two evaluators are called up to millions of times per run, so
their spans are leaves folded into one record per (parent span, name): call
count, total time and points evaluated.  A span's self time is its duration
minus the durations of its children, leaves included.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from curvekit import area, cli, expr, intersect, polar, roulette

_clock = time.perf_counter


def _counting(fn, tracer, counter, size_of):
    def counted(*args, **kwargs):
        tracer.counters[counter] += size_of(args)
        return fn(*args, **kwargs)
    return counted


class Tracer:
    def __init__(self):
        self.op = None
        self.spans = []        # (id, name, parent, op, start, end, self_s)
        self.leaves = {}       # (parent, name) -> [calls, seconds, points]
        self.counters = defaultdict(float)
        self._stack = []       # open spans: [id, name, start, child_seconds]
        self._active = defaultdict(int)
        self._saved = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None, reentrant=True):
        def wrapper(*args, **kwargs):
            if not reentrant and self._active[name]:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [len(self.spans) + len(self._stack) + 1, name, _clock(), 0.0]
            self._stack.append(frame)
            self._active[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(None, exc)
                raise
            finally:
                end = _clock()
                self._active[name] -= 1
                self._stack.pop()
                duration = end - frame[2]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[3] += duration
                self.spans.append((frame[0], name, parent[0] if parent else 0, self.op,
                                   frame[2], end, duration - frame[3]))
            if after is not None:
                after(result, None)
            return result
        return wrapper

    def _leaf(self, name, fn, points=None):
        def wrapper(*args, **kwargs):
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = _clock() - start
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[3] += duration
                key = (parent[0] if parent else 0, name)
                record = self.leaves.get(key)
                if record is None:
                    record = self.leaves[key] = [0, 0.0, 0]
                record[0] += 1
                record[1] += duration
                if points is not None:
                    record[2] += points(args)
        return wrapper

    # -- per-layer hooks ----------------------------------------------------

    def _before_find_roots(self, args, kwargs):
        f = _counting(args[0], self, "numerics.find_roots.points", lambda a: a[0].size)
        return (f,) + tuple(args[1:]), kwargs

    def _after_find_roots(self, result, exc):
        if exc is None:
            self.counters["numerics.find_roots.roots"] += len(result)

    def _before_integrate(self, args, kwargs):
        f = _counting(args[0], self, "numerics.integrate.integrand_evals", lambda a: 1)
        return (f,) + tuple(args[1:]), kwargs

    def _after_pieces(self, result, exc):
        if exc is None:
            self.counters["polar.pieces.pieces"] += len(result)
            self.counters["polar.pieces.traced_twice"] += sum(p.traced_twice for p in result)

    def _after_intersections(self, result, exc):
        if exc is None:
            self.counters["intersect.points"] += len(result.points)
        elif isinstance(exc, intersect.IdenticalCurvesError):
            self.counters["intersect.identical"] += 1

    def _before_trace(self, args, kwargs):
        samples = kwargs["samples"] if "samples" in kwargs else args[4]
        self.counters["roulette.trace.points"] += int(samples)
        return args, kwargs

    def _targets(self):
        """(span name, wrapper options, [(owner, attribute), ...])."""
        return [
            ("kernels.hausdorff", {},
             [(intersect, "symmetric_hausdorff"), (polar, "symmetric_hausdorff")]),
            ("numerics.find_roots",
             {"before": self._before_find_roots, "after": self._after_find_roots},
             [(intersect, "find_roots"), (polar, "find_roots"), (area, "find_roots")]),
            ("numerics.integrate", {"before": self._before_integrate},
             [(area, "integrate"), (roulette, "integrate")]),
            ("expr.parse", {}, [(expr, "parse")]),
            ("expr.compile", {}, [(expr, "compile_program")]),
            ("expr.differentiate", {"reentrant": False}, [(expr, "differentiate")]),
            ("expr.array_eval", {"leaf": True, "points": lambda args: args[1].size},
             [(expr.Program, "__call__")]),
            ("expr.scalar_eval", {"leaf": True}, [(expr, "evaluate")]),
            ("polar.period", {}, [(polar.PolarCurve, "period_multiple_of_pi")]),
            ("polar.pieces", {"after": self._after_pieces},
             [(polar, "positive_pieces"), (cli, "positive_pieces")]),
            ("polar.symmetry", {},
             [(polar, "is_rotation_symmetric"), (polar, "is_reflection_symmetric"),
              (cli, "is_rotation_symmetric"), (cli, "is_reflection_symmetric")]),
            ("intersect", {"after": self._after_intersections},
             [(intersect, "intersections"), (cli, "intersections")]),
            ("area.region_intersection", {},
             [(area, "region_intersection_area"), (cli, "region_intersection_area")]),
            ("area.loop", {}, [(area, "loop_area"), (cli, "loop_area")]),
            ("roulette.roll_state", {}, [(roulette, "roll_state")]),
            ("roulette.arc_length", {}, [(roulette, "arc_length")]),
            ("roulette.trace", {"before": self._before_trace},
             [(roulette, "trace"), (cli, "trace")]),
            ("cli.main", {}, [(cli, "main")]),
        ]

    def install(self):
        for name, options, owners in self._targets():
            for owner, attr in owners:
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                if options.get("leaf"):
                    wrapper = self._leaf(name, original, options.get("points"))
                else:
                    wrapper = self._span(name, original, **options)
                setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        totals = defaultdict(float)
        for _, name, _, _, _, _, self_s in self.spans:
            totals[name + ".calls"] += 1
            totals[name + ".self_s"] += self_s
        for (_, name), (calls, seconds, points) in self.leaves.items():
            totals[name + ".calls"] += calls
            totals[name + ".self_s"] += seconds
            totals[name + ".points"] += points
        totals.update(self.counters)
        return dict(totals)

    def write(self, path, meta: dict) -> None:
        t0 = min((s[4] for s in self.spans), default=0.0)
        doc = dict(meta)
        doc["spans_columns"] = ["id", "name", "parent", "op", "start_s", "end_s", "self_s"]
        doc["spans"] = [
            [i, name, parent, op, start - t0, end - t0, self_s]
            for i, name, parent, op, start, end, self_s in self.spans
        ]
        doc["leaves_columns"] = ["parent", "name", "calls", "seconds", "points"]
        doc["leaves"] = [[parent, name, *record] for (parent, name), record in self.leaves.items()]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(doc, handle)
