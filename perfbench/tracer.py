"""In-memory spans around champagne's public entry points.

The tracer wraps the functions named in ``HOOKS`` from outside the package:
each call records a span (name, start, end, parent, note) in a list that is
written out once the run ends.  A hook whose target no longer exists is
reported in ``absent`` and its metrics are left out, so a refactor that
removes a function does not break the benchmark.

Wrapping replaces the function wherever a champagne module holds it,
including names bound by ``from .x import f``, so calls made through the
CLI's imports are traced too.  Spans assume one thread: run the walker with
``CHAMPAGNE_THREADS`` unset.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute path, span name).  Two hooks may share a span name.
HOOKS = (
    ("champagne.cli", "main", "cli.main"),
    ("champagne.generators", "generate_subsquares", "generators.generate"),
    ("champagne.geometry", "loads_config", "geometry.loads_config"),
    ("champagne.geometry", "validate_configuration", "geometry.validate"),
    ("champagne.geometry", "SpatialIndex.__init__", "geometry.index_build"),
    ("champagne.geometry", "SpatialIndex.distance_many", "geometry.distance_many"),
    ("champagne.criteria", "log_weighted_series", "criteria.series"),
    ("champagne.criteria", "poisson_series", "criteria.series"),
    ("champagne.criteria", "separation", "criteria.separation"),
    ("champagne.criteria", "shrink_for_separation", "criteria.shrink_for_separation"),
    ("champagne.criteria", "integral_test", "criteria.integral_test"),
    ("champagne.capacity", "cell_capacity_weights", "capacity.cell_capacity_weights"),
    ("champagne.capacity", "generation_clusters", "capacity.generation_clusters"),
    ("champagne.capacity", "cluster_log_capacity", "capacity.cluster_log_capacity"),
    ("champagne.capacity", "cluster_c2", "capacity.cluster_c2"),
    ("champagne.capacity", "quasiadditivity_ratio", "capacity.quasiadditivity"),
    ("champagne.capacity", "cell_capacity_series", "capacity.cell_capacity_series"),
    ("champagne.walker", "estimate_escape", "walker.estimate_escape"),
    ("champagne.walker", "walk_uniforms", "walker.walk_uniforms"),
)

# Exact counts read from a call's arguments or result.
NOTES = {
    "geometry.distance_many": lambda args, result: {"points": len(args[1])},
    "generators.generate": lambda args, result: {
        "discs": result.disc_count,
        "blocks": len(result.blocks),
    },
    "capacity.cluster_log_capacity": lambda args, result: {"n": args[0].n},
    "walker.estimate_escape": lambda args, result: {
        "steps": round(result.mean_steps * result.n_walks),
        "censored": result.n_censored,
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self.hooked: set[str] = set()
        self.absent: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if note is not None:
                    record[4] = note(args, result)
                return result

        return traced

    def install(self) -> None:
        for module_name, path, name in HOOKS:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapped = self._wrap(original, name)
            if owner is module:
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").partition(".")[0] != "champagne":
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapped)
            else:
                setattr(owner, attr, wrapped)
            self.hooked.add(name)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "note": note}
            for n, s, e, p, note in self.spans
        ]


def _roots(spans: list[list]) -> list[int]:
    roots = []
    for i, (_, _, _, parent, _) in enumerate(spans):
        roots.append(i if parent < 0 else roots[parent])
    return roots


def layer_metrics(tracer: Tracer, exclude_root: str | None = None) -> dict:
    """Per-module metrics from the spans, as {name: {"value", "unit"}}.

    ``*_s`` is self time (span time minus the time of child spans), except
    ``walker.estimate_escape_s``, which is the whole time spent inside
    ``estimate_escape``.  Spans under a root named ``exclude_root`` are left
    out of the sums.
    """
    spans = tracer.spans
    roots = _roots(spans)
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    per_call: dict[str, list[float]] = defaultdict(list)
    counts: dict[str, int] = defaultdict(int)
    per_generation: dict[int, list[float]] = defaultdict(list)
    walker_distance_s = 0.0
    for i, (name, start, end, parent, note) in enumerate(spans):
        if exclude_root is not None and spans[roots[i]][0] == exclude_root:
            continue
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - child_time[i]
        total_s[name] += duration
        per_call[name].append(duration)
        for key, value in (note or {}).items():
            if key != "n":
                counts[f"{name}.{key}"] += value
        if name == "capacity.cluster_log_capacity" and note:
            per_generation[note["n"]].append(duration)
        if name == "geometry.distance_many":
            j = parent
            while j >= 0 and spans[j][0] != "walker.estimate_escape":
                j = spans[j][3]
            if j >= 0:
                walker_distance_s += duration

    out: dict[str, dict] = {}

    def put(name: str, value, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    hooked = tracer.hooked
    for name in sorted(hooked):
        put(f"{name}_s", self_s[name], "s")
    if "walker.estimate_escape" in hooked:
        put("walker.estimate_escape_s", total_s["walker.estimate_escape"], "s")
        put("walker.walk_steps", counts["walker.estimate_escape.steps"], "count")
        put("walker.censored", counts["walker.estimate_escape.censored"], "count")
        if "geometry.distance_many" in hooked and total_s["walker.estimate_escape"] > 0.0:
            put(
                "walker.distance_share",
                walker_distance_s / total_s["walker.estimate_escape"],
                "ratio",
            )
    if "generators.generate" in hooked:
        put("generators.discs", counts["generators.generate.discs"], "count")
        put("generators.blocks", counts["generators.generate.blocks"], "count")
    if "geometry.distance_many" in hooked:
        put("geometry.distance_many_calls", calls["geometry.distance_many"], "count")
        put("geometry.distance_many_points", counts["geometry.distance_many.points"], "count")
    if "criteria.series" in hooked:
        put("criteria.series_calls", calls["criteria.series"], "count")
        if calls["criteria.series"]:
            put(
                "criteria.series_us_per_point",
                1e6 * self_s["criteria.series"] / calls["criteria.series"],
                "us",
            )
    for name in ("capacity.cluster_c2", "capacity.generation_clusters"):
        if name in hooked:
            put(f"{name}_calls", calls[name], "count")
    for n, durations in sorted(per_generation.items()):
        put(f"capacity.cluster_log_capacity_s.n{n}", statistics.median(durations), "s")
    if "capacity.quasiadditivity" in hooked:
        samples = per_call["capacity.quasiadditivity"]
        put("capacity.quasiadditivity_calls", len(samples), "count")
        if len(samples) >= 2:
            put("capacity.quasiadditivity_s.median", statistics.median(samples), "s")
            put(
                "capacity.quasiadditivity_s.p90",
                statistics.quantiles(samples, n=10, method="inclusive")[-1],
                "s",
            )
    return out
