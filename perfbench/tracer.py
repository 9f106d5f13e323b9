"""Per-layer timings taken from outside the package.

The tracer swaps a wrapper for each traced function into every polyprog
module that holds it (consumers import some names directly, e.g. `weyl`
imports `_expansions`), so internal calls are traced as well.  A span
stack gives self times: a span's duration minus the time its traced
children took.  Counts come from arguments, return values and the
`cache_info()` of the package's lru caches.  Nothing is written into a
report.  Spans assume one thread; the workloads pass `--threads 1`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _kernel_cells(args, kwargs, result, dt):
    rows = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return {"cells": len(rows) * ncols}


def _witness_time(args, kwargs, result, dt):
    return {"witness_s": 0.0 if result[0] else dt}


def _families(args, kwargs, result, dt):
    return {"families": result.checked + (result.failure is not None)}


def _linear_terms(args, kwargs, result, dt):
    signals, d = args[0], (args[2] if len(args) > 2 else kwargs["d"])
    return {"terms": signals[0].modulus ** (d + 1)}


def _cosets(args, kwargs, result, dt):
    closure = args[2] if len(args) > 2 else kwargs["closure"]
    return {"cosets": len(closure.coset_shifts)}


def _retries(args, kwargs, result, dt):
    return {"retries": int(result is None)}


# (module, attribute, metric prefix, counter, {count: unit}, is a span)
TARGETS = (
    ("cli", "main", "cli", None, {}, True),
    ("parser", "parse_progression", "parser.parse_progression", None, {}, True),
    ("progression", "complexity_report", "progression.complexity_report",
     None, {}, True),
    ("progression", "relation_space", "progression.relation_space", None, {}, True),
    ("progression", "complexity_profile", "progression.complexity_profile",
     None, {}, True),
    ("progression", "is_homogeneous", "progression.is_homogeneous",
     _witness_time, {"witness_s": "s"}, True),
    ("progression", "homogeneous_relations", "progression.homogeneous_relations",
     None, {}, True),
    ("progression", "graded_spaces", "progression.graded_spaces", None, {}, True),
    ("progression", "coeff_space", "progression.coeff_space", None, {}, True),
    ("progression", "is_eligible", "progression.is_eligible",
     _families, {"families": "count"}, True),
    ("progression", "_expansions", "progression.expansions", None, {}, True),
    ("polycore", "compose_shift", "polycore.compose_shift", None, {}, True),
    ("polycore", "binomial_compose", "polycore.binomial_compose", None, {}, True),
    ("ratlinalg", "kernel_basis", "ratlinalg.kernel_basis",
     _kernel_cells, {"cells": "count"}, True),
    ("ratlinalg", "_kernel_attempt", "ratlinalg.kernel_basis",
     _retries, {"retries": "count"}, False),
    ("ratlinalg", "rref", "ratlinalg.rref", None, {}, True),
    ("ratlinalg", "canonical_basis", "ratlinalg.canonical_basis", None, {}, True),
    ("ratlinalg", "coordinates_in_rows", "ratlinalg.coordinates_in_rows",
     None, {}, True),
    ("ratlinalg", "intersect_row_spaces", "ratlinalg.intersect_row_spaces",
     None, {}, True),
    ("ratlinalg", "hnf_rows", "ratlinalg.hnf_rows", None, {}, True),
    ("cyclic", "compare_poly_vs_linear", "cyclic.compare_poly_vs_linear",
     None, {}, True),
    ("cyclic", "count_operator", "cyclic.count_operator", None, {}, True),
    ("cyclic", "linear_count_operator", "cyclic.linear_count_operator",
     _linear_terms, {"terms": "count"}, True),
    ("cyclic", "integral_span_basis", "cyclic.integral_span_basis",
     None, {}, True),
    ("cyclic", "popular_differences", "cyclic.popular_differences",
     None, {}, True),
    ("cyclic", "gowers_norm", "cyclic.gowers_norm", None, {}, True),
    ("cyclic", "poly_shift_table", "cyclic.poly_shift_table", None, {}, True),
    ("weyl", "closure_subspaces", "weyl.closure_subspaces", None, {}, True),
    ("weyl", "equidistribution_test", "weyl.equidistribution_test",
     None, {}, True),
    ("weyl", "character_average", "weyl.character_average", None, {}, True),
    ("weyl", "coset_confinement", "weyl.coset_confinement",
     _cosets, {"cosets": "count"}, True),
    ("weyl", "_orbit_tail_tables", "weyl.orbit_tail_tables", None, {}, True),
    ("weyl", "character_phases", "weyl.character_phases", None, {}, True),
)

# lru caches whose hit ratio is reported: (module, attribute, metric)
CACHES = (
    ("progression", "_expansions", "progression.expansions.hit_ratio"),
    ("progression", "_relation_vectors", "progression.relation_vectors.hit_ratio"),
    ("progression", "_homogeneous_decision", "progression.homogeneous_decision.hit_ratio"),
)

ROOT = "cli"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, prefix, _, extras, is_span in TARGETS:
        if is_span:
            units[f"{prefix}.self_s"] = "s"
            units[f"{prefix}.calls"] = "count"
        for key, unit in extras.items():
            units[f"{prefix}.{key}"] = unit
    for _, _, name in CACHES:
        units[name] = "ratio"
    units["bench.trace_overhead_s"] = "s"
    units["bench.span_coverage"] = "ratio"
    return units


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "polyprog" or name.startswith("polyprog."))]


def clear_caches():
    """Empty every lru cache in the package, so a pass starts cold."""
    for mod in _package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and \
                    getattr(value, "__module__", "").startswith("polyprog"):
                value.cache_clear()


class Tracer:
    def __init__(self):
        self.stats = defaultdict(float)
        self.cache_hits = defaultdict(int)
        self.cache_misses = defaultdict(int)
        self.root_total = 0.0
        self.missing = []
        self._stack = []
        self._patched = []

    def _wrap(self, original, prefix, counter, is_span):
        stats, stack = self.stats, self._stack
        clock = time.perf_counter

        if not is_span:
            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                for key, value in counter(args, kwargs, result, 0.0).items():
                    stats[f"{prefix}.{key}"] += value
                return result
            return counted

        is_root = prefix == ROOT

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                elif is_root:
                    self.root_total += dt
                stats[f"{prefix}.self_s"] += dt - frame[0]
                stats[f"{prefix}.calls"] += 1
            if counter is not None:
                for key, value in counter(args, kwargs, result, dt).items():
                    stats[f"{prefix}.{key}"] += value
            return result
        return traced

    def install(self):
        modules = _package_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        missing = []
        for mod_name, attr, prefix, counter, _, is_span in TARGETS:
            original = getattr(by_name.get(mod_name), attr, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, prefix, counter, is_span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._patched.append((mod, name, original))
        if missing and not self.missing:
            print(f"trace: not found, reported as 0: {', '.join(missing)}",
                  file=sys.stderr)
        self.missing = missing

    def remove(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def read_caches(self):
        """Add the hits and misses since the last clear_caches()."""
        by_name = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for mod_name, attr, metric in CACHES:
            fn = getattr(by_name.get(mod_name), attr, None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self.cache_hits[metric] += info.hits
                self.cache_misses[metric] += info.misses

    def metrics(self, passes, overhead_s):
        """Per-pass means of every per-layer metric, in metric_units() order."""
        root_self = self.stats.get(f"{ROOT}.self_s", 0.0)
        special = {"bench.trace_overhead_s": overhead_s,
                   "bench.span_coverage":
                       1.0 - root_self / self.root_total if self.root_total else 0.0}
        for _, _, metric in CACHES:
            total = self.cache_hits[metric] + self.cache_misses[metric]
            special[metric] = self.cache_hits[metric] / total if total else 0.0
        return {name: special[name] if name in special else self.stats.get(name, 0.0) / passes
                for name in metric_units()}
