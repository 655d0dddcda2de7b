"""Span tracer for the traced benchmark run.

Timing wrappers are installed on module attributes of tubelab from the
benchmark's own files; the program itself is not edited.  Every call of a
wrapped function records a span (name, start, end, parent) in memory, so
nested calls get parent spans.  Self time is a span's duration minus the
time its child spans cover.  Count hooks run after a span has ended; their
time is recorded as a ``bench.`` child span of the caller, so it never lands
in any module's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("constructions", "geometry", "grid", "measures", "structure", "lab")

# (module, attribute path) of every wrapped callable.  Names not listed here
# still run, and their time lands in the self time of the nearest wrapped
# caller.
WRAPPED = {
    "grid": (
        "CellSet.__post_init__",
        "CellSet.from_ij",
        "coarse_codes",
        "covering_count",
        "coarsen",
        "refine",
        "is_refinement",
        "union_codes",
    ),
    "geometry": (
        "Shading.__post_init__",
        "LineFamily.__post_init__",
        "LineFamily.to_json_obj",
        "LineFamily.from_json_obj",
        "LineFamily.dual_points",
        "LineFamily.multiplicity_counts",
        "tube_cells",
        "tube_cell_count",
        "union_shadings",
        "multiplicity",
        "segment_count",
        "segment_cover",
        "lines_in_tube",
    ),
    "measures": (
        "katz_tao_constant",
        "frostman_constant",
        "frostman_constant_1d",
        "density",
        "two_ends_constant",
        "gamma",
        "gamma_value_at",
        "gamma_sup",
    ),
    "structure": (
        "uniformize",
        "is_uniform",
        "uniformity_error",
        "branching",
        "shading_window_counts",
        "common_branching",
        "multiscale_decompose",
        "verify_decomposition",
        "two_ends_scale",
        "katz_tao_subsample",
        "rich_point_refine",
        "broad_narrow",
        "shading_multiscale",
        "verify_shading_multiscale",
        "dyadic_pigeonhole",
    ),
    "constructions": (
        "build_base",
        "rescale_case1",
        "bundle_offsets",
        "bundle_case2",
        "random_config",
        "bush_config",
        "grid_config",
        "build_config",
        "measure_remark_bullets",
    ),
    "lab": (
        "rhs_core_value",
        "verify_theorem",
        "verify_corollary",
        "fit_exponent",
        "build_sweep_family",
        "sweep",
        "run_cli",
    ),
}

# Self time of one span name reported as a named per-layer metric.
SELF_METRICS = {
    "bundle_case2_s": "constructions.bundle_case2",
    "build_base_s": "constructions.build_base",
    "union_shadings_s": "geometry.union_shadings",
    "tube_cell_count_s": "geometry.tube_cell_count",
    "shading_check_s": "geometry.Shading.__post_init__",
    "union_codes_s": "grid.union_codes",
    "cellset_check_s": "grid.CellSet.__post_init__",
    "covering_count_s": "grid.covering_count",
    "gamma_sup_s": "measures.gamma_sup",
    "gamma_s": "measures.gamma",
    "density_s": "measures.density",
    "two_ends_s": "measures.two_ends_constant",
    "katz_tao_s": "measures.katz_tao_constant",
    "frostman_1d_s": "measures.frostman_constant_1d",
    "uniformize_s": "structure.uniformize",
    "rich_point_refine_s": "structure.rich_point_refine",
    "katz_tao_subsample_s": "structure.katz_tao_subsample",
    "multiscale_decompose_s": "structure.multiscale_decompose",
    "two_ends_scale_s": "structure.two_ends_scale",
    "broad_narrow_s": "structure.broad_narrow",
    "shading_multiscale_s": "structure.shading_multiscale",
    "sweep_self_s": "lab.sweep",
    "verify_theorem_self_s": "lab.verify_theorem",
    "emit_s": "lab.run_cli",
}

# Call count of one span name reported as a named per-layer metric.
CALL_METRICS = {
    "shading_check_calls": "geometry.Shading.__post_init__",
    "cellset_check_calls": "grid.CellSet.__post_init__",
    "gamma_calls": "measures.gamma",
    "density_calls": "measures.density",
}

# Exact counts recorded by the hooks below.
COUNT_METRICS = (
    "lines_built",
    "cells_built",
    "union_cells_in",
    "union_cells_out",
    "gamma_cell_scales",
)

# Ratios of two exact counts: metric -> (numerator, denominator).
RATIO_METRICS = {
    "bundle_keep_ratio": ("bundle_kept", "bundle_candidates"),
    "uniformize_kept_frac": ("uniformize_cells_out", "uniformize_cells_in"),
    "rich_point_kept_frac": ("rich_point_cells_out", "rich_point_cells_in"),
}


def _family_cells(fam) -> int:
    return sum(sh.cells.n_cells for _, sh in fam.entries)


def _count_build(tracer, args, fam):
    tracer.counts["lines_built"] += len(fam)
    tracer.counts["cells_built"] += _family_cells(fam)


def _count_bundle(tracer, args, fam):
    parent, delta, t = args
    q = round(parent.scale.delta / delta)
    da, db = tracer.originals["constructions.bundle_offsets"](q, t)
    tracer.counts["bundle_kept"] += len(fam)
    tracer.counts["bundle_candidates"] += len(parent) * da.size * db.size


def _count_union(tracer, args, union):
    tracer.counts["union_cells_in"] += _family_cells(args[0])
    tracer.counts["union_cells_out"] += union.n_cells


def _count_gamma(tracer, args, rep):
    cells = args[0].cells
    tracer.counts["gamma_cell_scales"] += cells.n_cells * (cells.scale.k + 1)


def _count_uniformize(tracer, args, result):
    tracer.counts["uniformize_cells_in"] += args[0].n_cells
    tracer.counts["uniformize_cells_out"] += result[0].n_cells


def _count_rich_point(tracer, args, result):
    tracer.counts["rich_point_cells_in"] += _family_cells(args[0])
    tracer.counts["rich_point_cells_out"] += _family_cells(result[0])


COUNT_HOOKS = {
    "constructions.build_config": _count_build,
    "constructions.bundle_case2": _count_bundle,
    "geometry.union_shadings": _count_union,
    "measures.gamma": _count_gamma,
    "structure.uniformize": _count_uniformize,
    "structure.rich_point_refine": _count_rich_point,
}


class Tracer:
    """In-memory span recorder; install() patches tubelab, enabled gates it."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.originals: dict = {}
        self.enabled = False

    def _record(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack
        self.originals[name] = fn

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if hook is not None:
                hook(self, args, result)
                spans.append(("bench.count", t1, perf_counter(), parent))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every WRAPPED callable wherever tubelab exposes it."""
        mods = {m: importlib.import_module(f"tubelab.{m}") for m in MODULES}
        namespaces = [sys.modules["tubelab"], *mods.values()]
        for mod_name, paths in WRAPPED.items():
            mod = mods[mod_name]
            for path in paths:
                name = f"{mod_name}.{path}"
                hook = COUNT_HOOKS.get(name)
                if "." in path:
                    cls_name, meth = path.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        setattr(cls, meth, staticmethod(self._record(name, raw.__func__, hook)))
                    else:
                        setattr(cls, meth, self._record(name, raw, hook))
                    continue
                original = getattr(mod, path)
                wrapped = self._record(name, original, hook)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)

    def self_times(self) -> tuple[dict, Counter, float]:
        """Per-name self time and call count of all recorded spans, plus the
        total duration of the top-level ones."""
        child = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        top = 0.0
        for idx, (name, t0, t1, parent) in enumerate(self.spans):
            if name.startswith("bench."):
                continue
            self_s[name] += (t1 - t0) - child[idx]
            calls[name] += 1
            if parent < 0:
                top += t1 - t0
        return self_s, calls, top


def layer_metrics(self_s: dict, calls: Counter, counts: Counter) -> dict[str, float]:
    """The per-layer metric values named in BENCHMARK.json, from one trace."""
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}_self_s"] = sum((v for k, v in self_s.items() if k.startswith(mod + ".")), 0.0)
    for metric, name in SELF_METRICS.items():
        out[metric] = self_s.get(name, 0.0)
    for metric, name in CALL_METRICS.items():
        out[metric] = calls.get(name, 0)
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    for metric, (num, den) in RATIO_METRICS.items():
        out[metric] = counts[num] / counts[den] if counts.get(den) else 0.0
    return out
