"""The traced benchmark run (perfbench/tracer.py) wraps tubelab callables by
module and attribute name, and its workloads patch three names in lab's
globals.  A rename, a moved method or a changed parameter list would break
`perfbench/run.py --trace 1` without any other test failing; these tests pin
what the benchmark relies on, and one short traced run checks every
postcondition of both workloads.  perfbench/ is only read here; the run
writes under the git-ignored .perfbench_run/."""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tubelab import lab, measures
from tubelab.constructions import ConfigSpec

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# Parameter names of every WRAPPED callable, as the benchmark calls them.
PARAMS = {
    "grid": {
        "CellSet.__post_init__": "self",
        "CellSet.from_ij": "scale, i, j",
        "coarse_codes": "E, rho",
        "covering_count": "E, rho",
        "coarsen": "E, rho",
        "refine": "E, scale",
        "is_refinement": "E2, E1, c",
        "union_codes": "code_arrays, chunk",
    },
    "geometry": {
        "Shading.__post_init__": "self",
        "LineFamily.__post_init__": "self",
        "LineFamily.to_json_obj": "self",
        "LineFamily.from_json_obj": "obj",
        "LineFamily.dual_points": "self",
        "LineFamily.multiplicity_counts": "self",
        "tube_cells": "line, w, cell_scale, columns",
        "tube_cell_count": "line, w, cell_scale",
        "union_shadings": "F",
        "multiplicity": "F, x",
        "segment_count": "positions, r",
        "segment_cover": "Y, r",
        "lines_in_tube": "lines, core, v",
    },
    "measures": {
        "katz_tao_constant": "E, s, delta",
        "frostman_constant": "E, s, Delta",
        "frostman_constant_1d": "offsets, base, s",
        "density": "Y",
        "two_ends_constant": "Y, eps1, eps2",
        "gamma": "Y, t",
        "gamma_value_at": "Y, t, r, x_arc",
        "gamma_sup": "F, t",
    },
    "structure": {
        "uniformize": "E, ladder",
        "is_uniform": "E, ladder, C",
        "uniformity_error": "E, ladder",
        "branching": "E, ladder",
        "shading_window_counts": "Y, ladder",
        "common_branching": "sets, ladder",
        "multiscale_decompose": "f, eta",
        "verify_decomposition": "f, eta, P",
        "two_ends_scale": "Y, v, C",
        "katz_tao_subsample": "E, rho, s, delta",
        "rich_point_refine": "F",
        "broad_narrow": "F, x",
        "shading_multiscale": "F, t, eta",
        "verify_shading_multiscale": "F, res, t, eta",
        "dyadic_pigeonhole": "items, weights, key",
    },
    "constructions": {
        "build_base": "r, t, s, seed, chart",
        "rescale_case1": "F, delta",
        "bundle_offsets": "q, t, seed",
        "bundle_case2": "F, delta, t",
        "random_config": "delta, t, s, lambda_target, seed, max_lines",
        "bush_config": "delta, m",
        "grid_config": "delta, side",
        "build_config": "spec",
        "measure_remark_bullets": "F, t, s",
    },
    "lab": {
        "rhs_core_value": "delta, t, eps1, lam, gamma_star, sum_shading, with_gamma",
        "verify_theorem": "F, t, eps1, eps2",
        "verify_corollary": "F, t, eps1, eps2",
        "fit_exponent": "deltas, ratios",
        "build_sweep_family": "spec, delta",
        "sweep": "spec, deltas, eps1, eps2",
        "run_cli": "argv",
    },
}


def _wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


def test_pinned_names_are_the_wrapped_names():
    assert {m: tuple(p) for m, p in PARAMS.items()} == _wrapped()


@pytest.mark.parametrize(
    "mod_name,path", [(m, p) for m, paths in PARAMS.items() for p in paths]
)
def test_wrapped_name_resolves_with_its_parameters(mod_name, path):
    obj = importlib.import_module(f"tubelab.{mod_name}")
    if "." in path:  # the tracer patches the method in the class's own __dict__
        cls_name, meth = path.split(".")
        cls = getattr(obj, cls_name)
        assert meth in vars(cls), path
        obj = getattr(cls, meth)
    else:
        obj = getattr(obj, path)
    assert callable(obj)
    assert ", ".join(inspect.signature(obj).parameters) == PARAMS[mod_name][path]


def test_lab_looks_up_patched_names_in_its_globals():
    # the case-2 workload times build, gamma and the rest of verify by
    # replacing these three names in lab's module globals
    assert {"build_sweep_family", "verify_theorem"} <= set(lab.sweep.__code__.co_names)
    assert "gamma_sup" in lab._family_measurements.__code__.co_names
    assert "_family_measurements" in lab.verify_theorem.__code__.co_names


def test_gamma_sup_calls_gamma_once_per_line(monkeypatch):
    # the traced gamma_calls and gamma_cell_scales count per-line calls of
    # measures.gamma, so gamma_sup must make exactly one per line, in order
    seen = []
    gamma = measures.gamma
    monkeypatch.setattr(measures, "gamma", lambda Y, t: seen.append(Y) or gamma(Y, t))
    spec = ConfigSpec(delta=2.0**-5, t=1.5, s=0.05, r=2.0**-4, seed=405, kind="case2")
    F = lab.build_sweep_family(spec, 2.0**-6)
    measures.gamma_sup(F, 0.5)
    assert len(F) > 1
    assert [id(Y) for Y in seen] == [id(sh) for _, sh in F.entries]


def test_traced_benchmark_run_is_correct():
    # one short traced run of both workloads: every structure-mix
    # postcondition (the subsample's coarse Katz-Tao constant <= 8 among
    # them), the seed-405 table.csv digest and the exact counts pinned in
    # perfbench/reference.json
    args = ["--workload", "all", "--trace", "1", "--seconds", "1"]
    cmd = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] > 0
