"""Golden reports: today's outputs of small CLI runs, pinned byte for byte.

The case-2 sweep runs the bundle build and gamma on many short shadings; the
random measures pin the gamma and Katz-Tao witnesses and the cap-16 greedy
of random_config; the base generate pins the cap-8 greedy of build_base, the
2-D Frostman constant and the density; the case-1 generate pins the steep
chart and tube_cells(columns=...); the grid measure pins full tubes; the
bush measure pins lambda_min and two_ends_max on full tubes at t = 0.5, and
the case-1 measure pins them on steep-chart shadings at k = 9.  The
corollary has no CLI path, so its reports on two fixed families are pinned
as JSON.  The structure algorithms have no CLI path either: rich-point
refinement, the two-ends reduction scale, greedy segment covers,
uniformization (on ladders with m = 1, 2, 3 and 4), the Katz-Tao coarse
subsample and the shading multiscale check are pinned as JSON on fixed
families in tests/golden/structure/.  The decompose command reads its profile
from tests/golden/decompose/config.json.  A change that moves these bytes
must regenerate tests/golden/ and say which numbers moved and why.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tubelab import (
    CellSet,
    Line,
    LineFamily,
    Scale,
    ScaleLadder,
    Shading,
    bush_config,
    grid_config,
    katz_tao_subsample,
    random_config,
    rich_point_refine,
    run_cli,
    segment_cover,
    shading_multiscale,
    tube_cells,
    two_ends_scale,
    uniformize,
    verify_corollary,
)
from tubelab.structure import uniformity_error, verify_shading_multiscale

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "case2_sweep": [
        "sweep", "--kind", "case2", "--t", "1.5", "--s", "0.05", "--r", "2^-4",
        "--deltas", "2^-5,2^-6,2^-7", "--seed", "405",
    ],
    "random_measure": ["measure", "--kind", "random", "--delta", "2^-6", "--t", "1.0", "--seed", "3"],
    "random_measure_t15": [
        "measure", "--kind", "random", "--delta", "2^-5", "--t", "1.5", "--seed", "11",
    ],
    "grid_measure": ["measure", "--kind", "grid", "--delta", "2^-5", "--t", "1.0"],
    "bush_measure": ["measure", "--kind", "bush", "--delta", "2^-6", "--t", "0.5"],
    "case1_measure": [
        "measure", "--kind", "case1", "--r", "2^-4", "--delta", "2^-9", "--t", "1.5",
        "--s", "0.5", "--seed", "5",
    ],
    "base_generate": [
        "generate", "--kind", "base", "--r", "2^-4", "--t", "1.9", "--s", "0.5", "--seed", "7",
    ],
    "case1_generate": [
        "generate", "--kind", "case1", "--r", "2^-4", "--delta", "2^-6", "--t", "1.5",
        "--s", "0.5", "--seed", "5",
    ],
}


def corollary_report_text() -> str:
    """Corollary reports on a random family (no flags) and on a grid family at
    t = 0.1, which raises the Katz-Tao flag and the shading flag in turn."""
    reps = [
        verify_corollary(random_config(2.0**-5, 1.2, 1.0, 0.6, seed=4), 1.2, 0.3, 0.1),
        verify_corollary(grid_config(2.0**-5, side=8), 0.1, 0.3, 0.1),
    ]
    return json.dumps([rep.to_json_obj() for rep in reps], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_report_bytes(name, tmp_path):
    assert run_cli([*RUNS[name], "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_golden_corollary_report():
    expected = (GOLDEN / "corollary" / "report.json").read_text(encoding="utf-8")
    assert corollary_report_text() == expected


def test_golden_decompose_report(tmp_path):
    config = GOLDEN / "decompose" / "config.json"
    assert run_cli(["decompose", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]
    expected = (GOLDEN / "decompose" / "report.json").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == expected


# -- structure outputs ----------------------------------------------------------


def _shaded_family(seed: int, k: int, n_lines: int, density: float, charts: str = "s"):
    """Lines crossing the square, each shading a random share of its tube."""
    rng = np.random.default_rng(seed)
    scale = Scale(k)
    n = scale.n
    entries, seen = [], set()
    while len(entries) < n_lines:
        chart = charts[int(rng.integers(len(charts)))]
        a_q = int(rng.integers(-n // 2, n // 2 + 1))
        b_q = int(rng.integers(n // 4, 3 * n // 4))
        if (chart, a_q, b_q) in seen:
            continue
        seen.add((chart, a_q, b_q))
        line = Line(scale, chart, a_q, b_q)
        tube = tube_cells(line, scale.delta)
        count = max(1, round(density * tube.n_cells))
        pick = np.sort(rng.choice(tube.n_cells, size=count, replace=False))
        entries.append((line, Shading(line, CellSet(scale, tube.codes[pick]))))
    return LineFamily(scale, tuple(entries))


def _pencil_and_strays(k: int) -> LineFamily:
    """Eight lines through the center, shaded near it, plus three short
    strays far from it: the strays miss the rich set E_mu."""
    scale = Scale(k)
    n = scale.n
    entries = []
    for a_q in range(-n // 2, n // 2 + 1, n // 8):
        line = Line(scale, "s", a_q, n // 2 - a_q // 2)
        tube = tube_cells(line, scale.delta)
        i, _ = tube.ij()
        near = np.abs(i - n // 2) <= 3
        entries.append((line, Shading(line, CellSet(scale, tube.codes[near]))))
    for b_q in (1, 3, n - 2):
        line = Line(scale, "t", 0, b_q)
        tube = tube_cells(line, scale.delta)
        entries.append((line, Shading(line, CellSet(scale, tube.codes[:2]))))
    return LineFamily(scale, tuple(entries))


def _structure_families() -> list[LineFamily]:
    return [
        _shaded_family(1, 7, 12, 0.6),
        _shaded_family(2, 8, 20, 0.25, charts="st"),
        _pencil_and_strays(6),
        bush_config(2.0**-6, m=12),
    ]


def _shadings() -> list[Shading]:
    """Dense, sparse and clustered shadings on both charts."""
    fams = [_shaded_family(3, 10, 3, 0.15, charts="st"), _shaded_family(4, 9, 2, 1.0, charts="st")]
    fams += [_shaded_family(6, 10, 4, 0.02, charts="st"), *_structure_families()[:2]]
    out = [sh for fam in fams for sh in fam.shadings[:4]]
    for sh in fams[1].shadings:  # a short run of cells and a few far-apart pieces
        n = sh.cells.n_cells
        out.append(Shading(sh.line, CellSet(sh.cells.scale, sh.cells.codes[n // 3 : n // 3 + 40])))
        out.append(Shading(sh.line, CellSet(sh.cells.scale, sh.cells.codes[:: n // 6])))
    return out


def _dumps(items: list) -> str:
    """One compact JSON item per line."""
    return "[\n" + ",\n".join(json.dumps(it, sort_keys=True, separators=(",", ":")) for it in items) + "\n]\n"


def rich_point_text() -> str:
    out = []
    for fam in _structure_families():
        codes, counts = fam.multiplicity_counts()
        refined, e_mu, mu, trace = rich_point_refine(fam)
        out.append(
            {
                "multiplicity": {"codes": codes.tolist(), "counts": counts.tolist()},
                "family": refined.to_json_obj(),
                "e_mu": e_mu.to_json_obj(),
                "mu": mu,
                "trace": trace.to_json_obj(),
            }
        )
    return _dumps(out)


def two_ends_scale_text() -> str:
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for sh in _shadings():
            out.append([two_ends_scale(sh, v, C) for v in (0.1, 0.3, 0.6, 0.9) for C in (1.0, 3.0)])
    return _dumps(out)


def segment_cover_text() -> str:
    out = []
    for sh in _shadings():
        d = sh.cells.scale.delta
        for r in (d, 2.5 * d, 0.125, 0.3, 1.0):
            out.append([[seg.t0, seg.r, seg.width] for seg in segment_cover(sh, r)])
    return _dumps(out)


def uniformize_text() -> str:
    rng = np.random.default_rng(5)
    out = []
    for k, m, density in ((6, 1, 0.3), (6, 2, 0.05), (6, 3, 0.5), (8, 2, 0.04), (8, 4, 0.1)):
        scale = Scale(k)
        n = scale.n
        idx = np.flatnonzero(rng.random(n * n) < density)
        E = CellSet.from_ij(scale, idx // n, idx % n)
        ladder = ScaleLadder(m=m, N=k // m)
        kept, err, trace = uniformize(E, ladder)
        out.append(
            {
                "input_error": uniformity_error(E, ladder),
                "cells": kept.to_json_obj(),
                "error": err,
                "trace": trace.to_json_obj(),
            }
        )
    return _dumps(out)


def _blobs(rng, scale: Scale, spec) -> CellSet:
    """Union of square blobs (corner i, corner j, side, fill density)."""
    n = scale.n
    ii, jj = [], []
    for i0, j0, side, fill in spec:
        ci, cj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        pick = rng.random(side * side) < fill
        ii.append((i0 + ci.ravel()[pick]) % n)
        jj.append((j0 + cj.ravel()[pick]) % n)
    return CellSet.from_ij(scale, np.concatenate(ii), np.concatenate(jj))


def uniformize_ladders_text() -> str:
    """Ladders with m = 1 and m = 3 on a single cell, a full grid, sparse
    random sets, clustered sets of mixed fill and a set under one coarse cell
    (one parent at the top levels)."""
    rng = np.random.default_rng(17)
    out = []
    cases = [
        (6, 3, [(37, 12, 1, 1.0)]),
        (6, 1, [(0, 0, 64, 1.0)]),
        (9, 1, "random", 0.02),
        (9, 3, "random", 0.01),
        (9, 3, [(0, 0, 64, 0.5), (200, 300, 16, 0.9), (400, 40, 100, 0.05)]),
        (9, 1, [(10, 10, 40, 0.3), (300, 100, 8, 1.0), (450, 450, 30, 0.02)]),
        (12, 3, [(3000, 1000, 64, 0.2), (100, 3900, 9, 1.0), (2000, 2000, 300, 0.004)]),
        (12, 3, [(520, 520, 8, 0.6), (516, 530, 20, 0.1)]),
        (10, 1, [(640, 640, 64, 0.3), (650, 690, 10, 1.0)]),
    ]
    for k, m, *rest in cases:
        scale = Scale(k)
        n = scale.n
        if rest[0] == "random":
            idx = np.flatnonzero(rng.random(n * n) < rest[1])
            E = CellSet.from_ij(scale, idx // n, idx % n)
        else:
            E = _blobs(rng, scale, rest[0])
        ladder = ScaleLadder(m=m, N=k // m)
        kept, err, trace = uniformize(E, ladder)
        out.append(
            {
                "input_error": uniformity_error(E, ladder),
                "cells": kept.to_json_obj(),
                "error": err,
                "trace": trace.to_json_obj(),
            }
        )
    return _dumps(out)


def katz_tao_subsample_text() -> str:
    """The greedy coarse subsample on CellSets and on raw points (off-center,
    on rho boundaries and at negative coordinates), several rho, s in {1,
    1.5} so that the caps 8 (r/rho)^s are not all integers."""
    rng = np.random.default_rng(23)
    out = []
    for k, density in ((6, 0.03), (7, 0.02), (8, 0.01)):
        scale = Scale(k)
        n = scale.n
        idx = np.flatnonzero(rng.random(n * n) < density)
        E = CellSet.from_ij(scale, idx // n, idx % n)
        for j in range(2, k - 1):
            for s in (1.0, 1.5):
                kept = katz_tao_subsample(E, 2.0**-j, s)
                out.append({"k": k, "rho": 2.0**-j, "s": s, "cells": kept.to_json_obj()})
    d = 2.0**-7
    free = rng.random((300, 2))
    on_edges = rng.integers(0, 8, size=(120, 2)) * 0.125
    negative = rng.random((200, 2)) * 1.5 - 0.5
    for name, pts in (("free", free), ("edges", on_edges), ("negative", negative)):
        for j in (2, 3, 4):
            for s in (1.0, 1.5):
                kept = katz_tao_subsample(pts, 2.0**-j, s, delta=d)
                out.append({"points": name, "rho": 2.0**-j, "s": s, "kept": kept.tolist()})
    return _dumps(out)


def _column_family(k: int, cols: np.ndarray, n_lines: int) -> LineFamily:
    scale = Scale(k)
    n = scale.n
    entries = []
    for idx in range(n_lines):
        line = Line(scale, "s", 0, n // 2 - 2 * idx)
        cells = CellSet.from_ij(scale, cols, np.full_like(cols, line.b_q))
        entries.append((line, Shading(line, cells)))
    return LineFamily(scale, tuple(entries))


def _cantor_columns(k: int, s: float) -> np.ndarray:
    pos = np.zeros(1, dtype=np.int64)
    for level in range(1, k + 1):
        pos = np.concatenate([2 * pos, 2 * pos + 1]) if pos.size < 2.0 ** (level * s) else 2 * pos
    return np.sort(pos)


def shading_multiscale_text() -> str:
    out = []
    cases = [
        (8, np.arange(256, dtype=np.int64), 3),
        (9, _cantor_columns(9, 0.8), 2),
        (8, _cantor_columns(8, 0.5), 2),
        (10, np.arange(0, 1024, 16, dtype=np.int64), 4),
    ]
    for k, cols, n_lines in cases:
        fam = _column_family(k, cols, n_lines)
        res = shading_multiscale(fam, 0.5, 0.1)
        ok, msg = verify_shading_multiscale(fam, res, 0.5, 0.1)
        out.append(
            {
                "r": res.r,
                "s": res.s,
                "branch": res.branch,
                "family": res.family.to_json_obj(),
                "partition": res.partition.to_json_obj(),
                "verified": ok,
                "violation": msg,
            }
        )
    return _dumps(out)


STRUCTURE = {
    "rich_point_refine": rich_point_text,
    "two_ends_scale": two_ends_scale_text,
    "segment_cover": segment_cover_text,
    "uniformize": uniformize_text,
    "uniformize_ladders": uniformize_ladders_text,
    "katz_tao_subsample": katz_tao_subsample_text,
    "shading_multiscale": shading_multiscale_text,
}


@pytest.mark.parametrize("name", sorted(STRUCTURE))
def test_golden_structure_outputs(name):
    expected = (GOLDEN / "structure" / f"{name}.json").read_text(encoding="utf-8")
    assert STRUCTURE[name]() == expected
