"""Generators: self-similar base families, the two sharpness rescalings, and
randomized test configurations.

No construction property is trusted: generators emit plain families and the
measurement module re-derives every claimed constant.  All randomness flows
through numpy's PCG64 generator seeded from the config, and the seed is
recorded in every artifact file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import CellSet, Scale, _ancestor_codes, _check_codes, _encode, _member, _run_offsets
from .geometry import (
    CHART_SHALLOW,
    CHART_STEEP,
    GeometryError,
    Line,
    LineFamily,
    Shading,
    _check_in_tube,
    _row_spans,
    tube_cells,
    union_shadings,
)
from .measures import TripledCaps, katz_tao_constant, frostman_constant, densities

__all__ = [
    "ConstructionError",
    "ConfigSpec",
    "build_base",
    "rescale_case1",
    "bundle_case2",
    "random_config",
    "bush_config",
    "grid_config",
    "measure_remark_bullets",
]

KINDS = ("base", "case1", "case2", "random", "bush", "grid")


class ConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class ConfigSpec:
    """Parameters of a generated configuration."""

    delta: float
    t: float
    s: float = 1.0
    r: float = 1.0 / 16.0
    seed: int = 0
    kind: str = "random"
    lambda_target: float = 1.0
    max_lines: int = 2048

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConstructionError(f"unknown kind {self.kind!r} (expected one of {KINDS})")
        if not (0.0 < self.t < 2.0):
            raise ConstructionError(f"t {self.t} outside (0, 2)")
        if not (0.0 <= self.s <= 1.0):
            raise ConstructionError(f"s {self.s} outside [0, 1]")
        if not (self.delta <= self.r <= 1.0):
            raise ConstructionError(f"r {self.r} outside [delta, 1]")

    def to_json_obj(self) -> dict:
        return {
            "delta": self.delta,
            "t": self.t,
            "s": self.s,
            "r": self.r,
            "seed": self.seed,
            "kind": self.kind,
            "lambda_target": self.lambda_target,
            "max_lines": self.max_lines,
        }


def _scale_of(value: float, what: str) -> Scale:
    k = round(math.log2(1.0 / value))
    if 2.0 ** (-k) != value or k < 2:
        raise ConstructionError(f"{what} {value} must be a dyadic scale <= 1/4")
    return Scale(k)


def _digit_schedule(levels: int, target: float, options: Sequence[int]) -> list[int]:
    """Per-level branching factors kappa_j tracking 2^(j*target) within one
    dyadic class, preferring to stay at or above the target."""
    out = []
    acc = 0.0
    for j in range(1, levels + 1):
        goal = j * target
        best = None
        for kappa in sorted(options, reverse=True):
            cand = acc + math.log2(kappa)
            err = abs(cand - goal)
            if best is None or err < best[0] - 1e-12:
                best = (err, kappa, cand)
        _, kappa, acc = best
        out.append(kappa)
    return out


_PATTERNS2 = {
    1: [[(0, 0)], [(1, 1)], [(0, 1)], [(1, 0)]],
    2: [[(0, 0), (1, 1)], [(0, 1), (1, 0)]],
    4: [[(0, 0), (0, 1), (1, 0), (1, 1)]],
}


def _cantor_points_2d(levels: int, target: float, rng: np.random.Generator) -> np.ndarray:
    """Integer points of a self-similar set in [0, 2^levels)^2 with about
    2^(levels*target) elements; digit patterns vary per level for diversity."""
    schedule = _digit_schedule(levels, target, (1, 2, 4))
    pts = np.zeros((1, 2), dtype=np.int64)
    for kappa in schedule:
        pattern = _PATTERNS2[kappa][int(rng.integers(len(_PATTERNS2[kappa])))]
        digs = np.array(pattern, dtype=np.int64)
        pts = (pts[:, None, :] * 2 + digs[None, :, :]).reshape(-1, 2)
    return pts


def _cantor_positions_1d(levels: int, target: float, rng: np.random.Generator) -> np.ndarray:
    """Integer positions of a 1-d self-similar set in [0, 2^levels)."""
    schedule = _digit_schedule(levels, target, (1, 2))
    pos = np.zeros(1, dtype=np.int64)
    for kappa in schedule:
        digs = np.array([int(rng.integers(2))] if kappa == 1 else [0, 1], dtype=np.int64)
        pos = (pos[:, None] * 2 + digs[None, :]).reshape(-1)
    return np.sort(pos)


def _katz_tao_caps(delta: float, s: float, cap: float) -> TripledCaps:
    """Greedy acceptance keeping every tripled dyadic cell 3Q at every dyadic
    scale r in [delta, 1] at most cap*(r/delta)^s full."""
    k = round(math.log2(1.0 / delta))
    return TripledCaps([(2.0 ** (-j), cap * (2.0 ** (-j) / delta) ** s) for j in range(k, -1, -1)])


def build_base(
    r: float, t: float, s: float, seed: int, chart: str = CHART_SHALLOW
) -> LineFamily:
    """Base configuration at scale r: a Katz-Tao (r, t)-set of lines carrying
    s-Cantor shadings of about r^(-s) cells each.

    Dual points come from a per-level digit construction tracking 2^(j t),
    then pass through a greedy non-concentration filter so the measured
    Katz-Tao constant is at most 8 by construction.
    """
    scale = _scale_of(r, "base scale r")
    if r**-t < 4.0:
        raise ConstructionError(f"infeasible base: r^-t = {r ** -t:.2f} < 4")
    if not (0.0 < s <= 1.0):
        raise ConstructionError(f"shading exponent {s} outside (0, 1]")
    rng = np.random.default_rng(np.random.PCG64(seed))
    duals = _cantor_points_2d(scale.k, t, rng)
    keep = _katz_tao_caps(r, t, 8.0).keep_mask(duals.astype(np.float64) * r)
    duals = duals[keep]
    entries = []
    for a_q, b_q in duals:
        line = Line(scale, chart, int(a_q), int(b_q))
        u0, u1 = line.param_range()
        if u1 - u0 < 0.5:
            # edge-clipped lines are too short to carry the target mass and
            # would skew the family's density and non-concentration profile
            continue
        cols = _cantor_positions_1d(scale.k, s, rng)
        cells = _nearest_tube_cells(line, cols)
        if cells.is_empty():
            continue
        entries.append((line, Shading(line, cells)))
    if not entries:
        raise ConstructionError("base construction produced no usable lines")
    return LineFamily(scale, tuple(entries))


def _nearest_tube_cells(line: Line, cols: np.ndarray) -> CellSet:
    """One tube cell per requested column: the cell whose center is nearest
    the line, skipping columns outside the square."""
    scale = line.scale
    d = scale.delta
    n = scale.n
    u0, u1 = line.param_range()
    x = (cols + 0.5) * d
    sel = (x >= u0 - d / 2) & (x <= u1 + d / 2)
    cols, x = cols[sel], x[sel]
    if cols.size == 0:
        mid = (u0 + u1) / 2.0
        cols = np.array([min(n - 1, max(0, int(mid / d)))], dtype=np.int64)
        x = (cols + 0.5) * d
    c = line.a * x + line.b
    rows = np.clip(np.round(c / d - 0.5).astype(np.int64), 0, n - 1)
    dist = np.abs(c - (rows + 0.5) * d)
    sel = dist <= d * line.nrm + 1e-12
    cols, rows = cols[sel], rows[sel]
    if line.chart == CHART_SHALLOW:
        return CellSet.from_ij(scale, cols, rows)
    return CellSet.from_ij(scale, rows, cols)


def rescale_case1(F: LineFamily, delta: float) -> LineFamily:
    """Horizontal (delta/r)-squeeze of a steep-chart family down to scale delta.

    Quantized coordinates carry over exactly (a_q, b_q unchanged on the finer
    grid); each source cell becomes a delta x r block of cells, re-clipped to
    the new width-delta tube (factor-2 rasterization slack).
    """
    r = F.scale.delta
    if not delta < r:
        raise ConstructionError(f"rescale needs delta < r, got {delta} >= {r}")
    new_scale = _scale_of(delta, "target scale")
    q = new_scale.n // F.scale.n
    entries = []
    for line, sh in F.entries:
        if line.chart != CHART_STEEP:
            raise ConstructionError("case-1 rescaling requires steep-chart lines")
        new_line = Line(new_scale, CHART_STEEP, line.a_q, line.b_q)
        i, j = sh.cells.ij()
        jj = (j[:, None] * q + np.arange(q, dtype=np.int64)[None, :]).ravel()
        ii = np.repeat(i, q)
        mapped = CellSet.from_ij(new_scale, ii, jj)
        rows = np.unique(jj)
        tube = tube_cells(new_line, delta, columns=rows)
        cells = mapped.intersection(tube)
        if cells.is_empty():
            continue
        entries.append((new_line, Shading(new_line, cells)))
    if not entries:
        raise ConstructionError("rescaling emptied the family")
    return LineFamily(new_scale, tuple(entries))


def inverse_rescale_case1(F: LineFamily, r: float) -> LineFamily:
    """Undo the horizontal squeeze back to scale r (for roundtrip checks)."""
    scale = _scale_of(r, "source scale")
    q = F.scale.n // scale.n
    entries = []
    for line, sh in F.entries:
        new_line = Line(scale, CHART_STEEP, line.a_q, line.b_q)
        i, j = sh.cells.ij()
        cells = CellSet.from_ij(scale, i, j // q)
        entries.append((new_line, Shading(new_line, cells)))
    return LineFamily(scale, tuple(entries))


def bundle_offsets(q: int, t: float, seed: int = 12_021) -> tuple[np.ndarray, np.ndarray]:
    """Dual offsets (da, db) in delta-units for a (r/delta)^t bundle inside an
    r-tube: slopes on a (t-1)-dimensional digit set in [0, q), intercepts on a
    step-2 lattice wide enough that the child tubes sweep the whole r-tube."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    if q >= 2:
        da = _cantor_positions_1d(round(math.log2(q)), t - 1.0, rng)
    else:
        da = np.zeros(1, dtype=np.int64)
    reach = (3 * q) // 2 + 2
    db = np.arange(-reach, reach + 1, 2, dtype=np.int64)
    return da, db


def bundle_case2(F: LineFamily, delta: float, t: float) -> LineFamily:
    """Replace each line of a scale-r family by a Katz-Tao (delta, t)-bundle of
    about (r/delta)^t lines covering its r-tube; each child is shaded by the
    parent shading clipped to the child's delta-tube.

    Children whose clipped shading is empty or carries less than an eighth of
    the family-wide maximum (edge-of-tube slivers, which would wreck the
    family's uniform density) are dropped; the offset lattice itself still
    covers the full r-tube, see bundle_offsets.
    """
    if not (1.0 <= t <= 2.0):
        raise ConstructionError(f"bundling needs t in [1, 2], got {t}")
    r = F.scale.delta
    if not delta < r:
        raise ConstructionError(f"bundle needs delta < r, got {delta} >= {r}")
    new_scale = _scale_of(delta, "target scale")
    n = new_scale.n
    q = new_scale.n // F.scale.n
    shift = round(math.log2(q))
    da, db = bundle_offsets(q, t)
    candidates: list[tuple[Line, CellSet]] = []
    seen = set()
    for line, sh in F.entries:
        if line.chart != CHART_SHALLOW:
            raise ConstructionError("case-2 bundling expects shallow-chart parents")
        A, B = line.a_q * q, line.b_q * q
        # Surviving (da, db) offsets in loop order (da-major); a key is claimed
        # by the first parent that reaches it, even if its child ends up empty.
        a_vals = [A + int(off_a) for off_a in da if abs(A + int(off_a)) <= n]
        b_vals = [B + int(off_b) for off_b in db if -n <= B + int(off_b) <= 2 * n]
        keys = [(a, b) for a in a_vals for b in b_vals if (a, b) not in seen]
        if not keys:
            continue
        seen.update(keys)
        pi, _ = sh.cells.ij()
        cols = np.unique(pi)
        child_cols = (cols[:, None] * q + np.arange(q, dtype=np.int64)[None, :]).ravel()
        # (child x column) runs of tube rows: the db=0 tube of each key's
        # slope, moved by db rows (shifting b by db*delta shifts them by db).
        row_of = {a: i for i, a in enumerate(a_vals)}
        ka = np.array([row_of[a] for a, _ in keys], dtype=np.int64)
        kb = np.array([b - B for _, b in keys], dtype=np.int64)
        aa = np.array(a_vals, dtype=np.int64) * delta
        W = np.array([delta * math.hypot(1.0, a * delta) for a in a_vals])
        x = (child_cols + 0.5) * delta
        lo, lens = _row_spans(aa[ka, None], B * delta, W[ka, None], x, delta, n, kb[:, None])
        child = np.repeat(np.arange(len(keys), dtype=np.int64), lens.sum(axis=1))
        lo, lens = lo.ravel(), lens.ravel()
        ci = np.repeat(np.tile(child_cols, len(keys)), lens)
        codes = _encode(ci, np.repeat(lo, lens) + _run_offsets(lens))
        pcode = _ancestor_codes(codes, shift)
        inside = _member(sh.cells.codes, pcode)[0]
        codes, child = codes[inside], child[inside]
        order = np.lexsort((codes, child))
        codes, child = codes[order], child[order]
        # CellSet's checks for all children of this parent at once
        _check_codes(codes, n, child[1:] == child[:-1])
        ends = np.cumsum(np.bincount(child, minlength=len(keys))).tolist()
        for (a_new, b_new), lo, hi in zip(keys, [0, *ends], ends):
            if hi == lo:
                continue
            try:
                child_line = Line(new_scale, CHART_SHALLOW, a_new, b_new)
            except GeometryError:
                continue
            candidates.append((child_line, CellSet._from_sorted_codes(new_scale, codes[lo:hi])))
    if not candidates:
        raise ConstructionError("bundling produced no children")
    floor = max(1, max(c.n_cells for _, c in candidates) // 8)
    kept = [(child, cells) for child, cells in candidates if cells.n_cells >= floor]
    # Shading's tube check for the whole family at once
    _check_in_tube([child for child, _ in kept], [cells for _, cells in kept])
    entries = [(child, Shading._from_checked(child, cells)) for child, cells in kept]
    return LineFamily(new_scale, tuple(entries))


def random_config(
    delta: float,
    t: float,
    s: float,
    lambda_target: float,
    seed: int,
    max_lines: int = 2048,
) -> LineFamily:
    """Randomized family: greedily accepted random dual points (Katz-Tao
    constant capped at 16 during sampling) with Bernoulli-density shadings.

    The shading exponent s is accepted for config symmetry; random shadings
    are density-driven and do not enforce an s-structure.
    """
    scale = _scale_of(delta, "delta")
    if not (0.0 < lambda_target <= 1.0):
        raise ConstructionError(f"lambda {lambda_target} outside (0, 1]")
    n_target = max(1, min(round(delta**-t), max_lines))
    rng = np.random.default_rng(np.random.PCG64(seed))
    n = scale.n
    caps = _katz_tao_caps(delta, t, 16.0)
    chosen: list[tuple[int, int]] = []
    seen = set()
    attempts = 0
    while len(chosen) < n_target and attempts < 60 * n_target:
        attempts += 1
        a_q = int(rng.integers(-n, n + 1))
        b_q = int(rng.integers(0, n))
        if (a_q, b_q) in seen:
            continue
        seen.add((a_q, b_q))
        if caps.try_add(a_q * delta, b_q * delta):
            chosen.append((a_q, b_q))
    if len(chosen) < max(1, n_target // 4):
        raise ConstructionError(
            f"rejection sampling infeasible: {len(chosen)}/{n_target} lines after {attempts} draws"
        )
    entries = []
    for a_q, b_q in chosen:
        line = Line(scale, CHART_SHALLOW, a_q, b_q)
        tube = tube_cells(line, delta)
        count = max(1, round(lambda_target * tube.n_cells))
        pick = np.sort(rng.choice(tube.n_cells, size=count, replace=False))
        cells = CellSet(scale, tube.codes[pick])
        entries.append((line, Shading(line, cells)))
    return LineFamily(scale, tuple(entries))


def bush_config(delta: float, m: int = 32, full: bool = True) -> LineFamily:
    """m lines through the center of the square with spread slopes, fully shaded."""
    scale = _scale_of(delta, "delta")
    n = scale.n
    half = n // 2
    entries = []
    seen = set()
    for l in range(m):
        frac = 2.0 * l / max(m - 1, 1) - 1.0
        a_q = 2 * round(frac * half)
        b_q = half - a_q // 2
        if (a_q, b_q) in seen:
            continue
        seen.add((a_q, b_q))
        line = Line(scale, CHART_SHALLOW, a_q, b_q)
        tube = tube_cells(line, delta)
        entries.append((line, Shading(line, tube)))
    return LineFamily(scale, tuple(entries))


def grid_config(delta: float, side: int = 16) -> LineFamily:
    """Dual points on a side x side grid (a t = 2 style family), fully shaded."""
    scale = _scale_of(delta, "delta")
    n = scale.n
    side = min(side, n)
    stride = max(1, n // side)
    entries = []
    for u in range(side):
        for v in range(side):
            a_q = -n // 2 + u * stride
            b_q = v * stride
            line = Line(scale, CHART_SHALLOW, a_q, b_q)
            tube = tube_cells(line, delta)
            entries.append((line, Shading(line, tube)))
    return LineFamily(scale, tuple(entries))


def build_config(spec: ConfigSpec) -> LineFamily:
    """Dispatch a ConfigSpec to its generator."""
    if spec.kind == "base":
        return build_base(spec.r, spec.t, spec.s, spec.seed)
    if spec.kind == "case1":
        base = build_base(spec.r, spec.t, spec.s, spec.seed, chart=CHART_STEEP)
        return rescale_case1(base, spec.delta)
    if spec.kind == "case2":
        base = build_base(spec.r, spec.t, spec.s, spec.seed)
        return bundle_case2(base, spec.delta, spec.t)
    if spec.kind == "random":
        return random_config(
            spec.delta, spec.t, spec.s, spec.lambda_target, spec.seed, spec.max_lines
        )
    if spec.kind == "bush":
        return bush_config(spec.delta, m=max(4, spec.max_lines if spec.max_lines < 256 else 32))
    if spec.kind == "grid":
        return grid_config(spec.delta)
    raise ConstructionError(f"unknown kind {spec.kind!r}")


def measure_remark_bullets(F: LineFamily, t: float, s: float) -> dict:
    """Re-measure the three claimed base-configuration properties; observed,
    never assumed."""
    r = F.scale.delta
    kt = katz_tao_constant(F.dual_points(), t, delta=r)
    masses = [sh.mass for _, sh in F.entries]
    lam = float(densities(F.shadings).min())
    fr = max(frostman_constant(sh.cells, s).constant for _, sh in F.entries)
    e_mass = union_shadings(F).mass
    predicted = math.sqrt(lam) * r ** ((t - 1.0) / 2.0) * sum(masses)
    return {
        "n_lines": len(F),
        "line_count_target": r**-t,
        "katz_tao_constant": kt.constant,
        "shading_frostman_constant": fr,
        "shading_mass_min": min(masses),
        "shading_mass_max": max(masses),
        "shading_mass_target": r ** (2.0 - s),
        "lambda_min": lam,
        "union_mass": e_mass,
        "bullet3_predicted": predicted,
        "bullet3_ratio": e_mass / predicted if predicted > 0 else float("nan"),
    }
