"""Generators: self-similar base families, the two sharpness rescalings, and
randomized test configurations.

No construction property is trusted: generators emit plain families and the
measurement module re-derives every claimed constant.  All randomness flows
through numpy's PCG64 generator seeded from the config, and the seed is
recorded in every artifact file.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .grid import CellSet, Scale, _decode, _encode, _run_ranges, _sorted_unique
from .geometry import (
    CHART_SHALLOW,
    CHART_STEEP,
    Line,
    LineFamily,
    Shading,
    _FrameTable,
    _line_chunks,
    _row_spans,
    _tube_radii,
    tube_cells,
    union_shadings,
)
from .measures import TripledCaps, _keep_capped, densities, katz_tao_constant, frostman_constant

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

# (key x child column) entries per batch of bundle_case2.  The k = 12 point
# of the case-2 sweep has 53 M entries, and a batch holds some 220 bytes per
# entry while the family it adds to is nearly complete: 2^19 entries raised
# that point's peak RSS by a sixth, 2^17 by 1 %, at the same speed within
# noise.
_BUNDLE_CHUNK = 1 << 17


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
        if not (0.0 < self.delta <= 1.0):
            raise ConstructionError(f"delta {self.delta} outside (0, 1]")
        if not (self.delta <= self.r <= 1.0):
            raise ConstructionError(f"r {self.r} outside [delta, 1]")

    def to_json_obj(self) -> dict:
        return asdict(self)


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


def _cantor_positions_1d(
    levels: int, target: float, rng: np.random.Generator, count: int = 1
) -> np.ndarray:
    """Integer positions of `count` 1-d self-similar sets in [0, 2^levels),
    one sorted row each.  The digits are drawn row by row, level by level:
    one draw of `count` rows is the same as `count` draws of one row."""
    schedule = _digit_schedule(levels, target, (1, 2))
    digits = rng.integers(2, size=(count, schedule.count(1)))
    pos = np.zeros((count, 1), dtype=np.int64)
    level = 0
    for kappa in schedule:
        if kappa == 1:
            pos = pos * 2 + digits[:, level, None]
            level += 1
        else:
            pos = (pos[:, :, None] * 2 + np.arange(2)).reshape(count, 2 * pos.shape[1])
    return np.sort(pos, axis=1)


def _katz_tao_levels(delta: float, s: float, cap: float) -> list[tuple[float, float]]:
    """The (r, cap) levels of a greedy acceptance keeping every tripled dyadic
    cell 3Q at every dyadic scale r in [delta, 1] at most cap*(r/delta)^s
    full, fine to coarse."""
    k = round(math.log2(1.0 / delta))
    return [(2.0 ** (-j), cap * (2.0 ** (-j) / delta) ** s) for j in range(k, -1, -1)]


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
    keep = _keep_capped(_katz_tao_levels(r, t, 8.0), duals.astype(np.float64) * r)
    a_q, b_q = duals[keep].T
    steep = np.full(a_q.size, chart == CHART_STEEP)
    fr = _FrameTable.of(scale, np.zeros_like(a_q), steep, a_q, b_q)
    # edge-clipped lines are too short to carry the target mass and would
    # skew the family's density and non-concentration profile
    fr = fr.rows(fr.u1 - fr.u0 >= 0.5)
    codes = _nearest_tube_codes(scale, chart, fr, _cantor_positions_1d(scale.k, s, rng, fr.a.size))
    kept = np.flatnonzero([c.size for c in codes])
    if not kept.size:
        raise ConstructionError("base construction produced no usable lines")
    runs = [codes[i] for i in kept]
    return LineFamily._from_arrays(scale, chart, fr.a_q[kept], fr.b_q[kept], runs)


def _nearest_tube_codes(scale: Scale, chart: str, fr: _FrameTable, cols: np.ndarray) -> list:
    """Sorted codes of one tube cell per requested column for each line of
    the frame table (lines of this scale and chart; cols[l] are the columns
    of line l): the cell whose center is nearest the line, skipping columns
    outside the square and cells off the width-delta tube.  A line with no
    column left in the square gets the column under its midpoint.  In the
    integers of geometry's tube predicate, the nearest row is (C - n)/2n
    rounded half to even."""
    d, n = scale.delta, scale.n
    u0, u1 = fr.u0[:, None], fr.u1[:, None]
    cols = cols.copy()
    x = (cols + 0.5) * d
    sel = (x >= u0 - d / 2) & (x <= u1 + d / 2)
    none = ~sel.any(axis=1)
    mid = (u0[none, 0] + u1[none, 0]) / 2.0
    cols[none, 0] = np.clip((mid / d).astype(np.int64), 0, n - 1)
    sel[none, 0] = True
    C = fr.a_q[:, None] * (2 * cols + 1) + 2 * n * fr.b_q[:, None]
    half, rem = np.divmod(C - n, 2 * n)
    rows = np.clip(half + ((rem > n) | ((rem == n) & (half % 2 == 1))), 0, n - 1)
    sel &= np.abs(n * (2 * rows + 1) - C) <= _tube_radii(fr.a_q, n, n, d)[:, None]
    codes = _encode(cols, rows) if chart == CHART_SHALLOW else _encode(rows, cols)
    # one cell per column, so a line's codes are distinct; the unused slots
    # sort past them
    codes[~sel] = np.iinfo(np.uint64).max
    codes.sort(axis=1)
    sizes = sel.sum(axis=1)
    flat = codes[np.arange(codes.shape[1]) < sizes[:, None]]
    return np.split(flat, np.cumsum(sizes)[:-1])


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


def bundle_offsets(q: int, t: float, seed: int = 12_021) -> tuple[np.ndarray, np.ndarray]:
    """Dual offsets (da, db) in delta-units for a (r/delta)^t bundle inside an
    r-tube: slopes on a (t-1)-dimensional digit set in [0, q), intercepts on a
    step-2 lattice wide enough that the child tubes sweep the whole r-tube."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    if q >= 2:
        da = _cantor_positions_1d(round(math.log2(q)), t - 1.0, rng)[0]
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
    if any(line.chart != CHART_SHALLOW for line in F.lines):
        raise ConstructionError("case-2 bundling expects shallow-chart parents")
    A = np.array([line.a_q for line in F.lines], dtype=np.int64) * q
    B = np.array([line.b_q for line in F.lines], dtype=np.int64) * q
    # Every (parent, da, db) key in loop order (parent, then da, then db); a
    # key is claimed by the first parent that reaches it, even if its child
    # ends up empty.
    a_new, b_new = A[:, None] + da, B[:, None] + db
    a_ok, b_ok = np.abs(a_new) <= n, (-n <= b_new) & (b_new <= 2 * n)
    parent, ia, ib = np.nonzero(a_ok[:, :, None] & b_ok[:, None, :])
    ka, kb = a_new[parent, ia], b_new[parent, ib]
    claimed = np.sort(np.unique((ka + n) * (3 * n + 1) + (kb + n), return_index=True)[1])
    parent, ka, kb = parent[claimed], ka[claimed], kb[claimed]
    # Line's frame of every candidate, with its cell count filled in below
    counts = np.zeros(ka.size, dtype=np.int64)
    cand = _FrameTable.of(new_scale, counts, np.zeros(ka.size, dtype=bool), ka, kb)
    radii = _tube_radii(ka, n, n, delta)
    # The child columns of all parents laid end to end, q per parent column in
    # column order, and the parent cells as sorted (parent, column, row) keys;
    # col_keys holds the key of each child column's parent cell in row 0.
    sizes = np.array([sh.cells.n_cells for sh in F.shadings], dtype=np.int64)
    owner = np.repeat(np.arange(len(F), dtype=np.int64), sizes)
    parent_codes = [np.empty(0, dtype=np.uint64), *(sh.cells.codes for sh in F.shadings)]
    pi, pj = _decode(np.concatenate(parent_codes))
    nr = F.scale.n
    parent_keys = np.sort((owner * nr + pi) * nr + pj)
    parent_cols = _sorted_unique(parent_keys // nr)
    n_cols = np.bincount(parent_cols // nr, minlength=len(F)) * q
    col_starts = np.cumsum(n_cols) - n_cols
    col_keys = np.repeat(parent_cols * nr, q)
    child_cols = _run_ranges(parent_cols % nr * q, np.full(parent_cols.size, q))
    # (key x child column) entries in chunks of consecutive keys: each chunk's
    # child codes in key order, which stay the storage of its shadings
    chunks: list[tuple[int, int, np.ndarray]] = []
    for k0, k1 in _line_chunks(n_cols[parent], _BUNDLE_CHUNK):
        per_key = n_cols[parent[k0:k1]]
        col = _run_ranges(col_starts[parent[k0:k1]], per_key)
        keys = (np.repeat(v[k0:k1], per_key) for v in (ka, kb, radii))
        lo, lens = _row_spans(*keys, child_cols[col], n, n)
        # R <= isqrt(8 n^2) < 3n, so a column holds at most 3 rows lo..hi of
        # a child tube, and as q >= 2 they lie in at most two parent rows,
        # lo >> shift and hi >> shift: the rows whose parent cell is in the
        # parent shading form one run, from first to last.
        hi = lo + lens - 1
        split = (hi >> shift) << shift
        row0 = col_keys[col]
        first = np.where(np.isin(row0 + (lo >> shift), parent_keys), lo, split)
        last = np.where(np.isin(row0 + (hi >> shift), parent_keys), hi, split - 1)
        lens = np.where(lens > 0, np.maximum(last - first + 1, 0), 0)
        key = np.repeat(np.repeat(np.arange(k1 - k0), per_key), lens)
        cols, rows = np.repeat(child_cols[col], lens), _run_ranges(first, lens)
        # by child, then row: the cells of one child and row come in ascending
        # column order, so this stable sort puts each child's codes in order
        order = np.argsort(key * n + rows, kind="stable")
        key, codes = key[order], _encode(cols[order], rows[order])
        counts[k0:k1] = np.bincount(key, minlength=k1 - k0)
        chunks.append((k0, k1, codes))
    # a child whose line misses the unit square is no candidate, and
    # candidates under the floor are dropped; the candidates' frames are
    # freed first, as they would raise the build's peak RSS
    live = (counts > 0) & (cand.u0 <= cand.u1)
    del cand, radii
    if not live.any():
        raise ConstructionError("bundling produced no children")
    kept = live & (counts >= max(1, int(counts[live].max()) // 8))
    starts = np.cumsum(counts) - counts
    runs = []
    for k0, k1, codes in chunks:
        keys = k0 + np.flatnonzero(kept[k0:k1])
        lo = starts[keys] - starts[k0]
        runs += [codes[c0:c1] for c0, c1 in zip(lo.tolist(), (lo + counts[keys]).tolist())]
    return LineFamily._from_arrays(new_scale, CHART_SHALLOW, ka[kept], kb[kept], runs)


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
    caps = TripledCaps(_katz_tao_levels(delta, t, 16.0))
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


def bush_config(delta: float, m: int = 32) -> LineFamily:
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
    lam = float(densities(F).min())
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
