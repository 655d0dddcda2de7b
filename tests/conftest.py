"""Shared test helpers: random configuration generators and independent
brute-force oracles (kept deliberately naive; they must not share code paths
with the library)."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from tubelab import CellSet, Line, LineFamily, Scale, Shading, tube_cells
from tubelab.constructions import (
    ConstructionError,
    _cantor_points_2d,
    _digit_schedule,
    _scale_of,
    bundle_offsets,
)
from tubelab.geometry import CHART_SHALLOW, CHART_STEEP, GeometryError, tube_cell_count
from tubelab.measures import GammaReport, MeasureError, NonConcentrationReport


# -- random generators -------------------------------------------------------


def random_cellset(rng: np.random.Generator, k: int, density: float = 0.3) -> CellSet:
    scale = Scale(k)
    n = scale.n
    mask = rng.random(n * n) < density
    if not mask.any():
        mask[rng.integers(n * n)] = True
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return CellSet.from_ij(scale, ii.ravel()[mask], jj.ravel()[mask])


def random_line(rng: np.random.Generator, scale: Scale, chart: str | None = None) -> Line:
    n = scale.n
    if chart is None:
        chart = CHART_SHALLOW if rng.random() < 0.5 else CHART_STEEP
    for _ in range(100):
        a_q = int(rng.integers(-n, n + 1))
        b_q = int(rng.integers(0, n))  # intercept in [0, 1) always meets the square
        try:
            return Line(scale, chart, a_q, b_q)
        except Exception:
            continue
    raise RuntimeError("could not draw a line")


def random_shading(rng: np.random.Generator, line: Line, density: float = 0.5) -> Shading:
    tube = tube_cells(line, line.scale.delta)
    count = max(1, round(density * tube.n_cells))
    pick = np.sort(rng.choice(tube.n_cells, size=count, replace=False))
    return Shading(line, CellSet(line.scale, tube.codes[pick]))


def random_family(
    rng: np.random.Generator, k: int, n_lines: int, density: float = 0.5
) -> LineFamily:
    scale = Scale(k)
    entries = []
    seen = set()
    while len(entries) < n_lines:
        line = random_line(rng, scale, chart=CHART_SHALLOW)
        key = (line.chart, line.a_q, line.b_q)
        if key in seen:
            continue
        seen.add(key)
        entries.append((line, random_shading(rng, line, density)))
    return LineFamily(scale, tuple(entries))


def check_rich_point_postconditions(fam: LineFamily) -> None:
    """Assert the four rich-point refinement conclusions with (log2 1/delta)^2
    slack, plus the incidence-mass retention bound."""
    from tubelab import rich_point_refine

    out, e_mu, mu, _ = rich_point_refine(fam)
    k = fam.scale.k
    lsq = float(k * k)
    by_key = {(ln.chart, ln.a_q, ln.b_q): sh for ln, sh in fam.entries}
    total_out = 0
    for ln, sh in out.entries:
        orig = by_key[(ln.chart, ln.a_q, ln.b_q)]
        assert np.isin(sh.cells.codes, orig.cells.codes).all()  # (1) Y' inside Y
        # (3) Y' = E_mu with Y
        assert np.array_equal(sh.cells.codes, np.intersect1d(orig.cells.codes, e_mu.codes))
        total_out += sh.cells.n_cells
    # every line that meets E_mu is kept, in the input order
    meets = [ln for ln, sh in fam.entries if np.intersect1d(sh.cells.codes, e_mu.codes).size]
    assert [ln for ln, _ in out.entries] == meets
    _, counts = out.multiplicity_counts()
    assert counts.min() >= mu and counts.max() < 2 * mu  # (2) multiplicity window
    assert mu >= total_out / (e_mu.n_cells * lsq)  # (4) mu vs incidence density
    total_in = sum(sh.cells.n_cells for _, sh in fam.entries)
    assert total_out >= total_in / lsq  # incidence mass retention


# -- brute-force oracles ------------------------------------------------------


def naive_tube_cells(line: Line, w: float) -> set[tuple[int, int]]:
    """Per-cell distance check, pure python."""
    n = line.scale.n
    d = line.scale.delta
    out = set()
    for i in range(n):
        for j in range(n):
            if line.distance((i + 0.5) * d, (j + 0.5) * d) <= w:
                out.add((i, j))
    return out


def exact_tube_cells(
    line: Line, w: float, cell_scale: Scale | None = None, columns=None
) -> set[tuple[int, int]]:
    """Cells (at cell_scale, default the line's scale) whose center lies
    within distance w of the line, in the chart columns `columns` (default
    all), decided in Fractions: "center within w" squared."""
    return _exact_cells_within(line, Fraction(w) ** 2, cell_scale, columns)


def exact_shading_band(line: Line, columns=None) -> set[tuple[int, int]]:
    """Cells on the line's scale that Shading admits: center offset at most
    2 delta hypot(1, a), that is, squared, 4 delta^2 (1 + a^2)."""
    a = Fraction(line.a_q, line.scale.n)
    return _exact_cells_within(line, 4 * Fraction(1, line.scale.n) ** 2 * (1 + a * a), None, columns)


def _exact_cells_within(line: Line, w2: Fraction, cell_scale, columns) -> set[tuple[int, int]]:
    """Cells whose chart center (x, y) has (y - c)^2 <= w2 (1 + a^2), where
    c = a x + b.  With c = P/Q and w2 (1 + a^2) = E/G in lowest terms and
    y = (2v+1)/2n, that is ((2v+1) Q - 2n P)^2 G <= E (2n Q)^2.  In each
    column the rows are walked out from the one under the line until the
    first row past the band, so a column costs its band, not n checks."""
    n = (cell_scale or line.scale).n
    a, b = Fraction(line.a_q, line.scale.n), Fraction(line.b_q, line.scale.n)
    bound = w2 * (1 + a * a)
    E, G = bound.numerator, bound.denominator
    out = set()
    for u in range(n) if columns is None else [int(u) for u in columns]:
        c = a * Fraction(2 * u + 1, 2 * n) + b
        P, Q = c.numerator, c.denominator
        rhs = E * (2 * n * Q) ** 2
        start = min(max(math.floor(c * n), 0), n - 1)
        for step in (1, -1):
            v = start if step == 1 else start - 1
            while 0 <= v < n:
                gap = (2 * v + 1) * Q - 2 * n * P  # 2nQ (y - c)
                if gap * gap * G <= rhs:
                    out.add((u, v))
                elif (gap > 0) == (step == 1):  # out, and on the far side of the line
                    break
                v += step
    if line.chart == CHART_STEEP:
        return {(v, u) for u, v in out}
    return out


def naive_covering_count(cells: set[tuple[int, int]], k: int, rho: float) -> int:
    shift = k - round(math.log2(1.0 / rho))
    return len({(i >> shift, j >> shift) for i, j in cells})


def naive_katz_tao(points: np.ndarray, delta: float, s: float) -> float:
    """Independent max of #(E in 3Q) / (r/delta)^s over dyadic r, python dicts."""
    k = round(math.log2(1.0 / delta))
    best = 0.0
    for j in range(k + 1):
        r = 2.0 ** (-j)
        buckets: dict[tuple[int, int], int] = {}
        for x, y in points:
            key = (math.floor(x / r), math.floor(y / r))
            buckets[key] = buckets.get(key, 0) + 1
        for ci, cj in buckets:
            total = sum(
                buckets.get((ci + u, cj + v), 0) for u in (-1, 0, 1) for v in (-1, 0, 1)
            )
            best = max(best, total / (r / delta) ** s)
    return best


# -- exact minimal ball cover (small instances) --------------------------------


def _candidate_centers(corners: np.ndarray, rho: float) -> np.ndarray:
    """Candidate disk centers: every corner plus both intersection points of
    each pair of radius-rho circles around corners.  An optimal fixed-radius
    disk can always be translated into such a position."""
    cands = [corners]
    m = corners.shape[0]
    for a in range(m):
        diff = corners[a + 1 :] - corners[a]
        d2 = np.sum(diff * diff, axis=1)
        ok = (d2 > 0) & (d2 <= 4.0 * rho * rho + 1e-12)
        if not ok.any():
            continue
        dd = diff[ok]
        d2ok = d2[ok]
        mid = corners[a] + dd / 2.0
        h = np.sqrt(np.maximum(rho * rho - d2ok / 4.0, 0.0))
        perp = np.stack([-dd[:, 1], dd[:, 0]], axis=1) / np.sqrt(d2ok)[:, None]
        cands.append(mid + perp * h[:, None])
        cands.append(mid - perp * h[:, None])
    return np.concatenate(cands, axis=0)


def minimal_ball_cover(cells: list[tuple[int, int]], delta: float, rho: float) -> int:
    """Exact minimum number of radius-rho balls covering the closed cells."""
    base = np.array(cells, dtype=np.float64) * delta
    offs = np.array([[0.0, 0.0], [delta, 0.0], [0.0, delta], [delta, delta]])
    corners = (base[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    centers = _candidate_centers(np.unique(corners, axis=0), rho)
    # corner coverage per candidate center
    d2 = np.sum((centers[:, None, :] - corners[None, :, :]) ** 2, axis=2)
    cover_corner = d2 <= rho * rho + 1e-12
    ncells = len(cells)
    cell_masks = set()
    covered_cells = cover_corner.reshape(centers.shape[0], ncells, 4).all(axis=2)
    for row in covered_cells:
        mask = 0
        for idx in np.flatnonzero(row):
            mask |= 1 << int(idx)
        if mask:
            cell_masks.add(mask)
    # keep maximal masks only
    masks = sorted(cell_masks, key=lambda m: -bin(m).count("1"))
    maximal = []
    for m in masks:
        if not any(m | big == big for big in maximal):
            maximal.append(m)
    full = (1 << ncells) - 1

    @lru_cache(maxsize=None)
    def solve(remaining: int) -> int:
        if remaining == 0:
            return 0
        low = remaining & -remaining
        best = ncells
        for m in maximal:
            if m & low:
                best = min(best, 1 + solve(remaining & ~m))
        return best

    result = solve(full)
    solve.cache_clear()
    return result


# -- reference kernels ----------------------------------------------------------
# Straightforward per-scale / per-offset versions of the vectorized kernels in
# measures.gamma and constructions.bundle_case2; the differential tests demand
# exact equality with them.


def _interval_max_count(
    left: np.ndarray, right: np.ndarray, d: float, arc_max: float
) -> tuple[int, float]:
    """Max over grid points x = m*d in [0, arc_max] of #{i: left_i <= x <= right_i}.

    The max over the grid equals the max over the candidate points
    ceil(left_i/d)*d (counts only change at interval endpoints).
    """
    cand = np.ceil(np.maximum(left, 0.0) / d) * d
    cand = cand[cand <= np.minimum(right, arc_max) + 1e-12]
    if cand.size == 0:
        return 0, 0.0
    cand = np.unique(np.minimum(cand, arc_max))
    ls = np.sort(left)
    rs = np.sort(right)
    counts = np.searchsorted(ls, cand, side="right") - np.searchsorted(rs, cand, side="left")
    idx = int(np.argmax(counts))
    return int(counts[idx]), float(cand[idx])


def reference_gamma(Y: Shading, t: float) -> GammaReport:
    """sup over dyadic r in [delta, 1] and delta-spaced x on the line of
    (delta/r)^t * #(cells of Y with center in B(x, r)), one scale at a time."""
    if not (0.0 <= t <= 1.0):
        raise MeasureError(f"gamma exponent {t} outside [0, 1]")
    d = Y.cells.scale.delta
    k = Y.cells.scale.k
    arc, off = Y.arc_and_offset()
    lam = max(Y.line.length_in_square(), d)
    best = -1.0
    wit_r, wit_arc = d, 0.0
    for j in range(k, -1, -1):
        r = 2.0 ** (-j)
        reach2 = r * r - off * off
        mask = reach2 > 0.0
        if not np.any(mask):
            continue
        w = np.sqrt(reach2[mask])
        a = arc[mask]
        cnt, x_arc = _interval_max_count(a - w, a + w, d, lam)
        if cnt == 0:
            continue
        value = (d / r) ** t * cnt
        if value > best:
            best = float(value)
            wit_r, wit_arc = r, x_arc
    point = Y.line.point_at_arc(wit_arc)
    return GammaReport(t, best, wit_r, (float(point[0]), float(point[1])), wit_arc)


def reference_bundle_case2(F: LineFamily, delta: float, t: float) -> LineFamily:
    """Case-2 bundling with one child built per (parent, da, db) in a loop."""
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
        pi, _ = sh.cells.ij()
        cols = np.unique(pi)
        child_cols = (cols[:, None] * q + np.arange(q, dtype=np.int64)[None, :]).ravel()
        parent_codes = sh.cells.codes
        x = (child_cols + 0.5) * delta
        for off_a in da:
            a_new = int(A + off_a)
            if abs(a_new) > n:
                continue
            aa = a_new * delta
            W = delta * math.hypot(1.0, aa)
            c = aa * x + B * delta
            lo0 = np.ceil((c - W) / delta - 0.5).astype(np.int64)
            hi0 = np.floor((c + W) / delta - 0.5).astype(np.int64)
            for off_b in db:
                b_new = int(B + off_b)
                key = (a_new, b_new)
                if key in seen or not (-n <= b_new <= 2 * n):
                    continue
                seen.add(key)
                lo = np.maximum(lo0 + off_b, 0)
                hi = np.minimum(hi0 + off_b, n - 1)
                lens = hi - lo + 1
                keep = lens > 0
                if not np.any(keep):
                    continue
                kcols, klo, klens = child_cols[keep], lo[keep], lens[keep]
                total = int(klens.sum())
                ci = np.repeat(kcols, klens)
                starts = np.concatenate([[0], np.cumsum(klens)[:-1]])
                cj = np.arange(total, dtype=np.int64) - np.repeat(starts, klens) + np.repeat(
                    klo, klens
                )
                pcode = ((cj.astype(np.uint64) >> np.uint64(shift)) << np.uint64(32)) | (
                    ci.astype(np.uint64) >> np.uint64(shift)
                )
                pos = np.minimum(np.searchsorted(parent_codes, pcode), parent_codes.size - 1)
                inside = parent_codes[pos] == pcode
                if not np.any(inside):
                    continue
                try:
                    child = Line(new_scale, CHART_SHALLOW, a_new, b_new)
                except GeometryError:
                    continue
                cells = CellSet.from_ij(new_scale, ci[inside], cj[inside])
                candidates.append((child, cells))
    if not candidates:
        raise ConstructionError("bundling produced no children")
    floor = max(1, max(c.n_cells for _, c in candidates) // 8)
    entries = [
        (child, Shading(child, cells)) for child, cells in candidates if cells.n_cells >= floor
    ]
    return LineFamily(new_scale, tuple(entries))


def _reference_cantor_positions_1d(
    levels: int, target: float, rng: np.random.Generator
) -> np.ndarray:
    """Integer positions of one 1-d self-similar set, one digit draw per level."""
    schedule = _digit_schedule(levels, target, (1, 2))
    pos = np.zeros(1, dtype=np.int64)
    for kappa in schedule:
        digs = np.array([int(rng.integers(2))] if kappa == 1 else [0, 1], dtype=np.int64)
        pos = (pos[:, None] * 2 + digs[None, :]).reshape(-1)
    return np.sort(pos)


def _reference_nearest_tube_cells(line: Line, cols: np.ndarray, hits: dict | None) -> CellSet:
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
        _hit(hits, "mid_column")
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


def _hit(hits: dict | None, name: str) -> None:
    if hits is not None:
        hits[name] = hits.get(name, 0) + 1


def reference_build_base(
    r: float, t: float, s: float, seed: int, chart: str = CHART_SHALLOW, hits: dict | None = None
) -> LineFamily:
    """build_base with its shadings built one line at a time.  hits, if given,
    counts the branches taken: short lines skipped, mid-column fallbacks and
    lines skipped for an empty shading."""
    scale = _scale_of(r, "base scale r")
    if r**-t < 4.0:
        raise ConstructionError(f"infeasible base: r^-t = {r ** -t:.2f} < 4")
    if not (0.0 < s <= 1.0):
        raise ConstructionError(f"shading exponent {s} outside (0, 1]")
    rng = np.random.default_rng(np.random.PCG64(seed))
    duals = _cantor_points_2d(scale.k, t, rng)
    pts = duals.astype(np.float64) * r
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    duals = duals[reference_capped_accept(pts, reference_katz_tao_levels(r, t, 8.0), order)]
    entries = []
    for a_q, b_q in duals:
        line = Line(scale, chart, int(a_q), int(b_q))
        u0, u1 = line.param_range()
        if u1 - u0 < 0.5:
            _hit(hits, "short_line")
            continue
        cols = _reference_cantor_positions_1d(scale.k, s, rng)
        cells = _reference_nearest_tube_cells(line, cols, hits)
        if cells.is_empty():
            _hit(hits, "empty_shading")
            continue
        entries.append((line, Shading(line, cells)))
    if not entries:
        raise ConstructionError("base construction produced no usable lines")
    return LineFamily(scale, tuple(entries))


# Per-line density and two-ends constant, as they were before the family
# kernels measures.densities(F) and measures.two_ends_constants(F, ...)
# replaced them; the oracles of those kernels, one shading at a time.


def reference_density(Y: Shading) -> float:
    """lambda: shading mass over the mass of its full-width tube."""
    lam = Y.cells.n_cells / tube_cell_count(Y.line, Y.cells.scale.delta, Y.cells.scale)
    return float(lam)


def reference_two_ends_constant(Y: Shading, eps1: float, eps2: float) -> float:
    """Least C with |Y in J| <= C delta^eps2 |Y| over delta x delta^eps1 windows J."""
    if not (0.0 < eps2 < eps1 < 1.0):
        raise MeasureError(f"need 0 < eps2 < eps1 < 1, got ({eps1}, {eps2})")
    d = Y.cells.scale.delta
    W = d**eps1
    pos = Y.arc_positions()
    lam = max(Y.line.length_in_square(), d)
    cand = np.floor(pos / d) * d
    if lam > W:
        cand = np.minimum(cand, lam - W)
    cand = np.unique(np.maximum(cand, 0.0))
    hi = np.searchsorted(pos, cand + W, side="right")
    lo = np.searchsorted(pos, cand, side="left")
    max_count = int(np.max(hi - lo))
    return max_count / ((d**eps2) * pos.size)


# Per-scale non-concentration constants and the 5x5-window greedy, as they
# were before measures._tripled_max and measures.TripledCaps replaced them.


def _reference_grid_counts(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of points per dyadic r-cell; cells keyed by (iq, jq) int64 pairs."""
    iq = np.floor(pts[:, 0] / r).astype(np.int64)
    jq = np.floor(pts[:, 1] / r).astype(np.int64)
    key = iq * np.int64(1 << 32) + jq  # indices stay far below 2^31
    order = np.argsort(key, kind="stable")
    key = key[order]
    uniq, counts = np.unique(key, return_counts=True)
    return uniq, counts, key


def _reference_unpack(key: int) -> tuple[int, int]:
    iq = (key + (1 << 31)) >> 32
    return iq, key - (iq << 32)


def _reference_tripled_sums(uniq: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """For each occupied cell Q, the count of points in the 3x3 block 3Q."""
    big = np.int64(1 << 32)
    sums = np.zeros(uniq.size, dtype=np.int64)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            nb = uniq + di * big + dj
            pos = np.searchsorted(uniq, nb)
            pos = np.clip(pos, 0, uniq.size - 1)
            hit = uniq[pos] == nb
            sums += np.where(hit, counts[pos], 0)
    return sums


def reference_katz_tao_constant(pts: np.ndarray, s: float, d: float) -> NonConcentrationReport:
    """katz_tao_constant on an (n, 2) point array at scale d, one scale at a time."""
    k = round(math.log2(1.0 / d))
    best = -1.0
    wit_r, wit_x = d, (0.0, 0.0)
    for j in range(k, -1, -1):
        r = 2.0 ** (-j)
        uniq, counts, _ = _reference_grid_counts(pts, r)
        sums = _reference_tripled_sums(uniq, counts)
        denom = (r / d) ** s
        idx = int(np.argmax(sums))
        ratio = sums[idx] / denom
        if ratio > best:
            best = float(ratio)
            iq, jq = _reference_unpack(int(uniq[idx]))
            wit_r, wit_x = r, ((iq + 0.5) * r, (jq + 0.5) * r)
    return NonConcentrationReport(s, best, wit_r, wit_x)


def reference_frostman_constant(
    E: CellSet, s: float, Delta: float | None = None
) -> NonConcentrationReport:
    d = E.scale.delta
    if Delta is None:
        Delta = d
    j_max = math.floor(math.log2(1.0 / Delta) + 1e-9)
    pts = E.centers()
    total = pts.shape[0]
    best = -1.0
    wit_r, wit_x = 1.0, (0.5, 0.5)
    for j in range(j_max, -1, -1):
        r = 2.0 ** (-j)
        uniq, counts, _ = _reference_grid_counts(pts, r)
        sums = _reference_tripled_sums(uniq, counts)
        denom = (r**s) * total
        idx = int(np.argmax(sums))
        ratio = sums[idx] / denom
        if ratio > best:
            best = float(ratio)
            iq, jq = _reference_unpack(int(uniq[idx]))
            wit_r, wit_x = r, ((iq + 0.5) * r, (jq + 0.5) * r)
    return NonConcentrationReport(s, best, wit_r, wit_x)


def reference_frostman_constant_1d(
    offsets: np.ndarray, base: float, s: float
) -> NonConcentrationReport:
    pos = np.sort(np.asarray(offsets, dtype=np.float64))
    j_max = max(0, round(math.log2(1.0 / base)))
    total = pos.size
    best = -1.0
    wit_r, wit_x = 1.0, (0.5, 0.0)
    for j in range(j_max, -1, -1):
        r = 2.0 ** (-j)
        idx = np.floor(pos / r).astype(np.int64)
        uniq, counts = np.unique(idx, return_counts=True)
        sums = np.zeros(uniq.size, dtype=np.int64)
        for doff in (-1, 0, 1):
            p = np.searchsorted(uniq, uniq + doff)
            p = np.clip(p, 0, uniq.size - 1)
            hit = uniq[p] == uniq + doff
            sums += np.where(hit, counts[p], 0)
        denom = (r**s) * total
        amax = int(np.argmax(sums))
        ratio = sums[amax] / denom
        if ratio > best:
            best = float(ratio)
            wit_r, wit_x = r, ((uniq[amax] + 0.5) * r, 0.0)
    return NonConcentrationReport(s, best, wit_r, wit_x)


def _reference_window_accept(
    levels: list[tuple[float, float]], grids: list[dict[tuple[int, int], int]], x: float, y: float
) -> bool:
    """One step of the 3Q-capped greedy: per level, the 5x5 window of per-cell
    counts around the point and its nine 3x3 sums; the counts change only
    when the point is accepted."""
    cells = []
    for (r, capr), g in zip(levels, grids):
        ci, cj = int(math.floor(x / r)), int(math.floor(y / r))
        cells.append((ci, cj))
        local = np.zeros((5, 5), dtype=np.int64)
        for u in range(-2, 3):
            for w in range(-2, 3):
                c = g.get((ci + u, cj + w))
                if c:
                    local[u + 2, w + 2] = c
        local[2, 2] += 1
        worst = max(int(local[a : a + 3, b : b + 3].sum()) for a in range(3) for b in range(3))
        if worst > capr:
            return False
    for cell, g in zip(cells, grids):
        g[cell] = g.get(cell, 0) + 1
    return True


def reference_capped_accept(
    pts: np.ndarray, levels: list[tuple[float, float]], order: np.ndarray
) -> np.ndarray:
    """Greedy 3Q-capped acceptance of the rows of pts in the given order; the
    mask of accepted rows."""
    grids: list[dict[tuple[int, int], int]] = [dict() for _ in levels]
    keep = np.zeros(pts.shape[0], dtype=bool)
    for p in order:
        x, y = pts[p]
        keep[p] = _reference_window_accept(levels, grids, x, y)
    return keep


def reference_katz_tao_levels(delta: float, s: float, cap: float) -> list[tuple[float, float]]:
    """The (r, cap) levels of build_base (cap 8) and random_config (cap 16)."""
    k = round(math.log2(1.0 / delta))
    return [(2.0 ** (-j), cap * (2.0 ** (-j) / delta) ** s) for j in range(k, -1, -1)]


def reference_subsample_levels(rho: float, s: float) -> list[tuple[float, float]]:
    """The (r, cap) levels of katz_tao_subsample."""
    levels = []
    r = rho
    while r <= 1.0:
        levels.append((r, 8.0 * (r / rho) ** s))
        r *= 2.0
    return levels


def reference_random_duals(
    delta: float, t: float, seed: int, max_lines: int = 2048
) -> list[tuple[int, int]]:
    """The dual points random_config draws and accepts, in draw order."""
    k = round(math.log2(1.0 / delta))
    n = 1 << k
    n_target = max(1, min(round(delta**-t), max_lines))
    rng = np.random.default_rng(np.random.PCG64(seed))
    levels = reference_katz_tao_levels(delta, t, 16.0)
    grids: list[dict[tuple[int, int], int]] = [dict() for _ in levels]
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
        if _reference_window_accept(levels, grids, a_q * delta, b_q * delta):
            chosen.append((a_q, b_q))
    return chosen


# LineFamily.multiplicity_counts, segment_count, segment_cover and the
# per-line restriction of rich_point_refine, as they were before
# grid._sorted_counts, geometry._greedy_windows and the family-wide
# restriction replaced them.  The restriction intersects with np.intersect1d
# directly, so it shares no membership code with CellSet.


def reference_multiplicity_counts(F: LineFamily, chunk: int = 1 << 21) -> tuple[np.ndarray, np.ndarray]:
    """(codes, counts) of how many shadings cover each cell of E_L."""
    acc_codes = np.empty(0, dtype=np.uint64)
    acc_counts = np.empty(0, dtype=np.int64)
    buf: list[np.ndarray] = []
    size = 0

    def flush() -> None:
        nonlocal acc_codes, acc_counts, buf, size
        if not buf:
            return
        u, c = np.unique(np.concatenate(buf), return_counts=True)
        merged = np.union1d(acc_codes, u)
        counts = np.zeros(merged.size, dtype=np.int64)
        counts[np.searchsorted(merged, acc_codes)] += acc_counts
        counts[np.searchsorted(merged, u)] += c
        acc_codes, acc_counts = merged, counts
        buf, size = [], 0

    for _, sh in F.entries:
        buf.append(sh.cells.codes)
        size += sh.cells.codes.size
        if size >= chunk:
            flush()
    flush()
    return acc_codes, acc_counts


def reference_segment_count(positions: np.ndarray, r: float) -> int:
    """Greedy left-to-right count of length-r windows covering the positions."""
    n = positions.size
    count = 0
    idx = 0
    while idx < n:
        count += 1
        idx = int(np.searchsorted(positions, positions[idx] + r, side="right"))
    return count


def reference_two_ends_scale(Y: Shading, v: float, C: float) -> float:
    """The least dyadic r with |Y|_r < C^-1 r^-v, from the full greedy count
    at every level; 1.0 when no scale qualifies."""
    pos = Y.arc_positions()
    d = Y.cells.scale.delta
    for level in range(Y.cells.scale.k + 1):
        r = d * (1 << level)
        if reference_segment_count(pos, r) < (r**-v) / C:
            return r
    return 1.0


def reference_lower_hull(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Monotone-chain lower hull indices on numpy scalars, one element lookup
    per coordinate; a turn with cross product <= 1e-15 drops the middle point."""
    hull: list[int] = []
    for idx in range(xs.size):
        while len(hull) >= 2:
            x0, y0 = xs[hull[-2]], ys[hull[-2]]
            x1, y1 = xs[hull[-1]], ys[hull[-1]]
            if (x1 - x0) * (ys[idx] - y0) - (y1 - y0) * (xs[idx] - x0) <= 1e-15:
                hull.pop()
            else:
                break
        hull.append(idx)
    return hull


def reference_segment_cover(Y: Shading, r: float) -> list[tuple[float, float, float]]:
    """(t0, r, width) of each segment of the greedy cover, left to right."""
    d = Y.cells.scale.delta
    pos = Y.arc_positions()
    lam = max(Y.line.length_in_square(), d)
    segments = []
    idx = 0
    while idx < pos.size:
        start = pos[idx]
        seg_start = min(max(start, 0.0), max(lam - r, 0.0))
        t0 = min(max((seg_start + r / 2.0) / lam, 0.0), 1.0)
        segments.append((t0, min(r, 1.0), d))
        idx = int(np.searchsorted(pos, start + r, side="right"))
    return segments


def reference_rich_point_refine(F: LineFamily):
    """rich_point_refine with the chunked multiplicity merge and one
    intersection plus Shading(...) per line."""
    from tubelab.structure import RefinementTrace, StructureError

    if len(F) == 0:
        raise StructureError("empty family")
    trace = RefinementTrace()
    fam = F
    e_mu: CellSet | None = None
    mu = 1
    for pass_no in (1, 2):
        codes, counts = reference_multiplicity_counts(fam)
        classes = np.floor(np.log2(counts)).astype(np.int64)
        weights = np.bincount(classes, weights=counts.astype(np.float64))
        best = int(np.argmax(weights))
        total = float(counts.sum())
        kept_mass = float(weights[best])
        occ = np.unique(classes).size
        trace.add(
            f"pass {pass_no}: multiplicity class 2^{best} of {occ}",
            kept_mass / total,
            1.0 / occ,
        )
        mu = 1 << best
        rich = codes[classes == best]
        e_mu = CellSet(fam.scale, rich)
        entries = []
        for line, sh in fam.entries:
            inter = CellSet(fam.scale, np.intersect1d(sh.cells.codes, e_mu.codes, assume_unique=True))
            if not inter.is_empty():
                entries.append((line, Shading(line, inter)))
        if not entries:
            raise StructureError("refinement emptied the family")
        fam = LineFamily(fam.scale, tuple(entries))
        if pass_no == 2 and occ != 1:
            raise StructureError("rich-point refinement did not stabilize")
    assert e_mu is not None
    return fam, e_mu, mu, trace


# uniformize and uniformity_error as they were before the quadtree keys of
# structure._ladder_keys replaced the per-level sorts; np.unique stands in for
# grid's sort helpers and the ancestor codes are spelled out, so the copy
# shares no run or key code with the library.


def _reference_ancestor_codes(codes: np.ndarray, shift: int) -> np.ndarray:
    up = np.uint64(shift)
    mask = np.uint64(0xFFFFFFFF)
    return (((codes >> np.uint64(32)) >> up) << np.uint64(32)) | ((codes & mask) >> up)


def _reference_child_counts(codes: np.ndarray, k: int, ladder, j: int):
    """Per-parent occupied-child counts at ladder level j (parents at j-1)."""
    child = np.unique(_reference_ancestor_codes(codes, k - ladder.m * j))
    return np.unique(_reference_ancestor_codes(child, ladder.m), return_counts=True)


def reference_uniformity_error(E: CellSet, ladder) -> float:
    """Worst per-level max/min ratio of occupied-child counts."""
    worst = 1.0
    for j in range(1, ladder.N + 1):
        _, counts = _reference_child_counts(E.codes, E.scale.k, ladder, j)
        worst = max(worst, float(counts.max()) / float(counts.min()))
    return worst


def reference_uniformize(E: CellSet, ladder):
    """Finest to coarsest, keep the dyadic class of occupied-child counts
    carrying the most cells; one sort per level and a binary search of every
    cell's parent."""
    from tubelab.structure import RefinementTrace

    k = E.scale.k
    codes = E.codes
    trace = RefinementTrace()
    for j in range(ladder.N, 0, -1):
        par, counts = _reference_child_counts(codes, k, ladder, j)
        classes = np.floor(np.log2(counts)).astype(np.int64)
        cell_parents = _reference_ancestor_codes(codes, k - ladder.m * (j - 1))
        cls_of_cell = classes[np.searchsorted(par, cell_parents)]
        mass = np.bincount(cls_of_cell, minlength=int(classes.max()) + 1)
        occupied = np.count_nonzero(mass)
        best = int(np.argmax(mass))
        keep = cls_of_cell == best
        frac = float(np.count_nonzero(keep)) / codes.size
        trace.add(
            f"level {j}: {occupied} dyadic classes, kept class 2^{best}",
            frac,
            1.0 / (2.0 * occupied),
        )
        codes = codes[keep]
    out = CellSet(E.scale, codes)
    return out, reference_uniformity_error(out, ladder), trace


def reference_shading_uniformity_error(pos: np.ndarray, d: float, k: int) -> float:
    """Worst per-level max/min ratio of occupied fine windows per coarse
    window on a 4-adic arclength ladder, one np.unique per level."""
    idx = np.unique(np.floor(pos / d).astype(np.int64))
    worst = 1.0
    for _ in range(k // 2):
        parents, counts = np.unique(idx >> 2, return_counts=True)
        worst = max(worst, float(counts.max()) / float(counts.min()))
        idx = parents
    return worst
