"""Quantitative classifiers: non-concentration constants, density, two-ends, gamma.

Suprema over scales are restricted to dyadic r and over centers to delta-spaced
candidates; the continuous suprema agree within a factor 4 (scale doubling plus
a center shift).  Balls are replaced by tripled dyadic cells 3Q, which contain
any ball of the matching radius; the factor is absorbed into the reported
constants.  Every report carries the witness achieving its constant so a
failure can be replayed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .grid import CellSet, Scale, _member, _sorted_counts
from .geometry import (
    LineFamily,
    Shading,
    _cell_arcs_and_offsets,
    _lend_projections,
    _line_chunks,
    _row_spans,
)

__all__ = [
    "MeasureError",
    "NonConcentrationReport",
    "GammaReport",
    "TripledCaps",
    "katz_tao_constant",
    "frostman_constant",
    "frostman_constant_1d",
    "density",
    "densities",
    "two_ends_constant",
    "two_ends_constants",
    "gamma",
    "gamma_sup",
]


class MeasureError(ValueError):
    pass


@dataclass(frozen=True)
class NonConcentrationReport:
    """Minimal constant for a non-concentration inequality, with witness."""

    exponent: float
    constant: float
    witness_r: float
    witness_x: tuple[float, float]

    def to_json_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class GammaReport:
    """Value of the scale-concentration functional at exponent t, with witness."""

    exponent: float
    value: float
    witness_r: float
    witness_x: tuple[float, float]
    witness_arc: float

    def to_json_obj(self) -> dict:
        return {
            "exponent": self.exponent,
            "constant": self.value,
            "witness_r": self.witness_r,
            "witness_x": list(self.witness_x),
        }


def _as_points(E, delta: float | None) -> tuple[np.ndarray, float]:
    if isinstance(E, CellSet):
        if E.is_empty():
            raise MeasureError("empty set")
        return E.centers(), E.scale.delta
    pts = np.asarray(E, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise MeasureError("expected a nonempty (n, 2) point array or CellSet")
    if delta is None:
        raise MeasureError("raw point sets need an explicit delta")
    return pts, delta


_BIG = 1 << 32  # cell key iq * 2^32 + jq with a signed jq
_BLOCK = tuple(u * _BIG + w for u in (-1, 0, 1) for w in (-1, 0, 1))
# |coordinate| / r below this keeps a cell's index and its neighbours' (one
# more either way) inside the signed 32 bits of jq, so no two keys alias.
_KEY_LIMIT = (1 << 31) - 1


def _check_key_width(m: float, r: float) -> None:
    """Raise unless the cells of coordinates up to m in magnitude at scale r
    fit the packed key."""
    if m / r >= _KEY_LIMIT:
        raise MeasureError(f"cell indices at r = {r} do not fit a 32-bit key")


def _cell_keys(pts: np.ndarray, r: float) -> np.ndarray:
    """Key iq * 2^32 + jq of the dyadic r-cell of every point: the same IEEE
    division and floor as math.floor(x / r), one numpy pass per axis."""
    _check_key_width(np.abs(pts).max(initial=0.0), r)
    iq = np.floor(pts[:, 0] / r).astype(np.int64)
    return iq * _BIG + np.floor(pts[:, 1] / r).astype(np.int64)


class TripledCaps:
    """Greedy acceptance under caps on every tripled cell 3Q.

    levels holds (r, cap) pairs.  A point is accepted when, at every level,
    each dyadic r-cell Q whose 3Q contains it still holds at most cap points
    in 3Q with the point added.  Per level, counts maps the key of Q to the
    number of accepted points in 3Q, and full holds every cell of the 3x3
    block around each Q with counts + 1 > cap: a point is rejected exactly
    when its cell is in full at some level.  Once Q is full no point of its
    block is accepted, so its count never moves again.  A cap below 1 makes
    every Q full from the start (closed), so nothing is accepted.
    """

    def __init__(self, levels: Sequence[tuple[float, float]]) -> None:
        self.levels = list(levels)
        self.counts: list[dict[int, int]] = [{} for _ in self.levels]
        self.full: list[set[int]] = [set() for _ in self.levels]
        self.closed = any(1 > cap for _, cap in self.levels)
        self._finest = min((r for r, _ in self.levels), default=math.inf)

    def _add(self, cells: Sequence[int]) -> bool:
        """try_add for a point given by its cell key at every level."""
        if self.closed or any(map(set.__contains__, self.full, cells)):
            return False
        for c, (_, cap), g, f in zip(cells, self.levels, self.counts, self.full):
            for q in [c + o for o in _BLOCK]:
                n = g[q] = g.get(q, 0) + 1
                if n + 1 > cap:
                    f.update([q + o for o in _BLOCK])
        return True

    def try_add(self, x: float, y: float) -> bool:
        """Accept (x, y) if no cap is exceeded; counts change only on accept."""
        _check_key_width(max(abs(x), abs(y)), self._finest)
        return self._add([math.floor(x / r) * _BIG + math.floor(y / r) for r, _ in self.levels])

    def keep_mask(self, pts: np.ndarray) -> np.ndarray:
        """try_add over the rows of pts in (y, x) lexicographic order; the mask
        of the accepted rows."""
        order = np.lexsort((pts[:, 0], pts[:, 1]))
        keys = [_cell_keys(pts[order], r).tolist() for r, _ in self.levels]
        keep = np.zeros(pts.shape[0], dtype=bool)
        for p, cells in zip(order.tolist(), zip(*keys)):
            if self._add(cells):
                keep[p] = True
        return keep


def _unpack(key: int) -> tuple[int, int]:
    """Inverse of the iq * 2^32 + jq key of _cell_keys; jq is signed, so iq
    is the nearest multiple, not the floor."""
    iq = (key + (1 << 31)) >> 32
    return iq, key - (iq << 32)


def _tripled_max(
    pts: np.ndarray, levels: list[tuple[float, float]]
) -> tuple[float, float, tuple[float, float]]:
    """max over (r, denom) levels, fine to coarse, of #(pts in 3Q) / denom over
    dyadic r-cells Q, with the center of the first maximal Q as witness.

    Ties keep the finest level (strict >) and, within a level, the least
    (iq, jq) cell.  Only occupied cells Q are visited, so an empty Q whose
    3Q holds more points is missed: points in cells (0, 0) and (2, 0) at
    r = 1/8 give 1, while the empty Q = (1, 0) has 2 in 3Q.
    """
    best, wit_r, wit_x = -1.0, levels[0][0], (0.0, 0.0)
    for r, denom in levels:
        uniq, counts = _sorted_counts(_cell_keys(pts, r))
        sums = np.zeros(uniq.size, dtype=np.int64)
        for o in _BLOCK:
            hit, pos = _member(uniq, uniq + o)
            sums += np.where(hit, counts[pos], 0)
        idx = int(np.argmax(sums))
        ratio = sums[idx] / denom
        if ratio > best:
            best = float(ratio)
            iq0, jq0 = _unpack(int(uniq[idx]))
            wit_r, wit_x = r, ((iq0 + 0.5) * r, (jq0 + 0.5) * r)
    return best, wit_r, wit_x


def katz_tao_constant(E, s: float, delta: float | None = None) -> NonConcentrationReport:
    """Least C with #(E in 3Q) <= C (r/delta)^s over dyadic r in [delta, 1].

    E is a CellSet (counted by cell centers) or an (n, 2) point array with an
    explicit delta.  Q ranges only over cells that hold a point of E (see
    _tripled_max), so the constant can fall short of the least C: for cells
    (0, 0) and (2, 0) at delta = 1/8 and s = 1 it reports 1.0, not 2.
    """
    if not (0.0 < s <= 2.0):
        raise MeasureError(f"exponent {s} outside (0, 2]")
    pts, d = _as_points(E, delta)
    if not (0.0 < d <= 1.0):
        raise MeasureError(f"delta {d} outside (0, 1]")
    k = round(math.log2(1.0 / d))
    levels = [(2.0 ** (-j), (2.0 ** (-j) / d) ** s) for j in range(k, -1, -1)]
    return NonConcentrationReport(s, *_tripled_max(pts, levels))


def frostman_constant(E: CellSet, s: float, Delta: float | None = None) -> NonConcentrationReport:
    """Least C with |E in 3Q|_delta <= C r^s |E|_delta over dyadic r in [Delta, 1]."""
    if not isinstance(E, CellSet) or E.is_empty():
        raise MeasureError("frostman_constant needs a nonempty CellSet")
    if not (0.0 < s <= 2.0):
        raise MeasureError(f"exponent {s} outside (0, 2]")
    d = E.scale.delta
    if Delta is None:
        Delta = d
    if not (d <= Delta <= 1.0):
        raise MeasureError(f"Delta {Delta} outside [delta, 1]")
    j_max = math.floor(math.log2(1.0 / Delta) + 1e-9)
    total = E.n_cells
    levels = [(2.0 ** (-j), (2.0 ** (-j)) ** s * total) for j in range(j_max, -1, -1)]
    return NonConcentrationReport(s, *_tripled_max(E.centers(), levels))


def frostman_constant_1d(offsets: np.ndarray, base: float, s: float) -> NonConcentrationReport:
    """1-d analogue on [0, 1]: least C with #(E in 3I) <= C r^s #E, windows dyadic."""
    pos = np.asarray(offsets, dtype=np.float64).ravel()
    if pos.size == 0:
        raise MeasureError("empty offset set")
    if not (0.0 < base <= 1.0):
        raise MeasureError(f"base resolution {base} outside (0, 1]")
    j_max = max(0, round(math.log2(1.0 / base)))
    levels = [(2.0 ** (-j), (2.0 ** (-j)) ** s * pos.size) for j in range(j_max, -1, -1)]
    best, wit_r, (wit_x, _) = _tripled_max(np.stack([pos, np.zeros_like(pos)], axis=1), levels)
    return NonConcentrationReport(s, best, wit_r, (wit_x, 0.0))


def _one_scale(shadings: Sequence[Shading]) -> Scale:
    if not shadings:
        raise MeasureError("no shadings to measure")
    scale = shadings[0].cells.scale
    if any(sh.cells.scale != scale for sh in shadings):
        raise MeasureError("shadings on different scales")
    return scale


def density(Y: Shading) -> float:
    """lambda: shading mass over the mass of its full-width tube."""
    return float(densities([Y])[0])


def densities(shadings: Sequence[Shading]) -> np.ndarray:
    """density of every shading (one scale).  The tube counts of a chunk of
    lines come from one (line x column) _row_spans, as in tube_cell_count."""
    scale = _one_scale(shadings)
    d, n = scale.delta, scale.n
    a, b, W = np.array(
        [(sh.line.a, sh.line.b, d * sh.line.nrm) for sh in shadings]
    ).T[:, :, None]
    x = (np.arange(n, dtype=np.int64) + 0.5) * d
    tubes = np.empty(len(shadings), dtype=np.int64)
    for lo, hi in _line_chunks(np.full(len(shadings), n)):
        _, lens = _row_spans(a[lo:hi], b[lo:hi], W[lo:hi], x, d, n)
        tubes[lo:hi] = lens.sum(axis=1)
    return np.array([sh.cells.n_cells for sh in shadings]) / tubes


def two_ends_constant(Y: Shading, eps1: float, eps2: float) -> float:
    """Least C with |Y in J| <= C delta^eps2 |Y| over delta x delta^eps1 windows J.

    Windows slide at delta steps along arclength; the maximum over all grid
    starts equals the maximum over the per-cell candidate starts evaluated
    by two_ends_constants (window counts only change when an endpoint
    crosses a position).
    """
    return float(two_ends_constants([Y], eps1, eps2)[0])


def two_ends_constants(shadings: Sequence[Shading], eps1: float, eps2: float) -> np.ndarray:
    """two_ends_constant of every shading (one scale).

    A chunk of lines holds the arc positions of all its cells in one flat
    array, one run per line.  Each cell's candidate window [c, c + W] adds a
    start event at c and an end event at c + W.  Sorted by (line, value,
    kind) with start < position < end on ties, the running count of
    positions at the end event minus the one at the start event is the
    window's count, positions on either end included.
    """
    if not (0.0 < eps2 < eps1 < 1.0):
        raise MeasureError(f"need 0 < eps2 < eps1 < 1, got ({eps1}, {eps2})")
    d = _one_scale(shadings).delta
    W = d**eps1
    sizes = np.array([sh.cells.n_cells for sh in shadings], dtype=np.int64)
    best = np.empty(len(shadings), dtype=np.int64)
    for lo, hi in _line_chunks(sizes):
        chunk = shadings[lo:hi]
        pos, _ = _cell_arcs_and_offsets([sh.line for sh in chunk], [sh.cells for sh in chunk])
        line = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        lam = np.array([max(sh.line.length_in_square(), d) for sh in chunk])
        start = np.minimum(np.floor(pos / d) * d, np.where(lam > W, lam - W, np.inf)[line])
        start = np.maximum(start, 0.0)
        m = pos.size
        kind = np.repeat(np.arange(3, dtype=np.int8), m)
        order = np.lexsort((kind, np.concatenate([start, pos, start + W]), np.tile(line, 3)))
        seen = np.empty(3 * m, dtype=np.int64)
        seen[order] = np.cumsum(kind[order] == 1)
        heads = np.cumsum(sizes[lo:hi]) - sizes[lo:hi]
        best[lo:hi] = np.maximum.reduceat(seen[2 * m :] - seen[:m], heads)
    return best / (d**eps2 * sizes)


@functools.lru_cache(maxsize=None)  # one entry per k, and Scale keeps k <= 32
def _scale_rows(k: int) -> tuple[np.ndarray, np.ndarray]:
    """gamma's rows at delta = 2^-k: r^2 of r = 2^(i-k) for row i as a
    column, and the row indices.  Read-only, since every call shares them."""
    r2 = np.ldexp(1.0, -2 * np.arange(k, -1, -1))[:, None]
    rows = np.arange(k + 1)
    r2.flags.writeable = False
    rows.flags.writeable = False
    return r2, rows


def gamma(Y: Shading, t: float) -> GammaReport:
    """sup over dyadic r in [delta, 1] and delta-spaced x on the line of
    (delta/r)^t * #(cells of Y with center in B(x, r)).

    All k+1 scales are handled in one integer table.  Row i is r = 2^(i-k);
    a cell within reach of x covers the arclength interval [left, right] =
    [arc - w, arc + w].  delta = 2^-k, so left/delta and right/delta are
    exact, and the cell covers the grid point x = m*delta, 0 <= m <= M =
    floor(lambda/delta), exactly when lo = ceil(left/delta) <= m <= hi =
    floor(right/delta).  A +1 at lo and a -1 at hi+1, summed along the row,
    give the cover count of every grid point; argmax keeps the first (least
    x) maximum of each row.  When lambda lies within 1e-12 below the next
    grid point, that point counts as x = lambda (a 1e-12 slack at the end of
    the line), the row's last column, whose cover is tested in floats.  Rows
    go fine to coarse with a strict >, so ties keep the finest scale.
    """
    if not (0.0 <= t <= 1.0):
        raise MeasureError(f"gamma exponent {t} outside [0, 1]")
    d = Y.cells.scale.delta
    k = Y.cells.scale.k
    arc, off = Y.arc_and_offset()
    lam = max(Y.line.length_in_square(), d)
    M = math.floor(lam / d)
    r2, row_index = _scale_rows(k)
    reach2 = r2 - (off * off)[None, :]
    mask = reach2 > 0.0
    rows, cols = mask.nonzero()
    w = np.sqrt(reach2[mask])
    left, right = arc[cols] - w, arc[cols] + w
    lo = np.maximum(np.ceil(left / d), 0.0).astype(np.int64)
    hi = np.minimum(np.floor(right / d), M).astype(np.int64)
    ok = lo <= hi
    at = rows[ok] * (M + 2)
    size = (k + 1) * (M + 2)
    steps = np.bincount(at + lo[ok], minlength=size) - np.bincount(at + hi[ok] + 1, minlength=size)
    cover = steps.reshape(k + 1, M + 2).cumsum(axis=1)  # column M+1 sums to 0
    if math.floor((lam + 1e-12) / d) > M:
        cover[:, M + 1] = np.bincount(rows[(left <= lam) & (lam <= right)], minlength=k + 1)
    first = cover.argmax(axis=1)
    counts = cover[row_index, first]
    best = -1.0
    wit_r, wit_arc = d, 0.0
    for i in np.flatnonzero(counts).tolist():
        r = 2.0 ** (i - k)
        value = (d / r) ** t * int(counts[i])
        if value > best:
            best = float(value)
            m = int(first[i])
            wit_r, wit_arc = r, (m * d if m <= M else lam)
    point = Y.line.point_at_arc(wit_arc)
    return GammaReport(t, best, wit_r, (float(point[0]), float(point[1])), wit_arc)


def gamma_value_at(Y: Shading, t: float, r: float, x_arc: float) -> float:
    """Re-evaluate the gamma summand at a witness (for reproducibility checks)."""
    d = Y.cells.scale.delta
    pt = np.array(Y.line.point_at_arc(x_arc))
    centers = Y.cells.centers()
    dist2 = np.sum((centers - pt[None, :]) ** 2, axis=1)
    cnt = int(np.count_nonzero(dist2 <= r * r + 1e-12))
    return (d / r) ** t * cnt


def gamma_sup(F: LineFamily, t: float) -> GammaReport:
    """Family-level gamma: the maximum of gamma over all lines, the first
    maximal line on ties.

    gamma runs once per line, on F's own shadings and in their order, since
    the traced benchmark counts its calls and cell scales on measures.gamma
    (tests/test_benchmark_contract.py pins this).  Only the projection of
    the cells moves out of those calls: each chunk of lines is projected in
    one pass and lent to its shadings while gamma runs on them
    (geometry._lend_projections), so nothing stays on the shadings.  The
    family-wide gamma kernel of ROADMAP open item 1 replaces this.
    """
    if len(F) == 0:
        raise MeasureError("gamma_sup of an empty family")
    shadings = F.shadings
    sizes = np.array([sh.cells.n_cells for sh in shadings], dtype=np.int64)
    best: GammaReport | None = None
    for lo, hi in _line_chunks(sizes):
        with _lend_projections(shadings[lo:hi]):
            for sh in shadings[lo:hi]:
                rep = gamma(sh, t)
                if best is None or rep.value > best.value:
                    best = rep
    assert best is not None
    return best
