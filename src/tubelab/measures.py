"""Quantitative classifiers: non-concentration constants, density, two-ends, gamma.

Suprema over scales are restricted to dyadic r and over centers to delta-spaced
candidates; the continuous suprema agree within a factor 4 (scale doubling plus
a center shift).  Balls are replaced by tripled dyadic cells 3Q, which contain
any ball of the matching radius; the factor is absorbed into the reported
constants.  Every report carries the witness achieving its constant so a
failure can be replayed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import CellSet, Scale, _member, _sorted_counts
from .geometry import LineFamily, Shading, _cell_arcs_and_offsets, _line_chunks, _row_spans

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
        return {
            "exponent": self.exponent,
            "constant": self.constant,
            "witness_r": self.witness_r,
            "witness_x": list(self.witness_x),
        }


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


class TripledCaps:
    """Greedy acceptance under caps on every tripled cell 3Q.

    levels holds (r, cap) pairs.  A point is accepted when, at every level,
    each dyadic r-cell Q whose 3Q contains it still holds at most cap points
    in 3Q with the point added; counts[l] maps Q = (i, j) to the number of
    accepted points in 3Q.
    """

    def __init__(self, levels: Sequence[tuple[float, float]]) -> None:
        self.levels = list(levels)
        self.counts: list[dict[tuple[int, int], int]] = [{} for _ in self.levels]

    def try_add(self, x: float, y: float) -> bool:
        """Accept (x, y) if no cap is exceeded; counts change only on accept."""
        blocks = []
        for (r, cap), g in zip(self.levels, self.counts):
            ci, cj = math.floor(x / r), math.floor(y / r)
            block = [(ci + u, cj + w) for u in (-1, 0, 1) for w in (-1, 0, 1)]
            if max(g.get(q, 0) for q in block) + 1 > cap:
                return False
            blocks.append(block)
        for block, g in zip(blocks, self.counts):
            for q in block:
                g[q] = g.get(q, 0) + 1
        return True

    def keep_mask(self, pts: np.ndarray) -> np.ndarray:
        """try_add over the rows of pts in (y, x) lexicographic order; the mask
        of the accepted rows."""
        keep = np.zeros(pts.shape[0], dtype=bool)
        xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
        for p in np.lexsort((pts[:, 0], pts[:, 1])).tolist():
            keep[p] = self.try_add(xs[p], ys[p])
        return keep


def _unpack(key: int) -> tuple[int, int]:
    """Inverse of the iq * 2^32 + jq cell key of _tripled_max; jq is signed, so
    iq is the nearest multiple, not the floor."""
    iq = (key + (1 << 31)) >> 32
    return iq, key - (iq << 32)


def _tripled_max(
    pts: np.ndarray, levels: list[tuple[float, float]]
) -> tuple[float, float, tuple[float, float]]:
    """max over (r, denom) levels, fine to coarse, of #(pts in 3Q) / denom over
    dyadic r-cells Q, with the center of the first maximal Q as witness.

    Ties keep the finest level (strict >) and, within a level, the least
    (iq, jq) cell.
    """
    best, wit_r, wit_x = -1.0, levels[0][0], (0.0, 0.0)
    big = np.int64(1 << 32)
    for r, denom in levels:
        iq = np.floor(pts[:, 0] / r).astype(np.int64)
        jq = np.floor(pts[:, 1] / r).astype(np.int64)
        uniq, counts = _sorted_counts(iq * big + jq)  # indices stay far below 2^31
        sums = np.zeros(uniq.size, dtype=np.int64)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                hit, pos = _member(uniq, uniq + di * big + dj)
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
    explicit delta.
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
        [(sh.line.a, sh.line.b, d * math.hypot(1.0, sh.line.a)) for sh in shadings]
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


def gamma(Y: Shading, t: float) -> GammaReport:
    """sup over dyadic r in [delta, 1] and delta-spaced x on the line of
    (delta/r)^t * #(cells of Y with center in B(x, r)).

    All k+1 scales are handled in one pass.  Row i of the (scale x cell)
    table is r = 2^(i-k); a cell within reach of x covers the arclength
    interval [arc - w, arc + w].  The max over grid points x = m*delta equals
    the max over the candidates ceil(left/delta)*delta (counts only change at
    interval endpoints).  Sorting left, candidate and right events by (row,
    value) with ties in that order makes the running sum of +1/-1 at each
    candidate its exact cover count.
    """
    if not (0.0 <= t <= 1.0):
        raise MeasureError(f"gamma exponent {t} outside [0, 1]")
    d = Y.cells.scale.delta
    k = Y.cells.scale.k
    arc, off = Y.arc_and_offset()
    lam = max(Y.line.length_in_square(), d)
    r2 = np.ldexp(1.0, -2 * np.arange(k, -1, -1))
    reach2 = r2[:, None] - (off * off)[None, :]
    mask = reach2 > 0.0
    rows, cols = mask.nonzero()
    w = np.sqrt(reach2[mask])
    a = arc[cols]
    left, right = a - w, a + w
    cand = np.ceil(np.maximum(left, 0.0) / d) * d
    ok = cand <= np.minimum(right, lam) + 1e-12
    cand = np.minimum(cand[ok], lam)
    sizes = [left.size, cand.size, right.size]
    ev_x = np.concatenate([left, cand, right])
    ev_row = np.concatenate([rows, rows[ok], rows])
    ev_kind = np.repeat(np.array([0, 1, 2], dtype=np.int8), sizes)
    order = np.lexsort((ev_kind, ev_x, ev_row))
    cover = np.cumsum(np.repeat(np.array([1, 0, -1], dtype=np.int64), sizes)[order])
    at_cand = ev_kind[order] == 1
    cnt, crow, cx = cover[at_cand], ev_row[order][at_cand], ev_x[order][at_cand]
    # First (smallest-x) maximum per row: candidates are in (row, x) order, so
    # a stable sort by (row, -count) puts it at the head of each row.
    head = np.argsort(crow * (arc.size + 1) - cnt, kind="stable")
    hrow = crow[head]
    first = np.ones(head.size, dtype=bool)
    np.not_equal(hrow[1:], hrow[:-1], out=first[1:])
    head = head[first]
    # Fine to coarse with a strict >, so ties keep the finest scale.
    best = -1.0
    wit_r, wit_arc = d, 0.0
    for i, c, x_arc in zip(crow[head].tolist(), cnt[head].tolist(), cx[head].tolist()):
        r = 2.0 ** (i - k)
        value = (d / r) ** t * c
        if value > best:
            best = float(value)
            wit_r, wit_arc = r, x_arc
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
    """Family-level gamma: the maximum of gamma over all lines."""
    if len(F) == 0:
        raise MeasureError("gamma_sup of an empty family")
    best: GammaReport | None = None
    for _, sh in F.entries:
        rep = gamma(sh, t)
        if best is None or rep.value > best.value:
            best = rep
    assert best is not None
    return best
