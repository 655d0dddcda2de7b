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
import numpy as np

from .grid import CellSet
from .geometry import LineFamily, Shading

__all__ = [
    "MeasureError",
    "NonConcentrationReport",
    "GammaReport",
    "katz_tao_constant",
    "frostman_constant",
    "frostman_constant_1d",
    "density",
    "two_ends_constant",
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


def _grid_counts(pts: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of points per dyadic r-cell; cells keyed by (iq, jq) int64 pairs."""
    iq = np.floor(pts[:, 0] / r).astype(np.int64)
    jq = np.floor(pts[:, 1] / r).astype(np.int64)
    key = iq * np.int64(1 << 32) + jq  # indices stay far below 2^31
    order = np.argsort(key, kind="stable")
    key = key[order]
    uniq, counts = np.unique(key, return_counts=True)
    return uniq, counts, key


def _unpack(key: int) -> tuple[int, int]:
    """Inverse of the iq * 2^32 + jq packing of _grid_counts; jq is signed, so
    iq is the nearest multiple, not the floor."""
    iq = (key + (1 << 31)) >> 32
    return iq, key - (iq << 32)


def _tripled_sums(uniq: np.ndarray, counts: np.ndarray) -> np.ndarray:
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


def katz_tao_constant(E, s: float, delta: float | None = None) -> NonConcentrationReport:
    """Least C with #(E in 3Q) <= C (r/delta)^s over dyadic r in [delta, 1].

    E is a CellSet (counted by cell centers) or an (n, 2) point array with an
    explicit delta.
    """
    if not (0.0 < s <= 2.0):
        raise MeasureError(f"exponent {s} outside (0, 2]")
    pts, d = _as_points(E, delta)
    k = round(math.log2(1.0 / d))
    best = -1.0
    wit_r, wit_x = d, (0.0, 0.0)
    for j in range(k, -1, -1):
        r = 2.0 ** (-j)
        uniq, counts, _ = _grid_counts(pts, r)
        sums = _tripled_sums(uniq, counts)
        denom = (r / d) ** s
        idx = int(np.argmax(sums))
        ratio = sums[idx] / denom
        if ratio > best:
            best = float(ratio)
            iq, jq = _unpack(int(uniq[idx]))
            wit_r, wit_x = r, ((iq + 0.5) * r, (jq + 0.5) * r)
    return NonConcentrationReport(s, best, wit_r, wit_x)


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
    pts = E.centers()
    total = pts.shape[0]
    best = -1.0
    wit_r, wit_x = 1.0, (0.5, 0.5)
    for j in range(j_max, -1, -1):
        r = 2.0 ** (-j)
        uniq, counts, _ = _grid_counts(pts, r)
        sums = _tripled_sums(uniq, counts)
        denom = (r**s) * total
        idx = int(np.argmax(sums))
        ratio = sums[idx] / denom
        if ratio > best:
            best = float(ratio)
            iq, jq = _unpack(int(uniq[idx]))
            wit_r, wit_x = r, ((iq + 0.5) * r, (jq + 0.5) * r)
    return NonConcentrationReport(s, best, wit_r, wit_x)


def frostman_constant_1d(offsets: np.ndarray, base: float, s: float) -> NonConcentrationReport:
    """1-d analogue on [0, 1]: least C with #(E in 3I) <= C r^s #E, windows dyadic."""
    pos = np.sort(np.asarray(offsets, dtype=np.float64))
    if pos.size == 0:
        raise MeasureError("empty offset set")
    if not (0.0 < base <= 1.0):
        raise MeasureError(f"base resolution {base} outside (0, 1]")
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


def density(Y: Shading) -> float:
    """lambda: shading mass over the mass of its full-width tube."""
    from .geometry import tube_cell_count

    lam = Y.cells.n_cells / tube_cell_count(Y.line, Y.cells.scale.delta, Y.cells.scale)
    return float(lam)


def two_ends_constant(Y: Shading, eps1: float, eps2: float) -> float:
    """Least C with |Y in J| <= C delta^eps2 |Y| over delta x delta^eps1 windows J.

    Windows slide at delta steps along arclength; the maximum over all grid
    starts equals the maximum over the per-cell candidate starts evaluated
    here (window counts only change when an endpoint crosses a position).
    """
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
