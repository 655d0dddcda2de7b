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
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .grid import CellSet, _member, _sorted_counts
from .geometry import LineFamily, Shading, _lend_projections, _tube_counts

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


def _katz_tao_points(E, s: float, delta: float | None) -> tuple[np.ndarray, float]:
    """The points and delta of a katz_tao_constant input, or its MeasureError."""
    if not (0.0 < s <= 2.0):
        raise MeasureError(f"exponent {s} outside (0, 2]")
    if isinstance(E, CellSet):
        if E.is_empty():
            raise MeasureError("empty set")
        pts, d = E.centers(), E.scale.delta
    else:
        pts, d = np.asarray(E, dtype=np.float64), delta
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
            raise MeasureError("expected a nonempty (n, 2) point array or CellSet")
        if d is None:
            raise MeasureError("raw point sets need an explicit delta")
    if not (0.0 < d <= 1.0):
        raise MeasureError(f"delta {d} outside (0, 1]")
    return pts, d


_BIG = 1 << 32  # cell key iq * 2^32 + jq with a signed jq
_BLOCK = tuple(u * _BIG + w for u in (-1, 0, 1) for w in (-1, 0, 1))
_BLOCK_ARRAY = np.array(_BLOCK, dtype=np.int64)[:, None]
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


def _yx_order(pts: np.ndarray) -> np.ndarray | slice:
    """Row order of pts by (y, x), ties in input order, as np.lexsort gives
    it; slice(None) when the rows already come so (CellSet centers do, in
    code order), which saves the sort."""
    x, y = pts[:, 0], pts[:, 1]
    if np.all((y[1:] > y[:-1]) | ((y[1:] == y[:-1]) & (x[1:] >= x[:-1]))):
        return slice(None)
    return np.lexsort((x, y))


def _cap_loop(
    rows: list, Ks: list[int], offsets: tuple[int, ...], counts, blocked: set, limit: int
) -> bytearray:
    """The greedy cap rule over points given, in order, by their cell ids
    (one per level); the 0/1 acceptance of each row.

    A point is rejected when one of its cells is in blocked.  Otherwise it
    is accepted, and each of the 9 Q around its cell c at each level (c + o
    over the 9 offsets) has its count raised; a Q whose count reaches its
    level's K = floor(cap) puts the 3x3 cells around it into blocked.  After
    limit accepted points every later one is rejected.  counts is a flat list
    over a box of ids or a dict that reads 0 for a new key; it and blocked
    keep their state across calls.
    """
    keep = bytearray(len(rows))
    disjoint = blocked.isdisjoint
    for p, cells in enumerate(rows):
        if disjoint(cells):
            keep[p] = 1
            for c, K in zip(cells, Ks):
                for o in offsets:
                    q = c + o
                    m = counts[q] + 1
                    counts[q] = m
                    if m == K:
                        blocked.update([q + b for b in offsets])
            limit -= 1
            if not limit:
                break
    return keep


class TripledCaps:
    """Greedy acceptance under caps on every tripled cell 3Q.

    levels holds (r, cap) pairs.  A point is accepted when, at every level,
    each dyadic r-cell Q whose 3Q contains it still holds at most cap points
    in 3Q with the point added.  Counts are whole, so count + 1 > cap first
    holds at K = floor(cap) for every cap >= 1: a Q whose count reaches K
    blocks the 3x3 cells around it, and a point is rejected exactly when its
    cell is blocked at some level.  Once Q is blocked no point of its block
    is accepted, so its count never moves again.  A cap below 1 closes the
    greedy, so nothing is accepted; an infinite cap never binds (its K = 0
    is never reached).  _cap_loop runs the rule, one point at a time here.

    The state lives across calls, so there is no bounding box to number
    cells by: the cell of packed key k (_cell_keys) at level l of L has the
    id k * L + l, and its 3x3 block the offsets o * L of _BLOCK.  counts
    maps ids to the number of accepted points in 3Q; blocked holds the
    blocked ids.
    """

    def __init__(self, levels: Sequence[tuple[float, float]]) -> None:
        self.levels = list(levels)
        self.closed = any(1 > cap for _, cap in self.levels)
        self._finest = min((r for r, _ in self.levels), default=math.inf)
        self._Ks = [math.floor(cap) if cap < math.inf else 0 for _, cap in self.levels]
        self._offsets = tuple(o * len(self.levels) for o in _BLOCK)
        self.counts: defaultdict[int, int] = defaultdict(int)
        self.blocked: set[int] = set()

    def try_add(self, x: float, y: float) -> bool:
        """Accept (x, y) if no cap is exceeded; counts change only on accept."""
        _check_key_width(max(abs(x), abs(y)), self._finest)
        if self.closed:
            return False
        L = len(self.levels)
        keys = [math.floor(x / r) * _BIG + math.floor(y / r) for r, _ in self.levels]
        ids = [k * L + l for l, k in enumerate(keys)]
        return bool(_cap_loop([ids], self._Ks, self._offsets, self.counts, self.blocked, 1)[0])


# Box cells per point below which _keep_capped numbers the cells of every
# level in one flat box; from there on (a wide cloud at a fine r) it uses
# dicts.
_FLAT_CELLS = 32


def _keep_capped(levels: Sequence[tuple[float, float]], pts: np.ndarray) -> np.ndarray:
    """Fresh TripledCaps(levels).try_add over the rows of pts in (y, x) order, as a mask.

    Before each candidate, fresh caps given n points hold at most n - 1 of
    them in any 3Q, so a level with cap >= n never rejects one: it is left
    out, and with no level left every point is kept.  The key-width refusal
    still checks the finest of all levels.  A level whose cells span at most
    3 each way is one counter (see below), so only a limit on the number of
    accepted points is left of it.

    Each other level l numbers its cells within its bounding box, widened by
    the 2 cells that a block reaches past a neighbour: id = base_l + (iq -
    i0) * W + (jq - j0), with one width W for all levels, so the 3x3 block
    is the 9 fixed offsets u * W + v and one flat list of counts covers every
    level.  When the boxes hold _FLAT_CELLS cells per point or more (128
    points' worth at least), the cells take TripledCaps's ids instead, as
    Python ints (key * L passes 2^63 near the key-width limit), with dicts
    that hold only the cells met, so a sparse cloud never allocates its box.
    _cap_loop runs the rule on either layout, and both give the same mask.
    """
    n = pts.shape[0]
    _check_key_width(np.abs(pts).max(initial=0.0), min(r for r, _ in levels))
    binding = [(r, cap) for r, cap in levels if cap < n]
    if not binding:
        return np.ones(n, dtype=bool)
    if any(1 > cap for _, cap in binding):
        return np.zeros(n, dtype=bool)
    order = _yx_order(pts)
    xy = pts[order]
    cells = np.stack([np.floor(xy / r) for r, _ in binding], axis=1).astype(np.int64)
    lo, hi = cells.min(axis=0), cells.max(axis=0)
    Ks = [math.floor(cap) for _, cap in binding]
    # A level whose cells span at most 3 each way is one counter: the Q at
    # the middle has every point in 3Q and the largest count, and reaching
    # K it blocks them all.  So it rejects exactly the points after K accepted.
    small = ((hi - lo) <= 2).all(axis=1).tolist()
    limit = min([K for K, s in zip(Ks, small) if s], default=n)
    wide = [l for l, s in enumerate(small) if not s]
    cells, lo, Ks = cells[:, wide], lo[wide] - 2, [Ks[l] for l in wide]
    span = (hi[wide] + 3 - lo).tolist()  # Python ints: no int64 wrap
    W = max((w for _, w in span), default=0)
    heights = [h for h, _ in span]
    size = W * sum(heights)
    if size >= _FLAT_CELLS * max(n, 128):
        L = len(Ks)
        rows = [[(i * _BIG + j) * L + l for l, (i, j) in enumerate(c)] for c in cells.tolist()]
        offsets, counts = tuple(o * L for o in _BLOCK), defaultdict(int)
    else:
        ids = (cells - lo) @ np.array([W, 1]) + np.cumsum([0] + heights)[:-1] * W
        rows, counts = ids.tolist(), [0] * size
        offsets = tuple(u * W + v for u in (-1, 0, 1) for v in (-1, 0, 1))
    keep = np.zeros(n, dtype=bool)
    kept = _cap_loop(rows, Ks, offsets, counts, set(), limit)
    keep[order] = np.frombuffer(kept, dtype=bool)
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
        # nine sorted runs, one per offset, so the searchsorted stays fast
        hit, pos = _member(uniq, _BLOCK_ARRAY + uniq)
        sums = np.where(hit, counts[pos], 0).sum(axis=0)
        idx = int(np.argmax(sums))
        ratio = sums[idx] / denom
        if ratio > best:
            best = float(ratio)
            iq0, jq0 = _unpack(int(uniq[idx]))
            wit_r, wit_x = r, ((iq0 + 0.5) * r, (jq0 + 0.5) * r)
    return best, wit_r, wit_x


def _katz_tao_levels(delta: float, s: float, cap: float = 1.0) -> list[tuple[float, float]]:
    """The Katz-Tao schedule (r, cap * (r/delta)^s), dyadic r in [delta, 1] fine to coarse."""
    k = round(math.log2(1.0 / delta))
    return [(2.0 ** (-j), cap * (2.0 ** (-j) / delta) ** s) for j in range(k, -1, -1)]


def katz_tao_constant(E, s: float, delta: float | None = None) -> NonConcentrationReport:
    """Least C with #(E in 3Q) <= C (r/delta)^s over dyadic r in [delta, 1].

    E is a CellSet (counted by cell centers) or an (n, 2) point array with an
    explicit delta.  Q ranges only over cells that hold a point of E (see
    _tripled_max), so the constant can fall short of the least C: for cells
    (0, 0) and (2, 0) at delta = 1/8 and s = 1 it reports 1.0, not 2.
    """
    pts, d = _katz_tao_points(E, s, delta)
    return NonConcentrationReport(s, *_tripled_max(pts, _katz_tao_levels(d, s)))


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


def density(Y: Shading) -> float:
    """lambda: shading mass over the mass of its full-width tube."""
    return float(densities(LineFamily(Y.cells.scale, ((Y.line, Y),)))[0])


def densities(F: LineFamily) -> np.ndarray:
    """density of every line of F, in entry order; the tube counts come once
    per slope (geometry._tube_counts)."""
    if len(F) == 0:
        raise MeasureError("densities of an empty family")
    fr = F._frames
    return fr.sizes / _tube_counts(fr, F.scale)


def two_ends_constant(Y: Shading, eps1: float, eps2: float) -> float:
    """Least C with |Y in J| <= C delta^eps2 |Y| over delta x delta^eps1 windows J.

    Windows slide at delta steps along arclength; the maximum over all grid
    starts equals the maximum over the per-cell candidate starts evaluated
    by two_ends_constants (window counts only change when an endpoint
    crosses a position).
    """
    return float(two_ends_constants(LineFamily(Y.cells.scale, ((Y.line, Y),)), eps1, eps2)[0])


def two_ends_constants(F: LineFamily, eps1: float, eps2: float) -> np.ndarray:
    """two_ends_constant of every line of F, in entry order, on integer grid
    indices.

    Each cell's candidate window is [c, fl(c + W)], c = g*delta with g =
    max(P(p), 0) and P(p) = floor(p/delta) for its arc position p, unless
    g*delta passes last = lam - W; those cells all share the window [last,
    fl(last + W)] of their line, counted elementwise.  delta = 2^-k, so p/delta
    is exact and a position q lies past the start of the window at g exactly
    when P(q) >= g.  It lies before the end exactly when g >= G(q), the least
    g with fl(g*delta + W) >= q, because fl(g*delta + W) does not decrease in
    g.  The guess ceil((q - W)/delta) is within one step of G(q) (its two
    roundings move it by far less than delta, since k <= 32 and |q| < 2), so
    one check in each direction makes it exact.  Every q with P(q) < g has
    G(q) <= g, so the window at g holds #(G <= g) - #(P < g) of its line's
    positions: two searchsorted calls into the sorted keys of a chunk of
    LineFamily._projected_chunks.

    A key is line * 2^(k+4) + index, line < _CHUNK_CELLS = 2^12 within a
    chunk.  Positions lie within [-1, 2], so |P|, |G| and g stay below
    2^(k+2) and the keys of one line never reach the next; Scale keeps k <= 32,
    so every key is below 2^48 and fits int64.
    """
    if not (0.0 < eps2 < eps1 < 1.0):
        raise MeasureError(f"need 0 < eps2 < eps1 < 1, got ({eps1}, {eps2})")
    if len(F) == 0:
        raise MeasureError("two_ends_constants of an empty family")
    d = F.scale.delta
    fr = F._frames
    W = d**eps1
    sizes = fr.sizes
    # lam = max(length_in_square, d); a window starts at most at lam - W
    lam = np.maximum(np.where(fr.u1 > fr.u0, fr.u1 - fr.u0, 0.0) * fr.nrm, d)
    last = np.where(lam > W, lam - W, np.inf)
    span = round(16.0 / d)  # 2^(k+4)
    best = np.empty(len(F), dtype=np.int64)
    for lo, hi, pos, _ in F._projected_chunks():
        n = sizes[lo:hi]
        heads = np.cumsum(n) - n
        line = np.repeat(np.arange(hi - lo, dtype=np.int64) * span, n)
        P = np.floor(pos / d)
        G = np.ceil((pos - W) / d)
        G += G * d + W < pos
        G -= (G - 1.0) * d + W >= pos
        # Sorting keeps each line's run in place, so line and tail still
        # hold per entry; the cells' order within a line does not matter.
        keys = np.sort(line + P.astype(np.int64))
        at = np.maximum(keys, line)
        count = np.searchsorted(np.sort(line + G.astype(np.int64)), at, side="right")
        count -= np.searchsorted(keys, at, side="left")
        tail = np.repeat(last[lo:hi], n)
        clamped = (keys - line) * d > tail
        if clamped.any():
            shared = np.add.reduceat((pos >= tail) & (pos <= tail + W), heads)
            count[clamped] = np.repeat(shared, n)[clamped]
        best[lo:hi] = np.maximum.reduceat(count, heads)
    return best / (d**eps2 * sizes)


@functools.lru_cache(maxsize=None)  # one entry per k, and Scale keeps k <= 32
def _scale_rows(k: int) -> np.ndarray:
    """gamma's rows at delta = 2^-k: r^2 of r = 2^(i-k) for row i as a
    column.  Read-only, since every call shares it."""
    r2 = np.ldexp(1.0, -2 * np.arange(k, -1, -1))[:, None]
    r2.flags.writeable = False
    return r2


@functools.lru_cache(maxsize=256)
def _row_factors(k: int, t: float) -> np.ndarray:
    """gamma's factors (delta/r)^t at delta = 2^-k, r = 2^(i-k) for row i, each
    computed in Python floats.  Read-only, since every call shares them."""
    d = 2.0**-k
    factors = np.array([(d / 2.0 ** (i - k)) ** t for i in range(k + 1)])
    factors.flags.writeable = False
    return factors


def gamma(Y: Shading, t: float) -> GammaReport:
    """sup over dyadic r in [delta, 1] and delta-spaced x on the line of
    (delta/r)^t * #(cells of Y with center in B(x, r)).

    All k+1 scales are handled in one integer table.  Row i is r = 2^(i-k);
    a cell within reach of x covers the arclength interval [left, right] =
    [arc - w, arc + w].  delta = 2^-k, so left/delta and right/delta are
    exact, and the cell covers the grid point x = m*delta, 0 <= m <= M =
    floor(lambda/delta), exactly when lo = ceil(left/delta) <= m <= hi =
    floor(right/delta).  A +1 at lo and a -1 at hi+1, summed along the flat
    table (each row's steps sum to 0), give the cover count of every grid
    point.  When lambda lies within 1e-12 below the next grid point, that
    point counts as x = lambda (a 1e-12 slack at the end of the line), the
    row's last column, whose cover is tested in floats.  Each row's value is
    its factor (delta/r)^t times its largest count; one argmax over the rows,
    fine to coarse, and one along the chosen row keep the first maximum, so
    ties keep the finest scale and then the least x.
    """
    if not (0.0 <= t <= 1.0):
        raise MeasureError(f"gamma exponent {t} outside [0, 1]")
    d = Y.cells.scale.delta
    k = Y.cells.scale.k
    arc, off = Y.arc_and_offset()
    lam = max(Y.line.length_in_square(), d)
    M = math.floor(lam / d)
    reach2 = _scale_rows(k) - (off * off)[None, :]
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
    cover = steps.cumsum().reshape(k + 1, M + 2)  # every row's steps sum to 0
    if math.floor((lam + 1e-12) / d) > M:
        cover[:, M + 1] = np.bincount(rows[(left <= lam) & (lam <= right)], minlength=k + 1)
    counts = cover.max(axis=1)
    values = _row_factors(k, t) * counts
    i = int(values.argmax())
    if counts[i]:
        best = float(values[i])
        m = int(cover[i].argmax())
        wit_r, wit_arc = 2.0 ** (i - k), (m * d if m <= M else lam)
    else:
        best, wit_r, wit_arc = -1.0, d, 0.0
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
    the cells moves out of those calls: each chunk of
    LineFamily._projected_chunks is lent to its shadings while gamma runs on
    them (geometry._lend_projections), so nothing stays on the shadings.  The
    family-wide gamma kernel of ROADMAP open item 1 replaces this.
    """
    if len(F) == 0:
        raise MeasureError("gamma_sup of an empty family")
    shadings = F.shadings
    sizes = F._frames.sizes
    best: GammaReport | None = None
    for lo, hi, arc, off in F._projected_chunks():
        with _lend_projections(shadings[lo:hi], arc, off, sizes[lo:hi]):
            for sh in shadings[lo:hi]:
                rep = gamma(sh, t)
                if best is None or rep.value > best.value:
                    best = rep
    assert best is not None
    return best
