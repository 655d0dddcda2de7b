"""Lines, tubes, shadings, point-line duality, and incidence structures.

Slopes are handled in two charts so rasterization never sees |slope| > 1:
chart "s" is ``y = a*x + b`` and chart "t" is the 90-degree rotated
``x = a*y + b``, both with ``|a| <= 1``.  Line coordinates are quantized to
integer multiples of the grid delta, so families are delta-separated in dual
coordinates by construction and all duality arithmetic is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .grid import CellSet, Scale, _check_codes, _decode, _run_ranges, _sorted_counts, union_codes

__all__ = [
    "GeometryError",
    "Line",
    "Shading",
    "LineFamily",
    "TubeSegment",
    "tube_cells",
    "dual_point",
    "dual_line",
    "union_shadings",
    "multiplicity",
    "segment_cover",
    "segment_count",
    "lines_in_tube",
    "angle_between",
]

CHART_SHALLOW = "s"
CHART_STEEP = "t"

# Cells (or line x column entries) per batch of the family-wide passes: a
# whole family at k = 12 holds tens of millions of cells, so the per-cell
# arrays are built a few thousand at a time.
_CHUNK_CELLS = 1 << 12
# (slope x column) entries per batch of _tube_counts.
_SLOPE_CHUNK = 1 << 16


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Line:
    """A quantized line meeting the unit square.

    chart "s": y = a x + b with a = a_q * delta, b = b_q * delta.
    chart "t": x = a y + b (rotated chart for steep lines).
    """

    scale: Scale
    chart: str
    a_q: int
    b_q: int

    def __post_init__(self) -> None:
        self.scale.require_base()
        if self.chart not in (CHART_SHALLOW, CHART_STEEP):
            raise GeometryError(f"unknown chart {self.chart!r}")
        n = self.scale.n
        if abs(self.a_q) > n:
            raise GeometryError(f"slope {self.a_q}*delta outside [-1, 1]")
        if not (-n <= self.b_q <= 2 * n):
            raise GeometryError(f"intercept {self.b_q}*delta outside [-1, 2]")
        # The frame, computed once per line: a and b as floats, the parameter
        # interval [u0, u1] inside the square and nrm = hypot(1, a).
        d = self.scale.delta
        a, b = self.a_q * d, self.b_q * d
        lo, hi = 0.0, 1.0
        if a > 0:
            lo, hi = max(lo, (0.0 - b) / a), min(hi, (1.0 - b) / a)
        elif a < 0:
            lo, hi = max(lo, (1.0 - b) / a), min(hi, (0.0 - b) / a)
        elif not (0.0 <= b <= 1.0):
            lo, hi = 1.0, 0.0
        if hi < lo:
            raise GeometryError("line misses the unit square")
        set_ = object.__setattr__  # frozen: set past the dataclass __setattr__
        set_(self, "a", a)
        set_(self, "b", b)
        set_(self, "u0", lo)
        set_(self, "u1", hi)
        set_(self, "nrm", math.hypot(1.0, a))

    def param_range(self) -> tuple[float, float]:
        """Parameter interval (abscissa of the chart) inside the unit square."""
        return (self.u0, self.u1)

    def length_in_square(self) -> float:
        return max(0.0, (self.u1 - self.u0)) * self.nrm

    def point_at_param(self, u: float) -> tuple[float, float]:
        v = self.a * u + self.b
        return (u, v) if self.chart == CHART_SHALLOW else (v, u)

    def point_at_arc(self, s: float) -> tuple[float, float]:
        return self.point_at_param(self.u0 + s / self.nrm)

    def direction(self) -> tuple[float, float]:
        if self.chart == CHART_SHALLOW:
            return (1.0 / self.nrm, self.a / self.nrm)
        return (self.a / self.nrm, 1.0 / self.nrm)

    def distance(self, x: float, y: float) -> float:
        u, v = (x, y) if self.chart == CHART_SHALLOW else (y, x)
        return abs(self.a * u - v + self.b) / self.nrm

    def project(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """Project the points with coordinate arrays x and y to (arclength
        from square entry, signed offset)."""
        u, v = (x, y) if self.chart == CHART_SHALLOW else (y, x)
        return _arc_and_offset(u, v, self.a, self.b, self.u0, self.nrm)

    def requantize(self, scale: Scale) -> "Line":
        """Nearest line on another scale's quantization grid.  A line that
        only touches the square can round to a key that misses it; its
        intercept is then clamped to the nearest one whose line meets the
        square (b_q + max(0, a_q) >= 0 and b_q + min(0, a_q) <= n)."""
        if scale.k >= self.scale.k:
            shift = scale.k - self.scale.k
            return Line(scale, self.chart, self.a_q << shift, self.b_q << shift)
        shift = self.scale.k - scale.k
        half = 1 << (shift - 1)
        aq = (self.a_q + half) >> shift
        bq = (self.b_q + half) >> shift
        aq = max(-scale.n, min(scale.n, aq))
        bq = max(-max(0, aq), min(scale.n - min(0, aq), bq))
        return Line(scale, self.chart, aq, bq)

def _arc_and_offset(u, v, a, b, u0, nrm) -> tuple[np.ndarray, np.ndarray]:
    """Arclength from the square entry u0 and signed offset of the chart
    points (u, v) on v = a*u + b, nrm = hypot(1, a); arguments broadcast."""
    foot = (u + a * (v - b)) / (1.0 + a * a)
    return (foot - u0) * nrm, (a * u - v + b) / nrm


def _line_chunks(sizes: np.ndarray, limit: int | None = None):
    """[lo, hi) ranges of consecutive items (lines, or the keys of a bundle)
    whose sizes sum to at most limit (by default _CHUNK_CELLS, read at the
    call); a larger item gets a range of its own."""
    if limit is None:
        limit = _CHUNK_CELLS
    ends = np.cumsum(sizes)
    lo = 0
    while lo < ends.size:
        start = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, start + limit, side="right")))
        yield lo, hi
        lo = hi


class _FrameTable(NamedTuple):
    """Per-line arrays of a sequence of lines on one scale with runs of cells:
    each line's cell count, steep flag, a_q and b_q, and Line's frame a, b,
    u0, u1 and nrm."""

    sizes: np.ndarray
    steep: np.ndarray
    a_q: np.ndarray
    b_q: np.ndarray
    a: np.ndarray
    b: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    nrm: np.ndarray

    @staticmethod
    def of(scale: Scale, sizes, steep, a_q: np.ndarray, b_q: np.ndarray) -> "_FrameTable":
        """The table of the lines with int64 keys a_q and b_q on this scale:
        Line's frame by its IEEE operations (Python's max(0.0, v) keeps 0.0 on
        a tie with -0.0, np.maximum does not) and one math.hypot per slope
        (np.hypot may round otherwise).  u1 < u0 where a line misses the square."""
        d = scale.delta
        a, b = a_q * d, b_q * d
        with np.errstate(divide="ignore", invalid="ignore"):
            at0, at1 = (0.0 - b) / a, (1.0 - b) / a
        enter, leave = np.where(a > 0, at0, at1), np.where(a > 0, at1, at0)
        lo, hi = np.where(enter > 0.0, enter, 0.0), np.where(leave < 1.0, leave, 1.0)
        inside = (0.0 <= b) & (b <= 1.0)
        flat = a == 0
        u0 = np.where(flat, np.where(inside, 0.0, 1.0), lo)
        u1 = np.where(flat, np.where(inside, 1.0, 0.0), hi)
        slopes, inverse = np.unique(a_q, return_inverse=True)
        nrm = np.array([math.hypot(1.0, s * d) for s in slopes.tolist()], dtype=np.float64)
        return _FrameTable(sizes, steep, a_q, b_q, a, b, u0, u1, nrm[inverse])

    def rows(self, sel) -> "_FrameTable":
        return _FrameTable(*(col[sel] for col in self))


def _project(fr: _FrameTable, codes: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Line.project of the centers of the cells `codes`, which hold one run of
    fr.sizes[l] cells of width d for every line l, in one pass."""
    i, j = _decode(codes)
    x, y = (i + 0.5) * d, (j + 0.5) * d
    steep = np.repeat(fr.steep, fr.sizes)
    a, b, u0, nrm = (np.repeat(v, fr.sizes) for v in (fr.a, fr.b, fr.u0, fr.nrm))
    return _arc_and_offset(np.where(steep, y, x), np.where(steep, x, y), a, b, u0, nrm)


def _tube_radii(a_q, m: int, n: int, w: float):
    """R of the width-w tube of each slope a_q/m, exact for any float w: an
    int for a scalar a_q, else an array with one isqrt per distinct slope.
    The tube predicate: the chart line v = (a_q u + b_q)/m and the cell
    (u, v) of width 1/n give C = a_q (2u+1) + 2 b_q n and N = m (2v+1) - C,
    the center's vertical offset times 2nm, so the center lies within w of
    the line exactly when |N| <= R = isqrt(floor(4 n^2 w^2 (m^2 + a_q^2))).
    All of it stays below 2^62 for k <= 29 (Scale.require_base)."""
    p, q = float(w).as_integer_ratio()

    def radius(a: int) -> int:
        return math.isqrt(4 * n * n * p * p * (m * m + a * a) // (q * q))

    if np.ndim(a_q) == 0:
        return radius(int(a_q))
    slopes, inverse = np.unique(a_q, return_inverse=True)
    return np.array([radius(a) for a in slopes.tolist()], dtype=np.int64)[inverse]


def _check_in_tube(a_q, b_q, steep: bool, codes: np.ndarray, n: int) -> None:
    """Shading's tube check of the cells `codes` of width 1/n against their
    lines' keys (scalars, or one per code): a center's offset N/(2n^2 nrm) is
    at most 2 nrm/n, nrm = hypot(1, a), exactly when |N| <= 4n + floor(4 a_q^2/n)."""
    i, j = _decode(codes)
    u, v = (j, i) if steep else (i, j)
    N = n * (2 * v + 1) - a_q * (2 * u + 1) - 2 * n * b_q
    if np.any(np.abs(N) > 4 * n + 4 * a_q * a_q // n):
        raise GeometryError("shading cell outside the tube")


def _row_spans(a_q, b_q, R, cols, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows lo..lo+lens-1 of the cells with |N| <= R (see _tube_radii) in
    the columns cols, clipped to the square; lens is 0 where there are none.
    Arguments broadcast, so one call can cover many lines."""
    C = a_q * (2 * cols + 1) + 2 * n * b_q
    lo = np.maximum(-((R + m - C) // (2 * m)), 0)
    hi = np.minimum((C + R - m) // (2 * m), n - 1)
    return lo, np.maximum(hi - lo + 1, 0)


def tube_cells(
    line: Line,
    w: float,
    cell_scale: Scale | None = None,
    columns: np.ndarray | None = None,
) -> CellSet:
    """All cells (at cell_scale, default the line's scale) whose center lies
    within distance w of the line, clipped to the unit square."""
    scale = cell_scale if cell_scale is not None else line.scale
    max(scale, line.scale).require_base()  # the finer scale bounds the integers
    if not (scale.delta <= w <= 1.0):
        raise GeometryError(f"tube width {w} outside [delta, 1]")
    m, n = line.scale.n, scale.n
    cols = np.arange(n, dtype=np.int64) if columns is None else np.asarray(columns, dtype=np.int64)
    lo, lens = _row_spans(line.a_q, line.b_q, _tube_radii(line.a_q, m, n, w), cols, m, n)
    u = np.repeat(cols, lens)
    v = _run_ranges(lo, lens)
    if line.chart == CHART_SHALLOW:
        return CellSet.from_ij(scale, u, v)
    return CellSet.from_ij(scale, v, u)


def tube_cell_count(line: Line, w: float, cell_scale: Scale | None = None) -> int:
    """Cell count of tube_cells without materializing the set."""
    scale = cell_scale if cell_scale is not None else line.scale
    max(scale, line.scale).require_base()  # the finer scale bounds the integers
    m, n = line.scale.n, scale.n
    R = _tube_radii(line.a_q, m, n, w)
    _, lens = _row_spans(line.a_q, line.b_q, R, np.arange(n, dtype=np.int64), m, n)
    return int(lens.sum())


def _tube_counts(fr: _FrameTable, scale: Scale) -> np.ndarray:
    """tube_cell_count(line, delta) of every line of fr at this scale (the
    chart does not change the count), one slope at a time.

    Raising b_q by one raises C by 2n, so it moves every row of a line's tube
    by exactly one: the unclipped rows of a line are those of its slope's
    b = 0 tube moved by b_q rows.  Clipped to rows [0, n), a line's count is
    the number of its slope's rows r with 0 <= r + b_q < n: two lookups in the
    prefix sums of the slope's row counts.  Slopes go in chunks of about
    _SLOPE_CHUNK (slope x column) entries.
    """
    n = scale.n
    order = np.argsort(fr.a_q, kind="stable")
    slopes, per_slope = np.unique(fr.a_q[order], return_counts=True)
    radii = _tube_radii(slopes, n, n, scale.delta)
    b_q = fr.b_q[order]
    line_ends = np.cumsum(per_slope)
    odd = 2 * np.arange(n, dtype=np.int64) + 1
    # b = 0 tube rows lie in [-n - 1, n]; row r is column r + off
    off, width = n + 1, 2 * n + 3
    counts = np.empty(order.size, dtype=np.int64)
    for s0, s1 in _line_chunks(np.full(slopes.size, n), _SLOPE_CHUNK):
        m = s1 - s0
        C, R = slopes[s0:s1, None] * odd, radii[s0:s1, None]  # b = 0
        # rows lo..hi, with R >= 2n, so lo <= hi: +1 at lo and -1 at hi + 1,
        # summed along the row axis, count the columns whose tube holds each row
        at, size = np.arange(m)[:, None] * width + off, m * width
        lo, end = at - (R + n - C) // (2 * n), at + (C + R - n) // (2 * n) + 1
        steps = np.bincount(lo.ravel(), minlength=size) - np.bincount(end.ravel(), minlength=size)
        upto = np.zeros((m, width + 1), dtype=np.int64)  # upto[s, i]: rows below i - off
        upto[:, 1:] = steps.reshape(m, width).cumsum(axis=1).cumsum(axis=1)
        l0, l1 = line_ends[s0] - per_slope[s0], line_ends[s1 - 1]
        slope = np.repeat(np.arange(m), per_slope[s0:s1]) * (width + 1)
        b = b_q[l0:l1]
        flat = upto.ravel()
        counts[l0:l1] = (
            flat[slope + np.clip(n - b + off, 0, width)] - flat[slope + np.clip(off - b, 0, width)]
        )
    out = np.empty_like(counts)
    out[order] = counts
    return out


@dataclass(frozen=True)
class Shading:
    """A union of cells near a line: the lit-up part of the tube.

    Each cell center lies within 2 delta hypot(1, a) of the line (up to
    2 sqrt(2) delta at slope +-1): |N| <= 4n + floor(4 a_q^2 / n), see
    _check_in_tube.  Primary shadings produced by generators stay within one
    width, the factor-2 headroom admits coarsened carriers whose cell centers
    drift by up to half a coarse cell.
    """

    line: Line
    cells: CellSet

    def __post_init__(self) -> None:
        if self.line.scale != self.cells.scale:
            raise GeometryError("shading line and cells on different scales")
        if self.cells.is_empty():
            raise GeometryError("shading must be nonempty")
        line = self.line
        _check_in_tube(line.a_q, line.b_q, line.chart == CHART_STEEP, self.cells.codes, line.scale.n)

    @staticmethod
    def _from_checked(line: Line, cells: CellSet) -> "Shading":
        # Fast path: cells is nonempty, on the line's scale and in its tube
        # (run through _check_in_tube, or taken from a checked shading's cells).
        obj = object.__new__(Shading)
        object.__setattr__(obj, "line", line)
        object.__setattr__(obj, "cells", cells)
        return obj

    @property
    def mass(self) -> float:
        return self.cells.mass

    def arc_positions(self) -> np.ndarray:
        """Sorted arclength positions of the cell centers along the line."""
        arc, _ = self.arc_and_offset()
        return np.sort(arc)

    def arc_and_offset(self) -> tuple[np.ndarray, np.ndarray]:
        """Line.project of the cell centers."""
        i, j = self.cells.ij()
        d = self.cells.scale.delta
        return self.line.project((i + 0.5) * d, (j + 0.5) * d)


@dataclass(frozen=True)
class TubeSegment:
    """A delta x r tube piece along a line, centered at normalized arclength t0."""

    line: Line
    t0: float
    r: float
    width: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.t0 <= 1.0):
            raise GeometryError(f"segment center {self.t0} outside [0, 1]")
        if not (self.width <= self.r <= 1.0 + 1e-12):
            raise GeometryError(f"segment length {self.r} outside [delta, 1]")


@dataclass(frozen=True)
class LineFamily:
    """Indexed lines with shadings: the (L, Y)_delta object."""

    scale: Scale
    entries: tuple[tuple[Line, Shading], ...]

    def __post_init__(self) -> None:
        seen = set()
        for line, shading in self.entries:
            if shading.cells.scale != self.scale:
                raise GeometryError("shading scale differs from family scale")
            if shading.line is not line and shading.line != line:
                raise GeometryError("shading attached to a different line")
            key = (line.chart, line.a_q, line.b_q)
            if key in seen:
                raise GeometryError(f"duplicate quantized line {key}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.entries)

    @staticmethod
    def _from_arrays(scale: Scale, chart: str, a_q, b_q, codes: Sequence) -> "LineFamily":
        """Lines on one chart with int64 keys a_q and b_q, line l shaded by the
        uint64 cells codes[l]; Line's, CellSet's and Shading's checks run on
        arrays per _line_chunks range.  The family keeps its frame table."""
        scale.require_base()
        if chart not in (CHART_SHALLOW, CHART_STEEP):
            raise GeometryError(f"unknown chart {chart!r}")
        n, sizes = scale.n, np.array([c.size for c in codes], dtype=np.int64)
        fr = _FrameTable.of(scale, sizes, np.full(sizes.size, chart == CHART_STEEP), a_q, b_q)
        if np.any((np.abs(a_q) > n) | (b_q < -n) | (b_q > 2 * n) | (fr.u1 < fr.u0)):
            raise GeometryError("line key outside the chart's range or off the unit square")
        if np.any(sizes == 0):
            raise GeometryError("shading must be nonempty")
        set_ = object.__setattr__  # frozen: set past the dataclass __setattr__
        names = ("scale", "chart", *_FrameTable._fields[2:])  # Line's attributes, in its order
        entries = []
        for lo, hi in _line_chunks(sizes):
            part, run = fr.rows(slice(lo, hi)), codes[lo:hi]
            cat, owner = np.concatenate(run), np.repeat(np.arange(hi - lo), part.sizes)
            _check_codes(cat, n, owner[1:] == owner[:-1])
            keys = (np.repeat(col, part.sizes) for col in (part.a_q, part.b_q))
            _check_in_tube(*keys, chart == CHART_STEEP, cat, n)
            for frame, c in zip(zip(*(v.tolist() for v in part[2:])), run):
                line = object.__new__(Line)
                for name, v in zip(names, (scale, chart, *frame)):
                    set_(line, name, v)
                cells = CellSet._from_sorted_codes(scale, c)
                entries.append((line, Shading._from_checked(line, cells)))
        F = LineFamily(scale, tuple(entries))
        set_(F, "_frames", fr)  # the cached_property's slot
        return F

    @functools.cached_property
    def _frames(self) -> _FrameTable:
        """The frame table of the lines and their shading sizes, built on
        first use (the dataclass fields, and so eq and hash, ignore it)."""
        keys = (
            (sh.cells.codes.size, ln.chart == CHART_STEEP, ln.a_q, ln.b_q)
            for ln, sh in self.entries
        )
        table = np.fromiter(itertools.chain.from_iterable(keys), dtype=np.int64).reshape(-1, 4)
        sizes, steep, a_q, b_q = table.T.copy()
        return _FrameTable.of(self.scale, sizes, steep != 0, a_q, b_q)

    def _projected_chunks(self):
        """(lo, hi, arc, off) for each _line_chunks range [lo, hi) of the
        lines: arc and off are Line.project of the centers of the range's
        shading cells, one run per line in order, from one _project pass
        over their concatenated codes."""
        fr = self._frames
        d = self.scale.delta
        for lo, hi in _line_chunks(fr.sizes):
            codes = np.concatenate([sh.cells.codes for _, sh in self.entries[lo:hi]])
            yield lo, hi, *_project(fr.rows(slice(lo, hi)), codes, d)

    @property
    def lines(self) -> list[Line]:
        return [e[0] for e in self.entries]

    @property
    def shadings(self) -> list[Shading]:
        return [e[1] for e in self.entries]

    def dual_points(self) -> np.ndarray:
        """(n, 2) array of chart-local dual coordinates (a, b)."""
        return np.stack([self._frames.a, self._frames.b], axis=1)

    def multiplicity_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """(codes, counts) of how many shadings cover each cell of E_L."""
        codes = [sh.cells.codes for _, sh in self.entries]
        return _sorted_counts(np.concatenate(codes) if codes else np.empty(0, dtype=np.uint64))

    # -- wire format --------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "k": self.scale.k,
            "lines": [
                {
                    "chart": ln.chart,
                    "a_q": ln.a_q,
                    "b_q": ln.b_q,
                    "cells": [[int(i), int(j)] for i, j in sh.cells.cells()],
                }
                for ln, sh in self.entries
            ],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LineFamily":
        try:  # a value that is no JSON integer where one belongs, or a cell that is no pair
            k = _json_int(obj["k"])
            recs = [
                (
                    rec["chart"],
                    _json_int(rec["a_q"]),
                    _json_int(rec["b_q"]),
                    [_cell_pair(c) for c in rec["cells"]],
                )
                for rec in obj["lines"]
            ]
        except ValueError as exc:
            raise GeometryError(f"malformed family: {exc}") from None
        scale = Scale(k)
        entries = []
        for chart, a_q, b_q, cells in recs:
            line = Line(scale, chart, a_q, b_q)
            entries.append((line, Shading(line, CellSet.from_cells(scale, cells))))
        return LineFamily(scale, tuple(entries))


def _cell_pair(c) -> tuple[int, int]:
    """A family.json cell: an [i, j] pair of integers."""
    if not isinstance(c, (list, tuple)) or len(c) != 2:
        raise ValueError(f"cell {c!r} is not an [i, j] pair")
    return _json_int(c[0]), _json_int(c[1])


def _json_int(v) -> int:
    """A family.json integer: a JSON integer, so neither a float nor a boolean."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


# -- duality ----------------------------------------------------------------


def dual_point(line: Line) -> tuple[float, float]:
    """The dual point (a, b) of a chart line v = a*u + b."""
    return (line.a, line.b)


def dual_line(p: tuple[float, float], scale: Scale, chart: str = CHART_SHALLOW) -> Line:
    """The dual line v = -p1*u + p2 of a point, on the chart's quantization grid.

    Composing dual_line(dual_point(.)) negates the slope exactly; the double
    composition is the identity on quantized coordinates bit for bit.
    """
    d = scale.delta
    a_q = -_quantize_exact(p[0], d, "dual point abscissa")
    b_q = _quantize_exact(p[1], d, "dual point ordinate")
    if abs(a_q) > scale.n:
        raise GeometryError(f"dual slope {a_q * d} outside chart range [-1, 1]")
    return Line(scale, chart, a_q, b_q)


def _quantize_exact(x: float, d: float, what: str) -> int:
    q = x / d  # exact, as d is a power of two
    if not float(q).is_integer():
        raise GeometryError(f"{what} {x} is not a multiple of delta")
    return int(q)


# -- incidence structure ------------------------------------------------------


def union_shadings(F: LineFamily) -> CellSet:
    """E_L: the union of all shadings of the family."""
    if len(F) == 0:
        raise GeometryError("union of an empty family")
    codes = union_codes(sh.cells.codes for _, sh in F.entries)
    return CellSet(F.scale, codes)


def multiplicity(F: LineFamily, x: tuple[int, int]) -> list[int]:
    """L_Y(x): indices of the lines whose shading contains the cell x."""
    i, j = int(x[0]), int(x[1])
    out = [idx for idx, (_, sh) in enumerate(F.entries) if sh.cells.contains_cell(i, j)]
    if not out:
        raise GeometryError(f"cell {x} lies outside E_L")
    return out


def _greedy_windows(pos: np.ndarray, r: float) -> list[int]:
    """Start indices of the greedy left-to-right cover of the sorted positions
    by closed windows [pos[i], pos[i] + r]: each window starts at the first
    position past the previous one, so window w holds pos[starts[w]:starts[w+1]].
    The hop table is one searchsorted; walking it is a list lookup per window."""
    hop = np.searchsorted(pos, pos + r, side="right").tolist()
    starts = []
    idx = 0
    while idx < pos.size:
        starts.append(idx)
        idx = hop[idx]
    return starts


def _greedy_count_below(pos: np.ndarray, r: float, bound: float) -> bool:
    """segment_count(pos, r) < bound, walking the windows of _greedy_windows
    one scalar searchsorted each and stopping once the count reaches bound."""
    count = 0
    idx = 0
    while idx < pos.size:
        count += 1
        if count >= bound:
            return False
        idx = int(np.searchsorted(pos, pos[idx] + r, side="right"))
    return True


def segment_count(positions: np.ndarray, r: float) -> int:
    """Greedy left-to-right count of length-r windows covering the positions."""
    return len(_greedy_windows(positions, r))


def segment_cover(Y: Shading, r: float) -> list[TubeSegment]:
    """(Y(l))_r: greedy minimal covering of the shading by delta x r tubes.

    The greedy left-to-right sweep is canonical and within a factor 2 of the
    optimal covering count.
    """
    d = Y.cells.scale.delta
    if not (d <= r <= 1.0 + 1e-12):
        raise GeometryError(f"segment length {r} outside [delta, 1]")
    pos = Y.arc_positions()
    lam = max(Y.line.length_in_square(), d)
    segments: list[TubeSegment] = []
    for start in pos[_greedy_windows(pos, r)].tolist():
        seg_start = min(max(start, 0.0), max(lam - r, 0.0))
        t0 = min(max((seg_start + r / 2.0) / lam, 0.0), 1.0)
        segments.append(TubeSegment(Y.line, t0, min(r, 1.0), d))
    return segments


def angle_between(l1: Line, l2: Line) -> float:
    """Acute angle between two lines, in radians (in [0, pi/2])."""
    d1 = l1.direction()
    d2 = l2.direction()
    cross = abs(d1[0] * d2[1] - d1[1] * d2[0])
    dot = abs(d1[0] * d2[0] + d1[1] * d2[1])
    return math.atan2(cross, dot)


def lines_in_tube(lines: Sequence[Line], core: Line, v: float) -> list[Line]:
    """L[T]: lines meeting the width-v tube around core at angle <= v."""
    if not (0.0 < v <= 1.0):
        raise GeometryError(f"tube width {v} outside (0, 1]")
    out = []
    for ln in lines:
        if angle_between(ln, core) > v:
            continue
        u0, u1 = ln.param_range()
        p0 = np.array([ln.point_at_param(u0), ln.point_at_param(u1)])
        d0 = core.distance(*p0[0])
        d1 = core.distance(*p0[1])
        _, off = core.project(p0[:, 0], p0[:, 1])
        crosses = off[0] * off[1] <= 0.0
        if crosses or min(d0, d1) <= v:
            out.append(ln)
    return out
