import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import (
    CellSet,
    GeometryError,
    GridError,
    Line,
    LineFamily,
    Scale,
    Shading,
    angle_between,
    dual_line,
    dual_point,
    lines_in_tube,
    multiplicity,
    segment_cover,
    shading_multiscale,
    tube_cells,
    union_shadings,
)
from tubelab import geometry
from tubelab.geometry import (
    _CHUNK_CELLS,
    CHART_SHALLOW,
    CHART_STEEP,
    _FrameTable,
    _line_chunks,
    segment_count,
    tube_cell_count,
)
from tubelab.structure import verify_shading_multiscale

from conftest import (
    naive_tube_cells,
    random_family,
    random_line,
    random_shading,
    reference_multiplicity_counts,
    reference_segment_count,
    reference_segment_cover,
)


def _on_line(line: Line, x_q: int, y_q: int) -> bool:
    """Exact incidence of a quantized point on a quantized chart line:
    n*v_q == a_q*u_q + n*b_q in integers."""
    u, v = (x_q, y_q) if line.chart == CHART_SHALLOW else (y_q, x_q)
    return line.scale.n * v == line.a_q * u + line.scale.n * line.b_q


# -- tube rasterization ----------------------------------------------------------


def test_tube_horizontal_matches_naive_oracle():
    sc = Scale(6)
    line = Line(sc, "s", 0, 32)  # y = 1/2
    got = set(tube_cells(line, sc.delta).cells())
    expected = naive_tube_cells(line, sc.delta)
    assert got == expected
    # Center-distance convention: the band is the two rows adjacent to y=1/2.
    assert len(got) == 128
    assert {j for _, j in got} == {31, 32}


def test_tube_full_width_is_everything():
    sc = Scale(6)
    line = Line(sc, "s", 0, 32)
    assert tube_cells(line, 1.0).n_cells == 64 * 64


def test_tube_diagonal_matches_naive_oracle():
    sc = Scale(6)
    line = Line(sc, "s", sc.n, 0)  # y = x
    got = set(tube_cells(line, sc.delta).cells())
    assert got == naive_tube_cells(line, sc.delta)
    assert 2 * 64 <= len(got) <= 4 * 64


def test_tube_nesting():
    rng = np.random.default_rng(11)
    for _ in range(20):
        line = random_line(rng, Scale(6))
        w = float(rng.uniform(2 * 2.0**-6, 0.5))
        inner = tube_cells(line, w / 2)
        outer = tube_cells(line, w)
        assert inner.issubset(outer)


def test_tube_cell_count_matches():
    rng = np.random.default_rng(12)
    for _ in range(20):
        line = random_line(rng, Scale(7))
        w = float(rng.uniform(2.0**-7, 0.3))
        assert tube_cell_count(line, w) == tube_cells(line, w).n_cells


def test_steep_chart_mirrors_shallow():
    sc = Scale(6)
    shallow = Line(sc, "s", 16, 8)
    steep = Line(sc, "t", 16, 8)
    cs = {(i, j) for i, j in tube_cells(shallow, sc.delta).cells()}
    ct = {(j, i) for i, j in tube_cells(steep, sc.delta).cells()}
    assert cs == ct


def test_line_validation():
    sc = Scale(4)
    with pytest.raises(GeometryError):
        Line(sc, "s", sc.n + 1, 0)  # slope above 1
    with pytest.raises(GeometryError):
        Line(sc, "s", 0, -sc.n)  # y = -1 misses the square
    with pytest.raises(GeometryError):
        Line(sc, "x", 0, 0)


def test_requantize_corner_line():
    # y = 1.125 - x/8 meets the square only at (1, 1); rounded to k = 2 its
    # key would be y = 1.25, so the intercept is clamped to y = 1
    line = Line(Scale(4), "s", -2, 18)
    assert line.u0 == line.u1 == 1.0
    assert line.requantize(Scale(2)) == Line(Scale(2), "s", 0, 4)
    cells = CellSet.from_cells(Scale(4), [(i, 15) for i in range(12, 16)])
    fam = LineFamily(Scale(4), ((line, Shading(line, cells)),))
    res = shading_multiscale(fam, 0.5, 0.1)
    assert [(ln.a_q, ln.b_q) for ln, _ in res.family.entries] == [(0, 4)]
    ok, msg = verify_shading_multiscale(fam, res, 0.5, 0.1)
    assert ok or msg.startswith("(b)")  # (b) is ROADMAP item 3, not requantize


def _meets_square(a_q: int, b_q: int, n: int) -> bool:
    # v = a u + b over u in [0, 1] spans [b + min(0, a), b + max(0, a)]
    return b_q + max(0, a_q) >= 0 and b_q + min(0, a_q) <= n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(3, 20), chart=st.sampled_from([CHART_SHALLOW, CHART_STEEP]))
def test_requantize_returns_a_line_on_every_coarser_scale(data, k, chart):
    n = 1 << k
    a_q = data.draw(st.integers(-n, n))
    lo, hi = -max(0, a_q), n - min(0, a_q)  # the intercepts whose lines meet the square
    b_q = data.draw(st.one_of(st.sampled_from([lo, hi, lo + 1, hi - 1]), st.integers(lo, hi)))
    line = Line(Scale(k), chart, a_q, b_q)
    for kc in range(2, k):
        scale, shift = Scale(kc), k - kc
        half = 1 << (shift - 1)
        aq = max(-scale.n, min(scale.n, (a_q + half) >> shift))
        bq = (b_q + half) >> shift
        out = line.requantize(scale)
        assert isinstance(out, Line) and out.scale == scale and out.chart == chart
        if _meets_square(aq, bq, scale.n):
            assert (out.a_q, out.b_q) == (aq, bq)
        else:
            assert out.a_q == aq and _meets_square(aq, out.b_q, scale.n)
            # one step further towards the rounded key misses
            assert not _meets_square(aq, out.b_q + (1 if bq > out.b_q else -1), scale.n)


# -- duality ------------------------------------------------------------------------


def test_dual_point_by_definition():
    sc = Scale(6)
    line = Line(sc, "s", 32, 16)  # y = 0.5 x + 0.25
    assert dual_point(line) == (0.5, 0.25)


def test_dual_line_incidence_example():
    sc = Scale(6)
    line = Line(sc, "s", 32, 16)  # y = 0.5 x + 0.25
    # p = (0, 0.25) lies on the line; its dual line v = 0.25 passes through (0.5, 0.25).
    assert _on_line(line, 0, 16)
    dl = dual_line((0.0, 0.25), sc)
    assert (dl.a_q, dl.b_q) == (0, 16)
    assert _on_line(dl, 32, 16)


def test_incidence_preserved_exactly():
    rng = np.random.default_rng(13)
    sc = Scale(8)
    n = sc.n
    checked = 0
    while checked < 200:
        a_q = int(rng.integers(-n, n + 1))
        b_q = int(rng.integers(0, n))
        x_q = int(rng.integers(0, n + 1))
        y_q = a_q * x_q // n + b_q
        if y_q * n != a_q * x_q + b_q * n or not (0 <= y_q <= n):
            continue  # need an exactly representable incident point
        line = Line(sc, "s", a_q, b_q)
        p = (x_q * sc.delta, y_q * sc.delta)
        dl = dual_line(p, sc)
        assert _on_line(line, x_q, y_q)
        # dual point of the line lies on the dual line of the point, exactly
        assert n * line.b_q == dl.a_q * line.a_q + n * dl.b_q
        checked += 1


def test_double_roundtrip_bit_exact():
    rng = np.random.default_rng(14)
    sc = Scale(8)
    for _ in range(1000):
        line = random_line(rng, sc, chart=CHART_SHALLOW)
        once = dual_line(dual_point(line), sc)
        assert (once.a_q, once.b_q) == (-line.a_q, line.b_q)  # exact slope negation
        twice = dual_line(dual_point(once), sc)
        assert (twice.chart, twice.a_q, twice.b_q) == (line.chart, line.a_q, line.b_q)


def test_dual_line_rejects_off_grid():
    with pytest.raises(GeometryError):
        dual_line((0.3, 0.0), Scale(4))


def test_distance_distortion_bounded():
    rng = np.random.default_rng(15)
    sc = Scale(8)
    n = sc.n
    for _ in range(2000):
        line = random_line(rng, sc, chart=CHART_SHALLOW)
        p = (int(rng.integers(0, n)) * sc.delta, int(rng.integers(0, n)) * sc.delta)
        d1 = line.distance(*p)
        dl = dual_line(p, sc)
        d2 = dl.distance(*dual_point(line))
        if d1 < 1e-12 or d2 < 1e-12:
            assert d1 < 1e-9 and d2 < 1e-9
            continue
        assert 0.25 <= d1 / d2 <= 4.0


# -- shadings, unions, multiplicity ---------------------------------------------------


def test_shading_requires_tube_membership():
    sc = Scale(6)
    line = Line(sc, "s", 0, 32)
    with pytest.raises(GeometryError):
        Shading(line, CellSet.from_cells(sc, [(0, 0)]))
    with pytest.raises(GeometryError):
        Shading(line, CellSet.from_cells(sc, []))


@pytest.mark.parametrize("k", [4, 7, 10])
def test_tube_check_on_the_slack_boundary(k):
    # A cell center lies at offset exactly 2 delta hypot(1, a) from its line
    # when a_q (2i+1) n - (2j+1) n^2 + 2 b_q n^2 = +-4 (n^2 + a_q^2), which has
    # integer solutions only for slopes a = +-1/4, +-3/4 and +-1.  Shading and
    # the batched check accept such cells even without the 1e-12 of
    # _tube_slack, and reject the cell one row further out.
    sc = Scale(k)
    n = sc.n
    i = np.arange(n, dtype=np.int64)
    checked = 0
    for a_q in (n // 4, 3 * n // 4, n, -n // 4, -3 * n // 4, -n):
        for b_q in range(-n, 2 * n + 1, n // 4 + 1):
            for sgn in (1, -1):
                num = a_q * (2 * i + 1) * n + 2 * b_q * n * n - sgn * 4 * (n * n + a_q * a_q)
                odd = num // (n * n)
                j = (odd - 1) // 2
                hit = np.flatnonzero((num % (n * n) == 0) & (odd % 2 == 1) & (j >= 0) & (j < n))
                if hit.size == 0:
                    continue
                ci, cj = int(i[hit[0]]), int(j[hit[0]])
                for chart in (CHART_SHALLOW, CHART_STEEP):
                    try:
                        line = Line(sc, chart, a_q, b_q)
                    except GeometryError:  # misses the square
                        continue
                    flip = (lambda u, v: (u, v)) if chart == CHART_SHALLOW else (lambda u, v: (v, u))
                    cells = CellSet.from_cells(sc, [flip(ci, cj)])
                    off = abs(line.project(*cells.centers().T)[1][0])
                    bound = 2 * sc.delta * math.hypot(1.0, line.a)
                    assert bound * (1 - 1e-15) <= off <= bound
                    Shading(line, cells)
                    key = np.array([a_q]), np.array([b_q])
                    LineFamily._from_arrays(sc, chart, *key, [cells.codes])
                    if 0 <= cj - sgn < n:
                        with pytest.raises(GeometryError):
                            Shading(line, CellSet.from_cells(sc, [flip(ci, cj - sgn)]))
                    checked += 1
    assert checked >= 24


def test_union_single_and_disjoint():
    sc = Scale(6)
    l1 = Line(sc, "s", 0, 16)
    l2 = Line(sc, "s", 0, 48)
    s1 = Shading(l1, tube_cells(l1, sc.delta))
    s2 = Shading(l2, tube_cells(l2, sc.delta))
    fam1 = LineFamily(sc, ((l1, s1),))
    assert union_shadings(fam1) == s1.cells
    fam2 = LineFamily(sc, ((l1, s1), (l2, s2)))
    assert math.isclose(union_shadings(fam2).mass, s1.mass + s2.mass)


def _bush(k: int, m: int) -> LineFamily:
    sc = Scale(k)
    n = sc.n
    entries = []
    seen = set()
    for l in range(m):
        a_q = 2 * round((2.0 * l / (m - 1) - 1.0) * (n // 2))
        b_q = n // 2 - a_q // 2
        if (a_q, b_q) in seen:
            continue
        seen.add((a_q, b_q))
        line = Line(sc, "s", a_q, b_q)
        entries.append((line, Shading(line, tube_cells(line, sc.delta))))
    return LineFamily(sc, tuple(entries))


def test_union_strictly_below_sum_when_overlapping():
    sc = Scale(6)
    l1 = Line(sc, "s", 0, 16)
    l2 = Line(sc, "s", 0, 17)  # tubes overlap in a shared row
    s1 = Shading(l1, tube_cells(l1, sc.delta))
    s2 = Shading(l2, tube_cells(l2, sc.delta))
    fam = LineFamily(sc, ((l1, s1), (l2, s2)))
    assert union_shadings(fam).mass < s1.mass + s2.mass


def test_bush_union_against_bruteforce():
    fam = _bush(8, 32)
    brute = set()
    for _, sh in fam.entries:
        brute |= set(sh.cells.cells())
    assert set(union_shadings(fam).cells()) == brute
    assert math.isclose(union_shadings(fam).mass, len(brute) * fam.scale.delta**2)


def test_multiplicity_bush_center_and_double_counting():
    fam = _bush(8, 16)
    n = fam.scale.n
    center = (n // 2, n // 2)
    assert len(multiplicity(fam, center)) == len(fam)
    codes, counts = fam.multiplicity_counts()
    assert counts.sum() == sum(sh.cells.n_cells for _, sh in fam.entries)
    # at x=0 every bush line has y in [1/4, 3/4]; (0, 10) is far below all tubes
    with pytest.raises(GeometryError):
        multiplicity(fam, (0, 10))


def test_multiplicity_singleton():
    rng = np.random.default_rng(16)
    fam = random_family(rng, 6, 3, density=0.3)
    codes, counts = fam.multiplicity_counts()
    solo = codes[counts == 1]
    if solo.size:
        i = int(solo[0] & np.uint64(0xFFFFFFFF))
        j = int(solo[0] >> np.uint64(32))
        assert len(multiplicity(fam, (i, j))) == 1


# -- segment covers ---------------------------------------------------------------------


def test_segment_cover_full_tube():
    sc = Scale(8)
    line = Line(sc, "s", 0, 128)
    sh = Shading(line, tube_cells(line, sc.delta))
    segs = segment_cover(sh, 0.25)
    assert 3 <= len(segs) <= 5
    assert len(segment_cover(sh, 1.0)) == 1


def test_segment_cover_single_window():
    sc = Scale(8)
    line = Line(sc, "s", 0, 128)
    tube = tube_cells(line, sc.delta)
    i, j = tube.ij()
    keep = i < 8  # an 8-column cluster fits one delta x (1/4) window
    sh = Shading(line, CellSet.from_ij(sc, i[keep], j[keep]))
    assert len(segment_cover(sh, 0.25)) == 1


def test_segment_cover_covers_positions():
    rng = np.random.default_rng(17)
    for _ in range(10):
        line = random_line(rng, Scale(7), chart=CHART_SHALLOW)
        sh = random_shading(rng, line, 0.3)
        r = float(rng.choice([0.125, 0.25, 0.5]))
        segs = segment_cover(sh, r)
        pos = sh.arc_positions()
        assert len(segs) == segment_count(pos, r)
        # greedy windows [start_i, start_i + r] cover every position
        starts = []
        idx = 0
        while idx < pos.size:
            starts.append(pos[idx])
            idx = int(np.searchsorted(pos, pos[idx] + r, side="right"))
        assert all(any(s0 <= p <= s0 + r for s0 in starts) for p in pos)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    steps=st.lists(st.integers(0, 3), min_size=1, max_size=60),
    h_exp=st.integers(0, 12),
    mode=st.sampled_from(["lattice", "span", "float"]),
    m=st.integers(0, 12),
    x=st.floats(0.0, 3.0),
)
def test_segment_count_matches_reference(steps, h_exp, mode, m, x):
    # Positions on a dyadic lattice (zero steps repeat a position): with r a
    # multiple of the step, window ends land exactly on later positions.
    h = 2.0**-h_exp
    pos = np.cumsum(np.array(steps, dtype=np.float64)) * h + x
    if mode == "lattice":
        r = m * h
    elif mode == "span":  # r at least the whole span: one window
        r = pos[-1] - pos[0] + m * h
    else:
        r = x * h + 1e-9
    assert segment_count(pos, r) == reference_segment_count(pos, r)
    if mode == "span":
        assert segment_count(pos, r) == 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 8),
    chart=st.sampled_from([CHART_SHALLOW, CHART_STEEP]),
    flat=st.booleans(),
    density=st.floats(0.0, 1.0),
    r_mode=st.sampled_from(["cells", "float", "one"]),
    m=st.integers(1, 40),
    u=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_segment_cover_matches_reference(k, chart, flat, density, r_mode, m, u, seed):
    # flat lines have arc positions on the cell lattice, so windows of a whole
    # number of cells end exactly on later positions
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    line = Line(sc, chart, 0, sc.n // 2) if flat else random_line(rng, sc, chart)
    sh = random_shading(rng, line, density)
    d = sc.delta
    r = {"cells": min(m * d, 1.0), "float": d + u * (1.0 - d), "one": 1.0}[r_mode]
    got = [(seg.t0, seg.r, seg.width) for seg in segment_cover(sh, r)]
    assert got == reference_segment_cover(sh, r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 7),
    n_lines=st.integers(1, 24),
    density=st.floats(0.0, 1.0),
    chunk=st.sampled_from([1, 5, 64, 1 << 21]),
    seed=st.integers(0, 2**31 - 1),
)
def test_multiplicity_counts_matches_reference(k, n_lines, density, chunk, seed):
    fam = random_family(np.random.default_rng(seed), k, min(n_lines, 2 ** (k - 1)), density)
    got, want = fam.multiplicity_counts(), reference_multiplicity_counts(fam, chunk)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


# -- L[T] -----------------------------------------------------------------------------


def test_lines_in_tube_trivials():
    sc = Scale(8)
    core = Line(sc, "s", 0, 128)
    near = Line(sc, "s", 0, 128 + 2)
    v = 4 * sc.delta
    far = Line(sc, "s", 0, 128 + int(3 * 4))  # parallel at distance 3v > v
    got = lines_in_tube([core, near, far], core, v)
    assert core in got and near in got and far not in got


def test_lines_in_tube_angle_filter():
    sc = Scale(8)
    core = Line(sc, "s", 0, 128)
    crossing_steep = Line(sc, "s", sc.n, 0)  # 45 degrees, crosses the core
    assert crossing_steep not in lines_in_tube([crossing_steep], core, 0.05)
    assert crossing_steep in lines_in_tube([crossing_steep], core, 1.0)


def test_lines_in_tube_vs_dual_rectangle():
    # Membership should agree within a factor 2 with a dual-rectangle count.
    sc = Scale(8)
    n = sc.n
    core = Line(sc, "s", 0, n // 2)
    v = 16 * sc.delta
    rng = np.random.default_rng(18)
    lines = [random_line(rng, sc, chart=CHART_SHALLOW) for _ in range(400)]
    got = len(lines_in_tube(lines, core, v))
    # dual box: |a - a0| <= v (angle), |b - b0| <= 2v (meets the tube in-square)
    dual = sum(
        1
        for ln in lines
        if abs(ln.a - core.a) <= v and abs(ln.b - core.b) <= 2 * v
    )
    assert got > 0 and dual > 0
    assert 0.5 <= got / dual <= 2.0


def test_angle_between_charts():
    sc = Scale(6)
    h = Line(sc, "s", 0, 32)
    vert = Line(sc, "t", 0, 32)
    assert math.isclose(angle_between(h, vert), math.pi / 2)
    diag_s = Line(sc, "s", sc.n, 0)
    assert math.isclose(angle_between(h, diag_s), math.pi / 4)


# -- family wire format -------------------------------------------------------------


def test_family_json_roundtrip_ints_only():
    rng = np.random.default_rng(19)
    fam = random_family(rng, 6, 5, density=0.4)
    obj = fam.to_json_obj()
    assert obj["k"] == 6
    for rec in obj["lines"]:
        assert isinstance(rec["a_q"], int) and isinstance(rec["b_q"], int)
        assert all(isinstance(c[0], int) and isinstance(c[1], int) for c in rec["cells"])
    back = LineFamily.from_json_obj(json.loads(json.dumps(obj)))
    assert len(back) == len(fam)
    assert union_shadings(back) == union_shadings(fam)


@pytest.mark.parametrize("shift", [(2**32, 0), (0, 2**32), (2**64, 0)])
def test_family_json_rejects_indices_that_would_wrap(shift):
    # a cell index 2**32 past a real cell must not load as that cell
    obj = random_family(np.random.default_rng(19), 6, 5, density=0.4).to_json_obj()
    i, j = obj["lines"][0]["cells"][0]
    obj["lines"][0]["cells"][0] = [i + shift[0], j + shift[1]]
    with pytest.raises(GridError, match="out of bounds"):
        LineFamily.from_json_obj(obj)


def test_family_rejects_duplicate_lines():
    sc = Scale(6)
    line = Line(sc, "s", 0, 32)
    sh = Shading(line, tube_cells(line, sc.delta))
    with pytest.raises(GeometryError):
        LineFamily(sc, ((line, sh), (line, sh)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    sizes=st.lists(
        st.one_of(
            st.integers(1, 700),
            st.sampled_from([_CHUNK_CELLS // 4, _CHUNK_CELLS // 2, _CHUNK_CELLS, 2 * _CHUNK_CELLS]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_line_chunks_cover_in_order_and_fill_to_the_bound(sizes):
    sizes = np.array(sizes, dtype=np.int64)
    ranges = list(_line_chunks(sizes))
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == sizes.size
    for lo, hi in ranges:
        total = int(sizes[lo:hi].sum())
        assert hi - lo == 1 or total <= _CHUNK_CELLS
        assert hi == sizes.size or total + sizes[hi] > _CHUNK_CELLS


def test_projected_chunks_read_the_chunk_size_at_the_call(monkeypatch):
    # every run is the line's own projection, bit for bit, in one chunk or in
    # a chunk per line
    fam = random_family(np.random.default_rng(7), 6, 12, density=0.5)
    sizes = [sh.cells.n_cells for sh in fam.shadings]
    assert sum(sizes) <= _CHUNK_CELLS
    for limit, ranges in ((None, [(0, 12)]), (1, [(i, i + 1) for i in range(12)])):
        if limit is not None:
            monkeypatch.setattr(geometry, "_CHUNK_CELLS", limit)
        chunks = list(fam._projected_chunks())
        assert [(lo, hi) for lo, hi, _, _ in chunks] == ranges
        arc = np.concatenate([a for _, _, a, _ in chunks])
        off = np.concatenate([o for _, _, _, o in chunks])
        ends = np.cumsum(sizes)
        for sh, lo, hi in zip(fam.shadings, ends - sizes, ends):
            own = sh.arc_and_offset()
            assert arc[lo:hi].tobytes() == own[0].tobytes()
            assert off[lo:hi].tobytes() == own[1].tobytes()


# -- the frame table and Line's fast path -------------------------------------------

_FRAME = ("a", "b", "nrm", "u0", "u1")


def _frame_bits(line: Line) -> tuple:
    """a_q, b_q, chart and the frame floats bit for bit (float.hex tells -0.0
    from 0.0)."""
    return (line.a_q, line.b_q, line.chart, *(float(getattr(line, f)).hex() for f in _FRAME))


def test_frame_table_holds_every_lines_attributes():
    rng = np.random.default_rng(31)
    sc = Scale(6)
    lines = {}
    while len(lines) < 40:  # both charts
        line = random_line(rng, sc)
        lines[(line.chart, line.a_q, line.b_q)] = line
    F = LineFamily(sc, tuple((ln, random_shading(rng, ln)) for ln in lines.values()))
    fr = F._frames
    assert fr is F._frames  # built once
    assert fr.sizes.tolist() == [sh.cells.n_cells for _, sh in F.entries]
    assert fr.steep.tolist() == [ln.chart == CHART_STEEP for ln, _ in F.entries]
    assert fr.steep.any() and not fr.steep.all()
    assert fr.a_q.tolist() == [ln.a_q for ln, _ in F.entries]
    assert fr.b_q.tolist() == [ln.b_q for ln, _ in F.entries]
    for f in _FRAME:
        got = [v.hex() for v in getattr(fr, f).tolist()]
        assert got == [float(getattr(ln, f)).hex() for ln, _ in F.entries], f
    # the cached table is no field: eq and hash see only scale and entries
    G = LineFamily(F.scale, F.entries)
    assert G == F and hash(G) == hash(F)
    assert np.array_equal(F.dual_points(), [[ln.a, ln.b] for ln, _ in F.entries])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_frame_table_and_array_family_match_line(k):
    # every key of each chart's range, the lines that miss the square included
    sc = Scale(k)
    n = sc.n
    keys = [(a_q, b_q) for a_q in range(-n, n + 1) for b_q in range(-n, 2 * n + 1)]
    a_q, b_q = np.array(keys).T
    for chart in (CHART_SHALLOW, CHART_STEEP):
        steep = np.full(a_q.size, chart == CHART_STEEP)
        fr = _FrameTable.of(sc, np.ones(a_q.size, dtype=np.int64), steep, a_q, b_q)
        lines, missed = [], 0
        for (aq, bq), *frame in zip(keys, *(getattr(fr, f).tolist() for f in _FRAME)):
            try:
                line = Line(sc, chart, aq, bq)
            except GeometryError:
                assert frame[4] < frame[3]  # u1 < u0
                missed += 1
                continue
            assert [v.hex() for v in frame] == [float(getattr(line, f)).hex() for f in _FRAME]
            lines.append(line)
        assert missed > 0
        # the lines that meet the square, through the checked array constructor
        tubes = [tube_cells(ln, sc.delta) for ln in lines]
        key = np.array([(ln.a_q, ln.b_q) for ln in lines]).T
        F = LineFamily._from_arrays(sc, chart, *key, [c.codes for c in tubes])
        assert F == LineFamily(sc, tuple((ln, Shading(ln, c)) for ln, c in zip(lines, tubes)))
        for (child, sh), line in zip(F.entries, lines):
            assert child == line and hash(child) == hash(line) and sh.line is child
            assert _frame_bits(child) == _frame_bits(line)
            assert vars(child) == vars(line)
            assert type(child.a_q) is int and type(child.b_q) is int


def test_array_family_refuses_what_the_object_path_refuses():
    # each refusal of LineFamily._from_arrays raises the error class of the
    # Line, CellSet, Shading or LineFamily check it stands for
    sc = Scale(4)
    n = sc.n
    line = Line(sc, "s", 0, 8)  # y = 1/2
    tube = tube_cells(line, sc.delta).codes
    off = tube_cells(Line(sc, "s", 0, 2), sc.delta).codes  # y = 1/8

    def arrays(keys, codes, chart="s"):
        a_q, b_q = np.array(keys, dtype=np.int64).reshape(-1, 2).T
        return lambda: LineFamily._from_arrays(sc, chart, a_q, b_q, codes)

    def objects(keys, codes, chart="s"):
        def build():
            lines = [Line(sc, chart, a_q, b_q) for a_q, b_q in keys]
            shadings = [Shading(ln, CellSet(sc, c)) for ln, c in zip(lines, codes)]
            return LineFamily(sc, tuple(zip(lines, shadings)))

        return build

    assert arrays([(0, 8)], [tube])() == objects([(0, 8)], [tube])()
    cases = {
        "unknown chart": ([(0, 8)], [tube], "x"),
        "slope past 1": ([(n + 1, 8)], [tube], "s"),
        "intercept past 2": ([(0, 2 * n + 1)], [tube], "s"),
        "misses the square": ([(0, -1)], [tube], "s"),
        "empty run": ([(0, 8)], [tube[:0]], "s"),
        "unsorted run": ([(0, 8)], [tube[::-1]], "s"),
        "duplicated run": ([(0, 8)], [tube[[0, 0]]], "s"),
        "cell past the grid": ([(0, 8)], [tube + np.uint64(n)], "s"),
        "cell outside the tube": ([(0, 8)], [off], "s"),
        "duplicate line": ([(0, 8), (0, 8)], [tube, tube], "s"),
    }
    for what, case in cases.items():
        with pytest.raises(ValueError) as want:
            objects(*case)()
        with pytest.raises(ValueError) as got:
            arrays(*case)()
        assert type(got.value) is type(want.value), what
        assert type(want.value) in (GeometryError, GridError), what


def test_shading_refuses_a_line_on_another_scale():
    # y = x + 1/2 on the k = 5 grid, shaded by the k = 6 tube of the same
    # line: the measures read a_q and b_q in units of the cells' delta, so
    # its density would read 0.5 where the k = 6 line's reads 1.0
    fine = Line(Scale(6), "s", 64, 32)
    cells = tube_cells(fine, fine.scale.delta)
    Shading(fine, cells)
    with pytest.raises(GeometryError, match="different scales"):
        Shading(Line(Scale(5), "s", 32, 16), cells)
