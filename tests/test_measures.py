import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tubelab import (
    CellSet,
    Line,
    LineFamily,
    Scale,
    Shading,
    densities,
    density,
    frostman_constant,
    gamma,
    gamma_sup,
    katz_tao_constant,
    tube_cells,
    two_ends_constant,
    two_ends_constants,
)
from tubelab import geometry, measures
from tubelab.constructions import ConfigSpec
from tubelab.geometry import _CHUNK_CELLS, GeometryError, _tube_counts, tube_cell_count
from tubelab.grid import coarsen
from tubelab.lab import build_sweep_family
from tubelab.measures import MeasureError, TripledCaps, frostman_constant_1d, gamma_value_at

from conftest import (
    naive_katz_tao,
    random_cellset,
    random_line,
    random_shading,
    reference_capped_accept,
    reference_density,
    reference_frostman_constant,
    reference_frostman_constant_1d,
    reference_gamma,
    reference_katz_tao_constant,
    reference_katz_tao_levels,
    reference_two_ends_constant,
)


# -- Katz-Tao constants ---------------------------------------------------------


def test_kt_single_point():
    for s in (0.3, 1.0, 2.0):
        rep = katz_tao_constant(np.array([[0.5, 0.5]]), s, delta=2.0**-6)
        assert rep.constant == 1.0
        assert rep.witness_r == 2.0**-6


def test_kt_full_grid_s2():
    E = CellSet.full(Scale(5))
    rep = katz_tao_constant(E, 2.0)
    assert 1.0 <= rep.constant <= 9.0


def test_kt_line_of_points():
    d = 2.0**-8
    pts = np.stack([np.arange(256) * d, np.full(256, 0.5)], axis=1)
    rep1 = katz_tao_constant(pts, 1.0, delta=d)
    assert 1.0 <= rep1.constant <= 3.0
    rep_half = katz_tao_constant(pts, 0.5, delta=d)
    # oracle value 24, attained at r=1/4 (3Q holds 192 points / (2^6)^0.5);
    # of the same order as d^-0.5 = 16
    assert rep_half.constant == naive_katz_tao(pts, d, 0.5) == 24.0
    assert 16.0 <= rep_half.constant <= 32.0


def test_kt_matches_naive_oracle():
    rng = np.random.default_rng(20)
    for _ in range(10):
        E = random_cellset(rng, 5, float(rng.uniform(0.03, 0.4)))
        s = float(rng.uniform(0.3, 2.0))
        assert math.isclose(
            katz_tao_constant(E, s).constant,
            naive_katz_tao(E.centers(), E.scale.delta, s),
            rel_tol=1e-12,
        )


def test_kt_witness_reproduces():
    rng = np.random.default_rng(21)
    E = random_cellset(rng, 6, 0.1)
    rep = katz_tao_constant(E, 0.8)
    r, (cx, cy) = rep.witness_r, rep.witness_x
    qi, qj = math.floor(cx / r), math.floor(cy / r)
    count = sum(
        1
        for x, y in E.centers()
        if qi - 1 <= math.floor(x / r) <= qi + 1 and qj - 1 <= math.floor(y / r) <= qj + 1
    )
    assert math.isclose(count / (r / E.scale.delta) ** 0.8, rep.constant, rel_tol=1e-12)


def test_kt_witness_with_negative_dual_ordinates():
    # dual points of lines with negative intercepts: the packed cell key has a
    # negative low word, which floor division would misread
    d = 2.0**-7
    pts = np.array([[0.25, -0.25], [0.2578125, -0.25], [-0.5, -0.75], [0.5, 0.5]])
    rep = katz_tao_constant(pts, 1.0, delta=d)
    assert rep.constant == 2.0
    assert rep.witness_r == d
    assert rep.witness_x == (0.25390625, -0.24609375)
    r, (cx, cy) = rep.witness_r, rep.witness_x
    qi, qj = math.floor(cx / r), math.floor(cy / r)
    count = sum(
        1
        for x, y in pts
        if abs(math.floor(x / r) - qi) <= 1 and abs(math.floor(y / r) - qj) <= 1
    )
    assert count / (r / d) == rep.constant


def test_kt_rejects_cell_indices_past_the_key_width():
    # at r = 2^-30 the ordinate 2.0 has cell index 2^31, which the packed
    # key would read as -2^31 (witness y = -2.0)
    pts = np.array([[-1.0, 2.0]])
    rep = katz_tao_constant(pts, 1.0, delta=2.0**-29)
    assert rep.witness_r == 2.0**-29
    assert rep.witness_x[1] == pytest.approx(2.0)
    with pytest.raises(MeasureError, match="32-bit key"):
        katz_tao_constant(pts, 1.0, delta=2.0**-30)


def test_keys_keep_room_for_the_neighbour_cells():
    # at r = 2^-30 the cells (0, 2^31 - 1) and (1, -2^31) have keys that
    # differ by 1, so each looked like the other's neighbour: the two far-apart
    # points gave constant 2.0 (true value 1.0) and keep_mask rejected one
    pts = np.array([[0.0, 2.0 - 2.0**-30], [2.0**-30, -2.0 + 2.0**-31]])
    assert katz_tao_constant(pts, 1.0, delta=2.0**-29).constant == 1.0
    assert TripledCaps([(2.0**-29, 1.0)]).keep_mask(pts).tolist() == [True, True]
    with pytest.raises(MeasureError, match="32-bit key"):
        katz_tao_constant(pts, 1.0, delta=2.0**-30)
    with pytest.raises(MeasureError, match="32-bit key"):
        TripledCaps([(2.0**-30, 1.0)]).keep_mask(pts)


def test_tripled_caps_try_add_rejects_cell_indices_past_the_key_width():
    # the packed key of (0.0, 2.0) at r = 2^-30 aliased a cell next to that of
    # (2^-30, -2.0), so the second point was rejected after the first
    caps = TripledCaps([(2.0**-30, 1.0)])
    for x, y in [(0.0, 2.0), (2.0**-30, -2.0), (0.0, 2.0 - 2.0**-30), (-2.0, 0.0)]:
        with pytest.raises(MeasureError, match="32-bit key"):
            caps.try_add(x, y)
    assert caps.counts == [{}]
    # the finest level decides, wherever it sits among the levels
    for levels in ([(2.0**-30, 1.0), (1.0, 9.0)], [(1.0, 9.0), (2.0**-30, 1.0)]):
        with pytest.raises(MeasureError, match="32-bit key"):
            TripledCaps(levels).try_add(0.0, 2.0)
    caps = TripledCaps([(2.0**-29, 1.0)])
    assert caps.try_add(0.0, 2.0) and caps.try_add(2.0**-30, -2.0)


def test_kt_subadditive_under_union():
    rng = np.random.default_rng(22)
    for _ in range(10):
        parts = [random_cellset(rng, 5, 0.1) for _ in range(3)]
        union = parts[0].union(parts[1]).union(parts[2])
        s = float(rng.uniform(0.5, 2.0))
        assert (
            katz_tao_constant(union, s).constant
            <= sum(katz_tao_constant(p, s).constant for p in parts) + 1e-9
        )


def test_kt_rejects_bad_input():
    with pytest.raises(MeasureError):
        katz_tao_constant(np.zeros((0, 2)), 1.0, delta=0.1)
    with pytest.raises(MeasureError):
        katz_tao_constant(np.array([[0.0, 0.0]]), 0.0, delta=0.1)
    with pytest.raises(MeasureError):
        katz_tao_constant(np.array([[0.0, 0.0]]), 1.0)  # missing delta
    with pytest.raises(MeasureError):
        katz_tao_constant(np.array([[0.0, 0.0]]), 1.0, delta=2.0)


_coords = st.floats(-1.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pts=st.lists(st.tuples(_coords, _coords), min_size=1, max_size=40),
    delta=st.one_of(st.integers(0, 7).map(lambda k: 2.0**-k), st.floats(0.004, 1.0)),
    s=st.floats(0.05, 2.0),
    snap=st.booleans(),
)
def test_kt_matches_reference(pts, delta, s, snap):
    arr = np.array(pts, dtype=np.float64)
    if snap:  # dual-lattice points: many shared cells and tied maxima
        arr = np.round(arr / delta) * delta
    assert katz_tao_constant(arr, s, delta=delta) == reference_katz_tao_constant(arr, s, delta)


# -- Frostman constants -----------------------------------------------------------


def test_frostman_singleton_is_worst_case():
    sc = Scale(6)
    E = CellSet.from_cells(sc, [(10, 20)])
    for s in (0.5, 1.0):
        rep = frostman_constant(E, s)
        assert math.isclose(rep.constant, sc.delta**-s)
        assert rep.witness_r == sc.delta


def test_frostman_full_grid():
    rep = frostman_constant(CellSet.full(Scale(5)), 2.0)
    assert 1.0 <= rep.constant <= 9.0


def test_frostman_trivial_at_Delta_one():
    rng = np.random.default_rng(23)
    E = random_cellset(rng, 5, 0.2)
    rep = frostman_constant(E, 1.0, Delta=1.0)
    assert rep.constant == 1.0


def test_frostman_refinement_law():
    # a c-refinement multiplies the constant by at most 1/c, both for the
    # full scan and for any coarse-restricted scan (Delta > delta)
    rng = np.random.default_rng(24)
    for _ in range(20):
        E = random_cellset(rng, 6, 0.3)
        keep = rng.random(E.n_cells) < 0.6
        if not keep.any():
            continue
        sub = CellSet(E.scale, E.codes[keep])
        c = sub.n_cells / E.n_cells
        s = float(rng.uniform(0.3, 2.0))
        for Delta in (None, 2.0**-3, 2.0**-1):
            assert (
                frostman_constant(sub, s, Delta=Delta).constant
                <= frostman_constant(E, s, Delta=Delta).constant / c + 1e-9
            )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 7),
    density=st.floats(0.01, 0.6),
    s=st.floats(0.05, 2.0),
    coarse=st.one_of(st.none(), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**31 - 1),
)
def test_frostman_matches_reference(k, density, s, coarse, seed):
    E = random_cellset(np.random.default_rng(seed), k, density)
    Delta = None if coarse is None else E.scale.delta ** coarse
    assert frostman_constant(E, s, Delta=Delta) == reference_frostman_constant(E, s, Delta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    offsets=st.lists(_coords, min_size=1, max_size=40),
    base=st.one_of(st.integers(0, 8).map(lambda k: 2.0**-k), st.floats(0.002, 1.0)),
    s=st.floats(0.05, 2.0),
)
def test_frostman_1d_matches_reference(offsets, base, s):
    arr = np.array(offsets, dtype=np.float64)
    assert frostman_constant_1d(arr, base, s) == reference_frostman_constant_1d(arr, base, s)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(3, 7),
    cap=st.floats(1.0, 16.0),
    s=st.floats(0.2, 2.0),
    n=st.integers(1, 300),
    spread=st.integers(1, 6),
    seed=st.integers(0, 2**31 - 1),
)
def test_tripled_caps_matches_reference_in_draw_order(k, cap, s, n, spread, seed):
    # random_config's order: each point is tried as it is drawn, with repeats
    rng = np.random.default_rng(seed)
    d = 2.0**-k
    half = max(1, (1 << k) >> spread)
    pts = rng.integers(-half, half + 1, size=(n, 2)).astype(np.float64) * d
    levels = reference_katz_tao_levels(d, s, cap)
    caps = TripledCaps(levels)
    got = np.array([caps.try_add(x, y) for x, y in pts.tolist()])
    assert np.array_equal(got, reference_capped_accept(pts, levels, np.arange(n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 6),
    caps=st.lists(
        st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 12.0)), min_size=1, max_size=4
    ),
    n_add=st.integers(0, 40),
    n_mask=st.integers(0, 200),
    on_grid=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_tripled_caps_try_add_then_keep_mask(k, caps, n_add, n_mask, on_grid, seed):
    # caps below 1, integer caps (count + 1 > cap on the boundary) and
    # fractional ones; grid points lie on cell edges at every level, and
    # both kinds reach negative coordinates
    rng = np.random.default_rng(seed)
    d = 2.0**-k
    levels = [(d * 2**l, cap) for l, cap in enumerate(caps)]
    n = n_add + n_mask
    if on_grid:
        pts = rng.integers(-(1 << k), (1 << k) + 1, size=(n, 2)).astype(np.float64) * d
    else:
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    tail = pts[n_add:]
    order = np.concatenate([np.arange(n_add), n_add + np.lexsort((tail[:, 0], tail[:, 1]))])
    expected = reference_capped_accept(pts, levels, order)
    tc = TripledCaps(levels)
    got = [tc.try_add(x, y) for x, y in pts[:n_add].tolist()]
    assert np.array_equal(np.concatenate([got, tc.keep_mask(tail)]), expected)
    if min(caps) < 1.0:
        assert not expected.any()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 6),
    caps=st.lists(
        st.one_of(st.integers(0, 12).map(float), st.floats(0.0, 40.0)), min_size=1, max_size=4
    ),
    n=st.integers(0, 30),
    on_grid=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_keep_capped_matches_reference(k, caps, n, on_grid, seed):
    # levels with cap >= n are left out: some, all (n <= every cap) or none,
    # and caps below 1 close the greedy
    rng = np.random.default_rng(seed)
    d = 2.0**-k
    levels = [(d * 2**l, cap) for l, cap in enumerate(caps)]
    if on_grid:
        pts = rng.integers(-(1 << k), (1 << k) + 1, size=(n, 2)).astype(np.float64) * d
    else:
        pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    expected = reference_capped_accept(pts, levels, order)
    assert np.array_equal(measures._keep_capped(levels, pts), expected)
    if n <= min(caps):
        assert expected.all()


def test_keep_capped_refuses_keys_past_the_width_of_a_dropped_level():
    # both levels have cap >= n and are left out, but the finest one's keys
    # would pass 2^31 - 1, as TripledCaps.keep_mask refuses them
    pts = np.array([[2.0, 0.0], [0.0, 0.5]])
    levels = [(2.0**-30, 4.0), (1.0, 4.0)]
    with pytest.raises(MeasureError, match="32-bit key"):
        TripledCaps(levels).keep_mask(pts)
    with pytest.raises(MeasureError, match="32-bit key"):
        measures._keep_capped(levels, pts)
    assert measures._keep_capped([(2.0**-29, 4.0), (1.0, 4.0)], pts).all()


def test_frostman_1d_uniform_vs_cluster():
    uniform = frostman_constant_1d(np.linspace(0, 1, 65), 2.0**-6, 1.0)
    assert uniform.constant <= 4.0
    cluster = frostman_constant_1d(np.linspace(0, 2.0**-6, 16), 2.0**-6, 1.0)
    assert cluster.constant > 4.0


# -- density ------------------------------------------------------------------------


def test_density_full_and_half():
    sc = Scale(7)
    line = Line(sc, "s", 0, sc.n // 2)
    tube = tube_cells(line, sc.delta)
    assert density(Shading(line, tube)) == 1.0
    half = CellSet(sc, tube.codes[: tube.n_cells // 2])
    assert abs(density(Shading(line, half)) - 0.5) <= 1.0 / tube.n_cells


# -- two-ends ----------------------------------------------------------------------


def _horizontal_shading(k: int, columns: np.ndarray) -> Shading:
    sc = Scale(k)
    line = Line(sc, "s", 0, sc.n // 2)
    rows = np.full_like(columns, sc.n // 2)
    return Shading(line, CellSet.from_ij(sc, columns, rows))


def test_two_ends_single_window():
    # everything inside one delta x delta^eps1 window: C = delta^-eps2 exactly
    sh = _horizontal_shading(8, np.arange(10))
    eps1, eps2 = 0.5, 0.25
    assert math.isclose(two_ends_constant(sh, eps1, eps2), (2.0**-8) ** -eps2)


def test_two_ends_uniform_shading():
    sc = Scale(8)
    line = Line(sc, "s", 0, sc.n // 2)
    sh = Shading(line, tube_cells(line, sc.delta))
    eps1, eps2 = 0.5, 0.25
    c = two_ends_constant(sh, eps1, eps2)
    ref = (2.0**-8) ** (eps1 - eps2)
    assert ref / 4 <= c <= 4 * ref


def test_two_ends_two_clusters():
    # half the mass at each end: the best window captures exactly half
    cols = np.concatenate([np.arange(8), np.arange(248, 256)])
    sh = _horizontal_shading(8, cols)
    eps1, eps2 = 0.5, 0.25
    assert math.isclose(two_ends_constant(sh, eps1, eps2), 0.5 * (2.0**-8) ** -eps2)


def test_two_ends_reflection_invariant():
    rng = np.random.default_rng(25)
    sc = Scale(8)
    for _ in range(10):
        cols = np.unique(rng.integers(0, sc.n, size=40))
        sh = _horizontal_shading(8, cols)
        mirrored = _horizontal_shading(8, sc.n - 1 - cols)
        assert math.isclose(
            two_ends_constant(sh, 0.5, 0.2), two_ends_constant(mirrored, 0.5, 0.2)
        )


def test_two_ends_validates_exponents():
    sh = _horizontal_shading(6, np.arange(5))
    with pytest.raises(MeasureError):
        two_ends_constant(sh, 0.2, 0.5)


# -- family-wide density and two-ends ---------------------------------------------
# two_ends_constants walks LineFamily._projected_chunks, chunks of about
# geometry._CHUNK_CELLS cells; the tests patch that size to split small
# families into several chunks, or to give every line a chunk of its own.


def _corner_line(rng: np.random.Generator, sc: Scale, chart: str) -> Line:
    """A line that clips a corner of the square, often shorter than delta."""
    n = sc.n
    a_q, b_q = int(rng.integers(1, n + 1)), n - int(rng.integers(0, 3))
    if rng.random() < 0.5:
        a_q, b_q = -a_q, n - b_q
    return Line(sc, chart, a_q, b_q)


def _tube_shading(rng: np.random.Generator, line: Line, mode: str) -> Shading:
    sc = line.scale
    tube = tube_cells(line, (2.0 if mode == "wide" else 1.0) * sc.delta)
    if mode == "full":
        return Shading(line, tube)
    count = {"single": 1, "few": int(rng.integers(2, 4))}.get(
        mode, max(1, round(rng.uniform(0.05, 1.0) * tube.n_cells))
    )
    pick = np.sort(rng.choice(tube.n_cells, size=min(count, tube.n_cells), replace=False))
    return Shading(line, CellSet(sc, tube.codes[pick]))


def _line_shading(rng, sc, chart, mode, corner) -> Shading:
    chart = chart or str(rng.choice(["s", "t"]))
    use_corner = corner and rng.random() < 0.5
    line = _corner_line(rng, sc, chart) if use_corner else random_line(rng, sc, chart=chart)
    return _tube_shading(rng, line, mode)


def _shading_family(seed, k, chart, mode, corner, n_lines) -> LineFamily:
    """A family of up to n_lines random shadings on distinct lines, from at
    most 4 * n_lines draws (small k has few corner lines)."""
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    entries = {}
    for _ in range(4 * n_lines):
        sh = _line_shading(rng, sc, chart, mode, corner)
        entries.setdefault((sh.line.chart, sh.line.a_q, sh.line.b_q), (sh.line, sh))
        if len(entries) == n_lines:
            break
    return LineFamily(sc, tuple(entries.values()))


_MODES = st.sampled_from(["single", "few", "random", "full", "wide"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 8),
    chart=st.sampled_from(["s", "t", None]),
    mode=_MODES,
    corner=st.booleans(),
    n_lines=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
)
def test_densities_match_reference(k, chart, mode, corner, n_lines, seed):
    F = _shading_family(seed, k, chart, mode, corner, n_lines)
    want = np.array([reference_density(sh) for sh in F.shadings])
    assert np.array_equal(densities(F), want)
    assert density(F.shadings[0]) == want[0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    k=st.one_of(st.integers(2, 8), st.sampled_from([12, 16])),
    chart=st.sampled_from(["s", "t", None]),
    mode=_MODES,
    corner=st.booleans(),
    n_lines=st.integers(1, 24),
    chunks=st.integers(1, 3),
    eps1=st.one_of(st.sampled_from([0.1, 0.5]), st.floats(0.02, 0.98)),
    frac=st.floats(0.05, 0.95),
    line_per_chunk=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_ends_constants_match_reference(
    k, chart, mode, corner, n_lines, chunks, eps1, frac, line_per_chunk, seed
):
    # small eps1 makes W = delta^eps1 longer than most lines (lam <= W); k = 12
    # and 16 widen the integer window keys; the chunk size splits the family
    # into about `chunks` chunks, or gives every line a chunk of its own
    F = _shading_family(seed, k, chart, mode, corner, n_lines)
    eps2 = eps1 * frac
    want = np.array([reference_two_ends_constant(sh, eps1, eps2) for sh in F.shadings])
    total = int(F._frames.sizes.sum())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_CELLS", 1 if line_per_chunk else -(-total // chunks))
        assert np.array_equal(two_ends_constants(F, eps1, eps2), want)
    assert two_ends_constant(F.shadings[0], eps1, eps2) == want[0]


def _exact_eps(d: float, W: float) -> float | None:
    """An exponent e with d**e == W exactly, if the nearby floats hold one."""
    e = math.log(W) / math.log(d)
    for _ in range(64):
        v = d**e
        if v == W:
            return e
        e = math.nextafter(e, math.inf if v > W else -math.inf)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 8),
    chart=st.sampled_from(["s", "t"]),
    mode=st.sampled_from(["few", "random", "wide"]),
    corner=st.booleans(),
    edge=st.sampled_from(["start", "end", "length"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_ends_constants_match_reference_on_ties(k, chart, mode, corner, edge, seed):
    # W = delta^eps1 chosen so that a window start or end lands exactly on a
    # cell position (searchsorted counts positions on both ends), or so that
    # W equals the line length (the last window is clamped only when lam > W)
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    d = sc.delta
    sh = _line_shading(rng, sc, chart, mode, corner)
    pos = sh.arc_positions()
    lam = max(sh.line.length_in_square(), d)
    p = float(pos[rng.integers(pos.size)])
    if edge == "end":
        start = max(math.floor(float(pos[rng.integers(pos.size)]) / d) * d, 0.0)
        W = p - start
        assume(start + W == p and (lam <= W or start <= lam - W))
    elif edge == "start":
        W = lam - p
        assume(lam - W == p)
    else:
        W = lam
    assume(d < W < 1.0)
    eps1 = _exact_eps(d, W)
    assume(eps1 is not None and 0.0 < eps1 < 1.0)
    got = two_ends_constant(sh, eps1, eps1 / 2)
    assert got == reference_two_ends_constant(sh, eps1, eps1 / 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 12),
    chart=st.sampled_from(["s", "t"]),
    mode=st.sampled_from(["few", "random", "wide"]),
    corner=st.booleans(),
    ulps=st.integers(-3, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_two_ends_constants_match_reference_near_window_ends(k, chart, mode, corner, ulps, seed):
    # W = delta^eps1 a few ulps from p - start for a cell position p and the
    # start of another cell's window, so fl(start + W) falls on or next to p:
    # there the float guess ceil((p - W)/delta) of the least window start
    # whose end reaches p can be one off in either direction
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    d = sc.delta
    sh = _line_shading(rng, sc, chart, mode, corner)
    pos = sh.arc_positions()
    i = int(rng.integers(pos.size))
    p = float(pos[i])
    start = max(math.floor(float(pos[rng.integers(i + 1)]) / d) * d, 0.0)
    W = p - start
    for _ in range(abs(ulps)):
        W = math.nextafter(W, math.copysign(math.inf, ulps))
    assume(d < W < 1.0)
    eps1 = _exact_eps(d, W)
    assume(eps1 is not None and 0.0 < eps1 < 1.0)
    got = two_ends_constant(sh, eps1, eps1 / 2)
    assert got == reference_two_ends_constant(sh, eps1, eps1 / 2)


# -- tube counts once per slope -----------------------------------------------------


def _slope_sharing_shadings(rng: np.random.Generator, k: int, n_slopes: int) -> list[Shading]:
    """One-cell shadings on lines that share a few slopes over many b_q:
    a_q = 0 and a = +-3/4 (where c -+ W is exact) among them, b_q from the
    whole intercept range and next to rows 0 and n - 1, both charts."""
    sc = Scale(k)
    n = sc.n
    special = [0, 3 * n // 4, -3 * n // 4, n, -n]
    slopes = {special[int(rng.integers(len(special)))] for _ in range(n_slopes)}
    slopes |= {int(v) for v in rng.integers(-n, n + 1, size=n_slopes)}
    edges = [-n, -2, -1, 0, 1, n - 2, n - 1, n, 2 * n - 1, 2 * n]
    out = []
    for a_q in sorted(slopes):
        for b_q in set(edges) | {int(v) for v in rng.integers(-n, 2 * n + 1, size=12)}:
            try:
                line = Line(sc, "s" if rng.random() < 0.5 else "t", a_q, b_q)
            except GeometryError:  # misses the square
                continue
            tube = tube_cells(line, sc.delta)
            if tube.n_cells:
                pick = [int(rng.integers(tube.n_cells))]
                out.append(Shading(line, CellSet(sc, tube.codes[pick])))
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("mode", ["shared", "one_slope_per_chunk"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(2, 9), n_slopes=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_densities_per_slope_match_reference(mode, k, n_slopes, seed):
    shadings = _slope_sharing_shadings(np.random.default_rng(seed), k, n_slopes)
    want = np.array([reference_density(sh) for sh in shadings])
    with pytest.MonkeyPatch.context() as mp:
        if mode == "one_slope_per_chunk":
            mp.setattr(geometry, "_SLOPE_CHUNK", 1)
        F = LineFamily(Scale(k), tuple((sh.line, sh) for sh in shadings))
        assert np.array_equal(densities(F), want)


@pytest.mark.parametrize("k", [12, 16])
def test_tube_counts_per_slope_match_tube_cell_count_at_fine_scales(k):
    # one chunk of slopes at k = 12, one slope per chunk at k = 16; a = 3/4 and
    # a = 0 among the slopes, intercepts that clip at rows 0 and n - 1
    rng = np.random.default_rng(k)
    sc = Scale(k)
    n = sc.n
    slopes = [0, 3 * n // 4, -n, *(int(v) for v in rng.integers(-n, n + 1, size=5))]
    lines = []
    for a_q in slopes:
        for b_q in [0, 1, n - 1, *(int(v) for v in rng.integers(-n, 2 * n + 1, size=20))]:
            try:
                lines.append(Line(sc, "s", a_q, b_q))
            except GeometryError:
                continue
    a_q, b_q = np.array([(ln.a_q, ln.b_q) for ln in lines]).T
    fr = geometry._FrameTable.of(sc, np.ones(a_q.size), np.zeros(a_q.size, dtype=bool), a_q, b_q)
    want = [tube_cell_count(ln, sc.delta) for ln in lines]
    assert _tube_counts(fr, sc).tolist() == want


def test_family_kernels_reject_an_empty_family():
    # a LineFamily refuses mixed scales itself
    empty = LineFamily(Scale(6), ())
    for kernel in (densities, lambda F: two_ends_constants(F, 0.5, 0.2)):
        with pytest.raises(MeasureError):
            kernel(empty)


# -- gamma -------------------------------------------------------------------------


def test_gamma_t1_full_shading_order_one():
    sc = Scale(10)
    line = Line(sc, "s", 0, sc.n // 2)
    rep = gamma(Shading(line, tube_cells(line, sc.delta)), 1.0)
    assert 1.0 / 8.0 <= rep.value <= 8.0


def test_gamma_full_shading_t_half():
    sc = Scale(10)
    line = Line(sc, "s", 0, sc.n // 2)
    rep = gamma(Shading(line, tube_cells(line, sc.delta)), 0.5)
    target = (2.0**-10) ** -0.5
    assert target / 4 <= rep.value <= 4 * target
    assert rep.witness_r >= 0.5  # sup attained at the top scales


def test_gamma_single_cell():
    sc = Scale(8)
    line = Line(sc, "s", 0, sc.n // 2)
    sh = Shading(line, CellSet.from_cells(sc, [(100, sc.n // 2)]))
    for t in (0.0, 0.5, 1.0):
        rep = gamma(sh, t)
        assert 0.25 <= rep.value <= 4.0


def test_gamma_monotone_in_shading():
    rng = np.random.default_rng(26)
    for _ in range(10):
        line = random_line(rng, Scale(8))
        big = random_shading(rng, line, 0.6)
        keep = rng.random(big.cells.n_cells) < 0.5
        if not keep.any():
            continue
        small = Shading(line, CellSet(line.scale, big.cells.codes[keep]))
        for t in (0.0, 0.5, 1.0):
            assert gamma(small, t).value <= gamma(big, t).value + 1e-9


def test_gamma_witness_reproduces():
    rng = np.random.default_rng(27)
    for _ in range(10):
        line = random_line(rng, Scale(8))
        sh = random_shading(rng, line, 0.4)
        rep = gamma(sh, 0.7)
        assert math.isclose(
            gamma_value_at(sh, 0.7, rep.witness_r, rep.witness_arc), rep.value, rel_tol=1e-9
        )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 8),
    chart=st.sampled_from(["s", "t"]),
    corner=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    width=st.sampled_from([1.0, 1.5, 2.0]),
    density=st.one_of(st.just(0.0), st.floats(0.02, 1.0)),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    end_slack=st.booleans(),
)
def test_gamma_matches_reference(k, chart, corner, seed, width, density, t, end_slack):
    # Cells up to 2 delta off the line drop out of the finest scales; corner
    # lines are often shorter than delta (lambda is then delta) and shorter
    # than r at every coarser scale; density 0 is a single-cell shading.
    # With end_slack, lambda is (M+1) delta - 1e-13 for M = floor(lambda /
    # delta), so the grid point (M+1) delta lies within the 1e-12 end slack.
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    line = _corner_line(rng, sc, chart) if corner else random_line(rng, sc, chart=chart)
    tube = tube_cells(line, width * sc.delta)
    count = max(1, round(density * tube.n_cells))
    pick = np.sort(rng.choice(tube.n_cells, size=count, replace=False))
    sh = Shading(line, CellSet(sc, tube.codes[pick]))
    length = Line.length_in_square
    d = sc.delta
    with pytest.MonkeyPatch.context() as mp:
        if end_slack:
            mp.setattr(Line, "length_in_square", lambda ln: (max(length(ln), d) // d + 1) * d - 1e-13)
        assert gamma(sh, t) == reference_gamma(sh, t)


def test_gamma_matches_reference_on_corner_lines():
    # every line _corner_line can draw at k <= 5, both charts: the whole tube
    # and its first, middle and last cell alone
    short = 0
    for k in (2, 3, 4, 5):
        sc = Scale(k)
        n = sc.n
        for chart in ("s", "t"):
            for a_q in range(1, n + 1):
                for c in range(3):
                    for line in (Line(sc, chart, a_q, n - c), Line(sc, chart, -a_q, c)):
                        short += line.length_in_square() < sc.delta
                        tube = tube_cells(line, sc.delta)
                        picks = [slice(None)] + [[i] for i in {0, tube.n_cells // 2, tube.n_cells - 1}]
                        for pick in picks:
                            sh = Shading(line, CellSet(sc, tube.codes[pick]))
                            for t in (0.0, 0.5, 1.0):
                                assert gamma(sh, t) == reference_gamma(sh, t)
    assert short > 0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 7),
    chart=st.sampled_from(["s", "t"]),
    n_pts=st.integers(1, 40),
    end_slack=st.booleans(),
    t=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gamma_matches_reference_on_grid_interval_ends(k, chart, n_pts, end_slack, t, seed):
    # A cell on the line (offset 0) reaches w = r exactly, so an arc at a
    # multiple of delta puts both ends of its intervals on grid points.  The
    # arcs run past lambda; with end_slack, lambda sits 1e-13 below a grid
    # point, which then counts as x = lambda.
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    d = sc.delta
    sh = random_shading(rng, random_line(rng, sc, chart=chart))
    M = math.floor(max(sh.line.length_in_square(), d) / d)
    arc = rng.integers(-4, 2 * M + 6, size=n_pts) * (d / 2)
    off = rng.choice([0.0, 0.0, d / 2, -d, 1.5 * d], size=n_pts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Shading, "arc_and_offset", lambda self: (arc, off))
        if end_slack:
            mp.setattr(Line, "length_in_square", lambda self: (M + 1) * d - 1e-13)
        assert gamma(sh, t) == reference_gamma(sh, t)


def test_gamma_witness_in_end_slack_is_lambda(monkeypatch):
    # lambda = 9 delta - 1e-13, so M = 8.  At r = delta, cells on the line
    # cover [arc - delta, arc + delta]: two at arc 9.5 delta cover no grid
    # point 0..8, one at lambda + delta starts exactly at lambda and one at
    # lambda - delta ends exactly there.  x = lambda is covered 4 times and
    # wins the finest scale; every grid point has at most 2.
    sc = Scale(3)
    d = sc.delta
    lam = 9 * d - 1e-13
    arc = np.array([9.5 * d, 9.5 * d, lam + d, lam - d])
    sh = Shading(Line(sc, "s", 0, 4), CellSet.from_cells(sc, [(7, 3), (7, 4)]))
    monkeypatch.setattr(Shading, "arc_and_offset", lambda self: (arc, np.zeros(4)))
    monkeypatch.setattr(Line, "length_in_square", lambda self: lam)
    for t in (0.0, 0.5, 1.0):
        rep = gamma(sh, t)
        assert (rep.value, rep.witness_r, rep.witness_arc) == (4.0, d, lam)
        assert rep == reference_gamma(sh, t)


def test_gamma_matches_reference_on_case2_family():
    # every line of the seed-405 criterion-05 case-2 family at delta = 2^-8
    spec = ConfigSpec(delta=2.0**-8, t=1.5, s=0.05, r=2.0**-5, seed=405, kind="case2")
    F = build_sweep_family(spec, 2.0**-8)
    assert len(F) == 2339
    for _, sh in F.entries:
        assert gamma(sh, 0.5) == reference_gamma(sh, 0.5)


def test_gamma_row_factors_are_the_python_float_powers():
    # bit for bit the factor the strict-> loop computed, t = 0 and t = 1 included
    for k in (2, 5, 12, 32):
        d = 2.0**-k
        for t in (0.0, 1e-9, 0.25, 0.5, 1 / 3, 0.9999, 1.0):
            got = measures._row_factors(k, t)
            assert not got.flags.writeable
            assert got.tolist() == [(d / 2.0 ** (i - k)) ** t for i in range(k + 1)]
    assert measures._row_factors.cache_info().maxsize is not None


@pytest.mark.parametrize("end_slack", [False, True])
def test_gamma_ties_keep_the_finest_row(end_slack):
    # At t = 0 every row's value is its count.  A single cell gives count 1 on
    # every row, and a run of cells the full count on every coarse enough
    # row: the finest of the tied rows is the witness.
    sc = Scale(6)
    d = sc.delta
    length = Line.length_in_square
    for columns, finest in ((np.array([20]), d), (np.arange(20, 23), 2 * d)):
        sh = _horizontal_shading(6, columns)
        with pytest.MonkeyPatch.context() as mp:
            if end_slack:
                mp.setattr(Line, "length_in_square", lambda ln: (length(ln) // d + 1) * d - 1e-13)
            rep = gamma(sh, 0.0)
            assert (rep.value, rep.witness_r) == (float(columns.size), finest)
            assert rep == reference_gamma(sh, 0.0)


def test_gamma_without_a_covered_grid_point_is_minus_one(monkeypatch):
    # cells more than r = 1 past both ends of the line cover no grid point on
    # any row: the value stays -1 with the finest scale and arc 0 as witness
    sh = _horizontal_shading(4, np.arange(2))
    arc = np.array([-1.5, 2.5])
    monkeypatch.setattr(Shading, "arc_and_offset", lambda self: (arc, np.zeros(2)))
    for t in (0.0, 0.5, 1.0):
        rep = gamma(sh, t)
        assert (rep.value, rep.witness_r, rep.witness_arc) == (-1.0, 2.0**-4, 0.0)
        assert rep == reference_gamma(sh, t)


def test_gamma_rejects_bad_exponent():
    sh = _horizontal_shading(6, np.arange(5))
    with pytest.raises(MeasureError):
        gamma(sh, 1.5)


def test_gamma_sup_is_max():
    rng = np.random.default_rng(28)
    sc = Scale(7)
    entries = []
    seen = set()
    while len(entries) < 4:
        line = random_line(rng, sc, chart="s")
        if (line.a_q, line.b_q) in seen:
            continue
        seen.add((line.a_q, line.b_q))
        entries.append((line, random_shading(rng, line, 0.5)))
    fam = LineFamily(sc, tuple(entries))
    assert gamma_sup(fam, 0.5).value == max(gamma(sh, 0.5).value for _, sh in fam.entries)


def _fresh_gamma_max(F: LineFamily, t: float):
    # gamma on a new, unlent Shading per line; the first maximum wins
    best = None
    for line, sh in F.entries:
        rep = gamma(Shading(line, sh.cells), t)
        if best is None or rep.value > best.value:
            best = rep
    return best


def _charted_family(seed: int, k: int, n_lines: int, chart: str | None) -> LineFamily:
    # random lines on one chart (or both, chart None) with random shadings
    rng = np.random.default_rng(seed)
    sc = Scale(k)
    entries = {}
    while len(entries) < n_lines:
        line = random_line(rng, sc, chart=chart)
        key = (line.chart, line.a_q, line.b_q)
        if key not in entries:
            entries[key] = (line, random_shading(rng, line, float(rng.uniform(0.05, 1.0))))
    return LineFamily(sc, tuple(entries.values()))


def _lent(F: LineFamily) -> list[int]:
    return [i for i, (_, sh) in enumerate(F.entries) if "_proj" in vars(sh)]


@pytest.mark.parametrize("seed", [405, 406])
@pytest.mark.parametrize("k", [5, 6, 7, 8])
def test_gamma_sup_matches_fresh_shadings_on_case2_families(seed, k):
    # the case2-ladder spec (r = 2^-4); k = 5 and 6 fit one chunk of lines, k = 7
    # and 8 (about 11 k and 47 k cells) span several
    spec = ConfigSpec(delta=2.0**-8, t=1.5, s=0.05, r=2.0**-4, seed=seed, kind="case2")
    F = build_sweep_family(spec, 2.0**-k)
    for t in (0.0, 0.5, 1.0):
        assert gamma_sup(F, t) == _fresh_gamma_max(F, t)
    assert _lent(F) == []


@pytest.mark.parametrize("chart", ["s", "t", None])
@pytest.mark.parametrize("k,n_lines,seed", [(4, 6, 0), (7, 60, 1), (8, 40, 2)])
def test_gamma_sup_matches_fresh_shadings_on_random_families(chart, k, n_lines, seed):
    F = _charted_family(seed, k, n_lines, chart)
    for t in (0.0, 0.3, 1.0):
        assert gamma_sup(F, t) == _fresh_gamma_max(F, t)
    assert _lent(F) == []


@pytest.mark.parametrize("which", ["case2-405", "case2-406", "s", "t", "mixed"])
def test_family_table_kernels_match_shading_lists(which):
    # the family kernels, on families that span several chunks of lines,
    # against the per-shading references over the list of F's shadings
    if which.startswith("case2"):
        seed = int(which[-3:])
        spec = ConfigSpec(delta=2.0**-7, t=1.5, s=0.05, r=2.0**-4, seed=seed, kind="case2")
        F = build_sweep_family(spec, 2.0**-7)
    else:
        F = _charted_family(4, 7, 100, None if which == "mixed" else which)
    shadings = list(F.shadings)
    assert sum(sh.cells.n_cells for sh in shadings) > 2 * _CHUNK_CELLS
    assert np.array_equal(densities(F), [reference_density(sh) for sh in shadings])
    want = [reference_two_ends_constant(sh, 0.1, 0.05) for sh in shadings]
    assert np.array_equal(two_ends_constants(F, 0.1, 0.05), want)
    assert gamma_sup(F, 0.5) == _fresh_gamma_max(F, 0.5)


def test_gamma_sup_takes_back_the_projections_when_gamma_raises(monkeypatch):
    F = _charted_family(3, 7, 100, None)
    assert sum(sh.cells.n_cells for sh in F.shadings) > 2 * _CHUNK_CELLS
    with pytest.raises(MeasureError):
        gamma_sup(F, 1.5)
    assert _lent(F) == []
    # a raise in a later chunk, while that chunk's shadings are lent
    gamma = measures.gamma
    calls = []

    def failing(Y, t):
        calls.append(Y)
        if len(calls) == len(F) - 2:
            assert "_proj" in vars(Y)
            raise MeasureError("stop")
        return gamma(Y, t)

    monkeypatch.setattr(measures, "gamma", failing)
    with pytest.raises(MeasureError, match="stop"):
        gamma_sup(F, 0.5)
    assert _lent(F) == []


def test_gamma_sup_lends_read_only_projections_of_the_same_bits(monkeypatch):
    F = _charted_family(4, 7, 60, None)
    gamma = measures.gamma
    seen = []

    def checking(Y, t):
        arc, off = Y.arc_and_offset()
        for lent, own in zip((arc, off), Shading(Y.line, Y.cells).arc_and_offset()):
            assert not lent.flags.writeable
            with pytest.raises(ValueError):
                lent[0] = 0.0
            assert lent.tobytes() == own.tobytes()
        # arc_positions sorts a copy, so the lent arc keeps its pairing
        assert np.array_equal(Y.arc_positions(), np.sort(arc))
        assert Y.arc_and_offset()[0].tobytes() == arc.tobytes()
        seen.append(Y)
        return gamma(Y, t)

    monkeypatch.setattr(measures, "gamma", checking)
    gamma_sup(F, 0.5)
    assert [id(Y) for Y in seen] == [id(sh) for sh in F.shadings]
    assert _lent(F) == []


def test_gamma_dyadic_restriction_vs_dense_sampling():
    # the (dyadic r, delta-spaced x) sup is within a factor 4 of a densely
    # sampled sup over continuous radii and fine centers on the line
    rng = np.random.default_rng(260)
    sc = Scale(4)
    d = sc.delta
    for trial in range(5):
        line = random_line(rng, sc, chart="s")
        sh = random_shading(rng, line, float(rng.uniform(0.3, 1.0)))
        centers = sh.cells.centers()
        lam = max(line.length_in_square(), d)
        for t in (0.5, 1.0):
            dense = 0.0
            for r in np.geomspace(d, 1.0, 160):
                for arc in np.arange(0.0, lam + 1e-12, d / 8):
                    pt = np.array(line.point_at_arc(float(arc)))
                    cnt = int(np.sum(np.sum((centers - pt) ** 2, axis=1) <= r * r + 1e-12))
                    dense = max(dense, (d / r) ** t * cnt)
            restricted = gamma(sh, t).value
            assert restricted <= dense + 1e-9
            assert dense <= 4.0 * restricted + 1e-9


# -- coarsened-shading comparison (gamma under coarsening) ---------------------------


def _coarse_shading(sh: Shading, rho: float) -> tuple[Shading, int]:
    coarse_cells = coarsen(sh.cells, rho)
    cl = sh.line.requantize(coarse_cells.scale)
    # occupancy d: fewest fine cells inside a kept coarse cell
    shift = sh.cells.scale.k - coarse_cells.scale.k
    i, j = sh.cells.ij()
    codes = ((j >> shift).astype(np.uint64) << np.uint64(32)) | (i >> shift).astype(np.uint64)
    _, counts = np.unique(codes, return_counts=True)
    return Shading(cl, coarse_cells), int(counts.min())


def test_gamma_coarsening_bound():
    # coarse gamma <= 16 * (r/delta)^t * d^-1 * fine gamma
    sc = Scale(8)
    line = Line(sc, "s", 0, sc.n // 2)
    full = Shading(line, tube_cells(line, sc.delta))
    rng = np.random.default_rng(29)
    shadings = [full]
    for _ in range(5):
        ln = random_line(rng, sc, chart="s")
        shadings.append(random_shading(rng, ln, 0.7))
    for sh in shadings:
        for rho in (2.0**-6, 2.0**-4):
            coarse, d = _coarse_shading(sh, rho)
            ratio = rho / sc.delta
            for t in (0.0, 0.5, 1.0):
                bound = 16.0 * ratio**t / d * gamma(sh, t).value
                assert gamma(coarse, t).value <= bound + 1e-9
