import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import (
    CellSet,
    Line,
    LineFamily,
    Scale,
    ScaleLadder,
    Shading,
    branching,
    broad_narrow,
    coarsen,
    common_branching,
    dyadic_pigeonhole,
    is_uniform,
    katz_tao_subsample,
    multiscale_decompose,
    rich_point_refine,
    shading_multiscale,
    tube_cells,
    two_ends_constant,
    two_ends_scale,
    uniformize,
    verify_decomposition,
)
from tubelab.geometry import _greedy_count_below, angle_between, union_shadings
from tubelab.measures import MeasureError, gamma, katz_tao_constant
from tubelab.structure import (
    DecompositionError,
    MultiscalePartition,
    ShadingMultiscaleResult,
    StructureError,
    _lower_hull,
    _shading_uniformity_error,
    shading_window_counts,
    uniformity_error,
    verify_shading_multiscale,
)

from conftest import (
    check_rich_point_postconditions,
    random_cellset,
    random_family,
    random_line,
    random_shading,
    reference_capped_accept,
    reference_lower_hull,
    reference_rich_point_refine,
    reference_segment_count,
    reference_shading_uniformity_error,
    reference_subsample_levels,
    reference_two_ends_scale,
    reference_uniformity_error,
    reference_uniformize,
)


# -- uniformization -----------------------------------------------------------


def test_uniformize_full_grid_is_identity():
    E = CellSet.full(Scale(8))
    lad = ScaleLadder(m=2, N=4)
    out, err, trace = uniformize(E, lad)
    assert out == E
    assert err == 1.0
    assert trace.overall_fraction() == 1.0


def test_uniformize_single_cell():
    E = CellSet.from_cells(Scale(8), [(3, 200)])
    lad = ScaleLadder(m=2, N=4)
    out, err, _ = uniformize(E, lad)
    assert out == E and err == 1.0


def test_uniformize_random_sets():
    rng = np.random.default_rng(30)
    lad = ScaleLadder(m=2, N=4)
    for _ in range(10):
        E = random_cellset(rng, 8, float(rng.uniform(0.05, 0.6)))
        out, err, trace = uniformize(E, lad)
        assert is_uniform(out, lad, 2.0)
        assert err <= 2.0
        kept = out.n_cells / E.n_cells
        assert math.isclose(kept, trace.overall_fraction(), rel_tol=1e-9)
        assert kept >= trace.lower_bound()


def _ladder_set(rng: np.random.Generator, ladder: ScaleLadder, kind: str, level: int) -> CellSet:
    """A test input for uniformize: a single cell, a full grid (at most 2^14
    cells, under one coarse cell when the grid is larger), sparse random
    cells, clusters of mixed fill, or random cells under one level-`level`
    cell, so every level up to it has a single parent."""
    k = ladder.k
    scale = Scale(k)
    n = scale.n
    if kind == "single":
        return CellSet.from_ij(scale, rng.integers(0, n, 1), rng.integers(0, n, 1))
    if kind == "full":
        side = 1 << min(k, 7)
        i0, j0 = (rng.integers(0, n // side, 2) * side).tolist()
        ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        return CellSet.from_ij(scale, i0 + ii.ravel(), j0 + jj.ravel())
    if kind == "random":
        size = int(rng.integers(1, min(n * n, 3000) + 1))
        return CellSet.from_ij(scale, rng.integers(0, n, size), rng.integers(0, n, size))
    if kind == "clusters":
        parts_i, parts_j = [], []
        for _ in range(int(rng.integers(1, 5))):
            side = int(rng.integers(1, min(n, 40) + 1))
            fill = float(rng.uniform(0.02, 1.0))
            i0, j0 = rng.integers(0, n - side + 1, 2).tolist()
            ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
            pick = rng.random(side * side) < fill
            pick[rng.integers(side * side)] = True
            parts_i.append(i0 + ii.ravel()[pick])
            parts_j.append(j0 + jj.ravel()[pick])
        return CellSet.from_ij(scale, np.concatenate(parts_i), np.concatenate(parts_j))
    # one parent: every cell inside one cell of side rho_level
    side = 1 << (k - ladder.m * level)
    i0, j0 = (rng.integers(0, n // side, 2) * side).tolist()
    size = int(rng.integers(1, min(side * side, 2000) + 1))
    return CellSet.from_ij(scale, i0 + rng.integers(0, side, size), j0 + rng.integers(0, side, size))


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 3),
    N=st.integers(1, 5),
    kind=st.sampled_from(["single", "full", "random", "clusters", "one-parent"]),
    level=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
)
def test_uniformize_matches_reference(m, N, kind, level, seed):
    ladder = ScaleLadder(m=m, N=N)
    E = _ladder_set(np.random.default_rng(seed), ladder, kind, min(level, N))
    out, err, trace = uniformize(E, ladder)
    ref_out, ref_err, ref_trace = reference_uniformize(E, ladder)
    assert out == ref_out
    assert err == ref_err
    assert trace.steps == ref_trace.steps
    assert uniformity_error(E, ladder) == reference_uniformity_error(E, ladder)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 12),
    n=st.integers(1, 400),
    spread=st.floats(0.001, 1.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_shading_uniformity_error_matches_reference(k, n, spread, seed):
    # sorted arclength positions, a few of them just before the square entry
    pos = np.sort(np.random.default_rng(seed).uniform(-0.01, spread, n))
    d = 2.0**-k
    assert _shading_uniformity_error(pos, d, k) == reference_shading_uniformity_error(pos, d, k)


class _Positions:
    """Stands in for a Shading whose arclength positions are given."""

    def __init__(self, pos: np.ndarray) -> None:
        self.pos = pos

    def arc_positions(self) -> np.ndarray:
        return self.pos.copy()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    m=st.sampled_from([1, 2, 4]),
    N=st.integers(1, 3),
    chart=st.sampled_from(["s", "t"]),
    density=st.floats(0.02, 1.0),
    n=st.integers(1, 300),
    spread=st.floats(0.001, 1.5),
    seed=st.integers(0, 2**31 - 1),
)
def test_shading_window_counts_match_aligned_windows(m, N, chart, density, n, spread, seed):
    ladder = ScaleLadder(m=m, N=N)
    rng = np.random.default_rng(seed)
    sh = random_shading(rng, random_line(rng, Scale(max(ladder.k, 2)), chart=chart), density)
    # sorted positions, some just before the square entry (negative arcs),
    # some on window edges
    edges = rng.integers(-4, 2**ladder.k, 8) * ladder.rho(N)
    raw = np.sort(np.concatenate([rng.uniform(-0.01, spread, n), edges]))
    for Y, pos in ((sh, sh.arc_positions()), (_Positions(raw), raw)):
        expected = [np.unique(np.floor(pos / ladder.rho(j))).size for j in range(N + 1)]
        got = shading_window_counts(Y, ladder)
        assert got.dtype == np.int64 and got.tolist() == expected


def test_is_uniform_checker():
    lad = ScaleLadder(m=2, N=4)
    assert is_uniform(CellSet.full(Scale(8)), lad, 1.0)
    rng = np.random.default_rng(31)
    sparse = random_cellset(rng, 8, 0.03)
    assert uniformity_error(sparse, lad) > 2.0  # typical sparse set is not uniform
    assert not is_uniform(sparse, lad, 2.0)


# -- branching functions ----------------------------------------------------------


def _cantor_cellset(ladder: ScaleLadder, s: float) -> CellSet:
    """Keep round(M^s) children per occupied cell at every level (first by index)."""
    keep = max(1, round(ladder.M**s))
    cells = [(0, 0)]
    for _ in range(ladder.N):
        nxt = []
        for i, j in cells:
            children = [
                (i * ladder.M + u, j * ladder.M + v)
                for u in range(ladder.M)
                for v in range(ladder.M)
            ]
            nxt.extend(children[:keep])
        cells = nxt
    return CellSet.from_cells(Scale(ladder.k), cells)


def test_branching_full_grid_slope_two():
    lad = ScaleLadder(m=2, N=4)
    beta = branching(CellSet.full(Scale(8)), lad)
    expected = np.array([2.0 * j * lad.m / lad.k for j in range(lad.N + 1)])
    assert np.allclose(beta.values, expected)


def test_branching_single_cell_is_flat():
    lad = ScaleLadder(m=2, N=4)
    beta = branching(CellSet.from_cells(Scale(8), [(0, 0)]), lad)
    assert np.allclose(beta.values, 0.0)


def test_branching_cantor_tracks_exponent():
    lad = ScaleLadder(m=2, N=4)
    for s in (0.5, 1.0, 1.5):
        E = _cantor_cellset(lad, s)
        beta = branching(E, lad)
        s_eff = math.log2(round(lad.M**s)) / lad.m
        for j in range(lad.N + 1):
            assert abs(beta.values[j] - s_eff * j * lad.m / lad.k) <= (lad.m + 1) / lad.k


def test_branching_warns_on_non_uniform():
    rng = np.random.default_rng(32)
    lad = ScaleLadder(m=2, N=4)
    sparse = random_cellset(rng, 8, 0.03)
    if not is_uniform(sparse, lad, 2.0):
        with pytest.warns(UserWarning):
            branching(sparse, lad)


def test_common_branching_identical_and_split():
    lad = ScaleLadder(m=2, N=3)
    full = CellSet.full(Scale(6))
    kept, beta = common_branching([full] * 5, lad)
    assert len(kept) == 5
    sparse = _cantor_cellset(lad, 0.5)
    family = [full] * 7 + [sparse] * 3
    kept, beta = common_branching(family, lad)
    assert len(kept) == 7
    assert all(k is full for k in kept)
    # every kept member's branching is within one quantum of the common one
    for E in kept:
        b = branching(E, lad)
        assert np.max(np.abs(b.values - beta.values)) <= beta.quantum() + 1e-12


def test_common_branching_pigeonhole_bound():
    rng = np.random.default_rng(33)
    lad = ScaleLadder(m=2, N=3)
    family = [random_cellset(rng, 6, float(rng.uniform(0.05, 0.8))) for _ in range(40)]
    kept, _ = common_branching(family, lad)
    keys = set()
    for E in family:
        from tubelab.grid import covering_count

        keys.add(tuple(round(math.log(covering_count(E, lad.rho(j)))) for j in range(lad.N + 1)))
    assert len(kept) >= len(family) / len(keys)
    # the stated closed-form floor
    assert len(kept) >= (2.0 * math.log(lad.M)) ** -lad.N * len(family)


# -- multiscale decomposition -------------------------------------------------------


def test_decompose_identity_profile():
    P = multiscale_decompose(np.linspace(0.0, 1.0, 65), 0.1)
    assert P.H == 1
    assert P.s[0] >= 0.9


def test_decompose_flat_profile():
    P = multiscale_decompose(np.zeros(33), 0.1)
    assert P.H == 1 and P.s[0] == 0.0


def test_decompose_hinge_profile():
    xs = np.linspace(0.0, 1.0, 129)
    ys = np.maximum(0.0, xs - 0.5)
    P = multiscale_decompose(ys, 0.05)
    ok, msg = verify_decomposition(ys, 0.05, P)
    assert ok, msg
    assert P.H == 2
    assert P.s[0] <= 0.05 and P.s[-1] >= 0.9


def _random_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    dx = 1.0 / (n - 1)
    inc = rng.uniform(0.0, dx, size=n - 1)
    inc[rng.random(n - 1) < 0.3] = 0.0
    ys = np.concatenate([[0.0], np.cumsum(inc)])
    return np.minimum(ys, 1.0)


def test_decompose_random_profiles_all_pass():
    rng = np.random.default_rng(34)
    for _ in range(30):
        ys = _random_profile(rng, int(rng.integers(16, 200)))
        for eta in (0.05, 0.1, 0.2):
            t0 = time.perf_counter()
            P = multiscale_decompose(ys, eta)
            took = time.perf_counter() - t0
            ok, msg = verify_decomposition(ys, eta, P)
            assert ok, msg
            assert took < 0.05


def _lipschitz_samples(
    rng: np.random.Generator, n: int, runs: int, uniform_x: bool
) -> tuple[np.ndarray, np.ndarray]:
    """A monotone 1-Lipschitz profile of n samples on [0, 1] made of `runs`
    runs: flat (slope 0), collinear (one slope), nearly collinear
    (one slope, nudged per step by 1e-14..1e-8, so turns straddle the hull's
    1e-15 tolerance) or jittered (a fresh slope per step); non-uniform
    abscissae may sit very close together."""
    if uniform_x:
        xs = np.linspace(0.0, 1.0, n)
    else:
        xs = np.unique(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)]))
    steps = xs.size - 1
    cuts = np.sort(rng.integers(0, steps + 1, runs - 1))
    slopes = np.empty(steps)
    for lo, hi in zip([0, *cuts], [*cuts, steps]):
        kind = rng.integers(4)
        if kind == 0:
            slopes[lo:hi] = 0.0
        elif kind == 1:
            slopes[lo:hi] = rng.choice([1.0, 0.5, rng.uniform(0.0, 1.0)])
        elif kind == 2:
            nudge = rng.uniform(-1.0, 1.0, hi - lo) * 10.0 ** rng.uniform(-14.0, -8.0)
            slopes[lo:hi] = np.clip(rng.uniform(0.0, 1.0) + nudge, 0.0, 1.0)
        else:
            slopes[lo:hi] = rng.uniform(0.0, 1.0, hi - lo)
    ys = np.minimum(np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))]), 1.0)
    return xs, ys


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 300),
    runs=st.integers(1, 6),
    uniform_x=st.booleans(),
    eta=st.sampled_from([0.05, 0.1, 0.2, 0.25]),
    seed=st.integers(0, 2**31 - 1),
)
def test_decompose_matches_reference_hull(n, runs, uniform_x, eta, seed):
    xs, ys = _lipschitz_samples(np.random.default_rng(seed), n, runs, uniform_x)
    hull = reference_lower_hull(xs, ys)
    assert _lower_hull(xs, ys) == hull
    P = multiscale_decompose(ys if uniform_x else (xs, ys), eta)
    A_ref = xs[hull].tolist()
    # merging short blocks and equal slopes only drops interior breakpoints
    A = P.A.tolist()
    assert A[0] == A_ref[0] and A[-1] == A_ref[-1] and set(A) <= set(A_ref)
    if len(A) == len(A_ref):
        assert P.s.tolist() == np.clip(np.diff(ys[hull]) / np.diff(xs[hull]), 0.0, 1.0).tolist()


def test_decompose_rejects_bad_profiles():
    with pytest.raises(DecompositionError):
        multiscale_decompose(np.array([0.0, 0.5, 0.2, 1.0]), 0.1)  # not monotone
    with pytest.raises(DecompositionError):
        multiscale_decompose(np.array([0.0, 0.9, 1.0]), 0.1)  # Lipschitz violation
    with pytest.raises(DecompositionError):
        multiscale_decompose(np.linspace(0, 1, 9), 0.5)  # eta out of range


def test_verify_decomposition_flags_short_block():
    ys = np.linspace(0.0, 1.0, 33)
    P = MultiscalePartition(0.1, np.array([0.0, 1e-22, 1.0]), np.array([0.5, 0.9]))
    ok, msg = verify_decomposition(ys, 0.1, P)
    assert not ok and msg.startswith("(i)")


def test_verify_decomposition_flags_non_increasing_slopes():
    ys = np.full(33, 0.0)
    P = MultiscalePartition(0.1, np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.1]))
    ok, msg = verify_decomposition(ys, 0.1, P)
    assert not ok and msg.startswith("(iv)")


# -- two-ends reduction -----------------------------------------------------------------


def _horizontal_shading(k: int, columns: np.ndarray) -> Shading:
    sc = Scale(k)
    line = Line(sc, "s", 0, sc.n // 2)
    rows = np.full_like(np.asarray(columns), sc.n // 2)
    return Shading(line, CellSet.from_ij(sc, np.asarray(columns), rows))


def test_two_ends_scale_single_cell():
    sh = _horizontal_shading(8, np.array([77]))
    assert two_ends_scale(sh, 0.1, 1.0) == sh.cells.scale.delta


def test_two_ends_scale_full_tube_never_qualifies():
    sc = Scale(8)
    line = Line(sc, "s", 0, sc.n // 2)
    sh = Shading(line, tube_cells(line, sc.delta))
    assert two_ends_scale(sh, 0.1, 1.0) == 1.0


def test_two_ends_scale_two_end_cells():
    # |Y|_r = 2 < r^-0.1 needs r < 2^-10; on this grid the first qualifying scale is delta
    sh = _horizontal_shading(12, np.array([0, 4095]))
    assert two_ends_scale(sh, 0.1, 1.0) == 2.0**-12


def test_two_ends_scale_warns_on_lumpy_shading():
    # 17 cells in one half-window plus 1 far cell: wildly non-uniform occupancy
    sh = _horizontal_shading(8, np.concatenate([np.arange(17), [250]]))
    with pytest.warns(UserWarning, match="non-uniform"):
        two_ends_scale(sh, 0.1, 1.0)


def _lumpy_shading(rng: np.random.Generator, k: int, density: float, runs: int) -> Shading:
    """A random shading of a random line's tube; with runs > 0 only cells in
    `runs` stretches of the tube (in arclength order) are kept."""
    line = random_line(rng, Scale(k))
    if runs == 0:
        return random_shading(rng, line, density)
    tube = tube_cells(line, line.scale.delta)
    order = np.argsort(Shading(line, tube).arc_and_offset()[0], kind="stable")
    block = max(1, round(density * tube.n_cells / runs))
    keep = np.zeros(tube.n_cells, dtype=bool)
    for start in rng.integers(0, tube.n_cells, runs).tolist():
        keep[order[start : start + block]] = True
    return Shading(line, CellSet(line.scale, tube.codes[keep]))


@pytest.mark.filterwarnings("ignore:two-ends reduction")
@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 12),
    density=st.floats(0.01, 1.0),
    runs=st.integers(0, 4),
    v=st.floats(0.01, 0.99),
    C=st.floats(1.0, 8.0),
    level=st.integers(0, 12),
    seed=st.integers(0, 2**31 - 1),
)
def test_two_ends_scale_matches_reference(k, density, runs, v, C, level, seed):
    sh = _lumpy_shading(np.random.default_rng(seed), k, density, runs)
    pos = sh.arc_positions()
    r = sh.cells.scale.delta * (1 << min(level, k))
    m = reference_segment_count(pos, r)
    for bound in (m - 1, m - 0.5, m, m + 0.5, m + 1):  # on and next to the integer count
        assert _greedy_count_below(pos, r, bound) == (m < bound)
    # the second C puts the bound at scale r on the count m (up to rounding)
    for c in (C, max(1.0, r**-v / m)):
        assert two_ends_scale(sh, v, c) == reference_two_ends_scale(sh, v, c)


@pytest.mark.filterwarnings("ignore:two-ends reduction")
def test_two_ends_scale_stops_on_an_integer_bound():
    # four runs of 16 cells: at r = 2^-4 there are 4 windows and r^-0.5 = 4
    # exactly, so r = 2^-4 must not qualify; finer scales have at least
    # r^-0.5 windows and coarser ones more than r^-0.5, so none qualifies
    sh = _horizontal_shading(8, np.concatenate([np.arange(c, c + 16) for c in (0, 80, 160, 240)]))
    pos = sh.arc_positions()
    assert reference_segment_count(pos, 2.0**-4) == 4 and (2.0**-4) ** -0.5 == 4.0
    assert not _greedy_count_below(pos, 2.0**-4, 4.0)
    assert two_ends_scale(sh, 0.5, 1.0) == reference_two_ends_scale(sh, 0.5, 1.0) == 1.0


@pytest.mark.filterwarnings("ignore:two-ends reduction")
def test_lemma_two_ends_scale_lower_bound():
    # for any shading: with C = measured two-ends constant and v < eps2,
    # the reduction scale is at least delta^eps1
    rng = np.random.default_rng(35)
    sc = Scale(8)
    checked = 0
    for _ in range(10):
        line = random_line(rng, sc)
        sh = random_shading(rng, line, float(rng.uniform(0.05, 0.9)))
        for eps1, eps2 in ((0.5, 0.25), (0.7, 0.3)):
            C = two_ends_constant(sh, eps1, eps2)
            rho = two_ends_scale(sh, eps2 / 2.0, max(C, 1.0))
            assert rho >= sc.delta**eps1 - 1e-12
            checked += 1
    assert checked == 20


# -- Katz-Tao subsampling -----------------------------------------------------------------


def test_subsample_keeps_spread_set():
    rho = 2.0**-3
    pts = np.stack([np.arange(8) * rho, np.arange(8) * rho], axis=1) + rho / 2
    out = katz_tao_subsample(pts, rho, 1.0, delta=2.0**-6)
    assert np.array_equal(np.sort(out, axis=0), np.sort(pts, axis=0))


def test_subsample_line_counts_and_constant():
    d = 2.0**-8
    rho = 2.0**-2
    pts = np.stack([np.arange(256) * d, np.full(256, 0.5)], axis=1)
    out = katz_tao_subsample(pts, rho, 1.0, delta=d)
    polylog = math.log2(1.0 / d) ** 2
    assert rho * out.shape[0] >= (d * 256) / polylog  # size bound with log slack
    rep = katz_tao_constant(out, 1.0, delta=rho)
    assert rep.constant <= 16.0


def test_subsample_single_point():
    out = katz_tao_subsample(np.array([[0.3125, 0.75]]), 0.25, 1.0, delta=2.0**-4)
    assert out.shape == (1, 2)


def test_subsample_rejects_concentrated_input():
    d = 2.0**-8
    xs = np.arange(16) * d
    pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    with pytest.raises(StructureError, match="not Katz-Tao"):
        katz_tao_subsample(pts, 2.0**-2, 0.3, delta=d)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    k=st.integers(3, 6),
    j=st.integers(1, 5),
    density=st.floats(0.01, 0.12),  # sparse enough to pass the Katz-Tao pre-check
    s=st.floats(1.0, 2.0),
    as_points=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
def test_subsample_matches_reference(k, j, density, s, as_points, seed):
    E = random_cellset(np.random.default_rng(seed), k, density)
    rho = 2.0 ** -min(j, k - 1)
    pts = E.centers()
    keep = reference_capped_accept(
        pts, reference_subsample_levels(rho, s), np.lexsort((pts[:, 0], pts[:, 1]))
    )
    if as_points:
        assert np.array_equal(katz_tao_subsample(pts, rho, s, delta=E.scale.delta), pts[keep])
    else:
        assert katz_tao_subsample(E, rho, s) == CellSet(E.scale, E.codes[keep])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 7),
    j=st.integers(1, 6),
    density=st.floats(0.005, 1.0),
    s=st.floats(0.05, 2.0),
    as_points=st.booleans(),
    shift=st.tuples(st.floats(-0.6, 0.3), st.floats(-0.6, 0.3)),
    dups=st.integers(0, 40),
    delta_factor=st.sampled_from([1.0, 0.75, 1.5]),
    seed=st.integers(0, 2**31 - 1),
)
def test_subsample_precheck_matches_katz_tao_constant(
    k, j, density, s, as_points, shift, dups, delta_factor, seed
):
    # The pruned pre-check raises exactly when the full katz_tao_constant
    # exceeds (log2 1/delta)^2, with the same constant in the message.
    rng = np.random.default_rng(seed)
    E = random_cellset(rng, k, density)
    rho = 2.0 ** -min(j, k - 1)
    if as_points:  # off-center, partly negative, with repeated points
        pts = E.centers() + np.array(shift)
        pts = np.concatenate([pts, pts[rng.integers(0, pts.shape[0], dups)]])
        d = E.scale.delta * delta_factor
        rep = katz_tao_constant(pts, s, delta=d)
        run = lambda: katz_tao_subsample(pts, rho, s, delta=d)  # noqa: E731
    else:
        d = E.scale.delta
        rep = katz_tao_constant(E, s)
        run = lambda: katz_tao_subsample(E, rho, s)  # noqa: E731
    if rep.constant > math.log2(1.0 / d) ** 2:
        with pytest.raises(StructureError, match="not Katz-Tao") as info:
            run()
        assert str(info.value).endswith(f"constant {rep.constant:.3g}")
    else:
        run()


def test_subsample_precheck_reports_a_coarsest_level_maximum():
    # Three far-apart clusters: only the 3Q of r = 1 holds all 30 points, so
    # the largest ratio sits on the coarsest level the pre-check visits.
    pts = np.array([[x, 0.5] for x in (-0.9, 0.5, 1.9) for _ in range(10)])
    rep = katz_tao_constant(pts, 0.05, delta=2.0**-4)
    assert rep.witness_r == 1.0 and rep.constant > 16.0
    with pytest.raises(StructureError, match=f"constant {rep.constant:.3g}$"):
        katz_tao_subsample(pts, 0.25, 0.05, delta=2.0**-4)


def test_subsample_reports_measure_errors_of_katz_tao_constant():
    E = random_cellset(np.random.default_rng(5), 5, 0.02)
    pts = E.centers()
    for s in (0.0, 2.5, float("nan")):
        with pytest.raises(MeasureError, match="exponent") as info:
            katz_tao_subsample(E, 0.25, s)
        with pytest.raises(MeasureError) as want:
            katz_tao_constant(E, s)
        assert str(info.value) == str(want.value)
    bad = np.concatenate([pts, pts[:, :1]], axis=1)  # (n, 3)
    with pytest.raises(MeasureError, match="expected a nonempty"):
        katz_tao_subsample(bad, 0.25, 1.0, delta=E.scale.delta)


def test_subsample_cellset_roundtrip():
    rng = np.random.default_rng(36)
    E = random_cellset(rng, 6, 0.02)
    out = katz_tao_subsample(E, 2.0**-3, 1.0)
    assert isinstance(out, CellSet)
    assert out.issubset(E)


# -- rich-point refinement ---------------------------------------------------------------


def test_rich_point_single_line():
    rng = np.random.default_rng(37)
    fam = random_family(rng, 6, 1, density=0.5)
    out, e_mu, mu, trace = rich_point_refine(fam)
    assert mu == 1
    assert e_mu == fam.entries[0][1].cells
    assert out.entries[0][1].cells == fam.entries[0][1].cells


def test_rich_point_bush_and_random():
    rng = np.random.default_rng(38)
    for n_lines in (4, 8, 16):
        fam = random_family(rng, 6, n_lines, density=float(rng.uniform(0.2, 0.9)))
        check_rich_point_postconditions(fam)


def test_rich_point_two_pencils_keeps_heavier_class():
    # 6 lines through one point vs 2 through another: the multiplicity class of
    # the heavy pencil's crossing carries more incidence mass at its level
    sc = Scale(8)
    n = sc.n
    entries = []
    for a_q in (-n, -n // 2, -n // 4, n // 4, n // 2, n):
        b_q = n // 2 - a_q // 2
        line = Line(sc, "s", a_q, b_q)
        entries.append((line, Shading(line, tube_cells(line, sc.delta))))
    fam = LineFamily(sc, tuple(entries))
    out, e_mu, mu, _ = rich_point_refine(fam)
    assert mu >= 1
    check_rich_point_postconditions(fam)


def _pencil_family(rng, k: int, n_random: int, n_pencil: int, reach: int, n_strays: int, density):
    """Random lines, a pencil through the center shaded within `reach`
    columns of it, and steep strays of one or two cells near the left edge:
    when a multiplicity class above 1 wins, the strays miss E_mu."""
    sc = Scale(k)
    n = sc.n
    entries = list(random_family(rng, k, n_random, density).entries) if n_random else []
    seen = {(ln.chart, ln.a_q, ln.b_q) for ln, _ in entries}
    for a_q in rng.choice(np.arange(-n // 2, n // 2 + 1, 2), size=n_pencil, replace=False):
        line = Line(sc, "s", int(a_q), n // 2 - int(a_q) // 2)
        tube = tube_cells(line, sc.delta)
        near = np.abs(tube.ij()[0] - n // 2) <= reach
        if (line.chart, line.a_q, line.b_q) not in seen and near.any():
            seen.add((line.chart, line.a_q, line.b_q))
            entries.append((line, Shading(line, CellSet(sc, tube.codes[near]))))
    for b_q in range(n_strays):
        line = Line(sc, "t", 0, b_q)
        tube = tube_cells(line, sc.delta)
        entries.append((line, Shading(line, CellSet(sc, tube.codes[: 1 + b_q % 2]))))
    return LineFamily(sc, tuple(entries))


def _refinement(fam: LineFamily, refine):
    try:
        out, e_mu, mu, trace = refine(fam)
    except StructureError as exc:
        return str(exc)
    lines = [((ln.chart, ln.a_q, ln.b_q), sh.line == ln, sh.cells.codes.tolist()) for ln, sh in out.entries]
    return lines, e_mu.codes.tolist(), mu, trace.to_json_obj()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    k=st.integers(4, 7),
    n_random=st.integers(0, 12),
    n_pencil=st.integers(0, 8),
    reach=st.integers(0, 4),
    n_strays=st.integers(0, 3),
    density=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_rich_point_refine_matches_reference(k, n_random, n_pencil, reach, n_strays, density, seed):
    fam = _pencil_family(np.random.default_rng(seed), k, n_random, n_pencil, reach, n_strays, density)
    if len(fam) == 0:
        with pytest.raises(StructureError):
            rich_point_refine(fam)
        return
    got = _refinement(fam, rich_point_refine)
    assert got == _refinement(fam, reference_rich_point_refine)
    if not isinstance(got, str):
        check_rich_point_postconditions(fam)


@pytest.mark.parametrize("seed", range(6))
def test_rich_point_refine_is_idempotent(seed):
    # E_mu keeps every occurrence of its codes, so refining the output again
    # keeps every line and cell, and finds them all in one class
    fam = _pencil_family(np.random.default_rng(seed), 6, 6, 6, seed % 3, 2, 0.6)
    out, e_mu, mu, _ = rich_point_refine(fam)
    again, e_mu2, mu2, trace = rich_point_refine(out)
    assert [(ln, sh.cells) for ln, sh in again.entries] == [(ln, sh.cells) for ln, sh in out.entries]
    assert e_mu2 == e_mu and mu2 == mu
    assert trace.steps[0].description.endswith(" of 1") and trace.steps[0].kept_fraction == 1.0


def test_rich_point_refine_drops_lines_that_miss_the_rich_set():
    fam = _pencil_family(np.random.default_rng(3), 6, 0, 8, 1, 3, 1.0)
    out, e_mu, mu, _ = rich_point_refine(fam)
    assert mu > 1 and len(out) < len(fam)
    assert _refinement(fam, rich_point_refine) == _refinement(fam, reference_rich_point_refine)
    check_rich_point_postconditions(fam)


# -- broad-narrow ---------------------------------------------------------------------


def _crossing_family(k: int, slopes_q: list[int]) -> tuple[LineFamily, tuple[int, int]]:
    sc = Scale(k)
    n = sc.n
    entries = []
    for a_q in slopes_q:
        b_q = n // 2 - a_q // 2
        line = Line(sc, "s", a_q, b_q)
        entries.append((line, Shading(line, tube_cells(line, sc.delta))))
    return LineFamily(sc, tuple(entries)), (n // 2, n // 2)


def _metric(l1, l2) -> float:
    return angle_between(l1, l2) * 2.0 / math.pi


def test_broad_narrow_two_lines():
    fam, x = _crossing_family(8, [0, 64])  # slopes 0 and 1/4
    res = broad_narrow(fam, x)
    theta = _metric(fam.entries[0][0], fam.entries[1][0])
    assert not res.narrow
    assert len(res.L1) == 1 and len(res.L2) == 1
    assert theta / 4 <= res.rho_x <= 4 * theta + 10 * fam.scale.delta


def test_broad_narrow_spread_directions():
    fam, x = _crossing_family(8, [-256, -192, -128, -64, -32, 32, 64, 128, 192, 256])
    res = broad_narrow(fam, x)
    assert not res.narrow
    assert res.rho_x >= 0.125  # Theta(1) for well-spread directions


def test_broad_narrow_near_parallel_pencil():
    fam, x = _crossing_family(8, [0, 2, 4, 6, 8])
    theta0 = _metric(fam.entries[0][0], fam.entries[-1][0])
    res = broad_narrow(fam, x)
    d = fam.scale.delta
    assert res.rho_x <= 2 * theta0 + 10 * d + 1e-9


def _check_broad_narrow(fam: LineFamily, res) -> None:
    d = fam.scale.delta
    lsq = math.log2(1.0 / d) ** 2
    assert 10 * d <= res.rho_x <= 1.0
    assert len(res.kept) >= len(fam) / lsq
    lines = fam.lines
    for i in res.kept:
        for j in res.kept:
            assert _metric(lines[i], lines[j]) + d <= 2 * res.rho_x + 1e-9
    if not res.narrow:
        assert len(res.L1) >= len(res.kept) / lsq
        assert len(res.L2) >= len(res.kept) / lsq
        for i in res.L1:
            for j in res.L2:
                ang = _metric(lines[i], lines[j])
                assert res.rho_x / 8 - 1e-9 <= ang <= res.rho_x + 1e-9


def test_broad_narrow_postconditions():
    rng = np.random.default_rng(39)
    for trial in range(10):
        k = 8
        n = Scale(k).n
        m = int(rng.integers(3, 12))
        slopes = sorted({2 * int(v) for v in rng.integers(-n // 2, n // 2, size=m)})
        if len(slopes) < 2:
            continue
        fam, x = _crossing_family(k, slopes)
        _check_broad_narrow(fam, broad_narrow(fam, x))


def test_broad_narrow_narrow_descent_then_split():
    # two far directions plus a dense pencil: no quarter pair of the first
    # arc holds enough lines, so the search descends into the pencil's half
    # window before it splits
    fam, x = _crossing_family(6, sorted({-64, 64} | set(range(-20, 21))))
    res = broad_narrow(fam, x)
    assert not res.narrow
    assert res.rho_x == pytest.approx(0.311, abs=1e-3)
    assert len(res.kept) < len(fam)
    _check_broad_narrow(fam, res)


def test_broad_narrow_needs_two_lines():
    fam, x = _crossing_family(8, [0])
    with pytest.raises(StructureError, match="broad-narrow"):
        broad_narrow(fam, x)


# -- shading multiscale selection -----------------------------------------------------


def _column_family(k: int, col_lists: list[np.ndarray]) -> LineFamily:
    sc = Scale(k)
    n = sc.n
    entries = []
    for idx, cols in enumerate(col_lists):
        line = Line(sc, "s", 0, n // 2 - 2 * idx)
        rows = np.full_like(cols, line.b_q)
        entries.append((line, Shading(line, CellSet.from_ij(sc, cols, rows))))
    return LineFamily(sc, tuple(entries))


def _cantor_columns(levels: int, s: float) -> np.ndarray:
    pos = [0]
    for lvl in range(levels):
        keep = 2 if (lvl + 1) * s - math.log2(len(pos)) / 1.0 >= 0 else 1
        nxt = []
        for p in pos:
            nxt.append(2 * p)
            if keep == 2:
                nxt.append(2 * p + 1)
        pos = nxt
    return np.array(sorted(pos), dtype=np.int64)


def test_shading_multiscale_full_shadings():
    k = 8
    fam = _column_family(k, [np.arange(256)] * 3)
    res = shading_multiscale(fam, 0.5, 0.1)
    ok, msg = verify_shading_multiscale(fam, res, 0.5, 0.1)
    assert ok, msg
    assert res.branch == "steep"
    assert res.s >= 0.6


def test_shading_multiscale_cantor_steep_branch():
    k = 10
    cols = _cantor_columns(k, 0.8)
    fam = _column_family(k, [cols] * 3)
    res = shading_multiscale(fam, 0.5, 0.1)
    assert res.branch == "steep"
    ok, msg = verify_shading_multiscale(fam, res, 0.5, 0.1)
    assert ok, msg


def test_shading_multiscale_concentrated_shallow_branch():
    # arithmetic progression with a large gap: flat at fine scales
    k = 10
    cols = np.arange(8) * 128
    fam = _column_family(k, [cols] * 2)
    res = shading_multiscale(fam, 0.5, 0.1)
    assert res.branch == "shallow"
    ok, msg = verify_shading_multiscale(fam, res, 0.5, 0.1)
    assert ok, msg
    # coarse shading carries order-one gamma
    for _, csh in res.family.entries:
        assert gamma(csh, 0.5).value <= 8.0


_ROADMAP_ITEM_3 = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3: at r = 2 delta, dilated segment constant 2 > 1.87",
)


@pytest.mark.parametrize(
    "k, j",
    [
        pytest.param(k, j, marks=_ROADMAP_ITEM_3 if j == 1 else ())
        for k in (8, 9, 10)
        for j in range(1, k)
    ],
)
def test_shading_multiscale_shallow_branch_scale_search(k, j):
    # 2^j leading columns at t = 1 take the shallow branch, whose scale search
    # doubles r while every point sees (r/r0)^t occupied r0-windows; it stops
    # at r = 2^j delta
    fam = _column_family(k, [np.arange(2**j)] * 2)
    res = shading_multiscale(fam, 1.0, 0.1)
    assert res.branch == "shallow"
    assert res.r == 2.0 ** (j - k)
    ok, msg = verify_shading_multiscale(fam, res, 1.0, 0.1)
    assert ok, msg


def test_verify_shading_multiscale_checks_the_last_segment():
    # a full first r-segment, then four clustered cells in the last one: only
    # the last segment's dilated constant (48) exceeds the slack (6.5)
    k = 8
    fam = _column_family(k, [np.concatenate([np.arange(64), np.arange(200, 204)])])
    line, sh = fam.entries[0]
    carrier = Scale(2)
    cl = line.requantize(carrier)
    coarse = LineFamily(carrier, ((cl, Shading(cl, coarsen(sh.cells, carrier.delta))),))
    part = multiscale_decompose(np.linspace(0.0, 1.0, 9), 0.05)
    res = ShadingMultiscaleResult(0.25, 1.0, coarse, part, "steep")
    ok, msg = verify_shading_multiscale(fam, res, 0.5, 0.05)
    assert not ok and msg.startswith("(b) dilated segment constant 48")
    full = _column_family(k, [np.arange(64)])
    assert verify_shading_multiscale(full, res, 0.5, 0.05) == (True, None)


def test_shading_multiscale_requires_common_branching():
    k = 8
    fam = _column_family(k, [np.arange(256), np.arange(4) * 64])
    with pytest.raises(StructureError, match="common branching"):
        shading_multiscale(fam, 0.5, 0.1)


# -- dyadic pigeonhole -------------------------------------------------------------------


def test_pigeonhole_trivials():
    level, kept = dyadic_pigeonhole([5, 5, 5], [1.0, 1.0, 1.0], lambda v: v)
    assert level == 5 and kept == [5, 5, 5]
    level, kept = dyadic_pigeonhole([1, 1, 1, 1, 1, 1, 1, 1, 1, 2], [1.0] * 10, lambda v: v)
    assert level == 1 and len(kept) == 9


def test_pigeonhole_bound():
    rng = np.random.default_rng(40)
    items = [int(v) for v in rng.integers(0, 6, size=50)]
    weights = [float(w) for w in rng.uniform(0.1, 2.0, size=50)]
    level, kept = dyadic_pigeonhole(items, weights, lambda v: v)
    kept_w = sum(w for it, w in zip(items, weights) if it == level)
    assert kept_w >= sum(weights) / len(set(items)) - 1e-9


def test_pigeonhole_rejects_empty():
    with pytest.raises(StructureError):
        dyadic_pigeonhole([], [], lambda v: v)


# -- serialization surfaces ----------------------------------------------------------


def test_trace_text_and_json_audit():
    rng = np.random.default_rng(44)
    E = random_cellset(rng, 8, 0.3)
    lad = ScaleLadder(m=2, N=4)
    _, _, trace = uniformize(E, lad)
    import json

    obj = json.loads(json.dumps(trace.to_json_obj()))
    assert obj["overall_fraction"] <= 1.0
    assert len(obj["steps"]) == lad.N
    assert math.isclose(
        obj["overall_fraction"],
        math.prod(s["kept_fraction"] for s in obj["steps"]),
        rel_tol=1e-9,
    )


def test_partition_and_branching_json():
    P = multiscale_decompose(np.linspace(0, 1, 33), 0.1)
    obj = P.to_json_obj()
    assert obj["A"][0] == 0.0 and obj["A"][-1] == 1.0 and len(obj["s"]) == P.H
    lad = ScaleLadder(m=2, N=3)
    beta = branching(CellSet.full(Scale(6)), lad)
    bobj = beta.to_json_obj()
    assert bobj["N"] == 3 and len(bobj["values"]) == 4


def test_report_json_fields():
    from tubelab import frostman_constant, gamma
    from conftest import random_line, random_shading

    rng = np.random.default_rng(45)
    E = random_cellset(rng, 6, 0.2)
    rep = frostman_constant(E, 1.0).to_json_obj()
    assert set(rep) == {"exponent", "constant", "witness_r", "witness_x"}
    sh = random_shading(rng, random_line(rng, Scale(6)), 0.4)
    gobj = gamma(sh, 0.5).to_json_obj()
    assert set(gobj) == {"exponent", "constant", "witness_r", "witness_x"}
