import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelab import CellSet, GridError, Scale, ScaleLadder, coarsen, covering_count, is_refinement
from tubelab.grid import _member, _sorted_counts, refine, union_codes

from conftest import minimal_ball_cover, naive_covering_count, random_cellset


def test_scale_invariants():
    assert Scale(6).delta == 2.0**-6
    assert Scale(2).n == 4
    with pytest.raises(GridError):
        Scale(-1)
    with pytest.raises(GridError):
        Scale(1).require_base()
    assert Scale(2).require_base() is not None


def test_scale_rejects_exponents_past_the_code_width():
    # a code keeps 32 bits per index: at k = 33 the cell (2**32, 0) would become (0, 1)
    assert Scale(32).n == 2**32
    with pytest.raises(GridError, match="33 > 32"):
        Scale(33)
    with pytest.raises(GridError):
        CellSet.from_ij(Scale(33), [2**32], [0])


def test_ladder_nesting():
    lad = ScaleLadder(m=2, N=4)
    assert lad.M == 4 and lad.k == 8
    assert [lad.rho(j) for j in range(lad.N + 1)] == [1.0, 0.25, 0.0625, 0.015625, 0.00390625]
    assert lad.compatible_with(Scale(8))
    assert not lad.compatible_with(Scale(6))


def test_cellset_basics():
    sc = Scale(4)
    E = CellSet.from_cells(sc, [(0, 0), (3, 2), (0, 0)])
    assert E.n_cells == 2  # deduplicated
    assert E.mass == 2 * sc.delta**2
    assert E.contains_cell(3, 2) and not E.contains_cell(1, 1)
    with pytest.raises(GridError):
        CellSet.from_cells(sc, [(16, 0)])


@pytest.mark.parametrize(
    "cell",
    [(2**32, 0), (1, 2**32), (2**32 + 2, 3), (-1, 0), (0, -(2**32)), (2**64, 0), (0, -(2**63) - 1)],
)
def test_cellset_rejects_indices_that_would_wrap(cell):
    # codes keep 32 bits per index, so (2**32, 0) would become (0, 1)
    with pytest.raises(GridError, match="out of bounds"):
        CellSet.from_cells(Scale(3), [(1, 1), cell])
    with pytest.raises(GridError, match="out of bounds"):
        CellSet.from_ij(Scale(3), [1, cell[0]], [1, cell[1]])


def test_contains_cell_outside_the_grid():
    E = CellSet.from_cells(Scale(3), [(3, 2), (0, 0)])
    assert E.contains_cell(3, 2) and E.contains_cell(0, 0)
    for i, j in [(3, 2 + 2**32), (3 + 2**32, 2), (2**32, 0), (-1, 0), (8, 0), (0, 8)]:
        assert not E.contains_cell(i, j)


def test_cellset_rejects_unsorted_or_duplicate_codes():
    # uint64 differences wrap around, so the order check must compare codes
    with pytest.raises(GridError):
        CellSet(Scale(3), [5, 2])
    with pytest.raises(GridError):
        CellSet(Scale(3), [2, 2])
    assert CellSet(Scale(3), [2, 5]).n_cells == 2


# -- covering_count -----------------------------------------------------------


def test_covering_single_cell_is_one():
    sc = Scale(6)
    E = CellSet.from_cells(sc, [(17, 40)])
    for j in range(7):
        assert covering_count(E, 2.0**-j) == 1


def test_covering_full_grid():
    E = CellSet.full(Scale(6))
    assert covering_count(E, 2.0**-3) == 64


def test_covering_tube_against_oracle():
    # N_delta of the horizontal line y = 1/2 at delta = 2^-8, counted at rho = 2^-4.
    sc = Scale(8)
    d = sc.delta
    cells = set()
    for i in range(sc.n):
        for j in range(sc.n):
            if abs((j + 0.5) * d - 0.5) <= d:
                cells.add((i, j))
    E = CellSet.from_cells(sc, sorted(cells))
    expected = naive_covering_count(cells, 8, 2.0**-4)
    got = covering_count(E, 2.0**-4)
    assert got == expected == 32
    assert 16 <= got <= 32


def test_covering_errors():
    sc = Scale(4)
    E = CellSet.from_cells(sc, [(0, 0)])
    with pytest.raises(GridError, match="covering number"):
        covering_count(CellSet.from_cells(sc, []), 0.25)
    with pytest.raises(GridError):
        covering_count(E, 2.0**-5)  # finer than delta
    with pytest.raises(GridError):
        covering_count(E, 2.0)
    with pytest.raises(GridError):
        covering_count(E, 0.3)  # not dyadic


# -- coarsen -------------------------------------------------------------------


def test_coarsen_corner_cell():
    sc = Scale(4)
    E = CellSet.from_cells(sc, [(0, 0)])
    C = coarsen(E, 2 * sc.delta)
    assert C.scale.k == 3 and list(C.cells()) == [(0, 0)]


def test_coarsen_identity_at_finest_scale():
    rng = np.random.default_rng(1)
    E = random_cellset(rng, 5, 0.2)
    assert coarsen(E, E.scale.delta) == E


def test_coarsen_diagonal():
    sc = Scale(4)
    E = CellSet.from_cells(sc, [(i, i) for i in range(16)])
    C = coarsen(E, 2.0**-2)
    assert sorted(C.cells()) == [(i, i) for i in range(4)]


def test_coarsen_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(20):
        E = random_cellset(rng, 6, 0.1)
        rho = 2.0 ** (-int(rng.integers(0, 7)))
        once = coarsen(E, rho)
        assert coarsen(once, rho) == once


def test_coarsen_contains_source():
    rng = np.random.default_rng(3)
    E = random_cellset(rng, 6, 0.05)
    C = coarsen(E, 2.0**-3)
    assert E.issubset(refine(C, E.scale))


# -- is_refinement ---------------------------------------------------------------


def test_is_refinement_trivials():
    rng = np.random.default_rng(4)
    E = random_cellset(rng, 5, 0.4)
    assert is_refinement(E, E, 1.0)
    half = CellSet(E.scale, E.codes[: E.n_cells // 2])
    assert is_refinement(half, E, 0.5 * half.n_cells / (E.n_cells / 2) - 1e-9) or is_refinement(
        half, E, 0.4
    )
    empty = CellSet.from_cells(E.scale, [])
    assert not is_refinement(empty, E, 0.1)
    with pytest.raises(GridError):
        is_refinement(E, random_cellset(rng, 4), 0.5)
    with pytest.raises(GridError):
        is_refinement(E, E, 0.0)


def test_is_refinement_rejects_non_subset():
    sc = Scale(4)
    E1 = CellSet.from_cells(sc, [(0, 0), (1, 1)])
    E2 = CellSet.from_cells(sc, [(2, 2)])
    assert not is_refinement(E2, E1, 0.1)


# -- monotonicity and growth over random sets -------------------------------------


def test_covering_monotone_and_doubling():
    rng = np.random.default_rng(5)
    for trial in range(100):
        E = random_cellset(rng, 6, float(rng.uniform(0.01, 0.7)))
        counts = [covering_count(E, 2.0**-j) for j in range(7)]
        # rho smaller -> count larger
        for fine, coarse in zip(counts[1:], counts[:-1]):
            assert fine >= coarse
            assert fine <= 4 * coarse  # dimension-2 doubling


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)), min_size=1, max_size=40
    ),
    st.integers(0, 4),
)
def test_coarsen_covering_consistency(cells, j):
    E = CellSet.from_cells(Scale(4), cells)
    rho = 2.0**-j
    assert covering_count(E, rho) == coarsen(E, rho).n_cells


# -- minimal-ball-cover oracle -----------------------------------------------------


def test_dyadic_count_vs_minimal_ball_cover():
    rng = np.random.default_rng(6)
    sc = Scale(4)
    for trial in range(60):
        m = int(rng.integers(1, 13))
        cells = set()
        while len(cells) < m:
            cells.add((int(rng.integers(16)), int(rng.integers(16))))
        cells = sorted(cells)
        E = CellSet.from_cells(sc, cells)
        for rho in (2.0**-2, 2.0**-3):
            dyadic = covering_count(E, rho)
            minimal = minimal_ball_cover(cells, sc.delta, rho)
            assert minimal <= dyadic <= 9 * minimal


def test_union_codes_chunking():
    rng = np.random.default_rng(9)
    parts = [random_cellset(rng, 6, 0.05).codes for _ in range(30)]
    merged = union_codes(parts, chunk=100)
    assert np.array_equal(merged, np.unique(np.concatenate(parts)))


def test_refine_preserves_mass():
    rng = np.random.default_rng(10)
    E = random_cellset(rng, 4, 0.3)
    R = refine(E, Scale(7))
    assert math.isclose(R.mass, E.mass)
    assert coarsen(R, E.scale.delta) == E


# -- sorted run counts and membership -----------------------------------------------


@pytest.mark.parametrize(
    "values",
    [
        np.empty(0, dtype=np.uint64),
        np.empty(0, dtype=np.int64),
        np.array([7], dtype=np.uint64),
        np.array([-3], dtype=np.int64),
        np.array([2**64 - 1, 0, 2**64 - 1, 2**63], dtype=np.uint64),
        np.array([5, -(2**63), 5, 2**63 - 1, 0], dtype=np.int64),
    ],
)
def test_sorted_counts_matches_np_unique_on_edge_cases(values):
    got, want = _sorted_counts(values), np.unique(values, return_counts=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    values=st.one_of(
        st.lists(st.integers(0, 2**64 - 1), max_size=60).map(lambda v: np.array(v, dtype=np.uint64)),
        st.lists(st.integers(-(2**63), 2**63 - 1), max_size=60).map(
            lambda v: np.array(v, dtype=np.int64)
        ),
        st.lists(st.integers(0, 4), max_size=60).map(lambda v: np.array(v, dtype=np.uint64)),
    )
)
def test_sorted_counts_matches_np_unique(values):
    got, want = _sorted_counts(values), np.unique(values, return_counts=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


_CELLS = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=_CELLS, b=_CELLS, nested=st.booleans())
def test_membership_matches_numpy(a, b, nested):
    sc = Scale(4)
    A = CellSet.from_cells(sc, a)
    B = CellSet.from_cells(sc, a + b if nested else b)  # nested: A inside B
    inter = np.intersect1d(A.codes, B.codes)
    assert np.array_equal(A.intersection(B).codes, inter)
    assert np.array_equal(B.intersection(A).codes, inter)
    assert A.issubset(B) == bool(np.isin(A.codes, B.codes).all())
    assert B.issubset(A) == bool(np.isin(B.codes, A.codes).all())
    hit, pos = _member(B.codes, A.codes)
    assert np.array_equal(hit, np.isin(A.codes, B.codes))
    assert np.array_equal(B.codes[pos[hit]], A.codes[hit])
    for i, j in a + b:
        assert A.contains_cell(i, j) == ((i, j) in set(a))
