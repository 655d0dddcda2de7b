import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from tubelab import (
    CellSet,
    ConstructionError,
    GeometryError,
    GridError,
    Line,
    LineFamily,
    Scale,
    Shading,
    build_base,
    bundle_case2,
    bush_config,
    density,
    frostman_constant,
    gamma_sup,
    grid_config,
    katz_tao_constant,
    random_config,
    rescale_case1,
    tube_cells,
    union_shadings,
)
from tubelab import constructions
from tubelab.constructions import (
    ConfigSpec,
    _cantor_points_2d,
    build_config,
    bundle_offsets,
    measure_remark_bullets,
)
from tubelab.geometry import CHART_SHALLOW, CHART_STEEP, _FrameTable
from tubelab.measures import _katz_tao_levels, _keep_capped

from conftest import (
    random_family,
    reference_build_base,
    reference_bundle_case2,
    reference_capped_accept,
    reference_katz_tao_levels,
    reference_random_duals,
)


# -- base configurations -------------------------------------------------------


def test_build_base_t1_s1():
    r = 2.0**-5
    fam = build_base(r, 1.0, 1.0, seed=3)
    target = r**-1.0
    assert target / 4 <= len(fam) <= 4 * target
    kt = katz_tao_constant(fam.dual_points(), 1.0, delta=r)
    assert kt.constant <= 16.0
    for _, sh in fam.entries:
        assert frostman_constant(sh.cells, 1.0).constant <= 16.0
        assert r ** (2 - 1.0) / 4 <= sh.mass <= 4 * r ** (2 - 1.0)


def test_build_base_t2_grid_like():
    r = 2.0**-4
    fam = build_base(r, 1.99, 1.0, seed=5)
    target = r**-1.99
    assert target / 4 <= len(fam) <= 4 * target
    assert katz_tao_constant(fam.dual_points(), 1.99, delta=r).constant <= 16.0


def test_build_base_degenerate_s():
    # s tiny: about one cell per line, mass about r^2
    r = 2.0**-5
    fam = build_base(r, 1.0, 0.05, seed=9)
    for _, sh in fam.entries:
        assert sh.cells.n_cells <= 4


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 6),
    t=st.floats(0.5, 2.0),
    cap=st.one_of(st.just(8.0), st.floats(1.0, 16.0)),
    seed=st.integers(0, 2**31 - 1),
)
def test_build_base_greedy_matches_reference(k, t, cap, seed):
    r = 2.0**-k
    pts = _cantor_points_2d(k, t, np.random.default_rng(np.random.PCG64(seed))) * r
    order = np.lexsort((pts[:, 0], pts[:, 1]))
    expected = reference_capped_accept(pts, reference_katz_tao_levels(r, t, cap), order)
    assert np.array_equal(_keep_capped(_katz_tao_levels(r, t, cap), pts), expected)


# build_base against its per-line oracle.  Two inputs are injected, into both
# alike, to reach branches that real inputs rarely or never do.


def _widen_short_frames(mp):
    """Give every line shorter than 1/2 inside the square the parameter range
    [0, 1], in Line (the oracle's lines) and in the frame table (build_base's).
    Its columns past the square then have no cell within the tube, so
    build_base reaches its empty-shading skip, which no real line does: no
    line up to k = 5 that passes the length filter has a single column whose
    nearest cell is dropped."""
    init = Line.__post_init__
    of = _FrameTable.of

    def post_init(self):
        init(self)
        if self.u1 - self.u0 < 0.5:
            object.__setattr__(self, "u0", 0.0)
            object.__setattr__(self, "u1", 1.0)

    def frames(*args):
        fr = of(*args)
        short = fr.u1 - fr.u0 < 0.5
        return fr._replace(u0=np.where(short, 0.0, fr.u0), u1=np.where(short, 1.0, fr.u1))

    mp.setattr(Line, "__post_init__", post_init)
    mp.setattr(_FrameTable, "of", staticmethod(frames))


def _corner_duals(mp):
    """One dual point, whose line only cuts a corner of the square, so no line
    is usable."""

    def duals(levels, target, rng):
        return np.array([[(1 << levels) - 1, (1 << levels) - 1]], dtype=np.int64)

    mp.setattr(constructions, "_cantor_points_2d", duals)
    mp.setattr(conftest, "_cantor_points_2d", duals)


BASE_INPUTS = {"real": None, "wide_frames": _widen_short_frames, "corner_duals": _corner_duals}

# (chart, rk, t, s, seed, inputs) and the branches each one reaches
BASE_BRANCH_CASES = [
    ((CHART_SHALLOW, 4, 1.5, 0.05, 405, "real"), {"short_line", "mid_column"}),
    ((CHART_STEEP, 4, 1.5, 0.05, 405, "real"), {"short_line", "mid_column"}),
    ((CHART_SHALLOW, 2, 1.5, 0.05, 9, "wide_frames"), {"empty_shading"}),
    ((CHART_STEEP, 2, 1.0, 0.25, 11, "wide_frames"), {"empty_shading"}),
    (
        (CHART_SHALLOW, 3, 1.5, 0.5, 6, "corner_duals"),
        {"short_line", "base construction produced no usable lines"},
    ),
]


def _same_base(chart, rk, t, s, seed, inputs, hits=None):
    with pytest.MonkeyPatch.context() as mp:
        if BASE_INPUTS[inputs] is not None:
            BASE_INPUTS[inputs](mp)
        try:
            want = reference_build_base(2.0**-rk, t, s, seed, chart, hits)
        except ConstructionError as exc:
            with pytest.raises(ConstructionError) as got:
                build_base(2.0**-rk, t, s, seed, chart)
            assert str(got.value) == str(exc)
            if hits is not None:
                hits[str(exc)] = 1
            return
        _assert_same_family(build_base(2.0**-rk, t, s, seed, chart), want)


def _with_branch_examples(test):
    for case, _ in BASE_BRANCH_CASES:
        test = example(*case)(test)
    return test


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    chart=st.sampled_from([CHART_SHALLOW, CHART_STEEP]),
    rk=st.integers(2, 5),
    t=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0]), st.floats(0.5, 2.0)),
    s=st.sampled_from([0.05, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 10_000),
    inputs=st.sampled_from(sorted(BASE_INPUTS)),
)
@_with_branch_examples
def test_build_base_matches_reference(chart, rk, t, s, seed, inputs):
    _same_base(chart, rk, t, s, seed, inputs)


@pytest.mark.parametrize("case,branches", BASE_BRANCH_CASES)
def test_build_base_examples_reach_their_branches(case, branches):
    hits = {}
    _same_base(*case, hits=hits)
    assert branches <= set(hits), hits


def test_build_base_infeasible():
    with pytest.raises(ConstructionError, match="infeasible"):
        build_base(2.0**-2, 0.5, 1.0, seed=0)


def test_measure_remark_bullets_reports():
    fam = build_base(2.0**-5, 1.0, 1.0, seed=3)
    rep = measure_remark_bullets(fam, 1.0, 1.0)
    assert rep["katz_tao_constant"] <= 16.0
    assert rep["shading_frostman_constant"] <= 16.0
    assert rep["bullet3_ratio"] > 0


# -- case 1: anisotropic rescaling ------------------------------------------------


def test_case1_gamma_at_t1_is_order_one():
    base = build_base(2.0**-4, 1.0, 1.0, seed=3, chart=CHART_STEEP)
    fam = rescale_case1(base, 2.0**-9)
    g = gamma_sup(fam, 1.0).value
    assert 1.0 / 16.0 <= g <= 16.0


def test_case1_gamma_matches_prediction():
    # (r = 2^-3 from the nominal example falls below the r^-t >= 4 feasibility
    # floor at t = 1/2, so the nearest feasible scale is used)
    r, d = 2.0**-4, 2.0**-9
    base = build_base(r, 0.5, 1.0, seed=3, chart=CHART_STEEP)
    fam = rescale_case1(base, d)
    g = gamma_sup(fam, 0.5).value
    target = (r / d) ** 0.5
    assert target / 16 <= g <= 16 * target


def test_case1_area_relation():
    r, d = 2.0**-4, 2.0**-9
    base = build_base(r, 0.5, 1.0, seed=3, chart=CHART_STEEP)
    fam = rescale_case1(base, d)
    before = union_shadings(base).mass
    after = union_shadings(fam).mass
    ratio = after / before
    assert (d / r) / 8 <= ratio <= 8 * (d / r)


def test_case1_density_preserved_within_factor_two():
    r, d = 2.0**-4, 2.0**-8
    base = build_base(r, 0.5, 1.0, seed=4, chart=CHART_STEEP)
    fam = rescale_case1(base, d)
    lam_before = min(density(sh) for _, sh in base.entries)
    lam_after = min(density(sh) for _, sh in fam.entries)
    assert lam_before / 2 <= lam_after <= 2 * lam_before


def test_case1_inverse_recovers_cell_counts():
    # undo the squeeze: row j of the rescaled shading goes back to row j // q
    r, d = 2.0**-4, 2.0**-8
    q = round(r / d)
    base = build_base(r, 0.5, 1.0, seed=4, chart=CHART_STEEP)
    fam = rescale_case1(base, d)
    by_key = {(ln.a_q, ln.b_q): sh for ln, sh in base.entries}
    for ln, sh in fam.entries:
        orig = by_key[(ln.a_q, ln.b_q)]
        i, j = sh.cells.ij()
        back = Shading(orig.line, CellSet.from_ij(base.scale, i, j // q))
        assert orig.cells.n_cells / 2 <= back.cells.n_cells <= 2 * orig.cells.n_cells


def test_case1_segment_structure():
    # shadings become unions of full delta x r vertical blocks (possibly clipped)
    r, d = 2.0**-4, 2.0**-7
    q = round(r / d)
    base = build_base(r, 0.5, 1.0, seed=4, chart=CHART_STEEP)
    fam = rescale_case1(base, d)
    for _, sh in fam.entries:
        i, j = sh.cells.ij()
        # cells appear in vertical runs of length close to q within each column
        for col in np.unique(i):
            rows = np.sort(j[i == col])
            runs = np.split(rows, np.flatnonzero(np.diff(rows) != 1) + 1)
            assert max(len(rn) for rn in runs) >= q // 2


def test_case1_requires_steep_chart():
    base = build_base(2.0**-4, 0.5, 1.0, seed=4)  # shallow chart
    with pytest.raises(ConstructionError, match="steep"):
        rescale_case1(base, 2.0**-8)


def test_case1_requires_finer_target():
    base = build_base(2.0**-4, 0.5, 1.0, seed=4, chart=CHART_STEEP)
    with pytest.raises(ConstructionError):
        rescale_case1(base, 2.0**-4)


# -- case 2: bundles -----------------------------------------------------------------


def test_case2_t1_parallel_bundle():
    r, d = 2.0**-3, 2.0**-8
    base = build_base(r, 1.0, 0.5, seed=6)
    fam = bundle_case2(base, d, 1.0)
    g = gamma_sup(fam, 1.0).value
    assert 1.0 / 16.0 <= g <= 16.0
    # t=1 slopes stay parallel per parent: one da offset
    da, _ = bundle_offsets(round(r / d), 1.0)
    assert da.size == 1


def test_case2_counts_and_gamma():
    r, d = 2.0**-3, 2.0**-9
    t = 1.5
    base = build_base(r, t, 0.25, seed=6)
    fam = bundle_case2(base, d, t)
    target_n = d**-t
    assert target_n / 8 <= len(fam) <= 8 * target_n
    g = gamma_sup(fam, 0.5).value
    target_g = (r / d) ** 0.5
    assert target_g / 16 <= g <= 16 * target_g


def test_case2_coverage_of_parent_tube():
    # every cell of the parent r-tube lies within delta of some offset line
    r, d = 2.0**-3, 2.0**-7
    q = round(r / d)
    base = build_base(r, 1.5, 0.5, seed=6)
    da, db = bundle_offsets(q, 1.5)
    line, _ = base.entries[0]
    from tubelab import Scale, tube_cells

    fine = Scale(round(math.log2(1 / d)))
    parent_tube = tube_cells(line, r, cell_scale=fine)
    centers = parent_tube.centers()
    A, B = line.a_q * q, line.b_q * q
    covered = np.zeros(centers.shape[0], dtype=bool)
    for off_a in da:
        for off_b in db:
            a = (A + off_a) * d
            b = (B + off_b) * d
            dist = np.abs(a * centers[:, 0] - centers[:, 1] + b) / math.hypot(1.0, a)
            covered |= dist <= d + 1e-12
    assert covered.all()


def test_case2_double_counting_per_parent():
    r, d = 2.0**-3, 2.0**-8
    t = 1.5
    base = build_base(r, t, 0.5, seed=6)
    fam = bundle_case2(base, d, t)
    q = round(r / d)
    # group children by parent dual box
    for line, sh in base.entries:
        A, B = line.a_q * q, line.b_q * q
        total = sum(
            csh.mass
            for cl, csh in fam.entries
            if 0 <= cl.a_q - A < q and abs(cl.b_q - B) <= 2 * q
        )
        assert total >= sh.mass * 0.99


def test_case2_children_inside_parent_shading():
    r, d = 2.0**-3, 2.0**-8
    base = build_base(r, 1.5, 0.5, seed=6)
    fam = bundle_case2(base, d, 1.5)
    region = union_shadings(base)
    shift = round(math.log2(r / d))
    for cl, csh in fam.entries:
        i, j = csh.cells.ij()
        for ci, cj in zip(i[:5], j[:5]):
            assert region.contains_cell(int(ci) >> shift, int(cj) >> shift)


def _assert_same_family(got, want):
    assert len(got) == len(want)
    for (gl, gsh), (wl, wsh) in zip(got.entries, want.entries):
        assert gl == wl
        assert gsh.cells.codes.dtype == wsh.cells.codes.dtype
        assert np.array_equal(gsh.cells.codes, wsh.cells.codes)


def _same_outcome(parent, delta, t):
    try:
        want = reference_bundle_case2(parent, delta, t)
    except ConstructionError:
        with pytest.raises(ConstructionError):
            bundle_case2(parent, delta, t)
        return
    _assert_same_family(bundle_case2(parent, delta, t), want)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rk=st.integers(2, 4),
    m=st.integers(1, 4),
    t=st.one_of(st.sampled_from([1.0, 1.5, 2.0]), st.floats(1.0, 2.0)),
    s=st.sampled_from([0.05, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 10_000),
)
def test_case2_bundle_matches_reference(rk, m, t, s, seed):
    r = 2.0**-rk
    try:
        base = build_base(r, t, s, seed)
    except ConstructionError:
        return
    _same_outcome(base, r / 2**m, t)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    rk=st.integers(2, 5),
    m=st.integers(1, 3),
    n_lines=st.integers(1, 12),
    density=st.floats(0.05, 1.0),
    t=st.floats(1.0, 2.0),
    seed=st.integers(0, 10_000),
)
def test_case2_bundle_matches_reference_on_wide_shadings(rk, m, n_lines, density, t, seed):
    # parents whose cells sit up to 2 r off their lines, and neighbouring
    # parents that claim each other's (da, db) keys
    rng = np.random.default_rng(seed)
    narrow = random_family(rng, rk, min(n_lines, 2 ** rk), density)
    entries = []
    for line, sh in narrow.entries:
        tube = tube_cells(line, 2.0 * line.scale.delta)
        count = max(1, round(density * tube.n_cells))
        pick = np.sort(rng.choice(tube.n_cells, size=count, replace=False))
        entries.append((line, Shading(line, CellSet(line.scale, tube.codes[pick]))))
    for parent in (narrow, LineFamily(narrow.scale, tuple(entries))):
        _same_outcome(parent, 2.0 ** -(rk + m), t)


def test_case2_bundle_matches_reference_across_chunks(monkeypatch):
    # batches of a few dozen (key x column) entries hold two or three keys
    # each, so every parent's keys span several batches, and parents whose
    # bundles overlap meet keys that a batch before theirs has claimed
    base = build_base(2.0**-3, 1.5, 0.5, seed=6)
    delta, q = 2.0**-5, 4
    n = round(1 / delta)
    da, db = bundle_offsets(q, 1.5)
    reach = [
        {(ln.a_q * q + a, ln.b_q * q + b) for a in da.tolist() for b in db.tolist()
         if abs(ln.a_q * q + a) <= n and -n <= ln.b_q * q + b <= 2 * n}
        for ln in base.lines
    ]
    assert any(reach[i] & reach[j] for j in range(len(reach)) for i in range(j))
    chunks = []
    line_chunks = constructions._line_chunks

    def spy(sizes, limit):
        for lo, hi in line_chunks(sizes, limit):
            chunks.append((lo, hi))
            yield lo, hi

    monkeypatch.setattr(constructions, "_BUNDLE_CHUNK", 40)
    monkeypatch.setattr(constructions, "_line_chunks", spy)
    _same_outcome(base, delta, 1.5)
    assert len(chunks) > 4 * len(base)


@pytest.mark.parametrize("seed", [405, 406])
@pytest.mark.parametrize("k", [5, 6, 7, 8, 9])
def test_case2_children_are_the_lines_their_keys_make(seed, k):
    # bundle_case2 makes its children through LineFamily._from_arrays, from
    # frames computed on arrays; each must be the Line of its key, bit for bit
    spec = ConfigSpec(delta=2.0**-k, t=1.5, s=0.05, r=2.0**-4, seed=seed, kind="case2")
    fam = build_config(spec)
    frame = ("a", "b", "nrm", "u0", "u1")
    for child, sh in fam.entries:
        line = Line(fam.scale, child.chart, child.a_q, child.b_q)
        assert child == line and sh.line is child
        assert vars(child) == vars(line)
        assert [getattr(child, f).hex() for f in frame] == [getattr(line, f).hex() for f in frame]
        assert type(child.a_q) is int and type(child.b_q) is int


GENERATED = {
    "base-s": lambda: build_base(2.0**-5, 1.0, 1.0, seed=3),
    "base-t": lambda: build_base(2.0**-5, 1.5, 0.05, seed=405, chart=CHART_STEEP),
    "case1-base": lambda: build_base(2.0**-4, 0.5, 1.0, seed=3, chart=CHART_STEEP),
    **{  # k = 5..7 from r = 2^-4, and the seed-405 criterion-05 point at k = 10
        f"case2-{k}": functools.partial(
            build_config,
            ConfigSpec(delta=2.0**-k, t=1.5, s=0.05, r=2.0**-rk, seed=405, kind="case2"),
        )
        for rk, k in ((4, 5), (4, 6), (4, 7), (5, 10))
    },
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_family_keeps_the_frames_of_its_entries(name):
    # the table _from_arrays keeps is the one the entries' keys make, bit for
    # bit, and every line is the Line of its key
    fam = GENERATED[name]()
    kept = vars(fam)["_frames"]
    rebuilt = LineFamily(fam.scale, fam.entries)._frames
    assert kept is not rebuilt
    for f in _FrameTable._fields:
        assert getattr(kept, f).dtype == getattr(rebuilt, f).dtype, f
        assert getattr(kept, f).tobytes() == getattr(rebuilt, f).tobytes(), f
    frame = ("a", "b", "nrm", "u0", "u1")
    for line, sh in fam.entries:
        want = Line(fam.scale, line.chart, line.a_q, line.b_q)
        assert sh.line is line and vars(line) == vars(want)
        assert [getattr(line, f).hex() for f in frame] == [getattr(want, f).hex() for f in frame]


def test_batched_tube_check_raises_like_shading():
    # the seed-405 case-2 point; the bad child is the last
    fam = bundle_case2(build_base(2.0**-4, 1.5, 0.05, seed=405), 2.0**-7, 1.5)
    lines = [ln for ln, _ in fam.entries]
    cells = [sh.cells for _, sh in fam.entries]
    sc, n = fam.scale, fam.scale.n
    key = np.array([(ln.a_q, ln.b_q) for ln in lines]).T

    def check(cellsets):
        LineFamily._from_arrays(sc, CHART_SHALLOW, *key, [c.codes for c in cellsets])

    check(cells)
    i, j = cells[-1].ij()
    # 6 rows up or down: over 6 delta / hypot(1, a) - delta off, past 2 delta hypot(1, a)
    j = j.copy()
    j[0] = j[0] + 6 if j[0] + 6 < n else j[0] - 6
    bad = CellSet.from_ij(sc, i, j)
    with pytest.raises(GeometryError) as single:
        Shading(lines[-1], bad)
    with pytest.raises(GeometryError) as batched:
        check([*cells[:-1], bad])
    assert str(batched.value) == str(single.value) == "shading cell outside the tube"


def test_batched_code_check_raises_like_cellset():
    # y = 9/16 and y = 1/16: the first child's codes all sort past the
    # second's, and no order is asked between two children
    sc = Scale(4)
    key = np.array([0, 0]), np.array([9, 1])
    first = tube_cells(Line(sc, CHART_SHALLOW, 0, 9), sc.delta).codes[:3]
    second = tube_cells(Line(sc, CHART_SHALLOW, 0, 1), sc.delta).codes[[0, 20]]

    def check(child):
        LineFamily._from_arrays(sc, CHART_SHALLOW, *key, [first, child])

    check(second)
    for child in (second[::-1], second[[0, 0]]):  # unsorted, duplicated
        with pytest.raises(GridError) as single:
            CellSet(sc, child)
        with pytest.raises(GridError) as batched:
            check(child)
        assert str(batched.value) == str(single.value) == "cell codes not sorted or duplicated"
    with pytest.raises(GridError, match="out of bounds"):
        check(second + np.uint64(sc.n))  # column index past n - 1


def test_case2_validates_parameters():
    base = build_base(2.0**-3, 1.5, 0.5, seed=6)
    with pytest.raises(ConstructionError):
        bundle_case2(base, 2.0**-8, 0.5)  # t below 1
    with pytest.raises(ConstructionError):
        bundle_case2(base, 2.0**-3, 1.5)  # delta not finer


# -- random configurations ---------------------------------------------------------


def test_random_config_deterministic():
    a = random_config(2.0**-7, 1.0, 1.0, 0.5, seed=42)
    b = random_config(2.0**-7, 1.0, 1.0, 0.5, seed=42)
    assert json.dumps(a.to_json_obj(), sort_keys=True) == json.dumps(
        b.to_json_obj(), sort_keys=True
    )
    c = random_config(2.0**-7, 1.0, 1.0, 0.5, seed=43)
    assert json.dumps(a.to_json_obj(), sort_keys=True) != json.dumps(
        c.to_json_obj(), sort_keys=True
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    k=st.integers(2, 6),
    t=st.floats(0.2, 1.99),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_config_duals_match_reference(k, t, seed):
    delta = 2.0**-k
    fam = random_config(delta, t, 1.0, 0.5, seed, max_lines=200)
    expected = reference_random_duals(delta, t, seed, max_lines=200)
    assert [(ln.a_q, ln.b_q) for ln in fam.lines] == expected


def test_random_config_measured_constants():
    fam = random_config(2.0**-7, 1.5, 1.0, 0.5, seed=1)
    kt = katz_tao_constant(fam.dual_points(), 1.5, delta=2.0**-7)
    assert kt.constant <= 32.0
    lams = [density(sh) for _, sh in fam.entries]
    assert 0.2 <= float(np.median(lams)) <= 0.8


def test_random_config_small_t_gives_few_lines():
    fam = random_config(2.0**-6, 0.1, 1.0, 1.0, seed=2)
    assert 1 <= len(fam) <= 4


def test_random_config_respects_max_lines():
    fam = random_config(2.0**-7, 1.9, 1.0, 0.2, seed=3, max_lines=64)
    assert len(fam) <= 64


def test_random_config_validates():
    with pytest.raises(ConstructionError):
        random_config(2.0**-7, 1.0, 1.0, 0.0, seed=0)  # lambda out of range
    with pytest.raises(ConstructionError):
        random_config(0.3, 1.0, 1.0, 0.5, seed=0)  # non-dyadic delta


# -- named configs and spec dispatch ---------------------------------------------------


def test_bush_and_grid_configs():
    bush = bush_config(2.0**-7, m=16)
    n = bush.scale.n
    assert len(bush) >= 8
    from tubelab import multiplicity

    assert len(multiplicity(bush, (n // 2, n // 2))) == len(bush)
    grid = grid_config(2.0**-6)
    assert len(grid) == 256


def test_config_spec_validation_and_dispatch():
    spec = ConfigSpec(delta=2.0**-7, t=1.0, s=1.0, r=2.0**-3, seed=5, kind="bush")
    fam = build_config(spec)
    assert len(fam) > 4
    with pytest.raises(ConstructionError):
        ConfigSpec(delta=2.0**-6, t=2.5, kind="random")
    with pytest.raises(ConstructionError):
        ConfigSpec(delta=2.0**-6, t=1.0, kind="nope")
