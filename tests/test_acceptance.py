"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line.  Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from tubelab import (
    CellSet,
    Line,
    Scale,
    ScaleLadder,
    Shading,
    covering_count,
    dual_line,
    dual_point,
    gamma,
    is_uniform,
    multiscale_decompose,
    run_cli,
    sweep,
    tube_cells,
    two_ends_constant,
    two_ends_scale,
    uniformize,
    verify_decomposition,
    verify_theorem,
)
from tubelab.constructions import ConfigSpec, random_config
from tubelab.geometry import CHART_SHALLOW

from conftest import (
    check_rich_point_postconditions,
    minimal_ball_cover,
    random_cellset,
    random_family,
    random_line,
    random_shading,
)

ARTIFACTS = Path(__file__).parent / "acceptance_artifacts"


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _random_profile(rng: np.random.Generator, n: int) -> np.ndarray:
    dx = 1.0 / (n - 1)
    inc = rng.uniform(0.0, dx, size=n - 1)
    inc[rng.random(n - 1) < 0.3] = 0.0
    return np.minimum(np.concatenate([[0.0], np.cumsum(inc)]), 1.0)


def test_criterion_01_multiscale_decomposition():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(200):
        ys = _random_profile(rng, int(rng.integers(16, 400)))
        for eta in (0.05, 0.1, 0.2):
            t0 = time.perf_counter()
            part = multiscale_decompose(ys, eta)
            took = time.perf_counter() - t0
            worst = max(worst, took)
            ok, msg = verify_decomposition(ys, eta, part)
            assert ok, f"trial {trial} eta {eta}: {msg}"
            assert took < 0.05, f"decomposition took {took * 1e3:.1f} ms"
    _report(1, "multiscale decomposition, 200 profiles x 3 etas", True, f"max {worst * 1e3:.2f} ms")


def test_criterion_02_uniformization():
    rng = np.random.default_rng(102)
    lad = ScaleLadder(m=2, N=4)
    t0 = time.perf_counter()
    for trial in range(50):
        E = random_cellset(rng, 8, float(rng.uniform(0.02, 0.8)))
        out, err, trace = uniformize(E, lad)
        assert is_uniform(out, lad, 2.0), f"trial {trial}: error constant {err}"
        kept = out.n_cells / E.n_cells
        assert kept >= trace.lower_bound(), f"trial {trial}: kept {kept} below trace bound"
    took = time.perf_counter() - t0
    assert took < 5.0
    _report(2, "uniformization with per-level C=2 on 50 random sets", True, f"{took:.2f} s")


def test_criterion_03_gamma_at_t_one():
    rng = np.random.default_rng(103)
    lo, hi = math.inf, 0.0
    for trial in range(100):
        line = random_line(rng, Scale(10))
        sh = random_shading(rng, line, float(rng.uniform(0.02, 1.0)))
        val = gamma(sh, 1.0).value
        lo, hi = min(lo, val), max(hi, val)
        assert 1.0 / 8.0 <= val <= 8.0, f"trial {trial}: gamma {val}"
    _report(3, "gamma(Y, 1) within [1/8, 8] on 100 random shadings", True, f"range [{lo:.3g}, {hi:.3g}]")


def test_criterion_04_sharpness_case1():
    spec = ConfigSpec(delta=2.0**-8, t=0.5, s=1.0, r=2.0**-4, seed=404, kind="case1")
    deltas = [2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12]
    t0 = time.perf_counter()
    res = sweep(spec, deltas, 0.1, 0.05)
    took = time.perf_counter() - t0
    assert not res.partial
    for d, rep in res.points:
        target = (spec.r / d) ** 0.5
        assert target / 16 <= rep.gamma_star <= 16 * target, f"gamma off at delta={d}"
    assert abs(res.fitted_exponent) <= 0.25, f"exponent {res.fitted_exponent}"
    assert took < 60.0
    _report(
        4,
        "case-1 sharpness sweep (t=1/2, s=1)",
        True,
        f"exponent {res.fitted_exponent:+.3f}, {took:.1f} s",
    )


@pytest.mark.slow
def test_criterion_05_sharpness_case2():
    spec = ConfigSpec(delta=2.0**-8, t=1.5, s=0.05, r=2.0**-5, seed=405, kind="case2")
    deltas = [2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12]
    t0 = time.perf_counter()
    res = sweep(spec, deltas, 0.1, 0.05)
    took = time.perf_counter() - t0
    assert not res.partial
    for d, rep in res.points:
        target = (spec.r / d) ** 0.5
        assert target / 16 <= rep.gamma_star <= 16 * target, f"gamma off at delta={d}"
    assert abs(res.fitted_exponent) <= 0.25, f"exponent {res.fitted_exponent}"
    _report(
        5,
        "case-2 sharpness sweep (t=3/2)",
        True,
        f"exponent {res.fitted_exponent:+.3f}, {took:.1f} s",
    )


@pytest.mark.slow
def test_criterion_06_theorem_on_random_corpus():
    checked = 0
    passed_hypotheses = 0
    violations = []
    seeds = (1, 2, 3, 4)
    for t in (0.5, 1.0, 1.5):
        for lam in (0.1, 0.5, 1.0):
            for d in (2.0**-6, 2.0**-8, 2.0**-9):
                for seed in seeds:
                    fam = random_config(d, t, 1.0, lam, seed=seed, max_lines=512)
                    rep = verify_theorem(fam, t, 0.1, 0.05)
                    checked += 1
                    if rep.flags:
                        continue
                    passed_hypotheses += 1
                    if rep.ratio < d**0.3:
                        violations.append((t, lam, d, seed, rep))
    if violations:
        ARTIFACTS.mkdir(exist_ok=True)
        for t, lam, d, seed, rep in violations:
            path = ARTIFACTS / f"counterexample_crit6_t{t}_lam{lam}_k{round(-math.log2(d))}_s{seed}.json"
            path.write_text(json.dumps(rep.to_json_obj(), sort_keys=True, indent=2))
    assert passed_hypotheses >= 100, f"only {passed_hypotheses} families passed hypotheses"
    _report(
        6,
        "main inequality ratio >= delta^0.3 on the random corpus",
        not violations,
        f"{passed_hypotheses}/{checked} hypothesis-passing families"
        + (f", {len(violations)} violations written to {ARTIFACTS}" if violations else ""),
    )


@pytest.mark.filterwarnings("ignore:two-ends reduction")
def test_criterion_07_two_ends_reduction_scale():
    rng = np.random.default_rng(107)
    sc = Scale(8)
    checked = 0
    while checked < 50:
        line = random_line(rng, sc)
        sh = random_shading(rng, line, float(rng.uniform(0.05, 1.0)))
        eps1 = float(rng.choice([0.3, 0.5, 0.7]))
        eps2 = eps1 / 2.0
        C = max(two_ends_constant(sh, eps1, eps2), 1.0)
        v = eps2 / 2.0
        rho = two_ends_scale(sh, v, C)
        assert rho >= sc.delta**eps1 - 1e-12, f"rho {rho} below delta^{eps1}"
        checked += 1
    _report(7, "two-ends reduction scale >= delta^eps1 on 50 shadings", True)


def test_criterion_08_rich_point_refinement():
    rng = np.random.default_rng(108)
    for trial in range(50):
        fam = random_family(
            rng, 7, int(rng.integers(2, 20)), density=float(rng.uniform(0.15, 0.9))
        )
        check_rich_point_postconditions(fam)
    _report(8, "rich-point refinement postconditions on 50 random families", True)


def test_criterion_09_covering_oracle():
    rng = np.random.default_rng(109)
    sc = Scale(4)
    t0 = time.perf_counter()
    for trial in range(500):
        m = int(rng.integers(1, 13))
        cells = set()
        while len(cells) < m:
            cells.add((int(rng.integers(16)), int(rng.integers(16))))
        cells = sorted(cells)
        E = CellSet.from_cells(sc, cells)
        rho = float(rng.choice([2.0**-2, 2.0**-3]))
        dyadic = covering_count(E, rho)
        minimal = minimal_ball_cover(cells, sc.delta, rho)
        assert minimal <= dyadic <= 9 * minimal, (
            f"trial {trial}: dyadic {dyadic}, minimal {minimal}, rho {rho}, cells {cells}"
        )
    _report(9, "dyadic counting within factor 9 of minimal ball cover, 500 sets", True, f"{time.perf_counter() - t0:.1f} s")


def test_criterion_10_duality():
    rng = np.random.default_rng(110)
    sc = Scale(10)
    n = sc.n
    # bit-exact double roundtrip on 10^5 random quantized lines
    for _ in range(100_000):
        a_q = int(rng.integers(-n, n + 1))
        b_q = int(rng.integers(0, n))
        line = Line(sc, CHART_SHALLOW, a_q, b_q)
        back = dual_line(dual_point(dual_line(dual_point(line), sc)), sc)
        assert (back.a_q, back.b_q, back.chart) == (a_q, b_q, line.chart)
    # incidence-distance distortion on 10^4 random (point, line) pairs
    worst = 1.0
    for _ in range(10_000):
        line = random_line(rng, sc, chart=CHART_SHALLOW)
        p = (int(rng.integers(0, n)) * sc.delta, int(rng.integers(0, n)) * sc.delta)
        d1 = line.distance(*p)
        d2 = dual_line(p, sc).distance(*dual_point(line))
        if d1 < 1e-12 or d2 < 1e-12:
            assert d1 < 1e-9 and d2 < 1e-9
            continue
        ratio = max(d1 / d2, d2 / d1)
        worst = max(worst, ratio)
        assert ratio <= 4.0
    _report(10, "duality roundtrip bit-exact and distortion <= 4", True, f"worst distortion {worst:.3f}")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"kind": "random", "delta": 2.0**-7, "t": 1.5, "s": 1.0, "lambda": 0.4, "seed": 2026}
        )
    )
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
    same_json = (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    same_csv = (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()
    _report(11, "identical config + seed produce byte-identical reports", same_json and same_csv)
