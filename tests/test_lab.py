import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tubelab import (
    LabError,
    Line,
    LineFamily,
    Scale,
    Shading,
    fit_exponent,
    run_cli,
    sweep,
    tube_cells,
    verify_corollary,
    verify_theorem,
)
from tubelab import lab
from tubelab.constructions import ConfigSpec
from tubelab.lab import CSV_COLUMNS

from conftest import random_family


def _single_line_family(k: int) -> LineFamily:
    sc = Scale(k)
    line = Line(sc, "s", 0, sc.n // 2)
    return LineFamily(sc, ((line, Shading(line, tube_cells(line, sc.delta))),))


def test_verify_theorem_single_line_t1():
    fam = _single_line_family(8)
    eps1 = 0.4
    rep = verify_theorem(fam, 1.0, eps1, 0.2)
    # lhs = sum of shadings, lambda = 1, gamma = Theta(1):
    # ratio should sit within a factor 8 of delta^(-eps1/2)
    walk = rep.delta ** (-eps1 / 2.0)
    assert walk / 8 <= rep.ratio <= 8 * walk
    assert rep.lam == 1.0
    assert not rep.flags


def test_verify_theorem_validates_inputs():
    fam = _single_line_family(6)
    with pytest.raises(LabError):
        verify_theorem(fam, 2.5, 0.3, 0.1)
    with pytest.raises(LabError):
        verify_theorem(fam, 1.0, 0.1, 0.3)
    with pytest.raises(LabError):
        verify_theorem(LineFamily(fam.scale, ()), 1.0, 0.3, 0.1)


def test_rhs_recompute_bit_exact():
    rng = np.random.default_rng(41)
    fam = random_family(rng, 7, 6, density=0.5)
    for rep in (verify_theorem(fam, 0.7, 0.3, 0.1), verify_corollary(fam, 0.7, 0.3, 0.1)):
        assert rep.recompute_rhs() == rep.rhs_core


def test_corollary_ratio_identity():
    rng = np.random.default_rng(42)
    fam = random_family(rng, 7, 6, density=0.5)
    thm = verify_theorem(fam, 0.7, 0.3, 0.1)
    cor = verify_corollary(fam, 0.7, 0.3, 0.1)
    # dropping the gamma^(-1/2) factor multiplies the ratio by gamma^(-1/2)
    assert math.isclose(cor.ratio, thm.ratio / math.sqrt(thm.gamma_star), rel_tol=1e-12)
    assert cor.shading_kt_const > 0


def test_corollary_flags_one_cell_shadings_pass():
    from tubelab import CellSet

    sc = Scale(6)
    line = Line(sc, "s", 0, sc.n // 2)
    sh = Shading(line, CellSet.from_cells(sc, [(5, sc.n // 2)]))
    fam = LineFamily(sc, ((line, sh),))
    rep = verify_corollary(fam, 1.0, 0.4, 0.2)
    assert rep.shading_kt_const == 1.0


def test_corollary_t1_reduces_to_classic_numerology():
    # at t=1 the corollary rhs is exactly delta^(eps1/2) * lambda^(1/2) * sum
    fam = _single_line_family(7)
    rep = verify_corollary(fam, 1.0, 0.4, 0.2)
    expected = rep.delta ** (1.0 * 0.4 / 2.0) * math.sqrt(rep.lam) * rep.delta**0.0 * rep.sum_shading
    assert rep.rhs_core == expected


def test_corollary_flags_case2_segment_shadings():
    # bundle shadings are delta x r strips: far from Katz-Tao (delta, t*) sets,
    # so the shading hypothesis is flagged rather than silently assumed
    from tubelab import build_base, bundle_case2

    base = build_base(2.0**-3, 1.5, 0.5, seed=6)
    fam = bundle_case2(base, 2.0**-8, 1.5)
    rep = verify_corollary(fam, 1.5, 0.3, 0.1)
    assert rep.shading_kt_const > 32.0
    assert any("shading" in f for f in rep.flags)


# -- exponent fits -------------------------------------------------------------------


def test_fit_exponent_trivials():
    deltas = [2.0**-6, 2.0**-8, 2.0**-10, 2.0**-12]
    slope, resid = fit_exponent(deltas, [3.7] * 4)
    assert abs(slope) < 1e-12 and resid < 1e-12
    slope, _ = fit_exponent(deltas, deltas)
    assert math.isclose(slope, 1.0)
    with pytest.raises(LabError):
        fit_exponent(deltas[:2], [1.0, 2.0])


def test_fit_exponent_order_invariant():
    deltas = [2.0**-6, 2.0**-8, 2.0**-10]
    ratios = [1.0, 1.7, 2.9]
    a = fit_exponent(deltas, ratios)
    b = fit_exponent(deltas[::-1], ratios[::-1])
    assert a == b


def test_sweep_partial_on_infeasible_delta():
    spec = ConfigSpec(delta=2.0**-8, t=0.5, s=1.0, r=2.0**-4, seed=1, kind="case1")
    res = sweep(spec, [2.0**-4, 2.0**-6, 2.0**-7, 2.0**-8], 0.3, 0.1)
    assert res.partial  # 2^-4 is not finer than r
    assert len(res.points) == 3
    assert len(res.failures) == 1


def test_sweep_needs_three_deltas():
    spec = ConfigSpec(delta=2.0**-8, t=1.0, kind="bush")
    with pytest.raises(LabError):
        sweep(spec, [2.0**-6, 2.0**-8], 0.3, 0.1)
    # a repeated delta is one scale: this used to fail with an empty reason
    with pytest.raises(LabError, match="at least 3 distinct deltas"):
        sweep(spec, [2.0**-5, 2.0**-5, 2.0**-6], 0.3, 0.1)


def test_sweep_fit_reproducible_from_stored_points():
    spec = ConfigSpec(delta=2.0**-8, t=1.0, s=1.0, seed=4, kind="bush")
    res = sweep(spec, [2.0**-6, 2.0**-7, 2.0**-8], 0.3, 0.1)
    slope, resid = fit_exponent([d for d, _ in res.points], [r.ratio for _, r in res.points])
    assert slope == res.fitted_exponent and resid == res.residual


# -- CLI ------------------------------------------------------------------------------


def _write_cfg(tmp_path: Path, **kw) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kw))
    return str(path)


def test_cli_verify_roundtrip(tmp_path):
    cfg = _write_cfg(
        tmp_path, kind="random", delta=2.0**-6, t=1.0, s=1.0, seed=7, **{"lambda": 0.5}
    )
    out = tmp_path / "out"
    code = run_cli(["verify", "--config", cfg, "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["report"]["ratio"] > 0
    rows = list(csv.reader((out / "table.csv").open()))
    assert rows[0] == CSV_COLUMNS.split(",")
    assert len(rows) == 2


def test_cli_generate_and_verify_family_input(tmp_path):
    cfg = _write_cfg(tmp_path, kind="bush", delta=2.0**-6, t=1.0)
    gen = tmp_path / "gen"
    assert run_cli(["generate", "--config", cfg, "--out", str(gen)]) == 0
    ver = tmp_path / "ver"
    code = run_cli(
        [
            "verify",
            "--config",
            cfg,
            "--family",
            str(gen / "family.json"),
            "--out",
            str(ver),
        ]
    )
    assert code == 0


def test_cli_measure_rejects_family_cells_past_the_grid(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, kind="bush", delta=2.0**-6, t=1.0)
    gen = tmp_path / "gen"
    assert run_cli(["generate", "--config", cfg, "--out", str(gen)]) == 0
    obj = json.loads((gen / "family.json").read_text())
    i, j = obj["lines"][0]["cells"][0]
    obj["lines"][0]["cells"][0] = [i + 2**32, j]  # 32-bit codes would wrap this onto (i, j)
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps(obj))
    argv = ["measure", "--config", cfg, "--family", str(bad), "--out", str(tmp_path / "m")]
    assert run_cli(argv) == 2
    assert "out of bounds" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["k", "cell"])
def test_cli_measure_rejects_non_integer_family_fields(tmp_path, capsys, field):
    cfg = _write_cfg(tmp_path, kind="bush", delta=2.0**-6, t=1.0)
    gen = tmp_path / "gen"
    assert run_cli(["generate", "--config", cfg, "--out", str(gen)]) == 0
    obj = json.loads((gen / "family.json").read_text())
    if field == "k":
        obj["k"] = "six"
    else:
        obj["lines"][0]["cells"][0] = ["x", 1]
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps(obj))
    argv = ["measure", "--config", cfg, "--family", str(bad), "--out", str(tmp_path / "m")]
    assert run_cli(argv) == 2
    assert "malformed family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 4.9),
        ("k", True),
        ("a_q", 0.5),
        ("a_q", False),
        ("b_q", 8.7),
        ("b_q", 8.0),
        ("cell", [1.9, 8.2]),
        ("cell", [1, True]),
    ],
)
def test_cli_measure_rejects_family_values_that_are_no_json_integers(
    tmp_path, capsys, field, value
):
    # int() would load k = 4.9 as 4, a_q = 0.5 as 0 and true as 1
    cfg = _write_cfg(tmp_path, kind="bush", delta=2.0**-6, t=1.0)
    rec = {"chart": "s", "a_q": 0, "b_q": 8, "cells": [[1, 8]]}
    obj = {"k": 4, "lines": [rec]}
    LineFamily.from_json_obj(obj)  # loads as it stands
    if field == "k":
        obj["k"] = value
    elif field == "cell":
        rec["cells"] = [value]
    else:
        rec[field] = value
    bad = tmp_path / "bad_family.json"
    bad.write_text(json.dumps(obj))
    argv = ["measure", "--config", cfg, "--family", str(bad), "--out", str(tmp_path / "m")]
    assert run_cli(argv) == 2
    assert "malformed family" in capsys.readouterr().err


@pytest.mark.parametrize("cell", [[1], [1, 8, 0]])  # (1, 8) lies in the line's tube
def test_cli_measure_rejects_family_cells_that_are_no_pairs(tmp_path, capsys, cell):
    cfg = _write_cfg(tmp_path, kind="bush", delta=2.0**-6, t=1.0)
    bad = tmp_path / "bad_family.json"
    rec = {"chart": "s", "a_q": 0, "b_q": 8, "cells": [cell]}
    bad.write_text(json.dumps({"k": 4, "lines": [rec]}))
    argv = ["measure", "--config", cfg, "--family", str(bad), "--out", str(tmp_path / "m")]
    assert run_cli(argv) == 2
    assert "malformed family" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("generate", {"kind": "bush", "delta": 2.0**-5, "t": "abc"}, "'t'"),
        ("measure", {"kind": "bush", "delta": 2.0**-5, "seed": "x"}, "'seed'"),
        ("verify", {"kind": "bush", "delta": 2.0**-5, "eps1": "abc"}, "'eps1'"),
        ("sweep", {"kind": "case1", "deltas": "2^-5,abc,2^-7"}, "'deltas'"),
        ("sweep", {"kind": "case1", "deltas": [2.0**-5, "abc", 2.0**-7]}, "'deltas'"),
        ("decompose", {"f": ["a", 1], "eta": 0.1}, "'f'"),
        ("decompose", {"f": [0.0, 0.5, 1.0], "eta": "x"}, "'eta'"),
    ],
)
def test_cli_rejects_malformed_config_values(tmp_path, capsys, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err and key in err


def test_cli_config_scales_accept_power_strings(tmp_path):
    # README: config delta and r take "2^-k" strings, as the flags do
    runs = []
    for delta, r in (("2^-6", "2^-3"), (2.0**-6, 2.0**-3)):
        cfg = _write_cfg(tmp_path, kind="base", delta=delta, r=r, t=1.0, seed=1)
        out = tmp_path / f"g{len(runs)}"
        assert run_cli(["generate", "--config", cfg, "--out", str(out)]) == 0
        runs.append((out / "report.json").read_bytes())
    assert runs[0] == runs[1]


def test_cli_rejects_malformed_deltas_option(tmp_path, capsys):
    argv = ["sweep", "--kind", "case1", "--deltas", "2^-5,abc,2^-7", "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    assert "--deltas is malformed" in capsys.readouterr().err


def test_cli_measure_and_decompose(tmp_path):
    cfg = _write_cfg(tmp_path, kind="random", delta=2.0**-6, t=1.0, seed=3)
    out = tmp_path / "m"
    assert run_cli(["measure", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert "gamma_star" in rep and "katz_tao_constant" in rep

    dcfg = _write_cfg(tmp_path, f=list(np.linspace(0, 1, 33)), eta=0.1)
    dout = tmp_path / "d"
    assert run_cli(["decompose", "--config", dcfg, "--out", str(dout)]) == 0
    rep = json.loads((dout / "report.json").read_text())
    assert rep["verified"] is True


def test_cli_sweep_and_exit_codes(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        kind="case1",
        t=0.5,
        s=1.0,
        r=2.0**-4,
        seed=2,
        deltas=[2.0**-6, 2.0**-7, 2.0**-8],
    )
    out = tmp_path / "s"
    assert run_cli(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert "fitted_exponent" in rep and len(rep["points"]) == 3

    # an infeasible delta in the list: partial result, exit 1
    cfg_bad = _write_cfg(
        tmp_path,
        kind="case1",
        t=0.5,
        s=1.0,
        r=2.0**-4,
        seed=2,
        deltas=[2.0**-2, 2.0**-6, 2.0**-7, 2.0**-8],
    )
    assert run_cli(["sweep", "--config", cfg_bad, "--out", str(tmp_path / "s2")]) == 1


def test_cli_error_paths(tmp_path):
    assert run_cli(["frobnicate"]) == 2
    missing = str(tmp_path / "nope.json")
    assert run_cli(["verify", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    nolist = _write_cfg(tmp_path, kind="bush", delta=2.0**-6, t=1.0)
    assert run_cli(["sweep", "--config", nolist, "--out", str(tmp_path)]) == 2


def test_cli_deterministic_reports(tmp_path):
    cfg = _write_cfg(
        tmp_path, kind="random", delta=2.0**-6, t=1.5, s=1.0, seed=99, **{"lambda": 0.3}
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert run_cli(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "table.csv").read_bytes() == (out2 / "table.csv").read_bytes()


def test_cli_flag_overrides(tmp_path):
    out = tmp_path / "o"
    code = run_cli(
        [
            "verify",
            "--kind",
            "bush",
            "--delta",
            "2^-6",
            "--t",
            "1.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["spec"]["kind"] == "bush"


# Each subcommand's flags, as README "CLI" lists them: 51 of the 75 pairs.
SPEC_FLAGS = ("config", "out", "seed", "t", "s", "r", "lambda", "kind", "max-lines")
FAMILY_FLAGS = SPEC_FLAGS + ("delta", "family", "eps1", "eps2")
COMMAND_FLAGS = {
    "generate": SPEC_FLAGS + ("delta",),
    "measure": FAMILY_FLAGS,
    "verify": FAMILY_FLAGS,
    "sweep": SPEC_FLAGS + ("deltas", "eps1", "eps2"),
    "decompose": ("config", "out", "eta"),
}
FLAG_VALUES = {
    "config": "c.json", "out": "o", "seed": "3", "delta": "2^-6", "deltas": "2^-5,2^-6,2^-7",
    "t": "1.0", "s": "0.5", "r": "2^-4", "lambda": "0.5", "eps1": "0.3", "eps2": "0.1",
    "kind": "bush", "max-lines": "8", "family": "f.json", "eta": "0.1",
}  # fmt: skip


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c in sorted(COMMAND_FLAGS) for f in sorted(FLAG_VALUES)]
)
def test_cli_subcommand_takes_only_the_flags_it_reads(tmp_path, capsys, command, flag):
    argv = [command, f"--{flag}", FLAG_VALUES[flag]]
    if flag in COMMAND_FLAGS[command]:
        args = lab._parser().parse_args(argv)
        assert args.command == command
        assert getattr(args, flag.replace("-", "_")) is not None
    else:
        assert run_cli(argv + ["--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_cli_sweep_spec_delta_is_its_finest_delta(tmp_path):
    # r = 2^-9 is finer than the default delta 2^-8 but not than the ladder
    out = tmp_path / "s"
    argv = ["sweep", "--kind", "bush", "--t", "1.0", "--r", "2^-9", "--deltas", "2^-9,2^-10,2^-11"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["spec"]["delta"] == 2.0**-11
    assert [p["delta"] for p in rep["points"]] == [2.0**-9, 2.0**-10, 2.0**-11]


def test_cli_measure_and_verify_share_measurements(tmp_path):
    argv = ["--kind", "random", "--delta", "2^-6", "--t", "1.3", "--seed", "8"]
    m, v = tmp_path / "m", tmp_path / "v"
    assert run_cli(["measure", *argv, "--out", str(m)]) == 0
    assert run_cli(["verify", *argv, "--out", str(v)]) in (0, 1)
    got = json.loads((m / "report.json").read_text())
    want = json.loads((v / "report.json").read_text())["report"]
    assert got["lambda_min"] == want["lambda"]
    assert got["gamma_star"]["constant"] == want["gamma_star"]
    assert got["katz_tao_constant"]["constant"] == want["kt_const"]
    assert got["two_ends_max"] == want["te_const"]


def _run_module_cli(tmp_path, module):
    import subprocess
    import sys

    import tubelab

    env = {"PYTHONPATH": str(Path(tubelab.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", module, "generate", "--kind", "bush", "--delta", "2^-5"]
    proc = subprocess.run(argv + ["--out", str(tmp_path)], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""  # no runpy warning: the module runs once
    assert (tmp_path / "family.json").exists()


def test_python_m_tubelab_runs_the_cli(tmp_path):
    _run_module_cli(tmp_path, "tubelab")


def test_python_m_tubelab_lab_runs_the_cli(tmp_path):
    _run_module_cli(tmp_path, "tubelab.lab")


@pytest.mark.parametrize("delta", ["0", "2^-2000", "-1"])
def test_cli_rejects_delta_outside_unit_interval(tmp_path, capsys, delta):
    # 2^-2000 underflows to 0.0
    argv = ["generate", "--kind", "bush", "--delta", delta, "--out", str(tmp_path)]
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta ") and "outside (0, 1]" in err
    assert not (tmp_path / "family.json").exists()


def test_cli_verify_flags_a_hypothesis_with_exit_1(tmp_path, capsys):
    argv = ["verify", "--kind", "grid", "--delta", "2^-5", "--t", "0.5"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 1
    assert "katz_tao_constant 64 exceeds 32.0" in capsys.readouterr().err
    assert json.loads((tmp_path / "report.json").read_text())["report"]["flags"]
