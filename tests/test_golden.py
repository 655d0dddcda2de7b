"""Golden reports: today's outputs of small CLI runs, pinned byte for byte.

The case-2 sweep runs the bundle build and gamma on many short shadings; the
random measures pin the gamma and Katz-Tao witnesses and the cap-16 greedy
of random_config; the base generate pins the cap-8 greedy of build_base, the
2-D Frostman constant and the density; the case-1 generate pins the steep
chart and tube_cells(columns=...); the grid measure pins full tubes; the
bush measure pins lambda_min and two_ends_max on full tubes at t = 0.5, and
the case-1 measure pins them on steep-chart shadings at k = 9.  The
corollary has no CLI path, so its reports on two fixed families are pinned
as JSON.  A change that moves these bytes must regenerate tests/golden/ and say
which numbers moved and why.
"""

import json
from pathlib import Path

import pytest

from tubelab import grid_config, random_config, run_cli, verify_corollary

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "case2_sweep": [
        "sweep", "--kind", "case2", "--t", "1.5", "--s", "0.05", "--r", "2^-4",
        "--deltas", "2^-5,2^-6,2^-7", "--seed", "405",
    ],
    "random_measure": ["measure", "--kind", "random", "--delta", "2^-6", "--t", "1.0", "--seed", "3"],
    "random_measure_t15": [
        "measure", "--kind", "random", "--delta", "2^-5", "--t", "1.5", "--seed", "11",
    ],
    "grid_measure": ["measure", "--kind", "grid", "--delta", "2^-5", "--t", "1.0"],
    "bush_measure": ["measure", "--kind", "bush", "--delta", "2^-6", "--t", "0.5"],
    "case1_measure": [
        "measure", "--kind", "case1", "--r", "2^-4", "--delta", "2^-9", "--t", "1.5",
        "--s", "0.5", "--seed", "5",
    ],
    "base_generate": [
        "generate", "--kind", "base", "--r", "2^-4", "--t", "1.9", "--s", "0.5", "--seed", "7",
    ],
    "case1_generate": [
        "generate", "--kind", "case1", "--r", "2^-4", "--delta", "2^-6", "--t", "1.5",
        "--s", "0.5", "--seed", "5",
    ],
}


def corollary_report_text() -> str:
    """Corollary reports on a random family (no flags) and on a grid family at
    t = 0.1, which raises the Katz-Tao flag and the shading flag in turn."""
    reps = [
        verify_corollary(random_config(2.0**-5, 1.2, 1.0, 0.6, seed=4), 1.2, 0.3, 0.1),
        verify_corollary(grid_config(2.0**-5, side=8), 0.1, 0.3, 0.1),
    ]
    return json.dumps([rep.to_json_obj() for rep in reps], sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_report_bytes(name, tmp_path):
    assert run_cli([*RUNS[name], "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname


def test_golden_corollary_report():
    expected = (GOLDEN / "corollary" / "report.json").read_text(encoding="utf-8")
    assert corollary_report_text() == expected
