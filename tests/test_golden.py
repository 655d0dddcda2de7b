"""Golden reports: today's outputs of two small CLI runs, pinned byte for byte.

The case-2 sweep runs the bundle build and gamma on many short shadings; the
random measure pins the gamma and Katz-Tao witnesses.  A change that moves
these bytes must regenerate tests/golden/ and say which numbers moved and why.
"""

from pathlib import Path

import pytest

from tubelab import run_cli

GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "case2_sweep": [
        "sweep", "--kind", "case2", "--t", "1.5", "--s", "0.05", "--r", "2^-4",
        "--deltas", "2^-5,2^-6,2^-7", "--seed", "405",
    ],
    "random_measure": ["measure", "--kind", "random", "--delta", "2^-6", "--t", "1.0", "--seed", "3"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_report_bytes(name, tmp_path):
    assert run_cli([*RUNS[name], "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname
