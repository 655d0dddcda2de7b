"""The two benchmark workloads: inputs made from a seed, the calls into
tubelab's public entry points, and the checks on their outputs.

A workload is built once per run from its seed, then its `calls()` run as
one pass, possibly several times.  Each call is timed by the worker; a call
yields one or more ops (a ladder call yields one op per sweep point).  Checks
never run inside a timed region: structure postconditions run right after
their call, file-based checks run once all passes are done.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import tubelab
from tubelab import constructions, geometry, lab, measures, structure
from tubelab.geometry import CHART_SHALLOW, CHART_STEEP

DEFAULT_SEED = 405


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Call:
    """One timed call into tubelab."""

    label: str
    k: int
    run: Callable[[], object]
    cells: int = 0  # shading cells the call processes, when known up front
    n_ops: int = 1
    index: int = 0


@dataclass
class Op:
    label: str
    k: int
    latency: float
    cells: int
    error: str | None = None
    stages: tuple[float, ...] = ()  # consecutive parts of the latency, when timed


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def distinct_count(codes: np.ndarray) -> int:
    """Naive distinct count of cell codes by a full sort.

    np.unique would do, but on numpy 2.x it is slower than the program's
    own union for large uint64 inputs, and this check runs in every run.
    """
    if codes.size == 0:
        return 0
    s = np.sort(codes)
    return 1 + int(np.count_nonzero(s[1:] != s[:-1]))


def cells_of(mass: float, k: int) -> int:
    """Exact cell count behind a reported mass (count * 4^-k is exact)."""
    return round(mass * 4.0**k)


def check_theorem_fields(rep: dict) -> None:
    """ratio == lhs/rhs_core, with rhs_core recomputed through lab's path."""
    rhs = lab.rhs_core_value(
        rep["delta"], rep["t"], rep["eps1"], rep["lambda"], rep["gamma_star"], rep["sum_shading"]
    )
    require(rep["rhs_core"] == rhs, f"rhs_core {rep['rhs_core']!r} != recomputed {rhs!r}")
    require(rep["ratio"] == rep["lhs_mass"] / rhs, f"ratio {rep['ratio']!r} != lhs/rhs_core")


class Workload:
    name = ""

    def __init__(self, seed: int, out: Path, reference: dict) -> None:
        self.seed = seed
        self.out = out
        pinned = seed == DEFAULT_SEED
        self.reference = (reference.get(self.name) or {}) if pinned else {}

    def calls(self, pass_no: int) -> list[Call]:
        raise NotImplementedError

    def ops_of(self, call: Call, latency: float, result, pass_no: int) -> list[Op]:
        """Ops of one finished call; a failed op carries its error."""
        raise NotImplementedError

    def final_checks(self, ops_by_pass: list[list[Op]]) -> None:
        """File-based checks after all passes; marks failed ops in place."""

    def derived_counts(self) -> dict[str, int]:
        """Exact counts recomputed from the outputs, to cross-check the trace."""
        return {}

    def observed(self) -> dict:
        """This run's values of what reference.json pins for the default seed."""
        return {}


# -- ladders ----------------------------------------------------------------------


@dataclass
class Mark:
    """perf_counter readings of one sweep point."""

    delta: float
    start: float
    built: float | None = None
    gamma: float = 0.0  # time inside gamma_sup
    verified: float | None = None


class Ladder(Workload):
    """One `sweep` through run_cli per pass; one op per sweep point."""

    kind = ""
    ks: tuple[int, ...] = ()
    spec_fields: dict = {}  # ConfigSpec fields beyond kind, seed and delta
    extra_args: tuple[str, ...] = ()  # the same fields as CLI flags

    def __init__(self, seed: int, out: Path, reference: dict) -> None:
        super().__init__(seed, out, reference)
        rng = np.random.default_rng(seed)
        # The ladder order is shuffled by the seed: sweep output must not
        # depend on the order of --deltas.
        self.order = [int(k) for k in rng.permutation(self.ks)]
        self.marks: list[Mark] = []
        self.reports: list[dict] = []
        self.digests: dict[str, str] = {}
        self._install_marks()

    def _install_marks(self) -> None:
        """Time each sweep point from its build to the end of its verify, in
        three stages: the build, `gamma_sup`, and the rest of the verify."""
        build, verify = lab.build_sweep_family, lab.verify_theorem
        marks = self.marks

        def build_mark(spec, delta):
            gc.collect()  # the previous point's garbage is not this point's cost
            marks.append(Mark(delta, perf_counter()))
            F = build(spec, delta)
            marks[-1].built = perf_counter()
            return F

        def gamma_mark(F, t):
            t0 = perf_counter()
            rep = measures.gamma_sup(F, t)  # looked up per call: the traced run wraps it
            marks[-1].gamma += perf_counter() - t0
            return rep

        def verify_mark(F, t, eps1, eps2):
            rep = verify(F, t, eps1, eps2)
            marks[-1].verified = perf_counter()
            return rep

        lab.build_sweep_family = build_mark
        lab.gamma_sup = gamma_mark
        lab.verify_theorem = verify_mark

    def argv(self, out: Path) -> list[str]:
        deltas = ",".join(f"2^-{k}" for k in self.order)
        return [
            "sweep", "--kind", self.kind, *self.extra_args,
            "--deltas", deltas, "--seed", str(self.seed), "--out", str(out),
        ]  # fmt: skip

    def pass_dir(self, pass_no: int) -> Path:
        return self.out / ("ref" if pass_no == 0 else "rep")

    def calls(self, pass_no: int) -> list[Call]:
        argv = self.argv(self.pass_dir(pass_no))
        self.marks.clear()
        return [Call("sweep", max(self.ks), lambda: lab.run_cli(argv), n_ops=len(self.ks))]

    def ops_of(self, call, latency, result, pass_no):
        ops = []
        for m in self.marks:
            k = round(-math.log2(m.delta))
            if m.verified is None:
                ops.append(Op(f"k={k}", k, 0.0, 0, "point failed before verify"))
                continue
            build, verify = m.built - m.start, m.verified - m.built
            stages = (build, m.gamma, verify - m.gamma)
            ops.append(Op(f"k={k}", k, m.verified - m.start, 0, None, stages))
        missing = len(self.ks) - len(ops)
        ops += [Op("missing", 0, 0.0, 0, "point never started") for _ in range(missing)]
        d = self.pass_dir(pass_no)
        if result not in (0, 1):
            for op in ops:
                op.error = op.error or f"sweep exit code {result}"
            return ops
        report = json.loads((d / "report.json").read_text())
        by_k = {p["report"]["k"]: p["report"] for p in report["points"]}
        for op in ops:
            rep = by_k.get(op.k)
            if rep is None:
                op.error = op.error or "point missing from report.json"
            else:
                op.cells = cells_of(rep["sum_shading"], op.k)
        if pass_no == 0:
            self.reports = [p["report"] for p in report["points"]]
            self.digests = {n: file_digest(d / n) for n in ("report.json", "table.csv")}
        else:
            for n, digest in self.digests.items():
                if file_digest(d / n) != digest:
                    for op in ops:
                        op.error = op.error or f"{n} differs from the first pass"
        return ops

    def point_check(self, rep: dict) -> None:
        check_theorem_fields(rep)
        k = rep["k"]
        spec = constructions.ConfigSpec(
            delta=rep["delta"], kind=self.kind, seed=self.seed, **self.spec_fields
        )
        fam = constructions.build_config(spec)
        codes = np.concatenate([sh.cells.codes for _, sh in fam.entries])
        require(len(fam) == rep["n_lines"], "rebuilt family has another line count")
        require(codes.size == cells_of(rep["sum_shading"], k), "sum_shading != cell count")
        require(
            distinct_count(codes) == cells_of(rep["lhs_mass"], k),
            "lhs_mass differs from the naive union of all shading codes",
        )

    def final_checks(self, ops_by_pass):
        first = {op.k: op for op in ops_by_pass[0]}
        for rep in self.reports:
            op = first.get(rep["k"])
            try:
                self.point_check(rep)
            except CheckFailed as exc:
                if op is not None:
                    op.error = op.error or f"k={rep['k']}: {exc}"
        want = self.reference.get("table_csv_sha256")
        if want and self.digests.get("table.csv") != want:
            for op in ops_by_pass[0]:
                op.error = op.error or "table.csv differs from the reference"

    def observed(self):
        return {"table_csv_sha256": self.digests.get("table.csv")}

    def derived_counts(self):
        cells = sum(cells_of(r["sum_shading"], r["k"]) for r in self.reports)
        return {
            "lines_built": sum(r["n_lines"] for r in self.reports),
            "cells_built": cells,
            "union_cells_in": cells,
            "union_cells_out": sum(cells_of(r["lhs_mass"], r["k"]) for r in self.reports),
            "gamma_cell_scales": sum(
                cells_of(r["sum_shading"], r["k"]) * (r["k"] + 1) for r in self.reports
            ),
        }


class Case2Ladder(Ladder):
    name = "case2-ladder"
    kind = "case2"
    # A sweep needs 3 deltas below r.  Criterion 05 has r = 2^-5, where the
    # third point (2^-8) takes 1.5 s alone: too long for its fastest time
    # to settle within a run on a shared host.  One level coarser, every
    # point takes under 0.5 s on a quiet host, with the same shape: many
    # lines of a dozen cells.
    ks = (5, 6, 7)
    spec_fields = {"t": 1.5, "s": 0.05, "r": 2.0**-4}
    extra_args = ("--t", "1.5", "--s", "0.05", "--r", "2^-4")

    def point_check(self, rep):
        super().point_check(rep)
        # the criterion-05 band: gamma_star within 16x of (r/delta)^(1/2)
        target = (self.spec_fields["r"] / rep["delta"]) ** 0.5
        require(
            target / 16 <= rep["gamma_star"] <= 16 * target,
            f"gamma_star {rep['gamma_star']} outside the band around {target}",
        )


# -- structure-mix ----------------------------------------------------------------------


def crossing_line(rng, scale, chart):
    """A random line crossing the whole square (|a| <= 1/4, b in [1/4, 3/4)),
    so its tube, and the work on it, has the same size for every seed."""
    n = scale.n
    a_q = int(rng.integers(-n // 4, n // 4 + 1))
    b_q = int(rng.integers(n // 4, 3 * n // 4))
    return geometry.Line(scale, chart, a_q, b_q)


def random_shading(rng, line, density):
    tube = geometry.tube_cells(line, line.scale.delta)
    count = max(1, round(density * tube.n_cells))
    pick = np.sort(rng.choice(tube.n_cells, size=count, replace=False))
    return geometry.Shading(line, tubelab.CellSet(line.scale, tube.codes[pick]))


def random_cellset(rng, k, density):
    n = 1 << k
    mask = rng.random(n * n) < density
    mask[rng.integers(n * n)] = True
    idx = np.flatnonzero(mask)
    return tubelab.CellSet.from_ij(tubelab.Scale(k), idx // n, idx % n)


def random_family(rng, k, n_lines, density):
    scale = tubelab.Scale(k)
    entries, seen = [], set()
    while len(entries) < n_lines:
        line = crossing_line(rng, scale, CHART_SHALLOW)
        if (line.a_q, line.b_q) not in seen:
            seen.add((line.a_q, line.b_q))
            entries.append((line, random_shading(rng, line, density)))
    return geometry.LineFamily(scale, tuple(entries))


def full_tube_family(k, slopes_q):
    """Fully shaded lines through the center cell, one per slope."""
    scale = tubelab.Scale(k)
    n = scale.n
    entries = []
    for a_q in slopes_q:
        line = geometry.Line(scale, CHART_SHALLOW, a_q, n // 2 - a_q // 2)
        entries.append((line, geometry.Shading(line, geometry.tube_cells(line, scale.delta))))
    return geometry.LineFamily(scale, tuple(entries)), (n // 2, n // 2)


def column_family(k, cols, n_lines):
    """Horizontal lines sharing one column pattern, so they share a branching."""
    scale = tubelab.Scale(k)
    n = scale.n
    entries = []
    for idx in range(n_lines):
        line = geometry.Line(scale, CHART_SHALLOW, 0, n // 2 - 2 * idx)
        rows = np.full_like(cols, line.b_q)
        entries.append((line, geometry.Shading(line, tubelab.CellSet.from_ij(scale, cols, rows))))
    return geometry.LineFamily(scale, tuple(entries))


def cantor_columns(k, s):
    """A 1-d Cantor set of about 2^(k s) columns: each level splits every
    interval in two while the count stays below 2^(level s), else keeps the
    left half."""
    pos = np.zeros(1, dtype=np.int64)
    for level in range(1, k + 1):
        if pos.size < 2.0 ** (level * s):
            pos = np.concatenate([2 * pos, 2 * pos + 1])
        else:
            pos = 2 * pos
    return np.sort(pos)


def random_profile(rng, n):
    dx = 1.0 / (n - 1)
    inc = rng.uniform(0.0, dx, size=n - 1)
    inc[rng.random(n - 1) < 0.3] = 0.0
    return np.minimum(np.concatenate([[0.0], np.cumsum(inc)]), 1.0)


def spread(i: int, count: int, lo: float, hi: float, stride: int = 1) -> float:
    """The i-th of `count` evenly spread values in [lo, hi), visited with a
    stride so that parameters drawn with different strides decorrelate."""
    return lo + (hi - lo) * (((i * stride) % count) + 0.5) / count


def family_cells(fam) -> int:
    return sum(sh.cells.n_cells for _, sh in fam.entries)


def metric(l1, l2) -> float:
    return geometry.angle_between(l1, l2) * 2.0 / math.pi


@dataclass
class StructureOp:
    label: str
    k: int
    cells: int
    run: Callable[[], object]
    check: Callable[[object], None]
    summary: Callable[[object], object]


class StructureMix(Workload):
    """Direct calls of the structure algorithms, each followed by the check
    of its postcondition.  The mix is weighted so that no single function
    takes most of a pass."""

    name = "structure-mix"
    MIX = (
        ("uniformize", 16),
        ("rich_point_refine", 16),
        ("katz_tao_subsample", 16),
        ("multiscale_decompose", 40),
        ("two_ends_scale", 24),
        ("broad_narrow", 16),
        ("shading_multiscale", 18),
    )

    def __init__(self, seed, out, reference):
        super().__init__(seed, out, reference)
        rng = np.random.default_rng(seed)
        self.ops: list[StructureOp] = []
        for fn, count in self.MIX:
            make = getattr(self, "make_" + fn)
            self.ops += [make(rng, i, count) for i in range(count)]
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        self.summaries: dict[int, object] = {}

    # Each make_* returns op i of `count`: sizes follow a fixed schedule so a
    # pass does the same amount of work on every seed; the seed picks the
    # random content (cells, lines, profiles).

    def make_uniformize(self, rng, i, count):
        k = 10 if i % 2 else 8
        lad = tubelab.ScaleLadder(m=2, N=k // 2)
        density = spread(i, count, 0.01, 0.08) if k == 10 else spread(i, count, 0.05, 0.6)
        E = random_cellset(rng, k, density)

        def check(res):
            out, err, trace = res
            require(out.issubset(E), "uniformized set not inside the input")
            require(structure.is_uniform(out, lad, 2.0), f"not uniform: error {err}")
            require(out.n_cells / E.n_cells >= trace.lower_bound(), "kept below trace bound")

        return StructureOp(
            f"uniformize-k{k}", k, E.n_cells, lambda: structure.uniformize(E, lad), check,
            lambda res: (res[0].n_cells, res[1]),
        )  # fmt: skip

    def make_rich_point_refine(self, rng, i, count):
        k = 8 + i % 2
        n_lines = round(spread(i, count, 8, 64, stride=5))
        fam = random_family(rng, k, n_lines, spread(i, count, 0.15, 0.9, stride=7))

        def check(res):
            out, e_mu, mu, _ = res
            lsq = float(k * k)
            by_key = {(ln.chart, ln.a_q, ln.b_q): sh for ln, sh in fam.entries}
            total_out = 0
            for ln, sh in out.entries:
                orig = by_key[(ln.chart, ln.a_q, ln.b_q)]
                require(sh.cells == orig.cells.intersection(e_mu), "Y' != Y within E_mu")
                total_out += sh.cells.n_cells
            _, counts = out.multiplicity_counts()
            require(counts.min() >= mu and counts.max() < 2 * mu, "multiplicity outside [mu, 2mu)")
            require(mu >= total_out / (e_mu.n_cells * lsq), "mu below incidence density")
            require(total_out >= family_cells(fam) / lsq, "incidence mass not retained")

        return StructureOp(
            f"rich_point-k{k}", k, family_cells(fam), lambda: structure.rich_point_refine(fam),
            check, lambda res: (family_cells(res[0]), res[1].n_cells, res[2]),
        )  # fmt: skip

    def make_katz_tao_subsample(self, rng, i, count):
        k = 6 + i % 3
        E = random_cellset(rng, k, spread(i, count, 0.01, 0.03, stride=5))
        rho = 2.0 ** -(2 + (i // 3) % (k - 4))
        s = (1.0, 1.5)[(i // 2) % 2]  # s = 0.5 breaks the polylog Katz-Tao precondition

        def check(out):
            require(out.issubset(E), "subsample not inside the input")
            rep = measures.katz_tao_constant(out.centers(), s, delta=rho)
            require(rep.constant <= 8.0 + 1e-9, f"coarse Katz-Tao constant {rep.constant} > 8")

        return StructureOp(
            f"katz_tao_subsample-k{k}", k, E.n_cells,
            lambda: structure.katz_tao_subsample(E, rho, s), check, lambda out: out.n_cells,
        )  # fmt: skip

    def make_multiscale_decompose(self, rng, i, count):
        ys = random_profile(rng, round(spread(i, count, 16, 400, stride=7)))
        eta = (0.05, 0.1, 0.2)[i % 3]

        def check(part):
            ok, msg = structure.verify_decomposition(ys, eta, part)
            require(ok, f"decomposition: {msg}")

        return StructureOp(
            "multiscale_decompose", 0, 0, lambda: structure.multiscale_decompose(ys, eta), check,
            lambda part: (part.A.tolist(), part.s.tolist()),
        )  # fmt: skip

    def make_two_ends_scale(self, rng, i, count):
        k = 10 + i % 3
        scale = tubelab.Scale(k)
        line = crossing_line(rng, scale, (CHART_SHALLOW, CHART_STEEP)[(i // 3) % 2])
        sh = random_shading(rng, line, spread(i, count, 0.05, 1.0, stride=5))
        eps1 = (0.3, 0.5, 0.7)[(i // 2) % 3]
        eps2 = eps1 / 2.0
        C = max(measures.two_ends_constant(sh, eps1, eps2), 1.0)

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return structure.two_ends_scale(sh, eps2 / 2.0, C)

        def check(rho):
            require(rho >= scale.delta**eps1 - 1e-12, f"rho {rho} below delta^{eps1}")

        return StructureOp(f"two_ends_scale-k{k}", k, sh.cells.n_cells, run, check, float)

    def make_broad_narrow(self, rng, i, count):
        k = 8 + i % 3
        n = 1 << k
        m = round(spread(i, count, 3, 48, stride=5))
        slopes = set()
        while len(slopes) < m:
            slopes.add(2 * int(rng.integers(-n // 2, n // 2)))
        fam, x = full_tube_family(k, sorted(slopes))

        def check(res):
            d = fam.scale.delta
            lsq = math.log2(1.0 / d) ** 2
            lines = fam.lines
            require(10 * d <= res.rho_x <= 1.0, f"rho_x {res.rho_x} outside [10 delta, 1]")
            require(len(res.kept) >= len(fam) / lsq, "too few lines kept")
            for a in res.kept:
                for b in res.kept:
                    require(metric(lines[a], lines[b]) + d <= 2 * res.rho_x + 1e-9, "kept too wide")
            if not res.narrow:
                require(min(len(res.L1), len(res.L2)) >= len(res.kept) / lsq, "split too small")
                for a in res.L1:
                    for b in res.L2:
                        ang = metric(lines[a], lines[b])
                        require(res.rho_x / 8 - 1e-9 <= ang <= res.rho_x + 1e-9, "split angle")

        return StructureOp(
            f"broad_narrow-k{k}", k, family_cells(fam), lambda: structure.broad_narrow(fam, x),
            check, lambda res: (res.rho_x, res.narrow, res.kept, res.L1, res.L2),
        )  # fmt: skip

    def make_shading_multiscale(self, rng, i, count):
        k = 8 + i % 3
        shape = (i // 3) % 3
        if shape == 0:
            cols = np.arange(1 << k, dtype=np.int64)
        elif shape == 1:
            # s = 0.8 as in the test suite: other exponents hit a known
            # failure of conclusion (b), see README.md
            cols = cantor_columns(k, 0.8)
        else:
            gap = 1 << (3 + (i // 9) % (k - 5))
            cols = np.arange(0, 1 << k, gap, dtype=np.int64)
        fam = column_family(k, cols, 2 + i % 4)
        t, eta = 0.5, 0.1

        def check(res):
            ok, msg = structure.verify_shading_multiscale(fam, res, t, eta)
            require(ok, f"shading multiscale: {msg}")

        return StructureOp(
            f"shading_multiscale-k{k}", k, family_cells(fam),
            lambda: structure.shading_multiscale(fam, t, eta), check,
            lambda res: (res.r, res.s, res.branch, len(res.family)),
        )  # fmt: skip

    def calls(self, pass_no):
        return [Call(op.label, op.k, op.run, op.cells, index=i) for i, op in enumerate(self.ops)]

    def ops_of(self, call, latency, result, pass_no):
        sop = self.ops[call.index]
        op = Op(call.label, call.k, latency, call.cells)
        summary = sop.summary(result)
        if pass_no == 0:
            self.summaries[call.index] = summary
            try:
                sop.check(result)
            except CheckFailed as exc:
                op.error = f"{call.label}: {exc}"
        elif summary != self.summaries[call.index]:
            op.error = f"{call.label}: result differs from the first pass"
        return [op]


WORKLOADS = {w.name: w for w in (Case2Ladder, StructureMix)}
