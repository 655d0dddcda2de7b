"""Structural algorithms: uniformization, branching functions, multiscale
decomposition, two-ends reduction, subsampling, and refinement passes.

Every quantitative conclusion here is machine-checkable: the "about equal"
slack of the source statements is instantiated as an explicit (log2 1/delta)^2
factor, and multiscale_decompose re-validates its own output before returning.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .grid import (
    CellSet,
    GridError,
    Scale,
    ScaleLadder,
    _run_heads,
    _sorted_unique,
    coarsen,
    covering_count,
)
from .geometry import Line, LineFamily, Shading, _greedy_count_below, _greedy_windows, multiplicity
from .measures import (
    MeasureError,
    _as_points,
    _keep_capped,
    _tripled_max,
    frostman_constant_1d,
    gamma,
)

__all__ = [
    "StructureError",
    "DecompositionError",
    "RefinementTrace",
    "BranchingFunction",
    "MultiscalePartition",
    "uniformize",
    "is_uniform",
    "uniformity_error",
    "branching",
    "shading_window_counts",
    "common_branching",
    "multiscale_decompose",
    "verify_decomposition",
    "two_ends_scale",
    "katz_tao_subsample",
    "rich_point_refine",
    "broad_narrow",
    "BroadNarrowResult",
    "shading_multiscale",
    "ShadingMultiscaleResult",
    "verify_shading_multiscale",
    "dyadic_pigeonhole",
]

class StructureError(ValueError):
    pass


class DecompositionError(StructureError):
    """Raised when a decomposition cannot satisfy its contract; never silent."""


@dataclass
class TraceStep:
    description: str
    kept_fraction: float
    constant: float


@dataclass
class RefinementTrace:
    """Audit trail for a chain of refinement passes."""

    steps: list[TraceStep] = field(default_factory=list)

    def add(self, description: str, kept_fraction: float, constant: float = 1.0) -> None:
        if not (0.0 < kept_fraction <= 1.0 + 1e-12):
            raise StructureError(f"kept fraction {kept_fraction} outside (0, 1]")
        self.steps.append(TraceStep(description, min(kept_fraction, 1.0), constant))

    def overall_fraction(self) -> float:
        out = 1.0
        for s in self.steps:
            out *= s.kept_fraction
        return out

    def lower_bound(self) -> float:
        """Product of the per-step pigeonhole bounds recorded in `constant`."""
        out = 1.0
        for s in self.steps:
            out *= s.constant
        return out

    def to_json_obj(self) -> dict:
        return {
            "steps": [
                {"description": s.description, "kept_fraction": s.kept_fraction, "bound": s.constant}
                for s in self.steps
            ],
            "overall_fraction": self.overall_fraction(),
            "lower_bound": self.lower_bound(),
        }


# -- uniformization ------------------------------------------------------------


def _ladder_keys(x: np.ndarray, ladder: ScaleLadder, inverse: bool = False) -> np.ndarray:
    """Quadtree keys of cell codes (codes of keys when inverse): the m-bit
    ladder digits from coarse to fine, 2m bits per level with the j digit
    above the i digit, 2k <= 64 bits in all (cell indices have 32 bits).
    The level-l ancestor is the prefix key >> 2m(N - l), so in sorted keys
    the cells of every ancestor form one run."""
    m = ladder.m
    digit = np.uint64((1 << m) - 1)
    out = np.zeros_like(x)
    for lev in range(ladder.N):
        for code_bit, key_bit in ((m * lev, 2 * m * lev), (32 + m * lev, 2 * m * lev + m)):
            src, dst = (key_bit, code_bit) if inverse else (code_bit, key_bit)
            out |= ((x >> np.uint64(src)) & digit) << np.uint64(dst)
    return out


def _occupied_children(child: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Occupied-child count of every parent run, from the run heads of a
    level and of the next coarser one over the same sorted keys."""
    return np.diff(np.flatnonzero(np.append(parent[child], True)))


def _keys_uniformity_error(keys: np.ndarray, step: int, levels: int) -> float:
    """Worst max/min ratio of occupied-child counts over the `levels`
    ancestor levels of sorted keys, each `step` bits above the last (numpy
    shifts unsigned keys by 64 bits or more to 0, the one root)."""
    worst = 1.0
    child = _run_heads(keys)
    for shift in range(step, step * levels + 1, step):
        parent = _run_heads(keys >> shift)
        counts = _occupied_children(child, parent)
        worst = max(worst, float(counts.max()) / float(counts.min()))
        child = parent
    return worst


def uniformize(E: CellSet, ladder: ScaleLadder) -> tuple[CellSet, float, RefinementTrace]:
    """Select a uniform refinement of E along the ladder.

    Processes levels from finest to coarsest; at each level parents are
    pigeonholed into dyadic classes of their occupied-child counts and the
    class with the most retained cells survives.  Pruning a coarse parent
    removes its whole subtree, so uniformity established at finer levels is
    preserved.  Per level the surviving child counts lie in one dyadic class,
    i.e. they agree within a factor 2.

    The cells are sorted once by their quadtree keys (_ladder_keys), so the
    parents and children of every level are runs of the sorted keys, and
    pruning whole parent runs keeps the key order.
    """
    if E.is_empty():
        raise StructureError("cannot uniformize an empty set")
    if not ladder.compatible_with(E.scale):
        raise GridError(f"ladder (k={ladder.k}) incompatible with scale k={E.scale.k}")
    step = 2 * ladder.m
    keys = np.sort(_ladder_keys(E.codes, ladder))
    child = _run_heads(keys)
    trace = RefinementTrace()
    for j in range(ladder.N, 0, -1):
        parent = _run_heads(keys >> step * (ladder.N - j + 1))
        classes = np.floor(np.log2(_occupied_children(child, parent))).astype(np.int64)
        cls_of_cell = np.repeat(classes, np.diff(np.append(np.flatnonzero(parent), keys.size)))
        mass = np.bincount(cls_of_cell, minlength=int(classes.max()) + 1)
        occupied = np.count_nonzero(mass)  # every parent holds a cell
        best = int(np.argmax(mass))
        keep = cls_of_cell == best
        frac = float(np.count_nonzero(keep)) / keys.size
        trace.add(
            f"level {j}: {occupied} dyadic classes, kept class 2^{best}",
            frac,
            1.0 / (2.0 * occupied),
        )
        keys, child = keys[keep], parent[keep]  # whole parent runs go
    out = CellSet._from_sorted_codes(E.scale, np.sort(_ladder_keys(keys, ladder, inverse=True)))
    return out, _keys_uniformity_error(keys, step, ladder.N), trace


def is_uniform(E: CellSet, ladder: ScaleLadder, C: float) -> bool:
    """Checker: per level, occupied-child counts agree within a factor C."""
    if E.is_empty():
        return False
    return uniformity_error(E, ladder) <= C + 1e-9


def uniformity_error(E: CellSet, ladder: ScaleLadder) -> float:
    """Worst per-level max/min ratio of occupied-child counts."""
    if E.is_empty():
        raise StructureError("empty set")
    if not ladder.compatible_with(E.scale):
        raise GridError("ladder incompatible with scale")
    keys = np.sort(_ladder_keys(E.codes, ladder))
    return _keys_uniformity_error(keys, 2 * ladder.m, ladder.N)


# -- branching functions --------------------------------------------------------


@dataclass(frozen=True)
class BranchingFunction:
    """Sampled log covering-number profile beta(j) on an M-adic ladder.

    beta(j) = log(|E|_{rho_j}) / log(1/delta), interpolated linearly.
    """

    ladder: ScaleLadder
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if vals.size != self.ladder.N + 1:
            raise StructureError("branching needs N+1 sampled values")
        if abs(vals[0]) > 1e-12:
            raise StructureError("beta(0) must vanish inside the unit square")
        if np.any(np.diff(vals) < -1e-12):
            raise StructureError("branching function must be non-decreasing")
        step = 2.0 * self.ladder.m / self.ladder.k
        if np.any(np.diff(vals) > step + 1e-12):
            raise StructureError("branching increment exceeds the planar doubling bound")

    def quantum(self) -> float:
        """One ladder quantum of beta: 1/log(1/delta)."""
        return 1.0 / (self.ladder.k * math.log(2.0))

    def lipschitz_profile(self) -> np.ndarray:
        """Monotone 1-Lipschitz samples on the uniform grid j/N, with
        increments clipped to the 1/N Lipschitz bound."""
        N = self.ladder.N
        out = np.empty(N + 1)
        out[0] = max(0.0, self.values[0])
        for j in range(1, N + 1):
            out[j] = min(max(self.values[j], out[j - 1]), out[j - 1] + 1.0 / N)
        return np.clip(out, 0.0, 1.0)

    def to_json_obj(self) -> dict:
        return {"m": self.ladder.m, "N": self.ladder.N, "values": self.values.tolist()}


def branching(E: CellSet, ladder: ScaleLadder) -> BranchingFunction:
    """Branching function of a (preferably uniform) cell set."""
    if E.is_empty():
        raise StructureError("empty set has no branching function")
    if not is_uniform(E, ladder, 2.0):
        warnings.warn("branching of a non-uniform set", stacklevel=2)
    logs = [math.log2(covering_count(E, ladder.rho(j))) / ladder.k for j in range(ladder.N + 1)]
    return BranchingFunction(ladder, np.array(logs))


def shading_window_counts(Y: Shading, ladder: ScaleLadder) -> np.ndarray:
    """Occupied aligned arclength windows of Y per ladder level (1-d covering
    counts; within a factor 2 of the greedy segment cover).

    The sorted positions are floored once at the finest width; each coarser
    level shifts the distinct window indices right by m bits, which is exact
    since floor(x / 2) = floor(floor(x) / 2) and >> floors negative indices.
    """
    idx = np.floor(Y.arc_positions() / ladder.rho(ladder.N)).astype(np.int64)
    counts = np.empty(ladder.N + 1, dtype=np.int64)
    for j in range(ladder.N, -1, -1):
        idx = idx[_run_heads(idx)]
        counts[j] = idx.size
        idx >>= ladder.m
    return counts


def common_branching(
    sets: Sequence[CellSet], ladder: ScaleLadder
) -> tuple[list[CellSet], BranchingFunction]:
    """Keep the largest sub-family sharing a branching function to within one
    ladder quantum; buckets are rounded log covering-count vectors."""
    if not sets:
        raise StructureError("empty family")
    keys = []
    logs = []
    for E in sets:
        n = np.array([covering_count(E, ladder.rho(j)) for j in range(ladder.N + 1)], dtype=np.float64)
        ln = np.log(n)
        keys.append(tuple(int(round(v)) for v in ln))
        logs.append(ln)
    buckets: dict[tuple, list[int]] = {}
    for idx, key in enumerate(keys):
        buckets.setdefault(key, []).append(idx)
    best_key = min(buckets, key=lambda kk: (-len(buckets[kk]), kk))
    kept = buckets[best_key]
    mean_ln = np.mean([logs[i] for i in kept], axis=0)
    beta = BranchingFunction(ladder, mean_ln / (ladder.k * math.log(2.0)))
    if len(kept) * len(buckets) < len(sets):
        raise StructureError("pigeonhole bound violated")  # cannot happen
    return [sets[i] for i in kept], beta


# -- multiscale decomposition -----------------------------------------------------


@dataclass(frozen=True)
class MultiscalePartition:
    """Breakpoints 0 = A_1 < ... < A_{H+1} = 1 with strictly increasing slopes."""

    eta: float
    A: np.ndarray
    s: np.ndarray

    @property
    def H(self) -> int:
        return int(self.s.size)

    @property
    def eta0(self) -> float:
        return self.eta ** (2.0 / self.eta)

    def to_json_obj(self) -> dict:
        return {"eta": self.eta, "A": self.A.tolist(), "s": self.s.tolist()}


def _as_samples(f) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(f, tuple) and len(f) == 2:
        xs = np.asarray(f[0], dtype=np.float64)
        ys = np.asarray(f[1], dtype=np.float64)
    else:
        ys = np.asarray(f, dtype=np.float64)
        xs = np.linspace(0.0, 1.0, ys.size)
    if xs.size != ys.size or xs.size < 2:
        raise DecompositionError("need at least two samples")
    if abs(xs[0]) > 1e-12 or abs(xs[-1] - 1.0) > 1e-12:
        raise DecompositionError("samples must span [0, 1]")
    return xs, ys


def _validate_profile(xs: np.ndarray, ys: np.ndarray) -> None:
    tol = 1e-9
    if ys[0] < -tol or ys[-1] > 1.0 + tol:
        raise DecompositionError("profile must map [0,1] into [0,1]")
    dy = np.diff(ys)
    dx = np.diff(xs)
    if np.any(dy < -tol):
        raise DecompositionError("profile must be non-decreasing")
    if np.any(dy > dx + tol):
        raise DecompositionError("profile violates the 1-Lipschitz bound")


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Indices of the monotone-chain lower hull of the samples, dropping a
    point where the chain turns by a cross product of at most 1e-15.  It runs
    on Python floats: the same IEEE double arithmetic as on numpy scalars,
    without a numpy scalar per lookup."""
    xl, yl = xs.tolist(), ys.tolist()
    hull: list[int] = []
    for idx, (x2, y2) in enumerate(zip(xl, yl)):
        while len(hull) >= 2:
            x0, y0 = xl[hull[-2]], yl[hull[-2]]
            x1, y1 = xl[hull[-1]], yl[hull[-1]]
            if (x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0) <= 1e-15:
                hull.pop()
            else:
                break
        hull.append(idx)
    return hull


def multiscale_decompose(f, eta: float) -> MultiscalePartition:
    """Partition [0,1] into blocks on which the profile is nearly affine with
    strictly increasing slopes.

    The construction is the lower convex envelope of the samples: on each
    envelope edge the chord slope is the minimal supporting slope, so the
    lower bound holds with zero slack and the chord upper bound is exact.
    Output is re-validated by verify_decomposition before returning; an
    internal failure raises DecompositionError.
    """
    if not (0.0 < eta <= 0.25):
        raise DecompositionError(f"eta {eta} outside (0, 1/4]")
    xs, ys = _as_samples(f)
    _validate_profile(xs, ys)
    eta0 = eta ** (2.0 / eta)
    min_len = eta0 / eta

    hull = _lower_hull(xs, ys)
    A = xs[hull]
    slopes = np.diff(ys[hull]) / np.diff(A)

    # Merge blocks shorter than the minimum length (only possible when the
    # sample grid itself is finer than eta0/eta) and any non-strict slope pair.
    def merged(A: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        while s.size > 1:
            lens = np.diff(A)
            bad = np.flatnonzero(lens < min_len - 1e-15)
            flat = np.flatnonzero(np.diff(s) <= 1e-12)
            if bad.size == 0 and flat.size == 0:
                break
            h = int(bad[0]) if bad.size else int(flat[0])
            drop = h + 1 if h + 1 < A.size - 1 else h
            A = np.delete(A, drop)
            y_at = np.interp(A, xs, ys)
            s = np.diff(y_at) / np.diff(A)
        return A, s

    A, slopes = merged(A, slopes)
    slopes = np.clip(slopes, 0.0, 1.0)
    part = MultiscalePartition(eta, A, slopes)
    ok, msg = verify_decomposition((xs, ys), eta, part)
    if not ok:
        raise DecompositionError(
            f"decomposition failed its own contract: {msg}; A={A.tolist()}, s={slopes.tolist()}"
        )
    return part


def verify_decomposition(f, eta: float, P: MultiscalePartition) -> tuple[bool, str | None]:
    """Exact evaluation of the four partition constraints on the sample grid."""
    xs, ys = _as_samples(f)
    tol = 1e-9
    A, s = np.asarray(P.A, dtype=np.float64), np.asarray(P.s, dtype=np.float64)
    if A.size != s.size + 1 or abs(A[0]) > tol or abs(A[-1] - 1.0) > tol or np.any(np.diff(A) <= 0):
        return False, "(i) breakpoints do not partition [0, 1]"
    min_len = P.eta0 / eta
    if np.any(np.diff(A) < min_len * (1.0 - 1e-9)):
        return False, "(i) block shorter than eta0/eta"
    fA = np.interp(A, xs, ys)
    for h in range(s.size):
        length = A[h + 1] - A[h]
        sel = (xs >= A[h] - tol) & (xs <= A[h + 1] + tol)
        lower = fA[h] + s[h] * (xs[sel] - A[h]) - eta * length
        if np.any(ys[sel] < lower - tol):
            return False, f"(ii) profile dips below the supporting line on block {h + 1}"
        if fA[h + 1] > fA[h] + (s[h] + 3.0 * eta) * length + tol:
            return False, f"(iii) chord slope exceeds s_h + 3 eta on block {h + 1}"
    if s[0] < -tol or s[-1] > 1.0 + tol:
        return False, "(iv) slopes outside [0, 1]"
    if np.any(np.diff(s) <= 0):
        return False, "(iv) slopes not strictly increasing"
    if s[-1] < ys[-1] - ys[0] - eta - tol:
        return False, "(iv) final slope below f(1) - f(0) - eta"
    return True, None


# -- two-ends reduction -----------------------------------------------------------


def two_ends_scale(Y: Shading, v: float, C: float) -> float:
    """The least dyadic r with |Y|_r < C^-1 r^-v; 1.0 when no scale qualifies.

    |Y|_r is the greedy segment-cover count.
    """
    if not (0.0 < v < 1.0):
        raise StructureError(f"two-ends exponent {v} outside (0, 1)")
    if C < 1.0:
        raise StructureError(f"two-ends constant {C} below 1")
    d = Y.cells.scale.delta
    k = Y.cells.scale.k
    pos = Y.arc_positions()
    if _shading_uniformity_error(pos, d, k) > 2.0:
        warnings.warn("two-ends reduction on a non-uniform shading", stacklevel=2)
    for level in range(k + 1):
        r = d * (1 << level)
        if _greedy_count_below(pos, r, (r**-v) / C):
            return r
    return 1.0


def _shading_uniformity_error(pos: np.ndarray, d: float, k: int) -> float:
    """Worst per-level max/min ratio of occupied fine windows per coarse window
    on a 4-adic arclength ladder (binary steps cannot exceed ratio 2, so they
    would make the check vacuous); pos is sorted."""
    return _keys_uniformity_error(np.floor(pos / d).astype(np.int64), 2, k // 2)


# -- Katz-Tao coarse subsampling ---------------------------------------------------


def katz_tao_subsample(E, rho: float, s: float, delta: float | None = None):
    """Greedy coarse subsample: a subset that is Katz-Tao (rho, s, C') with
    C' <= 8 by construction, keeping a (log 1/delta)^-2 fraction of mass.

    Accepts a CellSet or an (n, 2) point array with explicit delta; returns
    the same kind.
    """
    is_cellset = isinstance(E, CellSet)
    if is_cellset:
        pts, d = E.centers(), E.scale.delta
    else:
        pts = np.asarray(E, dtype=np.float64)
        if delta is None:
            raise StructureError("point input needs delta")
        d = delta
    if pts.shape[0] == 0:
        raise StructureError("empty set")
    if not (d < rho < 1.0):
        raise StructureError(f"rho {rho} outside (delta, 1)")
    polylog = math.log2(1.0 / d) ** 2
    # The pre-check katz_tao_constant(E, s) > polylog, with the same
    # MeasureErrors, visits only the levels that could exceed polylog: a 3Q
    # holds at most #E points, and at most 9 (r/delta)^2 cells of a CellSet.
    # The level of a maximum above polylog is never skipped, so the constant
    # in the message is the same.
    if not (0.0 < s <= 2.0):
        raise MeasureError(f"exponent {s} outside (0, 2]")
    if not is_cellset:
        _as_points(pts, d)
    n = pts.shape[0]
    check = []
    for j in range(round(math.log2(1.0 / d)), -1, -1):
        q = 2.0 ** (-j) / d  # r / delta, and denom as in katz_tao_constant
        if (min(n, 9.0 * q * q) if is_cellset else n) / q**s > polylog:
            check.append((2.0 ** (-j), q**s))
    if check:
        constant = _tripled_max(pts, check)[0]
        if constant > polylog:
            raise StructureError(
                f"input is not Katz-Tao (delta, {s}, polylog): constant {constant:.3g}"
            )
    levels = []
    r = rho
    while r <= 1.0:
        levels.append((r, 8.0 * (r / rho) ** s))
        r *= 2.0
    keep = _keep_capped(levels, pts)
    if is_cellset:  # pts are the centers of E's cells, in code order
        return CellSet(E.scale, E.codes[keep])
    return pts[keep]


# -- rich-point refinement -----------------------------------------------------------


def rich_point_refine(
    F: LineFamily,
) -> tuple[LineFamily, CellSet, int, RefinementTrace]:
    """Dyadic pigeonhole on cell multiplicities.

    Keeps the multiplicity class carrying the most incidence mass and
    restricts every shading to the rich set E_mu.  E_mu keeps every
    occurrence of its codes, so a second pass would find every cell in the
    same one class: the trace records that pass without recomputing it.
    """
    if len(F) == 0:
        raise StructureError("empty family")
    # One stable argsort of the family's codes laid end to end gives the
    # multiplicity of every cell, as multiplicity_counts does, and the
    # place of each code in the runs.  The array is a concatenation of
    # sorted runs, which the stable sort (timsort) merges.
    flat = np.concatenate([sh.cells.codes for _, sh in F.entries])
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    heads = np.flatnonzero(_run_heads(ranked))
    codes, counts = ranked[heads], np.diff(np.append(heads, flat.size))
    classes = np.floor(np.log2(counts)).astype(np.int64)
    weights = np.bincount(classes, weights=counts.astype(np.float64))
    best = int(np.argmax(weights))
    occ = np.count_nonzero(weights)  # every count is at least 1
    trace = RefinementTrace()
    trace.add(
        f"pass 1: multiplicity class 2^{best} of {occ}",
        float(weights[best]) / float(counts.sum()),
        1.0 / occ,
    )
    trace.add(f"pass 2: multiplicity class 2^{best} of 1", 1.0, 1.0)
    rich = classes == best
    e_mu = CellSet(F.scale, codes[rich])
    # Every shading restricted to E_mu at once: each code's class is spread
    # back through the sort, then split per line.  A subset of a checked
    # shading on the same line stays sorted and in the tube.
    inside = np.empty(flat.size, dtype=bool)
    inside[order] = np.repeat(rich, counts)
    kept = flat[inside]
    sizes = [sh.cells.n_cells for _, sh in F.entries]
    ends = np.cumsum(inside)[np.cumsum(sizes) - 1].tolist()  # shadings are nonempty
    entries = [
        (line, Shading._from_checked(line, CellSet._from_sorted_codes(F.scale, kept[lo:hi])))
        for (line, _), lo, hi in zip(F.entries, [0, *ends], ends)
        if hi > lo
    ]
    return LineFamily(F.scale, tuple(entries)), e_mu, 1 << best, trace


# -- broad-narrow decomposition --------------------------------------------------------


@dataclass(frozen=True)
class BroadNarrowResult:
    """Output of the direction-space broad-narrow step at a cell.

    Angles are normalized so perpendicular lines are at distance 1
    (metric = acute angle * 2/pi), which keeps rho_x inside [10 delta, 1].
    """

    rho_x: float
    narrow: bool
    kept: tuple[int, ...]
    L1: tuple[int, ...] | None
    L2: tuple[int, ...] | None


def _direction_positions(F: LineFamily, idxs: Sequence[int]) -> np.ndarray:
    """Line directions as points on a circle of circumference 2 (mod-pi doubled)."""
    out = np.empty(len(idxs))
    for n, idx in enumerate(idxs):
        dx, dy = F.entries[idx][0].direction()
        theta = math.atan2(dy, dx) % math.pi
        out[n] = 2.0 * theta / math.pi
    return out


def broad_narrow(F: LineFamily, x: tuple[int, int]) -> BroadNarrowResult:
    """Find the angular scale at which the lines through x split into two
    separated sub-families, or certify that they stay narrow."""
    idxs = multiplicity(F, x)
    if len(idxs) < 2:
        raise StructureError("broad-narrow undefined for fewer than two lines")
    d = F.scale.delta
    lsq = math.log2(1.0 / d) ** 2
    pos = _direction_positions(F, idxs)
    idx_arr = np.array(idxs, dtype=np.int64)

    # Minimal enclosing arc on the circumference-2 circle.
    order = np.argsort(pos, kind="stable")
    sorted_pos = pos[order]
    gaps = np.diff(np.concatenate([sorted_pos, [sorted_pos[0] + 2.0]]))
    g = int(np.argmax(gaps))
    lo = sorted_pos[(g + 1) % sorted_pos.size] % 2.0
    spread = 2.0 - gaps[g]
    w = min(max(spread + d, 20.0 * d), 1.0)

    rel_all = (pos - lo) % 2.0
    sel = rel_all <= w + 1e-12
    members, rel = idx_arr[sel], rel_all[sel]

    while True:
        n_cur = members.size
        tau = n_cur / lsq
        q = np.minimum(np.floor(rel / (w / 4.0)).astype(np.int64), 3)
        qc = np.bincount(q, minlength=4)
        best_pair, best_min = None, 0.0
        for a, b in ((0, 2), (0, 3), (1, 3)):
            m = min(qc[a], qc[b])
            if m >= max(tau, 1.0) and m > best_min:
                best_pair, best_min = (a, b), m
        if best_pair is not None:
            a, b = best_pair
            in1, in2 = q == a, q == b
            m_c_hi = float(np.max(rel[in2]) - np.min(rel[in1]))
            rho_x = min(1.0, max(10.0 * d, (w + d) / 2.0, m_c_hi))
            return BroadNarrowResult(
                rho_x,
                False,
                tuple(int(v) for v in members),
                tuple(int(v) for v in members[in1]),
                tuple(int(v) for v in members[in2]),
            )
        if w / 2.0 < 20.0 * d:
            rho_x = min(1.0, max(10.0 * d, (w + d) / 2.0))
            return BroadNarrowResult(rho_x, True, tuple(int(v) for v in members), None, None)
        # Narrow: descend into the heaviest half-width sliding window.
        best_l, best_count = 0, -1
        for l in range(5):
            start = l * w / 8.0
            cnt = int(np.count_nonzero((rel >= start) & (rel <= start + w / 2.0)))
            if cnt > best_count:
                best_l, best_count = l, cnt
        start = best_l * w / 8.0
        keep = (rel >= start) & (rel <= start + w / 2.0)
        members, rel = members[keep], rel[keep] - start
        w /= 2.0


# -- shading multiscale selection ----------------------------------------------------


@dataclass(frozen=True)
class ShadingMultiscaleResult:
    r: float
    s: float
    family: LineFamily
    partition: MultiscalePartition
    branch: str


def shading_multiscale(F: LineFamily, t: float, eta: float) -> ShadingMultiscaleResult:
    """Pick the coarsening scale r and local exponent s for a family whose
    shadings share a branching function, following the two-branch selection
    on the final slope of the multiscale decomposition."""
    if len(F) == 0:
        raise StructureError("empty family")
    if not (0.0 <= t <= 1.0):
        raise StructureError(f"exponent {t} outside [0, 1]")
    d = F.scale.delta
    k = F.scale.k
    ladder = ScaleLadder(m=1, N=k)
    counts = [shading_window_counts(sh, ladder) for _, sh in F.entries]
    keys = {tuple(int(round(v)) for v in np.log(np.maximum(c, 1))) for c in counts}
    if len(keys) > 1:
        raise StructureError("family lacks a common branching function")
    mean_ln = np.mean([np.log(np.maximum(c, 1)) for c in counts], axis=0)
    beta = BranchingFunction(ladder, mean_ln / (k * math.log(2.0)))
    profile = beta.lipschitz_profile()
    part = multiscale_decompose(profile, eta)

    s_H = float(part.s[-1])
    A_H = float(part.A[-2])
    r0 = 2.0 ** (-max(0, min(k, round(k * A_H))))
    r0 = max(r0, d)
    if s_H >= t + eta:
        r, s_out, branch = r0, s_H, "steep"
    else:
        branch = "shallow"
        r = r0
        cand = r0
        # every candidate scale tests the same positions against the same
        # r0 window centres
        positions = [sh.arc_positions() for _, sh in F.entries]
        centres = [
            _sorted_unique(np.floor(pos / r0).astype(np.int64)) * r0 + r0 / 2.0 for pos in positions
        ]
        while cand * 2.0 <= 1.0:
            cand *= 2.0
            good = True
            for pos, win in zip(positions, centres):
                lo = np.searchsorted(win, pos - cand, side="left")
                hi = np.searchsorted(win, pos + cand, side="right")
                if np.min(hi - lo) < (cand / r0) ** t - 1e-9:
                    good = False
                    break
            if good:
                r = cand
            else:
                break
        if r <= d * (1.0 + 1e-12):
            s_out = s_H
        else:
            j_r = round(-math.log2(r))  # r = 2^-j_r, a ladder level
            ratios = []
            for c in counts:
                n_d, n_r = int(c[k]), int(c[j_r])
                ratios.append(math.log2(max(n_d, 1) / max(n_r, 1)) / math.log2(r / d))
            s_out = float(np.median(ratios))
    s_out = min(max(s_out, 0.0), 1.0)

    carrier_k = max(2, round(math.log2(1.0 / r)))
    carrier_scale = Scale(carrier_k)
    entries = []
    for line, sh in F.entries:
        cells = coarsen(sh.cells, carrier_scale.delta)
        cl = line.requantize(carrier_scale)
        entries.append((cl, Shading(cl, cells)))
    fam = LineFamily(carrier_scale, tuple(_dedupe(entries)))
    return ShadingMultiscaleResult(r, s_out, fam, part, branch)


def _dedupe(entries: list[tuple[Line, Shading]]) -> list[tuple[Line, Shading]]:
    seen: dict[tuple, tuple[Line, Shading]] = {}
    for line, sh in entries:
        key = (line.chart, line.a_q, line.b_q)
        if key in seen:
            prev_line, prev_sh = seen[key]
            seen[key] = (prev_line, Shading(prev_line, prev_sh.cells.union(sh.cells)))
        else:
            seen[key] = (line, sh)
    return list(seen.values())


def verify_shading_multiscale(
    F: LineFamily, res: ShadingMultiscaleResult, t: float, eta: float
) -> tuple[bool, str | None]:
    """Check the two conclusions of the multiscale selection: gamma does not
    grow by more than a factor 64 under coarsening, and each coarse segment's
    dilated slice is an (delta/r, s)-set with the stated slack."""
    d = F.scale.delta
    r = res.r
    if r <= d * (1.0 + 1e-12):
        return True, None
    slack = (d / r) ** (-9.0 * eta)
    carrier = res.family.scale
    for line, sh in F.entries:
        # per-line coarse shading (the returned family may have merged lines
        # whose quantizations coincide at the carrier scale)
        cl = line.requantize(carrier)
        csh = Shading(cl, coarsen(sh.cells, carrier.delta))
        g_fine = gamma(sh, t).value
        g_coarse = gamma(csh, t).value
        if g_coarse > 64.0 * g_fine + 1e-9:
            return False, f"(a) coarse gamma {g_coarse:.3g} > 64 * {g_fine:.3g}"
        pos = sh.arc_positions()
        n_d = _sorted_unique(np.floor(pos / d).astype(np.int64)).size
        starts = _greedy_windows(pos, r)
        if math.log(max(n_d, 1) / max(len(starts), 1)) > (res.s + 9.0 * eta) * math.log(r / d) + 1e-9:
            return False, "(b) covering ratio exceeds (s + 9 eta) log(r/delta)"
        for lo, hi in zip(starts, starts[1:] + [pos.size]):
            q = (pos[lo:hi] - pos[lo]) / r
            rep = frostman_constant_1d(q, d / r, res.s)
            if rep.constant > slack + 1e-9:
                return False, f"(b) dilated segment constant {rep.constant:.3g} > {slack:.3g}"
    return True, None


# -- generic dyadic pigeonhole ------------------------------------------------------------


def dyadic_pigeonhole(
    items: Sequence, weights: Sequence[float], key: Callable[[object], int]
) -> tuple[int, list]:
    """Keep the dyadic key-level whose items carry the most total weight.

    The kept weight is at least total/(number of occupied levels).
    """
    if not items:
        raise StructureError("nothing to pigeonhole")
    if len(items) != len(weights):
        raise StructureError("items and weights differ in length")
    levels: dict[int, float] = {}
    for it, wt in zip(items, weights):
        if wt <= 0:
            raise StructureError("weights must be positive")
        levels[key(it)] = levels.get(key(it), 0.0) + wt
    best = min(levels, key=lambda lv: (-levels[lv], lv))
    kept = [it for it in items if key(it) == best]
    return best, kept
