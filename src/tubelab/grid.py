"""Dyadic grid primitives: cell sets, covering numbers, coarsening, refinements.

Cells live on the dyadic grid of the unit square.  A cell set at scale
``delta = 2**-k`` is a set of integer pairs ``(i, j)`` naming the half-open
squares ``[i*delta, (i+1)*delta) x [j*delta, (j+1)*delta)``.  Mass is always
``count * delta**2``; covering numbers are dyadic-cell counts, not minimal
ball covers (the two agree within a factor of 9, see ``tests/test_grid.py``
for the small-instance oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "GridError",
    "Scale",
    "ScaleLadder",
    "CellSet",
    "covering_count",
    "coarsen",
    "is_refinement",
    "refine",
]

_CODE_MASK = np.uint64(0xFFFFFFFF)


class GridError(ValueError):
    """Raised on scale mismatches, range violations, and empty-set queries."""


@dataclass(frozen=True, order=True)
class Scale:
    """Grid scale 2**-k.

    Configurations (line families, generators) require k >= 2; coarsened
    carriers produced by ``coarsen`` may sit at k = 0 or 1.
    """

    k: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 0:
            raise GridError(f"scale exponent must be a non-negative integer, got {self.k!r}")
        if self.k > 32:  # a cell code keeps 32 bits per index
            raise GridError(f"scale exponent {self.k} > 32 does not fit a cell code")

    @property
    def delta(self) -> float:
        return 2.0 ** (-self.k)

    @property
    def n(self) -> int:
        """Cells per side."""
        return 1 << self.k

    def require_base(self) -> "Scale":
        if self.k < 2:
            raise GridError(f"base scales need k >= 2 (delta <= 1/4), got k={self.k}")
        return self


def _rho_level(rho: float, k: int) -> int:
    """Map a dyadic scale value in [2**-k, 1] to its level j (rho = 2**-j)."""
    if not (0.0 < rho <= 1.0):
        raise GridError(f"scale value {rho} outside (0, 1]")
    j = round(math.log2(1.0 / rho))
    if not (0 <= j <= k) or 2.0 ** (-j) != rho:
        raise GridError(f"{rho} is not a dyadic scale in [2^-{k}, 1]")
    return j


@dataclass(frozen=True)
class ScaleLadder:
    """M-adic scale ladder rho_j = M**-j, j = 0..N, with M = 2**m.

    Requires M**N == 2**k so the ladder nests exactly in the dyadic grid.
    The textbook normalization takes M about log(1/delta); any poly-log base
    works for the structural arguments, and a power of two is the only choice
    that nests exactly, so the base is configurable via m instead.
    """

    m: int
    N: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.N < 1:
            raise GridError("ladder needs m >= 1 and N >= 1")

    @property
    def M(self) -> int:
        return 1 << self.m

    @property
    def k(self) -> int:
        return self.m * self.N

    def rho(self, j: int) -> float:
        if not 0 <= j <= self.N:
            raise GridError(f"ladder level {j} outside 0..{self.N}")
        return 2.0 ** (-self.m * j)

    def compatible_with(self, scale: Scale) -> bool:
        return self.k == scale.k


def _encode(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    # Row-major codes: j in the high word so ascending code order walks rows.
    return (j.astype(np.uint64) << np.uint64(32)) | i.astype(np.uint64)


def _decode(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    i = (codes & _CODE_MASK).astype(np.int64)
    j = (codes >> np.uint64(32)).astype(np.int64)
    return i, j


def _ancestor_codes(codes: np.ndarray, shift: int) -> np.ndarray:
    """Code of each cell's ancestor `shift` dyadic levels up, in input order
    (not sorted, not deduplicated)."""
    up = np.uint64(shift)
    return (((codes >> np.uint64(32)) >> up) << np.uint64(32)) | ((codes & _CODE_MASK) >> up)


def _run_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Runs of consecutive integers laid end to end: starts[0], ...,
    starts[0] + lens[0] - 1, then starts[1], ... (lens non-negative)."""
    offsets = np.cumsum(lens) - lens
    return np.repeat(starts - offsets, lens) + np.arange(int(lens.sum()), dtype=np.int64)


def _run_heads(values: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their left neighbour (the first
    always does): the heads of the runs of equal values."""
    heads = np.empty(values.size, dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of every run of equal values."""
    heads = np.flatnonzero(_run_heads(values))
    lengths = np.empty_like(heads)
    np.subtract(heads[1:], heads[:-1], out=lengths[:-1])
    lengths[-1:] = values.size - heads[-1:]
    return heads, lengths


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """np.unique for code arrays: sort, then drop adjacent duplicates (on
    uint64 codes a sort is far cheaper than np.unique)."""
    out = np.sort(codes, axis=None)
    return out[_run_heads(out)]


def _sorted_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(values, return_counts=True) by one sort and run lengths."""
    out = np.sort(values, axis=None)
    heads, counts = _runs(out)
    return out[heads], counts


def _member(sorted_codes: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which queries occur in the sorted, duplicate-free sorted_codes, and the
    index of each query's match (clamped into range where it has none)."""
    pos = np.minimum(np.searchsorted(sorted_codes, queries), max(sorted_codes.size - 1, 0))
    if sorted_codes.size == 0:
        return np.zeros(np.shape(queries), dtype=bool), pos
    return sorted_codes[pos] == queries, pos


def _as_indices(values) -> np.ndarray:
    """values as an int64 array; a Python int past int64 lies past the grid too."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise GridError("cell indices out of bounds for the unit square") from None


def _check_bounds(i: np.ndarray, j: np.ndarray, n: int) -> None:
    """Every index pair (i, j) names a cell of the n x n grid."""
    if i.size and (i.min() < 0 or i.max() >= n or j.min() < 0 or j.max() >= n):
        raise GridError("cell indices out of bounds for the unit square")


def _check_codes(codes: np.ndarray, n: int, runs: np.ndarray | None = None) -> None:
    """CellSet's invariants on n x n grid codes: every cell in bounds, and
    codes strictly increasing between neighbours where runs is True (all of
    them when runs is None), so several sets laid end to end are checked
    at once."""
    if codes.size:
        _check_bounds(*_decode(codes), n)
        down = codes[1:] <= codes[:-1]
        if runs is not None:
            down &= runs
        if np.any(down):
            raise GridError("cell codes not sorted or duplicated")


@dataclass(frozen=True)
class CellSet:
    """An immutable set of dyadic cells at a fixed scale.

    ``codes`` is a sorted, duplicate-free uint64 array with j in the high
    32 bits and i in the low 32 bits (row-major order).
    """

    scale: Scale
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.uint64)
        if codes.ndim != 1:
            raise GridError("cell codes must be a 1-d array")
        object.__setattr__(self, "codes", codes)
        _check_codes(codes, self.scale.n)

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_ij(scale: Scale, i: np.ndarray, j: np.ndarray) -> "CellSet":
        i, j = _as_indices(i), _as_indices(j)
        # _encode keeps 32 bits of i, so unchecked indices would wrap
        _check_bounds(i, j, scale.n)
        return CellSet._from_sorted_codes(scale, _sorted_unique(_encode(i, j)))

    @staticmethod
    def from_cells(scale: Scale, cells: Iterable[tuple[int, int]]) -> "CellSet":
        arr = _as_indices(list(cells)).reshape(-1, 2)
        return CellSet.from_ij(scale, arr[:, 0], arr[:, 1])

    @staticmethod
    def full(scale: Scale) -> "CellSet":
        n = scale.n
        i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return CellSet.from_ij(scale, i.ravel(), j.ravel())

    @staticmethod
    def _from_sorted_codes(scale: Scale, codes: np.ndarray) -> "CellSet":
        # Fast path: caller guarantees sorted unique in-bounds codes.
        obj = object.__new__(CellSet)
        object.__setattr__(obj, "scale", scale)
        object.__setattr__(obj, "codes", codes)
        return obj

    # -- basic queries ---------------------------------------------------

    @property
    def n_cells(self) -> int:
        return int(self.codes.size)

    @property
    def mass(self) -> float:
        """Area, exactly count * delta**2."""
        return self.n_cells * self.scale.delta * self.scale.delta

    def is_empty(self) -> bool:
        return self.codes.size == 0

    def ij(self) -> tuple[np.ndarray, np.ndarray]:
        return _decode(self.codes)

    def centers(self) -> np.ndarray:
        """(n, 2) array of cell centers."""
        i, j = self.ij()
        d = self.scale.delta
        return np.stack([(i + 0.5) * d, (j + 0.5) * d], axis=1)

    def cells(self) -> Iterator[tuple[int, int]]:
        i, j = self.ij()
        for a, b in zip(i.tolist(), j.tolist()):
            yield (a, b)

    def contains_cell(self, i: int, j: int) -> bool:
        n = self.scale.n
        if not (0 <= i < n and 0 <= j < n):
            return False
        return bool(_member(self.codes, _encode(np.int64(i), np.int64(j)))[0])

    # -- set algebra (same scale) -----------------------------------------

    def _check_same_scale(self, other: "CellSet") -> None:
        if self.scale != other.scale:
            raise GridError(f"scale mismatch: k={self.scale.k} vs k={other.scale.k}")

    def union(self, other: "CellSet") -> "CellSet":
        self._check_same_scale(other)
        return CellSet._from_sorted_codes(
            self.scale, _sorted_unique(np.concatenate([self.codes, other.codes]))
        )

    def intersection(self, other: "CellSet") -> "CellSet":
        self._check_same_scale(other)
        small, big = sorted((self.codes, other.codes), key=len)
        return CellSet._from_sorted_codes(self.scale, small[_member(big, small)[0]])

    def issubset(self, other: "CellSet") -> bool:
        self._check_same_scale(other)
        if self.codes.size > other.codes.size:
            return False
        return bool(np.all(_member(other.codes, self.codes)[0]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.scale == other.scale and np.array_equal(self.codes, other.codes)

    def __hash__(self) -> int:
        return hash((self.scale, self.codes.tobytes()))

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        i, j = self.ij()
        return {"k": self.scale.k, "cells": [[int(a), int(b)] for a, b in zip(i, j)]}


# -- covering numbers and coarsening ------------------------------------------


def coarse_codes(E: CellSet, rho: float) -> np.ndarray:
    """Sorted unique codes of the dyadic rho-cells meeting E."""
    shift = E.scale.k - _rho_level(rho, E.scale.k)
    return _sorted_unique(_ancestor_codes(E.codes, shift))


def covering_count(E: CellSet, rho: float) -> int:
    """|E|_rho: number of dyadic rho-cells meeting E.

    Within a factor 9 of the minimal covering by rho-balls (a rho-ball meets
    at most 3x3 dyadic rho-cells, and every rho-cell fits in one rho-ball).
    """
    if E.is_empty():
        raise GridError("empty set has no covering number")
    return int(coarse_codes(E, rho).size)


def coarsen(E: CellSet, rho: float) -> CellSet:
    """(E)_rho: the union of the rho-cells counted by covering_count."""
    if E.is_empty():
        raise GridError("empty set has no covering")
    j_level = _rho_level(rho, E.scale.k)
    return CellSet._from_sorted_codes(Scale(j_level), coarse_codes(E, rho))


def refine(E: CellSet, scale: Scale) -> CellSet:
    """Subdivide every cell of E down to a finer scale (exact, mass-preserving)."""
    if scale.k < E.scale.k:
        raise GridError("refine target must be at least as fine")
    shift = scale.k - E.scale.k
    if shift == 0:
        return E
    q = 1 << shift
    i, j = E.ij()
    u = np.arange(q, dtype=np.int64)
    ii = (i[:, None] * q + u[None, :]).ravel()
    offs = np.arange(q, dtype=np.int64)
    big_i = np.repeat(ii, q)
    big_j = (np.repeat(j, q)[:, None] * q + offs[None, :]).ravel()
    return CellSet.from_ij(scale, big_i, big_j)


def is_refinement(E2: CellSet, E1: CellSet, c: float) -> bool:
    """True iff E2 is a subset of E1 keeping at least a c-fraction of cells."""
    if not (0.0 < c <= 1.0):
        raise GridError(f"refinement fraction {c} outside (0, 1]")
    if E2.scale != E1.scale:
        raise GridError("is_refinement requires matching scales")
    if E2.n_cells < c * E1.n_cells:
        return False
    return E2.issubset(E1)


def union_codes(code_arrays: Iterable[np.ndarray], chunk: int = 1 << 21) -> np.ndarray:
    """Union of many sorted code arrays with bounded peak memory."""
    acc = np.empty(0, dtype=np.uint64)
    buf: list[np.ndarray] = []
    size = 0
    for arr in code_arrays:
        buf.append(arr)
        size += arr.size
        if size >= chunk:
            acc = _sorted_unique(np.concatenate([acc, *buf]))
            buf, size = [], 0
    if buf:
        acc = _sorted_unique(np.concatenate([acc, *buf]))
    return acc
