"""Post-processing of the edge field: overshoot level sets and two-sided midpoints.

The second-order model's edge field exceeds 1 on both sides of an edge; the
level set {v > 1.005} marks those overshoot bands, and the midpoint between
the paired overshoot maxima along a scanline recovers the edge location.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .grid import Grid2D, ScalarField

DEFAULT_THRESHOLD = 1.005


@dataclass(frozen=True)
class EdgeMask:
    grid: Grid2D
    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool).reshape(-1)
        if b.size != self.grid.npoints:
            raise InvalidInputError("mask length does not match grid")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    def as_matrix(self) -> np.ndarray:
        return self.bits.reshape(self.grid.ny, self.grid.nx)

    def count(self) -> int:
        return int(np.count_nonzero(self.bits))


@dataclass(frozen=True)
class VerticalLineEdge:
    """Ground truth edge: vertical line x = position."""

    position: float


@dataclass(frozen=True)
class EllipseEdge:
    """Ground truth edge: axis-aligned ellipse boundary."""

    cx: float
    cy: float
    a: float
    b: float


@dataclass(frozen=True)
class CirclePairEdge:
    """Ground truth edge: boundary of the union of two circles."""

    cx1: float
    cy1: float
    r1: float
    cx2: float
    cy2: float
    r2: float


EdgeDescription = VerticalLineEdge | EllipseEdge | CirclePairEdge


def check_threshold(threshold: float) -> None:
    """Raise InvalidInputError unless threshold is a finite number."""
    if not np.isfinite(threshold):
        raise InvalidInputError(f"threshold must be finite, got {threshold}")


def level_mask(v: ScalarField, threshold: float = DEFAULT_THRESHOLD) -> EdgeMask:
    """Binary mask of {v > threshold}; a non-finite threshold raises
    InvalidInputError (v > nan would be an empty mask)."""
    check_threshold(threshold)
    return EdgeMask(v.grid, v.values > threshold)


def _local_maxima(row: np.ndarray) -> list[tuple[int, float]]:
    """Strict local maxima as (index, position); plateaus report their center.

    A plateau counts only when strictly higher than both distinct neighbours,
    so runs touching the array ends never qualify.
    """
    n = row.size
    maxima = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and row[j + 1] == row[i]:
            j += 1
        if i > 0 and j < n - 1 and row[i - 1] < row[i] and row[j + 1] < row[i]:
            maxima.append(((i + j) // 2, (i + j) / 2.0))
        i = j + 1
    return maxima


def two_sided_midpoints(v: ScalarField, row: int, threshold: float = DEFAULT_THRESHOLD) -> list[float]:
    """Midpoints (x coordinates) between consecutive overshoot maxima of one row.

    Finds strict local maxima of the row profile exceeding the threshold and
    pairs consecutive ones that flank a dip below 1; depends only on the
    comparison pattern of the samples against each other and the threshold.
    """
    if not (0 <= row < v.grid.ny):
        raise InvalidInputError(f"row {row} outside grid with {v.grid.ny} rows")
    profile = v.as_matrix()[row, :]
    peaks = [(i, pos) for (i, pos) in _local_maxima(profile) if profile[i] > threshold]
    h = v.grid.h
    midpoints = []
    for (ia, pa), (ib, pb) in zip(peaks, peaks[1:]):
        between = profile[ia + 1 : ib]
        if between.size and between.min() < 1.0:
            midpoints.append((pa + pb) / 2.0 * h)
    return midpoints
