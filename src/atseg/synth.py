"""Deterministic synthetic test images: vertical-edge strip, thin ellipse,
two overlapping circles; optional additive Gaussian noise.

Noise is generated from PCG64 uniform integers pushed through the inverse
normal CDF, so a seed fully determines the image and the construction is
reproducible outside this package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator

from .edges import CirclePairEdge, EdgeDescription, EllipseEdge, VerticalLineEdge
from .errors import InvalidInputError
from .grid import Grid2D, ScalarField

RNG_NAME = "pcg64-inverse-cdf"


class PhantomKind(enum.Enum):
    ONED_STRUCTURE = "oned"
    ELLIPSE = "ellipse"
    TWO_CIRCLES = "circles"


@dataclass(frozen=True)
class PhantomSpec:
    kind: PhantomKind
    nx: int = 128
    ny: int = 128
    contrast: float = 0.8
    noise_sigma: float = 0.1
    seed: int = 0
    # geometry (domain coordinates; the longer image side spans [0, 1])
    edge_fraction: float = 0.5
    ellipse_center: tuple[float, float] = (0.5, 0.5)
    ellipse_axes: tuple[float, float] = (0.4, 0.08)
    circle_centers: tuple[tuple[float, float], tuple[float, float]] = ((0.375, 0.5), (0.625, 0.5))
    circle_radius: float = 0.18

    def __post_init__(self):
        if not (0 < self.contrast <= 1):
            raise InvalidInputError(f"contrast must lie in (0, 1], got {self.contrast}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be nonnegative, got {self.seed}")
        if not (0 <= self.noise_sigma < np.inf):
            raise InvalidInputError(f"noise sigma must be finite and nonnegative, got {self.noise_sigma}")
        grid = Grid2D.for_image(self.nx, self.ny)
        w, hgt = grid.width, grid.height
        if self.kind is PhantomKind.ONED_STRUCTURE:
            if not (0 < self.edge_fraction * w < w):
                raise InvalidInputError("edge must lie strictly inside the image")
        elif self.kind is PhantomKind.ELLIPSE:
            cx, cy = self.ellipse_center
            a, b = self.ellipse_axes
            if not (a > 0 and b > 0 and a <= cx <= w - a and b <= cy <= hgt - b):
                raise InvalidInputError("ellipse does not fit inside the image domain")
        else:
            r = self.circle_radius
            for cx, cy in self.circle_centers:
                if not (r > 0 and r <= cx <= w - r and r <= cy <= hgt - r):
                    raise InvalidInputError("circle does not fit inside the image domain")


def _seeded_normal(seed: int, n: int) -> np.ndarray:
    """Standard normal draws: PCG64 integers -> uniform in (0, 1) -> inverse CDF."""
    # Imported here: only a noisy phantom needs scipy.special, which would
    # otherwise add to the start-up of every atseg command.
    from scipy.special import ndtri

    rng = Generator(PCG64(seed))
    u = (rng.integers(0, 2**53, size=n).astype(float) + 0.5) / 2**53
    return ndtri(u)


def generate(spec: PhantomSpec) -> tuple[ScalarField, EdgeDescription]:
    """Piecewise-constant phantom plus its analytic edge description.

    Values are 0.5 -/+ contrast/2 with seeded Gaussian noise of the requested
    sigma added and the result clamped to [0, 1].  The edge description is
    exact and independent of the noise.
    """
    grid = Grid2D.for_image(spec.nx, spec.ny)
    lo = 0.5 - spec.contrast / 2.0
    hi = 0.5 + spec.contrast / 2.0
    try:
        x = grid.xcoords()[None, :]
        y = grid.ycoords()[:, None]
        if spec.kind is PhantomKind.ONED_STRUCTURE:
            c = spec.edge_fraction * grid.width
            inside = np.broadcast_to(x >= c, (spec.ny, spec.nx))
            truth: EdgeDescription = VerticalLineEdge(c)
        elif spec.kind is PhantomKind.ELLIPSE:
            cx, cy = spec.ellipse_center
            a, b = spec.ellipse_axes
            inside = ((x - cx) / a) ** 2 + ((y - cy) / b) ** 2 <= 1.0
            truth = EllipseEdge(cx, cy, a, b)
        else:
            (cx1, cy1), (cx2, cy2) = spec.circle_centers
            r = spec.circle_radius
            inside = ((x - cx1) ** 2 + (y - cy1) ** 2 <= r**2) | ((x - cx2) ** 2 + (y - cy2) ** 2 <= r**2)
            truth = CirclePairEdge(cx1, cy1, r, cx2, cy2, r)

        img = np.where(inside, hi, lo).astype(float)
        if spec.noise_sigma > 0:
            img = img + spec.noise_sigma * _seeded_normal(spec.seed, img.size).reshape(img.shape)
            img = np.clip(img, 0.0, 1.0)
        return ScalarField.from_matrix(grid, img), truth
    except MemoryError:  # nx * ny pixels cannot be held
        raise InvalidInputError(f"cannot hold a {spec.nx}x{spec.ny} phantom in memory") from None
