"""Rectangular grid, scalar/vector fields, and the discrete differential operators.

Every operator is a product with one set of cached sparse matrices: forward
differences Dx, Dy (zero rows at the last column/row), the divergence -D^T as
their exact negative adjoint in the h^2-weighted inner product, the Laplacian
L = -(Dx^T Dx + Dy^T Dy) and L^2.  L and L^2 are symmetric by construction,
which the solvers rely on for exact energy descent.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatchError, InvalidInputError


@dataclass(frozen=True)
class Grid2D:
    """Uniform rectangular grid: nx columns, ny rows, spacing h in both directions."""

    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidInputError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if not (self.h > 0 and np.isfinite(self.h)):
            raise InvalidInputError(f"grid spacing must be positive, got {self.h}")

    @classmethod
    def for_image(cls, nx: int, ny: int) -> "Grid2D":
        """Grid whose longer side spans [0, 1]: h = 1/(max(nx, ny) - 1)."""
        if max(nx, ny) < 2:
            raise InvalidInputError(f"grid must be at least 2x2, got {nx}x{ny}")
        return cls(nx, ny, 1.0 / (max(nx, ny) - 1))

    @property
    def npoints(self) -> int:
        return self.nx * self.ny

    @property
    def width(self) -> float:
        return (self.nx - 1) * self.h

    @property
    def height(self) -> float:
        return (self.ny - 1) * self.h

    def xcoords(self) -> np.ndarray:
        return np.arange(self.nx) * self.h

    def ycoords(self) -> np.ndarray:
        return np.arange(self.ny) * self.h


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ScalarField:
    """Real-valued function sampled on a grid; values flat, row-major (i*nx + j)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if v.size != self.grid.npoints:
            raise InvalidInputError(
                f"value count {v.size} does not match grid {self.grid.nx}x{self.grid.ny}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("field values must be finite")
        object.__setattr__(self, "values", _freeze(v))

    @classmethod
    def from_matrix(cls, grid: Grid2D, a: np.ndarray) -> "ScalarField":
        a = np.asarray(a, dtype=float)
        if a.shape != (grid.ny, grid.nx):
            raise InvalidInputError(f"expected shape {(grid.ny, grid.nx)}, got {a.shape}")
        return cls(grid, a.reshape(-1).copy())

    @classmethod
    def constant(cls, grid: Grid2D, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.npoints, float(value)))

    def as_matrix(self) -> np.ndarray:
        """Read-only (ny, nx) view of the values."""
        return self.values.reshape(self.grid.ny, self.grid.nx)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    @functools.cached_property
    def _gradient(self) -> "VectorField2":
        Dx, Dy = difference_matrices(self.grid)
        return VectorField2(self.grid, Dx @ self.values, Dy @ self.values)


@dataclass(frozen=True)
class VectorField2:
    """Two-component field on a grid; components stored like ScalarField values."""

    grid: Grid2D
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "y"):
            c = np.asarray(getattr(self, name), dtype=float).reshape(-1)
            if c.size != self.grid.npoints:
                raise InvalidInputError(f"component {name} has wrong length {c.size}")
            if not np.all(np.isfinite(c)):
                raise InvalidInputError("vector field values must be finite")
            object.__setattr__(self, name, _freeze(c))


def same_grid(*fields) -> Grid2D:
    grids = {f.grid for f in fields}
    if len(grids) != 1:
        raise GridMismatchError(f"fields live on different grids: {grids}")
    return fields[0].grid


def dot(f: ScalarField, g: ScalarField) -> float:
    """Discrete L2 inner product <f, g> = h^2 * sum(f * g)."""
    grid = same_grid(f, g)
    return grid.h**2 * float(np.dot(f.values, g.values))


def dot_vec(p: VectorField2, q: VectorField2) -> float:
    grid = same_grid(p, q)
    return grid.h**2 * float(np.dot(p.x, q.x) + np.dot(p.y, q.y))


def _forward_difference(n: int, h: float) -> sp.spmatrix:
    """1D forward difference (f[i+1] - f[i]) / h on n points; the last row is empty."""
    d = sp.diags([-1.0 / h, 1.0 / h], [0, 1], shape=(n - 1, n))
    return sp.vstack([d, sp.csr_matrix((1, n))])


@functools.lru_cache(maxsize=8)
def difference_matrices(grid: Grid2D):
    """Sparse forward-difference matrices (Dx, Dy) on the flattened row-major
    grid: Dx = I_ny (x) d_nx and Dy = d_ny (x) I_nx for the 1D difference d_n."""
    Dx = sp.kron(sp.identity(grid.ny), _forward_difference(grid.nx, grid.h), format="csr")
    Dy = sp.kron(_forward_difference(grid.ny, grid.h), sp.identity(grid.nx), format="csr")
    return Dx, Dy


def read_only(A: sp.csr_matrix) -> sp.csr_matrix:
    """A with sorted column indices and read-only arrays.  The assembled
    systems of atseg.linsolve share its indices and indptr, so an in-place
    change to any of them raises instead of corrupting the cached operator."""
    A.sort_indices()
    for a in (A.data, A.indices, A.indptr):
        _freeze(a)
    return A


@functools.lru_cache(maxsize=8)
def laplacian_matrix(grid: Grid2D) -> sp.csr_matrix:
    """Symmetric Neumann Laplacian L = -(Dx^T Dx + Dy^T Dy), read-only."""
    Dx, Dy = difference_matrices(grid)
    return read_only((-(Dx.T @ Dx + Dy.T @ Dy)).tocsr())


@functools.lru_cache(maxsize=8)
def bilaplacian_matrix(grid: Grid2D) -> sp.csr_matrix:
    """L @ L, read-only; equals L^T L because L is symmetric, hence positive semidefinite."""
    L = laplacian_matrix(grid)
    return read_only((L @ L).tocsr())


def grad_forward(f: ScalarField) -> VectorField2:
    """Forward-difference gradient (Dx f, Dy f); last column (x) / last row (y) are zero.

    Taken once per field and kept with it: a field never changes, and the
    energy of one outer iteration and the next edge-field assembly both take
    the gradient of the same image.
    """
    return f._gradient


def div_adjoint(p: VectorField2) -> ScalarField:
    """Divergence -(Dx^T p.x + Dy^T p.y), the exact negative adjoint of grad_forward.

    The last column of p.x and last row of p.y are never read: the matching
    rows of Dx and Dy are empty.
    """
    Dx, Dy = difference_matrices(p.grid)
    return ScalarField(p.grid, -(Dx.T @ p.x + Dy.T @ p.y))


def laplacian(f: ScalarField) -> ScalarField:
    """Five-point Laplacian with mirrored (Neumann) boundary: L f = div_adjoint(grad_forward(f))."""
    return ScalarField(f.grid, laplacian_matrix(f.grid) @ f.values)


def bilaplacian(f: ScalarField) -> ScalarField:
    """Laplacian applied twice, L^2 f; symmetric positive semidefinite as L^T L."""
    return ScalarField(f.grid, bilaplacian_matrix(f.grid) @ f.values)
