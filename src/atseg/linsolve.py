"""Assembly and solution of the three quadratic-subproblem linear systems.

Each assembled matrix is the exact half-Hessian of the discrete energy the
corresponding half-step minimizes, built from the difference matrices of
atseg.grid, so it is symmetric positive definite by construction
and every solve decreases that energy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .energy import SQRT2, BoundaryKind, ModelParams
from .errors import DegenerateSystemError, InvalidInputError, LinearSolveError
from .grid import (
    Grid2D,
    ScalarField,
    bilaplacian_matrix,
    difference_matrices,
    grad_forward,
    laplacian_matrix,
    same_grid,
)


@functools.lru_cache(maxsize=8)
def boundary_indices(grid: Grid2D) -> np.ndarray:
    mask = np.zeros((grid.ny, grid.nx), dtype=bool)
    mask[0, :] = mask[-1, :] = True
    mask[:, 0] = mask[:, -1] = True
    return np.flatnonzero(mask.ravel())


@dataclass(frozen=True)
class LinearSystem:
    """Sparse SPD system A x = b on the grid of rhs."""

    matrix: sp.spmatrix
    rhs: ScalarField

    @property
    def grid(self) -> Grid2D:
        return self.rhs.grid

    def apply(self, f: ScalarField) -> ScalarField:
        same_grid(f, self.rhs)
        return ScalarField(f.grid, self.matrix @ f.values)


@dataclass(frozen=True)
class SolveResult:
    field: ScalarField
    residual: float
    iterations: int
    converged: bool


def assemble_u_system(v: ScalarField, g: ScalarField, params: ModelParams) -> LinearSystem:
    """System for the image half-step: descent for
    alpha*int v^2|grad u|^2 + eta*int|grad u|^2 + gamma*int(u-g)^2.

    A = 2*alpha*D^T diag(v^2) D + 2*eta*D^T D + 2*gamma*I, b = 2*gamma*g
    (weights on the normalized-intensity scale).
    """
    grid = same_grid(v, g)
    if params.gamma <= 0:
        raise DegenerateSystemError("gamma must be positive: the u-system is singular without fidelity")
    Dx, Dy = difference_matrices(grid)
    W = sp.diags(v.values**2)
    A = 2.0 * params.alpha_u * (Dx.T @ W @ Dx + Dy.T @ W @ Dy)
    if params.eta > 0:
        A = A - 2.0 * params.eta * laplacian_matrix(grid)
    A = A + 2.0 * params.gamma_u * sp.identity(grid.npoints)
    rhs = ScalarField(grid, 2.0 * params.gamma_u * g.values)
    return LinearSystem(A.tocsr(), rhs)


def _gradient_weight(u: ScalarField, params: ModelParams) -> np.ndarray:
    g = grad_forward(u)
    return 2.0 * params.alpha_u * (g.x**2 + g.y**2)


def assemble_v_system_first_order(u: ScalarField, params: ModelParams) -> LinearSystem:
    """Edge half-step of the first-order model:
    (2*alpha*|grad u|^2 + beta/eps) v - beta*eps*lap v = beta/eps.

    M-matrix with nonnegative rhs, so 0 < v <= 1 (discrete maximum principle).
    """
    grid = u.grid
    L = laplacian_matrix(grid)
    A = sp.diags(_gradient_weight(u, params) + params.beta / params.eps) - params.beta * params.eps * L
    rhs = ScalarField.constant(grid, params.beta / params.eps)
    return LinearSystem(A.tocsr(), rhs)


def assemble_v_system_second_order(u: ScalarField, params: ModelParams) -> LinearSystem:
    """Edge half-step of the Laplacian-penalized model:
    (2*alpha*|grad u|^2 + beta/(sqrt2*eps)) v + (beta*eps^3/sqrt2) lap lap v = beta/(sqrt2*eps).

    Fourth order: no maximum principle, solutions overshoot 1 near edges.
    With bc=DIRICHLET_ONE boundary nodes are pinned to v=1 by symmetric
    elimination; with the default Neumann choice the natural boundary rows of
    L^2 apply.
    """
    grid = u.grid
    c0 = params.beta / (SQRT2 * params.eps)
    c2 = params.beta * params.eps**3 / SQRT2
    A = sp.diags(_gradient_weight(u, params) + c0) + c2 * bilaplacian_matrix(grid)
    b = np.full(grid.npoints, c0)

    if params.bc is BoundaryKind.DIRICHLET_ONE:
        A = A.tocsr()
        bidx = boundary_indices(grid)
        interior = np.ones(grid.npoints)
        interior[bidx] = 0.0
        P = sp.diags(interior)
        ind = 1.0 - interior
        b = interior * (b - A @ ind)
        b[bidx] = 1.0
        A = P @ A @ P + sp.diags(ind)

    return LinearSystem(A.tocsr(), ScalarField(grid, b))


DIRECT_LIMIT = 4096


def solve(
    sys: LinearSystem,
    tol: float = 1e-10,
    maxit: int | None = None,
    method: str = "auto",
    x0: ScalarField | None = None,
) -> SolveResult:
    """Solve an SPD system to relative residual <= tol.

    method "direct" uses a sparse LU factorization, "cg" a Jacobi-preconditioned
    conjugate gradient, "auto" picks direct for grids up to 4096 unknowns and
    cg beyond.  Hitting maxit returns the best iterate with converged=False
    rather than raising.
    """
    if tol <= 0:
        raise InvalidInputError("solver tolerance must be positive")
    if method not in ("auto", "direct", "cg"):
        raise InvalidInputError(f"unknown solver method {method!r}")
    n = sys.grid.npoints
    if method == "auto":
        method = "direct" if n <= DIRECT_LIMIT else "cg"

    A = sys.matrix
    b = sys.rhs.values
    bnorm = float(np.linalg.norm(b))
    scale = bnorm if bnorm > 0 else 1.0

    if method == "direct":
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        x = lu.solve(b)
        r = b - A @ x
        res = float(np.linalg.norm(r)) / scale
        if res > tol:  # one step of iterative refinement
            x = x + lu.solve(r)
            res = float(np.linalg.norm(A @ x - b)) / scale
        return SolveResult(ScalarField(sys.grid, x), res, 1, res <= max(tol, 1e-6))

    if maxit is None:
        maxit = 10 * n
    x = np.zeros(n) if x0 is None else x0.values.copy()
    r = b - A @ x
    res0 = float(np.linalg.norm(r)) / scale
    if res0 <= tol:
        return SolveResult(ScalarField(sys.grid, x), res0, 0, True)
    dinv = 1.0 / A.diagonal()
    z = dinv * r
    p = z.copy()
    rz = float(r @ z)
    best_x, best_res = x.copy(), res0
    for k in range(1, maxit + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp <= 0:
            raise LinearSolveError("matrix is not positive definite", residual=best_res, iterations=k)
        a = rz / pAp
        x += a * p
        r -= a * Ap
        res = float(np.linalg.norm(r)) / scale
        if res < best_res:
            best_x, best_res = x.copy(), res
        if res <= tol:
            return SolveResult(ScalarField(sys.grid, x), res, k, True)
        z = dinv * r
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return SolveResult(ScalarField(sys.grid, best_x), best_res, maxit, False)
