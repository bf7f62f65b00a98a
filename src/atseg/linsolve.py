"""Assembly and solution of the three quadratic-subproblem linear systems.

Each assembled matrix is the exact half-Hessian of the discrete energy the
corresponding half-step minimizes, built from the difference matrices of
atseg.grid, so it is symmetric positive definite by construction
and every solve decreases that energy.

Solver policy: sparse LU up to 4096 unknowns; above that, scipy's conjugate
gradients preconditioned by Jacobi when the matrix is diagonally dominant
(the u-system, the first-order v-system) and by a symmetric geometric
multigrid V-cycle otherwise (the fourth-order v-system, whose condition
number grows like h^-4).  Either way a solve is judged by the true residual
of the field it returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.sparse.linalg import LinearOperator, cg, splu

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

    A = D^T diag(2*alpha*v^2 + 2*eta) D + 2*gamma*I, b = 2*gamma*g, with D the
    stacked gradient [Dx; Dy] (weights on the normalized-intensity scale).
    """
    grid = same_grid(v, g)
    if params.gamma <= 0:
        raise DegenerateSystemError("gamma must be positive: the u-system is singular without fidelity")
    D = sp.vstack(difference_matrices(grid), format="csr")
    w = 2.0 * params.alpha_u * v.values**2 + 2.0 * params.eta
    A = D.T @ sp.diags(np.concatenate([w, w])) @ D + 2.0 * params.gamma_u * sp.identity(grid.npoints)
    return LinearSystem(A.tocsr(), ScalarField(grid, 2.0 * params.gamma_u * g.values))


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

# V-cycle settings.  On the 128x128 fourth-order v-systems of a noisy phantom,
# 1-3 sweeps and coarsest sides of 8-32 points solved equally fast.  A side of
# at most 8 keeps one smoothed level on a 16x16 grid; with more, the V-cycle
# there would be an exact solve.
MG_SWEEPS = 2
MG_COARSEST = 8


def _interpolation_1d(n: int) -> sp.csr_matrix:
    """Linear interpolation from ceil(n/2) coarse points onto n fine points:
    fine 2j is coarse j, fine 2j+1 the mean of coarse j and j+1 (coarse j alone
    past the last one).  The identity on a side of MG_COARSEST or fewer."""
    if n <= MG_COARSEST:
        return sp.identity(n, format="csr")
    i = np.arange(n)
    nc = (n + 1) // 2
    cols = np.concatenate([i // 2, np.minimum((i + 1) // 2, nc - 1)])
    return sp.csr_matrix((np.full(2 * n, 0.5), (np.tile(i, 2), cols)), shape=(n, nc))


@functools.lru_cache(maxsize=8)
def prolongations(grid: Grid2D) -> tuple[sp.csr_matrix, ...]:
    """Bilinear prolongations P_k from level k+1 to level k, finest first,
    halving each side longer than MG_COARSEST until none is left."""
    out = []
    nx, ny = grid.nx, grid.ny
    while max(nx, ny) > MG_COARSEST:
        Px, Py = _interpolation_1d(nx), _interpolation_1d(ny)
        out.append(sp.kron(Py, Px, format="csr"))
        nx, ny = Px.shape[1], Py.shape[1]
    return tuple(out)


def _rounding_floor(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """Norm of the residual that rounding alone can leave in float64: each
    entry of b - A x takes one rounding per term (at most the row's nonzeros
    plus one), each up to eps of |A||x| + |b|."""
    terms = 1 + int(np.max(sp.csr_matrix(A).getnnz(axis=1)))
    return terms * np.finfo(float).eps * float(np.linalg.norm(_abs(A) @ np.abs(x) + np.abs(b)))


def _abs(A: sp.spmatrix) -> sp.spmatrix:
    """|A|, leaving A as it was: abs() sorts the indices of a CSR matrix in
    place, which changes the rounding of every later product with it, so a
    residual recomputed after solve would no longer be the one reported."""
    B = A.copy()
    np.abs(B.data, out=B.data)
    return B


def _abs_row_sums(A: sp.spmatrix) -> np.ndarray:
    return _abs(A) @ np.ones(A.shape[1])


def multigrid_preconditioner(A: sp.csr_matrix, grid: Grid2D):
    """Symmetric V-cycle r -> M r for an SPD matrix A on grid.

    Galerkin coarse operators P^T A P, MG_SWEEPS l1-Jacobi sweeps before and
    after each coarse correction (the l1 row sums make every sweep an A-norm
    contraction, so M is symmetric positive definite), and a dense Cholesky
    solve on the coarsest level, which has at most MG_COARSEST^2 unknowns.
    """
    levels = []
    for P in prolongations(grid):
        R = P.T.tocsr()
        levels.append((A, 1.0 / _abs_row_sums(A), P, R))
        A = (R @ A @ P).tocsr()
    try:
        coarse = cho_factor(A.toarray())
    except LinAlgError:
        raise LinearSolveError("matrix is not positive definite") from None
    # A module-level function, not a closure that calls itself: that would be
    # a reference cycle, and each solve's hierarchy would wait for the cyclic
    # garbage collector.
    return functools.partial(_vcycle, tuple(levels), coarse)


def _vcycle(levels, coarse, r: np.ndarray, k: int = 0) -> np.ndarray:
    """M r from level k down: smooth, correct from level k+1, smooth again."""
    if k == len(levels):
        return cho_solve(coarse, r)
    A, dinv, P, R = levels[k]
    x = dinv * r
    for _ in range(MG_SWEEPS - 1):
        x += dinv * (r - A @ x)
    x += P @ _vcycle(levels, coarse, R @ (r - A @ x), k + 1)
    for _ in range(MG_SWEEPS):
        x += dinv * (r - A @ x)
    return x


def solve(
    sys: LinearSystem,
    tol: float = 1e-10,
    maxit: int | None = None,
    method: str = "auto",
    x0: ScalarField | None = None,
) -> SolveResult:
    """Solve an SPD system to relative residual <= tol.

    method "direct" uses a sparse LU factorization and one refinement step,
    "cg" scipy's preconditioned conjugate gradients, "auto" picks direct for
    grids up to 4096 unknowns and cg beyond.  CG is preconditioned by Jacobi
    when every row of the matrix is diagonally dominant and by a multigrid
    V-cycle otherwise; hitting maxit returns its last iterate with
    converged=False rather than raising.

    Both methods report the true residual ||b - A x|| / ||b|| and count as
    converged when it meets tol or lies within the rounding error of
    evaluating b - A x: no float64 vector does better, and on stiff
    fourth-order systems that floor lies above 1e-10.  An exactly singular
    factor, or a non-finite residual (CG breaking down on an indefinite
    matrix), raises LinearSolveError.
    """
    if not tol > 0:
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
        try:
            lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise LinearSolveError(f"direct solve failed: {exc}") from None
        x = lu.solve(b)
        r = b - A @ x
        if float(np.linalg.norm(r)) / scale > tol:  # one step of iterative refinement
            x = x + lu.solve(r)
        iterations = 1
    else:
        diag = A.diagonal()
        if np.all(2.0 * np.abs(diag) >= _abs_row_sums(A)):
            precond = functools.partial(np.multiply, 1.0 / diag)
        else:
            precond = multigrid_preconditioner(A, sys.grid)
        steps = []  # cg hands the callback its iterate once per iteration
        x, _ = cg(
            A, b, x0=None if x0 is None else x0.values, rtol=tol, atol=0.0,
            maxiter=10 * n if maxit is None else maxit,
            M=LinearOperator(A.shape, matvec=precond, dtype=float), callback=steps.append,
        )
        iterations = len(steps)

    res = float(np.linalg.norm(b - A @ x)) / scale
    if not np.isfinite(res):
        raise LinearSolveError("matrix is not positive definite", residual=res, iterations=iterations)
    converged = res <= tol or res <= _rounding_floor(A, x, b) / scale
    return SolveResult(ScalarField(sys.grid, x), res, iterations, converged)
