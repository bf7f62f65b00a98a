"""Assembly and solution of the three quadratic-subproblem linear systems.

Each assembled matrix is the exact half-Hessian of the discrete energy the
corresponding half-step minimizes, built from the difference matrices of
atseg.grid, so it is symmetric positive definite by construction
and every solve decreases that energy.

A system's sparsity pattern depends only on the grid: L's for the u-system
and the first-order v-system, L^2's for the fourth-order one.  The patterns,
their diagonal positions and the u-system's value map are cached per grid,
and each assembly writes only a new values array on the shared, read-only
index arrays.

Solver policy: sparse LU up to 4096 unknowns; above that, scipy's conjugate
gradients preconditioned by Jacobi when the matrix is diagonally dominant
(the u-system, the first-order v-system) and by a symmetric geometric
multigrid V-cycle otherwise (the fourth-order v-system, whose condition
number grows like h^-4).  The V-cycle smooths with a Chebyshev polynomial
in the l1-scaled operator, which removes more error per product with the
matrix than Jacobi sweeps do and keeps the cycle symmetric.  Either way a
solve is judged by the true residual of the field it returns.
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
    read_only,
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


@functools.lru_cache(maxsize=16)
def diagonal_positions(grid: Grid2D, second_order: bool) -> np.ndarray:
    """Where the diagonal sits in the data of L's pattern, or of L^2's."""
    P = bilaplacian_matrix(grid) if second_order else laplacian_matrix(grid)
    rows = np.repeat(np.arange(grid.npoints, dtype=P.indices.dtype), np.diff(P.indptr))
    pos = np.flatnonzero(P.indices == rows)
    pos.setflags(write=False)
    return pos


@functools.lru_cache(maxsize=8)
def gram_map(grid: Grid2D) -> sp.csr_matrix:
    """Signs M with D^T diag(w) D = M @ q on L's pattern, for D = [Dx; Dy] and
    q = (w * (1/h)) * (1/h).

    Every nonempty row k of D is (e_b - e_a)/h with a < b, so the product
    adds w_k/h^2, rounded as q_k is, at (a, a) and (b, b) and its negative at
    (a, b) and (b, a): column k of M holds those four signs at the positions
    of the four entries in L's data.  The columns of every row of M are
    sorted, so each entry also sums its terms in the product's order: M @ q
    is D^T diag(w) D bit for bit.
    """
    L = laplacian_matrix(grid)
    D = sp.vstack(difference_matrices(grid), format="csr")
    a, b = D.indices[0::2], D.indices[1::2]
    # 1 + the position of each entry of L's pattern, looked up by (row, column)
    where = sp.csr_matrix((np.arange(1, L.nnz + 1, dtype=L.indices.dtype), L.indices, L.indptr), shape=L.shape)
    pos = np.asarray(where[np.stack([a, b, a, b], 1).ravel(), np.stack([a, b, b, a], 1).ravel()]).ravel() - 1
    signs = np.tile([1.0, 1.0, -1.0, -1.0], a.size)
    return read_only(sp.csc_matrix((signs, pos, 2 * D.indptr), shape=(L.nnz, D.shape[0])).tocsr())


def _on_pattern(P: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """The matrix with P's shared, read-only index arrays and the values data."""
    return sp.csr_matrix((data, P.indices, P.indptr), shape=P.shape)


def assemble_u_system(v: ScalarField, g: ScalarField, params: ModelParams) -> LinearSystem:
    """System for the image half-step: descent for
    alpha*int v^2|grad u|^2 + eta*int|grad u|^2 + gamma*int(u-g)^2.

    A = D^T diag(2*alpha*v^2 + 2*eta) D + 2*gamma*I, b = 2*gamma*g, with D the
    stacked gradient [Dx; Dy] (weights on the normalized-intensity scale).
    D^T D = -L, so A is written on L's pattern: gram_map carries the weight
    on both halves of D to its values, and 2*gamma goes on the diagonal.
    """
    grid = same_grid(v, g)
    if params.gamma <= 0:
        raise DegenerateSystemError("gamma must be positive: the u-system is singular without fidelity")
    c = 1.0 / grid.h
    q = (2.0 * params.alpha_u * v.values**2 + 2.0 * params.eta) * c * c
    data = gram_map(grid) @ np.concatenate([q, q])
    data[diagonal_positions(grid, False)] += 2.0 * params.gamma_u
    rhs = ScalarField(grid, 2.0 * params.gamma_u * g.values)
    return LinearSystem(_on_pattern(laplacian_matrix(grid), data), rhs)


def _gradient_weight(u: ScalarField, params: ModelParams) -> np.ndarray:
    g = grad_forward(u)
    return 2.0 * params.alpha_u * (g.x**2 + g.y**2)


def assemble_v_system_first_order(u: ScalarField, params: ModelParams) -> LinearSystem:
    """Edge half-step of the first-order model:
    (2*alpha*|grad u|^2 + beta/eps) v - beta*eps*lap v = beta/eps.

    On L's pattern: the values -beta*eps*L plus the diagonal weight.  An
    M-matrix with nonnegative rhs, so 0 < v <= 1 (discrete maximum principle).
    """
    grid = u.grid
    L = laplacian_matrix(grid)
    data = -(params.beta * params.eps) * L.data
    data[diagonal_positions(grid, False)] += _gradient_weight(u, params) + params.beta / params.eps
    rhs = ScalarField.constant(grid, params.beta / params.eps)
    return LinearSystem(_on_pattern(L, data), rhs)


def assemble_v_system_second_order(u: ScalarField, params: ModelParams) -> LinearSystem:
    """Edge half-step of the Laplacian-penalized model:
    (2*alpha*|grad u|^2 + beta/(sqrt2*eps)) v + (beta*eps^3/sqrt2) lap lap v = beta/(sqrt2*eps).

    On L^2's pattern: the values c2*L^2 plus the diagonal weight.  Fourth
    order: no maximum principle, solutions overshoot 1 near edges.  With
    bc=DIRICHLET_ONE boundary nodes are pinned to v=1 by symmetric
    elimination on the same pattern (boundary rows and columns zeroed, a unit
    diagonal, explicit zeros kept); with the default Neumann choice the
    natural boundary rows of L^2 apply.
    """
    grid = u.grid
    c0 = params.beta / (SQRT2 * params.eps)
    c2 = params.beta * params.eps**3 / SQRT2
    L2 = bilaplacian_matrix(grid)
    diag = diagonal_positions(grid, True)
    A = _on_pattern(L2, c2 * L2.data)
    A.data[diag] += _gradient_weight(u, params) + c0
    b = np.full(grid.npoints, c0)

    if params.bc is BoundaryKind.DIRICHLET_ONE:
        boundary = np.zeros(grid.npoints, dtype=bool)
        boundary[boundary_indices(grid)] = True
        b -= A @ boundary.astype(float)
        b[boundary] = 1.0
        A.data[np.repeat(boundary, np.diff(L2.indptr)) | boundary[L2.indices]] = 0.0
        A.data[diag[boundary]] = 1.0

    return LinearSystem(A, ScalarField(grid, b))


DIRECT_LIMIT = 4096

# V-cycle settings.  On the 128x128 fourth-order v-systems of a noisy phantom,
# coarsest sides of 8-32 points solved equally fast.  A side of at most 8 keeps
# one smoothed level on a 16x16 grid; with more, the V-cycle there would be an
# exact solve.  The smoother is a Chebyshev polynomial of degree MG_DEGREE in
# D^-1 A, with D the l1 row sums, aimed at [MG_LOWER, 1] of its spectrum.  On
# the v-solves of the noisy-cg benchmark (10 outer iterations) lower ends of
# 0.05/0.1/0.2/0.3 took 199/204/224/242 CG iterations; degree 3 took 173 but
# was no faster end to end.
MG_DEGREE = 2
MG_LOWER = 0.1
MG_COARSEST = 8


def _chebyshev_steps(degree: int, lower: float) -> tuple[float, tuple[tuple[float, float], ...]]:
    """Scalars of the Chebyshev iteration on [lower, 1] (Saad, Iterative
    Methods for Sparse Linear Systems, Algorithm 12.1): the first step's
    1/theta, then (rho_k rho_{k-1}, 2 rho_k / delta) for each later one."""
    theta, delta = (1.0 + lower) / 2.0, (1.0 - lower) / 2.0
    sigma = theta / delta
    rho = 1.0 / sigma
    steps = []
    for _ in range(degree - 1):
        rho_next = 1.0 / (2.0 * sigma - rho)
        steps.append((rho_next * rho, 2.0 * rho_next / delta))
        rho = rho_next
    return 1.0 / theta, tuple(steps)


_CHEBYSHEV = _chebyshev_steps(MG_DEGREE, MG_LOWER)


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

    Galerkin coarse operators P^T A P, the same Chebyshev smoother before and
    after each coarse correction, and a dense Cholesky solve on the coarsest
    level, which has at most MG_COARSEST^2 unknowns.  The l1 row sums D bound
    A from above, so D^-1 A has its spectrum in (0, 1], where the smoother's
    residual polynomial stays below 1 in magnitude: every smoothing contracts
    in the A-norm, and M is symmetric positive definite.
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


def _smooth(A: sp.csr_matrix, dinv: np.ndarray, x: np.ndarray, res: np.ndarray) -> None:
    """MG_DEGREE Chebyshev steps on A x = r, in place: res holds r - A x on
    entry and is overwritten.  Makes MG_DEGREE - 1 products with A."""
    first, steps = _CHEBYSHEV
    d = np.multiply(dinv, res)
    d *= first
    x += d
    w = np.empty_like(d)
    for scale, gain in steps:
        res -= A @ d
        np.multiply(dinv, res, out=w)
        w *= gain
        d *= scale
        d += w
        x += d


def _vcycle(levels, coarse, r: np.ndarray, k: int = 0) -> np.ndarray:
    """M r from level k down: smooth from zero, correct from level k+1, then
    smooth with the same polynomial.  2 * MG_DEGREE products with A."""
    if k == len(levels):
        return cho_solve(coarse, r)
    A, dinv, P, R = levels[k]
    x = np.zeros_like(r)
    res = r.copy()
    _smooth(A, dinv, x, res)
    np.subtract(r, A @ x, out=res)
    x += P @ _vcycle(levels, coarse, R @ res, k + 1)
    np.subtract(r, A @ x, out=res)
    _smooth(A, dinv, x, res)
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
        # Factor without the explicit zeros a shared pattern can hold (they
        # would only add fill), and free that copy once factored: kept to the
        # end of the solve, it raised a sweep's peak RSS by 6 MiB.
        Ac = A.tocsc(copy=True)
        Ac.eliminate_zeros()
        try:
            lu = splu(Ac, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise LinearSolveError(f"direct solve failed: {exc}") from None
        del Ac
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
