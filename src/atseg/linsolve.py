"""Assembly and solution of the three quadratic-subproblem linear systems.

Each assembled matrix is the exact half-Hessian of the discrete energy the
corresponding half-step minimizes, built from the difference matrices of
atseg.grid, so it is symmetric positive definite by construction
and every solve decreases that energy.

A system's sparsity pattern depends only on the grid: L's for the u-system
and the first-order v-system, L^2's for the fourth-order one.  The patterns,
their diagonal positions, the u-system's value map, the red-black split of
L's pattern (with the pattern of its transpose) and the multigrid
transfers are cached per grid, and per grid and boundary treatment the
Galerkin coarse operators of the fourth-order system's off-diagonal part,
which is fixed up to a scale.  Each assembly writes only a new values
array on the shared, read-only index arrays and names the pattern it wrote
on, and a solve of such a system reads the diagonal and split from the
cache, so that a CG solve pays little besides its iterations; a V-cycle's
build restricts only the diagonal.

Solver policy: conjugate gradients at every grid size, chosen from the
matrix.  A matrix whose off-diagonal entries all join points of opposite
checkerboard colour (the 5-point u-system and first-order v-system) is
solved on its black points: the red ones are eliminated, CG runs on the
Schur complement scaled by the black half of A's diagonal on both sides,
and the red values are back-substituted.  That takes half the iterations
of Jacobi-CG on the whole grid, on vectors half as long.  Every other
matrix (the fourth-order v-system, whose condition number grows like h^-4)
takes CG preconditioned by a symmetric geometric multigrid V-cycle.
On request a sparse factorization solves instead: every system is SPD, so
it is factored with one fill-reducing ordering applied to rows and columns
alike and diagonal pivots, with no row interchanges.  A lone direct solve
is exact, and the tests compare CG against it.  Handed a FactorSlot that
holds the factor of an earlier system of the same kind, a direct solve
first runs CG preconditioned by that factor, and factors its own matrix
only if that misses tol within REUSE_ITERATIONS iterations.
The V-cycle smooths with a Chebyshev polynomial in the l1-scaled operator,
applied as l1-Jacobi sweeps damped by the inverses of its roots, which
removes more error per product with the matrix than undamped sweeps do and
keeps the cycle symmetric.  Either way a solve is judged by the true
residual of the field it returns, and CG restarts while that misses tol.

The CG loop is the package's own, not scipy's, so that its inner products
stay off BLAS: OpenBLAS splits a dot product of more than ~10^4 entries over
its threads, and on vectors this short waking them costs more than the product.
The V-cycle's coarsest solve is a product with an inverse taken by numpy, and
scipy's sparse LU is imported on the first direct solve, so a process that
only runs CG loads neither scipy.linalg nor scipy.sparse.linalg.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .energy import BoundaryKind, ModelKind, ModelParams, edge_weights
from .errors import DegenerateSystemError, InvalidInputError, LinearSolveError, require_count
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
    """Sparse SPD system A x = b on the grid of rhs.  second_order names the
    cached pattern an assembler wrote A on, L^2's (True) or L's (False);
    None, for any other matrix, has solve compute A's diagonal and split."""

    matrix: sp.spmatrix
    rhs: ScalarField
    second_order: bool | None = None

    @property
    def grid(self) -> Grid2D:
        return self.rhs.grid


@dataclass(frozen=True)
class SolveResult:
    field: ScalarField
    residual: float
    iterations: int
    converged: bool


@dataclass
class FactorSlot:
    """At most one sparse factorization, which solve(method="direct") reuses
    on later systems of the kind it was made for.  solve empties the slot
    before it factors, so an old factor and its successor are never alive
    together; a caller keeps one slot per system kind, for as long as those
    systems stay close (altmin.run: one run)."""

    lu: object = None


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


@functools.lru_cache(maxsize=8)
def frame_couplings(grid: Grid2D) -> np.ndarray:
    """Where L^2's off-diagonal entries in a frame point's row or column sit
    in its data: the entries that dirichlet1 zeroes."""
    P = bilaplacian_matrix(grid)
    frame = np.zeros(grid.npoints, dtype=bool)
    frame[boundary_indices(grid)] = True
    rows = np.repeat(np.arange(grid.npoints, dtype=P.indices.dtype), np.diff(P.indptr))
    pos = np.flatnonzero((frame[rows] | frame[P.indices]) & (rows != P.indices))
    pos.setflags(write=False)
    return pos


def _on_pattern(P: sp.csr_matrix, data: np.ndarray) -> sp.csr_matrix:
    """The matrix with P's shared, read-only index arrays and the values data,
    one per entry of P.  A shallow copy of P: the constructor would check the
    index arrays again, at about the cost of a product with the matrix."""
    A = copy.copy(P)
    A.data = data
    return A


class RedBlack(NamedTuple):
    """The checkerboard split of a pattern: the red points ((ix + iy) even),
    the black ones, the pattern of B = A[red, black], whose data are the
    positions of its entries in A's data, the row and column of each of
    those entries, and the pattern of B^T, whose data are the positions of
    its entries in B's.  Every index array a solve gathers with is intp:
    np.take converts any other index type first, at several times the cost
    of the gather."""

    red: np.ndarray
    black: np.ndarray
    B: sp.csr_matrix
    rows: np.ndarray
    cols: np.ndarray
    Bt: sp.csr_matrix


def _red_black(P: sp.csr_matrix, grid: Grid2D) -> RedBlack | None:
    """The split of P's pattern, or None if an off-diagonal entry of P
    joins two points of one colour."""
    n = grid.npoints
    iy, ix = np.divmod(np.arange(n), grid.nx)
    black = (ix + iy) % 2 == 1
    rows = np.repeat(np.arange(n), np.diff(P.indptr))
    off = rows != P.indices
    if np.any(off & (black[rows] == black[P.indices])):
        return None
    red_at, black_at = np.flatnonzero(~black), np.flatnonzero(black)
    idx = P.indices.dtype
    rank = np.empty(n, dtype=idx)
    rank[black_at] = np.arange(black_at.size)
    rank[red_at] = np.arange(red_at.size)
    pos = np.flatnonzero(off & ~black[rows])
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[pos], minlength=n)[red_at])]).astype(idx)
    B = read_only(sp.csr_matrix((pos, rank[P.indices[pos]], indptr), shape=(red_at.size, black_at.size)))
    Bt = sp.csr_matrix((np.arange(pos.size), B.indices, B.indptr), shape=B.shape).T.tocsr()
    rows, cols = rank[rows[pos]].astype(np.intp), B.indices.astype(np.intp)
    for a in (red_at, black_at, rows, cols):
        a.setflags(write=False)
    return RedBlack(red_at, black_at, B, rows, cols, read_only(Bt))


@functools.lru_cache(maxsize=8)
def red_black_split(grid: Grid2D) -> RedBlack:
    """The split of L's pattern, which the u-system and the first-order
    v-system share: the 5-point stencil joins only points of two colours."""
    return _red_black(laplacian_matrix(grid), grid)


def require_fidelity(params: ModelParams) -> None:
    """DegenerateSystemError unless gamma > 0."""
    if params.gamma <= 0:
        raise DegenerateSystemError("gamma must be positive: the u-system is singular without fidelity")


def assemble_u_system(v: ScalarField, g: ScalarField, params: ModelParams) -> LinearSystem:
    """System for the image half-step: descent for
    alpha*int v^2|grad u|^2 + eta*int|grad u|^2 + gamma*int(u-g)^2.

    A = D^T diag(2*alpha*v^2 + 2*eta) D + 2*gamma*I, b = 2*gamma*g, with D the
    stacked gradient [Dx; Dy] (weights on the normalized-intensity scale).
    D^T D = -L, so A is written on L's pattern: gram_map carries the weight
    on both halves of D to its values, and 2*gamma goes on the diagonal.
    """
    grid = same_grid(v, g)
    require_fidelity(params)
    c = 1.0 / grid.h
    q = (2.0 * params.alpha_u * v.values**2 + 2.0 * params.eta) * c * c
    data = gram_map(grid) @ np.concatenate([q, q])
    data[diagonal_positions(grid, False)] += 2.0 * params.gamma_u
    rhs = ScalarField(grid, 2.0 * params.gamma_u * g.values)
    return LinearSystem(_on_pattern(laplacian_matrix(grid), data), rhs, second_order=False)


def _v_system(u: ScalarField, params: ModelParams, model: ModelKind) -> LinearSystem:
    """The edge half-step for the model's edge term
    (1/2) int c0 (v-1)^2 + ck |K v|^2, with (c0, ck) from edge_weights:
    (2*alpha*|grad u|^2 + c0) v + ck K^T K v = c0.

    Written on K^T K's cached pattern, -L for K = grad and L^2 for K = lap,
    which the system names: the values ck K^T K, plus the diagonal weight at
    its cached positions.  params.bc acts on L^2 only.
    """
    grid = u.grid
    c0, ck = edge_weights(model, params)
    second_order = model is ModelKind.SECOND_ORDER_LAPLACIAN
    P = bilaplacian_matrix(grid) if second_order else laplacian_matrix(grid)
    A = _on_pattern(P, (ck if second_order else -ck) * P.data)
    du = grad_forward(u)
    A.data[diagonal_positions(grid, second_order)] += 2.0 * params.alpha_u * (du.x**2 + du.y**2) + c0
    b = np.full(grid.npoints, c0)
    if second_order and params.bc is BoundaryKind.DIRICHLET_ONE:
        boundary = np.zeros(grid.npoints, dtype=bool)
        boundary[boundary_indices(grid)] = True
        b -= A @ boundary.astype(float)
        b[boundary] = 1.0
        A.data[frame_couplings(grid)] = 0.0
        A.data[diagonal_positions(grid, True)[boundary]] = 1.0
    return LinearSystem(A, ScalarField(grid, b), second_order=second_order)


def assemble_v_system_first_order(u: ScalarField, params: ModelParams) -> LinearSystem:
    """Edge half-step of the at model, whatever params.model says.  An
    M-matrix with nonnegative rhs, so 0 < v <= 1 (discrete maximum principle).
    """
    return _v_system(u, params, ModelKind.FIRST_ORDER_AT)


def assemble_v_system_second_order(u: ScalarField, params: ModelParams) -> LinearSystem:
    """Edge half-step of the laplacian model, whatever params.model says.

    Fourth order: no maximum principle, solutions overshoot 1 near edges.
    With bc=DIRICHLET_ONE boundary nodes are pinned to v=1 by symmetric
    elimination on the same pattern (boundary rows and columns zeroed, a unit
    diagonal, explicit zeros kept); with the default Neumann choice the
    natural boundary rows of L^2 apply.
    """
    return _v_system(u, params, ModelKind.SECOND_ORDER_LAPLACIAN)


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

# The Chebyshev residual polynomial on [MG_LOWER, 1] is the product of the
# factors 1 - t / lambda_k over its roots lambda_k, so the smoother is one
# Jacobi sweep damped by each 1 / lambda_k (Adams, Brezina, Hu & Tuminaro,
# J. Comput. Phys. 188, 2003).
_WEIGHTS = 1.0 / (
    (1.0 + MG_LOWER) / 2.0
    - (1.0 - MG_LOWER) / 2.0 * np.cos((2 * np.arange(MG_DEGREE) + 1) * np.pi / (2 * MG_DEGREE))
)


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
def _interpolations(grid: Grid2D) -> tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]:
    """The interpolations (along x, along y) from level k+1 to level k,
    finest first, halving each side longer than MG_COARSEST until none is
    left."""
    out = []
    nx, ny = grid.nx, grid.ny
    while max(nx, ny) > MG_COARSEST:
        Px, Py = _interpolation_1d(nx), _interpolation_1d(ny)
        out.append((Px, Py))
        nx, ny = Px.shape[1], Py.shape[1]
    return tuple(out)


@functools.lru_cache(maxsize=8)
def prolongations(grid: Grid2D) -> tuple[sp.csr_matrix, ...]:
    """Bilinear prolongations P_k = Py (x) Px from level k+1 to level k,
    finest first."""
    return tuple(sp.kron(Py, Px, format="csr") for Px, Py in _interpolations(grid))


@functools.lru_cache(maxsize=8)
def restrictions(grid: Grid2D) -> tuple[sp.csr_matrix, ...]:
    """The restrictions R_k = P_k^T from level k to level k+1, finest first."""
    return tuple(read_only(P.T.tocsr()) for P in prolongations(grid))


def _rounding_floor(A: sp.csr_matrix, x: np.ndarray, b: np.ndarray) -> float:
    """Norm of the residual that rounding alone can leave in float64: each
    entry of b - A x takes one rounding per term (at most the row's nonzeros
    plus one), each up to eps of |A||x| + |b|."""
    terms = 1 + int(np.max(np.diff(A.indptr)))
    return terms * float(np.finfo(float).eps) * _norm(_abs(A) @ np.abs(x) + np.abs(b))


def _abs(A: sp.csr_matrix) -> sp.csr_matrix:
    """|A| on A's own index arrays, leaving A as it was: abs() sorts the
    indices of a CSR matrix in place, which changes the rounding of every
    later product with it, so a residual recomputed after solve would no
    longer be the one reported; and a copy of A would copy its indices too."""
    return _on_pattern(A, np.abs(A.data))


def _pair_products(Q: np.ndarray) -> sp.csr_matrix:
    """The rows W_e[J] = Q[:, J] * Q[:, J + e] for e = -1, 0, 1, stacked e
    first, zero where J + e is no column of Q.  A composite of interpolations
    (_interpolation_1d) joins at most two adjacent columns in each row, so
    these are all the products of two entries of a row of Q."""
    W = np.zeros((3, Q.shape[1], Q.shape[0]))
    W[0, 1:] = (Q[:, 1:] * Q[:, :-1]).T
    W[1] = (Q * Q).T
    W[2, :-1] = (Q[:, :-1] * Q[:, 1:]).T
    return read_only(sp.csr_matrix(W.reshape(-1, Q.shape[0])))


@functools.lru_cache(maxsize=8)
def diagonal_transfers(grid: Grid2D) -> tuple[tuple[sp.csr_matrix, sp.csr_matrix], ...]:
    """For each coarse level k, the pair products (Cx, Cy) of the composite
    interpolations Qx, Qy from level k to the grid, so that T_k =
    (Qy (x) Qx)^T diag(a) (Qy (x) Qx), the Galerkin operator of diag(a) on
    level k, joins point (J, I) to (J + ey, I + ex) by entry (ex, I, ey, J)
    of Cx (Cy a)^T, for a the grid's ny x nx array of diagonal values."""
    out, Qx, Qy = [], None, None
    for Px, Py in _interpolations(grid):
        Qx, Qy = (Px, Py) if Qx is None else (Qx @ Px, Qy @ Py)
        out.append((_pair_products(Qx.toarray()), _pair_products(Qy.toarray())))
    return tuple(out)


class Hierarchy(NamedTuple):
    """The Galerkin hierarchy of the off-diagonal part K of a matrix: the l1
    row sums of K, and for each coarse level k the operator G_k =
    R G_{k-1} P, G_0 = K, written on U_k, the union of its pattern and the
    9-point one of T_k (diagonal_transfers), with the position in U_k's data
    of each entry of T_k in the order of Cx (Cy a)^T, and U_k's size for
    the entries of that product that join a point to one off the grid."""

    rowsum: np.ndarray
    coarse: tuple[tuple[sp.csr_matrix, np.ndarray], ...]


def _galerkin_hierarchy(K: sp.csr_matrix, grid: Grid2D) -> Hierarchy:
    rowsum = _abs(K) @ np.ones(K.shape[1])
    rowsum.setflags(write=False)
    coarse, G = [], K
    for P, R, (Px, Py) in zip(prolongations(grid), restrictions(grid), _interpolations(grid)):
        G = R @ G @ P
        G.sort_indices()
        mx, my = Px.shape[1], Py.shape[1]
        n = mx * my
        # Keys row * n + column.  Taken in the order (J, I, ey, ex), T_k's are
        # sorted, as G's are, so every search below is one pass of a merge.
        row, col, ey, ex = np.ix_(range(my), range(mx), range(-1, 2), range(-1, 2))
        inside = (row + ey >= 0) & (row + ey < my) & (col + ex >= 0) & (col + ex < mx)
        t = np.broadcast_to((row * mx + col) * n + (row + ey) * mx + col + ex, inside.shape)[inside]
        g = np.repeat(np.arange(n, dtype=np.int64), np.diff(G.indptr)) * n + G.indices
        below = np.searchsorted(g, t)  # G's keys below each of T_k's
        extra = t[g[np.minimum(below, G.nnz - 1)] != t] if G.nnz else t  # T_k's keys not in G
        g_at, t_at = np.arange(G.nnz) + np.searchsorted(extra, g), below + np.searchsorted(extra, t)
        indices = np.empty(G.nnz + extra.size, dtype=G.indices.dtype)  # of the union, sorted
        indices[g_at] = G.indices
        indices[t_at] = t % n
        indptr = G.indptr + np.searchsorted(extra, np.arange(n + 1) * n)
        U = sp.csr_matrix((np.zeros(indices.size), indices, indptr), (n, n))
        U.data[g_at] = G.data
        pos = np.full(9 * n, indices.size)
        pos[np.broadcast_to((((ex + 1) * mx + col) * 3 + ey + 1) * my + row, inside.shape)[inside]] = t_at
        pos.setflags(write=False)
        coarse.append((read_only(U), pos))
    return Hierarchy(rowsum, tuple(coarse))


@functools.lru_cache(maxsize=8)
def stencil_hierarchy(grid: Grid2D, bc: BoundaryKind) -> tuple[int | None, Hierarchy]:
    """The Galerkin hierarchy of K_bc, the off-diagonal part of L^2 with,
    under dirichlet1, the frame's rows and columns zeroed as _v_system zeroes
    them; and the position in L^2's data of K_bc's largest entry, None when
    K_bc = 0.  Every fourth-order v-system is ck K_bc + diag(a)."""
    L2 = bilaplacian_matrix(grid)
    data = L2.data.copy()
    data[diagonal_positions(grid, True)] = 0.0
    if bc is BoundaryKind.DIRICHLET_ONE:
        data[frame_couplings(grid)] = 0.0
    ref = int(np.argmax(np.abs(data)))
    return (ref if data[ref] else None), _galerkin_hierarchy(_on_pattern(L2, data), grid)


def _stencil_split(A: sp.csr_matrix, grid: Grid2D) -> tuple[float, Hierarchy] | None:
    """(c, the cached hierarchy of K_bc) when A = c K_bc + diag(a) exactly
    for one bc, on the index arrays of L^2's cached pattern; None otherwise.

    A's off-diagonal values are compared with c L^2's in full at every call:
    an assembled matrix can be edited in place.  Dirichlet1 is told from
    Neumann by zeros on all of frame_couplings.  c is read off K_bc's
    largest entry; that division can miss the ck an assembler multiplied by,
    by an ulp, and then c L^2 misses some entries, which one of c's
    neighbours hits.
    """
    L2 = bilaplacian_matrix(grid)
    if A.indices is not L2.indices or A.indptr is not L2.indptr:
        return None
    frame = frame_couplings(grid)
    dirichlet = not np.any(A.data[frame])
    ref, hierarchy = stencil_hierarchy(grid, BoundaryKind.DIRICHLET_ONE if dirichlet else BoundaryKind.NEUMANN)
    c = 0.0 if ref is None else A.data[ref] / L2.data[ref]
    skip = (diagonal_positions(grid, True), frame) if dirichlet else (diagonal_positions(grid, True),)
    for c in (c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf)):
        if _equal_but_at(A.data, c, L2.data, skip):
            return float(c), hierarchy
    return None


# Entries _equal_but_at compares at a time.  Its temporaries then stay well
# below glibc's 128 KiB mmap threshold and are reused from the heap: whole-array
# ones were fresh pages at every call, which took the comparison from 0.5 to
# 1.2 ms inside a noisy-cg run at 128^2.
_CHUNK = 8192


def _equal_but_at(x: np.ndarray, c: float, y: np.ndarray, skip: tuple[np.ndarray, ...]) -> bool:
    """Whether x == c * y entry for entry, except at the positions in skip
    (sorted arrays), where anything goes."""
    starts = range(0, x.size, _CHUNK)
    parts = [np.split(p, np.searchsorted(p, starts[1:])) for p in skip]
    for s, *at in zip(starts, *parts):
        expected = c * y[s : s + _CHUNK]
        for p in at:
            expected[p - s] = x[p]
        if not np.array_equal(expected, x[s : s + _CHUNK]):
            return False
    return True


def multigrid_preconditioner(A: sp.csr_matrix, grid: Grid2D):
    """Symmetric V-cycle r -> M r for an SPD matrix A on grid, with which
    solve preconditions CG on every matrix it cannot split red-black.

    Galerkin coarse operators A_k = R A_{k-1} P, the same Chebyshev smoother
    before and after each coarse correction, and on the coarsest level, which
    has at most MG_COARSEST^2 unknowns, a product with the dense inverse
    L^-T L^-1 of its Cholesky factor L: symmetric by construction, and
    numpy's, so that no CG run loads scipy.linalg.  The l1 row sums D bound
    A from above, so D^-1 A has its spectrum in (0, 1], where the smoother's
    residual polynomial stays below 1 in magnitude: every smoothing contracts
    in the A-norm, and M is symmetric positive definite.

    A_k is linear in A, so A = c K + diag(a) is restricted by parts: A_k =
    c G_k + T_k, with G_k from K's Hierarchy and T_k, the only products made
    per call, two products of the pair products with a.  A fourth-order
    v-system is c K_bc + diag(a), and the hierarchy of K_bc is cached per
    grid and bc (stencil_hierarchy); any other matrix has the hierarchy of
    its off-diagonal part computed here, with c = 1.
    """
    split = _stencil_split(A, grid)
    if split is None:
        a = A.diagonal()
        c, hierarchy = 1.0, _galerkin_hierarchy(A - sp.diags(a, format="csr"), grid)
    else:
        (c, hierarchy), a = split, A.data[diagonal_positions(grid, True)]
    rowsum = abs(c) * hierarchy.rowsum + np.abs(a)
    a = a.reshape(grid.ny, grid.nx)
    levels = []
    transfers = zip(prolongations(grid), restrictions(grid), diagonal_transfers(grid), hierarchy.coarse)
    for P, R, (Cx, Cy), (U, pos) in transfers:
        levels.append((A, _WEIGHTS[:, None] / rowsum, P, R))
        data = np.zeros(U.nnz + 1)  # the last slot takes T_k's entries off the grid
        np.multiply(c, U.data, out=data[:-1])
        np.add.at(data, pos, (Cx @ (Cy @ a).T).ravel())
        A = _on_pattern(U, data[:-1])
        rowsum = _abs(A) @ np.ones(A.shape[1])
    try:
        Li = np.linalg.inv(np.linalg.cholesky(A.toarray()))
    except np.linalg.LinAlgError:
        raise LinearSolveError("matrix is not positive definite") from None
    coarse = Li.T @ Li
    # A module-level function, not a closure that calls itself: that would be
    # a reference cycle, and each solve's hierarchy would wait for the cyclic
    # garbage collector.
    return functools.partial(_vcycle, tuple(levels), coarse)


def _smooth(A: sp.csr_matrix, scaled, x: np.ndarray, r: np.ndarray) -> None:
    """One l1-Jacobi sweep x += s (r - A x) on A x = r, in place, per scaled
    inverse s; the w D^-1 over w in _WEIGHTS apply the Chebyshev polynomial."""
    for s in scaled:
        x += s * (r - A @ x)


def _vcycle(levels, coarse, r: np.ndarray, k: int = 0) -> np.ndarray:
    """M r from level k down: smooth from zero (the first sweep is scaled[0] r),
    correct from level k+1, smooth again.  2 * MG_DEGREE products with A."""
    if k == len(levels):
        return coarse @ r
    A, scaled, P, R = levels[k]
    x = scaled[0] * r
    _smooth(A, scaled[1:], x, r)
    x += P @ _vcycle(levels, coarse, R @ (r - A @ x), k + 1)
    _smooth(A, scaled, x, r)
    return x


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y summed by numpy's own loop, not by BLAS (np.dot, np.linalg.norm)."""
    return float(np.einsum("i,i->", x, y))


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_dot(x, x))


def _overflow(A: sp.csr_matrix, b: np.ndarray) -> FloatingPointError | None:
    """FloatingPointError for a failed solve of A x = b whose entries are all
    finite, if their squares sum past float64's range: an overflow, which
    scipy.sparse's products and np.einsum's sums do not raise themselves.
    None otherwise, as on an indefinite matrix or one holding inf or NaN.
    Called only once a solve has failed."""
    finite = np.all(np.isfinite(A.data)) and np.all(np.isfinite(b))
    if finite and not math.isfinite(_dot(A.data, A.data) + _dot(b, b)):
        return FloatingPointError("overflow in a linear solve of a system with finite entries")
    return None


def _cg(A, b: np.ndarray, x: np.ndarray, precond, stop: float, done: int, budget: int, weight=None):
    """Preconditioned CG on A x = b from a copy of x, with r = b - A x and a
    fresh direction, until the residual's squared norm falls below stop or
    the count, going on from done, reaches budget.  Returns the iterate and
    the count.  LinearSolveError, with the count, if r . M r or p . A p is
    not positive (or is NaN).  precond None is the identity.

    The residual's squared norm is r . r, or r . (W r) for a weight W: that
    of the unscaled residual of a system scaled by W^-1/2 on both sides.
    The weighted sum is taken only where its lower bound min(W) r . r does
    not settle the test, with a margin of 1e-6, far above the rounding of
    either sum, so every pass stops where the full test would.
    """
    x = x.copy()
    r = b - A @ x
    p = rho_prev = None
    settled = stop * (1.0 + 1e-6) / (1.0 if weight is None else float(np.min(weight)))
    for k in range(done, budget):
        rr = _dot(r, r)
        if not rr >= settled and (rr if weight is None else _dot(r, weight * r)) < stop:
            return x, k
        z = r if precond is None else precond(r)
        rho = rr if z is r else _dot(r, z)
        if not rho > 0:
            raise LinearSolveError("matrix is not positive definite", iterations=k)
        if p is None:
            p = z.copy()
        else:
            p *= rho / rho_prev
            p += z
        q = A @ p
        pq = _dot(p, q)
        if not pq > 0:
            raise LinearSolveError("matrix is not positive definite", iterations=k)
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x, budget


class _ScaledSchur(NamedTuple):
    """I - C^T C, applied through C and C^T and never formed."""

    C: sp.csr_matrix
    Ct: sp.csr_matrix

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        return y - self.Ct @ (self.C @ y)


def _reduced(A: sp.csr_matrix, b: np.ndarray, x: np.ndarray, diag: np.ndarray, split: RedBlack):
    """The black points' system S x_k = b_k - B^T D_r^-1 b_r, with the Schur
    complement S = D_k - B^T D_r^-1 B, scaled by D_k^-1/2 on both sides: the
    operator I - C^T C with C = D_r^-1/2 B D_k^-1/2, its right-hand side
    D_k^-1/2 b_k - C^T D_r^-1/2 b_r, the start D_k^1/2 x_k scaled from x, the
    weight D_k that gives the unscaled residual's norm, and the
    back-substitution y -> x, x_k = D_k^-1/2 y, x_r = (b_r - B x_k) / d_r.

    Unpreconditioned CG on the scaled system makes, in exact arithmetic, the
    iterates of CG on S preconditioned by D_k, as Hageman & Young's
    reduced-system CG does (Applied Iterative Methods, 1981, ch. 9): each is
    every second iterate of Jacobi-CG on A started with zero red residuals,
    so it needs half the iterations at about the cost of one product with A
    each, and the scaling leaves no diagonal product and no preconditioner
    in the loop.  C^T has its own CSR pattern, whose values are C's,
    permuted: its products are faster than those with the CSC view C.T.
    """
    d_r, d_k = diag[split.red], diag[split.black]
    s_r, s_k = 1.0 / np.sqrt(d_r), 1.0 / np.sqrt(d_k)
    B = _on_pattern(split.B, np.take(A.data, split.B.data))
    c = np.take(s_r, split.rows)
    c *= np.take(s_k, split.cols)
    c *= B.data
    C = _on_pattern(split.B, c)
    Ct = _on_pattern(split.Bt, np.take(c, split.Bt.data))
    b_r = b[split.red]

    def full(y: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x_k = x[split.black] = s_k * y
        x[split.red] = (b_r - B @ x_k) / d_r
        return x

    return _ScaledSchur(C, Ct), s_k * b[split.black] - Ct @ (s_r * b_r), x[split.black] / s_k, d_k, full


def _restarted(op, rhs, x, precond, weight, full, stop: float, budget: int, judged) -> SolveResult:
    """CG passes (_cg) on op y = rhs from x, each restarted from the last
    pass's iterate, until judged, on the field full(y) (y when full is None),
    converges, the count reaches budget, or a pass lowers the true residual
    no further.  Returns the last verdict."""
    done, last = 0, np.inf
    while True:
        x, done = _cg(op, rhs, x, precond, stop, done, budget, weight)
        out = judged(x if full is None else full(x), done)
        if out.converged or done >= budget or not out.residual < last:
            return out
        last = out.residual


def splu(A: sp.csc_matrix, **options):
    """scipy's sparse LU of A, imported on the first factorization: only
    method "direct" factors, and scipy.sparse.linalg would otherwise load in
    every atseg process."""
    from scipy.sparse.linalg import splu

    return splu(A, **options)


# The methods solve takes, its default first; the CLI's --solver choices.
SOLVER_METHODS = ("cg", "direct")

# solve's default relative residual, which every tight solve of altmin.run
# reaches: the accuracy of a converged run's last recorded state.
SOLVER_TOL = 1e-10

# CG iterations a direct solve spends with a held factor as preconditioner
# before it factors its own matrix.  Within one eps of the benchmark's sweep
# (laplacian, 128^2 strip) such solves take 2-5 iterations to 1e-10; a factor
# carried over from the eps before would take 25-100 at the first solves of
# the next, so each run holds its own.  Factorizations with a budget of 5/10/20
# on 128^2 circles under --solver direct (factoring every solve, in
# brackets): clean, laplacian 4/3/2 (12); sigma 0.1, laplacian at alpha 0.1,
# gamma 100: 9/8/5 (16), the same with --bc dirichlet1 9/8/6 (16), and at at
# the default weights 33/19/12 (51).  Sweep makes 6 (20) at all three.  Every
# budget kept the outer iterations and masks of factoring every solve, and in
# single runs neither 5 nor 20 was faster than 10 on every case.
REUSE_ITERATIONS = 10


def solve(
    sys: LinearSystem,
    tol: float = SOLVER_TOL,
    maxit: int | None = None,
    method: str = "cg",
    x0: ScalarField | None = None,
    factor: FactorSlot | None = None,
) -> SolveResult:
    """Solve an SPD system to relative residual <= tol (default SOLVER_TOL).

    method "cg" runs conjugate gradients from x0 (zero when None), in a
    loop of the package's own whose inner products and norms skip BLAS: its
    threads cost more to wake than a product of vectors this short.  When
    every off-diagonal entry of the matrix joins points of opposite colour
    ((ix + iy) even: red, odd: black), CG runs on the black points' Schur
    complement S = D_k - B^T D_r^-1 B, B = A[red, black], scaled by D_k^-1/2
    on both sides, which makes the iterates of CG on S preconditioned by
    D_k; x0's red half is unused, and after each pass the red values are
    back-substituted, x_r = (b_r - B x_k) / d_r, which leaves the red rows'
    residual at rounding, so the reduced residual is the full one.  Every
    other matrix takes CG preconditioned by a multigrid V-cycle.  A pass
    stops once its recursive residual r (on the reduced system, unscaled)
    has r . r < (tol ||b||)^2; r drifts from the true residual, so the solve
    restarts from its iterate, with r = b - A x and a fresh direction, until
    that converges (below) or a pass gains nothing.  iterations counts the
    CG iterations summed over the passes, on the reduced system when there
    is one; maxit (default 10 per unknown; any other value must be a
    non-negative integer, or InvalidInputError) caps that sum, and hitting
    it returns the last iterate with converged=False rather than raising.
    b = 0 returns x = 0.  An assembler hands over the cached pattern it
    wrote the matrix on, and the diagonal and split are read from positions
    cached with it; for any other matrix they are computed.
    method "direct" factors A with SuperLU, ordered by minimum degree on
    A^T + A applied symmetrically, taking each pivot on the diagonal: no
    row interchanges, which is stable on an SPD matrix, and on the
    fourth-order systems faster and sparser than a row search.  One
    refinement step follows, and iterations is 1.  If factor holds the
    factor of an earlier, nearby system, the solve first runs the CG passes
    above on A from x0 (zero when None), preconditioned by that factor, with
    at most REUSE_ITERATIONS iterations in all and maxit unused, and returns
    their result if it converges.  If it does not, or CG breaks down, the
    slot is emptied, A is factored as above, which gives the field of a
    solve without a slot bit for bit, and the new factor goes into the slot
    (as it does into an empty one).  Without a slot x0 is ignored, and
    method "cg" ignores factor.  An x0 on another grid raises
    GridMismatchError either way.

    A nonzero b whose squares all underflow, so that ||b|| reads 0, is
    solved as b / max|b|, and the field scaled back.

    Both methods report the true residual ||b - A x|| / ||b|| and count as
    converged (a bool) when it meets tol to within the rounding error of
    evaluating b - A x: below that floor no float64 vector does better, and
    within it the reduced residual a CG pass stops on and the full one can
    fall on either side of tol.  An exactly singular factor, a diagonal
    entry that is not positive (under CG, checked before any division), a
    CG breakdown (r . M r or p . A p not positive, as on an indefinite
    matrix) or a non-finite residual raises LinearSolveError, or
    FloatingPointError where the system's entries are too large to square
    (_overflow).  So a matrix that is not SPD, whose diagonal pivots can be
    tiny, either raises or comes back with its true residual as the verdict.
    """
    if not tol > 0:
        raise InvalidInputError("solver tolerance must be positive")
    if maxit is not None:
        require_count("maxit", maxit, 0)
    if method not in SOLVER_METHODS:
        raise InvalidInputError(f"unknown solver method {method!r}")
    if x0 is not None:
        same_grid(x0, sys.rhs)

    A = sys.matrix.tocsr()
    b = sys.rhs.values
    bnorm = _norm(b)
    if bnorm == 0 and np.any(b):
        m = float(np.max(np.abs(b)))
        scaled = replace(sys, rhs=ScalarField(sys.grid, b / m))
        out = solve(scaled, tol, maxit, method, None if x0 is None else ScalarField(sys.grid, x0.values / m), factor)
        return replace(out, field=ScalarField(sys.grid, m * out.field.values))
    scale = bnorm if bnorm > 0 else 1.0

    def judged(x: np.ndarray, iterations: int) -> SolveResult:
        res = _norm(b - A @ x) / scale
        if not math.isfinite(res):
            raise _overflow(A, b) or LinearSolveError("matrix is not positive definite", res, iterations)
        converged = res <= tol or res <= tol + _rounding_floor(A, x, b) / scale
        return SolveResult(ScalarField(sys.grid, x), res, iterations, bool(converged))

    if method == "direct":
        if factor is not None and factor.lu is not None and bnorm > 0:
            x = np.zeros_like(b) if x0 is None else x0.values
            try:
                out = _restarted(A, b, x, factor.lu.solve, None, None, (tol * bnorm) ** 2, REUSE_ITERATIONS, judged)
            except LinearSolveError:  # a breakdown: the factor is too far from A's
                out = None
            if out is not None and out.converged:
                return out
            factor.lu = None
        # Factor without the explicit zeros a shared pattern can hold (they
        # would only add fill), and free that copy once factored: kept to the
        # end of the solve, it raised a sweep's peak RSS by 6 MiB.  Panels of
        # 4 columns, not SuperLU's 10, factor sweep's systems faster and keep
        # its peak RSS where it was with no factor held across solves.
        Ac = A.tocsc(copy=True)
        Ac.eliminate_zeros()
        try:
            lu = splu(
                Ac, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, panel_size=4, options=dict(SymmetricMode=True)
            )
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise LinearSolveError(f"direct solve failed: {exc}") from None
        del Ac
        x = lu.solve(b)
        r = b - A @ x
        if _norm(r) / scale > tol:  # one step of iterative refinement
            x = x + lu.solve(r)
        if factor is not None:
            factor.lu = lu
        return judged(x, 1)

    if bnorm == 0:
        return judged(np.zeros_like(b), 0)
    if sys.second_order is None:
        diag, split = A.diagonal(), _red_black(A, sys.grid)
    else:
        diag = A.data[diagonal_positions(sys.grid, sys.second_order)]
        split = None if sys.second_order else red_black_split(sys.grid)
    if not np.all(diag > 0):
        raise LinearSolveError("matrix is not positive definite", iterations=0)
    x = np.zeros_like(b) if x0 is None else x0.values
    if split is None:
        op, rhs, precond, weight, full = A, b, multigrid_preconditioner(A, sys.grid), None, None
    else:
        precond, (op, rhs, x, weight, full) = None, _reduced(A, b, x, diag, split)
    budget = 10 * sys.grid.npoints if maxit is None else maxit
    try:
        return _restarted(op, rhs, x, precond, weight, full, (tol * bnorm) ** 2, budget, judged)
    except LinearSolveError as exc:
        raise _overflow(A, b) or exc from None
