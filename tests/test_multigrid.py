"""The multigrid V-cycle that preconditions CG on the fourth-order v-system.

CG needs a symmetric positive definite preconditioner; these tests check
that property on random grids, thin 2xN and Nx2 ones included, for both
boundary treatments, that its Chebyshev smoother contracts in the A-norm,
and that the preconditioned solve reaches the direct solution within the
accuracy its tolerance guarantees.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atseg.energy import SQRT2, BoundaryKind, ModelKind, ModelParams
from atseg.grid import Grid2D, ScalarField
from atseg.linsolve import _smooth, assemble_v_system_second_order, multigrid_preconditioner, prolongations, solve
from atseg.synth import PhantomKind, PhantomSpec, generate

SIDES = st.integers(min_value=2, max_value=40)
# 2xN and Nx2 grids are drawn as often as general ones.
SHAPES = st.one_of(st.tuples(st.just(2), SIDES), st.tuples(SIDES, st.just(2)), st.tuples(SIDES, SIDES))
UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def v_params(grid, bc):
    # An edge width of two cells and weak coupling: the fourth-order term
    # outweighs the diagonal, so no row is diagonally dominant and solve
    # preconditions CG with the V-cycle.
    return ModelParams(alpha=1e-2, beta=0.3, gamma=1.0, eps=2.0 * grid.h, eta=0.0, intensity_scale=1.0,
                       model=ModelKind.SECOND_ORDER_LAPLACIAN, bc=bc)


def diagonally_dominant(A):
    return np.all(2.0 * np.abs(A.diagonal()) >= np.abs(A).sum(axis=1).A1)


@st.composite
def v_systems(draw):
    nx, ny = draw(SHAPES)
    grid = Grid2D.for_image(nx, ny)
    u = ScalarField(grid, draw(arrays(np.float64, grid.npoints, elements=UNIT)))
    bc = draw(st.sampled_from(BoundaryKind))
    return assemble_v_system_second_order(u, v_params(grid, bc)), bc


@settings(max_examples=40, deadline=None)
@given(v_systems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_vcycle_is_symmetric_positive_definite(case, seed):
    sys, _ = case
    precond = multigrid_preconditioner(sys.matrix, sys.grid)
    n = sys.grid.npoints
    X = np.random.default_rng(seed).standard_normal((n, min(n, 6)))
    MX = np.column_stack([precond(x) for x in X.T])
    G = X.T @ MX
    assert np.max(np.abs(G - G.T)) <= 1e-12 * np.max(np.abs(G))
    assert np.linalg.eigvalsh(0.5 * (G + G.T)).min() > 0


@settings(max_examples=40, deadline=None)
@given(v_systems(), st.integers(min_value=0, max_value=2**32 - 1))
def test_smoothing_contracts_in_energy_norm(case, seed):
    # One pre-smoothing from zero maps b to S b; for b = A x it leaves the
    # error x - S A x = R(D^-1 A) x, and |R| < 1 on the spectrum (0, 1].
    A = case[0].matrix
    x = np.random.default_rng(seed).standard_normal(A.shape[0])
    Sb = np.zeros_like(x)
    _smooth(A, 1.0 / np.abs(A).sum(axis=1).A1, Sb, A @ x)
    e = x - Sb
    assert e @ (A @ e) < x @ (A @ x)


@settings(max_examples=40, deadline=None)
@given(v_systems())
def test_multigrid_cg_matches_direct(case):
    sys, bc = case
    if bc is BoundaryKind.NEUMANN:
        assert not diagonally_dominant(sys.matrix)
    tol = 1e-10
    cg = solve(sys, tol=tol, method="cg")
    direct = solve(sys, method="direct")
    assert cg.converged
    # |x - x*| <= |A^-1| |r| <= tol |b| / lambda_min; the v-system is bounded
    # below by c0 I, and Dirichlet elimination adds identity rows.
    p = v_params(sys.grid, bc)
    lam = p.beta / (SQRT2 * p.eps)
    if bc is BoundaryKind.DIRICHLET_ONE:
        lam = min(lam, 1.0)
    bound = 2.0 * tol * np.linalg.norm(sys.rhs.values) / lam
    assert np.linalg.norm(cg.field.values - direct.field.values) <= bound


def test_hierarchy_halves_each_long_side():
    shapes = [P.shape for P in prolongations(Grid2D.for_image(128, 2))]
    assert shapes == [(256, 128), (128, 64), (64, 32), (32, 16)]
    last = prolongations(Grid2D.for_image(33, 17))[-1]
    assert last.shape[1] == 5 * 5
    # interpolation reproduces constants, the near-kernel of the Neumann L^2
    P = prolongations(Grid2D.for_image(20, 9))[0]
    assert np.allclose(P @ np.ones(P.shape[1]), 1.0)


def test_cold_fourth_order_solve_takes_few_iterations():
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, noise_sigma=0.1, seed=12))
    for bc in BoundaryKind:
        p = ModelParams(alpha=0.1, beta=0.3, gamma=100.0, eps=3e-2, intensity_scale=1.0,
                        model=ModelKind.SECOND_ORDER_LAPLACIAN, bc=bc)
        r = solve(assemble_v_system_second_order(g, p), tol=1e-10, method="cg")
        assert r.converged and r.iterations <= 60, (bc, r.iterations)


def test_cold_noisy_solve_takes_at_most_22_iterations():
    # The Chebyshev smoother takes 19 (Neumann) and 16 (Dirichlet)
    # iterations here, two l1-Jacobi sweeps a side 32 and 23: the bound
    # catches a smoother that falls back to Jacobi's rate.
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, noise_sigma=0.1, seed=12))
    for bc in BoundaryKind:
        p = ModelParams(alpha=0.1, beta=0.3, gamma=100.0, eps=3e-2, intensity_scale=1.0,
                        model=ModelKind.SECOND_ORDER_LAPLACIAN, bc=bc)
        r = solve(assemble_v_system_second_order(g, p), tol=1e-10, method="cg")
        assert r.converged and r.iterations <= 22, (bc, r.iterations)
