"""The multigrid V-cycle that preconditions CG on the fourth-order v-system.

CG needs a symmetric positive definite preconditioner; these tests check
that property on random grids, thin 2xN and Nx2 ones included, for both
boundary treatments, that its smoother applies the Chebyshev polynomial
and contracts in the A-norm, that the cycle is the one written out densely,
and that the preconditioned solve reaches the direct solution within the
accuracy its tolerance guarantees.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atseg.energy import SQRT2, BoundaryKind, ModelKind, ModelParams
from atseg.errors import LinearSolveError
from atseg.grid import Grid2D, ScalarField
from atseg.linsolve import (
    _WEIGHTS,
    _smooth,
    assemble_v_system_second_order,
    diagonal_positions,
    multigrid_preconditioner,
    prolongations,
    restrictions,
    solve,
)
from atseg.synth import PhantomKind, PhantomSpec, generate

SIDES = st.integers(min_value=2, max_value=40)
# 2xN and Nx2 grids are drawn as often as general ones.
SHAPES = st.one_of(st.tuples(st.just(2), SIDES), st.tuples(SIDES, st.just(2)), st.tuples(SIDES, SIDES))
UNIT = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def v_params(grid, bc):
    # An edge width of two cells and weak coupling: the fourth-order term
    # outweighs the diagonal, so a Neumann system is not diagonally dominant
    # and the smoother has a stiff operator to work on.
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
    _smooth(A, [w / np.abs(A).sum(axis=1).A1 for w in _WEIGHTS], Sb, A @ x)
    e = x - Sb
    assert e @ (A @ e) < x @ (A @ x)


def test_smoothing_is_the_chebyshev_polynomial():
    # With A = diag(lam) and D = I, one pre-smoothing from zero leaves the
    # error R(lam) x, R the degree-2 Chebyshev residual polynomial on
    # [0.1, 1]: T_2 of the interval mapped onto [-1, 1], scaled to R(0) = 1.
    lo = 0.1
    roots = (1 + lo) / 2 - (1 - lo) / 2 * np.cos(np.array([1, 3]) * np.pi / 4)

    def R(t):
        def T2(s):
            return 2.0 * s**2 - 1.0
        return T2((1 + lo - 2 * t) / (1 - lo)) / T2((1 + lo) / (1 - lo))

    assert np.all(np.abs(R(roots)) <= 1e-14)
    lam = np.concatenate([np.linspace(1e-3, 1.0, 200), roots])
    x = np.random.default_rng(8).standard_normal(lam.size)
    A = sp.diags(lam, format="csr")
    Sb = np.zeros_like(x)
    _smooth(A, [w * np.ones_like(x) for w in _WEIGHTS], Sb, A @ x)
    assert np.max(np.abs((x - Sb) - R(lam) * x)) <= 1e-14


def dense_vcycle(A, Ps, r):
    """The V-cycle written out densely, on the columns of r: pre-smooth with
    s0 from zero and s1, the coarse correction P C^-1 P^T with C = P^T A P
    (recursively), then s0 and s1 again; s_k = w_k / (l1 row sums of A) with
    w_k the inverse roots of the degree-2 Chebyshev polynomial on [0.1, 1]."""
    if not Ps:
        return np.linalg.solve(A, r)
    P = Ps[0]
    roots = 0.55 - 0.45 * np.cos(np.array([1, 3]) * np.pi / 4)
    s0, s1 = (1.0 / (lam * np.abs(A).sum(axis=1)[:, None]) for lam in roots)
    x = s0 * r
    x = x + s1 * (r - A @ x)
    x = x + P @ dense_vcycle(P.T @ A @ P, Ps[1:], P.T @ (r - A @ x))
    x = x + s0 * (r - A @ x)
    return x + s1 * (r - A @ x)


@pytest.mark.parametrize("bc", list(BoundaryKind))
@pytest.mark.parametrize("n, depth", [(12, 1), (20, 2)])
def test_vcycle_is_the_dense_cycle(n, depth, bc):
    grid = Grid2D.for_image(n, n)
    u = ScalarField(grid, np.random.default_rng(n).random(grid.npoints))
    A = assemble_v_system_second_order(u, v_params(grid, bc)).matrix
    Ps = [P.toarray() for P in prolongations(grid)]
    assert len(Ps) == depth
    identity = np.eye(grid.npoints)
    precond = multigrid_preconditioner(A, grid)
    M = np.column_stack([precond(e) for e in identity])
    expected = dense_vcycle(A.toarray(), Ps, identity)
    assert np.max(np.abs(M - expected)) <= 1e-12 * np.max(np.abs(expected))


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


def test_restrictions_are_the_cached_transposes(monkeypatch):
    # Built once per grid, read-only, and the only transposes a V-cycle takes.
    grid = Grid2D.for_image(33, 17)
    Rs = restrictions(grid)
    assert restrictions(grid) is Rs
    for P, R in zip(prolongations(grid), Rs, strict=True):
        assert (R != P.T).nnz == 0 and not R.data.flags.writeable
    u = ScalarField(grid, np.random.default_rng(5).random(grid.npoints))
    sys = assemble_v_system_second_order(u, v_params(grid, BoundaryKind.NEUMANN))
    monkeypatch.setattr(type(Rs[0]), "transpose", lambda *a, **k: pytest.fail("a V-cycle transposed P"))
    multigrid_preconditioner(sys.matrix, grid)(sys.rhs.values)


@pytest.mark.parametrize("entry", ["nan-off-diagonal", "inf-diagonal"])
def test_non_finite_entry_is_a_solve_error(entry):
    # An infinite diagonal entry passes the check that the diagonal is
    # positive; either entry makes the V-cycle return NaN, a CG breakdown.
    grid = Grid2D.for_image(32, 32)
    u = ScalarField(grid, np.random.default_rng(3).random(grid.npoints))
    sys = assemble_v_system_second_order(u, v_params(grid, BoundaryKind.NEUMANN))
    diag = diagonal_positions(grid, True)
    if entry == "inf-diagonal":
        sys.matrix.data[diag[100]] = np.inf
    else:
        sys.matrix.data[np.setdiff1d(np.arange(sys.matrix.nnz), diag)[100]] = np.nan
    with pytest.raises(LinearSolveError, match="not positive definite"):
        solve(sys, method="cg")


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
