import functools
import json

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, cg, spsolve

from atseg import altmin, linsolve
from atseg.energy import BoundaryKind, ModelKind, ModelParams, total_energy
from atseg.errors import DegenerateSystemError, GridMismatchError, InvalidInputError, LinearSolveError
from atseg.grid import Grid2D, ScalarField, bilaplacian_matrix, laplacian_matrix
from atseg.linsolve import (
    LinearSystem,
    assemble_u_system,
    assemble_v_system_first_order,
    assemble_v_system_second_order,
    boundary_indices,
    solve,
)
from atseg.synth import PhantomKind, PhantomSpec, generate

SQRT2 = np.sqrt(2.0)


def params(eps=3e-2, model=ModelKind.FIRST_ORDER_AT, **kw):
    return ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=eps, model=model, **kw)


def red_points(grid):
    """True where (ix + iy) is even: the points the 5-point CG solves eliminate."""
    iy, ix = np.divmod(np.arange(grid.npoints), grid.nx)
    return (ix + iy) % 2 == 0


def step_image(grid):
    a = np.where(np.arange(grid.nx)[None, :] < grid.nx // 2, 0.1, 0.9)
    return ScalarField.from_matrix(grid, np.broadcast_to(a, (grid.ny, grid.nx)).copy())


class TestUSystem:
    def test_zero_edge_field_reduces_to_fidelity(self):
        rng = np.random.default_rng(0)
        grid = Grid2D(8, 8, 1 / 7)
        g = ScalarField(grid, rng.random(64))
        v0 = ScalarField.constant(grid, 0.0)
        p = ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=3e-2, eta=0.0)
        sys = assemble_u_system(v0, g, p)
        u = solve(sys, method="direct").field
        assert np.allclose(u.values, g.values, atol=1e-12)

    def test_smoothing_never_amplifies(self):
        rng = np.random.default_rng(1)
        grid = Grid2D(8, 8, 1 / 7)
        g = ScalarField(grid, rng.random(64))
        sys = assemble_u_system(ScalarField.constant(grid, 1.0), g, params())
        u = solve(sys, method="direct").field
        assert u.max_abs() <= g.max_abs() + 1e-12

    def test_dense_symmetry(self):
        rng = np.random.default_rng(2)
        grid = Grid2D(8, 8, 1 / 7)
        v = ScalarField(grid, rng.random(64))
        g = ScalarField(grid, rng.random(64))
        A = assemble_u_system(v, g, params()).matrix.toarray()
        assert np.max(np.abs(A - A.T)) < 1e-13 * max(1.0, np.abs(A).max())

    def test_gamma_zero_rejected(self):
        grid = Grid2D(6, 6, 0.2)
        f = ScalarField.constant(grid, 0.5)
        with pytest.raises(DegenerateSystemError):
            assemble_u_system(f, f, ModelParams(alpha=1e-2, beta=0.3, gamma=0.0, eps=3e-2))


class TestFirstOrderVSystem:
    def test_flat_image_gives_flat_edge_field(self):
        grid = Grid2D(10, 10, 1 / 9)
        u = ScalarField.constant(grid, 0.5)
        v = solve(assemble_v_system_first_order(u, params()), method="direct").field
        assert np.allclose(v.values, 1.0, atol=1e-12)

    def test_maximum_principle_on_step(self):
        grid = Grid2D.for_image(16, 16)
        sys = assemble_v_system_first_order(step_image(grid), params())
        v = np.linalg.solve(sys.matrix.toarray(), sys.rhs.values)
        assert v.min() > 0.0
        assert v.max() <= 1.0 + 1e-12

    def test_m_matrix_structure(self):
        grid = Grid2D.for_image(8, 8)
        A = assemble_v_system_first_order(step_image(grid), params()).matrix.toarray()
        off = A - np.diag(np.diag(A))
        assert np.all(off <= 1e-14)
        assert np.all(np.diag(A) > 0)
        assert np.max(np.abs(A - A.T)) < 1e-13 * np.abs(A).max()


class TestSecondOrderVSystem:
    def test_flat_image_gives_flat_edge_field(self):
        grid = Grid2D(10, 10, 1 / 9)
        u = ScalarField.constant(grid, 0.5)
        p = params(model=ModelKind.SECOND_ORDER_LAPLACIAN)
        v = solve(assemble_v_system_second_order(u, p), method="direct").field
        assert np.allclose(v.values, 1.0, atol=1e-10)

    def test_dense_spd_and_eigenvalue_floor(self):
        grid = Grid2D.for_image(8, 8)
        p = params(model=ModelKind.SECOND_ORDER_LAPLACIAN)
        A = assemble_v_system_second_order(step_image(grid), p).matrix.toarray()
        assert np.max(np.abs(A - A.T)) < 1e-13 * np.abs(A).max()
        eig = np.linalg.eigvalsh(A)
        assert eig.min() >= p.beta / (SQRT2 * p.eps) - 1e-10

    def test_dirichlet_rows_pin_boundary(self):
        grid = Grid2D.for_image(8, 8)
        p = params(model=ModelKind.SECOND_ORDER_LAPLACIAN, bc=BoundaryKind.DIRICHLET_ONE)
        sys = assemble_v_system_second_order(step_image(grid), p)
        A = sys.matrix.toarray()
        b = boundary_indices(grid)
        for i in b:
            row = A[i].copy()
            row[i] -= 1.0
            assert np.all(row == 0.0)
            assert sys.rhs.values[i] == 1.0
        eig = np.linalg.eigvalsh(A)
        assert eig.min() > 0
        v = solve(sys, method="direct").field
        assert np.allclose(v.values[b], 1.0, atol=1e-12)

    def test_no_maximum_principle_on_step(self):
        grid = Grid2D.for_image(64, 64)
        p = params(eps=9e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN)
        v = solve(assemble_v_system_second_order(step_image(grid), p), method="direct").field
        assert v.values.max() > 1.005


class TestSolve:
    def test_identity_system_converges_immediately(self):
        grid = Grid2D(6, 6, 0.2)
        rng = np.random.default_rng(3)
        b = ScalarField(grid, rng.random(36))
        sys = LinearSystem(sp.identity(36, format="csr"), b)
        r = solve(sys, method="cg")
        assert r.converged and r.iterations == 1
        assert np.allclose(r.field.values, b.values, atol=1e-14)

    def test_cg_matches_dense_solve(self):
        rng = np.random.default_rng(4)
        grid = Grid2D(8, 8, 1 / 7)
        v = ScalarField(grid, rng.random(64))
        g = ScalarField(grid, rng.random(64))
        sys = assemble_u_system(v, g, params())
        dense = np.linalg.solve(sys.matrix.toarray(), sys.rhs.values)
        r = solve(sys, tol=1e-10, method="cg")
        assert r.converged
        assert np.allclose(r.field.values, dense, atol=1e-8)

    def test_flat_rhs_is_an_easy_direction(self):
        # rhs is an eigenvector of A; Jacobi weighting costs a few extra sweeps
        grid = Grid2D(12, 12, 1 / 11)
        u = ScalarField.constant(grid, 0.3)
        r = solve(assemble_v_system_first_order(u, params()), method="cg")
        assert r.converged and r.iterations <= 15
        assert np.allclose(r.field.values, 1.0, atol=1e-10)

    def test_maxit_returns_best_iterate_not_crash(self):
        grid = Grid2D.for_image(16, 16)
        p = params(eps=9e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN)
        sys = assemble_v_system_second_order(step_image(grid), p)
        r = solve(sys, tol=1e-14, maxit=2, method="cg")
        assert not r.converged
        assert r.iterations == 2
        assert np.isfinite(r.residual)

    def test_solution_never_increases_quadratic_objective(self):
        rng = np.random.default_rng(5)
        grid = Grid2D.for_image(16, 16)
        v = ScalarField(grid, rng.random(grid.npoints))
        g = ScalarField(grid, rng.random(grid.npoints))
        sys = assemble_u_system(v, g, params())

        def objective(x):
            return 0.5 * x @ (sys.matrix @ x) - sys.rhs.values @ x

        x0 = rng.random(grid.npoints)
        r = solve(sys, method="direct")
        scale = abs(objective(x0)) + 1.0
        assert objective(r.field.values) <= objective(x0) + 1e-10 * scale

    def test_bad_arguments(self):
        grid = Grid2D(4, 4, 0.25)
        sys = LinearSystem(sp.identity(16, format="csr"), ScalarField.constant(grid, 1.0))
        with pytest.raises(InvalidInputError):
            solve(sys, tol=0.0)
        with pytest.raises(InvalidInputError):
            solve(sys, method="magic")

    @pytest.mark.parametrize("maxit", [-3, 2.5, True, "5"])
    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_maxit_must_be_a_non_negative_integer(self, method, maxit):
        grid = Grid2D(8, 8, 1 / 7)
        sys = assemble_u_system(ScalarField.constant(grid, 1.0), step_image(grid), params())
        with pytest.raises(InvalidInputError, match="maxit"):
            solve(sys, maxit=maxit, method=method)
        for ok in (None, 0, 3, np.int64(3)):
            solve(sys, maxit=ok, method=method)

    def test_nan_tolerance_rejected(self):
        grid = Grid2D(4, 4, 0.25)
        sys = LinearSystem(sp.identity(16, format="csr"), ScalarField.constant(grid, 1.0))
        with pytest.raises(InvalidInputError):
            solve(sys, tol=float("nan"))

    def test_singular_direct_solve_raises(self):
        grid = Grid2D(4, 4, 1 / 3)
        d = np.ones(16)
        d[5] = 0.0
        sys = LinearSystem(sp.diags(d, format="csr"), ScalarField.constant(grid, 1.0))
        with pytest.raises(LinearSolveError):
            solve(sys, method="direct")

    @pytest.mark.parametrize(
        "offdiag, even", [(0.0, 1.0), (0.3, 1.0), (0.3, -1.0)], ids=["0.0", "0.3", "negative-diagonal"]
    )
    def test_indefinite_system_raises_under_cg(self, offdiag, even):
        # Each case has a negative diagonal entry.  solve rejects it before
        # it reduces the system or builds a preconditioner, so the typed
        # error comes before any floating-point error or iteration (scipy's
        # CG would converge on the negative diagonal, to the solution of a
        # negative definite system).
        grid = Grid2D(8, 8, 1 / 7)
        d = np.where(np.arange(64) % 2 == 0, even, -1.0)
        A = sp.diags([np.full(63, offdiag), d, np.full(63, offdiag)], [-1, 0, 1], format="csr")
        with np.errstate(all="raise"), pytest.raises(LinearSolveError) as exc:
            solve(LinearSystem(A, ScalarField.constant(grid, 1.0)), method="cg")
        assert exc.value.iterations == 0

    def test_default_is_cg_on_a_small_grid(self, monkeypatch):
        # No size rule: 256 unknowns take CG too, and no factorization runs.
        factored = []
        splu = linsolve.splu
        monkeypatch.setattr(linsolve, "splu", lambda A, **kw: factored.append(A) or splu(A, **kw))
        grid = Grid2D.for_image(16, 16)
        r = solve(assemble_u_system(ScalarField.constant(grid, 0.5), step_image(grid), params()))
        assert r.converged and r.iterations > 1
        assert factored == []

    def test_auto_method_rejected(self):
        grid = Grid2D(4, 4, 0.25)
        sys = LinearSystem(sp.identity(16, format="csr"), ScalarField.constant(grid, 1.0))
        with pytest.raises(InvalidInputError):
            solve(sys, method="auto")

    @pytest.mark.parametrize("method", ["cg", "direct"])
    def test_x0_on_another_grid_raises(self, method):
        grid = Grid2D.for_image(16, 16)
        sys = assemble_u_system(ScalarField.constant(grid, 0.5), step_image(grid), params())
        with pytest.raises(GridMismatchError):
            solve(sys, method=method, x0=ScalarField.constant(Grid2D.for_image(8, 8), 1.0))


@pytest.mark.parametrize("method", ["direct", "cg"])
def test_reported_residual_is_the_true_residual(method):
    # The criterion-8 strip v-system: CG's recursive residual falls below tol
    # while the true one stays near the rounding floor, ~1e-8.
    g, _ = generate(PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=512, ny=32, noise_sigma=0.0))
    sys = assemble_v_system_second_order(g, params(eps=8e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN))
    r = solve(sys, tol=1e-10, method=method)
    b = sys.rhs.values
    true = np.linalg.norm(b - sys.matrix @ r.field.values) / np.linalg.norm(b)
    assert r.residual == pytest.approx(true, rel=1e-12)
    assert r.converged


class TestCGRestart:
    def counted(self, monkeypatch):
        """Record (start, done, budget, iterate, reached) of every CG pass solve runs."""
        calls = []
        cg = linsolve._cg

        def counting(A, b, x, precond, stop, done, budget, weight):
            out = cg(A, b, x, precond, stop, done, budget, weight)
            calls.append((x.copy(), done, budget, *out))
            return out

        monkeypatch.setattr(linsolve, "_cg", counting)
        return calls

    def ellipse_edge_system(self):
        # The first edge-field solve of `segment --model laplacian --eps 9e-2`
        # on the sigma=0.1 ellipse: the first CG pass stops on its recursively
        # updated residual at a true residual of about 2e-10, twice tol.
        g, _ = generate(PhantomSpec(PhantomKind.ELLIPSE, noise_sigma=0.1, seed=11))
        sys = assemble_v_system_second_order(g, params(eps=9e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN))
        return sys, ScalarField.constant(g.grid, 1.0)

    @pytest.mark.parametrize("maxit", [None, 60])
    def test_restarts_from_its_iterate_within_maxit(self, monkeypatch, maxit):
        sys, v = self.ellipse_edge_system()
        calls = self.counted(monkeypatch)
        r = solve(sys, tol=1e-10, maxit=maxit, method="cg", x0=v)
        assert r.converged and r.residual <= 1e-10
        assert len(calls) >= 2
        budget = 10 * sys.grid.npoints if maxit is None else maxit
        x, done = v.values, 0
        for start, first, cap, x_next, reached in calls:
            # each pass starts from the iterate the previous one returned and
            # counts on from what the earlier ones took, to one cap
            assert np.array_equal(start, x)
            assert first == done and cap == budget
            x, done = x_next, reached
        assert r.iterations == done <= budget
        assert np.array_equal(r.field.values, x)

    def test_maxit_caps_the_iterations_over_all_calls(self, monkeypatch):
        sys, v = self.ellipse_edge_system()
        calls = self.counted(monkeypatch)
        first = solve(sys, tol=1e-10, method="cg", x0=v)
        cap = calls[0][4]  # what the first pass takes, leaving no restart
        calls.clear()
        r = solve(sys, tol=1e-10, maxit=cap, method="cg", x0=v)
        assert first.converged and not r.converged
        assert r.iterations == cap and len(calls) == 1

    def test_a_call_without_progress_ends_the_solve(self, monkeypatch):
        # A CG pass that never moves its iterate: the second pass leaves the
        # true residual where the first did, and solve returns instead of looping.
        calls = []

        def stuck(A, b, x, precond, stop, done, budget, weight):
            calls.append(x)
            return x, done

        monkeypatch.setattr(linsolve, "_cg", stuck)
        grid = Grid2D.for_image(8, 8)
        sys = assemble_u_system(ScalarField.constant(grid, 1.0), step_image(grid), params())
        r = solve(sys, method="cg")
        # The reduced zero start, back-substituted: x_r = b_r / d_r, x_k = 0.
        A, b, red = sys.matrix, sys.rhs.values, red_points(grid)
        x = np.zeros_like(b)
        x[red] = b[red] / A.diagonal()[red]
        # norms summed as solve sums them, by numpy's own loop and not by BLAS
        def norm(y):
            return np.sqrt(np.einsum("i,i->", y, y))

        assert not r.converged and r.residual == norm(b - A @ x) / norm(b)
        assert len(calls) == 2 and r.iterations == 0


def system_of(kind, g):
    if kind == "u":
        return assemble_u_system(ScalarField.constant(g.grid, 1.0), g, params())
    if kind == "first-order-v":
        return assemble_v_system_first_order(g, params())
    return assemble_v_system_second_order(g, params(model=ModelKind.SECOND_ORDER_LAPLACIAN))


@pytest.mark.parametrize("kind", ["u", "first-order-v", "second-order-v"])
def test_cg_matches_scipy(kind):
    # scipy's CG, given the same preconditioner, as the reference: the same
    # recurrence and stop test, so the same count and, to rounding, iterate.
    # The 5-point systems are solved on their black points: the reference runs
    # on the explicit Schur complement S = D_k - B^T D_r^-1 B, preconditioned
    # by D_k, to the absolute residual tol ||b|| of the full system, and its
    # red points are back-substituted.
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=64, ny=64, noise_sigma=0.1, seed=3))
    sys = system_of(kind, g)
    A, b = sys.matrix, sys.rhs.values
    steps = []
    if kind == "second-order-v":
        M = LinearOperator(A.shape, matvec=linsolve.multigrid_preconditioner(A, sys.grid), dtype=float)
        x, info = cg(A, b, rtol=1e-10, atol=0.0, M=M, callback=steps.append)
    else:
        red = red_points(sys.grid)
        A = A.tocsr()
        d_r = A.diagonal()[red]
        B = A[red][:, ~red]
        S = (A[~red][:, ~red] - B.T @ sp.diags(1.0 / d_r) @ B).tocsr()
        c = b[~red] - B.T @ (b[red] / d_r)
        M = LinearOperator(S.shape, matvec=functools.partial(np.multiply, 1.0 / A.diagonal()[~red]), dtype=float)
        x_k, info = cg(S, c, rtol=0.0, atol=1e-10 * np.linalg.norm(b), M=M, callback=steps.append)
        x = np.empty_like(b)
        x[red], x[~red] = (b[red] - B @ x_k) / d_r, x_k
    r = solve(sys, tol=1e-10, method="cg")
    assert info == 0 and r.iterations == len(steps) > 1
    assert np.linalg.norm(r.field.values - x) <= 1e-8 * np.linalg.norm(x)


def test_weighted_stop_reads_the_unscaled_residual():
    # A pass on a system scaled by W^-1/2 stops on r . (W r), the unscaled
    # residual's norm, whichever bound min(W) r . r or max(W) r . r is nearer.
    A = sp.identity(4, format="csr")
    w = np.array([1.0, 1.0, 1.0, 1000.0])
    low = np.array([1.0, 0.0, 0.0, 0.0])  # r . (W r) = 1 < 2, though max(W) r . r = 1000
    x, k = linsolve._cg(A, low, np.zeros(4), None, 2.0, 0, 10, w)
    assert k == 0 and not x.any()
    high = np.array([0.0, 0.0, 0.0, 1.0])  # r . (W r) = 1000, though min(W) r . r = 1 < 2
    x, k = linsolve._cg(A, high, np.zeros(4), None, 2.0, 0, 10, w)
    assert k == 1 and np.array_equal(x, high)


class TestRedBlack:
    """The 5-point systems are solved by CG on their black points."""

    def lengths(self, monkeypatch):
        """The length of every right-hand side solve hands to a CG pass."""
        seen = []
        cg_pass = linsolve._cg

        def recording(A, b, *args):
            seen.append(b.size)
            return cg_pass(A, b, *args)

        monkeypatch.setattr(linsolve, "_cg", recording)
        return seen

    @pytest.mark.parametrize("shape", [(64, 64), (47, 33)], ids=["64x64", "33x47"])
    @pytest.mark.parametrize("kind", ["u", "first-order-v"])
    def test_matches_direct(self, monkeypatch, kind, shape):
        # 33 rows of 47 points: on an odd row length the colour of a row's
        # first point alternates.
        nx, ny = shape
        g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=nx, ny=ny, noise_sigma=0.1, seed=3))
        sys = system_of(kind, g)
        seen = self.lengths(monkeypatch)
        r = solve(sys, tol=1e-10, method="cg")
        direct = solve(sys, method="direct").field.values
        assert r.converged and seen and set(seen) == {nx * ny // 2}
        assert np.linalg.norm(r.field.values - direct) <= 1e-8 * np.linalg.norm(direct)

    def test_halves_the_iterations(self):
        grid = Grid2D.for_image(64, 64)
        sys = assemble_u_system(ScalarField.constant(grid, 1.0), step_image(grid), params())
        A, b = sys.matrix, sys.rhs.values
        jacobi = functools.partial(np.multiply, 1.0 / A.diagonal())
        stop = (1e-10 * np.linalg.norm(b)) ** 2
        _, full = linsolve._cg(A, b, np.zeros_like(b), jacobi, stop, 0, 10 * grid.npoints)
        r = solve(sys, tol=1e-10, method="cg")
        assert r.converged and r.iterations <= 0.6 * full

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_iterates_are_every_second_jacobi_iterate(self, k):
        # Hageman & Young: CG on S, preconditioned by D_k, steps through the
        # even iterates of Jacobi-CG on A started with zero red residuals.
        grid = Grid2D.for_image(16, 16)
        rng = np.random.default_rng(8)
        sys = assemble_u_system(ScalarField(grid, rng.random(grid.npoints)), step_image(grid), params())
        A, b, red = sys.matrix, sys.rhs.values, red_points(grid)
        d = A.diagonal()
        x0 = np.zeros_like(b)
        x0[red] = b[red] / d[red]
        jacobi = functools.partial(np.multiply, 1.0 / d)
        x, _ = linsolve._cg(A, b, x0, jacobi, 0.0, 0, 2 * k)
        r = solve(sys, tol=1e-10, maxit=k, method="cg")
        assert r.iterations == k and not r.converged
        assert np.linalg.norm(r.field.values - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("shape", [(64, 64), (47, 33)], ids=["64x64", "33x47"])
    def test_red_rows_hold_to_rounding(self, shape):
        g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=shape[0], ny=shape[1], noise_sigma=0.1, seed=3))
        sys = system_of("u", g)
        A, b, red = sys.matrix, sys.rhs.values, red_points(g.grid)
        x = solve(sys, tol=1e-10, method="cg").field.values
        # each red row has at most 5 terms and one division, each rounded once
        bound = 8 * np.finfo(float).eps * (abs(A) @ np.abs(x) + np.abs(b))
        assert np.all(np.abs(b - A @ x)[red] <= bound[red])

    def test_rows_wrapping_into_one_colour_are_not_split(self, monkeypatch):
        # The tridiagonal of test_indefinite_system_raises_under_cg, made
        # positive definite: it joins the last point of each row to the first
        # of the next, which share a colour on an even row length.
        grid = Grid2D(8, 8, 1 / 7)
        A = sp.diags([np.full(63, -0.5), np.full(64, 2.0), np.full(63, -0.5)], [-1, 0, 1], format="csr")
        seen = self.lengths(monkeypatch)
        r = solve(LinearSystem(A, ScalarField.constant(grid, 1.0)), method="cg")
        assert r.converged and set(seen) == {64}

    @pytest.mark.parametrize("zero_at", [0, 1], ids=["red", "black"])
    def test_zero_diagonal_raises_before_dividing(self, zero_at):
        # Both CG paths scale by the diagonal; solve must raise its typed
        # error, not divide by the zero.
        grid = Grid2D(4, 4, 1 / 3)
        d = np.ones(16)
        d[zero_at] = 0.0
        with np.errstate(all="raise"), pytest.raises(LinearSolveError, match="not positive definite") as exc:
            solve(LinearSystem(sp.diags(d), ScalarField.constant(grid, 1.0)), method="cg")
        assert exc.value.iterations == 0

    def test_singular_reduced_system_raises(self):
        # Red point 0 joined only to black point 1, with [[1, -1], [-1, 1]]
        # between them: A is singular, and so is S (S_11 = 1 - 1^2 / 1 = 0).
        # CG breaks down on p . S p = 0 with its typed error.
        grid = Grid2D(2, 2, 1.0)
        A = sp.csr_matrix(np.array([[1.0, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        with np.errstate(all="raise"), pytest.raises(LinearSolveError, match="not positive definite") as exc:
            solve(LinearSystem(A, ScalarField.constant(grid, 1.0)), method="cg")
        assert exc.value.iterations == 1


@pytest.mark.parametrize("case", [*BoundaryKind, "wrapping-tridiagonal"], ids=["neumann", "dirichlet1", "wrapping"])
def test_every_unsplit_matrix_takes_the_vcycle(monkeypatch, case):
    # What red-black cannot split is preconditioned by the V-cycle, built
    # once per solve and applied at every iteration, however dominant its
    # diagonal: here every row is, in the fourth-order v-system at an edge
    # width of 0.3 cells and in the tridiagonal whose rows wrap into one
    # colour.
    if case == "wrapping-tridiagonal":
        grid = Grid2D(8, 8, 1 / 7)
        A = sp.diags([np.full(63, -0.5), np.full(64, 2.0), np.full(63, -0.5)], [-1, 0, 1], format="csr")
        sys = LinearSystem(A, ScalarField.constant(grid, 1.0))
    else:
        g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=32, ny=32, noise_sigma=0.1, seed=7))
        p = params(eps=0.3 * g.grid.h, model=ModelKind.SECOND_ORDER_LAPLACIAN, bc=case)
        sys = assemble_v_system_second_order(g, p)
    dense = sys.matrix.toarray()
    assert np.all(2.0 * np.diag(dense) >= np.abs(dense).sum(axis=1))
    builds, applied = [], []
    build = linsolve.multigrid_preconditioner

    def counting(A, grid):
        builds.append(grid)
        M = build(A, grid)
        return lambda r: applied.append(grid) or M(r)

    monkeypatch.setattr(linsolve, "multigrid_preconditioner", counting)
    r = solve(sys, tol=1e-10, method="cg")
    assert r.converged and builds == [sys.grid] and len(applied) == r.iterations > 0
    direct = solve(sys, method="direct").field.values
    assert np.linalg.norm(r.field.values - direct) <= 1e-8 * np.linalg.norm(direct)


def test_cached_structure_follows_each_systems_grid_and_pattern(monkeypatch):
    # Solves interleaved over two grids and both patterns, and a matrix on
    # one grid's pattern with the right-hand side of another of the same
    # size: each must take its own grid's diagonal positions and split, or
    # none.  A cached split must also leave _red_black uncalled.
    systems = []
    for nx, ny in ((64, 64), (47, 33)):
        g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=nx, ny=ny, noise_sigma=0.1, seed=3))
        systems += [system_of("u", g), system_of("first-order-v", g)]
        linsolve.red_black_split(g.grid)
    g64 = systems[0].rhs
    p = params(model=ModelKind.SECOND_ORDER_LAPLACIAN, bc=BoundaryKind.DIRICHLET_ONE)
    systems.append(assemble_v_system_second_order(g64, p))
    other = Grid2D(64, 64, 0.5 * g64.grid.h)
    systems.append(LinearSystem(systems[0].matrix, ScalarField(other, systems[0].rhs.values)))
    direct = [solve(sys, method="direct").field.values for sys in systems]
    split = linsolve._red_black
    foreign = []
    monkeypatch.setattr(linsolve, "_red_black", lambda A, grid: foreign.append(grid) or split(A, grid))
    for _ in range(2):
        for sys, x in zip(systems, direct):
            r = solve(sys, tol=1e-10, method="cg")
            assert r.converged
            assert np.linalg.norm(r.field.values - x) <= 1e-8 * np.linalg.norm(x)
    assert foreign == [other, other]


@pytest.mark.parametrize("kind", ["u", "second-order-v"])
def test_matrix_viewing_a_cached_pattern_is_solved(kind):
    # A new matrix object on views of an assembled system's index arrays is
    # not recognized as the cached pattern: it takes the split computed from
    # its own entries, and must come to the same solution.
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=32, ny=32, noise_sigma=0.1, seed=3))
    sys = system_of(kind, g)
    wrapped = LinearSystem(sp.csr_matrix(sys.matrix), sys.rhs)
    r = solve(wrapped, tol=1e-10, method="cg")
    direct = solve(sys, method="direct").field.values
    assert r.converged
    assert np.linalg.norm(r.field.values - direct) <= 1e-8 * np.linalg.norm(direct)


def test_assembled_systems_survive_pattern_cache_turnover(monkeypatch):
    # Each assembler names the pattern it wrote its matrix on, so its solve
    # reads the diagonal and split from the per-grid caches even after
    # laplacian_matrix and bilaplacian_matrix have dropped the grid's entry:
    # _red_black never splits an assembled matrix itself.
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=40, ny=40, noise_sigma=0.1, seed=3))
    systems = [system_of(kind, g) for kind in ("u", "first-order-v", "second-order-v")]
    for n in range(20, 30):  # more grids than the pattern caches hold
        grid = Grid2D.for_image(n, n)
        laplacian_matrix(grid)
        bilaplacian_matrix(grid)
    split = linsolve._red_black
    seen = []
    monkeypatch.setattr(linsolve, "_red_black", lambda A, grid: seen.append(A) or split(A, grid))
    for sys in systems:
        r = solve(sys, tol=1e-10, method="cg")
        direct = solve(sys, method="direct").field.values
        assert r.converged
        assert np.linalg.norm(r.field.values - direct) <= 1e-8 * np.linalg.norm(direct)
    assert not any(A is sys.matrix for A in seen for sys in systems)


@pytest.mark.parametrize(
    "model, bc",
    [(ModelKind.FIRST_ORDER_AT, BoundaryKind.NEUMANN), (ModelKind.SECOND_ORDER_LAPLACIAN, BoundaryKind.NEUMANN),
     (ModelKind.SECOND_ORDER_LAPLACIAN, BoundaryKind.DIRICHLET_ONE)],
    ids=["at", "laplacian", "laplacian-dirichlet1"],
)
def test_direct_runs_build_no_split(monkeypatch, model, bc):
    # Only CG reads a red-black split, and it is built on a CG solve's
    # first use: a direct run, whose peak memory the sweep benchmark
    # measures, never holds one, not even from a cold cache.
    linsolve.red_black_split.cache_clear()
    split = linsolve._red_black
    seen = []
    monkeypatch.setattr(linsolve, "_red_black", lambda A, grid: seen.append(grid) or split(A, grid))
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=24, ny=24, noise_sigma=0.1, seed=3))
    result = altmin.run(g, params(model=model, bc=bc), maxit=3, solver="direct")
    assert result.report.iterations > 0
    assert seen == []


def test_transpose_pattern_holds_the_permuted_values():
    grid = Grid2D.for_image(47, 33)
    split = linsolve.red_black_split(grid)
    values = np.random.default_rng(9).random(split.B.nnz)
    B = sp.csr_matrix((values, split.B.indices, split.B.indptr), shape=split.B.shape)
    Bt = sp.csr_matrix((values[split.Bt.data], split.Bt.indices, split.Bt.indptr), shape=split.Bt.shape)
    assert (Bt != B.T).nnz == 0
    assert np.array_equal(split.rows, np.repeat(np.arange(B.shape[0]), np.diff(B.indptr)))
    assert np.array_equal(split.cols, B.indices)


def test_cg_makes_no_blas_reductions_per_iteration(monkeypatch):
    # np.dot and np.linalg.norm go through BLAS, which wakes its thread pool on
    # vectors this long; the CG loop takes its inner products, and solve its
    # norms, without them.
    calls = []
    for mod, name in ((np, "dot"), (np.linalg, "norm")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **kw: calls.append(_fn) or _fn(*a, **kw))
    grid = Grid2D.for_image(64, 64)
    r = solve(assemble_u_system(ScalarField.constant(grid, 1.0), step_image(grid), params()), method="cg")
    assert r.converged and r.iterations >= 50
    assert calls == []


def solves_by_outcome():
    """(id, system, solve arguments) of solves whose convergence the rounding
    floor decides, that stop short of it, or that meet tol."""
    g, _ = generate(PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=512, ny=32, noise_sigma=0.0))
    strip = assemble_v_system_second_order(g, params(eps=8e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN))
    grid = Grid2D.for_image(16, 16)
    step = assemble_v_system_second_order(step_image(grid), params(eps=9e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN))
    u = assemble_u_system(ScalarField.constant(grid, 1.0), step_image(grid), params())
    return [
        ("cg-at-the-floor", strip, dict(tol=1e-10, method="cg")),
        ("direct-at-the-floor", strip, dict(tol=1e-10, method="direct")),
        ("cg-unconverged", step, dict(tol=1e-14, maxit=2, method="cg")),
        ("cg-converged", u, dict(tol=1e-10, method="cg")),
        ("direct-converged", u, dict(tol=1e-10, method="direct")),
        ("numpy-tol", u, dict(tol=np.float64(1e-10), method="cg")),
    ]


def test_converged_is_a_python_bool():
    # run.json writes it, and json.dumps rejects numpy's bool.
    seen = []
    for name, sys, kwargs in solves_by_outcome():
        r = solve(sys, **kwargs)
        assert type(r.converged) is bool, name
        json.dumps(r.converged)
        seen.append(r.converged and r.residual > kwargs["tol"])
    # both floor-decided cases converged above tol; the capped one did not converge
    assert seen == [True, True, False, False, False, False]


class TestDirectConvergence:
    def test_tol_below_rounding_is_met_at_the_rounding_floor(self):
        # A 512-wide stiff fourth-order system: |A||x| is ~1e8 times |b|, so no
        # float64 vector has a relative residual near 1e-10.
        g, _ = generate(PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=512, ny=32, noise_sigma=0.0))
        sys = assemble_v_system_second_order(g, params(eps=8e-2, model=ModelKind.SECOND_ORDER_LAPLACIAN))
        r = solve(sys, tol=1e-10, method="direct")
        assert r.converged and r.residual > 1e-10
        A, x, b = sys.matrix, r.field.values, sys.rhs.values
        backward = np.abs(b - A @ x) / (abs(A) @ np.abs(x) + np.abs(b))
        assert backward.max() <= 1e-15

    def test_residual_above_tol_and_rounding_is_unconverged(self, monkeypatch):
        # A factorization whose solutions are off by a fixed 1e-8: refinement
        # cannot remove it, and the residual is far above rounding.
        class Inexact:
            def __init__(self, A):
                self.A = A

            def solve(self, rhs):
                return spsolve(self.A, rhs) + 1e-8

        monkeypatch.setattr(linsolve, "splu", lambda A, **kw: Inexact(A))
        grid = Grid2D.for_image(8, 8)
        sys = assemble_u_system(ScalarField.constant(grid, 1.0), step_image(grid), params())
        r = solve(sys, tol=1e-10, method="direct")
        assert 1e-10 < r.residual < 1e-6
        assert not r.converged


@pytest.mark.parametrize("eta", [0.0, None])
@pytest.mark.parametrize("model", list(ModelKind))
def test_systems_are_exact_half_hessians(model, eta):
    # Each half-step energy is E(x) = c + h^2 (x^T A x / 2 - b^T x): the terms of
    # total_energy that depend on x, with c collecting those that do not.
    rng = np.random.default_rng(7)
    grid = Grid2D.for_image(9, 7)
    u, v, g = (ScalarField(grid, rng.random(grid.npoints)) for _ in range(3))
    p = params(model=model, eta=eta)
    h2, n = grid.h**2, grid.npoints

    def quadratic(sys, x):
        return h2 * (0.5 * x.values @ (sys.matrix @ x.values) - sys.rhs.values @ x.values)

    e = total_energy(u, v, g, p)
    c_u = p.gamma_u * h2 * (g.values @ g.values)
    assert c_u + quadratic(assemble_u_system(v, g, p), u) == pytest.approx(
        e.coupled + e.grad_perturb + e.fidelity, rel=1e-12
    )
    if model is ModelKind.FIRST_ORDER_AT:
        sys, c_v = assemble_v_system_first_order(u, p), h2 * p.beta * n / (2 * p.eps)
    else:
        sys, c_v = assemble_v_system_second_order(u, p), h2 * p.beta * n / (2 * SQRT2 * p.eps)
    assert c_v + quadratic(sys, v) == pytest.approx(e.coupled + e.mm, rel=1e-12)
