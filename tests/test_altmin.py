import weakref
from itertools import groupby

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atseg import altmin, linsolve
from atseg.altmin import convergence_indicator, run
from atseg.energy import SQRT2, ModelKind, ModelParams, total_energy
from atseg.errors import DegenerateInputError, InvalidInputError, LinearSolveError
from atseg.grid import Grid2D, ScalarField
from atseg.linsolve import (
    SolveResult,
    assemble_u_system,
    assemble_v_system_first_order,
    assemble_v_system_second_order,
    solve,
)
from atseg.synth import PhantomKind, PhantomSpec, generate


def params(eps=3e-2, model=ModelKind.FIRST_ORDER_AT, **kw):
    return ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=eps, model=model, **kw)


class TestConvergenceIndicator:
    def test_no_change_is_zero(self):
        g = Grid2D(4, 4, 0.25)
        f = ScalarField.constant(g, 0.5)
        one = ScalarField.constant(g, 1.0)
        assert convergence_indicator(f, f, one, one) == 0.0

    def test_doubling_a_constant(self):
        g = Grid2D(4, 4, 0.25)
        one = ScalarField.constant(g, 1.0)
        two = ScalarField.constant(g, 2.0)
        assert convergence_indicator(two, one, one, one) == pytest.approx(0.5)

    def test_matches_dense_computation(self):
        rng = np.random.default_rng(0)
        g = Grid2D(8, 8, 1 / 7)
        fields = [ScalarField(g, rng.random(64) + 0.1) for _ in range(4)]
        un, uo, vn, vo = fields
        expected = max(
            np.abs(un.values - uo.values).max() / np.abs(un.values).max(),
            np.abs(vn.values - vo.values).max() / np.abs(vn.values).max(),
        )
        assert convergence_indicator(un, uo, vn, vo) == pytest.approx(expected, abs=1e-15)

    def test_zero_iterate_rejected(self):
        g = Grid2D(4, 4, 0.25)
        z = ScalarField.constant(g, 0.0)
        one = ScalarField.constant(g, 1.0)
        with pytest.raises(DegenerateInputError):
            convergence_indicator(z, one, one, one)


class TestRun:
    def test_constant_image_converges_immediately(self):
        g = ScalarField.constant(Grid2D.for_image(16, 16), 0.5)
        res = run(g, params(), solver="direct")
        assert res.report.converged
        assert res.report.iterations == 1
        entry = res.report.entries[0]
        assert entry.e_k < 1e-10
        assert entry.breakdown.total < 1e-16
        assert np.allclose(res.u.values, 0.5, atol=1e-12)
        assert np.allclose(res.v.values, 1.0, atol=1e-10)

    def test_zero_image_converges_immediately(self):
        g = ScalarField.constant(Grid2D.for_image(16, 16), 0.0)
        res = run(g, params())
        assert res.report.converged
        assert res.report.iterations == 1
        assert np.all(res.u.values == 0.0)

    def test_edge_phantom_first_order(self):
        from atseg.edges import level_mask

        spec = PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=64, ny=64, noise_sigma=0.0)
        g, truth = generate(spec)
        res = run(g, params(), solver="direct")
        assert res.report.converged
        v = res.v.as_matrix()
        # the edge field dips near the true edge column and respects the bounds
        dip_col = np.argmin(v[32])
        edge_col = truth.position / g.grid.h
        assert abs(dip_col - edge_col) <= 2.0
        assert v.min() >= -1e-12
        assert v.max() <= 1.0 + 1e-12
        # no overshoot means the default level mask is empty
        assert level_mask(res.v, 1.005).count() == 0

    def test_totals_never_increase(self):
        spec = PhantomSpec(PhantomKind.TWO_CIRCLES, nx=48, ny=48, noise_sigma=0.05, seed=3)
        g, _ = generate(spec)
        for model in ModelKind:
            res = run(g, params(model=model), solver="direct")
            totals = [e.breakdown.total for e in res.report.entries]
            slack = 1e-10 * (1.0 + totals[0])
            assert all(b <= a + slack for a, b in zip(totals, totals[1:]))

    def test_direct_solver_is_deterministic(self):
        spec = PhantomSpec(PhantomKind.ELLIPSE, nx=48, ny=48, noise_sigma=0.1, seed=5)
        g, _ = generate(spec)
        r1 = run(g, params(), solver="direct")
        r2 = run(g, params(), solver="direct")
        assert np.array_equal(r1.u.values, r2.u.values)
        assert np.array_equal(r1.v.values, r2.v.values)
        assert [e.e_k for e in r1.report.entries] == [e.e_k for e in r2.report.entries]

    def test_converged_state_is_a_fixed_point(self):
        spec = PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=48, ny=48, noise_sigma=0.0)
        g, _ = generate(spec)
        tol = 1e-6
        res = run(g, params(), tol=tol, solver="direct")
        assert res.report.converged
        again = run(g, params(), tol=1e-30, maxit=1, u0=res.u, v0=res.v, solver="direct")
        assert again.report.entries[0].e_k <= 10 * tol

    def test_half_steps_each_decrease_the_total(self):
        spec = PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=48, ny=48, noise_sigma=0.0)
        g, _ = generate(spec)
        p = params()
        u = g
        v = ScalarField.constant(g.grid, 1.0)
        total = total_energy(u, v, g, p).total
        slack = 1e-10 * (1.0 + total)
        for _ in range(5):
            v = solve(assemble_v_system_first_order(u, p), method="direct").field
            mid = total_energy(u, v, g, p).total
            assert mid <= total + slack
            u = solve(assemble_u_system(v, g, p), method="direct").field
            total_new = total_energy(u, v, g, p).total
            assert total_new <= mid + slack
            total = total_new

    def test_cg_and_direct_agree(self):
        spec = PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=32, ny=32, noise_sigma=0.0)
        g, _ = generate(spec)
        r_cg = run(g, params(), solver="cg")
        r_dir = run(g, params(), solver="direct")
        assert np.allclose(r_cg.u.values, r_dir.u.values, atol=1e-6)
        assert np.allclose(r_cg.v.values, r_dir.v.values, atol=1e-6)

    def test_input_validation(self):
        g = ScalarField.constant(Grid2D.for_image(8, 8), 0.5)
        with pytest.raises(InvalidInputError):
            run(g, params(), tol=0.0)
        with pytest.raises(InvalidInputError):
            run(g, params(), maxit=0)
        for maxit in (2.5, "3", True):
            with pytest.raises(InvalidInputError, match="maxit"):
                run(g, params(), maxit=maxit)
        bad = ScalarField.constant(Grid2D.for_image(8, 8), 1.5)
        with pytest.raises(InvalidInputError):
            run(bad, params())

    def test_nan_tolerance_rejected(self):
        # "tol <= 0" is false for nan, and e_k < nan never stops the loop
        g = ScalarField.constant(Grid2D.for_image(8, 8), 0.5)
        with pytest.raises(InvalidInputError):
            run(g, params(), tol=float("nan"))

    def test_stall_error_carries_the_inner_iteration_count(self, monkeypatch):
        # The message names the outer iteration, the attribute counts the
        # inner solve's iterations, as it does for errors raised by solve.
        g = ScalarField.constant(Grid2D.for_image(8, 8), 0.5)
        monkeypatch.setattr(altmin, "solve", lambda *a, **kw: SolveResult(g, 2e-10, 37, False))
        with pytest.raises(LinearSolveError) as exc:
            run(g, params())
        assert exc.value.iterations == 37
        assert "outer iteration 1" in str(exc.value)


def segmenting_params(model=ModelKind.FIRST_ORDER_AT):
    return ModelParams(alpha=1.0, beta=0.3, gamma=100.0, eps=3e-2, intensity_scale=1.0, model=model)


class TestExtrapolation:
    def test_exact_on_an_affine_map(self):
        # On an affine contraction G(x) = 0.6 x + c, whose Jacobian is a
        # multiple of the identity, one secant step from the last two map
        # values lands on its fixed point c / 0.4.
        c = np.array([1.0, -2.0])
        s = np.zeros(2)
        gs, fs = [], []
        for _ in range(3):
            gs.append(0.6 * s + c)
            fs.append(gs[-1] - s)
            s = gs[-1]
        assert np.allclose(altmin._anderson((gs[-2], fs[-2]), gs[-1], fs[-1]), c / 0.4, rtol=0, atol=1e-12)

    def test_no_step_without_a_previous_pair_or_a_difference(self):
        rng = np.random.default_rng(0)
        g0, f0, g = rng.random(16), rng.random(16), rng.random(16)
        assert altmin._anderson(None, g, f0) is None
        assert altmin._anderson((g0, f0), g, f0.copy()) is None

    @settings(deadline=None)
    @given(arrays(np.float64, st.tuples(st.just(4), st.integers(1, 16)), elements=st.floats(-1.0, 1.0)))
    def test_steps_exactly_when_the_residual_falls(self, vectors):
        # gamma < 1/2 exactly when |f| < |f0|; near-ties, where rounding may
        # decide either way, and residuals whose squares underflow are left out
        g0, f0, g, f = vectors
        ff, ff0 = np.dot(f, f), np.dot(f0, f0)
        assume(abs(ff - ff0) > 1e-9 * (ff + ff0) and ff + ff0 > 1e-100)
        x = altmin._anderson((g0, f0), g, f)
        if ff >= ff0:
            assert x is None
        else:
            df = f - f0  # gamma summed as the package sums it: its rounding is not under test
            gamma = altmin._dot(df, f) / altmin._dot(df, df)
            assert np.allclose(x, gamma * g0 + (1.0 - gamma) * g, rtol=1e-12, atol=1e-12)

    def test_cuts_outer_iterations_on_a_segmenting_run(self):
        # Without extrapolation the 64x64 run takes 40 outer iterations; with
        # it, 19.  The 128x128 run takes 25 (31 with the depth-2 fit).
        for n, bound in ((64, 30), (128, 27)):
            g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=n, ny=n, noise_sigma=0.1, seed=12))
            res = run(g, segmenting_params())
            assert res.report.converged
            assert res.report.iterations <= bound
            totals = [e.breakdown.total for e in res.report.entries]
            slack = 1e-10 * (1.0 + totals[0])
            assert all(b <= a + slack for a, b in zip(totals, totals[1:]))

    def test_rejected_extrapolation_is_redone_from_the_plain_iterate(self, monkeypatch):
        # Each rejected start costs one more v-solve than the recorded
        # iterations, and the recorded totals still never increase.
        g, _ = generate(PhantomSpec(PhantomKind.ELLIPSE, nx=32, ny=32, noise_sigma=0.1, seed=12))
        v_systems, v_solves = set(), []

        def tagged(assemble):
            def wrapper(*args, **kwargs):
                sys = assemble(*args, **kwargs)
                v_systems.add(id(sys))
                return sys

            return wrapper

        def counting(sys, *args, **kwargs):
            if id(sys) in v_systems:
                v_systems.discard(id(sys))
                v_solves.append(sys)
            return solve(sys, *args, **kwargs)

        monkeypatch.setattr(altmin, "assemble_v_system_second_order", tagged(assemble_v_system_second_order))
        monkeypatch.setattr(altmin, "solve", counting)
        res = run(g, segmenting_params(ModelKind.SECOND_ORDER_LAPLACIAN), solver="direct")
        assert res.report.converged
        assert len(v_solves) > res.report.iterations
        totals = [e.breakdown.total for e in res.report.entries]
        slack = 1e-10 * (1.0 + totals[0])
        assert all(b <= a + slack for a, b in zip(totals, totals[1:]))


def test_direct_run_holds_one_live_factor_per_system_kind(monkeypatch):
    # The default at weights on 32^2 circles: 10 factorizations for 20 solves,
    # so the run both reuses its factors and replaces them.  A factor must be
    # gone before its successor is made, and none may outlive the run.
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=32, ny=32, noise_sigma=0.1, seed=7))
    p = ModelParams(alpha=1.0, beta=0.3, gamma=70.0, eps=3e-2, intensity_scale=1.0, model=ModelKind.FIRST_ORDER_AT)
    u_systems, kind, solves = set(), [None], []
    alive, alive_when_factoring = {"u": 0, "v": 0}, []

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def gone(k):
        alive[k] -= 1

    def factoring(A, **kw):
        alive_when_factoring.append(alive[kind[0]])
        factor = Factor(splu(A, **kw))
        alive[kind[0]] += 1
        weakref.finalize(factor, gone, kind[0])
        return factor

    def tagged(*args, **kwargs):
        sys = assemble_u_system(*args, **kwargs)
        u_systems.add(id(sys))
        return sys

    def solving(sys, *args, **kwargs):
        kind[0] = "u" if id(sys) in u_systems else "v"
        u_systems.discard(id(sys))
        solves.append(kind[0])
        return solve(sys, *args, **kwargs)

    splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", factoring)
    monkeypatch.setattr(altmin, "assemble_u_system", tagged)
    monkeypatch.setattr(altmin, "solve", solving)
    res = run(g, p, solver="direct")
    assert res.report.converged
    assert 2 < len(alive_when_factoring) < len(solves)
    assert alive_when_factoring == [0] * len(alive_when_factoring)
    assert alive == {"u": 0, "v": 0}


TOL, SOLVER_TOL = 1e-4, 1e-10  # run's default tol and solver_tol
# Summed inner iterations of the 64x64 runs below, CG: with every solve at
# SOLVER_TOL they took 1564 (`at`) and 1168 (`laplacian`); with loose solves
# at a fixed 1e-6 until the outer loop nears its stop, 738 and 603; with the
# forcing term max(FORCING min(1, e_k), SOLVER_TOL) in their place, 492 and 315.
INNER_ITERATIONS_BOUND = {ModelKind.FIRST_ORDER_AT: 600, ModelKind.SECOND_ORDER_LAPLACIAN: 450}


@pytest.fixture(scope="module")
def recorded_runs():
    """(model, solver) -> (result, [(tol, residual, iterations) per solve]) on
    the 64x64 seed-12 sigma=0.1 circles with segmenting weights."""
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=64, ny=64, noise_sigma=0.1, seed=12))
    runs = {}
    for model in ModelKind:
        for solver in ("cg", "direct"):
            calls = []

            def recording(*args, **kwargs):
                res = solve(*args, **kwargs)
                calls.append((kwargs["tol"], res.residual, res.iterations))
                return res

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(altmin, "solve", recording)
                runs[model, solver] = run(g, segmenting_params(model), solver=solver), calls
    return runs


@pytest.mark.parametrize("model", list(ModelKind))
class TestInexactInnerSolves:
    def test_cg_starts_loose_and_stops_on_a_state_solved_to_solver_tol(self, recorded_runs, model):
        res, calls = recorded_runs[model, "cg"]
        assert res.report.converged
        assert calls[0][0] > SOLVER_TOL
        # the last two solves are the recorded state's v and u half-steps
        assert all(tol == SOLVER_TOL or residual <= SOLVER_TOL for tol, residual, _ in calls[-2:])

    def test_loose_tolerance_follows_the_indicator(self, recorded_runs, model):
        res, calls = recorded_runs[model, "cg"]
        e_prev = [np.inf] + [entry.e_k for entry in res.report.entries[:-1]]
        want = [
            SOLVER_TOL if e < altmin.TIGHTEN * TOL else max(altmin.FORCING * min(1.0, e), SOLVER_TOL)
            for e in e_prev
        ]
        tols = [tol for tol, _, _ in calls]
        assert tols[0] == altmin.FORCING
        # An iteration makes two solves at one tolerance, or three if it redoes
        # its v half-step: match runs of equal tolerances, iterations to solves.
        got_runs = [(tol, len(list(group))) for tol, group in groupby(tols)]
        want_runs = [(tol, len(list(group))) for tol, group in groupby(want)]
        assert [tol for tol, _ in got_runs] == [tol for tol, _ in want_runs]
        assert all(2 * m <= n <= 3 * m for (_, n), (_, m) in zip(got_runs, want_runs))

    def test_direct_solves_at_solver_tol(self, recorded_runs, model):
        res, calls = recorded_runs[model, "direct"]
        assert res.report.converged
        assert {tol for tol, _, _ in calls} == {SOLVER_TOL}

    def test_cg_and_direct_segment_alike(self, recorded_runs, model):
        (r_cg, _), (r_dir, _) = recorded_runs[model, "cg"], recorded_runs[model, "direct"]
        assert np.array_equal(r_cg.v.values < 0.5, r_dir.v.values < 0.5)
        e_cg, e_dir = r_cg.report.entries[-1].breakdown.total, r_dir.report.entries[-1].breakdown.total
        assert e_cg == pytest.approx(e_dir, rel=1e-9, abs=0)

    def test_inner_iterations_stay_under_the_bound(self, recorded_runs, model):
        _, calls = recorded_runs[model, "cg"]
        assert sum(iterations for _, _, iterations in calls) <= INNER_ITERATIONS_BOUND[model]


def test_run_capped_by_maxit_ends_on_solves_at_solver_tol(monkeypatch):
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=32, ny=32, noise_sigma=0.1, seed=12))
    tols = []

    def recording(*args, **kwargs):
        tols.append(kwargs["tol"])
        return solve(*args, **kwargs)

    monkeypatch.setattr(altmin, "solve", recording)
    res = run(g, segmenting_params(), maxit=3)
    assert not res.report.converged
    assert tols[0] > SOLVER_TOL
    assert tols[-2:] == [SOLVER_TOL, SOLVER_TOL]


@pytest.mark.parametrize("model", list(ModelKind))
def test_half_steps_descend_on_the_cg_path(model):
    # On one half-step the energy is h^2 (x^T A x / 2 - b^T x) + const, so a
    # solve with |b - A x| <= tol |b| ends at most h^2 (tol |b|)^2 / (2 lambda_min)
    # above the exact minimizer, which is no higher than the previous iterate.
    # lambda_min is bounded below by the shift of each system (the rest is PSD).
    g, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=48, ny=48, noise_sigma=0.1, seed=3))
    p = ModelParams(alpha=0.1, beta=0.3, gamma=100.0, eps=3e-2, intensity_scale=1.0, model=model)
    if model is ModelKind.FIRST_ORDER_AT:
        assemble_v, shift_v = assemble_v_system_first_order, p.beta / p.eps
    else:
        assemble_v, shift_v = assemble_v_system_second_order, p.beta / (SQRT2 * p.eps)
    solver_tol = 1e-6

    def step(sys, x0, shift):
        slack = g.grid.h**2 * (solver_tol * np.linalg.norm(sys.rhs.values)) ** 2 / (2.0 * shift)
        return solve(sys, tol=solver_tol, method="cg", x0=x0).field, slack

    u, v = g, ScalarField.constant(g.grid, 1.0)
    total = total_energy(u, v, g, p).total
    for _ in range(6):
        v, slack = step(assemble_v(u, p), v, shift_v)
        mid = total_energy(u, v, g, p).total
        assert mid <= total + slack
        u, slack = step(assemble_u_system(v, g, p), u, 2.0 * p.gamma_u)
        total_new = total_energy(u, v, g, p).total
        assert total_new <= mid + slack
        total = total_new
