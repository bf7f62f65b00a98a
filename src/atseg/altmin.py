"""Alternating minimization driver: edge half-step, then image half-step.

Each outer iteration solves the two SPD systems in the order the scheme is
defined (v first, then u), records the relative-change indicator and the full
energy breakdown, and stops once the indicator drops below the tolerance.
Each half-step lowers its exact discrete energy at any inner tolerance: a
factorization minimizes it, and a CG solve warm-started from the current
iterate minimizes it over a Krylov space around that iterate (the reduced
solve's red values are the exact minimizers given its black ones).  So
inner CG solves run loose while the loop is far from its stop, and to the
full solver tolerance near it; the stop test counts only on an iteration
solved to that tolerance, which the last recorded state then meets.
Under the direct solver every half-step runs to the solver tolerance, and
a run holds one factorization per system kind, made by its first solve of
that kind.  Each later solve runs CG preconditioned by it from the current
iterate, which lowers the energy as any warm-started CG solve does, and
factors its own matrix, whose factor then takes the old one's place, only
if that CG fails (the chord method's reuse of one factorization across
steps; Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
1995).

An iteration from u is the fixed-point map G(u) = U(V(u)), the v half-step
at u and then the u half-step at that v; u is the whole state, since v is a
function of it.  The next iteration starts from the type-II Anderson
extrapolation of depth 1 (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011),
a secant step through the last two map values, instead of from G(s), when
its weight gamma is below 1/2, which holds exactly when the residual
|G(s) - s| has just fallen below that of the iteration before.  The
extrapolated start is kept only if the energy after the v half-step at it
is at or below the last recorded total; otherwise the last pair is dropped
and that half-step is redone from the last recorded u.  Either way the
recorded total is non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyBreakdown, ModelKind, ModelParams, total_energy
from .errors import DegenerateInputError, InvalidInputError, LinearSolveError, require_count
from .grid import ScalarField, same_grid
from .linsolve import (
    SOLVER_TOL,
    FactorSlot,
    SolveResult,
    assemble_u_system,
    assemble_v_system_first_order,
    assemble_v_system_second_order,
    _dot,
    require_fidelity,
    solve,
)

# Forcing term of the inner CG solves (Eisenstat & Walker, SIAM J. Sci.
# Comput. 17(1), 1996), driven by the indicator: an iteration that follows
# one with e_k >= TIGHTEN * tol solves to max(FORCING * min(1, e_k),
# SOLVER_TOL), so the first (e_0 = inf) solves to FORCING, and under the
# default tol every such tolerance lies in [3e-6, 3e-3].  Other iterations,
# the iteration maxit and every "direct" solve run to SOLVER_TOL.  Measured
# against a fixed 1e-6 on 28 CG cells (the 12-cell gate of ROADMAP item 1
# with both models at 1/70, seed 0, and the noisy-cg weights at 128x128 and
# 256x256 with both models, seed 12), summed over the cells on a shared
# 2-vCPU VM, with energy change and masks taken against the fixed 1e-6:
#
#   FORCING     inner its   time    outer its   max rel. energy change   masks
#   1e-6 fixed    101 919   27.8 s       1558   -                        -
#   1e-3           50 656   19.9 s       1569   1.9e-9                   identical
#   3e-3           40 371   18.3 s       1587   4.7e-10                  identical
#   1e-2           30 223   16.6 s       1615   4.3e-9                   identical
#
# 1e-2 took the benchmark's noisy-cg to 9 outer iterations (3e-3: 8) and
# noisy-default to 26 (3e-3: 23).  TIGHTEN = 100 took 14% more inner
# iterations than 10 under the fixed 1e-6; with the forcing term, 3 and 1 took
# noisy-cg to 9 outer iterations and were slower.
FORCING = 3e-3
TIGHTEN = 10.0


@dataclass(frozen=True)
class IterationEntry:
    k: int
    e_k: float
    breakdown: EnergyBreakdown


@dataclass(frozen=True)
class IterationReport:
    entries: tuple[IterationEntry, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SegmentationResult:
    u: ScalarField
    v: ScalarField
    report: IterationReport


def convergence_indicator(
    u_new: ScalarField, u_old: ScalarField, v_new: ScalarField, v_old: ScalarField
) -> float:
    """max of the relative sup-norm changes of u and v between iterations; a
    zero change counts as 0, even against a zero iterate (an all-black image)."""
    same_grid(u_new, u_old, v_new, v_old)
    du = float(np.max(np.abs(u_new.values - u_old.values)))
    dv = float(np.max(np.abs(v_new.values - v_old.values)))
    un, vn = u_new.max_abs(), v_new.max_abs()
    if (un == 0.0 and du > 0.0) or (vn == 0.0 and dv > 0.0):
        raise DegenerateInputError("relative change undefined for an identically zero iterate")
    return max(du / un if du else 0.0, dv / vn if dv else 0.0)


def _anderson(prev: tuple[np.ndarray, np.ndarray] | None, g: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """Depth-1 type-II Anderson (secant) step from g = G(s_k), f = g - s_k and
    prev = (G(s_k-1), f_k-1): g - gamma (g - G(s_k-1)), where gamma = df.f /
    df.df minimizes |f - gamma df| for df = f - f_k-1.  None if prev is None,
    df = 0 or gamma is not below 1/2, which holds unless |f| < |f_k-1|."""
    if prev is None:
        return None
    g0, f0 = prev
    df = f - f0
    dd = _dot(df, df)
    if not dd > 0:
        return None
    gamma = _dot(df, f) / dd
    if not gamma < 0.5:
        return None
    x = gamma * g0
    x += (1.0 - gamma) * g
    return x


def _solved(res: SolveResult, what: str, k: int) -> SolveResult:
    """A converged inner solve, passed through; LinearSolveError if it stalled."""
    if not res.converged:
        raise LinearSolveError(
            f"{what} solve stalled at outer iteration {k} (residual {res.residual:.3e})",
            residual=res.residual,
            iterations=res.iterations,
        )
    return res


def check_arguments(g: ScalarField, params: ModelParams, tol: float, maxit: int) -> None:
    """run's checks before its first solve, for callers to make before they write output."""
    if not tol > 0:
        raise InvalidInputError("tolerance must be positive")
    require_count("maxit", maxit, 1)
    if g.values.min() < 0.0 or g.values.max() > 1.0:
        raise InvalidInputError("input image values must lie in [0, 1]")
    require_fidelity(params)


def run(
    g: ScalarField,
    params: ModelParams,
    tol: float = 1e-4,
    maxit: int = 500,
    u0: ScalarField | None = None,
    v0: ScalarField | None = None,
    solver: str = "cg",
    solver_tol: float = SOLVER_TOL,
) -> SegmentationResult:
    """Alternate the v and u half-steps from u = g, v = 1 until e_k < tol.

    Each inner solve runs linsolve.solve with method=solver, warm-started
    from the previous iterate: "cg", or "direct", which holds one
    factorization per system kind (v and u) for the run and reuses it as
    CG's preconditioner while that converges within
    linsolve.REUSE_ITERATIONS iterations, factoring afresh otherwise.
    solver_tol is linsolve.SOLVER_TOL unless given; no caller in the package
    gives it, and bench/checks.py reads its default from this signature.
    Direct solves run to relative residual solver_tol.  CG solves on
    iteration k+1 run to max(FORCING * min(1, e_k), solver_tol), with e_0 =
    inf, and to solver_tol on iteration maxit and on any iteration after one
    whose e_k fell below TIGHTEN * tol.  The stop test e_k < tol counts only
    on an iteration whose solves ran at, or reported a true residual within,
    solver_tol, so solver_tol is the accuracy of the last recorded state of a
    converged run, and of any run that reaches maxit.  The loop takes the
    secant step of the module docstring whenever its weight gamma is below
    1/2, with no option to turn it off: an extrapolated start costs one
    energy evaluation, and one more v-solve if the energy check rejects it.

    e_k compares consecutive recorded iterates, (u_k, v_k) against
    (u_k-1, v_k-1), whichever start iteration k took: it is the larger of the
    relative sup-norm changes of u and v.  On an iteration that was not
    extrapolated, its u part is the relative sup norm of the fixed-point
    residual G(u_k-1) - u_k-1.  So e_k < tol means that two consecutive
    recorded states agree to tol, not that the energy is within tol of a
    minimum.

    Raises LinearSolveError (its message names the outer iteration, its
    iterations the inner count) if an inner solve fails to converge; reaching
    maxit is not an error and is reported through report.converged.  The
    arguments are checked first, by check_arguments.
    """
    check_arguments(g, params, tol, maxit)

    u = u0 if u0 is not None else g
    v = v0 if v0 is not None else ScalarField.constant(g.grid, 1.0)
    same_grid(g, u, v)

    assemble_v = (
        assemble_v_system_first_order
        if params.model is ModelKind.FIRST_ORDER_AT
        else assemble_v_system_second_order
    )

    # The direct solver's factors, one per system kind (CG ignores them).
    v_lu, u_lu = FactorSlot(), FactorSlot()
    entries: list[IterationEntry] = []
    converged = False
    prev = None  # (G(s), G(s) - s) of the last iteration's start s
    s = u  # start of the next outer iteration: u, or its extrapolation
    e_k = np.inf  # the indicator of the last iteration
    for k in range(1, maxit + 1):
        tight = solver == "direct" or k == maxit or e_k < TIGHTEN * tol
        eta = solver_tol if tight else max(FORCING * min(1.0, e_k), solver_tol)
        v_res = _solved(solve(assemble_v(s, params), tol=eta, method=solver, x0=v, factor=v_lu), "edge-field", k)
        if s is not u and total_energy(s, v_res.field, g, params).total > entries[-1].breakdown.total:
            prev, s = None, u  # the extrapolation raised the energy: drop it
            v_res = _solved(solve(assemble_v(s, params), tol=eta, method=solver, x0=v, factor=v_lu), "edge-field", k)
        v_new = v_res.field
        u_res = _solved(
            solve(assemble_u_system(v_new, g, params), tol=eta, method=solver, x0=s, factor=u_lu), "image", k
        )
        u_new = u_res.field
        # the stop test may pass only on a state solved to solver_tol
        exact = eta <= solver_tol or max(v_res.residual, u_res.residual) <= solver_tol
        e_k = convergence_indicator(u_new, u, v_new, v)
        entries.append(IterationEntry(k, e_k, total_energy(u_new, v_new, g, params)))
        f = u_new.values - s.values
        u, v = u_new, v_new
        if e_k < tol and exact:
            converged = True
            break
        x = _anderson(prev, u.values, f)
        prev = (u.values, f)
        s = u if x is None else ScalarField(g.grid, x)

    report = IterationReport(tuple(entries), converged)
    return SegmentationResult(u, v, report)
