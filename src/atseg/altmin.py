"""Alternating minimization driver: edge half-step, then image half-step.

Each outer iteration solves the two SPD systems in the order the scheme is
defined (v first, then u), records the relative-change indicator and the full
energy breakdown, and stops once the indicator drops below the tolerance.
Each half-step lowers its exact discrete energy at any inner tolerance: a
direct solve minimizes it, and a CG solve warm-started from the current
iterate minimizes it over a Krylov space around that iterate (the reduced
solve's red values are the exact minimizers given its black ones).  So
inner CG solves run loose while the loop is far from its stop, and to the
full solver tolerance near it; the stop test counts only on an iteration
solved to that tolerance, which the last recorded state then meets.

An iteration from u is the fixed-point map G(u) = U(V(u)), the v half-step
at u and then the u half-step at that v; u is the whole state, since v is a
function of it.  When the residual |G(s) - s| of an iteration from s has
just fallen below that of the iteration before, the map is taken to
contract there, and the next iteration starts from the type-II Anderson
extrapolation of depth 1 (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011),
a secant step through the last two map values, instead of from G(s).  The
extrapolated start is kept only if the energy after the v half-step at it
is at or below the last recorded total; otherwise the history is dropped
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
    SolveResult,
    assemble_u_system,
    assemble_v_system_first_order,
    assemble_v_system_second_order,
    _dot,
    require_fidelity,
    solve,
)

# Inner CG tolerance while the outer loop is far from its stop, i.e. while
# the last indicator e_k is at least TIGHTEN * tol; below that, on the
# iteration maxit and under "direct", solves run to solver_tol.  Measured
# with the depth-2 Anderson fit on the benchmark's noisy-cg and noisy-default
# (128x128 seed-12 sigma=0.1 circles; 10-15 alternating in-process pairs on a
# 2-core VM): 1e-5 took 13% less wall time than 1e-6, but 71 outer iterations
# on noisy-default (1e-6: 70, and 75 with the secant step; solver_tol
# throughout: 69), and on the 256x256 `at` phantom with alpha_u=1,
# gamma_u=100 it moved the final energy by 2.6e-11 relative (1e-6: 3e-14).
# TIGHTEN = 100 took 14% more inner iterations on noisy-cg and 9% more on
# noisy-default, and was slower on noisy-cg in 9 of 10 pairs.
LOOSE_TOL = 1e-6
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


def _anderson(gs: list[np.ndarray], fs: list[np.ndarray]) -> np.ndarray | None:
    """Depth-1 type-II Anderson extrapolation, a secant step, from the map
    values gs[i] = G(s_i) and residuals fs[i] = G(s_i) - s_i, oldest first:
    G(s_k) - gamma (G(s_k) - G(s_k-1)), where gamma = df.f_k / df.df minimizes
    |f_k - gamma df| for df = f_k - f_k-1.  None if len(fs) < 2 or df = 0."""
    if len(fs) < 2:
        return None
    df = fs[-1] - fs[-2]
    dd = _dot(df, df)
    if not dd > 0:
        return None
    gamma = _dot(df, fs[-1]) / dd
    x = gamma * gs[-2]
    x += (1.0 - gamma) * gs[-1]
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
    solver_tol: float = 1e-10,
) -> SegmentationResult:
    """Alternate the v and u half-steps from u = g, v = 1 until e_k < tol.

    Each inner solve runs linsolve.solve with method=solver ("cg", warm-started
    from the previous iterate, or "direct" for bit-identical reruns).  Direct
    solves run to relative residual solver_tol.  CG solves run to
    max(LOOSE_TOL, solver_tol), and to solver_tol on iteration maxit and on
    any iteration after one whose e_k fell below TIGHTEN * tol.  The stop
    test e_k < tol counts only on an iteration whose solves ran at, or
    reported a true residual within, solver_tol, so solver_tol is the
    accuracy of the last recorded state of a converged run, and of any run
    that reaches maxit.  The loop takes the secant step of the module
    docstring, with no option to turn it off: an extrapolated start costs
    one energy evaluation, and one more v-solve if the energy check rejects
    it.

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

    entries: list[IterationEntry] = []
    converged = False
    gs: list[np.ndarray] = []  # G(s_i) of the last two starts s_i, oldest first
    fs: list[np.ndarray] = []  # their residuals G(s_i) - s_i
    s = u  # start of the next outer iteration: u, or its extrapolation
    last = np.inf  # squared norm of the last residual G(s) - s
    e_k = np.inf  # the indicator of the last iteration
    for k in range(1, maxit + 1):
        tight = solver == "direct" or k == maxit or e_k < TIGHTEN * tol
        eta = solver_tol if tight else max(LOOSE_TOL, solver_tol)
        v_res = _solved(solve(assemble_v(s, params), tol=eta, method=solver, x0=v), "edge-field", k)
        if s is not u and total_energy(s, v_res.field, g, params).total > entries[-1].breakdown.total:
            gs, fs, s = [], [], u  # the extrapolation raised the energy: drop it
            v_res = _solved(solve(assemble_v(s, params), tol=eta, method=solver, x0=v), "edge-field", k)
        v_new = v_res.field
        u_res = _solved(solve(assemble_u_system(v_new, g, params), tol=eta, method=solver, x0=s), "image", k)
        u_new = u_res.field
        # the stop test may pass only on a state solved to solver_tol
        exact = eta <= solver_tol or max(v_res.residual, u_res.residual) <= solver_tol
        e_k = convergence_indicator(u_new, u, v_new, v)
        entries.append(IterationEntry(k, e_k, total_energy(u_new, v_new, g, params)))
        f = u_new.values - s.values
        f2 = _dot(f, f)
        contracted, last = f2 < last, f2
        gs = [*gs[-1:], u_new.values]
        fs = [*fs[-1:], f]
        u = s = u_new
        v = v_new
        if e_k < tol and exact:
            converged = True
            break
        if contracted:
            x = _anderson(gs, fs)
            if x is not None:
                s = ScalarField(g.grid, x)

    report = IterationReport(tuple(entries), converged)
    return SegmentationResult(u, v, report)
