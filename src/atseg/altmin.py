"""Alternating minimization driver: edge half-step, then image half-step.

Each outer iteration solves the two SPD systems in the order the scheme is
defined (v first, then u), records the relative-change indicator and the full
energy breakdown, and stops once the indicator drops below the tolerance.
Both half-steps minimize their exact discrete energies.

An iteration from u is the fixed-point map G(u) = U(V(u)), the v half-step
at u and then the u half-step at that v; u is the whole state, since v is a
function of it.  When the residual |G(s) - s| of an iteration from s has
just fallen below that of the iteration before, the map is taken to
contract there, and the next iteration starts from the type-II Anderson
extrapolation of the last ANDERSON_DEPTH + 1 map values (Walker & Ni, SIAM
J. Numer. Anal. 49(4), 2011) instead of from G(s).  The extrapolated start
is kept only if the energy after the v half-step at it is at or below the
last recorded total; otherwise the history is dropped and that half-step is
redone from the last recorded u.  Either way the recorded total is
non-increasing.
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
    solve,
)

# Anderson depth: an extrapolation fits up to this many differences of the
# fixed-point residual.
ANDERSON_DEPTH = 2
# Differences are dropped, oldest first, while the smallest eigenvalue of
# their Gram matrix is below this fraction of the largest.
GRAM_RCOND = 1e-10


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
    """Type-II Anderson extrapolation G(s_k) - dG gamma from the map values
    gs[i] = G(s_i) and residuals fs[i] = G(s_i) - s_i, oldest first; dF and dG
    hold the differences of consecutive entries, and gamma minimizes
    |f_k - dF gamma| by its normal equations.  The oldest differences are
    dropped while their Gram matrix is ill-conditioned; None if none is left.
    """
    dF = [b - a for a, b in zip(fs, fs[1:])]
    gram = np.array([[_dot(a, b) for b in dF] for a in dF])
    rhs = np.array([_dot(a, fs[-1]) for a in dF])
    for j in range(len(dF)):
        w = np.linalg.eigvalsh(gram[j:, j:])
        if w[0] > GRAM_RCOND * w[-1]:
            # G(s_k) - sum_i gamma_i (gs[i+1] - gs[i]) as a combination of gs[j:]
            gamma = np.linalg.solve(gram[j:, j:], rhs[j:])
            coef = np.diff(gamma, prepend=0.0, append=1.0)
            x = coef[0] * gs[j]
            for c, y in zip(coef[1:], gs[j + 1 :]):
                x += c * y
            return x
    return None


def _solved(res: SolveResult, what: str, k: int) -> ScalarField:
    """The field of a converged inner solve; LinearSolveError if it stalled."""
    if not res.converged:
        raise LinearSolveError(
            f"{what} solve stalled at outer iteration {k} (residual {res.residual:.3e})",
            residual=res.residual,
            iterations=res.iterations,
        )
    return res.field


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
    from the previous iterate, or "direct" for bit-identical reruns) to
    relative residual solver_tol.  The loop is extrapolated as the module
    docstring says, with no option to turn it off: an extrapolated start
    costs one energy evaluation, and one more v-solve if the energy check
    rejects it.

    e_k compares consecutive recorded iterates, (u_k, v_k) against
    (u_k-1, v_k-1), whichever start iteration k took: it is the larger of the
    relative sup-norm changes of u and v.  On an iteration that was not
    extrapolated, its u part is the relative sup norm of the fixed-point
    residual G(u_k-1) - u_k-1.  So e_k < tol means that two consecutive
    recorded states agree to tol, not that the energy is within tol of a
    minimum.

    Raises LinearSolveError (its message names the outer iteration, its
    iterations the inner count) if an inner solve fails to converge; reaching
    maxit is not an error and is reported through report.converged.  maxit
    must be an integer of at least 1, or InvalidInputError.
    """
    if not tol > 0:
        raise InvalidInputError("tolerance must be positive")
    require_count("maxit", maxit, 1)
    if g.values.min() < 0.0 or g.values.max() > 1.0:
        raise InvalidInputError("input image values must lie in [0, 1]")

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
    gs: list[np.ndarray] = []  # G(s_i) of the recent starts s_i, oldest first
    fs: list[np.ndarray] = []  # their residuals G(s_i) - s_i
    s = u  # start of the next outer iteration: u, or its extrapolation
    last = np.inf  # squared norm of the last residual G(s) - s
    for k in range(1, maxit + 1):
        v_new = _solved(solve(assemble_v(s, params), tol=solver_tol, method=solver, x0=v), "edge-field", k)
        if s is not u and total_energy(s, v_new, g, params).total > entries[-1].breakdown.total:
            gs, fs, s = [], [], u  # the extrapolation raised the energy: drop it
            v_new = _solved(solve(assemble_v(s, params), tol=solver_tol, method=solver, x0=v), "edge-field", k)
        u_new = _solved(solve(assemble_u_system(v_new, g, params), tol=solver_tol, method=solver, x0=s), "image", k)
        e_k = convergence_indicator(u_new, u, v_new, v)
        entries.append(IterationEntry(k, e_k, total_energy(u_new, v_new, g, params)))
        f = u_new.values - s.values
        f2 = _dot(f, f)
        contracted, last = f2 < last, f2
        gs = [*gs[-ANDERSON_DEPTH:], u_new.values]
        fs = [*fs[-ANDERSON_DEPTH:], f]
        u = s = u_new
        v = v_new
        if e_k < tol:
            converged = True
            break
        if contracted:
            x = _anderson(gs, fs)
            if x is not None:
                s = ScalarField(g.grid, x)

    report = IterationReport(tuple(entries), converged)
    return SegmentationResult(u, v, report)
