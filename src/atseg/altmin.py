"""Alternating minimization driver: edge half-step, then image half-step.

Each outer iteration solves the two SPD systems in the order the scheme is
defined (v first, then u), records the relative-change indicator and the full
energy breakdown, and stops once the indicator drops below the tolerance.
Both half-steps minimize their exact discrete energies, so the recorded total
is non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import EnergyBreakdown, ModelKind, ModelParams, total_energy
from .errors import DegenerateInputError, InvalidInputError, LinearSolveError
from .grid import ScalarField, same_grid
from .linsolve import (
    SolveResult,
    assemble_u_system,
    assemble_v_system_first_order,
    assemble_v_system_second_order,
    solve,
)


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
    relative residual solver_tol.

    Raises LinearSolveError (its message names the outer iteration, its
    iterations the inner count) if an inner solve fails to converge; reaching
    maxit is not an error and is reported through report.converged.
    """
    if not tol > 0:
        raise InvalidInputError("tolerance must be positive")
    if maxit < 1:
        raise InvalidInputError("maxit must be at least 1")
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
    for k in range(1, maxit + 1):
        v_new = _solved(solve(assemble_v(u, params), tol=solver_tol, method=solver, x0=v), "edge-field", k)
        u_new = _solved(solve(assemble_u_system(v_new, g, params), tol=solver_tol, method=solver, x0=u), "image", k)
        e_k = convergence_indicator(u_new, u, v_new, v)
        entries.append(IterationEntry(k, e_k, total_energy(u_new, v_new, g, params)))
        u, v = u_new, v_new
        if e_k < tol:
            converged = True
            break

    report = IterationReport(tuple(entries), converged)
    return SegmentationResult(u, v, report)
