"""Correctness checks and quality figures for one benchmark command.

Every command's outputs are read back with the package's own readers and
checked: exit code 0, finite values, and a non-increasing energy history with
a slack derived from the inner-solver tolerance.  Edge quality is measured
against the analytic edge description synth.generate returns with the
phantom; the program itself only ever sees the image.
"""

from __future__ import annotations

import inspect
import math

import numpy as np
from scipy.spatial import cKDTree

from atseg import altmin, edges, imgio
from atseg.errors import AtsegError

# Descent slack per outer iteration, relative to 1 + |first total|: the inner
# solves stop at this relative residual, so the recorded totals may rise by
# about this much without the half-steps being wrong.
SOLVER_TOL = inspect.signature(altmin.run).parameters["solver_tol"].default

SWEEP_HEADER = "eps,min_total,mm_at_convergence,gagliardo_ratio,iterations"


class CheckFailed(Exception):
    """An output of a benchmark command is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_segment(outdir) -> dict:
    """Check u.pgm, v.f64 and history.csv; return the figures they carry."""
    try:
        u = imgio.read_pgm((outdir / "u.pgm").read_bytes())
        v = imgio.read_f64((outdir / "v.f64").read_bytes())
        entries = imgio.read_history((outdir / "history.csv").read_bytes())
    except (AtsegError, OSError) as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc
    _require(bool(np.all(np.isfinite(u.values))), "u.pgm has non-finite values")
    _require(bool(np.all(np.isfinite(v.values))), "v.f64 has non-finite values")
    _require(len(entries) >= 1, "history.csv has no rows")
    rows = np.array([[e.e_k, e.breakdown.total, e.breakdown.coupled, e.breakdown.mm,
                      e.breakdown.grad_perturb, e.breakdown.fidelity] for e in entries])
    _require(bool(np.all(np.isfinite(rows))), "history.csv has non-finite values")
    totals = rows[:, 1]
    slack = SOLVER_TOL * (1.0 + abs(totals[0]))
    rises = np.flatnonzero(np.diff(totals) > slack)
    if rises.size:
        k = rises[0]
        raise CheckFailed(f"history total rises by {totals[k + 1] - totals[k]:.3e} at k={k + 2}")
    return {"v": v, "outer_iters": len(entries), "final_energy": float(totals[-1])}


def check_sweep(csv_path, eps_values) -> dict:
    """Check the sweep CSV: one finite row per eps, in the order given."""
    try:
        lines = csv_path.read_text().splitlines()
    except OSError as exc:
        raise CheckFailed(f"unreadable output: {exc}") from exc
    _require(bool(lines) and lines[0] == SWEEP_HEADER, "sweep CSV header missing")
    _require(len(lines) == 1 + len(eps_values), f"sweep CSV has {len(lines) - 1} rows, expected {len(eps_values)}")
    try:
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    except ValueError as exc:
        raise CheckFailed(f"malformed sweep CSV: {exc}") from exc
    _require(all(len(r) == 5 for r in rows), "sweep CSV rows must have 5 fields")
    _require(all(math.isfinite(x) for r in rows for x in r), "sweep CSV has non-finite values")
    _require([r[0] for r in rows] == list(eps_values), "sweep CSV eps column differs from --eps-list")
    iters = [r[4] for r in rows]
    _require(all(i >= 1 and i == int(i) for i in iters), "sweep iteration counts must be positive integers")
    return {"outer_iters": int(sum(iters)), "final_energy": rows[-1][1]}


def _circle_pair(truth: edges.EdgeDescription):
    if not isinstance(truth, edges.CirclePairEdge):
        raise CheckFailed(f"edge quality is defined for two-circle phantoms, got {type(truth).__name__}")
    return ((truth.cx1, truth.cy1, truth.r1), (truth.cx2, truth.cy2, truth.r2))


def _outside(x, y, circle) -> np.ndarray:
    cx, cy, r = circle
    return (x - cx) ** 2 + (y - cy) ** 2 >= r * r


def boundary_points(truth: edges.EdgeDescription, h: float) -> np.ndarray:
    """Points at most h/8 apart along the boundary of the union of two circles."""
    circles = _circle_pair(truth)
    pts = []
    for i, (cx, cy, r) in enumerate(circles):
        t = np.linspace(0.0, 2.0 * np.pi, int(np.ceil(2.0 * np.pi * r / (h / 8))), endpoint=False)
        x, y = cx + r * np.cos(t), cy + r * np.sin(t)
        keep = _outside(x, y, circles[1 - i])
        pts.append(np.column_stack([x[keep], y[keep]]))
    return np.concatenate(pts)


def edge_dist_px(v, truth: edges.EdgeDescription) -> float | None:
    """Symmetric mean distance in pixels between {v < 0.5} and the true boundary.

    The mean of the distances from each node of {v < 0.5} to the boundary and
    from each boundary point to the set, averaged.  A collapsed field (v near 0
    everywhere) puts every node in the set and scores high.  None when the set
    is empty.
    """
    grid = v.grid
    yy, xx = np.meshgrid(grid.ycoords(), grid.xcoords(), indexing="ij")
    low = v.as_matrix() < 0.5
    if not low.any():
        return None
    nodes = np.column_stack([xx[low], yy[low]])
    bnd = boundary_points(truth, grid.h)
    to_bnd = cKDTree(bnd).query(nodes)[0].mean()
    to_nodes = cKDTree(nodes).query(bnd)[0].mean()
    return 0.5 * (to_bnd + to_nodes) / grid.h


def midpoint_err_px(v, truth: edges.EdgeDescription) -> float | None:
    """Largest distance in pixels from a two-sided midpoint on the centre row to
    the nearest true edge crossing of that row.  None when no midpoint is found."""
    grid = v.grid
    row = grid.ny // 2
    y = row * grid.h
    circles = _circle_pair(truth)
    crossings = []
    for i, (cx, cy, r) in enumerate(circles):
        if abs(y - cy) < r:
            half = math.sqrt(r * r - (y - cy) ** 2)
            for x in (cx - half, cx + half):
                if _outside(x, y, circles[1 - i]):
                    crossings.append(x)
    mids = edges.two_sided_midpoints(v, row)
    if not mids or not crossings:
        return None
    return max(min(abs(m - c) for c in crossings) for m in mids) / grid.h
