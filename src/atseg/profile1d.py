"""One-dimensional optimal transition profiles for the second-order edge energy.

The transition cost from value d at the origin (with zero slope) to value 1 at
infinity, measured by integral of (f-1)^2 + (f'')^2, equals sqrt(2)*(d-1)^2.
This module evaluates the closed-form minimizer, integrates its energy by
quadrature, and cross-checks the constant with an independent discrete
minimization oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError

SQRT2 = float(np.sqrt(2.0))

# The discrete oracle's interval [0, ORACLE_T], past which the profile stays
# within about 1e-6 of 1 per unit jump, and its number of samples.
ORACLE_T = 20.0
ORACLE_N = 4001


def closed_form_profile(t, d: float = 0.0):
    """Decaying solution of f'''' + (f - 1) = 0 with f(0) = d, f'(0) = 0.

    f(t) = 1 + (d-1) * sqrt(2) * exp(-t/sqrt(2)) * cos(t/sqrt(2) - pi/4).
    Oscillates around 1 while decaying, so it overshoots 1 on an interval.
    Accepts a scalar or an array of nonnegative times.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidInputError("profile is defined for t >= 0")
    s = t / SQRT2
    out = 1.0 + (d - 1.0) * SQRT2 * np.exp(-s) * np.cos(s - np.pi / 4)
    return float(out) if out.ndim == 0 else out


def sample_closed_form(T: float = 50.0, step: float = 1e-3, d: float = 0.0) -> np.ndarray:
    """Closed-form profile sampled on [0, T] at spacing step, as a read-only array."""
    if not (0 < T < np.inf and 0 < step < np.inf):
        raise InvalidInputError(f"T and step must be positive and finite, got T={T}, step={step}")
    try:
        t = np.arange(int(round(T / step)) + 1) * step
        f = closed_form_profile(t, d)
    except (MemoryError, OverflowError, ValueError):  # T/step samples cannot be held
        raise InvalidInputError(f"cannot sample [0, {T}] at step {step}: too many samples") from None
    f.setflags(write=False)
    return f


def _second_derivative(f: np.ndarray, step: float) -> np.ndarray:
    # central differences inside, second-order one-sided at the ends
    s = np.empty_like(f)
    s[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / step**2
    s[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / step**2
    s[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / step**2
    return s


def simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson's rule on equally spaced samples y (at least 3), as
    scipy.integrate.simpson computes it: over pairs of intervals for an odd
    count; for an even count, over all but the last interval, which takes
    Cartwright's end correction dx (5 y[-1] + 8 y[-2] - y[-3]) / 12."""
    n = y.size - (y.size % 2 == 0)  # odd number of samples Simpson's rule covers
    total = float(np.sum(y[0 : n - 2 : 2] + 4.0 * y[1 : n - 1 : 2] + y[2:n:2]) * (dx / 3.0))
    if n < y.size:
        total += dx * (5.0 * y[-1] + 8.0 * y[-2] - y[-3]) / 12.0
    return total


def profile_energy(f: np.ndarray, step: float) -> float:
    """Composite-Simpson quadrature of (f-1)^2 + (f'')^2 over samples f at spacing step."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 5:
        raise InvalidInputError("profile energy needs a 1-D array of at least 5 samples")
    if not (np.all(np.isfinite(f)) and 0 < step < np.inf):
        raise InvalidInputError(f"profile samples must be finite and the step positive and finite, got step={step}")
    integrand = (f - 1.0) ** 2 + _second_derivative(f, step) ** 2
    return simpson(integrand, step)


def discrete_transition_minimum(d: float) -> float:
    """Minimal discrete transition energy; independent oracle for sqrt(2)*(d-1)^2.

    Pins the first two samples to d (mirror form of f'(0) = 0 about the
    staggered boundary, so node 0 acts as a ghost node and carries no
    quadrature weight) and minimizes the quadratic energy over the remaining
    samples with one sparse SPD solve.
    """
    # Imported here: only `profile`, the tests and --solver direct need
    # scipy.sparse.linalg.
    from scipy.sparse.linalg import spsolve

    tau = ORACLE_T / (ORACLE_N - 1)

    # mass weights: ghost node 0, full cells inside, half cell at the right end
    wm = np.full(ORACLE_N, tau)
    wm[0] = 0.0
    wm[-1] = tau / 2.0

    # E(f) = sum_i wm_i (f_i - 1)^2 + tau * sum_i s_i^2 with
    # s_i = (f_i - 2 f_{i+1} + f_{i+2}) / tau^2; half the Hessian is
    # A = diag(wm) + tau * S^T S, pentadiagonal and SPD.
    S = sp.diags([1.0, -2.0, 1.0], [0, 1, 2], shape=(ORACLE_N - 2, ORACLE_N)) / tau**2
    A = (sp.diags(wm) + tau * (S.T @ S)).tocsc()

    # eliminate the pinned samples f0 = f1 = d and solve for the free ones
    f = np.full(ORACLE_N, float(d))
    f[2:] = spsolve(A[2:, 2:], wm[2:] - A[2:, :2] @ f[:2])

    r, s = f - 1.0, S @ f
    return float(np.dot(wm, r * r) + tau * np.dot(s, s))


def hermite_bridge_energy(w: float, z: float) -> float:
    """Energy of the cubic bridging (value w, slope z) at 0 to (value 1, slope 0) at 1.

    With a = w-1 and b = z the bridge is p = 1 + a*h0 + b*h1 in the Hermite
    basis h0 = 2t^3 - 3t^2 + 1, h1 = t^3 - 2t^2 + t, so the integral of
    (p-1)^2 + (p'')^2 over [0, 1] is the quadratic form of their Gram matrix
    [[433/35, 1271/210], [1271/210, 421/105]] under int_0^1 pq + p''q''.
    It is evaluated exactly in rational arithmetic; it upper-bounds the true
    minimal bridge cost and tends to 0 as (w, z) -> (1, 0).
    """
    # Imported here: no command calls this, and fractions imports decimal.
    from fractions import Fraction

    a, b = Fraction(w) - 1, Fraction(z)
    return float(Fraction(433, 35) * a * a + Fraction(1271, 105) * a * b + Fraction(421, 105) * b * b)
