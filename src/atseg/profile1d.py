"""One-dimensional optimal transition profiles for the second-order edge energy.

The transition cost from value d at the origin (with zero slope) to value 1 at
infinity, measured by integral of (f-1)^2 + (f'')^2, equals sqrt(2)*(d-1)^2.
This module evaluates the closed-form minimizer, integrates its energy by
quadrature, and cross-checks the constant with an independent discrete
minimization oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import InvalidInputError, require_count

SQRT2 = float(np.sqrt(2.0))


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


@dataclass(frozen=True)
class Profile1D:
    """Profile samples on a uniform grid over [0, T] with f(0) = left_value, f'(0) = 0."""

    samples: np.ndarray
    step: float
    left_value: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float).reshape(-1)
        if not np.all(np.isfinite(s)):
            raise InvalidInputError("profile samples must be finite")
        if not (self.step > 0):
            raise InvalidInputError("profile step must be positive")
        if s.size and abs(s[0] - self.left_value) > 1e-12:
            raise InvalidInputError("first sample must equal left_value")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)


def sample_closed_form(T: float = 50.0, step: float = 1e-3, d: float = 0.0) -> Profile1D:
    """Closed-form profile sampled on [0, T]."""
    if not (0 < T < np.inf and 0 < step < np.inf):
        raise InvalidInputError(f"T and step must be positive and finite, got T={T}, step={step}")
    try:
        t = np.arange(int(round(T / step)) + 1) * step
        f = closed_form_profile(t, d)
    except (MemoryError, OverflowError, ValueError):  # T/step samples cannot be held
        raise InvalidInputError(f"cannot sample [0, {T}] at step {step}: too many samples") from None
    return Profile1D(f, step, d)


def _second_derivative(f: np.ndarray, step: float) -> np.ndarray:
    # central differences inside, second-order one-sided at the ends
    s = np.empty_like(f)
    s[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / step**2
    s[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / step**2
    s[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / step**2
    return s


def profile_energy(p: Profile1D) -> float:
    """Composite-Simpson quadrature of (f-1)^2 + (f'')^2 over the sample range."""
    f = p.samples
    if f.size < 5:
        raise InvalidInputError("profile energy needs at least 5 samples")
    # Imported here: scipy.integrate pulls in scipy.optimize, which no other
    # command needs and every atseg process would otherwise load.
    from scipy.integrate import simpson

    integrand = (f - 1.0) ** 2 + _second_derivative(f, p.step) ** 2
    return float(simpson(integrand, dx=p.step))


def discrete_transition_minimum(d: float, T: float = 20.0, n: int = 4001) -> float:
    """Minimal discrete transition energy; independent oracle for sqrt(2)*(d-1)^2.

    Pins the first two samples to d (mirror form of f'(0) = 0 about the
    staggered boundary, so node 0 acts as a ghost node and carries no
    quadrature weight) and minimizes the quadratic energy over the remaining
    samples via a banded SPD solve.
    """
    if T < 10:
        raise InvalidInputError("transition interval must satisfy T >= 10")
    require_count("n", n, 101)
    # Imported here, as simpson is in profile_energy: only `profile` and the
    # tests need scipy.linalg.
    from scipy.linalg import solveh_banded

    tau = T / (n - 1)

    # mass weights: ghost node 0, full cells inside, half cell at the right end
    wm = np.full(n, tau)
    wm[0] = 0.0
    wm[-1] = tau / 2.0

    # E(f) = sum_i wm_i (f_i - 1)^2 + tau * sum_{i=1..n-2} s_i^2 with
    # s_i = (f_{i-1} - 2 f_i + f_{i+1}) / tau^2; half the Hessian is
    # A = diag(wm) + tau * S^T S, pentadiagonal and SPD.
    m = n - 2
    rows = np.repeat(np.arange(m), 3)
    cols = (np.arange(1, n - 1)[:, None] + np.array([-1, 0, 1])).ravel()
    vals = np.tile([1.0, -2.0, 1.0], m) / tau**2
    S = sp.csr_matrix((vals, (rows, cols)), shape=(m, n))
    A = (sp.diags(wm) + tau * (S.T @ S)).tocsc()

    # eliminate the pinned samples f0 = f1 = d; the free block stays banded
    rhs = wm[2:] - d * np.asarray(A[2:, 0].todense()).ravel() - d * np.asarray(A[2:, 1].todense()).ravel()
    Af = A[2:, 2:]
    ab = np.zeros((3, n - 2))
    ab[2] = Af.diagonal(0)
    ab[1, 1:] = Af.diagonal(1)
    ab[0, 2:] = Af.diagonal(2)

    f = np.empty(n)
    f[0] = f[1] = d
    f[2:] = solveh_banded(ab, rhs)

    r, s = f - 1.0, S @ f
    return float(np.dot(wm, r * r) + tau * np.dot(s, s))


def hermite_bridge_energy(w: float, z: float) -> float:
    """Energy of the cubic bridging (value w, slope z) at 0 to (value 1, slope 0) at 1.

    Exact polynomial integration of (p-1)^2 + (p'')^2 over [0, 1] in rational
    arithmetic; upper-bounds the true minimal bridge cost and tends to 0 as
    (w, z) -> (1, 0).
    """
    wf, zf = Fraction(w), Fraction(z)
    # p - 1 = (w-1) * (2t^3 - 3t^2 + 1) + z * (t^3 - 2t^2 + t), coefficients low-to-high
    q = [
        wf - 1,
        zf,
        -3 * (wf - 1) - 2 * zf,
        2 * (wf - 1) + zf,
    ]
    qpp = [2 * q[2], 6 * q[3]]  # second derivative of the cubic
    total = _integrate_square(q) + _integrate_square(qpp)
    return float(total)


def _integrate_square(coeffs: list[Fraction]) -> Fraction:
    """Integral over [0, 1] of the square of a polynomial given low-to-high."""
    deg = len(coeffs)
    total = Fraction(0)
    for i in range(deg):
        for j in range(deg):
            total += coeffs[i] * coeffs[j] / (i + j + 1)
    return total
