"""Discrete energies: coupled gradient term, edge-set (Modica-Mortola type) terms,
gradient perturbation, fidelity, and the interpolation-inequality diagnostic.

All integrals use the rectangle sum h^2 * sum(.) over grid nodes with the same
difference operators as the linear solvers, so each half-step of alternating
minimization decreases the reported total exactly, not just approximately.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .grid import ScalarField, difference_matrices, grad_forward, laplacian, same_grid

SQRT2 = float(np.sqrt(2.0))
# sqrt of float64's machine epsilon, about 1.5e-8
ROUNDING_LEVEL = float(np.sqrt(np.finfo(float).eps))


class ModelKind(enum.Enum):
    FIRST_ORDER_AT = "at"
    SECOND_ORDER_LAPLACIAN = "laplacian"


class BoundaryKind(enum.Enum):
    NEUMANN = "neumann"
    DIRICHLET_ONE = "dirichlet1"


@dataclass(frozen=True)
class ModelParams:
    """Weights of the segmentation functional and the model/boundary choice.

    alpha and gamma are quoted for images on the 0..intensity_scale range
    (255 for 8-bit data, the convention the usual parameter choices such as
    alpha=1e-2, gamma=1e-3 assume).  Fields in this package are normalized to
    [0, 1], so the weights that actually multiply the image-dependent
    integrals are alpha_u and gamma_u below.  Pass intensity_scale=1 to use
    the raw weights directly.

    eta is the small gradient-perturbation weight that keeps the image
    half-step coercive where v vanishes.  It applies to the normalized
    intensities directly (no rescaling) and must stay well below eps, the
    regime in which the perturbed functionals remain close to the unperturbed
    ones.  Passing eta=None picks the default eps**2.
    """

    alpha: float
    beta: float
    gamma: float
    eps: float
    eta: float | None = None
    model: ModelKind = ModelKind.FIRST_ORDER_AT
    bc: BoundaryKind = BoundaryKind.NEUMANN
    intensity_scale: float = 255.0

    def __post_init__(self):
        if self.eta is None:
            object.__setattr__(self, "eta", self.eps**2)
        for name in ("alpha", "beta", "eps", "intensity_scale"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise InvalidInputError(f"{name} must be strictly positive, got {v}")
        if not (self.gamma >= 0 and np.isfinite(self.gamma)):
            raise InvalidInputError(f"gamma must be nonnegative, got {self.gamma}")
        if not (0 <= self.eta < self.eps):
            raise InvalidInputError(f"eta must satisfy 0 <= eta < eps, got eta={self.eta}")

    @property
    def alpha_u(self) -> float:
        """Coupling weight acting on [0, 1]-normalized image gradients."""
        return self.alpha * self.intensity_scale**2

    @property
    def gamma_u(self) -> float:
        """Fidelity weight acting on [0, 1]-normalized image differences."""
        return self.gamma * self.intensity_scale**2


@dataclass(frozen=True)
class EnergyBreakdown:
    """Four-part decomposition of the segmentation energy; total is their sum."""

    coupled: float
    mm: float
    grad_perturb: float
    fidelity: float

    @property
    def total(self) -> float:
        return self.coupled + self.mm + self.grad_perturb + self.fidelity


def _cellsum(grid, a: np.ndarray) -> float:
    return grid.h**2 * float(np.sum(a))


def _grad_sq(f: ScalarField) -> np.ndarray:
    g = grad_forward(f)
    return g.x**2 + g.y**2


def mm_first_order(v: ScalarField, params: ModelParams) -> float:
    """(beta/2) * integral of (v-1)^2/eps + eps*|grad v|^2."""
    r = v.values - 1.0
    val = _cellsum(v.grid, r * r / params.eps + params.eps * _grad_sq(v))
    return 0.5 * params.beta * val


def mm_second_order_laplacian(v: ScalarField, params: ModelParams) -> float:
    """(beta/(2*sqrt(2))) * integral of (v-1)^2/eps + eps^3*(lap v)^2."""
    r = v.values - 1.0
    lv = laplacian(v).values
    val = _cellsum(v.grid, r * r / params.eps + params.eps**3 * lv * lv)
    return params.beta / (2.0 * SQRT2) * val


def hessian_terms(v: ScalarField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Discrete (v_xx, v_xy, v_yy) = (-Dx^T Dx v, Dy Dx v, -Dy^T Dy v) as flat arrays.

    The pure second derivatives are the two halves of the Laplacian
    L = -(Dx^T Dx + Dy^T Dy), so v_xx + v_yy equals the Laplacian up to
    rounding; the mixed derivative is forward-forward differencing.
    """
    Dx, Dy = difference_matrices(v.grid)
    dxv = Dx @ v.values
    return -(Dx.T @ dxv), Dy @ dxv, -(Dy.T @ (Dy @ v.values))


def hessian_sq(v: ScalarField) -> np.ndarray:
    """Pointwise squared Frobenius norm of the discrete Hessian, v_xx^2 + 2 v_xy^2 + v_yy^2."""
    vxx, vxy, vyy = hessian_terms(v)
    return vxx**2 + 2.0 * vxy**2 + vyy**2


def mm_second_order_hessian(v: ScalarField, params: ModelParams) -> float:
    """(beta/(2*sqrt(2))) * integral of (v-1)^2/eps + eps^3*|hess v|^2 (evaluation only)."""
    r = v.values - 1.0
    val = _cellsum(v.grid, r * r / params.eps + params.eps**3 * hessian_sq(v))
    return params.beta / (2.0 * SQRT2) * val


def mm_term(v: ScalarField, params: ModelParams) -> float:
    if params.model is ModelKind.FIRST_ORDER_AT:
        return mm_first_order(v, params)
    return mm_second_order_laplacian(v, params)


def total_energy(u: ScalarField, v: ScalarField, g: ScalarField, params: ModelParams) -> EnergyBreakdown:
    """Breakdown of the full objective for the model selected in params."""
    grid = same_grid(u, v, g)
    gu = _grad_sq(u)
    coupled = params.alpha_u * _cellsum(grid, v.values**2 * gu)
    grad_perturb = params.eta * _cellsum(grid, gu)
    diff = u.values - g.values
    fidelity = params.gamma_u * _cellsum(grid, diff * diff)
    return EnergyBreakdown(
        coupled=coupled,
        mm=mm_term(v, params),
        grad_perturb=grad_perturb,
        fidelity=fidelity,
    )


def gagliardo_ratio(v: ScalarField, params: ModelParams) -> float:
    """Interpolation diagnostic: eps*int|grad v|^2 over (1/eps)*int(v-1)^2 + eps^3*int|hess v|^2.

    Boundedness of this ratio across eps witnesses the Gagliardo-Nirenberg
    interpolation inequality for the shifted field v - 1.

    The ratio does not change when v - 1 is scaled, so it says nothing about
    a v - 1 of rounding size: a direct solve on an all-black image returns
    v = 1 plus noise up to about 1e-12.  A v within sqrt(machine epsilon) of
    1 everywhere raises DegenerateInputError, as v identically 1 does.
    """
    grid = v.grid
    eps = params.eps
    r = v.values - 1.0
    if np.max(np.abs(r)) <= ROUNDING_LEVEL:
        raise DegenerateInputError("ratio undefined for v within rounding of 1")
    num = eps * _cellsum(grid, _grad_sq(v))
    den = _cellsum(grid, r * r) / eps + eps**3 * _cellsum(grid, hessian_sq(v))
    return num / den
