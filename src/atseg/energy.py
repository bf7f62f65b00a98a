"""Discrete energies: coupled gradient term, one edge-set (Modica-Mortola type)
term for both models (K = grad or L, weights from edge_weights), gradient
perturbation, fidelity, and the interpolation-inequality diagnostic.

All integrals use the rectangle sum h^2 * sum(.) over grid nodes with the same
difference operators as the linear solvers, so each half-step of alternating
minimization decreases the reported total exactly, not just approximately.
On this grid Dx and Dy commute, so int|D^2 v|^2 = int(Lv)^2: the paper's Hessian term is the laplacian one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InvalidInputError
from .grid import ScalarField, grad_forward, laplacian, same_grid

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
        for name in ("alpha", "beta", "eps", "intensity_scale"):
            v = getattr(self, name)
            if not (v > 0 and np.isfinite(v)):
                raise InvalidInputError(f"{name} must be strictly positive, got {v}")
        if not (self.gamma >= 0 and np.isfinite(self.gamma)):
            raise InvalidInputError(f"gamma must be nonnegative, got {self.gamma}")
        # alpha_u and gamma_u take Python floats: a product past the float
        # range is then inf without the RuntimeWarning numpy scalars emit.
        try:
            alpha_u, gamma_u = self.alpha_u, self.gamma_u
        except OverflowError:  # intensity_scale**2 past the float range
            alpha_u = gamma_u = np.inf
        if not 0 < alpha_u < np.inf:
            raise InvalidInputError(f"alpha * intensity_scale**2 must be positive and finite, got {alpha_u}")
        if not (gamma_u < np.inf and (gamma_u > 0 or self.gamma == 0)):
            raise InvalidInputError(f"gamma * intensity_scale**2 must be finite, and 0 only if gamma is, got {gamma_u}")
        if self.eta is None:
            if not self.eps < 1:
                raise InvalidInputError(f"the default eta = eps**2 needs eps < 1, got eps={self.eps}")
            object.__setattr__(self, "eta", self.eps**2)
        if not (0 <= self.eta < self.eps):
            raise InvalidInputError(f"eta must satisfy 0 <= eta < eps, got eta={self.eta}")

    @property
    def alpha_u(self) -> float:
        """Coupling weight acting on [0, 1]-normalized image gradients."""
        return float(self.alpha) * float(self.intensity_scale) ** 2

    @property
    def gamma_u(self) -> float:
        """Fidelity weight acting on [0, 1]-normalized image differences."""
        return float(self.gamma) * float(self.intensity_scale) ** 2


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


def edge_weights(model: ModelKind, params: ModelParams) -> tuple[float, float]:
    """The weights (c0, ck) of the model's edge-set term
    (1/2) * integral of c0*(v-1)^2 + ck*|K v|^2, with K = grad for at and
    K = lap for laplacian.  Either pair charges beta per unit edge length in
    the limit eps -> 0: (1/2)*sqrt(c0*ck) for at, and
    (1/2)*sqrt(2)*c0^(3/4)*ck^(1/4) for laplacian (the 1D transition cost
    sqrt(2) of atseg.profile1d)."""
    beta, eps = params.beta, params.eps
    if model is ModelKind.FIRST_ORDER_AT:
        return beta / eps, beta * eps
    return beta / (SQRT2 * eps), beta * eps**3 / SQRT2


def _kv_sq(v: ScalarField, model: ModelKind) -> np.ndarray:
    """|K v|^2 of the model's edge-set term: |grad v|^2 for at, (Lv)^2 for laplacian."""
    if model is ModelKind.FIRST_ORDER_AT:
        return _grad_sq(v)
    lv = laplacian(v).values
    return lv * lv


def mm_term(v: ScalarField, params: ModelParams) -> float:
    """The edge-set term of params.model, (1/2) * integral of
    c0*(v-1)^2 + ck*|K v|^2 with (c0, ck) from edge_weights."""
    c0, ck = edge_weights(params.model, params)
    r = v.values - 1.0
    return 0.5 * _cellsum(v.grid, c0 * (r * r) + ck * _kv_sq(v, params.model))


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
    """Interpolation diagnostic: eps*int|grad v|^2 over (1/eps)*int(v-1)^2 + eps^3*int(Lv)^2.

    On this grid int(Lv)^2 = int|D^2 v|^2 (module docstring).  Boundedness of
    the ratio across eps witnesses the Gagliardo-Nirenberg inequality for v - 1.
    It does not change when v - 1 is scaled, so it says nothing about a v - 1
    of rounding size: a direct solve on an all-black image returns v = 1 plus
    noise up to about 1e-12.  A v within sqrt(machine epsilon) of 1 everywhere
    raises DegenerateInputError, as v identically 1 does.
    """
    grid = v.grid
    eps = params.eps
    r = v.values - 1.0
    if np.max(np.abs(r)) <= ROUNDING_LEVEL:
        raise DegenerateInputError("ratio undefined for v within rounding of 1")
    num = eps * _cellsum(grid, _kv_sq(v, ModelKind.FIRST_ORDER_AT))
    den = _cellsum(grid, r * r) / eps + eps**3 * _cellsum(grid, _kv_sq(v, ModelKind.SECOND_ORDER_LAPLACIAN))
    return num / den
