"""Property tests of the one operator set on random grids, thin ones included.

Entries lie in [-1, 1], so the terms of each inner product are bounded by
the row sums of |Dx| + |Dy| (4/h), |L| (8/h^2) or |L^2| ((8/h^2)^2).
Tolerances are relative to that bound, so they measure rounding, not the
size of the data.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atseg.grid import (
    Grid2D,
    ScalarField,
    VectorField2,
    bilaplacian,
    bilaplacian_matrix,
    difference_matrices,
    div_adjoint,
    dot,
    dot_vec,
    grad_forward,
    laplacian,
)

RTOL = 1e-12
SIDES = st.integers(min_value=2, max_value=12)
# 2xN and Nx2 grids are drawn as often as general ones.
SHAPES = st.one_of(st.tuples(st.just(2), SIDES), st.tuples(SIDES, st.just(2)), st.tuples(SIDES, SIDES))
SPACINGS = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False)
ENTRIES = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def grid_and_fields(draw, count):
    nx, ny = draw(SHAPES)
    grid = Grid2D(nx, ny, draw(SPACINGS))
    return grid, [draw(arrays(np.float64, grid.npoints, elements=ENTRIES)) for _ in range(count)]


def bound(grid, row_sum):
    """h^2 * n * row_sum: no inner product below can exceed it."""
    return grid.h**2 * grid.npoints * row_sum


@settings(max_examples=60, deadline=None)
@given(grid_and_fields(3))
def test_grad_and_div_are_adjoint(case):
    grid, (f, px, py) = case
    lhs = dot_vec(grad_forward(ScalarField(grid, f)), VectorField2(grid, px, py))
    rhs = -dot(ScalarField(grid, f), div_adjoint(VectorField2(grid, px, py)))
    assert abs(lhs - rhs) <= RTOL * bound(grid, 4.0 / grid.h)


@settings(max_examples=60, deadline=None)
@given(grid_and_fields(2))
def test_laplacian_is_symmetric(case):
    grid, (f, w) = case
    f, w = ScalarField(grid, f), ScalarField(grid, w)
    assert abs(dot(laplacian(f), w) - dot(f, laplacian(w))) <= RTOL * bound(grid, 8.0 / grid.h**2)


@settings(max_examples=60, deadline=None)
@given(grid_and_fields(1))
def test_bilaplacian_form_is_the_squared_laplacian(case):
    grid, (f,) = case
    f = ScalarField(grid, f)
    lf = laplacian(f)
    assert abs(dot(bilaplacian(f), f) - dot(lf, lf)) <= RTOL * bound(grid, (8.0 / grid.h**2) ** 2)


@settings(max_examples=60, deadline=None)
@given(grid_and_fields(1))
def test_hessian_penalty_is_the_laplacian_penalty(case):
    # Dx = I (x) dx and Dy = dy (x) I commute, so the Gram form of the Hessian
    # (v_xx, v_xy, v_yy) = (-Dx^T Dx v, Dy Dx v, -Dy^T Dy v) is L^2.  For a
    # general h the two products round differently, so both sides are
    # compared to within rounding.
    grid, (v,) = case
    Dx, Dy = difference_matrices(grid)
    Dxx, Dxy, Dyy = -(Dx.T @ Dx), Dy @ Dx, -(Dy.T @ Dy)
    gram = Dxx.T @ Dxx + 2.0 * (Dxy.T @ Dxy) + Dyy.T @ Dyy
    l2 = (8.0 / grid.h**2) ** 2
    assert abs(gram - bilaplacian_matrix(grid)).max() <= RTOL * l2
    hess_sq = (Dxx @ v) ** 2 + 2.0 * (Dxy @ v) ** 2 + (Dyy @ v) ** 2
    lv = laplacian(ScalarField(grid, v)).values
    assert abs(grid.h**2 * (np.sum(hess_sq) - np.sum(lv * lv))) <= RTOL * bound(grid, l2)
