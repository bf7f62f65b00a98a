"""The assembled systems against the sparse products they stand for, and the
safety of the per-grid patterns they share.

Each system is written as values on a cached pattern; the product forms
below build the same matrices from the difference matrices directly and are
the reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from atseg import linsolve
from atseg.energy import SQRT2, BoundaryKind, ModelKind, ModelParams
from atseg.grid import (
    Grid2D,
    ScalarField,
    bilaplacian_matrix,
    difference_matrices,
    grad_forward,
    laplacian_matrix,
)
from atseg.linsolve import (
    assemble_u_system,
    assemble_v_system_first_order,
    assemble_v_system_second_order,
    boundary_indices,
    solve,
)

RTOL = 1e-14
SIDES = st.integers(min_value=2, max_value=12)
# 2xN and Nx2 grids are drawn as often as general ones.
SHAPES = st.one_of(st.tuples(st.just(2), SIDES), st.tuples(SIDES, st.just(2)), st.tuples(SIDES, SIDES))
SPACINGS = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False, allow_infinity=False)
ENTRIES = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def params(model, bc, eta_is_zero):
    eps = 3e-2
    return ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=eps, model=model, bc=bc,
                       eta=0.0 if eta_is_zero else eps**2)


def u_product_form(v, g, p):
    grid = v.grid
    D = sp.vstack(difference_matrices(grid), format="csr")
    w = 2.0 * p.alpha_u * v.values**2 + 2.0 * p.eta
    A = D.T @ sp.diags(np.concatenate([w, w])) @ D + 2.0 * p.gamma_u * sp.identity(grid.npoints)
    return A, 2.0 * p.gamma_u * g.values


def v_product_form(u, p):
    grid = u.grid
    gu = grad_forward(u)
    weight = 2.0 * p.alpha_u * (gu.x**2 + gu.y**2)
    if p.model is ModelKind.FIRST_ORDER_AT:
        A = sp.diags(weight + p.beta / p.eps) - p.beta * p.eps * laplacian_matrix(grid)
        return A, np.full(grid.npoints, p.beta / p.eps)
    c0 = p.beta / (SQRT2 * p.eps)
    A = (sp.diags(weight + c0) + p.beta * p.eps**3 / SQRT2 * bilaplacian_matrix(grid)).tocsr()
    b = np.full(grid.npoints, c0)
    if p.bc is BoundaryKind.DIRICHLET_ONE:
        bidx = boundary_indices(grid)
        interior = np.ones(grid.npoints)
        interior[bidx] = 0.0
        b = interior * (b - A @ (1.0 - interior))
        b[bidx] = 1.0
        A = sp.diags(interior) @ A @ sp.diags(interior) + sp.diags(1.0 - interior)
    return A, b


def assemble_v(u, p):
    if p.model is ModelKind.FIRST_ORDER_AT:
        return assemble_v_system_first_order(u, p)
    return assemble_v_system_second_order(u, p)


def assert_close(sys, A, b):
    scale = abs(A).max()
    assert abs(sys.matrix - A).max() <= RTOL * scale
    assert np.max(np.abs(sys.rhs.values - b)) <= RTOL * np.max(np.abs(b))


@settings(max_examples=80, deadline=None)
@given(
    st.data(),
    SHAPES,
    SPACINGS,
    st.sampled_from(list(ModelKind)),
    st.sampled_from(list(BoundaryKind)),
    st.booleans(),
)
def test_assembly_equals_product_form(data, shape, h, model, bc, eta_is_zero):
    grid = Grid2D(*shape, h)
    u, v, g = (ScalarField(grid, data.draw(arrays(np.float64, grid.npoints, elements=ENTRIES))) for _ in range(3))
    p = params(model, bc, eta_is_zero)
    assert_close(assemble_u_system(v, g, p), *u_product_form(v, g, p))
    assert_close(assemble_v(u, p), *v_product_form(u, p))


def random_fields(grid, count, seed):
    rng = np.random.default_rng(seed)
    return [ScalarField(grid, rng.random(grid.npoints)) for _ in range(count)]


def snapshot(A):
    return A.data.copy(), A.indices.copy(), A.indptr.copy()


def test_later_assembly_leaves_earlier_systems_unchanged():
    grid = Grid2D.for_image(9, 7)
    u1, u2, v1, v2, g = random_fields(grid, 5, 11)
    neumann = params(ModelKind.SECOND_ORDER_LAPLACIAN, BoundaryKind.NEUMANN, False)
    dirichlet = params(ModelKind.SECOND_ORDER_LAPLACIAN, BoundaryKind.DIRICHLET_ONE, False)
    # The u-system and the first-order v-system share L's pattern; both
    # second-order systems share L^2's.
    first = [
        assemble_u_system(v1, g, neumann).matrix,
        assemble_v_system_first_order(u1, neumann).matrix,
        assemble_v_system_second_order(u1, neumann).matrix,
    ]
    before = [snapshot(A) for A in first]
    assemble_u_system(v2, g, neumann)
    assemble_v_system_first_order(u2, neumann)
    assemble_v_system_second_order(u2, dirichlet)
    assemble_v_system_second_order(u2, neumann)
    for A, old in zip(first, before):
        for now, was in zip(snapshot(A), old):
            assert np.array_equal(now, was)


@pytest.mark.parametrize("model", list(ModelKind))
def test_shared_pattern_is_read_only(model):
    grid = Grid2D.for_image(8, 6)
    u, v, g = random_fields(grid, 3, 12)
    p = params(model, BoundaryKind.DIRICHLET_ONE, False)
    patterns = (laplacian_matrix(grid), bilaplacian_matrix(grid))
    before = [snapshot(P) for P in patterns]
    for sys in (assemble_u_system(v, g, p), assemble_v(u, p)):
        A = sys.matrix
        assert not A.indices.flags.writeable and not A.indptr.flags.writeable
        A.data[:] = 0.0  # the values are the system's own
        with pytest.raises(ValueError):
            A.eliminate_zeros()
    for P, old in zip(patterns, before):
        for now, was in zip(snapshot(P), old):
            assert np.array_equal(now, was)


def test_direct_solve_factors_without_explicit_zeros(monkeypatch):
    # Dirichlet elimination leaves zeros on the shared pattern; factoring them
    # would only add fill.
    factored = []
    splu = linsolve.splu
    monkeypatch.setattr(linsolve, "splu", lambda A, **kw: factored.append(A) or splu(A, **kw))
    grid = Grid2D.for_image(10, 8)
    (u,) = random_fields(grid, 1, 13)
    sys = assemble_v_system_second_order(u, params(ModelKind.SECOND_ORDER_LAPLACIAN, BoundaryKind.DIRICHLET_ONE, False))
    assert np.any(sys.matrix.data == 0.0)
    assert solve(sys, method="direct").converged
    assert np.all(factored[0].data != 0.0)
    assert np.any(sys.matrix.data == 0.0)
