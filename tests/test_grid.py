import numpy as np
import pytest

from atseg.errors import GridMismatchError, InvalidInputError
from atseg.grid import (
    Grid2D,
    ScalarField,
    VectorField2,
    bilaplacian,
    difference_matrices,
    div_adjoint,
    dot,
    dot_vec,
    grad_forward,
    laplacian,
)


def random_field(grid, rng):
    return ScalarField(grid, rng.random(grid.npoints))


def random_vector(grid, rng):
    return VectorField2(grid, rng.random(grid.npoints), rng.random(grid.npoints))


class TestGrid2D:
    def test_for_image_spacing(self):
        g = Grid2D.for_image(128, 64)
        assert g.h == pytest.approx(1.0 / 127)
        assert g.width == pytest.approx(1.0)
        assert g.height == pytest.approx(63 / 127)

    @pytest.mark.parametrize("nx,ny,h", [(1, 4, 0.1), (4, 1, 0.1), (4, 4, 0.0), (4, 4, -1.0)])
    def test_invalid_grid(self, nx, ny, h):
        with pytest.raises(InvalidInputError):
            Grid2D(nx, ny, h)

    def test_field_validation(self):
        g = Grid2D(4, 4, 0.25)
        with pytest.raises(InvalidInputError):
            ScalarField(g, np.zeros(15))
        with pytest.raises(InvalidInputError):
            ScalarField(g, np.full(16, np.nan))

    def test_fields_are_read_only(self):
        g = Grid2D(4, 4, 0.25)
        f = ScalarField.constant(g, 1.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestGradient:
    def test_constant_field_has_zero_gradient(self):
        g = Grid2D(8, 8, 0.1)
        grad = grad_forward(ScalarField.constant(g, 3.7))
        assert np.all(grad.x == 0.0)
        assert np.all(grad.y == 0.0)

    def test_linear_ramp_exact(self):
        g = Grid2D(8, 6, 0.37)
        cols = np.tile(np.arange(8) * g.h, (6, 1))
        grad = grad_forward(ScalarField.from_matrix(g, cols))
        gx = grad.x.reshape(g.ny, g.nx)
        assert np.allclose(gx[:, :-1], 1.0, atol=1e-14)
        assert np.all(gx[:, -1] == 0.0)
        assert np.all(grad.y == 0.0)

    def test_adjointness_random(self):
        rng = np.random.default_rng(42)
        g = Grid2D(8, 8, 1 / 7)
        for _ in range(20):
            f = random_field(g, rng)
            p = random_vector(g, rng)
            lhs = dot_vec(grad_forward(f), p)
            rhs = -dot(f, div_adjoint(p))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_taken_once_per_field(self):
        # The energy of one outer iteration and the next edge-field assembly
        # take the gradient of the same image.
        g = Grid2D.for_image(9, 7)
        f = random_field(g, np.random.default_rng(4))
        grad = grad_forward(f)
        Dx, Dy = difference_matrices(g)
        assert grad_forward(f) is grad
        assert np.array_equal(grad.x, Dx @ f.values) and np.array_equal(grad.y, Dy @ f.values)
        assert grad_forward(ScalarField(g, f.values.copy())) is not grad


class TestDivergence:
    def test_zero_vector_field(self):
        g = Grid2D(5, 7, 0.2)
        d = div_adjoint(VectorField2(g, np.zeros(35), np.zeros(35)))
        assert np.all(d.values == 0.0)

    def test_div_grad_equals_laplacian(self):
        rng = np.random.default_rng(3)
        g = Grid2D(16, 16, 1 / 15)
        f = random_field(g, rng)
        composed = div_adjoint(grad_forward(f))
        assert np.allclose(composed.values, laplacian(f).values, atol=1e-12)


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = Grid2D(9, 9, 0.125)
        assert np.all(laplacian(ScalarField.constant(g, 5.0)).values == 0.0)

    def test_exact_on_quadratic_interior(self):
        g = Grid2D(16, 16, 1 / 15)
        x = np.tile(g.xcoords(), (16, 1))
        lap = laplacian(ScalarField.from_matrix(g, x**2)).as_matrix()
        assert np.allclose(lap[:, 1:-1], 2.0, atol=1e-11)

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        g = Grid2D(12, 10, 0.1)
        for _ in range(20):
            f, w = random_field(g, rng), random_field(g, rng)
            lhs = dot(laplacian(f), w)
            rhs = dot(f, laplacian(w))
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_linearity(self):
        rng = np.random.default_rng(8)
        g = Grid2D(10, 10, 0.1)
        f, w = random_field(g, rng), random_field(g, rng)
        combo = laplacian(ScalarField(g, 2.5 * f.values - 1.5 * w.values))
        parts = 2.5 * laplacian(f).values - 1.5 * laplacian(w).values
        assert np.allclose(combo.values, parts, atol=1e-11)


def bilaplacian_13pt_interior(a, h):
    """Direct 13-point biharmonic stencil, valid two cells away from the boundary."""
    out = np.zeros_like(a)
    c = a[2:-2, 2:-2]
    out[2:-2, 2:-2] = (
        20.0 * c
        - 8.0 * (a[1:-3, 2:-2] + a[3:-1, 2:-2] + a[2:-2, 1:-3] + a[2:-2, 3:-1])
        + 2.0 * (a[1:-3, 1:-3] + a[1:-3, 3:-1] + a[3:-1, 1:-3] + a[3:-1, 3:-1])
        + (a[:-4, 2:-2] + a[4:, 2:-2] + a[2:-2, :-4] + a[2:-2, 4:])
    ) / h**4
    return out


class TestBilaplacian:
    def test_constant_maps_to_zero(self):
        g = Grid2D(8, 8, 0.2)
        assert np.all(bilaplacian(ScalarField.constant(g, -2.0)).values == 0.0)

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(11)
        g = Grid2D(10, 10, 0.1)
        for _ in range(10):
            f = random_field(g, rng)
            lf = laplacian(f)
            lhs = dot(bilaplacian(f), f)
            rhs = dot(lf, lf)
            assert rhs >= 0.0
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_matches_13_point_stencil_inside(self):
        rng = np.random.default_rng(13)
        g = Grid2D(32, 32, 1 / 31)
        f = random_field(g, rng)
        direct = bilaplacian_13pt_interior(f.as_matrix(), g.h)
        ours = bilaplacian(f).as_matrix()
        scale = np.abs(direct[2:-2, 2:-2]).max()
        assert np.allclose(ours[2:-2, 2:-2], direct[2:-2, 2:-2], atol=1e-10 * max(1.0, scale))


def test_grid_mismatch_detected():
    a = ScalarField.constant(Grid2D(4, 4, 0.25), 0.0)
    b = ScalarField.constant(Grid2D(5, 5, 0.25), 0.0)
    with pytest.raises(GridMismatchError):
        dot(a, b)
