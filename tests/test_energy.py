import warnings
from dataclasses import replace

import numpy as np
import pytest

from atseg.energy import (
    BoundaryKind,
    ModelKind,
    ModelParams,
    edge_weights,
    gagliardo_ratio,
    mm_term,
    total_energy,
)
from atseg.errors import DegenerateInputError, GridMismatchError, InvalidInputError
from atseg.grid import Grid2D, ScalarField, grad_forward, laplacian
from atseg.profile1d import closed_form_profile, discrete_transition_minimum

SQRT2 = np.sqrt(2.0)


def params(eps=3e-2, model=ModelKind.FIRST_ORDER_AT, scale=255.0, **kw):
    return ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=eps, model=model,
                       intensity_scale=scale, **kw)


class TestModelParams:
    def test_eta_defaults_to_eps_squared(self):
        p = params(eps=0.05)
        assert p.eta == pytest.approx(0.0025)

    def test_effective_weights(self):
        p = params(scale=255.0)
        assert p.alpha_u == pytest.approx(1e-2 * 255**2)
        assert p.gamma_u == pytest.approx(1e-3 * 255**2)

    @pytest.mark.parametrize("kw", [
        dict(alpha=0.0), dict(beta=-1.0), dict(eps=0.0), dict(gamma=-1e-3), dict(eta=1.0),
        # finite and positive on their own, but alpha_u or gamma_u (the
        # product with intensity_scale**2) overflows or underflows
        dict(alpha=1e306), dict(gamma=1e306), dict(intensity_scale=1e200),
        dict(alpha=1e-200, intensity_scale=1e-100), dict(gamma=1e-200, intensity_scale=1e-100),
        # numpy scalars, whose overflow would warn before the error
        dict(alpha=np.float64(1e306)), dict(gamma=np.float64(1e306)), dict(intensity_scale=np.float64(1e200)),
    ])
    def test_invalid(self, kw):
        base = dict(alpha=1e-2, beta=0.3, gamma=1e-3, eps=3e-2)
        base.update(kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                ModelParams(**base)

    def test_default_eta_needs_eps_below_one(self):
        with pytest.raises(InvalidInputError, match=r"default eta = eps\*\*2 needs eps < 1"):
            ModelParams(alpha=1e-2, beta=0.3, gamma=1e-3, eps=1.0)


class TestEdgeSetTerms:
    def test_all_vanish_at_one(self):
        g = Grid2D(16, 16, 1 / 15)
        v = ScalarField.constant(g, 1.0)
        p = params()
        assert mm_term(v, replace(p, model=ModelKind.FIRST_ORDER_AT)) == 0.0
        assert mm_term(v, replace(p, model=ModelKind.SECOND_ORDER_LAPLACIAN)) == 0.0

    def test_constant_zero_field(self):
        g = Grid2D(64, 64, 1 / 63)
        v = ScalarField.constant(g, 0.0)
        p = params()
        area = g.npoints * g.h**2
        assert mm_term(v, replace(p, model=ModelKind.FIRST_ORDER_AT)) == pytest.approx(
            0.5 * p.beta / p.eps * area, rel=1e-12
        )
        assert mm_term(v, replace(p, model=ModelKind.SECOND_ORDER_LAPLACIAN)) == pytest.approx(
            p.beta / (2 * SQRT2) / p.eps * area, rel=1e-12
        )

    @pytest.mark.parametrize("beta, eps", [(0.3, 0.03), (1.0, 0.5), (2.5, 1e-3), (1e-4, 0.2)])
    def test_edge_weights_charge_beta_per_unit_length(self, beta, eps):
        # Each side of an edge costs the weights' 1D transition constant, so
        # both models must charge beta/2 per side, the Mumford-Shah weight of
        # their limit.  The energy and the v-systems read the same weights,
        # so a wrong pair would pass test_systems_are_exact_half_hessians.
        p = ModelParams(alpha=1e-2, beta=beta, gamma=1e-3, eps=eps, eta=0.0)
        c0, ck = edge_weights(ModelKind.FIRST_ORDER_AT, p)
        assert 0.5 * np.sqrt(c0 * ck) == pytest.approx(beta / 2, rel=1e-12)
        c0, ck = edge_weights(ModelKind.SECOND_ORDER_LAPLACIAN, p)
        assert 0.5 * c0**0.75 * ck**0.25 * SQRT2 == pytest.approx(beta / 2, rel=1e-12)

    def test_second_order_transition_constant_is_sqrt2(self):
        # the sqrt(2) in the laplacian normalization: the minimal cost of
        # integral (f-1)^2 + (f'')^2 from f(0) = 0 to 1 at infinity
        assert discrete_transition_minimum(0.0) == pytest.approx(SQRT2, abs=1e-5)

    def test_first_order_transition_cost_per_unit_length(self):
        # exponential profile carries cost beta per unit edge length as eps -> 0
        nx, ny = 512, 8
        g = Grid2D.for_image(nx, ny)
        p = params(eps=0.02)
        x = np.tile(g.xcoords(), (ny, 1))
        v = ScalarField.from_matrix(g, 1.0 - np.exp(-np.abs(x - 0.5) / p.eps))
        # the rectangle rule assigns measure ny*h to a vertical line
        cost = mm_term(v, replace(p, model=ModelKind.FIRST_ORDER_AT)) / (ny * g.h)
        assert cost == pytest.approx(p.beta, rel=0.10)

    def test_second_order_transition_cost_per_unit_length(self):
        nx, ny = 512, 8
        g = Grid2D.for_image(nx, ny)
        p = params(eps=0.02, model=ModelKind.SECOND_ORDER_LAPLACIAN)
        x = np.tile(g.xcoords(), (ny, 1))
        v = ScalarField.from_matrix(g, closed_form_profile(np.abs(x - 0.5) / p.eps))
        cost = mm_term(v, replace(p, model=ModelKind.SECOND_ORDER_LAPLACIAN)) / (ny * g.h)
        assert cost == pytest.approx(p.beta, rel=0.10)


class TestTotalEnergy:
    def test_flat_configuration_is_free(self):
        g = Grid2D(8, 8, 1 / 7)
        c = ScalarField.constant(g, 0.4)
        b = total_energy(c, ScalarField.constant(g, 1.0), c, params())
        assert b.total == 0.0

    def test_matching_image_with_flat_edge_field(self):
        rng = np.random.default_rng(10)
        g = Grid2D(12, 12, 1 / 11)
        u = ScalarField(g, rng.random(g.npoints))
        v = ScalarField.constant(g, 1.0)
        p = params()
        b = total_energy(u, v, u, p)
        gu = grad_forward(u)
        grad_sq = float(np.sum(gu.x**2 + gu.y**2)) * g.h**2
        assert b.fidelity == 0.0
        assert b.mm == 0.0
        assert b.coupled == pytest.approx(p.alpha_u * grad_sq, rel=1e-12)
        assert b.grad_perturb == pytest.approx(p.eta * grad_sq, rel=1e-12)

    def test_breakdown_against_dense_reimplementation(self):
        rng = np.random.default_rng(12)
        g = Grid2D(16, 16, 1 / 15)
        u = ScalarField(g, rng.random(g.npoints))
        v = ScalarField(g, rng.random(g.npoints))
        gg = ScalarField(g, rng.random(g.npoints))
        p = params(model=ModelKind.SECOND_ORDER_LAPLACIAN)
        b = total_energy(u, v, gg, p)

        h = g.h
        um, vm, gm = u.as_matrix(), v.as_matrix(), gg.as_matrix()
        ux = np.zeros_like(um); ux[:, :-1] = (um[:, 1:] - um[:, :-1]) / h
        uy = np.zeros_like(um); uy[:-1, :] = (um[1:, :] - um[:-1, :]) / h
        gsq = ux**2 + uy**2
        coupled = p.alpha_u * float(np.sum(vm**2 * gsq)) * h**2
        grad_perturb = p.eta * float(np.sum(gsq)) * h**2
        fidelity = p.gamma_u * float(np.sum((um - gm) ** 2)) * h**2
        lap = laplacian(v).values
        mm = p.beta / (2 * SQRT2) * float(
            np.sum((v.values - 1.0) ** 2) / p.eps + p.eps**3 * np.sum(lap**2)
        ) * h**2
        for got, want in [(b.coupled, coupled), (b.grad_perturb, grad_perturb),
                          (b.fidelity, fidelity), (b.mm, mm)]:
            assert got == pytest.approx(want, rel=1e-12)
        assert b.total == b.coupled + b.mm + b.grad_perturb + b.fidelity

    def test_intensity_scaling_of_parts(self):
        rng = np.random.default_rng(13)
        g = Grid2D(10, 10, 1 / 9)
        u0 = rng.random(g.npoints)
        g0 = rng.random(g.npoints)
        v = ScalarField(g, rng.random(g.npoints))
        p = params()
        s, mean = 0.25, u0.mean()
        b1 = total_energy(ScalarField(g, u0), v, ScalarField(g, g0), p)
        b2 = total_energy(
            ScalarField(g, mean + s * (u0 - mean)),
            v,
            ScalarField(g, mean + s * (g0 - mean)),
            p,
        )
        # contrast-carrying parts scale with s^2; the edge term ignores u entirely
        assert b2.coupled == pytest.approx(s**2 * b1.coupled, rel=1e-10)
        assert b2.grad_perturb == pytest.approx(s**2 * b1.grad_perturb, rel=1e-10)
        assert b2.fidelity == pytest.approx(s**2 * b1.fidelity, rel=1e-10)
        assert b2.mm == b1.mm

    def test_grid_mismatch(self):
        a = ScalarField.constant(Grid2D(4, 4, 1 / 3), 0.5)
        b = ScalarField.constant(Grid2D(6, 6, 1 / 5), 0.5)
        with pytest.raises(GridMismatchError):
            total_energy(a, b, a, params())


class TestGagliardoRatio:
    def test_smooth_wave(self):
        g = Grid2D.for_image(64, 64)
        x = np.tile(g.xcoords(), (64, 1))
        v = ScalarField.from_matrix(g, 1.0 + np.sin(2 * np.pi * x))
        r = gagliardo_ratio(v, params())
        assert np.isfinite(r) and r > 0

    def test_flat_field_rejected(self):
        g = Grid2D(8, 8, 1 / 7)
        with pytest.raises(DegenerateInputError):
            gagliardo_ratio(ScalarField.constant(g, 1.0), params())

    def test_rounding_noise_rejected(self):
        # The ratio is scale-free in v - 1: noise of rounding size would give
        # an O(1) value that means nothing.
        g = Grid2D.for_image(16, 16)
        noise = np.random.default_rng(0).standard_normal(g.npoints)
        with pytest.raises(DegenerateInputError):
            gagliardo_ratio(ScalarField(g, 1.0 + 1e-9 * noise), params())
        assert np.isfinite(gagliardo_ratio(ScalarField(g, 1.0 + 1e-6 * noise), params()))

    def test_single_pixel_spike_stays_bounded(self):
        g = Grid2D.for_image(32, 32)
        a = np.ones((32, 32))
        a[16, 16] = 1.5
        r = gagliardo_ratio(ScalarField.from_matrix(g, a), params(eps=0.05))
        assert r < 1.0
