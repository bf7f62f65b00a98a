import numpy as np
import pytest

from atseg.errors import InvalidInputError
from atseg.profile1d import (
    SQRT2,
    closed_form_profile,
    discrete_transition_minimum,
    hermite_bridge_energy,
    profile_energy,
    sample_closed_form,
    simpson,
)


class TestClosedForm:
    def test_boundary_values(self):
        assert closed_form_profile(0.0) == pytest.approx(0.0, abs=1e-15)
        assert abs(closed_form_profile(40.0) - 1.0) < 1e-9

    def test_left_slope_vanishes(self):
        h = 1e-6
        slope = (closed_form_profile(h) - closed_form_profile(0.0)) / h
        assert abs(slope) < 1e-5

    def test_satisfies_fourth_order_ode(self):
        # f'''' + (f - 1) = 0, checked by finite differences of the closed form
        t = np.linspace(0.5, 10.0, 40)
        h = 1e-2
        f4 = (
            closed_form_profile(t - 2 * h)
            - 4 * closed_form_profile(t - h)
            + 6 * closed_form_profile(t)
            - 4 * closed_form_profile(t + h)
            + closed_form_profile(t + 2 * h)
        ) / h**4
        residual = f4 + closed_form_profile(t) - 1.0
        assert np.max(np.abs(residual)) < 1e-5

    def test_overshoots_one(self):
        t = np.linspace(0.0, 15.0, 5001)
        assert closed_form_profile(t).max() > 1.0

    def test_general_left_value(self):
        assert closed_form_profile(0.0, d=0.5) == pytest.approx(0.5, abs=1e-14)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            closed_form_profile(-0.1)


class TestProfileEnergy:
    def test_transition_constant(self):
        p = sample_closed_form(50.0, 1e-3)
        assert profile_energy(p, 1e-3) == pytest.approx(SQRT2, abs=1e-6)

    def test_constant_profile_is_free(self):
        p = np.ones(100)
        assert profile_energy(p, 0.01) == 0.0

    def test_partial_transition_constant(self):
        p = sample_closed_form(50.0, 1e-3, d=0.5)
        assert profile_energy(p, 1e-3) == pytest.approx(SQRT2 * 0.25, abs=1e-5)

    def test_too_few_samples(self):
        with pytest.raises(InvalidInputError):
            profile_energy(np.ones(4), 0.1)

    @pytest.mark.parametrize(
        "f, step",
        [(np.array([0.0, 0.5, np.nan, 1.0, 1.0]), 0.1), (np.ones(5), 0.0), (np.ones(5), np.inf), (np.ones((5, 5)), 0.1)],
        ids=["nan-sample", "zero-step", "inf-step", "2-d"],
    )
    def test_invalid_samples_or_step(self, f, step):
        with pytest.raises(InvalidInputError):
            profile_energy(f, step)

    def test_samples_are_read_only(self):
        with pytest.raises(ValueError):
            sample_closed_form(1.0, 0.1)[0] = 1.0

    @pytest.mark.parametrize(
        "T, step",
        [(50.0, float("nan")), (50.0, 0.0), (50.0, -1e-3), (float("inf"), 1e-3), (float("nan"), 1e-3), (-1.0, 1e-3)],
    )
    def test_sampling_must_be_positive_and_finite(self, T, step):
        with pytest.raises(InvalidInputError):
            sample_closed_form(T, step)

    @pytest.mark.parametrize("T, step", [(1e12, 1e-3), (1e30, 1.0), (1e300, 1e-300)])
    def test_too_many_samples_is_invalid_input(self, T, step):
        # numpy refuses each sample array before allocating any of it
        with pytest.raises(InvalidInputError):
            sample_closed_form(T, step)


class TestSimpson:
    @pytest.mark.parametrize("n", [5, 6, 7, 50001])
    def test_matches_scipy(self, n):
        # odd counts: Simpson's rule over pairs of intervals; even counts add
        # the end correction that scipy applies to the last interval
        from scipy.integrate import simpson as scipy_simpson

        y = np.random.default_rng(n).random(n) + np.linspace(0.0, 3.0, n) ** 2
        for dx in (1e-3, 0.37):
            assert simpson(y, dx) == pytest.approx(scipy_simpson(y, dx=dx), rel=1e-14, abs=0)

    def test_exact_on_cubics_and_a_quadratic_end(self):
        # Simpson's rule integrates cubics exactly; the end correction, quadratics
        t = np.linspace(0.0, 2.0, 9)
        assert simpson(t**3 - t, 0.25) == pytest.approx(2.0, rel=1e-14)
        t = np.linspace(0.0, 2.5, 6)
        assert simpson(t**2, 0.5) == pytest.approx(2.5**3 / 3.0, rel=1e-14)


class TestDiscreteMinimum:
    @pytest.mark.parametrize("d", [0.0, 0.25, 0.5, 0.75])
    def test_matches_transition_law(self, d):
        assert discrete_transition_minimum(d) == pytest.approx(SQRT2 * (d - 1) ** 2, abs=2e-3)

    def test_trivial_at_one(self):
        # f = 1 is exact; the sparse solve leaves conditioning-level noise
        assert discrete_transition_minimum(1.0) == pytest.approx(0.0, abs=1e-9)

    def test_quadratic_in_left_value(self):
        d = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
        m = np.array([discrete_transition_minimum(x) for x in d])
        coeff = np.polyfit(d - 1.0, m, 2)
        assert coeff[0] == pytest.approx(SQRT2, rel=1e-2)
        assert abs(coeff[1]) < 1e-2 and abs(coeff[2]) < 1e-2

    def test_never_beats_true_minimum_by_much(self):
        quad = profile_energy(sample_closed_form(50.0, 1e-3), 1e-3)
        disc = discrete_transition_minimum(0.0)
        assert disc <= quad + 2e-3
        assert disc <= hermite_bridge_energy(0.0, 0.0)


class TestHermiteBridge:
    def test_trivial_bridge(self):
        assert hermite_bridge_energy(1.0, 0.0) == 0.0

    def test_exact_reference_value(self):
        assert hermite_bridge_energy(0.0, 0.0) == 433 / 35

    def test_decreases_to_zero_along_diagonal(self):
        values = [hermite_bridge_energy(1.0 - 1.0 / k, 1.0 / k) for k in range(1, 65)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2

    def test_matches_float_integration(self):
        # (p-1)^2 + (p'')^2 over [0, 1] with p - 1 = (w-1)*h0 + z*h1 in the
        # Hermite basis, integrated in floats: checks all three Gram entries.
        h0 = np.polynomial.Polynomial([1, 0, -3, 2])
        h1 = np.polynomial.Polynomial([0, 1, -2, 1])
        for w, z in np.random.default_rng(0).uniform(-2, 2, size=(200, 2)):
            q = (w - 1) * h0 + z * h1
            antiderivative = (q**2 + q.deriv(2) ** 2).integ()
            assert hermite_bridge_energy(w, z) == pytest.approx(antiderivative(1.0) - antiderivative(0.0), rel=1e-12)
