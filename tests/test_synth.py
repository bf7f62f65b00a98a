import numpy as np
import pytest

from atseg.edges import CirclePairEdge, EllipseEdge, VerticalLineEdge
from atseg.errors import InvalidInputError
from atseg.synth import PhantomKind, PhantomSpec, generate


class TestGeneration:
    def test_noiseless_is_two_valued(self):
        for kind in PhantomKind:
            g, _ = generate(PhantomSpec(kind, nx=64, ny=64, noise_sigma=0.0))
            assert len(np.unique(g.values)) == 2
            assert g.values.min() == pytest.approx(0.1)
            assert g.values.max() == pytest.approx(0.9)

    def test_noise_statistics_away_from_clamping(self):
        # sigma small enough that the [0, 1] clamp never triggers at contrast 0.8
        sigma = 0.02
        clean, _ = generate(PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=128, ny=128, noise_sigma=0.0))
        noisy, _ = generate(
            PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=128, ny=128, noise_sigma=sigma, seed=21)
        )
        delta = noisy.values - clean.values
        assert abs(delta.mean()) < 3 * sigma / np.sqrt(delta.size)
        assert delta.std() == pytest.approx(sigma, rel=0.05)

    def test_noise_statistics_with_clamping(self):
        # at sigma=0.1 every pixel sits one sigma from a clamp boundary; the
        # clamped normal then has mean +/-0.0833*sigma per side (cancelling over
        # the symmetric halves) and standard deviation 0.8667*sigma
        sigma = 0.1
        clean, _ = generate(PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=128, ny=128, noise_sigma=0.0))
        noisy, _ = generate(
            PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=128, ny=128, noise_sigma=sigma, seed=22)
        )
        delta = noisy.values - clean.values
        assert abs(delta.mean()) < 3 * 0.8667 * sigma / np.sqrt(delta.size)
        assert delta.std() == pytest.approx(0.8667 * sigma, rel=0.02)

    def test_seed_determinism(self):
        spec = PhantomSpec(PhantomKind.TWO_CIRCLES, nx=64, ny=64, noise_sigma=0.1, seed=9)
        a, _ = generate(spec)
        b, _ = generate(spec)
        assert np.array_equal(a.values, b.values)
        c, _ = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=64, ny=64, noise_sigma=0.1, seed=10))
        assert not np.array_equal(a.values, c.values)

    def test_ground_truth_does_not_depend_on_noise(self):
        _, t0 = generate(PhantomSpec(PhantomKind.ELLIPSE, nx=64, ny=64, noise_sigma=0.0))
        _, t1 = generate(PhantomSpec(PhantomKind.ELLIPSE, nx=64, ny=64, noise_sigma=0.2, seed=5))
        assert t0 == t1

    def test_truth_types(self):
        _, t = generate(PhantomSpec(PhantomKind.ONED_STRUCTURE, nx=32, ny=32, noise_sigma=0.0))
        assert isinstance(t, VerticalLineEdge) and t.position == pytest.approx(0.5)
        _, t = generate(PhantomSpec(PhantomKind.ELLIPSE, nx=32, ny=32, noise_sigma=0.0))
        assert isinstance(t, EllipseEdge)
        _, t = generate(PhantomSpec(PhantomKind.TWO_CIRCLES, nx=32, ny=32, noise_sigma=0.0))
        assert isinstance(t, CirclePairEdge)

    def test_ellipse_interior_pixel_count(self):
        spec = PhantomSpec(
            PhantomKind.ELLIPSE, nx=256, ny=256, noise_sigma=0.0, ellipse_axes=(0.4, 0.1)
        )
        g, truth = generate(spec)
        inside = np.count_nonzero(g.values > 0.5)
        expected = np.pi * truth.a * truth.b / g.grid.h**2
        assert inside == pytest.approx(expected, rel=0.02)


class TestValidation:
    def test_contrast_bounds(self):
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ONED_STRUCTURE, contrast=0.0)
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ONED_STRUCTURE, contrast=1.5)

    def test_geometry_must_fit(self):
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ONED_STRUCTURE, edge_fraction=1.0)
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ELLIPSE, ellipse_axes=(0.7, 0.1))
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.TWO_CIRCLES, circle_radius=0.5)
        # a thin strip cannot hold the default ellipse
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ELLIPSE, nx=128, ny=4)

    def test_negative_noise(self):
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ONED_STRUCTURE, noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise(self, sigma):
        # nan would pass a "sigma < 0" check and then add no noise at all
        with pytest.raises(InvalidInputError):
            PhantomSpec(PhantomKind.ONED_STRUCTURE, noise_sigma=sigma)
