import numpy as np
import pytest

from atseg.edges import EdgeMask, level_mask, two_sided_midpoints
from atseg.errors import InvalidInputError
from atseg.grid import Grid2D, ScalarField


def row_field(row):
    row = np.asarray(row, float)
    g = Grid2D(row.size, 2, 1.0 / (row.size - 1))
    return ScalarField.from_matrix(g, np.tile(row, (2, 1)))


def bump(x, center, width):
    return np.exp(-(((x - center) / width) ** 2))


class TestLevelMask:
    def test_flat_one_is_empty(self):
        g = Grid2D(8, 8, 1 / 7)
        assert level_mask(ScalarField.constant(g, 1.0), 1.005).count() == 0

    def test_everything_above(self):
        g = Grid2D(8, 8, 1 / 7)
        mask = level_mask(ScalarField.constant(g, 1.01), 1.005)
        assert mask.count() == 64

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        g = Grid2D(16, 16, 1 / 15)
        v = ScalarField(g, 1.0 + 0.02 * rng.random(g.npoints))
        low = level_mask(v, 1.005)
        high = level_mask(v, 1.010)
        assert np.all(high.bits <= low.bits)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        g = Grid2D(4, 4, 0.25)
        with pytest.raises(InvalidInputError, match="threshold must be finite"):
            level_mask(ScalarField.constant(g, 1.01), threshold)

    def test_mask_validation(self):
        g = Grid2D(4, 4, 0.25)
        with pytest.raises(InvalidInputError):
            EdgeMask(g, np.zeros(7, dtype=bool))


class TestTwoSidedMidpoints:
    def test_flat_profile_yields_nothing(self):
        assert two_sided_midpoints(row_field(np.ones(64)), 0) == []

    def test_synthetic_bump_pair(self):
        n = 201
        x = np.linspace(0.0, 1.0, n)
        row = 1.0 + 0.01 * bump(x, 0.4, 0.03) + 0.01 * bump(x, 0.6, 0.03) - 0.05 * bump(x, 0.5, 0.05)
        f = row_field(row)
        mids = two_sided_midpoints(f, 0, 1.005)
        assert len(mids) == 1
        assert mids[0] == pytest.approx(0.5, abs=f.grid.h)

    def test_no_pairing_without_a_dip_below_one(self):
        n = 201
        x = np.linspace(0.0, 1.0, n)
        row = 1.0 + 0.01 * bump(x, 0.4, 0.03) + 0.01 * bump(x, 0.6, 0.03)
        assert two_sided_midpoints(row_field(row), 0, 1.005) == []

    def test_peaks_below_threshold_are_ignored(self):
        n = 201
        x = np.linspace(0.0, 1.0, n)
        row = 1.0 + 0.004 * bump(x, 0.4, 0.03) + 0.004 * bump(x, 0.6, 0.03) - 0.05 * bump(x, 0.5, 0.05)
        assert two_sided_midpoints(row_field(row), 0, 1.005) == []

    def test_plateau_peak_uses_center(self):
        row = np.ones(101)
        row[30:35] = 1.01  # five-sample plateau, center index 32
        row[70] = 1.01
        row[50] = 0.9
        f = row_field(row)
        mids = two_sided_midpoints(f, 0, 1.005)
        assert len(mids) == 1
        assert mids[0] == pytest.approx((32 + 70) / 2 * f.grid.h, abs=1e-12)

    def test_depends_only_on_comparison_pattern(self):
        n = 201
        x = np.linspace(0.0, 1.0, n)
        row = 1.0 + 0.01 * bump(x, 0.4, 0.03) + 0.01 * bump(x, 0.6, 0.03) - 0.05 * bump(x, 0.5, 0.05)
        base = two_sided_midpoints(row_field(row), 0, 1.005)
        # strictly monotone map fixing every value >= 1 and stretching values below
        stretched = np.where(row < 1.0, 1.0 + 2.0 * (row - 1.0), row)
        assert two_sided_midpoints(row_field(stretched), 0, 1.005) == base

    def test_multiple_edges_give_multiple_midpoints(self):
        n = 401
        x = np.linspace(0.0, 1.0, n)
        row = (
            1.0
            + 0.01 * (bump(x, 0.2, 0.02) + bump(x, 0.4, 0.02) + bump(x, 0.6, 0.02) + bump(x, 0.8, 0.02))
            - 0.05 * (bump(x, 0.3, 0.03) + bump(x, 0.7, 0.03))
        )
        mids = two_sided_midpoints(row_field(row), 0, 1.005)
        # pairs (.2,.4) and (.6,.8) flank dips; between .4 and .6 the profile stays >= 1
        assert len(mids) == 2
        assert mids[0] == pytest.approx(0.3, abs=0.01)
        assert mids[1] == pytest.approx(0.7, abs=0.01)

    def test_row_bounds_checked(self):
        with pytest.raises(InvalidInputError):
            two_sided_midpoints(row_field(np.ones(32)), 5)
