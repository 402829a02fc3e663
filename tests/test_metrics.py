import pytest

from tripleshard.metrics import linear_fit_r2


def test_noisy_fit_matches_hand_computation():
    # mean x 2.5, mean y 4.75; Sxx 5, Sxy 9.5, Syy 18.75
    slope, intercept, r2 = linear_fit_r2([1, 2, 3, 4], [2, 4, 5, 8])
    assert slope == pytest.approx(1.9)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(9.5**2 / (5 * 18.75))


def test_exact_line_fits_perfectly():
    slope, intercept, r2 = linear_fit_r2([0, 1, 2, 5], [1, 3, 5, 11])
    assert (slope, intercept) == pytest.approx((2.0, 1.0))
    assert r2 == pytest.approx(1.0)


def test_constant_series_fits_its_flat_line():
    assert linear_fit_r2([1, 2, 3], [4, 4, 4]) == (0.0, 4.0, 1.0)


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError, match="equal length"):
        linear_fit_r2([1, 2], [1])
    with pytest.raises(ValueError, match="two points"):
        linear_fit_r2([1], [1])
