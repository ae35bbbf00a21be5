import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from aym import Displacement, DomainError, curve_csv, make


def test_make_fixes_rate_from_mean_constraint():
    dist = make(135.0, 0.0)
    assert dist.alpha == pytest.approx(1.0 / 270.0, rel=1e-14)
    assert 2.0 * dist.alpha * (dist.mean_demand - dist.a0) == pytest.approx(1.0, abs=1e-14)


def test_make_unit_gap():
    a0 = 3.0
    dist = make(2 * a0, a0)
    assert dist.alpha == pytest.approx(1.0 / (2.0 * a0))


def test_make_rejects_degenerate_mean():
    with pytest.raises(DomainError):
        make(1.0, 1.0)
    with pytest.raises(DomainError):
        make(1.0, -0.5)


def test_pdf_values():
    dist = make(135.0, 0.0)
    assert dist.pdf(0.0) == pytest.approx(1.0 / 135.0, rel=1e-14)
    assert dist.pdf(-1.0) == 0.0
    grid = np.array([-5.0, 0.0, 135.0])
    np.testing.assert_allclose(dist.pdf(grid),
                               [0.0, 1.0 / 135.0, math.exp(-1.0) / 135.0], rtol=1e-14)


def test_pdf_normalizes():
    dist = make(135.0, 0.0)
    window = 50.0 / (2.0 * dist.alpha)
    val, err = integrate.quad(dist.pdf, dist.a0, dist.a0 + window, epsabs=1e-14, limit=200)
    # the analytic mass outside the window is e^-50, already below 1e-20
    assert math.exp(-50.0) < 1e-20
    assert val == pytest.approx(1.0, abs=1e-12)


def test_tail_values():
    dist = make(135.0, 0.0)
    assert dist.tail(135.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert dist.tail(0.0) == 1.0
    assert dist.tail(-3.0) == 1.0
    # analytic inverse at the 10% quantile
    assert dist.tail(135.0 * math.log(10.0)) == pytest.approx(0.1, rel=1e-12)
    assert dist.tail(310.6) == pytest.approx(0.1, rel=5e-3)


def test_tail_derivative_is_negative_pdf():
    dist = make(135.0, 0.0)
    h = 1e-5 * dist.scale
    for a in np.linspace(dist.a0 + 0.5 * dist.scale, dist.a0 + 5.0 * dist.scale, 10):
        fd = (dist.tail(a + h) - dist.tail(a - h)) / (2.0 * h)
        assert fd == pytest.approx(-dist.pdf(a), rel=1e-6)


def test_amplitude_edge_and_interior_values():
    dist = make(135.0, 0.0)
    assert dist.amplitude(dist.x_min) == pytest.approx(2.0 / math.sqrt(135.0), rel=1e-14)
    assert dist.amplitude(0.0) == pytest.approx(2.0 / math.sqrt(135.0) * math.exp(-0.5), rel=1e-12)
    assert dist.amplitude(dist.x_min - 1.0) == 0.0
    assert dist.amplitude(dist.x_min - 1.0, clipped=False) > 0.0


def test_amplitude_squared_normalizes_to_four():
    dist = make(135.0, 0.0)
    val, _ = integrate.quad(lambda x: dist.amplitude(x) ** 2, dist.x_min,
                            dist.x_min + 60.0 * dist.scale, epsabs=1e-13, limit=200)
    assert 0.25 * val == pytest.approx(1.0, abs=1e-11)


def test_amplitude_density_link_pointwise():
    dist = make(135.0, 0.0)
    grid = np.linspace(dist.a0, dist.a0 + 40.0 * dist.scale, 2001)
    q = dist.amplitude(grid - dist.mean_demand)
    np.testing.assert_allclose(q * q / 4.0, dist.pdf(grid), rtol=1e-12)


def test_moments():
    # the mean is D/n and the variance the squared mean gap (D/n - a0)^2
    dist = make(135.0, 0.0)
    assert (dist.mean_demand, dist.scale ** 2) == pytest.approx((135.0, 18225.0), rel=1e-14)
    dist = make(2.0, 1.0)
    assert (dist.mean_demand, dist.scale ** 2) == pytest.approx((2.0, 1.0), rel=1e-14)


def test_moments_against_quadrature():
    dist = make(2.0, 1.0)
    hi = dist.a0 + 60.0 * dist.scale
    mean, _ = integrate.quad(lambda a: a * dist.pdf(a), dist.a0, hi, epsabs=1e-13, limit=200)
    var, _ = integrate.quad(lambda a: (a - mean) ** 2 * dist.pdf(a), dist.a0, hi,
                            epsabs=1e-13, limit=200)
    assert mean == pytest.approx(dist.mean_demand, rel=1e-9)
    assert var == pytest.approx(dist.scale ** 2, rel=1e-9)


def test_mean_constraint_by_quadrature():
    dist = make(135.0, 0.0)
    hi = dist.a0 + 60.0 * dist.scale
    val, _ = integrate.quad(lambda a: a * dist.pdf(a), dist.a0, hi, epsabs=1e-12, limit=200)
    assert val == pytest.approx(135.0, rel=1e-9)


def _inverse_tail(dist, u):
    """Inverse-transform draws a = a0 - scale*ln(u) for u in (0, 1]: tail(a) = u."""
    return dist.a0 - dist.scale * np.log(u)


def test_sample_inverse_cdf_endpoints():
    dist = make(2.0, 1.0)
    assert _inverse_tail(dist, 1.0) == dist.a0 and dist.tail(dist.a0) == 1.0
    at_mean_tail = _inverse_tail(dist, math.exp(-1.0))  # u = e^-1 lands one mean gap above a0
    assert at_mean_tail == pytest.approx(dist.a0 + dist.scale, rel=1e-12)
    assert dist.tail(at_mean_tail) == pytest.approx(math.exp(-1.0), rel=1e-12)
    u = np.linspace(1e-6, 1.0, 1001)
    np.testing.assert_allclose(dist.tail(_inverse_tail(dist, u)), u, rtol=1e-9)


def test_sample_statistics():
    # draws through the inverse tail keep the support and the mean constraint
    dist = make(135.0, 0.0)
    rng = np.random.Generator(np.random.PCG64(77))
    draws = _inverse_tail(dist, 1.0 - rng.random(1_000_000))
    assert draws.min() >= dist.a0
    sigma = 135.0 / 1000.0
    assert abs(draws.mean() - 135.0) < 3.0 * sigma


def test_displacement_validation():
    dist = make(135.0, 0.0)
    d = dist.displacement(0.0)
    assert d.x_a == -135.0
    assert dist.amplitude(d) == dist.amplitude(-135.0)
    with pytest.raises(DomainError):
        Displacement(-200.0, dist.x_min)


def test_curve_csv_layout():
    dist = make(135.0, 0.0)
    text = curve_csv(dist, [0.0, 135.0])
    lines = text.strip().split("\n")
    assert lines[0] == "a,pdf,tail"
    assert len(lines) == 3
    a, pdf, tail = lines[2].split(",")
    assert float(a) == 135.0
    assert float(pdf) == pytest.approx(dist.pdf(135.0), rel=1e-15)
    assert float(tail) == pytest.approx(math.exp(-1.0), rel=1e-15)


# cuts in mean gaps from a0: below the support, a0 itself, and past 709 and 745
# gaps, where exp(-t) is subnormal and then underflows to zero
GAPS = st.lists(st.one_of(st.floats(-5.0, 800.0), st.sampled_from([-1.0, 0.0, 720.0, 760.0])),
                max_size=40)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(gap=st.floats(1e-3, 1e6), a0=st.sampled_from([0.0, 1.0, 37.5]), gaps=GAPS)
def test_curve_csv_rows_equal_scalar_evaluation(gap, a0, gaps):
    dist = make(a0 + gap, a0)
    grid = [a0 + t * dist.scale for t in gaps] + [a0]
    lines = curve_csv(dist, grid).split("\n")
    assert lines[0] == "a,pdf,tail" and lines[-1] == ""
    assert lines[1:-1] == [f"{a:.17g},{dist.pdf(a):.17g},{dist.tail(a):.17g}" for a in grid]
