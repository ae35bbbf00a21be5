import math

import numpy as np
import pytest

from aym import (
    DomainError,
    NumericsConfig,
    QuadratureFailure,
    boundary_constant,
    boundary_identity_residual,
    euler_lagrange_residual,
    fisher_kinematical,
    fisher_metric_form,
    fisher_statistical,
    generating_equation_residual,
    make,
    pointwise_information_density,
    qtilde_recovered,
    regularity_residual,
    structural_principle,
    verify_all,
)
from aym.principle_verifier import _gate, _rule_sums

FAMILY = [make(2.0, 0.0), make(2.0, 1.0), make(135.0, 0.0), make(135.0, 1.0),
          make(1000.0, 0.0), make(1000.0, 1.0)]


def _expected_capacity(dist):
    return 1.0 / (dist.mean_demand - dist.a0) ** 2


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_metric_form_matches_closed_capacity(dist):
    assert fisher_metric_form(dist) == pytest.approx(_expected_capacity(dist), rel=1e-4)


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_kinematical_form_matches_closed_capacity(dist):
    assert fisher_kinematical(dist) == pytest.approx(_expected_capacity(dist), rel=1e-6)


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_statistical_form_matches_closed_capacity(dist):
    # the second theta-difference is the noisiest of the three estimators
    assert fisher_statistical(dist) == pytest.approx(_expected_capacity(dist), rel=1e-3)


def test_three_forms_agree_pairwise():
    for dist in FAMILY:
        metric = fisher_metric_form(dist)
        kinematical = fisher_kinematical(dist)
        statistical = fisher_statistical(dist)
        assert kinematical == pytest.approx(metric, rel=1e-3)
        assert statistical == pytest.approx(metric, rel=1e-3)
        assert statistical == pytest.approx(kinematical, rel=1e-3)


def test_capacity_scale_covariance():
    # doubling the mean gap divides the information by four, etc.
    base = fisher_metric_form(make(2.0, 0.0))
    scaled = fisher_metric_form(make(20.0, 0.0))
    assert scaled == pytest.approx(base / 100.0, rel=1e-6)


def test_regularity_condition_holds():
    for dist in (make(135.0, 0.0), make(2.0, 1.0)):
        assert regularity_residual(dist) < 1e-6


@pytest.mark.parametrize("dist", [make(135.0, 0.0), make(2.0, 1.0)],
                         ids=("mean135", "mean2"))
def test_structural_principle_balances_capacity(dist):
    q_value, residual = structural_principle(dist)
    capacity = fisher_metric_form(dist)
    assert q_value == pytest.approx(-_expected_capacity(dist), rel=1e-3)
    assert residual < 1e-3 * capacity


def test_pointwise_density_vanishes_analytically():
    for dist in (make(135.0, 0.0), make(2.0, 1.0)):
        assert pointwise_information_density(dist, derivative="analytic") < 1e-12


def test_pointwise_density_second_order_in_step():
    dist = make(135.0, 0.0)
    coarse = pointwise_information_density(dist, derivative="fd", step=0.05 * dist.scale)
    fine = pointwise_information_density(dist, derivative="fd", step=0.025 * dist.scale)
    assert 3.5 <= coarse / fine <= 4.5


def test_generating_residual_zero_with_analytic_derivatives():
    assert generating_equation_residual(make(135.0, 0.0), derivative="analytic") == 0.0
    assert generating_equation_residual(make(2.0, 1.0), derivative="analytic") == 0.0


def test_generating_residual_small_at_default_step():
    dist = make(135.0, 0.0)
    q_max = dist.amplitude(dist.x_min)
    assert generating_equation_residual(dist, derivative="fd") < 1e-6 * q_max


def test_generating_residual_second_order_convergence():
    for dist in (make(135.0, 0.0), make(2.0, 1.0)):
        coarse = generating_equation_residual(dist, derivative="fd", step=0.05 * dist.scale)
        fine = generating_equation_residual(dist, derivative="fd", step=0.025 * dist.scale)
        assert 3.5 <= coarse / fine <= 4.5


def test_euler_lagrange_residual_equals_generating_residual():
    for dist in (make(135.0, 0.0), make(2.0, 1.0)):
        assert euler_lagrange_residual(dist, derivative="fd") == \
            generating_equation_residual(dist, derivative="fd")


def test_euler_lagrange_residual_linear_in_perturbation():
    dist = make(135.0, 0.0)
    r1 = euler_lagrange_residual(dist, derivative="analytic", perturbation=1e-3)
    r2 = euler_lagrange_residual(dist, derivative="analytic", perturbation=2e-3)
    assert r2 / r1 == pytest.approx(2.0, rel=1e-6)
    fd1 = euler_lagrange_residual(dist, derivative="fd", perturbation=1e-3)
    fd2 = euler_lagrange_residual(dist, derivative="fd", perturbation=2e-3)
    assert 1.9 <= fd2 / fd1 <= 2.1


def test_qtilde_constant_and_equal_to_twice_alpha_squared():
    for dist in (make(135.0, 0.0), make(2.0, 1.0)):
        mean, spread = qtilde_recovered(dist, derivative="analytic")
        expected = 2.0 * dist.alpha ** 2
        assert mean == pytest.approx(expected, rel=1e-10)
        assert spread / abs(mean) < 1e-8


@pytest.mark.parametrize("dist,expected", [
    (make(135.0, 0.0), 8.0 / 270.0 ** 2),
    (make(2.0, 1.0), 2.0),
])
def test_boundary_constant_value(dist, expected):
    assert boundary_constant(dist) == pytest.approx(expected, rel=1e-10)


def test_boundary_integration_by_parts_identity():
    for dist in (make(135.0, 0.0), make(2.0, 1.0)):
        assert boundary_identity_residual(dist) < 1e-8


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_report_assembles_all_fields(dist):
    report = verify_all(dist)
    assert report.kappa == 1.0
    assert report.fisher_metric == pytest.approx(_expected_capacity(dist), rel=1e-4)
    assert report.structural_Q == pytest.approx(-_expected_capacity(dist), rel=1e-3)
    assert report.epi_residual_pointwise < 1e-12
    assert report.qtilde_value == pytest.approx(2.0 * dist.alpha ** 2, rel=1e-10)
    assert report.boundary_constant == pytest.approx(8.0 * dist.alpha ** 2, rel=1e-10)
    assert report.structural_residual == abs(report.fisher_metric + report.structural_Q)
    assert report.euler_lagrange_residual == generating_equation_residual(dist, derivative="fd")
    # the shared evaluation computes what each identity computes alone, bit for bit
    assert report.fisher_metric == fisher_metric_form(dist)
    assert report.fisher_statistical == fisher_statistical(dist)
    assert report.fisher_kinematical == fisher_kinematical(dist)
    assert report.structural_Q == structural_principle(dist)[0]
    assert report.epi_residual_pointwise == pointwise_information_density(dist)
    assert report.generating_residual == generating_equation_residual(dist, derivative="fd")
    assert report.qtilde_value == qtilde_recovered(dist)[0]
    assert report.boundary_constant == boundary_constant(dist)
    payload = report.to_json_dict()
    assert list(payload) == [
        "fisher_metric", "fisher_statistical", "fisher_kinematical",
        "structural_Q", "structural_residual", "epi_residual_pointwise",
        "generating_residual", "euler_lagrange_residual", "qtilde_value",
        "boundary_constant", "kappa",
    ]


def test_numerics_config_validation():
    with pytest.raises(DomainError):
        NumericsConfig(fd_step_theta=0.0)
    with pytest.raises(DomainError):
        NumericsConfig(fd_step_x=-1.0)
    with pytest.raises(DomainError):
        NumericsConfig(quadrature_tol=0.0)
    with pytest.raises(DomainError):
        NumericsConfig(grid_points=2)
    with pytest.raises(DomainError):
        NumericsConfig(grid_span_gaps=30.0)
    # non-finite values, each rejected with the field's name
    for field in ("fd_step_theta", "fd_step_x", "quadrature_tol", "grid_span_gaps"):
        for value in (math.nan, math.inf):
            with pytest.raises(DomainError, match=field):
                NumericsConfig(**{field: value})


def test_grid_points_bounded_before_allocation():
    # 1e11 points would ask numpy for 800 GB; the 1e6 bound rejects it up front
    assert NumericsConfig(grid_points=10 ** 6).grid_points == 10 ** 6
    for points in (10 ** 6 + 1, 10 ** 11):
        with pytest.raises(DomainError, match="points"):
            NumericsConfig(grid_points=points)


def test_explicit_steps_are_honored():
    dist = make(135.0, 0.0)
    cfg = NumericsConfig(fd_step_theta=1e-4 * dist.scale, fd_step_x=1e-3 * dist.scale)
    assert fisher_metric_form(dist, cfg) == pytest.approx(fisher_metric_form(dist), rel=1e-9)
    assert cfg.step_theta(dist) == 1e-4 * dist.scale
    assert cfg.step_x(dist) == 1e-3 * dist.scale


def test_derivative_mode_validation():
    with pytest.raises(DomainError):
        generating_equation_residual(make(2.0, 0.0), derivative="bogus")


def _quad(f, lo, scale, tol):
    """integral_lo^inf f(a) da through the verifier's two rules and its gate."""
    return _gate(*_rule_sums(lambda a: {"f": f(a)}, lo, scale)["f"], tol)


# integral_0^inf e^{-t} (1 + e^{-delta t}) dt = 1 + 1/(1 + delta): the verifier's
# integrands are such sums, with |delta| of the order of the relative FD step
@pytest.mark.parametrize("delta", [0.0, 1e-4, -1e-4, 1e-3, 0.25, -0.25])
@pytest.mark.parametrize("lo,scale", [(0.0, 1.0), (1.0, 0.5), (-134.0, 135.0), (2.5, 997.5)])
def test_quad_matches_exponential_sums(lo, scale, delta):
    def f(a):
        t = (a - lo) / scale
        return np.exp(-t) * (1.0 + np.exp(-delta * t))

    exact = scale * (1.0 + 1.0 / (1.0 + delta))
    assert _quad(f, lo, scale, 1e-12) == pytest.approx(exact, rel=1e-13)


def test_quad_gate_rejects_kinked_integrand():
    # |t - 1| has a kink inside the span: the 48- and 96-point values differ
    # by about 1e-3 relative, far above the 1e-6 gate
    with pytest.raises(QuadratureFailure):
        _quad(lambda a: np.exp(-a) * np.abs(a - 1.0), 0.0, 1.0, 1e-12)


def test_quad_rejects_non_finite_values():
    with pytest.raises(QuadratureFailure):
        _quad(lambda a: np.exp(-a) / (a - a), 0.0, 1.0, 1e-12)


# at D/n = 1e200 the mean gap squared overflows; at D/n = 1e-300 alpha squared
# overflows (and the gap squared underflows to 0): both are DomainError, while
# the grid residuals at 1e200 underflow harmlessly to finite values
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("mean_demand", [1e200, 1e-300], ids=["huge", "tiny"])
@pytest.mark.parametrize("function", [
    regularity_residual, generating_equation_residual, pointwise_information_density,
    euler_lagrange_residual, qtilde_recovered,
], ids=lambda f: f.__name__)
def test_extreme_mean_gap_is_a_domain_error(function, mean_demand):
    dist = make(mean_demand, 0.0)
    if mean_demand < 1.0 or function is regularity_residual:
        with pytest.raises(DomainError, match="mean gap"):
            function(dist)
    else:
        assert all(map(math.isfinite, np.atleast_1d(function(dist))))
