import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.laguerre import laggauss

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
from aym.principle_verifier import DEFAULT_NUMERICS, _gate, _grid, _rule_sums

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


def _numerics(dist):
    """The default numerics, and a coarser grid with explicit steps near the default ones."""
    return DEFAULT_NUMERICS, NumericsConfig(fd_step_theta=2e-4 * dist.scale,
                                            fd_step_x=5e-4 * dist.scale, grid_points=1001)


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_report_assembles_all_fields(dist):
    for cfg in _numerics(dist):
        report = verify_all(dist, cfg)
        assert report.kappa == 1.0
        assert report.fisher_metric == pytest.approx(_expected_capacity(dist), rel=1e-4)
        assert report.structural_Q == pytest.approx(-_expected_capacity(dist), rel=1e-3)
        assert report.epi_residual_pointwise < 1e-12
        assert report.qtilde_value == pytest.approx(2.0 * dist.alpha ** 2, rel=1e-10)
        assert report.boundary_constant == pytest.approx(8.0 * dist.alpha ** 2, rel=1e-10)
        assert report.structural_residual == abs(report.fisher_metric + report.structural_Q)
        assert report.euler_lagrange_residual == \
            generating_equation_residual(dist, cfg, derivative="fd")
        # the shared evaluation computes what each identity computes alone, bit for bit
        assert report.fisher_metric == fisher_metric_form(dist, cfg)
        assert report.fisher_statistical == fisher_statistical(dist, cfg)
        assert report.fisher_kinematical == fisher_kinematical(dist, cfg)
        assert report.structural_Q == structural_principle(dist, cfg)[0]
        assert report.epi_residual_pointwise == pointwise_information_density(dist, cfg)
        assert report.generating_residual == \
            generating_equation_residual(dist, cfg, derivative="fd")
        assert report.qtilde_value == qtilde_recovered(dist, cfg)[0]
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


def _bits(values):
    """Each float's IEEE bytes, so that NaN and signed zeros compare bit for bit."""
    return [np.float64(v).tobytes() for v in values]


def _per_rule_sums(integrands, lo, scale):
    """The reference arithmetic: each Gauss-Laguerre rule, of order 48 and of order 96,
    evaluates the integrands on its own nodes up to 60 mean gaps."""
    sums = {}
    for order in (48, 96):
        t, w = laggauss(order)
        kept = t <= 60.0
        with np.errstate(all="ignore"):
            for name, f in integrands(lo + scale * t[kept]).items():
                sums.setdefault(name, []).append(scale * float(np.dot((w * np.exp(t))[kept], f)))
    return sums


# integrand families of the verifier's shapes: exp(-t) times a smooth factor, several
# names from one evaluation, difference quotients, square roots, and a kink
INTEGRAND_FAMILIES = {
    "exp-poly": lambda t, d: {"f": np.exp(-t) * (1.0 + d * t * t)},
    "theta-like": lambda t, d: {
        "p": np.exp(-t), "dp": (np.exp(-t * (1.0 + d)) - np.exp(-t * (1.0 - d))) / (2.0 * d),
        "q": 2.0 * np.sqrt(np.exp(-t) / (1.0 + d))},
    "amplitude-diff": lambda t, d: {
        "dq_sq": ((np.exp(-(t + d) / 2.0) - np.exp(-(t - d) / 2.0)) / (2.0 * d)) ** 2},
    "kink": lambda t, d: {"f": np.exp(-t) * np.abs(t - 1.0 - d)},
}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(lo=st.floats(-1e6, 1e6), scale=st.floats(1e-6, 1e6),
       family=st.sampled_from(sorted(INTEGRAND_FAMILIES)), delta=st.floats(1e-6, 0.5))
def test_rule_sums_equal_each_rule_on_its_own_nodes(lo, scale, family, delta):
    def integrands(a):
        return INTEGRAND_FAMILIES[family]((a - lo) / scale, delta)

    sums = _rule_sums(integrands, lo, scale)
    expected = _per_rule_sums(integrands, lo, scale)
    assert list(sums) == list(expected)
    for name, pair in sums.items():
        assert _bits(pair) == _bits(expected[name]), name


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_fd_grid_at_zero_perturbation_is_the_amplitude(dist):
    for cfg in _numerics(dist):
        x, h = cfg.x_grid(dist), cfg.step_x(dist)
        q0 = dist.amplitude(x, clipped=False)
        up, down = dist.amplitude(x + h, clipped=False), dist.amplitude(x - h, clipped=False)
        q, d2q = _grid(dist, cfg, "fd")
        assert q.tobytes() == q0.tobytes()
        assert d2q.tobytes() == ((up - 2.0 * q0 + down) / (h * h)).tobytes()


@pytest.mark.parametrize("dist", FAMILY, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_analytic_grid_at_zero_perturbation_keeps_its_values(dist):
    # the reference applies q'' = alpha^2 q - 2 eps alpha q0 at eps = 0 too; the analytic
    # grid skips the eps term there and must give the same values
    alpha_sq = dist.alpha ** 2
    for cfg in _numerics(dist):
        q = dist.amplitude(cfg.x_grid(dist), clipped=False)
        d2q = alpha_sq * q - 2.0 * 0.0 * dist.alpha * q
        density = float(np.abs(-0.5 * q * d2q + 0.25 * q * q * (2.0 * alpha_sq)).max())
        profile = 2.0 * d2q / q
        assert pointwise_information_density(dist, cfg) == density
        assert qtilde_recovered(dist, cfg) == (float(profile.mean()), float(profile.std()))


def _euler_lagrange_reference(dist, cfg, derivative, eps):
    """max |q'' - alpha^2 q| for q = q0 (1 + eps x), the factor applied at every eps."""
    x = cfg.x_grid(dist)
    q0 = dist.amplitude(x, clipped=False)
    q = q0 * (1.0 + eps * x)
    if derivative == "analytic":
        d2q = dist.alpha ** 2 * q - 2.0 * eps * dist.alpha * q0
    else:
        h = cfg.step_x(dist)
        up, down = (dist.amplitude(y, clipped=False) * (1.0 + eps * y) for y in (x + h, x - h))
        d2q = (up - 2.0 * q + down) / (h * h)
    return float(np.abs(d2q - dist.alpha ** 2 * q).max())


@pytest.mark.parametrize("eps", [1e-3, 0.0, -2e-2])
@pytest.mark.parametrize("derivative", ["analytic", "fd"])
@pytest.mark.parametrize("dist", [make(135.0, 0.0), make(2.0, 1.0), make(1000.0, 1.0)],
                         ids=("mean135", "mean2", "mean1000"))
def test_euler_lagrange_residual_keeps_the_perturbation_arithmetic(dist, derivative, eps):
    for cfg in _numerics(dist):
        assert euler_lagrange_residual(dist, cfg, derivative, perturbation=eps) == \
            _euler_lagrange_reference(dist, cfg, derivative, eps)


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
