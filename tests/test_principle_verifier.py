import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.laguerre import laggauss

from aym import (
    AymError,
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
from aym.principle_verifier import DEFAULT_NUMERICS, _gated, _grid, _rule_sums, _standard_law

FAMILY = [make(2.0, 0.0), make(2.0, 1.0), make(135.0, 0.0), make(135.0, 1.0),
          make(1000.0, 0.0), make(1000.0, 1.0)]
# laws far from s = 1: in productivity units the integrand (dp/dtheta)^2/p ~ s^-4
# underflows at D/n = 1e90, and the grid residuals ~ s^-5/2 reach 1e142 at 1e-60
WIDE = FAMILY + [make(1e90, 0.0), make(1e-60, 0.0)]


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
    coarse = pointwise_information_density(dist, NumericsConfig(fd_step_x=0.05 * dist.scale),
                                           derivative="fd")
    fine = pointwise_information_density(dist, NumericsConfig(fd_step_x=0.025 * dist.scale),
                                         derivative="fd")
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
        coarse = generating_equation_residual(dist, NumericsConfig(fd_step_x=0.05 * dist.scale),
                                              derivative="fd")
        fine = generating_equation_residual(dist, NumericsConfig(fd_step_x=0.025 * dist.scale),
                                            derivative="fd")
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


@pytest.mark.parametrize("dist", WIDE, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
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
        assert report.euler_lagrange_residual == euler_lagrange_residual(dist, cfg)
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


def test_numerics_config_stores_floats_and_names_an_int_past_the_float_range():
    # an int step, tolerance or span is stored as its float, and reads the same law
    ints = NumericsConfig(fd_step_theta=1, fd_step_x=2, quadrature_tol=1, grid_span_gaps=50)
    floats = NumericsConfig(fd_step_theta=1.0, fd_step_x=2.0, quadrature_tol=1.0,
                            grid_span_gaps=50.0)
    assert ints == floats and repr(ints) == repr(floats)
    assert verify_all(make(135.0), ints) == verify_all(make(135.0), floats)
    # 10**400 passes 0 < value < inf as an int; it once raised OverflowError at every call
    for field in ("fd_step_theta", "fd_step_x", "quadrature_tol", "grid_span_gaps"):
        with pytest.raises(DomainError, match=rf"^{field} is too large for a float$"):
            NumericsConfig(**{field: 10 ** 400})
    # a range error shows the value as given
    with pytest.raises(DomainError, match=r"^fd_step_x must be positive and finite, got -1$"):
        NumericsConfig(fd_step_x=-1)


@pytest.mark.parametrize("cache", ["cold", "warm"])
def test_grid_points_must_be_an_int_in_either_cache_state(cache):
    # lru_cache keys 4001.0 like 4001: on a warm cache a float count once gave a report,
    # on a cold one np.linspace raised TypeError
    _standard_law.cache_clear()
    if cache == "warm":
        verify_all(make(135.0))
    for points in (4001.0, 4001.5, True, "4001", None):
        with pytest.raises(DomainError, match=r"^grid_points must be an int, got "):
            verify_all(make(135.0), NumericsConfig(grid_points=points))
    assert (verify_all(make(135.0), NumericsConfig(grid_points=np.int64(4001)))
            == verify_all(make(135.0), NumericsConfig(grid_points=4001)))


def test_step_faults_are_worked_out_only_on_the_error_path():
    # a step that leaves no standard law raises DomainError naming the step in the
    # caller's units
    dist = make(135.0, 0.0)
    with pytest.raises(DomainError, match=r"^fd_step_theta = 200.0 must be below the mean gap"):
        verify_all(dist, NumericsConfig(fd_step_theta=200.0))
    with pytest.raises(DomainError, match=r"^fd_step_x = 1e-170 is too small"):
        generating_equation_residual(dist, NumericsConfig(fd_step_x=1e-170))
    # at t = 2^-54, 1 - t rounds to 1, so the family members coincide and every theta
    # difference would be an exact 0; one ulp above, 1 - t is a distinct float
    with pytest.raises(DomainError, match=r"^fd_step_theta = 5.55\d*e-17 is too small for the "
                                          r"mean gap D/n - a0 = 1.0: 1 - step / gap rounds to 1"):
        verify_all(make(1.0), NumericsConfig(fd_step_theta=2.0 ** -54))
    with pytest.raises(QuadratureFailure):
        verify_all(make(1.0), NumericsConfig(fd_step_theta=math.nextafter(2.0 ** -54, 1.0)))


def test_the_law_is_cached_under_what_it_depends_on():
    # the quadrature tolerance only gates the law's integrals, so it reads the same law;
    # a step that leaves no law raises before any law is computed
    dist = make(135.0, 0.0)
    _standard_law.cache_clear()
    verify_all(dist)
    verify_all(dist, NumericsConfig(quadrature_tol=1e-10))
    assert _standard_law.cache_info().misses == 1
    _standard_law.cache_clear()
    with pytest.raises(DomainError, match=r"^fd_step_theta = 200.0 must be below"):
        verify_all(dist, NumericsConfig(fd_step_theta=200.0))
    assert _standard_law.cache_info().misses == 0


def test_non_finite_differences_blame_the_explicit_step():
    # 1e9 is 7.4e6 gaps of 135 in t: the amplitude across the step overflows, so the
    # standard law's finite-difference values are inf; the analytic ones stay finite
    dist, cfg = make(135.0, 0.0), NumericsConfig(fd_step_x=1e9)
    message = r"^fd_step_x = 1000000000.0 gives a non-finite finite difference"
    with pytest.raises(DomainError, match=message):
        verify_all(dist, cfg)
    with pytest.raises(DomainError, match=message):
        pointwise_information_density(dist, cfg, derivative="fd")
    with pytest.raises(DomainError, match=message):
        generating_equation_residual(dist, cfg)
    with pytest.raises(DomainError, match=message):
        qtilde_recovered(dist, cfg, derivative="fd")
    with pytest.raises(DomainError, match=message):
        euler_lagrange_residual(dist, cfg, perturbation=1e-3)
    assert pointwise_information_density(dist, cfg) == 0.0
    # 1e5 is 740 gaps in t: only the kinematical integrand's finite difference is inf
    cfg = NumericsConfig(fd_step_x=1e5)
    assert math.isfinite(generating_equation_residual(dist, cfg))
    for function in (fisher_kinematical, verify_all):
        with pytest.raises(DomainError, match=r"^fd_step_x = 100000.0 gives a non-finite"):
            function(dist, cfg)


def test_non_finite_trial_amplitude_blames_the_perturbation():
    # 1 + 1e307 x overflows on the grid: the perturbation is at fault, not the step or gap
    dist = make(1.0)
    for cfg in (DEFAULT_NUMERICS, NumericsConfig(fd_step_x=1e-3)):
        for derivative in ("analytic", "fd"):
            with pytest.raises(DomainError, match=r"^perturbation = 1e\+307 makes the trial "
                                                  r"amplitude q \(1 \+ eps x\) non-finite"):
                euler_lagrange_residual(dist, cfg, derivative, perturbation=1e307)
            assert math.isfinite(euler_lagrange_residual(dist, cfg, derivative,
                                                         perturbation=1e-3))


def test_perturbation_is_keyword_only():
    # keyword-only, so that no positional argument can silently become a perturbation
    with pytest.raises(TypeError):
        euler_lagrange_residual(make(135.0, 0.0), DEFAULT_NUMERICS, "fd", 0.05)


def test_grid_points_bounded_before_allocation():
    # 1e11 points would ask numpy for 800 GB; the 1e6 bound rejects it up front
    assert NumericsConfig(grid_points=10 ** 6).grid_points == 10 ** 6
    for points in (10 ** 6 + 1, 10 ** 11):
        with pytest.raises(DomainError, match="points"):
            NumericsConfig(grid_points=points)


def _t_step_x(dist, cfg):
    """cfg's x step in t = (a - a0)/s: 1e-3, or an explicit one over the mean gap."""
    return cfg.fd_step_x / dist.scale if cfg.fd_step_x else 1e-3


def _in_units(dist, value, power=2.0):
    """The reference scaling: value * s^-2, times s^-1/2 or s^-1 more, left to right."""
    inverse = 1.0 / dist.scale
    capacity = inverse * inverse
    return value * capacity * {2.0: 1.0, 2.5: math.sqrt(inverse), 3.0: inverse}[power]


def _t_reference(dist, cfg, derivative, eps):
    """(q, q'') in t for q = q0 (1 + eps s x) on the standard law's grid x = t - 1, the
    factor and the eps term applied at every eps; steps 1e-3 in t or fd_step_x / s."""
    x = np.linspace(-1.0, -1.0 + cfg.grid_span_gaps, cfg.grid_points)
    eps_t = eps * dist.scale

    def trial(y):
        return 2.0 * np.exp(-(y + 1.0) / 2.0) * (1.0 + eps_t * y)

    q0, q = 2.0 * np.exp(-(x + 1.0) / 2.0), trial(x)
    if derivative == "analytic":
        return q, 0.25 * q - 2.0 * eps_t * 0.5 * q0
    h = _t_step_x(dist, cfg)
    return q, (trial(x + h) - 2.0 * q + trial(x - h)) / (h * h)


def _profile(q, d2q):
    """2 q''/q over the nodes where q and q'' are normal floats."""
    normal = (np.abs(q) >= 2.0 ** -1022) & (np.abs(d2q) >= 2.0 ** -1022)
    return 2.0 * d2q[normal] / q[normal]


@pytest.mark.parametrize("span", [1450.0, 1480.0, 1500.0, 1e300])
def test_qtilde_skips_the_nodes_past_the_amplitude_underflow(span):
    # past about 708 mean gaps q/4 is subnormal and past about 1,490 q is 0.0, where
    # 2 q''/q would lose digits or be 0/0 = nan: at every span the mean is exactly 0.5
    dist, cfg = make(1.0, 0.0), NumericsConfig(grid_span_gaps=span)
    q, d2q = _grid(1e-3, cfg.grid_points, cfg.grid_span_gaps)["analytic"]
    assert q[0] > 0.0 and q[-1] < 2.0 ** -1022
    ref_q, ref_d2q = _t_reference(dist, cfg, "analytic", 0.0)
    assert (q.tobytes(), d2q.tobytes()) == (ref_q.tobytes(), ref_d2q.tobytes())
    assert set(_profile(q, d2q).tolist()) == {0.5}
    with np.errstate(divide="raise", invalid="raise"):
        assert qtilde_recovered(dist, cfg) == (0.5, 0.0)
        assert verify_all(dist, cfg).qtilde_value == 0.5


@pytest.mark.filterwarnings("error")
def test_grid_of_any_span_stays_inside_the_float_range():
    # 1e300 gaps of 1e10 end past the float range in productivity units; in t the grid
    # ends at 1e300 - 1, and every grid value is the standard law's, scaled
    dist, cfg = make(1e10, 0.0), NumericsConfig(grid_span_gaps=1e300)
    report = verify_all(dist, cfg)
    assert all(map(math.isfinite, report.to_json_dict().values()))
    assert report.qtilde_value == _in_units(dist, 0.5)
    assert qtilde_recovered(dist, cfg) == (_in_units(dist, 0.5), 0.0)
    assert pointwise_information_density(dist, cfg) == report.epi_residual_pointwise == 0.0
    q, d2q = _t_reference(dist, cfg, "fd", 0.0)
    assert generating_equation_residual(dist, cfg) == report.generating_residual == \
        _in_units(dist, float(np.abs(d2q - 0.25 * q).max()), 2.5)


def test_explicit_steps_are_honored():
    dist = make(135.0, 0.0)
    cfg = NumericsConfig(fd_step_theta=1e-4 * dist.scale, fd_step_x=1e-3 * dist.scale)
    assert fisher_metric_form(dist, cfg) == pytest.approx(fisher_metric_form(dist), rel=1e-9)


def test_derivative_mode_validation():
    with pytest.raises(DomainError):
        generating_equation_residual(make(2.0, 0.0), derivative="bogus")


def _quad(f, lo, scale, tol):
    """integral_lo^inf f(a) da through the verifier's two rules in t = (a - lo)/scale and
    its gate, scale standing for the capacity."""
    return _gated(make(1.0), _rule_sums(lambda t: {"f": f(lo + scale * t)})["f"], tol, scale)


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

    sums = _rule_sums(lambda t: integrands(lo + scale * t))
    expected = _per_rule_sums(integrands, lo, scale)
    assert list(sums) == list(expected)
    for name, pair in sums.items():
        assert _bits(scale * value for value in pair) == _bits(expected[name]), name


@pytest.mark.parametrize("dist", WIDE, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_fd_grid_at_zero_perturbation_is_the_amplitude(dist):
    for cfg in _numerics(dist):
        x = np.linspace(-1.0, -1.0 + cfg.grid_span_gaps, cfg.grid_points)
        q, d2q = _grid(_t_step_x(dist, cfg), cfg.grid_points, cfg.grid_span_gaps)["fd"]
        ref_q, ref_d2q = _t_reference(dist, cfg, "fd", 0.0)
        assert q.tobytes() == (2.0 * np.exp(-(x + 1.0) / 2.0)).tobytes() == ref_q.tobytes()
        assert d2q.tobytes() == ref_d2q.tobytes()
        assert generating_equation_residual(dist, cfg) == \
            _in_units(dist, float(np.abs(ref_d2q - 0.25 * ref_q).max()), 2.5)


@pytest.mark.parametrize("dist", WIDE, ids=lambda d: f"mean{d.mean_demand:g}-a0{d.a0:g}")
def test_analytic_grid_at_zero_perturbation_keeps_its_values(dist):
    # the reference applies q'' = q/4 - 2 eps (1/2) q0 at eps = 0 too; the analytic grid
    # skips the eps term there and must give the same values
    for cfg in _numerics(dist):
        q, d2q = _t_reference(dist, cfg, "analytic", 0.0)
        density = float(np.abs(-0.5 * q * d2q + 0.25 * q * q * (2.0 * 0.25)).max())
        profile = _profile(q, d2q)
        assert pointwise_information_density(dist, cfg) == _in_units(dist, density, 3.0)
        assert qtilde_recovered(dist, cfg) == (_in_units(dist, float(profile.mean())),
                                               _in_units(dist, float(profile.std())))


@pytest.mark.parametrize("eps", [1e-3, 0.0, -2e-2])
@pytest.mark.parametrize("derivative", ["analytic", "fd"])
@pytest.mark.parametrize("dist", [make(135.0, 0.0), make(2.0, 1.0), make(1000.0, 1.0)],
                         ids=("mean135", "mean2", "mean1000"))
def test_euler_lagrange_residual_keeps_the_perturbation_arithmetic(dist, derivative, eps):
    for cfg in _numerics(dist):
        q, d2q = _t_reference(dist, cfg, derivative, eps)
        assert euler_lagrange_residual(dist, cfg, derivative, perturbation=eps) == \
            _in_units(dist, float(np.abs(d2q - 0.25 * q).max()), 2.5)


# at D/n = 1e200 the capacity 1/s^2 underflows, at 1e-300 it overflows: every identity
# raises DomainError, before any partial product can under- or overflow
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mean_demand", [1e200, 1e-300], ids=["huge", "tiny"])
@pytest.mark.parametrize("function", [
    verify_all, fisher_metric_form, fisher_statistical, fisher_kinematical,
    structural_principle, regularity_residual, generating_equation_residual,
    pointwise_information_density, euler_lagrange_residual, qtilde_recovered,
    boundary_constant, boundary_identity_residual,
], ids=lambda f: f.__name__)
def test_extreme_mean_gap_is_a_domain_error(function, mean_demand):
    with pytest.raises(DomainError, match="mean gap"):
        function(make(mean_demand, 0.0))


# log10(D/n) over the whole float range, a0 at 0, 1 and half the mean: a report has
# finite fields and the closed forms, anything else is a DomainError, and no partial
# product warns.  Every mean gap s inside (1e-126, 6.7e153) reports: there 1/s^2 is
# a normal float and the generating residual, about 1e-8 s^-5/2, is finite
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(exponent=st.floats(-300.0, 300.0), a0=st.sampled_from(["0", "1", "half"]))
def test_verify_all_reports_or_raises_domain_error_at_every_scale(exponent, a0):
    mean = 10.0 ** exponent
    a0 = {"0": 0.0, "1": 1.0, "half": mean / 2.0}[a0]
    try:
        dist = make(mean, a0)
        report = verify_all(dist)
    except DomainError:
        assert not 1e-126 < mean - a0 < 6.7e153
        return
    assert all(map(math.isfinite, report.to_json_dict().values()))
    capacity = (1.0 / dist.scale) ** 2
    for value in (report.fisher_metric, report.fisher_statistical, report.fisher_kinematical,
                  -report.structural_Q):
        assert value == pytest.approx(capacity, rel=1e-6)
    # within 1e-15, or two ulps where 2 alpha^2 or 8 alpha^2 is subnormal
    alpha_sq = dist.alpha ** 2
    assert math.isclose(report.qtilde_value, 2.0 * alpha_sq, rel_tol=1e-15, abs_tol=1e-323)
    assert math.isclose(report.boundary_constant, 8.0 * alpha_sq, rel_tol=1e-15, abs_tol=1e-323)


def _first_step_outcome(dist, cfg):
    """The report's fields from the step functions, called in verify_all's order (the
    range check and metric gate, the structural gate, the generating residual, the
    statistical and kinematical gates, then pointwise, qtilde and boundary), or the
    first error among them as (type, message)."""
    steps = [
        ("fisher_metric", lambda: fisher_metric_form(dist, cfg)),
        ("structural_Q", lambda: structural_principle(dist, cfg)[0]),
        ("generating_residual", lambda: generating_equation_residual(dist, cfg, "fd")),
        ("fisher_statistical", lambda: fisher_statistical(dist, cfg)),
        ("fisher_kinematical", lambda: fisher_kinematical(dist, cfg)),
        ("epi_residual_pointwise", lambda: pointwise_information_density(dist, cfg)),
        ("qtilde_value", lambda: qtilde_recovered(dist, cfg)[0]),
        ("boundary_constant", lambda: boundary_constant(dist)),
        ("structural_residual", lambda: structural_principle(dist, cfg)[1]),
        ("euler_lagrange_residual", lambda: euler_lagrange_residual(dist, cfg)),
    ]
    fields = {}
    for name, step in steps:
        try:
            fields[name] = step()
        except AymError as error:
            return type(error), str(error)
    return fields


# log10(D/n) over the whole float range, a0 at 0, 1 and half the mean, and the default
# numerics or explicit steps in mean gaps, up to x steps whose differences overflow
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(exponent=st.floats(-300.0, 300.0), a0=st.sampled_from(["0", "1", "half"]),
       theta_gaps=st.sampled_from([None, 1e-4, 2e-4, 0.01, 0.5]),
       x_gaps=st.sampled_from([None, 5e-4, 1e-3, 0.1, 1e3, 1e5, 1e9]))
def test_verify_all_is_its_step_functions_or_their_first_error(exponent, a0, theta_gaps,
                                                                x_gaps):
    mean = 10.0 ** exponent
    a0 = {"0": 0.0, "1": 1.0, "half": mean / 2.0}[a0]
    try:
        dist = make(mean, a0)
        cfg = NumericsConfig(fd_step_theta=None if theta_gaps is None else theta_gaps * dist.scale,
                             fd_step_x=None if x_gaps is None else x_gaps * dist.scale)
    except DomainError:  # D/n at a0, or a step past the float range
        return
    expected = _first_step_outcome(dist, cfg)
    try:
        report = verify_all(dist, cfg)
    except AymError as error:
        assert (type(error), str(error)) == expected
        return
    assert isinstance(expected, dict), expected
    fields = report.to_json_dict()
    assert _bits(fields[name] for name in expected) == _bits(expected.values())
    assert fields["generating_residual"] == fields["euler_lagrange_residual"]


def test_cold_and_warm_cache_give_the_same_bits():
    laws = [make(135.0, 0.0), make(2.0, 1.0), make(1e90, 0.0), make(1e-60, 0.0)]

    def values(dist, cfg):
        return _bits([*verify_all(dist, cfg).to_json_dict().values(),
                      regularity_residual(dist, cfg), boundary_identity_residual(dist, cfg),
                      *qtilde_recovered(dist, cfg, "fd"),
                      pointwise_information_density(dist, cfg, "fd")])

    cases = [(dist, cfg) for dist in laws for cfg in _numerics(dist)]
    cold = []
    for dist, cfg in cases:
        _standard_law.cache_clear()
        cold.append(values(dist, cfg))
        assert values(dist, cfg) == cold[-1]
    assert [values(dist, cfg) for dist, cfg in cases] == cold
