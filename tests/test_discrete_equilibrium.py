import json
import math
import operator
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym import (
    DomainError,
    DomainViolation,
    EconomyParams,
    InfeasibleDemand,
    InstanceTooLarge,
    NoConvergence,
    OccupationVector,
    SolverError,
    closed_form_ladder,
    enumerate_feasible,
    ladder_limit_form,
    ladder_ratio,
    log_multinomial_weight,
    make_ladder,
    solve_boltzmann,
    solve_generalized,
)

TOL = 1e-10


def test_flat_demand_gives_zero_beta():
    # D/n equal to the arithmetic mean of the levels forces beta = 0
    sol = solve_boltzmann(EconomyParams((1, 2, 3), 3, 6))
    assert sol.multipliers.beta == pytest.approx(0.0, abs=1e-12)
    assert sol.multipliers.nu == pytest.approx(0.0, abs=1e-12)
    assert sol.occupations == pytest.approx((1.0, 1.0, 1.0), rel=1e-12)


def test_two_level_closed_form():
    sol = solve_boltzmann(EconomyParams((0, 1), 100, 25))
    assert sol.occupations == pytest.approx((75.0, 25.0), rel=1e-9)
    assert sol.multipliers.beta == pytest.approx(math.log(3.0), rel=1e-9)


def test_solution_residuals_below_tolerance():
    sol = solve_boltzmann(EconomyParams((1, 2, 5, 7), 40, 130), tol=TOL)
    assert sol.residuals[0] < TOL
    assert sol.residuals[1] < TOL


@pytest.mark.parametrize("levels,n,D,c", [
    ((1, 2, 3), 1e6, 1.7e6, 0.0),         # TOL is below one ulp of n here
    ((1, 2, 3, 4, 5), 1e5, 300001, 0.0),
    ((1, 2, 3, 4, 5), 1000, 4800, 1.0),   # paper scale, demand near the top level
    ((1, 2, 3, 4, 5), 1e12, 1.5e12, 1.0),  # c n = 1e12: beta ~ 1e-11, so its ulp is tiny
])
def test_large_instances_converge_to_float_resolution(levels, n, D, c):
    params = EconomyParams(levels, n, D)
    sol = solve_boltzmann(params, tol=TOL) if c == 0 else solve_generalized(params, c, tol=TOL)
    assert sol.residuals[0] <= max(TOL, 1e-12 * n)
    assert sol.residuals[1] <= max(TOL, 1e-12 * D)


def test_boundary_demand_rejected_by_solver():
    with pytest.raises(InfeasibleDemand):
        solve_boltzmann(EconomyParams((1, 2, 3), 3, 9))


def test_ladder_solution_matches_closed_form():
    params = make_ladder(1.0, 500, 1000, 2000)  # r = 2
    sol = solve_boltzmann(params)
    for idx, expected in [(0, 500.0), (1, 250.0), (2, 125.0)]:
        assert sol.occupations[idx] == pytest.approx(expected, rel=1e-9)


def test_closed_form_matches_solver_on_every_rung():
    # g chosen so the worker mass beyond the top rung is < 1e-12
    n, r, g = 50.0, 3.0, 100
    params = make_ladder(1.0, g, n, n * r)
    assert n * ((r - 1) / r) ** g < 1e-12
    sol = solve_boltzmann(params)
    for i in range(g):
        assert sol.occupations[i] == pytest.approx(closed_form_ladder(r, n, i + 1), rel=1e-6)


def test_beta_strictly_decreasing_in_demand():
    betas = [solve_boltzmann(EconomyParams((1, 2, 3), 10, D)).multipliers.beta
             for D in (12, 16, 20, 24, 28)]
    assert all(a > b for a, b in zip(betas, betas[1:]))


def test_closed_form_ladder_values():
    assert closed_form_ladder(2.0, 1000.0, 1) == pytest.approx(500.0)
    assert closed_form_ladder(2.0, 1000.0, 3) == pytest.approx(125.0)


def test_closed_form_ladder_sums_to_n():
    n, r = 1000.0, 2.0
    total = sum(closed_form_ladder(r, n, i) for i in range(1, 200))
    assert total == pytest.approx(n, rel=1e-12)


def test_closed_form_ladder_rejects_r_at_most_one():
    with pytest.raises(DomainError):
        closed_form_ladder(1.0, 10.0, 1)
    with pytest.raises(DomainError):
        closed_form_ladder(0.5, 10.0, 1)


@pytest.mark.parametrize("call", [
    lambda: ladder_ratio(EconomyParams((1, 2), 10, math.nan)),
    lambda: ladder_ratio(EconomyParams((1, 2), 10, math.inf)),
    lambda: ladder_ratio(EconomyParams((0, 1, 2), 4, 4, a0=0.0), delta_a=math.nan),
    lambda: closed_form_ladder(math.nan, 10, 1),
    lambda: closed_form_ladder(math.inf, 10, 1),
    lambda: ladder_limit_form(0.0, 1),
    lambda: ladder_limit_form(-1.0, 1),
], ids=["ratio-D-nan", "ratio-D-inf", "ratio-zero-min-width-nan", "closed-form-nan",
        "closed-form-inf", "limit-form-zero", "limit-form-negative"])
def test_ladder_helpers_reject_ratios_outside_finite_r_above_one(call):
    with pytest.raises(DomainError):
        call()


def test_limit_form_values():
    assert ladder_limit_form(100.0, 1) == pytest.approx(0.0101 * math.exp(-0.01), rel=1e-12)
    assert ladder_limit_form(10.0, 0) == pytest.approx(0.11, rel=1e-12)


def test_limit_form_close_to_exact_probability_for_small_rungs():
    r = 100.0
    gaps = []
    for i in range(1, 11):
        exact = closed_form_ladder(r, 1.0, i)  # n = 1 gives the probability
        gaps.append(abs(exact - ladder_limit_form(r, i)) / exact)
    assert max(gaps) < 1e-3


def test_generalized_c_zero_recovers_two_level_solution():
    sol = solve_generalized(EconomyParams((0, 1), 100, 25), c=0.0)
    assert sol.occupations == pytest.approx((75.0, 25.0), rel=1e-9)


def test_generalized_c_zero_matches_boltzmann_componentwise():
    rng = np.random.default_rng(20240801)
    for _ in range(5):
        g = int(rng.integers(2, 6))
        levels = tuple(sorted(rng.uniform(0.5, 10.0, g)))
        n = int(rng.integers(5, 40))
        u = rng.uniform(0.2, 0.8)
        D = n * (levels[0] + u * (levels[-1] - levels[0]))
        params = EconomyParams(levels, n, D)
        a = solve_boltzmann(params, tol=TOL)
        b = solve_generalized(params, c=0.0, tol=TOL)
        assert max(abs(x - y) for x, y in zip(a.occupations, b.occupations)) <= 10 * TOL
        # a and b come from one code path, so also check b against the form itself
        nu, beta = b.multipliers.nu, b.multipliers.beta
        for x, level in zip(b.occupations, levels):
            assert x == pytest.approx(math.exp(nu - beta * level), rel=1e-9)
        # and against its neighbours in c, which move each n_i by O(|c| n^2)
        for c in (1e-9, -1e-9):
            near = solve_generalized(params, c=c, tol=TOL)
            gap = max(abs(x - y) for x, y in zip(near.occupations, b.occupations))
            assert gap <= abs(c) * n * n


def test_generalized_fermi_like_satisfies_constraints():
    params = EconomyParams((1, 2, 3), 3, 6)
    sol = solve_generalized(params, c=-1.0)
    assert sol.residuals[0] < 1e-10
    assert sol.residuals[1] < 1e-10
    # occupations reproduce the closed occupation form at the returned multipliers
    nu, beta = sol.multipliers.nu, sol.multipliers.beta
    for a, occ in zip(params.levels, sol.occupations):
        assert occ == pytest.approx(1.0 / (math.exp(-nu + beta * a) + 1.0), rel=1e-9)


def test_generalized_bose_like_needs_continuation():
    # the Boltzmann multipliers (occupations ~75) lie beyond the c=1 pole, so
    # the solve cannot simply start from the c=0 solution
    sol = solve_generalized(EconomyParams((0, 1), 100, 25), c=1.0)
    assert sol.occupations == pytest.approx((75.0, 25.0), rel=1e-9)
    assert max(sol.residuals) < 1e-10
    nu, beta = sol.multipliers.nu, sol.multipliers.beta
    assert math.exp(-nu) - 1.0 > 0  # denominator positivity at the solution


def test_generalized_without_solution_raises():
    # for c = -10, occupations are bounded by 1/|c| each, so sum < 3/10 < n
    with pytest.raises(SolverError):
        solve_generalized(EconomyParams((1, 2, 3), 3, 6), c=-10.0)


@pytest.mark.parametrize("levels,n,D,c", [
    ((1, 2, 3, 4), 10, 25, -0.5),   # n > g/|c|
    ((1, 2, 3), 1.5, 1.75, -1.0),   # D below the bottom-up fill 2
    ((1, 2, 3, 4), 2.5, 9, -1.0),   # D above the top-down fill 8
    ((1, 1e308, 1.7e308), 3, 1e308, -1.0),  # the bottom-up fill 2.7e308 is past the float range
    # a float below the exact bottom-up fill, which numpy's dot rounded down onto D
    ((2.1, 3.5, 3.6, 4.9, 5.0), 7.1, 23.789999999999996, -0.5),
], ids=["crowded", "below-fill", "above-fill", "fill-overflows", "an-ulp-below-fill"])
def test_generalized_infeasible_fermi_shapes_raise(levels, n, D, c):
    with pytest.raises(DomainViolation):
        solve_generalized(EconomyParams(levels, n, D), c=c)


@pytest.mark.parametrize("levels,n,D,c", [
    ((1, 2, 3), 2.5, 4.5, -1.0),   # the bottom-up fill 1 + 2 + 1.5
    ((1, 2, 3), 2.5, 5.5, -1.0),   # the top-down fill 3 + 2 + 0.5
    # exact fills that a rounded sum misses by an ulp (numpy's dot gave 55.400000000000006
    # and 14.899999999999999, so these were rejected when the bounds were float sums)
    ((2.3, 5.5, 5.7, 6.6, 7.6, 8.3), 10.0, 55.4, -0.5),
    ((1.5, 2.0, 3.7, 4.9, 6.1), 3.1, 14.9, -1.0),
], ids=["bottom-up", "top-down", "bottom-up-rounded", "top-down-rounded"])
def test_generalized_demand_exactly_at_a_fill_is_attempted(levels, n, D, c):
    result = solve_generalized(EconomyParams(levels, n, D), c=c)
    assert max(result.occupations) <= -1.0 / c
    assert sum(map(operator.mul, levels, result.occupations)) == pytest.approx(D, rel=1e-9)


@pytest.mark.parametrize("D", [9, 12, 17.5])
def test_subnormal_negative_c_caps_nothing(D):
    # -1/c overflows to an infinite cap, so every (n, D) inside the hull stays feasible
    params = EconomyParams((1, 2, 3), 6, D)
    assert solve_generalized(params, c=-1e-320).occupations == pytest.approx(
        solve_boltzmann(params).occupations, rel=1e-12)


@pytest.mark.parametrize("levels,n,D,c", [
    pytest.param((1, 2, 3), 100, 250, math.inf, id="inf"),
    pytest.param((1, 2, 3), 100, 250, -math.inf, id="-inf"),
    pytest.param((1, 2, 3), 100, 250, math.nan, id="nan"),
    pytest.param((1, 2, 3), 100, 250, 1e308, id="1e+308"),
    pytest.param((1, 2, 3, 4, 5), 1e7, 1.5e7, 1e300, id="c-n-squared-overflows"),
])
def test_generalized_rejects_non_finite_c_times_n(levels, n, D, c):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected up front, before numpy can overflow
        with pytest.raises(DomainError):
            solve_generalized(EconomyParams(levels, n, D), c=c)


@pytest.mark.parametrize("levels,n,D,c", [
    ((1.0, 2.0, 3.0), 10.0, 17.0, 0.0),
    ((1.0, 2.0, 3.0), 10.0, 17.0, 1.0),  # c n >= 1: the inner unknown is the pole distance
    ((1.0, 2.0, 3.0), 4.0, 7.0, -0.5),
])
def test_multipliers_are_plain_floats(levels, n, D, c):
    multipliers = solve_generalized(EconomyParams(levels, n, D), c).multipliers
    assert [type(x) for x in (multipliers.nu, multipliers.beta, multipliers.c)] == [float] * 3
    assert "np." not in repr(multipliers)


@pytest.mark.parametrize("counts,expected", [
    ((1, 2, 1), math.log(12.0)),
    ((4, 0, 0), 0.0),
    ((2, 0, 2), math.log(6.0)),
])
def test_log_multinomial_weight(counts, expected):
    assert log_multinomial_weight(OccupationVector(counts)) == pytest.approx(expected, abs=1e-12)


def test_log_multinomial_weight_large_counts():
    # 2e6 workers split evenly across two sectors: ln C(2m, m) stays finite
    m = 10**6
    value = log_multinomial_weight(OccupationVector((m, m)))
    # Stirling: ln C(2m, m) ~ 2m ln 2 - 0.5 ln(pi m)
    assert value == pytest.approx(2 * m * math.log(2) - 0.5 * math.log(math.pi * m), rel=1e-9)


LOG_WEIGHT_BOUND = 2.0 ** -46  # log_multinomial_weight's error per unit of max(1, ln w)


def _exact_log_weight(counts):
    """ln n!/prod n_i! to 50 digits, from the exact integer weight."""
    mpmath = pytest.importorskip("mpmath")
    weight, total = 1, 0
    for k in counts:
        total += k
        weight *= math.comb(total, k)
    with mpmath.workdps(50):
        return mpmath.log(weight)


def _assert_log_weight_within_bound(counts):
    exact = _exact_log_weight(counts)
    value = log_multinomial_weight(OccupationVector(tuple(counts)))
    assert abs(value - exact) <= LOG_WEIGHT_BOUND * max(1, exact), (counts, value, exact)


@st.composite
def split_counts(draw, total):
    """total workers over 1-8 sectors, at random cuts."""
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=7)))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 200).flatmap(split_counts))
def test_log_weight_keeps_its_digits_on_small_economies(counts):
    _assert_log_weight_within_bound(counts)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 50).flatmap(split_counts), st.integers(0, 10 ** 18 - 50), st.data())
def test_log_weight_keeps_its_digits_when_one_sector_holds_nearly_all(rest, big, data):
    # all but 1-50 of up to 1e18 workers in one sector: lgamma(n + 1) is about n ln n there
    counts = list(rest)
    counts.insert(data.draw(st.integers(0, len(rest))), big)
    _assert_log_weight_within_bound(counts)


@pytest.mark.parametrize("counts, expected", [
    ((10 ** 17 - 1, 1), 39.14394658089878),  # once 0.0
    ((10 ** 15 - 1, 1), 34.538776394910684),  # once 32.0
    ((10 ** 9 - 2, 2), 40.75338449233288),  # once 40.75338363647461
])
def test_log_weight_of_a_nearly_full_sector(counts, expected):
    assert log_multinomial_weight(OccupationVector(counts)) == pytest.approx(
        expected, rel=LOG_WEIGHT_BOUND)
    _assert_log_weight_within_bound(counts)


def test_enumeration_oracle_instance():
    result = enumerate_feasible(EconomyParams((1, 2, 3), 4, 8))
    assert [v.counts for v in result.vectors] == [(0, 4, 0), (1, 2, 1), (2, 0, 2)]
    assert result.weights == (1, 12, 6)
    assert result.argmax.counts == (1, 2, 1)
    assert result.log_weights[1] == pytest.approx(math.log(12.0))


def test_enumeration_corner_instance():
    result = enumerate_feasible(EconomyParams((1, 2), 2, 4))
    assert [v.counts for v in result.vectors] == [(0, 2)]
    assert result.weights == (1,)


def test_enumeration_empty_economy():
    result = enumerate_feasible(EconomyParams((1, 2, 3), 0, 0))
    assert [v.counts for v in result.vectors] == [(0, 0, 0)]
    assert result.weights == (1,)
    assert result.argmax.counts == (0, 0, 0)


def test_enumeration_argmax_breaks_weight_ties_toward_smallest_counts():
    result = enumerate_feasible(EconomyParams((1, 2, 3, 4), 2, 5))
    assert [v.counts for v in result.vectors] == [(0, 1, 1, 0), (1, 0, 0, 1)]
    assert result.weights == (2, 2)
    assert result.argmax.counts == (0, 1, 1, 0)


def test_enumeration_scaled_ladder():
    # the same instance expressed on a rescaled lattice enumerates identically
    result = enumerate_feasible(EconomyParams((0.5, 1.0, 1.5), 4, 4.0))
    assert [v.counts for v in result.vectors] == [(0, 4, 0), (1, 2, 1), (2, 0, 2)]


def test_enumeration_respects_cap():
    with pytest.raises(InstanceTooLarge):
        enumerate_feasible(EconomyParams((1, 2, 3), 100, 200), max_vectors=10)


def test_negative_enumeration_cap_is_domain_error():
    with pytest.raises(DomainError, match="cap"):
        enumerate_feasible(EconomyParams((1, 2, 3), 4, 8), max_vectors=-3)
    # a zero cap is valid: any feasible vector is one too many, none is fine
    with pytest.raises(InstanceTooLarge):
        enumerate_feasible(EconomyParams((1, 2, 3), 4, 8), max_vectors=0)
    assert enumerate_feasible(EconomyParams((2, 4), 3, 7), max_vectors=0).vectors == ()


@pytest.fixture
def digit_limit():
    """sys.set_int_max_str_digits for one test, the process's limit restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str digit limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


# two sectors, three sectors, and n = 1e300, where the lgamma log weights cancel
# to nothing and the band around the limit is decided from the exact factors
@pytest.mark.parametrize("levels,n,D", [((0, 1), 2200, 1100), ((1, 2, 3), 1500, 3000),
                                        ((0, 1), 1e300, 15)])
def test_weights_past_the_int_to_str_limit_raise(digit_limit, levels, n, D):
    params = EconomyParams(levels, n, D)
    digit_limit(0)  # no limit: no check
    digits = len(str(max(enumerate_feasible(params).weights)))
    digit_limit(digits)  # a weight of exactly the limit's digits still prints
    result = enumerate_feasible(params)
    assert result.to_csv() and json.dumps(result.to_json_dict())
    digit_limit(digits - 1)
    with pytest.raises(InstanceTooLarge, match=f"at least {digits} decimal digits.* {digits - 1} "):
        enumerate_feasible(params)


@pytest.mark.parametrize("c", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-12])
def test_bad_tolerance_is_domain_error(tol, c):
    # max(nan, floor) is nan, so an unchecked nan would iterate until NoConvergence
    with pytest.raises(DomainError, match="tolerance"):
        solve_generalized(EconomyParams((1, 2, 3), 3, 5), c=c, tol=tol)


@pytest.mark.parametrize("c", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("g", [3, 200])
def test_worker_count_below_g_smallest_normals_is_domain_error(g, c):
    # n/g subnormal: the occupations underflowed and the solver took log(0)
    levels = tuple(range(g))
    for n in (5e-324, g * sys.float_info.min * (1 - 2 ** -52)):
        with pytest.raises(DomainError, match="smallest normal"):
            solve_generalized(EconomyParams(levels, n, n * (g - 1) / 3), c=c)
    n = g * sys.float_info.min
    sol = solve_generalized(EconomyParams(levels, n, n * (g - 1) / 3), c=c)
    assert math.fsum(sol.occupations) == pytest.approx(n, rel=1e-12)


@pytest.mark.parametrize("solve, max_iter", [
    (lambda params, max_iter: solve_boltzmann(params, max_iter=max_iter), 1),
    (lambda params, max_iter: solve_generalized(params, c=1.0, max_iter=max_iter), 2),
], ids=["boltzmann", "generalized_c1"])
def test_exhausted_budget_raises_no_convergence(solve, max_iter):
    with pytest.raises(NoConvergence) as info:
        solve(EconomyParams((1, 2, 3), 10, 25), max_iter)
    assert info.value.iterations == max_iter
    assert f"after {max_iter} iterations" in str(info.value)


def _count_calls(monkeypatch, name):
    """Count np.<name> calls.  np.divide: one per inner evaluation, none at c = 0, where the
    outer solve forms the occupations itself; np.exp: one per c = 0 outer evaluation."""
    calls = []
    original = getattr(np, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    return calls


@pytest.mark.parametrize("levels,n,D,c,most", [
    ((1, 2, 3, 4, 5), 1000, 4800, 1.0, 21),  # 28 with Newton outer steps, 53 from the c = 0 root
    ((0, 1), 100, 25, 1.0, 12),  # 15, 21
    ((1, 2, 3, 4, 5, 6), 3, 10, -1.0, 4),  # 9, 24
    ((1, 2, 3, 4, 5, 6, 7, 8), 6, 30, -0.5, 9),  # 14, 20
    ((1, 2, 3), 10, 17, 0.5, 11),  # 12, 21
])
def test_inner_solves_start_on_the_tangent_of_their_root(monkeypatch, levels, n, D, c, most):
    calls = _count_calls(monkeypatch, "divide")
    sol = solve_generalized(EconomyParams(levels, n, D), c)
    assert len(calls) <= most
    assert max(sol.residuals) <= TOL


@pytest.mark.parametrize("levels,n,D,exps,divides", [
    ((1, 2, 3), 10, 17, 4, 0),  # 4 outer evaluations; only the last forms occupations
    ((1, 2, 3, 4, 5), 1000, 4800, 6, 0),  # 6; the first occupations missed the stop rule
    ((7.027, 8.659), 54940953.10577492, 412180002.37743855, 4, 0),  # 4
    # 4; a closed-form inner root 1/exp(d_i - t0) once missed its floor here and iterated
    ((17.816, 19.535), 63587725.12479198, 1173275328.012062, 4, 0),
])
def test_boltzmann_solves_keep_their_evaluation_count(monkeypatch, levels, n, D, exps, divides):
    exp_calls, divide_calls = _count_calls(monkeypatch, "exp"), _count_calls(monkeypatch, "divide")
    solve_boltzmann(EconomyParams(levels, n, D))
    assert (len(exp_calls), len(divide_calls)) == (exps, divides)


@pytest.mark.parametrize("c", [-0.5, -1.0, -1e-6, 1e-6, 0.5])
def test_inner_solve_at_zero_beta_starts_on_its_root(monkeypatch, c):
    # D/n is the mean level, so beta = 0 is the root and each n_i is n/g there: off the pole
    # branch the inner solve starts at its exact root and meets its floor in one evaluation
    calls = _count_calls(monkeypatch, "divide")
    sol = solve_generalized(EconomyParams((1, 2, 3), 1.5, 3.0), c, tol=0.0)
    assert len(calls) == 1
    assert sol.multipliers.beta == 0.0
    assert sol.occupations == pytest.approx((0.5, 0.5, 0.5), rel=4 * sys.float_info.epsilon)


@pytest.mark.parametrize("levels,n,D,c", [
    ((1, 2, 3, 4), 2, 5, -2.0),
    ((1, 2, 3, 4, 5), 10, 30, -0.5),
])
def test_every_sector_at_its_cap_still_solves(levels, n, D, c):
    # n = g/|c|, as in test_generalized_fermi_like_satisfies_constraints: c n / g = -1,
    # where the exact beta = 0 start -log1p(c n / g) would raise ValueError
    sol = solve_generalized(EconomyParams(levels, n, D), c)
    assert max(sol.residuals) <= TOL
    assert sol.occupations == pytest.approx([-1.0 / c] * len(levels), rel=1e-12)


def test_c_below_one_over_n_solves_below_the_pole():
    # measured from the c = 0 root and with no upper end to the inner bracket, a
    # tangent start left of the root stepped past the pole t = -ln c on this
    # instance, and math.log(N / n) raised ValueError
    levels, n, D = (2.565, 5.551, 6.566, 7.834, 7.993), 305390.93472214934, 832018.851135116
    sol = solve_generalized(EconomyParams(levels, n, D), c=1e-6, tol=0.0)
    assert all(x > 0 for x in sol.occupations)
    w = [x + 1e-6 * x * x for x in sol.occupations]
    m_w = math.fsum(map(operator.mul, levels, w)) / math.fsum(w)
    V = math.fsum(wi * (a - m_w) ** 2 for a, wi in zip(levels, w))
    g, eps = len(levels), sys.float_info.epsilon
    assert sol.residuals[0] <= 4 * eps * g * n
    assert sol.residuals[1] <= 4 * eps * (g * D + abs(sol.multipliers.beta) * V)


def test_zero_tolerance_means_the_float_floor():
    sol = solve_boltzmann(EconomyParams((1, 2, 5, 7), 40, 130), tol=0.0)
    assert max(sol.residuals) < 1e-12


@pytest.mark.parametrize("n", [math.inf, math.nan, -1.0, 2.5])
def test_enumeration_rejects_a_bad_worker_count(n):
    # validated before int(n), which raises OverflowError / ValueError on inf / nan
    with pytest.raises(DomainError):
        enumerate_feasible(EconomyParams((1, 2), n, 3))


def test_enumeration_counts_conserve_constraints():
    params = EconomyParams((1, 2, 4), 12, 30)
    result = enumerate_feasible(params)
    assert result.vectors
    for vec in result.vectors:
        assert vec.total == 12
        assert vec.output(params.levels) == 30


def _projected(params: EconomyParams, enumeration) -> OccupationVector:
    """solve_boltzmann's occupations projected onto the enumerated vectors by L1 distance,
    ties toward the smallest counts: the rounded first-order (Stirling) solution."""
    real = solve_boltzmann(params).occupations
    return min(enumeration.vectors,
               key=lambda v: (sum(abs(k - x) for k, x in zip(v.counts, real)), v.counts))


def test_stirling_agreement_small_instance():
    params = EconomyParams((1, 2, 3), 4, 8)
    enumeration = enumerate_feasible(params)
    assert enumeration.argmax.counts == (1, 2, 1)
    assert _projected(params, enumeration) == enumeration.argmax


def test_stirling_agreement_scaled_instance():
    params = EconomyParams((1, 2, 3), 100, 200)
    enumeration = enumerate_feasible(params)
    assert _projected(params, enumeration) == enumeration.argmax


def test_stirling_small_n_flag():
    # two workers, far below any Stirling regime: the rounding still lands on the argmax
    params = EconomyParams((1, 2, 3), 2, 4)
    enumeration = enumerate_feasible(params)
    projected = _projected(params, enumeration)
    assert projected.counts == (1, 0, 1) == enumeration.argmax.counts
    assert max(enumeration.log_weights) - log_multinomial_weight(projected) == 0.0


@pytest.mark.parametrize("levels,n,D", [
    ((1, 2, 3), 30, 60),
    ((1, 2, 3), 24, 50),
    ((1, 2, 4), 20, 45),
    ((1, 3, 5), 25, 71),
    ((1, 2, 3), 100, 200),
])
def test_projected_solution_near_exact_maximum(levels, n, D):
    # the rounded continuous solution loses < 0.5% of the best log weight
    params = EconomyParams(levels, n, D)
    enum = enumerate_feasible(params)
    best = max(enum.log_weights)
    projected_lw = log_multinomial_weight(_projected(params, enum))
    assert best - projected_lw <= 0.005 * abs(best)


def test_solution_serialization_fields():
    sol = solve_boltzmann(EconomyParams((1, 2, 3), 3, 6))
    payload = sol.to_json_dict()
    assert list(payload) == ["nu", "beta", "c", "occupations", "residuals"]
    assert all(isinstance(x, float) for x in payload["occupations"])
