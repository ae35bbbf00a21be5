"""Property tests of the equilibrium solver on random instances.

The domain covers the three occupation forms: Boltzmann (c = 0) up to a
million workers, Bose-like (c > 0) with c n up to 1e3, and Fermi-like
(c < 0) with n up to 95% of the g/|c| capacity and D 5-95% of the way
between the bottom-up and the top-down fill.
"""

import itertools
import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aym import (AymError, DomainViolation, EconomyParams, NoConvergence, solve_boltzmann,
                 solve_generalized)
from aym.discrete_equilibrium import _between_fills

TOL = 1e-10
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def fill_bounds(levels, n, cap):
    """Output when n workers fill the sectors bottom-up and top-down, cap per sector."""
    def fill(order):
        left, total = n, 0.0
        for a in order:
            take = min(cap, left)
            total += a * take
            left -= take
        return total
    return fill(levels), fill(reversed(levels))


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def ladders(draw):
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=11))
    return tuple(itertools.accumulate(gaps, initial=draw(st.floats(0.0, 5.0))))


@st.composite
def instances(draw, form):
    """(levels, n, D_low, D_high, c) with D_low < D_high both solvable."""
    levels = draw(ladders())
    s1 = draw(st.floats(0.05, 0.94))
    s2 = draw(st.floats(s1 + 0.01, 0.95))
    if form == "fermi":
        c = -draw(log_uniform(1e-12, 1.0))
        n = draw(st.floats(0.01, 0.95)) * len(levels) / -c
        lo, hi = fill_bounds(levels, n, -1.0 / c)
    else:
        c = 0.0 if form == "boltzmann" else draw(log_uniform(1e-12, 5.0))
        n = draw(log_uniform(1.0, 1e6 if c == 0 else 1e3 / c))
        lo, hi = levels[0] * n, levels[-1] * n
    return levels, n, lo + s1 * (hi - lo), lo + s2 * (hi - lo), c


def solve(levels, n, D, c):
    params = EconomyParams(levels, n, D)
    return solve_boltzmann(params, tol=TOL) if c == 0 else solve_generalized(params, c, tol=TOL)


@pytest.mark.parametrize("form", ["boltzmann", "bose", "fermi"])
@PROPERTY_SETTINGS
@given(data=st.data())
def test_solution_meets_constraints_and_occupation_form(form, data):
    levels, n, D_low, D_high, c = data.draw(instances(form))
    betas = []
    for D in (D_low, D_high):
        sol = solve(levels, n, D, c)
        assert sol.residuals[0] <= max(TOL, 1e-12 * n)
        assert sol.residuals[1] <= max(TOL, 1e-12 * D)
        nu, beta = sol.multipliers.nu, sol.multipliers.beta
        for a, occ in zip(levels, sol.occupations):
            assert occ > 0
            if c < 0:
                assert occ <= -1.0 / c
            u = math.exp(nu - beta * a)  # u/(1 - c u) = 1/(exp(-nu + beta a) - c)
            assert occ == pytest.approx(u / (1.0 - c * u), rel=1e-9)
        betas.append(beta)
    assert betas[0] > betas[1]  # beta falls strictly in D


@PROPERTY_SETTINGS
@given(ladders(), log_uniform(1e-12, 1.0), st.sampled_from(["crowded", "below", "above"]),
       st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_provably_infeasible_fermi_like_raises(levels, c_abs, shape, u, share):
    g, cap = len(levels), 1.0 / c_abs
    if shape == "crowded":
        # more workers than g sectors capped at 1/|c| can hold
        n = g * cap * (1.01 + 9.0 * u)
        D = n * (levels[0] + share * (levels[-1] - levels[0]))
    else:
        # room for n, but D outside [bottom-up fill, top-down fill] yet inside the hull
        n = g * cap * (1.0 / g + u * (0.99 - 1.0 / g) + 0.005)
        lo, hi = fill_bounds(levels, n, cap)
        D = (levels[0] * n + share * (lo - levels[0] * n) if shape == "below"
             else hi + share * (levels[-1] * n - hi))
    with pytest.raises(DomainViolation):
        solve_generalized(EconomyParams(levels, n, D), -c_abs)


def numpy_and_exact_fill_bounds(levels, n, cap):
    """The fill bounds as numpy's dot computed them, and the same sums in exact arithmetic."""
    a = np.asarray(levels, dtype=float)
    fill = np.diff(np.minimum(n, cap * np.arange(1, len(levels) + 1)), prepend=0.0)
    exact = (sum(Fraction(x) * Fraction(f) for x, f in zip(order, fill.tolist()))
             for order in (levels, levels[::-1]))
    return (float(a @ fill), float(a[::-1] @ fill)), tuple(exact)


def rejected(levels, n, D, c):
    """True (DomainViolation) or False (feasible) from the cap check, None when an input
    rule decides first; max_iter=0 stops the solve before its first iteration."""
    try:
        solve_generalized(EconomyParams(levels, n, D), c, max_iter=0)
    except DomainViolation:
        return True
    except NoConvergence:
        return False
    except AymError:  # InfeasibleDemand or DomainError: the hull, D > 0 or c n^2
        return None
    raise AssertionError("a solve with no iterations returned")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ladders(), log_uniform(1.0, 1e12), st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
       st.floats(0.0, 1.0))
def test_fermi_like_feasibility_matches_the_numpy_decision(levels, cap_in, share, u):
    """The plain-Python cap check is exact, and decides as numpy's dot did up to rounding.

    n = g * cap (share 1) fills every sector to its cap.  D runs over both
    numpy bounds, the exact bounds rounded to floats, their float
    neighbours and a point between them.  The decision is the exact one
    everywhere; a flip against numpy needs D within numpy's rounding
    (g + 2 ulps) of an exact bound.
    """
    c = -1.0 / cap_in
    g, cap = len(levels), -1.0 / c  # the cap exactly as the solver forms it
    n = g * cap if share == 1.0 else share * g * cap
    (old_lo, old_hi), bounds = numpy_and_exact_fill_bounds(levels, n, cap)
    candidates = [old_lo + u * (old_hi - old_lo)]
    for bound in (old_lo, old_hi, float(bounds[0]), float(bounds[1])):
        candidates += [bound, math.nextafter(bound, 0.0), math.nextafter(bound, math.inf)]
    checked = 0
    for D in candidates:
        if not (levels[0] < D / n < levels[-1] and levels[0] * n <= D <= levels[-1] * n):
            continue  # outside the hull: InfeasibleDemand, before the cap check
        checked += 1
        new = rejected(levels, n, D, c)
        assert new == (n > g * cap or not bounds[0] <= Fraction(D) <= bounds[1])
        if new != (n > g * cap or not old_lo <= D <= old_hi):
            gap = min(abs(Fraction(D) - b) / max(b, Fraction(1, 2 ** 1074)) for b in bounds)
            assert gap <= (g + 2) * np.finfo(float).eps
    assume(checked)


def nearest_floats(x):
    """The float nearest the Fraction x and one ulp either side; none past the float range."""
    try:
        near = float(x)
    except OverflowError:
        return []
    return [near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf)]


@st.composite
def extreme_fermi_instances(draw):
    """(levels, n, c): ladders scaled to the subnormals or to the top of the float range,
    or starting at 0, with c = -1, -1/2, any -c in [1e-12, 4] or a subnormal c, whose cap
    1/|c| is inf."""
    levels = list(draw(ladders()))
    if draw(st.booleans()):
        levels[0] = 0.0
    scale = draw(st.sampled_from([1.0, 5e-324, 1e-320, 1e-307, 1e306, 1e307]))
    levels = [a * scale for a in levels]
    assume(len(set(levels)) == len(levels) and levels[-1] < math.inf)  # scaling kept the order
    c = -draw(st.one_of(st.sampled_from([1.0, 0.5, 5e-324, 1e-310, 4e-309]),
                        log_uniform(1e-12, 4.0)))
    room = len(levels) * (-1.0 / c)  # every sector at its cap
    n = min(room, 1e300) if draw(st.booleans()) else draw(st.floats(0.01, 1.5)) * min(room, 1e3)
    return tuple(levels), n, c


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(extreme_fermi_instances())
def test_integer_fill_bounds_decide_as_exact_fractions(instance):
    """The cap check accepts and rejects what exact Fraction sums of the fills decide.

    D is drawn at the float nearest each exact bound and one ulp either side;
    the decision is read from solve_generalized before its first iteration.
    """
    levels, n, c = instance
    g, cap = len(levels), -1.0 / c  # the fill exactly as the solver forms it
    filled = [0.0] + [min(n, cap * k) for k in range(1, g + 1)]
    fill = [after - before for before, after in zip(filled, filled[1:])]
    lo, hi = (sum(map(mul, map(Fraction, order), map(Fraction, fill)))
              for order in (levels, levels[::-1]))
    checked = 0
    for D in nearest_floats(lo) + nearest_floats(hi):
        decided = rejected(levels, n, D, c)
        if decided is not None:
            checked += 1
            assert decided == (n > g * cap or not lo <= Fraction(D) <= hi), D
    assume(checked)


def between_fills_in_the_smallest_unit(levels, fill, D):
    """The reference cap check: every float is an integer times 2**-1074, so the fill
    sums are exact integers in units of 2**-2148."""
    g = len(levels)
    *units, D_units = (p << 1075 - q.bit_length()
                       for p, q in map(float.as_integer_ratio, (*levels, *fill, D)))
    lo, hi = (sum(map(mul, order, units[g:])) for order in (units[:g], units[g - 1::-1]))
    return lo <= D_units << 1074 <= hi


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(ladders(), st.sampled_from([-1074, -1060, -1000, 0, 1000]), st.booleans(),
       st.one_of(st.sampled_from([1.0, 0.5, 3.0, 5e-324]), log_uniform(1e-12, 4.0)),
       st.floats(0.01, 1.0), st.floats(0.0, 1.0))
def test_fill_bounds_in_the_largest_denominator_decide_as_in_the_smallest_unit(
        levels, exponent, from_zero, c_abs, share, u):
    """The cap check, in units of the largest denominator among the levels, fills and D,
    decides as the same sums in units of 2**-1074 do.

    Ladders scaled by 2**-1074 (subnormal levels), 2**-1060, 2**-1000, 1 or 2**1000;
    D at the float nearest each exact fill bound, one ulp either side and a point
    between.  Where the cap check decides solve_generalized, it follows the same rule.
    """
    levels = [math.ldexp(a, exponent) for a in ((0.0, *levels[1:]) if from_zero else levels)]
    cap = -1.0 / -c_abs  # the fill exactly as the solver forms it
    g = len(levels)
    n = share * min(g * cap, 1e300)
    filled = [0.0] + [min(n, cap * k) for k in range(1, g + 1)]
    fill = [after - before for before, after in zip(filled, filled[1:])]
    lo, hi = (sum(map(mul, map(Fraction, order), map(Fraction, fill)))
              for order in (levels, levels[::-1]))
    candidates = [*nearest_floats(lo), *nearest_floats(hi),
                  *nearest_floats(lo + Fraction(u) * (hi - lo))[:1]]
    for D in candidates:
        inside = between_fills_in_the_smallest_unit(levels, fill, D)
        assert _between_fills(levels, fill, D) == inside == (lo <= Fraction(D) <= hi), D
        decided = rejected(tuple(levels), n, D, -c_abs) if 0 < D < math.inf else None
        assert decided in (None, n > g * cap or not inside), D
    assume(candidates)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(ladders().map(lambda levels: tuple(a + 0.5 for a in levels)),
       st.sampled_from([-1.0, -0.5, -2.0]), st.floats(0.3, 0.97), log_uniform(1e-12, 1e-6),
       st.sampled_from(["lo", "hi"]), st.sampled_from([1e-10, 0.0]))
def test_near_fill_bound_solves_end_in_typed_errors(levels, c, share, gap, bound, tol):
    """A D inside a fill bound by 1e-12 to 1e-6 relative solves or raises an AymError.

    Such solves push the occupations against the cap 1/|c|, where the inner
    solve can overflow its exponentials; none may end in an untyped error.
    """
    n = share * len(levels) / -c
    lo, hi = fill_bounds(levels, n, -1.0 / c)
    D = lo * (1.0 + gap) if bound == "lo" else hi * (1.0 - gap)
    try:
        solve_generalized(EconomyParams(levels, n, D), c, tol=tol)
    except AymError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(ladders().map(lambda levels: tuple(a + 0.5 for a in levels)),
       st.sampled_from([-1e-6, -1e-3, -0.5, -1.0, -3.0]), log_uniform(1e-12, 1e-2),
       log_uniform(1e-15, 1e-3), st.sampled_from(["lo", "hi"]), st.sampled_from([1e-10, 0.0]))
def test_nearly_full_solves_near_a_fill_bound_end_in_typed_errors(levels, c, space, gap,
                                                                    bound, tol):
    """n within 1e-12 to 1e-2 relative of the cap g/|c|, D near a fill bound: a result or an AymError.

    Every sector is then near its cap, where sum n_i flattens in nu, so an
    inner start right of the root can overshoot to where every n_i underflows.
    """
    n = (1.0 - space) * len(levels) / -c
    lo, hi = fill_bounds(levels, n, -1.0 / c)
    D = lo * (1.0 + gap) if bound == "lo" else hi * (1.0 - gap)
    try:
        solve_generalized(EconomyParams(levels, n, D), c, tol=tol)
    except AymError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 3000), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-300, 1e280]))
@example(8193, 1, 1.0)  # past numpy's 8,192-element buffer
@example(100_001, 2, 1.0)
def test_row_sums_of_a_pair_equal_the_one_dimensional_sums(g, seed, scale):
    """The solver sums two per-sector vectors with one reduce over a (2, g) array's
    rows; each row's sum is the bits of the pairwise sum of a fresh 1-D copy."""
    rng = np.random.default_rng(seed)
    pair = scale * np.exp(rng.uniform(-30.0, 30.0, (2, g))) * rng.choice([-1.0, 1.0], (2, g))
    sums = np.add.reduce(pair, 1).tolist()
    assert [s.hex() for s in sums] == [float(np.add.reduce(row.copy())).hex() for row in pair]
