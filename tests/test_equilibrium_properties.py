"""Property tests of the equilibrium solver on random instances.

The domain covers the three occupation forms: Boltzmann (c = 0) up to a
million workers, Bose-like (c > 0) with c n up to 1e3, and Fermi-like
(c < 0) with n up to 95% of the g/|c| capacity and D 5-95% of the way
between the bottom-up and the top-down fill.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym import DomainViolation, EconomyParams, solve_boltzmann, solve_generalized

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
