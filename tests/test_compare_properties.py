"""Property test of compare()'s closed forms against a sum over every sector.

The reference is the O(r) evaluation compare() used to do: both float pmfs on
every sector 1..idx, their maxima and their masked relative gaps.  compare()
evaluates the same float pmfs at a few candidate sectors, so max_abs and
max_rel must match it bit for bit.  Its TV comes from geometric sums, so the
reference TV is summed in long double instead: the float64 sum of the array
loses about r^2 * 1e-16 relative, because q2 = (r-1)/r is rounded once and
then raised to powers up to idx ~ 34.5 r.  For the same reason the reference
aym tail mass q2^idx is taken in long double; compare() evaluates it as
exp(-idx log1p(u)), whose exponent of about 35 carries a few float64 roundings.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym import (asymptotic_ladder_pmf, asymptotic_zero_min_pmf, aym_ladder_pmf, compare,
                 epi_binned_ladder, epi_binned_zero_min)
from aym.discretization_compare import truncation_index

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def brute_force(r, i_max):
    idx = truncation_index(r, i_max)
    i = np.arange(1, idx + 1, dtype=float)
    p_epi = epi_binned_ladder(r, i)
    p_aym = aym_ladder_pmf(r, i)
    diff = np.abs(p_epi - p_aym)
    mask = p_aym >= 1e-12
    # both pmfs from one u, so their ratio carries no separate rounding of q2
    u = 1 / (np.longdouble(r) - 1)
    k = np.arange(1, idx + 1, dtype=np.longdouble)
    gap = np.abs(-np.expm1(-u) * np.exp(-(k - 1) * u) - u * np.exp(-k * np.log1p(u)))
    return {
        "tv": float(gap.sum() / 2),
        "max_abs": float(diff.max()),
        "max_rel": float((diff[mask] / p_aym[mask]).max()),
        "truncation_index": idx,
        "epi_tail_mass": float(math.exp(-idx / (r - 1.0))),
        "aym_tail_mass": float(np.exp(-idx * np.log1p(u))),
    }


# r - 1 log-uniform: r near 1 (large u, direct formulas) as well as r up to
# 1e4 (small u, series).  Below r - 1 = 1e-6 the long-double reference itself
# loses digits: P_aym(1) = 1/r is then within 1e-6 of P_epi(1) = 1.
@PROPERTY_SETTINGS
@given(r_minus_1=st.floats(math.log(1e-6), math.log(1e4 - 1)).map(math.exp), data=st.data())
def test_compare_matches_sum_over_every_sector(r_minus_1, data):
    r = 1.0 + r_minus_1
    i_max = data.draw(st.none() | st.integers(1, truncation_index(r)), label="i_max")
    m = compare(r, i_max)
    ref = brute_force(r, i_max)
    for field in ("max_abs", "max_rel", "truncation_index", "epi_tail_mass"):
        assert getattr(m, field) == ref[field], field
    assert abs(m.aym_tail_mass - ref["aym_tail_mass"]) <= 2e-14 * ref["aym_tail_mass"]
    assert abs(m.tv_distance - ref["tv"]) <= 1e-12 * ref["tv"]


@pytest.mark.parametrize("r", [1.0000000068357737, 1.0000000055508789])
def test_max_abs_next_to_the_stationary_point(r):
    # just above r = 1 the rounding of 1 - 1/r puts the float maximum of
    # |P_epi - P_aym| at sector 2, the sector after the stationary point
    m = compare(r)
    ref = brute_force(r, None)
    assert m.max_abs == ref["max_abs"] > abs(epi_binned_ladder(r, 1) - aym_ladder_pmf(r, 1))
    assert m.max_rel == ref["max_rel"]


@pytest.mark.parametrize("r,analytic,kept", [(117.81371006428542, 2682, 2683),
                                             (3.0599895479448365, 68, 67)])
def test_max_rel_mask_steps_to_the_float_pmf(r, analytic, kept):
    # the analytic count of sectors whose pmf is >= 1e-12 is off by one from the float
    # pmf's count, in each direction: compare() steps the mask's last sector to it
    count = math.floor(math.log(1e-12 * (r - 1.0)) / math.log((r - 1.0) / r))
    assert count == analytic
    assert aym_ladder_pmf(r, kept) >= 1e-12 > aym_ladder_pmf(r, kept + 1)
    assert compare(r).max_rel == brute_force(r, None)["max_rel"]


# each pmf with the floor its ratio must exceed: r > 1, r_tilde > 0
PMFS = [(epi_binned_ladder, 1.0), (epi_binned_zero_min, 0.0), (aym_ladder_pmf, 1.0),
        (asymptotic_ladder_pmf, 1.0), (asymptotic_zero_min_pmf, 0.0)]


@PROPERTY_SETTINGS
@given(pmf=st.sampled_from(PMFS),
       excess=st.floats(math.log(1e-6), math.log(1e9)).map(math.exp),
       i=st.lists(st.integers(1, 10**7) | st.floats(1.0, 1e7), min_size=1, max_size=8))
def test_a_scalar_a_list_and_an_array_entry_give_one_float(pmf, excess, i):
    # one kernel per pmf: a list or an array maps the scalar kernel over its entries
    func, floor = pmf
    ratio = floor + excess
    scalars = [func(ratio, x) for x in i]
    assert all(type(value) is float for value in scalars)
    assert [func(ratio, np.float64(x)) for x in i] == scalars
    assert [func(ratio, np.asarray(x, dtype=float)) for x in i] == scalars  # 0-d arrays
    assert func(ratio, i).tolist() == scalars
    assert func(ratio, np.asarray(i, dtype=float)).tolist() == scalars
    column = func(ratio, np.asarray(i, dtype=float)[:, None])
    assert column.shape == (len(i), 1) and column.ravel().tolist() == scalars
