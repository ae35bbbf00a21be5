import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from aym import (
    DomainError,
    asymptotic_ladder_pmf,
    asymptotic_zero_min_pmf,
    aym_ladder_pmf,
    compare,
    compare_sweep_csv,
    epi_binned_ladder,
    epi_binned_zero_min,
    make,
)
from aym.discretization_compare import truncation_index

# frozen golden values, computed by direct evaluation of the exact pmf pair
TV_GOLDEN = {
    10.0: 0.019541047828557333,
    100.0: 0.0018501964782841598,
    1000.0: 0.00018404708778072093,
}
LADDER_ASYMPTOTIC_GAP_R100 = 0.027165828250976055  # max over i <= 100

# (r, i_max) pairs that must raise DomainError, never an untyped exception
BAD_COMPARE_INPUTS = {
    "r-inf": (math.inf, None),
    "r-nan": (math.nan, None),
    "r-1e17": (1e17, None),  # r/(r-1) rounds to 1 in float64
    "r-1e20": (1e20, None),
    "i-max-zero": (10.0, 0),
    "i-max-negative": (10.0, -3),
}


def tv_decimal(r, idx):
    """0.5 sum_{i<=idx} |P_epi(i) - P_aym(i)| from geometric partial sums at 50 digits.

    P_epi(i) = (1-q1) q1^(i-1), q1 = exp(-1/(r-1)); P_aym(i) = (1-q2) q2^(i-1),
    q2 = (r-1)/r.  The sum of the differences over i <= k is q2^k - q1^k, and
    the differences are >= 0 exactly up to the crossing index k.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        r = Decimal(r)
        q1 = (-1 / (r - 1)).exp()
        q2 = (r - 1) / r
        crossing = 1 + ((1 - q1) / (1 - q2)).ln() / (q2 / q1).ln()
        k = min(idx, int(crossing))
        return (q2 ** k - q1 ** k) - (q2 ** idx - q1 ** idx) / 2


def test_binned_ladder_values():
    assert epi_binned_ladder(2.0, 1) == pytest.approx(0.6321205588285577, rel=1e-12)
    assert epi_binned_ladder(2.0, 2) == pytest.approx(0.23254415793482963, rel=1e-12)


def test_binned_ladder_normalizes():
    r = 2.0
    i = np.arange(1, 200)
    total = epi_binned_ladder(r, i).sum()
    tail = math.exp(-199.0 / (r - 1.0))
    assert total + tail == pytest.approx(1.0, abs=1e-12)


def test_binned_zero_min_values():
    exact = epi_binned_zero_min(10.0, 1)
    assert exact == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)
    assert exact == pytest.approx(0.09516258196404043, rel=1e-12)


def test_binned_zero_min_normalizes():
    rt = 10.0
    i = np.arange(1, 400)
    total = epi_binned_zero_min(rt, i).sum()
    tail = math.exp(-399.0 / rt)
    assert total + tail == pytest.approx(1.0, abs=1e-12)


def test_zero_min_close_to_asymptotic_at_moderate_ratio():
    exact = epi_binned_zero_min(10.0, 1)
    approx = asymptotic_zero_min_pmf(10.0, 1)
    assert approx == pytest.approx(0.09500792889377575, rel=1e-12)
    gap = abs(exact - approx) / exact
    assert gap == pytest.approx(0.0016251457986199566, rel=1e-9)
    assert gap < 0.002


def test_discrete_pmf_values():
    assert aym_ladder_pmf(2.0, 1) == pytest.approx(0.5, rel=1e-14)
    assert aym_ladder_pmf(100.0, 1) == pytest.approx(0.01, rel=1e-12)


def test_discrete_pmf_normalizes():
    r = 2.0
    i = np.arange(1, 200)
    total = aym_ladder_pmf(r, i).sum()
    tail = ((r - 1.0) / r) ** 199
    assert total + tail == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("func", [epi_binned_ladder, aym_ladder_pmf, asymptotic_ladder_pmf])
def test_ladder_forms_reject_r_at_most_one(func):
    with pytest.raises(DomainError):
        func(1.0, 1)


def test_zero_min_forms_reject_nonpositive_ratio():
    with pytest.raises(DomainError):
        epi_binned_zero_min(0.0, 1)
    with pytest.raises(DomainError):
        asymptotic_zero_min_pmf(-1.0, 1)


def test_all_families_strictly_decreasing():
    i = np.arange(1, 60)
    for values in (
        epi_binned_ladder(5.0, i),
        epi_binned_zero_min(5.0, i),
        aym_ladder_pmf(5.0, i),
        asymptotic_zero_min_pmf(5.0, i),
        asymptotic_ladder_pmf(5.0, i),
    ):
        assert np.all(np.diff(values) < 0)


def test_asymptotic_zero_min_value():
    assert asymptotic_zero_min_pmf(100.0, 1) == pytest.approx(
        0.01005 * math.exp(-0.01), rel=1e-12)


def test_asymptotic_zero_min_gap_tiny_at_large_ratio():
    rt = 1000.0
    i = np.arange(1, 20001)
    exact = epi_binned_zero_min(rt, i)
    approx = asymptotic_zero_min_pmf(rt, i)
    max_gap = np.max(np.abs(exact - approx) / exact)
    # bracket ratio error is (1/rt)^2/6, constant in i
    assert max_gap == pytest.approx(1.6662500147869525e-07, rel=1e-6)
    assert max_gap < 1e-5


def test_asymptotic_ladder_gap_profile():
    # the constant +1/r term stops decaying, so the relative gap grows with i:
    # small near the head of the distribution, percent-level by i ~ r
    r = 100.0
    i = np.arange(1, 101)
    exact = epi_binned_ladder(r, i)
    approx = asymptotic_ladder_pmf(r, i)
    gaps = np.abs(exact - approx) / exact
    assert gaps[0] < 1e-3
    assert float(gaps.max()) == pytest.approx(LADDER_ASYMPTOTIC_GAP_R100, rel=1e-9)


@pytest.mark.parametrize("r,golden", sorted(TV_GOLDEN.items()))
def test_tv_distance_golden_values(r, golden):
    assert compare(r).tv_distance == pytest.approx(golden, rel=1e-9)


@pytest.mark.parametrize("r", [1e4, 1e5, 1e6, 1e8, 1e12])
def test_tv_distance_matches_decimal_reference(r):
    m = compare(r)
    expected = tv_decimal(r, m.truncation_index)
    assert abs(Decimal(m.tv_distance) - expected) <= Decimal("1e-12") * expected


def test_compare_far_beyond_array_sizes():
    # 3.5e13 sectors: an array per pmf would need 276 TB
    m = compare(1e12)
    assert m.truncation_index == truncation_index(1e12) > 3e13
    assert m.epi_tail_mass <= 1e-15
    assert m.aym_tail_mass <= 1e-15
    assert 0.0 < m.max_abs < m.tv_distance < 1e-12
    assert math.isfinite(m.max_rel)


@pytest.mark.parametrize("r", [1e4, 3.3e5, 1e6, 2.7e7, 1e8, 1e9, 4.4e10, 1e11, 1e12])
def test_aym_truncation_sits_17_to_18_sectors_above_epi(r):
    # cut/log(1 + 1/(r-1)) = cut (r - 1) + cut/2 - O(1/r) with cut/2 = 17.3, so
    # the aym index exceeds the epi index by 17 or 18 at every r
    cut = -math.log(1e-15)
    idx_epi = math.ceil(cut * (r - 1.0))
    assert 17 <= truncation_index(r) - idx_epi <= 18


@pytest.mark.parametrize("r,i_max", list(BAD_COMPARE_INPUTS.values()), ids=list(BAD_COMPARE_INPUTS))
def test_compare_rejects_bad_input(r, i_max):
    with pytest.raises(DomainError):
        truncation_index(r, i_max)
    with pytest.raises(DomainError):
        compare(r, i_max)


def test_tv_distance_scales_inversely_with_r():
    tv10 = compare(10.0).tv_distance
    tv100 = compare(100.0).tv_distance
    tv1000 = compare(1000.0).tv_distance
    assert 8.0 <= tv10 / tv100 <= 12.0
    assert 8.0 <= tv100 / tv1000 <= 12.0


def test_compared_pmfs_sum_to_one_before_truncation():
    for r in (2.0, 10.0, 100.0):
        m = compare(r)
        i = np.arange(1, m.truncation_index + 1)
        assert epi_binned_ladder(r, i).sum() + m.epi_tail_mass == pytest.approx(1.0, abs=1e-12)
        assert aym_ladder_pmf(r, i).sum() + m.aym_tail_mass == pytest.approx(1.0, abs=1e-12)
        assert m.epi_tail_mass < 1e-14
        assert m.aym_tail_mass < 1e-14


def test_first_order_agreement_improves_with_r():
    scaled = [r * compare(r).max_abs for r in (10.0, 100.0, 1000.0)]
    assert scaled[0] > scaled[1] > scaled[2]


def test_truncation_index_honors_cap():
    assert truncation_index(10.0, i_max=50) == 50
    full = truncation_index(10.0)
    assert full > 50
    m = compare(10.0, i_max=50)
    assert m.truncation_index == 50
    assert m.epi_tail_mass > 1e-14  # the discarded mass is reported, not hidden


def test_binned_ladder_consistent_with_direct_tail_integral():
    a0 = 1.0
    for r in (2.0, 10.0, 100.0):
        dist = make(r * a0, a0)
        for i in range(1, 51):
            direct = dist.tail(i * a0) - dist.tail((i + 1) * a0)
            assert epi_binned_ladder(r, i) == pytest.approx(direct, rel=1e-12)


def test_sweep_csv_sorted_and_parsable():
    text = compare_sweep_csv([100.0, 10.0, 1000.0])
    lines = text.strip().split("\n")
    assert lines[0] == "r,tv,max_abs,max_rel"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in rows] == [10.0, 100.0, 1000.0]
    for row, r in zip(rows, (10.0, 100.0, 1000.0)):
        assert float(row[1]) == pytest.approx(TV_GOLDEN[r], rel=1e-9)
