"""Bin the continuous law into sectors and compare with the discrete ladder pmf.

Two binnings are supported, matching the two ways a sector index i >= 1 can
be read off the productivity axis:

  * ladder bins [i*a0, (i+1)*a0) of width a0 (minimal productivity), giving
    P(i) = (1 - e^{-1/(r-1)}) e^{-(i-1)/(r-1)} with r = (D/n)/a0;
  * zero-minimum bins [(i-1)*da, i*da) of width da when a0 = 0, giving
    P(i) = (e^{1/rt} - 1) e^{-i/rt} with rt = (D/n)/da.

The off-by-one between the two conventions is deliberate and preserved.
The discrete ladder pmf is P(i) = (1/(r-1)) ((r-1)/r)^i; both families are
geometric and agree to first order in 1/r.

Each pmf is one kernel on Python floats (math.exp, math.expm1, float **).  A
scalar i returns the kernel's float; a list or an array i imports numpy and
maps the same kernel over its entries, so an entry has the bits of the scalar
call.  compare() evaluates its few candidate sectors as scalars and never
loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .model_core import _as_int, _check_ratio, _csv_text

_TAIL_THRESHOLD = 1e-15  # truncate where both analytic tails drop below this
_REL_FLOOR = 1e-12  # max_rel skips sectors whose discrete pmf is below this


def _at(kernel, ratio: float, i):
    """kernel(ratio, float(i)) as a Python float for a scalar i.  For a list or an array
    i, numpy is imported here and the result is a float array of i's shape, the same
    kernel on each entry, so an entry gives the bits of the scalar call."""
    ratio = float(ratio)
    if isinstance(i, (int, float)) or getattr(i, "ndim", None) == 0:
        return kernel(ratio, float(i))
    import numpy as np

    i_arr = np.asarray(i, dtype=float)
    if i_arr.ndim == 0:  # a scalar of another type, such as a Fraction
        return kernel(ratio, float(i_arr))
    return np.array([kernel(ratio, x) for x in i_arr.ravel().tolist()]).reshape(i_arr.shape)


def _epi_ladder(r: float, x: float) -> float:
    return -math.expm1(-1.0 / (r - 1.0)) * math.exp(-(x - 1.0) / (r - 1.0))


def _epi_zero_min(r_tilde: float, x: float) -> float:
    return math.expm1(1.0 / r_tilde) * math.exp(-x / r_tilde)


def _aym_ladder(r: float, x: float) -> float:
    return (1.0 / (r - 1.0)) * ((r - 1.0) / r) ** x


def _asymptotic_ladder(r: float, x: float) -> float:
    return (1.0 / r + 1.0 / (2.0 * r * r)) * (math.exp(-x / r) + 1.0 / r)


def _asymptotic_zero_min(r_tilde: float, x: float) -> float:
    return (1.0 / r_tilde + 1.0 / (2.0 * r_tilde * r_tilde)) * math.exp(-x / r_tilde)


def epi_binned_ladder(r: float, i):
    """Mass of the continuous law in ladder bin i (width a0), i >= 1."""
    _check_ratio(r)
    return _at(_epi_ladder, r, i)


def epi_binned_zero_min(r_tilde: float, i):
    """Mass of the zero-minimum law in bin i (width da), i >= 1."""
    _check_ratio(r_tilde, 0.0, "r_tilde")
    return _at(_epi_zero_min, r_tilde, i)


def aym_ladder_pmf(r: float, i):
    """Probability a random worker sits on ladder rung i in the discrete solution."""
    _check_ratio(r)
    return _at(_aym_ladder, r, i)


def asymptotic_ladder_pmf(r: float, i):
    """Large-r form of the binned ladder mass: (1/r + 1/(2r^2)) (e^{-i/r} + 1/r)."""
    _check_ratio(r)
    return _at(_asymptotic_ladder, r, i)


def asymptotic_zero_min_pmf(r_tilde: float, i):
    """Large-rt form of the zero-minimum mass: (1/rt + 1/(2rt^2)) e^{-i/rt}."""
    _check_ratio(r_tilde, 0.0, "r_tilde")
    return _at(_asymptotic_zero_min, r_tilde, i)


@dataclass(frozen=True)
class ComparisonMetrics:
    """Distance between the binned continuous law and the discrete ladder pmf.

    tv_distance is half the L1 gap over sectors 1..truncation_index;
    max_rel only counts sectors where the discrete pmf is >= 1e-12, and is
    nan when none is (r above about 1e12).  The analytic tail masses beyond
    the truncation are reported, never dropped silently.
    """

    tv_distance: float
    max_abs: float
    max_rel: float
    truncation_index: int
    epi_tail_mass: float
    aym_tail_mass: float


def truncation_index(r: float, i_max: int | None = None) -> int:
    """Smallest index whose analytic tails are both below the 1e-15 threshold."""
    _check_ratio(r)
    if r / (r - 1.0) == 1.0:
        raise DomainError(f"demand ratio {r} is too large: r/(r-1) rounds to 1 in float64 "
                          "(r must stay below about 9e15)")
    cut = -math.log(_TAIL_THRESHOLD)
    idx_epi = math.ceil(cut * (r - 1.0))
    # log(r/(r-1)) through log1p: rounding the ratio first loses digits from r ~ 1e6
    log_ratio = math.log1p(1.0 / (r - 1.0))
    idx = max(idx_epi, math.ceil(cut / log_ratio), 1)
    # the closed forms round; step on until both tails, as compare() reports them, are below
    while max(math.exp(-idx / (r - 1.0)), math.exp(-idx * log_ratio)) > _TAIL_THRESHOLD:
        idx += 1
    if i_max is not None:
        i_max = _as_int(i_max, "i_max")
        if i_max < 1:
            raise DomainError(f"i_max must be at least 1, got {i_max}")
        idx = min(idx, i_max)
    return idx


def _u_minus_log1p(u: float) -> float:
    """u - log1p(u) for u > 0, by its Taylor series where subtraction cancels."""
    if u >= 0.25:
        return u - math.log1p(u)
    return math.fsum((-u) ** n / n for n in range(2, 40))


def _log_mean_decay(u: float) -> float:
    """log((1 - e^{-u}) / u), the log of the mean of e^{-x} over [0, u], for u > 0."""
    if u >= 0.01:
        return math.log(-math.expm1(-u) / u)
    return -u / 2.0 + u * u / 24.0 - u ** 4 / 2880.0  # Taylor series: the log cancels


def compare(r: float, i_max: int | None = None) -> ComparisonMetrics:
    """Metrics between the binned continuous masses and the discrete pmf.

    Both pmfs are geometric on i >= 1: P_epi(i) = (1 - q1) q1^(i-1) with
    q1 = e^{-u}, u = 1/(r-1), and P_aym(i) = (1 - q2) q2^(i-1) with
    q2 = 1/(1+u) > q1.  Their difference changes sign once, at the crossing
    c = 1 + L/g with L = log(P_epi(1)/P_aym(1)) and g = log(q2/q1), so every
    metric is a closed form or an extremum at a few candidate sectors, and
    the cost does not grow with r:

      * the head sum sum_{i<=k} (P_epi - P_aym) = q2^k - q1^k is largest at
        k = floor(c), and tv = head(k) - head(idx)/2;
      * |P_epi - P_aym| falls from i = 1 to a minimum of the difference next
        to its stationary point x* = c - log1p(-g/u)/g, then rises towards 0,
        so it peaks at i = 1, at idx or next to x*;
      * the relative gap |P_epi/P_aym - 1| is monotone on each side of c, so
        it peaks at i = 1 or at the last sector whose discrete pmf is still
        >= 1e-12.

    max_abs and max_rel evaluate the float pmfs at those candidates, so they
    equal the maxima over all sectors 1..idx taken with the same float pmfs.
    """
    idx = truncation_index(r, i_max)
    r = float(r)
    u = 1.0 / (r - 1.0)
    g = _u_minus_log1p(u)
    crossing = 1.0 + (math.log1p(u) + _log_mean_decay(u)) / g

    def head(k):  # q2^k (1 - e^{-k g}) = q2^k - q1^k without overflow or cancellation
        return math.exp(-k * math.log1p(u)) * -math.expm1(-k * g)

    k = max(1, min(idx, math.floor(crossing)))
    stationary = math.floor(crossing - math.log1p(-g / u) / g)
    sectors = (1, idx, min(max(stationary, 1), idx), min(stationary + 1, idx))
    max_abs = max(abs(_epi_ladder(r, x) - _aym_ladder(r, x)) for x in sectors)

    # last sector of the max_rel mask: the analytic count for the float base
    # (r-1)/r, then a step or two on the float pmf itself so the mask is the same
    last = math.floor(math.log(_REL_FLOOR * (r - 1.0)) / math.log((r - 1.0) / r))
    last = max(0, min(idx, last))
    while last < idx and _aym_ladder(r, last + 1) >= _REL_FLOOR:
        last += 1
    while last >= 1 and _aym_ladder(r, last) < _REL_FLOOR:
        last -= 1

    def rel(x):  # |P_epi - P_aym| / P_aym at sector x
        p_aym = _aym_ladder(r, x)
        return abs(_epi_ladder(r, x) - p_aym) / p_aym

    max_rel = max(rel(1), rel(last)) if last else math.nan

    return ComparisonMetrics(
        tv_distance=head(k) - head(idx) / 2.0,
        max_abs=max_abs,
        max_rel=max_rel,
        truncation_index=idx,
        epi_tail_mass=math.exp(-idx / (r - 1.0)),
        aym_tail_mass=math.exp(-idx * math.log1p(u)),
    )


def compare_sweep_csv(r_values, i_max: int | None = None) -> str:
    """CSV sweep of compare() over r values, sorted ascending."""
    rs = sorted(float(r) for r in r_values)
    metrics = [compare(r, i_max) for r in rs]
    return _csv_text(("r", "tv", "max_abs", "max_rel"),
                     (rs, [m.tv_distance for m in metrics], [m.max_abs for m in metrics],
                      [m.max_rel for m in metrics]), ("%.17g",) * 4)
