"""Equilibrium solves pinned bit for bit: every multiplier, occupation and residual.

golden_solves.json holds 218 solves over c in {0, +-1e-6, +-0.5, +-1,
2}: seeded ones at g from 2 to 40, n from 1e-2 to 1e7 and tol 1e-10 and 0,
Boltzmann solves at g 100 to 200, plus c < 0 instances with D within 1e-12
to 1e-6 relative of a fill bound, instances one ulp either side of a fill
bound, and short iteration budgets.  Each case stores the hex of nu, beta, every occupation and both
residuals, or the error type and message.
The first 191 cases were recorded by running this module as a script on
commit dab49db, before the solver core lost its per-step numpy wrappers and
its Fraction fill bounds:

    PYTHONPATH=src python tests/test_golden_solves.py tests/golden_solves.json

The last 23 cases were recorded the same way on commit 764167f, before the
solver summed its per-sector terms in pairs and took the c = 0 inner root in
closed form: 20 Boltzmann solves at g 100 to 200 and n 10 to 1e6, the sizes
the benchmark solves, and 3 c = 0 instances where rounding leaves the closed
form outside its floor, so the inner solve iterates.  The earlier cases
were left as recorded.

Every c != 0 case was then re-recorded the same way, after commit 3d17e62,
once each inner solve started on the tangent of its root in beta, measured
from that predicted root, instead of at the c = 0 root: 160
successes moved in their last bits, case 188 (max_iter 3) kept its error
with a new distance in its message, and the four near-bound c < 0 cases
that ended in NoConvergence (163, 164, 174 and 175) now converge.  The 44
c = 0 cases and every DomainViolation and InfeasibleDemand case kept their
bits.  Two c < 0 cases with budgets too short for the first inner solve
(max_iter 1 and 3) were added at the end, recorded the same way; they end
as they did before that change.

Every case was then re-recorded the same way, after commit 59d5ba6, once
the c = 0 outer solve read its steps from the moments of one exponential
vector, every outer solve took Halley steps, and the beta = 0 inner solve
for c != 0 started at its exact root: 206 successes moved in their last
bits, 41 of them at c = 0.  No case changed its ending or error type; three
NoConvergence messages changed (188, 214, 215), and the first inner solve of
214 now meets its floor, so its budget of 1 runs out in the outer solve.
The 3 c = 0 cases above whose closed form missed its floor no longer
iterate, so 2 more that do were added at the end, recorded the same way.

Every case was then re-recorded the same way, after commit 934685e, once
the c = 0 outer solve formed the occupations n u_i / S_0 from the
exponentials of its last step, in place of a closed-form inner root
1/exp(d_i - t0) that rounded each exponent to an ulp of t0 ~ ln(n/g): the
45 c = 0 successes moved in their last bits, and no case changed its
ending or error type.  Every c != 0, DomainViolation and InfeasibleDemand
case kept its bits.  Cases 211-213, 216 and 217 stay, though no c = 0
solve iterates on its occupations any more.

Rerunning the script on later code only shows what that code does; the
pinned file is the reference.  Every pinned success must also meet the
solver's documented stop rule, checked with exact sums of its occupations,
and so must every solve of a derandomized hypothesis sweep over g, n, c,
tol and D/n near either end of its range.
"""

import json
import math
import random
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aym import (AymError, DomainError, DomainViolation, EconomyParams, InfeasibleDemand,
                 solve_generalized)

GOLDEN_PATH = Path(__file__).parent / "golden_solves.json"
FORMS = (0.0, 1e-6, -1e-6, 0.5, -0.5, 1.0, -1.0, 2.0)


def fill_bounds(levels, n, c):
    """Bottom-up and top-down fill outputs at cap = 1/|c| per sector, rounded once per term."""
    cap = -1.0 / c
    filled = [0.0] + [min(n, cap * k) for k in range(1, len(levels) + 1)]
    fill = [after - before for before, after in zip(filled, filled[1:])]
    return (sum(map(float.__mul__, levels, fill)),
            sum(map(float.__mul__, levels[::-1], fill)))


def random_ladder(rng, g):
    """g rising levels: the first in [0, 5], then gaps of 0.05 to 3, rounded to 3 decimals."""
    levels = [round(rng.uniform(0.0, 5.0), 3)]
    for _ in range(g - 1):
        levels.append(round(levels[-1] + rng.uniform(0.05, 3.0), 3))
    return levels


def _cases():
    """The seeded inputs: (levels, n, D, c, tol, max_iter)."""
    rng = random.Random(20261019)

    def ladder(g=None):
        return random_ladder(rng, g or round(math.exp(rng.uniform(math.log(2), math.log(40)))))

    for k in range(160):
        c = FORMS[k % len(FORMS)]
        levels = ladder(40 if k in (0, 3, 6) else None)
        tol = (1e-10, 0.0)[k // len(FORMS) % 2]
        if c < 0:
            n = min(1e7, rng.uniform(0.05, 0.97) * len(levels) / -c)
            lo, hi = fill_bounds(levels, n, c)
        else:
            n = math.exp(rng.uniform(math.log(1e-2), math.log(1e7)))
            lo, hi = levels[0] * n, levels[-1] * n
        yield levels, n, lo + rng.uniform(0.02, 0.98) * (hi - lo), c, tol, 200
    for k in range(24):  # D within 1e-12..1e-6 relative of a fill bound, inside it
        c = (-0.5, -1.0)[k % 2]
        levels = ladder()
        n = rng.uniform(0.3, 0.97) * len(levels) / -c
        lo, hi = fill_bounds(levels, n, c)
        gap = math.exp(rng.uniform(math.log(1e-12), math.log(1e-6)))
        D = lo * (1 + gap) if k % 4 < 2 else hi * (1 - gap)
        yield levels, n, D, c, (1e-10, 0.0)[k // 2 % 2], 200
    # the exact fill bound of 1,2,3 / n 2 / c -1 and one ulp either side of it
    for D in (math.nextafter(5.0, 0.0), 5.0, math.nextafter(5.0, 6.0)):
        yield [1.0, 2.0, 3.0], 2.0, D, -1.0, 1e-10, 200
    for max_iter in (1, 3):  # budgets too short for the outer and the inner solve
        yield [1.0, 2.5, 4.0, 7.5], 1e4, 3.1e4, 0.5, 0.0, max_iter
    yield [1.0, 2.0, 3.0], 6.0, 21.0, 0.0, 1e-10, 200  # D/n on the hull: InfeasibleDemand
    yield [1.0, 2.0, 3.0], 100.0, 200.0, -1.0, 1e-10, 200  # n past g cap: DomainViolation
    for k in range(20):  # Boltzmann at the benchmark's sizes: g 100-200, n 10-1e6
        levels = ladder(rng.randint(100, 200))
        n = math.exp(rng.uniform(math.log(10), math.log(1e6)))
        D = n * (levels[0] + rng.uniform(0.05, 0.95) * (levels[-1] - levels[0]))
        yield levels, n, D, 0.0, (1e-10, 0.0)[k % 2], 200
    # c = 0 instances where a closed-form inner root 1/exp(d_i - t0) left sum n_i outside
    # its floor by rounding, so that inner solve iterated; they pin the occupations
    # n u_i / S_0, which meet that floor without iterating, at n near 5e7
    yield [23.278, 26.905, 27.23], 53607079.36633014, 1395192582.941803, 0.0, 1e-10, 200
    yield [7.027, 8.659], 54940953.10577492, 412180002.37743855, 0.0, 0.0, 200
    yield [25.614, 26.79], 65295927.1413028, 1723479745.041852, 0.0, 1e-10, 200
    for max_iter in (1, 3):  # a c < 0 budget too short for the first inner solve
        yield [1.0, 2.5, 4.0, 7.5], 3.0, 10.0, -1.0, 0.0, max_iter
    # c = 0 instances where that closed form missed its floor once the outer steps were
    # taken from moments; they pin the same as the three above, at other betas
    yield [17.816, 19.535], 63587725.12479198, 1173275328.012062, 0.0, 1e-10, 200
    yield [14.308, 14.718], 17513512.005855415, 253808260.11958852, 0.0, 0.0, 200


def _hex(x):
    return float.hex(float(x))


def _outcome(levels, n, D, c, tol, max_iter):
    try:
        sol = solve_generalized(EconomyParams(tuple(levels), n, D), c, tol=tol, max_iter=max_iter)
    except AymError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"nu": _hex(sol.multipliers.nu), "beta": _hex(sol.multipliers.beta),
            "occupations": [_hex(x) for x in sol.occupations],
            "residuals": [_hex(x) for x in sol.residuals]}


def _record(path):
    cases = [[*case, _outcome(*case)] for case in _cases()]
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    Path(path).write_text(f"[\n{lines}\n]\n", encoding="utf-8")


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k:03d}-c={case[3]}-g={len(case[0])}"
                                               for k, case in enumerate(GOLDEN)])
def test_solve_matches_golden_bit_for_bit(case):
    *args, outcome = case
    assert _outcome(*args) == outcome


def assert_meets_the_stop_rule(levels, n, D, c, tol, occ, beta):
    """|sum n_i - n| <= 4 eps g n and |sum a_i n_i - D| <= max(tol, 4 eps (g D + |beta| V)).

    The sums are exact sums of the occupations.  V = sum w_i (a_i - m_w)^2 is
    recomputed here, so its floor gets 1% for the rounding of V.  V is taken
    on the levels divided by a power of two near the top level, so that it
    neither overflows nor underflows at any level scale; |beta| V is then
    (|beta| unit) V_unit unit.
    """
    g, eps = len(levels), sys.float_info.epsilon
    unit = math.ldexp(1.0, min(math.frexp(levels[-1])[1], 1023))  # 2**1024 is no float
    scaled = [a / unit for a in levels]
    w = [x + c * x * x for x in occ]
    m_w = math.fsum(map(mul, scaled, w)) / math.fsum(w)
    V = math.fsum(wi * (a - m_w) ** 2 for a, wi in zip(scaled, w))
    N = sum(map(Fraction, occ))
    M = sum(map(mul, map(Fraction, levels), map(Fraction, occ)))
    assert abs(N - Fraction(n)) <= 4 * eps * g * n
    # 4 eps g D, not g D, is a float at any finite D
    assert abs(M - Fraction(D)) <= max(tol, 1.01 * (4 * eps * g * D + 4 * eps * abs(beta) * unit * V * unit))


def close_to_one(levels):
    """1 + 1e-9 a for each level a: within 1e-6 relative of each other, for a ladder below 1000."""
    return [1.0 + 1e-9 * a for a in levels]


def level_scales(levels, n, D, tol):
    """(lo, hi): for lo <= k <= hi, 2**k times every nonzero level, D, D/n, tol and the
    floor 4 eps g D is a normal float, and so is 2**k g max(levels[-1], D), or 2**k times
    the largest float if g max(levels[-1], D) passes it.  2**k times the smallest level gap
    is at least 2**22 times the smallest normal float, so beta, of order 1 over it, is a
    float unless beta times the gap passes 2**22."""
    g, tiny, huge = len(levels), sys.float_info.min, sys.float_info.max
    gap = min(b - a for a, b in zip(levels, levels[1:])) * 2.0 ** -22
    small = min(x for x in (*levels, D, D / n, tol, 4 * sys.float_info.epsilon * g * D, gap)
                if x > 0)
    return math.frexp(tiny / small)[1], math.frexp(huge / min(g * max(levels[-1], D), huge))[1] - 1


def scaled_by(k, levels, D, tol):
    """levels, D and tol times 2**k."""
    return [math.ldexp(a, k) for a in levels], math.ldexp(D, k), math.ldexp(tol, k)


SUCCESSES = [(k, case) for k, case in enumerate(GOLDEN) if "error" not in case[-1]]


@pytest.mark.parametrize("case", [case for _, case in SUCCESSES],
                         ids=[f"{k:03d}-c={case[3]}-g={len(case[0])}" for k, case in SUCCESSES])
def test_pinned_success_meets_the_stop_rule(case):
    levels, n, D, c, tol, _, outcome = case
    assert_meets_the_stop_rule(levels, n, D, c, tol,
                               [float.fromhex(x) for x in outcome["occupations"]],
                               float.fromhex(outcome["beta"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(g=st.integers(2, 300), ladder_seed=st.integers(0, 2 ** 32 - 1),
       n=st.floats(math.log(1e-2), math.log(1e8)).map(math.exp), share=st.floats(0.02, 0.97),
       where=st.sampled_from(("bottom", "middle", "top")),
       gap=st.floats(math.log(1e-15), math.log(1e-12)).map(math.exp), middle=st.floats(0.25, 0.75),
       c=st.sampled_from((0.0, 1e-6, -1e-6, 0.5, -0.5, 1.0, 2.0)),
       tol=st.sampled_from((1e-10, 0.0)),
       boltzmann_n=st.floats(math.log(1e-2), math.log(1e307)).map(math.exp),
       close=st.booleans(), level_scale=st.floats(0.0, 1.0))
# a close ladder at n near 1e307, where g D over the hull's width passes the largest float
@example(g=2, ladder_seed=0, n=1.0, share=0.5, where="middle", gap=1e-12, middle=0.5, c=0.0,
         tol=1e-10, boltzmann_n=1e307, close=True, level_scale=0.5)
@example(g=40, ladder_seed=1, n=1.0, share=0.5, where="top", gap=1e-12, middle=0.5, c=0.0,
         tol=0.0, boltzmann_n=1e307, close=True, level_scale=1.0)
def test_every_solve_meets_the_stop_rule(g, ladder_seed, n, share, where, gap, middle, c, tol,
                                         boltzmann_n, close, level_scale):
    """Random solves, D/n within 1e-12 of an end of its range or well inside it, all succeed.

    For c >= 0 a close ladder is squeezed against 1 (close_to_one).  For c < 0 n is at
    most share * g/|c| and the range of D is between the fills; there the ladder is not
    squeezed, since D within gap of a fill bound of a close ladder rounds onto it, and
    the exact fill sums may exclude it.  c = 0 takes n up to 1e307 over the top level
    (boltzmann_n), so that D reaches 1e307 and g D, or g D over the hull's width, may
    pass the largest float; c != 0 keeps n below 1e8, since c n^2 must be finite.  The
    levels, D and tol are then scaled by 2**k, k level_scale of the way across
    level_scales.
    """
    levels = random_ladder(random.Random(ladder_seed), g)
    if c >= 0 and close:
        levels = close_to_one(levels)
    if c == 0:
        n = boltzmann_n / levels[-1]
    if c < 0:
        n = min(n, share * g / -c)
        lo, hi = fill_bounds(levels, n, c)
    else:
        lo, hi = levels[0] * n, levels[-1] * n
    D = lo + {"bottom": gap, "middle": middle, "top": 1.0 - gap}[where] * (hi - lo)
    k_lo, k_hi = level_scales(levels, n, D, tol)
    levels, D, tol = scaled_by(k_lo + round(level_scale * (k_hi - k_lo)), levels, D, tol)
    params = EconomyParams(tuple(levels), n, D)
    if not levels[0] < D / n < levels[-1]:  # rounded onto the hull
        with pytest.raises(InfeasibleDemand):
            solve_generalized(params, c, tol=tol)
        return
    sol = solve_generalized(params, c, tol=tol)
    assert_meets_the_stop_rule(levels, n, D, c, tol, sol.occupations, sol.multipliers.beta)


@pytest.mark.parametrize("tol", [1e-10, 0.0])
@pytest.mark.parametrize("levels,n,D", [
    # a closed-form inner root 1/exp(d_i - t0) rounded each exponent to an ulp of
    # t0 ~ ln(n/g), so sum a_i n_i jittered by more than its floor between adjacent
    # betas and these ended in NoConvergence
    ((0.5, 1.7, 2.2, 6.1), 1e30, 1e30 * (0.5 + 0.37 * 5.6)),
    ((0.5, 1.7, 2.2, 6.1), 1e60, 1e60 * (0.5 + 0.37 * 5.6)),
    ((0.0, 1.0, 2.0), 1e58, 1e58 * (0.37 * 2.0)),
    ((0.0, 1.0, 2.0), 1e60, 1e60 * (0.37 * 2.0)),
    # returned by that closed form with an exact |sum n_i - n| of 1.018 floor_n
    ((1.845, 2.398, 8.682), 1e66, 3.1514588567733728e+66),
])
def test_large_n_boltzmann_solves_meet_the_stop_rule(levels, n, D, tol):
    sol = solve_generalized(EconomyParams(levels, n, D), 0.0, tol=tol)
    assert_meets_the_stop_rule(levels, n, D, 0.0, tol, sol.occupations, sol.multipliers.beta)


@pytest.mark.parametrize("tol", [1e-10, 0.0])
@pytest.mark.parametrize("c", [0.0, 0.5, -0.5])
@pytest.mark.parametrize("levels,n,D", [
    # V ~ n (1e-300)^2 underflowed, and every outer step doubled beta from 0 until
    # NoConvergence, while the root is of order 1e300
    ((1e-300, 2e-300, 3e-300), 3.0, 5e-300),
    # c = 0 ended in NoConvergence and c != 0 in a RuntimeWarning from overflowing moments
    ((1e200, 2e200, 3e200), 3.0, 5e200),
    ((1e300, 2e300, 3e300), 3.0, 5e300),
])
def test_solves_at_extreme_level_scales_meet_the_stop_rule(levels, n, D, c, tol):
    sol = solve_generalized(EconomyParams(levels, n, D), c, tol=tol)
    assert_meets_the_stop_rule(levels, n, D, c, tol, sol.occupations, sol.multipliers.beta)


@pytest.mark.parametrize("tol", [1e-10, 0.0])
@pytest.mark.parametrize("c", [0.0, 1e-310, -1e-310])
@pytest.mark.parametrize("levels,n,D", [
    # in units of the hull's width around D/n, 2**-31, g D overflowed, so the first outer
    # evaluation met an infinite floor and returned beta = 0 with a D residual of 2e289
    ((1.0, 1.000000001), 5e298, 5.0000000005e298),
    # in units of the top level, 0.5, D is 1.3e308 and g D overflowed
    ((0.3, 0.45), 1.5e308, 0.66e308),
    # a top level past 2**1023: its power of two above is no float
    ((1e308, 1.5e308), 1.0, 1.2e308),
])
def test_solves_at_the_largest_n_meet_the_stop_rule(levels, n, D, c, tol):
    # c n^2 is finite for the subnormal c, so every form solves
    sol = solve_generalized(EconomyParams(levels, n, D), c, tol=tol)
    assert_meets_the_stop_rule(levels, n, D, c, tol, sol.occupations, sol.multipliers.beta)


@pytest.mark.parametrize("s", [1e-300, 1e-150, 1.0, 1e150])
@pytest.mark.parametrize("n,c", [(1e150, 0.5), (1e20, 1e200)])
def test_solves_at_large_c_n_meet_the_stop_rule_at_every_level_scale(n, c, s):
    # w'_i = n_i (1 + c n_i)(1 + 2 c n_i) is about 2 c^2 n^3: in units where the levels are
    # of order 1, the terms w'_i (a_i - m_w)^3 overflowed and their sum was inf - inf, a
    # RuntimeWarning; the unit is raised with n and c so that they stay floats
    levels, D = (1.0 * s, 2.0 * s, 3.0 * s), 2.5 * n * s
    sol = solve_generalized(EconomyParams(levels, n, D), c, tol=0.0)
    assert_meets_the_stop_rule(levels, n, D, c, 0.0, sol.occupations, sol.multipliers.beta)


@pytest.mark.parametrize("c", [0.0, 0.5, -0.5])
def test_a_beta_past_the_largest_float_is_a_domain_error(c):
    # subnormal level gaps: beta is of order 1e310
    with pytest.raises(DomainError, match="overflows a float"):
        solve_generalized(EconomyParams((1e-310, 2e-310, 3e-310), 3.0, 5e-310), c, tol=0.0)


@pytest.mark.parametrize("k", [-990, 0, 990])
def test_fill_bounds_decide_alike_at_every_level_scale(k):
    # D exactly at the top-down fill bound of 1,2,3 / n 2 / c -1 solves; one ulp past it does not
    levels, D, tol = scaled_by(k, [1.0, 2.0, 3.0], 5.0, 1e-10)
    sol = solve_generalized(EconomyParams(tuple(levels), 2.0, D), -1.0, tol=tol)
    assert_meets_the_stop_rule(levels, 2.0, D, -1.0, tol, sol.occupations, sol.multipliers.beta)
    with pytest.raises(DomainViolation):
        solve_generalized(EconomyParams(tuple(levels), 2.0, math.nextafter(D, math.inf)), -1.0)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(g=st.integers(2, 40), ladder_seed=st.integers(0, 2 ** 32 - 1),
       n=st.floats(math.log(1e-2), math.log(1e6)).map(math.exp), share=st.floats(0.02, 0.97),
       where=st.sampled_from(("bottom", "middle", "top")),
       gap=st.floats(math.log(1e-13), math.log(0.5)).map(math.exp),
       c=st.sampled_from(FORMS), tol=st.sampled_from((1e-10, 0.0)),
       boltzmann_n=st.floats(math.log(1e-2), math.log(1e307)).map(math.exp),
       close=st.booleans(), level_scale=st.floats(0.0, 1.0))
@example(g=2, ladder_seed=0, n=1.0, share=0.5, where="middle", gap=0.5, c=0.0, tol=1e-10,
         boltzmann_n=1e307, close=True, level_scale=0.5)
def test_scaling_levels_and_D_by_a_power_of_two_scales_only_beta_and_the_D_residual(
        g, ladder_seed, n, share, where, gap, c, tol, boltzmann_n, close, level_scale):
    """solve(2**k a, n, 2**k D, 2**k tol) has the nu and occupations of the k = 0 solve, bit
    for bit, its beta over 2**k and its D residual times 2**k, or raises the same error type;
    the k = 0 solve meets the stop rule.

    D/n lies gap of the way across its range from the bottom or the top, or mid-range; k is
    level_scale of the way across level_scales.  As in the stop-rule sweep, c >= 0 may take
    a close ladder, and c = 0 takes n up to 1e307 over the top level.
    """
    levels = random_ladder(random.Random(ladder_seed), g)
    if c >= 0 and close:
        levels = close_to_one(levels)
    if c == 0:
        n = boltzmann_n / levels[-1]
    if c < 0:
        n = min(n, share * g / -c)
        lo, hi = fill_bounds(levels, n, c)
    else:
        lo, hi = levels[0] * n, levels[-1] * n
    D = lo + {"bottom": gap, "middle": 0.5, "top": 1.0 - gap}[where] * (hi - lo)
    k_lo, k_hi = level_scales(levels, n, D, tol)
    k = k_lo + round(level_scale * (k_hi - k_lo))

    def solve(levels, D, tol):
        try:
            return solve_generalized(EconomyParams(tuple(levels), n, D), c, tol=tol)
        except AymError as exc:
            return type(exc)

    base, scaled = solve(levels, D, tol), solve(*scaled_by(k, levels, D, tol))
    if isinstance(base, type):
        assert scaled is base
        return
    assert not isinstance(scaled, type), scaled
    assert_meets_the_stop_rule(levels, n, D, c, tol, base.occupations, base.multipliers.beta)
    assert ([x.hex() for x in (scaled.multipliers.nu, *scaled.occupations)]
            == [x.hex() for x in (base.multipliers.nu, *base.occupations)])
    assert scaled.multipliers.beta == math.ldexp(base.multipliers.beta, -k)
    assert scaled.residuals == (base.residuals[0], math.ldexp(base.residuals[1], k))


def test_golden_file_covers_every_form_and_ending():
    assert {case[3] for case in GOLDEN} == set(FORMS)
    assert {case[4] for case in GOLDEN} == {1e-10, 0.0}
    assert {len(case[0]) for case in GOLDEN} >= {2, 40}
    endings = {(case[3] < 0, case[-1].get("error")) for case in GOLDEN}
    assert endings >= {(True, None), (True, "NoConvergence"), (True, "DomainViolation"),
                       (False, None), (False, "NoConvergence"), (False, "InfeasibleDemand")}


if __name__ == "__main__":
    _record(sys.argv[1])
