"""Most-probable occupation vectors under worker and demand conservation.

The equilibrium allocation maximizes the multinomial weight n!/prod(n_i!)
subject to sum(n_i) = n and sum(a_i n_i) = D.  The stationary solution is
Boltzmann-like,

    n_i = exp(nu) * exp(-beta * a_i),

with multipliers (nu, beta) fixed by the two constraints.  A one-parameter
generalization n_i = 1/(exp(-nu) exp(beta a_i) - c) interpolates between
Boltzmann (c = 0), Bose-like (c = 1) and Fermi-like (c = -1) occupation
forms.  One solver serves every c: a monotone 1-D solve for nu nested in
one for beta.  For c < 0 the occupations are capped at 1/|c|, which makes
some (n, D) provably infeasible; that is checked before any iteration.
The integer allocations and their exact weights live in lattice.

All functions here are pure; results are deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul

from .errors import DomainError, DomainViolation, InfeasibleDemand, NoConvergence
from .model_core import EconomyParams, _check_ratio, validate

_DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Multipliers:
    """Lagrange multipliers: nu (dimensionless), beta (1/productivity).

    c is the occupation-form parameter; 0 recovers the pure Boltzmann
    solution.  For c != 0 every sector must satisfy
    exp(-nu) exp(beta a_i) - c > 0 so occupations stay positive.
    """

    nu: float
    beta: float
    c: float = 0.0


@dataclass(frozen=True)
class EquilibriumSolution:
    """Real-valued equilibrium occupations with constraint residuals.

    residuals = (|sum n_i - n|, |sum a_i n_i - D|); after a successful solve
    each is at most the solver tolerance or, when that is finer, the float
    rounding floor stated in the solver's stop rule.
    """

    multipliers: Multipliers
    occupations: tuple[float, ...]
    residuals: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {
            "nu": self.multipliers.nu,
            "beta": self.multipliers.beta,
            "c": self.multipliers.c,
            "occupations": list(self.occupations),
            "residuals": list(self.residuals),
        }


def _solve(params: EconomyParams, c: float, tol: float, max_iter: int) -> EquilibriumSolution:
    """Solve sum n_i = n, sum a_i n_i = D for n_i = 1/(exp(-nu + beta a_i) - c).

    Two nested 1-D solves, each a Newton iteration kept inside a bracket: a
    step that leaves the bracket, or fails to halve the previous one,
    bisects instead.  The inner solve fixes beta and finds nu: sum n_i rises
    strictly in nu, since dn_i/dnu = w_i = n_i (1 + c n_i) > 0.  The outer
    solve finds beta: with nu following the inner root, sum a_i n_i falls
    strictly in beta, with slope minus V = sum w_i (a_i - m_w)^2, m_w the
    w-weighted mean level.  beta = 0 is tried first, so flat demand returns
    beta = 0 exactly.  The outer step is Halley's, the Newton step divided
    by 1 - f f''/(2 f'^2), when that factor lies in [1/2, 2], and Newton's
    otherwise: f = D - sum a_i n_i, f' = V and f'' = -sum w'_i (a_i - m_w)^3,
    w'_i = dw_i/dnu = w_i (1 + 2 c n_i), so the steps converge cubically.

    Exponents are shifted by their maximum: with d_i = beta a_i - min(beta a)
    and t = nu + max(-beta a), n_i = 1/(exp(d_i - t) - c).  The inner unknown
    is an offset x from a start t0, n_i = 1/(E_i exp(-x) - c) with
    E_i = exp(d_i - t0) formed once per beta, so sum n_i can be tuned to the
    rounding of the sum however large |t| is; t0 is the c = 0 root,
    ln n - ln sum exp(-d_i), or the predicted root below.  For c > 0 with
    c n >= 1 the inner unknown is ln s instead, up to a shift, where
    s = -ln c - t > 0 is the distance to the pole and
    n_i = 1/(c expm1(s + d_i)): near the pole t keeps too few digits of s,
    while for small c n it is s that loses them.  max(-beta a) is the
    product at the first or the last level, since the levels rise.

    For c != 0 every inner solve after the first starts on the tangent of
    its root in beta (an Euler predictor): at fixed sum n_i, dnu/dbeta = m_w,
    so the last outer step's nu + m_w (beta' - beta) predicts the root.  Off
    the pole branch the predicted t is t0, so x stays small and keeps its
    digits near the root; t0 is the c = 0 root when the prediction is not
    finite or not below the pole.  On the pole branch the prediction is
    mapped to x and clamped into [0, hi], with x = 0 when it is not finite.
    For c > 0 off the pole branch the bracket ends at the pole,
    x = -t0 - ln c, below which every n_i > 0, so a step from left of the
    root bisects instead of crossing it; an evaluation where every n_i
    underflows counts as left of the root.  The first inner solve, at
    beta = 0, needs no prediction: every n_i is n/g there, so off the pole
    branch it starts at its exact root x = -ln(1 + c n/g) and meets its
    floor in one evaluation, unless c n/g = -1 (n = g/|c|, every sector at
    its cap), where x = 0 is the start.

    Sums come in pairs, each pair from one reduce over the rows of a (2, g)
    array, whose row sums have the bits of 1-D pairwise sums: (sum n_i,
    sum w_i) in the inner solve, then (sum a_i n_i, sum a_i w_i) and
    (V, sum w'_i (a_i - m_w)^3) in the outer one; (sum n_i, sum a_i n_i) at
    c = 0, where w_i = n_i.

    At c = 0 the inner root is explicit: n_i = n u_i / S_0, with
    u_i = exp(-beta (a_i - a_end)) and a_end the end level where -beta a_i
    peaks.  So each outer evaluation is one exp, one product with a (4, g)
    array built once, whose rows are the powers 0..3 of b_i = a_i - D/n
    (scaled by a power of two, so none overflows), and one reduce over its
    rows: S_k = sum u_i b_i^k.  With m_k = S_k / S_0, f = -n m_1,
    V = n (m_2 - m_1^2) and f'' = -n (m_3 - 3 m_2 m_1 + 2 m_1^3).  Centred at
    D/n, m_1 is near 0 at the root, where V then loses no digits.  Once f is
    within the floor below, the occupations n_i = k u_i, k = n / S_0, are
    formed, with nu = ln k + beta a_end, and the stop rule is decided on
    their own sums, V taken from their deviations from the mean level; if
    they miss it, the iteration goes on.
    No inner solve is needed: S_0 sums positive terms and is at least 1, so
    it is within (g-1) eps relative; k and each product add one rounding,
    and the rounding of exp cancels, as S_0 sums the same u_i.  So
    |sum n_i - n| <= (g+1) eps n + O(eps^2), inside floor_n; products that
    underflow lose at most g 2**-1075 in all, far below it, as n >= g 2**-1022.

    Feasibility is settled before iterating.  tol must be finite and
    non-negative, c n^2 finite and n/g at least the smallest normal float
    (DomainError): below it the occupations, about n/g each, keep too few
    digits and their sum underflows.  tol = 0 asks for the float floor below.
    D/n must lie strictly inside (a_1, a_g) (InfeasibleDemand).
    For c < 0 each n_i is below 1/|c|, so a solution needs n <= g/|c| and
    D between the outputs of filling the sectors bottom-up and top-down at
    1/|c| workers each; DomainViolation is raised otherwise.  The fill sums
    are exact integers in units of 2**-2148, since every finite float is an
    integer times 2**-1074.  Boundary instances are attempted.

    Stop rule: the solve returns once |sum a_i n_i - D| <= max(tol, floor_D),
    floor_D = 4 eps (g D + |beta| V), the rounding of the sum plus one ulp
    of beta times the slope.  At every beta |sum n_i - n| <= floor_n =
    4 eps g n, the rounding of the sum, whatever tol is (at c = 0 by the
    bound above): an error left in sum n_i would carry over into
    sum a_i n_i and pull beta off its root.  The floors follow the current
    iterate; the reported residuals are the true values.
    """
    if not 0 <= tol < math.inf:  # max(nan, floor) is nan, which no residual meets
        raise DomainError(f"tolerance must be finite and non-negative, got {tol}")
    params = validate(params)
    levels, n, D, g = params.levels, params.n, params.D, params.g
    if not math.isfinite(c * n * n):  # w_i = n_i + c n_i^2 must stay finite
        raise DomainError(f"occupation-form parameter c = {c} must keep c*n*n finite")
    if n < g * sys.float_info.min:
        raise DomainError(f"worker count n = {n} puts n/g below the smallest normal float "
                          f"{sys.float_info.min}")
    if not levels[0] < D / n < levels[-1]:
        raise InfeasibleDemand(
            f"demand per worker {D / n} must lie strictly inside ({levels[0]}, {levels[-1]})")
    if c < 0:
        cap = -1.0 / c
        # the k-th sector filled takes fill[k] workers (cap = inf, for subnormal c, is fine)
        filled = [0.0] + [min(n, cap * k) for k in range(1, g + 1)]
        fill = [after - before for before, after in zip(filled, filled[1:])]
        # x = p/2**k with k <= 1074, so x * 2**1074 is an integer: no D flips by rounding
        *units, D_units = (p << 1075 - q.bit_length()
                           for p, q in map(float.as_integer_ratio, (*levels, *fill, D)))
        lo, hi = (sum(map(mul, order, units[g:])) for order in (units[:g], units[g - 1::-1]))
        if n > g * cap or not lo <= D_units << 1074 <= hi:
            lo, hi = (sum(map(mul, order, fill)) for order in (levels, levels[::-1]))  # inf past range
            raise DomainViolation(
                f"c = {c} caps each occupation at {cap}, so a solution needs n <= {g * cap} "
                f"and D in [{lo}, {hi}]; got n = {n}, D = {D}")
    import numpy as np  # only now: a rejected input is decided without loading numpy
    a = np.asarray(levels, dtype=float)
    add, eps = np.add.reduce, sys.float_info.epsilon  # add(x): x.sum() minus its Python wrapper
    pole = c > 0 and c * n >= 1
    floor_n = 4 * eps * g * n
    # terms summed in pairs, each pair by one row-wise reduce: (n_i, w_i), or
    # (n_i, a_i n_i) at c = 0, where w_i = n_i; then (a_i n_i, a_i w_i) and
    # (w_i dv_i^2, w'_i dv_i^3) for c != 0
    pair, moments = np.empty((2, g)), np.empty((2, g))
    occ, second = pair  # second holds w_i = n_i (1 + c n_i), or a_i n_i at c = 0
    tangent = None  # (nu, beta, m_w) at the last outer evaluation, for c != 0
    if c == 0:
        # rows k = 0..3 hold b_i^k, b_i = (a_i - D/n)/scale, scale a power of two with
        # |b_i| < 2: no power overflows, and the moments keep the bits of unscaled ones
        scale = math.ldexp(1.0, math.frexp(max(D / n - levels[0], levels[-1] - D / n))[1] - 1)
        powers, terms, u = np.empty((4, g)), np.empty((4, g)), np.empty(g)
        powers[0] = 1.0
        b = np.subtract(a, D / n, out=powers[1])
        b /= scale
        np.multiply(b, b, out=powers[2])
        np.multiply(powers[2], b, out=powers[3])
        gaps = a - levels[0], a - levels[-1]  # -beta a_i - z_max = -beta (a_i - a_end)

    def root(f, x, lo, hi, what):
        """Root of the increasing f(x) -> (value, slope, curve, done, result) inside [lo, hi].

        curve is f'', or 0 for none: the Newton step is divided by 1 - f f''/(2 f'^2)
        (Halley's step) when that factor lies in [1/2, 2].
        """
        moved, value = math.inf, math.nan
        for _ in range(max_iter):
            value, slope, curve, done, result = f(x)
            if done:
                return result
            if value < 0:
                lo = x
            else:
                hi = x
            new = math.nan
            if slope > 0:
                step = value / slope
                if curve:
                    factor = 1.0 - 0.5 * step * curve / slope
                    if 0.5 <= factor <= 2.0:
                        step /= factor
                new = x - step
            if math.isfinite(hi - lo):
                if not (lo < new < hi and abs(new - x) <= 0.5 * abs(moved)):
                    new = 0.5 * (lo + hi)
            elif not lo < new < hi:
                new = x - math.copysign(1.0 + 2.0 * abs(x), value)
            moved, x = new - x, new
        raise NoConvergence(max_iter, f"{what} stuck {abs(value):.3g} from its target")

    def inner(beta):
        """(nu, N, S) at the inner root, S the sum of the second row."""
        z = -beta * a
        # the levels rise, so -beta a_i peaks at an end level (rounding keeps the order)
        z_max = (-beta * levels[0 if beta >= 0 else -1] if math.isfinite(beta)
                 else float(np.maximum.reduce(z)))
        d = z_max - z
        x = 0.0
        if tangent:  # start on the root's tangent in beta: dnu/dbeta = m_w at fixed sum n_i
            nu, beta_before, m_w = tangent
            nu += m_w * (beta - beta_before)
        if pole:
            s0 = math.log1p(g / (c * n))  # every n_i <= n/g at s = s0
            hi = math.log(s0 / math.log1p(1.0 / (c * n)))  # the top n_i alone is n here
            if tangent:
                s = -math.log(c) - nu - z_max  # the predicted distance to the pole
                if s > 0 and s0 / s > 0:
                    x = min(max(math.log(s0 / s), 0.0), hi)

            def occupations(x):
                s = s0 * math.exp(-x)
                np.divide(1.0, c * np.expm1(s + d), out=occ)
                return s, -math.log(c) - s
        else:
            # the predicted root, unless it is not finite or past the pole; else the c = 0 root
            if tangent and -math.inf < nu + z_max < (-math.log(c) if c > 0 else math.inf):
                t0 = nu + z_max
            else:
                t0 = math.log(n) - math.log(float(add(np.exp(-d))))
                if beta == 0 and c * n / g > -1:  # each n_i = n/g: the root is exact
                    x = -math.log1p(c * n / g)
            # for c > 0 the pole is at x = -t0 - ln c: every n_i > 0 below it
            hi, E = -t0 - math.log(c) if c > 0 else math.inf, np.exp(d - t0)

            def occupations(x):
                np.divide(1.0, E * math.exp(-x) - c, out=occ)
                return 1.0, t0 + x

        def f(x):
            dt_dx, t = occupations(x)
            np.multiply(1.0 + c * occ, occ, out=second)  # w_i = n_i (1 + c n_i)
            N, S = add(pair, 1).tolist()
            if N == 0:  # every n_i underflowed: left of the root, with no slope to follow
                return -math.inf, math.nan, 0.0, False, None
            return math.log(N / n), S * dt_dx / N, 0.0, abs(N - n) <= floor_n, (t - z_max, N, S)

        return root(f, x, 0.0 if pole else -math.inf, hi, "sum n_i")

    def outer(beta):
        nonlocal tangent
        if c == 0:  # S_k = sum u_i b_i^k, u_i = exp(-beta (a_i - a_end)): n_i = n u_i / S_0
            np.multiply(gaps[0] if beta >= 0 else gaps[1], -beta, out=u)
            np.exp(u, out=u)
            np.multiply(powers, u, out=terms)
            S0, S1, S2, S3 = add(terms, 1).tolist()
            m1, m2, m3 = S1 / S0, S2 / S0, S3 / S0
            value, V = -n * scale * m1, n * scale * scale * (m2 - m1 * m1)
            curve = n * scale * scale * scale * ((3.0 * m2 - 2.0 * m1 * m1) * m1 - m3)
            if abs(value) > max(tol, 4 * eps * (g * D + abs(beta) * V)):
                return value, V, curve, False, None
            k = n / S0  # the stop rule is decided on the occupations themselves
            np.multiply(u, k, out=occ)
            nu = math.log(k) + beta * levels[0 if beta >= 0 else -1]
            np.multiply(a, occ, out=second)
            N, M = add(pair, 1).tolist()
            dv = a - M / N
            V = float(add(dv * dv * occ))
        else:
            nu, N, S = inner(beta)
            np.multiply(a, pair, out=moments)
            M, aw = add(moments, 1).tolist()
            tangent = nu, beta, aw / S
            dv = a - aw / S  # the deviations from the w-weighted mean level
            np.multiply(dv * dv, second, out=moments[0])
            np.multiply(moments[0], dv * (1.0 + 2.0 * c * occ), out=moments[1])
            V, T = add(moments, 1).tolist()
            curve = -T
        done = abs(M - D) <= max(tol, 4 * eps * (g * D + abs(beta) * V))
        return D - M, V, curve, done, (nu, beta, M, N)

    with np.errstate(over="ignore"):  # exp overflow past the top sector means n_i = 0
        nu, beta, M, N = root(outer, 0.0, -math.inf, math.inf, "sum a_i n_i")
    return EquilibriumSolution(Multipliers(nu, beta, float(c)), tuple(occ.tolist()),
                               (abs(N - n), abs(M - D)))


def solve_boltzmann(params: EconomyParams, tol: float = _DEFAULT_TOL,
                    max_iter: int = 200) -> EquilibriumSolution:
    """Solve the two-constraint Boltzmann equilibrium n_i = exp(nu - beta a_i).

    The c = 0 case of the nested solve described in _solve.  Raises
    InfeasibleDemand when D/n is not strictly inside the level hull
    (boundary demand forces a degenerate corner the exponential form cannot
    represent) and NoConvergence if the budget is exhausted.
    """
    return _solve(params, 0.0, tol, max_iter)


def closed_form_ladder(r: float, n: float, i: int) -> float:
    """Most-probable occupation of rung i on the unbounded arithmetic ladder.

    n_i = n/(r-1) * ((r-1)/r)**i with r = (D/n)/a0; the geometric series
    over i >= 1 sums to n.  Requires a finite r > 1.
    """
    _check_ratio(r)
    return n / (r - 1.0) * ((r - 1.0) / r) ** i


def ladder_limit_form(r: float, i: int) -> float:
    """Large-r probability that a worker sits on rung i: (1/r + 1/r^2) e^{-i/r}, r > 1 finite."""
    _check_ratio(r)
    return (1.0 / r + 1.0 / (r * r)) * math.exp(-i / r)


def solve_generalized(params: EconomyParams, c: float, tol: float = _DEFAULT_TOL,
                      max_iter: int = 200) -> EquilibriumSolution:
    """Solve the generalized occupation form n_i = 1/(exp(-nu+beta a_i) - c).

    The same nested solve as solve_boltzmann (see _solve), so c = 0
    reproduces it exactly.  Raises InfeasibleDemand when D/n is not strictly
    inside the level hull, DomainViolation when c < 0 caps the occupations
    below what n and D need, and NoConvergence if the budget is exhausted.

    Near a c < 0 fill bound the multipliers are ill-conditioned: the
    sectors at their cap 1/|c| barely depend on (nu, beta), so the stop rule
    pins the two sums, and with them the occupations, but not nu and beta.
    On 17 levels with c = -0.5 and tol 1e-10 a solve returned nu 1646.77,
    beta 94.161 where the exact root is 1650.67, 94.385, with every
    occupation within 1.6e-10 of the exact one.
    """
    return _solve(params, c, tol, max_iter)
