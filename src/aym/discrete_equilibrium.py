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
Exact small-instance oracles (full enumeration with big-integer weights)
cross-check the continuous solutions.

All functions here are pure; results are deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from operator import mul

from .errors import (
    DomainError,
    DomainViolation,
    InfeasibleDemand,
    InstanceTooLarge,
    NoConvergence,
)
from .model_core import (EconomyParams, OccupationVector, _check_ratio, _csv_text, _state_text,
                         _validate_ladder, integer_lattice, validate)

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
    beta = 0 exactly.

    Exponents are shifted by their maximum: with d_i = beta a_i - min(beta a)
    and t = nu + max(-beta a), n_i = 1/(exp(d_i - t) - c).  The inner unknown
    is an offset x from a start t0, n_i = 1/(E_i exp(-x) - c) with
    E_i = exp(d_i - t0) formed once per beta, so sum n_i can be tuned to the
    rounding of the sum however large |t| is; t0 = ln n - ln sum exp(-d_i) is
    the c = 0 root.  For c > 0 with c n >= 1 the inner unknown is ln s
    instead, up to a shift, where s = -ln c - t > 0 is the distance to the
    pole and n_i = 1/(c expm1(s + d_i)): near the pole t keeps too few digits
    of s, while for small c n it is s that loses them.

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
    of beta times the slope.  At every beta the inner solve runs to
    |sum n_i - n| <= floor_n = 4 eps g n, the rounding of the sum, whatever
    tol is: an error left in sum n_i would carry over into sum a_i n_i and
    pull beta off its root.  The floors follow the current iterate; the
    reported residuals are the true values.
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

    def root(f, x, lo, hi, what):
        """Root of the increasing f(x) -> (value, slope, done, result) inside [lo, hi]."""
        moved, value = math.inf, math.nan
        for _ in range(max_iter):
            value, slope, done, result = f(x)
            if done:
                return result
            if value < 0:
                lo = x
            else:
                hi = x
            new = x - value / slope if slope > 0 else math.nan
            if math.isfinite(hi - lo):
                if not (lo < new < hi and abs(new - x) <= 0.5 * abs(moved)):
                    new = 0.5 * (lo + hi)
            elif not lo < new < hi:
                new = x - math.copysign(1.0 + 2.0 * abs(x), value)
            moved, x = new - x, new
        raise NoConvergence(max_iter, f"{what} stuck {abs(value):.3g} from its target")

    def inner(beta):
        z = -beta * a
        z_max = np.maximum.reduce(z)
        d = z_max - z
        if pole:
            s0 = math.log1p(g / (c * n))  # every n_i <= n/g at s = s0
            hi = math.log(s0 / math.log1p(1.0 / (c * n)))  # the top n_i alone is n here

            def occupations(x):
                s = s0 * math.exp(-x)
                return 1.0 / (c * np.expm1(s + d)), s, -math.log(c) - s
        else:
            t0 = math.log(n) - math.log(float(add(np.exp(-d))))  # the c = 0 root
            hi, E = math.inf, np.exp(d - t0)

            def occupations(x):
                return 1.0 / (E * math.exp(-x) - c), 1.0, t0 + x

        def f(x):
            occ, dt_dx, t = occupations(x)
            N = float(add(occ))
            # w_i = n_i (1 + c n_i) is n_i at c = 0, where t0 <= ln n < 710 keeps n_i finite
            w = occ if c == 0 else occ * (1.0 + c * occ)
            W = N if c == 0 else float(add(w))
            done = abs(N - n) <= 4 * eps * g * n
            return math.log(N / n), W * dt_dx / N, done, (t - z_max, occ, w, N, W)

        return root(f, 0.0, 0.0 if pole else -math.inf, hi, "sum n_i")

    def outer(beta):
        nu, occ, w, N, W = inner(beta)
        M = float(add(a * occ))
        m = (M if c == 0 else float(add(a * w))) / W
        V = float(add((a - m) ** 2 * w))
        done = abs(M - D) <= max(tol, 4 * eps * (g * D + abs(beta) * V))
        return D - M, V, done, (nu, beta, occ, M, N)

    with np.errstate(over="ignore"):  # exp overflow past the top sector means n_i = 0
        nu, beta, occ, M, N = root(outer, 0.0, -math.inf, math.inf, "sum a_i n_i")
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
    """
    return _solve(params, c, tol, max_iter)


def log_multinomial_weight(occupation: OccupationVector) -> float:
    """ln(n! / prod n_i!) by log-gamma accumulation (overflow-free)."""
    counts = occupation.counts
    total = sum(counts)
    return math.lgamma(total + 1) - sum(math.lgamma(k + 1) for k in counts)


def _exact_multinomial(counts: tuple[int, ...]) -> int:
    """n!/prod(n_i!) as an exact integer (product of binomials)."""
    total = 0
    weight = 1
    for k in counts:
        total += k
        weight *= math.comb(total, k)
    return weight


def lattice_fibre(params: EconomyParams) -> tuple[tuple[int, ...], int, int]:
    """(units, n, demand): a valid instance with integral n on its integer lattice.

    units are the levels and demand is D, all in the lattice unit of
    (levels, D), so the fibre is sum n_i = n, sum units_i n_i = demand.
    Raises DomainError for a non-integral n or values on no common lattice.
    """
    validate(params)
    if params.n != int(params.n):
        raise DomainError(f"the integer fibre needs an integral worker count, got {params.n}")
    *units, demand = integer_lattice((*params.levels, params.D))[0]
    return tuple(units), int(params.n), demand


def count_feasible(units: tuple[int, ...], n: int, demand: int, cap: int):
    """(min(count, cap), first) for the allocations with sum n_i = n, sum units_i n_i = demand.

    The walk fixes the top sector's occupancy first, so node (idx, workers,
    dem) counts the ways to fill sectors idx..0.  Its children are the nodes
    (idx-1, w, c + w*units[idx]) for the w workers left below, with
    c = dem - workers*units[idx]; every node on one diagonal (idx, c) has the
    same children, for w from a bound set by c alone up to a bound capped by
    workers.  A node's count is therefore one entry of its diagonal's prefix
    sums, which are built lazily, only as far as asked, and stop growing once
    they reach cap >= 1.  Sector 1 has a closed form: one allocation iff its
    occupancy (dem - u_0*workers) / (u_1 - u_0) is an integer in
    [0, workers].  So a sector-2 node counts the w of an arithmetic
    progression inside its bounds, and the sums start at sector 3.

    first(limit) lists the first `limit` allocations in walk order: a node's
    children by falling w (occupancy from 0 up), entering those a second
    walker at cap 1 finds feasible, so a diagonal is extended only up to its
    first feasible child; dead ends are remembered.  On the g=10 ladder
    first(1) costs about 0.2 ms at n=60 and n=400, a tenth of the count.
    """
    u_0 = units[0]
    if len(units) > 2:
        # the w with (u_1 - u_0) | c + w*(u_2 - u_0) are w = w_c mod period
        period = (units[1] - u_0) // math.gcd(units[2] - u_0, units[1] - u_0)
        inverse = pow((units[2] - u_0) * period // (units[1] - u_0), -1, period)

    def bounds(idx: int, c: int) -> tuple[int, int]:
        """(w_lo, w_top): w workers below can meet c + w*units[idx] iff w_lo <= w <= w_top."""
        return max(0, -(c // (units[idx] - u_0))), (-c) // (units[idx] - units[idx - 1])

    def walker(cap: int):
        """The node count, memoised per diagonal and saturating at cap."""
        diagonals: dict[tuple[int, int], tuple] = {}

        def diagonal(idx: int, c: int) -> tuple:
            """(w_lo, w_top, sums): the running sums built so far or, at sector 2,
            the residue w_c of the progression (None when it is empty)."""
            if idx > 2:
                sums = []
            else:
                step, rem = divmod(c * period, units[1] - u_0)
                sums = None if rem else -step * inverse % period
            diagonals[idx, c] = entry = (*bounds(idx, c), sums)
            return entry

        def count(idx: int, workers: int, dem: int) -> int:
            if idx == 0:
                return int(u_0 * workers == dem)
            if idx == 1:
                top, rem = divmod(dem - u_0 * workers, units[1] - u_0)
                return int(rem == 0 and 0 <= top <= workers)
            c = dem - workers * units[idx]
            w_lo, w_top, sums = diagonals.get((idx, c)) or diagonal(idx, c)
            w_hi = workers if workers < w_top else w_top
            if w_hi < w_lo or sums is None:
                return 0
            if idx == 2:
                return min(cap, (w_hi - sums) // period - (w_lo - 1 - sums) // period)
            if w_hi - w_lo < len(sums):
                return sums[w_hi - w_lo]
            total = sums[-1] if sums else 0
            for w in range(w_lo + len(sums), w_hi + 1):
                if total == cap:
                    break
                total = min(cap, total + count(idx - 1, w, c + w * units[idx]))
                sums.append(total)
            return total

        return count

    def first(limit: int) -> list[tuple[int, ...]]:
        found, prefix = [], [0] * len(units)
        dead_ends: dict[tuple[int, int, int], bool] = {}
        feasible = walker(1)

        def descend(idx: int, workers: int, dem: int) -> bool:
            """Fill sectors idx..0 along nodes that count some; False once limit are found."""
            if idx == 0:
                prefix[0] = workers
                found.append(tuple(prefix))
                return len(found) < limit
            c = dem - workers * units[idx]
            w_lo, w_top = bounds(idx, c)
            for w in range(min(workers, w_top), w_lo - 1, -1):
                child = (idx - 1, w, c + w * units[idx])
                dead = dead_ends.get(child)
                if dead is None:
                    dead = dead_ends[child] = not feasible(*child)
                if not dead:
                    prefix[idx] = workers - w
                    if not descend(*child):
                        return False
            return True

        if feasible(len(units) - 1, n, demand):
            descend(len(units) - 1, n, demand)
        return found

    return walker(cap)(len(units) - 1, n, demand), first


@dataclass(frozen=True)
class EnumerationResult:
    """All integer occupation vectors meeting both constraints.

    weights are exact big-integer multinomial coefficients; log_weights the
    matching ln values.  argmax is the maximum-weight vector with ties broken
    toward the lexicographically smallest counts (None for an empty set).
    """

    vectors: tuple[OccupationVector, ...]
    weights: tuple[int, ...]
    log_weights: tuple[float, ...]
    argmax: OccupationVector | None

    def to_json_dict(self) -> dict:
        return {
            "count": len(self.vectors),
            "argmax": list(self.argmax.counts) if self.argmax is not None else None,
            "vectors": [{"counts": list(vec.counts), "weight": w, "log_weight": lw}
                        for vec, w, lw in zip(self.vectors, self.weights, self.log_weights)],
        }

    def to_csv(self) -> str:
        rows = zip(self.vectors, self.weights, self.log_weights)
        return _csv_text(("state", "weight", "log_weight"),
                         ((_state_text(vec.counts), w, lw) for vec, w, lw in rows))


def enumerate_feasible(params: EconomyParams, max_vectors: int = 500_000) -> EnumerationResult:
    """Exhaustively list integer allocations with sum n_i = n, sum a_i n_i = D.

    Levels and D must sit on a common integer lattice; n must be integral.
    Raises InstanceTooLarge past max_vectors feasible vectors, counted before
    any is built (see count_feasible), and DomainError for a negative cap.
    Determinism: vectors are emitted in lexicographically increasing order
    of counts.
    """
    if max_vectors < 0:
        raise DomainError(f"enumeration cap must be non-negative, got {max_vectors}")
    if params.n == 0:
        # empty economy: validate's rules with the hull {0}, so one empty allocation
        _validate_ladder(params)
        if params.D != 0:
            raise InfeasibleDemand(f"demand {params.D} outside feasible hull [0.0, 0.0]")
        empty = OccupationVector((0,) * params.g)
        return EnumerationResult((empty,), (1,), (0.0,), empty)
    units, n, demand = lattice_fibre(params)

    count, first = count_feasible(units, n, demand, max_vectors + 1)
    if count > max_vectors:
        raise InstanceTooLarge(
            f"more than {max_vectors} feasible vectors; raise the cap to enumerate")
    vectors = tuple(OccupationVector(counts) for counts in sorted(first(count)))
    weights = tuple(_exact_multinomial(v.counts) for v in vectors)
    log_weights = tuple(log_multinomial_weight(v) for v in vectors)
    # vectors are sorted, so the first maximum weight is the lexicographically smallest
    argmax = vectors[weights.index(max(weights))] if vectors else None
    return EnumerationResult(vectors, weights, log_weights, argmax)


@dataclass(frozen=True)
class StirlingReport:
    """Exact argmax versus the rounded continuous solution.

    log_weight_gap = ln w(exact argmax) - ln w(projected) >= 0.
    small_n_caveat flags instances where the large-n approximation behind
    the continuous solution is not trustworthy.
    """

    exact_argmax: OccupationVector
    projected: OccupationVector
    coincide: bool
    log_weight_gap: float
    small_n_caveat: bool


SMALL_N_THRESHOLD = 20


def stirling_consistency(params: EconomyParams, tol: float = _DEFAULT_TOL,
                         max_vectors: int = 500_000) -> StirlingReport:
    """Compare the enumeration argmax with the projected Boltzmann solution.

    The real-valued solution is projected onto the feasible integer set by
    L1 distance (ties toward the lexicographically smallest vector).
    """
    enumeration = enumerate_feasible(params, max_vectors=max_vectors)
    if enumeration.argmax is None:
        raise DomainError("no feasible integer vectors to compare against")
    import numpy as np
    solution = solve_boltzmann(params, tol=tol)
    real = np.asarray(solution.occupations)

    def l1(vec: OccupationVector) -> float:
        return float(np.abs(np.asarray(vec.counts, dtype=float) - real).sum())

    projected = min(enumeration.vectors, key=lambda v: (l1(v), v.counts))
    gap = (log_multinomial_weight(enumeration.argmax) - log_multinomial_weight(projected))
    return StirlingReport(
        exact_argmax=enumeration.argmax,
        projected=projected,
        coincide=projected == enumeration.argmax,
        log_weight_gap=gap,
        small_n_caveat=params.n < SMALL_N_THRESHOLD,
    )
