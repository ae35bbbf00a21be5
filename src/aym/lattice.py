"""The integer fibre: the allocations with both sums fixed, and their exact weights.

An instance whose levels and demand sit on a common integer lattice has a
finite fibre, the integer allocations with

    sum n_i = n,    sum units_i n_i = demand,

each weighted by the multinomial n!/prod(n_i!).  This module owns which
allocations exist (lattice_fibre, count_feasible), their walk order
(count_feasible's first), their exact weights (enumerate_feasible) and the
pair moves between them (_move_table).  occupation_sampler owns how a
chain walks them: _fibre_setup, whose transition table holds the chain's
acceptance data under the sampler's cache budget, the irreducibility labels
and the walk loops.  Only the stdlib is used, so an enumeration loads
neither numpy nor the float solver.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, InfeasibleDemand, InstanceTooLarge
from .model_core import (EconomyParams, OccupationVector, _csv_text, _state_text,
                         _validate_ladder, validate)

_LATTICE_REL_TOL = 1e-9  # integer_lattice: how close, relatively, a value must be to a fraction
_LATTICE_MAX_DENOMINATOR = 10**12  # integer_lattice: the largest denominator of that fraction
_PLAIN_RATIO = 8  # log_multinomial_weight: most lgamma(n + 1) per unit of a plain log weight
_EXACT_BELOW = 1024  # log_multinomial_weight: n below which a cancelling weight is built exactly
_STIRLING_FROM = 32  # log_multinomial_weight: smallest sector given by Stirling's series
_LATTICE_MAX_MULTIPLE = 10**6  # integer_lattice: the most units any value may span


def integer_lattice(values: Sequence[float]) -> tuple[tuple[int, ...], float]:
    """Express values as integer multiples of a common unit.

    Returns (integer multiples, unit).  Raises DomainError when a value is
    not recognizably rational, the set has no common unit (all zero), or
    the implied lattice is finer than _LATTICE_MAX_MULTIPLE steps (a float is
    always rational, so the multiple cap is what rejects irrational inputs).
    """
    ratios = []
    for x in values:
        x = float(x)
        if not math.isfinite(x):
            raise DomainError(f"lattice values must be finite, got {x}")
        ratio = x.as_integer_ratio()
        if ratio[1] > _LATTICE_MAX_DENOMINATOR:  # else limit_denominator returns x's own ratio
            from fractions import Fraction  # only here: a cold import costs milliseconds

            f = Fraction(x).limit_denominator(_LATTICE_MAX_DENOMINATOR)
            if abs(float(f) - x) > _LATTICE_REL_TOL * max(1.0, abs(x)):
                raise DomainError(f"value {x} is not on a recognizable integer lattice")
            ratio = f.numerator, f.denominator
        ratios.append(ratio)
    # the unit is the gcd of the numerators over the common denominator
    denominator = math.lcm(*(q for _, q in ratios))
    scaled = [p * (denominator // q) for p, q in ratios]
    step = math.gcd(*scaled)
    if step == 0:
        raise DomainError("cannot derive a lattice unit from all-zero values")
    units = tuple(k // step for k in scaled)
    if max(abs(u) for u in units) > _LATTICE_MAX_MULTIPLE:
        raise DomainError(
            f"values share no common unit within {_LATTICE_MAX_MULTIPLE} lattice steps")
    return units, step / denominator  # int / int rounds the exact quotient once


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


def _move_table(units: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Index quadruples (i, i+k, j, j-k) of the demand-conserving moves, no-op swaps left out."""
    g = len(units)
    return tuple((i, i + k, j, j - k)
                 for i in range(g) for k in range(1, g - i) for j in range(k, g)
                 if j != i + k and units[j] - units[j - k] == units[i + k] - units[i])


def _stirling_tail(k: int) -> float:
    """lgamma(k + 1) - (k ln k - k + ln(2 pi k) / 2), to 2.4e-17 for k >= _STIRLING_FROM."""
    x = float(k)
    return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x * x)) / (x * x)) / (x * x)) / x


def log_multinomial_weight(occupation: OccupationVector) -> float:
    """ln(n! / prod n_i!), overflow-free, off by at most 2**-46 (1.4e-14) times max(1, ln w).

    The bound is checked against 50-digit values in the tests, over any
    counts with n <= 200 and over one sector of up to 1e18 with 1-50 others.

    The log-gamma difference serves when lgamma(n + 1) is at most
    _PLAIN_RATIO times max(1, that difference), so it cancels few digits.
    Otherwise (one sector holds nearly all of n) a weight with n below
    _EXACT_BELOW is the log of the exact integer, and a larger one is summed
    per sector with no large term to cancel: with Stirling's series for
    lgamma(n + 1) and each sector of at least _STIRLING_FROM,

        ln w = tail(n) + (1 - m) ln(2 pi n) / 2
               + sum over big k of (k + 1/2) log1p((n - k) / k) - tail(k)
               + sum over small k of k (ln n - 1) - lgamma(k + 1),

    m the number of big sectors and tail _stirling_tail.
    """
    counts = occupation.counts
    n = sum(counts)
    top = math.lgamma(n + 1)
    plain = top - sum(math.lgamma(k + 1) for k in counts)
    if top <= _PLAIN_RATIO * max(1.0, plain):
        return plain
    if n < _EXACT_BELOW:
        return math.log(_exact_multinomial(counts))
    big = [k for k in counts if k >= _STIRLING_FROM]
    total = _stirling_tail(n) + (1 - len(big)) * 0.5 * math.log(2 * math.pi * n)
    total += sum((k + 0.5) * math.log1p((n - k) / k) - _stirling_tail(k) for k in big)
    ln_n = math.log(n)
    return total + sum(k * (ln_n - 1) - math.lgamma(k + 1)
                       for k in counts if k < _STIRLING_FROM)


def _exact_multinomial(counts: tuple[int, ...]) -> int:
    """n!/prod(n_i!) as an exact integer (product of binomials)."""
    total = 0
    weight = 1
    for k in counts:
        total += k
        weight *= math.comb(total, k)
    return weight


def _reaches(counts: tuple[int, ...], limit: int) -> bool:
    """Whether n!/prod(n_i!) >= 10**limit, built factor by factor only while it is below."""
    bound, weight, total = 10 ** limit, 1, 0
    for k in counts:
        total += k
        m = min(k, total - k)
        # comb(total, m) >= (total/m)**m, so this factor is past the bound unbuilt
        if m and m * math.log10(total / m) > limit + 1:
            return True
        weight *= math.comb(total, m)
        if weight >= bound:
            return True
    return False


def _check_weight_digits(vectors, log_weights, n: int) -> None:
    """InstanceTooLarge if an exact weight has more decimal digits than int-to-str allows.

    The limit is sys.get_int_max_str_digits() (0, or a Python without it, is no
    limit).  The lgamma log weights decide, each within slack of the true ln w;
    a weight inside that band of the limit is decided exactly by _reaches, which
    builds no integer much longer than the limit.  So a weight of exactly the
    limit's digits passes.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or not vectors:
        return
    ln_limit = limit * math.log(10)
    # each lgamma term is off by a few ulps of at most lgamma(n + 1)
    slack = 1e-12 * (len(vectors[0].counts) + 1) * (math.lgamma(n + 1) + 1)
    if max(log_weights) + slack < ln_limit:
        return
    for vec, lw in zip(vectors, log_weights):
        if lw + slack >= ln_limit and (lw - slack >= ln_limit or _reaches(vec.counts, limit)):
            digits = max(limit + 1, int((lw - slack) / math.log(10)) + 1)
            raise InstanceTooLarge(
                f"an exact weight has at least {digits} decimal digits, past the "
                f"int-to-str limit of {limit} (see sys.set_int_max_str_digits)")


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
        return _csv_text(("state", "weight", "log_weight"),
                         ([_state_text(vec.counts) for vec in self.vectors], self.weights,
                          self.log_weights), ("%s", "%s", "%.17g"))


def enumerate_feasible(params: EconomyParams, max_vectors: int = 500_000) -> EnumerationResult:
    """Exhaustively list integer allocations with sum n_i = n, sum a_i n_i = D.

    Levels and D must sit on a common integer lattice; n must be integral.
    Raises InstanceTooLarge past max_vectors feasible vectors, counted before
    any is built (see count_feasible), or when a weight has more decimal digits
    than int-to-str allows, decided before any weight is built (see
    _check_weight_digits); DomainError for a negative cap.
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
    log_weights = tuple(log_multinomial_weight(v) for v in vectors)
    _check_weight_digits(vectors, log_weights, n)
    weights = tuple(_exact_multinomial(v.counts) for v in vectors)
    # vectors are sorted, so the first maximum weight is the lexicographically smallest
    argmax = vectors[weights.index(max(weights))] if vectors else None
    return EnumerationResult(vectors, weights, log_weights, argmax)
