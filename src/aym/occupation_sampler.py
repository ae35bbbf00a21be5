"""Metropolis sampling of occupation vectors on the conservation surface.

Target law: the multinomial weight n!/prod(n_i!) restricted to integer
allocations with both sums conserved.  A pair move sends one worker from
sector i up to i+k and another from j down to j-k; the move table holds the
quadruples (i, i+k, j, j-k) that conserve demand, built once per chain,
without the no-op swaps j = i+k.

Each step draws one entry of the table uniformly, whatever the state.  A
move that would empty a sector (counts[i] = 0, counts[j] = 0, or i = j with
counts[i] < 2) leaves the chain where it is; any other is accepted with
probability min(1, w(y)/w(x)).  The table is closed under the reversal
(i, up, j, down) -> (down, j, up, i), which undoes the move, so for every
pair x != y the moves taking x to y and those taking y to x are equally many:
the proposal is symmetric and needs no Hastings correction.  The weight ratio
is an exact ratio of integers,

    w(y)/w(x) = counts[i] (counts[j] - [i = j])
                / ((counts[i+k] + 1) (counts[j-k] + 1 + [i+k = j-k])),

whose numerator is 0 exactly when the move would empty a sector.

Irreducibility: a memoised walk counts the feasible set up to just past
max_enumeration without listing it; if the count fits, a search over the
moves from the start state (moves never leave the set) must reach it all.

Chains are deterministic given (params, config): the generator is
numpy's PCG64, recorded in the summary as "numpy:PCG64".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoFeasibleState
from .model_core import EconomyParams, OccupationVector, integer_lattice, validate
from .discrete_equilibrium import count_feasible

RNG_ALGORITHM = "numpy:PCG64"

IRREDUCIBILITY_VERIFIED = "verified"
IRREDUCIBILITY_FAILED = "failed"
IRREDUCIBILITY_UNCHECKED = "unchecked"


@dataclass(frozen=True)
class ChainConfig:
    """Metropolis chain parameters; burn_in < steps, thin >= 1."""

    steps: int
    burn_in: int = 0
    seed: int = 0
    thin: int = 1

    def __post_init__(self):
        if self.steps < 1:
            raise DomainError("steps must be positive")
        if not 0 <= self.burn_in < self.steps:
            raise DomainError("burn_in must satisfy 0 <= burn_in < steps")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit a 64-bit unsigned integer")


@dataclass(frozen=True)
class SampleSummary:
    """Recorded-state statistics of one (or one merged group of) chain(s).

    visit_frequencies maps occupation tuples to empirical probabilities
    (they sum to 1); irreducibility is "verified" / "failed" when the
    feasible set has at most max_enumeration states, "unchecked" when it has
    more (an honest warning flag: connectivity was not tested, not failed).
    acceptance_rate is accepted moves per step (0.0 when the move table is
    empty); a step whose drawn move would empty a sector counts as rejected.
    """

    visit_frequencies: dict[tuple[int, ...], float]
    mean_occupation: tuple[float, ...]
    acceptance_rate: float
    sample_count: int
    rng_algorithm: str
    irreducibility: str

    def to_json_dict(self) -> dict:
        freqs = {";".join(map(str, state)): freq
                 for state, freq in sorted(self.visit_frequencies.items())}
        return {
            "rng_algorithm": self.rng_algorithm,
            "irreducibility": self.irreducibility,
            "sample_count": self.sample_count,
            "acceptance_rate": self.acceptance_rate,
            "mean_occupation": list(self.mean_occupation),
            "visit_frequencies": freqs,
        }

    def to_csv(self) -> str:
        lines = ["state,frequency"]
        for state, freq in sorted(self.visit_frequencies.items()):
            lines.append(f"{';'.join(map(str, state))},{freq:.17g}")
        return "\n".join(lines) + "\n"


def _move_table(units: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Index quadruples (i, i+k, j, j-k) of the demand-conserving moves, no-op swaps left out."""
    g = len(units)
    return tuple((i, i + k, j, j - k)
                 for i in range(g) for k in range(1, g - i) for j in range(k, g)
                 if j != i + k and units[j] - units[j - k] == units[i + k] - units[i])


def _moves(counts: tuple[int, ...], table) -> list[tuple[int, ...]]:
    """The state each feasible move leads to; a state reached by m moves appears m times."""
    out = []
    for i, up, j, down in table:
        if counts[i] and counts[j] and (i != j or counts[i] >= 2):
            cand = list(counts)
            cand[i] -= 1
            cand[up] += 1
            cand[j] -= 1
            cand[down] += 1
            out.append(tuple(cand))
    return out


def propose_pair_move(state: OccupationVector, levels, rng) -> OccupationVector:
    """One constraint-preserving proposal; returns the state itself when no move exists."""
    units, _ = integer_lattice(levels)
    if len(units) != len(state.counts):
        raise DomainError("levels and state must have equal length")
    cands = _moves(state.counts, _move_table(units))
    if not cands:
        return state
    return OccupationVector(cands[int(rng.integers(len(cands)))])


def _start_and_irreducibility(units, n: int, demand: int, table, max_enumeration: int):
    """The first feasible state in walk order and the chain's irreducibility label."""
    count, first = count_feasible(units, n, demand, max(max_enumeration, 0) + 1)
    if count == 0:
        raise NoFeasibleState("no integer allocation satisfies both constraints")
    start = first(1)[0]
    if count > max_enumeration:
        return start, IRREDUCIBILITY_UNCHECKED
    seen = {start}
    frontier = [start]
    while frontier:
        for cand in _moves(frontier.pop(), table):
            if cand not in seen:
                seen.add(cand)
                frontier.append(cand)
    return start, IRREDUCIBILITY_VERIFIED if len(seen) == count else IRREDUCIBILITY_FAILED


def run_chain(params: EconomyParams, config: ChainConfig,
              max_enumeration: int = 200_000) -> SampleSummary:
    """Run one Metropolis chain and summarize the post-burn-in visits.

    Requires an integer-lattice instance with at least one feasible
    allocation (NoFeasibleState otherwise).  Identical (params, config)
    give a bit-identical summary.
    """
    params = validate(params)
    if params.n != int(params.n):
        raise DomainError(f"sampling needs an integral worker count, got {params.n}")
    n = int(params.n)
    units_all, _ = integer_lattice((*params.levels, params.D))
    units, demand = units_all[:-1], units_all[-1]

    table = _move_table(units)
    start, irreducibility = _start_and_irreducibility(units, n, demand, table, max_enumeration)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    state = list(start)
    visits: Counter = Counter()
    accepted = 0
    for step in range(config.steps):
        if table:
            i, up, j, down = table[int(rng.integers(len(table)))]
            num = state[i] * (state[j] - (i == j))
            den = (state[up] + 1) * (state[down] + 1 + (up == down))
            if num and (num >= den or rng.random() * den < num):
                state[i] -= 1
                state[up] += 1
                state[j] -= 1
                state[down] += 1
                accepted += 1
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            visits[tuple(state)] += 1

    recorded = sum(visits.values())
    freqs = {s: cnt / recorded for s, cnt in visits.items()}
    return SampleSummary(
        visit_frequencies=freqs,
        mean_occupation=tuple(sum(cnt * s[k] for s, cnt in visits.items()) / recorded
                              for k in range(params.g)),
        acceptance_rate=accepted / config.steps,
        sample_count=recorded,
        rng_algorithm=RNG_ALGORITHM,
        irreducibility=irreducibility,
    )


def merge_summaries(summaries: list[SampleSummary]) -> SampleSummary:
    """Associative merge: frequencies and means averaged by sample count."""
    if not summaries:
        raise DomainError("nothing to merge")
    total = sum(s.sample_count for s in summaries)
    freqs: dict[tuple[int, ...], float] = {}
    for s in summaries:
        for state, f in s.visit_frequencies.items():
            freqs[state] = freqs.get(state, 0.0) + f * (s.sample_count / total)
    g = len(summaries[0].mean_occupation)
    mean = tuple(
        sum(s.mean_occupation[j] * s.sample_count for s in summaries) / total
        for j in range(g)
    )
    acceptance = sum(s.acceptance_rate * s.sample_count for s in summaries)
    flags = {s.irreducibility for s in summaries}
    if IRREDUCIBILITY_FAILED in flags:
        merged_irr = IRREDUCIBILITY_FAILED
    elif IRREDUCIBILITY_UNCHECKED in flags:
        merged_irr = IRREDUCIBILITY_UNCHECKED
    else:
        merged_irr = IRREDUCIBILITY_VERIFIED
    return SampleSummary(
        visit_frequencies=freqs,
        mean_occupation=mean,
        acceptance_rate=acceptance / total,
        sample_count=total,
        rng_algorithm=summaries[0].rng_algorithm,
        irreducibility=merged_irr,
    )
