"""Metropolis sampling of occupation vectors on the conservation surface.

Target law: the multinomial weight n!/prod(n_i!) restricted to integer
allocations with both sums conserved.  A pair move sends one worker from
sector i up to i+k and another from j down to j-k; the move table holds the
quadruples (i, i+k, j, j-k) that conserve demand, without the no-op swaps
j = i+k.

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

Irreducibility: count_feasible counts the feasible set up to just past
max_enumeration without listing it; if the count fits, a search over the
moves from the start state (moves never leave the set) must reach it all.
The search keys a state by its digits in base n+1, so a move adds a fixed
delta to the key, and it goes breadth first: a state is numbered when first
reached, and the numbers are the one record of what the search has reached.

A summary keeps what its chain counted (recorded visits per state, steps,
accepted moves) and derives the rest, so a merge adds integers and is exact.

Chains are deterministic given (params, config): the generator is numpy's
PCG64 seeded with config.seed, recorded in the summary as "numpy:PCG64".
Pcg64Draws reads its raw 64-bit words in blocks and decodes them exactly as
numpy.random.Generator does.  A step takes the table index from
Pcg64Draws.indices, the draw of integers(len(table)), a 32-bit half word:
the low half of a fresh word, or the high half kept from the word before,
and one more half per Lemire rejection.  Only a move with
0 < w(y)/w(x) < 1 then takes random(), one whole word, which leaves a kept
half for the next step.  These are the words the per-step
Generator.integers and Generator.random calls took, so every chain is the
one those calls gave.  The first block is no longer than a chain of
config.steps steps can use when no half word is rejected.

Cost.  What a chain takes from its fibre (units, n, demand) and cap alone
is worked out once per process and kept, as tuples, ints, floats and
strings, for the last 8 fibres: the move table, the start state, the
irreducibility label and, when the fibre's count is at most max_enumeration
and count * len(table) <= _MEMO_BUDGET, the transition table the
irreducibility search fills as it visits every (state, move) pair, state
by state in the order it numbers them.  A slot holds the moved state and
the acceptance threshold of the move's weight ratio, the float t for which
u < t exactly when u * den < num on every uniform u, so a step is a lookup
and one compare, and it draws a word only when the ratio is below 1, as
the plain loop does.  A chain counts the slots it passes once per
_PATH_CHUNK steps.  A table takes about 68 B a slot, up to 176 B where its
ints pass 256, so 8 tables hold about 36 MB (92 MB at 176 B a slot).  Every
other chain runs the plain loop, whose cost per step does not depend on the
fibre.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import DomainError, NoFeasibleState
from .lattice import _move_table, count_feasible, lattice_fibre
from .model_core import EconomyParams, _csv_text, _state_text

IRREDUCIBILITY_VERIFIED = "verified"
IRREDUCIBILITY_FAILED = "failed"
IRREDUCIBILITY_UNCHECKED = "unchecked"

_RAW_BLOCK = 1024  # PCG64 words drawn at a time; a chain holds one decoded block
_MEMO_BUDGET = 2 ** 16  # most transition slots a fibre keeps; about 68 B a slot, so ~4.4 MB
_PATH_CHUNK = 2 ** 16  # steps a table walk records before it counts them


class Pcg64Draws:
    """Generator(PCG64(seed)).integers(m) and .random() for one bound m, from raw words.

    next(indices) and random() return what numpy's Generator returns for the
    same interleaving of integers(m) and random() calls.  The words come from
    PCG64.random_raw in blocks of _RAW_BLOCK, the first of them at most
    first_block long, so memory does not grow with the number of draws and a
    short chain decodes few words.  Each block is decoded the way numpy
    decodes a word (Lemire, ACM TOMACS 29(1), 2019):

    * indices takes 32-bit halves in stream order: the low half of a fresh
      word, then its high half for the next index.  A half u is rejected,
      and the next half taken, while (u*m) mod 2**32 < (2**32 - m) mod m;
      otherwise the draw is (u*m) >> 32.  When m == 1 nothing is drawn.
    * random() takes the next whole word w as (w >> 11) * 2**-53 and leaves a
      kept high half for the next index.
    """

    def __init__(self, seed: int, m: int, first_block: int = _RAW_BLOCK):
        if not 1 <= m < 2 ** 32:
            raise DomainError(f"integers bound must be in [1, 2**32), got {m}")
        self._bitgen = np.random.PCG64(seed)
        self._m = np.uint64(m)
        self._threshold = np.uint64((2 ** 32 - m) % m)
        # both read one iterator of decoded words; the generator behind
        # indices holds a word's high half until its next item is taken
        sizes = chain((min(first_block, _RAW_BLOCK),), repeat(_RAW_BLOCK))
        words = chain.from_iterable(map(self._block, sizes))
        self.random = map(itemgetter(2), words).__next__
        self.indices = repeat(0) if m == 1 else self._halves(words)

    def _block(self, size: int):
        """(low-half draw, high-half draw, uniform) per raw word; a rejected half reads -1."""
        words = self._bitgen.random_raw(size)
        mask, draws = np.uint64(0xFFFF_FFFF), []
        for half in (words & mask, words >> np.uint64(32)):
            scaled = half * self._m
            draw = (scaled >> np.uint64(32)).astype(np.int64)
            draw[(scaled & mask) < self._threshold] = -1
            draws.append(draw.tolist())
        uniforms = ((words >> np.uint64(11)) * 2.0 ** -53).tolist()
        return zip(*draws, uniforms)

    @staticmethod
    def _halves(words):
        for low, high, _ in words:
            if low >= 0:
                yield low
            if high >= 0:
                yield high


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
    """What one chain (or one merged group of chains) counted, and what follows from it.

    visit_counts maps occupation tuples to recorded steps, in first-record
    order; steps and accepted count the steps and the accepted moves, so
    acceptance_rate is accepted / steps (0.0 when the move table is empty;
    a step whose drawn move would empty a sector counts as rejected).
    sample_count, visit_frequencies (they sum to 1) and mean_occupation are
    read from visit_counts.  irreducibility is "verified" / "failed" when the
    feasible set has at most max_enumeration states, "unchecked" when it has
    more (an honest warning flag: connectivity was not tested, not failed).
    A summary with no visits, a count that is not a positive int, states of
    unequal length, steps < 1, accepted outside [0, steps] or another label
    is a DomainError.
    """

    visit_counts: dict[tuple[int, ...], int]
    steps: int
    accepted: int
    irreducibility: str
    rng_algorithm = "numpy:PCG64"  # the one generator; see Pcg64Draws

    def __post_init__(self):
        counts = self.visit_counts
        if not counts:
            raise DomainError("a summary needs at least one visited state")
        if set(map(type, counts.values())) != {int} or min(counts.values()) < 1:
            raise DomainError("visit counts must be positive ints")
        if len(set(map(len, counts))) != 1:
            raise DomainError("visited states must all have one sector count")
        if self.steps < 1:
            raise DomainError(f"steps must be at least 1, got {self.steps}")
        if not 0 <= self.accepted <= self.steps:
            raise DomainError(f"accepted moves must lie in [0, {self.steps}], got {self.accepted}")
        if self.irreducibility not in (IRREDUCIBILITY_VERIFIED, IRREDUCIBILITY_FAILED,
                                       IRREDUCIBILITY_UNCHECKED):
            raise DomainError(f"unknown irreducibility label {self.irreducibility!r}")

    @property
    def sample_count(self) -> int:
        return sum(self.visit_counts.values())

    @property
    def visit_frequencies(self) -> dict[tuple[int, ...], float]:
        recorded = self.sample_count
        return {s: cnt / recorded for s, cnt in self.visit_counts.items()}

    @property
    def mean_occupation(self) -> tuple[float, ...]:
        recorded, g = self.sample_count, len(next(iter(self.visit_counts)))
        return tuple(sum(cnt * s[k] for s, cnt in self.visit_counts.items()) / recorded
                     for k in range(g))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.steps

    def to_json_dict(self) -> dict:
        freqs = {_state_text(state): freq for state, freq in sorted(self.visit_frequencies.items())}
        return {
            "rng_algorithm": self.rng_algorithm,
            "irreducibility": self.irreducibility,
            "sample_count": self.sample_count,
            "acceptance_rate": self.acceptance_rate,
            "mean_occupation": list(self.mean_occupation),
            "visit_frequencies": freqs,
        }

    def to_csv(self) -> str:
        rows = sorted(self.visit_frequencies.items())
        return _csv_text(("state", "frequency"),
                         ([_state_text(s) for s, _ in rows], [f for _, f in rows]),
                         ("%s", "%.17g"))


@lru_cache(maxsize=8)
def _fibre_setup(units: tuple[int, ...], n: int, demand: int, max_enumeration: int):
    """(table, start, irreducibility, states, transitions): what no seed changes.

    table is _move_table(units) and start the first feasible state in walk
    order.  When the fibre has count <= max_enumeration states, a breadth-first
    search from start numbers each state as it first reaches it, start 0, and
    the label says whether it reached all count.  When also
    count * len(table) <= _MEMO_BUDGET, states lists the reached states and
    transitions their slots, both in number order: slot
    number * len(table) + move holds (target, threshold), target the moved
    state's number times len(table), or the state's own when the move would
    empty a sector, and threshold _acceptance_threshold(num, den) of the
    weight ratio num/den, one float per distinct (num, den); otherwise both
    are None.  The values are immutable, so the chains that share them stay
    independent; an empty fibre raises NoFeasibleState, which is not cached,
    on every call.
    """
    table = _move_table(units)
    count, first = count_feasible(units, n, demand, max_enumeration + 1)
    if count == 0:
        raise NoFeasibleState("no integer allocation satisfies both constraints")
    start = first(1)[0]
    if count > max_enumeration:
        return table, start, IRREDUCIBILITY_UNCHECKED, None, None
    # a state is keyed by its digits in base n+1, so a move adds one fixed delta
    # to the key; the search is breadth first, so states leave the frontier in
    # the order they were numbered, and a state is built only when first reached
    m = len(table)
    place = [(n + 1) ** k for k in range(len(units))]
    steps = [(i, up, j, down, place[up] + place[down] - place[i] - place[j])
             for i, up, j, down in table]
    key = sum(c * p for c, p in zip(start, place))
    numbers = {key: 0}  # a reached key's state number times m, in order of first reach
    tabled = 0 < count * m <= _MEMO_BUDGET
    states, transitions, thresholds, span = [], [], {}, (n + 2) ** 2
    frontier = deque([(start, key)])
    while frontier:
        state, key = frontier.popleft()
        for i, up, j, down, delta in steps:
            if state[i] * (state[j] - (i == j)) and key + delta not in numbers:
                numbers[key + delta] = len(numbers) * m
                moved = list(state)
                moved[i] -= 1
                moved[up] += 1
                moved[j] -= 1
                moved[down] += 1
                frontier.append((tuple(moved), key + delta))
        if tabled:
            at = numbers[key]
            states.append(state)
            for i, up, j, down, delta in steps:
                num = state[i] * (state[j] - (i == j))
                den = (state[up] + 1) * (state[down] + 1 + (up == down))
                if not 0 < num < den:
                    threshold = _acceptance_threshold(num, den)
                else:  # one float per distinct (num, den); den < span, so the key is unique
                    threshold = thresholds.get(num * span + den)
                    if threshold is None:
                        threshold = thresholds[num * span + den] = _acceptance_threshold(num, den)
                transitions.append((numbers[key + delta] if num else at, threshold))
    irreducibility = IRREDUCIBILITY_VERIFIED if len(numbers) == count else IRREDUCIBILITY_FAILED
    if not tabled:
        return table, start, irreducibility, None, None
    return table, start, irreducibility, tuple(states), tuple(transitions)


def _acceptance_threshold(num: int, den: int) -> float:
    """The float t that decides a move of weight ratio num/den as _walk does.

    (t and (t > 1.0 or u < t)) equals (num and (num >= den or u * den < num))
    for every uniform u that Pcg64Draws.random() returns, a multiple of
    2**-53 in [0, 1).  t is 0.0 when num is 0 and 2.0 when num >= den, so
    neither draws a word; otherwise it is K * 2**-53 for the least K with
    not (K * 2**-53) * den < num.  That float test is monotone in u, so
    u < t exactly when u * den < num.
    """
    if not num or num >= den:
        return 2.0 if num else 0.0
    k = -((-num << 53) // den)  # ceil(num * 2**53 / den), then the float test decides
    while not (k - 1) * 2.0 ** -53 * den < num:
        k -= 1
    while k < 2 ** 53 and k * 2.0 ** -53 * den < num:
        k += 1
    return k * 2.0 ** -53


def _walk(table, start, config: ChainConfig, draws: Pcg64Draws):
    """(visits by state in first-record order, accepted moves) of one chain."""
    uniform = draws.random
    visits: Counter = Counter()
    accepted = 0
    state = list(start)
    record, thin = config.burn_in, config.thin
    for step, k in enumerate(islice(draws.indices, config.steps)):
        i, up, j, down = table[k]
        num = state[i] * (state[j] - (i == j))
        den = (state[up] + 1) * (state[down] + 1 + (up == down))
        if num and (num >= den or uniform() * den < num):
            state[i] -= 1
            state[up] += 1
            state[j] -= 1
            state[down] += 1
            accepted += 1
        if step == record:
            visits[tuple(state)] += 1
            record += thin
    return visits, accepted


def _table_walk(states, transitions, config: ChainConfig, draws: Pcg64Draws):
    """_walk's result on a fibre whose transitions _fibre_setup has filled: the chain is at
    its state's slot number * m, and the drawn move's slot is that plus the move's index.
    The draws are _walk's, and the slot's threshold decides as _walk's test does on them.
    A chunk of _PATH_CHUNK steps counts its slots at its end from skip, its first recorded
    step (in the burn-in or thin's phase)."""
    uniform, indices, thin = draws.random, draws.indices, config.thin
    visits: Counter = Counter()
    accepted = at = 0
    skip = config.burn_in
    for done in range(0, config.steps, _PATH_CHUNK):
        path: list[int] = []
        record = path.append
        for k in islice(indices, min(_PATH_CHUNK, config.steps - done)):
            target, threshold = transitions[at + k]
            if threshold and (threshold > 1.0 or uniform() < threshold):
                at = target
                accepted += 1
            record(at)
        visits.update(islice(path, skip, None, thin))
        skip = max(skip - len(path), (skip - len(path)) % thin)
    m = len(transitions) // len(states)
    return {states[at // m]: cnt for at, cnt in visits.items()}, accepted


def run_chain(params: EconomyParams, config: ChainConfig,
              max_enumeration: int = 200_000) -> SampleSummary:
    """Run one Metropolis chain and summarize the post-burn-in visits.

    Requires an integer-lattice instance with at least one feasible
    allocation (NoFeasibleState otherwise).  Identical (params, config)
    give a bit-identical summary.  A negative max_enumeration is a
    DomainError.
    """
    if max_enumeration < 0:
        raise DomainError(f"enumeration cap must be non-negative, got {max_enumeration}")
    table, start, irreducibility, states, transitions = _fibre_setup(*lattice_fibre(params),
                                                                     max_enumeration)

    if not table:
        visits, accepted = {start: len(range(config.burn_in, config.steps, config.thin))}, 0
    else:
        # a step takes at most a word and a half unless a half word is rejected
        draws = Pcg64Draws(config.seed, len(table), (3 * config.steps + 1) // 2 + 1)
        if transitions:
            visits, accepted = _table_walk(states, transitions, config, draws)
        else:
            visits, accepted = _walk(table, start, config, draws)

    return SampleSummary(visits, config.steps, accepted, irreducibility)


def merge_summaries(summaries: list[SampleSummary]) -> SampleSummary:
    """Exact merge: visit counts, steps and accepted moves add up, so merging is associative
    and commutative; the summaries must have equal sector counts (DomainError otherwise)."""
    if not summaries:
        raise DomainError("nothing to merge")
    g, *rest = (len(next(iter(s.visit_counts))) for s in summaries)
    other = next((k for k in rest if k != g), g)
    if other != g:
        raise DomainError(f"cannot merge chains with {g} and {other} sectors")
    visits: Counter = Counter()
    for s in summaries:
        visits.update(s.visit_counts)
    flags = {s.irreducibility for s in summaries}
    merged_irr = next((label for label in (IRREDUCIBILITY_FAILED, IRREDUCIBILITY_UNCHECKED)
                       if label in flags), IRREDUCIBILITY_VERIFIED)
    return SampleSummary(dict(visits), sum(s.steps for s in summaries),
                         sum(s.accepted for s in summaries), merged_irr)
