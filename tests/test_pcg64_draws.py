"""The raw-word decoder against numpy's Generator, and chains against a Generator loop.

Pcg64Draws decodes PCG64 words the way numpy.random.Generator decodes them
for integers(m) and random(), whether the words come from PCG64.random_raw
or from the module's pure-Python PCG64; the interleaving tests run on both
sources.  The chain consumes the stream through it, so its summaries must
equal those of the per-step Generator loop kept below, which drew each step
with Generator.integers and Generator.random.
"""

import json
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aym import ChainConfig, DomainError, EconomyParams, make_ladder, run_chain
from aym import occupation_sampler
from aym.lattice import count_feasible, lattice_fibre
from aym.occupation_sampler import (Pcg64Draws, _RAW_BLOCK, _acceptance_threshold, _fibre_setup,
                                    _pcg64_words)

SEEDS = (0, 1, 2 ** 64 - 1)
BOUNDS = (1, 2, 3, 20, 240, 2 ** 31 + 1, 2 ** 32 - 1)


@pytest.fixture(params=["numpy", "python"])
def source(request, monkeypatch):
    """Each Pcg64Draws made in the test takes its words from the named source."""
    monkeypatch.setattr(occupation_sampler, "_numpy_words", lambda bound: request.param == "numpy")
    return request.param


# the seed's 32-bit words and the 64-bit bound: SeedSequence hashes one word or two
BOUNDARY_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 64 - 1) | st.integers(0, 2 ** 32 + 5))
@example(2 ** 32 - 1)
def test_python_words_are_numpys_words(seed):
    assert _pcg64_words(seed)(4_096) == np.random.PCG64(seed).random_raw(4_096).tolist()


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_python_words_are_numpys_words_at_the_seed_boundaries(seed):
    words = _pcg64_words(seed)
    raw = np.random.PCG64(seed).random_raw(5_000).tolist()
    # the state carries over from one call to the next
    assert words(0) + words(1) + words(4_095) + words(904) == raw


def test_the_source_rule(monkeypatch):
    budget = occupation_sampler._PY_WORD_BUDGET
    monkeypatch.setattr(occupation_sampler, "_python_words", [])
    # numpy already imported: numpy words, however short the chain
    assert occupation_sampler._numpy_words(0) and occupation_sampler._numpy_words(1)
    monkeypatch.setitem(sys.modules, "numpy", None)  # as when numpy is blocked from import
    assert not occupation_sampler._numpy_words(budget)
    assert occupation_sampler._numpy_words(budget + 1)
    # every Python word made counts against the budget, so many short chains add up
    _pcg64_words(3)(1_000)
    assert sum(occupation_sampler._python_words) == 1_000
    assert not occupation_sampler._numpy_words(budget - 1_000)
    assert occupation_sampler._numpy_words(budget - 999)


def test_concurrent_chains_lose_no_python_word_count(monkeypatch):
    monkeypatch.setattr(occupation_sampler, "_python_words", [])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(_pcg64_words(seed), size) for seed in range(64)
                       for size in (1, 7, 100)]
            made = [len(future.result(timeout=60)) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sum(occupation_sampler._python_words) == sum(made) == 64 * 108


@pytest.mark.parametrize("m", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_decoder_matches_generator_on_random_interleavings(source, seed, m):
    # 4 blocks of calls, one in three a random(): about 3 blocks of raw words
    generator = np.random.Generator(np.random.PCG64(seed))
    draws = Pcg64Draws(seed, m)
    calls = random.Random(f"{seed}/{m}")
    for step in range(4 * _RAW_BLOCK):
        if calls.random() < 1 / 3:
            assert draws.random() == generator.random(), step
        else:
            assert next(draws.indices) == int(generator.integers(m)), step
    # the decoder read as many words as the generator, and no half-word more
    assert draws.random() == generator.random()


class _FixedWords:
    """A stand-in for numpy's PCG64 whose random_raw returns the given words, then repeats."""

    def __init__(self, words):
        self._words = words

    def random_raw(self, size):
        return np.array((self._words * size)[:size], dtype=np.uint64)


@pytest.mark.parametrize("m", (3, 2 ** 31 + 1, 2 ** 32 - 1))  # odd, so u -> u * m is a bijection
@pytest.mark.parametrize("blocks", ("_numpy_blocks", "_python_blocks"))
def test_each_decoder_rejects_exactly_below_the_threshold(monkeypatch, blocks, m):
    # halves u with (u * m) mod 2**32 one below the threshold, at it and one above it: only
    # the first is rejected; the random streams almost never reach these edges
    threshold = (2 ** 32 - m) % m
    halves = [(target * pow(m, -1, 2 ** 32)) % 2 ** 32 for target in range(threshold - 1,
                                                                          threshold + 2)]
    words = [low | high << 32 for low in halves for high in halves]
    monkeypatch.setattr(np.random, "PCG64", lambda seed: _FixedWords(words))
    monkeypatch.setattr(occupation_sampler, "_pcg64_words", lambda seed: lambda size: words[:size])

    def draw(u):
        return (u * m) >> 32 if (u * m) % 2 ** 32 >= threshold else -1

    want = [(draw(w & 0xFFFF_FFFF), draw(w >> 32), (w >> 11) * 2.0 ** -53) for w in words]
    assert [d for d, _, _ in want].count(-1) == 3
    assert list(getattr(occupation_sampler, blocks)(0, m, threshold)(len(words))) == want


@pytest.mark.parametrize("m", [None, *BOUNDS])  # None: 5 + trial
@pytest.mark.parametrize("first_block", (0, 1, 2, 3, 7, 300))
def test_short_first_block_leaves_the_stream_unchanged(source, first_block, m):
    # the interleavings cross the end of the short block on a low or a high half
    for trial in range(8):
        bound = 5 + trial if m is None else m
        generator = np.random.Generator(np.random.PCG64(trial))
        draws = Pcg64Draws(trial, bound, first_block)
        calls = random.Random(f"{first_block}/{trial}")
        for step in range(first_block + _RAW_BLOCK // 2):
            if calls.random() < 1 / 3:
                assert draws.random() == generator.random(), (trial, step)
            else:
                assert next(draws.indices) == int(generator.integers(bound)), (trial, step)


@pytest.mark.parametrize("m", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_random_alone_is_the_raw_stream(source, seed, m):
    draws = Pcg64Draws(seed, m)
    words = np.random.PCG64(seed).random_raw(3 * _RAW_BLOCK + 5)
    assert [draws.random() for _ in words] == [(int(w) >> 11) * 2.0 ** -53 for w in words]


@pytest.mark.parametrize("m", (0, -1, 2 ** 32))
def test_bound_outside_32_bits_is_rejected(m):
    with pytest.raises(DomainError):
        Pcg64Draws(0, m)


def generator_chain(params: EconomyParams, config: ChainConfig,
                    max_enumeration: int = 200_000) -> tuple[dict, list]:
    """run_chain as it was with one Generator call per draw: the reference.

    Returns the summary's expected JSON dict and its states in first-record
    order, with the frequencies, means and rate computed here, not read
    from a SampleSummary.
    """
    table, start, irreducibility, *_ = _fibre_setup(*lattice_fibre(params), max_enumeration)

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
    return {
        "rng_algorithm": "numpy:PCG64",
        "irreducibility": irreducibility,
        "sample_count": recorded,
        "acceptance_rate": accepted / config.steps,
        "mean_occupation": [sum(cnt * s[k] for s, cnt in visits.items()) / recorded
                            for k in range(params.g)],
        "visit_frequencies": {";".join(map(str, s)): visits[s] / recorded
                              for s in sorted(visits)},
    }, list(visits)


def _assert_same_chain(params, config, cap=200_000):
    got = run_chain(params, config, cap)
    want, order = generator_chain(params, config, cap)
    assert json.dumps(got.to_json_dict()) == json.dumps(want)
    assert list(got.visit_frequencies) == list(got.visit_counts) == order
    assert list(got.mean_occupation) == want["mean_occupation"]


LONG_CHAINS = [
    ("oracle", EconomyParams((1, 2, 3), 4, 8), ChainConfig(60_000, 6_000, 2 ** 64 - 1, 5)),
    ("small_ladder", EconomyParams((1, 2, 3, 4, 5), 7, 17), ChainConfig(40_000, 0, 0, 1)),
    # past one path chunk of 2**16 steps
    ("two_chunks", EconomyParams((1, 2, 3, 4, 5), 7, 17), ChainConfig(70_000, 1_000, 12, 3)),
    ("non_uniform", EconomyParams((1, 2, 4, 7, 8), 12, 61), ChainConfig(30_000, 999, 11, 3)),
    ("ladder_g10", make_ladder(1.0, 10, 60, 180), ChainConfig(30_000, 10_000, 1, 7)),
    ("one_sector", EconomyParams((2.0,), 3, 6), ChainConfig(5_000, 7, 3, 4)),
]


@pytest.mark.parametrize("params, config", [case[1:] for case in LONG_CHAINS],
                         ids=[case[0] for case in LONG_CHAINS])
def test_long_chain_equals_generator_loop(source, params, config):
    _assert_same_chain(params, config)


@st.composite
def small_fibre_chains(draw):
    """(params, config, max_enumeration) on g 1-5, n 0-9, with the cap drawn around
    count, the threshold between the plain loop and the table walk."""
    g = draw(st.sampled_from([3, 4, 5, 1, 2]))  # below 3 sectors the table is empty
    units = sorted(draw(st.sets(st.integers(1, 6), min_size=g, max_size=g)))
    n = draw(st.sampled_from([*range(1, 10), 0]))
    demand = sum(draw(st.lists(st.sampled_from(units), min_size=n, max_size=n)))
    fibre = (tuple(units), n, demand)
    count = count_feasible(*fibre, 10 ** 6)[0]
    steps = draw(st.integers(1, 3_000))
    cap = draw(st.sampled_from([count, count + 1, max(0, count - 1)]) | st.integers(0, 50))
    burn_in = draw(st.integers(0, steps - 1))
    seed, thin = draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(1, 9))
    config = ChainConfig(steps, burn_in, seed, thin)
    return EconomyParams(tuple(units), n, demand), config, cap


def _count_loops(monkeypatch) -> Counter:
    """Calls of each step loop from now on, by name."""
    ran = Counter()
    for name in ("_walk", "_table_walk"):
        loop = getattr(occupation_sampler, name)
        def counted(*args, _loop=loop, _name=name):
            ran[_name] += 1
            return _loop(*args)
        monkeypatch.setattr(occupation_sampler, name, counted)
    return ran


def test_both_step_loops_equal_the_generator_loop(monkeypatch):
    ran = _count_loops(monkeypatch)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(small_fibre_chains())
    def check(chain):
        params, config, cap = chain
        if params.n == 0:  # an empty economy has no chain
            with pytest.raises(DomainError):
                run_chain(params, config, cap)
            return
        _assert_same_chain(params, config, cap)

    check()
    assert ran["_walk"] >= 20 and ran["_table_walk"] >= 20, ran


# on levels 1..6 with 40 moves: 1,638 states fill 65,520 slots, 1,645 would need 65,800
BELOW_BUDGET = EconomyParams((1, 2, 3, 4, 5, 6), 22, 67)
ABOVE_BUDGET = EconomyParams((1, 2, 3, 4, 5, 6), 21, 72)


@pytest.mark.parametrize("params, loop", [(BELOW_BUDGET, "_table_walk"), (ABOVE_BUDGET, "_walk")],
                         ids=["below", "above"])
def test_the_memo_budget_picks_the_loop(monkeypatch, params, loop):
    fibre = lattice_fibre(params)
    table, _, irreducibility, _, transitions = _fibre_setup(*fibre, 200_000)
    slots = count_feasible(*fibre, 200_000)[0] * len(table)
    assert irreducibility == "verified"
    assert (slots <= occupation_sampler._MEMO_BUDGET) == (loop == "_table_walk")
    assert (transitions is not None) == (loop == "_table_walk")
    ran = _count_loops(monkeypatch)
    _assert_same_chain(params, ChainConfig(3_000, 500, 7, 3))
    assert ran == {loop: 1}


def test_a_verified_fibre_over_the_budget_keeps_no_table():
    fibre = lattice_fibre(ABOVE_BUDGET)
    assert count_feasible(*fibre, 10 ** 6)[0] == 1645
    assert _fibre_setup(*fibre, 200_000)[2:] == ("verified", None, None)
    # nor does an unchecked fibre, whose count is only a bound
    assert _fibre_setup(*fibre, 1_000)[2:] == ("unchecked", None, None)


# levels 1,3,4,6 have 4 moves, and only 1+6 = 3+4 conserves demand at two workers, so the
# moves reach a part of the 21,001 states: 84,004 slots, past the budget
DISCONNECTED = EconomyParams((1, 3, 4, 6), 500, 1750)


def test_a_failed_fibre_over_the_budget_keeps_no_table(monkeypatch):
    fibre = lattice_fibre(DISCONNECTED)
    slots = count_feasible(*fibre, 10 ** 6)[0] * len(_fibre_setup(*fibre, 200_000)[0])
    assert slots == 21_001 * 4 > occupation_sampler._MEMO_BUDGET
    assert _fibre_setup(*fibre, 200_000)[2:] == ("failed", None, None)
    ran = _count_loops(monkeypatch)
    _assert_same_chain(DISCONNECTED, ChainConfig(2_000, 100, 5, 2))
    assert ran == {"_walk": 1}


TABLED = ("oracle", "small_ladder", "non_uniform")  # the last is not irreducible
# a fibre with D at the low end of the hull has few states at any n: here two, whose
# moves have den = n - 1 = 2**55 - 1, past 2**53, where float(den) rounds
WIDE = EconomyParams((0, 1, 2), 2 ** 55, 2)


@pytest.mark.parametrize("params", [*(case[1] for case in LONG_CHAINS if case[0] in TABLED), WIDE],
                         ids=[*TABLED, "wide"])
def test_each_transition_slot_holds_its_move(params):
    # the slot of (state, move) holds the moved state's slot, or the state's own when the
    # move would empty a sector, and a threshold that decides as the weight ratio's integer
    # numerator and denominator do: on either side of its last accepted uniform
    fibre = lattice_fibre(params)
    table, start, irreducibility, states, transitions = _fibre_setup(*fibre, 200_000)
    count = count_feasible(*fibre, 200_000)[0]
    m = len(table)
    assert isinstance(states, tuple) and isinstance(transitions, tuple)
    assert states[0] == start and len(set(states)) == len(states)
    assert len(states) == count if irreducibility == "verified" else len(states) < count
    assert len(transitions) == len(states) * m
    slots = {state: number * m for number, state in enumerate(states)}
    for number, state in enumerate(states):
        for k, (i, up, j, down) in enumerate(table):
            num = state[i] * (state[j] - (i == j))
            den = (state[up] + 1) * (state[down] + 1 + (up == down))
            moved = list(state)
            if num:
                moved[i] -= 1
                moved[up] += 1
                moved[j] -= 1
                moved[down] += 1
            target, threshold = transitions[number * m + k]
            assert target == slots[tuple(moved)]
            _assert_threshold_decides(threshold, num, den)


def _assert_threshold_decides(threshold, num, den):
    """threshold is 0.0 for num 0, above 1 for num >= den, and otherwise K * 2**-53 with
    the uniform (K-1) * 2**-53 accepted by the num/den test and K * 2**-53, if below 1, not."""
    if not num:
        assert threshold == 0.0
    elif num >= den:
        assert threshold > 1.0
    else:
        k = threshold * 2 ** 53
        assert k == int(k) and 1 <= k <= 2 ** 53
        assert (k - 1) * 2.0 ** -53 * den < num
        assert k == 2 ** 53 or not k * 2.0 ** -53 * den < num


# 0 < num < den up to about 2**40 (n**2 / 4 at n = 65,000 is about 2**30), and past 2**53:
# a tabled fibre can have any n when D sits near the low end of the hull (WIDE), so den
# can pass 2**53, where float(den) rounds and the product can round either way; a uniform
# is a multiple of 2**-53 in [0, 1)
@st.composite
def ratios(draw):
    den = draw(st.integers(2, 2 ** 40) | st.integers(2 ** 53, 2 ** 64))
    return draw(st.integers(1, den - 1) | st.integers(max(1, den - 9), den - 1)), den


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(ratios(), st.lists(st.integers(0, 2 ** 53 - 1), max_size=8))
@example((2 ** 60 + 50, 2 ** 60 + 100), [])  # float(den) = 2**60 < num: every u < 1 accepts
def test_threshold_accepts_exactly_the_uniforms_the_ratio_accepts(ratio, words):
    num, den = ratio
    threshold = _acceptance_threshold(num, den)
    _assert_threshold_decides(threshold, num, den)
    for u in (threshold - 2.0 ** -53, threshold, *(w * 2.0 ** -53 for w in words)):
        if u < 1.0:
            assert (u < threshold) == (u * den < num), (num, den, u)


class _ScriptedDraws:
    """Draws with the given move indices and uniforms; random() counts its calls."""

    def __init__(self, indices, uniforms):
        self.indices, self._uniforms, self.calls = iter(indices), iter(uniforms), 0

    def random(self):
        self.calls += 1
        return next(self._uniforms)


def test_the_table_walk_draws_only_for_an_uncertain_move():
    # two states, three moves each: move 0 would empty a sector (num 0) and move 1 is sure
    # (num >= den); move 2 has the ratio 1/2, whose threshold is 0.5 itself, from the first
    # state, and from the second a ratio below 1 that every uniform passes, threshold 1.0
    assert _acceptance_threshold(0, 5) == _acceptance_threshold(0, 1) == 0.0
    assert _acceptance_threshold(7, 3) > 1.0 and _acceptance_threshold(3, 3) > 1.0
    half, whole = _acceptance_threshold(1, 2), _acceptance_threshold(2 ** 60 + 50, 2 ** 60 + 100)
    assert (half, whole) == (0.5, 1.0)
    states = ((1, 0), (0, 1))
    transitions = ((0, _acceptance_threshold(0, 5)), (3, _acceptance_threshold(7, 3)), (3, half),
                   (3, _acceptance_threshold(0, 1)), (0, _acceptance_threshold(3, 3)), (0, whole))
    # 0.5 rejects the ratio 1/2 (0.5 * 2 < 1 is false), the uniform below it accepts
    draws = _ScriptedDraws([0, 1, 0, 2, 2, 2], [0.75, 0.5, 0.5 - 2.0 ** -53])
    visits, accepted = occupation_sampler._table_walk(states, transitions, ChainConfig(6), draws)
    assert (visits, accepted, draws.calls) == ({(1, 0): 3, (0, 1): 3}, 3, 3)


@pytest.mark.parametrize("chunk", (1, 2, 3, 7, 64))
def test_table_walk_counts_across_path_chunks(monkeypatch, chunk):
    # each chunk of the path is counted on its own, from the first record inside it
    monkeypatch.setattr(occupation_sampler, "_PATH_CHUNK", chunk)
    ran = _count_loops(monkeypatch)
    for params, config in [(EconomyParams((1, 2, 3), 4, 8), ChainConfig(500, 0, 1, 1)),
                           (EconomyParams((1, 2, 3, 4, 5), 7, 17), ChainConfig(701, 13, 2, 5)),
                           (EconomyParams((1, 2, 3, 4, 5), 7, 17), ChainConfig(300, 299, 3, 9)),
                           (EconomyParams((1, 2, 4, 7, 8), 12, 61), ChainConfig(999, 70, 4, 64))]:
        _assert_same_chain(params, config)
    assert ran == {"_table_walk": 4}
