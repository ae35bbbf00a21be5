"""The raw-word decoder against numpy's Generator, and chains against a Generator loop.

Pcg64Draws decodes PCG64.random_raw words the way numpy.random.Generator
decodes them for integers(m) and random().  The chain consumes the stream
through it, so its summaries must equal those of the per-step Generator
loop kept below, which drew each step with Generator.integers and
Generator.random.
"""

import json
import random
from collections import Counter

import numpy as np
import pytest

from aym import ChainConfig, DomainError, EconomyParams, make_ladder, run_chain
from aym.discrete_equilibrium import lattice_fibre
from aym.occupation_sampler import (
    RNG_ALGORITHM,
    SampleSummary,
    Pcg64Draws,
    _RAW_BLOCK,
    _move_table,
    _start_and_irreducibility,
)

SEEDS = (0, 1, 2 ** 64 - 1)
BOUNDS = (1, 2, 3, 20, 240, 2 ** 31 + 1, 2 ** 32 - 1)


@pytest.mark.parametrize("m", BOUNDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_decoder_matches_generator_on_random_interleavings(seed, m):
    # 4 blocks of calls, one in three a random(): about 3 blocks of raw words
    generator = np.random.Generator(np.random.PCG64(seed))
    draws = Pcg64Draws(seed, m)
    calls = random.Random(f"{seed}/{m}")
    for step in range(4 * _RAW_BLOCK):
        if calls.random() < 1 / 3:
            assert draws.random() == generator.random(), step
        else:
            assert draws.integers() == int(generator.integers(m)), step
    # the decoder read as many words as the generator, and no half-word more
    assert draws.random() == generator.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_random_alone_is_the_raw_stream(seed):
    draws = Pcg64Draws(seed, 3)
    words = np.random.PCG64(seed).random_raw(3 * _RAW_BLOCK + 5)
    assert [draws.random() for _ in words] == [(int(w) >> 11) * 2.0 ** -53 for w in words]


@pytest.mark.parametrize("m", (0, -1, 2 ** 32))
def test_bound_outside_32_bits_is_rejected(m):
    with pytest.raises(DomainError):
        Pcg64Draws(0, m)


def generator_chain(params: EconomyParams, config: ChainConfig,
                    max_enumeration: int = 200_000) -> SampleSummary:
    """run_chain as it was with one Generator call per draw: the reference."""
    units, n, demand = lattice_fibre(params)
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


LONG_CHAINS = [
    ("oracle", EconomyParams((1, 2, 3), 4, 8), ChainConfig(60_000, 6_000, 2 ** 64 - 1, 5)),
    ("small_ladder", EconomyParams((1, 2, 3, 4, 5), 7, 17), ChainConfig(40_000, 0, 0, 1)),
    ("non_uniform", EconomyParams((1, 2, 4, 7, 8), 12, 61), ChainConfig(30_000, 999, 11, 3)),
    ("ladder_g10", make_ladder(1.0, 10, 60, 180), ChainConfig(30_000, 10_000, 1, 7)),
    ("one_sector", EconomyParams((2.0,), 3, 6), ChainConfig(5_000, 7, 3, 4)),
]


@pytest.mark.parametrize("params, config", [case[1:] for case in LONG_CHAINS],
                         ids=[case[0] for case in LONG_CHAINS])
def test_long_chain_equals_generator_loop(params, config):
    got = run_chain(params, config)
    want = generator_chain(params, config)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert list(got.visit_frequencies) == list(want.visit_frequencies)
