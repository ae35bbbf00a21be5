import math
import statistics
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from aym import (
    ChainConfig,
    DomainError,
    EconomyParams,
    NoFeasibleState,
    OccupationVector,
    SampleSummary,
    enumerate_feasible,
    make_ladder,
    merge_summaries,
    run_chain,
)
from aym.lattice import _move_table, count_feasible, lattice_fibre
from aym.occupation_sampler import _fibre_setup

ORACLE_PARAMS = EconomyParams((1, 2, 3), 4, 8)
ORACLE_FREQS = {(0, 4, 0): 1 / 19, (1, 2, 1): 12 / 19, (2, 0, 2): 6 / 19}
SMALL_LADDER_PARAMS = EconomyParams((1, 2, 3, 4, 5), 7, 17)


def _rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_config_validation():
    with pytest.raises(DomainError):
        ChainConfig(steps=0)
    with pytest.raises(DomainError):
        ChainConfig(steps=10, burn_in=10)
    with pytest.raises(DomainError):
        ChainConfig(steps=10, thin=0)
    with pytest.raises(DomainError):
        ChainConfig(steps=10, seed=-1)


def _propose(state: OccupationVector, table, rng) -> OccupationVector:
    """One draw of run_chain's proposal: a uniform entry of the move table, or the state
    itself when the table is empty or the drawn move would empty a sector."""
    if not table:
        return state
    i, up, j, down = table[int(rng.integers(len(table)))]
    counts = list(state.counts)
    if not counts[i] * (counts[j] - (i == j)):
        return state
    counts[i] -= 1
    counts[up] += 1
    counts[j] -= 1
    counts[down] += 1
    return OccupationVector(counts)


def test_proposals_from_interior_state():
    seen = set()
    rng, table = _rng(1), _move_table((1, 2, 3))
    for _ in range(300):
        seen.add(_propose(OccupationVector((1, 2, 1)), table, rng).counts)
    assert seen == {(0, 4, 0), (2, 0, 2)}


def test_stacked_state_proposes_its_one_move_or_stays():
    # of the two table entries only (1, 2, 1, 0) can move (0, 2, 0); the other
    # would empty sector 0, so the proposal returns the state itself
    rng = _rng(2)
    state = OccupationVector((0, 2, 0))
    table = _move_table((1, 2, 3))
    seen = {_propose(state, table, rng).counts for _ in range(40)}
    assert seen == {(1, 0, 1), (0, 2, 0)}


def _proposal_chain(params: EconomyParams, config: ChainConfig) -> tuple[dict, float]:
    """run_chain's visits and acceptance from its proposal and the integer rule.

    w(y)/w(x) = prod x_k!/y_k! is num/den with num the falling factorials of
    the sectors the move empties and den those of the sectors it fills;
    random() is drawn only when 0 < num < den, as in the chain.
    """
    units, n, demand = lattice_fibre(params)
    _, first = count_feasible(units, n, demand, 1)
    state = OccupationVector(first(1)[0])
    rng, table = _rng(config.seed), _move_table(units)
    visits, accepted = Counter(), 0
    for step in range(config.steps):
        cand = _propose(state, table, rng)
        num = math.prod(math.perm(x, x - y) for x, y in zip(state.counts, cand.counts) if x > y)
        den = math.prod(math.perm(y, y - x) for x, y in zip(state.counts, cand.counts) if y > x)
        if cand is not state and (num >= den or rng.random() * den < num):
            state = cand
            accepted += 1
        if step >= config.burn_in and (step - config.burn_in) % config.thin == 0:
            visits[state.counts] += 1
    recorded = sum(visits.values())
    return {s: cnt / recorded for s, cnt in visits.items()}, accepted / config.steps


@pytest.mark.parametrize("params, config", [
    pytest.param(ORACLE_PARAMS, ChainConfig(3_000, 300, 7, 2), id="oracle"),
    pytest.param(SMALL_LADDER_PARAMS, ChainConfig(3_000, 0, 11, 1), id="small_ladder"),
    pytest.param(make_ladder(1.0, 10, 60, 180), ChainConfig(2_000, 200, 1, 3), id="ladder_g10"),
])
def test_proposal_loop_reproduces_run_chain(params, config):
    summary = run_chain(params, config)
    assert _proposal_chain(params, config) == (summary.visit_frequencies, summary.acceptance_rate)


def test_proposal_returns_state_when_stuck():
    # two sectors, both workers pinned at the top: no pair move exists
    state = OccupationVector((0, 2))
    rng = _rng(3)
    assert _propose(state, _move_table((1, 2)), rng) is state


def test_proposal_takes_levels_as_any_sequence():
    # a list of levels draws the moves and the chain its tuple does
    state = OccupationVector((2, 3, 1, 2))
    by_list, by_tuple = _rng(5), _rng(5)
    from_list, from_tuple = _move_table([1, 2, 3, 5]), _move_table((1, 2, 3, 5))
    for _ in range(50):
        moved = _propose(state, from_list, by_list)
        assert moved == _propose(state, from_tuple, by_tuple)
        state = moved
    config = ChainConfig(steps=2_000, seed=5)
    assert (run_chain(EconomyParams([1, 2, 3, 5], 8, 20), config)
            == run_chain(EconomyParams((1, 2, 3, 5), 8, 20), config))


def test_proposals_conserve_both_sums():
    rng = _rng(4)
    levels = (1, 2, 3, 5)
    table = _move_table(levels)
    state = OccupationVector((2, 3, 1, 2))
    for _ in range(200):
        cand = _propose(state, table, rng)
        assert cand.total == state.total
        assert cand.output(levels) == state.output(levels)
        state = cand


def test_chain_frequencies_match_enumeration_oracle():
    config = ChainConfig(steps=120_000, burn_in=20_000, seed=11, thin=2)
    summary = run_chain(ORACLE_PARAMS, config)
    count = summary.sample_count
    for state, expected in ORACLE_FREQS.items():
        se = math.sqrt(expected * (1 - expected) / count)
        assert abs(summary.visit_frequencies[state] - expected) < 3 * se
    assert summary.irreducibility == "verified"
    assert sum(summary.visit_frequencies.values()) == pytest.approx(1.0, abs=1e-12)


def test_chain_chi_square_below_99th_percentile():
    config = ChainConfig(steps=120_000, burn_in=20_000, seed=5, thin=2)
    summary = run_chain(ORACLE_PARAMS, config)
    count = summary.sample_count
    chi2 = 0.0
    for state, expected in ORACLE_FREQS.items():
        observed = summary.visit_frequencies.get(state, 0.0) * count
        chi2 += (observed - expected * count) ** 2 / (expected * count)
    assert chi2 < stats.chi2.ppf(0.99, df=len(ORACLE_FREQS) - 1)


@pytest.mark.parametrize("params, steps, enumerable", [
    pytest.param(ORACLE_PARAMS, 5_000, True, id="oracle"),
    pytest.param(SMALL_LADDER_PARAMS, 5_000, True, id="small_ladder"),
    pytest.param(EconomyParams((0, 1, 2, 3), 5, 6), 5_000, True, id="zero_floor"),
    pytest.param(EconomyParams((0.5, 1.0, 1.5), 4, 4.0), 5_000, True, id="half_lattice"),
    pytest.param(make_ladder(1.0, 10, 60, 180), 2_000, False, id="ladder_g10"),
])
def test_every_visited_state_is_feasible(params, steps, enumerable):
    # thin 1 and no burn-in: every state the chain passes through is recorded
    summary = run_chain(params, ChainConfig(steps=steps, seed=9))
    for state in summary.visit_frequencies:
        assert min(state) >= 0 and sum(state) == params.n
        assert sum(Fraction(a) * k for a, k in zip(params.levels, state)) == Fraction(params.D)
    if enumerable:
        feasible = {v.counts for v in enumerate_feasible(params).vectors}
        assert set(summary.visit_frequencies) <= feasible


def test_small_ladder_frequencies_match_enumeration():
    """Twelve chains pooled against the exact weights of the 19-state 1..5 / 7 / 17 ladder.

    Successive states of a chain are correlated, so the standard error of a
    pooled frequency comes from its spread between the chains, never below
    the independent-sample value.  Each deviation is read with Student's t at
    11 degrees of freedom, and the smallest two-sided p over the states is
    Sidak-corrected, so the family fails as rarely as one 3-sigma deviation
    (0.27%).  The chi-square (every state is expected at least 5 times) is
    divided by the median variance inflation and must stay below its 0.99
    quantile.
    """
    exact = enumerate_feasible(SMALL_LADDER_PARAMS)
    weight_sum = sum(exact.weights)
    law = {v.counts: w / weight_sum for v, w in zip(exact.vectors, exact.weights)}
    assert len(law) == 19
    chains = [run_chain(SMALL_LADDER_PARAMS,
                        ChainConfig(steps=5_000, burn_in=1_500, seed=seed, thin=7))
              for seed in range(12)]
    k = len(chains)
    total = sum(c.sample_count for c in chains)
    assert total == k * chains[0].sample_count
    assert all(set(c.visit_frequencies) <= set(law) for c in chains)

    worst_p, inflation, chi2 = 1.0, [], 0.0
    for state, p in law.items():
        freqs = [c.visit_frequencies.get(state, 0.0) for c in chains]
        pooled = statistics.fmean(freqs)
        iid_var = p * (1 - p) / total
        var = max(iid_var, statistics.variance(freqs) / k)
        worst_p = min(worst_p, 2 * stats.t.sf(abs(pooled - p) / math.sqrt(var), k - 1))
        assert p * total >= 5  # every state is its own chi-square cell
        chi2 += (pooled - p) ** 2 * total / p
        inflation.append(var / iid_var)
    one_three_sigma = 2 * stats.norm.sf(3.0)
    assert worst_p > -math.expm1(math.log1p(-one_three_sigma) / len(law))
    assert chi2 / statistics.median(inflation) < stats.chi2.ppf(0.99, df=len(law) - 1)


def test_single_state_instance_has_frequency_one():
    summary = run_chain(EconomyParams((1, 2), 2, 4), ChainConfig(steps=500, seed=0))
    assert summary.visit_frequencies == {(0, 2): 1.0}
    assert summary.acceptance_rate == 0.0
    assert summary.irreducibility == "verified"


def test_two_seeds_agree_within_five_standard_errors():
    base = dict(steps=60_000, burn_in=10_000, thin=2)
    s1 = run_chain(ORACLE_PARAMS, ChainConfig(seed=101, **base))
    s2 = run_chain(ORACLE_PARAMS, ChainConfig(seed=202, **base))
    for state, expected in ORACLE_FREQS.items():
        se = math.sqrt(expected * (1 - expected) / s1.sample_count)
        assert abs(s1.visit_frequencies[state] - s2.visit_frequencies[state]) < 5 * math.sqrt(2) * se


def test_chain_is_deterministic():
    config = ChainConfig(steps=20_000, burn_in=1_000, seed=42, thin=3)
    s1 = run_chain(ORACLE_PARAMS, config)
    s2 = run_chain(ORACLE_PARAMS, config)
    assert s1 == s2
    assert s1.rng_algorithm == "numpy:PCG64"


def test_mean_occupation_matches_frequencies():
    summary = run_chain(ORACLE_PARAMS, ChainConfig(steps=30_000, seed=8))
    expected = np.zeros(3)
    for state, freq in summary.visit_frequencies.items():
        expected += freq * np.asarray(state)
    assert summary.mean_occupation == pytest.approx(tuple(expected), abs=1e-12)


def test_no_feasible_state_raises():
    # odd demand on an even lattice: 2 n1 + 4 n2 = 5 has no integer solution
    with pytest.raises(NoFeasibleState):
        run_chain(EconomyParams((2, 4), 2, 5), ChainConfig(steps=10))


def test_fibre_set_up_is_shared_and_keyed_by_fibre_and_cap():
    # chains on A, then B, then A again: the set-up A left in the cache changes nothing
    config = ChainConfig(steps=3_000, burn_in=100, seed=5, thin=2)
    first = run_chain(ORACLE_PARAMS, config)
    run_chain(SMALL_LADDER_PARAMS, config)
    hits = _fibre_setup.cache_info().hits
    again = run_chain(ORACLE_PARAMS, config)
    assert _fibre_setup.cache_info().hits == hits + 1
    assert again == first
    assert list(again.visit_frequencies) == list(first.visit_frequencies)
    # the 3-state oracle is checked under a cap of 3 and not under one of 2
    labels = [run_chain(ORACLE_PARAMS, config, cap).irreducibility for cap in (2, 200_000, 2, 3)]
    assert labels == ["unchecked", "verified", "unchecked", "verified"]
    for _ in range(3):  # an error is raised afresh, never cached
        with pytest.raises(NoFeasibleState):
            run_chain(EconomyParams((2, 4), 2, 5), ChainConfig(steps=10))


def test_threads_share_the_fibre_set_up_safely():
    # more threads than cores and a short switch interval, from an empty cache;
    # the g=10 ladder runs the plain loop, the others their transition tables
    fibres = (ORACLE_PARAMS, SMALL_LADDER_PARAMS, EconomyParams((1, 2, 4, 7, 8), 12, 61),
              make_ladder(1.0, 10, 60, 180))
    jobs = [(params, ChainConfig(2_000, 0, seed, 1)) for seed in range(3) for params in fibres]
    want = [run_chain(*job) for job in jobs]
    _fibre_setup.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda job: run_chain(*job), jobs * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 2


def test_disconnected_state_space_is_flagged():
    # on levels (1,3,4) no pair move conserves demand, so the two feasible
    # states are mutually unreachable; the chain must say so, not hide it
    params = EconomyParams((1, 3, 4), 4, 12)
    assert len(enumerate_feasible(params).vectors) == 2
    summary = run_chain(params, ChainConfig(steps=2_000, seed=0))
    assert summary.irreducibility == "failed"
    assert len(summary.visit_frequencies) == 1


def test_unenumerable_instance_is_flagged_unchecked():
    summary = run_chain(ORACLE_PARAMS, ChainConfig(steps=2_000, seed=0),
                        max_enumeration=2)
    assert summary.irreducibility == "unchecked"


def test_nonintegral_worker_count_rejected():
    with pytest.raises(DomainError):
        run_chain(EconomyParams((1, 2), 2.5, 4), ChainConfig(steps=10))


def test_negative_enumeration_cap_is_domain_error():
    with pytest.raises(DomainError, match="cap"):
        run_chain(ORACLE_PARAMS, ChainConfig(steps=10), max_enumeration=-5)


def test_merge_weighted_by_sample_count():
    s1 = run_chain(ORACLE_PARAMS, ChainConfig(steps=8_000, seed=1))
    s2 = run_chain(ORACLE_PARAMS, ChainConfig(steps=24_000, seed=2))
    merged = merge_summaries([s1, s2])
    assert merged.sample_count == s1.sample_count + s2.sample_count
    for state in merged.visit_frequencies:
        expected = (s1.visit_frequencies.get(state, 0.0) * s1.sample_count
                    + s2.visit_frequencies.get(state, 0.0) * s2.sample_count) / merged.sample_count
        assert merged.visit_frequencies[state] == pytest.approx(expected, abs=1e-15)
    assert sum(merged.visit_frequencies.values()) == pytest.approx(1.0, abs=1e-12)


def test_merge_is_associative():
    chains = [run_chain(ORACLE_PARAMS, ChainConfig(steps=6_000, seed=s)) for s in (1, 2, 3)]
    left = merge_summaries([merge_summaries(chains[:2]), chains[2]])
    right = merge_summaries([chains[0], merge_summaries(chains[1:])])
    assert left.sample_count == right.sample_count
    for state in left.visit_frequencies:
        assert left.visit_frequencies[state] == pytest.approx(
            right.visit_frequencies[state], abs=1e-14)


# small fibres of 3 sectors: verified, failed (not irreducible) and unchecked under cap 2
MERGE_FIBRES = [(ORACLE_PARAMS, 200_000), (EconomyParams((1, 2, 3), 8, 16), 200_000),
                (EconomyParams((1, 2, 4), 8, 20), 200_000), (ORACLE_PARAMS, 2)]


@st.composite
def short_chains(draw):
    """A summary of a chain of 1-300 steps on one of MERGE_FIBRES."""
    params, cap = draw(st.sampled_from(MERGE_FIBRES))
    steps = draw(st.integers(1, 300))
    config = ChainConfig(steps, draw(st.integers(0, steps - 1)),
                         draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(1, 9)))
    return run_chain(params, config, cap)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(short_chains(), short_chains(), short_chains())
def test_merge_is_exact_associative_and_commutative(a, b, c):
    assert merge_summaries([a]) == a
    assert merge_summaries([a, b]) == merge_summaries([b, a])
    whole = merge_summaries([a, b, c])
    assert merge_summaries([merge_summaries([a, b]), c]) == whole
    assert merge_summaries([a, merge_summaries([b, c])]) == whole
    assert merge_summaries([c, a, b]) == whole
    assert whole.acceptance_rate == (a.accepted + b.accepted + c.accepted) / (
        a.steps + b.steps + c.steps)
    assert whole.sample_count == a.sample_count + b.sample_count + c.sample_count


def test_merged_acceptance_rate_is_accepted_moves_per_step():
    # 325 and 311 accepted moves in 1,000 steps each; weighting each rate by its
    # recorded samples (1,000 and 100) gave 0.32373 instead of 636 / 2,000
    plain = run_chain(SMALL_LADDER_PARAMS, ChainConfig(steps=1_000, seed=3))
    thinned = run_chain(SMALL_LADDER_PARAMS, ChainConfig(steps=1_000, seed=4, thin=10))
    assert (plain.accepted, thinned.accepted, thinned.sample_count) == (325, 311, 100)
    assert merge_summaries([plain, thinned]).acceptance_rate == 0.318


def test_merge_labels_failed_over_unchecked_over_verified():
    def summary(label):
        return SampleSummary({(1, 2, 1): 10}, 20, 10, label)

    verified, unchecked, failed = map(summary, ("verified", "unchecked", "failed"))
    assert merge_summaries([verified, verified]).irreducibility == "verified"
    assert merge_summaries([verified, unchecked]).irreducibility == "unchecked"
    assert merge_summaries([unchecked, failed, verified]).irreducibility == "failed"


def test_summary_serialization():
    summary = run_chain(ORACLE_PARAMS, ChainConfig(steps=2_000, seed=0))
    payload = summary.to_json_dict()
    assert payload["rng_algorithm"] == "numpy:PCG64"
    assert set(payload["visit_frequencies"]) <= {"0;4;0", "1;2;1", "2;0;2"}
    csv_text = summary.to_csv()
    assert csv_text.startswith("state,frequency\n")
    assert csv_text.count("\n") == len(summary.visit_frequencies) + 1


def test_merge_rejects_chains_with_different_sector_counts():
    three = SampleSummary({(1, 2, 1): 10}, 20, 10, "verified")
    four = SampleSummary({(1, 1, 1, 1): 10}, 20, 10, "verified")
    with pytest.raises(DomainError, match="3 and 4 sectors"):
        merge_summaries([three, four])
    with pytest.raises(DomainError, match="4 and 3 sectors"):
        merge_summaries([four, three, three])
