"""Property tests of the feasible-set count, the chain's move table and its irreducibility label,
and of the lattice tables' CSV text.

The fibre (the feasible set) is listed here by stars and bars.  The
expected label is computed from it and a breadth-first search over pair
moves written out from their definition: one worker moves up k sectors,
another down k sectors, and demand is conserved.  The caps are tried just
below, at and just above the count.
"""

import csv
import io
import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aym import (
    ChainConfig,
    EconomyParams,
    NoFeasibleState,
    enumerate_feasible,
    integer_lattice,
    make_ladder,
    run_chain,
)
from aym.lattice import _move_table, count_feasible

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def lattice_instances(draw):
    """(levels, n, D) on a uniform, a named non-uniform or a random integer lattice.

    Three or more sectors, since two sectors fix the allocation; the lattice
    is scaled by 1, 1/2 or 1/4 and D lies in the middle 80% of the hull.
    """
    kind = draw(st.sampled_from(["uniform", "non-uniform", "random"]))
    if kind == "uniform":
        start, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        units = [start + step * i for i in range(draw(st.integers(3, 5)))]
    elif kind == "non-uniform":
        units = draw(st.sampled_from([(1, 2, 4), (1, 3, 4), (1, 2, 3, 5), (1, 2, 4, 7, 8)]))
    else:
        units = sorted(draw(st.sets(st.integers(0, 9), min_size=3, max_size=5)))
    n = draw(st.integers(3, 10))
    lo, hi = units[0] * n, units[-1] * n
    demand = max(1, lo + (hi - lo) * draw(st.integers(10, 90)) // 100)
    scale = draw(st.sampled_from([1.0, 0.5, 0.25]))
    return tuple(u * scale for u in units), n, demand * scale


def brute_force_fibre(levels, n, D):
    """Every allocation of n workers over the sectors, by stars and bars, that meets D."""
    g = len(levels)
    fibre = set()
    for bars in itertools.combinations(range(n + g - 1), g - 1):
        edges = (-1, *bars, n + g - 1)
        counts = tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:]))
        if sum(a * c for a, c in zip(levels, counts)) == D:
            fibre.add(counts)
    return fibre


def neighbours(counts, levels):
    g = len(counts)
    for i, j in itertools.product(range(g), repeat=2):
        for k in range(1, g):
            if i + k >= g or j - k < 0 or levels[i + k] - levels[i] != levels[j] - levels[j - k]:
                continue
            moved = list(counts)
            moved[i] -= 1
            moved[i + k] += 1
            moved[j] -= 1
            moved[j - k] += 1
            if min(moved) >= 0 and tuple(moved) != counts:
                yield tuple(moved)


def expected_label(fibre, start, levels):
    seen, queue = {start}, deque([start])
    while queue:
        for nxt in neighbours(queue.popleft(), levels):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return "verified" if seen == fibre else "failed"


@PROPERTY_SETTINGS
@given(lattice_instances())
def test_irreducibility_label_matches_enumeration_and_search(instance):
    levels, n, D = instance
    params = EconomyParams(levels, n, D)
    fibre = {v.counts for v in enumerate_feasible(params).vectors}
    assert fibre == brute_force_fibre(levels, n, D)
    if not fibre:
        with pytest.raises(NoFeasibleState):
            run_chain(params, ChainConfig(steps=1))
        return
    count = len(fibre)
    for cap in (count - 1, count, count + 1):
        summary = run_chain(params, ChainConfig(steps=1), max_enumeration=cap)
        (visited,) = summary.visit_frequencies  # one step from the start, same component
        assert visited in fibre
        want = "unchecked" if cap < count else expected_label(fibre, visited, levels)
        assert summary.irreducibility == want, (cap, count)


@PROPERTY_SETTINGS
@given(lattice_instances())
def test_count_feasible_matches_the_fibre(instance):
    levels, n, D = instance
    fibre = brute_force_fibre(levels, n, D)
    listing = [v.counts for v in enumerate_feasible(EconomyParams(levels, n, D)).vectors]
    units_all, _ = integer_lattice((*levels, D))
    count = len(fibre)
    for cap in (1, count - 1, count, count + 1, 10 ** 30):
        if cap < 1:
            continue
        capped, first = count_feasible(units_all[:-1], n, units_all[-1], cap)
        assert capped == min(count, cap), cap
        if fibre:
            # the walk fixes the top sector first, so it starts at the
            # reversed-lexicographic minimum
            assert first(1) == [min(fibre, key=lambda s: s[::-1])], cap
        assert sorted(first(count)) == listing, cap


@pytest.mark.parametrize("units", [(3,), (1, 2), (0, 2, 3), (1, 3, 4, 6)])
def test_count_feasible_on_every_demand(units):
    # one and two sectors, no workers, and demands outside the hull
    for n in range(5):
        for demand in range(-1, units[-1] * n + 2):
            fibre = brute_force_fibre(units, n, demand)
            for cap in (1, 10 ** 30):
                capped, first = count_feasible(units, n, demand, cap)
                assert capped == min(len(fibre), cap), (n, demand, cap)
                assert sorted(first(len(fibre))) == sorted(fibre), (n, demand, cap)


@PROPERTY_SETTINGS
@given(lattice_instances())
def test_move_table_is_closed_under_reversal(instance):
    # the chain draws table entries uniformly and accepts with w(y)/w(x) alone,
    # which needs every move to be undone by exactly one other table entry
    levels, _, _ = instance
    units, _ = integer_lattice(levels)
    table = _move_table(units)
    entries = set(table)
    assert len(entries) == len(table)
    for i, up, j, down in table:
        assert up - i == j - down > 0
        assert units[up] - units[i] == units[j] - units[down]
        assert j != up
        assert (down, j, up, i) in entries


@PROPERTY_SETTINGS
@given(lattice_instances(), st.integers(0, 2 ** 64 - 1))
def test_lattice_tables_round_trip_through_csv(instance, seed):
    # each CSV row reads back, through csv, as the result's own fields, bit for bit, and
    # as the JSON report's row in the same place
    def rows(table):
        header, *body = csv.reader(io.StringIO(table))
        return header, [(tuple(map(int, state.split(";"))), *cells) for state, *cells in body]

    params = EconomyParams(*instance)
    result = enumerate_feasible(params)
    header, body = rows(result.to_csv())
    assert header == ["state", "weight", "log_weight"]
    parsed = [(state, int(w), float(lw).hex()) for state, w, lw in body]
    assert parsed == [(v.counts, w, lw.hex()) for v, w, lw in
                      zip(result.vectors, result.weights, result.log_weights)]
    assert parsed == [(tuple(row["counts"]), row["weight"], row["log_weight"].hex())
                      for row in result.to_json_dict()["vectors"]]
    if not result.vectors:
        return
    summary = run_chain(params, ChainConfig(steps=200, seed=seed))
    header, body = rows(summary.to_csv())
    assert header == ["state", "frequency"]
    parsed = [(state, float(f).hex()) for state, f in body]
    assert parsed == [(state, f.hex()) for state, f in sorted(summary.visit_frequencies.items())]
    assert parsed == [(tuple(map(int, state.split(";"))), f.hex())
                      for state, f in summary.to_json_dict()["visit_frequencies"].items()]


def test_large_ladder_is_unchecked():
    summary = run_chain(make_ladder(1.0, 10, 60, 180), ChainConfig(steps=1))
    assert summary.irreducibility == "unchecked"
