"""Four seeded sets of random equilibrium solves, with a fixed slice of each checked here.

Each set is a generator of (levels, n, D, c, tol) cases, 4,000 per set:

* BOLTZMANN, random.Random(90210): c = 0, g 2-300, n 1e-2..1e8 log-uniform,
  D/n 2-98% of the way across the level hull, tol 1e-10 or 0.
* GENERALIZED, random.Random(90211): the same draws with c cycling through
  +-1e-6, +-0.1, +-0.5, +-1 and 2; for c < 0 n is 2-97% of g/|c| and D
  lies 2-98% of the way between the fill bounds.
* NEAR_BOUND, random.Random(77): c < 0 in {-1, -1e-6, -1e-3, -0.5, -3},
  g 2-30, n 0.3-0.97 of g/|c| or within 1e-12..1e-1 relative of it, D
  within 1e-15..1e-3 relative inside a fill bound, tol 1e-10 or 0.  Rounding
  puts some of them past a bound, where the solve raises DomainViolation.
* LARGE_N, random.Random(90212): c = 0 as in BOLTZMANN, but with g 2-40
  and n from 1e6 to 1e300 log-uniform.  At few levels and large n the
  stop rule's floors leave the least room for rounding in the occupations.

The tests solve the first SLICE cases of each set (about two seconds in
all on a 2-vCPU x86-64 VM): every solve succeeds and meets the solver's
stop rule on exact sums of its occupations, except a NEAR_BOUND case that
an exact fill-bound check refuses, which must raise DomainViolation.

Run as a script, the module solves every case of every set and prints, per
set, the endings, the outer and inner evaluation counts and a sha256 of the
result bits (the same outcome records as golden_solves.json), so two trees
can be compared:

    PYTHONPATH=src python tests/test_random_solves.py
"""

import hashlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from aym import DomainViolation, EconomyParams, solve_generalized
from test_golden_solves import _outcome, assert_meets_the_stop_rule, fill_bounds, random_ladder

SIZE, SLICE = 4000, 100


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _hull_cases(rng, forms, n_lo, n_hi, g_hi=300):
    """Ladders of 2 to g_hi levels, D 2-98% across the range of D, c cycling through forms."""
    for k in range(SIZE):
        c = forms[k % len(forms)]
        levels = random_ladder(rng, rng.randint(2, g_hi))
        n = _log_uniform(rng, n_lo, n_hi)
        if c < 0:
            n = rng.uniform(0.02, 0.97) * len(levels) / -c
            lo, hi = fill_bounds(levels, n, c)
        else:
            lo, hi = levels[0] * n, levels[-1] * n
        yield levels, n, lo + rng.uniform(0.02, 0.98) * (hi - lo), c, (1e-10, 0.0)[k % 2]


def boltzmann():
    return _hull_cases(random.Random(90210), (0.0,), 1e-2, 1e8)


def generalized():
    forms = (1e-6, -1e-6, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0)
    return _hull_cases(random.Random(90211), forms, 1e-2, 1e8)


def near_bound():
    rng = random.Random(77)
    for k in range(SIZE):
        c = (-1.0, -1e-6, -1e-3, -0.5, -3.0)[k % 5]
        levels = random_ladder(rng, rng.randint(2, 30))
        full = len(levels) / -c
        if rng.random() < 0.5:
            n = rng.uniform(0.3, 0.97) * full
        else:
            n = full * (1.0 - _log_uniform(rng, 1e-12, 1e-1))
        lo, hi = fill_bounds(levels, n, c)
        gap = _log_uniform(rng, 1e-15, 1e-3)
        D = lo * (1.0 + gap) if rng.random() < 0.5 else hi * (1.0 - gap)
        yield levels, n, D, c, (1e-10, 0.0)[k // 5 % 2]


def large_n():
    return _hull_cases(random.Random(90212), (0.0,), 1e6, 1e300, 40)


SETS = {"BOLTZMANN": boltzmann, "GENERALIZED": generalized, "NEAR_BOUND": near_bound,
        "LARGE_N": large_n}


def refused(levels, n, D, c):
    """Whether the cap 1/|c| rules the case out, decided on exact sums of the solver's fills."""
    if c >= 0:
        return False
    cap = -1.0 / c
    filled = [0.0] + [min(n, cap * k) for k in range(1, len(levels) + 1)]
    fill = [Fraction(after - before) for before, after in zip(filled, filled[1:])]
    lo, hi = (sum(map(Fraction.__mul__, fill, map(Fraction, order)))
              for order in (levels, levels[::-1]))
    return n > len(levels) * cap or not lo <= D <= hi


CASES = [(name, k, case) for name, cases in SETS.items()
         for k, case in zip(range(SLICE), cases())]


@pytest.mark.parametrize("name,k,case", CASES, ids=[f"{name}-{k:02d}" for name, k, _ in CASES])
def test_random_solve_ends_as_expected_and_meets_the_stop_rule(name, k, case):
    levels, n, D, c, tol = case
    params = EconomyParams(tuple(levels), n, D)
    if refused(levels, n, D, c):
        with pytest.raises(DomainViolation):
            solve_generalized(params, c, tol=tol)
        return
    sol = solve_generalized(params, c, tol=tol)
    assert_meets_the_stop_rule(levels, n, D, c, tol, sol.occupations, sol.multipliers.beta)


def _report(name, cases):
    """Endings, outer and inner evaluation counts and the sha256 of every outcome of a set."""
    evaluations = Counter()

    def count(frame, event, _):
        if event == "call" and frame.f_code.co_filename.endswith("discrete_equilibrium.py"):
            evaluations[frame.f_code.co_name] += 1

    endings, digest = Counter(), hashlib.sha256()
    for case in cases:
        sys.setprofile(count)
        try:
            outcome = _outcome(*case, 200)
        finally:
            sys.setprofile(None)
        endings[outcome.get("error", "ok")] += 1
        digest.update(json.dumps(outcome, sort_keys=True).encode())
    # outer is the outer step; f, nested in inner, is one inner evaluation
    print(f"{name}: {dict(sorted(endings.items()))} outer {evaluations['outer']} "
          f"inner {evaluations['f']} sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    for name, cases in SETS.items():
        _report(name, cases())
