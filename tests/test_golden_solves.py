"""Equilibrium solves pinned bit for bit: every multiplier, occupation and residual.

golden_solves.json holds about 200 seeded solves over c in {0, +-1e-6,
+-0.5, +-1, 2}, g from 2 to 40, n from 1e-2 to 1e7 and tol 1e-10 and 0,
plus c < 0 instances with D within 1e-12 to 1e-6 relative of a fill bound
(some of which end in NoConvergence), instances one ulp either side of a
fill bound, and short iteration budgets.  Each case stores the hex of nu,
beta, every occupation and both residuals, or the error type and message.
The file was recorded by running this module as a script on commit dab49db,
before the solver core lost its per-step numpy wrappers and its Fraction
fill bounds:

    PYTHONPATH=src python tests/test_golden_solves.py tests/golden_solves.json

Rerunning it on later code only shows what that code does; the pinned file
is the reference.
"""

import json
import math
import random
import sys
from pathlib import Path

import pytest

from aym import AymError, EconomyParams, solve_generalized

GOLDEN_PATH = Path(__file__).parent / "golden_solves.json"
FORMS = (0.0, 1e-6, -1e-6, 0.5, -0.5, 1.0, -1.0, 2.0)


def fill_bounds(levels, n, c):
    """Bottom-up and top-down fill outputs at cap = 1/|c| per sector, rounded once per term."""
    cap = -1.0 / c
    filled = [0.0] + [min(n, cap * k) for k in range(1, len(levels) + 1)]
    fill = [after - before for before, after in zip(filled, filled[1:])]
    return (sum(map(float.__mul__, levels, fill)),
            sum(map(float.__mul__, levels[::-1], fill)))


def _cases():
    """The seeded inputs: (levels, n, D, c, tol, max_iter)."""
    rng = random.Random(20261019)

    def ladder(g=None):
        g = g or round(math.exp(rng.uniform(math.log(2), math.log(40))))
        levels = [round(rng.uniform(0.0, 5.0), 3)]
        for _ in range(g - 1):
            levels.append(round(levels[-1] + rng.uniform(0.05, 3.0), 3))
        return levels

    for k in range(160):
        c = FORMS[k % len(FORMS)]
        levels = ladder(40 if k in (0, 3, 6) else None)
        tol = (1e-10, 0.0)[k // len(FORMS) % 2]
        if c < 0:
            n = min(1e7, rng.uniform(0.05, 0.97) * len(levels) / -c)
            lo, hi = fill_bounds(levels, n, c)
        else:
            n = math.exp(rng.uniform(math.log(1e-2), math.log(1e7)))
            lo, hi = levels[0] * n, levels[-1] * n
        yield levels, n, lo + rng.uniform(0.02, 0.98) * (hi - lo), c, tol, 200
    for k in range(24):  # D within 1e-12..1e-6 relative of a fill bound, inside it
        c = (-0.5, -1.0)[k % 2]
        levels = ladder()
        n = rng.uniform(0.3, 0.97) * len(levels) / -c
        lo, hi = fill_bounds(levels, n, c)
        gap = math.exp(rng.uniform(math.log(1e-12), math.log(1e-6)))
        D = lo * (1 + gap) if k % 4 < 2 else hi * (1 - gap)
        yield levels, n, D, c, (1e-10, 0.0)[k // 2 % 2], 200
    # the exact fill bound of 1,2,3 / n 2 / c -1 and one ulp either side of it
    for D in (math.nextafter(5.0, 0.0), 5.0, math.nextafter(5.0, 6.0)):
        yield [1.0, 2.0, 3.0], 2.0, D, -1.0, 1e-10, 200
    for max_iter in (1, 3):  # budgets too short for the outer and the inner solve
        yield [1.0, 2.5, 4.0, 7.5], 1e4, 3.1e4, 0.5, 0.0, max_iter
    yield [1.0, 2.0, 3.0], 6.0, 21.0, 0.0, 1e-10, 200  # D/n on the hull: InfeasibleDemand
    yield [1.0, 2.0, 3.0], 100.0, 200.0, -1.0, 1e-10, 200  # n past g cap: DomainViolation


def _hex(x):
    return float.hex(float(x))


def _outcome(levels, n, D, c, tol, max_iter):
    try:
        sol = solve_generalized(EconomyParams(tuple(levels), n, D), c, tol=tol, max_iter=max_iter)
    except AymError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"nu": _hex(sol.multipliers.nu), "beta": _hex(sol.multipliers.beta),
            "occupations": [_hex(x) for x in sol.occupations],
            "residuals": [_hex(x) for x in sol.residuals]}


def _record(path):
    cases = [[*case, _outcome(*case)] for case in _cases()]
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    Path(path).write_text(f"[\n{lines}\n]\n", encoding="utf-8")


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k:03d}-c={case[3]}-g={len(case[0])}"
                                               for k, case in enumerate(GOLDEN)])
def test_solve_matches_golden_bit_for_bit(case):
    *args, outcome = case
    assert _outcome(*args) == outcome


def test_golden_file_covers_every_form_and_ending():
    assert {case[3] for case in GOLDEN} == set(FORMS)
    assert {case[4] for case in GOLDEN} == {1e-10, 0.0}
    assert {len(case[0]) for case in GOLDEN} >= {2, 40}
    endings = {(case[3] < 0, case[-1].get("error")) for case in GOLDEN}
    assert endings >= {(True, None), (True, "NoConvergence"), (True, "DomainViolation"),
                       (False, None), (False, "NoConvergence"), (False, "InfeasibleDemand")}


if __name__ == "__main__":
    _record(sys.argv[1])
