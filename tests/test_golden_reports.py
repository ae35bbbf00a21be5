"""verify_all pinned bit for bit: every field of the report, or the error it raises.

golden_reports.json holds verify_all over mean gaps D/n - a0 from the lower range
edge (about 3.2e-127, where the generating residual overflows) to the upper one
(about 6.7e153, where 1/(D/n - a0)^2 leaves the normal floats), with a0 = 0 and
a0 > 0, under the default numerics, explicit steps in and out of mean-gap units,
other grid points and spans, tolerances that pass and fail the quadrature gate,
and each step fault.  Each case is [D/n, a0, numerics keywords] and either the
hex of every field, in field order, or the error type and message.  The floats
on both sides of each range edge are found by bisection when the cases are built.
The file was recorded by running this module as a script on commit 6e66f2f,
before the per-call results were built with one dict update:

    PYTHONPATH=src python tests/test_golden_reports.py tests/golden_reports.json

Rerunning the script on later code only shows what that code does; the pinned
file is the reference.
"""

import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from aym import AymError, NumericsConfig, PrincipleReport, make, verify_all

GOLDEN_PATH = Path(__file__).parent / "golden_reports.json"
LOWER_EDGE, UPPER_EDGE = (3.1e-127, 3.3e-127), (6.6e153, 6.8e153)
GAPS = (1e-120, 1e-90, 1e-60, 1e-30, 1e-10, 0.01, 1.0, 2.0, 134.0, 135.0, 1000.0, 1e10,
        1e30, 1e60, 1e90, 1e120, 1e150)


def _edge(lo, hi):
    """The floats on both sides of the one place in [lo, hi] where verify_all(make(gap))
    changes between raising and returning."""
    def fails(gap):
        try:
            verify_all(make(gap))
        except AymError:
            return True
        return False

    low_fails = fails(lo)
    assert fails(hi) != low_fails
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if fails(mid) == low_fails else (lo, mid)
    return lo, hi


def _numerics(gap):
    """Numerics keywords for one mean gap: steps in productivity units, so explicit."""
    return [
        {},
        {"quadrature_tol": 1e-10},
        {"quadrature_tol": 1e-300},
        {"fd_step_theta": 1e-4 * gap, "fd_step_x": 1e-3 * gap},
        {"fd_step_theta": 0.3 * gap},
        {"fd_step_x": 0.05 * gap},
        {"fd_step_theta": 1e-6 * gap, "fd_step_x": 1e-5 * gap, "quadrature_tol": 1e-8},
        {"grid_points": 3},
        {"grid_points": 257},
        {"grid_points": 100001},
        {"grid_span_gaps": 100.0},
        {"grid_span_gaps": 1500.0, "grid_points": 20001},
        # the step faults: theta at the gap, 1 -+ step/gap rounding to 1, (step/gap)^2
        # underflowing, and x steps whose finite differences are not finite
        {"fd_step_theta": gap},
        {"fd_step_theta": 1e-17 * gap},
        {"fd_step_x": 1e-17 * gap},
        {"fd_step_x": 1e-170 * gap},
        {"fd_step_x": 1e5 / 135.0 * gap},
        {"fd_step_x": 1e9 / 135.0 * gap},
    ]


def _cases():
    cases = []
    for gap in GAPS:
        for keywords in _numerics(gap):
            cases.append([gap, 0.0, keywords])
        # a0 > 0 with the same mean gap: a0 = gap keeps D/n - a0 exact; the default and
        # explicit steps, and the first two step faults
        for keywords in _numerics(gap)[:4] + _numerics(gap)[12:14]:
            cases.append([2.0 * gap, gap, keywords])
    cases += [[135.0, 1.0, {}], [1000.0, 1.0, {"grid_points": 1001}]]
    # steps past the float range in t: step / gap overflows, and is a fault
    cases += [[1e-300, 0.0, {"fd_step_theta": 1e300}], [1e-300, 0.0, {"fd_step_x": 1e300}]]
    for lo, hi in (LOWER_EDGE, UPPER_EDGE):
        for gap in (lo, *_edge(lo, hi), hi):
            cases.append([gap, 0.0, {}])
            cases.append([gap + 1.0 if gap > 1.0 else 2.0 * gap, gap if gap < 1.0 else 1.0, {}])
    return cases


def _outcome(mean_demand, a0, keywords):
    try:
        report = verify_all(make(mean_demand, a0), NumericsConfig(**keywords))
    except AymError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {field.name: getattr(report, field.name).hex() for field in fields(PrincipleReport)}


def _record(path):
    cases = [[*case, _outcome(*case)] for case in _cases()]
    lines = ",\n".join(json.dumps(case, separators=(",", ":")) for case in cases)
    Path(path).write_text(f"[\n{lines}\n]\n", encoding="utf-8")


GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")) if GOLDEN_PATH.exists() else []


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k:03d}-gap={case[0] - case[1]:.3g}"
                                               for k, case in enumerate(GOLDEN)])
def test_verify_all_matches_golden_bit_for_bit(case):
    *args, outcome = case
    assert _outcome(*args) == outcome


def test_golden_file_covers_both_edges_every_fault_and_both_a0():
    errors = [case[-1]["message"] for case in GOLDEN if "error" in case[-1]]
    successes = [case for case in GOLDEN if "error" not in case[-1]]
    assert {case[1] > 0 for case in successes} == {False, True}
    assert min(case[0] for case in successes) < 3.3e-127
    assert max(case[0] for case in successes) > 6.6e153
    for fault in ("must be below", "1 - step / gap rounds to 1", "1 + step / gap rounds to 1",
                  "underflows to 0", "step / gap overflows", "gives a non-finite",
                  "outside the normal float range", "quadrature error estimate"):
        assert any(fault in message for message in errors), fault


if __name__ == "__main__":
    _record(sys.argv[1])
