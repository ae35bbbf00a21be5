"""Independent references the benchmark checks aym's results against.

Nothing here calls aym: the references are closed forms, brute force or
high-precision arithmetic written for the benchmark.  Tolerances follow the
test suite and the acceptance criteria.
"""

from __future__ import annotations

import math
from itertools import combinations

SOLVER_REL_TOL = 1e-9      # constraint residuals, relative to n and to D
FORM_REL_TOL = 1e-9        # occupations against the closed occupation form
TV_REL_TOL = 1e-9          # compare() TV against the closed form (TV_GOLDEN tolerance)
FISHER_REL_TOL = 1e-3      # criterion 5
STRUCTURAL_REL_TOL = 1e-3  # criterion 6, |I + Q| / I
QTILDE_REL_TOL = 1e-10     # criterion 6
BOUNDARY_REL_TOL = 1e-10   # criterion 8
FIT_REL_TOL = 1e-3         # criterion 11
TABLE_REL_TOL = 1e-12      # criterion 11 overlay columns; epi curve values


class Check:
    """Outcome of checking one op: ``ok``, or a failure with a reason.

    ``gross`` marks a failure that is no precision miss or refusal: a wrong
    answer far outside tolerance, an untyped exception, a broken contract.
    Any gross failure makes the run incorrect; every failure counts in
    ``failed``.  ``scale`` multiplies every reference value, so a corrupted
    reference can prove that the checks can fail.
    """

    scale = 1.0

    def __init__(self):
        self.failures: list[tuple[str, bool]] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def gross(self) -> bool:
        return any(g for _, g in self.failures)

    def fail(self, reason: str, gross: bool = False) -> None:
        self.failures.append((reason, gross))

    def close(self, label: str, value: float, expected: float, rel_tol: float,
              floor: float = 0.0) -> float:
        """Relative comparison; returns the relative error it saw."""
        expected = expected * Check.scale
        denom = max(abs(expected), floor)
        err = abs(value - expected) / denom if denom > 0 else abs(value - expected)
        if not err <= rel_tol:  # also catches NaN
            self.fail(f"{label}: {value!r} vs {expected!r} (rel err {err:.3g} > {rel_tol:g})",
                      gross=not err <= max(1e-3, 100.0 * rel_tol))
        return err


# --- equilibrium ------------------------------------------------------------

def fill_bounds(levels, n: float, cap: float) -> tuple[float, float]:
    """Output when n workers fill sectors bottom-up and top-down, each capped at ``cap``."""
    def fill(order):
        left, total = n, 0.0
        for a in order:
            take = min(cap, left)
            total += a * take
            left -= take
        return total
    return fill(levels), fill(reversed(levels))


def generalized_feasible(levels, n: float, D: float, c: float) -> bool:
    """Whether n_i = 1/(exp(-nu + beta a_i) - c) can meet both constraints.

    For c < 0 every occupation lies in (0, 1/|c|): a solution exists iff
    n < g/|c| and D lies strictly between the bottom-up and top-down fills.
    For c >= 0 the open hull a_1 n < D < a_g n is feasible.
    """
    if c < 0:
        cap = 1.0 / abs(c)
        if not n < len(levels) * cap:
            return False
        lo, hi = fill_bounds(levels, n, cap)
        return lo < D < hi
    return levels[0] * n < D < levels[-1] * n


def check_equilibrium(check: Check, levels, n: float, D: float, c: float, solution) -> None:
    """Residuals recomputed from the occupations, and the occupation form itself."""
    occ = solution.occupations
    if len(occ) != len(levels) or not all(math.isfinite(x) and x > 0 for x in occ):
        check.fail("occupations missing, non-finite or non-positive", gross=True)
        return
    if c < 0 and max(occ) >= 1.0 / abs(c):
        check.fail(f"occupation {max(occ)} exceeds the c<0 cap", gross=True)
    check.close("sum n_i", math.fsum(occ), n, SOLVER_REL_TOL)
    check.close("sum a_i n_i", math.fsum(a * x for a, x in zip(levels, occ)), D, SOLVER_REL_TOL)
    nu, beta = solution.multipliers.nu, solution.multipliers.beta
    worst = 0.0
    for a, x in zip(levels, occ):
        z = -nu + beta * a
        if c == 0:
            expected = math.exp(-z)
        else:
            # u / (1 - c u) with u = exp(-z) stays finite where exp(z) overflows
            u = math.exp(-z)
            expected = u / (1.0 - c * u)
        worst = max(worst, abs(x - expected) / expected)
    check.close("occupation form", 1.0 + worst, 1.0, FORM_REL_TOL)


# --- enumeration and sampling ------------------------------------------------

def brute_force_states(levels: tuple[int, ...], n: int, D: int) -> dict[tuple[int, ...], int]:
    """Every integer allocation with both sums conserved, with its multinomial weight.

    Stars and bars over all compositions of n into g parts; only for small n, g.
    """
    g = len(levels)
    out = {}
    for bars in combinations(range(n + g - 1), g - 1):
        edges = (-1, *bars, n + g - 1)
        counts = tuple(edges[j + 1] - edges[j] - 1 for j in range(g))
        if sum(a * k for a, k in zip(levels, counts)) == D:
            weight = math.factorial(n)
            for k in counts:
                weight //= math.factorial(k)
            out[counts] = weight
    return out


def conserves(state, levels, n: int, D: int) -> bool:
    return (all(k >= 0 for k in state) and sum(state) == n
            and sum(a * k for a, k in zip(levels, state)) == D)


def frequency_test(chains: list[dict], weights: dict) -> tuple[float, float, float]:
    """3-sigma per state and chi-square at 0.99 of pooled chain counts against exact weights.

    ``chains`` holds one {state: count} per independent chain of equal length.
    Successive states of a chain are correlated, so with two or more chains
    the standard error of each pooled frequency comes from the spread between
    chains (never below the independent-sample value), and the chi-square is
    divided by the median variance inflation this implies.

    "3 sigma per state" is kept at the false-alarm rate of one 3-sigma
    deviation, 0.27%: a deviation against a between-chain standard error is
    read with Student's t at k - 1 degrees of freedom, and the smallest
    two-sided p over the m states becomes the family's p, 1 - (1 - p)^m
    (Sidak).  The worst |z| returned is the normal deviation of that family
    p.  Uncorrected, a sampler that draws exactly from the law failed on 3
    of 30 seeds of the 12-chain small ladders of about 20 states.

    Returns (worst |z|, chi2, chi2 bound).  States expected fewer than 5 times are pooled
    into one chi-square cell.
    """
    from statistics import median, variance

    from scipy import stats

    k = len(chains)
    per_chain = sum(chains[0].values())
    total = per_chain * k
    w_sum = sum(weights.values())
    if any(s not in weights for c in chains for s in c):
        return math.inf, math.inf, 0.0
    worst_p, tested, inflation = 1.0, 0, []
    cells: list[tuple[float, float]] = []
    pooled_obs = pooled_exp = 0.0
    for state, w in weights.items():
        p = Check.scale * w / w_sum
        obs = sum(c.get(state, 0) for c in chains)
        iid_var = p * (1 - p) / total if 0 < p < 1 else 0.0
        var = iid_var
        if k >= 2:
            var = max(iid_var, variance([c.get(state, 0) / per_chain for c in chains]) / k)
        if var > 0:
            z = abs(obs / total - p) / math.sqrt(var)
            tail = stats.t.sf(z, k - 1) if var > iid_var else stats.norm.sf(z)
            worst_p = min(worst_p, 2.0 * float(tail))
            tested += 1
        if p * total < 5:
            pooled_obs += obs
            pooled_exp += p * total
        else:
            cells.append((obs, p * total))
            if iid_var > 0:
                inflation.append(var / iid_var)
    if pooled_exp > 0:
        cells.append((pooled_obs, pooled_exp))
    chi2 = sum((o - e) ** 2 / e for o, e in cells) / (median(inflation) if inflation else 1.0)
    family_p = -math.expm1(tested * math.log1p(-worst_p)) if worst_p < 1.0 else 1.0
    worst_z = float(stats.norm.isf(family_p / 2.0))
    bound = float(stats.chi2.ppf(0.99, df=max(1, len(cells) - 1)))
    return worst_z, chi2, bound


# --- discretization comparison ---------------------------------------------

def tv_closed_form(r: float, idx: int, digits: int = 50) -> float:
    """0.5 * sum_{i=1..idx} |P_epi(i) - P_aym(i)| in closed form at high precision.

    Both pmfs are geometric on i >= 1: P_epi(i) = (1-q1) q1^(i-1) with
    q1 = exp(-1/(r-1)), P_aym(i) = (1-q2) q2^(i-1) with q2 = (r-1)/r.  Their
    ratio is monotone in i, so the difference changes sign at most once, and
    each side of the crossing is a geometric partial sum q^(a-1) - q^b.
    """
    import mpmath

    with mpmath.workdps(digits):
        r = mpmath.mpf(r)
        q1 = mpmath.exp(-1 / (r - 1))
        q2 = (r - 1) / r

        def diff(i):
            return (1 - q1) * q1 ** (i - 1) - (1 - q2) * q2 ** (i - 1)

        def part(a, b):  # sum_{i=a..b} diff(i)
            if b < a:
                return mpmath.mpf(0)
            return (q1 ** (a - 1) - q1 ** b) - (q2 ** (a - 1) - q2 ** b)

        cross = 1 + mpmath.log((1 - q2) / (1 - q1)) / mpmath.log(q1 / q2)
        k = int(mpmath.floor(cross))
        while k >= 1 and diff(k) < 0:
            k -= 1
        while k + 1 <= idx and diff(k + 1) >= 0:
            k += 1
        k = max(0, min(k, idx))
        tv = (part(1, k) - part(k + 1, idx)) / 2
        return float(tv)


# --- continuous law and fits ------------------------------------------------

def check_report(check: Check, report, mean: float, a0: float) -> None:
    """Acceptance criteria 5, 6 and 8 on a verify_all report."""
    s = mean - a0
    capacity = 1.0 / s ** 2
    alpha = 1.0 / (2.0 * s)
    forms = (report.fisher_metric, report.fisher_statistical, report.fisher_kinematical)
    for name, value in zip(("metric", "statistical", "kinematical"), forms):
        check.close(f"Fisher {name}", value, capacity, FISHER_REL_TOL)
    check.close("Fisher spread", 1.0 + (max(forms) - min(forms)) / capacity, 1.0,
                FISHER_REL_TOL)
    check.close("I + Q", 1.0 + report.structural_residual / capacity, 1.0, STRUCTURAL_REL_TOL)
    check.close("qtilde", report.qtilde_value, 2.0 * alpha ** 2, QTILDE_REL_TOL)
    check.close("boundary constant", report.boundary_constant, 8.0 * alpha ** 2,
                BOUNDARY_REL_TOL)
    if report.kappa != 1.0:
        check.fail(f"kappa {report.kappa} != 1", gross=True)


def exp_tail(a: float, mean: float, a0: float) -> float:
    return 1.0 if a < a0 else math.exp(-(a - a0) / (mean - a0))


def check_table(check: Check, text: str, header: list[str], expected_rows) -> None:
    """CSV text against a header and rows of expected floats (None = empty cell)."""
    lines = text.strip().split("\n")
    if lines[0].split(",") != header or len(lines) - 1 != len(expected_rows):
        check.fail(f"table shape: header {lines[0]!r}, {len(lines) - 1} rows", gross=True)
        return
    for line, row in zip(lines[1:], expected_rows):
        cells = line.split(",")
        for cell, want in zip(cells, row):
            if want is None:
                if cell != "":
                    check.fail(f"expected an empty cell, got {cell!r}", gross=True)
            else:
                check.close("table cell", float(cell), want, TABLE_REL_TOL, floor=1e-300)
