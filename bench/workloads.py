"""The four workloads: seeded inputs, the op mix, and the per-op checks.

An op is one call into aym (or one ``python -m aym`` invocation for
``cli_cold``).  A workload is one fixed list of ops, a *pass*, built from
the seed alone; a run repeats whole passes until its time is up
(``cli_cold`` stops after the op in progress instead, because each op
already takes about a second).  Every run of a seed therefore runs the same
ops, and which of them fail does not depend on how fast the machine is.

Instances are drawn by stratified sampling (one draw per equal-width stratum
of each parameter), so the op mix, and with it the cost of a pass, varies
little from one seed to the next.  Instances known to fail on the seed
commit are kept in: they show as failed ops, never as skipped ones.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import reference as ref
from reference import Check

BUNDLED_CSV = os.path.join("data", "synthetic_worker_tails.csv")
BUNDLED_MEAN = 135.0  # the bundled tails were generated with D/n = 135, a0 = 0


@dataclass
class Op:
    kind: str                      # op class, e.g. "boltzmann"
    layer: str                     # span name of the call into aym
    call: Callable[[], Any]        # the timed call
    check: Callable[[Any, Check], None]  # judges the result or the exception raised
    argv: tuple | None = None      # cli_cold: the invocation, for determinism checks


@dataclass
class Workload:
    ops: list[Op]                  # one pass; a run repeats it
    whole_passes: bool = True      # False: the run may stop inside a pass after the first
    # Passes run and checked but left out of the op metrics, because they
    # warm what later passes reuse (whole passes only).
    warm_passes: int = 1
    describe: dict = field(default_factory=dict)   # instance definitions, recorded in the output
    # run-level checks: {op index in the pass: (reason, gross)}
    finish: Callable[[list], dict] | None = None


def strata(rng, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [lo, hi), shuffled."""
    u = (np.arange(count) + rng.random(count)) / count
    rng.shuffle(u)
    return lo + (hi - lo) * u


def log_strata(rng, count, lo, hi):
    return np.exp(strata(rng, count, math.log(lo), math.log(hi)))


def expect_value(check_result: Callable[[Any, Check], None]):
    """Check for an op that must return a value: any exception is a failure.

    A typed aym error on an instance that has an answer is a refusal (failed);
    an exception outside aym's hierarchy breaks the error contract (gross).
    """
    from aym import AymError

    def check(result, chk: Check):
        if isinstance(result, AymError):
            chk.fail(f"{type(result).__name__}: {result}")
        elif isinstance(result, BaseException):
            chk.fail(f"untyped {type(result).__name__}: {result}", gross=True)
        else:
            check_result(result, chk)
    return check


def expect_error(family: type):
    """Check for an op that must raise a typed error of ``family``."""
    from aym import AymError

    def check(result, chk: Check):
        if isinstance(result, family):
            return
        if isinstance(result, AymError):
            chk.fail(f"expected {family.__name__}, got {type(result).__name__}")
        elif isinstance(result, BaseException):
            chk.fail(f"untyped {type(result).__name__}: {result}", gross=True)
        else:
            chk.fail(f"expected {family.__name__}, got a result", gross=True)
    return check


# --- equilibrium --------------------------------------------------------------

def _levels(rng, g: int) -> tuple[float, ...]:
    """Strictly increasing levels with random gaps, rounded to 1e-6."""
    gaps = rng.uniform(0.2, 2.0, g)
    return tuple(float(x) for x in np.round(0.5 + np.cumsum(gaps) - gaps[0], 6))


# Provably infeasible Fermi-like instances (levels, n, D, c), all in every cycle:
# two with n >= g/|c|, one with D below the bottom-up fill, one above the
# top-down fill.  They are fixed because on random instances the seed's
# failing continuation costs anywhere from 0.01 s to 14 s, so a seeded draw
# would decide the throughput; these cost 0.07 to 0.25 s each.
INFEASIBLE = [((1.0, 2.0, 3.0), 10.0, 20.0, -1.0),
              ((1.0, 2.0, 3.0, 4.0), 10.0, 25.0, -0.5),
              ((1.0, 2.0, 3.0), 1.5, 1.75, -1.0),
              ((1.0, 2.0, 3.0, 4.0), 2.5, 9.0, -1.0)]


def build_equilibrium(seed: int, tiny: bool) -> Workload:
    import aym

    cycles = 2 if tiny else 4
    n_boltz, n_gen = (6, 4) if tiny else (24, 8)
    describe = {"boltzmann": "g log-stratified in [2, 200], n log-stratified in [10, 1e6], "
                             "D/n stratified across the open hull",
                "generalized": "c in {0.5, -0.5, 1, -1}; c > 0: g in [2, 8], n in [10, 100]; "
                               "c < 0: n up to 0.8 g/|c|, D inside the fill bounds",
                "infeasible": [" ".join(map(str, case)) for case in INFEASIBLE],
                "fixed": ["levels 0,1 n 100 D 25 c 1",
                          "levels 1..5 n 1000 D 3000 c 1", "levels 1..5 n 1000 D 4800 c 1"],
                "cycles_per_pass": cycles}

    def solve_op(kind, levels, n, D, c):
        params = aym.EconomyParams(levels, n, D)
        if c == 0:
            call = lambda: aym.solve_boltzmann(params)  # noqa: E731
            layer = "discrete_equilibrium.solve_boltzmann"
        else:
            call = lambda: aym.solve_generalized(params, c=c)  # noqa: E731
            layer = "discrete_equilibrium.solve_generalized"
        if c == 0 or ref.generalized_feasible(levels, n, D, c):
            check = expect_value(lambda sol, chk: ref.check_equilibrium(chk, levels, n, D, c, sol))
        else:
            check = expect_error(aym.SolverError)
        return Op(kind, layer, call, check)

    def cycle_ops(k_rng) -> list[Op]:
        ops = []
        gs = np.round(log_strata(k_rng, n_boltz, 2, 201)).astype(int)
        ns = np.round(log_strata(k_rng, n_boltz, 10, 1e6))
        shares = strata(k_rng, n_boltz, 0.05, 0.95)
        for g, n, share in zip(gs, ns, shares):
            levels = _levels(k_rng, int(g))
            D = n * (levels[0] + share * (levels[-1] - levels[0]))
            ops.append(solve_op("boltzmann", levels, float(n), float(D), 0.0))
        for j in range(n_gen):
            c = (0.5, -0.5, 1.0, -1.0)[j % 4]
            if c > 0:
                levels = _levels(k_rng, int(k_rng.integers(2, 9)))
                n = float(np.round(math.exp(k_rng.uniform(math.log(10), math.log(100)))))
                D = n * (levels[0] + k_rng.uniform(0.15, 0.85) * (levels[-1] - levels[0]))
            else:
                levels = _levels(k_rng, int(k_rng.integers(3, 13)))
                n = round(k_rng.uniform(0.2, 0.8) * len(levels) / abs(c), 3)
                lo, hi = ref.fill_bounds(levels, n, 1.0 / abs(c))
                D = lo + k_rng.uniform(0.1, 0.9) * (hi - lo)
            kind = "generalized_pos" if c > 0 else "generalized_neg"
            ops.append(solve_op(kind, levels, n, float(D), c))
        for levels, n, D, c in INFEASIBLE:
            ops.append(solve_op("infeasible", levels, n, D, c))
        ops.append(solve_op("generalized_pos", (0.0, 1.0), 100.0, 25.0, 1.0))
        order = k_rng.permutation(len(ops))
        return [ops[i] for i in order]

    ladder5 = (1.0, 2.0, 3.0, 4.0, 5.0)
    ops = [] if tiny else [solve_op("paper_generalized", ladder5, 1000.0, 3000.0, 1.0),
                           solve_op("paper_generalized", ladder5, 1000.0, 4800.0, 1.0)]
    for k in range(cycles):
        ops += cycle_ops(np.random.default_rng([seed, 2, k]))
    return Workload(ops, describe=describe)


# --- sampler ------------------------------------------------------------------

def build_sampler(seed: int, tiny: bool) -> Workload:
    import aym

    rng = np.random.default_rng([seed, 3])
    # The instances are fixed and the seed draws the chains' seeds.  The
    # ladder chains dominate the run time, and one costs about 30% more at
    # D = 240 than at D = 150; the small ladders that fit g 4..5, n 5..7 cost
    # from 40 to 54 ms a chain, and those chains hold the median op.
    oracle = ("oracle", (1, 2, 3), 4, 8)
    small = ("small_ladder", (1, 2, 3, 4, 5), 7, 17)
    big = ("ladder", tuple(range(1, 11)), 60, 180)
    steps = 2000 if tiny else 5000
    ladder_steps = 50 if tiny else 200
    chains = {"oracle": (steps, steps // 10, 5), "small_ladder": (steps, 3 * steps // 10, 7),
              "ladder": (ladder_steps, 0, 1)}
    cycles = 2
    exact = {name: ref.brute_force_states(levels, n, D) for name, levels, n, D in (oracle, small)}
    describe = {name: {"levels": list(levels), "n": n, "D": D,
                       "steps_burn_thin": list(chains[name])}
                for name, levels, n, D in (oracle, small, big)}
    describe["pass"] = (f"{cycles} x (enumerate + 6 chains on oracle and small_ladder, "
                        "8 chains on ladder), a new chain seed for every chain")

    def enumerate_op(name, levels, n, D):
        params = aym.EconomyParams(levels, n, D)

        def check(result, chk):
            states = exact[name]
            got = {v.counts: w for v, w in zip(result.vectors, result.weights)}
            if got != states:
                chk.fail(f"{name}: enumeration differs from brute force", gross=True)
                return
            best = max(states.items(), key=lambda kv: (kv[1], [-x for x in kv[0]]))[0]
            if result.argmax.counts != best:
                chk.fail(f"{name}: argmax {result.argmax.counts} != {best}", gross=True)
            for v, lw in zip(result.vectors, result.log_weights):
                chk.close("log weight", lw, math.log(states[v.counts]), 1e-12, floor=1.0)
        return Op("enumerate", "discrete_equilibrium.enumerate_feasible",
                  lambda: aym.enumerate_feasible(params), expect_value(check))

    def chain_op(name, levels, n, D, chain_seed):
        params = aym.EconomyParams(levels, n, D)
        total, burn, thin = chains[name]
        config = aym.ChainConfig(steps=total, burn_in=burn, seed=chain_seed, thin=thin)
        recorded = -(-(total - burn) // thin)
        irreducibility = "unchecked" if name == "ladder" else "verified"

        def check(summary, chk):
            if summary.sample_count != recorded:
                chk.fail(f"{name}: {summary.sample_count} samples, expected {recorded}", gross=True)
            if summary.irreducibility != irreducibility:
                chk.fail(f"{name}: irreducibility {summary.irreducibility!r}", gross=True)
            if not 0.0 <= summary.acceptance_rate <= 1.0:
                chk.fail(f"{name}: acceptance rate {summary.acceptance_rate}", gross=True)
            bad = [s for s in summary.visit_frequencies if not ref.conserves(s, levels, n, D)]
            if bad:
                chk.fail(f"{name}: visited states break conservation, e.g. {bad[0]}", gross=True)
            if name in exact and not set(summary.visit_frequencies) <= set(exact[name]):
                chk.fail(f"{name}: visited a state outside the enumeration", gross=True)
            chk.close("frequency sum", math.fsum(summary.visit_frequencies.values()), 1.0, 1e-12)
            for j, m in enumerate(summary.mean_occupation):
                want = math.fsum(f * s[j] for s, f in summary.visit_frequencies.items())
                chk.close("mean occupation", m, want, 1e-9, floor=1.0)
        return Op(f"chain_{name}", "occupation_sampler.run_chain",
                  lambda: aym.run_chain(params, config), expect_value(check))

    base = int(rng.integers(0, 2 ** 62))

    # Six chains per small instance and cycle give the pooled frequency test
    # twelve independent chains and put the median op mid-way into the chain
    # class, not next to the enumerations.  Eight ladder chains per cycle put
    # a pass's tail op inside the ladder class, and the first pass runs the
    # 16 ladder chains after which their cost stops growing (worker.py).
    ops = []
    for k in range(cycles):
        seeds = [base + 20 * k + j for j in range(20)]
        ops += [enumerate_op(*oracle), *(chain_op(*oracle, sd) for sd in seeds[:6]),
                enumerate_op(*small), *(chain_op(*small, sd) for sd in seeds[6:12]),
                *(chain_op(*big, sd) for sd in seeds[12:])]

    def finish(records) -> dict:
        """3-sigma per state and chi2(0.99) on the chains of each oracle, pooled.

        Each chain counts once: a later pass reruns the same chains.
        """
        failures = {}
        for name in exact:
            first = {}
            for rec in records:
                if rec.op.kind == f"chain_{name}" and not isinstance(rec.result, BaseException):
                    first.setdefault(rec.slot, rec.result)
            if not first:
                continue
            chains = [{s: round(f * summary.sample_count)
                       for s, f in summary.visit_frequencies.items()}
                      for summary in first.values()]
            worst_z, chi2, bound = ref.frequency_test(chains, exact[name])
            if not (worst_z < 3.0 and chi2 < bound):
                reason = f"{name}: worst |z| {worst_z:.2f}, chi2 {chi2:.2f} vs {bound:.2f}"
                failures.update({slot: (reason, False) for slot in first})
        return failures

    # On the seed commit each of the first 16 or so ladder chains in a
    # process costs more than the one before (0.34 s CPU for the first,
    # 0.58 s from about the 16th on) while the process's memory grows by
    # about 26 MB a chain, and with it the chains around them.
    return Workload(ops, warm_passes=2, describe=describe, finish=finish)


# --- continuum ----------------------------------------------------------------

def _synthetic_tail(rng, mean: float, a0: float):
    """Exact cumulative tail of the law at 8 to 16 seeded cuts."""
    count = int(rng.integers(8, 17))
    cuts = np.sort(a0 + (mean - a0) * rng.uniform(0.05, 8.0, count))
    cuts = np.unique(np.round(cuts, 6))
    return tuple(float(a) for a in cuts), tuple(ref.exp_tail(a, mean, a0) for a in cuts)


def build_continuum(seed: int, tiny: bool) -> Workload:
    import aym

    rng = np.random.default_rng([seed, 4])
    cycles = 1 if tiny else 4
    n_verify, n_fit = (8, 1) if tiny else (36, 3)
    r_max = 1e4 if tiny else 1e6
    bundled = aym.load_csv(BUNDLED_CSV)
    describe = {"verify": "D/n log-stratified in [50, 1000], a0 = 0 for 3 in 4, else 1",
                "fit": "bundled CSV and exact synthetic tails (D/n in [20, 1000], a0 in [0, 10]), "
                       "a0 fixed and free",
                "compare": f"r = 10^k (1 - 0.01 u) for k = 1..5 every cycle, "
                           f"once per pass near {r_max:g}",
                "cycles_per_pass": cycles}

    def verify_op(mean, a0):
        dist = aym.make(mean, a0)
        return Op("verify", "principle_verifier.verify_all", lambda: aym.verify_all(dist),
                  expect_value(lambda rep, chk: ref.check_report(chk, rep, mean, a0)))

    def fit_op(data, mean, a0, free: bool):
        def check(res, chk):
            chk.close("fitted D/n", res.d_over_n, mean, ref.FIT_REL_TOL)
            if not free:
                chk.close("fixed a0", res.a0, a0, 0.0, floor=1.0)
        call = ((lambda: aym.fit_tail(data)) if free
                else (lambda: aym.fit_tail(data, a0_fixed=a0)))
        return Op("fit_free" if free else "fit_fixed", "empirical_fit.fit_tail", call,
                  expect_value(check))

    def compare_op(r):
        def check(m, chk):
            if not (m.epi_tail_mass <= 1e-15 and m.aym_tail_mass <= 1e-15):
                chk.fail(f"r={r:g}: tails {m.epi_tail_mass}, {m.aym_tail_mass} above 1e-15",
                         gross=True)
            chk.close("TV", m.tv_distance, tv_reference(r, m.truncation_index),
                      ref.TV_REL_TOL)
        return Op("compare", "discretization_compare.compare", lambda: aym.compare(r),
                  expect_value(check))

    def curve_op(mean, a0, grid):
        dist = aym.make(mean, a0)
        s = mean - a0
        rows = [(a, math.exp(-(a - a0) / s) / s if a >= a0 else 0.0, ref.exp_tail(a, mean, a0))
                for a in grid]
        return Op("curve", "epi_distribution.curve_csv", lambda: aym.curve_csv(dist, grid),
                  expect_value(lambda text, chk: ref.check_table(chk, text, ["a", "pdf", "tail"],
                                                                 rows)))

    def overlay_op(data, values, a0, grid):
        cuts = sorted(set(grid) | set(data.cuts))
        data_map = dict(data.points)
        header = ["a", "p_gt_data"] + [f"tail_{v:g}" for v in sorted(values)]
        rows = [(a, data_map.get(a), *(ref.exp_tail(a, v, a0) for v in sorted(values)))
                for a in cuts]
        return Op("overlay", "empirical_fit.emit_overlay",
                  lambda: aym.emit_overlay(data, values, a0, grid),
                  expect_value(lambda text, chk: ref.check_table(chk, text, header, rows)))

    def cycle_ops(k_rng) -> list[Op]:
        ops = []
        # a0 = 1 makes verify_all about twice as slow as a0 = 0; keeping a0 = 0
        # the larger class puts the median op inside it rather than on the border
        means = log_strata(k_rng, n_verify, 50.0, 1000.0)
        for j, mean in enumerate(means):
            ops.append(verify_op(float(mean), 1.0 if j % 4 == 3 else 0.0))
        for _ in range(n_fit):
            ops.append(fit_op(bundled, BUNDLED_MEAN, 0.0, free=False))
            ops.append(fit_op(bundled, BUNDLED_MEAN, 0.0, free=True))
            mean = float(math.exp(k_rng.uniform(math.log(20), math.log(1000))))
            a0 = float(k_rng.uniform(0.0, 10.0))
            data = aym.TailDataset(*_synthetic_tail(k_rng, mean, a0))
            ops.append(fit_op(data, mean, a0, free=False))
            ops.append(fit_op(data, mean, a0, free=True))
        for _ in range(2):
            mean = float(math.exp(k_rng.uniform(math.log(20), math.log(1000))))
            grid = [float(x) for x in np.linspace(0.0, 8.0 * mean, 101)]
            ops.append(curve_op(mean, 0.0, grid))
            values = sorted(float(v) for v in np.round(k_rng.uniform(50, 250, 3), 3))
            ops.append(overlay_op(bundled, values, 0.0, [float(x) for x in np.round(
                k_rng.uniform(0, 1000, 5), 3)]))
        for decade in range(1, 5 if tiny else 6):
            ops.append(compare_op(10.0 ** decade * (1 - 0.01 * k_rng.random())))
        order = k_rng.permutation(len(ops))
        return [ops[i] for i in order]

    tv_cache: dict = {}

    def tv_reference(r, idx):
        if (r, idx) not in tv_cache:
            tv_cache[(r, idx)] = ref.tv_closed_form(r, idx)
        return tv_cache[(r, idx)]

    ops = [compare_op(r_max * (1 - 0.01 * rng.random()))]
    for k in range(cycles):
        ops += cycle_ops(np.random.default_rng([seed, 5, k]))
    return Workload(ops, describe=describe)


# --- cli_cold -----------------------------------------------------------------

def run_cli(argv) -> SimpleNamespace:
    proc = subprocess.run([sys.executable, "-m", "aym", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH="src"))
    return SimpleNamespace(code=proc.returncode, out=proc.stdout, err=proc.stderr)


def _csv_rows(text: str) -> list[list[float]]:
    return [[float(c) if c else math.nan for c in line.split(",")]
            for line in text.strip().split("\n")[1:]]


def build_cli_cold(seed: int, tiny: bool) -> Workload:
    rng = np.random.default_rng([seed, 6])

    def num(x: float) -> str:  # round-trips, so the checks see the values aym parsed
        return repr(float(x))

    n_s = int(rng.integers(3, 21))
    D_s = float(np.round(n_s * (1 + rng.uniform(0.2, 1.8)), 4))
    n_g = int(rng.integers(50, 151))
    c_g = float(rng.choice([0.5, 1.0]))
    D_g = float(np.round(n_g * rng.uniform(0.15, 0.85), 4))
    mean_e = float(np.round(rng.uniform(50, 250), 3))
    mean_v = float(np.round(rng.uniform(50, 250), 3))
    rs = [float(np.round(10 ** d * (1 - 0.01 * rng.random()), 6)) for d in (1, 2, 3)]
    n_e = int(rng.integers(4, 9))
    D_e = int(rng.integers(n_e + 1, 3 * n_e))
    sample_seed = int(rng.integers(0, 2 ** 31))
    fit_free = bool(rng.integers(0, 2))
    d_values = sorted(float(v) for v in np.round(rng.uniform(50, 250, 3), 3))
    grid = sorted(float(x) for x in np.round(rng.uniform(0, 1000, 3), 3))
    steps = 2000 if tiny else 5000

    def json_out(res, chk) -> dict | None:
        try:
            payload = json.loads(res.out)
        except ValueError:
            chk.fail("stdout is not JSON", gross=True)
            return None
        if payload.get("schema_version") != 1:
            chk.fail(f"schema_version {payload.get('schema_version')!r}", gross=True)
        return payload

    def solve_check(levels, n, D, c):
        def check(res, chk):
            payload = json_out(res, chk)
            if payload is not None:
                sol = SimpleNamespace(occupations=payload["occupations"],
                                      multipliers=SimpleNamespace(nu=payload["nu"],
                                                                  beta=payload["beta"]))
                ref.check_equilibrium(chk, levels, n, D, c, sol)
        return check

    def epi_check(res, chk):
        a_grid = [0.0 + j * 10.0 for j in range(101)]
        rows = [(a, math.exp(-a / mean_e) / mean_e, math.exp(-a / mean_e)) for a in a_grid]
        ref.check_table(chk, res.out.decode(), ["a", "pdf", "tail"], rows)

    def verify_check(res, chk):
        payload = json_out(res, chk)
        if payload is not None:
            ref.check_report(chk, SimpleNamespace(**{k: v for k, v in payload.items()
                                                     if k != "schema_version"}), mean_v, 0.0)

    def compare_check(res, chk):
        lines = res.out.decode().strip().split("\n")
        if lines[0] != "r,tv,max_abs,max_rel" or len(lines) != 4:
            chk.fail(f"compare table shape {lines[:1]}", gross=True)
            return
        for row, r in zip(_csv_rows(res.out.decode()), rs):
            chk.close("r column", row[0], r, 1e-15)
            from_r = ref.tv_closed_form(r, _truncation_index(r))
            chk.close("TV", row[1], from_r, ref.TV_REL_TOL)

    def sample_check(res, chk):
        payload = json_out(res, chk)
        if payload is None:
            return
        freqs = {tuple(int(x) for x in s.split(";")): f
                 for s, f in payload["visit_frequencies"].items()}
        if not all(ref.conserves(s, (1, 2, 3), 4, 8) for s in freqs):
            chk.fail("sampled states break conservation", gross=True)
        chk.close("frequency sum", math.fsum(freqs.values()), 1.0, 1e-12)
        if payload["sample_count"] != steps - steps // 10:
            chk.fail(f"sample_count {payload['sample_count']}", gross=True)
        if payload["rng_algorithm"] != "numpy:PCG64" or payload["irreducibility"] != "verified":
            chk.fail("sample metadata", gross=True)

    def enumerate_check(res, chk):
        payload = json_out(res, chk)
        if payload is None:
            return
        states = ref.brute_force_states((1, 2, 3), n_e, D_e)
        got = {tuple(v["counts"]): v["weight"] for v in payload["vectors"]}
        if got != states or payload["count"] != len(states):
            chk.fail("enumeration differs from brute force", gross=True)

    def fit_check(res, chk):
        payload = json_out(res, chk)
        if payload is not None:
            chk.close("fitted D/n", payload["d_over_n"], BUNDLED_MEAN, ref.FIT_REL_TOL)

    def overlay_check(res, chk):
        bundled = dict(zip(*_read_bundled()))
        cuts = sorted(set(grid) | set(bundled))
        rows = [(a, bundled.get(a), *(ref.exp_tail(a, v, 0.0) for v in d_values)) for a in cuts]
        header = ["a", "p_gt_data"] + [f"tail_{v:g}" for v in d_values]
        ref.check_table(chk, res.out.decode(), header, rows)

    cases = [
        (["solve", "--levels", "1,2,3", "--n", str(n_s), "--D", num(D_s)], 0,
         solve_check((1.0, 2.0, 3.0), n_s, D_s, 0.0)),
        (["generalized", "--levels", "0,1", "--n", str(n_g), "--D", num(D_g), "--c", num(c_g)], 0,
         solve_check((0.0, 1.0), n_g, D_g, c_g)),
        (["epi", "--mean-demand", num(mean_e), "--a0", "0", "--linspace", "0", "1000", "101"], 0,
         epi_check),
        (["verify", "--mean-demand", num(mean_v), "--a0", "0"], 0, verify_check),
        (["compare", "--r", ",".join(num(r) for r in rs)], 0, compare_check),
        (["sample", "--levels", "1,2,3", "--n", "4", "--D", "8", "--steps", str(steps),
          "--burn-in", str(steps // 10), "--seed", str(sample_seed)], 0, sample_check),
        (["enumerate", "--levels", "1,2,3", "--n", str(n_e), "--D", str(D_e)], 0,
         enumerate_check),
        (["fit", "--data", BUNDLED_CSV] + (["--fit-a0"] if fit_free else ["--a0", "0"]), 0,
         fit_check),
        (["overlay", "--data", BUNDLED_CSV, "--d-over-n", ",".join(num(v) for v in d_values),
          "--a0", "0", "--grid", ",".join(num(a) for a in grid)], 0, overlay_check),
        # error paths: demand outside the hull, infeasible Fermi-like, malformed flag
        (["solve", "--levels", "1,2,3", "--n", str(n_s), "--D", num(3.5 * n_s)], 2, None),
        (["generalized", "--levels", "1,2,3", "--n", str(n_g), "--D", num(2 * n_g),
          "--c", "-1"], 3, None),
        (["solve", "--levels", "1,2,3", "--n", "many", "--D", "6"], 64, None),
    ]
    order = rng.permutation(len(cases))
    ops = []
    for i in order:
        argv, code, check_out = cases[i]
        ops.append(Op(argv[0] if code == 0 else f"error_{code}", "cli.python_m_aym",
                      lambda argv=argv: run_cli(argv), _cli_check(code, check_out),
                      argv=tuple(argv)))
    describe = {"invocations": [" ".join(cases[i][0]) for i in order]}
    return Workload(ops, whole_passes=False, describe=describe, finish=_cli_determinism)


def _read_bundled():
    cuts, tail = [], []
    with open(BUNDLED_CSV, encoding="utf-8") as handle:
        for line in handle:
            if line[:1].isdigit():
                a, p = line.strip().split(",")
                cuts.append(float(a))
                tail.append(float(p))
    return cuts, tail


def _truncation_index(r: float) -> int:
    """Sectors compare() sums over: both analytic tails below 1e-15 (its documented rule)."""
    cut = -math.log(1e-15)
    return max(math.ceil(cut * (r - 1.0)), math.ceil(cut / math.log(r / (r - 1.0))), 1)


def _cli_check(code: int, check_out):
    def check(res, chk):
        if isinstance(res, BaseException):
            chk.fail(f"could not run: {res}", gross=True)
            return
        if res.code != code:
            chk.fail(f"exit {res.code}, expected {code}: {res.err.decode()[-200:]}",
                     gross=res.code not in (0, 2, 3, 64))
            return
        if code == 0:
            check_out(res, chk)
        elif res.out:
            chk.fail("stdout not empty on an error exit", gross=True)
    return check


def _cli_determinism(records) -> dict:
    """Two runs of one argv in one benchmark run must print the same bytes."""
    first: dict = {}
    failures = {}
    for rec in records:
        if isinstance(rec.result, BaseException):
            continue
        seen = first.setdefault(rec.slot, rec.result.out)
        if seen != rec.result.out:
            failures[rec.slot] = (f"nondeterministic stdout for {' '.join(rec.op.argv)}", True)
    return failures


BUILDERS = {"cli_cold": build_cli_cold, "equilibrium": build_equilibrium,
            "sampler": build_sampler, "continuum": build_continuum}
