"""Acceptance gate: one test per release criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and must not be loosened.
"""

import math
import time

import numpy as np
from scipy import stats

from aym import (
    ChainConfig,
    EconomyParams,
    NumericsConfig,
    aym_ladder_pmf,
    boundary_constant,
    boundary_identity_residual,
    compare,
    enumerate_feasible,
    epi_binned_ladder,
    fisher_kinematical,
    fisher_metric_form,
    fisher_statistical,
    fit_tail,
    generating_equation_residual,
    make,
    make_ladder,
    qtilde_recovered,
    run_chain,
    solve_boltzmann,
    solve_generalized,
    structural_principle,
    TailDataset,
)
from aym.cli import main as cli_main

# golden TV values, frozen from a direct pre-build evaluation of both pmfs
TV_GOLDEN = {10.0: 0.019541047828557333,
             100.0: 0.0018501964782841598,
             1000.0: 0.00018404708778072093}


def _check(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name} failed{suffix}"


def test_criterion_01_ladder_closed_form():
    started = time.perf_counter()
    solution = solve_boltzmann(make_ladder(1.0, 500, 1000, 2000))
    elapsed = time.perf_counter() - started
    expected = (500.0, 250.0, 125.0)
    rel = max(abs(solution.occupations[i] - expected[i]) / expected[i] for i in range(3))
    _check("1 ladder closed form", rel < 1e-6 and elapsed < 1.0,
           f"max rel err {rel:.2e}, {elapsed:.3f}s")


def test_criterion_02_enumeration_oracle():
    result = enumerate_feasible(EconomyParams((1, 2, 3), 4, 8))
    ok = ([v.counts for v in result.vectors] == [(0, 4, 0), (1, 2, 1), (2, 0, 2)]
          and result.weights == (1, 12, 6)
          and result.argmax.counts == (1, 2, 1))
    _check("2 enumeration oracle", ok,
           f"{len(result.vectors)} vectors, weights {result.weights}")


def test_criterion_03_sampler_correctness():
    expected = {(0, 4, 0): 1 / 19, (1, 2, 1): 12 / 19, (2, 0, 2): 6 / 19}
    config = ChainConfig(steps=600_000, burn_in=100_000, seed=7, thin=5)
    started = time.perf_counter()
    summary = run_chain(EconomyParams((1, 2, 3), 4, 8), config)
    elapsed = time.perf_counter() - started
    count = summary.sample_count
    assert count == 100_000
    within = True
    chi2 = 0.0
    for state, p in expected.items():
        freq = summary.visit_frequencies.get(state, 0.0)
        within = within and abs(freq - p) < 3.0 * math.sqrt(p * (1 - p) / count)
        chi2 += (freq * count - p * count) ** 2 / (p * count)
    bound = stats.chi2.ppf(0.99, df=len(expected) - 1)
    _check("3 sampler correctness", within and chi2 < bound and elapsed < 10.0,
           f"chi2 {chi2:.2f} < {bound:.2f}, {elapsed:.2f}s")


def test_criterion_04_c_zero_reduction():
    tol = 1e-10
    rng = np.random.default_rng(20240801)
    worst = worst_form = worst_near = 0.0
    for _ in range(20):
        g = int(rng.integers(2, 7))
        levels = tuple(sorted(rng.uniform(0.5, 10.0, g)))
        while len(set(levels)) != g:
            levels = tuple(sorted(rng.uniform(0.5, 10.0, g)))
        n = int(rng.integers(5, 51))
        share = rng.uniform(0.2, 0.8)
        D = n * (levels[0] + share * (levels[-1] - levels[0]))
        params = EconomyParams(levels, n, D)
        boltzmann = solve_boltzmann(params, tol=tol)
        generalized = solve_generalized(params, c=0.0, tol=tol)
        worst = max(worst, max(abs(x - y) for x, y in
                               zip(boltzmann.occupations, generalized.occupations)))
        # independent of the solver: the Boltzmann form from the returned multipliers ...
        nu, beta = generalized.multipliers.nu, generalized.multipliers.beta
        worst_form = max(worst_form, max(abs(x / math.exp(nu - beta * a) - 1.0)
                                         for x, a in zip(generalized.occupations, levels)))
        # ... and continuity in c: c = +-1e-9 moves each occupation by O(|c| n^2)
        for c in (1e-9, -1e-9):
            near = solve_generalized(params, c=c, tol=tol)
            worst_near = max(worst_near, max(abs(x - y) for x, y in zip(
                near.occupations, generalized.occupations)) / (abs(c) * n * n))
    _check("4 c=0 reduction", worst <= 10.0 * tol, f"worst componentwise gap {worst:.2e}")
    _check("4 c=0 Boltzmann form", worst_form <= 1e-9, f"worst relative gap {worst_form:.2e}")
    _check("4 c=0 continuity", worst_near <= 1.0, f"worst gap / (|c| n^2) {worst_near:.2e}")


def test_criterion_05_fisher_three_form_agreement():
    started = time.perf_counter()
    ok = True
    worst = 0.0
    for mean in (2.0, 135.0, 1000.0):
        for a0 in (0.0, 1.0):
            dist = make(mean, a0)
            expected = 1.0 / (mean - a0) ** 2
            estimates = (fisher_metric_form(dist), fisher_kinematical(dist),
                         fisher_statistical(dist))
            for value in estimates:
                err = abs(value - expected) / expected
                worst = max(worst, err)
                ok = ok and err < 1e-3
            for x in estimates:
                for y in estimates:
                    ok = ok and abs(x - y) / expected < 1e-3
    elapsed = time.perf_counter() - started
    _check("5 Fisher three-form agreement", ok and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_structural_principle():
    ok = True
    detail = []
    for mean in (2.0, 135.0, 1000.0):
        for a0 in (0.0, 1.0):
            dist = make(mean, a0)
            capacity = fisher_metric_form(dist)
            _, residual = structural_principle(dist)
            ok = ok and residual / abs(capacity) < 1e-3
            qtilde, _ = qtilde_recovered(dist, derivative="analytic")
            expected = 2.0 * dist.alpha ** 2
            ok = ok and abs(qtilde - expected) / expected < 1e-10
    _check("6 structural principle", ok, "|I+Q|/I < 1e-3 and qtilde = 2*alpha^2 @1e-10")


def test_criterion_07_generating_equation():
    dist = make(135.0, 0.0)
    coarse = generating_equation_residual(dist, NumericsConfig(fd_step_x=0.05 * dist.scale),
                                          derivative="fd")
    fine = generating_equation_residual(dist, NumericsConfig(fd_step_x=0.025 * dist.scale),
                                        derivative="fd")
    ratio = coarse / fine
    exact = generating_equation_residual(dist, derivative="analytic")
    _check("7 generating equation", 3.5 <= ratio <= 4.5 and exact == 0.0,
           f"halving ratio {ratio:.3f}, analytic residual {exact}")


def test_criterion_08_boundary_constant():
    ok = True
    for mean, a0 in ((135.0, 0.0), (2.0, 1.0), (1000.0, 1.0)):
        dist = make(mean, a0)
        expected = 8.0 * dist.alpha ** 2
        ok = ok and abs(boundary_constant(dist) - expected) / expected < 1e-10
        ok = ok and boundary_identity_residual(dist) < 1e-8
    _check("8 boundary constant", ok, "c_a = 8*alpha^2 @1e-10, parts identity @1e-8")


def test_criterion_09_first_order_agreement():
    metrics = {r: compare(r) for r in (10.0, 100.0, 1000.0)}
    ratio_a = metrics[10.0].tv_distance / metrics[100.0].tv_distance
    ratio_b = metrics[100.0].tv_distance / metrics[1000.0].tv_distance
    ok = 8.0 <= ratio_a <= 12.0 and 8.0 <= ratio_b <= 12.0
    for r, m in metrics.items():
        ok = ok and abs(m.tv_distance - TV_GOLDEN[r]) <= 1e-9 * TV_GOLDEN[r]
        i = np.arange(1, m.truncation_index + 1)
        ok = ok and abs(epi_binned_ladder(r, i).sum() + m.epi_tail_mass - 1.0) < 1e-12
        ok = ok and abs(aym_ladder_pmf(r, i).sum() + m.aym_tail_mass - 1.0) < 1e-12
    _check("9 first-order agreement", ok,
           f"tv ratios {ratio_a:.2f}, {ratio_b:.2f}")


def test_criterion_10_binned_consistency():
    a0 = 1.0
    worst = 0.0
    for r in (2.0, 10.0, 100.0):
        dist = make(r * a0, a0)
        for i in range(1, 51):
            direct = dist.tail(i * a0) - dist.tail((i + 1) * a0)
            worst = max(worst, abs(epi_binned_ladder(r, i) - direct) / direct)
    _check("10 binned consistency", worst < 1e-12, f"worst rel gap {worst:.2e}")


def test_criterion_11_figure_machinery(capsys, tmp_path):
    cuts = (10.0, 50.0, 100.0, 200.0, 400.0, 800.0)
    dist = make(135.0, 0.0)
    data = TailDataset(cuts, tuple(dist.tail(a) for a in cuts))
    fitted = fit_tail(data, a0_fixed=0.0)
    fit_ok = abs(fitted.d_over_n - 135.0) / 135.0 < 1e-3

    code = cli_main(["overlay", "--d-over-n", "100,135,170", "--a0", "0",
                     "--grid", "135"])
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    cells = lines[1].split(",")
    expected = (math.exp(-1.35), math.exp(-1.0), math.exp(-135.0 / 170.0))
    overlay_ok = (code == 0
                  and lines[0] == "a,p_gt_data,tail_100,tail_135,tail_170"
                  and all(abs(float(cells[2 + j]) - expected[j]) < 1e-12 for j in range(3)))
    with capsys.disabled():
        _check("11 figure machinery",
               fit_ok and overlay_ok,
               f"refit D/n {fitted.d_over_n:.6f}, overlay columns at a=135 verified")


def test_criterion_12_cli_determinism(capsys, tmp_path):
    data = tmp_path / "tail.csv"
    rows = ["a,p_gt"] + [f"{a:.17g},{math.exp(-a / 135.0):.17g}"
                         for a in (10.0, 100.0, 400.0)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    invocations = {
        "solve": ["solve", "--levels", "1,2,3", "--n", "3", "--D", "6"],
        "generalized": ["generalized", "--levels", "0,1", "--n", "100", "--D", "25",
                        "--c", "0.5"],
        "epi": ["epi", "--mean-demand", "135", "--a0", "0", "--grid", "0,135,270"],
        "verify": ["verify", "--mean-demand", "135", "--a0", "0"],
        "compare": ["compare", "--r", "10,100"],
        "sample": ["sample", "--levels", "1,2,3", "--n", "4", "--D", "8",
                   "--steps", "5000", "--burn-in", "500", "--seed", "11"],
        "enumerate": ["enumerate", "--levels", "1,2,3", "--n", "4", "--D", "8"],
        "fit": ["fit", "--data", str(data), "--a0", "0"],
        "overlay": ["overlay", "--data", str(data), "--d-over-n", "100,135,170",
                    "--a0", "0", "--grid", "50,135"],
    }
    ok = True
    for name, argv in invocations.items():
        first = tmp_path / f"{name}-1.out"
        second = tmp_path / f"{name}-2.out"
        for path in (first, second):
            code = cli_main(argv + ["--output", str(path)])
            ok = ok and code == 0
        ok = ok and first.read_bytes() == second.read_bytes()
    capsys.readouterr()
    with capsys.disabled():
        _check("12 CLI determinism", ok, f"{len(invocations)} subcommands byte-identical")
