"""Per-layer metrics for the traced run, timed around aym's public calls.

Times are CPU times (tracing.cpu_seconds), as for the end-to-end metrics.

Every traced run measures every layer, whatever its workload, on instances
drawn from the same seed, so each per-layer metric means the same thing in
every run.  Calls are wrapped in spans named after the metric they feed.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import statistics
import subprocess
import sys

import numpy as np

import reference as ref
import workloads as wl
from reference import Check
from spec import SUBCOMMANDS
from tracing import cpu_seconds

_IMPORT_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def import_breakdown(stderr: str) -> dict[str, float]:
    """Cumulative ms of aym, numpy and scipy from ``-X importtime`` output.

    numpy and scipy sum every top-level occurrence of the package or a
    submodule, i.e. one that no other module of the same package encloses
    (the output lists children before their parent, one indent deeper).
    """
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(2)), m.group(3), int(m.group(1))))
    totals = {"aym": 0.0, "numpy": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative_us in reversed(entries):  # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(n.split(".")[0] == top for _, n in stack):
            totals[top] += cumulative_us / 1000.0
        stack.append((depth, name))
    return totals


class Layers:
    def __init__(self, seed: int, tiny: bool, rec):
        self.seed, self.tiny, self.rec = seed, tiny, rec
        self.metrics: dict[str, float] = {}
        self.checks: list[Check] = []

    def timed(self, name: str, call, repeat: int = 1) -> tuple[list[float], object]:
        """Run ``call`` ``repeat`` times inside spans; return (ms per call, last result)."""
        times, result = [], None
        for _ in range(repeat):
            t = cpu_seconds()
            with self.rec.span(name):
                result = call()
            times.append((cpu_seconds() - t) * 1e3)
        return times, result

    def median_ms(self, metric: str, call, repeat: int = 3):
        times, result = self.timed(metric, call, repeat)
        self.metrics[metric] = statistics.median(times)
        return result

    def run_all(self) -> dict[str, float]:
        for part in (self.imports, self.cli, self.model_core, self.equilibrium,
                     self.sampler, self.continuum, self.fits):
            with self.rec.span("layer." + part.__name__):
                part()
        return self.metrics

    def imports(self):
        runs = 2 if self.tiny else 3
        self.median_ms("import.python_ms",
                       lambda: subprocess.run([sys.executable, "-c", "pass"], check=True), runs)
        env = dict(os.environ, PYTHONPATH="src")
        parts = []
        for _ in range(runs):
            with self.rec.span("import.importtime"):
                proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import aym"],
                                      capture_output=True, text=True, env=env, check=True)
            parts.append(import_breakdown(proc.stderr))
        for top in ("aym", "numpy", "scipy"):
            self.metrics[f"import.{top}_ms"] = statistics.median(p[top] for p in parts)

    def cli(self):
        from aym.cli import main

        workload = wl.build_cli_cold(self.seed, self.tiny)
        mismatch = nondeterministic = 0
        for op in workload.ops:
            outputs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                t = cpu_seconds()
                with self.rec.span(f"cli.main.{op.kind}"):
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = main(list(op.argv))
                        except SystemExit as exc:
                            code = exc.code
                outputs.append(((cpu_seconds() - t) * 1e3, code, out.getvalue()))
            if outputs[0][2] != outputs[1][2]:
                nondeterministic += 1
            expected = 0 if op.kind in SUBCOMMANDS else int(op.kind.split("_")[1])
            mismatch += sum(code != expected for _, code, _ in outputs)
            chk = Check()
            op.check(wl.SimpleNamespace(code=outputs[0][1], out=outputs[0][2].encode(), err=b""),
                     chk)
            self.checks.append(chk)
            if op.kind in SUBCOMMANDS:
                self.metrics[f"cli.main_ms.{op.kind}"] = min(t for t, _, _ in outputs)
        self.metrics["cli.exit_mismatch"] = mismatch
        self.metrics["cli.nondeterministic"] = nondeterministic

    def model_core(self):
        import aym

        params = aym.make_ladder(1.0, 10, 60, 180)
        batch = 200
        for metric, call in (("model_core.validate_us", lambda: aym.validate(params)),
                             ("model_core.integer_lattice_us",
                              lambda: aym.integer_lattice((*params.levels, params.D)))):
            def many(call=call):
                for _ in range(batch):
                    call()
            times, _ = self.timed(metric, many, 5)
            self.metrics[metric] = statistics.median(times) * 1e3 / batch

    def equilibrium(self):
        import aym

        workload = wl.build_equilibrium(self.seed, tiny=True)
        by_kind: dict[str, list[float]] = {}
        failed = 0
        for op in workload.ops:
            t = cpu_seconds()
            with self.rec.span(f"discrete_equilibrium.{op.kind}"):
                try:
                    result = op.call()
                except Exception as exc:  # judged by the op's check below
                    result = exc
            by_kind.setdefault(op.kind, []).append((cpu_seconds() - t) * 1e3)
            chk = Check()
            op.check(result, chk)
            self.checks.append(chk)
            failed += not chk.ok
        for kind in ("boltzmann", "generalized_pos", "generalized_neg", "infeasible"):
            self.metrics[f"discrete_equilibrium.{kind}_ms"] = statistics.median(by_kind[kind])
        self.metrics["discrete_equilibrium.failed"] = failed
        ladder = aym.make_ladder(1.0, 10, 12 if self.tiny else 16, 66 if self.tiny else 88)
        result = self.median_ms("discrete_equilibrium.enumerate_ms",
                                lambda: aym.enumerate_feasible(ladder), 1)
        self.metrics["discrete_equilibrium.enumerated_vectors"] = len(result.vectors)

    def sampler(self):
        import aym

        oracle = aym.EconomyParams((1, 2, 3), 4, 8)
        ladder = aym.make_ladder(1.0, 10, 60, 180)
        chain_seed = self.seed % 2 ** 63
        for name, params, repeat, steps, burn, thin in (
                ("oracle", oracle, 5, 2000 if self.tiny else 20_000, 0.1, 5),
                ("ladder", ladder, 1 if self.tiny else 3, 50 if self.tiny else 1000, 0.0, 1)):
            self.median_ms(f"occupation_sampler.fixed_ms.{name}",
                           lambda: aym.run_chain(params, aym.ChainConfig(steps=1)), repeat)
            config = aym.ChainConfig(steps=steps, burn_in=int(steps * burn), seed=chain_seed,
                                     thin=thin)
            times, summary = self.timed(f"occupation_sampler.chain.{name}",
                                        lambda: aym.run_chain(params, config))
            fixed_ms = self.metrics[f"occupation_sampler.fixed_ms.{name}"]
            self.metrics[f"occupation_sampler.step_us.{name}"] = \
                (times[0] - fixed_ms) * 1e3 / steps
            self.metrics[f"occupation_sampler.acceptance_rate.{name}"] = summary.acceptance_rate
            if name == "ladder":
                self.metrics["occupation_sampler.distinct_states.ladder"] = \
                    len(summary.visit_frequencies)
            else:
                counts = {s: round(f * summary.sample_count)
                          for s, f in summary.visit_frequencies.items()}
                weights = ref.brute_force_states((1, 2, 3), 4, 8)
                _, chi2, _ = ref.frequency_test([counts], weights)
                self.metrics["occupation_sampler.chi2.oracle"] = chi2

    def continuum(self):
        import aym

        dist = aym.make(135.0, 0.0)
        grid = [float(x) for x in np.linspace(0.0, 1000.0, 101)]
        self.median_ms("epi_distribution.curve_ms", lambda: aym.curve_csv(dist, grid), 5)
        rng = np.random.default_rng([self.seed, 7])
        means = wl.log_strata(rng, 3, 20.0, 1000.0)
        parts = {name: [] for name in ("verify_all", "fisher_metric_form", "fisher_statistical",
                                       "fisher_kinematical", "structural_principle",
                                       "regularity_residual", "boundary_identity_residual",
                                       "generating_equation_residual")}
        for mean in means:
            d = aym.make(float(mean), 0.0)
            for name in parts:
                fn = getattr(aym, name)
                times, result = self.timed(f"principle_verifier.{name}", lambda: fn(d))
                parts[name].append(times[0])
                if name == "verify_all":
                    chk = Check()
                    ref.check_report(chk, result, float(mean), 0.0)
                    self.checks.append(chk)
        for name, times in parts.items():
            self.metrics[f"principle_verifier.{name}_ms"] = statistics.median(times)
        for k in range(1, 7):
            r = 10.0 ** k
            times, m = self.timed(f"discretization_compare.compare.r1e{k}", lambda: aym.compare(r))
            self.metrics[f"discretization_compare.compare_ms.r1e{k}"] = times[0]
            if k >= 4:
                expected = ref.tv_closed_form(r, m.truncation_index)
                self.metrics[f"discretization_compare.tv_rel_err.r1e{k}"] = \
                    abs(m.tv_distance - expected) / expected
            if k == 6:
                self.metrics["discretization_compare.truncation_index.r1e6"] = m.truncation_index
                # computed, not measured: four float64 arrays (index, two pmfs,
                # difference) and one bool mask per sector
                self.metrics["discretization_compare.computed_bytes.r1e6"] = \
                    m.truncation_index * (4 * 8 + 1)

    def fits(self):
        import aym

        data = self.median_ms("empirical_fit.load_csv_ms", lambda: aym.load_csv(wl.BUNDLED_CSV), 9)
        fixed = self.median_ms("empirical_fit.fit_fixed_a0_ms",
                               lambda: aym.fit_tail(data, a0_fixed=0.0), 9)
        free = self.median_ms("empirical_fit.fit_free_a0_ms", lambda: aym.fit_tail(data), 9)
        for res in (fixed, free):
            chk = Check()
            chk.close("fitted D/n", res.d_over_n, wl.BUNDLED_MEAN, ref.FIT_REL_TOL)
            self.checks.append(chk)
        self.median_ms("empirical_fit.overlay_ms",
                       lambda: aym.emit_overlay(data, [100.0, 135.0, 170.0], 0.0,
                                                [float(a) for a in range(0, 1001, 10)]), 9)
