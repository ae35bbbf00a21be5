"""What the benchmark measures: workloads, metric names, units and bounds.

``python3 bench/run.py --write-spec`` writes BENCHMARK.json from this file,
and the self-test checks that the committed copy matches.
"""

from __future__ import annotations

import json

RUN_SECONDS = 15

WORKLOADS = [
    ("cli_cold", "nine subcommands plus exit-2/3/64 error paths as fresh python -m aym "
                 "processes; interpreter start and import aym dominate, compute does not"),
    ("equilibrium", "Boltzmann majority up to n=1e6, feasible and provably infeasible "
                    "generalized c in {+-0.5, +-1}, c=1 n=1000 at paper scale; the solver core "
                    "dominates"),
    ("sampler", "enumeration oracle plus Metropolis chains on small instances, and chains on "
                "the g=10 n=60 ladder whose irreducibility enumeration hits its cap"),
    ("continuum", "verify_all and tail fits make most ops; the compare sweep up to r=1e6 "
                  "makes most of the wall time and memory"),
]

# name, unit, better, bound (share of the parent's median it may worsen by).
# Ops are timed in CPU time (tracing.cpu_seconds) and reported in multiples
# of the CPU time of a fixed reference computation run in the same pass
# (calibration.py), because this shared VM's speed moves by a quarter either
# way from one minute to the next.  Set-up is wall time, a median of several
# set-ups; it gets the widest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_cal", "1/cal", "higher", 0.25),
    ("op_p50_cal", "cal", "lower", 0.25),
    ("op_tail_cal", "cal", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
]

SUBCOMMANDS = ("solve", "generalized", "epi", "verify", "compare", "sample", "enumerate",
               "fit", "overlay")

PER_LAYER = [
    ("import.python_ms", "ms", "lower"),
    ("import.aym_ms", "ms", "lower"),
    ("import.numpy_ms", "ms", "lower"),
    ("import.scipy_ms", "ms", "lower"),
    *((f"cli.main_ms.{sub}", "ms", "lower") for sub in SUBCOMMANDS),
    ("cli.exit_mismatch", "count", "lower"),
    ("cli.nondeterministic", "count", "lower"),
    ("model_core.validate_us", "us", "lower"),
    ("model_core.integer_lattice_us", "us", "lower"),
    ("discrete_equilibrium.boltzmann_ms", "ms", "lower"),
    ("discrete_equilibrium.generalized_pos_ms", "ms", "lower"),
    ("discrete_equilibrium.generalized_neg_ms", "ms", "lower"),
    ("discrete_equilibrium.infeasible_ms", "ms", "lower"),
    ("discrete_equilibrium.failed", "count", "lower"),
    ("discrete_equilibrium.enumerate_ms", "ms", "lower"),
    ("discrete_equilibrium.enumerated_vectors", "count", "higher"),
    ("occupation_sampler.fixed_ms.oracle", "ms", "lower"),
    ("occupation_sampler.fixed_ms.ladder", "ms", "lower"),
    ("occupation_sampler.step_us.oracle", "us", "lower"),
    ("occupation_sampler.step_us.ladder", "us", "lower"),
    ("occupation_sampler.acceptance_rate.oracle", "ratio", "higher"),
    ("occupation_sampler.acceptance_rate.ladder", "ratio", "higher"),
    ("occupation_sampler.distinct_states.ladder", "count", "higher"),
    ("occupation_sampler.chi2.oracle", "chi2", "lower"),
    ("epi_distribution.curve_ms", "ms", "lower"),
    ("principle_verifier.verify_all_ms", "ms", "lower"),
    *((f"principle_verifier.{name}_ms", "ms", "lower") for name in (
        "fisher_metric_form", "fisher_statistical", "fisher_kinematical",
        "structural_principle", "regularity_residual", "boundary_identity_residual",
        "generating_equation_residual")),
    *((f"discretization_compare.compare_ms.r1e{k}", "ms", "lower") for k in range(1, 7)),
    ("discretization_compare.truncation_index.r1e6", "count", "lower"),
    ("discretization_compare.computed_bytes.r1e6", "B", "lower"),
    *((f"discretization_compare.tv_rel_err.r1e{k}", "ratio", "lower") for k in (4, 5, 6)),
    ("empirical_fit.load_csv_ms", "ms", "lower"),
    ("empirical_fit.fit_fixed_a0_ms", "ms", "lower"),
    ("empirical_fit.fit_free_a0_ms", "ms", "lower"),
    ("empirical_fit.overlay_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "higher"),
]


def benchmark_json() -> str:
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    return json.dumps(spec, indent=2) + "\n"
