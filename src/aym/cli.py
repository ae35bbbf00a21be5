"""Command-line front door.

One subcommand per capability: solve, generalized, epi, verify, compare,
sample, enumerate, fit, overlay.  Results go to stdout or --output; JSON
for reports, CSV for tables.  Identical flags (including seed) produce
byte-identical output.  Exit codes: 0 success, 2 invalid input, 3 solver
failure, 64 malformed flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .discrete_equilibrium import enumerate_feasible, solve_boltzmann, solve_generalized
from .discretization_compare import compare_sweep_csv
from .empirical_fit import emit_overlay, fit_tail, load_csv
from .epi_distribution import curve_csv, make
from .errors import DomainError, SolverError, ValidationError
from .model_core import EconomyParams, params_from_json
from .occupation_sampler import ChainConfig, run_chain
from .principle_verifier import NumericsConfig, verify_all

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "AYM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_FAILURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the malformed-flag exit code pinned to 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _add_economy_flags(sub):
    sub.add_argument("--levels", type=_float_list, default=None,
                     help="comma-separated sector productivities, strictly increasing")
    sub.add_argument("--n", type=float, default=None, help="worker count")
    sub.add_argument("--D", type=float, default=None,
                     help="aggregate demand (productivity x workers)")
    sub.add_argument("--a0", type=float, default=None,
                     help="minimal productivity (default: smallest level)")
    sub.add_argument("--params-json", metavar="PATH", default=None,
                     help="JSON file with fields levels, n, D, a0 (overrides the flags above)")


def _economy_from_args(args) -> EconomyParams:
    if args.params_json is not None:
        return params_from_json(Path(args.params_json).read_text(encoding="utf-8"))
    if args.levels is None or args.n is None or args.D is None:
        raise DomainError("provide --levels, --n and --D (or --params-json)")
    return EconomyParams(args.levels, args.n, args.D, args.a0)


def _add_grid_flags(sub):
    sub.add_argument("--grid", type=_float_list, default=None,
                     help="comma-separated productivity cuts")
    sub.add_argument("--linspace", nargs=3, metavar=("START", "STOP", "COUNT"),
                     default=None, help="uniform grid: start stop count")


def _grid_from_args(args) -> list[float]:
    grid: list[float] = []
    if args.grid is not None:
        grid.extend(args.grid)
    if args.linspace is not None:
        try:
            start, stop, count = float(args.linspace[0]), float(args.linspace[1]), int(args.linspace[2])
        except ValueError:
            raise DomainError(f"--linspace expects start stop count, got {args.linspace}")
        if count < 0:
            raise DomainError("--linspace count must be non-negative")
        if count == 1:
            grid.append(start)
        else:
            step = (stop - start) / (count - 1) if count > 1 else 0.0
            grid.extend(start + j * step for j in range(count))
    return sorted(set(grid))


def _cmd_solve(args) -> str:
    solution = solve_boltzmann(_economy_from_args(args), tol=args.tol)
    return _json_text({"schema_version": SCHEMA_VERSION, **solution.to_json_dict()})


def _cmd_generalized(args) -> str:
    solution = solve_generalized(_economy_from_args(args), c=args.c, tol=args.tol)
    return _json_text({"schema_version": SCHEMA_VERSION, **solution.to_json_dict()})


def _cmd_epi(args) -> str:
    dist = make(args.mean_demand, args.a0)
    grid = _grid_from_args(args)
    return curve_csv(dist, grid)


def _cmd_verify(args) -> str:
    cfg = NumericsConfig(
        fd_step_theta=args.fd_step_theta,
        fd_step_x=args.fd_step_x,
        quadrature_tol=args.quadrature_tol,
        grid_points=args.grid_points,
        grid_span_gaps=args.grid_span,
    )
    report = verify_all(make(args.mean_demand, args.a0), cfg)
    payload = report.to_json_dict()
    if args.format == "table":
        width = max(len(k) for k in payload)
        lines = [f"{k.ljust(width)}  {v:.12e}" for k, v in payload.items()]
        return "\n".join(lines) + "\n"
    return _json_text({"schema_version": SCHEMA_VERSION, **payload})


def _cmd_compare(args) -> str:
    return compare_sweep_csv(args.r, args.i_max)


def _cmd_sample(args) -> str:
    config = ChainConfig(steps=args.steps, burn_in=args.burn_in,
                         seed=args.seed, thin=args.thin)
    summary = run_chain(_economy_from_args(args), config)
    if args.format == "csv":
        return summary.to_csv()
    return _json_text({"schema_version": SCHEMA_VERSION, **summary.to_json_dict()})


def _cmd_enumerate(args) -> str:
    result = enumerate_feasible(_economy_from_args(args), max_vectors=args.cap)
    if args.format == "csv":
        lines = ["state,weight,log_weight"]
        for vec, w, lw in zip(result.vectors, result.weights, result.log_weights):
            lines.append(f"{';'.join(map(str, vec.counts))},{w},{lw:.17g}")
        return "\n".join(lines) + "\n"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "count": len(result.vectors),
        "argmax": list(result.argmax.counts) if result.argmax is not None else None,
        "vectors": [
            {"counts": list(vec.counts), "weight": w, "log_weight": lw}
            for vec, w, lw in zip(result.vectors, result.weights, result.log_weights)
        ],
    }
    return _json_text(payload)


def _cmd_fit(args) -> str:
    data = load_csv(args.data)
    a0_fixed = None if args.fit_a0 else args.a0
    result = fit_tail(data, a0_fixed=a0_fixed, min_p_gt=args.min_p_gt)
    return _json_text({"schema_version": SCHEMA_VERSION, **result.to_json_dict()})


def _cmd_overlay(args) -> str:
    data = load_csv(args.data) if args.data is not None else None
    grid = _grid_from_args(args)
    return emit_overlay(data, args.d_over_n, args.a0, grid)


def build_parser() -> _Parser:
    parser = _Parser(prog="aym", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    sub = subs.add_parser("solve", help="Boltzmann equilibrium occupations (JSON)")
    _add_economy_flags(sub)
    sub.add_argument("--tol", type=float, default=1e-10, help="constraint residual tolerance")
    sub.set_defaults(handler=_cmd_solve)

    sub = subs.add_parser("generalized", help="generalized-c equilibrium occupations (JSON)")
    _add_economy_flags(sub)
    sub.add_argument("--c", type=float, required=True,
                     help="occupation-form parameter (0 = Boltzmann, 1 Bose-like, -1 Fermi-like)")
    sub.add_argument("--tol", type=float, default=1e-10, help="constraint residual tolerance")
    sub.set_defaults(handler=_cmd_generalized)

    sub = subs.add_parser("epi", help="continuous law curve table a,pdf,tail (CSV)")
    sub.add_argument("--mean-demand", type=float, required=True, help="demand per worker D/n")
    sub.add_argument("--a0", type=float, default=0.0, help="minimal productivity")
    _add_grid_flags(sub)
    sub.set_defaults(handler=_cmd_epi)

    sub = subs.add_parser("verify", help="information-principle residual report (JSON)")
    sub.add_argument("--mean-demand", type=float, required=True, help="demand per worker D/n")
    sub.add_argument("--a0", type=float, default=0.0, help="minimal productivity")
    sub.add_argument("--fd-step-theta", type=float, default=None,
                     help="finite-difference step in the mean (default 1e-4 mean gaps)")
    sub.add_argument("--fd-step-x", type=float, default=None,
                     help="finite-difference step in the displacement (default 1e-3 mean gaps)")
    sub.add_argument("--quadrature-tol", type=float, default=1e-12)
    sub.add_argument("--grid-points", type=int, default=4001)
    sub.add_argument("--grid-span", type=float, default=40.0,
                     help="grid span in mean gaps (>= 40)")
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("compare", help="binned-law vs discrete-pmf distances (CSV)")
    sub.add_argument("--r", type=_float_list, required=True,
                     help="comma-separated demand ratios r > 1")
    sub.add_argument("--i-max", type=int, default=None, help="hard cap on the sector index")
    sub.set_defaults(handler=_cmd_compare)

    sub = subs.add_parser("sample", help="Metropolis occupation sampling summary")
    _add_economy_flags(sub)
    sub.add_argument("--steps", type=int, required=True, help="total chain steps")
    sub.add_argument("--burn-in", type=int, default=0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--thin", type=int, default=1)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(handler=_cmd_sample)

    sub = subs.add_parser("enumerate", help="exhaustive feasible occupation vectors")
    _add_economy_flags(sub)
    sub.add_argument("--cap", type=int, default=500_000, help="enumeration size cap")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(handler=_cmd_enumerate)

    sub = subs.add_parser("fit", help="fit D/n to a cumulative tail CSV (JSON)")
    sub.add_argument("--data", required=True, metavar="PATH", help="CSV with header a,p_gt")
    sub.add_argument("--a0", type=float, default=0.0, help="fixed minimal productivity")
    sub.add_argument("--fit-a0", action="store_true", help="fit a0 as well (closed-form line fit)")
    sub.add_argument("--min-p-gt", type=float, default=1e-6,
                     help="drop points with p_gt below this")
    sub.set_defaults(handler=_cmd_fit)

    sub = subs.add_parser("overlay", help="data + model tail columns for plotting (CSV)")
    sub.add_argument("--data", metavar="PATH", default=None, help="optional CSV with header a,p_gt")
    sub.add_argument("--d-over-n", type=_float_list, required=True,
                     help="comma-separated demand-per-worker values")
    sub.add_argument("--a0", type=float, default=0.0)
    _add_grid_flags(sub)
    sub.set_defaults(handler=_cmd_overlay)

    for name, sub in subs.choices.items():
        sub.add_argument("--output", metavar="PATH", default=None,
                         help=f"write the {name} result here instead of stdout "
                              f"(relative paths resolve under ${OUTPUT_DIR_ENV})")
    return parser


def _resolve_output(path: str | None) -> Path | None:
    if path is None:
        return None
    resolved = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not resolved.is_absolute():
        resolved = Path(base) / resolved
    return resolved


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except ValidationError as exc:
        print(f"aym {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SolverError as exc:
        print(f"aym {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except OSError as exc:
        print(f"aym {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    destination = _resolve_output(args.output)
    if destination is None:
        sys.stdout.write(text)
    else:
        destination.parent.mkdir(parents=True, exist_ok=True)
        destination.write_text(text, encoding="utf-8")
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
