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
import math
import os
import sys
from functools import lru_cache, partial
from pathlib import Path
from types import SimpleNamespace

import aym
from .model_core import MAX_GRID_POINTS

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "AYM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_FAILURE = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the malformed-flag exit code pinned to 64."""

    def __init__(self, *args, add_flags=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._add_flags = add_flags  # a subcommand's flags, added before its first parse
        # argparse reads a token that starts with "-" as a value when this matches it; its
        # own pattern misses -1e-3, -inf, -nan and -1,2, which would read as flags
        self._negative_number_matcher = SimpleNamespace(match=_is_float_list)

    def parse_known_args(self, args=None, namespace=None):
        # the subparsers action hands a subcommand's parser its arguments through this
        if self._add_flags is not None:
            add_flags, self._add_flags = self._add_flags, None
            add_flags(self)
        return super().parse_known_args(args, namespace)

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


def _is_float_list(text: str) -> bool:
    try:
        _float_list(text)
    except argparse.ArgumentTypeError:
        return False
    return True


def _report(result, fmt: str = "json") -> str:
    """A result as its to_<fmt>() text, or as JSON: schema_version first, then its keys."""
    if fmt != "json":
        return getattr(result, f"to_{fmt}")()
    return json.dumps({"schema_version": SCHEMA_VERSION, **result.to_json_dict()}, indent=2) + "\n"


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


def _economy_from_args(args) -> aym.EconomyParams:
    if args.params_json is not None:
        return aym.load_params(args.params_json)
    if args.levels is None or args.n is None or args.D is None:
        raise aym.DomainError("provide --levels, --n and --D (or --params-json)")
    return aym.EconomyParams(args.levels, args.n, args.D, args.a0)


def _add_grid_flags(sub):
    sub.add_argument("--grid", type=_float_list, default=None,
                     help="comma-separated productivity cuts")
    sub.add_argument("--linspace", nargs=3, metavar=("START", "STOP", "COUNT"),
                     default=None, help="uniform grid: start stop count")


def _grid_from_args(args) -> list[float]:
    grid = list(args.grid or ())  # --grid is None or a non-empty tuple
    if args.linspace is not None:
        try:
            start, stop, count = float(args.linspace[0]), float(args.linspace[1]), int(args.linspace[2])
        except ValueError:
            raise aym.DomainError(f"--linspace expects start stop count, got {args.linspace}")
        if not 0 <= count <= MAX_GRID_POINTS:
            raise aym.DomainError(f"--linspace count must be in [0, {MAX_GRID_POINTS}], got {count}")
        if count == 1:
            grid.append(start)
        else:
            step = (stop - start) / (count - 1) if count > 1 else 0.0
            grid.extend(start + j * step for j in range(count))
    # a nan's place in sorted(set(...)) follows its hash, so a grid with a cut that
    # is not finite stays in input order, and the library names its first such cut
    return sorted(set(grid)) if all(map(math.isfinite, grid)) else grid


def _cmd_solve(args) -> str:
    return _report(aym.solve_generalized(_economy_from_args(args), c=args.c, tol=args.tol))


def _cmd_epi(args) -> str:
    return aym.curve_csv(aym.make(args.mean_demand, args.a0), _grid_from_args(args))


def _cmd_verify(args) -> str:
    cfg = aym.NumericsConfig(
        fd_step_theta=args.fd_step_theta,
        fd_step_x=args.fd_step_x,
        quadrature_tol=args.quadrature_tol,
        grid_points=args.grid_points,
        grid_span_gaps=args.grid_span,
    )
    return _report(aym.verify_all(aym.make(args.mean_demand, args.a0), cfg), args.format)


def _cmd_compare(args) -> str:
    return aym.compare_sweep_csv(args.r, args.i_max)


def _cmd_sample(args) -> str:
    config = aym.ChainConfig(steps=args.steps, burn_in=args.burn_in,
                             seed=args.seed, thin=args.thin)
    return _report(aym.run_chain(_economy_from_args(args), config), args.format)


def _cmd_enumerate(args) -> str:
    result = aym.enumerate_feasible(_economy_from_args(args), max_vectors=args.cap)
    return _report(result, args.format)


def _cmd_fit(args) -> str:
    a0_fixed = None if args.fit_a0 else args.a0
    return _report(aym.fit_tail(aym.load_csv(args.data), a0_fixed=a0_fixed,
                                min_p_gt=args.min_p_gt))


def _cmd_overlay(args) -> str:
    data = aym.load_csv(args.data) if args.data is not None else None
    return aym.emit_overlay(data, args.d_over_n, args.a0, _grid_from_args(args))


def _solve_flags(sub):
    _add_economy_flags(sub)
    sub.add_argument("--tol", type=float, default=1e-10, help="constraint residual tolerance")
    sub.set_defaults(handler=_cmd_solve, c=0.0)  # solve_boltzmann is the c = 0 solve


def _generalized_flags(sub):
    _add_economy_flags(sub)
    sub.add_argument("--c", type=float, required=True,
                     help="occupation-form parameter (0 = Boltzmann, 1 Bose-like, -1 Fermi-like)")
    sub.add_argument("--tol", type=float, default=1e-10, help="constraint residual tolerance")
    sub.set_defaults(handler=_cmd_solve)


def _epi_flags(sub):
    sub.add_argument("--mean-demand", type=float, required=True, help="demand per worker D/n")
    sub.add_argument("--a0", type=float, default=0.0, help="minimal productivity")
    _add_grid_flags(sub)
    sub.set_defaults(handler=_cmd_epi)


def _verify_flags(sub):
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


def _compare_flags(sub):
    sub.add_argument("--r", type=_float_list, required=True,
                     help="comma-separated demand ratios r > 1")
    sub.add_argument("--i-max", type=int, default=None, help="hard cap on the sector index")
    sub.set_defaults(handler=_cmd_compare)


def _sample_flags(sub):
    _add_economy_flags(sub)
    sub.add_argument("--steps", type=int, required=True, help="total chain steps")
    sub.add_argument("--burn-in", type=int, default=0)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--thin", type=int, default=1)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(handler=_cmd_sample)


def _enumerate_flags(sub):
    _add_economy_flags(sub)
    sub.add_argument("--cap", type=int, default=500_000, help="enumeration size cap")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.set_defaults(handler=_cmd_enumerate)


def _fit_flags(sub):
    sub.add_argument("--data", required=True, metavar="PATH", help="CSV with header a,p_gt")
    sub.add_argument("--a0", type=float, default=0.0, help="fixed minimal productivity")
    sub.add_argument("--fit-a0", action="store_true", help="fit a0 as well (closed-form line fit)")
    sub.add_argument("--min-p-gt", type=float, default=1e-6,
                     help="drop points with p_gt below this")
    sub.set_defaults(handler=_cmd_fit)


def _overlay_flags(sub):
    sub.add_argument("--data", metavar="PATH", default=None, help="optional CSV with header a,p_gt")
    sub.add_argument("--d-over-n", type=_float_list, required=True,
                     help="comma-separated demand-per-worker values")
    sub.add_argument("--a0", type=float, default=0.0)
    _add_grid_flags(sub)
    sub.set_defaults(handler=_cmd_overlay)


# name, help line and flags of each subcommand, in the order --help lists them
_SUBCOMMANDS = (
    ("solve", "Boltzmann equilibrium occupations (JSON)", _solve_flags),
    ("generalized", "generalized-c equilibrium occupations (JSON)", _generalized_flags),
    ("epi", "continuous law curve table a,pdf,tail (CSV)", _epi_flags),
    ("verify", "information-principle residual report (JSON)", _verify_flags),
    ("compare", "binned-law vs discrete-pmf distances (CSV)", _compare_flags),
    ("sample", "Metropolis occupation sampling summary", _sample_flags),
    ("enumerate", "exhaustive feasible occupation vectors", _enumerate_flags),
    ("fit", "fit D/n to a cumulative tail CSV (JSON)", _fit_flags),
    ("overlay", "data + model tail columns for plotting (CSV)", _overlay_flags),
)


def _add_flags(name, add_flags, sub):
    add_flags(sub)
    sub.add_argument("--output", metavar="PATH", default=None,
                     help=f"write the {name} result here instead of stdout "
                          f"(relative paths resolve under ${OUTPUT_DIR_ENV})")


def build_parser() -> _Parser:
    """The aym parser.  A subcommand's parser gets its flags when argparse first hands
    it arguments, so a run builds the flags of its own subcommand only."""
    parser = _Parser(prog="aym", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {aym.__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    for name, help_line, add_flags in _SUBCOMMANDS:
        subs.add_parser(name, help=help_line, add_flags=partial(_add_flags, name, add_flags))
    return parser


# argparse keeps no state of a parse in its parser: each parse_args fills a new
# namespace from the actions and their immutable defaults, so one parser serves
# every main call of a process
_parser = lru_cache(maxsize=1)(build_parser)


def _resolve_output(path: str | None) -> Path | None:
    """The --output path, under $AYM_OUTPUT_DIR when relative; an absolute path replaces it."""
    return None if path is None else Path(os.environ.get(OUTPUT_DIR_ENV) or "", path)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    destination = _resolve_output(args.output)
    try:
        text = args.handler(args)
        if destination is not None:
            destination.parent.mkdir(parents=True, exist_ok=True)
            destination.write_text(text, encoding="utf-8")
    except (aym.ValidationError, aym.SolverError, OSError) as exc:
        print(f"aym {args.subcommand}: error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE if isinstance(exc, aym.SolverError) else EXIT_INVALID_INPUT
    if destination is None:
        sys.stdout.write(text)
    return EXIT_OK


def run() -> None:
    """Entry point of ``python -m aym`` and the ``aym`` console script."""
    # numpy's OpenBLAS starts a thread pool sized to the cores at import, and
    # its spinning threads cost a cold run about as much CPU as the import
    # itself; aym's largest BLAS call is a 96-point dot product, which the pool
    # never speeds up.  This runs before any numpy import, and setdefault
    # leaves a value the user set alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.exit(main())


if __name__ == "__main__":
    run()
