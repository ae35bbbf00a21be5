"""Shared domain types and validation for the sectoral productivity model.

An economy has g sectors with output-per-worker levels a_1 < ... < a_g,
n workers to allocate, and an exogenous aggregate demand D that total
output must meet.  Equilibria allocate workers so that

    sum_i n_i = n        (worker conservation)
    sum_i a_i n_i = D    (demand / GDP constraint)

Both the discrete solvers and the continuous-productivity law build on the
types defined here.  All types are immutable value objects; share freely
across threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from operator import lt
from typing import Sequence

from .errors import (
    DomainError,
    EmptyLadder,
    InfeasibleDemand,
    NonMonotoneLevels,
    ParseError,
)

# largest evaluation grid a caller may request: the verifier's grid_points and
# a CLI --linspace count; a grid this size costs a few hundred MB at most
MAX_GRID_POINTS = 10**6
_CHUNK_ROWS = 4096  # _csv_text: rows formatted at a time, a few hundred kB of text


def _as_float(value, name: str) -> float:
    """float(value); DomainError naming it for an int past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is too large for a float") from None


def _as_int(value, name: str) -> int:
    """value as a plain int: an int or a numpy integer; a bool, 2.0 or a str is a DomainError."""
    if type(value) is not int:
        from numbers import Integral  # loaded only for a value that is not a plain int
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise DomainError(f"{name} must be an int, got {value!r}")
    return int(value)


def _frozen(cls, *values):
    """cls(*values) for a frozen dataclass whose __init__ only assigns (no __post_init__),
    values in field order: one __dict__ update in place of an object.__setattr__ a field.

    Worth it for a wide type built on every call, such as the verifier's 11-field report.
    On CPython 3.11 the constructor is as fast for 6 fields and faster for 3 or 4, and
    the dict this makes turns each later attribute read into a dict lookup."""
    instance = object.__new__(cls)
    instance.__dict__.update(zip(cls.__dataclass_fields__, values))
    return instance


@dataclass(frozen=True)
class EconomyParams:
    """Economy description.

    levels: sector productivities in productivity units, strictly increasing
        (a zero minimum is allowed for the zero-minimum binning mode).
    n: worker count; integral for enumeration/sampling, may be real for
        continuum work.
    D: aggregate demand in productivity*workers.
    a0: minimal productivity; defaults to the smallest level.
    """

    levels: tuple[float, ...]
    n: float
    D: float
    a0: float | None = None  # None resolves to the smallest level

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(_as_float(a, "level") for a in self.levels))
        object.__setattr__(self, "n", _as_float(self.n, "worker count n"))
        object.__setattr__(self, "D", _as_float(self.D, "aggregate demand D"))
        if self.a0 is None:
            object.__setattr__(self, "a0", self.levels[0] if self.levels else 0.0)
        else:
            object.__setattr__(self, "a0", _as_float(self.a0, "minimal productivity a0"))

    @property
    def g(self) -> int:
        return len(self.levels)

    @property
    def mean_demand(self) -> float:
        """Demand per worker D/n."""
        return self.D / self.n


def make_ladder(a0: float, g: int, n: float, D: float) -> EconomyParams:
    """Arithmetic-ladder economy with levels a_i = i*a0 for i = 1..g, g an int or numpy integer."""
    if not 0 < a0 < math.inf:
        raise DomainError(f"ladder step a0 must be positive and finite, got {a0}")
    g = _as_int(g, "sector count g")
    if g < 1:
        raise EmptyLadder("ladder needs at least one sector")
    return EconomyParams(tuple(i * a0 for i in range(1, g + 1)), n, D, a0)


def _check_a0(a0: float) -> None:
    """Raise DomainError unless a minimal productivity is finite and >= 0; an int past the
    float range is not finite here."""
    if not 0 <= a0 < math.inf:
        raise DomainError(f"minimal productivity a0 must be finite and >= 0, got {a0}")
    _as_float(a0, "minimal productivity a0")


def _validate_ladder(params: EconomyParams) -> None:
    """validate's rules for the levels and a0, which hold whatever n and D are."""
    levels = params.levels
    if not levels:
        raise EmptyLadder("levels must contain at least one sector")
    # one C-level pass (map over float.__lt__, a slot wrapper, is 3x slower on CPython 3.11)
    if not all(map(lt, levels, levels[1:])):
        lo, hi = next((lo, hi) for lo, hi in zip(levels, levels[1:]) if not lo < hi)
        raise NonMonotoneLevels(f"levels must be strictly increasing, got {lo} before {hi}")
    if not 0 <= levels[0] <= levels[-1] < math.inf:
        raise DomainError(
            f"levels must be non-negative and finite, got {levels[0]} to {levels[-1]}")
    _check_a0(params.a0)


def validate(params: EconomyParams) -> EconomyParams:
    """Check all EconomyParams invariants; return the params unchanged.

    Idempotent.  Feasibility uses the closed interval, so D on the hull
    boundary is accepted (it forces a degenerate occupation).
    """
    _validate_ladder(params)
    if not (params.n > 0 and math.isfinite(params.n)):
        raise DomainError(f"worker count must be positive and finite, got {params.n}")
    if not (params.D > 0 and math.isfinite(params.D)):
        raise DomainError(f"aggregate demand must be positive and finite, got {params.D}")
    lo, hi = params.levels[0] * params.n, params.levels[-1] * params.n
    if not (lo <= params.D <= hi):
        raise InfeasibleDemand(f"demand {params.D} outside feasible hull [{lo}, {hi}]")
    return params


@dataclass(frozen=True)
class OccupationVector:
    """Integer worker allocation across sectors.

    counts[i] is the number of workers in sector i; all non-negative.
    """

    counts: tuple[int, ...]

    def __post_init__(self):
        coerced = []
        for k in self.counts:
            try:
                integral = int(k) == k
            except (ValueError, OverflowError):  # nan and inf have no int
                integral = False
            if not integral:
                raise DomainError(f"occupation counts must be integers, got {k}")
            if k < 0:
                raise DomainError(f"occupation counts must be non-negative, got {k}")
            coerced.append(int(k))
        object.__setattr__(self, "counts", tuple(coerced))

    @property
    def total(self) -> int:
        """Total worker count n = sum of counts."""
        return sum(self.counts)

    def output(self, levels: Sequence[float]) -> float:
        """Total output Z = sum_i a_i n_i for the given sector levels."""
        if len(levels) != len(self.counts):
            raise DomainError("levels and counts must have equal length")
        return sum(a * k for a, k in zip(levels, self.counts))


@dataclass(frozen=True)
class LadderRatio:
    """Dimensionless demand ratios of the ladder economy.

    r = (D/n)/a0 drives the closed-form ladder occupation (requires r > 1
    for positive occupations); r_tilde = (D/n)/delta_a is its analogue for
    zero-minimum binning with bin width delta_a.
    """

    r: float | None
    r_tilde: float
    delta_a: float


def _check_ratio(value: float, floor: float = 1.0, name: str = "demand ratio") -> None:
    """Raise DomainError unless floor < value < inf: r > 1, or r_tilde > 0 with floor 0; an
    int past the float range is not finite here."""
    if not floor < value < math.inf:
        raise DomainError(f"{name} must be finite and exceed {floor:g}, got {value}")
    _as_float(value, name)


def ladder_ratio(params: EconomyParams, delta_a: float | None = None) -> LadderRatio:
    """Build the LadderRatio for an economy; delta_a defaults to a0.

    With a0 = 0 an explicit positive delta_a is required (zero-minimum mode).
    Not validated: an unbounded ladder's ratios hold for D/n above the top level.
    """
    _check_a0(params.a0)
    mean = params.mean_demand
    if params.a0 > 0:
        r = mean / params.a0
        _check_ratio(r)
    else:
        r = None
        if delta_a is None:
            raise DomainError("zero-minimum mode needs an explicit bin width delta_a")
    width = params.a0 if delta_a is None else _as_float(delta_a, "bin width delta_a")
    if not 0 < width < math.inf:
        raise DomainError(f"bin width delta_a must be positive and finite, got {width}")
    r_tilde = mean / width
    _check_ratio(r_tilde, 0.0, "r_tilde")
    return LadderRatio(r=r, r_tilde=r_tilde, delta_a=width)


def _finite_cuts(grid) -> list[float]:
    """A grid's cuts as floats; DomainError unless every one is finite."""
    cuts = [float(a) for a in grid]
    if not all(map(math.isfinite, cuts)):  # min by isfinite: the first cut that is not
        raise DomainError(f"grid cuts must be finite, got {min(cuts, key=math.isfinite)}")
    return cuts


def _state_text(counts: Sequence[int]) -> str:
    """An occupation's counts as one CSV cell or JSON key: "1;2;1"."""
    return ";".join(map(str, counts))


def _csv_text(header: Sequence[str], columns: Sequence, formats: Sequence[str]) -> str:
    """CSV table, each row by one %-format joined from the column formats: "%.17g"
    (17 significant digits) for a float column, "%s" for any other, such as exact
    integer weights or cells already rendered to text.  Formats _CHUNK_ROWS rows at a
    time, reading a numpy column's rows by tolist(), so no more than a chunk's cells
    are ever Python objects at once."""
    line = ",".join(formats) + "\n"
    chunks = [",".join(header) + "\n"]
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        parts = [column[start:start + _CHUNK_ROWS] for column in columns]
        parts = [part.tolist() if hasattr(part, "tolist") else part for part in parts]
        chunks.append((line * len(parts[0])) % tuple(chain.from_iterable(zip(*parts))))
    return "".join(chunks)


def _text_lines(path):
    """Yield (line number, line) of a UTF-8 file; ParseError at the first line that is not."""
    # a byte that is not UTF-8 decodes to a lone surrogate, which does not encode back
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(lineno, f"not UTF-8 text in {path}, column {exc.start + 1}") from None
            yield lineno, line


# --- JSON interchange (field names are part of the CLI contract) ---

def params_to_json(params: EconomyParams) -> str:
    payload = {
        "levels": list(params.levels),
        "n": params.n,
        "D": params.D,
        "a0": params.a0,
    }
    return json.dumps(payload, indent=2) + "\n"


def _json_number(value, field: str) -> float:
    """A JSON number as a float; DomainError for true/false, any other type, or too large."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"economy JSON field {field} must be a number, "
                          f"got {json.dumps(value):.40}")
    return _as_float(value, f"economy JSON field {field}")


def params_from_json(text: str) -> EconomyParams:
    """Economy from JSON: levels an array of numbers, n and D numbers, a0 a number or null,
    and no other field, so that a misspelt a0 is an error, not the default."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # malformed, or an integer past int's digit limit
        raise DomainError(f"invalid economy JSON: {exc}") from exc
    if not isinstance(payload, dict) or not {"levels", "n", "D"} <= payload.keys():
        raise DomainError("economy JSON needs an object with fields levels, n, D")
    unknown = [key for key in payload if key not in ("levels", "n", "D", "a0")]
    if unknown:  # the first in the text, so the message is the same on every run
        raise DomainError(f"economy JSON field {json.dumps(unknown[0]):.40} is not one of "
                          "levels, n, D, a0")
    levels, a0 = payload["levels"], payload.get("a0")
    if not isinstance(levels, list):
        raise DomainError(f"economy JSON field levels must be an array, "
                          f"got {json.dumps(levels):.40}")
    return EconomyParams(tuple(_json_number(a, f"levels[{i}]") for i, a in enumerate(levels)),
                         _json_number(payload["n"], "n"), _json_number(payload["D"], "D"),
                         None if a0 is None else _json_number(a0, "a0"))


def load_params(path) -> EconomyParams:
    """params_from_json on a UTF-8 file; ParseError names the file and line of a bad byte."""
    return params_from_json("".join(line for _, line in _text_lines(path)))
