"""Fit the exponential tail law to empirical cumulative productivity data.

Input data are cumulative points (a, P(>a)) with cuts in units of 1e6
yen/person (or any consistent productivity unit).  On a log scale the model
tail is a straight line through zero at a = a0,

    ln P(>a) = -(a - a0) / (D/n - a0),

so fitting reduces to a closed-form zero-intercept slope in log space.  With
a0 free the model is the weighted line ln P = slope*a + b with a0 = -b/slope,
also in closed form, clamped to [0, smallest cut].

Loading, saving and fitting are scalar arithmetic on Python floats (math.log,
math.fsum) over at most a few dozen points; only emit_overlay, which tabulates
the model tails, imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import (
    DegenerateFit,
    DomainError,
    EmptyDataset,
    MonotonicityError,
    ParseError,
)
from .model_core import _as_float, _check_a0, _csv_text, _finite_cuts, _text_lines

DEFAULT_MIN_P_GT = 1e-6  # log-space leverage guard: drop deeper tail points
_NO_POINT = (-math.inf, 1.0)  # the point before the first: every valid (a, p_gt) may follow it


def _point_fault(point, prev) -> tuple[type[ParseError], str] | None:
    """(error type, message) of the first rule that point = (a, p_gt[, w]) breaks, or None.
    In order: all finite, 0 < p_gt <= 1, a above prev's, p_gt not above prev's, w >= 0."""
    a, p, *w = point
    if not all(map(math.isfinite, point)):
        return ParseError, "non-finite value"
    if not 0.0 < p <= 1.0:
        return ParseError, f"p_gt must lie in (0, 1], got {p}"
    if a <= prev[0]:
        return MonotonicityError, f"cuts must be strictly increasing, got {a}"
    if p > prev[1]:
        return MonotonicityError, f"p_gt must be non-increasing, got {p}"
    if w and w[0] < 0:
        return ParseError, f"weights must be non-negative, got {w[0]}"
    return None


@dataclass(frozen=True)
class TailDataset:
    """Empirical cumulative tail; every point keeps _point_fault's rules, as in load_csv."""

    cuts: tuple[float, ...]
    p_gt: tuple[float, ...]
    weights: tuple[float, ...] | None = None
    source_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(_as_float(a, "cut") for a in self.cuts))
        object.__setattr__(self, "p_gt", tuple(_as_float(p, "p_gt") for p in self.p_gt))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(_as_float(w, "weight") for w in self.weights))
        if len(self.cuts) != len(self.p_gt):
            raise DomainError("cuts and p_gt must have equal length")
        if self.weights is not None and len(self.weights) != len(self.cuts):
            raise DomainError("weights must match the number of points")
        rows = list(zip(self.cuts, self.p_gt, *([] if self.weights is None else [self.weights])))
        for j, point in enumerate(rows):
            fault = _point_fault(point, rows[j - 1] if j else _NO_POINT)
            if fault is not None:
                raise DomainError(f"point {j + 1} {point}: {fault[1]}")

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.cuts, self.p_gt))


@dataclass(frozen=True)
class FitResult:
    """Fitted demand per worker with the log-space residual sum of squares."""

    d_over_n: float
    a0: float
    rss_log: float
    points_used: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def load_csv(path) -> TailDataset:
    """Parse a tail CSV: header a,p_gt (optionally a,p_gt,w), # comments allowed.

    Errors carry the 1-based line number: ParseError for malformed rows,
    bytes that are not UTF-8 or out-of-range values, MonotonicityError for
    ordering violations, EmptyDataset when no data rows remain.
    """
    rows: list[tuple[float, ...]] = []
    expected = 0  # columns per data row, set by the header
    for lineno, raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not expected:
            cols = [c.strip() for c in line.split(",")]
            if cols not in (["a", "p_gt"], ["a", "p_gt", "w"]):
                raise ParseError(lineno, f"expected header a,p_gt — got {line!r}")
            expected = len(cols)
            continue
        parts = line.split(",")
        if len(parts) != expected:
            raise ParseError(lineno, f"expected {expected} columns, got {len(parts)}")
        try:
            point = tuple(float(p) for p in parts)
        except ValueError:
            raise ParseError(lineno, f"non-numeric value in {line!r}") from None
        fault = _point_fault(point, rows[-1] if rows else _NO_POINT)
        if fault is not None:
            raise fault[0](lineno, f"{fault[1]} in {line!r}")
        rows.append(point)
    if not rows:
        raise EmptyDataset(f"no data rows in {path}")
    return TailDataset(*zip(*rows), source_label=str(path))  # columns: cuts, p_gt[, weights]


def save_csv(dataset: TailDataset) -> str:
    """Serialize a dataset back to the load_csv schema (17 significant digits)."""
    columns = [dataset.cuts, dataset.p_gt] + ([] if dataset.weights is None else [dataset.weights])
    return _csv_text(("a", "p_gt", "w")[:len(columns)], columns, ("%.17g",) * len(columns))


def _fsum(terms) -> float:
    """math.fsum of the terms, correctly rounded; where a partial sum leaves the float
    range, their plain float sum instead (inf or nan), which _result_from_slope refuses."""
    terms = list(terms)
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum past the float range, or inf - inf
        return sum(terms)


def _halves(x: float) -> tuple[float, float]:
    """Veltkamp's split: x = hi + lo, each with at most 26 significant bits, so that a
    product of two halves is exact."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _slope_fit(u, log_p, weights) -> tuple[float, float]:
    """Zero-intercept weighted LS (slope, rss) of log_p on u = a - a0; slope NaN if unpinned.

    A residual ln p - slope * x cancels to a few digits near the fitted line, so it
    subtracts slope * x as the exact sum product + error (Dekker's product of the
    halves), and the product's rounding does not enter it."""
    denom = _fsum(w * x * x for w, x in zip(weights, u))
    if denom == 0.0:
        return math.nan, math.inf
    slope = _fsum(w * x * y for w, x, y in zip(weights, u, log_p)) / denom
    s_hi, s_lo = _halves(slope)
    residuals = []
    for x, y in zip(u, log_p):
        product = slope * x
        x_hi, x_lo = _halves(x)
        error = ((s_hi * x_hi - product) + s_hi * x_lo + s_lo * x_hi) + s_lo * x_lo
        # a half past the float range (|x| or |slope| above about 1e300): plain product
        residuals.append((y - product) - error if math.isfinite(error) else y - product)
    return slope, _fsum(w * (d * d) for w, d in zip(weights, residuals))


def fit_tail(data: TailDataset, a0_fixed: float | None = None,
             min_p_gt: float = DEFAULT_MIN_P_GT) -> FitResult:
    """Least-squares fit of D/n (optionally a0) on the log tail.

    Points at or below a fixed a0 are excluded (the model tail is 1 there).
    A free a0 is the weighted line's root clamped to [0, smallest cut]: there
    every ln p <= 0 and a - a0 >= 0, so the RSS profile has no interior
    maximum and the clamp is exact.  The root a_mean - y_mean/slope lies below
    the weighted mean cut and falls to -inf as the slope rises to 0, so a line
    whose float slope is not negative (cuts and logs that differ only in their
    last digits) clamps to 0.  At the smallest cut the lowest point stays in
    with a - a0 = 0 (the limit from the left).  Every sum is math.fsum,
    correctly rounded.

    Raises DegenerateFit when the data cannot pin a positive decay scale
    (constant tails, fewer than two usable points, non-decreasing logs), or
    when the fitted D/n or the RSS is not a finite float.
    """
    if a0_fixed is not None:
        _check_a0(a0_fixed)
    keep = [j for j, p in enumerate(data.p_gt) if p >= min_p_gt]
    if len(keep) < 2:
        raise DegenerateFit(f"need at least 2 points with p_gt >= {min_p_gt}")
    cuts = [data.cuts[j] for j in keep]
    p = [data.p_gt[j] for j in keep]
    if max(p) == min(p):
        raise DegenerateFit("tail values are constant; no decay scale to fit")
    weights = [data.weights[j] for j in keep] if data.weights is not None else [1.0] * len(keep)
    log_p = list(map(math.log, p))

    if a0_fixed is not None:
        above = [j for j, a in enumerate(cuts) if a > a0_fixed]
        slope, rss = _slope_fit([cuts[j] - a0_fixed for j in above], [log_p[j] for j in above],
                                [weights[j] for j in above])
        return _result_from_slope(slope, rss, len(above), a0_fixed)

    hi = min(cuts)
    if hi <= 0:
        return fit_tail(data, a0_fixed=0.0, min_p_gt=min_p_gt)

    total = _fsum(weights)
    if total == 0.0:
        raise DegenerateFit("all weights are zero")
    a_mean = _fsum(w * a for w, a in zip(weights, cuts)) / total
    y_mean = _fsum(w * y for w, y in zip(weights, log_p)) / total
    centred = [a - a_mean for a in cuts]
    spread = _fsum(w * (x * x) for w, x in zip(weights, centred))
    if spread == 0.0:
        raise DegenerateFit("a free a0 needs weight on at least two distinct cuts")
    line_slope = _fsum(w * x * y for w, x, y in zip(weights, centred, log_p)) / spread
    # the line's root, which falls to -inf as its slope rises to 0
    a0 = a_mean - y_mean / line_slope if line_slope < 0 else -math.inf
    a0 = min(max(a0, 0.0), hi)
    slope, rss = _slope_fit([a - a0 for a in cuts], log_p, weights)
    return _result_from_slope(slope, rss, len(cuts), a0)


def _result_from_slope(slope: float, rss: float, used: int, a0: float) -> FitResult:
    if not math.isfinite(slope) or used < 2:
        raise DegenerateFit("not enough points above a0 to determine a slope")
    if slope >= 0:
        raise DegenerateFit("tail does not decay; fitted scale would be non-positive")
    d_over_n = a0 - 1.0 / slope
    if not (math.isfinite(d_over_n) and math.isfinite(rss)):
        raise DegenerateFit(f"fitted D/n {d_over_n} or log RSS {rss} is not a finite float")
    return FitResult(d_over_n=d_over_n, a0=a0, rss_log=rss, points_used=used)


def emit_overlay(data: TailDataset | None, d_over_n_values, a0: float, grid) -> str:
    """Curve table for log-log overlay plots.

    Rows are the sorted union of grid values and data cuts; the p_gt_data
    column is empty where no datum exists.  One tail column per requested
    D/n value, sorted ascending, named tail_<value>.
    """
    import numpy as np

    from .epi_distribution import make

    grid = _finite_cuts(grid)
    values = sorted(float(v) for v in d_over_n_values)
    dists = [make(v, a0) for v in values]
    data_map = dict(data.points) if data is not None else {}
    cuts = sorted(set(grid) | set(data_map))
    p_gt_data = ["%.17g" % data_map[a] if a in data_map else "" for a in cuts]
    tails = [dist.tail(np.array(cuts)) for dist in dists]
    return _csv_text(["a", "p_gt_data"] + [f"tail_{v:g}" for v in values],
                     [cuts, p_gt_data, *tails], ("%.17g", "%s") + ("%.17g",) * len(tails))
