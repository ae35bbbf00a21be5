"""Fit the exponential tail law to empirical cumulative productivity data.

Input data are cumulative points (a, P(>a)) with cuts in units of 1e6
yen/person (or any consistent productivity unit).  On a log scale the model
tail is a straight line through zero at a = a0,

    ln P(>a) = -(a - a0) / (D/n - a0),

so fitting reduces to a closed-form zero-intercept slope in log space.  With
a0 free the model is the weighted line ln P = slope*a + b with a0 = -b/slope,
also in closed form, clamped to [0, smallest cut].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .epi_distribution import make
from .errors import (
    DegenerateFit,
    DomainError,
    EmptyDataset,
    MonotonicityError,
    ParseError,
)

DEFAULT_MIN_P_GT = 1e-6  # log-space leverage guard: drop deeper tail points


@dataclass(frozen=True)
class TailDataset:
    """Empirical cumulative tail: cuts strictly increasing, p_gt in (0,1] non-increasing."""

    cuts: tuple[float, ...]
    p_gt: tuple[float, ...]
    weights: tuple[float, ...] | None = None
    source_label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "cuts", tuple(float(a) for a in self.cuts))
        object.__setattr__(self, "p_gt", tuple(float(p) for p in self.p_gt))
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.cuts) != len(self.p_gt):
            raise DomainError("cuts and p_gt must have equal length")
        if self.weights is not None and len(self.weights) != len(self.cuts):
            raise DomainError("weights must match the number of points")
        for a, b in zip(self.cuts, self.cuts[1:]):
            if not a < b:
                raise DomainError("cuts must be strictly increasing")
        for p, q in zip(self.p_gt, self.p_gt[1:]):
            if q > p:
                raise DomainError("p_gt must be non-increasing")
        for p in self.p_gt:
            if not 0.0 < p <= 1.0:
                raise DomainError(f"p_gt values must lie in (0, 1], got {p}")

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
        return {
            "d_over_n": self.d_over_n,
            "a0": self.a0,
            "rss_log": self.rss_log,
            "points_used": self.points_used,
        }


def load_csv(path) -> TailDataset:
    """Parse a tail CSV: header a,p_gt (optionally a,p_gt,w), # comments allowed.

    Errors carry the 1-based line number: ParseError for malformed rows or
    out-of-range values, MonotonicityError for ordering violations,
    EmptyDataset when no data rows remain.
    """
    cuts: list[float] = []
    p_gt: list[float] = []
    weights: list[float] = []
    header_seen = False
    has_weights = False
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                cols = [c.strip() for c in line.split(",")]
                if cols == ["a", "p_gt"]:
                    has_weights = False
                elif cols == ["a", "p_gt", "w"]:
                    has_weights = True
                else:
                    raise ParseError(lineno, f"expected header a,p_gt — got {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            expected = 3 if has_weights else 2
            if len(parts) != expected:
                raise ParseError(lineno, f"expected {expected} columns, got {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError:
                raise ParseError(lineno, f"non-numeric value in {line!r}") from None
            a, p = values[0], values[1]
            if not 0.0 < p <= 1.0:
                raise ParseError(lineno, f"p_gt must lie in (0, 1], got {p}")
            if cuts and a <= cuts[-1]:
                raise MonotonicityError(lineno, f"cuts must be strictly increasing, got {a}")
            if p_gt and p > p_gt[-1]:
                raise MonotonicityError(lineno, f"p_gt must be non-increasing, got {p}")
            if has_weights:
                if values[2] < 0:
                    raise ParseError(lineno, f"weights must be non-negative, got {values[2]}")
                weights.append(values[2])
            cuts.append(a)
            p_gt.append(p)
    if not cuts:
        raise EmptyDataset(f"no data rows in {path}")
    return TailDataset(tuple(cuts), tuple(p_gt),
                       tuple(weights) if has_weights else None,
                       source_label=str(path))


def save_csv(dataset: TailDataset) -> str:
    """Serialize a dataset back to the load_csv schema (17 significant digits)."""
    has_w = dataset.weights is not None
    lines = ["a,p_gt,w" if has_w else "a,p_gt"]
    for idx, (a, p) in enumerate(dataset.points):
        row = f"{a:.17g},{p:.17g}"
        if has_w:
            row += f",{dataset.weights[idx]:.17g}"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _slope_fit(u: np.ndarray, log_p: np.ndarray, weights: np.ndarray) -> tuple[float, float]:
    """Zero-intercept weighted LS (slope, rss) of log_p on u = a - a0; slope NaN if unpinned."""
    denom = float((weights * u * u).sum())
    if denom == 0.0:
        return math.nan, math.inf
    slope = float((weights * u * log_p).sum()) / denom
    return slope, float((weights * (log_p - slope * u) ** 2).sum())


def fit_tail(data: TailDataset, a0_fixed: float | None = None,
             min_p_gt: float = DEFAULT_MIN_P_GT) -> FitResult:
    """Least-squares fit of D/n (optionally a0) on the log tail.

    Points at or below a fixed a0 are excluded (the model tail is 1 there).
    A free a0 is the weighted line's root clamped to [0, smallest cut]: there
    every ln p <= 0 and a - a0 >= 0, so the RSS profile has no interior
    maximum and the clamp is exact.  At the smallest cut the lowest point
    stays in with a - a0 = 0 (the limit from the left).

    Raises DegenerateFit when the data cannot pin a positive decay scale
    (constant tails, fewer than two usable points, non-decreasing logs).
    """
    keep = [j for j, p in enumerate(data.p_gt) if p >= min_p_gt]
    if len(keep) < 2:
        raise DegenerateFit(f"need at least 2 points with p_gt >= {min_p_gt}")
    cuts = np.asarray([data.cuts[j] for j in keep])
    p = np.asarray([data.p_gt[j] for j in keep])
    if p.max() == p.min():
        raise DegenerateFit("tail values are constant; no decay scale to fit")
    weights = (np.asarray([data.weights[j] for j in keep])
               if data.weights is not None else np.ones(len(keep)))
    log_p = np.log(p)

    if a0_fixed is not None:
        if a0_fixed < 0:
            raise DomainError("a0 must be non-negative")
        above = cuts > a0_fixed
        slope, rss = _slope_fit(cuts[above] - a0_fixed, log_p[above], weights[above])
        return _result_from_slope(slope, rss, int(above.sum()), a0_fixed)

    hi = float(cuts.min())
    if hi <= 0:
        return fit_tail(data, a0_fixed=0.0, min_p_gt=min_p_gt)

    total = float(weights.sum())
    if total == 0.0:
        raise DegenerateFit("all weights are zero")
    a_mean = float((weights * cuts).sum()) / total
    y_mean = float((weights * log_p).sum()) / total
    spread = float((weights * (cuts - a_mean) ** 2).sum())
    if spread == 0.0:
        raise DegenerateFit("a free a0 needs weight on at least two distinct cuts")
    line_slope = float((weights * (cuts - a_mean) * log_p).sum()) / spread
    # root of the line: a0 = a_mean - y_mean/slope, +inf as the slope rises to 0
    a0 = a_mean - y_mean / line_slope if line_slope < 0 else math.inf
    a0 = min(max(a0, 0.0), hi)
    slope, rss = _slope_fit(cuts - a0, log_p, weights)
    return _result_from_slope(slope, rss, len(cuts), a0)


def _result_from_slope(slope: float, rss: float, used: int, a0: float) -> FitResult:
    if not math.isfinite(slope) or used < 2:
        raise DegenerateFit("not enough points above a0 to determine a slope")
    if slope >= 0:
        raise DegenerateFit("tail does not decay; fitted scale would be non-positive")
    return FitResult(d_over_n=a0 - 1.0 / slope, a0=a0, rss_log=rss, points_used=used)


def emit_overlay(data: TailDataset | None, d_over_n_values, a0: float, grid) -> str:
    """Curve table for log-log overlay plots.

    Rows are the sorted union of grid values and data cuts; the p_gt_data
    column is empty where no datum exists.  One tail column per requested
    D/n value, sorted ascending, named tail_<value>.
    """
    values = sorted(float(v) for v in d_over_n_values)
    dists = [make(v, a0) for v in values]
    data_map = dict(data.points) if data is not None else {}
    cuts = sorted(set(float(a) for a in grid) | set(data_map))
    header = ["a", "p_gt_data"] + [f"tail_{v:g}" for v in values]
    lines = [",".join(header)]
    for a in cuts:
        row = [f"{a:.17g}"]
        row.append(f"{data_map[a]:.17g}" if a in data_map else "")
        row.extend(f"{dist.tail(a):.17g}" for dist in dists)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
