"""Continuous productivity law: shifted exponential with mean pinned to D/n.

The continuous generalization replaces sector occupancies by a density
p(a) over productivity a >= a0.  The information-principle solution is

    p(a) = 2*alpha * exp(-2*alpha*(a - a0)),   2*alpha = 1/(D/n - a0),

a shifted exponential whose mean equals the demand per worker.  The law is
represented through a real probability amplitude q with p = q^2 / 4, written
in the displacement coordinate x_a = a - D/n (support x_a >= a0 - D/n):

    q(x_a) = +2 (D/n - a0)^{-1/2} exp(-(x_a + (D/n - a0)) / (2 (D/n - a0)))

The + branch is fixed by convention since p = q^2/4 is sign-blind.  Note the
1/4 amplitude normalization: the integral of q^2 over the support is 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model_core import _as_float, _check_a0, _csv_text, _finite_cuts


def _like_input(x, val):
    """val as a Python float when the input x is a scalar or 0-d array, else as is."""
    return float(val) if np.ndim(x) == 0 else val


@dataclass(frozen=True)
class EpiDistribution:
    """Shifted-exponential productivity law.

    mean_demand: D/n (also the distribution mean); a0: support minimum;
    alpha: decay rate of the amplitude, 2*alpha*(mean_demand - a0) = 1.
    """

    mean_demand: float
    a0: float
    alpha: float

    @property
    def scale(self) -> float:
        """Mean gap D/n - a0 = 1/(2*alpha)."""
        return self.mean_demand - self.a0

    @property
    def x_min(self) -> float:
        """Lower support edge of the displacement x_a = a - D/n."""
        return self.a0 - self.mean_demand

    def displacement(self, a: float) -> "Displacement":
        return Displacement(a - self.mean_demand, self.x_min)

    def pdf(self, a):
        """Density in 1/productivity; zero below a0."""
        a_arr = np.asarray(a, dtype=float)
        s = self.scale
        with np.errstate(over="ignore"):
            val = np.where(a_arr >= self.a0, np.exp(-(a_arr - self.a0) / s) / s, 0.0)
        return _like_input(a_arr, val)

    def tail(self, a):
        """P(A > a); equal to 1 below a0."""
        a_arr = np.asarray(a, dtype=float)
        with np.errstate(over="ignore"):
            val = np.where(a_arr >= self.a0, np.exp(-(a_arr - self.a0) / self.scale), 1.0)
        return _like_input(a_arr, val)

    def amplitude(self, x_a, clipped: bool = True):
        """Probability amplitude at displacement x_a (positive branch).

        With clipped=True the amplitude is zero below the support edge so
        pdf(a) = amplitude(a - D/n)^2 / 4 holds for every a; clipped=False
        evaluates the smooth exponential everywhere (used by derivative
        checks near the boundary).
        """
        if isinstance(x_a, Displacement):
            x_a = x_a.x_a
        x = np.asarray(x_a, dtype=float)
        s = self.scale
        with np.errstate(over="ignore"):
            q = 2.0 / math.sqrt(s) * np.exp(-(x + s) / (2.0 * s))
            if clipped:
                q = np.where(x >= self.x_min, q, 0.0)
        return _like_input(x, q)


@dataclass(frozen=True)
class Displacement:
    """Additive fluctuation x_a = a - D/n, bounded below by a0 - D/n."""

    x_a: float
    x_min: float

    def __post_init__(self):
        if self.x_a < self.x_min:
            raise DomainError(f"displacement {self.x_a} below support edge {self.x_min}")


def make(mean_demand: float, a0: float = 0.0) -> EpiDistribution:
    """Build the law for a given demand per worker and minimal productivity.

    Requires mean_demand > a0 >= 0 and a mean gap s = mean_demand - a0 whose
    inverse, the density's peak, is a finite float (s above about 5.6e-309);
    the decay rate follows from the mean constraint as alpha = 1/(2 s).
    """
    _check_a0(a0)
    if not a0 < mean_demand < math.inf:
        raise DomainError(f"mean demand {mean_demand} must be finite and exceed a0 = {a0}")
    mean = _as_float(mean_demand, "mean demand")
    gap = mean - float(a0)
    if not (gap and 1.0 / gap < math.inf):
        raise DomainError(f"mean gap D/n - a0 = {gap!r} is too small: "
                          "the density's peak 1/(D/n - a0) overflows")
    return EpiDistribution(mean, float(a0), 1.0 / (2.0 * gap))


def curve_csv(dist: EpiDistribution, grid) -> str:
    """CSV table with columns a,pdf,tail over the supplied grid of finite cuts."""
    cuts = _finite_cuts(grid)
    a = np.array(cuts)
    return _csv_text(("a", "pdf", "tail"), (cuts, dist.pdf(a), dist.tail(a)), ("%.17g",) * 3)
