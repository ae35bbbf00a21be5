"""Numerical verification of the information identities behind the continuous law.

For the one-parameter family p(a|theta) = shifted exponential with mean
theta (theta = D/n, fixed a0), the following all equal 4*alpha^2
= 1/(theta - a0)^2:

  * metric form        I = integral (1/p) (dp/dtheta)^2 da
  * statistical form   I = -integral q * d^2q/dtheta^2 da
  * kinematical form   I = integral (dq/dx)^2 dx

The structural functional Q = (1/2) integral (q q'' - (q')^2) da (theta
derivatives) balances the capacity exactly: I + Q = 0 with efficiency
coefficient kappa = 1.  Both principles collapse into one generating ODE
q'' = alpha^2 q (x derivatives), whose pointwise information density

    k(x) = -(1/2) q q'' + (1/4) q^2 * qtilde,    qtilde = 2 alpha^2

vanishes identically on the solution.  This module estimates every
identity numerically — theta derivatives by central finite differences
across the family, x derivatives either analytically or by central
differences — and reports the residuals.

theta-derivatives and x-derivatives are distinct conventions (the family's
support edge stays fixed while the displacement coordinate moves with
theta); each identity is asserted in the convention where it is exact.

The family is location-scale, so every identity is evaluated once per numerics
on the standard law (s = D/n - a0 = 1, a0 = 0) in t = (a - a0)/s, and each value
is then multiplied by its power of s: s^-2 for the capacities, Q, qtilde, the
boundary constant and the integral residuals, s^-5/2 for the generating
residuals, s^-3 for the pointwise density.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .epi_distribution import EpiDistribution, make
from .errors import DomainError, QuadratureFailure
from .model_core import MAX_GRID_POINTS

_QUAD_SPAN_GAPS = 60.0  # quadrature nodes stop here, in mean gaps; tail mass < 1e-26

# Gauss-Laguerre nodes t and weights w*e^t for integral_0^inf g(t) dt, orders 48
# and 96, with the nodes beyond the span dropped.  Both rules' nodes share one
# array, the 48-point rule's first, so each integrand is evaluated once for both;
# the 96-point slice starts 256 bytes in, so np.dot, whose SIMD summation can
# depend on alignment, sees the alignment a fresh array has.
(_T48, _W48), (_T96, _W96) = ((t[t <= _QUAD_SPAN_GAPS], (w * np.exp(t))[t <= _QUAD_SPAN_GAPS])
                              for t, w in (laggauss(48), laggauss(96)))
_NODES, _SPLIT = np.concatenate((_T48, _T96)), len(_T48)

_STANDARD = make(1.0)  # s = 1 and a0 = 0: t = a, and the displacement is x = t - 1
_ALPHA_SQ = _STANDARD.alpha ** 2  # 1/4
_SURFACE = _STANDARD.alpha * _STANDARD.amplitude(_STANDARD.x_min) ** 2  # -q q' at the edge, 2
_NORMAL_MIN = sys.float_info.min


@dataclass(frozen=True)
class NumericsConfig:
    """Finite-difference steps, quadrature tolerance, evaluation grid.

    The one place every verifier step is set, in productivity units; leave a step None
    for the default of 1e-4 mean gaps for theta and 1e-3 for x, exactly 1e-4 and 1e-3
    in t.  The grid covers grid_span_gaps mean gaps (at least 40) from the lower support
    edge with grid_points uniform nodes, at most MAX_GRID_POINTS.
    """

    fd_step_theta: float | None = None
    fd_step_x: float | None = None
    quadrature_tol: float = 1e-12
    grid_points: int = 4001
    grid_span_gaps: float = 40.0

    def __post_init__(self):
        for name in ("fd_step_theta", "fd_step_x", "quadrature_tol"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")
        if not 3 <= self.grid_points <= MAX_GRID_POINTS:
            raise DomainError(f"grid needs 3 to {MAX_GRID_POINTS} points, got {self.grid_points}")
        if not 40.0 <= self.grid_span_gaps < math.inf:
            raise DomainError(f"grid_span_gaps must be in [40, inf), got {self.grid_span_gaps}")


DEFAULT_NUMERICS = NumericsConfig()


def _steps(cfg: NumericsConfig) -> tuple[float, float]:
    """cfg's (theta, x) steps in t: its own, or the defaults, exactly 1e-4 and 1e-3."""
    return (1e-4 if cfg.fd_step_theta is None else cfg.fd_step_theta,
            1e-3 if cfg.fd_step_x is None else cfg.fd_step_x)


@dataclass(frozen=True)
class PrincipleReport:
    """All identity values and residuals for one distribution.

    Derivative conventions per field: fisher_metric / fisher_statistical /
    structural_Q use theta finite differences; fisher_kinematical,
    generating_residual and euler_lagrange_residual use x finite
    differences; epi_residual_pointwise and qtilde_value use analytic x
    derivatives (so they expose pure algebra, not step error).  Each field
    is the standard law's value times its power of the mean gap.
    """

    fisher_metric: float
    fisher_statistical: float
    fisher_kinematical: float
    structural_Q: float
    structural_residual: float
    epi_residual_pointwise: float
    generating_residual: float
    euler_lagrange_residual: float
    qtilde_value: float
    boundary_constant: float
    kappa: float = 1.0

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_table(self) -> str:
        """One line per field: its name, padded to the longest, and its value to 13 digits."""
        fields = self.to_json_dict()
        width = max(map(len, fields))
        return "".join(f"{name.ljust(width)}  {value:.12e}\n" for name, value in fields.items())


def _gate(coarse: float, fine: float, tol: float, magnitude: float = 0.0) -> float:
    """The 96-point value if within max(tol, 1e-6*max(|fine|, magnitude)) of the 48-point
    one; magnitude sizes integrals whose true value is (near) zero."""
    err = abs(fine - coarse)
    if not (math.isfinite(fine) and err <= max(tol, 1e-6 * max(abs(fine), magnitude))):
        raise QuadratureFailure(f"quadrature error estimate {err} too large for value {fine}")
    return fine


def _rule_sums(integrands, lo: float, scale: float) -> dict[str, tuple[float, float]]:
    """Ungated (48-point, 96-point) integral_lo^inf f(a) da of each f integrands(a) names.

    Each f is exp(-(a - lo)/scale) times a smooth factor.  Fixed Gauss-Laguerre
    rules (Golub & Welsch 1969) of order 48 and 96 in t = (a - lo)/scale; nodes
    beyond 60 mean gaps, where pdf would underflow, are dropped with less than
    e^-60 of the mass.
    """
    with np.errstate(all="ignore"):
        values = integrands(lo + scale * _NODES)
        return {name: (scale * float(np.dot(_W48, f[:_SPLIT])),
                       scale * float(np.dot(_W96, f[_SPLIT:]))) for name, f in values.items()}


def _fault(dist: EpiDistribution, value: float, step_x: float | None) -> DomainError:
    """The error for a value out of range: it blames step_x, the explicit x step of a
    finite-difference value, when the value itself is not finite, else the mean gap."""
    if step_x is not None and not math.isfinite(value):
        return DomainError(f"fd_step_x = {step_x} gives a non-finite finite difference "
                           f"for the mean gap D/n - a0 = {dist.scale}")
    return DomainError(f"mean gap D/n - a0 = {dist.scale} puts the capacity 1/(D/n - a0)^2 "
                       "or a verifier value outside the normal float range")


def _unit(dist: EpiDistribution, value: float = 1.0,
          step_x: float | None = None) -> tuple[float, float]:
    """(1/s, s^-2), formed once per call; the _fault of value and step_x unless s^-2 is a
    positive normal float.  A call scales each of its values with these two by _in_units."""
    inverse = 1.0 / dist.scale
    capacity = inverse * inverse
    if not _NORMAL_MIN <= capacity < math.inf:
        raise _fault(dist, value, step_x)
    return inverse, capacity


def _in_units(dist: EpiDistribution, value: float, capacity: float, factor: float = 1.0,
              step_x: float | None = None) -> float:
    """A standard-law value times s^-power, power 2, 2.5 or 3: value * capacity * factor,
    left to right, with capacity = s^-2 and factor 1, sqrt(1/s) or 1/s from _unit; the
    _fault of value and step_x unless the product is finite.  The factors lie on one
    side of 1, so no partial product overflows unless the product does."""
    product = value * capacity * factor
    if not math.isfinite(product):
        raise _fault(dist, value, step_x)
    return product


def _scaled(dist: EpiDistribution, value: float, power: float = 2.0,
            step_x: float | None = None) -> float:
    """One standard-law value times s^-power, with its own _unit."""
    inverse, capacity = _unit(dist, value, step_x)
    return _in_units(dist, value, capacity,
                     {2.0: 1.0, 2.5: math.sqrt(inverse), 3.0: inverse}[power], step_x)


def _gated(dist: EpiDistribution, pair: tuple[float, float], tol: float, capacity: float,
           magnitude: float = 0.0, step_x: float | None = None) -> float:
    """A standard-law (48-point, 96-point) pair times capacity = s^-2, gated with the
    absolute tol; step_x is the explicit x step of a finite-difference pair, which a
    non-finite one blames."""
    try:
        return _gate(pair[0] * capacity, pair[1] * capacity, tol, magnitude)
    except QuadratureFailure:
        if step_x is None or all(map(math.isfinite, pair)):
            raise
        raise _fault(dist, math.inf, step_x) from None


def _quadratures(cfg: NumericsConfig) -> dict[str, tuple[float, float]]:
    """The standard law's ungated (48-point, 96-point) integrals by name, cfg in t.

    The pdfs of the family members at theta - h, theta and theta + h,
    h = cfg's theta step, are evaluated once for both rules; the support edge
    a0 is theta-free, so all three share the quadrature nodes.  x = a - 1 is
    the displacement: (dq/dx)^2 by central differences of cfg's x step, and
    (q')^2 and q q'' of the boundary identity from q' = -alpha q, q'' = alpha^2 q.
    """
    (h, h_x), alpha = _steps(cfg), _STANDARD.alpha
    family = (make(1.0 - h), _STANDARD, make(1.0 + h))

    def integrands(a):
        down, p, up = (member.pdf(a) for member in family)
        qm, q0, qp = (2.0 * np.sqrt(x) for x in (down, p, up))
        dp, dq = (up - down) / (2.0 * h), (qp - qm) / (2.0 * h)
        d2q = (qp - 2.0 * q0 + qm) / (h * h)
        x = a - 1.0
        q_x = _STANDARD.amplitude(x, clipped=False)
        dq_x = (_STANDARD.amplitude(x + h_x, clipped=False)
                - _STANDARD.amplitude(x - h_x, clipped=False)) / (2.0 * h_x)
        return {
            "metric": dp * dp / p,
            "statistical": -q0 * d2q,
            "regularity": (up - 2.0 * p + down) / (h * h),
            "structural": 0.5 * (q0 * d2q - dq * dq),
            "kinematical": dq_x * dq_x,
            "dq_sq": (-alpha * q_x) ** 2,
            "q_d2q": q_x * (alpha * alpha * q_x),
        }

    return _rule_sums(integrands, _STANDARD.a0, _STANDARD.scale)


def _trial(q0, x, eps: float):
    """The trial amplitude q0 (1 + eps x); q0 itself at eps = 0, where the factor is 1."""
    return q0 * (1.0 + eps * x) if eps else q0


def _grid(cfg: NumericsConfig, eps: float = 0.0) -> dict:
    """The standard law's trial amplitude q (1 + eps x) on the grid, cfg in t (the
    amplitude itself, bit for bit, at eps = 0), and its q'' per derivative mode:
    analytic, or by central differences of cfg's x step."""
    x = np.linspace(_STANDARD.x_min, _STANDARD.x_min + cfg.grid_span_gaps, cfg.grid_points)
    base = _STANDARD.amplitude(x, clipped=False)
    q = _trial(base, x, eps)
    # (q0 (1 + eps x))'' = q0'' (1 + eps x) + 2 eps q0' with q0' = -alpha q0
    d2q = _ALPHA_SQ * q - 2.0 * eps * _STANDARD.alpha * base if eps else _ALPHA_SQ * q
    h = _steps(cfg)[1]
    up, down = (_trial(_STANDARD.amplitude(y, clipped=False), y, eps) for y in (x + h, x - h))
    return {"analytic": (q, d2q), "fd": (q, (up - 2.0 * q + down) / (h * h))}


def _grid_values(q, d2q) -> tuple[float, float, float, float]:
    """max |k|, max |q'' - alpha^2 q|, and the mean and spread of 2 q''/q over the nodes
    where neither q nor q'' is below the smallest normal float in size (nan if none)."""
    density = float(np.abs(-0.5 * q * d2q + 0.25 * q * q * (2.0 * _ALPHA_SQ)).max())
    normal = (np.abs(q) >= _NORMAL_MIN) & (np.abs(d2q) >= _NORMAL_MIN)
    profile = 2.0 * d2q[normal] / q[normal]
    spread = (float(profile.mean()), float(profile.std())) if profile.size else (math.nan,) * 2
    return density, float(np.abs(d2q - _ALPHA_SQ * q).max()), *spread


@lru_cache(maxsize=4)
def _standard_law(cfg: NumericsConfig, eps: float) -> dict:
    """The standard law's values under cfg in t, computed once per numerics: ungated
    (48-point, 96-point) integrals by name and, per derivative mode, the _grid_values
    of the trial amplitude q (1 + eps x).  DomainError if 1 - the theta step is 1, so
    the family members coincide, or if 1 + the x step is 1, so x + h == x at the grid's
    unit-sized nodes and the x differences read 0."""
    h, h_x = _steps(cfg)
    if 1.0 - h == 1.0 or 1.0 + h_x == 1.0:
        raise DomainError("a finite-difference step is below the float resolution")
    with np.errstate(all="ignore"):
        law = _quadratures(cfg)
        for derivative, (q, d2q) in _grid(cfg, eps).items():
            law[derivative] = _grid_values(q, d2q)
    return law


def _law(dist: EpiDistribution, cfg: NumericsConfig, eps: float = 0.0) -> dict:
    """_standard_law with cfg's explicit steps over s, eps times s; default steps stay None."""
    if cfg.fd_step_theta is None and cfg.fd_step_x is None:
        return _standard_law(cfg, eps * dist.scale)
    steps = {"fd_step_theta": cfg.fd_step_theta, "fd_step_x": cfg.fd_step_x}
    given = {name: step / dist.scale for name, step in steps.items() if step is not None}
    try:
        return _standard_law(replace(cfg, **given), eps * dist.scale)
    except DomainError:
        faults = (_step_fault(name, steps[name], t, dist.scale) for name, t in given.items())
        fault = next(filter(None, faults), None)
        if fault is None:
            raise
        raise DomainError(fault) from None


def _step_fault(name: str, step: float, t: float, scale: float) -> str | None:
    """Why the explicit step, t mean gaps of scale, leaves no standard law to evaluate, or None."""
    gap = f"the mean gap D/n - a0 = {scale}"
    if name == "fd_step_theta" and t >= 1.0:  # the family member at D/n - step has no law
        return f"{name} = {step} must be below {gap}"
    if t == math.inf:
        return f"{name} = {step} is too large for {gap}: step / gap overflows"
    if t * t == 0.0:
        return f"{name} = {step} is too small for {gap}: (step / gap)^2 underflows to 0"
    if name == "fd_step_theta" and 1.0 - t == 1.0:  # the family members coincide
        return f"{name} = {step} is too small for {gap}: 1 - step / gap rounds to 1"
    if name == "fd_step_x" and 1.0 + t == 1.0:  # x + step == x: every x difference is 0
        return f"{name} = {step} is too small for {gap}: 1 + step / gap rounds to 1"
    return None


def _grid_law(dist: EpiDistribution, cfg: NumericsConfig, derivative: str,
              eps: float = 0.0) -> tuple[tuple, float | None]:
    """The standard law's _grid_values in the derivative mode, and the explicit x step a
    non-finite one blames (None under analytic derivatives)."""
    if derivative not in ("analytic", "fd"):
        raise DomainError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")
    return _law(dist, cfg, eps)[derivative], cfg.fd_step_x if derivative == "fd" else None


def fisher_metric_form(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Metric-form channel capacity: integral of (dp/dtheta)^2 / p over the support."""
    return _gated(dist, _law(dist, cfg)["metric"], cfg.quadrature_tol, _unit(dist)[1])


def fisher_kinematical(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Kinematical-form capacity: integral of (dq/dx)^2 over the displacement support."""
    return _gated(dist, _law(dist, cfg)["kinematical"], cfg.quadrature_tol, _unit(dist)[1],
                  step_x=cfg.fd_step_x)


def fisher_statistical(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Statistical-form capacity: -integral q * d^2 q/dtheta^2 over the support."""
    return _gated(dist, _law(dist, cfg)["statistical"], cfg.quadrature_tol, _unit(dist)[1])


def regularity_residual(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """|integral d^2 p/dtheta^2 da|; zero because the support edge is theta-free."""
    # the integral cancels to ~0; gate the quad error against the capacity scale
    law, capacity = _law(dist, cfg), _unit(dist)[1]
    return abs(_gated(dist, law["regularity"], cfg.quadrature_tol, capacity, magnitude=capacity))


def structural_principle(dist: EpiDistribution,
                         cfg: NumericsConfig = DEFAULT_NUMERICS) -> tuple[float, float]:
    """Structural functional Q and the balance residual |I + Q|.

    Q = (1/2) integral (q d^2q/dtheta^2 - (dq/dtheta)^2) da; the capacity I
    is taken from the metric form.  Expected Q = -I.
    """
    law, capacity = _law(dist, cfg), _unit(dist)[1]
    q_value = _gated(dist, law["structural"], cfg.quadrature_tol, capacity)
    return q_value, abs(_gated(dist, law["metric"], cfg.quadrature_tol, capacity) + q_value)


def pointwise_information_density(dist: EpiDistribution,
                                  cfg: NumericsConfig = DEFAULT_NUMERICS,
                                  derivative: str = "analytic") -> float:
    """max |k(x)| with k = -(1/2) q q'' + (1/4) q^2 * 2 alpha^2; identically 0."""
    values, step_x = _grid_law(dist, cfg, derivative)
    return _scaled(dist, values[0], 3.0, step_x)


def generating_equation_residual(dist: EpiDistribution,
                                 cfg: NumericsConfig = DEFAULT_NUMERICS,
                                 derivative: str = "fd") -> float:
    """max |q'' - alpha^2 q| over the grid; 0 analytically, O(h^2) under FD."""
    values, step_x = _grid_law(dist, cfg, derivative)
    return _scaled(dist, values[1], 2.5, step_x)


def euler_lagrange_residual(dist: EpiDistribution,
                            cfg: NumericsConfig = DEFAULT_NUMERICS,
                            derivative: str = "fd",
                            *, perturbation: float = 0.0) -> float:
    """Residual of the variational equation q'' = alpha^2 q (qtilde constant).

    Algebraically identical to the generating residual at the solution; reported
    separately for traceability.  perturbation = eps evaluates the residual for the
    trial amplitude q*(1 + eps*x), which grows linearly in eps (the solution is the
    unique zero of the functional derivative); in t the trial is q*(1 + eps*s*x).  A
    non-finite residual names the perturbation when the trial itself is non-finite.
    """
    values, step_x = _grid_law(dist, cfg, derivative, perturbation)
    try:
        return _scaled(dist, values[1], 2.5, step_x)
    except DomainError:
        with np.errstate(all="ignore"):  # the grid's span and points need no change into t
            if np.isfinite(_grid(cfg, perturbation * dist.scale)["analytic"][0]).all():
                raise
        raise DomainError(f"perturbation = {perturbation} makes the trial amplitude q (1 + eps x) "
                          f"non-finite for the mean gap D/n - a0 = {dist.scale}") from None


def qtilde_recovered(dist: EpiDistribution,
                     cfg: NumericsConfig = DEFAULT_NUMERICS,
                     derivative: str = "analytic") -> tuple[float, float]:
    """Recover the structural density coefficient 2 q''/q over the grid.

    Returns (mean, standard deviation) over the nodes where q and q'' are
    normal floats; constant 2*alpha^2 on the solution.
    """
    values, step_x = _grid_law(dist, cfg, derivative)
    capacity = _unit(dist, values[2], step_x)[1]
    return (_in_units(dist, values[2], capacity, step_x=step_x),
            _in_units(dist, values[3], capacity, step_x=step_x))


def boundary_constant(dist: EpiDistribution) -> float:
    """Surface term of the integration by parts: -q(x_min) q'(x_min) = 8 alpha^2.

    The term at the upper (infinite) end vanishes with the amplitude.
    """
    return _scaled(dist, _SURFACE)


def boundary_identity_residual(dist: EpiDistribution,
                               cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """|integral (q')^2 - (c_a - integral q q'')|, each side by its own quadrature.

    Uses the analytic derivative forms q' = -alpha q and q'' = alpha^2 q so
    the residual is pure quadrature error: the check pits the surface term
    c_a against the numerically integrated amplitude norm.
    """
    law, tol, capacity = _law(dist, cfg), cfg.quadrature_tol, _unit(dist)[1]
    lhs = _gated(dist, law["dq_sq"], tol, capacity)
    rhs = _in_units(dist, _SURFACE, capacity) - _gated(dist, law["q_d2q"], tol, capacity)
    return abs(lhs - rhs)


def verify_all(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> PrincipleReport:
    """Evaluate every identity and assemble the report (kappa fixed at 1).

    Every field is read from the standard law's values for cfg and scaled with one
    _unit; the quadrature gates run in the order metric, structural, statistical,
    kinematical.  DomainError unless 1/s^2 is a positive normal float and every field
    is finite.
    """
    law, tol, step_x = _law(dist, cfg), cfg.quadrature_tol, cfg.fd_step_x
    inverse, capacity = _unit(dist)
    metric = _gated(dist, law["metric"], tol, capacity)
    q_value = _gated(dist, law["structural"], tol, capacity)
    generating = _in_units(dist, law["fd"][1], capacity, math.sqrt(inverse), step_x)
    return PrincipleReport(
        fisher_metric=metric,
        fisher_statistical=_gated(dist, law["statistical"], tol, capacity),
        fisher_kinematical=_gated(dist, law["kinematical"], tol, capacity, step_x=step_x),
        structural_Q=q_value,
        structural_residual=abs(metric + q_value),
        epi_residual_pointwise=_in_units(dist, law["analytic"][0], capacity, inverse),
        generating_residual=generating,
        euler_lagrange_residual=generating,  # the same equation at the solution
        qtilde_value=_in_units(dist, law["analytic"][2], capacity),
        boundary_constant=_in_units(dist, _SURFACE, capacity),
        kappa=1.0,
    )
