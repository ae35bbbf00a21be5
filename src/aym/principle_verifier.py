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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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


@dataclass(frozen=True)
class NumericsConfig:
    """Finite-difference steps, quadrature tolerance, evaluation grid.

    Steps are absolute (productivity units); leave them None to use the
    defaults 1e-4*(theta - a0) for theta and 1e-3*(theta - a0) for x.
    The grid covers grid_span_gaps mean gaps (at least 40) from the lower
    support edge with grid_points uniform nodes, at most MAX_GRID_POINTS.
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

    def step_theta(self, dist: EpiDistribution) -> float:
        return self.fd_step_theta if self.fd_step_theta is not None else 1e-4 * dist.scale

    def step_x(self, dist: EpiDistribution) -> float:
        return self.fd_step_x if self.fd_step_x is not None else 1e-3 * dist.scale

    def x_grid(self, dist: EpiDistribution) -> np.ndarray:
        return np.linspace(dist.x_min, dist.x_min + self.grid_span_gaps * dist.scale,
                           self.grid_points)


DEFAULT_NUMERICS = NumericsConfig()


@dataclass(frozen=True)
class PrincipleReport:
    """All identity values and residuals for one distribution.

    Derivative conventions per field: fisher_metric / fisher_statistical /
    structural_Q use theta finite differences; fisher_kinematical,
    generating_residual and euler_lagrange_residual use x finite
    differences; epi_residual_pointwise and qtilde_value use analytic x
    derivatives (so they expose pure algebra, not step error).
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


def _theta_quads(dist: EpiDistribution, cfg: NumericsConfig) -> dict[str, tuple[float, float]]:
    """Ungated (48-point, 96-point) integrals of the four theta integrands by name.

    The pdfs of the family members at theta - h, theta and theta + h,
    h = cfg.step_theta(dist), are evaluated once for both rules; the support
    edge a0 is theta-free, so all three share the quadrature nodes.
    """
    h = cfg.step_theta(dist)
    family = (make(dist.mean_demand - h, dist.a0), dist, make(dist.mean_demand + h, dist.a0))

    def integrands(a):
        down, p, up = (member.pdf(a) for member in family)
        qm, q0, qp = (2.0 * np.sqrt(x) for x in (down, p, up))
        dp, dq = (up - down) / (2.0 * h), (qp - qm) / (2.0 * h)
        d2q = (qp - 2.0 * q0 + qm) / (h * h)
        return {
            "metric": dp * dp / p,
            "statistical": -q0 * d2q,
            "regularity": (up - 2.0 * p + down) / (h * h),
            "structural": 0.5 * (q0 * d2q - dq * dq),
        }

    return _rule_sums(integrands, dist.a0, dist.scale)


def fisher_metric_form(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Metric-form channel capacity: integral of (dp/dtheta)^2 / p over the support."""
    return _gate(*_theta_quads(dist, cfg)["metric"], cfg.quadrature_tol)


def fisher_kinematical(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Kinematical-form capacity: integral of (dq/dx)^2 over the displacement support."""
    h = cfg.step_x(dist)

    def integrand(x):
        dq = (dist.amplitude(x + h, clipped=False)
              - dist.amplitude(x - h, clipped=False)) / (2.0 * h)
        return {"kinematical": dq * dq}

    return _gate(*_rule_sums(integrand, dist.x_min, dist.scale)["kinematical"],
                 cfg.quadrature_tol)


def fisher_statistical(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Statistical-form capacity: -integral q * d^2 q/dtheta^2 over the support."""
    return _gate(*_theta_quads(dist, cfg)["statistical"], cfg.quadrature_tol)


def regularity_residual(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """|integral d^2 p/dtheta^2 da|; zero because the support edge is theta-free."""
    quads = _theta_quads(dist, cfg)["regularity"]
    # the integral cancels to ~0; gate the quad error against the capacity scale
    try:
        magnitude = 1.0 / dist.scale ** 2
    except (OverflowError, ZeroDivisionError):
        raise DomainError(f"mean gap D/n - a0 = {dist.scale} leaves no float capacity "
                          "scale 1/(D/n - a0)^2") from None
    return abs(_gate(*quads, cfg.quadrature_tol, magnitude=magnitude))


def structural_principle(dist: EpiDistribution,
                         cfg: NumericsConfig = DEFAULT_NUMERICS) -> tuple[float, float]:
    """Structural functional Q and the balance residual |I + Q|.

    Q = (1/2) integral (q d^2q/dtheta^2 - (dq/dtheta)^2) da; the capacity I
    is taken from the metric form.  Expected Q = -I.
    """
    quads = _theta_quads(dist, cfg)
    q_value = _gate(*quads["structural"], cfg.quadrature_tol)
    return q_value, abs(_gate(*quads["metric"], cfg.quadrature_tol) + q_value)


def _alpha_squared(dist: EpiDistribution) -> float:
    """alpha^2, the generating equation's coefficient, as a float."""
    try:
        return dist.alpha ** 2
    except OverflowError:
        raise DomainError(f"mean gap D/n - a0 = {dist.scale} puts alpha^2 "
                          "past the float range") from None


def _trial(q0, x, eps: float):
    """The trial amplitude q0 (1 + eps x); q0 itself at eps = 0, where the factor is 1."""
    return q0 * (1.0 + eps * x) if eps else q0


def _grid(dist: EpiDistribution, cfg: NumericsConfig, derivative: str,
          step: float | None = None, eps: float = 0.0):
    """(q, q'') on the grid for the trial amplitude q (1 + eps x).

    q'' is analytic or by central differences of the given step (default
    cfg.step_x); eps = 0 gives the amplitude itself, bit for bit.
    """
    x = cfg.x_grid(dist)
    base = dist.amplitude(x, clipped=False)
    q = _trial(base, x, eps)
    if derivative == "analytic":
        # (q0 (1 + eps x))'' = q0'' (1 + eps x) + 2 eps q0' with q0' = -alpha q0
        d2q = _alpha_squared(dist) * q
        return q, d2q - 2.0 * eps * dist.alpha * base if eps else d2q
    if derivative == "fd":
        h = step if step is not None else cfg.step_x(dist)
        up, down = (_trial(dist.amplitude(y, clipped=False), y, eps) for y in (x + h, x - h))
        return q, (up - 2.0 * q + down) / (h * h)
    raise DomainError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")


# the grid identities, each a function of (q, q'') on the grid
def _max_density(q, d2q, alpha_sq: float) -> float:
    return float(np.abs(-0.5 * q * d2q + 0.25 * q * q * (2.0 * alpha_sq)).max())


def _max_generating(q, d2q, alpha_sq: float) -> float:
    return float(np.abs(d2q - alpha_sq * q).max())


def _qtilde_profile(q, d2q):
    return 2.0 * d2q / q


def pointwise_information_density(dist: EpiDistribution,
                                  cfg: NumericsConfig = DEFAULT_NUMERICS,
                                  derivative: str = "analytic",
                                  step: float | None = None) -> float:
    """max |k(x)| with k = -(1/2) q q'' + (1/4) q^2 * 2 alpha^2; identically 0."""
    return _max_density(*_grid(dist, cfg, derivative, step), _alpha_squared(dist))


def generating_equation_residual(dist: EpiDistribution,
                                 cfg: NumericsConfig = DEFAULT_NUMERICS,
                                 derivative: str = "fd",
                                 step: float | None = None) -> float:
    """max |q'' - alpha^2 q| over the grid; 0 analytically, O(h^2) under FD."""
    return _max_generating(*_grid(dist, cfg, derivative, step), _alpha_squared(dist))


def euler_lagrange_residual(dist: EpiDistribution,
                            cfg: NumericsConfig = DEFAULT_NUMERICS,
                            derivative: str = "fd",
                            step: float | None = None,
                            perturbation: float = 0.0) -> float:
    """Residual of the variational equation q'' = alpha^2 q (qtilde constant).

    Algebraically identical to the generating residual at the solution;
    reported separately for traceability.  perturbation = eps evaluates the
    residual for the trial amplitude q*(1 + eps*x), which grows linearly in
    eps (the solution is the unique zero of the functional derivative).
    """
    return _max_generating(*_grid(dist, cfg, derivative, step, perturbation),
                           _alpha_squared(dist))


def qtilde_recovered(dist: EpiDistribution,
                     cfg: NumericsConfig = DEFAULT_NUMERICS,
                     derivative: str = "analytic") -> tuple[float, float]:
    """Recover the structural density coefficient 2 q''/q over the grid.

    Returns (mean, standard deviation); constant 2*alpha^2 on the solution.
    """
    profile = _qtilde_profile(*_grid(dist, cfg, derivative))
    return float(profile.mean()), float(profile.std())


def boundary_constant(dist: EpiDistribution) -> float:
    """Surface term of the integration by parts: -q(x_min) q'(x_min) = 8 alpha^2.

    The term at the upper (infinite) end vanishes with the amplitude.
    """
    q_edge = dist.amplitude(dist.x_min)
    return dist.alpha * q_edge * q_edge


def boundary_identity_residual(dist: EpiDistribution,
                               cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """|integral (q')^2 - (c_a - integral q q'')|, each side by its own quadrature.

    Uses the analytic derivative forms q' = -alpha q and q'' = alpha^2 q so
    the residual is pure quadrature error: the check pits the surface term
    c_a against the numerically integrated amplitude norm.
    """
    alpha = dist.alpha

    def integrands(x):
        q0 = dist.amplitude(x, clipped=False)
        dq = -alpha * q0
        return {"dq_sq": dq * dq, "q_d2q": q0 * (alpha * alpha * q0)}

    sums = _rule_sums(integrands, dist.x_min, dist.scale)
    lhs = _gate(*sums["dq_sq"], cfg.quadrature_tol)
    rhs = boundary_constant(dist) - _gate(*sums["q_d2q"], cfg.quadrature_tol)
    return abs(lhs - rhs)


def verify_all(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> PrincipleReport:
    """Evaluate every identity and assemble the report (kappa fixed at 1).

    The theta family and the x grid are each evaluated once; the quadrature
    gates run in the order metric, structural, statistical, kinematical.
    """
    quads, tol = _theta_quads(dist, cfg), cfg.quadrature_tol
    capacity, q_value = _gate(*quads["metric"], tol), _gate(*quads["structural"], tol)
    q, d2q = _grid(dist, cfg, "fd")
    alpha_sq = _alpha_squared(dist)
    exact = alpha_sq * q
    generating = _max_generating(q, d2q, alpha_sq)
    return PrincipleReport(
        fisher_metric=capacity,
        fisher_statistical=_gate(*quads["statistical"], tol),
        fisher_kinematical=fisher_kinematical(dist, cfg),
        structural_Q=q_value,
        structural_residual=abs(capacity + q_value),
        epi_residual_pointwise=_max_density(q, exact, alpha_sq),
        generating_residual=generating,
        euler_lagrange_residual=generating,  # the same equation at the solution
        qtilde_value=float(_qtilde_profile(q, exact).mean()),
        boundary_constant=boundary_constant(dist),
        kappa=1.0,
    )
