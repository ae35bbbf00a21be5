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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .epi_distribution import EpiDistribution, make
from .errors import DomainError, QuadratureFailure

_QUAD_SPAN_GAPS = 60.0  # quadrature nodes stop here, in mean gaps; tail mass < 1e-26

# Gauss-Laguerre nodes t and weights w*e^t for integral_0^inf g(t) dt, orders 48
# and 96, with the nodes beyond the span dropped
_QUAD_RULES = tuple((t[t <= _QUAD_SPAN_GAPS], (w * np.exp(t))[t <= _QUAD_SPAN_GAPS])
                    for t, w in (laggauss(48), laggauss(96)))


@dataclass(frozen=True)
class NumericsConfig:
    """Finite-difference steps, quadrature tolerance, evaluation grid.

    Steps are absolute (productivity units); leave them None to use the
    defaults 1e-4*(theta - a0) for theta and 1e-3*(theta - a0) for x.
    The grid covers grid_span_gaps mean gaps (at least 40) from the lower
    support edge with grid_points uniform nodes.
    """

    fd_step_theta: float | None = None
    fd_step_x: float | None = None
    quadrature_tol: float = 1e-12
    grid_points: int = 4001
    grid_span_gaps: float = 40.0

    def __post_init__(self):
        if self.fd_step_theta is not None and self.fd_step_theta <= 0:
            raise DomainError("fd_step_theta must be positive")
        if self.fd_step_x is not None and self.fd_step_x <= 0:
            raise DomainError("fd_step_x must be positive")
        if self.quadrature_tol <= 0:
            raise DomainError("quadrature_tol must be positive")
        if self.grid_points < 3:
            raise DomainError("grid needs at least 3 points")
        if self.grid_span_gaps < 40.0:
            raise DomainError("grid must cover at least 40 mean gaps")

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
        return {
            "fisher_metric": self.fisher_metric,
            "fisher_statistical": self.fisher_statistical,
            "fisher_kinematical": self.fisher_kinematical,
            "structural_Q": self.structural_Q,
            "structural_residual": self.structural_residual,
            "epi_residual_pointwise": self.epi_residual_pointwise,
            "generating_residual": self.generating_residual,
            "euler_lagrange_residual": self.euler_lagrange_residual,
            "qtilde_value": self.qtilde_value,
            "boundary_constant": self.boundary_constant,
            "kappa": self.kappa,
        }


def _quad(f, lo: float, scale: float, tol: float, magnitude: float = 0.0) -> float:
    """integral_lo^inf f(a) da for f = exp(-(a - lo)/scale) times a smooth factor.

    Fixed Gauss-Laguerre rules (Golub & Welsch 1969) of order 48 and 96 in
    t = (a - lo)/scale, on array arguments.  Nodes beyond 60 mean gaps, where
    pdf would underflow, are dropped with less than e^-60 of the mass.  The
    96-point value is returned if the gap to the 48-point value is at most
    max(tol, 1e-6*max(|value|, magnitude)); magnitude sizes integrals whose
    true value is (near) zero, where a relative gate is unsatisfiable.
    """
    with np.errstate(all="ignore"):
        coarse, fine = (scale * float(np.dot(w, f(lo + scale * t))) for t, w in _QUAD_RULES)
        err = abs(fine - coarse)
    if not (math.isfinite(fine) and err <= max(tol, 1e-6 * max(abs(fine), magnitude))):
        raise QuadratureFailure(f"quadrature error estimate {err} too large for value {fine}")
    return fine


def fisher_metric_form(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Metric-form channel capacity: integral of (dp/dtheta)^2 / p over the support."""
    h = cfg.step_theta(dist)
    up, down = make(dist.mean_demand + h, dist.a0), make(dist.mean_demand - h, dist.a0)

    def integrand(a):
        dp = (up.pdf(a) - down.pdf(a)) / (2.0 * h)
        return dp * dp / dist.pdf(a)

    return _quad(integrand, dist.a0, dist.scale, cfg.quadrature_tol)


def fisher_kinematical(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Kinematical-form capacity: integral of (dq/dx)^2 over the displacement support."""
    h = cfg.step_x(dist)

    def integrand(x):
        dq = (dist.amplitude(x + h, clipped=False)
              - dist.amplitude(x - h, clipped=False)) / (2.0 * h)
        return dq * dq

    return _quad(integrand, dist.x_min, dist.scale, cfg.quadrature_tol)


def _q_theta(member: EpiDistribution, a):
    return 2.0 * np.sqrt(member.pdf(a))


def fisher_statistical(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """Statistical-form capacity: -integral q * d^2 q/dtheta^2 over the support."""
    h = cfg.step_theta(dist)
    up, down = make(dist.mean_demand + h, dist.a0), make(dist.mean_demand - h, dist.a0)

    def integrand(a):
        d2q = (_q_theta(up, a) - 2.0 * _q_theta(dist, a) + _q_theta(down, a)) / (h * h)
        return -_q_theta(dist, a) * d2q

    return _quad(integrand, dist.a0, dist.scale, cfg.quadrature_tol)


def regularity_residual(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> float:
    """|integral d^2 p/dtheta^2 da|; zero because the support edge is theta-free."""
    h = cfg.step_theta(dist)
    up, down = make(dist.mean_demand + h, dist.a0), make(dist.mean_demand - h, dist.a0)

    def integrand(a):
        return (up.pdf(a) - 2.0 * dist.pdf(a) + down.pdf(a)) / (h * h)

    # the integral cancels to ~0; gate the quad error against the capacity scale
    return abs(_quad(integrand, dist.a0, dist.scale, cfg.quadrature_tol,
                     magnitude=1.0 / dist.scale ** 2))


def structural_principle(dist: EpiDistribution,
                         cfg: NumericsConfig = DEFAULT_NUMERICS) -> tuple[float, float]:
    """Structural functional Q and the balance residual |I + Q|.

    Q = (1/2) integral (q d^2q/dtheta^2 - (dq/dtheta)^2) da; the capacity I
    is taken from the metric form.  Expected Q = -I.
    """
    h = cfg.step_theta(dist)
    up, down = make(dist.mean_demand + h, dist.a0), make(dist.mean_demand - h, dist.a0)

    def integrand(a):
        q0 = _q_theta(dist, a)
        qp, qm = _q_theta(up, a), _q_theta(down, a)
        d2q = (qp - 2.0 * q0 + qm) / (h * h)
        dq = (qp - qm) / (2.0 * h)
        return 0.5 * (q0 * d2q - dq * dq)

    q_value = _quad(integrand, dist.a0, dist.scale, cfg.quadrature_tol)
    capacity = fisher_metric_form(dist, cfg)
    return q_value, abs(capacity + q_value)


def _grid_q(dist: EpiDistribution, cfg: NumericsConfig):
    x = cfg.x_grid(dist)
    return x, dist.amplitude(x, clipped=False)


def _second_derivative(dist: EpiDistribution, x: np.ndarray, q: np.ndarray,
                       derivative: str, h: float) -> np.ndarray:
    if derivative == "analytic":
        return dist.alpha ** 2 * q
    if derivative == "fd":
        up = dist.amplitude(x + h, clipped=False)
        down = dist.amplitude(x - h, clipped=False)
        return (up - 2.0 * q + down) / (h * h)
    raise DomainError(f"derivative must be 'analytic' or 'fd', got {derivative!r}")


def pointwise_information_density(dist: EpiDistribution,
                                  cfg: NumericsConfig = DEFAULT_NUMERICS,
                                  derivative: str = "analytic",
                                  step: float | None = None) -> float:
    """max |k(x)| with k = -(1/2) q q'' + (1/4) q^2 * 2 alpha^2; identically 0."""
    x, q = _grid_q(dist, cfg)
    h = step if step is not None else cfg.step_x(dist)
    d2q = _second_derivative(dist, x, q, derivative, h)
    k = -0.5 * q * d2q + 0.25 * q * q * (2.0 * dist.alpha ** 2)
    return float(np.abs(k).max())


def generating_equation_residual(dist: EpiDistribution,
                                 cfg: NumericsConfig = DEFAULT_NUMERICS,
                                 derivative: str = "fd",
                                 step: float | None = None) -> float:
    """max |q'' - alpha^2 q| over the grid; 0 analytically, O(h^2) under FD."""
    x, q = _grid_q(dist, cfg)
    h = step if step is not None else cfg.step_x(dist)
    d2q = _second_derivative(dist, x, q, derivative, h)
    return float(np.abs(d2q - dist.alpha ** 2 * q).max())


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
    x, q = _grid_q(dist, cfg)
    h = step if step is not None else cfg.step_x(dist)
    eps = perturbation
    if eps == 0.0:
        d2q = _second_derivative(dist, x, q, derivative, h)
        return float(np.abs(d2q - dist.alpha ** 2 * q).max())
    trial = q * (1.0 + eps * x)
    if derivative == "analytic":
        # (q (1+eps x))'' = q''(1+eps x) + 2 eps q' with q' = -alpha q
        d2 = dist.alpha ** 2 * trial - 2.0 * eps * dist.alpha * q
    else:
        up = dist.amplitude(x + h, clipped=False) * (1.0 + eps * (x + h))
        down = dist.amplitude(x - h, clipped=False) * (1.0 + eps * (x - h))
        d2 = (up - 2.0 * trial + down) / (h * h)
    return float(np.abs(d2 - dist.alpha ** 2 * trial).max())


def qtilde_recovered(dist: EpiDistribution,
                     cfg: NumericsConfig = DEFAULT_NUMERICS,
                     derivative: str = "analytic") -> tuple[float, float]:
    """Recover the structural density coefficient 2 q''/q over the grid.

    Returns (mean, standard deviation); constant 2*alpha^2 on the solution.
    """
    x, q = _grid_q(dist, cfg)
    h = cfg.step_x(dist)
    d2q = _second_derivative(dist, x, q, derivative, h)
    profile = 2.0 * d2q / q
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

    def dq_sq(x):
        dq = -alpha * dist.amplitude(x, clipped=False)
        return dq * dq

    def q_d2q(x):
        q0 = dist.amplitude(x, clipped=False)
        return q0 * (alpha * alpha * q0)

    lhs = _quad(dq_sq, dist.x_min, dist.scale, cfg.quadrature_tol)
    rhs = boundary_constant(dist) - _quad(q_d2q, dist.x_min, dist.scale, cfg.quadrature_tol)
    return abs(lhs - rhs)


def verify_all(dist: EpiDistribution, cfg: NumericsConfig = DEFAULT_NUMERICS) -> PrincipleReport:
    """Evaluate every identity and assemble the report (kappa fixed at 1)."""
    q_value, q_residual = structural_principle(dist, cfg)
    qtilde_mean, _ = qtilde_recovered(dist, cfg, derivative="analytic")
    return PrincipleReport(
        fisher_metric=fisher_metric_form(dist, cfg),
        fisher_statistical=fisher_statistical(dist, cfg),
        fisher_kinematical=fisher_kinematical(dist, cfg),
        structural_Q=q_value,
        structural_residual=q_residual,
        epi_residual_pointwise=pointwise_information_density(dist, cfg, derivative="analytic"),
        generating_residual=generating_equation_residual(dist, cfg, derivative="fd"),
        euler_lagrange_residual=euler_lagrange_residual(dist, cfg, derivative="fd"),
        qtilde_value=qtilde_mean,
        boundary_constant=boundary_constant(dist),
        kappa=1.0,
    )
