"""Core model definitions: parameters, states, vector fields and the Jacobian.

The dimensional system is a Holling-Tanner predator-prey model with a linear
(Type I) functional response, an Allee effect in the prey growth term and a
constant alternative food supply ``c`` for the predator:

    dx/dt = r*x*(1 - x/K)*(x - m) - q*x*y
    dy/dt = s*y*(1 - y/(n*x + c))

A change of variables  x = K*u,  y = K*n*v,  dtau = K*r*dt  turns it into the
four-parameter nondimensional system actually analysed everywhere else in
this package:

    du/dtau = u*((1 - u)*(u - M) - Q*v)
    dv/dtau = S*v*(u - v + C)/(u + C)

with M = m/K, S = s/(K*r), Q = n*q/r and C = c/(K*n).  Both axes are
invariant (Kolmogorov form) and the state space is the closed first quadrant,
where u + C > 0 keeps the predator term regular.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# Tolerance for equality tests against case boundaries (e.g. 1+M-Q = 0).
# The degenerate parameter cases are measure zero; they are reachable by
# passing an explicit eps to the routines that take one.
EPS_CASE = 1e-10

State = tuple[float, float]
Matrix = tuple[tuple[float, float], tuple[float, float]]   # rows of a 2x2


class ParameterError(ValueError):
    """Raised when a parameter vector violates its domain constraints."""


class Params(NamedTuple):
    """Nondimensional parameters (M, S, Q, C); valid on (-1,1) x R+^3."""

    M: float
    S: float
    Q: float
    C: float


class DimensionalParams(NamedTuple):
    """Dimensional parameters of the original predator-prey model."""

    r: float  # prey intrinsic growth rate, 1/time
    s: float  # predator intrinsic growth rate, 1/time
    q: float  # max per-capita predation rate, 1/(predator*time)
    n: float  # prey-quality coefficient, predators/prey
    K: float  # prey carrying capacity, prey
    m: float  # Allee threshold, prey (may be <= 0)
    c: float  # alternative-food carrying capacity, predators


def validate_params(p: Params) -> Params:
    """Check the invariants M in (-1,1), S,Q,C finite and > 0; raise
    ParameterError."""
    if not (-1.0 < p.M < 1.0):
        raise ParameterError(f"M must lie in (-1, 1), got {p.M}")
    for name, value in (("S", p.S), ("Q", p.Q), ("C", p.C)):
        if not 0.0 < value < math.inf:
            raise ParameterError(
                f"{name} must be finite and positive, got {value}")
    return p


def validate_dimensional(d: DimensionalParams) -> DimensionalParams:
    for name, value in (("r", d.r), ("s", d.s), ("q", d.q), ("n", d.n),
                        ("K", d.K), ("c", d.c)):
        if not value > 0.0:
            raise ParameterError(f"{name} must be positive, got {value}")
    if not abs(d.m) < d.K:
        raise ParameterError(f"|m| must be < K, got m={d.m}, K={d.K}")
    return d


def nondimensionalize(d: DimensionalParams) -> Params:
    """Map dimensional parameters to (M, S, Q, C).

    M = m/K, S = s/(K*r), Q = n*q/r, C = c/(K*n).  Rejects inputs whose
    image falls outside the admissible parameter space.
    """
    validate_dimensional(d)
    p = Params(M=d.m / d.K, S=d.s / (d.K * d.r), Q=d.n * d.q / d.r,
               C=d.c / (d.K * d.n))
    return validate_params(p)


def map_state(d: DimensionalParams, x: float, y: float,
              t: float) -> tuple[float, float, float]:
    """(x, y, t) -> (u, v, tau) under the rescaling diffeomorphism."""
    return x / d.K, y / (d.K * d.n), d.K * d.r * t


def unmap_state(d: DimensionalParams, u: float, v: float,
                tau: float) -> tuple[float, float, float]:
    """Inverse of :func:`map_state`; round-trips to machine precision."""
    return d.K * u, d.K * d.n * v, tau / (d.K * d.r)


def vector_field(p: Params, state: State) -> tuple[float, float]:
    """Right-hand side of the nondimensional system at (u, v)."""
    return field_closure(p)(*state)


def dimensional_vector_field(d: DimensionalParams, x: float,
                             y: float) -> tuple[float, float]:
    """Right-hand side of the dimensional system at (x, y)."""
    dx = d.r * x * (1.0 - x / d.K) * (x - d.m) - d.q * x * y
    dy = d.s * y * (1.0 - y / (d.n * x + d.c))
    return dx, dy


def jacobian(p: Params, state: State) -> Matrix:
    """2x2 Jacobian of :func:`vector_field` at (u, v), as its rows."""
    u, v = state
    M, S, Q, C = p
    j11 = (1.0 - u) * (u - M) - Q * v + u * (1.0 + M - 2.0 * u)
    j12 = -Q * u
    w = u + C
    j21 = S * v * v / (w * w)
    j22 = S * (w - 2.0 * v) / w
    return (j11, j12), (j21, j22)


def _unit_scale(J: Matrix, *xs: float) -> tuple[list[float], int]:
    """J's entries, then ``xs``, over 2**e just above J's largest entry, and
    e: exact, and no product of the scaled entries over- or underflows."""
    (a, b), (c, d) = J
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    return [math.ldexp(x, -e) for x in (a, b, c, d, *xs)], e


def _real_eigenvalues(J: Matrix) -> tuple[float, float]:
    """(low, high) eigenvalues of a 2x2 matrix; ValueError for a complex
    pair.  tr^2/4 - det is formed as ((J11 - J22)/2)^2 + J12*J21, which
    rounding cannot make negative for a triangular or symmetric matrix."""
    (a, b, c, d), e = _unit_scale(J)
    disc = (0.5 * (a - d)) ** 2 + b * c
    if not disc >= 0.0:
        raise ValueError(f"no real eigenvalues (discriminant {disc:.3e})")
    half, root = 0.5 * (a + d), math.sqrt(disc)
    return math.ldexp(half - root, e), math.ldexp(half + root, e)


def _unit_eigenvector(J: Matrix, lam: float) -> State:
    """Unit eigenvector of a 2x2 matrix for its real eigenvalue ``lam``: the
    larger of the null vectors (J12, lam - J11) and (lam - J22, J21) of the
    rows of J - lam*I, so a triangular J gives an exact axis vector; (1, 0)
    when both vanish, as J is then lam*I."""
    (a, b, c, d, lam), _ = _unit_scale(J, lam)
    n1, n2 = (b, lam - a), (lam - d, c)
    x, y = n1 if math.hypot(*n1) >= math.hypot(*n2) else n2
    norm = math.hypot(x, y)
    return (x / norm, y / norm) if norm else (1.0, 0.0)


def field_closure(p: Params):
    """Return a fast (u, v) -> (du, dv) closure over fixed parameters.

    The one formula of the right-hand side: the integrator hot loop calls
    it directly, :func:`vector_field` through a fresh closure.  It works
    on floats and, elementwise, on equal-shape arrays.
    """
    # plain Python floats: numpy scalars are an order of magnitude slower
    # here and warn on the transient overflows that step rejection absorbs
    M, S, Q, C = float(p.M), float(p.S), float(p.Q), float(p.C)

    def f(u: float, v: float) -> tuple[float, float]:
        return (u * ((1.0 - u) * (u - M) - Q * v),
                S * v * (u - v + C) / (u + C))

    return f
