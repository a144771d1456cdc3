"""Adaptive integration of the flow with event detection.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL and the
standard quartic dense-output interpolant.  Steps whose endpoint would leave
the closed first quadrant are rejected and retried with a smaller h; the
solution is never clamped.

Termination events, checked after every accepted step:

* equilibrium convergence: the state is within ``rho_eq`` of a known
  equilibrium AND the field norm there is below ``rho_eq`` (the second test
  keeps a slow saddle passage from being misread as convergence); or, on
  the classification paths (``classify_omega_limit``, ``find_limit_cycle``
  and the basin rasters, not ``integrate``), the state is inside the
  trapping disc of an attracting equilibrium, a disc whose every point
  provably flows to it (``stability.trapping_radius``),
* limit-cycle convergence: successive same-direction crossings of the
  Poincare section v = u + C (the predator nullcline, which carries every
  interior equilibrium and is transversal to the flow elsewhere) differ by
  less than ``rho_cyc``, and their differences contract geometrically or,
  once the integrator's global error is as large as they are, change sign
  (the exact return map is monotone; see ``_cycle_found``); or, on
  ``classify_omega_limit`` and the basin rasters, a crossing lies strictly
  inside the certified section interval of the cycle, an interval that the
  return map provably maps into itself (``_section_interval``),
* horizon ``tau_max`` exceeded, domain exit, or step-size underflow.

Basin rasters run many seeds at once (``_lockstep``): the same attempts
and events on numpy arrays, elementwise in the same order, so each seed
gets the bytes it would get alone.  Their label codes come from the
per-parameter context (``_context``), which numbers the attracting targets
1, 2, ... in table order and gives a cycle the next code.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, NamedTuple

from .equilibria import EquilibriumKind, all_equilibria
from .model import ParameterError, Params, State, field_closure, \
    validate_params
from .stability import classify, trapping_radius

if TYPE_CHECKING:
    import numpy as np

# Dormand-Prince 5(4) tableau.
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247,
                                49 / 176, -5103 / 18656)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)

# Dense-output polynomial: y(t0 + th*h) = y0 + h * sum_s k_s * P_s(th) with
# P_s(th) = th*(P_s1 + th*(P_s2 + th*(P_s3 + th*P_s4))).  Stage 2 drops out.
_P1 = (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432)
_P3 = (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799)
_P4 = (0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072)
_P5 = (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632)
_P6 = (0.0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844)
_P7 = (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423)

# g = v - u - C on a step's dense output is one quartic,
# g(th) = g0 + h*th*(c0 + th*(c1 + th*(c2 + th*c3))) with
# c_j = sum_s (k_s,v - k_s,u)*P_s,j (``_section_quartic``).  Its rounding
# error and _dense's are bounded as in Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 3.1 and 5.1: with unit roundoff 2^-53 and
# gamma_n = n 2^-53 / (1 - n 2^-53), a term that passes n roundings is off by
# at most gamma_n times its size.  A stage's term passes 15 of them in
# _dense (7 in the Horner factor P_s(th), 6 in the sum over stages, 2 in
# u0 + h*(...)) and 16 in the quartic (the difference k_s,v - k_s,u, 6 in
# c_j, 6 in the Horner cubic, 2 in h*th*(...), 1 in g0 + ...): 31, and one
# more for the subtraction v - u that the dense test rounds.  The state
# term passes at most 3 (g0) plus 1 (each dense component) plus 1 (v - u),
# C at most 2.  Each gamma counts one rounding more for the margin's own
# evaluation.  A step is longer than 1e-13 max(1, |tau|) (``_Stepper.step``)
# and its end time is rounded to within 2^-53 |tau|, so th stays below
# _TH_MAX on every point the bisection probes, and a stage's terms add up to
# at most h (|k_s,u| + |k_s,v|) times its sum of |P_s,j| _TH_MAX^(j+1),
# kept in _PABS.
_TH_MAX = 1.0 + 2.0 ** -9
_PABS = tuple(sum(abs(c) * _TH_MAX ** (j + 1) for j, c in enumerate(P))
              for P in (_P1, _P3, _P4, _P5, _P6, _P7))
_G_STAGES, _G_STATE, _G_C = (n * 2.0 ** -53 / (1.0 - n * 2.0 ** -53)
                             for n in (33, 6, 3))

# Successive return-map differences of one sign must shrink at least this
# fast before a cycle is declared; a slow drift toward a boundary contour
# has ratio -> 1 and keeps its sign.
_CYCLE_CONTRACTION = 0.98
# Nearer the anchor than this, a converging return map is closing in on
# the interior equilibrium, not on a cycle around it.
_MIN_CYCLE_RADIUS = 1e-3
# Half-width of the section interval certified around the hunted cycle's
# crossing.  P(a) - a grows with it while the error margin does not, so a
# wide interval certifies nearer the Hopf curve than a narrow one, and ends
# slowly attracted cells revolutions sooner: at (0.04, 0.082, 0.45, 0.07),
# multiplier 0.85, a 40^2 default-tolerance raster took 1,982,575 step
# attempts with 1e-4 and 484,420 with 1e-2.  3e-2 failed at S = 0.95
# S_hopf there, where the orbit through b leaves for (0, C).
_SECTION_HALF_WIDTH = 1e-2

_MIN_FACTOR, _MAX_FACTOR, _SAFETY = 0.2, 5.0, 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    tau_max: float = 1e5
    # Proximity and field-norm bound of the equilibrium test: the only one
    # in integrate and the manifold traces, and on the classification paths
    # the one for equilibria without a trapping disc (saddles, degenerate
    # points) or outside their disc.
    rho_eq: float = 1e-6
    rho_cyc: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            if not 0.0 < getattr(self, f.name) < math.inf:
                raise ParameterError(f"{f.name} must be finite and positive")
        if self.rel_tol < 1e-13:
            raise ParameterError("rel_tol must be >= 1e-13")


class Termination(enum.Enum):
    REACHED_EQUILIBRIUM = "reached_equilibrium"
    REACHED_CYCLE = "reached_cycle"
    HORIZON_EXCEEDED = "horizon_exceeded"
    LEFT_DOMAIN = "left_domain"
    STEP_UNDERFLOW = "step_underflow"


class AttractorTag(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    LIMIT_CYCLE = "limit_cycle"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class AttractorLabel:
    tag: AttractorTag
    id: str | None = None

    @staticmethod
    def undecided() -> "AttractorLabel":
        return AttractorLabel(AttractorTag.UNDECIDED, None)


@dataclass(frozen=True)
class Cycle:
    period: float
    polyline: list[State]         # closed loop of (u, v) states
    crossing: State               # section crossing point on v = u + C
    # last return-map difference |P(x) - x|, not a bound on the distance to
    # the cycle (see find_limit_cycle)
    residual: float


@dataclass(frozen=True)
class Trajectory:
    taus: list[float] | None      # None when no samples were asked for
    states: list[State] | None    # the (u, v) state at each of the taus
    termination: Termination
    equilibrium_id: str | None = None
    cycle: Cycle | None = None


def _dp_attempt(f, h, u0, v0, k1u, k1v):
    """One Dormand-Prince attempt of size ``h`` from (u0, v0).

    Returns the 5th-order endpoint, the embedded error estimate and the
    stages (k1, k3..k7) the dense output needs.  Pure arithmetic: floats or
    equal-shape arrays, elementwise in the same order, so the lockstep
    raster reproduces the scalar stepper's bytes.
    """
    ha = h * _A21
    k2u, k2v = f(u0 + ha * k1u, v0 + ha * k1v)
    k3u, k3v = f(u0 + h * (_A31 * k1u + _A32 * k2u),
                 v0 + h * (_A31 * k1v + _A32 * k2v))
    k4u, k4v = f(u0 + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u),
                 v0 + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v))
    k5u, k5v = f(
        u0 + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u),
        v0 + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v))
    k6u, k6v = f(
        u0 + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u
                  + _A64 * k4u + _A65 * k5u),
        v0 + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v
                  + _A64 * k4v + _A65 * k5v))
    du = _B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u
    dv = _B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v
    u5 = u0 + h * du
    v5 = v0 + h * dv
    k7u, k7v = f(u5, v5)
    eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u
              + _E6 * k6u + _E7 * k7u)
    ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v
              + _E6 * k6v + _E7 * k7v)
    return u5, v5, eu, ev, (k1u, k1v, k3u, k3v, k4u, k4v, k5u, k5v,
                            k6u, k6v, k7u, k7v)


def _dense(th, h, u0, v0, ks):
    """Dense-output state at ``th`` (0..1) of the step of size ``h`` from
    (u0, v0) whose stages ``ks`` are as ``_dp_attempt`` returns them.
    Floats or equal-shape arrays, with the same bytes per element."""
    k1u, k1v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v = ks
    b1 = th * (_P1[0] + th * (_P1[1] + th * (_P1[2] + th * _P1[3])))
    b3 = th * (_P3[0] + th * (_P3[1] + th * (_P3[2] + th * _P3[3])))
    b4 = th * (_P4[0] + th * (_P4[1] + th * (_P4[2] + th * _P4[3])))
    b5 = th * (_P5[0] + th * (_P5[1] + th * (_P5[2] + th * _P5[3])))
    b6 = th * (_P6[0] + th * (_P6[1] + th * (_P6[2] + th * _P6[3])))
    b7 = th * (_P7[0] + th * (_P7[1] + th * (_P7[2] + th * _P7[3])))
    return (u0 + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u + b6 * k6u
                      + b7 * k7u),
            v0 + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v
                      + b7 * k7v))


def _initial_step(u, v, k1u, k1v, cfg: IntegratorConfig,
                  tau_end: float) -> float:
    scu = cfg.abs_tol + cfg.rel_tol * abs(u)
    scv = cfg.abs_tol + cfg.rel_tol * abs(v)
    d0 = math.hypot(u / scu, v / scv)
    d1 = math.hypot(k1u / scu, k1v / scv)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, max(tau_end, 1e-12))


class _Stepper:
    """Scalar Dormand-Prince 5(4) stepper for a planar field.

    ``tau``, ``k1`` and ``h`` resume a trajectory mid-way: the stepper then
    continues from time ``tau`` at state ``s0`` with FSAL derivative ``k1``
    and next (or retried) step size ``h``, as if it had got there itself.
    ``underflow`` is set once a step size falls below the floor.
    """

    __slots__ = ("f", "tau", "u", "v", "k1u", "k1v", "h", "rtol", "atol",
                 "tau_end", "underflow", "prev_tau", "prev_u", "prev_v",
                 "h_last", "ks", "quadrant")

    def __init__(self, f, s0: State, cfg: IntegratorConfig, tau_end: float,
                 quadrant: bool = True, *, tau: float = 0.0,
                 k1: tuple[float, float] | None = None,
                 h: float | None = None):
        self.f = f
        self.quadrant = quadrant
        self.tau = tau
        self.u, self.v = float(s0[0]), float(s0[1])
        self.k1u, self.k1v = f(self.u, self.v) if k1 is None else k1
        self.rtol, self.atol = cfg.rel_tol, cfg.abs_tol
        self.tau_end = tau_end
        self.underflow = False
        self.prev_tau = tau
        self.prev_u, self.prev_v = self.u, self.v
        self.h_last = 0.0
        self.ks = None
        self.h = (_initial_step(self.u, self.v, self.k1u, self.k1v, cfg,
                                tau_end) if h is None else h)

    def step(self) -> bool:
        """Advance one accepted step; False on horizon/underflow."""
        if self.underflow or self.tau >= self.tau_end:
            return False
        f = self.f
        u0, v0 = self.u, self.v
        k1u, k1v = self.k1u, self.k1v
        rtol, atol = self.rtol, self.atol
        h = min(self.h, self.tau_end - self.tau)
        while True:
            # written so that a NaN step, from a non-finite seed, fails it
            if not h > 1e-13 * max(1.0, abs(self.tau)):
                self.underflow = True
                return False
            try:
                u5, v5, eu, ev, ks = _dp_attempt(f, h, u0, v0, k1u, k1v)
            except ZeroDivisionError:
                h *= 0.25
                continue
            au0, au5 = abs(u0), abs(u5)
            av0, av5 = abs(v0), abs(v5)
            scu = atol + rtol * (au0 if au0 > au5 else au5)
            scv = atol + rtol * (av0 if av0 > av5 else av5)
            ru, rv = eu / scu, ev / scv
            errn = math.sqrt(0.5 * (ru * ru + rv * rv))
            if not math.isfinite(errn):
                h *= 0.25
                continue
            # for errn > 1 the factor is below _SAFETY: only the floor binds
            factor = (_MAX_FACTOR if errn == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * errn ** -0.2)))
            if errn > 1.0:
                h *= factor
                continue
            if self.quadrant and (u5 < 0.0 or v5 < 0.0):
                # endpoint left the quadrant: reject, do not clamp
                h *= 0.5
                continue
            break
        self.prev_tau, self.prev_u, self.prev_v = self.tau, u0, v0
        self.h_last = h
        self.ks = ks
        self.tau = self.tau + h
        self.u, self.v = u5, v5
        self.k1u, self.k1v = ks[10], ks[11]
        self.h = h * factor
        return True

    def state_at(self, tau_q: float) -> State:
        """Dense-output state inside the last accepted step."""
        h = self.h_last
        return _dense((tau_q - self.prev_tau) / h, h, self.prev_u,
                      self.prev_v, self.ks)


class _EqTarget:
    """An in-domain equilibrium.  ``code`` is its raster label: 1, 2, ...
    for the attracting targets in table order, 0 for the rest; ``r2`` is
    the square of its trapping radius, 0.0 for none (every target that is
    not attracting)."""

    __slots__ = ("id", "u", "v", "code", "r2")

    def __init__(self, eq_id: str, u: float, v: float, code: int, r2: float):
        self.id = eq_id
        self.u = u
        self.v = v
        self.code = code
        self.r2 = r2


class _Context(NamedTuple):
    """Per-parameter work shared by every trajectory at one ``Params``.

    ``interval`` is the certified section interval (a, b) of the cycle, the
    one piece that also depends on the tolerances: a crossing strictly
    inside it ends its trajectory on the cycle.  ``_context`` leaves it
    None; ``classify_omega_limit`` and ``compute_basins`` add it with
    ``_section_interval``, so the contexts of ``integrate``,
    ``find_limit_cycle``, the region grid and the manifold traces carry
    none.  The region grid runs the same hunt, only to tell a cycle from
    none.
    """

    p: Params
    f: Callable
    targets: list[_EqTarget]      # in-domain equilibria, in table order
    anchor: float | None          # prey value of the section's anchor root
    cycle_code: int               # raster label of a cycle: attractors + 1
    interval: tuple[float, float] | None = None

    def code(self, eq_id: str) -> int:
        """Raster label of the target ``eq_id``."""
        return next(t.code for t in self.targets if t.id == eq_id)


def _context(p: Params) -> _Context:
    validate_params(p)   # the one check of every integration entry
    targets = []
    anchor = None
    attractors = 0
    for eq in all_equilibria(p):
        if eq.kind in (EquilibriumKind.INTERIOR_HIGH,
                       EquilibriumKind.INTERIOR_DOUBLE):
            anchor = eq.location[0]
        if eq.in_domain:
            code, r = 0, 0.0
            if classify(p, eq).attracting:
                attractors += 1
                code, r = attractors, trapping_radius(p, eq.location)
            targets.append(_EqTarget(eq.id, eq.location[0], eq.location[1],
                                     code, r * r))
    return _Context(p, field_closure(p), targets, anchor, attractors + 1)


def _arrival(targets: list[_EqTarget], discs: list[_EqTarget], rho2: float,
             u: float, v: float, ku: float, kv: float) -> _EqTarget | None:
    """The target that (u, v), with field (ku, kv), has reached: the first,
    in table order, that holds it within sqrt(rho2) with a field norm
    below sqrt(rho2) there, or strictly inside its trapping disc.
    ``discs`` is every target with a disc, or empty when no disc may end
    the march."""
    near = ku * ku + kv * kv < rho2
    for t in targets if near else discs:
        du, dv = u - t.u, v - t.v
        d2 = du * du + dv * dv
        if near and d2 <= rho2 or discs and d2 < t.r2:
            return t
    return None


def _cycle_found(delta, last_delta, u_c, anchor: float, cfg: IntegratorConfig):
    """Whether the return map on v = u + C has converged onto a cycle.

    ``delta`` and ``last_delta`` are the last two differences of successive
    crossings beyond the anchor, NaN until there are that many (NaN never
    passes); ``u_c`` is the prey value of the latest crossing.  Floats give
    a bool, equal-shape arrays a mask with the same answer per element.

    Converged means |delta| < rho_cyc, |last_delta| < 10 rho_cyc, the
    crossing at least ``_MIN_CYCLE_RADIUS`` from the anchor, and either
    |delta| <= ``_CYCLE_CONTRACTION`` |last_delta| or a sign change from
    ``last_delta`` to ``delta``.  The first-return map on a transversal
    section of a planar flow is monotone (Perko, Differential Equations and
    Dynamical Systems, 3.4), so exact differences never change sign: a flip
    is rounding and truncation noise at the integrator's global-error
    floor, where contraction can no longer be seen.  A slow one-signed
    drift still fails both tests.
    """
    return ((abs(delta) < cfg.rho_cyc)
            & (abs(last_delta) < 10.0 * cfg.rho_cyc)
            & ((abs(delta) <= _CYCLE_CONTRACTION * abs(last_delta))
               | (delta * last_delta < 0.0))
            & (abs(u_c - anchor) >= _MIN_CYCLE_RADIUS))


def _exit_box(u0: float, v0: float, C: float) -> tuple[float, float]:
    """Prey and predator bounds beyond which a trajectory has left."""
    return max(10.0, 2.0 * (u0 + 1.0)), max(10.0, 2.0 * (v0 + 1.0 + C))


def _section_quartic(h, u0, v0, ks, C):
    """g = v - u - C on the dense output of the step of size ``h`` from
    (u0, v0) with stages ``ks``: (g0, c0, c1, c2, c3, margin), where
    g0 + h*th*(c0 + th*(c1 + th*(c2 + th*c3))), evaluated in that order,
    differs by at most ``margin`` from the exact d - C, where d is ``v - u``
    rounded and (u, v) is ``_dense`` at the same th, for 0 <= th < _TH_MAX.
    The dense test's ``v - u - C < 0`` has the sign of d - C."""
    k1u, k1v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v, k7u, k7v = ks
    d1, d3, d4 = k1v - k1u, k3v - k3u, k4v - k4u
    d5, d6, d7 = k5v - k5u, k6v - k6u, k7v - k7u
    c0, c1, c2, c3 = (d1 * p1 + d3 * p3 + d4 * p4 + d5 * p5 + d6 * p6
                      + d7 * p7 for p1, p3, p4, p5, p6, p7
                      in zip(_P1, _P3, _P4, _P5, _P6, _P7))
    a1, a3, a4, a5, a6, a7 = _PABS
    stages = (a1 * (abs(k1u) + abs(k1v)) + a3 * (abs(k3u) + abs(k3v))
              + a4 * (abs(k4u) + abs(k4v)) + a5 * (abs(k5u) + abs(k5v))
              + a6 * (abs(k6u) + abs(k6v)) + a7 * (abs(k7u) + abs(k7v)))
    margin = (_G_STAGES * abs(h) * stages + _G_STATE * (abs(u0) + abs(v0))
              + _G_C * abs(C))
    return v0 - u0 - C, c0, c1, c2, c3, margin


def _refine_crossing(stepper: _Stepper, C: float) -> tuple[float, float, float]:
    """Bisect the dense output for the v = u + C crossing in the last step.

    The crossing may run either way: its direction comes from the step's
    ends, and g = v - u - C is split into g < 0 and g >= 0.  The returned
    time lies on the step end's side of that split.  Like
    ``_bisect_crossings`` it stops at the first halving that moves neither
    end, a fixed point of the rest of the 64.  Each halving reads the sign
    of g from the step's quartic (``_section_quartic``), and from the
    dense-output state itself only where the quartic lies within its error
    margin of zero, so every halving decides as the state would.
    """
    lo, hi = stepper.prev_tau, stepper.tau
    up = stepper.prev_v - stepper.prev_u - C < stepper.v - stepper.u - C
    h = stepper.h_last
    g0, c0, c1, c2, c3, margin = _section_quartic(
        h, stepper.prev_u, stepper.prev_v, stepper.ks, C)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        th = (mid - stepper.prev_tau) / h
        g = g0 + h * th * (c0 + th * (c1 + th * (c2 + th * c3)))
        if not abs(g) > margin:
            u, v = stepper.state_at(mid)
            g = v - u - C
        if (g < 0.0) == up:
            lo, moved = mid, mid != lo
        else:
            hi, moved = mid, mid != hi
        if not moved:
            break
    u, v = stepper.state_at(hi)
    return hi, u, v


def _drive(ctx: _Context, s0: State, cfg: IntegratorConfig, *,
           want_samples: bool, resume=None,
           certified: list | None = None) -> Trajectory:
    """Integrate from the seed ``s0`` until an event.

    ``resume = (stepper, prev_cross_u, prev_cross_tau, prev_delta)``
    continues a trajectory from ``s0`` that was advanced elsewhere (NaN for
    a value not known): the seed test is skipped, and samples and the cycle
    segment start at the stepper's state.  A seed on the singular line
    u = -C ends at once as a step-size underflow.

    Without samples a state inside a target's trapping disc ends the
    trajectory at that target; with them, only the ``rho_eq`` test does.
    A crossing strictly inside ``ctx.interval`` ends it on the cycle, with
    no ``Cycle``: its period and residual were not measured.

    A list ``certified`` makes the drive a cycle hunt that may end at a
    certificate instead of at convergence.  At a crossing whose last two
    differences d_prev and d have one sign and shrink, r = d/d_prev gives
    Aitken's estimate x = u_c + d r/(1 - r) of the return map's fixed point;
    once |x - u_c| < ``_SECTION_HALF_WIDTH``/4, the interval of that
    half-width around x is tried (``_certified_interval``), at most twice
    per drive.  The first that holds is appended to ``certified`` and ends
    the drive on the cycle, with no ``Cycle``.
    """
    targets = ctx.targets
    anchor = ctx.anchor
    C = ctx.p.C
    lo, hi = ctx.interval or (math.nan, math.nan)
    u0, v0 = float(s0[0]), float(s0[1])
    exit_u, exit_v = _exit_box(u0, v0, C)
    rho2 = cfg.rho_eq * cfg.rho_eq
    discs = [] if want_samples else [t for t in targets if t.r2 > 0.0]
    tries = 0 if certified is None else 2
    w = _SECTION_HALF_WIDTH

    if resume is None:
        stepper = None
        prev_cross_u, prev_cross_tau, prev_delta = math.nan, 0.0, math.nan
        start = (0.0, u0, v0)
    else:
        stepper, prev_cross_u, prev_cross_tau, prev_delta = resume
        start = (stepper.tau, stepper.u, stepper.v)
    taus = [start[0]] if want_samples else None
    states = [start[1:]] if want_samples else None
    segment = [start[1:]] if anchor is not None else None

    def finish(term, eq_id=None, cycle=None):
        return Trajectory(taus, states, term, eq_id, cycle)

    if stepper is None:
        # the seed itself may already sit on an equilibrium
        try:
            t = _arrival(targets, discs, rho2, u0, v0, *ctx.f(u0, v0))
        except ZeroDivisionError:
            return finish(Termination.STEP_UNDERFLOW)
        if t is not None:
            return finish(Termination.REACHED_EQUILIBRIUM, t.id)
        stepper = _Stepper(ctx.f, (u0, v0), cfg, cfg.tau_max)

    while stepper.step():
        u1, v1 = stepper.u, stepper.v
        if want_samples:
            taus.append(stepper.tau)
            states.append((u1, v1))
        if segment is not None:
            segment.append((u1, v1))
        if u1 > exit_u or v1 > exit_v:
            return finish(Termination.LEFT_DOMAIN)
        t = _arrival(targets, discs, rho2, u1, v1, stepper.k1u,
                     stepper.k1v)
        if t is not None:
            return finish(Termination.REACHED_EQUILIBRIUM, t.id)
        if anchor is None:
            continue
        g0 = stepper.prev_v - stepper.prev_u - C
        g1 = v1 - u1 - C
        if not (g0 < 0.0 <= g1):
            continue
        tau_c, u_c, v_c = _refine_crossing(stepper, C)
        if u_c <= anchor:
            continue
        if lo < u_c < hi:
            return finish(Termination.REACHED_CYCLE)
        delta = u_c - prev_cross_u
        if _cycle_found(delta, prev_delta, u_c, anchor, cfg):
            segment.append((u_c, u_c + C))
            return finish(Termination.REACHED_CYCLE, cycle=Cycle(
                tau_c - prev_cross_tau, segment, (u_c, u_c + C),
                abs(delta)))
        if tries and delta * prev_delta > 0.0 and abs(delta) < abs(
                prev_delta):
            r = delta / prev_delta
            x = u_c + delta * r / (1.0 - r)
            if abs(x - u_c) < 0.25 * w:
                tries -= 1
                interval = _certified_interval(ctx, cfg, x - w, x + w)
                if interval is not None:
                    certified.append(interval)
                    return finish(Termination.REACHED_CYCLE)
        prev_cross_u, prev_cross_tau, prev_delta = u_c, tau_c, delta
        segment = [(u_c, u_c + C)]

    if stepper.underflow:
        return finish(Termination.STEP_UNDERFLOW)
    return finish(Termination.HORIZON_EXCEEDED)


def _first_return(ctx: _Context, cfg: IntegratorConfig,
                  x: float) -> tuple[float, float, float] | None:
    """The return map P(x) of the section, from (x, x + C) beyond the anchor.

    Returns P(x), the prey value of the orbit's last downward crossing
    before it, and the orbit's error margin: the sum over its steps of the
    tolerance each step's error estimate was held to (``abs_tol`` plus
    ``rel_tol`` times the largest component at the step's ends).  None when
    the orbit leaves the domain, enters an attracting target's trapping disc
    (it never returns from there) or reaches the horizon first, or returns
    at or below the anchor.  Only the disc ends it early, not the
    ``rho_eq`` test, so a return that passes close to a saddle counts.  The
    start lies on the section, where g rounds to about +-5e-17, so its first
    step may read as an upward crossing: a return counts only after a
    downward crossing.
    """
    C = ctx.p.C
    stepper = _Stepper(ctx.f, (x, x + C), cfg, cfg.tau_max)
    exit_u, exit_v = _exit_box(x, x + C, C)
    discs = [t for t in ctx.targets if t.r2 > 0.0]
    down, margin = None, 0.0
    while stepper.step():
        u0, v0, u1, v1 = stepper.prev_u, stepper.prev_v, stepper.u, stepper.v
        if u1 > exit_u or v1 > exit_v:
            return None
        # rho2 = 0 leaves the trapping discs as the only test
        if _arrival([], discs, 0.0, u1, v1, 0.0, 0.0) is not None:
            return None
        margin += cfg.abs_tol + cfg.rel_tol * max(abs(u0), abs(v0),
                                                  abs(u1), abs(v1))
        g0, g1 = v0 - u0 - C, v1 - u1 - C
        if g0 >= 0.0 > g1:
            down = _refine_crossing(stepper, C)[1]
        elif g0 < 0.0 <= g1 and down is not None:
            u_c = _refine_crossing(stepper, C)[1]
            return (u_c, down, margin) if u_c > ctx.anchor else None
    return None


def _certified_interval(ctx: _Context, cfg: IntegratorConfig, a: float,
                        b: float) -> tuple[float, float] | None:
    """(a, b) if the return map provably maps [a, b] into itself and the
    annulus between the orbits through a and b holds no equilibrium;
    else None.

    Checks that a lies at least ``_MIN_CYCLE_RADIUS`` beyond the anchor,
    that P(a) - a and b - P(b) exceed their orbits' error margins
    (``_first_return``), and that no equilibrium lies between the orbits'
    downward crossings.  The anchor lies inside the inner orbit; the one
    other equilibrium on the section whose prey value can fall there is the
    saddle below the anchor.  P is increasing on a transversal section
    (Perko, Differential Equations and Dynamical Systems, 3.4), so
    P(a) > a and P(b) < b give P([a, b]) inside (a, b), and by
    Poincare-Bendixson (Perko 3.7) every orbit through the interval has a
    periodic orbit in that annulus as its omega-limit.
    """
    if a - ctx.anchor < _MIN_CYCLE_RADIUS:
        return None
    ra = _first_return(ctx, cfg, a)
    rb = _first_return(ctx, cfg, b)
    if ra is None or rb is None:
        return None
    (pa, da, ma), (pb, db, mb) = ra, rb
    if not (pa - a > ma and b - pb > mb):
        return None
    if any(min(da, db) <= t.u <= max(da, db) for t in ctx.targets):
        return None
    return a, b


def _hunt(ctx: _Context, cfg: IntegratorConfig, seed: State | None = None,
          certified: list | None = None) -> Cycle | None:
    """The limit cycle reached from ``seed``, by default from beside the
    section's anchor; None without an anchor or when the hunt ends in an
    equilibrium, at the horizon or, with a list ``certified``, at a
    certified section interval, which it appends there (``_drive``)."""
    if ctx.anchor is None:
        return None
    if seed is None:
        seed = min(ctx.anchor + 0.05, 0.98), ctx.anchor + ctx.p.C
    return _drive(ctx, seed, cfg, want_samples=False,
                  certified=certified).cycle


def _section_interval(ctx: _Context,
                      cfg: IntegratorConfig) -> tuple[float, float] | None:
    """The certified section interval of the cycle at ``ctx``, or None.

    Hunts the cycle from beside the anchor (``_hunt``) until an interval of
    half-width ``_SECTION_HALF_WIDTH`` around the extrapolated fixed point
    of the return map holds (``_certified_interval``), or else until the
    return map converges, and then tries the interval around the converged
    crossing.  ``ctx`` carries no interval yet.  On a 2-vCPU x86 VM (min
    of 7 calls, two rounds) this took 3.3 ms at the cycle point (-0.055,
    0.03, 0.55, 0.1) with rel_tol 1e-6, 9-16 ms at (0.04, 0.082, 0.45,
    0.07) with the default tolerances, where the cycle attracts slowly and
    converging took 57 ms, and 0.8-1.5 ms at the bistable point (0.04,
    0.12, 0.45, 0.07), where the hunt ends in the anchor's trapping disc.
    """
    certified = []
    cyc = _hunt(ctx, cfg, certified=certified)
    if certified:
        return certified[0]
    if cyc is None:
        return None
    u = cyc.crossing[0]
    return _certified_interval(ctx, cfg, u - _SECTION_HALF_WIDTH,
                               u + _SECTION_HALF_WIDTH)


# Lockstep raster integration.  Every live cell takes one Dormand-Prince
# attempt per iteration with its own step size; the events of ``_drive``
# are applied in the same order with the same elementwise arithmetic, so
# each cell gets the bytes the scalar path gives it, whichever cells share
# its batch.
#
# An iteration makes ~280 numpy calls whatever the batch size: on a
# 2-vCPU x86 VM it costs ~330 us at 16-96 live cells, while the scalar loop
# takes ~10.5 us per step attempt with its events, so lockstep wins from
# about 36 live cells (0.76x the scalar speed at 32, 1.30x at 48).  At this
# many live cells or fewer the rest continue in the scalar loop, each from
# its exact lockstep state.
_HANDOVER = 40
# Cells advanced together; pending cells refill the pool as cells finish,
# which bounds the working set.  On the same VM the CLI's default-tolerance
# bistable raster, split over two workers, peaks at 36 MB in the parent and
# 27 MB in the larger worker at 73^2 (RUSAGE_CHILDREN, which counts the pages
# the worker shares with its parent), and at 40 and 34 MB at 400^2.
#
# ``basin.compute_basins`` splits a raster of more than one pool over up to
# one forked worker per CPU.  On the same VM a forced two-way split of the
# default-tolerance bistable raster, against one process (medians of 4
# alternating rounds), took 0.44 -> 0.43 s at 24^2, 0.55 -> 0.50 s at 32^2,
# 0.64 -> 0.58 s at 40^2, 0.75 -> 0.65 s at 46^2 and 1.70 -> 0.92 s at 70^2;
# other rounds saw the split lose at 24^2 and 32^2 (0.31 -> 0.40 s,
# 0.40 -> 0.45 s).  So a raster that fits one pool stays in process.
_POOL = 2048

# A section crossing waits with its step's inputs.  All waiting crossings
# are bisected in one batch when a waiting cell crosses again, when one ends
# while its crossing could have ended it (with a certified section interval
# any crossing could, since only its bisection tells whether it lies
# inside; without one, a last difference below 10 rho_cyc), and before the
# hand-over; a bisection depends only on its own step, whose stages it
# recomputes with ``_dp_attempt``.  So a cell whose crossing lies in the
# interval runs on to its next crossing at most.
#
# Rows of the lockstep state, one column per live cell: time, state, FSAL
# derivative, next step size, exit box, prey value of the last section
# crossing and last crossing difference (NaN for none yet); then a crossing
# that waits: its step's start time (NaN for none), start state, FSAL
# derivative and size, in the order of the first six rows.
(_TAU, _U, _V, _K1U, _K1V, _H, _XU, _XV, _PCU, _PD,
 _QT, _QU, _QV, _QK1U, _QK1V, _QH) = range(16)
_ROWS = _QH + 1


def _bisect_crossings(C: float, prev_tau, pu, pv, h, ks):
    """``_refine_crossing`` on arrays, for upward crossings: the same
    halvings of each step, through the same ``_dense``.  ``ks`` holds the
    stages as ``_dp_attempt`` returns them.  Returns crossing times and
    prey values.
    """
    import numpy as np
    # A halving that moves neither end is a fixed point of the next ones,
    # so a cell whose bracket stops early keeps it to the last halving.
    lo, hi = prev_tau, prev_tau + h
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        u, v = _dense((mid - prev_tau) / h, h, pu, pv, ks)
        below = v - u - C < 0.0
        moved = below & (mid != lo) | ~below & (mid != hi)
        if not moved.any():
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi, _dense((hi - prev_tau) / h, h, pu, pv, ks)[0]


def _lockstep(ctx: _Context, seeds: np.ndarray,
              cfg: IntegratorConfig) -> np.ndarray:
    """Label code of the forward limit set of each row of ``seeds``.

    The codes are the context's: an equilibrium gives its target's
    ``code`` (0 unless it attracts), a cycle ``ctx.cycle_code``, either by
    the return-map test or by a crossing strictly inside
    ``ctx.interval``, and the horizon, underflow and domain exit 0.  Equal
    to :func:`classify_omega_limit` cell by cell, byte for byte, when
    ``ctx`` carries the interval that function builds.
    """
    import numpy as np
    n = len(seeds)
    labels = np.zeros(n, dtype=np.uint8)
    f, targets, anchor, C = ctx.f, ctx.targets, ctx.anchor, ctx.p.C
    lo, hi = ctx.interval or (math.nan, math.nan)
    rho2 = cfg.rho_eq * cfg.rho_eq
    tau_end, rtol, atol = cfg.tau_max, cfg.rel_tol, cfg.abs_tol
    discs = [t for t in targets if t.r2 > 0.0]

    def arrive(live, u, v, ku, kv, idx):
        """``_arrival`` on the cells of mask ``live``, with field (ku, kv):
        labels those that reached a target and returns their mask."""
        near = live & (ku * ku + kv * kv < rho2)
        free = live.copy()
        for t in targets if near.any() else discs:
            du, dv = u - t.u, v - t.v
            d2 = du * du + dv * dv
            new = free & ((d2 < t.r2) | near & (d2 <= rho2))
            labels[idx[new]] = t.code
            free &= ~new
        return live & ~free

    def admit(lo: int, hi: int):
        """State columns of seeds lo..hi-1 that do not start on a target."""
        us, vs = seeds[lo:hi, 0], seeds[lo:hi, 1]
        kus, kvs = f(us, vs)
        idx = np.arange(lo, hi)
        keep = ~arrive(np.ones(hi - lo, dtype=bool), us, vs, kus, kvs, idx)
        block = np.full((_ROWS, hi - lo), math.nan)
        block[_TAU] = 0.0
        block[_U], block[_V], block[_K1U], block[_K1V] = us, vs, kus, kvs
        for i, (u, v, ku, kv) in enumerate(zip(us.tolist(), vs.tolist(),
                                               kus.tolist(), kvs.tolist())):
            block[_H, i] = _initial_step(u, v, ku, kv, cfg, tau_end)
            block[_XU, i], block[_XV, i] = _exit_box(u, v, C)
        return block[:, keep], idx[keep]

    def settle(state, done):
        """Bisect every waiting crossing and apply it with the section test
        of ``_drive``.  A crossing inside the interval, or a return map
        found converged, ends its cell as a cycle, at that crossing,
        whatever the cell did after it."""
        cols = np.flatnonzero(~np.isnan(state[_QT]))
        if not len(cols):
            return
        q = state[:, cols]
        ks = _dp_attempt(f, q[_QH], q[_QU], q[_QV], q[_QK1U], q[_QK1V])[4]
        u_c = _bisect_crossings(C, q[_QT], q[_QU], q[_QV], q[_QH], ks)[1]
        delta = u_c - q[_PCU]
        side = u_c > anchor
        cycle = side & ((lo < u_c) & (u_c < hi)
                        | _cycle_found(delta, q[_PD], u_c, anchor, cfg))
        moved = side & ~cycle
        state[_PD, cols[moved]] = delta[moved]
        state[_PCU, cols[moved]] = u_c[moved]
        labels[cells[cols[cycle]]] = ctx.cycle_code
        done[cols[cycle]] = True
        state[_QT, cols] = math.nan

    state = np.empty((_ROWS, 0))
    cells = np.empty(0, dtype=np.intp)
    pending = 0
    with np.errstate(all="ignore"):
        while True:
            if pending < n and state.shape[1] < _POOL:
                stop = min(n, pending + _POOL - state.shape[1])
                block, idx = admit(pending, stop)
                pending = stop
                state = np.concatenate((state, block), axis=1)
                cells = np.concatenate((cells, idx))
            if pending == n and state.shape[1] <= _HANDOVER:
                break
            tau, u0, v0 = state[_TAU], state[_U], state[_V]
            h = np.minimum(state[_H], tau_end - tau)
            # horizon or step underflow (a NaN step too): Undecided, label
            # stays 0
            done = ((tau >= tau_end)
                    | ~(h > 1e-13 * np.maximum(1.0, np.abs(tau))))
            u5, v5, eu, ev, ks = _dp_attempt(f, h, u0, v0, state[_K1U],
                                             state[_K1V])
            scu = atol + rtol * np.maximum(np.abs(u0), np.abs(u5))
            scv = atol + rtol * np.maximum(np.abs(v0), np.abs(v5))
            ru, rv = eu / scu, ev / scv
            errn = np.sqrt(0.5 * (ru * ru + rv * rv))
            # float_power calls the C library's pow, as Python's ** does;
            # np.power may use a SIMD pow that differs in the last bit.  A
            # zero norm gives inf, which the clip takes to _MAX_FACTOR
            grow = _SAFETY * np.float_power(errn, -0.2)
            # a division by zero in a stage shows here as a non-finite
            # norm, which the scalar path rejects by the same factor
            bad = ~np.isfinite(errn)
            big = errn > 1.0
            acc = ~(done | bad | big | (u5 < 0.0) | (v5 < 0.0))
            factor = np.where(bad, 0.25, np.where(
                acc | big,
                np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, grow)), 0.5))
            k7u, k7v = ks[10], ks[11]

            left = acc & ((u5 > state[_XU]) | (v5 > state[_XV]))
            done |= left
            live = acc & ~left
            done |= arrive(live, u5, v5, k7u, k7v, cells)
            if anchor is not None:
                waiting = ~np.isnan(state[_QT])
                g0 = v0 - u0 - C
                g1 = v5 - u5 - C
                ci = np.flatnonzero(acc & ~done & (g0 < 0.0) & (g1 >= 0.0))
                # a waiting crossing goes before its cell's next crossing,
                # and before its cell's end whenever it could have ended it
                ending = waiting & done
                if ctx.interval is None:
                    ending &= np.abs(state[_PD]) < 10.0 * cfg.rho_cyc
                if waiting[ci].any() or ending.any():
                    settle(state, done)
                    ci = ci[~done[ci]]
                if len(ci):
                    state[_QT:_QH, ci] = state[_TAU:_H, ci]
                    state[_QH, ci] = h[ci]

            state[_H] = h * factor
            for row, new in ((_TAU, tau + h), (_U, u5), (_V, v5),
                             (_K1U, k7u), (_K1V, k7v)):
                np.copyto(state[row], new, where=acc)
            if done.any():
                state = state[:, ~done]
                cells = cells[~done]
        done = np.zeros(state.shape[1], dtype=bool)
        settle(state, done)
        state, cells = state[:, ~done], cells[~done]

    for col, cell in zip(state[:_QT].T.tolist(), cells.tolist()):
        tau, u, v, k1u, k1v, h, _, _, last_u, last_delta = col
        stepper = _Stepper(f, (u, v), cfg, tau_end, tau=tau, k1=(k1u, k1v),
                           h=h)
        # no crossing time: only a Cycle's period would read it
        res = _drive(ctx, seeds[cell], cfg, want_samples=False,
                     resume=(stepper, last_u, math.nan, last_delta))
        if res.termination is Termination.REACHED_EQUILIBRIUM:
            labels[cell] = ctx.code(res.equilibrium_id)
        elif res.termination is Termination.REACHED_CYCLE:
            labels[cell] = ctx.cycle_code
    return labels


def integrate(p: Params, s0: State, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from ``s0`` until an event or the horizon.

    Samples are the accepted step endpoints.  Step-size underflow is
    reported via the termination tag, never silently looped over.
    """
    return _drive(_context(p), s0, cfg or IntegratorConfig(),
                  want_samples=True)


def classify_omega_limit(p: Params, s0: State,
                         cfg: IntegratorConfig | None = None
                         ) -> AttractorLabel:
    """Classify the forward limit set of ``s0``.

    Returns Equilibrium(id) only for attracting equilibria (convergence onto
    a saddle or a degenerate point is reported as Undecided), once the
    trajectory enters the equilibrium's trapping disc, from which every
    trajectory provably converges to it (``stability.trapping_radius``), or
    comes within ``rho_eq`` of it with a field norm below ``rho_eq``, the
    one rule of ``integrate``.  Returns LimitCycle when the return map on
    v = u + C converges to a fixed point away from the interior equilibrium
    (its differences fall below ``rho_cyc`` and contract, or flip sign at
    the integrator's noise floor), or at the first crossing strictly inside
    the cycle's certified section interval (``_section_interval``), and
    Undecided at the horizon or on underflow.  Each call hunts the cycle
    once to build that interval, as a basin raster does once for all its
    cells, so the labels are the raster's.
    """
    cfg = cfg or IntegratorConfig()
    ctx = _context(p)
    ctx = ctx._replace(interval=_section_interval(ctx, cfg))
    res = _drive(ctx, s0, cfg, want_samples=False)
    if (res.termination is Termination.REACHED_EQUILIBRIUM
            and ctx.code(res.equilibrium_id)):
        return AttractorLabel(AttractorTag.EQUILIBRIUM, res.equilibrium_id)
    if res.termination is Termination.REACHED_CYCLE:
        return AttractorLabel(AttractorTag.LIMIT_CYCLE, "cycle")
    return AttractorLabel.undecided()


def find_limit_cycle(p: Params, seed: State | None = None,
                     cfg: IntegratorConfig | None = None) -> Cycle | None:
    """Locate a stable limit cycle reached from ``seed``, if any; with no
    seed, from beside the larger interior point, as the raster does.

    Iterates crossings of the section v = u + C (through the interior
    equilibrium, along direction (1, 1)) until successive crossings differ by
    less than ``rho_cyc`` and their differences contract or, at the
    integrator's noise floor, change sign.  Returns None when crossings run
    into an equilibrium or the horizon, or when no interior anchor exists.

    ``Cycle.residual`` is that last difference, not the crossing's distance
    from the cycle: at Params(0.04, 0.082, 0.45, 0.07), rel_tol 1e-6 and
    abs_tol 1e-9 it reads 4.5e-8, and the map's fixed point is 1.1e-6 away.
    """
    return _hunt(_context(p), cfg or IntegratorConfig(), seed)
