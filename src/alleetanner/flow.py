"""Adaptive integration of the flow with event detection.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL and the
standard quartic dense-output interpolant.  Steps whose endpoint would leave
the closed first quadrant are rejected and retried with a smaller h; the
solution is never clamped.

Termination events, checked after every accepted step:

* equilibrium convergence: the state is within ``rho_eq`` of a known
  equilibrium AND the field norm there is below ``rho_eq`` (the second test
  keeps a slow saddle passage from being misread as convergence); or, on
  the classification paths (``classify_omega_limit`` and the basin rasters,
  not ``integrate`` or the manifold traces), the state is in a region that
  provably flows to an attracting equilibrium:
  - its trapping disc, a disc inside a sublevel set of a quadratic
    Lyapunov function on which dV/dt < 0 is certified, sector by sector of
    directions, from the field's exact Taylor remainder
    (``stability.trapping_radius``).  Each disc is certified on the first
    test that reads it, so the manifold traces pay for none, and
    ``integrate`` only for those that its cycle interval's walk reads;
  - for M > 0, the Allee strip of (0, C), 0 <= u < M and v > 0: there
    u' = u((1 - u)(u - M) - Qv) < 0, so u falls to 0 and v tends to C.
    The march ends there only above v = ``rho_eq``, where the ``rho_eq``
    test would also end it at (0, C) (``_arrival``),
* a crossing of the Poincare section v = u + C (the predator nullcline,
  which carries every interior equilibrium and is transversal to the flow
  elsewhere) strictly inside a certified section interval: the cycle's,
  which the return map provably maps into itself (``_section_interval``),
  ends on the cycle.  ``integrate`` builds it at its orbit's first upward
  crossing beyond the anchor, the classification paths before their
  first step.  There, where no cycle is certified and the anchor attracts,
  the stable focus's (anchor, b), which a chain of returns provably
  shrinks into the anchor's trapping disc (``_focus_interval``), ends at
  the anchor.  The region grid (``bifurcation.region_classify``) reads a
  cycle only where the cycle's interval is certified too, and
  ``find_limit_cycle`` returns one only there, at a root of P(x) - x
  inside it,
* horizon ``tau_max`` exceeded, domain exit, or step-size underflow.

The certificates read the return map from one loop, ``_returns``, with
each return's error margin: the cycle's interval comes from a walk of the
returns from beside the anchor that tries intervals around Aitken's
estimates of the fixed point and stops once a return moves by no more than
its margin, where the integrator can see no further convergence.  The walk
keeps one width and halves it after every try that fails.

Basin rasters run many seeds at once (``_lockstep``): the same attempts
and events on numpy arrays, elementwise in the same order, so each seed
gets the bytes it would get alone.  Their label codes come from the
per-parameter context (``_context``), which numbers the attracting targets
1, 2, ... in table order and gives a cycle the next code.
"""

from __future__ import annotations

import enum
import functools
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

# Nearer the anchor than this, a converging return map is closing in on
# the interior equilibrium, not on a cycle around it.
_MIN_CYCLE_RADIUS = 1e-3
# Half-width of the section interval certified around the cycle's crossing,
# the first tried; ``_section_interval`` halves it after every try that
# fails, around an Aitken estimate or around the return where its walk
# stops.  P(a) - a grows with it while the error margin does not, so a wide
# interval certifies nearer the Hopf curve than a narrow one, and ends
# slowly attracted cells revolutions sooner: at
# (0.04, 0.082, 0.45, 0.07), multiplier 0.85, a 40^2 default-tolerance
# raster took 1,982,575 step attempts with 1e-4 and 484,420 with 1e-2.
# 3e-2 failed at S = 0.95 S_hopf there, where the orbit through b leaves
# for (0, C).
_SECTION_HALF_WIDTH = 1e-2
# Outer ends b = anchor + (1 - anchor)/2 * _FOCUS_SHRINK**j, j < _FOCUS_RUNGS,
# that ``_focus_interval`` tries in turn, the widest first.
_FOCUS_RUNGS, _FOCUS_SHRINK = 6, 0.75

_MIN_FACTOR, _MAX_FACTOR, _SAFETY = 0.2, 5.0, 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    tau_max: float = 1e5
    # Proximity and field-norm bound of the equilibrium test: the only one
    # in integrate and the manifold traces, and on the classification paths
    # the one for equilibria without a trapping disc (saddles, degenerate
    # points) or outside their disc.  It cannot tell a slow passage from
    # convergence: an orbit that passes the origin below v = rho_eq ends
    # there, though v > 0 makes (0, C) its omega-limit, as integrate from
    # (0.03125, 3.0e-42) at (0.04, 0.12, 0.45, 0.07) does.
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
    """One revolution of a stable limit cycle, from the section crossing
    that ``find_limit_cycle`` solves for inside the cycle's certified
    section interval to its return."""

    period: float
    polyline: list[State]         # one revolution, crossing to return
    crossing: State               # section crossing point on v = u + C
    # |P(x) - x| of the crossing x, below rho_cyc; not a bound on the
    # distance to the cycle (see find_limit_cycle)
    residual: float


@dataclass(frozen=True)
class Trajectory:
    taus: list[float] | None      # None when no samples were asked for
    states: list[State] | None    # the (u, v) state at each of the taus
    termination: Termination
    equilibrium_id: str | None = None


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
    """An in-domain equilibrium of ``p``.  ``code`` is its raster label: 1,
    2, ... for the attracting targets in table order, 0 for the rest;
    ``r2`` is the square of its trapping radius, 0.0 for none (every
    target that is not attracting).  An attracting target certifies its
    disc on the first read of ``r2``, so a context whose trajectories
    never test a disc (the manifold traces, and ``integrate`` until its
    cycle interval's walk reads one) pays nothing for it.  ``strip`` is M
    for (0, C) when M > 0, where every state with 0 <= u < M and v > 0
    flows to it (the Allee strip: u' < 0 there), else 0.0."""

    __slots__ = ("id", "u", "v", "code", "p", "strip", "r2")

    def __init__(self, eq_id: str, u: float, v: float, code: int, p: Params,
                 strip: float = 0.0):
        self.id = eq_id
        self.u = u
        self.v = v
        self.code = code
        self.p = p
        self.strip = strip
        if not code:
            self.r2 = 0.0

    def __getattr__(self, name: str) -> float:
        # called only while the slot is unset: the first read of r2
        if name != "r2":
            raise AttributeError(name)
        self.r2 = trapping_radius(self.p, (self.u, self.v)) ** 2
        return self.r2


class _Context(NamedTuple):
    """Per-parameter work shared by every trajectory at one ``Params``.

    ``interval`` is a certified section interval (a, b), the one piece
    that also depends on the tolerances: a crossing strictly inside it ends
    its trajectory at the attractor that every orbit through it reaches.
    That is the cycle's interval when the walk of the returns certifies one
    (``_section_interval``; ``interval_end`` None); where none is and the
    anchor attracts, the stable focus's (anchor, b), whose returns provably
    shrink into the anchor's trapping disc (``_focus_interval``;
    ``interval_end`` the anchor's id); where neither is, the empty
    interval (NaN, NaN).  ``_context`` leaves both None;
    ``classify_omega_limit`` and ``compute_basins`` add them with
    ``_with_interval``, so the contexts of ``integrate``,
    ``find_limit_cycle``, the region grid and the manifold traces carry
    none.  A context with an interval, even the empty one, ends a cycle
    only inside it; on one without, ``_drive`` builds the cycle's interval
    once its orbit circulates, as ``integrate`` does.  The region grid and
    ``find_limit_cycle`` build the cycle's interval too, to read its
    verdict and to bracket the cycle's crossing.
    """

    p: Params
    f: Callable
    targets: list[_EqTarget]      # in-domain equilibria, in table order
    anchor: float | None          # prey value of the section's anchor root
    cycle_code: int               # raster label of a cycle: attractors + 1
    interval: tuple[float, float] | None = None
    interval_end: str | None = None   # equilibrium the interval ends at

    def code(self, eq_id: str) -> int:
        """Raster label of the target ``eq_id``."""
        return next(t.code for t in self.targets if t.id == eq_id)

    def stops(self) -> list[_EqTarget]:
        """The targets with a trapping disc or a strip, which end a march
        on the classification paths."""
        return [t for t in self.targets if t.r2 > 0.0 or t.strip]


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
            code = 0
            if classify(p, eq).attracting:
                attractors += 1
                code = attractors
            strip = (p.M if code and p.M > 0.0
                     and eq.kind is EquilibriumKind.PREDATOR_ONLY else 0.0)
            targets.append(_EqTarget(eq.id, eq.location[0], eq.location[1],
                                     code, p, strip))
    return _Context(p, field_closure(p), targets, anchor, attractors + 1)


def _arrival(targets: list[_EqTarget], discs: list[_EqTarget], rho2: float,
             u: float, v: float, ku: float, kv: float) -> _EqTarget | None:
    """The target that (u, v), with field (ku, kv), has reached: the first,
    in table order, that holds it within sqrt(rho2) with a field norm
    below sqrt(rho2) there, strictly inside its trapping disc, or in its
    strip 0 <= u < ``strip``, v > sqrt(rho2).  ``discs`` is every target
    with a disc or a strip (``_Context.stops``), or empty when neither may
    end the march.

    In the strip v never falls below min(v, C), so an orbit from above
    sqrt(rho2) keeps beyond the rho2 test of the origin and of (M, 0):
    the strip ends only marches that the rho2 test would end at (0, C)."""
    near = ku * ku + kv * kv < rho2
    for t in targets if near else discs:
        du, dv = u - t.u, v - t.v
        d2 = du * du + dv * dv
        if near and d2 <= rho2 or discs and (
                d2 < t.r2 or 0.0 <= u < t.strip and v * v > rho2):
            return t
    return None


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


@functools.cache
def _reach_rows():
    """The P_s,j as a (4, 6) array, the weights _TH_MAX^(j+1) and _PABS,
    for ``_prey_reach``."""
    import numpy as np
    return (np.array((_P1, _P3, _P4, _P5, _P6, _P7)).T,
            _TH_MAX ** np.arange(1.0, 5.0), np.array(_PABS))


def _prey_reach(h, u0, ku):
    """A bound E on |u - u0| over the dense output of the steps of sizes
    ``h`` from prey values ``u0`` with the prey stages ``ku`` (k1u, k3u,
    ..., k7u in rows), for 0 <= th < _TH_MAX and with ``_dense``'s
    rounding, so that every prey value that a bisection of the step can
    return lies in [u0 - E, u0 + E] as computed.  Arrays only.

    u - u0 = h th (c0 + th (c1 + th (c2 + th c3))) with
    c_j = sum_s k_s,u P_s,j, so |u - u0| <= |h| sum_j _TH_MAX^(j+1) |c_j|.
    Computing c_j is off by at most gamma_6 sum_s |k_s,u| |P_s,j|, and
    _dense by gamma_15 of its stage terms and gamma_1 of u0 (see above);
    summed over j those are gamma_21 |h| sum_s _PABS_s |k_s,u| and
    gamma_1 |u0|.  gamma_33 and gamma_6 also cover E's own evaluation and
    the rounding of u0 -+ E.  The sums are matrix products, whose order of
    rounding does not matter to these bounds.
    """
    import numpy as np
    pt, th, pabs = _reach_rows()
    return ((1.0 + _G_STAGES) * np.abs(h) * (th @ np.abs(pt @ ku)
                                             + _G_STAGES * (pabs @ np.abs(ku)))
            + _G_STATE * np.abs(u0))


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
           want_samples: bool, resume=None) -> Trajectory:
    """Integrate from the seed ``s0`` until an event.

    A stepper ``resume`` continues a trajectory from ``s0`` that was
    advanced elsewhere: the seed test is skipped, and samples start at the
    stepper's state.  A seed on the singular line u = -C ends at once as a
    step-size underflow.

    Without samples a state inside a target's trapping disc or strip ends
    the trajectory at that target; with them, only the ``rho_eq`` test
    does.  A crossing strictly inside the context's section interval ends
    the trajectory at ``ctx.interval_end`` or, for the cycle's interval,
    on the cycle.  A context without an interval, that of ``integrate``,
    takes the cycle's (``_section_interval``; the empty one where none is
    certified) at the orbit's first upward crossing beyond the anchor, and
    tests that crossing too; an orbit that never gets there never builds
    it.
    """
    targets = ctx.targets
    anchor = ctx.anchor
    C = ctx.p.C
    # None: the cycle's interval is built at the first return
    lo, hi = ctx.interval or (None, None)
    if not (lo is None or lo < hi):
        anchor = None   # no crossing can end it: skip the section test
    u0, v0 = float(s0[0]), float(s0[1])
    exit_u, exit_v = _exit_box(u0, v0, C)
    rho2 = cfg.rho_eq * cfg.rho_eq
    discs = [] if want_samples else ctx.stops()

    stepper = resume
    start = ((0.0, u0, v0) if stepper is None
             else (stepper.tau, stepper.u, stepper.v))
    taus = [start[0]] if want_samples else None
    states = [start[1:]] if want_samples else None

    def finish(term, eq_id=None):
        return Trajectory(taus, states, term, eq_id)

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
        u_c = _refine_crossing(stepper, C)[1]
        if u_c <= anchor:
            continue
        if lo is None:
            lo, hi = _section_interval(ctx, cfg) or (math.nan, math.nan)
            if not lo < hi:
                anchor = None
        if lo < u_c < hi:
            if ctx.interval_end is not None:
                return finish(Termination.REACHED_EQUILIBRIUM,
                              ctx.interval_end)
            return finish(Termination.REACHED_CYCLE)

    if stepper.underflow:
        return finish(Termination.STEP_UNDERFLOW)
    return finish(Termination.HORIZON_EXCEEDED)


def _returns(ctx: _Context, cfg: IntegratorConfig, s0: State,
             stopped: list | None = None, below: bool = False,
             path: list | None = None):
    """The returns to the section beyond the anchor of the orbit from
    ``s0``, the one loop that computes the return map.

    Yields, at each upward crossing of v = u + C, its prey value P, the
    prey value of the orbit's last downward crossing before it, and the
    orbit's error margin since the previous upward crossing (since ``s0``
    for the first): the sum over its steps of the tolerance each step's
    error estimate was held to (``abs_tol`` plus ``rel_tol`` times the
    largest component at the step's ends).  Ends when the orbit leaves the
    domain, enters an attracting target's trapping disc or strip (it never
    returns from there), reaches the horizon, or crosses upward at or below
    the anchor.  On a stop in a disc or strip, a list ``stopped`` gets that
    target and the prey value of the orbit's last downward crossing (None
    for none).  Only the discs and strips end it early, not the ``rho_eq``
    test, so a return that passes close to a saddle counts.  A start on the
    section, where g rounds to about +-5e-17, may read as an upward crossing
    in its first step, so a crossing counts only after a downward one, or
    from the start when ``below``: a start clearly below the section.  A
    list ``path`` gets the (tau, u, v) of each accepted step's end and of
    each crossing that is yielded, just before it is.
    """
    C = ctx.p.C
    stepper = _Stepper(ctx.f, s0, cfg, cfg.tau_max)
    exit_u, exit_v = _exit_box(s0[0], s0[1], C)
    discs = ctx.stops()
    down, margin = None, 0.0
    while stepper.step():
        u0, v0, u1, v1 = stepper.prev_u, stepper.prev_v, stepper.u, stepper.v
        if path is not None:
            path.append((stepper.tau, u1, v1))
        if u1 > exit_u or v1 > exit_v:
            return
        # rho2 = 0 leaves the trapping discs and strips as the only test
        t = _arrival([], discs, 0.0, u1, v1, 0.0, 0.0)
        if t is not None:
            if stopped is not None:
                stopped.append((t, down))
            return
        margin += cfg.abs_tol + cfg.rel_tol * max(abs(u0), abs(v0),
                                                  abs(u1), abs(v1))
        g0, g1 = v0 - u0 - C, v1 - u1 - C
        if g0 >= 0.0 > g1:
            down = _refine_crossing(stepper, C)[1]
        elif g0 < 0.0 <= g1 and (below or down is not None):
            crossing = _refine_crossing(stepper, C)
            u_c = crossing[1]
            if u_c <= ctx.anchor:
                return
            if path is not None:
                path.append(crossing)
            yield u_c, down, margin
            margin = 0.0


def _first_return(ctx: _Context, cfg: IntegratorConfig, x: float,
                  stopped: list | None = None) -> tuple | None:
    """The return map P(x) of the section from (x, x + C) beyond the anchor:
    the first (P, down, margin) of ``_returns``, or None where it ends
    first."""
    return next(_returns(ctx, cfg, (x, x + ctx.p.C), stopped), None)


def _certified_interval(ctx: _Context, cfg: IntegratorConfig, a: float,
                        b: float) -> tuple[float, float] | None:
    """(a, b) if the return map provably maps [a, b] into itself and the
    annulus between the orbits through a and b holds no equilibrium;
    else None.

    Checks first, before any return, that a lies at least
    ``_MIN_CYCLE_RADIUS`` beyond the anchor, then that P(a) - a and
    b - P(b) exceed their orbits' error margins (``_first_return``), and
    that no equilibrium lies between the orbits' downward crossings.  The
    anchor lies inside the inner orbit; the one other equilibrium on the
    section whose prey value can fall there is the saddle below the
    anchor.  P is increasing on a transversal section
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


def _focus_interval(ctx: _Context,
                    cfg: IntegratorConfig) -> tuple[float, float] | None:
    """(anchor, b) when every section point in it provably flows to the
    anchor, an attracting target with a trapping disc; else None.

    Tries b = anchor + (1 - anchor)/2 * ``_FOCUS_SHRINK``**j for
    j < ``_FOCUS_RUNGS`` in turn, each by a chain of first returns
    (``_first_return``): x_0 = b, x_(k+1) = P(x_k) + margin_k, which must
    fall, x_(k+1) < x_k.  The chain holds once x_k lies inside the anchor's
    trapping disc, or once the orbit from x_k enters that disc before it
    returns; it fails on any other disc or strip, a domain exit, the
    horizon, a return that does not fall, or an equilibrium other than the
    anchor between the orbits' downward crossings and b, as
    ``_certified_interval`` checks.  P is increasing on the transversal
    section (Perko, Differential Equations and Dynamical Systems, 3.4) and
    fixes the anchor, so P((anchor, x_k]) lies in (anchor, x_(k+1)]: every
    orbit through (anchor, b) reaches the disc, where it converges to the
    anchor.  The same holds for the orbits inside the last one, which
    enters the disc without returning: they cannot cross it, and with no
    equilibrium but the anchor between them, no cycle can separate them
    from the disc (Poincare-Bendixson, Perko 3.7).
    """
    star = ctx.anchor
    focus = next((t for t in ctx.targets if t.u == star), None)
    if focus is None or not focus.code or not focus.r2 > 0.0:
        return None
    for j in range(_FOCUS_RUNGS):
        b = star + 0.5 * (1.0 - star) * _FOCUS_SHRINK ** j
        if _focus_chain(ctx, cfg, focus, b):
            return star, b
    return None


def _focus_chain(ctx: _Context, cfg: IntegratorConfig, focus: _EqTarget,
                 b: float) -> bool:
    """Whether the chain of returns from b holds (``_focus_interval``)."""
    C = ctx.p.C
    x, low = b, focus.u
    while _arrival([], [focus], 0.0, x, x + C, 0.0, 0.0) is None:
        stopped = []
        ret = _first_return(ctx, cfg, x, stopped)
        if ret is None:
            if not stopped or stopped[0][0] is not focus:
                return False
            down = stopped[0][1]
            low = low if down is None else min(low, down)
            break
        p, down, margin = ret
        low = min(low, down)
        if not p + margin < x:
            return False
        x = p + margin
    return not any(low <= t.u <= b for t in ctx.targets if t is not focus)


def _section_interval(ctx: _Context, cfg: IntegratorConfig,
                      seed: State | None = None
                      ) -> tuple[float, float] | None:
    """The certified section interval of the cycle at ``ctx``; the empty
    interval (NaN, NaN) when the walk of the return map stops where no
    width certifies; None when the walk finds no cycle.

    Walks the returns (``_returns``) of the orbit from ``seed``, by default
    from (min(anchor + 0.05, 0.98), anchor + C), beside the anchor, as the
    classification paths and ``integrate`` do.  At a return P
    that moved by d from the one before, where d and the move before it,
    d_prev, have one sign and d is the smaller, r = d/d_prev gives Aitken's
    estimate a = P + d r/(1 - r) of the return map's fixed point.  The walk
    keeps one half-width w, from ``_SECTION_HALF_WIDTH``, and halves it
    after every try (``_certified_interval``) that fails, wherever the try
    is made: [a - w, a + w] is tried whenever |a - P| < w/4.  Once a return
    moves by no more than its orbit's error margin, at least
    ``_MIN_CYCLE_RADIUS`` beyond the anchor, the integrator can see no
    further convergence, and [P - w, P + w] is tried from the current w,
    halved after each failure, until one holds or w falls below 1e-5;
    ``_certified_interval`` refuses at once a try whose inner end lies
    within ``_MIN_CYCLE_RADIUS`` of the anchor, and a narrower one may still
    fit.  A narrower interval fits where the orbit through a wide one's
    outer end escapes, which is why the next estimate is tried narrower at
    once; but a narrow interval's ends lie nearer the cycle, where the
    return map moves them less: next to the Hopf curve at rel_tol 1e-6
    that move is within the orbits' error margins at every width.  A walk
    that stops in a trapping disc or strip, leaves the domain, reaches the
    horizon or crosses the section upward at or below the anchor finds no
    cycle.
    This is the one cycle verdict: the rasters, ``classify_omega_limit``
    and ``integrate`` end orbits inside the interval, ``find_limit_cycle``
    finds the cycle's crossing in it, and ``bifurcation.region_classify``
    reads its three outcomes as cycle, near_locus and repeller.  ``ctx``
    carries no interval yet.  On a 2-vCPU x86 VM (min of 7 calls, two
    rounds) this took 1.9-3.0 ms at the cycle point (-0.055, 0.03, 0.55,
    0.1) with rel_tol 1e-6, 10-11 ms at (0.04, 0.082, 0.45, 0.07) with the
    default tolerances, where the cycle attracts slowly, and 0.4-0.7 ms at
    the bistable point (0.04, 0.12, 0.45, 0.07), where the walk ends in the
    anchor's trapping disc.
    """
    if ctx.anchor is None:
        return None
    if seed is None:
        seed = min(ctx.anchor + 0.05, 0.98), ctx.anchor + ctx.p.C
    w, x, last = _SECTION_HALF_WIDTH, math.nan, math.nan
    for u, _, margin in _returns(ctx, cfg, seed, below=True):
        d = u - x
        stop = abs(d) <= margin and u - ctx.anchor >= _MIN_CYCLE_RADIUS
        a = u if stop else math.nan
        if not stop and d * last > 0.0 and abs(d) < abs(last):
            r = d / last
            a = u + d * r / (1.0 - r)
        # NaN compares false: no estimate, no try
        while w >= 1e-5 and abs(a - u) < 0.25 * w:
            interval = _certified_interval(ctx, cfg, a - w, a + w)
            if interval is not None:
                return interval
            w *= 0.5
            if not stop:
                break
        if stop:
            return math.nan, math.nan
        x, last = u, d
    return None


def _illinois(g, a: float, ga: float, b: float, gb: float,
              tol: float) -> float | None:
    """An x with |g(x)| < ``tol`` inside the sign change (a, b), where g
    is ``ga`` at a and ``gb`` at b, or None after 60 evaluations.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant
    through the bracket ends, where a new point with the sign of the last
    one halves the value kept at the far end; a step outside the bracket
    becomes the midpoint.
    """
    for _ in range(60):
        x = b - gb * (b - a) / (gb - ga)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        gx = g(x)
        if abs(gx) < tol:
            return x
        if (gx > 0.0) != (gb > 0.0):
            a, ga = b, gb
        else:
            ga *= 0.5
        b, gb = x, gx
    return None


def _with_interval(ctx: _Context, cfg: IntegratorConfig) -> _Context:
    """``ctx`` with the cycle's certified section interval or, where the
    walk certifies none (``_section_interval`` gives None or the empty
    interval), the stable focus's (``_Context.interval``); with the empty
    interval (NaN, NaN) where neither is certified."""
    interval = _section_interval(ctx, cfg)
    if interval is not None and interval[0] < interval[1]:
        return ctx._replace(interval=interval)
    interval = _focus_interval(ctx, cfg)
    if interval is None:
        return ctx._replace(interval=(math.nan, math.nan))
    return ctx._replace(interval=interval, interval_end=next(
        t.id for t in ctx.targets if t.u == ctx.anchor))


# Lockstep raster integration.  Every live cell takes one Dormand-Prince
# attempt per iteration with its own step size; the events of ``_drive``
# are applied in the same order with the same elementwise arithmetic, so
# each cell gets the bytes the scalar path gives it, whichever cells share
# its batch.
#
# An iteration makes a few hundred numpy calls whatever the batch size: on
# a 2-vCPU x86 VM whose speed drifts by half, it costs 170-300 us at 16-48
# live cells, plus about 1 us per cell, about 30 times what the scalar loop
# takes per step attempt with its events (6.5-10 us), so lockstep wins from
# about 30 live cells (1.0x the scalar speed at 32, 1.4x at 48).  At this
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
# one forked worker per CPU.  On the same VM the ``basin`` command at
# (0.04, 0.12, 0.45, 0.07), default tolerances, split over two workers
# against in process (medians of alternating pairs), took 0.392 against
# 0.392 s at 70^2 and 0.325 against 0.313 s at 73^2 (10 pairs each), and
# 0.431 against 0.511 s at 120^2 and 0.657 against 1.037 s at 200^2 (6 pairs
# each): the split breaks even at the benchmark's sizes and pays from about
# 120^2.  Earlier rounds saw it lose below one pool (24^2 and 32^2), so a
# raster that fits one pool stays in process.
_POOL = 2048

# Only a crossing inside the context's interval can end a cell, so a
# context with an empty interval does no crossing work.  A section crossing
# waits with its step's inputs.  All waiting crossings are bisected in one
# batch when a waiting cell crosses again, when one ends while its crossing
# could have ended it (with the cycle's interval any crossing could, since
# only its bisection tells whether it lies inside; with the focus interval,
# any crossing of a cell that did not reach the anchor), and before the
# hand-over; a bisection depends only on its own step, whose stages it
# recomputes with ``_dp_attempt``.  So a cell whose crossing lies in the
# interval runs on to its next crossing at most.  With the focus interval
# most crossings do not wait: one whose step keeps u within ``_prey_reach``
# of the step's start, inside the interval, ends its cell at once.  On the
# cycle's narrower interval the same test decided 0 of the 680 crossings of
# the FAST 24^2 raster at the cycle point (1 of 2,195 on the FAST 30^2
# raster at (0.04, 0.082, 0.45, 0.07)) and made the first 8-18% slower, so
# those crossings all wait.
#
# Rows of the lockstep state, one column per live cell: time, state, FSAL
# derivative, next step size and exit box; then a crossing that waits: its
# step's start time (NaN for none), start state, FSAL derivative and size,
# in the order of the first six rows.
(_TAU, _U, _V, _K1U, _K1V, _H, _XU, _XV,
 _QT, _QU, _QV, _QK1U, _QK1V, _QH) = range(14)
_ROWS = _QH + 1


def _bisect_crossings(C: float, prev_tau, pu, pv, h, ks):
    """``_refine_crossing`` on arrays, for upward crossings: the same
    halvings of each step, each decided by the step's quartic
    (``_section_quartic``) and, in the columns where that lies within its
    margin of zero, by the same ``_dense``.  ``ks`` holds the stages as
    ``_dp_attempt`` returns them.  Returns crossing times and prey values.
    """
    import numpy as np
    g0, c0, c1, c2, c3, margin = _section_quartic(h, pu, pv, ks, C)
    # A halving that moves neither end is a fixed point of the next ones,
    # so a cell whose bracket stops early keeps it to the last halving.
    lo, hi = prev_tau, prev_tau + h
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        th = (mid - prev_tau) / h
        g = g0 + h * th * (c0 + th * (c1 + th * (c2 + th * c3)))
        near = np.flatnonzero(~(np.abs(g) > margin))
        if len(near):
            u, v = _dense(th[near], h[near], pu[near], pv[near],
                          [k[near] for k in ks])
            g[near] = v - u - C
        below = g < 0.0
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
    ``code`` (0 unless it attracts), a crossing strictly inside
    ``ctx.interval`` the code of the interval's attractor
    (``ctx.cycle_code`` for the cycle's), and the horizon, underflow and
    domain exit 0.  A context without an interval is taken with the empty
    one, so no cell ends on a cycle.  Equal to :func:`classify_omega_limit`
    cell by cell, byte for byte, when ``ctx`` carries the interval that
    function builds.
    """
    import numpy as np
    n = len(seeds)
    labels = np.zeros(n, dtype=np.uint8)
    f, targets, C = ctx.f, ctx.targets, ctx.p.C
    lo, hi = ctx.interval or (math.nan, math.nan)
    ctx = ctx._replace(interval=(lo, hi))   # for the scalar hand-over
    focus = ctx.interval_end is not None
    icode = ctx.code(ctx.interval_end) if focus else ctx.cycle_code
    rho2 = cfg.rho_eq * cfg.rho_eq
    tau_end, rtol, atol = cfg.tau_max, cfg.rel_tol, cfg.abs_tol
    discs = ctx.stops()

    def arrive(live, u, v, ku, kv, idx):
        """``_arrival`` on the cells of mask ``live``, with field (ku, kv):
        labels those that reached a target and returns their mask."""
        near = live & (ku * ku + kv * kv < rho2)
        free = live.copy()
        for t in targets if near.any() else discs:
            du, dv = u - t.u, v - t.v
            d2 = du * du + dv * dv
            hit = (d2 < t.r2) | near & (d2 <= rho2)
            if t.strip:
                hit |= (u >= 0.0) & (u < t.strip) & (v * v > rho2)
            new = free & hit
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
        hs, xus, xvs = [], [], []
        for u, v, ku, kv in zip(us.tolist(), vs.tolist(), kus.tolist(),
                                kvs.tolist()):
            hs.append(_initial_step(u, v, ku, kv, cfg, tau_end))
            xu, xv = _exit_box(u, v, C)
            xus.append(xu)
            xvs.append(xv)
        block[_H], block[_XU], block[_XV] = hs, xus, xvs
        return block[:, keep], idx[keep]

    def settle(state, done):
        """Bisect every waiting crossing and apply the interval test of
        ``_drive``: a crossing inside the interval ends its cell with the
        interval's code, at that crossing, whatever the cell did after
        it."""
        cols = np.flatnonzero(~np.isnan(state[_QT]))
        if not len(cols):
            return
        q = state[:, cols]
        ks = _dp_attempt(f, q[_QH], q[_QU], q[_QV], q[_QK1U], q[_QK1V])[4]
        u_c = _bisect_crossings(C, q[_QT], q[_QU], q[_QV], q[_QH], ks)[1]
        ends = cols[(lo < u_c) & (u_c < hi)]
        labels[cells[ends]] = icode
        done[ends] = True
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
            if lo < hi:
                waiting = ~np.isnan(state[_QT])
                g0 = v0 - u0 - C
                g1 = v5 - u5 - C
                ci = np.flatnonzero(acc & ~done & (g0 < 0.0) & (g1 >= 0.0))
                if focus and len(ci):
                    # a crossing whose step keeps u within the focus
                    # interval ends its cell there, as its bisection would
                    uc = u0[ci]
                    e = _prey_reach(h[ci], uc,
                                    np.array([k[ci] for k in ks[::2]]))
                    inside = (lo < uc - e) & (uc + e < hi)
                    labels[cells[ci[inside]]] = icode
                    done[ci[inside]] = True
                    ci = ci[~inside]
                # a waiting crossing goes before its cell's next crossing,
                # and before its cell's end whenever it could have ended it:
                # where the cell did not end with the interval's code, which
                # before ``settle`` only the focus interval's step test gives
                ending = waiting & done & (labels[cells] != icode)
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

    for col, cell in zip(state[:_XU].T.tolist(), cells.tolist()):
        tau, u, v, k1u, k1v, h = col
        stepper = _Stepper(f, (u, v), cfg, tau_end, tau=tau, k1=(k1u, k1v),
                           h=h)
        res = _drive(ctx, seeds[cell], cfg, want_samples=False,
                     resume=stepper)
        if res.termination is Termination.REACHED_EQUILIBRIUM:
            labels[cell] = ctx.code(res.equilibrium_id)
        elif res.termination is Termination.REACHED_CYCLE:
            labels[cell] = ctx.cycle_code
    return labels


def integrate(p: Params, s0: State, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate from ``s0`` until an event or the horizon.

    Samples are the accepted step endpoints.  Step-size underflow is
    reported via the termination tag, never silently looped over.  Ends at
    an equilibrium only by the ``rho_eq`` test, and on the cycle at an
    upward crossing of v = u + C strictly inside the cycle's certified
    section interval (``_section_interval``), which it builds at the
    orbit's first upward crossing beyond the anchor: an orbit that never
    circulates never pays for it.
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
    equilibrium rule of ``integrate``.  For M > 0 it also returns (0, C)
    once the trajectory enters the Allee strip 0 <= u < M, v > ``rho_eq``,
    where u' < 0.  Returns LimitCycle only at the first crossing of v = u + C
    strictly inside the cycle's certified section interval
    (``_section_interval``), which every orbit through it provably follows
    onto a cycle; where no width of that interval certifies, a trajectory
    that only converges onto a cycle reads Undecided, as at the horizon or
    on underflow.  Where no cycle interval is certified and the interior
    equilibrium attracts, a crossing strictly inside the stable focus's
    certified interval (``_focus_interval``) returns that equilibrium.
    Each call builds these intervals once, as a basin raster does once for
    all its cells, so the labels are the raster's.
    """
    cfg = cfg or IntegratorConfig()
    ctx = _with_interval(_context(p), cfg)
    res = _drive(ctx, s0, cfg, want_samples=False)
    if (res.termination is Termination.REACHED_EQUILIBRIUM
            and ctx.code(res.equilibrium_id)):
        return AttractorLabel(AttractorTag.EQUILIBRIUM, res.equilibrium_id)
    if res.termination is Termination.REACHED_CYCLE:
        return AttractorLabel(AttractorTag.LIMIT_CYCLE, "cycle")
    return AttractorLabel.undecided()


def find_limit_cycle(p: Params, seed: State | None = None,
                     cfg: IntegratorConfig | None = None) -> Cycle | None:
    """The stable limit cycle certified from ``seed``, if any; with no
    seed, from beside the larger interior point, as the rasters do.

    Walks the returns to the section v = u + C (through the interior
    equilibrium, along direction (1, 1)) from ``seed`` to the cycle's
    certified section interval (a, b) (``_section_interval``), whose
    return map P has P(a) > a and P(b) < b beyond the integrator's error,
    and solves P(x) = x inside it by ``_illinois`` to
    |P(x) - x| < ``rho_cyc``.  Returns the revolution from (x, x + C) to
    its return, or None where no interval certifies (the walk ends in a
    trapping disc or strip, outside the domain, at the horizon or at an
    upward crossing at or below the anchor, or stops where no width holds,
    as next to the Hopf curve at rel_tol 1e-6), where the solve needs more
    than 60 returns, or where there is no interior anchor.

    ``Cycle.residual`` is |P(x) - x|, not the crossing's distance from the
    cycle: with multiplier m near 1 that distance is about
    residual / (1 - m), and P itself is off by the integrator's error
    per revolution.
    """
    cfg = cfg or IntegratorConfig()
    ctx = _context(p)
    try:
        a, b = _section_interval(ctx, cfg, seed) or (math.nan, math.nan)
    except ZeroDivisionError:   # a seed on the singular line u = -C
        return None
    if not a < b:
        return None

    def gap(x: float) -> float:
        ret = _first_return(ctx, cfg, x)
        return math.nan if ret is None else ret[0] - x

    x = _illinois(gap, a, gap(a), b, gap(b), cfg.rho_cyc)
    if x is None:
        return None
    path = [(0.0, x, x + p.C)]
    u = next(_returns(ctx, cfg, path[0][1:], path=path))[0]
    return Cycle(path[-1][0], [s[1:] for s in path], path[0][1:], abs(u - x))
