"""Adaptive integration of the flow with event detection.

The integrator is an embedded Dormand-Prince 5(4) pair with FSAL and the
standard quartic dense-output interpolant.  Steps whose endpoint would leave
the closed first quadrant are rejected and retried with a smaller h; the
solution is never clamped.

Termination events, checked after every accepted step:

* equilibrium convergence: the state is within ``rho_eq`` of a known
  equilibrium AND the field norm there is below ``rho_eq`` (the second test
  keeps a slow saddle passage from being misread as convergence),
* limit-cycle convergence: successive same-direction crossings of the
  Poincare section v = u + C (the predator nullcline, which carries every
  interior equilibrium and is transversal to the flow elsewhere) differ by
  less than ``rho_cyc``, and their differences contract geometrically or,
  once the integrator's global error is as large as they are, change sign
  (the exact return map is monotone; see ``_cycle_found``),
* horizon ``tau_max`` exceeded, domain exit, or step-size underflow.

Basin rasters run many seeds at once (``_lockstep``): the same attempts
and events on numpy arrays, elementwise in the same order, so each seed
gets the bytes it would get alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .equilibria import EquilibriumKind, all_equilibria
from .model import ParameterError, Params, State, field_closure
from .stability import classify

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
# The same, one row per stage (k1, k3..k7), for (6, n) weight arrays.
_P = np.array((_P1, _P3, _P4, _P5, _P6, _P7))[:, :, None]

# Successive return-map differences of one sign must shrink at least this
# fast before a cycle is declared; a slow drift toward a boundary contour
# has ratio -> 1 and keeps its sign.
_CYCLE_CONTRACTION = 0.98
# Nearer the anchor than this, a converging return map is closing in on
# the interior equilibrium, not on a cycle around it.
_MIN_CYCLE_RADIUS = 1e-3

_MIN_FACTOR, _MAX_FACTOR, _SAFETY = 0.2, 5.0, 0.9


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    tau_max: float = 1e5
    rho_eq: float = 1e-6
    rho_cyc: float = 1e-7

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "tau_max", "rho_eq", "rho_cyc"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and positive")
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
    polyline: np.ndarray          # closed (N, 2) loop of states
    crossing: State               # section crossing point on v = u + C
    # last return-map difference |P(x) - x|, not a bound on the distance to
    # the cycle (see find_limit_cycle)
    residual: float


@dataclass(frozen=True)
class Trajectory:
    taus: np.ndarray | None       # None when no samples were asked for
    states: np.ndarray | None     # (N, 2)
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
    """

    RUNNING, DONE, UNDERFLOW = 0, 1, 2

    __slots__ = ("f", "tau", "u", "v", "k1u", "k1v", "h", "rtol", "atol",
                 "tau_end", "status", "prev_tau", "prev_u", "prev_v",
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
        self.status = self.RUNNING
        self.prev_tau = tau
        self.prev_u, self.prev_v = self.u, self.v
        self.h_last = 0.0
        self.ks = None
        self.h = (_initial_step(self.u, self.v, self.k1u, self.k1v, cfg,
                                tau_end) if h is None else h)

    def step(self) -> bool:
        """Advance one accepted step; False on horizon/underflow."""
        if self.status != self.RUNNING:
            return False
        if self.tau >= self.tau_end:
            self.status = self.DONE
            return False
        f = self.f
        u0, v0 = self.u, self.v
        k1u, k1v = self.k1u, self.k1v
        rtol, atol = self.rtol, self.atol
        h = min(self.h, self.tau_end - self.tau)
        while True:
            if h <= 1e-13 * max(1.0, abs(self.tau)):
                self.status = self.UNDERFLOW
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
            if errn > 1.0:
                h *= max(_MIN_FACTOR, _SAFETY * errn ** -0.2)
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
        if errn == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR,
                                          _SAFETY * errn ** -0.2))
        self.h = h * factor
        return True

    def state_at(self, tau_q: float) -> State:
        """Dense-output state inside the last accepted step."""
        th = (tau_q - self.prev_tau) / self.h_last
        (k1u, k1v, k3u, k3v, k4u, k4v, k5u, k5v, k6u, k6v,
         k7u, k7v) = self.ks
        b1 = th * (_P1[0] + th * (_P1[1] + th * (_P1[2] + th * _P1[3])))
        b3 = th * (_P3[0] + th * (_P3[1] + th * (_P3[2] + th * _P3[3])))
        b4 = th * (_P4[0] + th * (_P4[1] + th * (_P4[2] + th * _P4[3])))
        b5 = th * (_P5[0] + th * (_P5[1] + th * (_P5[2] + th * _P5[3])))
        b6 = th * (_P6[0] + th * (_P6[1] + th * (_P6[2] + th * _P6[3])))
        b7 = th * (_P7[0] + th * (_P7[1] + th * (_P7[2] + th * _P7[3])))
        h = self.h_last
        u = self.prev_u + h * (b1 * k1u + b3 * k3u + b4 * k4u + b5 * k5u
                               + b6 * k6u + b7 * k7u)
        v = self.prev_v + h * (b1 * k1v + b3 * k3v + b4 * k4v + b5 * k5v
                               + b6 * k6v + b7 * k7v)
        return u, v


class _EqTarget:
    __slots__ = ("id", "u", "v", "attracting")

    def __init__(self, eq_id: str, u: float, v: float, attracting: bool):
        self.id = eq_id
        self.u = u
        self.v = v
        self.attracting = attracting


class _Context(NamedTuple):
    """Per-parameter work shared by every trajectory at one ``Params``."""

    p: Params
    f: Callable
    targets: list[_EqTarget]      # in-domain equilibria, in table order
    anchor: float | None          # prey value of the section's anchor root


def _context(p: Params) -> _Context:
    targets = []
    anchor = None
    for eq in all_equilibria(p):
        if eq.kind in (EquilibriumKind.INTERIOR_HIGH,
                       EquilibriumKind.INTERIOR_DOUBLE):
            anchor = eq.location[0]
        if eq.in_domain:
            targets.append(_EqTarget(eq.id, eq.location[0], eq.location[1],
                                     classify(p, eq).attracting))
    return _Context(p, field_closure(p), targets, anchor)


def _target_within(targets: list[_EqTarget], rho2: float, u: float,
                   v: float) -> _EqTarget | None:
    """First target within sqrt(rho2) of (u, v)."""
    for t in targets:
        du, dv = u - t.u, v - t.v
        if du * du + dv * dv <= rho2:
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


def _refine_crossing(stepper: _Stepper, C: float) -> tuple[float, float, float]:
    """Bisect the dense output for the v = u + C crossing in the last step.

    The crossing may run either way: its direction comes from the step's
    ends, and g = v - u - C is split into g < 0 and g >= 0.  The returned
    time lies on the step end's side of that split.  Like
    ``_bisect_crossings`` it stops at the first halving that moves neither
    end, a fixed point of the rest of the 64.
    """
    lo, hi = stepper.prev_tau, stepper.tau
    up = stepper.prev_v - stepper.prev_u - C < stepper.v - stepper.u - C
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        u, v = stepper.state_at(mid)
        if (v - u - C < 0.0) == up:
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

    ``resume = (stepper, prev_cross_u, prev_cross_tau, prev_delta)``
    continues a trajectory from ``s0`` that was advanced elsewhere (NaN for
    a crossing or difference not seen yet): the seed test is skipped, and
    samples and the cycle segment start at the stepper's state.  A seed on
    the singular line u = -C ends at once as a step-size underflow.
    """
    targets = ctx.targets
    anchor = ctx.anchor
    C = ctx.p.C
    u0, v0 = float(s0[0]), float(s0[1])
    exit_u, exit_v = _exit_box(u0, v0, C)
    rho2 = cfg.rho_eq * cfg.rho_eq

    if resume is None:
        stepper = None
        prev_cross_u, prev_cross_tau, prev_delta = math.nan, 0.0, math.nan
        start = (0.0, u0, v0)
    else:
        stepper, prev_cross_u, prev_cross_tau, prev_delta = resume
        start = (stepper.tau, stepper.u, stepper.v)
    samples = [start] if want_samples else None
    segment = [start[1:]] if anchor is not None else None

    def finish(term, eq_id=None, cycle=None):
        taus = states = None
        if want_samples:
            taus = np.array([s[0] for s in samples])
            states = np.array([[s[1], s[2]] for s in samples])
        return Trajectory(taus, states, term, eq_id, cycle)

    if stepper is None:
        # the seed itself may already sit on an equilibrium
        try:
            fu, fv = ctx.f(u0, v0)
        except ZeroDivisionError:
            return finish(Termination.STEP_UNDERFLOW)
        if fu * fu + fv * fv < rho2:
            t = _target_within(targets, rho2, u0, v0)
            if t is not None:
                return finish(Termination.REACHED_EQUILIBRIUM, t.id)
        stepper = _Stepper(ctx.f, (u0, v0), cfg, cfg.tau_max)

    while stepper.step():
        u1, v1 = stepper.u, stepper.v
        if want_samples:
            samples.append((stepper.tau, u1, v1))
        if segment is not None:
            segment.append((u1, v1))
        if u1 > exit_u or v1 > exit_v:
            return finish(Termination.LEFT_DOMAIN)
        ku, kv = stepper.k1u, stepper.k1v
        if ku * ku + kv * kv < rho2:
            t = _target_within(targets, rho2, u1, v1)
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
        delta = u_c - prev_cross_u
        if _cycle_found(delta, prev_delta, u_c, anchor, cfg):
            segment.append((u_c, u_c + C))
            return finish(Termination.REACHED_CYCLE, cycle=Cycle(
                tau_c - prev_cross_tau, np.array(segment), (u_c, u_c + C),
                abs(delta)))
        prev_cross_u, prev_cross_tau, prev_delta = u_c, tau_c, delta
        segment = [(u_c, u_c + C)]

    if stepper.status == _Stepper.UNDERFLOW:
        return finish(Termination.STEP_UNDERFLOW)
    return finish(Termination.HORIZON_EXCEEDED)


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
# which bounds the working set.  On the same VM the CLI's peak RSS for a
# 73^2 raster is 2.6 MB above the scalar path's (4.7 MB with 4096 cells,
# which take 5-10% less time); a 400^2 raster peaks at 41 MB.
#
# ``basin.compute_basins`` splits a raster of more than one pool over up to
# one forked worker per CPU.  On the same VM a forced two-way split of the
# default-tolerance bistable raster, against one process (medians of 4
# alternating rounds), took 0.44 -> 0.43 s at 24^2, 0.55 -> 0.50 s at 32^2,
# 0.64 -> 0.58 s at 40^2, 0.75 -> 0.65 s at 46^2 and 1.70 -> 0.92 s at 70^2;
# other rounds saw the split lose at 24^2 and 32^2 (0.31 -> 0.40 s,
# 0.40 -> 0.45 s).  So a raster that fits one pool stays in process.
_POOL = 2048

# A section crossing waits with its step.  All waiting crossings are bisected
# in one batch when a waiting cell crosses again, when one ends while its
# crossing could have ended it (last difference below 10 rho_cyc), and
# before the hand-over; a bisection depends only on its own step.
#
# Rows of the lockstep state, one column per live cell: time, state, FSAL
# derivative, next step size, exit box, last section crossing (prey and
# time) and last crossing difference (NaN for none yet); then a crossing that
# waits: its step's start time (NaN for none), start state, size and
# stages k1, k3..k7.
(_TAU, _U, _V, _K1U, _K1V, _H, _XU, _XV, _PCU, _PCT, _PD,
 _QT, _QU, _QV, _QH, _QK) = range(16)
_ROWS = _QK + 12


def _bisect_crossings(C: float, prev_tau, prev, h, K):
    """``_refine_crossing`` on arrays, for upward crossings: the same
    halvings of each step, with ``state_at``'s operations per element.
    ``prev`` is (2, n), ``K`` the stages k1, k3..k7 as (6, 2, n).  Returns
    crossing times and prey values.
    """
    def state_at(tau_q, prev_tau, prev, h, K):
        th = (tau_q - prev_tau) / h
        b = th * (_P[:, 0] + th * (_P[:, 1] + th * (_P[:, 2] + th * _P[:, 3])))
        terms = b[:, None, :] * K
        acc = terms[0] + terms[1]
        for term in terms[2:]:
            acc += term
        return prev + h * acc

    # A halving that moves neither end is a fixed point of the next ones:
    # such cells leave with their bracket as it will stay.
    tau_c = np.empty(len(h))
    cells = np.arange(len(h))
    lo, hi = prev_tau, prev_tau + h
    now = prev_tau, prev, h, K
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        u, v = state_at(mid, *now)
        below = v - u - C < 0.0
        moved = below & (mid != lo) | ~below & (mid != hi)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if not moved.all():
            tau_c[cells[~moved]] = hi[~moved]
            cells, lo, hi = cells[moved], lo[moved], hi[moved]
            now = tuple(a[..., moved] for a in now)
            if not len(cells):
                break
    tau_c[cells] = hi
    return tau_c, state_at(tau_c, prev_tau, prev, h, K)[0]


def _lockstep(ctx: _Context, seeds: np.ndarray, cfg: IntegratorConfig,
              codes: dict[str, int], cycle_code: int) -> np.ndarray:
    """Label code of the forward limit set of each row of ``seeds``.

    ``codes`` maps the ids of attracting equilibria to their codes; other
    equilibria, the horizon, underflow and domain exit give 0.  Equal to
    :func:`classify_omega_limit` cell by cell, byte for byte.
    """
    n = len(seeds)
    labels = np.zeros(n, dtype=np.uint8)
    f, targets, anchor, C = ctx.f, ctx.targets, ctx.anchor, ctx.p.C
    rho2 = cfg.rho_eq * cfg.rho_eq
    tau_end, rtol, atol = cfg.tau_max, cfg.rel_tol, cfg.abs_tol

    def arrive(near, u, v, idx):
        """Label the cells of mask ``near`` that lie on a target, the first
        in table order, as ``_target_within`` does; returns their mask."""
        hit = np.zeros_like(near)
        for t in targets:
            du, dv = u - t.u, v - t.v
            new = near & ~hit & (du * du + dv * dv <= rho2)
            labels[idx[new]] = codes.get(t.id, 0)
            hit |= new
        return hit

    def admit(lo: int, hi: int):
        """State columns of seeds lo..hi-1 that do not start on a target."""
        us, vs = seeds[lo:hi, 0], seeds[lo:hi, 1]
        kus, kvs = f(us, vs)
        idx = np.arange(lo, hi)
        keep = ~arrive(kus * kus + kvs * kvs < rho2, us, vs, idx)
        block = np.full((_ROWS, hi - lo), math.nan)
        block[_TAU] = block[_PCT] = 0.0
        block[_U], block[_V], block[_K1U], block[_K1V] = us, vs, kus, kvs
        for i, (u, v, ku, kv) in enumerate(zip(us.tolist(), vs.tolist(),
                                               kus.tolist(), kvs.tolist())):
            block[_H, i] = _initial_step(u, v, ku, kv, cfg, tau_end)
            block[_XU, i], block[_XV, i] = _exit_box(u, v, C)
        return block[:, keep], idx[keep]

    def settle(state, done):
        """Bisect every waiting crossing and apply it with the section test
        of ``_drive``.  A return map found converged ends its cell as a
        cycle, at that crossing, whatever the cell did after it."""
        cols = np.flatnonzero(~np.isnan(state[_QT]))
        if not len(cols):
            return
        q = state[:, cols]
        tau_c, u_c = _bisect_crossings(C, q[_QT], q[_QU:_QH], q[_QH],
                                       q[_QK:].reshape(6, 2, -1))
        delta = u_c - q[_PCU]
        side = u_c > anchor
        cycle = side & _cycle_found(delta, q[_PD], u_c, anchor, cfg)
        moved = side & ~cycle
        for row, new in ((_PD, delta), (_PCU, u_c), (_PCT, tau_c)):
            state[row, cols[moved]] = new[moved]
        labels[cells[cols[cycle]]] = cycle_code
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
            # horizon or step underflow: Undecided, label stays 0
            done = ((tau >= tau_end)
                    | (h <= 1e-13 * np.maximum(1.0, np.abs(tau))))
            u5, v5, eu, ev, ks = _dp_attempt(f, h, u0, v0, state[_K1U],
                                             state[_K1V])
            scu = atol + rtol * np.maximum(np.abs(u0), np.abs(u5))
            scv = atol + rtol * np.maximum(np.abs(v0), np.abs(v5))
            ru, rv = eu / scu, ev / scv
            errn = np.sqrt(0.5 * (ru * ru + rv * rv))
            # float_power calls the C library's pow, as Python's ** does;
            # np.power may use a SIMD pow that differs in the last bit
            grow = _SAFETY * np.float_power(errn, -0.2)
            # a division by zero in a stage shows here as a non-finite
            # norm, which the scalar path rejects by the same factor
            bad = ~np.isfinite(errn)
            big = errn > 1.0
            acc = ~(done | bad | big | (u5 < 0.0) | (v5 < 0.0))
            factor = np.where(
                acc,
                np.where(errn == 0.0, _MAX_FACTOR,
                         np.minimum(_MAX_FACTOR,
                                    np.maximum(_MIN_FACTOR, grow))),
                np.where(bad, 0.25,
                         np.where(big, np.maximum(_MIN_FACTOR, grow), 0.5)))
            k7u, k7v = ks[10], ks[11]

            left = acc & ((u5 > state[_XU]) | (v5 > state[_XV]))
            done |= left
            near = acc & ~left & (k7u * k7u + k7v * k7v < rho2)
            if near.any():
                done |= arrive(near, u5, v5, cells)
            if anchor is not None:
                waiting = ~np.isnan(state[_QT])
                g0 = v0 - u0 - C
                g1 = v5 - u5 - C
                ci = np.flatnonzero(acc & ~done & (g0 < 0.0) & (g1 >= 0.0))
                # a waiting crossing goes before its cell's next crossing,
                # and before its cell's end whenever it could have ended it
                if waiting[ci].any() or (
                        waiting & done
                        & (np.abs(state[_PD]) < 10.0 * cfg.rho_cyc)).any():
                    settle(state, done)
                    ci = ci[~done[ci]]
                if len(ci):
                    state[_QT, ci] = tau[ci]
                    state[_QU, ci] = u0[ci]
                    state[_QV, ci] = v0[ci]
                    state[_QH, ci] = h[ci]
                    state[_QK:, ci] = np.stack([k[ci] for k in ks])

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
        tau, u, v, k1u, k1v, h, _, _, last_u, last_tau, last_delta = col
        stepper = _Stepper(f, (u, v), cfg, tau_end, tau=tau, k1=(k1u, k1v),
                           h=h)
        res = _drive(ctx, seeds[cell], cfg, want_samples=False,
                     resume=(stepper, last_u, last_tau, last_delta))
        if res.termination is Termination.REACHED_EQUILIBRIUM:
            labels[cell] = codes.get(res.equilibrium_id, 0)
        elif res.termination is Termination.REACHED_CYCLE:
            labels[cell] = cycle_code
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
    a saddle or a degenerate point is reported as Undecided), LimitCycle when
    the return map on v = u + C converges to a fixed point away from the
    interior equilibrium (its differences fall below ``rho_cyc`` and
    contract, or flip sign at the integrator's noise floor), and Undecided
    at the horizon or on underflow.
    """
    cfg = cfg or IntegratorConfig()
    ctx = _context(p)
    res = _drive(ctx, s0, cfg, want_samples=False)
    if res.termination is Termination.REACHED_EQUILIBRIUM:
        for t in ctx.targets:
            if t.id == res.equilibrium_id and t.attracting:
                return AttractorLabel(AttractorTag.EQUILIBRIUM, t.id)
        return AttractorLabel.undecided()
    if res.termination is Termination.REACHED_CYCLE:
        return AttractorLabel(AttractorTag.LIMIT_CYCLE, "cycle")
    return AttractorLabel.undecided()


def find_limit_cycle(p: Params, seed: State,
                     cfg: IntegratorConfig | None = None) -> Cycle | None:
    """Locate a stable limit cycle reached from ``seed``, if any.

    Iterates crossings of the section v = u + C (through the interior
    equilibrium, along direction (1, 1)) until successive crossings differ by
    less than ``rho_cyc`` and their differences contract or, at the
    integrator's noise floor, change sign.  Returns None when crossings run
    into an equilibrium or the horizon, or when no interior anchor exists.

    ``Cycle.residual`` is that last difference, not the crossing's distance
    from the cycle: at Params(0.04, 0.082, 0.45, 0.07), rel_tol 1e-6 and
    abs_tol 1e-9 it reads 4.5e-8, and the map's fixed point is 1.1e-6 away.
    """
    cfg = cfg or IntegratorConfig()
    ctx = _context(p)
    if ctx.anchor is None:
        return None
    return _drive(ctx, seed, cfg, want_samples=False).cycle

