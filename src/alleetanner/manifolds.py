"""Saddle eigen-directions, invariant-manifold tracing and the homoclinic gap.

Stable manifolds are traced by time reversal of the field.  Branches are
named by the orientation of the seeding eigenvector: both eigenvectors of an
interior saddle have strictly positive components, so "up-right" means the
+eigenvector seed and "down-left" its negation.

With two interior points present, the down-left stable branch of the saddle
P1 runs to (M, 0) (or to the origin under a weak Allee effect) and the
up-right stable branch either leaves the trapping box or wraps around P2;
together they form the separatrix between the basins of (0, C) and P2.  The
homoclinic gap is measured on the section v = u + C beyond P2: it is the
signed distance between the first section crossings of the up-right unstable
branch (traced forward) and the up-right stable branch (traced backward),
positive when the unstable branch crosses outside the stable one, zero at a
homoclinic connection.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

# perfbench/tracing.py counts calls by rebinding names in this module, so
# these stay bound: all_equilibria and field_closure (not called here, the
# targets and the field come from flow._context) and _refine_section
# (flow's section locator, under the name the tracer wraps)
from .equilibria import Equilibrium, all_equilibria, interior_equilibria
from .flow import IntegratorConfig, _arrival, _Context, _context, _Stepper
from .flow import _refine_crossing as _refine_section
from .model import Matrix, Params, State, _real_eigenvalues, \
    _unit_eigenvector, field_closure, jacobian, vector_field
from .stability import StabilityTag, classify

BOX_MARGIN = 0.05          # enlargement of the trapping box for clipping
_EIG_RESIDUAL = 1e-10
_ESCAPE_RADIUS = 1e-3      # base counts as a target only after escaping this
_SEED_OFFSET = 1e-6        # seed distance from the saddle along an eigenvector
_MAX_ARC = 100.0           # arc length at which a branch is cut and flagged


class GapUndefinedError(RuntimeError):
    """A manifold branch left the box before crossing the section."""


class BranchKind(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


class BranchDirection(enum.Enum):
    UP_RIGHT = "up_right"
    DOWN_LEFT = "down_left"


class BranchTermination(enum.Enum):
    REACHED_EQUILIBRIUM = "reached_equilibrium"
    LEFT_BOX = "left_box"
    ARC_BUDGET = "arc_budget"
    HORIZON = "horizon"
    STEP_UNDERFLOW = "step_underflow"


@dataclass(frozen=True)
class ManifoldBranch:
    base_id: str
    base: State
    kind: BranchKind
    direction: BranchDirection
    polyline: list[State]      # first point is base + h*eigenvector
    arclength: list[float]     # cumulative arc length per vertex
    termination: BranchTermination
    equilibrium_id: str | None = None


@dataclass(frozen=True)
class Separatrix:
    """Both stable branches of the interior saddle, clipped to [0,1]^2."""

    polyline: list[State]
    saddle: State


def _saddle_eigvecs(J: Matrix) -> tuple[State, State, float, float]:
    """(stable vec, unstable vec, stable eigval, unstable eigval) of a 2x2.

    Raises ValueError unless the eigenvalues are real with opposite signs.
    Vectors are unit length, oriented to positive u-component (positive
    v-component when the u-component vanishes).
    """
    lams = _real_eigenvalues(J)
    if not lams[0] < 0.0 < lams[1]:
        raise ValueError(f"eigenvalues {lams} do not straddle zero")
    (a, b), (c, d) = J
    out = []
    for lam in lams:
        x, y = _unit_eigenvector(J, lam)
        if x < 0.0 or (x == 0.0 and y < 0.0):
            x, y = -x, -y
        resid = math.hypot(a * x + b * y - lam * x, c * x + d * y - lam * y)
        if resid > _EIG_RESIDUAL:
            raise ValueError(f"eigenvector residual {resid:.2e} too large")
        out.append((x, y))
    return out[0], out[1], lams[0], lams[1]


def saddle_directions(p: Params, e: Equilibrium) -> tuple[State, State]:
    """Unit stable and unstable eigenvectors of the Jacobian at a saddle."""
    if classify(p, e).tag is not StabilityTag.SADDLE:
        raise ValueError(f"{e.id} at {e.location} is not a saddle")
    vs, vu, _, _ = _saddle_eigvecs(jacobian(p, e.location))
    return vs, vu


def _newton_polish(p: Params, x: State) -> State:
    """One Newton step of the field onto the exact equilibrium, by
    Cramer's rule; ``x`` itself when the Jacobian is singular."""
    (a, b), (c, d) = jacobian(p, x)
    det = a * d - b * c
    if det == 0.0:
        return x
    fu, fv = vector_field(p, x)
    return x[0] - (fu * d - b * fv) / det, x[1] - (a * fv - c * fu) / det


def _saddle_frame(p: Params, e: Equilibrium) -> tuple[State, State, State]:
    """The saddle's polished base and its unit stable and unstable vectors."""
    vs, vu = saddle_directions(p, e)
    return _newton_polish(p, e.location), vs, vu


class _TraceResult:
    __slots__ = ("points", "arcs", "termination", "equilibrium_id",
                 "crossing")

    def __init__(self):
        self.points = []
        self.arcs = []
        self.termination = BranchTermination.HORIZON
        self.equilibrium_id = None
        self.crossing = None   # (tau, u, v) of first section crossing


def _trace(ctx: _Context, frame: tuple, kind: BranchKind,
           direction: BranchDirection, cfg: IntegratorConfig,
           max_arc: float = _MAX_ARC, section: bool = False) -> _TraceResult:
    """Seed one branch of a saddle from its frame and march it until an
    event; with ``section``, stop at the first crossing of v = u + C beyond
    the section's anchor, the only part of the branch the gap reads."""
    base, vs, vu = frame
    x, y = vs if kind is BranchKind.STABLE else vu
    if direction is BranchDirection.DOWN_LEFT:
        x, y = -x, -y
    seed = (base[0] + _SEED_OFFSET * x, base[1] + _SEED_OFFSET * y)
    res = _TraceResult()
    if kind is BranchKind.STABLE:
        def f(u, v, _f0=ctx.f):
            du, dv = _f0(u, v)
            return -du, -dv
    else:
        f = ctx.f
    C = ctx.p.C
    u_hi = 1.0 + BOX_MARGIN
    v_hi = 1.0 + C + BOX_MARGIN
    rho2 = cfg.rho_eq * cfg.rho_eq
    # the base is no target until the branch has escaped it; the field
    # vanishes at an equilibrium
    away = [t for t in ctx.targets
            if _arrival([t], [], rho2, *base, 0.0, 0.0) is None]
    targets = away
    arc = 0.0
    res.points.append(seed)
    res.arcs.append(0.0)
    stepper = _Stepper(f, seed, cfg, cfg.tau_max, quadrant=False)
    while stepper.step():
        u1, v1 = stepper.u, stepper.v
        arc += math.hypot(u1 - stepper.prev_u, v1 - stepper.prev_v)
        res.points.append((u1, v1))
        res.arcs.append(arc)
        if targets is away and ((u1 - base[0]) ** 2 + (v1 - base[1]) ** 2
                                > _ESCAPE_RADIUS ** 2):
            targets = ctx.targets
        if section:
            g0 = stepper.prev_v - stepper.prev_u - C
            g1 = v1 - u1 - C
            if (g0 < 0.0) != (g1 < 0.0):
                tau_c, u_c, v_c = _refine_section(stepper, C)
                if u_c > ctx.anchor:
                    res.crossing = (tau_c, u_c, v_c)
                    return res
        if u1 < -1e-9 or v1 < -1e-9 or u1 > u_hi or v1 > v_hi:
            res.termination = BranchTermination.LEFT_BOX
            return res
        t = _arrival(targets, [], rho2, u1, v1, stepper.k1u, stepper.k1v)
        if t is not None:
            res.termination = BranchTermination.REACHED_EQUILIBRIUM
            res.equilibrium_id = t.id
            return res
        if arc >= max_arc:
            res.termination = BranchTermination.ARC_BUDGET
            return res
    if stepper.underflow:
        res.termination = BranchTermination.STEP_UNDERFLOW
    return res


def trace_manifold(p: Params, e: Equilibrium, kind: BranchKind,
                   direction: BranchDirection,
                   cfg: IntegratorConfig | None = None,
                   max_arc: float = _MAX_ARC) -> ManifoldBranch:
    """Trace one manifold branch of a saddle.

    The base is polished by one Newton step, then seeded 1e-6 along the
    (oriented) eigenvector; stable branches integrate the time-reversed
    field.  Budget exhaustion is flagged and the partial polyline
    returned.
    """
    ctx = _context(p)
    frame = _saddle_frame(p, e)
    res = _trace(ctx, frame, kind, direction, cfg or IntegratorConfig(),
                 max_arc)
    return ManifoldBranch(e.id, frame[0], kind, direction, res.points,
                          res.arcs, res.termination, res.equilibrium_id)


def _interior_saddle(p: Params) -> Equilibrium:
    """P1: the lower of two interior equilibria, which must be a saddle."""
    eqs = interior_equilibria(p)
    if len(eqs) != 2:
        raise GapUndefinedError(
            f"need two interior equilibria, found {len(eqs)}")
    if classify(p, eqs[0]).tag is not StabilityTag.SADDLE:
        raise GapUndefinedError("the lower interior point is not a saddle")
    return eqs[0]


def homoclinic_gap(p: Params, cfg: IntegratorConfig | None = None) -> float:
    """Signed section distance between the returning manifold crossings.

    Positive when the unstable branch crosses v = u + C (beyond P2) outside
    the stable branch's crossing; zero at a homoclinic connection.  Raises
    GapUndefinedError when P1/P2 are missing or either branch leaves the box
    without crossing.
    """
    ctx = _context(p)   # its anchor is P2's prey value
    cfg = cfg or IntegratorConfig()
    frame = _saddle_frame(p, _interior_saddle(p))
    crossing_u = []
    for kind in (BranchKind.UNSTABLE, BranchKind.STABLE):
        res = _trace(ctx, frame, kind, BranchDirection.UP_RIGHT, cfg,
                     section=True)
        if res.crossing is None:
            raise GapUndefinedError(
                f"{kind.value} branch ended ({res.termination.value}) before "
                "crossing the section")
        crossing_u.append(res.crossing[1])
    return math.sqrt(2.0) * (crossing_u[0] - crossing_u[1])


def _clip_to_unit_box(points: list[State]) -> list[State]:
    """Clip an ordered polyline to [0,1]^2, inserting edge intersections.

    A point within 1e-15 in both coordinates of the point before it is
    dropped."""

    def inside(q):
        return 0.0 <= q[0] <= 1.0 and 0.0 <= q[1] <= 1.0

    def crossings(a, b):
        # parametric clip of segment a->b against the four box edges
        ts = []
        d = (b[0] - a[0], b[1] - a[1])
        for dim in (0, 1):
            if d[dim] != 0.0:
                for edge in (0.0, 1.0):
                    t = (edge - a[dim]) / d[dim]
                    if 0.0 < t < 1.0:
                        q = (a[0] + t * d[0], a[1] + t * d[1])
                        if -1e-12 <= q[1 - dim] <= 1.0 + 1e-12:
                            ts.append((t, (min(max(q[0], 0.0), 1.0),
                                           min(max(q[1], 0.0), 1.0))))
        ts.sort(key=lambda e: e[0])
        return [q for _, q in ts]

    out: list[State] = []
    for i, q in enumerate(points):
        if i > 0 and not (inside(points[i - 1]) and inside(q)):
            out.extend(crossings(points[i - 1], q))
        if inside(q):
            out.append(q)
    return [q for i, q in enumerate(out)
            if i == 0 or abs(q[0] - out[i - 1][0]) > 1e-15
            or abs(q[1] - out[i - 1][1]) > 1e-15]


def separatrix(p: Params, cfg: IntegratorConfig | None = None) -> Separatrix:
    """Union of both stable branches of the interior saddle, clipped to Phi.

    The polyline is ordered along the curve: down-left branch end, through
    the saddle, out the up-right branch end.
    """
    ctx = _context(p)
    cfg = cfg or IntegratorConfig()
    frame = _saddle_frame(p, _interior_saddle(p))
    down = _trace(ctx, frame, BranchKind.STABLE, BranchDirection.DOWN_LEFT,
                  cfg)
    up = _trace(ctx, frame, BranchKind.STABLE, BranchDirection.UP_RIGHT, cfg)
    curve = down.points[::-1] + [frame[0]] + up.points
    return Separatrix(_clip_to_unit_box(curve), frame[0])
