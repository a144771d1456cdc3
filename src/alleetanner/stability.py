"""Analytic stability classification of equilibria and the S thresholds.

On the predator nullcline the Jacobian reduces to

    J(u, u+C) = [[u*(1+M-2u), -Q*u], [S, -S]]

so  det = S*u*(2u - (1+M-Q))  and  trace = u*(1+M-2u) - S.  Every stability
threshold in the model is the trace-zero value sigma(u) = u*(1+M-2u) at the
relevant interior root:

    S1 = sigma(u2)   two interior points (Hopf value of the larger root)
    S2 = sigma(E)    fold point E = (1+M-Q)/2, equals Q*(1+M-Q)/2
    S3 = sigma(u3)   case W2c root u3 = 1+M-Q
    S4 = sigma(u4)   case W2d root u4 = sqrt(-(M+CQ))

Note on S1: the closed form used here is (1/2)*(1+M-Q+sqrt(D))*(Q-sqrt(D)).
The variant with (Q+sqrt(D)) in the last factor does not zero the trace at
u2 and is kept out; `sigma` is the ground truth either way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .equilibria import CaseLabel, Equilibrium, EquilibriumKind, case_label, \
    discriminant
from .model import EPS_CASE, Params, State, hessian_bound, jacobian, \
    vector_field

# Hyperbolicity tolerance: det/trace within this of zero -> NonHyperbolic.
EPS_CLASS = 1e-9

# Residual above which a point is rejected as "not an equilibrium of p".
# Looser than machine precision so that fold points constructed with an
# inflated case tolerance still pass.
RESIDUAL_REJECT = 1e-8


class ThresholdUndefinedError(ValueError):
    """Raised when a threshold is requested outside its parameter regime."""


class StabilityTag(enum.Enum):
    SADDLE = "saddle"
    REPELLER = "repeller"
    ATTRACTOR = "attractor"
    SADDLE_NODE_ATTRACTOR = "saddle_node_attractor"
    SADDLE_NODE_REPELLER = "saddle_node_repeller"
    CUSP_BT = "cusp_bt"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class Classification:
    tag: StabilityTag
    focus: bool | None  # node-vs-focus for attractor/repeller, else None
    det: float
    trace: float

    @property
    def attracting(self) -> bool:
        return self.tag in (StabilityTag.ATTRACTOR,
                            StabilityTag.SADDLE_NODE_ATTRACTOR)

    def describe(self) -> str:
        name = self.tag.value.replace("_", " ").replace("cusp bt",
                                                        "cusp (Bogdanov-Takens)")
        if self.focus is None:
            return name
        return f"{name} ({'focus' if self.focus else 'node'})"


def sigma(p: Params, u: float) -> float:
    """Trace-zero value u*(1+M-2u); the trace at (u, u+C) is sigma - S."""
    return u * (1.0 + p.M - 2.0 * u)


def _det_trace(p: Params, e: Equilibrium) -> tuple[float, float]:
    M, S, Q, C = p
    kind = e.kind
    if kind is EquilibriumKind.ORIGIN:
        return -M * S, S - M
    if kind is EquilibriumKind.PREY_K:
        return -(1.0 - M) * S, (M - 1.0) + S
    if kind is EquilibriumKind.PREY_ALLEE:
        return S * M * (1.0 - M), M * (1.0 - M) + S
    if kind is EquilibriumKind.PREDATOR_ONLY:
        return S * (M + Q * C), -(M + C * Q + S)
    u = e.location[0]
    return S * u * (2.0 * u - (1.0 + M - Q)), sigma(p, u) - S


def classify(p: Params, e: Equilibrium) -> Classification:
    """Classify an equilibrium of ``p`` from closed-form det/trace.

    Raises ValueError when ``e`` is not an equilibrium of ``p`` (residual
    check) or lies on the singular line u = -C, where the field is not
    defined: (M, 0), off the domain, when M = -C.  Points within
    ``EPS_CLASS`` of a degeneracy are reported as NonHyperbolic rather than
    guessed, except multiplicity-2 points, which get the saddle-node/cusp
    side rule on the trace sign.
    """
    if e.location[0] + p.C == 0.0:
        raise ValueError(f"{e.location} lies on the singular line u = -C "
                         f"for {p}")
    fu, fv = vector_field(p, e.location)
    if math.hypot(fu, fv) > RESIDUAL_REJECT:
        raise ValueError(
            f"{e.location} is not an equilibrium for {p} "
            f"(residual {math.hypot(fu, fv):.3e})")
    det, trace = _det_trace(p, e)

    if e.multiplicity == 2:
        if trace < -EPS_CLASS:
            return Classification(StabilityTag.SADDLE_NODE_ATTRACTOR, None,
                                  det, trace)
        if trace > EPS_CLASS:
            return Classification(StabilityTag.SADDLE_NODE_REPELLER, None,
                                  det, trace)
        return Classification(StabilityTag.CUSP_BT, None, det, trace)

    if det < -EPS_CLASS:
        return Classification(StabilityTag.SADDLE, None, det, trace)
    if det <= EPS_CLASS or abs(trace) <= EPS_CLASS:
        return Classification(StabilityTag.NON_HYPERBOLIC, None, det, trace)
    focus = trace * trace - 4.0 * det < 0.0
    tag = StabilityTag.REPELLER if trace > 0.0 else StabilityTag.ATTRACTOR
    return Classification(tag, focus, det, trace)


def lyapunov_matrix(J) -> tuple[float, float, float] | None:
    """(P11, P12, P22) of the symmetric P that solves J^T P + P J = -I for a
    2x2 ``J`` with trace < -EPS_CLASS and det > EPS_CLASS (Hurwitz, and not
    what :func:`classify` calls non-hyperbolic), else None.

    For J = [[a, b], [c, d]] the solution is, in closed form,
    [[det + c^2 + d^2, -(ac + bd)], [-(ac + bd), det + a^2 + b^2]] over
    -2 trace det; V(y) = y^T P y is then a quadratic Lyapunov function of
    the linearization (Khalil, Nonlinear Systems, 3rd ed., 4.3).
    """
    (a, b), (c, d) = J
    tr, det = a + d, a * d - b * c
    if not (tr < -EPS_CLASS and det > EPS_CLASS):   # NaN fails too
        return None
    k = -0.5 / (tr * det)
    return k * (det + c * c + d * d), -k * (a * c + b * d), \
        k * (det + a * a + b * b)


def trapping_radius(p: Params, state: State) -> float:
    """Radius r of a disc about the equilibrium ``state`` whose every point
    flows into it; 0.0 when none is certified (a Jacobian that is not
    Hurwitz: saddles, repellers, degenerate points).

    With P from :func:`lyapunov_matrix` of the Jacobian A, eigenvalues
    lmin <= lmax, and L the :func:`model.hessian_bound` on the disc of
    radius rho, the Taylor remainder R(y) of the field obeys |R| <= L|y|^2/2,
    so dV/dt = -|y|^2 + 2 y^T P R(y) <= -|y|^2 (1 - lmax L |y|) <= -|y|^2/2
    for |y| <= rho = 1/(2 lmax L) (Khalil, 8.2).  rho is found by halving
    from (u + C)/2, which keeps u + C > 0 on the disc.  The sublevel set
    V <= lmin rho^2 lies in that disc, so it is positively invariant and
    every trajectory in it converges to the equilibrium; it contains the
    disc of radius r = rho sqrt(lmin/lmax).
    """
    A = jacobian(p, state)
    P = lyapunov_matrix(A)
    if P is None:
        return 0.0
    p11, p12, p22 = P
    tr = p11 + p22
    lam_max = 0.5 * tr + math.hypot(0.5 * (p11 - p22), p12)
    # det P = tr P / (2 |tr A|) in the closed form: lmin without cancellation
    lam_min = tr / (-2.0 * (A[0][0] + A[1][1]) * lam_max)
    rho = 0.5 * (state[0] + p.C)
    while 2.0 * lam_max * hessian_bound(p, state, rho) * rho > 1.0:
        rho *= 0.5
    return rho * math.sqrt(lam_min / lam_max)


def threshold_S1(p: Params, eps: float = EPS_CASE) -> float:
    """Hopf value of the larger interior root: (1/2)(1+M-Q+sqrt(D))(Q-sqrt(D)).

    Defined whenever that root exists (two-point cases and the one-point
    case W2b); at the fold it limits continuously to S2.
    """
    label = case_label(p, eps)
    if label not in (CaseLabel.S1AII, CaseLabel.W2AII, CaseLabel.W2B,
                     CaseLabel.S1AIII, CaseLabel.W2AIII):
        raise ThresholdUndefinedError(
            f"S1 undefined in case {label.value}: no P2-type equilibrium")
    sd = math.sqrt(max(discriminant(p), 0.0))
    return 0.5 * (1.0 + p.M - p.Q + sd) * (p.Q - sd)


def threshold_S2(p: Params, eps: float = EPS_CASE) -> float:
    """Fold-point trace-zero value Q*(1+M-Q)/2; defined on Delta = 0."""
    if abs(discriminant(p)) > eps:
        raise ThresholdUndefinedError(
            f"S2 undefined off the fold locus (Delta={discriminant(p):.3e})")
    return 0.5 * p.Q * (1.0 + p.M - p.Q)


def threshold_S3(p: Params, eps: float = EPS_CASE) -> float:
    """Case W2c threshold -(1+M-Q)*(1+M-2Q)."""
    if case_label(p, eps) is not CaseLabel.W2C:
        raise ThresholdUndefinedError("S3 is defined only in case W2c")
    a = 1.0 + p.M - p.Q
    return -a * (1.0 + p.M - 2.0 * p.Q)


def threshold_S4(p: Params, eps: float = EPS_CASE) -> float:
    """Case W2d threshold sqrt(-M-CQ)*(Q - 2*sqrt(-M-CQ))."""
    if case_label(p, eps) is not CaseLabel.W2D:
        raise ThresholdUndefinedError("S4 is defined only in case W2d")
    root = math.sqrt(-(p.M + p.C * p.Q))
    return root * (p.Q - 2.0 * root)


def hopf_threshold(p: Params, eps: float = EPS_CASE) -> float | None:
    """Trace-zero S of the interior attractor/repeller root, or None.

    Unifies S1/S3/S4 across the case tree: it is sigma at the largest
    interior root, whatever case supplied it.
    """
    label = case_label(p, eps)
    if label.interior_count == 0:
        return None
    if label is CaseLabel.W2C:
        return threshold_S3(p, eps)
    if label is CaseLabel.W2D:
        return threshold_S4(p, eps)
    if label in (CaseLabel.S1AIII, CaseLabel.W2AIII):
        return threshold_S2(p, eps)
    return threshold_S1(p, eps)


def is_global_extinction(p: Params, eps: float = EPS_CASE) -> bool:
    """True iff no interior equilibria exist, so (0, C) attracts everything.

    Holds when (1+M-Q>0, M+CQ>0, Delta<0) or (1+M-Q<=0, M+CQ>=0).
    """
    return case_label(p, eps).interior_count == 0
