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

An attracting equilibrium also gets a trapping disc (`trapping_radius`):
a disc inside a sublevel set of the quadratic Lyapunov function of its
linearization (`lyapunov_matrix`) on which the exact Taylor remainder of
the field, bounded sector by sector of directions, still leaves dV/dt < 0.
Everything here is closed-form arithmetic on plain floats, so the scalar
commands that classify run without numpy.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .equilibria import CaseLabel, Equilibrium, EquilibriumKind, case_label, \
    discriminant
from .model import EPS_CASE, Params, State, jacobian, vector_field

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


# trapping_radius cuts the circle of directions into this many equal
# sectors.  A multiple of 4, so that the axes are sector edges.
_SECTORS = 64

# trapping_radius holds 2 y^T P R(y) to at most this share of |y|^2, so
# that dV/dt <= -0.26 |y|^2 in the certified set: the bar -|y|^2/4, with
# room left for the rounding of the bounds and of the cubic's root.
_REMAINDER_SHARE = 0.74

# Exponents (a, b) of the direction monomials cos^a sin^b that the
# certificate's coefficients are sums of, in the columns of _sector_table.
_MONOMIALS = ((3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1), (2, 0), (1, 1),
              (0, 2), (1, 0))


@functools.cache
def _sector_table() -> tuple[tuple[float, ...], ...]:
    """Per sector, the (min, max) of each of ``_MONOMIALS`` in turn over the
    sector's angles: monomial m has its min in column 2m and its max in
    column 2m + 1.  Each range comes from the monomial's values at the
    sector's ends and at any turn inside, where tan^2 = b/a; its other
    turns lie on the axes, which are sector edges.  Built on the first
    certificate, so that importing the module stays cheap."""
    def values(t: float) -> list[float]:
        c, s = math.cos(t), math.sin(t)
        return [c ** a * s ** b for a, b in _MONOMIALS]

    edges = [2.0 * math.pi * j / _SECTORS for j in range(_SECTORS + 1)]
    ends = [values(t) for t in edges]
    turns = []   # (angle, column, value)
    for m, (a, b) in enumerate(_MONOMIALS):
        if a and b:
            r = math.atan(math.sqrt(b / a))
            for t in (r, math.pi - r, math.pi + r, 2.0 * math.pi - r):
                turns.append((t, m, values(t)[m]))
    table = []
    for j in range(_SECTORS):
        lo = list(map(min, ends[j], ends[j + 1]))
        hi = list(map(max, ends[j], ends[j + 1]))
        for t, m, x in turns:
            if edges[j] < t < edges[j + 1]:
                lo[m], hi[m] = min(lo[m], x), max(hi[m], x)
        table.append(tuple(x for pair in zip(lo, hi) for x in pair))
    return tuple(table)


def trapping_radius(p: Params, state: State) -> float:
    """Radius r of a disc about the equilibrium ``state`` whose every point
    flows into it; 0.0 when none is certified (a Jacobian that is not
    Hurwitz: saddles, repellers, degenerate points).

    With P from :func:`lyapunov_matrix` of the Jacobian A, y = x - x* and
    V = y^T P y, dV/dt = -|y|^2 + 2 y^T P R(y), where the Taylor remainder
    R of the field is exact: with w = u* + C,

        R_u = ((1 + M) - 3u*) y1^2 - Q y1 y2 - y1^3,
        R_v = -S (w y2 - v* y1)^2 / (w^2 (w + y1)).

    On the ray y = t e, e = (cos, sin), that makes
    2 y^T P R / |y|^2 = 2t (alpha + beta t + gamma / (w + t cos)), where
    alpha, beta and gamma are sums of monomials cos^a sin^b with
    coefficients from P and the point.  On each of ``_SECTORS`` sectors of
    directions, each monomial's range (``_sector_table``) bounds them from
    above, and cos's range bounds the last denominator from below (above
    for gamma < 0).  The bounds make the test 2t (...) <= k, with
    k = ``_REMAINDER_SHARE``, a cubic p(t) <= 0 with p(0) < 0, which holds
    up to p's first positive root: 1/s for the largest real root s of p's
    reversal in s = 1/t, in closed form (no root when s <= 0).  That root,
    capped where the ray stays within u + C >= w/2, is the sector's reach
    T; e^T P e >= q on the sector, bounded below the same way and by lmin.
    Every point of the sublevel set V <= c, c = min over sectors of q T^2,
    is then within its sector's reach, so dV/dt <= -(1 - k)|y|^2 there:
    the set is positively invariant and every trajectory in it converges
    to the equilibrium (Khalil, Nonlinear Systems, 3rd ed., 8.2).  It
    contains the disc of radius r = sqrt(c / lmax).
    """
    bounds = _sector_bounds(p, state)
    if bounds is None:
        return 0.0
    lam_max, sectors = bounds
    level = min(q * reach * reach for _, _, _, _, q, reach in sectors)
    return math.sqrt(level / lam_max)


def _sector_bounds(p: Params, state: State):
    """The bounds that :func:`trapping_radius` certifies with, or None for
    a Jacobian that is not Hurwitz: (lmax, sectors), where sector j of
    ``_SECTORS`` holds (al, be, ga, d, q, reach) for the directions
    e = (cos, sin) with angles between 2 pi j/``_SECTORS`` and
    2 pi (j + 1)/``_SECTORS``:

    * al >= 2 alpha/k and be >= 2 beta/k;
    * ga/(1 + d t) >= 2 gamma/(k (w + t cos)) for 0 <= t <= reach;
    * q <= e^T P e;
    * reach, the sector's reach T (0.0 for a cubic that is not finite).
    """
    A = jacobian(p, state)
    P = lyapunov_matrix(A)
    if P is None:
        return None
    p11, p12, p22 = P
    tr = p11 + p22
    lam_max = 0.5 * tr + math.hypot(0.5 * (p11 - p22), p12)
    # det P = tr P / (2 |tr A|) in the closed form: lmin without cancellation
    lam_min = tr / (-2.0 * (A[0][0] + A[1][1]) * lam_max)
    M, S, Q, C = p
    u, v = state
    w = u + C
    a = 1.0 + M - 3.0 * u
    # alpha, beta and gamma times 2/k (gamma also over w), and -e^T P e, as
    # coefficients of the monomials cos^3, cos^2 sin, cos sin^2, sin^3,
    # cos^4, cos^3 sin, cos^2, cos sin and sin^2 (columns 0 to 8)
    two_k = 2.0 / _REMAINDER_SHARE
    g = two_k * S / (w * w * w)
    terms = ((two_k * p11 * a, 0), (two_k * (p12 * a - p11 * Q), 1),
             (-two_k * p12 * Q, 2),
             (-two_k * p11, 4), (-two_k * p12, 5),
             (-g * p12 * v * v, 0), (-g * v * (p22 * v - 2.0 * p12 * w), 1),
             (-g * w * (p12 * w - 2.0 * p22 * v), 2), (-g * p22 * w * w, 3),
             (-p11, 6), (-2.0 * p12, 7), (-p22, 8))
    # each term's column of the sector table that bounds it from above
    (x1, i1), (x2, i2), (x3, i3), (x4, i4), (x5, i5), (x6, i6), (x7, i7), \
        (x8, i8), (x9, i9), (x10, i10), (x11, i11), (x12, i12) = (
            (x, 2 * m + (x > 0.0)) for x, m in terms)
    iw, half_w = 1.0 / w, 0.5 * w
    inf, sqrt, cos, acos = math.inf, math.sqrt, math.cos, math.acos
    sectors = []
    for row in _sector_table():
        al = x1 * row[i1] + x2 * row[i2] + x3 * row[i3]
        be = x4 * row[i4] + x5 * row[i5]
        ga = x6 * row[i6] + x7 * row[i7] + x8 * row[i8] + x9 * row[i9]
        q = -(x10 * row[i10] + x11 * row[i11] + x12 * row[i12])
        cos_lo = row[18]
        d = (cos_lo if ga >= 0.0 else row[19]) * iw
        # p(t)/(k w) = (be t^2 + al t - 1)(1 + d t) + ga t; its reversal,
        # over its leading coefficient -1, is s^3 + b s^2 + c s + e, and
        # s = x - b/3 makes it x^3 + 3 p3 x + 2 h
        b, c, e = d - al - ga, -(be + al * d), -be * d
        sh = b / 3.0
        p3 = (c - b * sh) / 3.0
        h = 0.5 * (e - sh * (c - 2.0 * sh * sh))
        disc = h * h + p3 * p3 * p3
        if not abs(disc) < inf:
            reach = 0.0
        else:
            if disc > 0.0:   # one real root (Cardano, without cancellation)
                z = (abs(h) + sqrt(disc)) ** (1.0 / 3.0)
                if h > 0.0:
                    z = -z
                s = z - p3 / z - sh
            else:            # three: the largest of the trigonometric form
                r = sqrt(-p3)
                cos3 = -h / (r * r * r) if r else 0.0
                cos3 = -1.0 if cos3 < -1.0 else 1.0 if cos3 > 1.0 else cos3
                s = 2.0 * r * cos(acos(cos3) / 3.0) - sh
            reach = 1.0 / s if s > 0.0 else inf
            if cos_lo < 0.0 and reach * cos_lo < -half_w:
                reach = -half_w / cos_lo
        if q < lam_min:
            q = lam_min
        sectors.append((al, be, ga, d, q, reach))
    return lam_max, sectors


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
