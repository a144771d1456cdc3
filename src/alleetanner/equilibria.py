"""Equilibrium enumeration and the parameter-regime case tree.

Interior equilibria sit on the predator nullcline v = u + C at prey values
solving the quadratic

    d(u) = u^2 - (1 + M - Q)*u + (M + C*Q) = 0,

whose discriminant is  Delta = (1 + M - Q)^2 - 4*(M + C*Q).  The number of
positive roots splits into eleven parameter cases (strong Allee M > 0 vs
weak M <= 0, signs of 1+M-Q, M+C*Q and Delta); `case_label` is the single
place that case logic lives.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .model import EPS_CASE, Params, State


class EquilibriumKind(enum.Enum):
    ORIGIN = "origin"                   # (0, 0)
    PREY_K = "prey_k"                   # (1, 0), prey at carrying capacity
    PREY_ALLEE = "prey_allee"           # (M, 0), prey at the Allee threshold
    PREDATOR_ONLY = "predator_only"     # (0, C)
    INTERIOR_LOW = "interior_low"       # smaller interior root
    INTERIOR_HIGH = "interior_high"     # larger (or unique) interior root
    INTERIOR_DOUBLE = "interior_double"  # fold point, multiplicity 2


class CaseLabel(enum.Enum):
    """Parameter-regime labels; exactly one applies to any Params."""

    S1AI = "S1ai"       # strong, 1+M-Q>0, Delta<0: no interior points
    S1AII = "S1aii"     # strong, 1+M-Q>0, Delta>0: two interior points
    S1AIII = "S1aiii"   # strong, 1+M-Q>0, Delta=0: one double point
    S1B = "S1b"         # strong, 1+M-Q<=0: no interior points
    W2AI = "W2ai"       # weak, 1+M-Q>0, M+CQ>0, Delta<0: none
    W2AII = "W2aii"     # weak, 1+M-Q>0, M+CQ>0, Delta>0: two
    W2AIII = "W2aiii"   # weak, 1+M-Q>0, M+CQ>0, Delta=0: one double
    W2B = "W2b"         # weak, M+CQ<0, 1+M-Q!=0: one point
    W2C = "W2c"         # weak, 1+M-Q>0, M+CQ=0: one point u=1+M-Q
    W2D = "W2d"         # weak, 1+M-Q=0, M+CQ<0: one point u=sqrt(-(M+CQ))
    W2E = "W2e"         # weak, 1+M-Q<=0, M+CQ>=0: none

    @property
    def interior_count(self) -> int:
        return _INTERIOR_COUNT[self]


_INTERIOR_COUNT = {
    CaseLabel.S1AI: 0, CaseLabel.S1AII: 2, CaseLabel.S1AIII: 1,
    CaseLabel.S1B: 0, CaseLabel.W2AI: 0, CaseLabel.W2AII: 2,
    CaseLabel.W2AIII: 1, CaseLabel.W2B: 1, CaseLabel.W2C: 1,
    CaseLabel.W2D: 1, CaseLabel.W2E: 0,
}


@dataclass(frozen=True)
class Equilibrium:
    """A located fixed point with its kind tag.

    ``in_domain`` is False for (M, 0) when M <= 0 (the point leaves the
    positive prey range and merges with or hides behind the origin).
    """

    location: State
    kind: EquilibriumKind
    multiplicity: int = 1
    in_domain: bool = True

    @property
    def id(self) -> str:
        return self.kind.value


def discriminant(p: Params) -> float:
    """Delta = (1 + M - Q)^2 - 4*(M + C*Q)."""
    a = 1.0 + p.M - p.Q
    return a * a - 4.0 * (p.M + p.C * p.Q)


def case_label(p: Params, eps: float = EPS_CASE) -> CaseLabel:
    """Classify the parameter regime; equality tests use ``eps``."""
    a = 1.0 + p.M - p.Q
    b = p.M + p.C * p.Q
    delta = discriminant(p)
    if p.M > eps:                      # strong Allee effect
        if a > eps:
            if abs(delta) <= eps:
                return CaseLabel.S1AIII
            return CaseLabel.S1AII if delta > 0.0 else CaseLabel.S1AI
        return CaseLabel.S1B
    # weak Allee effect (M <= 0 up to eps)
    if abs(b) <= eps:
        return CaseLabel.W2C if a > eps else CaseLabel.W2E
    if b < 0.0:
        return CaseLabel.W2D if abs(a) <= eps else CaseLabel.W2B
    if a > eps:
        if abs(delta) <= eps:
            return CaseLabel.W2AIII
        return CaseLabel.W2AII if delta > 0.0 else CaseLabel.W2AI
    return CaseLabel.W2E


def interior_equilibria(p: Params, eps: float = EPS_CASE) -> list[Equilibrium]:
    """Interior equilibria (u, u+C) with u in (0, 1), per the case tree.

    The quadratic is solved in the cancellation-free form: the larger
    magnitude root comes from the non-cancelling sign, the other from the
    root product M + C*Q.  An empty list is a valid return.
    """
    label = case_label(p, eps)
    a = 1.0 + p.M - p.Q
    b = p.M + p.C * p.Q
    C = p.C

    if label in (CaseLabel.S1AII, CaseLabel.W2AII):
        sd = math.sqrt(discriminant(p))
        u2 = 0.5 * (a + sd)
        u1 = b / u2
        return [Equilibrium((u1, u1 + C), EquilibriumKind.INTERIOR_LOW),
                Equilibrium((u2, u2 + C), EquilibriumKind.INTERIOR_HIGH)]
    if label in (CaseLabel.S1AIII, CaseLabel.W2AIII):
        e = 0.5 * a
        return [Equilibrium((e, e + C), EquilibriumKind.INTERIOR_DOUBLE,
                            multiplicity=2)]
    if label is CaseLabel.W2B:
        # b < 0 forces one positive and one negative root.
        sd = math.sqrt(discriminant(p))
        if a >= 0.0:
            u = 0.5 * (a + sd)
        else:
            u = b / (0.5 * (a - sd))
        return [Equilibrium((u, u + C), EquilibriumKind.INTERIOR_HIGH)]
    if label is CaseLabel.W2C:
        # u1 = 0 collapses onto (0, C); the surviving root is 1+M-Q.
        return [Equilibrium((a, a + C), EquilibriumKind.INTERIOR_HIGH)]
    if label is CaseLabel.W2D:
        u = math.sqrt(-b)
        return [Equilibrium((u, u + C), EquilibriumKind.INTERIOR_HIGH)]
    return []


def boundary_equilibria(p: Params) -> list[Equilibrium]:
    """The four axis equilibria (0,0), (1,0), (M,0), (0,C).

    (M, 0) is always returned but flagged out-of-domain when M <= 0.
    """
    return [
        Equilibrium((0.0, 0.0), EquilibriumKind.ORIGIN),
        Equilibrium((1.0, 0.0), EquilibriumKind.PREY_K),
        Equilibrium((p.M, 0.0), EquilibriumKind.PREY_ALLEE,
                    in_domain=p.M > 0.0),
        Equilibrium((0.0, p.C), EquilibriumKind.PREDATOR_ONLY),
    ]


def all_equilibria(p: Params, eps: float = EPS_CASE) -> list[Equilibrium]:
    """Boundary equilibria followed by interior ones, in a fixed order."""
    return boundary_equilibria(p) + interior_equilibria(p, eps)
