"""Bifurcation loci in the (M, S) plane and the five-region classifier.

For fixed (Q, C) the saddle-node locus is where the interior-root
discriminant vanishes; solving (1+M-Q)^2 = 4(M+CQ) for M gives

    M* = (1 + Q) +- 2*sqrt(Q*(1+C)).

The Hopf locus is the trace-zero curve S = sigma(u_high(M)), the
Bogdanov-Takens point sits at (M*, S2) where the fold and Hopf curves meet,
and the homoclinic locus is found numerically as a root in S of the signed
manifold gap at each M, below the Hopf value.  Along the grid it is
continued by natural-parameter continuation (Kuznetsov, Elements of Applied
Bifurcation Theory, 3rd ed., sec. 10.3): a secant predictor through the last
two roots, read as shares of S_hopf, then a bracket stepped outward from the
prediction and refined by Illinois regula falsi.  A 12-point scan below the
Hopf value finds the first bracket and any that the predictor misses.  The
returned S is any point with |gap| < _GAP_TOL, not a unique root, so it can
depend on the grid points solved before it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .equilibria import CaseLabel, case_label
# perfbench/tracing.py wraps find_limit_cycle here, so the name stays bound
# though the region grid hunts through flow._hunt
from .flow import IntegratorConfig, _context, _hunt, find_limit_cycle
from .manifolds import GapUndefinedError, homoclinic_gap
from .model import Params, _real_eigenvalues, _unit_eigenvector, \
    jacobian, validate_params
from .stability import hopf_threshold, is_global_extinction

_GAP_TOL = 1e-6      # |gap| at which the root solve returns its iterate
_SCAN_POINTS = 12    # gap evaluations in the fallback bracket scan
_MIN_STEP = 1e-2     # least first step out of the predictor, in S/S_hopf


def linspace(a: float, b: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from ``a`` to ``b``, both ends included:
    np.linspace's values bit for bit, without numpy.  Point i is
    i*step + a, or (i/div)*delta + a when the step rounds to 0, and the
    last point is ``b`` itself."""
    a, b = float(a), float(b)
    div = max(n - 1, 1)
    delta = b - a
    step = delta / div
    if step == 0.0:
        out = [i / div * delta + a for i in range(n)]
    else:
        out = [i * step + a for i in range(n)]
    if n > 1:
        out[-1] = b
    return out


# Shares of S_hopf that the bracket scan probes, from the top down:
# 1 - np.geomspace(1e-4, 0.9, _SCAN_POINTS), as numpy builds it, with powers
# of ten over a linspace of the logarithms and both ends pinned.  Near the
# Bogdanov-Takens point the homoclinic value hugs the Hopf value from below,
# so they are geometrically dense near 1.
_SCAN_FRACS = [1.0 - 10.0 ** x for x in linspace(
    math.log10(1e-4), math.log10(0.9), _SCAN_POINTS)]
_SCAN_FRACS[0], _SCAN_FRACS[-1] = 1.0 - 1e-4, 1.0 - 0.9


class DegenerateSaddleNodeError(RuntimeError):
    """The Jacobian has no simple zero eigenvalue where one was required."""


class RegionLabel(enum.Enum):
    NO_INTERIOR = "no_interior"            # red: (0,C) global attractor
    REPELLER = "repeller"                  # grey: interior point unstable, no cycle
    CYCLE = "cycle"                        # blue: stable limit cycle
    BISTABLE = "bistable"                  # green: (0,C) and P2 both attract
    SINGLE_ATTRACTOR = "single_attractor"  # light green: one stable interior point
    NEAR_LOCUS = "near_locus"              # within the guard band of a locus


@dataclass(frozen=True)
class BifurcationDiagram:
    q: float
    c: float
    m_window: tuple[float, float]
    s_window: tuple[float, float]
    sn: list[float]                        # saddle-node M* values in window
    bt: tuple[float, float] | None         # (M*, S2)
    hopf: list[tuple[float, float]]        # (M, S) polyline
    hom: list[tuple[float, float | None]]  # (M, S) with None for no root


def saddle_node_M(q: float, c: float) -> list[float]:
    """All solutions of Delta(M)=0 with M in (-1, 1), ascending;
    ParameterError unless Q and C are finite and positive."""
    validate_params(Params(0.0, 1.0, q, c))
    root = 2.0 * math.sqrt(q * (1.0 + c))
    cands = [1.0 + q - root, 1.0 + q + root]
    return [m for m in cands if -1.0 < m < 1.0]


def bt_point(q: float, c: float) -> tuple[float, float]:
    """(M*, S2(M*)) where fold and trace-zero conditions meet.

    Requires a fold with a positive double root E = (1+M*-q)/2.
    """
    for m in saddle_node_M(q, c):
        if 1.0 + m - q > 0.0:
            return m, 0.5 * q * (1.0 + m - q)
    raise ValueError(f"no admissible fold point for Q={q}, C={c}")


def hopf_locus(q: float, c: float, m_grid) -> list[tuple[float, float]]:
    """Polyline of float (M, S_hopf(M)) pairs over the grid; undefined
    points omitted.

    S_hopf is the trace-zero value of the largest interior root; points
    where no interior root exists or where the value is non-positive (the
    root is then stable for every S > 0) are dropped.  ParameterError
    unless Q and C are finite and positive and every M lies in (-1, 1).
    """
    pts = []
    for m in _check_grid(q, c, m_grid):
        s = hopf_threshold(Params(m, 1.0, q, c))
        if s is not None and s > 0.0:
            pts.append((m, s))
    return pts


def homoclinic_locus(q: float, c: float, m_grid,
                     cfg: IntegratorConfig | None = None
                     ) -> list[tuple[float, float | None]]:
    """Solve the signed manifold gap for the homoclinic S at each grid M.

    Each M is solved below its Hopf value.  The first M, and any M after
    one that did not converge, scans the gap for a sign change; the others
    start from a secant predictor through the last two converged roots and
    step outward from it until the gap changes sign.  The bracket is then
    refined by Illinois regula falsi.  An S is any point with |gap| below
    the tolerance, so where the gap is flat the value returned can depend
    on the grid points solved before it.  Failures (no saddle, no bracket,
    branch escapes) are recorded as (M, None), never fabricated.
    ParameterError unless Q and C are finite and positive and every M lies
    in (-1, 1).
    """
    m_grid = _check_grid(q, c, m_grid)
    cfg = cfg or IntegratorConfig()
    out: list[tuple[float, float | None]] = []
    roots: list[_Root] = []   # the last two converged points, in order
    for m in m_grid:
        root = _hom_root(m, q, c, cfg, roots)
        roots = roots[-1:] + [root] if root is not None else []
        out.append((m, None if root is None else root.s))
    return out


@dataclass(frozen=True)
class _Root:
    m: float
    s: float
    frac: float        # s / S_hopf(m)
    # the gap is positive above the root; None when no probe beside it
    # told the side
    upper: bool | None


def _hom_root(m: float, q: float, c: float, cfg: IntegratorConfig,
              roots: list[_Root]) -> _Root | None:
    """The homoclinic root at M, or None; ``roots`` are the last converged
    points before it, none when the scan must find the bracket."""
    p_probe = Params(m, 1.0, q, c)
    if case_label(p_probe) not in (CaseLabel.S1AII, CaseLabel.W2AII):
        return None
    s_hopf = hopf_threshold(p_probe)
    if s_hopf is None or s_hopf <= 0.0:
        return None

    def gap(s: float) -> float:
        return homoclinic_gap(Params(m, s, q, c), cfg)

    def probe(s: float) -> float | None:
        try:
            return gap(s)
        except GapUndefinedError:
            return None

    found = _continue_bracket(probe, m, s_hopf, _SCAN_FRACS[-1],
                              _SCAN_FRACS[0], roots) if roots else None
    if found is None:
        found = _scan_bracket(probe, s_hopf)
    if found is None:
        return None
    if len(found) == 2:   # a probe landed inside the tolerance
        s, upper = found
        return _Root(m, s, s / s_hopf, upper)
    try:
        s = _illinois(gap, *found)
    except GapUndefinedError:
        return None
    if s is None:
        return None
    a, ga, b, gb = found
    return _Root(m, s, s / s_hopf, (ga if a > b else gb) > 0.0)


_Bracket = tuple[float, float, float, float]   # (a, gap(a), b, gap(b))
_Hit = tuple[float, bool | None]   # (S, _Root.upper) of a probe inside tol


def _scan_bracket(probe, s_hopf: float) -> _Bracket | _Hit | None:
    """The first sign change of the gap scanning S down from the Hopf
    value, or the first probe inside the gap tolerance, whose side comes
    from the defined probe above it."""
    prev = None  # (S, gap)
    for fr in _SCAN_FRACS:
        s = float(fr * s_hopf)
        g = probe(s)
        if g is None:
            continue
        if abs(g) < _GAP_TOL:
            return s, None if prev is None else prev[1] > 0.0
        if prev is not None and g * prev[1] < 0.0:
            return prev[0], prev[1], s, g
        prev = (s, g)
    return None


def _continue_bracket(probe, m: float, s_hopf: float, lo: float, hi: float,
                      roots: list[_Root]) -> _Bracket | _Hit | None:
    """A bracket found by stepping outward from the secant predictor
    through the last two roots, with S in units of S_hopf kept in [lo, hi].

    Returns a hit, with the last root's side, when a probe lands inside
    the gap tolerance, and None, which sends the caller to the scan, when
    a gap is undefined or the steps reach lo or hi without a sign change.
    With no known side the first step goes up.
    """
    last = roots[-1]
    frac = last.frac
    if len(roots) == 2 and roots[0].m != last.m:
        frac += (last.frac - roots[0].frac) / (last.m - roots[0].m) \
            * (m - last.m)
    frac = min(max(frac, lo), hi)
    g0 = probe(frac * s_hopf)
    if g0 is None:
        return None
    if abs(g0) < _GAP_TOL:
        return frac * s_hopf, last.upper
    # the root lies on the side where the gap has the other sign; the
    # first step is half the predictor's own move from the last root
    step = max(0.5 * abs(frac - last.frac), _MIN_STEP)
    if (g0 > 0.0) == last.upper:
        step = -step
    while True:
        nxt = min(max(frac + step, lo), hi)
        if nxt == frac:
            return None
        g1 = probe(nxt * s_hopf)
        if g1 is None:
            return None
        if abs(g1) < _GAP_TOL:
            return nxt * s_hopf, last.upper
        if g0 * g1 < 0.0:
            return frac * s_hopf, g0, nxt * s_hopf, g1
        frac, g0, step = nxt, g1, 2.0 * step


def _illinois(gap, a: float, ga: float, b: float, gb: float) -> float | None:
    """An S with |gap| < _GAP_TOL inside the sign change (a, b), or None
    after 60 evaluations.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971): the secant
    through the bracket ends, where a new point with the sign of the last
    one halves the value kept at the far end; a step outside the bracket
    becomes the midpoint.
    """
    for _ in range(60):
        x = b - gb * (b - a) / (gb - ga)
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
        gx = gap(x)
        if abs(gx) < _GAP_TOL:
            return x
        if (gx > 0.0) != (gb > 0.0):
            a, ga = b, gb
        else:
            ga *= 0.5
        b, gb = x, gx
    return None


def region_classify(p: Params, cfg: IntegratorConfig | None = None,
                    guard: float = 1e-4) -> RegionLabel:
    """One of the five parameter regions, or NearLocus inside a guard band.

    NoInterior comes straight from the extinction conditions; bistable vs
    single-attractor from the trace-zero threshold; repeller vs cycle is
    resolved by hunting the limit cycle from a seed beside the interior
    point.  Guard bands: |M - M*| < guard around the fold, |S - S_hopf| <
    guard around the trace-zero curve (classification is ill-posed on the
    loci themselves; the homoclinic curve has no cheap test and is left to
    the cycle hunt).  The hunt is the raster's (``flow._section_interval``):
    it finds a cycle when a section interval around the cycle is certified
    to map into itself, or when the return map converges as
    ``find_limit_cycle`` requires, so a small cycle with no room for the
    interval still counts.  A certificate needs only a few revolutions, so
    at (0.04, 0.082, 0.45, 0.07), where the cycle attracts slowly, tau_max
    2500 gives Cycle as the default does.  A hunt that does neither within
    ``cfg.tau_max`` reads as no cycle.
    """
    validate_params(p)
    cfg = cfg or IntegratorConfig()
    for m_star in saddle_node_M(p.Q, p.C):
        if abs(p.M - m_star) < guard and 1.0 + m_star - p.Q > 0.0:
            return RegionLabel.NEAR_LOCUS
    label = case_label(p)
    if is_global_extinction(p):
        return RegionLabel.NO_INTERIOR
    if label in (CaseLabel.S1AIII, CaseLabel.W2AIII):
        return RegionLabel.NEAR_LOCUS
    s_hopf = hopf_threshold(p)
    two_points = label in (CaseLabel.S1AII, CaseLabel.W2AII)
    stable_label = (RegionLabel.BISTABLE if two_points
                    else RegionLabel.SINGLE_ATTRACTOR)
    if s_hopf is None or s_hopf <= 0.0:
        return stable_label
    if abs(p.S - s_hopf) < guard:
        return RegionLabel.NEAR_LOCUS
    if p.S > s_hopf:
        return stable_label
    certified = []
    cyc = _hunt(_context(p), cfg, certified=certified)
    return (RegionLabel.CYCLE if cyc is not None or certified
            else RegionLabel.REPELLER)


def sotomayor_check(q: float, c: float, s: float = 0.2,
                    m: float | None = None) -> tuple[float, float]:
    """Transversality scalars at the saddle-node point.

    Computes t1 = w . dF/dQ and t2 = w . D^2F(U, U) on the full vector
    field at the fold equilibrium, where w and U are the left and right
    kernel vectors of the Jacobian, from the exact derivatives: dF/dQ =
    (-u v, 0) and D^2F from the Hessians of both components.  Both must
    be nonzero for a generic fold.  Raises DegenerateSaddleNodeError when
    the zero eigenvalue is missing or not simple.
    """
    if m is None:
        m, _ = bt_point(q, c)
    p = Params(m, s, q, c)
    e = 0.5 * (1.0 + m - q)
    x = (e, e + c)
    J = jacobian(p, x)
    try:
        lam0, lam1 = sorted(_real_eigenvalues(J), key=abs)
    except ValueError as exc:
        raise DegenerateSaddleNodeError(f"no zero eigenvalue at M={m}: {exc}")
    if abs(lam0) > 1e-6:
        raise DegenerateSaddleNodeError(
            f"no zero eigenvalue at M={m}: |lambda|min = {abs(lam0):.3e}")
    if abs(lam1) <= 1e-6:
        raise DegenerateSaddleNodeError(
            "zero eigenvalue is not simple (both eigenvalues vanish)")
    # J and its transpose share the eigenvalue lam0
    (j11, j12), (j21, j22) = J
    U1, U2 = _unit_eigenvector(J, lam0)
    if math.hypot(j11 * U1 + j12 * U2, j21 * U1 + j22 * U2) > 1e-8:
        raise DegenerateSaddleNodeError("kernel vector residual too large")
    w1, w2 = _unit_eigenvector(((j11, j21), (j12, j22)), lam0)
    if math.hypot(j11 * w1 + j21 * w2, j12 * w1 + j22 * w2) > 1e-8:
        raise DegenerateSaddleNodeError("left kernel vector residual too large")

    u, v = x
    r = v / (u + c)
    k = 2.0 * s / (u + c)
    # U . H U for the Hessians of u((1 - u)(u - M) - Qv), [[h, -q], [-q, 0]],
    # and of S v (u - v + C)/(u + C), k [[-r^2, r], [r, -1]]
    h = 2.0 * (1.0 + m) - 6.0 * u
    t1 = w1 * (-u * v)
    t2 = (w1 * (U1 * (h * U1 - q * U2) - q * U2 * U1)
          + w2 * k * (U1 * (r * U2 - r * r * U1) + U2 * (r * U1 - U2)))
    return t1, t2


def _check_grid(q: float, c: float, m_grid) -> list[float]:
    """The grid's M values as floats; ParameterError unless Q and C, and
    then every M, lie in the model's domain."""
    validate_params(Params(0.0, 1.0, q, c))
    m_grid = [float(m) for m in m_grid]
    for m in m_grid:
        validate_params(Params(m, 1.0, q, c))
    return m_grid


def _check_window(q: float, c: float, m_window: tuple[float, float],
                  s_window: tuple[float, float]) -> None:
    """ParameterError unless both corners of the window lie in the model's
    domain, and so every point between them."""
    for m, s in zip(m_window, s_window):
        validate_params(Params(m, s, q, c))


def compute_diagram(q: float, c: float,
                    m_window: tuple[float, float],
                    s_window: tuple[float, float],
                    n_hopf: int = 121, n_hom: int = 13,
                    cfg: IntegratorConfig | None = None) -> BifurcationDiagram:
    """Assemble all loci for a parameter window, each in ascending M."""
    _check_window(q, c, m_window, s_window)
    cfg = cfg or IntegratorConfig()
    sn = [m for m in saddle_node_M(q, c) if m_window[0] <= m <= m_window[1]]
    try:
        bt = bt_point(q, c)
    except ValueError:
        bt = None
    hopf = [(m, s) for m, s in hopf_locus(
        q, c, linspace(m_window[0], m_window[1], n_hopf))
        if s_window[0] <= s <= s_window[1]]
    hom = homoclinic_locus(q, c, linspace(m_window[0], m_window[1], n_hom),
                           cfg)
    return BifurcationDiagram(q, c, m_window, s_window, sn, bt, hopf, hom)
