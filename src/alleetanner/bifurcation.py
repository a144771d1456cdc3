"""Bifurcation loci in the (M, S) plane and the five-region classifier.

For fixed (Q, C) the saddle-node locus is where the interior-root
discriminant vanishes; solving (1+M-Q)^2 = 4(M+CQ) for M gives

    M* = (1 + Q) +- 2*sqrt(Q*(1+C)).

The Hopf locus is the trace-zero curve S = sigma(u_high(M)), the
Bogdanov-Takens point sits at (M*, S2) where the fold and Hopf curves meet,
and the homoclinic locus is found numerically by bisecting the signed
manifold gap in S at each M.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .equilibria import CaseLabel, case_label, interior_equilibria
from .flow import IntegratorConfig, find_limit_cycle
from .manifolds import GapUndefinedError, homoclinic_gap
from .model import Params, jacobian
from .stability import hopf_threshold, is_global_extinction


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
    hopf: np.ndarray                       # (k, 2) of (M, S)
    hom: list[tuple[float, float | None]]  # (M, S) with None for no bracket


def saddle_node_M(q: float, c: float) -> list[float]:
    """All solutions of Delta(M)=0 with M in (-1, 1), ascending."""
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


def hopf_locus(q: float, c: float, m_grid) -> np.ndarray:
    """Polyline of (M, S_hopf(M)) over the grid; undefined points omitted.

    S_hopf is the trace-zero value of the largest interior root; points
    where no interior root exists or where the value is non-positive (the
    root is then stable for every S > 0) are dropped.
    """
    pts = []
    for m in np.asarray(m_grid, dtype=float):
        if not -1.0 < m < 1.0:
            continue
        p = Params(m, 1.0, q, c)
        s = hopf_threshold(p)
        if s is not None and s > 0.0:
            pts.append((m, s))
    return np.array(pts) if pts else np.empty((0, 2))


def homoclinic_locus(q: float, c: float, m_grid,
                     cfg: IntegratorConfig | None = None,
                     gap_tol: float = 1e-6,
                     scan_points: int = 12) -> list[tuple[float, float | None]]:
    """Bisect the homoclinic S value for each M on the grid.

    For each M a bracket is sought below the Hopf value by scanning the
    signed gap; failures (no saddle, no bracket, branch escapes) are
    recorded as (M, None), never fabricated.
    """
    cfg = cfg or IntegratorConfig()
    out: list[tuple[float, float | None]] = []
    for m in np.asarray(m_grid, dtype=float):
        out.append((float(m), _bisect_hom(m, q, c, cfg, gap_tol, scan_points)))
    return out


def _gap_or_none(p: Params, cfg: IntegratorConfig) -> float | None:
    try:
        return homoclinic_gap(p, cfg)
    except GapUndefinedError:
        return None


def _bisect_hom(m: float, q: float, c: float, cfg: IntegratorConfig,
                gap_tol: float, scan_points: int) -> float | None:
    m = float(m)
    p_probe = Params(m, 1.0, q, c)
    if case_label(p_probe) not in (CaseLabel.S1AII, CaseLabel.W2AII):
        return None
    s_hopf = hopf_threshold(p_probe)
    if s_hopf is None or s_hopf <= 0.0:
        return None
    # near the Bogdanov-Takens point the homoclinic value hugs the Hopf
    # value from below, so the scan is geometrically dense near S_hopf
    fracs = 1.0 - np.geomspace(1e-4, 0.9, scan_points)
    bracket = None
    prev = None  # (S, gap)
    for fr in fracs:
        s = float(fr * s_hopf)
        g = _gap_or_none(Params(m, s, q, c), cfg)
        if g is not None and prev is not None and g * prev[1] < 0.0:
            bracket = (prev[0], s) if prev[0] < s else (s, prev[0])
            break
        if g is not None:
            prev = (s, g)
    if bracket is None:
        return None
    lo, hi = bracket
    g_lo = _gap_or_none(Params(m, lo, q, c), cfg)
    if g_lo is None:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g_mid = _gap_or_none(Params(m, mid, q, c), cfg)
        if g_mid is None:
            return None
        if abs(g_mid) < gap_tol:
            return mid
        if (g_mid > 0.0) == (g_lo > 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
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
    the cycle hunt).
    """
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
    eqs = interior_equilibria(p)
    u_star, v_star = eqs[-1].location
    seed = (min(u_star + 0.05, 0.98), v_star)
    cyc = find_limit_cycle(p, seed, cfg)
    return RegionLabel.CYCLE if cyc is not None else RegionLabel.REPELLER


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
    lam, vecs = np.linalg.eig(J)
    lam = lam.real
    order = np.argsort(np.abs(lam))
    lam0, lam1 = lam[order[0]], lam[order[1]]
    if abs(lam0) > 1e-6:
        raise DegenerateSaddleNodeError(
            f"no zero eigenvalue at M={m}: |lambda|min = {abs(lam0):.3e}")
    if abs(lam1) <= 1e-6:
        raise DegenerateSaddleNodeError(
            "zero eigenvalue is not simple (both eigenvalues vanish)")
    U = vecs.real[:, order[0]]
    U = U / np.linalg.norm(U)
    if np.linalg.norm(J @ U) > 1e-8:
        raise DegenerateSaddleNodeError("kernel vector residual too large")
    lamT, vecsT = np.linalg.eig(J.T)
    iw = int(np.argmin(np.abs(lamT.real)))
    W = vecsT.real[:, iw]
    W = W / np.linalg.norm(W)
    if np.linalg.norm(J.T @ W) > 1e-8:
        raise DegenerateSaddleNodeError("left kernel vector residual too large")

    u, v = x
    r = v / (u + c)
    # Hessians of u((1 - u)(u - M) - Qv) and S v (u - v + C)/(u + C)
    h1 = np.array([[2.0 * (1.0 + m) - 6.0 * u, -q], [-q, 0.0]])
    h2 = 2.0 * s / (u + c) * np.array([[-r * r, r], [r, -1.0]])
    t1 = float(W[0] * (-u * v))
    t2 = float(W @ (U @ h1 @ U, U @ h2 @ U))
    return t1, t2


def compute_diagram(q: float, c: float,
                    m_window: tuple[float, float],
                    s_window: tuple[float, float],
                    n_hopf: int = 121, n_hom: int = 13,
                    cfg: IntegratorConfig | None = None) -> BifurcationDiagram:
    """Assemble all loci for a parameter window (used by the CLI)."""
    cfg = cfg or IntegratorConfig()
    sn = [m for m in saddle_node_M(q, c) if m_window[0] <= m <= m_window[1]]
    try:
        bt = bt_point(q, c)
    except ValueError:
        bt = None
    m_hopf = np.linspace(m_window[0], m_window[1], n_hopf)
    hopf = hopf_locus(q, c, m_hopf)
    if len(hopf):
        hopf = hopf[(hopf[:, 1] >= s_window[0]) & (hopf[:, 1] <= s_window[1])]
    m_hom = np.linspace(m_window[0], m_window[1], n_hom)
    hom = homoclinic_locus(q, c, m_hom, cfg)
    return BifurcationDiagram(q, c, m_window, s_window, sn, bt, hopf, hom)
