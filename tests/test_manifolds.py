import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alleetanner import (
    AttractorTag,
    BranchDirection,
    BranchKind,
    GapUndefinedError,
    IntegratorConfig,
    Params,
    classify_omega_limit,
    homoclinic_gap,
    interior_equilibria,
    jacobian,
    saddle_directions,
    separatrix,
    trace_manifold,
)
from alleetanner.equilibria import EquilibriumKind, boundary_equilibria
from alleetanner import flow, manifolds
from alleetanner.manifolds import BranchTermination, _clip_to_unit_box, \
    _saddle_eigvecs

from conftest import BISTABLE, WEAK_BISTABLE


def saddle_of(p):
    return interior_equilibria(p)[0]


def test_saddle_directions_interior():
    p = Params(0.04, 0.1, 0.45, 0.07)
    eq = saddle_of(p)
    vs, vu = map(np.asarray, saddle_directions(p, eq))
    J = np.asarray(jacobian(p, eq.location))
    lam = np.sort(np.linalg.eigvals(J).real)
    assert lam[0] < 0 < lam[1]
    assert np.linalg.norm(J @ vs - lam[0] * vs) < 1e-10
    assert np.linalg.norm(J @ vu - lam[1] * vu) < 1e-10
    assert vs[0] > 0 and vu[0] > 0


def test_saddle_eigvecs_symmetric_matrix():
    vs, vu, ls, lu = _saddle_eigvecs(np.array([[0.0, 1.0], [1.0, 0.0]]))
    r = 1 / math.sqrt(2)
    assert ls == pytest.approx(-1.0) and lu == pytest.approx(1.0)
    assert np.allclose(np.abs(vs), [r, r]) and vs[0] > 0 and vs[1] < 0
    assert np.allclose(vu, [r, r])


def test_boundary_saddle_axis_direction():
    p = BISTABLE
    prey_k = [e for e in boundary_equilibria(p)
              if e.kind is EquilibriumKind.PREY_K][0]
    vs, vu = saddle_directions(p, prey_k)
    assert abs(vs[1]) < 1e-12   # stable direction along the u-axis
    assert abs(vs[0]) == pytest.approx(1.0)


def test_saddle_directions_reject_non_saddle():
    p = BISTABLE
    attractor = interior_equilibria(p)[1]
    with pytest.raises(ValueError):
        saddle_directions(p, attractor)


def test_branch_seeding_and_tangency():
    p = BISTABLE
    eq = saddle_of(p)
    vs, vu = saddle_directions(p, eq)
    br = trace_manifold(p, eq, BranchKind.UNSTABLE, BranchDirection.UP_RIGHT)
    poly = np.asarray(br.polyline)
    seed_vec = poly[0] - np.array(br.base)
    assert np.linalg.norm(seed_vec) == pytest.approx(1e-6, rel=1e-9)
    angle = math.acos(min(1.0, float(seed_vec @ vu)
                          / np.linalg.norm(seed_vec)))
    assert angle < 1e-4
    # direction after the first step stays tangent
    step_vec = poly[1] - poly[0]
    cosang = float(step_vec @ vu) / np.linalg.norm(step_vec)
    assert math.acos(min(1.0, cosang)) < 1e-3
    assert br.arclength[0] == 0.0
    assert (np.diff(br.arclength) >= 0).all()


def test_unstable_down_left_reaches_predator_only_point():
    br = trace_manifold(BISTABLE, saddle_of(BISTABLE), BranchKind.UNSTABLE,
                        BranchDirection.DOWN_LEFT)
    assert br.termination is BranchTermination.REACHED_EQUILIBRIUM
    assert br.equilibrium_id == "predator_only"


def test_unstable_up_right_reaches_interior_attractor():
    br = trace_manifold(BISTABLE, saddle_of(BISTABLE), BranchKind.UNSTABLE,
                        BranchDirection.UP_RIGHT)
    assert br.termination is BranchTermination.REACHED_EQUILIBRIUM
    assert br.equilibrium_id == "interior_high"


def test_stable_branch_connects_to_allee_point():
    # the stable branch that runs to (M, 0) is the down-left one
    br = trace_manifold(BISTABLE, saddle_of(BISTABLE), BranchKind.STABLE,
                        BranchDirection.DOWN_LEFT)
    assert br.termination is BranchTermination.REACHED_EQUILIBRIUM
    assert br.equilibrium_id == "prey_allee"
    assert br.polyline[-1][0] == pytest.approx(0.04, abs=1e-3)


def test_stable_up_right_leaves_box():
    br = trace_manifold(BISTABLE, saddle_of(BISTABLE), BranchKind.STABLE,
                        BranchDirection.UP_RIGHT)
    assert br.termination is BranchTermination.LEFT_BOX


def test_stable_branch_flows_back_to_saddle():
    # forward time from a point on the stable manifold returns to the saddle
    p = BISTABLE
    eq = saddle_of(p)
    br = trace_manifold(p, eq, BranchKind.STABLE, BranchDirection.DOWN_LEFT)
    idx = np.argmin(np.abs(np.asarray(br.arclength) - 0.05))
    probe = tuple(br.polyline[idx])
    from alleetanner import integrate
    tr = integrate(p, probe)
    states = np.asarray(tr.states)
    d = np.hypot(states[:, 0] - eq.location[0],
                 states[:, 1] - eq.location[1])
    assert d.min() < 1e-3


def test_arc_budget_flagged():
    br = trace_manifold(BISTABLE, saddle_of(BISTABLE), BranchKind.UNSTABLE,
                        BranchDirection.UP_RIGHT, max_arc=0.05)
    assert br.termination is BranchTermination.ARC_BUDGET
    assert len(br.polyline) > 2


def test_gap_changes_sign_across_homoclinic_value():
    lo = homoclinic_gap(Params(0.04, 0.02, 0.45, 0.07))
    hi = homoclinic_gap(Params(0.04, 0.084256, 0.45, 0.07))
    assert lo * hi < 0


def test_section_trace_ends_at_first_crossing():
    # the gap reads only the first crossing beyond P2, so a section trace
    # stops at the step that makes it
    p = Params(0.04, 0.02, 0.45, 0.07)
    cfg = IntegratorConfig()
    ctx = flow._context(p)
    e = saddle_of(p)
    vs, vu = saddle_directions(p, e)
    base = manifolds._newton_polish(p, e.location)
    for kind in (BranchKind.UNSTABLE, BranchKind.STABLE):
        res = manifolds._trace(ctx, (base, vs, vu), kind,
                               BranchDirection.UP_RIGHT, cfg, 100.0, True)
        (u0, v0), (u1, v1) = res.points[-2:]
        assert (v0 - u0 - p.C < 0.0) != (v1 - u1 - p.C < 0.0)
        assert res.crossing[1] > ctx.anchor


def test_gap_undefined_without_saddle():
    with pytest.raises(GapUndefinedError):
        homoclinic_gap(Params(0.2, 0.1, 0.9, 0.5))


def test_gap_bisection_reaches_tolerance():
    p0 = Params(0.04, 1.0, 0.45, 0.07)
    lo, hi = 0.02, 0.084256
    g_lo = homoclinic_gap(Params(0.04, lo, 0.45, 0.07))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        g = homoclinic_gap(Params(0.04, mid, 0.45, 0.07))
        if abs(g) < 1e-6:
            break
        if (g > 0) == (g_lo > 0):
            lo, g_lo = mid, g
        else:
            hi = mid
    assert abs(g) < 1e-6


def test_separatrix_strong_allee():
    sep = separatrix(BISTABLE)
    assert len(sep.polyline) > 10
    # starts at the Allee point on the prey axis
    assert sep.polyline[0][0] == pytest.approx(0.04, abs=2e-3)
    assert sep.polyline[0][1] == pytest.approx(0.0, abs=2e-3)
    # passes through the saddle
    saddle = np.array(saddle_of(BISTABLE).location)
    d = np.hypot(*(sep.polyline - saddle).T)
    assert d.min() < 1e-9
    # ends on the boundary of the unit square
    last = sep.polyline[-1]
    assert min(last[0], 1 - last[0], last[1], 1 - last[1]) < 1e-9


def test_separatrix_weak_allee():
    sep = separatrix(WEAK_BISTABLE)
    assert len(sep.polyline) > 10


def test_separatrix_rejected_without_interior_points():
    with pytest.raises(GapUndefinedError):
        separatrix(Params(0.2, 0.3, 0.9, 0.5))


def test_separatrix_separates_the_two_basins():
    p = BISTABLE
    cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, rho_eq=1e-5)
    sep = separatrix(p, cfg)
    poly = np.asarray(sep.polyline)
    seg_a = poly[:-1]
    seg_b = poly[1:]
    ab = seg_b - seg_a
    ab2 = (ab ** 2).sum(axis=1)
    ab2[ab2 == 0] = 1e-300

    def side_and_distance(q):
        ap = q - seg_a
        t = np.clip((ap * ab).sum(axis=1) / ab2, 0.0, 1.0)
        proj = seg_a + t[:, None] * ab
        d = np.hypot(q[0] - proj[:, 0], q[1] - proj[:, 1])
        k = int(np.argmin(d))
        cross = (ab[k, 0] * (q[1] - seg_a[k, 1])
                 - ab[k, 1] * (q[0] - seg_a[k, 0]))
        return math.copysign(1.0, cross), float(d[k])

    rng = np.random.default_rng(61)
    outcomes = {1.0: set(), -1.0: set()}
    count = 0
    while count < 200:
        q = rng.uniform(0.01, 0.99, 2)
        side, dist = side_and_distance(q)
        if dist < 0.02:
            continue
        lab = classify_omega_limit(p, (float(q[0]), float(q[1])), cfg)
        if lab.tag is not AttractorTag.EQUILIBRIUM:
            continue
        outcomes[side].add(lab.id)
        count += 1
    assert outcomes[1.0] and outcomes[-1.0]
    assert len(outcomes[1.0]) == 1 and len(outcomes[-1.0]) == 1
    assert outcomes[1.0] != outcomes[-1.0]


def _numpy_clip(points: np.ndarray) -> np.ndarray:
    """The numpy clip of an (N, 2) polyline to [0,1]^2 that
    ``_clip_to_unit_box`` replaces, kept as its reference."""

    def inside(q):
        return 0.0 <= q[0] <= 1.0 and 0.0 <= q[1] <= 1.0

    def crossings(a, b):
        ts = []
        d = b - a
        for dim in (0, 1):
            if d[dim] != 0.0:
                for edge in (0.0, 1.0):
                    t = (edge - a[dim]) / d[dim]
                    if 0.0 < t < 1.0:
                        q = a + t * d
                        if -1e-12 <= q[1 - dim] <= 1.0 + 1e-12:
                            ts.append((t, np.clip(q, 0.0, 1.0)))
        ts.sort(key=lambda e: e[0])
        return [q for _, q in ts]

    out = []
    for i, q in enumerate(points):
        if i > 0:
            a, b = points[i - 1], q
            a_in, b_in = inside(a), inside(b)
            if a_in != b_in or (not a_in and not b_in):
                for c in crossings(a, b):
                    out.append(c)
        if inside(q):
            out.append(np.asarray(q, dtype=float))
    if not out:
        return np.empty((0, 2))
    arr = np.array(out)
    keep = np.ones(len(arr), dtype=bool)
    keep[1:] = (np.abs(np.diff(arr, axis=0)).max(axis=1) > 1e-15)
    return arr[keep]


# coordinates on the edges 0 and 1 (both zeros), within 1e-12 of an edge,
# inside the box and well outside it
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0]),
    st.builds(float.__add__, st.sampled_from([0.0, -0.0, 1.0]),
              st.floats(-1e-12, 1e-12)),
    st.floats(-0.5, 1.5),
    st.floats(-3.0, 3.0))
# each drawn point is repeated one to three times
_POLYLINE = st.lists(st.tuples(st.tuples(_COORD, _COORD), st.integers(1, 3)),
                     max_size=12).map(
    lambda runs: [q for q, k in runs for _ in range(k)])


@settings(max_examples=400, deadline=None)
@given(_POLYLINE)
@example([(-0.5, 0.5), (1.5, 0.5)])            # crosses the box, ends out
@example([(-1.0, 2.0), (2.0, 2.0)])            # wholly outside
@example([(0.0, 0.0), (-0.0, 0.0), (1.0, 1.0), (1.0, 1.0 - 1e-16)])
@example([(-0.0, 0.5), (-0.5, -0.5), (0.5, -0.0)])
@example([(0.5, 0.5), (0.5 + 5e-15, 0.5)])    # 5e-15 apart: both kept
@example([(-0.5, -0.0), (1.5, -5e-324)])      # crosses u = 0 at v = -0.0
@example([(-0.0, -0.5), (-5e-324, 1.5)])      # crosses v = 0 at u = -0.0
def test_clip_to_unit_box_equals_the_numpy_clip(points):
    def bits(poly):
        return [(float(u).hex(), float(v).hex()) for u, v in poly]

    got = _clip_to_unit_box(points)
    assert all(type(u) is float and type(v) is float for u, v in got)
    # an edge parameter t overflows on a tiny step, where numpy warns and
    # plain floats do not; the 0 < t < 1 test discards it in both
    with np.errstate(over="ignore"):
        ref = _numpy_clip(np.array(points, dtype=float).reshape(-1, 2))
    assert bits(got) == bits(ref)
