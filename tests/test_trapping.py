"""The trapping disc of an attracting equilibrium, against oracles that do
not go through ``flow``: the Lyapunov equation's residual against
``model.jacobian``, the sign of dV/dt from ``model.vector_field``, and the
final equilibrium of ``integrate``, which keeps the ``rho_eq`` rule.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alleetanner import (
    AttractorLabel,
    AttractorTag,
    BranchDirection,
    BranchKind,
    EquilibriumKind,
    IntegratorConfig,
    Params,
    StabilityTag,
    Termination,
    all_equilibria,
    classify,
    classify_omega_limit,
    homoclinic_gap,
    integrate,
    interior_equilibria,
    separatrix,
    trace_manifold,
)
from alleetanner import flow
from alleetanner.bifurcation import bt_point
from alleetanner.model import jacobian, vector_field
from alleetanner.stability import (_MONOMIALS, _REMAINDER_SHARE, _SECTORS,
                                   _sector_bounds, _sector_table,
                                   lyapunov_matrix, trapping_radius)

from conftest import (BISTABLE, CYCLE_POINT, EXTINCTION, FAST_CFG,
                      SINGLE_STABLE, WEAK_BISTABLE)

GENERIC_CYCLE = Params(0.04, 0.082, 0.45, 0.07)

params = st.builds(
    Params,
    st.floats(-0.9, 0.9),
    st.floats(0.01, 1.0),
    st.floats(0.05, 2.0),
    st.floats(0.02, 1.5))


def _matrix(P):
    p11, p12, p22 = P
    return np.array([[p11, p12], [p12, p22]])


def _attracting(p):
    return [eq for eq in all_equilibria(p)
            if eq.in_domain and classify(p, eq).attracting]


@settings(max_examples=200, deadline=None)
@given(params)
def test_lyapunov_residual_against_the_jacobian(p):
    for eq in _attracting(p):
        A = np.asarray(jacobian(p, eq.location))
        P = lyapunov_matrix(A)
        assume(P is not None)
        P = _matrix(P)
        residual = A.T @ P + P @ A + np.eye(2)
        scale = np.linalg.norm(A) * np.linalg.norm(P)
        assert np.abs(residual).max() <= 1e-12 * scale
        assert np.linalg.eigvalsh(P)[0] > 0.0


@settings(max_examples=200, deadline=None)
@given(params, st.data())
def test_field_enters_the_sublevel_set(p, data):
    # dV/dt = 2 y^T P f(x* + y) <= -|y|^2/2 on the disc of radius rho, so
    # it is negative inside the certified disc and on the boundary of the
    # sublevel set V <= lmin rho^2; -|y|^2/4 leaves room for rounding
    discs = [(eq, trapping_radius(p, eq.location)) for eq in _attracting(p)]
    discs = [(eq, r) for eq, r in discs if r > 0.0]
    assume(discs)
    for eq, r in discs:
        x = np.array(eq.location)
        P = _matrix(lyapunov_matrix(jacobian(p, eq.location)))
        lmin, lmax = np.linalg.eigvalsh(P)
        rho = r * math.sqrt(lmax / lmin)
        a, b = (data.draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(2))
        e_in, e_on = (np.array([math.cos(t), math.sin(t)]) for t in (a, b))
        inside = data.draw(st.floats(0.01, 1.0)) * r * e_in
        on_level = math.sqrt(lmin * rho * rho / (e_on @ P @ e_on)) * e_on
        assert r <= np.linalg.norm(on_level) <= rho * (1.0 + 1e-12)
        for y in (inside, on_level):
            dv = 2.0 * y @ P @ np.array(vector_field(p, tuple(x + y)))
            assert dv < -0.25 * (y @ y)


@settings(max_examples=200, deadline=None)
@given(params, st.floats(0.0, 1.5), st.floats(0.0, 1.5), st.floats(0.0, 0.99),
       st.floats(0.0, 2.0 * math.pi))
def test_taylor_remainder_has_its_closed_form(p, u, v, share, a):
    # R = f(x + y) - f(x) - J(x) y at any x, for |y| < u + C:
    # R_u = ((1 + M) - 3u) y1^2 - Q y1 y2 - y1^3 and
    # R_v = -S (w y2 - v y1)^2 / (w^2 (w + y1)) with w = u + C,
    # the two remainders that trapping_radius bounds
    M, S, Q, C = p
    w = u + C
    y1, y2 = share * w * np.array([math.cos(a), math.sin(a)])
    fx = np.array(vector_field(p, (u, v)))
    fy = np.array(vector_field(p, (u + y1, v + y2)))
    J = np.array(jacobian(p, (u, v)))
    rem = fy - fx - J @ np.array([y1, y2])
    want = np.array([((1.0 + M) - 3.0 * u) * y1 * y1 - Q * y1 * y2 - y1 ** 3,
                     -S * (w * y2 - v * y1) ** 2 / (w * w * (w + y1))])
    # each side is exact up to a few roundings of the terms it sums, or
    # up to underflow
    scale = (_field_size(p, u, v) + _field_size(p, u + y1, v + y2)
             + np.abs(J) @ np.abs([y1, y2]) + np.abs(want))
    assert np.all(np.abs(rem - want) <= 1e-13 * scale + 1e-300)


def _field_size(p, u, v):
    """The field's components with every term and factor taken by its
    size: what bounds their rounding errors."""
    M, S, Q, C = p
    return np.array([abs(u) * ((1.0 + abs(u)) * (abs(u) + abs(M))
                               + Q * abs(v)),
                     S * abs(v) * (abs(u) + abs(v) + C) / abs(u + C)])


def _sector_bounds_hold(p, state):
    """Check every sector's bounds in ``_sector_bounds`` against alpha,
    beta and e^T P e at 65 directions of the sector, ends included, and
    against the gamma term gamma/(w + t cos) at 16 points of each such ray
    up to the sector's reach.  The bounds may exceed by 1e-12 of the size
    of their terms, for rounding."""
    bounds = _sector_bounds(p, state)
    assert bounds is not None
    M, S, Q, C = p
    u, v = state
    w = u + C
    a = 1.0 + M - 3.0 * u
    p11, p12, p22 = lyapunov_matrix(jacobian(p, state))
    two_k = 2.0 / _REMAINDER_SHARE
    angles = (np.arange(_SECTORS)[:, None] + np.linspace(0.0, 1.0, 65)) \
        * (2.0 * math.pi / _SECTORS)
    c, s = np.cos(angles), np.sin(angles)
    pe = p11 * c + p12 * s
    alpha = two_k * pe * (a * c * c - Q * c * s)
    beta = -two_k * pe * c ** 3
    gamma = -two_k * S * (p12 * c + p22 * s) * (w * s - v * c) ** 2 / (w * w)
    epe = p11 * c * c + 2.0 * p12 * c * s + p22 * s * s
    al, be, ga, d, q, reach = (np.array(col)[:, None]
                               for col in zip(*bounds[1]))
    size_p = abs(p11) + 2.0 * abs(p12) + abs(p22)
    assert (alpha <= al + 1e-12 * two_k * size_p * (abs(a) + Q)).all()
    assert (beta <= be + 1e-12 * two_k * size_p).all()
    assert (epe >= q - 1e-12 * size_p).all()
    # the rays up to the reach, or up to w where the reach is unbounded
    t = np.where(np.isfinite(reach), reach, w)[..., None] \
        * np.linspace(0.0, 1.0, 17)[1:]
    term = gamma[..., None] / (w + t * c[..., None])
    bound = ga[..., None] / (1.0 + d[..., None] * t)
    size_g = two_k * S * size_p * (w + abs(v)) ** 2 / w ** 3
    assert (term <= bound + 1e-11 * size_g).all()


def test_sector_table_bounds_each_monomial():
    # alpha, beta, gamma and e^T P e are bounded term by term, so a range
    # that misses a monomial's turn inside a sector can hide in the slack
    # of the other terms: each range must hold at 1025 directions of its
    # sector on its own
    table = np.array(_sector_table())
    angles = (np.arange(_SECTORS)[:, None] + np.linspace(0.0, 1.0, 1025)) \
        * (2.0 * math.pi / _SECTORS)
    c, s = np.cos(angles), np.sin(angles)
    for m, (a, b) in enumerate(_MONOMIALS):
        x = c ** a * s ** b
        assert (table[:, 2 * m, None] - 1e-15 <= x).all(), (a, b)
        assert (x <= table[:, 2 * m + 1, None] + 1e-15).all(), (a, b)


@pytest.mark.parametrize("p", [BISTABLE, WEAK_BISTABLE, GENERIC_CYCLE,
                               SINGLE_STABLE, EXTINCTION])
def test_sector_bounds_at_the_paper_attractors(p):
    # each bound trapping_radius certifies with holds across its sector
    attractors = _attracting(p)
    assert attractors
    for eq in attractors:
        _sector_bounds_hold(p, eq.location)


@settings(max_examples=100, deadline=None)
@given(params)
def test_sector_bounds_hold(p):
    for eq in _attracting(p):
        assume(lyapunov_matrix(jacobian(p, eq.location)) is not None)
        _sector_bounds_hold(p, eq.location)


def test_disc_at_the_paper_attractors():
    # every attractor of the paper's points gets a disc far wider than
    # rho_eq, and both bistable attractors at least 3x the discs that a
    # Frobenius bound on the Hessians over the whole disc certified:
    # 2.28e-3 about (0, C) and 1.63e-3 about the interior point
    for p in (BISTABLE, GENERIC_CYCLE, WEAK_BISTABLE):
        for eq in _attracting(p):
            assert 1e-4 < trapping_radius(p, eq.location) < 0.1
    old = {EquilibriumKind.PREDATOR_ONLY: 2.28e-3,
           EquilibriumKind.INTERIOR_HIGH: 1.63e-3}
    discs = {eq.kind: trapping_radius(BISTABLE, eq.location)
             for eq in _attracting(BISTABLE)}
    assert discs.keys() == old.keys()
    for kind, r in discs.items():
        assert r >= 3.0 * old[kind]


@settings(max_examples=200, deadline=None)
@given(params)
def test_no_disc_without_an_attractor(p):
    for eq in all_equilibria(p):
        if eq.in_domain and not classify(p, eq).attracting:
            assert trapping_radius(p, eq.location) == 0.0


@pytest.mark.parametrize("p", [BISTABLE, WEAK_BISTABLE, CYCLE_POINT,
                               GENERIC_CYCLE])
def test_no_disc_at_saddles_and_the_origin(p):
    for eq in all_equilibria(p):
        tag = classify(p, eq).tag
        if eq.kind is EquilibriumKind.ORIGIN or tag is StabilityTag.SADDLE:
            assert trapping_radius(p, eq.location) == 0.0
            assert lyapunov_matrix(jacobian(p, eq.location)) is None


@pytest.mark.parametrize("q, c", [(0.45, 0.07), (0.5, 0.1), (0.55, 0.1),
                                  (0.8, 0.05)])
def test_no_disc_at_the_bogdanov_takens_point(q, c):
    m, s = bt_point(q, c)
    p = Params(m, s, q, c)
    (eq,) = [e for e in all_equilibria(p)
             if e.kind is EquilibriumKind.INTERIOR_DOUBLE]
    assert classify(p, eq).tag is StabilityTag.CUSP_BT
    assert trapping_radius(p, eq.location) == 0.0


def test_context_gives_discs_to_attractors_only():
    ctx = flow._context(BISTABLE)
    for t in ctx.targets:
        assert (t.r2 > 0.0) == (t.code > 0)
        if t.code:
            assert t.r2 == trapping_radius(BISTABLE, (t.u, t.v)) ** 2


def test_no_disc_is_certified_where_none_is_read(monkeypatch):
    # integrate and the manifold traces never test a disc, so their
    # contexts never run the certificate; only the walk for the cycle's
    # interval reads discs, which integrate builds once its orbit crosses
    # the section beyond the anchor
    def certify(p, state):
        raise AssertionError(f"a disc was certified about {state}")

    monkeypatch.setattr(flow, "trapping_radius", certify)
    integrate(BISTABLE, (0.02, 0.3), FAST_CFG)   # the Allee strip, to (0, C)
    integrate(BISTABLE, (0.5, 0.0), FAST_CFG)    # the prey axis, to (1, 0)
    saddle = interior_equilibria(BISTABLE)[0]
    trace_manifold(BISTABLE, saddle, BranchKind.STABLE,
                   BranchDirection.UP_RIGHT, FAST_CFG)
    homoclinic_gap(BISTABLE, FAST_CFG)
    separatrix(BISTABLE, FAST_CFG)
    with pytest.raises(AssertionError, match="certified"):
        integrate(BISTABLE, (0.3, 0.3), FAST_CFG)
    with pytest.raises(AssertionError, match="certified"):
        classify_omega_limit(BISTABLE, (0.3, 0.3), FAST_CFG)


def test_disc_ends_classification_but_not_integrate():
    # a seed inside the disc but far outside rho_eq: the classification
    # ends at the seed, integrate keeps to the rho_eq rule and runs into a
    # horizon too short to reach it
    cfg = IntegratorConfig(tau_max=1e-3)
    for eq in _attracting(BISTABLE):
        r = trapping_radius(BISTABLE, eq.location)
        seed = (eq.location[0] + 0.5 * r, eq.location[1] + 0.5 * r)
        assert classify_omega_limit(BISTABLE, seed, cfg) == AttractorLabel(
            AttractorTag.EQUILIBRIUM, eq.id)
        traj = integrate(BISTABLE, seed, cfg)
        assert traj.termination is Termination.HORIZON_EXCEEDED


def _label_of(p, traj):
    if traj.termination is Termination.REACHED_EQUILIBRIUM:
        if traj.equilibrium_id in {eq.id for eq in _attracting(p)}:
            return AttractorLabel(AttractorTag.EQUILIBRIUM,
                                  traj.equilibrium_id)
    if traj.termination is Termination.REACHED_CYCLE:
        return AttractorLabel(AttractorTag.LIMIT_CYCLE, "cycle")
    return AttractorLabel.undecided()


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([BISTABLE, GENERIC_CYCLE]),
       st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_classification_agrees_with_integrate(p, seed):
    traj = integrate(p, seed, FAST_CFG)
    assert classify_omega_limit(p, seed, FAST_CFG) == _label_of(p, traj)


def test_seeds_at_the_trapping_radius():
    # seeds a few ulp either side of each trapping circle, with a horizon
    # too short to reach rho_eq: only the disc test labels a cell, and the
    # lockstep and scalar tests agree on which side each seed lies
    cfg = IntegratorConfig(tau_max=1e-6)
    ctx = flow._context(BISTABLE)
    seeds = []
    for t in ctx.targets:
        for a in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
            u = t.u + math.sqrt(t.r2) * np.cos(a)
            v = t.v + math.sqrt(t.r2) * np.sin(a)
            for k in range(-3, 4):
                seeds.append((u + k * np.spacing(u), v))
    seeds = np.array([s for s in seeds if min(s) >= 0.0])
    want = []
    for s in seeds.tolist():
        lab = classify_omega_limit(BISTABLE, s, cfg)
        want.append(ctx.code(lab.id) if lab.tag is AttractorTag.EQUILIBRIUM
                    else 0 if lab.tag is AttractorTag.UNDECIDED
                    else ctx.cycle_code)
    assert flow._lockstep(ctx, seeds, cfg).tolist() == want
    # both sides of both circles occur
    assert {0, *(t.code for t in ctx.targets)} <= set(want)
