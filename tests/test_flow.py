import faulthandler
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleetanner import (
    AttractorTag,
    IntegratorConfig,
    Params,
    Termination,
    classify_omega_limit,
    compute_basins,
    find_limit_cycle,
    integrate,
    interior_equilibria,
    is_global_extinction,
    jacobian,
)
from alleetanner.flow import (_TH_MAX, _bisect_crossings, _context,
                              _cycle_found, _dense, _drive, _lockstep,
                              _prey_reach, _refine_crossing, _section_quartic,
                              _Stepper)
from alleetanner.model import field_closure
from alleetanner.stability import classify
from alleetanner.equilibria import all_equilibria

from conftest import (BISTABLE, CYCLE_POINT, EXTINCTION, FAST_CFG,
                      SINGLE_STABLE, random_params, sample_path)

FAST = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, rho_eq=1e-5,
                        tau_max=3e4)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=1e-14)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=-1.0)


def test_fixed_point_start_terminates_immediately():
    tr = integrate(BISTABLE, (1.0, 0.0))
    assert tr.termination is Termination.REACHED_EQUILIBRIUM
    assert tr.equilibrium_id == "prey_k"
    assert len(tr.taus) == 1


def test_axis_orbit_stays_on_axis():
    tr = integrate(BISTABLE, (0.5, 0.0))
    states = np.asarray(tr.states)
    assert (states[:, 1] == 0.0).all()
    assert states[-1, 0] == pytest.approx(1.0, abs=1e-5)
    assert tr.termination is Termination.REACHED_EQUILIBRIUM


def test_convergence_to_interior_attractor():
    # S = 0.12 is above the Hopf value 0.0843, so the upper point attracts
    tr = integrate(BISTABLE, (0.5, 0.5))
    assert tr.termination is Termination.REACHED_EQUILIBRIUM
    assert tr.equilibrium_id == "interior_high"
    states = np.asarray(tr.states)
    assert states[-1, 0] == pytest.approx(0.41960, abs=1e-4)
    assert states[-1, 1] == pytest.approx(0.48960, abs=1e-4)


def test_taus_strictly_increase():
    tr = integrate(BISTABLE, (0.9, 0.9))
    assert (np.diff(tr.taus) > 0).all()


def test_omega_limit_global_extinction():
    rng = np.random.default_rng(51)
    checked = 0
    for p in random_params(rng, 60):
        if not is_global_extinction(p):
            continue
        s0 = (float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
        lab = classify_omega_limit(p, s0, FAST)
        assert lab.tag is AttractorTag.EQUILIBRIUM
        assert lab.id == "predator_only"
        checked += 1
        if checked >= 12:
            break
    assert checked >= 12


def test_omega_limit_limit_cycle_regime():
    lab = classify_omega_limit(CYCLE_POINT, (0.5, 0.5))
    assert lab.tag is AttractorTag.LIMIT_CYCLE


def test_omega_limit_stable_interior_point():
    lab = classify_omega_limit(SINGLE_STABLE, (0.5, 0.5))
    assert lab.tag is AttractorTag.EQUILIBRIUM
    assert lab.id == "interior_high"
    eq = interior_equilibria(SINGLE_STABLE)[0]
    assert eq.location[0] == pytest.approx(0.395, abs=1e-9)
    assert eq.location[1] == pytest.approx(0.495, abs=1e-9)


def test_find_limit_cycle_present():
    cyc = find_limit_cycle(CYCLE_POINT, (0.5, 0.5))
    assert cyc is not None
    assert cyc.period > 0
    assert cyc.residual < IntegratorConfig().rho_cyc
    # the polyline closes on the section
    poly = np.asarray(cyc.polyline)
    gap = np.hypot(*(poly[0] - poly[-1]))
    assert gap < 10 * IntegratorConfig().rho_cyc
    # winding number around the enclosed interior point is one
    center = np.array([0.395, 0.495])
    rel = poly - center
    ang = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    assert (ang[-1] - ang[0]) / (2 * math.pi) == pytest.approx(1.0, abs=1e-6)


def test_find_limit_cycle_absent_when_point_attracts():
    assert find_limit_cycle(SINGLE_STABLE, (0.5, 0.5)) is None


def test_find_limit_cycle_absent_without_interior_point():
    assert find_limit_cycle(Params(0.0, 0.1, 1.2, 0.5), (0.5, 0.5)) is None


def test_trajectories_trapped_in_enlarged_box():
    rng = np.random.default_rng(53)
    cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, tau_max=2000.0)
    for k in range(100):
        p = random_params(rng, 1)[0]
        s0 = (float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)))
        tr = integrate(p, s0, cfg)
        states = np.asarray(tr.states)
        box_u = 1.0 + 0.05
        box_v = 1.0 + p.C + 0.05
        inside = (states[:, 0] <= box_u) & (states[:, 1] <= box_v)
        first = np.argmax(inside)
        assert inside.any(), (p, s0)
        assert inside[first:].all(), (p, s0)


def test_positivity_never_violated():
    rng = np.random.default_rng(59)
    cfg = IntegratorConfig(rel_tol=1e-7, abs_tol=1e-10, tau_max=2000.0)
    for k in range(50):
        p = random_params(rng, 1)[0]
        s0 = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
        tr = integrate(p, s0, cfg)
        assert (np.asarray(tr.states) >= 0.0).all()


def test_omega_limit_near_attractor_returns_it():
    cfg = IntegratorConfig()
    for p in (BISTABLE, SINGLE_STABLE):
        for eq in all_equilibria(p):
            if not eq.in_domain or not classify(p, eq).attracting:
                continue
            s0 = (eq.location[0] + 0.3 * cfg.rho_eq,
                  eq.location[1] + 0.3 * cfg.rho_eq)
            lab = classify_omega_limit(p, s0, cfg)
            assert lab.tag is AttractorTag.EQUILIBRIUM
            assert lab.id == eq.id


def test_omega_limit_undecided_on_saddle():
    # exactly on the saddle: honest refusal to call it an attractor
    p = BISTABLE
    saddle = interior_equilibria(p)[0]
    lab = classify_omega_limit(p, saddle.location)
    assert lab.tag is AttractorTag.UNDECIDED


def test_step_underflow_is_reported():
    def nasty(u, v):
        if u > 0.5:
            return float("nan"), float("nan")
        return 1.0, 0.0

    st = _Stepper(nasty, (0.45, 0.1), IntegratorConfig(), 100.0)
    while st.step():
        pass
    assert st.underflow


def test_dense_output_matches_closed_form():
    lam = -0.7

    def f(u, v):
        return lam * u, lam * v

    st = _Stepper(f, (1.0, 2.0), IntegratorConfig(), 5.0)
    while st.step():
        mid = 0.5 * (st.prev_tau + st.tau)
        u, v = st.state_at(mid)
        assert u == pytest.approx(math.exp(lam * mid), abs=1e-9)
        assert v == pytest.approx(2 * math.exp(lam * mid), abs=1e-9)


def test_seed_on_singular_line_is_underflow():
    # u + C = 0 makes the predator equation singular at the seed itself
    s0 = (-BISTABLE.C, 0.25)
    assert classify_omega_limit(BISTABLE, s0).tag is AttractorTag.UNDECIDED
    tr = integrate(BISTABLE, s0)
    assert tr.termination is Termination.STEP_UNDERFLOW
    assert np.asarray(tr.taus).tolist() == [0.0]
    assert np.asarray(tr.states).tolist() == [list(s0)]
    assert find_limit_cycle(BISTABLE, s0) is None


@pytest.mark.parametrize("s0", [(math.nan, 0.5), (math.inf, 0.5),
                                (0.5, math.inf)],
                         ids=["nan-prey", "inf-prey", "inf-predator"])
def test_non_finite_seed_ends_at_once(s0):
    # the first step size is NaN: the underflow test fails it, in both
    # integrator loops, instead of quartering it forever
    faulthandler.dump_traceback_later(60, exit=True)
    try:
        tr = integrate(BISTABLE, s0)
        assert tr.termination is Termination.STEP_UNDERFLOW
        assert len(tr.taus) == 1
        lab = classify_omega_limit(BISTABLE, s0)
        assert lab.tag is AttractorTag.UNDECIDED
        labels = _lockstep(_context(BISTABLE), np.array([s0]), FAST_CFG)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert labels.tolist() == [0]


@pytest.mark.parametrize("reverse", [False, True])
def test_refine_crossing_locates_both_directions(reverse):
    # orbits round the interior point cross v = u + C both ways; the time
    # found lies in the step, on the step end's side of g < 0 / g >= 0
    C = CYCLE_POINT.C
    f = field_closure(CYCLE_POINT)
    if reverse:
        def f(u, v, _f=f):
            du, dv = _f(u, v)
            return -du, -dv
    st = _Stepper(f, (0.5, 0.5), IntegratorConfig(), 1000.0)
    directions = []
    while st.step():
        g0 = st.prev_v - st.prev_u - C
        g1 = st.v - st.u - C
        if (g0 < 0.0) == (g1 < 0.0):
            continue
        tau, u, v = _refine_crossing(st, C)
        assert st.prev_tau <= tau <= st.tau
        assert (u, v) == st.state_at(tau)
        assert (v - u - C < 0.0) == (g1 < 0.0)
        assert abs(v - u - C) < 1e-12
        directions.append(g0 < g1)
    assert directions.count(True) >= 3 and directions.count(False) >= 3


def _bisect_64(stepper, C):
    """Brute-force reference: 64 halvings of the last step, with no stop."""
    lo, hi = stepper.prev_tau, stepper.tau
    up = stepper.prev_v - stepper.prev_u - C < stepper.v - stepper.u - C
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        u, v = stepper.state_at(mid)
        if (v - u - C < 0.0) == up:
            lo = mid
        else:
            hi = mid
    return (hi, *stepper.state_at(hi))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([BISTABLE, CYCLE_POINT]),
       st.sampled_from([FAST_CFG, IntegratorConfig()]),
       st.floats(0.01, 1.0), st.floats(0.01, 1.0))
def test_refine_crossing_equals_64_halvings(p, cfg, u0, v0):
    # both locators stop at the bracket's fixed point, which a full
    # 64-halving bisection reaches too: same bytes, both directions
    C = p.C
    stepper = _Stepper(field_closure(p), (u0, v0), cfg, 1000.0)
    found, up_steps, up_want = 0, [], []
    while found < 16 and stepper.step():
        g0 = stepper.prev_v - stepper.prev_u - C
        g1 = stepper.v - stepper.u - C
        if (g0 < 0.0) == (g1 < 0.0):
            continue
        found += 1
        want = _bisect_64(stepper, C)
        assert _refine_crossing(stepper, C) == want
        if g0 < g1:
            up_want.append(want[:2])
            up_steps.append((stepper.prev_tau, stepper.prev_u, stepper.prev_v,
                             stepper.h_last, *stepper.ks))
    if up_steps:
        a = np.array(up_steps).T
        tau_c, u_c = _bisect_crossings(C, a[0], a[1], a[2], a[3], a[4:])
        assert list(zip(tau_c.tolist(), u_c.tolist())) == up_want


def _refine_plain(stepper, C):
    """The crossing locator with every halving read from the dense-output
    state, as it was before the quartic test."""
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


CYCLE_BISTABLE = Params(0.04, 0.082, 0.45, 0.07)


@st.composite
def _steps(draw):
    """An accepted step of the field from a random seed, and a line
    v - u = c that it crosses: at a random th, or, for a near-tangent
    crossing, just inside the turn of v - u within the step, when it
    turns there."""
    p = draw(st.sampled_from([BISTABLE, CYCLE_POINT, CYCLE_BISTABLE]))
    cfg = draw(st.sampled_from([FAST_CFG, IntegratorConfig()]))
    seed = draw(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)))
    stepper = _Stepper(field_closure(p), seed, cfg, 1000.0)
    for _ in range(draw(st.integers(1, 300))):
        if not stepper.step():
            break
    assert stepper.ks is not None
    h = stepper.h_last
    gaps = [v - u for u, v in (_dense(k / 128, h, stepper.prev_u,
                                      stepper.prev_v, stepper.ks)
                               for k in range(129))]
    turn = [k for k in range(1, 128)
            if (gaps[k] - gaps[k - 1]) * (gaps[k + 1] - gaps[k]) <= 0.0]
    if turn and draw(st.booleans()):
        c = gaps[turn[0]]
    else:
        c = gaps[draw(st.integers(0, 128))]
    c *= 1.0 + draw(st.sampled_from([0.0, 1.0, -1.0])) * 10.0 ** -draw(
        st.integers(6, 17))
    return stepper, c


@settings(max_examples=150, deadline=None)
@given(_steps())
def test_quartic_crossing_equals_plain_bisection(step):
    # every halving that the quartic decides, it decides as the state
    # would, so the time and the state keep their bytes
    stepper, c = step
    got = _refine_crossing(stepper, c)
    want = _refine_plain(stepper, c)
    assert [x.hex() for x in got] == [x.hex() for x in want]


def _bisect_plain(C, prev_tau, pu, pv, h, ks):
    """The batch crossing locator with every halving read from the
    dense-output state, as it was before the quartic test."""
    lo, hi = prev_tau, prev_tau + h
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        u, v = _dense((mid - prev_tau) / h, h, pu, pv, ks)
        below = v - u - C < 0.0
        moved = below & (mid != lo) | ~below & (mid != hi)
        if not moved.any():
            break
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return hi, _dense((hi - prev_tau) / h, h, pu, pv, ks)[0]


@settings(max_examples=100, deadline=None)
@given(st.lists(_steps(), min_size=1, max_size=8))
def test_batch_quartic_crossing_equals_plain_bisection(steps):
    # the batch twin: the first step keeps its line v - u = c as the
    # section; every other step is moved up by the difference of the lines,
    # so that it crosses the same section where it crossed its own
    C = steps[0][1]
    cols = [(s.prev_tau, s.prev_u, s.prev_v + (C - c), s.h_last, *s.ks)
            for s, c in steps]
    a = np.array(cols).T
    got = _bisect_crossings(C, a[0], a[1], a[2], a[3], a[4:])
    want = _bisect_plain(C, a[0], a[1], a[2], a[3], a[4:])
    assert [[x.hex() for x in col.tolist()] for col in got] \
        == [[x.hex() for x in col.tolist()] for col in want]


def _quartic_off_by(h, u0, v0, ks, C, th):
    """|g_q - g| exactly, with g the dense test's v - u (rounded) less C,
    and the quartic's margin."""
    g0, c0, c1, c2, c3, margin = _section_quartic(h, u0, v0, ks, C)
    g_q = g0 + h * th * (c0 + th * (c1 + th * (c2 + th * c3)))
    u, v = _dense(th, h, u0, v0, ks)
    return abs(Fraction(g_q) - (Fraction(v - u) - Fraction(C))), margin


@settings(max_examples=300, deadline=None)
@given(_steps(), st.one_of(st.floats(0.0, 1.0),
                           st.sampled_from([0.0, 1.0, _TH_MAX])))
def test_quartic_margin_bounds_its_error_on_steps(step, th):
    stepper, c = step
    off, margin = _quartic_off_by(stepper.h_last, stepper.prev_u,
                                  stepper.prev_v, stepper.ks, c, th)
    assert off <= margin


_mag = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 10.0), _mag, _mag, st.lists(_mag, min_size=12,
                                                   max_size=12),
       _mag, st.floats(0.0, _TH_MAX))
def test_quartic_margin_bounds_its_error_on_any_stages(h, u0, v0, ks, C, th):
    # the bound holds for any finite stages, not only those of the field:
    # here they cancel in v - u and across stages as they like
    off, margin = _quartic_off_by(h, u0, v0, tuple(ks), C, th)
    assert off <= margin


def _prey_within_reach(h, u0, ks, th):
    """Whether ``_dense``'s prey value at th lies within ``_prey_reach`` of
    u0, exactly and as the lockstep test computes u0 -+ E."""
    e = _prey_reach(np.array([h]), np.array([u0]),
                    np.array([[k] for k in ks[::2]]))[0].item()
    u = _dense(th, h, u0, 0.0, ks)[0]
    return (abs(Fraction(u) - Fraction(u0)) <= Fraction(e)
            and u0 - e <= u <= u0 + e)


@settings(max_examples=300, deadline=None)
@given(_steps(), st.one_of(st.floats(0.0, 1.0),
                           st.sampled_from([0.0, 1.0, _TH_MAX])))
def test_prey_reach_bounds_the_dense_prey_on_steps(step, th):
    # a crossing decided by the step alone ends inside the focus interval
    # only if every prey value the bisection can return lies there
    stepper, _ = step
    assert _prey_within_reach(stepper.h_last, stepper.prev_u, stepper.ks, th)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-6, 10.0), _mag, st.lists(_mag, min_size=12, max_size=12),
       st.floats(0.0, _TH_MAX))
def test_prey_reach_bounds_the_dense_prey_on_any_stages(h, u0, ks, th):
    assert _prey_within_reach(h, u0, tuple(ks), th)


def _real_steps():
    """(h, u0, v0, stages) of the first 30 accepted steps from two seeds
    at the bistable and the cycle point."""
    steps = []
    for p in (BISTABLE, CYCLE_POINT):
        for seed in ((0.3, 0.3), (0.6, 0.2)):
            stepper = _Stepper(field_closure(p), seed, FAST_CFG, 1000.0)
            for _ in range(30):
                assert stepper.step()
                steps.append((stepper.h_last, stepper.prev_u, stepper.prev_v,
                              stepper.ks))
    return steps


_STEPS = _real_steps()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=len(_STEPS),
                max_size=len(_STEPS)))
def test_dense_output_same_on_floats_and_arrays(ths):
    # the stepper's dense output and the batch locator's are one function:
    # each step's state at any theta has the same bytes alone or in a batch
    want = [_dense(th, h, u0, v0, ks)
            for th, (h, u0, v0, ks) in zip(ths, _STEPS)]
    h, u0, v0 = (np.array(col) for col in zip(*(s[:3] for s in _STEPS)))
    ks = np.array([s[3] for s in _STEPS]).T
    got = _dense(np.array(ths), h, u0, v0, ks)
    assert np.array(got).tobytes() == np.array(want).T.tobytes()


def test_cycle_predicate_at_its_boundaries():
    # the return-map test of the cycle hunts, at its exact boundaries
    cfg = IntegratorConfig()
    r = cfg.rho_cyc
    last = 5e-8
    cases = [  # (delta, last_delta, u_c, expected), anchor 0
        (0.5 * last, last, 0.5, True),
        (math.nan, last, 0.5, False),              # no earlier crossing
        (0.5 * last, math.nan, 0.5, False),        # no earlier difference
        (math.nan, math.nan, 0.5, False),
        (r, 2.0 * r, 0.5, False),                  # |delta| = rho_cyc
        (np.nextafter(r, 0.0), 2.0 * r, 0.5, True),
        (0.5 * r, 10.0 * r, 0.5, False),           # |last| = 10 rho_cyc
        (0.98 * last, last, 0.5, True),            # ratio exactly 0.98
        (-0.98 * last, -last, 0.5, True),
        (np.nextafter(0.98 * last, 1.0), last, 0.5, False),
        (0.5 * last, last, 1e-3, True),            # |u_c - anchor| = 1e-3
        (0.5 * last, last, -1e-3, True),
        (0.5 * last, last, np.nextafter(1e-3, 0.0), False),
        # a sign flip is noise at the floor, even where |delta| grew
        (-0.5 * last, last, 0.5, True),
        (np.nextafter(r, 0.0), -0.5 * r, 0.5, True),
        (-np.nextafter(r, 0.0), 0.5 * r, 0.5, True),
        (r, -0.5 * r, 0.5, False),                 # |delta| = rho_cyc
        (-r, 0.5 * r, 0.5, False),
        (0.5 * r, -10.0 * r, 0.5, False),          # |last| = 10 rho_cyc
        (-0.5 * last, last, np.nextafter(1e-3, 0.0), False),
        (0.0, last, 0.5, True),                    # a zero is no flip
        # a same-sign slow drift, ratio 0.99, is not convergence
        (0.99 * last, last, 0.5, False),
        (-0.99 * last, -last, 0.5, False),
    ]
    want = [c[3] for c in cases]
    got = [_cycle_found(float(d), float(ld), float(u), 0.0, cfg)
           for d, ld, u, _ in cases]
    assert got == want


def test_cycle_predicate_rejects_slow_monotone_drift():
    # a return map with multiplier 0.99: differences keep their sign and
    # shrink too slowly to pass, from 10 rho_cyc to below 1e-5 rho_cyc
    cfg = IntegratorConfig()
    for sign in (1.0, -1.0):
        deltas = sign * 9.9e-7 * 0.99 ** np.arange(1400)
        assert not any(_cycle_found(float(d), float(ld), 0.5, 0.0, cfg)
                       for d, ld in zip(deltas[1:], deltas[:-1]))


GENERIC_CYCLE = Params(0.04, 0.082, 0.45, 0.07)
# tight enough that return-map differences over 2e-3 resolve a multiplier
# of 6e-12
TIGHT = IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15)


def _first_return(ctx, x, cfg):
    """Prey value of the first upward crossing of v = u + C beyond the
    anchor, from the section point (x, x + C)."""
    C = ctx.p.C
    st = _Stepper(ctx.f, (x, x + C), cfg, cfg.tau_max)
    while st.step():
        if st.prev_v - st.prev_u - C < 0.0 <= st.v - st.u - C:
            tau, u, _ = _refine_crossing(st, C)
            # the start itself lies on the section
            if u > ctx.anchor and tau > 1.0:
                return u
    raise AssertionError("no return to the section")


@pytest.mark.parametrize("p", [CYCLE_POINT, GENERIC_CYCLE],
                         ids=["cycle-point", "generic"])
def test_cycle_cells_end_on_the_attracting_cycle(p):
    """Oracle for the return-map test: the cycle's multiplier, by finite
    differences of the first-return map, is in (0, 1) and equals Liouville's
    exp(integral of the divergence over one period); every raster cell
    labelled as the cycle ends, through ``_drive``, near
    ``find_limit_cycle``'s crossing.  "Near" is 3 rho_cyc / (1 - m): with
    multiplier m, a crossing whose next difference is below rho_cyc lies
    within rho_cyc * m / (1 - m) of the fixed point."""
    ctx = _context(p)
    u, v = interior_equilibria(p)[-1].location
    cyc = find_limit_cycle(p, (min(u + 0.05, 0.98), v), FAST_CFG)
    x = cyc.crossing[0]
    eps = 1e-3
    m = (_first_return(ctx, x + eps, TIGHT)
         - _first_return(ctx, x - eps, TIGHT)) / (2.0 * eps)
    assert 0.0 < m < 1.0
    taus = np.linspace(0.0, cyc.period, 1001)
    path = sample_path(ctx.f, (x, x + p.C), TIGHT, cyc.period, taus)
    tr = np.array([np.trace(jacobian(p, s)) for s in path])
    div = float(np.sum(0.5 * (tr[1:] + tr[:-1]) * np.diff(taus)))
    assert abs(math.log(m) - div) < 0.1

    raster = compute_basins(p, 6, FAST_CFG)
    code = [a.code for a in raster.attractors if a.kind == "cycle"][0]
    rows, cols = np.nonzero(raster.labels == code)
    assert len(rows) > 0
    for i, j in zip(rows, cols):
        s0 = ((j + 0.5) / 6, (i + 0.5) / 6)
        res = _drive(ctx, s0, FAST_CFG, want_samples=False)
        assert res.termination is Termination.REACHED_CYCLE
        assert (abs(res.cycle.crossing[0] - x)
                < 3.0 * FAST_CFG.rho_cyc / (1.0 - m))


def _cycle_bits(cyc):
    """Every float of a Cycle, field by field, as exact hex strings."""
    return (cyc.period.hex(), [(u.hex(), v.hex()) for u, v in cyc.polyline],
            tuple(x.hex() for x in cyc.crossing), cyc.residual.hex())


@pytest.mark.parametrize("p", [CYCLE_POINT, GENERIC_CYCLE],
                         ids=["cycle-point", "generic"])
def test_default_seed_starts_beside_the_larger_interior_point(p):
    """With no seed, the hunt starts from (min(u + 0.05, 0.98), v) at the
    larger interior point (u, v), taken from the equilibrium table rather
    than from the section's anchor."""
    u, v = interior_equilibria(p)[-1].location
    want = find_limit_cycle(p, (min(u + 0.05, 0.98), v), FAST_CFG)
    got = find_limit_cycle(p, None, FAST_CFG)
    assert want is not None and got is not None
    assert _cycle_bits(got) == _cycle_bits(want)


def test_default_seed_without_interior_point():
    assert find_limit_cycle(EXTINCTION, None, FAST_CFG) is None
