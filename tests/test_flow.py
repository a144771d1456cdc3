import math

import numpy as np
import pytest

from alleetanner import (
    AttractorTag,
    IntegratorConfig,
    Params,
    Termination,
    classify_omega_limit,
    find_limit_cycle,
    integrate,
    interior_equilibria,
    is_global_extinction,
)
from alleetanner.flow import _refine_crossing, _Stepper
from alleetanner.model import field_closure
from alleetanner.stability import classify
from alleetanner.equilibria import all_equilibria

from conftest import CYCLE_POINT, BISTABLE, SINGLE_STABLE, random_params

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
    assert (tr.states[:, 1] == 0.0).all()
    assert tr.states[-1, 0] == pytest.approx(1.0, abs=1e-5)
    assert tr.termination is Termination.REACHED_EQUILIBRIUM


def test_convergence_to_interior_attractor():
    # S = 0.12 is above the Hopf value 0.0843, so the upper point attracts
    tr = integrate(BISTABLE, (0.5, 0.5))
    assert tr.termination is Termination.REACHED_EQUILIBRIUM
    assert tr.equilibrium_id == "interior_high"
    assert tr.states[-1, 0] == pytest.approx(0.41960, abs=1e-4)
    assert tr.states[-1, 1] == pytest.approx(0.48960, abs=1e-4)


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
    gap = np.hypot(*(cyc.polyline[0] - cyc.polyline[-1]))
    assert gap < 10 * IntegratorConfig().rho_cyc
    # winding number around the enclosed interior point is one
    center = np.array([0.395, 0.495])
    rel = cyc.polyline - center
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
        box_u = 1.0 + 0.05
        box_v = 1.0 + p.C + 0.05
        inside = (tr.states[:, 0] <= box_u) & (tr.states[:, 1] <= box_v)
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
        assert (tr.states >= 0.0).all()


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
    assert st.status == _Stepper.UNDERFLOW


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
    assert tr.taus.tolist() == [0.0]
    assert tr.states.tolist() == [list(s0)]
    assert find_limit_cycle(BISTABLE, s0) is None


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
