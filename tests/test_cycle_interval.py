"""The certified section interval that ends cycle cells early.

``flow._section_interval`` hunts the cycle and keeps [a, b] around its
crossing on v = u + C only if the return map P has P(a) > a and P(b) < b
beyond the integrator's error margin, a lies far enough beyond the anchor,
and no equilibrium lies between the two orbits' downward crossings.  The
oracle rebuilds P(a) and P(b) at rel_tol 1e-12, with a return map written
here from the stepper and the crossing locator alone.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from alleetanner import (
    IntegratorConfig,
    Params,
    classify_omega_limit,
    compute_basins,
    find_limit_cycle,
    homoclinic_gap,
    integrate,
    region_classify,
    separatrix,
)
from alleetanner.bifurcation import RegionLabel
from alleetanner import flow

from conftest import BISTABLE, CYCLE_POINT, FAST_CFG

# the paper's bistable point below the Hopf value: a stable cycle around
# the upper interior point, the saddle below it, and (0, C) attracting
CYCLE_BISTABLE = Params(0.04, 0.082, 0.45, 0.07)
TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
W = flow._SECTION_HALF_WIDTH


def return_map(p, x, cfg):
    """Prey value of the orbit from (x, x + C) at its second upward
    crossing of v = u + C beyond the anchor's side, counting the start as
    the first."""
    C = p.C
    st = flow._Stepper(flow._context(p).f, (x, x + C), cfg, 1e4)
    went_down = False
    while st.step():
        g0 = st.prev_v - st.prev_u - C
        g1 = st.v - st.u - C
        if g0 > 0.0 > g1:
            went_down = True
        elif went_down and g0 < 0.0 < g1:
            return flow._refine_crossing(st, C)[1]
    raise AssertionError("no return")


@pytest.mark.parametrize("p", [CYCLE_POINT, CYCLE_BISTABLE],
                         ids=["cycle", "cycle_bistable"])
@pytest.mark.parametrize("cfg", [FAST_CFG, IntegratorConfig()],
                         ids=["fast", "default"])
def test_interval_maps_into_itself_at_tight_tolerance(p, cfg):
    ctx = flow._context(p)
    interval = flow._section_interval(ctx, cfg)
    assert interval is not None
    a, b = interval
    assert b - a == pytest.approx(2.0 * W)
    assert a - ctx.anchor >= flow._MIN_CYCLE_RADIUS
    assert return_map(p, a, TIGHT) > a
    assert return_map(p, b, TIGHT) < b
    # the hunt's crossing, at the same tolerances, lies inside
    u_star = ctx.anchor
    cyc = find_limit_cycle(p, (min(u_star + 0.05, 0.98), u_star + p.C), cfg)
    assert a < cyc.crossing[0] < b


@pytest.mark.parametrize("shift", [-1.5 * W, 1.5 * W])
@pytest.mark.parametrize("p", [CYCLE_POINT, CYCLE_BISTABLE],
                         ids=["cycle", "cycle_bistable"])
def test_interval_off_the_cycle_is_not_certified(p, shift):
    # both ends on one side of the cycle: both orbits return, and P moves
    # one end outward
    ctx = flow._context(p)
    a, b = flow._section_interval(ctx, FAST_CFG)
    assert flow._certified_interval(ctx, FAST_CFG, a, b) == (a, b)
    a, b = a + shift, b + shift
    (pa, _, ma), (pb, _, mb) = (flow._first_return(ctx, FAST_CFG, x)
                                for x in (a, b))
    assert (pa - a > ma) != (b - pb > mb)
    assert flow._certified_interval(ctx, FAST_CFG, a, b) is None


def test_interval_whose_downward_crossings_bracket_the_saddle():
    # move the saddle's target between the orbits' downward crossings:
    # the annulus would then hold an equilibrium
    ctx = flow._context(CYCLE_BISTABLE)
    a, b = flow._section_interval(ctx, FAST_CFG)
    da = flow._first_return(ctx, FAST_CFG, a)[1]
    db = flow._first_return(ctx, FAST_CFG, b)[1]
    assert da != db
    (saddle,) = [t for t in ctx.targets if t.id == "interior_low"]
    assert saddle.u < min(da, db)
    saddle.u = 0.5 * (da + db)
    assert flow._certified_interval(ctx, FAST_CFG, a, b) is None


def test_interval_needs_the_margin_and_the_radius():
    # rel_tol 1e-5 at the bistable cycle, multiplier ~0.85: each orbit's
    # error margin (~7e-5) exceeds P(a) - a (~1.5e-5) across an interval of
    # half-width 1e-4, not across the module's
    loose = IntegratorConfig(rel_tol=1e-5, abs_tol=1e-8, rho_eq=1e-5)
    ctx = flow._context(CYCLE_BISTABLE)
    a, b = flow._section_interval(ctx, FAST_CFG)
    # the converged crossing: the interval's centre is only an estimate of
    # the fixed point, too rough for a half-width of 1e-4
    u = flow._hunt(ctx, FAST_CFG).crossing[0]
    assert flow._certified_interval(ctx, loose, u - 1e-4, u + 1e-4) is None
    assert flow._certified_interval(ctx, FAST_CFG, u - 1e-4,
                                    u + 1e-4) is not None
    assert flow._section_interval(ctx, loose) is not None
    # from just beyond the unstable anchor the return map still moves out,
    # so only the radius rejects an interval that reaches within
    # _MIN_CYCLE_RADIUS of it
    r = flow._MIN_CYCLE_RADIUS
    pa, _, ma = flow._first_return(ctx, FAST_CFG, ctx.anchor + 0.5 * r)
    assert pa - (ctx.anchor + 0.5 * r) > ma
    assert flow._certified_interval(ctx, FAST_CFG, ctx.anchor + 0.5 * r,
                                    b) is None
    assert flow._certified_interval(ctx, FAST_CFG, ctx.anchor + 2.0 * r,
                                    b) == (ctx.anchor + 2.0 * r, b)


def _benchmark_cycle_points():
    """(M, S) of the cycle points in the benchmark window's region grid
    (Q = 0.5, C = 0.1, 16 x 12 cell centres)."""
    rows = (Path(__file__).parent / "golden" / "regions_benchmark.csv"
            ).read_text().splitlines()[1:]
    return [(float(m), float(s)) for m, s, region in
            (row.split(",") for row in rows) if region == "cycle"]


def test_certified_interval_holds_the_converged_crossing():
    # the hunt centres its interval on an extrapolated fixed point before it
    # has converged; the crossing it converges to when hunted on lies inside
    points = _benchmark_cycle_points()
    assert len(points) == 17
    certified = 0
    for m, s in points:
        ctx = flow._context(Params(m, s, 0.5, 0.1))
        interval = flow._section_interval(ctx, FAST_CFG)
        cyc = flow._hunt(ctx, FAST_CFG)
        assert cyc is not None, (m, s)
        if interval is not None:
            certified += 1
            a, b = interval
            assert b - a == pytest.approx(2.0 * W)
            assert a < cyc.crossing[0] < b, (m, s)
    # the two left out are small cycles with no room for the interval: the
    # orbit through its outer end leaves for (0, C)
    assert certified == 15


def test_a_return_into_a_trapping_disc_fails_at_once(monkeypatch):
    # at this cycle point of the benchmark grid the region hunt tries
    # intervals whose outer end's orbit falls into the trapping disc of
    # (0, C); that return fails there, not at the horizon
    p = Params(-0.0321875, 0.035208333333333335, 0.5, 0.1)
    ctx = flow._context(p)
    tried = []
    first_return = flow._first_return

    def spy(ctx, cfg, x):
        res = first_return(ctx, cfg, x)
        tried.append((x, res))
        return res

    monkeypatch.setattr(flow, "_first_return", spy)
    assert region_classify(p, FAST_CFG) is RegionLabel.CYCLE
    monkeypatch.setattr(flow, "_first_return", first_return)
    failed = [x for x, res in tried if res is None]
    assert failed
    attempts = [0]
    attempt = flow._dp_attempt

    def counted(*args):
        attempts[0] += 1
        return attempt(*args)

    monkeypatch.setattr(flow, "_dp_attempt", counted)
    for x in failed:
        attempts[0] = 0
        assert flow._first_return(ctx, FAST_CFG, x) is None
        assert attempts[0] < 100, x


def test_no_interval_without_a_cycle():
    # an attracting anchor: the hunt ends in its trapping disc
    assert flow._section_interval(flow._context(BISTABLE), FAST_CFG) is None


def test_return_skips_its_own_start():
    # from a section point where g rounds below zero the first step reads
    # as an upward crossing; the return is the next one, a revolution on
    p = CYCLE_POINT
    ctx = flow._context(p)
    a, b = flow._section_interval(ctx, FAST_CFG)
    xs = [x for x in b + np.spacing(b) * np.arange(64)
          if (x + p.C) - x - p.C < 0.0]
    assert xs
    for x in xs[:3]:
        pb, _, margin = flow._first_return(ctx, FAST_CFG, float(x))
        assert pb < x - margin


def test_only_classification_and_rasters_build_the_interval(monkeypatch):
    calls = []
    build = flow._section_interval

    def spy(ctx, cfg):
        calls.append(ctx.p)
        return build(ctx, cfg)

    monkeypatch.setattr(flow, "_section_interval", spy)
    monkeypatch.setattr("alleetanner.basin._section_interval", spy)
    # the contexts of the region grid, the manifold traces, the cycle hunt
    # and integrate carry none; the region grid hunts, but keeps no interval
    assert flow._context(CYCLE_POINT).interval is None
    region_classify(CYCLE_POINT, FAST_CFG)
    region_classify(CYCLE_BISTABLE, FAST_CFG)
    homoclinic_gap(CYCLE_BISTABLE, FAST_CFG)
    separatrix(CYCLE_BISTABLE, FAST_CFG)
    find_limit_cycle(CYCLE_POINT, (0.445, 0.495), FAST_CFG)
    integrate(CYCLE_POINT, (0.3, 0.3), FAST_CFG)
    assert calls == []
    classify_omega_limit(CYCLE_POINT, (0.3, 0.3), FAST_CFG)
    compute_basins(CYCLE_POINT, 3, FAST_CFG)
    assert calls == [CYCLE_POINT, CYCLE_POINT]


@pytest.mark.parametrize("tau_max, moves", [(FAST_CFG.tau_max, 0),
                                             (2500.0, 2)],
                         ids=["default", "horizon"])
def test_interval_moves_only_undecided_cells_to_the_cycle(tau_max, moves):
    # against the return-map rule alone, a cell can only stop being
    # Undecided: it reaches the cycle's interval before its horizon, as
    # two cells of the short-horizon raster do
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, rho_eq=1e-5,
                           tau_max=tau_max)
    res = 8
    c = (np.arange(res) + 0.5) / res
    seeds = np.array([(u, v) for v in c for u in c])
    ctx = flow._context(CYCLE_POINT)
    before = flow._lockstep(ctx, seeds, cfg)
    after = flow._lockstep(
        ctx._replace(interval=flow._section_interval(ctx, cfg)), seeds, cfg)
    moved = before != after
    assert np.count_nonzero(moved) == moves
    assert (before[moved] == 0).all()
    assert (after[moved] == ctx.cycle_code).all()


def test_a_cell_cut_short_after_its_interval_crossing(monkeypatch):
    # the horizon falls between a cell's crossing inside the interval and
    # its next crossing: the lockstep loop must settle that waiting crossing
    # before it drops the cell, as the scalar path ends at it
    monkeypatch.setattr(flow, "_HANDOVER", 0)
    ctx = flow._context(CYCLE_POINT)
    ctx = ctx._replace(interval=flow._section_interval(ctx, FAST_CFG))
    seeds = np.array([(0.3, 0.3), (0.7, 0.2), (0.2, 0.8)])
    for seed in seeds.tolist():
        res = flow._drive(ctx, seed, FAST_CFG, want_samples=True)
        assert res.termination is flow.Termination.REACHED_CYCLE
        assert res.cycle is None   # it ended at the interval
        cfg = dataclasses.replace(FAST_CFG, tau_max=res.taus[-1] + 50.0)
        assert flow._drive(ctx, seed, cfg, want_samples=False).termination \
            is flow.Termination.REACHED_CYCLE
        assert flow._lockstep(ctx, np.array([seed]), cfg).tolist() == [
            ctx.cycle_code]
