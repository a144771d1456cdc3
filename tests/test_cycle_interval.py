"""The certified section interval that ends cycle cells early.

``flow._section_interval`` walks the return map and keeps [a, b] around its
crossing on v = u + C only if the return map P has P(a) > a and P(b) < b
beyond the integrator's error margin, a lies far enough beyond the anchor,
and no equilibrium lies between the two orbits' downward crossings.  The
oracle rebuilds P(a) and P(b) at rel_tol 1e-12, with a return map written
here from the stepper and the crossing locator alone.
"""

import dataclasses
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from alleetanner import (
    AttractorLabel,
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
from alleetanner.stability import hopf_threshold
from alleetanner import bifurcation, flow

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
    u = find_limit_cycle(CYCLE_BISTABLE, cfg=FAST_CFG).crossing[0]
    assert flow._certified_interval(ctx, loose, u - 1e-4, u + 1e-4) is None
    assert flow._certified_interval(ctx, FAST_CFG, u - 1e-4,
                                    u + 1e-4) is not None
    lo, hi = flow._section_interval(ctx, loose)
    assert lo < hi
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
    # the walk centres its interval on an extrapolated fixed point before it
    # has converged; the crossing that find_limit_cycle converges to lies
    # inside
    points = _benchmark_cycle_points()
    assert len(points) == 17
    certified = 0
    for m, s in points:
        p = Params(m, s, 0.5, 0.1)
        interval = flow._section_interval(flow._context(p), FAST_CFG)
        cyc = find_limit_cycle(p, cfg=FAST_CFG)
        assert cyc is not None, (m, s)
        if interval is not None and interval[0] < interval[1]:
            certified += 1
            a, b = interval
            # the full width, up to the rounding of a and b, or narrower
            assert b - a <= 2.0 * W + 4.0 * np.spacing(b)
            assert a < cyc.crossing[0] < b, (m, s)
    # two are small cycles with no room for an interval of the full width:
    # the orbit through its outer end leaves for (0, C), and a narrower one
    # around the converged crossing holds
    assert certified == 17


def test_a_failed_interval_is_tried_narrower(monkeypatch):
    # a small cycle of the benchmark grid: both intervals of the full width
    # fail, and the first half-width one around the converged crossing holds;
    # no width is tried twice around one centre
    p = Params(-0.0321875, 0.035208333333333335, 0.5, 0.1)
    ctx = flow._context(p)
    tried = []
    certified_interval = flow._certified_interval

    def spy(ctx, cfg, a, b):
        tried.append((a, b))
        return certified_interval(ctx, cfg, a, b)

    monkeypatch.setattr(flow, "_certified_interval", spy)
    interval = flow._section_interval(ctx, FAST_CFG)
    assert len(tried) >= 3
    for i, (a0, b0) in enumerate(tried):
        for a1, b1 in tried[i + 1:]:
            assert max(abs(a1 - a0), abs(b1 - b0)) >= 1e-5
    a, b = interval
    assert b - a < 2.0 * W
    assert a < find_limit_cycle(p, cfg=FAST_CFG).crossing[0] < b


def test_no_width_certifies_next_to_the_hopf_curve():
    # |S - S_hopf| = 3.8e-5: the walk stops, but the inner orbit's
    # error margin exceeds P(a) - a at every width, so classification ends
    # no cell on the cycle, where the return-map rule once did
    p = Params(-0.010179065275443988, 0.08354166666666667, 0.5, 0.1)
    ctx = flow._with_interval(flow._context(p), FAST_CFG)
    lo, hi = ctx.interval or (math.nan, math.nan)
    assert not lo < hi and ctx.interval_end is None
    a = ctx.anchor
    assert classify_omega_limit(p, (a + 0.02, a + 0.12), FAST_CFG) == \
        AttractorLabel.undecided()
    assert find_limit_cycle(p, cfg=FAST_CFG) is not None
    # a classification context always carries an interval, here the empty
    # one, so that its drives do not run the hunts' return-map rule
    assert ctx.interval is not None
    # the cycle's interval is the empty one, and the region grid reads no
    # cycle there either
    lo, hi = flow._section_interval(flow._context(p), FAST_CFG)
    assert math.isnan(lo) and math.isnan(hi)
    assert region_classify(p, FAST_CFG, guard=0.0) is RegionLabel.NEAR_LOCUS


def test_the_walk_stops_at_its_error_margin():
    # far from the Hopf curve (S/S_hopf 0.716) the integrator's error per
    # revolution at these tolerances exceeds rho_cyc: the hunt's return-map
    # rule never holds and the hunt runs to the horizon, while the walk
    # stops once a return moves by no more than its error margin and
    # certifies there, so no cell of the raster is left Undecided
    p = Params(-0.03227935741880463, 0.035208333333333335, 0.5, 0.1)
    assert find_limit_cycle(p, cfg=FAST_CFG) is None
    lo, hi = flow._section_interval(flow._context(p), FAST_CFG)
    assert lo < hi
    assert region_classify(p, FAST_CFG, guard=0.0) is RegionLabel.CYCLE
    assert (compute_basins(p, 6, FAST_CFG).labels != 0).all()
    # next to the Hopf curve (S/S_hopf 0.994) the returns creep outward by
    # about their margin: the walk stops where it can see no further
    # convergence, and no width certifies there
    p = Params(0.012168689497275675, 0.11979166666666667, 0.5, 0.1)
    assert region_classify(p, FAST_CFG, guard=0.0) is RegionLabel.NEAR_LOCUS
    # between points next to the Hopf curve where the hunt converged, it
    # once ran to the horizon here and the grid read repeller
    q, c = 0.5, 0.1
    s = (1.0 - 1.5e-3) * hopf_threshold(Params(-0.03, 1.0, q, c))
    assert region_classify(Params(-0.03, s, q, c), FAST_CFG,
                           guard=0.0) is RegionLabel.CYCLE


def test_returns_carry_the_margin_of_their_own_revolution():
    # one loop gives the return map: its first item is the first return,
    # and each later one comes with the margin of its own revolution, not
    # the sum since the start
    ctx = flow._context(CYCLE_POINT)
    a, b = flow._section_interval(ctx, FAST_CFG)
    first, second = itertools.islice(
        flow._returns(ctx, FAST_CFG, (b, b + CYCLE_POINT.C)), 2)
    assert first == flow._first_return(ctx, FAST_CFG, b)
    assert a < first[0] < b and a < second[0] < b
    assert 0.5 * first[2] < second[2] < 2.0 * first[2]


def test_narrower_widths_are_tried_where_the_widest_reaches_the_anchor(
        monkeypatch):
    # the hunt's crossing lies 5.8e-3 beyond the anchor, so an interval of
    # half-width 5e-3 comes within _MIN_CYCLE_RADIUS of it; the narrower
    # ones are tried, though none certifies this close to the Hopf curve
    q, c = 0.5, 0.1
    p = Params(-0.03, 0.999 * hopf_threshold(Params(-0.03, 1.0, q, c)), q, c)
    ctx = flow._context(p)
    assert 5e-3 < find_limit_cycle(p, cfg=FAST_CFG).crossing[0] - ctx.anchor < 6e-3
    tried = []
    certified_interval = flow._certified_interval

    def spy(ctx, cfg, a, b):
        tried.append(0.5 * (b - a))
        return certified_interval(ctx, cfg, a, b)

    monkeypatch.setattr(flow, "_certified_interval", spy)
    region = region_classify(p, FAST_CFG, guard=0.0)
    assert min(tried) < 0.75 * 0.5 * W
    assert region is RegionLabel.NEAR_LOCUS


def test_cycle_rasters_keep_their_labels():
    # the basin_cycle benchmark's FAST rasters at 21^2-27^2, against
    # digests of the labels made before classification lost the
    # return-map rule
    golden = (Path(__file__).parent / "golden" / "basin_cycle_fast.txt"
              ).read_text().splitlines()
    want = dict(line.split() for line in golden if not line.startswith("#"))
    assert sorted(map(int, want)) == list(range(21, 28))
    for res, digest in want.items():
        labels = compute_basins(CYCLE_POINT, int(res), FAST_CFG).labels
        assert hashlib.sha256(labels.tobytes()).hexdigest() == digest, res


def test_a_return_into_a_trapping_disc_fails_at_once(monkeypatch):
    # at this cycle point of the benchmark grid the region walk tries
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
    # an attracting anchor: the walk ends in its trapping disc
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
    for name in ("_section_interval", "_focus_interval"):
        def spy(ctx, cfg, _build=getattr(flow, name), _name=name):
            calls.append((_name, ctx.p))
            return _build(ctx, cfg)

        monkeypatch.setattr(flow, name, spy)
    # the region grid calls the cycle's interval through its own binding
    monkeypatch.setattr(bifurcation, "_section_interval",
                        flow._section_interval)
    # the contexts of the region grid, the manifold traces, the cycle hunt
    # and integrate carry none; the region grid builds the cycle's interval
    # for its verdict, never the focus interval, and keeps no interval
    assert flow._context(CYCLE_POINT).interval is None
    region_classify(CYCLE_POINT, FAST_CFG)
    region_classify(CYCLE_BISTABLE, FAST_CFG)
    region_classify(BISTABLE, FAST_CFG)   # above S_hopf: not hunted
    assert calls == [("_section_interval", CYCLE_POINT),
                     ("_section_interval", CYCLE_BISTABLE)]
    calls.clear()
    homoclinic_gap(CYCLE_BISTABLE, FAST_CFG)
    separatrix(CYCLE_BISTABLE, FAST_CFG)
    separatrix(BISTABLE, FAST_CFG)
    find_limit_cycle(CYCLE_POINT, (0.445, 0.495), FAST_CFG)
    integrate(CYCLE_POINT, (0.3, 0.3), FAST_CFG)
    integrate(BISTABLE, (0.3, 0.3), FAST_CFG)
    assert calls == []
    classify_omega_limit(CYCLE_POINT, (0.3, 0.3), FAST_CFG)
    compute_basins(CYCLE_POINT, 3, FAST_CFG)
    assert calls == [("_section_interval", CYCLE_POINT)] * 2
    # where no cycle is certified and the anchor attracts, the stable
    # focus's interval is built after the walk
    calls.clear()
    classify_omega_limit(BISTABLE, (0.3, 0.3), FAST_CFG)
    compute_basins(BISTABLE, 3, FAST_CFG)
    assert calls == [("_section_interval", BISTABLE),
                     ("_focus_interval", BISTABLE)] * 2


@pytest.mark.parametrize("tau_max, moves", [(FAST_CFG.tau_max, 0),
                                             (2500.0, 2)],
                         ids=["default", "horizon"])
def test_interval_moves_only_undecided_cells_to_the_cycle(tau_max, moves):
    # against the return-map rule alone, which each seed driven on the
    # context without an interval still follows, a cell can only stop being
    # Undecided: it reaches the cycle's interval before its horizon, as
    # two cells of the short-horizon raster do
    cfg = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, rho_eq=1e-5,
                           tau_max=tau_max)
    res = 8
    c = (np.arange(res) + 0.5) / res
    seeds = np.array([(u, v) for v in c for u in c])
    ctx = flow._context(CYCLE_POINT)

    def alone(seed):
        end = flow._drive(ctx, seed, cfg, want_samples=False)
        if end.termination is flow.Termination.REACHED_EQUILIBRIUM:
            return ctx.code(end.equilibrium_id)
        return (ctx.cycle_code if end.termination
                is flow.Termination.REACHED_CYCLE else 0)

    before = np.array([alone(seed) for seed in seeds.tolist()])
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
