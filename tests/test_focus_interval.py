"""The two trapping regions that end bistable cells early: the stable
focus's section interval and the Allee strip of (0, C).

``flow._focus_interval`` certifies (anchor, b) on v = u + C by a chain of
first returns that falls into the anchor's trapping disc; for M > 0 every
state with 0 <= u < M and v > 0 has u' < 0 and flows to (0, C), and the
classification ends there above v = rho_eq.  The
oracles are ``integrate``, which ends at an equilibrium only by the
``rho_eq`` test, and the classification with both regions switched off.
"""

import numpy as np
import pytest

from alleetanner import (
    AttractorLabel,
    AttractorTag,
    BranchDirection,
    BranchKind,
    IntegratorConfig,
    Params,
    Termination,
    all_equilibria,
    classify_omega_limit,
    homoclinic_gap,
    integrate,
    separatrix,
    trace_manifold,
)
from alleetanner import flow, manifolds
from alleetanner.stability import hopf_threshold

from conftest import BISTABLE, CYCLE_POINT, FAST_CFG, WEAK_BISTABLE

CFG = IntegratorConfig()


def _focus(ctx):
    (t,) = [t for t in ctx.targets if t.u == ctx.anchor]
    return t


def test_focus_interval_at_the_bistable_point():
    ctx = flow._context(BISTABLE)
    interval = flow._focus_interval(ctx, CFG)
    assert interval is not None
    a, b = interval
    star = ctx.anchor
    assert a == star
    rungs = [star + 0.5 * (1.0 - star) * flow._FOCUS_SHRINK ** j
             for j in range(flow._FOCUS_RUNGS)]
    assert b in rungs
    # far wider than the anchor's trapping disc
    assert b - a > 10.0 * _focus(ctx).r2 ** 0.5
    full = flow._with_interval(ctx, CFG)
    assert (full.interval, full.interval_end) == (interval, "interior_high")


def test_section_points_in_the_focus_interval_reach_the_anchor():
    # classified with no interval and no strip, and integrated with the
    # rho_eq rule alone, every point of a grid on (anchor, b) ends at the
    # anchor
    ctx = flow._context(BISTABLE)
    a, b = flow._focus_interval(ctx, CFG)
    for t in ctx.targets:
        t.strip = 0.0
    xs = np.linspace(a, b, 62)[1:-1].tolist() + [b - 1e-12]
    assert len(xs) >= 50
    C = BISTABLE.C
    for x in xs:
        res = flow._drive(ctx, (x, x + C), CFG, want_samples=False)
        assert res.termination is Termination.REACHED_EQUILIBRIUM, x
        assert res.equilibrium_id == "interior_high", x
    for x in xs[::6]:
        traj = integrate(BISTABLE, (x, x + C), FAST_CFG)
        assert traj.equilibrium_id == "interior_high", x


def test_focus_certificate_refuses_an_orbit_to_extinction():
    # the orbit through (0.68, 0.75) flows to (0, C): the chain from there
    # fails, so the interval stops short of it
    ctx = flow._context(BISTABLE)
    x = 0.68
    traj = integrate(BISTABLE, (x, x + BISTABLE.C), FAST_CFG)
    assert traj.equilibrium_id == "predator_only"
    assert not flow._focus_chain(ctx, CFG, _focus(ctx), x)
    assert flow._focus_interval(ctx, CFG)[1] < x


def test_a_return_reports_the_target_that_stopped_it():
    ctx = flow._context(BISTABLE)
    a, b = flow._focus_interval(ctx, CFG)
    stopped = []
    assert flow._first_return(ctx, CFG, 0.68, stopped) is None
    assert [t.id for t, _ in stopped] == ["predator_only"]
    # a return that comes back reports nothing
    stopped = []
    assert flow._first_return(ctx, CFG, b, stopped) is not None
    assert stopped == []


def test_a_chain_fails_at_a_return_that_does_not_fall(monkeypatch):
    # next to the Hopf curve on the focus's stable side, at rel_tol 1e-3:
    # each rung's chain meets a return that falls by less than its orbit's
    # error margin long before the anchor's trapping disc, so no rung holds
    q, c = 0.5, 0.1
    p = Params(-0.05, 1.0005 * hopf_threshold(Params(-0.05, 1.0, q, c)), q, c)
    cfg = IntegratorConfig(rel_tol=1e-3, abs_tol=1e-6, rho_eq=1e-5)
    ctx = flow._context(p)
    assert _focus(ctx).code and _focus(ctx).r2 > 0.0
    calls = []
    first_return = flow._first_return

    def spy(ctx, cfg, x, stopped=None):
        ret = first_return(ctx, cfg, x, stopped)
        calls.append((x, ret))
        return ret

    monkeypatch.setattr(flow, "_first_return", spy)
    assert flow._focus_interval(ctx, cfg) is None
    star = ctx.anchor
    rungs = [star + 0.5 * (1.0 - star) * flow._FOCUS_SHRINK ** j
             for j in range(flow._FOCUS_RUNGS)]
    starts = [i for i, (x, _) in enumerate(calls) if x in rungs]
    assert [calls[i][0] for i in starts] == rungs
    # the last return of each chain came back, short of falling
    for i in [k - 1 for k in starts[1:]] + [len(calls) - 1]:
        x, (px, _, margin) = calls[i]
        assert px < x <= px + margin


@pytest.mark.parametrize("p", [CYCLE_POINT, WEAK_BISTABLE],
                         ids=["cycle", "weak_bistable"])
def test_focus_interval_only_at_an_attracting_anchor(p):
    ctx = flow._context(p)
    focus = _focus(ctx)
    attracting = bool(focus.code)
    assert attracting == (p is WEAK_BISTABLE)
    assert (flow._focus_interval(ctx, FAST_CFG) is not None) == attracting
    full = flow._with_interval(ctx, FAST_CFG)
    assert full.interval_end == ("interior_high" if attracting else None)


def test_allee_strip_ends_at_predator_only(monkeypatch):
    M = BISTABLE.M
    ctx = flow._context(BISTABLE)
    (strip,) = [t for t in ctx.targets if t.strip]
    assert (strip.id, strip.strip) == ("predator_only", M)
    seeds = [(0.5 * M, 0.3), (0.0, 0.9), (M * (1.0 - 1e-9), 1e-3)]
    for seed in seeds:
        # the rho_eq rule reaches the same end
        assert integrate(BISTABLE, seed, FAST_CFG).equilibrium_id == \
            "predator_only"
    # the seed itself lies in the strip: no step is taken
    attempts = []
    attempt = flow._dp_attempt

    def counted(*args):
        attempts.append(1)
        return attempt(*args)

    monkeypatch.setattr(flow, "_dp_attempt", counted)
    for seed in seeds:
        assert flow._drive(ctx, seed, CFG, want_samples=False) \
            .equilibrium_id == "predator_only"
    assert attempts == []
    got = flow._lockstep(ctx, np.array(seeds), CFG)
    assert got.tolist() == [ctx.code("predator_only")] * len(seeds)
    # without predators the prey falls to the origin instead, and at
    # u = M it stays
    for seed in ((0.5 * M, 0.0), (M, 0.0)):
        assert classify_omega_limit(BISTABLE, seed, FAST_CFG) != \
            AttractorLabel(AttractorTag.EQUILIBRIUM, "predator_only")
        assert flow._lockstep(ctx, np.array([seed]), FAST_CFG).tolist() \
            != [ctx.code("predator_only")]
    # within rho_eq of the axis the orbit passes the origin slowly enough
    # for the rho_eq test to end it there, as integrate does; the strip
    # starts above
    for v in (0.0, 0.5, 1.0, 2.0):
        seed = (0.5 * M, v * FAST_CFG.rho_eq)
        assert classify_omega_limit(BISTABLE, seed, FAST_CFG) == \
            _label(integrate(BISTABLE, seed, FAST_CFG)), seed


def _label(traj):
    if traj.equilibrium_id in ("predator_only", "interior_high"):
        return AttractorLabel(AttractorTag.EQUILIBRIUM, traj.equilibrium_id)
    return AttractorLabel.undecided()


def test_no_strip_without_an_allee_threshold():
    # M <= 0: (0, C) may attract, but u' < 0 does not hold near the axis
    for p in (WEAK_BISTABLE, CYCLE_POINT):
        assert not any(t.strip for t in flow._context(p).targets)


def test_integrate_and_manifold_traces_never_use_the_strip(monkeypatch):
    # with the strip of (0, C) widened to the whole square, integrate and
    # the manifold traces give what they give with the true strip;
    # classification does not
    saddle = next(eq for eq in all_equilibria(BISTABLE)
                  if eq.id == "interior_low")

    def outputs():
        return (integrate(BISTABLE, (0.3, 0.3), FAST_CFG),
                integrate(BISTABLE, (0.02, 0.3), FAST_CFG),
                [trace_manifold(BISTABLE, saddle, kind, d, FAST_CFG)
                 for kind in BranchKind for d in BranchDirection],
                homoclinic_gap(BISTABLE, FAST_CFG),
                separatrix(BISTABLE, FAST_CFG))

    def label():
        return classify_omega_limit(BISTABLE, (0.5, 0.5), FAST_CFG)

    want, want_label = outputs(), label()
    context = flow._context

    def wide(p):
        ctx = context(p)
        for t in ctx.targets:
            if t.strip:
                t.strip = 1.0
        return ctx

    monkeypatch.setattr(flow, "_context", wide)
    monkeypatch.setattr(manifolds, "_context", wide)
    assert outputs() == want
    assert want_label.id == "interior_high"
    assert label().id == "predator_only"
