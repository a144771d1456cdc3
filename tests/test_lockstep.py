"""The lockstep raster against the scalar reference, label byte for byte.

``compute_basins`` advances every live cell at once; ``classify_omega_limit``
integrates one seed at a time and stays the reference.  Shrinking the pool
and hand-over sizes runs the same rasters through pool refills, early
hand-overs and small batches of section crossings; no hand-over at all
ends every cell, with its waiting crossing, in the lockstep loop.  With
two CPUs, a raster of more than one pool is split over forked workers.
"""

import faulthandler
import functools
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleetanner import (
    AttractorTag,
    IntegratorConfig,
    Params,
    all_equilibria,
    classify,
    classify_omega_limit,
    compute_basins,
)
from alleetanner import basin, flow

from conftest import (BISTABLE, CYCLE_POINT, EXTINCTION, FAST_CFG,
                      WEAK_BISTABLE)


@functools.cache
def scalar_ids(regime):
    """The ``classify_omega_limit`` label id of each cell of the regime's
    raster, None where Undecided.  The scalar path reads neither ``_POOL``
    nor ``_HANDOVER``, so one pass serves every ``sizes``."""
    p, resolution, cfg, ((u0, u1), (v0, v1)) = REGIMES[regime]
    du = (u1 - u0) / resolution
    dv = (v1 - v0) / resolution
    out = []
    for i in range(resolution):
        v = v0 + (i + 0.5) * dv
        for j in range(resolution):
            u = u0 + (j + 0.5) * du
            lab = classify_omega_limit(p, (u, v), cfg)
            out.append(None if lab.tag is AttractorTag.UNDECIDED else lab.id)
    return tuple(out)


def scalar_labels(regime, codes):
    """``scalar_ids`` as a raster of the label ``codes``."""
    res = REGIMES[regime][1]
    return np.array([0 if i is None else codes[i] for i in scalar_ids(regime)],
                    dtype=np.uint8).reshape(res, res)


@pytest.fixture(params=["default", "small", "late"])
def sizes(request, monkeypatch):
    if request.param == "small":
        monkeypatch.setattr(flow, "_POOL", 23)
        monkeypatch.setattr(flow, "_HANDOVER", 5)
    elif request.param == "late":
        # no hand-over: every cell ends in the lockstep loop, each ending
        # under the settle rule
        monkeypatch.setattr(flow, "_HANDOVER", 0)
    return request.param


LOOSE_CFG = IntegratorConfig(rel_tol=1e-2, abs_tol=1e-2, rho_eq=1e-2)

REGIMES = {
    "bistable": (BISTABLE, 16, IntegratorConfig(), ((0.0, 1.0), (0.0, 1.0))),
    "weak_bistable": (WEAK_BISTABLE, 16, FAST_CFG, ((0.0, 1.0), (0.0, 1.0))),
    "extinction": (EXTINCTION, 12, FAST_CFG, ((0.0, 1.0), (0.0, 1.0))),
    # few cells, each of several ~300-long revolutions: the live set falls
    # below the hand-over size long before they finish
    "cycle": (CYCLE_POINT, 8, FAST_CFG, ((0.0, 1.0), (0.0, 1.0))),
    # a horizon that cuts some cells' last revolution short, after the
    # crossing that found their cycle
    "horizon": (CYCLE_POINT, 8, IntegratorConfig(
        rel_tol=1e-6, abs_tol=1e-9, rho_eq=1e-5, tau_max=2500.0),
        ((0.0, 1.0), (0.0, 1.0))),
    # the anchor repels and there is no cycle: the context's interval is
    # empty, and cells cross the section beyond the anchor on their way to
    # (0, C)
    "repeller": (Params(-0.0071874999999999994, 0.07145833333333333, 0.5,
                        0.1), 6, FAST_CFG, ((0.0, 1.0), (0.0, 1.0))),
    # cells next to both axes, with tolerances loose enough that steps are
    # rejected for leaving the quadrant
    "axes": (EXTINCTION, 10, LOOSE_CFG, ((0.0, 0.1), (0.0, 0.1))),
    # one seed exactly on the singular line u = -C
    "singular": (BISTABLE, 1, IntegratorConfig(), ((-0.14, 0.0), (0.0, 0.5))),
    # one seed at (-C, 0), where dv/dtau = 0*0/0: a NaN first step size
    "nan_field": (BISTABLE, 1, IntegratorConfig(),
                  ((-0.14, 0.0), (-0.5, 0.5))),
}


def set_cpus(monkeypatch, k):
    """Let ``compute_basins`` see k CPUs, whatever the host has."""
    monkeypatch.setattr(basin.os, "sched_getaffinity",
                        lambda pid: set(range(k)), raising=False)


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_lockstep_equals_scalar(regime, sizes, monkeypatch):
    p, res, cfg, bounds = REGIMES[regime]
    # one CPU runs in process; two split rasters above one pool ("small")
    rasters = []
    # a cell that never ends fails the run instead of hanging it
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        for k in (1, 2):
            set_cpus(monkeypatch, k)
            rasters.append(compute_basins(p, res, cfg, bounds))
        assert multiprocessing.active_children() == []
        codes = {a.id: a.code for a in rasters[0].attractors}
        want = scalar_labels(regime, codes)
    finally:
        faulthandler.cancel_dump_traceback_later()
    for raster in rasters:
        assert raster.attractors == rasters[0].attractors
        assert raster.labels.tobytes() == want.tobytes()


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_attractor_table_is_the_contexts(regime):
    # the context numbers the in-domain attracting equilibria 1..k in table
    # order; a raster's equilibrium rows are exactly those, and its cycle
    # row, when a cell reached a cycle, carries the code after them
    p, res, cfg, bounds = REGIMES[regime]
    ctx = flow._context(p)
    attracting = [eq.id for eq in all_equilibria(p)
                  if eq.in_domain and classify(p, eq).attracting]
    assert [(t.id, t.code) for t in ctx.targets if t.code] == [
        (eq_id, k + 1) for k, eq_id in enumerate(attracting)]
    assert ctx.cycle_code == len(attracting) + 1
    raster = compute_basins(p, res, cfg, bounds)
    want = [basin.AttractorInfo(t.code, t.id, "equilibrium", (t.u, t.v))
            for t in ctx.targets if t.code]
    if regime in ("cycle", "horizon"):
        want.append(basin.AttractorInfo(ctx.cycle_code, "cycle", "cycle"))
    assert raster.attractors == tuple(want)


@pytest.mark.parametrize("fault, error, match", [
    ("raise", ValueError, "in a worker"),
    ("die", BrokenProcessPool, None)])
def test_worker_fault_reaches_the_caller(fault, error, match, monkeypatch):
    # a part that raises re-raises in the caller, and a worker that dies
    # breaks the pool; neither hangs, and no worker outlives the call
    parent = os.getpid()

    def broken(*args):
        if os.getpid() == parent:
            raise AssertionError("the raster was not split")
        if fault == "raise":
            raise ValueError("in a worker")
        os._exit(3)

    monkeypatch.setattr(flow, "_POOL", 23)
    monkeypatch.setattr(flow, "_lockstep", broken)
    set_cpus(monkeypatch, 2)
    faulthandler.dump_traceback_later(120, exit=True)
    try:
        with pytest.raises(error, match=match):
            compute_basins(BISTABLE, 8, FAST_CFG)
    finally:
        faulthandler.cancel_dump_traceback_later()
    assert multiprocessing.active_children() == []


def _raster_labels(p, res, cfg):
    return compute_basins(p, res, cfg).labels


def test_daemon_rasters_in_process(monkeypatch):
    # a daemon, such as a multiprocessing.Pool worker, may not have
    # children: there a raster of several pools runs in process
    monkeypatch.setattr(flow, "_POOL", 23)
    set_cpus(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_raster_labels,
                               (BISTABLE, 8, FAST_CFG)).get(120)
    assert got.tobytes() == _raster_labels(BISTABLE, 8, FAST_CFG).tobytes()


def _labels(p, seeds, cfg):
    # every target gets a code of its own, saddles too, so a cell that ends
    # at a saddle differs from one that ends at the horizon
    ctx = flow._context(p)
    for k, t in enumerate(ctx.targets):
        t.code = k + 1
    ctx = ctx._replace(cycle_code=len(ctx.targets) + 1)
    return flow._lockstep(ctx, seeds, cfg)


def test_labels_do_not_depend_on_batch(sizes):
    res = 14
    c = (np.arange(res) + 0.5) / res
    seeds = np.array([(u, v) for v in c for u in c])
    perm = np.random.default_rng(7).permutation(len(seeds))
    labels = _labels(BISTABLE, seeds, FAST_CFG)
    assert np.array_equal(_labels(BISTABLE, seeds[perm], FAST_CFG),
                          labels[perm])


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 1.2), st.floats(0.0, 1.2)),
                min_size=1, max_size=12))
def test_lockstep_equals_scalar_at_drawn_seeds(points):
    seeds = np.array(points, dtype=float)
    ctx = flow._context(BISTABLE)
    want = []
    for s in points:
        lab = classify_omega_limit(BISTABLE, s, FAST_CFG)
        if lab.tag is AttractorTag.EQUILIBRIUM:
            want.append(ctx.code(lab.id))
        else:
            want.append(0 if lab.tag is AttractorTag.UNDECIDED
                        else ctx.cycle_code)
    got = flow._lockstep(ctx, seeds, FAST_CFG)
    assert got.tolist() == want


@pytest.mark.parametrize("cfg", [FAST_CFG, IntegratorConfig()],
                         ids=["fast", "default"])
def test_seeds_at_the_proximity_radius(cfg):
    # seeds a few ulp either side of the ring of radius rho_eq round each
    # in-domain equilibrium: the squared-norm tests of both paths agree
    ctx = flow._context(BISTABLE)
    seeds = []
    for t in ctx.targets:
        for a in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            u = t.u + cfg.rho_eq * np.cos(a)
            v = t.v + cfg.rho_eq * np.sin(a)
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
    # both sides of the ring occur, at an attractor and at a saddle
    assert 0 < want.count(0) < len(want)


def test_handover_state_is_the_scalar_state(monkeypatch):
    # the hand-over resumes each cell where a scalar stepper from its seed
    # would be: same time, state and FSAL derivative, to the last bit
    resumed = []
    drive = flow._drive

    def spy(ctx, s0, cfg, **kwargs):
        st = kwargs.get("resume")
        if st is not None:
            resumed.append((tuple(s0), (st.tau, st.u, st.v, st.k1u, st.k1v)))
        return drive(ctx, s0, cfg, **kwargs)

    monkeypatch.setattr(flow, "_drive", spy)
    compute_basins(CYCLE_POINT, 8, FAST_CFG)
    assert resumed
    f = flow._context(CYCLE_POINT).f
    for s0, state in resumed:
        st = flow._Stepper(f, s0, FAST_CFG, FAST_CFG.tau_max)
        while st.tau < state[0] and st.step():
            pass
        assert (st.tau, st.u, st.v, st.k1u, st.k1v) == state


@pytest.mark.parametrize("p", [BISTABLE, CYCLE_POINT])
def test_batch_bisection_equals_refine_crossing(p):
    f = flow._context(p).f
    steps, want = [], []
    for seed in ((0.3, 0.3), (0.6, 0.2), (0.45, 0.5)):
        st = flow._Stepper(f, seed, FAST_CFG, 3000.0)
        while st.step():
            if st.prev_v - st.prev_u - p.C < 0.0 <= st.v - st.u - p.C:
                want.append(flow._refine_crossing(st, p.C)[:2])
                steps.append((st.prev_tau, st.prev_u, st.prev_v, st.h_last,
                              *st.ks))
    a = np.array(steps).T
    # a waiting crossing keeps only its step's start time, state, FSAL
    # derivative and size: the stages rebuilt from them on arrays are the
    # stepper's, bit for bit
    ks = np.stack(flow._dp_attempt(f, a[3], a[1], a[2], a[4], a[5])[4])
    assert ks.tobytes() == a[4:].tobytes()
    tau_c, u_c = flow._bisect_crossings(p.C, a[0], a[1], a[2], a[3], ks)
    assert len(want) >= 10
    assert list(zip(tau_c.tolist(), u_c.tolist())) == want
