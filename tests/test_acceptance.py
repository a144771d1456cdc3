"""Acceptance suite: ten verifiable behaviors of the finished system.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
even on success).  Expected runtimes: criteria 1-4, 8 and 10 take seconds;
criterion 5 stays under a minute; criteria 6, 7 and 9 take minutes (they
rasterize basins at resolutions up to 400 and bisect the homoclinic locus).
"""

import math

import numpy as np
import pytest

from alleetanner import (
    DimensionalParams,
    IntegratorConfig,
    Params,
    basin_fractions,
    bt_point,
    boundary_vs_separatrix,
    classify_omega_limit,
    compute_basins,
    homoclinic_gap,
    homoclinic_locus,
    integrate,
    interior_equilibria,
    is_global_extinction,
    jacobian,
    nondimensionalize,
    saddle_node_M,
    separatrix,
    sotomayor_check,
    threshold_S1,
    threshold_S2,
    threshold_S3,
    threshold_S4,
)
from alleetanner.equilibria import EquilibriumKind
from alleetanner.flow import AttractorTag, Termination
from alleetanner.model import dimensional_vector_field, field_closure
from alleetanner.stability import sigma

from conftest import (
    BISTABLE,
    FAST_CFG,
    WEAK_BISTABLE,
    fold_params,
    random_params,
    sample_path,
    two_root_params,
    w2c_params,
    w2d_params,
)


class _report:
    def __init__(self, n, text):
        self.n, self.text = n, text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict}  criterion {self.n:2d}: {self.text}")
        return False


def test_criterion_01_equilibrium_values():
    with _report(1, "interior equilibrium values at reference parameters"):
        eqs = interior_equilibria(Params(0.04, 1, 0.45, 0.07))
        assert eqs[0].location[0] == pytest.approx(0.17040, abs=1e-4)
        assert eqs[1].location[0] == pytest.approx(0.41960, abs=1e-4)

        # fold parameters are only printed to 8 digits; the fold case is
        # reached with an explicit case tolerance
        (dbl,) = interior_equilibria(Params(0.01676030, 1, 0.5, 0.1),
                                     eps=1e-6)
        assert dbl.multiplicity == 2
        assert dbl.location[0] == pytest.approx(0.25833, abs=1e-3)
        assert dbl.location[1] == pytest.approx(0.35833, abs=1e-3)

        (p3,) = interior_equilibria(Params(-0.055, 1, 0.55, 0.1))
        assert p3.location[0] == pytest.approx(0.395, abs=1e-6)

        (p4,) = interior_equilibria(Params(-0.1, 1, 0.55, 0.1))
        assert p4.location[0] == pytest.approx(0.45, abs=1e-6)


def _trace_at(p, u):
    return float(np.trace(jacobian(p, (u, u + p.C))))


def test_criterion_02_thresholds():
    with _report(2, "threshold values and trace-zero residuals"):
        s2 = threshold_S2(Params(0.01676030, 1, 0.5, 0.1), eps=1e-6)
        assert s2 == pytest.approx(0.12919012, abs=1e-5)

        rng = np.random.default_rng(101)
        # S1 > 0 only when Q > sqrt(D), about a quarter of two-root draws:
        # draw in batches until 250 positive values are checked, capped at
        # about 16x the expected need so the loop always ends
        count = draws = 0
        while count < 250 and draws < 16000:
            for p0 in two_root_params(rng, 400):
                s1 = threshold_S1(p0)
                if s1 <= 0.0:
                    continue
                p = Params(p0.M, s1, p0.Q, p0.C)
                assert abs(_trace_at(
                    p, interior_equilibria(p)[1].location[0])) < 1e-12
                count += 1
            draws += 400
        assert count >= 250, \
            f"only {count} positive S1 values in {draws} two-root draws"
        for p0 in fold_params(rng, 250):
            p = Params(p0.M, threshold_S2(p0), p0.Q, p0.C)
            assert abs(_trace_at(p, interior_equilibria(p)[0].location[0])) \
                < 1e-12
        count = 0
        for p0 in w2c_params(rng, 400):
            s3 = threshold_S3(p0)
            if s3 <= 0.0:
                continue
            p = Params(p0.M, s3, p0.Q, p0.C)
            assert abs(_trace_at(p, interior_equilibria(p)[0].location[0])) \
                < 1e-12
            count += 1
            if count >= 250:
                break
        assert count >= 100
        count = 0
        for p0 in w2d_params(rng, 600):
            s4 = threshold_S4(p0)
            if s4 <= 0.0:
                continue
            p = Params(p0.M, s4, p0.Q, p0.C)
            assert abs(_trace_at(p, interior_equilibria(p)[0].location[0])) \
                < 1e-12
            count += 1
            if count >= 250:
                break
        assert count >= 100


def test_criterion_03_root_property_suite():
    with _report(3, "root identities replace the unreproducible printed pair"):
        # the printed pair for M=-0.01 fails the root-sum identity; the
        # computed roots must satisfy it instead
        eqs = interior_equilibria(Params(-0.01, 1, 0.45, 0.07))
        u1, u2 = eqs[0].location[0], eqs[1].location[0]
        assert u1 + u2 == pytest.approx(0.54, rel=1e-12)
        assert abs(u1 - 0.05785) > 1e-3   # not the printed value

        rng = np.random.default_rng(103)
        from test_equilibria import bisection_roots
        for p in random_params(rng, 100):
            ours = sorted(e.location[0] for e in interior_equilibria(p)
                          if e.multiplicity == 1)
            assert len(ours) == len(bisection_roots(p))
            for a, b in zip(ours, bisection_roots(p)):
                assert a == pytest.approx(b, abs=1e-9)
        for p in two_root_params(rng, 200):
            u1, u2 = (e.location[0] for e in interior_equilibria(p))
            a = 1.0 + p.M - p.Q
            b = p.M + p.C * p.Q
            assert abs(u1 + u2 - a) < 1e-12 * max(1.0, abs(a))
            assert abs(u1 * u2 - b) < 1e-12 * max(1.0, abs(b))


def test_criterion_04_reference_dynamics():
    with _report(4, "limit cycle and convergence at reference points"):
        cfg = IntegratorConfig(tau_max=1e4)
        lab = classify_omega_limit(Params(-0.055, 0.03, 0.55, 0.1),
                                   (0.5, 0.5), cfg)
        assert lab.tag is AttractorTag.LIMIT_CYCLE

        tr = integrate(Params(-0.055, 0.15, 0.55, 0.1), (0.5, 0.5), cfg)
        assert tr.termination is Termination.REACHED_EQUILIBRIUM
        assert tr.taus[-1] <= 1e4
        assert tr.states[-1][0] == pytest.approx(0.395, abs=1e-4)
        assert tr.states[-1][1] == pytest.approx(0.495, abs=1e-4)

        tr = integrate(Params(-0.1, 0.19, 0.55, 0.1), (0.5, 0.5), cfg)
        assert tr.termination is Termination.REACHED_EQUILIBRIUM
        assert tr.taus[-1] <= 1e4
        assert tr.states[-1][0] == pytest.approx(0.45, abs=1e-4)
        assert tr.states[-1][1] == pytest.approx(0.55, abs=1e-4)


def test_criterion_05_global_extinction_rasters():
    with _report(5, "predator-only state attracts 100% of extinction rasters"):
        rng = np.random.default_rng(105)
        done = 0
        while done < 50:
            p = random_params(rng, 1)[0]
            if not is_global_extinction(p):
                continue
            raster = compute_basins(p, 50, FAST_CFG)
            fr = basin_fractions(raster)
            assert fr["predator_only"] == 1.0, p
            done += 1


def test_criterion_06_separatrix_vs_basin_boundary(raster_bistable_400):
    with _report(6, "basin boundary within 2 cells of the traced separatrix"):
        sep = separatrix(BISTABLE)
        dev = boundary_vs_separatrix(raster_bistable_400, sep)
        assert dev <= 2.0 / 400.0


def test_criterion_07_bifurcation_structure():
    with _report(7, "BT point, Hopf/fold coincidence, homoclinic bisection"):
        m_star, s_star = bt_point(0.5, 0.1)
        assert m_star == pytest.approx(0.01676, abs=1e-4)
        assert s_star == pytest.approx(0.12919, abs=1e-4)

        p_star = Params(m_star, 1.0, 0.5, 0.1)
        assert abs(threshold_S1(p_star) - threshold_S2(p_star)) < 1e-8

        grid = np.linspace(-0.040, 0.010, 12)
        hom = homoclinic_locus(0.5, 0.1, grid, FAST_CFG)
        converged = [(m, s) for m, s in hom if s is not None]
        assert len(converged) >= 10
        for m, s in converged:
            p = Params(m, s, 0.5, 0.1)
            assert abs(homoclinic_gap(p, FAST_CFG)) < 1e-6
            assert s < threshold_S1(Params(m, 1.0, 0.5, 0.1))


def test_criterion_08_saddle_node_transversality():
    with _report(8, "transversality scalars nonzero at the fold point"):
        rng = np.random.default_rng(107)
        done = 0
        while done < 5:
            q = float(rng.uniform(0.3, 0.85))
            c = float(rng.uniform(0.05, 0.4))
            roots = [m for m in saddle_node_M(q, c) if 1.0 + m - q > 0.0]
            if not roots:
                continue
            s = float(rng.uniform(0.05, 0.4))
            t1, t2 = sotomayor_check(q, c, s=s)
            assert abs(t1) > 1e-6
            assert abs(t2) > 1e-6
            done += 1


def test_criterion_09_allee_strength_shrinks_interior_basin(
        raster_bistable_200, raster_weak_200):
    with _report(9, "strong Allee effect shrinks the interior basin"):
        strong = basin_fractions(raster_bistable_200)["interior_high"]
        weak = basin_fractions(raster_weak_200)["interior_high"]
        assert strong < weak


def test_criterion_10_cross_model_equivalence():
    with _report(10, "dimensional and rescaled flows agree under the map"):
        rng = np.random.default_rng(109)
        cfg = IntegratorConfig()
        for _ in range(10):
            r, s, q, n, K = (float(x) for x in np.exp(
                rng.uniform(math.log(0.3), math.log(3.0), 5)))
            c = K * n * float(rng.uniform(0.02, 0.3))
            m = K * float(rng.uniform(-0.3, 0.5))
            d = DimensionalParams(r, s, q, n, K, m, c)
            p = nondimensionalize(d)
            u0 = float(rng.uniform(0.05, 1.2))
            v0 = float(rng.uniform(0.05, 1.2))
            taus = np.linspace(0.5, 40.0, 20)

            def fdim(x, y, d=d):
                return dimensional_vector_field(d, x, y)

            dim = sample_path(fdim, (K * u0, K * n * v0), cfg,
                              float(taus[-1] / (K * r)) * 1.001,
                              taus / (K * r))
            mapped = np.column_stack([dim[:, 0] / K, dim[:, 1] / (K * n)])
            nondim = sample_path(field_closure(p), (u0, v0), cfg,
                                 float(taus[-1]) * 1.001, taus)
            tol = 10.0 * (cfg.rel_tol * np.maximum(1.0, np.abs(nondim))
                          + cfg.abs_tol)
            assert (np.abs(mapped - nondim) <= tol).all()
