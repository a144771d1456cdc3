import math

import numpy as np
import pytest

from alleetanner import (
    AttractorTag,
    DegenerateSaddleNodeError,
    IntegratorConfig,
    Params,
    RegionLabel,
    bt_point,
    classify_omega_limit,
    discriminant,
    homoclinic_gap,
    homoclinic_locus,
    hopf_locus,
    interior_equilibria,
    jacobian,
    region_classify,
    saddle_node_M,
    sotomayor_check,
    threshold_S2,
)

FAST = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, rho_eq=1e-5,
                        tau_max=5000.0)


def test_saddle_node_location_reference():
    roots = saddle_node_M(0.5, 0.1)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(0.01676030, abs=1e-5)


def test_saddle_node_zero_alternative_food_limit():
    roots = saddle_node_M(1.0, 1e-14)
    assert roots and roots[0] == pytest.approx(0.0, abs=1e-6)


def test_saddle_node_plugback_residual():
    rng = np.random.default_rng(63)
    for _ in range(50):
        q = float(rng.uniform(0.1, 0.9))
        c = float(rng.uniform(0.02, 0.8))
        for m in saddle_node_M(q, c):
            assert abs(discriminant(Params(m, 1.0, q, c))) < 1e-10


def test_bt_point_reference_values():
    m_star, s_star = bt_point(0.5, 0.1)
    assert m_star == pytest.approx(0.01676, abs=1e-4)
    assert s_star == pytest.approx(0.12919, abs=1e-4)


def test_bt_point_degeneracy_residuals():
    m_star, s_star = bt_point(0.5, 0.1)
    p = Params(m_star, s_star, 0.5, 0.1)
    e = 0.5 * (1.0 + m_star - 0.5)
    J = jacobian(p, (e, e + 0.1))
    assert abs(np.linalg.det(J)) < 1e-10
    assert abs(np.trace(J)) < 1e-10
    # rank one: second singular value vanishes relative to the first
    sv = np.linalg.svd(J, compute_uv=False)
    assert sv[1] / sv[0] < 1e-8


def test_hopf_locus_reference_value():
    pts = hopf_locus(0.45, 0.07, [0.04])
    assert len(pts) == 1
    assert pts[0][1] == pytest.approx(0.084256, abs=1e-5)


def test_hopf_locus_meets_fold_at_bt():
    m_star, s_star = bt_point(0.5, 0.1)
    pts = hopf_locus(0.5, 0.1, [m_star])
    assert pts[0][1] == pytest.approx(s_star, abs=1e-8)


def test_hopf_locus_eigenvalues_purely_imaginary():
    q, c = 0.45, 0.07
    for m, s in hopf_locus(q, c, np.linspace(-0.02, 0.05, 5)):
        p = Params(float(m), float(s), q, c)
        eq = interior_equilibria(p)[-1]
        lam = np.linalg.eigvals(jacobian(p, eq.location))
        assert np.abs(lam.real).max() < 1e-9
        assert np.abs(lam.imag).min() > 0


def test_homoclinic_locus_below_hopf():
    q, c = 0.45, 0.07
    grid = [0.0, 0.02, 0.04]
    hom = homoclinic_locus(q, c, grid, FAST)
    hopf = dict((round(m, 9), s) for m, s in hopf_locus(q, c, grid))
    for m, s in hom:
        assert s is not None
        assert 0.0 < s < hopf[round(m, 9)]


def test_homoclinic_value_verified_by_gap_sign_change():
    q, c = 0.45, 0.07
    ((m, s),) = homoclinic_locus(q, c, [0.04], FAST)
    assert abs(homoclinic_gap(Params(m, s, q, c), FAST)) < 1e-6
    below = homoclinic_gap(Params(m, s - 0.005, q, c), FAST)
    above = homoclinic_gap(Params(m, s + 0.005, q, c), FAST)
    assert below * above < 0


def test_homoclinic_no_bracket_beyond_fold():
    hom = homoclinic_locus(0.5, 0.1, [0.05], FAST)   # M beyond M* = 0.0168
    assert hom == [(0.05, None)]


def test_region_labels_at_reference_points():
    assert region_classify(Params(0.04, 0.12, 0.45, 0.07), FAST) \
        is RegionLabel.BISTABLE
    assert region_classify(Params(-0.055, 0.03, 0.55, 0.1), FAST) \
        is RegionLabel.CYCLE
    assert region_classify(Params(0.04, 0.01, 0.45, 0.07), FAST) \
        is RegionLabel.REPELLER
    assert region_classify(Params(0.0, 0.1, 1.2, 0.5), FAST) \
        is RegionLabel.NO_INTERIOR
    assert region_classify(Params(-0.1, 0.19, 0.55, 0.1), FAST) \
        is RegionLabel.SINGLE_ATTRACTOR


def test_region_guard_band():
    p_fold = Params(saddle_node_M(0.5, 0.1)[0], 0.05, 0.5, 0.1)
    assert region_classify(p_fold, FAST) is RegionLabel.NEAR_LOCUS
    s_hopf = hopf_locus(0.45, 0.07, [0.04])[0][1]
    p_hopf = Params(0.04, float(s_hopf), 0.45, 0.07)
    assert region_classify(p_hopf, FAST) is RegionLabel.NEAR_LOCUS


def test_sotomayor_transversality_nonzero():
    t1, t2 = sotomayor_check(0.5, 0.1, s=0.2)
    assert abs(t1) > 1e-6
    assert abs(t2) > 1e-6


def test_sotomayor_matches_analytic_kernel():
    # left kernel of [[EQ, -EQ], [S, -S]] is (S, -EQ); the derivative of the
    # field in Q at the fold is (-E(E+C), 0) and the directional second
    # derivative along (1,1)/sqrt(2) (the unit kernel vector) is (-E, 0)
    q, c, s = 0.5, 0.1, 0.2
    m = saddle_node_M(q, c)[0]
    e = 0.5 * (1.0 + m - q)
    w = np.array([s, -e * q])
    w /= np.linalg.norm(w)
    t1_exp = w[0] * (-e * (e + c))
    t2_exp = w[0] * (-e)
    t1, t2 = sotomayor_check(q, c, s=s)
    assert abs(t1) == pytest.approx(abs(t1_exp), rel=1e-4)
    assert abs(t2) == pytest.approx(abs(t2_exp), rel=1e-3)


def test_sotomayor_exact_to_rounding():
    # the same closed-form kernel values, now to rounding: the derivatives
    # are exact; w's sign is arbitrary but shared by t1 and t2
    q, c, s = 0.5, 0.1, 0.2
    m = saddle_node_M(q, c)[0]
    e = 0.5 * (1.0 + m - q)
    w = np.array([s, -e * q])
    w /= np.linalg.norm(w)
    t1_exp = w[0] * (-e * (e + c))
    t2_exp = w[0] * (-e)
    t1, t2 = sotomayor_check(q, c, s=s)
    sign = math.copysign(1.0, t1 * t1_exp)
    assert abs(t1 - sign * t1_exp) < 1e-12
    assert abs(t2 - sign * t2_exp) < 1e-12


def test_sotomayor_rejects_non_fold_point():
    with pytest.raises(DegenerateSaddleNodeError):
        sotomayor_check(0.5, 0.1, s=0.2, m=0.3)


def test_homoclinic_extrapolates_to_bt():
    q, c = 0.5, 0.1
    m_star, s_star = bt_point(q, c)
    ms = [m_star - 0.004, m_star - 0.002]
    hom = homoclinic_locus(q, c, ms, FAST)
    assert all(s is not None for _, s in hom)
    (m0, s0), (m1, s1) = hom
    s_extrap = s1 + (s1 - s0) / (m1 - m0) * (m_star - m1)
    assert abs(s_extrap - s_star) < 1e-3


def _expected_sets(region):
    if region in (RegionLabel.NO_INTERIOR, RegionLabel.REPELLER):
        return {"predator_only"}, set()
    if region is RegionLabel.CYCLE:
        return {"cycle", "predator_only"}, {"cycle"}
    if region is RegionLabel.BISTABLE:
        return {"interior_high", "predator_only"}, {"interior_high"}
    if region is RegionLabel.SINGLE_ATTRACTOR:
        return {"interior_high"}, set()
    return None, None


def test_region_grid_agrees_with_simulation():
    q, c = 0.45, 0.07
    probes = [(0.15, 0.85), (0.5, 0.5), (0.85, 0.2), (0.3, 0.2), (0.7, 0.8)]
    ms = np.linspace(-0.06, 0.10, 20)
    ss = np.linspace(0.005, 0.16, 20)
    agree = 0
    informative = 0
    for m in ms:
        for s in ss:
            p = Params(float(m), float(s), q, c)
            region = region_classify(p, FAST, guard=2e-3)
            if region is RegionLabel.NEAR_LOCUS:
                continue
            allowed, required = _expected_sets(region)
            seen = set()
            for s0 in probes:
                lab = classify_omega_limit(p, s0, FAST)
                if lab.tag is not AttractorTag.UNDECIDED:
                    seen.add(lab.id)
            if not seen:
                continue
            informative += 1
            if seen <= allowed and required <= seen:
                agree += 1
    assert informative > 250
    assert agree / informative >= 0.95, (agree, informative)
