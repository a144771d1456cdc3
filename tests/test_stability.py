import math

import numpy as np
import pytest

from alleetanner import (
    CaseLabel,
    Params,
    StabilityTag,
    ThresholdUndefinedError,
    boundary_equilibria,
    case_label,
    classify,
    discriminant,
    interior_equilibria,
    is_global_extinction,
    jacobian,
    threshold_S1,
    threshold_S2,
    threshold_S3,
    threshold_S4,
)
from alleetanner.equilibria import EquilibriumKind
from alleetanner.stability import sigma

from conftest import fold_params, random_params, two_root_params, \
    w2c_params, w2d_params


def eq_by_kind(p, kind):
    for eq in boundary_equilibria(p) + interior_equilibria(p):
        if eq.kind is kind:
            return eq
    raise LookupError(kind)


def test_prey_carrying_capacity_is_saddle():
    p = Params(0.04, 0.3, 0.45, 0.07)
    eq = eq_by_kind(p, EquilibriumKind.PREY_K)
    assert classify(p, eq).tag is StabilityTag.SADDLE


def test_predator_only_attracts_for_positive_product():
    p = Params(0.04, 0.3, 0.45, 0.07)
    eq = eq_by_kind(p, EquilibriumKind.PREDATOR_ONLY)
    cls = classify(p, eq)
    assert cls.tag is StabilityTag.ATTRACTOR
    assert cls.focus is False


def test_predator_only_saddle_below_product_threshold():
    p = Params(-0.2, 0.3, 0.55, 0.1)   # M + CQ = -0.145 < 0
    eq = eq_by_kind(p, EquilibriumKind.PREDATOR_ONLY)
    assert classify(p, eq).tag is StabilityTag.SADDLE


def test_allee_point_repels():
    p = Params(0.04, 0.3, 0.45, 0.07)
    eq = eq_by_kind(p, EquilibriumKind.PREY_ALLEE)
    assert classify(p, eq).tag is StabilityTag.REPELLER


def test_interior_high_flips_at_hopf_value():
    low = Params(0.04, 0.05, 0.45, 0.07)
    high = Params(0.04, 0.12, 0.45, 0.07)
    eq_low = eq_by_kind(low, EquilibriumKind.INTERIOR_HIGH)
    eq_high = eq_by_kind(high, EquilibriumKind.INTERIOR_HIGH)
    assert classify(low, eq_low).tag is StabilityTag.REPELLER
    assert classify(high, eq_high).tag is StabilityTag.ATTRACTOR
    # eigenvalue oracle confirms the sign flip
    for p, eq, sign in ((low, eq_low, 1.0), (high, eq_high, -1.0)):
        lam = np.linalg.eigvals(jacobian(p, eq.location))
        assert (lam.real * sign > 0).all()


def test_classify_rejects_foreign_point():
    p = Params(0.04, 0.12, 0.45, 0.07)
    other = Params(0.06, 0.12, 0.45, 0.07)
    eq = eq_by_kind(other, EquilibriumKind.INTERIOR_HIGH)
    with pytest.raises(ValueError):
        classify(p, eq)


@pytest.mark.parametrize("m_c", [0.5, 0.1, 1e-3])
def test_classify_rejects_the_singular_line(m_c):
    # M = -C puts (M, 0), off the domain, on u = -C, where the field
    # divides by zero: a ValueError, not a ZeroDivisionError
    p = Params(-m_c, 1.0, 1.0, m_c)
    eq = eq_by_kind(p, EquilibriumKind.PREY_ALLEE)
    assert not eq.in_domain
    with pytest.raises(ValueError, match="singular line"):
        classify(p, eq)


def test_hopf_threshold_strong_bistable():
    p = Params(0.04, 1, 0.45, 0.07)
    s1 = threshold_S1(p)
    # frozen trace-zero oracle value sigma(u2)
    assert s1 == pytest.approx(0.08425608988787206, rel=1e-10)


def test_hopf_threshold_can_vanish():
    # sqrt(Delta) = Q here, so the closed form collapses to zero
    s1 = threshold_S1(Params(-0.1, 1, 0.55, 0.1))
    assert abs(s1) < 1e-12


def test_hopf_threshold_fold_limit_equals_s2():
    rng = np.random.default_rng(31)
    for p in fold_params(rng, 20):
        assert threshold_S1(p) == pytest.approx(threshold_S2(p), abs=1e-8)


def test_hopf_threshold_undefined_without_interior_point():
    with pytest.raises(ThresholdUndefinedError):
        threshold_S1(Params(0.0, 1, 1.2, 0.5))


def test_s2_at_paper_fold_point():
    p = Params(0.01676030, 1, 0.5, 0.1)
    assert threshold_S2(p, eps=1e-6) == pytest.approx(0.12919012, abs=1e-6)
    assert threshold_S2(p, eps=1e-6) == pytest.approx(0.12919008, abs=1e-7)


def test_s2_vanishes_when_linear_term_vanishes():
    # M = Q-1 with C chosen on the fold: Delta = -4(M+CQ) needs M+CQ=0
    p = Params(-0.4, 1, 0.6, 0.4 / 0.6)
    assert threshold_S2(p, eps=1e-9) == pytest.approx(0.0, abs=1e-12)


def test_s2_undefined_off_fold():
    with pytest.raises(ThresholdUndefinedError):
        threshold_S2(Params(0.04, 1, 0.45, 0.07))


def test_s3_value():
    p = Params(-0.055, 1, 0.55, 0.1)
    assert threshold_S3(p) == pytest.approx(0.061225, rel=1e-10)


def test_s3_regime_figure_point_attracts():
    p = Params(-0.055, 0.15, 0.55, 0.1)
    eq = eq_by_kind(p, EquilibriumKind.INTERIOR_HIGH)
    assert classify(p, eq).tag is StabilityTag.ATTRACTOR


def test_s4_vanishing_case():
    # constructed so Q = 2*sqrt(-(M+CQ))
    p = Params(-0.2, 1, 0.8, 0.05)
    assert case_label(p) is CaseLabel.W2D
    assert threshold_S4(p) == pytest.approx(0.0, abs=1e-12)


def trace_at(p, u):
    return float(np.trace(jacobian(p, (u, u + p.C))))


def test_trace_zero_residuals_all_thresholds():
    rng = np.random.default_rng(37)
    for p0 in two_root_params(rng, 250):
        s1 = threshold_S1(p0)
        if s1 <= 0.0:
            continue
        p = Params(p0.M, s1, p0.Q, p0.C)
        u2 = interior_equilibria(p)[1].location[0]
        assert abs(trace_at(p, u2)) < 1e-12
    for p0 in fold_params(rng, 250):
        p = Params(p0.M, threshold_S2(p0), p0.Q, p0.C)
        e = interior_equilibria(p)[0].location[0]
        assert abs(trace_at(p, e)) < 1e-12
    for p0 in w2c_params(rng, 250):
        p = Params(p0.M, threshold_S3(p0), p0.Q, p0.C)
        u3 = interior_equilibria(p)[0].location[0]
        assert abs(trace_at(p, u3)) < 1e-12
    for p0 in w2d_params(rng, 250):
        p = Params(p0.M, threshold_S4(p0), p0.Q, p0.C)
        u4 = interior_equilibria(p)[0].location[0]
        assert abs(trace_at(p, u4)) < 1e-12


def _eigen_tag(J):
    lam = np.linalg.eigvals(J)
    if np.iscomplexobj(lam) and np.abs(lam.imag).max() > 0:
        re = lam.real
        if abs(re).min() < 1e-7:
            return None
        return (StabilityTag.ATTRACTOR if re.max() < 0
                else StabilityTag.REPELLER)
    lam = np.sort(lam.real)
    if abs(lam).min() < 1e-7:
        return None
    if lam[0] < 0 < lam[1]:
        return StabilityTag.SADDLE
    return StabilityTag.ATTRACTOR if lam[1] < 0 else StabilityTag.REPELLER


def test_classification_matches_eigenvalue_oracle():
    rng = np.random.default_rng(41)
    pairs = 0
    for p in random_params(rng, 2700):
        for eq in boundary_equilibria(p) + interior_equilibria(p):
            if not eq.in_domain or eq.multiplicity != 1:
                continue
            expected = _eigen_tag(jacobian(p, eq.location))
            if expected is None:
                continue
            got = classify(p, eq).tag
            if got is StabilityTag.NON_HYPERBOLIC:
                continue
            assert got is expected, (p, eq)
            pairs += 1
    assert pairs >= 10000


def test_lower_interior_point_is_always_a_saddle():
    rng = np.random.default_rng(43)
    for p in two_root_params(rng, 300):
        eqs = interior_equilibria(p)
        cls = classify(p, eqs[0])
        assert cls.tag is StabilityTag.SADDLE
        expect = -p.S * eqs[0].location[0] * math.sqrt(discriminant(p))
        assert cls.det == pytest.approx(expect, rel=1e-8)


def test_saddle_node_side_rule():
    rng = np.random.default_rng(47)
    for p0 in fold_params(rng, 50):
        s2 = threshold_S2(p0)
        eq = interior_equilibria(p0)[0]
        below = classify(Params(p0.M, max(s2 - 0.02, s2 / 2), p0.Q, p0.C), eq)
        above = classify(Params(p0.M, s2 + 0.02, p0.Q, p0.C), eq)
        at = classify(Params(p0.M, s2, p0.Q, p0.C), eq)
        assert below.tag is StabilityTag.SADDLE_NODE_REPELLER
        assert above.tag is StabilityTag.SADDLE_NODE_ATTRACTOR
        assert at.tag is StabilityTag.CUSP_BT


def test_global_extinction_conditions():
    assert not is_global_extinction(Params(0.04, 1, 0.45, 0.07))
    assert is_global_extinction(Params(0.0, 1, 1.2, 0.5))
    assert is_global_extinction(Params(0.2, 1, 0.9, 0.5))   # Delta < 0
