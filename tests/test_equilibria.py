import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alleetanner import (
    CaseLabel,
    EquilibriumKind,
    Params,
    boundary_equilibria,
    case_label,
    discriminant,
    interior_equilibria,
    vector_field,
)

from conftest import fold_params, random_params, two_root_params


def quadratic(u, p):
    return u * u - (1.0 + p.M - p.Q) * u + (p.M + p.C * p.Q)


def bisection_roots(p, n=4001):
    """Independent root oracle: sign-change scan of d(u) on [0, 1]."""
    us = np.linspace(0.0, 1.0, n)
    vals = quadratic(us, p)
    roots = []
    for i in range(n - 1):
        if vals[i] * vals[i + 1] < 0.0:
            lo, hi = float(us[i]), float(us[i + 1])
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                if quadratic(mid, p) * quadratic(lo, p) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return roots


def test_discriminant_strong_bistable():
    assert discriminant(Params(0.04, 1, 0.45, 0.07)) == pytest.approx(
        0.0621, rel=1e-12)


def test_discriminant_near_fold_parameters():
    assert abs(discriminant(Params(0.01676030, 1, 0.5, 0.1))) < 1e-6


def test_discriminant_vanishing_linear_term():
    assert discriminant(Params(0.0, 1, 1.0, 1.0)) == pytest.approx(-4.0)


def test_interior_roots_strong_bistable():
    eqs = interior_equilibria(Params(0.04, 1, 0.45, 0.07))
    assert [e.kind for e in eqs] == [EquilibriumKind.INTERIOR_LOW,
                                     EquilibriumKind.INTERIOR_HIGH]
    u1, u2 = eqs[0].location[0], eqs[1].location[0]
    assert u1 == pytest.approx(0.17040, abs=1e-4)
    assert u2 == pytest.approx(0.41960, abs=1e-4)
    # frozen bisection-oracle values
    assert u1 == pytest.approx(0.1704006420562288, abs=1e-12)
    assert u2 == pytest.approx(0.4195993579437711, abs=1e-12)
    assert eqs[0].location[1] == pytest.approx(u1 + 0.07, rel=1e-14)


def test_interior_single_root_degenerate_product():
    eqs = interior_equilibria(Params(-0.055, 1, 0.55, 0.1))
    assert len(eqs) == 1
    assert eqs[0].kind is EquilibriumKind.INTERIOR_HIGH
    assert eqs[0].location[0] == pytest.approx(0.395, abs=1e-6)


def test_interior_empty_when_no_positive_roots():
    assert interior_equilibria(Params(0.0, 1, 1.2, 0.5)) == []


def test_interior_roots_weak_bistable():
    # the paper-adjacent point M=-0.01; frozen bisection-oracle values
    eqs = interior_equilibria(Params(-0.01, 1, 0.45, 0.07))
    u1, u2 = eqs[0].location[0], eqs[1].location[0]
    assert u1 == pytest.approx(0.04328431902490733, abs=1e-11)
    assert u2 == pytest.approx(0.49671568097509267, abs=1e-11)
    assert u1 + u2 == pytest.approx(1.0 + -0.01 - 0.45, rel=1e-12)


def test_boundary_points_strong():
    eqs = boundary_equilibria(Params(0.04, 1, 0.45, 0.07))
    locs = [e.location for e in eqs]
    assert locs == [(0.0, 0.0), (1.0, 0.0), (0.04, 0.0), (0.0, 0.07)]
    assert all(e.in_domain for e in eqs)


def test_boundary_points_weak_allee_flag():
    eqs = boundary_equilibria(Params(-0.01, 1, 0.45, 0.07))
    by_kind = {e.kind: e for e in eqs}
    assert not by_kind[EquilibriumKind.PREY_ALLEE].in_domain
    assert by_kind[EquilibriumKind.PREDATOR_ONLY].location == (0.0, 0.07)


def test_boundary_points_are_exact_equilibria():
    rng = np.random.default_rng(3)
    for p in random_params(rng, 100):
        for eq in boundary_equilibria(p):
            du, dv = vector_field(p, eq.location)
            assert math.hypot(du, dv) < 1e-14


def test_case_labels_at_reference_points():
    assert case_label(Params(0.04, 1, 0.45, 0.07)) is CaseLabel.S1AII
    assert case_label(Params(-0.055, 1, 0.55, 0.1)) is CaseLabel.W2C
    assert case_label(Params(0.5, 1, 2.0, 1.0)) is CaseLabel.S1B


def test_case_label_covers_degenerate_cases():
    # constructed W2d: 1+M-Q = 0 exactly, M+CQ < 0
    m = -0.2
    p = Params(m, 1, 1.0 + m, 0.05)
    assert case_label(p) is CaseLabel.W2D
    eqs = interior_equilibria(p)
    assert eqs[0].location[0] == pytest.approx(
        math.sqrt(-(p.M + p.C * p.Q)), rel=1e-12)


def test_vieta_relations():
    rng = np.random.default_rng(5)
    for p in two_root_params(rng, 500):
        eqs = interior_equilibria(p)
        assert len(eqs) == 2
        u1, u2 = eqs[0].location[0], eqs[1].location[0]
        a = 1.0 + p.M - p.Q
        b = p.M + p.C * p.Q
        assert abs(u1 + u2 - a) <= 1e-12 * max(1.0, abs(a))
        assert abs(u1 * u2 - b) <= 1e-12 * max(1.0, abs(b))


def test_root_ordering():
    rng = np.random.default_rng(9)
    for p in two_root_params(rng, 500):
        u1, u2 = (e.location[0] for e in interior_equilibria(p))
        e = 0.5 * (1.0 + p.M - p.Q)
        assert u1 <= e <= u2 < 1.0


def test_root_residuals():
    rng = np.random.default_rng(15)
    for p in random_params(rng, 2000) + fold_params(rng, 100):
        for eq in interior_equilibria(p):
            assert abs(quadratic(eq.location[0], p)) < 1e-12


def test_interior_count_matches_case_label():
    rng = np.random.default_rng(21)
    for p in random_params(rng, 10000):
        assert len(interior_equilibria(p)) == case_label(p).interior_count


def test_fold_construction_gives_double_root():
    rng = np.random.default_rng(23)
    for p in fold_params(rng, 50):
        eqs = interior_equilibria(p)
        assert len(eqs) == 1
        assert eqs[0].multiplicity == 2
        assert eqs[0].kind is EquilibriumKind.INTERIOR_DOUBLE


def test_roots_agree_with_bisection_oracle():
    rng = np.random.default_rng(27)
    for p in random_params(rng, 100):
        ours = sorted(e.location[0] for e in interior_equilibria(p)
                      if e.multiplicity == 1)
        oracle = bisection_roots(p)
        assert len(ours) == len(oracle)
        for a, b in zip(ours, oracle):
            assert a == pytest.approx(b, abs=1e-9)


def test_interior_points_are_exact_equilibria():
    rng = np.random.default_rng(29)
    for p in random_params(rng, 500):
        for eq in interior_equilibria(p):
            du, dv = vector_field(p, eq.location)
            assert math.hypot(du, dv) < 1e-12


# ------------------------------------------------- drawn parameter vectors

drawn_params = st.builds(Params, st.floats(-0.99, 0.99), st.floats(0.01, 1.0),
                         st.floats(0.05, 2.0), st.floats(0.02, 1.5))


@settings(max_examples=200, deadline=None)
@given(drawn_params)
def test_case_tree_counts_the_positive_roots(p):
    # away from the eps bands of the case tree, its count is the number of
    # distinct positive real roots of d(u), found here as the eigenvalues
    # of the companion matrix
    a = 1.0 + p.M - p.Q
    b = p.M + p.C * p.Q
    assume(min(abs(a), abs(b), abs(discriminant(p))) > 1e-6)
    roots = np.roots([1.0, -a, b])
    real = roots[np.isreal(roots)].real
    count = int(np.count_nonzero(real > 0.0))
    assert case_label(p).interior_count == count
    assert len(interior_equilibria(p)) == count


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 0.999), st.floats(1e-3, 0.999), st.floats(0.01, 0.99),
       st.floats(0.01, 1.0))
def test_constructed_roots_are_returned(r1, r2, t, s):
    # choose the two roots, then parameters that give them.  Vieta reads
    # r1 + r2 = 1 + M - Q and r1 * r2 = M + C * Q; Q = t (1 - r1)(1 - r2)
    # then puts M in (-1, 1) and C = (1 - t) / t > 0
    lo, hi = sorted((r1, r2))
    assume(hi - lo > 1e-3)
    q = t * (1.0 - lo) * (1.0 - hi)
    p = Params(lo + hi - 1.0 + q, s, q, (1.0 - t) / t)
    eqs = interior_equilibria(p)
    assert [e.kind for e in eqs] == [EquilibriumKind.INTERIOR_LOW,
                                     EquilibriumKind.INTERIOR_HIGH]
    u1, u2 = (e.location[0] for e in eqs)
    a = 1.0 + p.M - p.Q
    b = p.M + p.C * p.Q
    assert abs(u1 + u2 - a) <= 1e-12 * max(1.0, abs(a))
    assert abs(u1 * u2 - b) <= 1e-12 * max(1.0, abs(b))
    assert u1 <= 0.5 * a <= u2
    assert u1 == pytest.approx(lo, abs=1e-9)
    assert u2 == pytest.approx(hi, abs=1e-9)
    for e in eqs:
        assert e.location[1] == e.location[0] + p.C
        assert abs(quadratic(e.location[0], p)) < 1e-12
        assert math.hypot(*vector_field(p, e.location)) < 1e-12
