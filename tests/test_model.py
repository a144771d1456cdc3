import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alleetanner import (
    BranchDirection,
    BranchKind,
    DimensionalParams,
    ParameterError,
    Params,
    bt_point,
    classify_omega_limit,
    compute_basins,
    compute_diagram,
    dimensional_vector_field,
    find_limit_cycle,
    homoclinic_gap,
    homoclinic_locus,
    hopf_locus,
    integrate,
    interior_equilibria,
    jacobian,
    map_state,
    nondimensionalize,
    region_classify,
    saddle_node_M,
    separatrix,
    trace_manifold,
    unmap_state,
    vector_field,
)
from alleetanner.flow import IntegratorConfig
from alleetanner.model import _real_eigenvalues, _unit_eigenvector, \
    field_closure

from conftest import BISTABLE, FAST_CFG, random_params, sample_path


def test_nondimensionalize_unit_parameters():
    d = DimensionalParams(r=1, s=1, q=1, n=1, K=1, m=0.04, c=0.07)
    p = nondimensionalize(d)
    assert p == Params(0.04, 1.0, 1.0, 0.07)


def test_nondimensionalize_scaled():
    d = DimensionalParams(r=2, s=1, q=0.9, n=1, K=1, m=0.04, c=0.07)
    p = nondimensionalize(d)
    assert p.M == pytest.approx(0.04, rel=1e-15)
    assert p.S == pytest.approx(0.5, rel=1e-15)
    assert p.Q == pytest.approx(0.45, rel=1e-15)
    assert p.C == pytest.approx(0.07, rel=1e-15)


def test_nondimensionalize_rejects_allee_outside_range():
    with pytest.raises(ParameterError):
        nondimensionalize(DimensionalParams(r=1, s=1, q=1, n=1, K=1,
                                            m=1.5, c=0.1))


@pytest.mark.parametrize("call", [
    lambda: compute_basins(Params(0.0, -0.725, 0.5, 0.1), 2, FAST_CFG),
    lambda: compute_basins(BISTABLE, 2, FAST_CFG, ((1.0, 0.0), (0.0, 1.0))),
    lambda: compute_basins(BISTABLE, 2, FAST_CFG, ((0.0, 1.0), (0.5, 0.5))),
    lambda: compute_basins(BISTABLE, 2, FAST_CFG,
                           ((0.0, math.nan), (0.0, 1.0))),
    lambda: compute_basins(BISTABLE, 2, FAST_CFG,
                           ((0.0, 1.0), (-math.inf, 1.0))),
    lambda: region_classify(Params(-2.2475, 0.05, 0.5, 0.1)),
    lambda: region_classify(Params(0.0, -0.725, 0.5, 0.1)),
    lambda: compute_diagram(0.5, 0.1, (-1.5, 0.01), (0.01, 0.2)),
    lambda: homoclinic_gap(Params(0.04, -0.12, 0.45, 0.07)),
    lambda: separatrix(Params(0.04, -0.12, 0.45, 0.07)),
    lambda: homoclinic_locus(0.5, 0.1, [0.0, 1.2]),
    lambda: homoclinic_locus(-0.5, 0.1, [0.0]),
    lambda: homoclinic_locus(math.nan, 0.1, []),
    lambda: compute_basins(BISTABLE, 2.0, FAST_CFG),
    lambda: compute_basins(BISTABLE, "2", FAST_CFG),
    lambda: classify_omega_limit(Params(0.04, -1, 0.45, 0.07), (0.5, 0.5)),
    lambda: integrate(Params(5, 0.1, 0.4, 0.1), (0.5, 0.5)),
    lambda: find_limit_cycle(Params(0.04, 0.1, -0.45, 0.07), (0.5, 0.5)),
    lambda: trace_manifold(Params(0.04, 0.12, 0.45, -0.07),
                           interior_equilibria(BISTABLE)[0],
                           BranchKind.STABLE, BranchDirection.UP_RIGHT),
    lambda: saddle_node_M(0.5, math.inf),
    lambda: saddle_node_M(-1.0, 0.1),
    lambda: bt_point(0.5, -0.1),
    lambda: hopf_locus(-1.0, 0.1, [0.0]),
    lambda: hopf_locus(0.5, math.nan, [0.0]),
    lambda: hopf_locus(0.5, 0.1, [0.0, 1.2]),
], ids=["basins", "basins-reversed-u", "basins-empty-v", "basins-nan-bound",
        "basins-inf-bound", "region-M", "region-S", "diagram", "gap",
        "separatrix", "locus-M", "locus-Q", "hom-empty-grid",
        "basins-float-resolution",
        "basins-str-resolution", "omega-S", "integrate-M", "cycle-Q",
        "trace-C", "saddle-node-C", "saddle-node-Q", "bt-C", "hopf-Q",
        "hopf-C", "hopf-M"])
def test_library_entries_reject_points_outside_the_domain(call):
    with pytest.raises(ParameterError):
        call()


def test_map_state_carrying_capacity():
    d = DimensionalParams(r=1, s=1, q=1, n=3, K=2, m=0.1, c=0.1)
    assert map_state(d, 2.0, 6.0, 0.0) == (1.0, 1.0, 0.0)


def test_map_state_identity_scaling():
    d = DimensionalParams(r=1, s=1, q=1, n=1, K=1, m=0.1, c=0.1)
    assert map_state(d, 0.5, 0.5, 1.0) == (0.5, 0.5, 1.0)


def test_map_state_round_trip():
    d = DimensionalParams(r=3, s=1, q=1, n=0.5, K=2, m=0.1, c=0.1)
    u, v, tau = map_state(d, 0.3, 0.7, 2.5)
    x, y, t = unmap_state(d, u, v, tau)
    assert x == pytest.approx(0.3, abs=1e-14)
    assert y == pytest.approx(0.7, abs=1e-14)
    assert t == pytest.approx(2.5, abs=1e-14)


def test_vector_field_boundary_equilibria():
    p = Params(0.3, 0.7, 1.1, 0.2)
    assert vector_field(p, (0.0, p.C)) == (0.0, 0.0)
    assert vector_field(p, (1.0, 0.0)) == (0.0, 0.0)


def test_vector_field_hand_evaluated_point():
    # oracle: 0.5*(0.5*0.46 - 0.225) = 0.0025 and 0.1*0.5*0.07/0.57
    p = Params(0.04, 0.1, 0.45, 0.07)
    du, dv = vector_field(p, (0.5, 0.5))
    assert du == pytest.approx(0.0025, rel=1e-12)
    assert dv == pytest.approx(0.006140350877192984, rel=1e-12)


def test_jacobian_at_predator_only_point():
    p = Params(0.04, 0.3, 0.45, 0.07)
    J = jacobian(p, (0.0, p.C))
    det = np.linalg.det(J)
    tr = np.trace(J)
    assert det == pytest.approx(p.S * (p.M + p.Q * p.C), rel=1e-12)
    assert tr == pytest.approx(-(p.M + p.C * p.Q + p.S), rel=1e-12)


def test_jacobian_at_interior_equilibrium():
    from alleetanner import interior_equilibria
    p = Params(0.04, 0.3, 0.45, 0.07)
    for eq in interior_equilibria(p):
        u = eq.location[0]
        J = jacobian(p, eq.location)
        expected = p.S * u * (-1.0 - p.M + p.Q + 2.0 * u)
        assert np.linalg.det(J) == pytest.approx(expected, rel=1e-9)


def _fd_jacobian(p, state, h=1e-5):
    u, v = state
    fup = vector_field(p, (u + h, v))
    fum = vector_field(p, (u - h, v))
    fvp = vector_field(p, (u, v + h))
    fvm = vector_field(p, (u, v - h))
    return np.array([[(fup[0] - fum[0]) / (2 * h), (fvp[0] - fvm[0]) / (2 * h)],
                     [(fup[1] - fum[1]) / (2 * h), (fvp[1] - fvm[1]) / (2 * h)]])


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    for p in random_params(rng, 10):
        for _ in range(100):
            state = (float(rng.uniform(1e-3, 1.0)),
                     float(rng.uniform(1e-3, 1.0)))
            J = jacobian(p, state)
            Jfd = _fd_jacobian(p, state)
            scale = max(np.abs(J).max(), 1e-12)
            assert np.abs(J - Jfd).max() / scale < 1e-6


def test_axes_are_invariant():
    rng = np.random.default_rng(11)
    for p in random_params(rng, 50):
        v = float(rng.uniform(0.0, 3.0))
        u = float(rng.uniform(0.0, 3.0))
        assert vector_field(p, (0.0, v))[0] == 0.0
        assert vector_field(p, (u, 0.0))[1] == 0.0


def test_nullcline_identities():
    rng = np.random.default_rng(13)
    for p in random_params(rng, 50):
        u = float(rng.uniform(0.05, 0.95))
        v_prey = (1.0 - u) * (u - p.M) / p.Q
        du, _ = vector_field(p, (u, v_prey))
        assert abs(du) < 1e-13
        _, dv = vector_field(p, (u, u + p.C))
        assert abs(dv) < 1e-15
        du_off, dv_off = vector_field(p, (u, v_prey + 0.1))
        assert du_off != 0.0


def test_dimensional_field_equilibria():
    d = DimensionalParams(r=1.2, s=0.7, q=0.9, n=1.1, K=2.0, m=0.3, c=0.4)
    assert dimensional_vector_field(d, d.K, 0.0) == (0.0, 0.0)
    assert dimensional_vector_field(d, 0.0, d.c) == (0.0, 0.0)


def test_flows_topologically_equivalent_quick():
    # three-sample version of the acceptance property
    rng = np.random.default_rng(17)
    cfg = IntegratorConfig()
    for _ in range(3):
        r, s, q, n, K = (float(x) for x in
                         np.exp(rng.uniform(math.log(0.3), math.log(3.0), 5)))
        c = K * n * float(rng.uniform(0.05, 0.3))
        m = K * float(rng.uniform(-0.3, 0.5))
        d = DimensionalParams(r, s, q, n, K, m, c)
        p = nondimensionalize(d)
        u0 = float(rng.uniform(0.1, 1.1))
        v0 = float(rng.uniform(0.1, 1.1))
        taus = np.linspace(0.5, 30.0, 15)

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


# ------------------------------------------------- closed-form 2x2 eigenpairs

_EPS = np.finfo(float).eps
# spacing of the subnormal floats: no result below 1e-308 is finer
_TINY = np.finfo(float).smallest_subnormal
_entry = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def real_spectrum_matrices(draw):
    """2x2 matrices with a real spectrum by construction, over 16 decades
    of scale."""
    kind = draw(st.sampled_from(["upper", "lower", "symmetric", "similar"]))
    a, b, c = draw(_entry), draw(_entry), draw(_entry)
    if kind == "upper":
        J = np.array([[a, b], [0.0, c]])
    elif kind == "lower":
        J = np.array([[a, 0.0], [b, c]])
    elif kind == "symmetric":
        J = np.array([[a, b], [b, c]])
    else:
        # V diag(a, b) V^-1 with cond(V) <= ~6, so both eigenvalues are
        # well conditioned, and a, b apart so rounding keeps them real
        assume(abs(a - b) > 1e-6 * (abs(a) + abs(b)))
        x, y = draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))
        V = np.array([[1.0, x], [y, 1.0]])
        J = V @ np.diag([a, b]) @ np.linalg.inv(V)
    return J * 10.0 ** draw(st.integers(-8, 8))


@settings(max_examples=400, deadline=None)
@given(real_spectrum_matrices())
# tr^2/4 - det cancels to 0 here and loses the 2e-9 eigenvalue gap
@example(np.array([[1.0, 1e-9], [1e-9, 1.0]]))
def test_closed_form_eigenpairs_match_lapack(J):
    norm = np.abs(J).max()   # np.linalg.norm squares, so tiny J underflow
    ref = np.linalg.eigvals(J)
    assert np.all(ref.imag == 0.0)
    low, high = _real_eigenvalues(J)
    assert low <= high
    assert np.allclose([low, high], np.sort(ref.real), rtol=0.0,
                       atol=64 * _EPS * norm + 4 * _TINY)
    # the residual relative to |J|, taken at unit scale so that subnormal
    # entries do not round the check itself
    e = math.frexp(norm)[1]
    for lam in (low, high):
        v = np.asarray(_unit_eigenvector(J, lam))
        assert abs(math.hypot(*v) - 1.0) < 4 * _EPS
        r = np.ldexp(J, -e) @ v - math.ldexp(lam, -e) * v
        assert math.hypot(*r) <= 64 * _EPS + math.ldexp(4 * _TINY, -e)


@settings(max_examples=200, deadline=None)
@given(_entry, _entry, _entry, _entry, st.booleans())
def test_complex_pair_raises(a, b, c, d, rotation):
    J = np.array([[a, -b], [b, a]] if rotation else [[a, b], [c, d]])
    # clearly complex: a pair whose imaginary part is within rounding of
    # the entries belongs to a matrix within rounding of a real spectrum
    assume(np.abs(np.linalg.eigvals(J).imag).max() > 1e-6 * np.abs(J).max())
    with pytest.raises(ValueError):
        _real_eigenvalues(J)


def test_triangular_jacobian_gives_exact_axis_vector():
    # at (1, 0) the Jacobian is upper triangular: the stable direction is
    # the u-axis, exactly
    J = np.asarray(jacobian(Params(0.04, 0.12, 0.45, 0.07), (1.0, 0.0)))
    assert J[1, 0] == 0.0
    low, _ = _real_eigenvalues(J)
    assert list(_unit_eigenvector(J, low)) in ([1.0, 0.0], [-1.0, 0.0])
