import numpy as np
import pytest

from alleetanner import IntegratorConfig, Params, compute_basins
from alleetanner.flow import _Stepper

# Paper-figure parameter points used across test modules.
BISTABLE = Params(0.04, 0.12, 0.45, 0.07)
WEAK_BISTABLE = Params(-0.01, 0.12, 0.45, 0.07)
CYCLE_POINT = Params(-0.055, 0.03, 0.55, 0.1)
SINGLE_STABLE = Params(-0.055, 0.15, 0.55, 0.1)
EXTINCTION = Params(0.0, 0.1, 1.2, 0.5)

# Looser tolerances for basin sweeps: labels away from the separatrix are
# insensitive to them and cells classify several times faster.
FAST_CFG = IntegratorConfig(rel_tol=1e-6, abs_tol=1e-9, rho_eq=1e-5)


def sample_path(f, s0, cfg: IntegratorConfig, tau_end: float,
                taus) -> np.ndarray:
    """Integrate a raw planar field and dense-sample it at given times.

    For cross-checks (e.g. dimensional vs nondimensional flows): no
    equilibrium or cycle events, just positivity-preserving stepping.
    """
    taus = np.asarray(taus, dtype=float)
    out = np.empty((len(taus), 2))
    stepper = _Stepper(f, s0, cfg, tau_end)
    i = 0
    while i < len(taus) and taus[i] <= 0.0:
        out[i] = s0
        i += 1
    while stepper.step():
        while i < len(taus) and taus[i] <= stepper.tau:
            out[i] = stepper.state_at(taus[i])
            i += 1
        if i >= len(taus):
            break
    if i < len(taus):
        raise RuntimeError(
            f"integration stopped at tau={stepper.tau:.6g} before reaching "
            f"all requested sample times")
    return out


def random_params(rng, n):
    """Admissible parameter vectors covering all sign regimes."""
    out = []
    for _ in range(n):
        out.append(Params(float(rng.uniform(-0.9, 0.9)),
                          float(rng.uniform(0.01, 1.0)),
                          float(rng.uniform(0.05, 2.0)),
                          float(rng.uniform(0.02, 1.5))))
    return out


def two_root_params(rng, n):
    """Random vectors in the two-interior-point regime (Delta > 0).

    Only about a quarter of them (19-30% over seeds 0-49) have S1 > 0,
    that is Q > sqrt(Delta); a caller that needs N positive S1 values must
    draw about 4N.
    """
    out = []
    while len(out) < n:
        m = float(rng.uniform(-0.1, 0.6))
        q = float(rng.uniform(0.1, 0.9))
        c = float(rng.uniform(0.02, 0.3))
        p = Params(m, float(rng.uniform(0.01, 1.0)), q, c)
        a = 1.0 + m - q
        b = m + c * q
        if a > 0.01 and b > 1e-4 and a * a - 4.0 * b > 1e-4:
            out.append(p)
    return out


def fold_params(rng, n):
    """Parameter vectors constructed exactly on the fold Delta = 0."""
    out = []
    while len(out) < n:
        m = float(rng.uniform(-0.4, 0.8))
        q = float(rng.uniform(0.05, 1.5))
        a = 1.0 + m - q
        if a <= 0.05:
            continue
        c = (a * a - 4.0 * m) / (4.0 * q)
        if c <= 0.0:
            continue
        out.append(Params(m, float(rng.uniform(0.01, 1.0)), q, c))
    return out


def w2c_params(rng, n):
    """Constructed W2c vectors: M + C*Q = 0 with 1+M-Q > 0."""
    out = []
    while len(out) < n:
        m = float(rng.uniform(-0.4, -0.01))
        q = float(rng.uniform(0.1, 1.0 + m - 0.05))
        if q <= 0.1:
            continue
        out.append(Params(m, float(rng.uniform(0.01, 1.0)), q, -m / q))
    return out


def w2d_params(rng, n):
    """Constructed W2d vectors: 1+M-Q = 0 exactly with M + C*Q < 0."""
    out = []
    while len(out) < n:
        m = float(rng.uniform(-0.5, -0.05))
        q = 1.0 + m
        c = float(rng.uniform(0.05, 0.9)) * (-m / q)
        if m + c * q < -1e-4:
            out.append(Params(m, float(rng.uniform(0.01, 1.0)), q, c))
    return out


@pytest.fixture(scope="session")
def raster_bistable_100():
    return compute_basins(BISTABLE, 100, FAST_CFG)


@pytest.fixture(scope="session")
def raster_bistable_200():
    return compute_basins(BISTABLE, 200, FAST_CFG)


@pytest.fixture(scope="session")
def raster_bistable_400():
    return compute_basins(BISTABLE, 400, FAST_CFG)


@pytest.fixture(scope="session")
def raster_weak_200():
    return compute_basins(WEAK_BISTABLE, 200, FAST_CFG)
