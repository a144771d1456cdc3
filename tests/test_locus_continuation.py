"""The homoclinic root solve of ``homoclinic_locus`` on analytic fake gaps.

``bifurcation.homoclinic_gap`` is replaced by a gap whose root is known,
S = f(M) * S_hopf(M), while the case test and the Hopf value stay the
model's own.  On Q = 0.5, C = 0.1 every M of the grid below is a two-point
case with a positive Hopf value.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleetanner import Params, bifurcation, homoclinic_locus
from alleetanner.manifolds import GapUndefinedError
from alleetanner.stability import hopf_threshold

Q, C = 0.5, 0.1
GRID = np.linspace(-0.04, 0.01, 12)
TOL = bifurcation._GAP_TOL


def curved(m):
    """A root share of S_hopf that no secant predicts exactly."""
    return 0.5 + 2.0 * m + 100.0 * m * m


def s_hopf(m):
    return hopf_threshold(Params(float(m), 1.0, Q, C))


class FakeGap:
    """gap = k x (1 + c x^2) with x = (S - f(M) S_hopf) / S_hopf, which
    is monotone in S with its one root where x = 0; every call is logged."""

    def __init__(self, frac, k=1.0, c=0.0):
        self.frac, self.k, self.c = frac, k, c
        self.calls = []

    def value(self, m, s):
        x = (s - self.frac(m) * s_hopf(m)) / s_hopf(m)
        return self.k * x * (1.0 + self.c * x * x)

    def __call__(self, p, cfg=None):
        self.calls.append((p.M, p.S))
        return self.value(p.M, p.S)

    def calls_at(self, m):
        return [s for mm, s in self.calls if mm == m]


def solve(fake, grid=GRID):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bifurcation, "homoclinic_gap", fake)
        return homoclinic_locus(Q, C, grid)


def scan_bisect_calls(fake, m):
    """Gap calls of a 12-point scan below S_hopf plus midpoint bisection
    to |gap| < TOL, the solve each M used before continuation."""
    top = s_hopf(m)
    n, prev, bracket = 0, None, None
    for fr in 1.0 - np.geomspace(1e-4, 0.9, 12):
        s = float(fr * top)
        g = fake.value(m, s)
        n += 1
        if prev is not None and g * prev[1] < 0.0:
            bracket = (prev[0], prev[1], s)
            break
        prev = (s, g)
    assert bracket is not None
    hi, g_hi, lo = bracket
    while True:
        mid = 0.5 * (lo + hi)
        g = fake.value(m, mid)
        n += 1
        if abs(g) < TOL:
            return n
        if (g > 0.0) == (g_hi > 0.0):
            hi = mid
        else:
            lo = mid


def check_roots(fake, hom):
    for m, s in hom:
        assert s is not None, m
        assert abs(fake.value(m, s)) < TOL
        assert 0.0 < s < s_hopf(m)


def test_roots_lie_inside_the_tolerance():
    fake = FakeGap(curved, k=3.0, c=5.0)
    check_roots(fake, solve(fake))


def test_fewer_calls_than_scan_and_bisection():
    fake = FakeGap(curved, k=3.0, c=5.0)
    solve(fake)
    reference = sum(scan_bisect_calls(fake, float(m)) for m in GRID)
    assert len(fake.calls) < reference / 3


def test_root_jump_missed_by_the_predictor_falls_back_to_the_scan():
    # from the sixth point on, the gap changes its orientation and its root
    # jumps up: the predictor's side rule steps down, away from it
    jump = float(GRID[5])

    class Jumping(FakeGap):
        def value(self, m, s):
            if m < jump:
                return super().value(m, s)
            return -(s - 0.9 * s_hopf(m)) / s_hopf(m)

    fake = Jumping(lambda m: 0.4)
    hom = solve(fake)
    check_roots(fake, hom)
    assert hom[5][1] == pytest.approx(0.9 * s_hopf(jump), rel=1e-5)
    scan_top = float((1.0 - 1e-4) * s_hopf(jump))
    assert scan_top in fake.calls_at(jump)
    assert scan_top not in fake.calls_at(float(GRID[4]))


def test_undefined_gap_inside_a_solve_gives_none():
    bad = float(GRID[4])

    class Failing(FakeGap):
        def __call__(self, p, cfg=None):
            # the predictor and its first step succeed; the refinement
            # that follows does not
            if p.M == bad and len(self.calls_at(bad)) >= 2:
                self.calls.append((p.M, p.S))
                raise GapUndefinedError("branch left the box")
            return super().__call__(p, cfg)

    fake = Failing(curved, k=3.0)
    hom = solve(fake)
    assert hom[4] == (bad, None)
    assert len(fake.calls_at(bad)) == 3
    check_roots(fake, hom[:4] + hom[5:])


@pytest.mark.parametrize("grid", [
    [GRID[3], GRID[3], GRID[4], GRID[4], GRID[4], GRID[6]],
    GRID[::-1],
    [GRID[2], GRID[9], GRID[0], GRID[0], GRID[11], GRID[5]],
], ids=["duplicates", "descending", "unordered"])
def test_duplicate_and_unordered_grids(grid):
    fake = FakeGap(lambda m: 0.5 - 3.0 * m, k=2.0, c=1.0)
    hom = solve(fake, grid)
    assert [m for m, _ in hom] == [float(m) for m in grid]
    check_roots(fake, hom)


def test_repeat_calls_are_equal():
    fake = FakeGap(curved, k=3.0, c=5.0)
    assert solve(fake) == solve(fake)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 0.9), st.floats(0.2, 0.9), st.floats(-100.0, 100.0),
       st.floats(0.05, 20.0), st.booleans(), st.floats(0.0, 20.0))
def test_drawn_roots_and_slopes(f_lo, f_hi, bend, k, upper, c):
    # the root's share of S_hopf runs from f_lo to f_hi, bent by at most
    # 0.0625 at the middle of the grid
    lo, hi = float(GRID[0]), float(GRID[-1])
    mid = 0.5 * (lo + hi)

    def frac(m):
        return (f_lo + (f_hi - f_lo) * (m - lo) / (hi - lo)
                + bend * ((m - mid) ** 2 - (hi - mid) ** 2))

    fake = FakeGap(frac, k=k if upper else -k, c=c)
    check_roots(fake, solve(fake))
    reference = sum(scan_bisect_calls(fake, float(m)) for m in GRID)
    assert len(fake.calls) < reference


@pytest.mark.parametrize("k", [0, 5], ids=["first-probe", "sixth-probe"])
def test_a_scan_probe_on_the_root_is_the_root(k):
    # the root's share of S_hopf is a scan fraction, so that probe reads a
    # gap of exactly 0.0 and no two probes differ in sign; on the first
    # probe no probe above it tells the gap's side
    f = float((1.0 - np.geomspace(1e-4, 0.9, 12))[k])
    fake = FakeGap(lambda m: f)
    ((m, s),) = solve(fake, [-0.02])
    assert s == float(f * s_hopf(m))
    assert len(fake.calls) == k + 1
    # the points after it continue from that root
    fake = FakeGap(lambda m: f)
    check_roots(fake, solve(fake))
