"""Arithmetic shared by the benchmark runner and the in-process tracer.

Everything here is pure: lists of numbers, span tuples and counter dicts in,
numbers out.  ``test_stats.py`` checks it on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics

# Every DP5 step attempt calls the RHS six times (stages 2..7; stage 1 is the
# FSAL value from the previous step).  One more call seeds each stepper, and
# the event loop evaluates the field once at the trajectory's start point.
RHS_PER_ATTEMPT = 6


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty list.

    Nearest rank returns an observed value, never an interpolation, so a
    p90 over ten samples is the ninth smallest.
    """
    if not values:
        raise ValueError("percentile of an empty list")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def self_times(spans) -> dict[str, float]:
    """Summed self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` is the index of the enclosing span or -1.  A span's self
    time is its duration minus the durations of its direct children; spans
    come from one thread, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


def failed_share(failed: int, attempted: int) -> float:
    """Share of ``attempted`` items that failed, in [0, 1]."""
    if attempted <= 0:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def step_attempts(rhs_evals: int, stepper_inits: int, drive_calls: int) -> int:
    """DP5 step attempts implied by the RHS count.

    Subtracts the one seeding call per stepper and the one start-point call
    per event-loop run, then divides by the six calls per attempt.  An
    attempt cut short by a division by zero calls the RHS fewer times, so
    the result rounds down.
    """
    stepping = rhs_evals - stepper_inits - drive_calls
    if stepping < 0:
        raise ValueError("fewer RHS calls than stepper and loop starts")
    return stepping // RHS_PER_ATTEMPT


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
