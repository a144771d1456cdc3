"""Checks of the benchmark's own arithmetic on synthetic inputs.

    python3 -m pytest perfbench
"""

import statistics
import types

import pytest

from stats import (RHS_PER_ATTEMPT, failed_share, percentile,
                   quartile_spread, self_times, step_attempts)
from tracing import SPANS, TERMINATIONS, Tracer, layer_metrics


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 9.0, 8.0, 7.0, 6.0]
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 91) == 10.0
    assert percentile(values, 100) == 10.0
    assert percentile(values, 1) == 1.0
    assert percentile([3.5], 50) == 3.5


@pytest.mark.parametrize("values,q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("command", 0.0, 10.0, -1),
        ("raster", 1.0, 9.0, 0),
        ("cell", 1.0, 4.0, 1),
        ("cell", 4.0, 8.5, 1),
        ("trace", 5.0, 6.0, 3),
        ("io", 9.0, 9.5, 0),
    ]
    own = self_times(spans)
    assert own["command"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert own["raster"] == pytest.approx(8.0 - 3.0 - 4.5)
    assert own["cell"] == pytest.approx(3.0 + 4.5 - 1.0)
    assert own["trace"] == pytest.approx(1.0)
    assert own["io"] == pytest.approx(0.5)
    # self times partition the root span
    assert sum(own.values()) == pytest.approx(10.0)


def test_failed_share():
    assert failed_share(0, 4900) == 0.0
    assert failed_share(67, 576) == pytest.approx(0.11632, abs=1e-5)
    assert failed_share(12, 12) == 1.0
    for failed, attempted in ((1, 0), (-1, 5), (6, 5)):
        with pytest.raises(ValueError):
            failed_share(failed, attempted)


def test_step_attempts_from_rhs_count():
    # 3 loop runs, one of which stopped at its start point; 2 steppers made
    # 10 attempts each, one attempt cut short after 4 RHS calls
    rhs = 2 * 10 * RHS_PER_ATTEMPT + 2 + 3
    assert step_attempts(rhs, stepper_inits=2, drive_calls=3) == 20
    assert step_attempts(rhs - 2, stepper_inits=2, drive_calls=3) == 19
    with pytest.raises(ValueError):
        step_attempts(4, stepper_inits=2, drive_calls=3)


def test_quartile_spread_matches_statistics():
    values = [9.0, 10.0, 10.0, 10.5, 11.0, 9.5, 10.2, 9.8, 10.1, 10.4]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / med)


def test_tracer_nests_spans_and_sums_times():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    tracer.wrap(mod, "inner", span="cell", timer="inner_s", sample="inner_ms")
    mod.outer = lambda: [mod.inner(i) for i in range(2)]
    tracer.wrap(mod, "outer", span="raster")
    assert mod.outer() == [1, 2]
    rep = tracer.report()
    assert [s[0] for s in rep["spans"]] == ["raster", "cell", "cell"]
    assert [s[3] for s in rep["spans"]] == [-1, 0, 0]
    assert rep["times"]["inner_s"] == 2.0
    assert rep["samples"]["inner_ms"] == [1e3, 1e3]
    assert self_times(rep["spans"]) == {"raster": 3.0, "cell": 2.0}


def test_layer_metrics_from_synthetic_report():
    report = {
        "spans": [["command", 0.0, 2.0, -1], ["gap", 0.5, 1.5, 0]],
        "counts": {"model.rhs_evals": 6 * 100 + 4 + 3,
                   "flow.stepper_inits": 4, "flow.drive_calls": 3,
                   "flow.steps_accepted": 80,
                   "bifurcation.locus_points": 2,
                   "flow.term.horizon_exceeded": 1},
        "times": {"flow.step_s": 0.25},
        "samples": {"manifolds.gap_ms": [3.0, 1.0, 2.0, 4.0, 5.0],
                    "flow.classify_ms": [float(i) for i in range(1, 11)]},
    }
    m = layer_metrics(report)
    assert m["flow.step_attempts"] == 100
    assert m["flow.step_accept_ratio"] == pytest.approx(0.8)
    assert m["manifolds.gap_calls"] == 5
    assert m["bifurcation.gap_calls_per_point"] == 2.5
    assert m["manifolds.gap_ms_p50"] == 3.0
    assert m["flow.classify_ms_p90"] == 9.0
    assert m["span.command.self_s"] == 1.0
    assert m["span.gap.self_s"] == 1.0
    assert m["flow.term.horizon_exceeded"] == 1
    # every workload reports the same names, zero where a layer is unused
    for name in SPANS:
        assert f"span.{name}.self_s" in m
    for term in TERMINATIONS:
        assert f"flow.term.{term}" in m
    assert m["basin.raster_s"] == 0.0
