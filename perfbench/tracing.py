"""Per-layer tracing of one ``alleetanner`` command, from outside the library.

``install`` rebinds, in the module that calls it, every function the
benchmark treats as a layer boundary: ``from x import f`` binds ``f`` in the
importing module, so a wrapper must replace that binding, not ``x.f``.

Two kinds of record are kept in memory and returned by ``report``:

* spans ``(name, start, end, parent)`` at the command, raster, cell,
  separatrix, locus, gap, trace, region, limit-cycle, render and I/O
  boundaries;
* counters and summed times for calls that number in the millions
  (RHS, DP5 steps, dense-output evaluations), where one span per call would
  cost more than the call.
"""

from __future__ import annotations

import time

from stats import percentile, self_times, step_attempts

TERMINATIONS = ("reached_equilibrium", "reached_cycle", "horizon_exceeded",
                "step_underflow", "left_domain")
SPANS = ("command", "raster", "cell", "separatrix", "diagram", "locus", "gap",
         "trace", "region", "limit_cycle", "render", "io")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.times: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, module, attr: str, span: str | None = None,
             timer: str | None = None, sample: str | None = None,
             on_result=None) -> None:
        """Replace ``module.attr`` with a recording wrapper.

        ``span`` opens a span of that name around the call, ``timer`` adds
        the call's duration to a summed time, ``sample`` keeps each call's
        duration in ms, ``on_result(result)`` inspects the return value.
        """
        inner = getattr(module, attr)
        clock, spans, stack = self.clock, self.spans, self.stack
        times, samples = self.times, self.samples

        def wrapper(*args, **kwargs):
            if span is not None:
                idx = len(spans)
                spans.append([span, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
            t0 = clock()
            try:
                result = inner(*args, **kwargs)
            finally:
                t1 = clock()
                if span is not None:
                    stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
                if timer is not None:
                    times[timer] = times.get(timer, 0.0) + (t1 - t0)
                if sample is not None:
                    samples.setdefault(sample, []).append(1e3 * (t1 - t0))
            if on_result is not None:
                on_result(result)
            return result

        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "times": self.times, "samples": self.samples}


def install(tracer: Tracer):
    """Wrap every layer boundary of the package for one traced command.

    Returns a function that moves the hot-loop counters into the tracer;
    call it after the command ends.
    """
    from alleetanner import basin, bifurcation, cli, flow, manifolds, svgplot

    add = tracer.add
    clock = tracer.clock
    times = tracer.times

    # model: count calls of every closure the integrators build
    rhs = [0]

    def counting_closure(field_closure):
        def make(p):
            f = field_closure(p)

            def counted(u, v):
                rhs[0] += 1
                return f(u, v)
            return counted
        return make

    for mod in (flow, manifolds):
        mod.field_closure = counting_closure(mod.field_closure)

    # equilibria: all_equilibria as bound in each caller
    for mod in (flow, manifolds, basin, cli):
        tracer.wrap(mod, "all_equilibria",
                    on_result=lambda _r: add("equilibria.calls"))

    # flow: the stepper is shared by the event loop and the manifold tracer
    stepper = flow._Stepper
    step, state_at, init = stepper.step, stepper.state_at, stepper.__init__
    acc = [0, 0.0, 0, 0]   # accepted steps, step time, dense evals, inits

    def traced_step(self):
        t0 = clock()
        ok = step(self)
        acc[1] += clock() - t0
        if ok:
            acc[0] += 1
        return ok

    def traced_state_at(self, tau_q):
        acc[2] += 1
        return state_at(self, tau_q)

    def traced_init(self, *args, **kwargs):
        acc[3] += 1
        init(self, *args, **kwargs)

    stepper.step = traced_step
    stepper.state_at = traced_state_at
    stepper.__init__ = traced_init

    def on_drive(res):
        add("flow.drive_calls")
        add("flow.term." + res.termination.value)

    tracer.wrap(flow, "_drive", on_result=on_drive)
    tracer.wrap(flow, "_refine_crossing", timer="flow.refine_s",
                on_result=lambda _r: add("flow.refine_calls"))
    tracer.wrap(basin, "classify_omega_limit", span="cell",
                sample="flow.classify_ms")
    tracer.wrap(bifurcation, "find_limit_cycle", span="limit_cycle",
                timer="flow.find_limit_cycle_s")

    # basin
    def on_raster(raster):
        add("basin.cells", int(raster.labels.size))
        add("basin.undecided_cells", int((raster.labels == 0).sum()))

    tracer.wrap(cli, "compute_basins", span="raster", timer="basin.raster_s",
                on_result=on_raster)
    tracer.wrap(cli, "save_raster", span="io", timer="basin.save_s")

    # manifolds
    tracer.wrap(manifolds, "_trace", span="trace",
                on_result=lambda r: add("manifolds.trace_steps",
                                        len(r.points) - 1))
    tracer.wrap(manifolds, "_refine_section",
                on_result=lambda _r: add("manifolds.refine_calls"))
    tracer.wrap(bifurcation, "homoclinic_gap", span="gap",
                sample="manifolds.gap_ms")
    tracer.wrap(cli, "separatrix", span="separatrix",
                timer="manifolds.separatrix_s")

    # bifurcation
    def on_locus(hom):
        add("bifurcation.locus_points", len(hom))
        add("bifurcation.locus_converged",
            sum(1 for _, s in hom if s is not None))

    tracer.wrap(bifurcation, "homoclinic_locus", span="locus",
                on_result=on_locus)
    tracer.wrap(cli, "compute_diagram", span="diagram")
    tracer.wrap(cli, "region_classify", span="region",
                timer="bifurcation.region_classify_s")

    # svgplot: cli imports the renderers at call time, from the module
    for name in ("render_basin", "render_bifurcation"):
        tracer.wrap(svgplot, name, span="render", timer="svgplot.render_s")

    # cli
    tracer.wrap(cli, "_write_csv", span="io", timer="cli.csv_s")
    tracer.wrap(cli, "main", span="command")

    def finish():
        tracer.counts["model.rhs_evals"] = rhs[0]
        tracer.counts["flow.steps_accepted"] = acc[0]
        times["flow.step_s"] = acc[1]
        tracer.counts["flow.dense_evals"] = acc[2]
        tracer.counts["flow.stepper_inits"] = acc[3]

    return finish


def layer_metrics(report: dict) -> dict[str, float]:
    """Per-layer numbers of one traced command, from its ``report``."""
    counts = report["counts"]
    times = report["times"]
    samples = report["samples"]

    def count(key):
        return counts.get(key, 0)

    def timed(key):
        return times.get(key, 0.0)

    def pct(key, q):
        values = samples.get(key)
        return percentile(values, q) if values else 0.0

    attempts = step_attempts(count("model.rhs_evals"),
                             count("flow.stepper_inits"),
                             count("flow.drive_calls"))
    points = count("bifurcation.locus_points")
    gap_calls = len(samples.get("manifolds.gap_ms", ()))
    out = {
        "model.rhs_evals": count("model.rhs_evals"),
        "equilibria.calls": count("equilibria.calls"),
        "flow.steps_accepted": count("flow.steps_accepted"),
        "flow.step_attempts": attempts,
        "flow.step_accept_ratio":
            count("flow.steps_accepted") / attempts if attempts else 0.0,
        "flow.step_s": timed("flow.step_s"),
        "flow.refine_calls": count("flow.refine_calls"),
        "flow.dense_evals": count("flow.dense_evals"),
        "flow.refine_s": timed("flow.refine_s"),
        "flow.classify_ms_p50": pct("flow.classify_ms", 50),
        "flow.classify_ms_p90": pct("flow.classify_ms", 90),
    }
    for term in TERMINATIONS:
        out["flow.term." + term] = count("flow.term." + term)
    out.update({
        "flow.find_limit_cycle_s": timed("flow.find_limit_cycle_s"),
        "basin.cells": count("basin.cells"),
        "basin.undecided_cells": count("basin.undecided_cells"),
        "basin.raster_s": timed("basin.raster_s"),
        "basin.save_s": timed("basin.save_s"),
        "manifolds.gap_calls": gap_calls,
        "manifolds.trace_steps": count("manifolds.trace_steps"),
        "manifolds.refine_calls": count("manifolds.refine_calls"),
        "manifolds.gap_ms_p50": pct("manifolds.gap_ms", 50),
        "manifolds.separatrix_s": timed("manifolds.separatrix_s"),
        "bifurcation.locus_converged": count("bifurcation.locus_converged"),
        "bifurcation.gap_calls_per_point":
            gap_calls / points if points else 0.0,
        "bifurcation.region_classify_s":
            timed("bifurcation.region_classify_s"),
        "svgplot.render_s": timed("svgplot.render_s"),
        "cli.io_s": timed("cli.csv_s") + timed("basin.save_s"),
    })
    own = self_times(report["spans"])
    for name in SPANS:
        out[f"span.{name}.self_s"] = own.get(name, 0.0)
    return out
