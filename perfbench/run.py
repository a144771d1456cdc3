"""End-to-end benchmark of the ``alleetanner`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each workload runs one CLI command
at a time, each in a fresh interpreter (closed loop, one client, no
threads), checks every output against an independent oracle and, as the
last line of standard output, prints one JSON object with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

The seed varies only where the command samples, never the parameter point:
per-cell cost near the cycle point moves from 0.5 to 45 ms when M or S
moves by 0.005, which no bound could absorb.  Each seed gives antithetic
pairs of inputs, resolution offsets +d and -d for the rasters and window
offsets +delta and -delta for the homoclinic grid, so the mean cost of a
seed's inputs stays close to the nominal input's.  A run repeats the round
of the seed's inputs while another round fits in ``--seconds`` (at least
once) and reports medians over rounds.

The traced run alternates untraced and traced rounds on the same inputs:
the per-layer numbers come from the traced commands and
``trace.overhead_frac`` compares the two.  Every command's output digest
must equal that of every earlier command on the same input, in this run or
an earlier run of the same sources in this checkout.  Workloads,
layer-to-metric predictions and the recorded baseline are in ``plan.json``
next to this file.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from stats import failed_share
from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "out"
REFERENCE = BENCH / "reference_labels.npz"

# Loose tolerances of the test suite's sweeps; the bistable raster keeps the
# library defaults.
FAST = {"rel_tol": 1e-6, "abs_tol": 1e-9, "rho_eq": 1e-5}

# Set-up lasts ~0.07 s and jitters by ~10% from process to process, so each
# command is preceded by this many processes that stop where set-up ends.
SETUP_PROBES = 4


def _flags(tol: dict) -> list[str]:
    out = []
    for key, val in tol.items():
        out += ["--" + key.replace("_", "-"), repr(val)]
    return out


class Outcome:
    """What one command did, as judged by the oracles."""

    def __init__(self, items: int):
        self.items = items          # raster cells or homoclinic grid points
        self.undecided = items      # items with no answer; all until checked
        self.ok = False
        self.error = ""
        self.digest = ""
        self.labels_changed = 0


class BasinWorkload:

    def __init__(self, name, params, resolution, pairs, tol):
        self.name = name
        self.params = params        # (M, S, Q, C)
        self.resolution = resolution
        self.pairs = pairs
        self.tol = tol

    def inputs(self, seed: int) -> list[int]:
        out = []
        for d in random.Random(seed).sample(range(1, 4), self.pairs):
            out += [self.resolution + d, self.resolution - d]
        return out

    def items(self, res: int) -> int:
        return res * res

    def resolutions(self) -> range:
        return range(self.resolution - 3, self.resolution + 4)

    def argv(self, res: int, out: Path) -> list[str]:
        m, s, q, c = self.params
        return (["basin", "-M", repr(m), "-S", repr(s), "-Q", repr(q),
                 "-C", repr(c), "--resolution", str(res),
                 "--out-dir", str(out)] + _flags(self.tol))

    def check(self, res: int, out: Path, lib, reference) -> Outcome:
        from alleetanner.basin import PHI, config_hash
        o = Outcome(self.items(res))
        p, cfg = lib.Params(*self.params), lib.IntegratorConfig(**self.tol)
        raster = lib.load_raster(str(out / "basin.bin"))
        if raster.resolution != res or raster.labels.shape != (res, res):
            o.error = f"raster resolution {raster.resolution} != {res}"
            return o
        want = config_hash(p, PHI, res, cfg)
        if raster.config_hash != want:
            o.error = "raster config_hash does not match its inputs"
            return o
        labels = raster.labels
        o.digest = hashlib.sha256(labels.tobytes()).hexdigest()
        key = f"{self.name}_{res}"
        if key in reference:
            o.labels_changed = int((reference[key] != labels).sum())
        o.error = self._oracle(p, cfg, raster, out, lib)
        o.ok = not o.error
        if o.ok:
            o.undecided = int((labels == 0).sum())
        return o


class BistableWorkload(BasinWorkload):
    def _oracle(self, p, cfg, raster, out, lib) -> str:
        # acceptance criterion 6: the boundary hugs the traced separatrix
        dev = lib.boundary_vs_separatrix(raster, lib.separatrix(p, cfg))
        if dev > 2.0 / raster.resolution:
            return f"basin boundary {dev:.4g} from the separatrix (> 2 cells)"
        return ""


class CycleWorkload(BasinWorkload):
    def _oracle(self, p, cfg, raster, out, lib) -> str:
        total = 0.0
        for line in (out / "fractions.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("attractor,"):
                continue
            total += float(line.split(",")[1])
        if abs(total - 1.0) > 1e-9:
            return f"fractions.csv sums to {total!r}"
        u, v = lib.interior_equilibria(p)[-1].location
        cyc = lib.find_limit_cycle(p, (min(u + 0.05, 0.98), v), cfg)
        if cyc is None or not cyc.residual < cfg.rho_cyc:
            return "no limit cycle beside the interior point"
        return ""


class HomoclinicWorkload:

    def __init__(self, name, q, c, m_window, s_window, points, tol):
        self.name = name
        self.q, self.c = q, c
        self.m_window, self.s_window = m_window, s_window
        self.points = points
        self.tol = tol

    def inputs(self, seed: int) -> list[float]:
        # under one grid spacing, so the window's top stays below the
        # Bogdanov-Takens point M* ~ 0.01676 for Q=0.5, C=0.1
        spacing = (self.m_window[1] - self.m_window[0]) / (self.points - 1)
        delta = 0.9 * spacing * random.Random(seed).uniform(-1.0, 1.0)
        return [delta, -delta]

    def items(self, delta: float) -> int:
        return self.points

    def argv(self, delta: float, out: Path) -> list[str]:
        lo, hi = (m + delta for m in self.m_window)
        return (["bifurcation", "-Q", repr(self.q), "-C", repr(self.c),
                 f"--m-window={lo!r},{hi!r}",
                 f"--s-window={self.s_window[0]!r},{self.s_window[1]!r}",
                 "--hom-points", str(self.points), "--out-dir", str(out)]
                + _flags(self.tol))

    def check(self, delta: float, out: Path, lib, reference) -> Outcome:
        o = Outcome(self.items(delta))
        q, c = self.q, self.c
        cfg = lib.IntegratorConfig(**self.tol)
        lo, hi = (m + delta for m in self.m_window)
        tables = {name: _read_csv(out / f"{name}.csv")
                  for name in ("homoclinic", "hopf", "saddle_node",
                               "bt_point")}
        o.digest = hashlib.sha256(
            (out / "homoclinic.csv").read_bytes()).hexdigest()
        hom = tables["homoclinic"]
        if len(hom) != self.points:
            o.error = f"{len(hom)} homoclinic rows, expected {self.points}"
            return o
        undecided = 0
        for m, s, converged in hom:
            if converged == "0":
                undecided += 1
                continue
            m, s = float(m), float(s)
            # acceptance criterion 7: a root of the gap, below the Hopf curve
            gap = lib.homoclinic_gap(lib.Params(m, s, q, c), cfg)
            if not abs(gap) < 1e-6:
                o.error = f"homoclinic gap {gap:.3g} at M={m!r}"
                return o
            if not s < lib.threshold_S1(lib.Params(m, 1.0, q, c)):
                o.error = f"homoclinic S={s!r} not below S1 at M={m!r}"
                return o
        # the loci equal the library's closed forms, and those satisfy
        # their defining equations, checked here without the library
        want_sn = [m for m in lib.saddle_node_M(q, c) if lo <= m <= hi]
        sn = [float(r[0]) for r in tables["saddle_node"]]
        if sn != sorted(want_sn) or any(
                abs(_discriminant(m, q, c)) > 1e-12 for m in sn):
            o.error = "saddle_node.csv differs from the closed form"
            return o
        bt = [tuple(map(float, r)) for r in tables["bt_point"]]
        m_bt, s_bt = bt[0] if bt else (math.nan, math.nan)
        u_bt = 0.5 * (1.0 + m_bt - q)
        if (bt != [lib.bt_point(q, c)]
                or not abs(_discriminant(m_bt, q, c)) < 1e-12
                or not abs(u_bt * (1.0 + m_bt - 2.0 * u_bt) - s_bt) < 1e-12):
            o.error = "bt_point.csv differs from the closed form"
            return o
        for m, s in tables["hopf"]:
            m, s = float(m), float(s)
            if (s != lib.hopf_threshold(lib.Params(m, 1.0, q, c))
                    or not abs(_hopf_trace(m, s, q, c)) < 1e-9):
                o.error = f"hopf.csv S={s!r} at M={m!r} is off the Hopf curve"
                return o
        o.ok = True
        o.undecided = undecided
        return o


def _discriminant(m: float, q: float, c: float) -> float:
    """Discriminant of the interior-root quadratic u^2 - (1+M-Q)u + M+CQ."""
    return (1.0 + m - q) ** 2 - 4.0 * (m + c * q)


def _hopf_trace(m: float, s: float, q: float, c: float) -> float:
    """Jacobian trace u(1+M-2u) - S at the larger interior root, with the
    root found by numpy rather than by the library."""
    u = max(np.roots([1.0, -(1.0 + m - q), m + c * q]).real)
    return u * (1.0 + m - 2.0 * u) - s


def _read_csv(path: Path) -> list[list[str]]:
    rows = [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]
    return rows[1:]


WORKLOADS = {w.name: w for w in (
    BistableWorkload("basin_bistable", (0.04, 0.12, 0.45, 0.07), 70, 1, {}),
    # two pairs: the cycle raster's cost is set by its few horizon cells,
    # whose count swings by a third between neighbouring resolutions
    CycleWorkload("basin_cycle", (-0.055, 0.03, 0.55, 0.1), 24, 2, FAST),
    HomoclinicWorkload("bifurcation_homoclinic", 0.5, 0.1, (-0.04, 0.01),
                       (0.005, 0.15), 12, FAST),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s",
                    "decided_frac": "ratio", "peak_rss_mb": "MB"}


class Command:
    """One finished CLI command: its timings, memory and oracle verdict."""

    def __init__(self, x, wall, setup, rss_mb, outcome, layers, spans):
        self.input = x
        self.wall = wall
        self.setup = setup
        self.rss_mb = rss_mb
        self.outcome = outcome
        self.layers = layers
        self.spans = spans


def _child(workload, x, mode: str, out: Path):
    """Run ``child.py`` on one input in ``out``.

    Returns the finished process, its start time, its wall time and its
    report (None when the child failed).
    """
    report_path = out / "report.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("ALLEETANNER_OUT", None)
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path),
           mode] + workload.argv(x, out)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=out, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    report = None
    if proc.returncode == 0 and report_path.exists():
        report = json.loads(report_path.read_text())
    return proc, t0, wall, report


def run_command(workload, x, traced: bool, lib, reference) -> Command:
    out = Path(tempfile.mkdtemp(prefix=workload.name + "-", dir=WORK))
    try:
        proc, t0, wall, report = _child(workload, x,
                                        "trace" if traced else "run", out)
        outcome = Outcome(workload.items(x))
        if report is None:
            outcome.error = (f"exit code {proc.returncode}: "
                             + proc.stderr.strip()[-500:])
            report = {}
        else:
            try:
                outcome = workload.check(x, out, lib, reference)
            except (OSError, ValueError, KeyError, IndexError,
                    lib.GapUndefinedError) as exc:
                outcome.error = f"{type(exc).__name__}: {exc}"
        setup = (report["first_call"] - t0) if report.get("first_call") \
            else None
        layers = spans = None
        if "trace" in report:
            layers = layer_metrics(report["trace"])
            spans = report["trace"]["spans"]
        return Command(x, wall, setup, report.get("maxrss_kb", 0) / 1024.0,
                       outcome, layers, spans)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def time_setups(workload, x, n: int) -> list[float]:
    """Set-up times of ``n`` processes stopped at their first numerical
    call: interpreter start, imports, argument parsing, parameter and
    configuration resolution."""
    out = Path(tempfile.mkdtemp(prefix=workload.name + "-setup-", dir=WORK))
    try:
        times = []
        for _ in range(n):
            _, t0, _, report = _child(workload, x, "setup", out)
            if report is not None:
                times.append(report["first_call"] - t0)
        return times
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _round_mean(commands, get):
    return sum(get(c) for c in commands) / len(commands)


def check_digests(workload, commands, store: dict) -> None:
    """Fail every command whose output digest differs from that of an
    earlier command on the same input, in this run or in an earlier run of
    the same sources in this checkout."""
    for c in commands:
        if not c.outcome.ok:
            continue
        key = f"{workload.name}:{c.input!r}"
        if store.setdefault(key, c.outcome.digest) != c.outcome.digest:
            c.outcome.ok = False
            c.outcome.error = f"{key}: output differs from an earlier command"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "alleetanner").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def end_to_end(rounds, setups: list[float]) -> dict:
    """End-to-end metrics over untraced rounds of the seed's inputs, with
    the set-up probes' times pooled with the commands' own."""
    commands = [c for r in rounds for c in r]
    items = sum(c.outcome.items for c in commands)
    undecided = sum(c.outcome.items if not c.outcome.ok
                    else c.outcome.undecided for c in commands)
    setups = setups + [c.setup for c in commands if c.setup is not None]
    return {
        "wall_s": statistics.median(_round_mean(r, lambda c: c.wall)
                                    for r in rounds),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "work_per_s": statistics.median(
            sum(c.outcome.items for c in r) / sum(c.wall for c in r)
            for r in rounds),
        "decided_frac": 1.0 - failed_share(undecided, items),
        "peak_rss_mb": statistics.median(c.rss_mb for c in commands),
    }


def per_layer(untraced, traced) -> dict:
    """Per-layer metrics over traced rounds, and the cost of tracing."""
    out = {}
    layered = [r for r in traced if all(c.layers for c in r)]
    if layered:
        for name in layered[0][0].layers:
            out[name] = statistics.median(
                _round_mean(r, lambda c: c.layers[name]) for r in layered)
    out["basin.labels_changed"] = sum(c.outcome.labels_changed
                                      for c in traced[0])
    out["trace.overhead_frac"] = (
        sum(c.wall for r in traced for c in r)
        / sum(c.wall for r in untraced for c in r) - 1.0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("_ratio", "_per_point", "_frac")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "alleetanner" / "cli.py").is_file():
        print(f"no alleetanner sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once so that no timed command pays for it
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("alleetanner sources do not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import alleetanner as lib

    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    reference = {}
    if REFERENCE.exists():
        with np.load(REFERENCE) as arrays:
            reference = dict(arrays)
    WORK.mkdir(exist_ok=True)

    trace = bool(args.trace)
    untraced, traced, setups = [], [], []
    start = time.monotonic()
    while True:
        untraced.append([])
        for x in inputs:
            if not trace:
                setups += time_setups(workload, x, SETUP_PROBES)
            untraced[-1].append(run_command(workload, x, False, lib,
                                            reference))
        if trace:
            traced.append([run_command(workload, x, True, lib, reference)
                           for x in inputs])
        # start another round only if it is expected to end in time
        elapsed = time.monotonic() - start
        if elapsed * (1 + 1 / len(untraced)) > args.seconds:
            break

    commands = [c for r in untraced + traced for c in r]
    digests_path = WORK / "digests.json"
    src = _source_digest()
    store = {}
    if digests_path.exists():
        store = json.loads(digests_path.read_text()).get(src, {})
    check_digests(workload, commands, store)
    digests_path.write_text(json.dumps({src: store}))
    errors = [c.outcome.error for c in commands if not c.outcome.ok]

    if trace:
        metrics = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in metrics}
        # spans stay in memory until the run ends, then go to one file
        (WORK / f"spans-{workload.name}.json").write_text(json.dumps(
            [c.spans for r in traced for c in r if c.spans]))
    else:
        metrics = end_to_end(untraced, setups)
        units = END_TO_END_UNITS
    failed = len(errors)
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} inputs={inputs!r} "
          f"commands={len(commands)} failed={failed}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not errors, "attempted": len(commands), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
