"""Command-line front end.

Commands: ``classify`` (text report), ``portrait`` (SVG + CSV phase
portrait), ``bifurcation`` (loci CSVs + shaded diagram), ``basin`` (raster
file + SVG + fractions CSV) and ``sweep`` (per-point region/fraction CSV).

Parameters come from -M/-S/-Q/-C flags, from a key=value config file
(``--params-file``, flags override the file), or in dimensional form via
-r -s -q -n -K -m -c, which is nondimensionalized on the way in and the
derived (M, S, Q, C) echoed.  A mix of the two forms, from the file and
the flags together, is a parameter error.

Exit codes: 0 success, 1 stdout closed early by its reader (``| head``),
2 parameter error (every input is checked before anything is computed or
written), 3 render failure (CSV output is still written), 4 quality
failure (undecided basin fraction over 20%).
The default output directory is $ALLEETANNER_OUT, falling back to the
current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import math
import os
import sys
from dataclasses import fields

from . import __version__, svgplot
from .basin import _check_resolution, basin_fractions, compute_basins, \
    inputs_hash, save_raster
from .bifurcation import _check_window, compute_diagram, linspace, \
    region_classify
from .equilibria import EquilibriumKind, all_equilibria, case_label
from .flow import IntegratorConfig, find_limit_cycle, integrate
from .manifolds import GapUndefinedError, separatrix
from .model import DimensionalParams, ParameterError, Params, \
    nondimensionalize, validate_params
from .stability import ThresholdUndefinedError, classify, \
    is_global_extinction, threshold_S1, threshold_S2, threshold_S3, \
    threshold_S4

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_RENDER = 3
EXIT_QUALITY = 4

ENV_OUT_DIR = "ALLEETANNER_OUT"


def _add_common(sp, with_params=True):
    sp.add_argument("--out-dir", default=None,
                    help=f"output directory (default ${ENV_OUT_DIR} or .)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed recorded in output headers")
    for f in fields(IntegratorConfig):
        sp.add_argument(f"--{f.name.replace('_', '-')}", type=float,
                        default=None)
    if with_params:
        sp.add_argument("-M", "--allee-threshold", dest="M", type=float)
        sp.add_argument("-S", "--predator-growth", dest="S", type=float)
        sp.add_argument("-Q", "--predation-rate", dest="Q", type=float)
        sp.add_argument("-C", "--alternative-food", dest="C", type=float)
        for key in DimensionalParams._fields:
            sp.add_argument(f"-{key}", type=float, help=argparse.SUPPRESS)
        sp.add_argument("--params-file", default=None,
                        help="key=value lines; flags override file values")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="alleetanner",
        description="Predator-prey phase-plane analysis "
                    "(Holling-Tanner with Allee effect and alternative food)")
    ap.add_argument("--version", action="version",
                    version=f"alleetanner {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="equilibria, stability, region")
    _add_common(sp)

    sp = sub.add_parser("portrait", help="phase portrait SVG + CSV")
    _add_common(sp)
    sp.add_argument("--window", default="0,1,0,1.1",
                    help="u0,u1,v0,v1 world window")
    sp.add_argument("--n-orbits", type=int, default=8)

    sp = sub.add_parser("bifurcation", help="(M,S) loci and region diagram")
    _add_common(sp, with_params=False)
    sp.add_argument("-Q", "--predation-rate", dest="Q", type=float,
                    required=True)
    sp.add_argument("-C", "--alternative-food", dest="C", type=float,
                    required=True)
    sp.add_argument("--m-window", default="-0.05,0.1")
    sp.add_argument("--s-window", default="0.005,0.25")
    sp.add_argument("--hopf-points", type=int, default=121)
    sp.add_argument("--hom-points", type=int, default=13)
    sp.add_argument("--grid", default="16x12",
                    help="region-shading grid, MxS counts")

    sp = sub.add_parser("basin", help="basin raster + SVG + fractions")
    _add_common(sp)
    sp.add_argument("--resolution", type=int, default=200)

    sp = sub.add_parser("sweep", help="sweep one or two parameters")
    _add_common(sp)
    sp.add_argument("--sweep", action="append", default=[],
                    metavar="PARAM=START:STOP:COUNT",
                    help="swept axis, may be given twice for two "
                         "different parameters")
    sp.add_argument("--resolution", type=int, default=50,
                    help="basin resolution per sweep point")
    return ap


def _read_params_file(path: str) -> dict[str, float]:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc
    out: dict[str, float] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"bad config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in Params._fields + DimensionalParams._fields:
            raise ParameterError(f"unknown parameter {key!r} in {path}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ParameterError(
                f"bad value {val!r} for {key} in {path}") from None
    return out


def resolve_params(args) -> Params:
    """Merge config file and flags into a validated parameter vector.

    A flag overrides the file's value of the same parameter; a mix of the
    nondimensional and the dimensional form is a ParameterError."""
    values = _read_params_file(args.params_file) if args.params_file else {}
    for key in Params._fields + DimensionalParams._fields:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    have_nondim = [k for k in Params._fields if k in values]
    have_dim = [k for k in DimensionalParams._fields if k in values]
    if have_nondim and have_dim:
        raise ParameterError(
            "give the nondimensional or the dimensional parameters, not both "
            f"(got nondimensional {have_nondim}, dimensional {have_dim})")
    if len(have_nondim) == 4:
        return validate_params(Params(**{k: values[k] for k in have_nondim}))
    if len(have_dim) == 7:
        p = nondimensionalize(
            DimensionalParams(**{k: values[k] for k in have_dim}))
        print(f"nondimensional: M={p.M:.6g} S={p.S:.6g} Q={p.Q:.6g} "
              f"C={p.C:.6g}")
        return p
    raise ParameterError(
        "supply all of -M -S -Q -C, or all of -r -s -q -n -K -m -c "
        f"(got nondimensional {have_nondim or 'none'}, "
        f"dimensional {have_dim or 'none'})")


def resolve_config(args) -> IntegratorConfig:
    return IntegratorConfig(**{
        f.name: getattr(args, f.name) for f in fields(IntegratorConfig)
        if getattr(args, f.name, None) is not None})


def _out_dir(args) -> str:
    path = args.out_dir or os.environ.get(ENV_OUT_DIR) or "."
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"bad output directory {path}: {exc}") from exc
    return path


def _header_lines(args, p: Params | None, cfg: IntegratorConfig,
                  extra: dict | None = None) -> list[str]:
    lines = [f"tool: alleetanner {__version__}"]
    if p is not None:
        lines.append(f"params: M={p.M!r} S={p.S!r} Q={p.Q!r} C={p.C!r}")
        # the parameters, tolerances and package version behind a file; the
        # raster algorithm's version is left to the raster_hash line of the
        # outputs that come from rasters, so a change to it alone leaves
        # the other outputs' bytes as they were
        lines.append(f"config_hash: {inputs_hash(p, cfg)}")
    lines.append(f"seed: {args.seed}")
    for key, val in (extra or {}).items():
        lines.append(f"{key}: {val}")
    return lines


def _write_csv(path: str, header_lines: list[str], columns: list[str],
               rows) -> None:
    """A float, NumPy's float64 included (a subclass of float), is written
    as ``repr(float(x))``; any other value with ``str``."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(
                repr(float(x)) if isinstance(x, float)
                else str(x) for x in row) + "\n")


def _write_svg(path: str, render, *args, **kwargs) -> bool:
    """Write ``render(*args, **kwargs)`` to ``path``; False, with the
    failure reported, when either step fails."""
    try:
        svg = render(*args, **kwargs)
        with open(path, "w") as fh:
            fh.write(svg)
    except Exception as exc:
        print(f"render failure: {exc}", file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------- classify

def cmd_classify(args) -> int:
    p = resolve_params(args)
    cfg = resolve_config(args)
    label = case_label(p)
    print(f"params: M={p.M:.6g} S={p.S:.6g} Q={p.Q:.6g} C={p.C:.6g}")
    print(f"case: {label.value}")
    region = region_classify(p, cfg)
    print(f"region: {region.value}")
    print("equilibria:")
    sink = False   # whether (0, C) attracts, as the raster's codes say
    for eq in all_equilibria(p):
        try:
            cls = classify(p, eq)
        except ValueError:
            if eq.in_domain:
                raise
            desc = "not classified"   # (M, 0) on the singular line u = -C
        else:
            desc = cls.describe()
            if eq.kind is EquilibriumKind.PREDATOR_ONLY:
                sink = cls.attracting
        loc = f"({eq.location[0]:.6f}, {eq.location[1]:.6f})"
        note = "" if eq.in_domain else "  [outside domain]"
        print(f"  {eq.id:<15} {loc:<24} {desc}{note}")
    print("thresholds:")
    shown = False
    for name, fn in (("S1", threshold_S1), ("S2", threshold_S2),
                     ("S3", threshold_S3), ("S4", threshold_S4)):
        try:
            value = fn(p)
        except ThresholdUndefinedError:
            continue
        print(f"  {name} = {value:.6f}")
        shown = True
    if not shown:
        print("  (none defined in this regime)")
    # the case tree's claim needs (0, C) to attract; where it is not
    # hyperbolic (M + C*Q = 0) the raster gives it no code either
    if is_global_extinction(p) and sink:
        print(f"note: (0, {p.C:.6g}) is globally asymptotically stable")
    return EXIT_OK


# ---------------------------------------------------------------- portrait

def _floats(text: str) -> list[float]:
    """Comma-separated floats; empty when any of them is not a finite
    number."""
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        return []
    return vals if all(map(math.isfinite, vals)) else []


def _parse_window(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    vals = _floats(text)
    if len(vals) != 4 or vals[0] >= vals[1] or vals[2] >= vals[3]:
        raise ParameterError(f"bad window {text!r}; expected u0,u1,v0,v1")
    return (vals[0], vals[1]), (vals[2], vals[3])


def _orbit_seeds(window, n: int):
    """Deterministic low-discrepancy seed points inside the window."""
    (u0, u1), (v0, v1) = window
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    seeds = []
    for k in range(n):
        fu = (0.5 + k * phi) % 1.0
        fv = (0.5 + k * phi * phi) % 1.0
        seeds.append((u0 + (0.05 + 0.9 * fu) * (u1 - u0),
                      v0 + (0.05 + 0.9 * fv) * (v1 - v0)))
    return seeds


def portrait_data(p: Params, cfg: IntegratorConfig, window, n_orbits: int):
    """Curves, each a list of (u, v) points, and the glyph list for a
    portrait; shared by SVG and CSV."""
    (u0, u1), _ = window
    us = linspace(max(0.0, u0), min(1.0, u1), 201)
    curves = {"prey_nullcline": [(u, (1.0 - u) * (u - p.M) / p.Q)
                                 for u in us],
              "predator_nullcline": [(u, u + p.C) for u in us]}
    glyphs = [(*eq.location, classify(p, eq).tag)
              for eq in all_equilibria(p) if eq.in_domain]
    try:
        sep = separatrix(p, cfg)
        if len(sep.polyline) > 1:
            curves["separatrix"] = sep.polyline
    except GapUndefinedError:
        pass
    cyc = find_limit_cycle(p, None, cfg)
    if cyc is not None:
        curves["cycle"] = cyc.polyline
    for k, seed in enumerate(_orbit_seeds(window, n_orbits)):
        tr = integrate(p, seed, cfg)
        curves[f"orbit_{k}"] = tr.states
    return curves, glyphs


def cmd_portrait(args) -> int:
    p = resolve_params(args)
    cfg = resolve_config(args)
    window = _parse_window(args.window)
    if args.n_orbits < 0:
        raise ParameterError(f"--n-orbits must be >= 0, got {args.n_orbits}")
    out = _out_dir(args)
    curves, glyphs = portrait_data(p, cfg, window, args.n_orbits)
    rows = []
    for name in sorted(curves):
        for i, (u, v) in enumerate(curves[name]):
            rows.append((name, i, u, v))
    header = _header_lines(args, p, cfg, {"window": args.window})
    _write_csv(os.path.join(out, "portrait.csv"), header,
               ["curve", "index", "u", "v"], rows)
    if not _write_svg(os.path.join(out, "portrait.svg"),
                      svgplot.render_portrait, window, curves, glyphs,
                      comments=header):
        return EXIT_RENDER
    print(f"wrote portrait.svg and portrait.csv to {out}")
    return EXIT_OK


# ------------------------------------------------------------- bifurcation

def _parse_range(text: str, name: str) -> tuple[float, float]:
    vals = _floats(text)
    if len(vals) != 2 or vals[0] >= vals[1]:
        raise ParameterError(f"bad {name} {text!r}; expected lo,hi")
    return vals[0], vals[1]


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nm, ns = (int(x) for x in text.lower().split("x"))
    except ValueError:
        nm = ns = 0
    if nm < 1 or ns < 1:
        raise ParameterError(f"bad --grid {text!r}; expected MxS counts")
    return nm, ns


def cmd_bifurcation(args) -> int:
    q, c = args.Q, args.C
    cfg = resolve_config(args)
    m_window = _parse_range(args.m_window, "--m-window")
    s_window = _parse_range(args.s_window, "--s-window")
    nm, ns = _parse_grid(args.grid)
    for flag, count in (("--hopf-points", args.hopf_points),
                        ("--hom-points", args.hom_points)):
        if count < 1:
            raise ParameterError(f"{flag} must be >= 1, got {count}")
    _check_window(q, c, m_window, s_window)
    out = _out_dir(args)
    diagram = compute_diagram(q, c, m_window, s_window,
                              n_hopf=args.hopf_points,
                              n_hom=args.hom_points, cfg=cfg)
    header = _header_lines(args, None, cfg,
                           {"Q": q, "C": c, "m_window": args.m_window,
                            "s_window": args.s_window})
    _write_csv(os.path.join(out, "saddle_node.csv"), header, ["M"],
               [(m,) for m in diagram.sn])
    _write_csv(os.path.join(out, "bt_point.csv"), header, ["M", "S"],
               [diagram.bt] if diagram.bt else [])
    _write_csv(os.path.join(out, "hopf.csv"), header, ["M", "S"],
               diagram.hopf)
    n_fail = sum(1 for _, s in diagram.hom if s is None)
    _write_csv(os.path.join(out, "homoclinic.csv"), header,
               ["M", "S", "converged"],
               [(m, "" if s is None else s, int(s is not None))
                for m, s in diagram.hom])
    if n_fail:
        print(f"warning: no homoclinic S found at {n_fail} of "
              f"{len(diagram.hom)} grid points", file=sys.stderr)
    grid = []
    for m in linspace(m_window[0], m_window[1], nm * 2 + 1)[1::2]:
        for s in linspace(s_window[0], s_window[1], ns * 2 + 1)[1::2]:
            grid.append((m, s, region_classify(Params(m, s, q, c), cfg)))
    _write_csv(os.path.join(out, "regions.csv"), header,
               ["M", "S", "region"],
               [(m, s, lab.value) for m, s, lab in grid])
    if not _write_svg(os.path.join(out, "diagram.svg"),
                      svgplot.render_bifurcation, diagram, grid,
                      comments=header):
        return EXIT_RENDER
    print(f"wrote loci CSVs and diagram.svg to {out}")
    return EXIT_OK


# ------------------------------------------------------------------ basin

def cmd_basin(args) -> int:
    p = resolve_params(args)
    cfg = resolve_config(args)
    _check_resolution(args.resolution)
    out = _out_dir(args)
    raster = compute_basins(p, args.resolution, cfg)
    fractions = basin_fractions(raster)
    header = _header_lines(args, p, cfg,
                           {"resolution": args.resolution,
                            "raster_hash": raster.config_hash})
    _write_csv(os.path.join(out, "fractions.csv"), header,
               ["attractor", "fraction"],
               sorted(fractions.items()))
    save_raster(raster, os.path.join(out, "basin.bin"))
    sep_poly = None
    try:
        sep_poly = separatrix(p, cfg).polyline
    except GapUndefinedError:
        pass
    if not _write_svg(os.path.join(out, "basin.svg"), svgplot.render_basin,
                      raster, sep_poly, comments=header):
        return EXIT_RENDER
    print(f"wrote basin.bin, basin.svg, fractions.csv to {out}")
    if raster.undecided_fraction > 0.20:
        print(f"quality failure: undecided fraction "
              f"{raster.undecided_fraction:.1%} exceeds 20%", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _parse_sweep(spec: str) -> tuple[str, list[float]]:
    try:
        key, rng = spec.split("=", 1)
        start, stop, count = rng.split(":")
        key = key.strip()
        if key not in Params._fields:
            raise ValueError(
                f"swept parameter must be one of {Params._fields}")
        n = int(count)
        if n < 1:
            raise ValueError(f"count must be >= 1, got {n}")
        return key, linspace(float(start), float(stop), n)
    except ValueError as exc:
        raise ParameterError(f"bad sweep spec {spec!r}: {exc}")


# the attractors whose basins make up a sweep point's interior_fraction
_INTERIOR_IDS = ("interior_low", "interior_high", "interior_double", "cycle")


def cmd_sweep(args) -> int:
    if not 1 <= len(args.sweep) <= 2:
        raise ParameterError("give --sweep once or twice")
    base = resolve_params(args)
    cfg = resolve_config(args)
    axes = [_parse_sweep(s) for s in args.sweep]
    _check_resolution(args.resolution)
    names = [k for k, _ in axes]
    if len(set(names)) < len(names):
        raise ParameterError(f"{names[0]} is swept twice; sweep each "
                             "parameter once")
    # every point is checked before any is computed or written
    grid = itertools.product(*(vals for _, vals in axes))
    points = [(x, validate_params(base._replace(**dict(zip(names, x)))))
              for x in grid]
    out = _out_dir(args)
    columns = names + ["region", "interior_fraction"]
    rows = []
    rasters = hashlib.sha256()
    for point, p in points:
        region = region_classify(p, cfg)
        raster = compute_basins(p, args.resolution, cfg)
        rasters.update(raster.config_hash.encode())
        fractions = basin_fractions(raster)
        frac = sum(fractions.get(k, 0.0) for k in _INTERIOR_IDS)
        rows.append([*point, region.value, frac])
    header = _header_lines(args, base, cfg,
                           {"sweep": ";".join(args.sweep),
                            "resolution": args.resolution,
                            "interior_fraction": "+".join(_INTERIOR_IDS),
                            # digest of the rows' raster hashes, in row order
                            "raster_hash": rasters.hexdigest()})
    _write_csv(os.path.join(out, "sweep.csv"), header, columns, rows)
    print(f"wrote sweep.csv to {out} ({len(rows)} rows)")
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "portrait": cmd_portrait,
    "bifurcation": cmd_bifurcation,
    "basin": cmd_basin,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()   # a reader gone early shows here, not at exit
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except BrokenPipeError:   # the flush at exit then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
