"""Command-line front end.

Commands: ``classify`` (text report), ``portrait`` (SVG + CSV phase
portrait), ``bifurcation`` (loci CSVs + shaded diagram), ``basin`` (raster
file + SVG + fractions CSV) and ``sweep`` (per-point region/fraction CSV).

Parameters come from -M/-S/-Q/-C flags, from a key=value config file
(``--params-file``, flags override the file), or in dimensional form via
-r -s -q -n -K -m -c, which is nondimensionalized on the way in and the
derived (M, S, Q, C) echoed.

Exit codes: 0 success, 2 parameter error, 3 render failure (CSV output is
still written), 4 quality failure (undecided basin fraction over 20%).
The default output directory is $ALLEETANNER_OUT, falling back to the
current directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .basin import basin_fractions, compute_basins, config_hash, save_raster
from .bifurcation import _cycle_seed, compute_diagram, region_classify
from .equilibria import all_equilibria, case_label
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

_NONDIM_KEYS = ("M", "S", "Q", "C")
_DIM_KEYS = ("r", "s", "q", "n", "K", "m", "c")


def _add_common(sp, with_params=True):
    sp.add_argument("--out-dir", default=None,
                    help=f"output directory (default ${ENV_OUT_DIR} or .)")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed recorded in output headers")
    sp.add_argument("--rel-tol", type=float, default=None)
    sp.add_argument("--abs-tol", type=float, default=None)
    sp.add_argument("--tau-max", type=float, default=None)
    sp.add_argument("--rho-eq", type=float, default=None)
    sp.add_argument("--rho-cyc", type=float, default=None)
    if with_params:
        sp.add_argument("-M", "--allee-threshold", dest="M", type=float)
        sp.add_argument("-S", "--predator-growth", dest="S", type=float)
        sp.add_argument("-Q", "--predation-rate", dest="Q", type=float)
        sp.add_argument("-C", "--alternative-food", dest="C", type=float)
        for key in _DIM_KEYS:
            sp.add_argument(f"-{key}", dest=f"dim_{key}", type=float,
                            help=argparse.SUPPRESS)
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
                    help="swept axis, may be given twice")
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
        if key not in _NONDIM_KEYS + _DIM_KEYS:
            raise ParameterError(f"unknown parameter {key!r} in {path}")
        try:
            out[key] = float(val)
        except ValueError:
            raise ParameterError(
                f"bad value {val!r} for {key} in {path}") from None
    return out


def resolve_params(args) -> Params:
    """Merge config file and flags into a validated parameter vector."""
    values = _read_params_file(args.params_file) if args.params_file else {}
    for key in _NONDIM_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    for key in _DIM_KEYS:
        flag = getattr(args, f"dim_{key}", None)
        if flag is not None:
            values[key] = flag
    have_nondim = [k for k in _NONDIM_KEYS if k in values]
    have_dim = [k for k in _DIM_KEYS if k in values]
    if len(have_nondim) == 4:
        return validate_params(Params(values["M"], values["S"], values["Q"],
                                      values["C"]))
    if len(have_dim) == 7:
        d = DimensionalParams(**{k: values[k] for k in _DIM_KEYS})
        p = nondimensionalize(d)
        print(f"nondimensional: M={p.M:.6g} S={p.S:.6g} Q={p.Q:.6g} "
              f"C={p.C:.6g}")
        return p
    raise ParameterError(
        "supply all of -M -S -Q -C, or all of -r -s -q -n -K -m -c "
        f"(got nondimensional {have_nondim or 'none'}, "
        f"dimensional {have_dim or 'none'})")


def resolve_config(args) -> IntegratorConfig:
    kwargs = {}
    for attr, flag in (("rel_tol", "rel_tol"), ("abs_tol", "abs_tol"),
                       ("tau_max", "tau_max"), ("rho_eq", "rho_eq"),
                       ("rho_cyc", "rho_cyc")):
        val = getattr(args, flag, None)
        if val is not None:
            kwargs[attr] = val
    return IntegratorConfig(**kwargs)


def _out_dir(args) -> str:
    path = args.out_dir or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(path, exist_ok=True)
    return path


def _header_lines(args, p: Params | None, cfg: IntegratorConfig,
                  extra: dict | None = None) -> list[str]:
    lines = [f"tool: alleetanner {__version__}"]
    if p is not None:
        lines.append(f"params: M={p.M!r} S={p.S!r} Q={p.Q!r} C={p.C!r}")
        # PHI and resolution 0: this hash names the parameters, tolerances
        # and versions behind a file and matches no raster; a raster's own
        # hash is the raster_hash line
        lines.append("config_hash: "
                     + config_hash(p, ((0.0, 1.0), (0.0, 1.0)), 0, cfg))
    lines.append(f"seed: {args.seed}")
    for key, val in (extra or {}).items():
        lines.append(f"{key}: {val}")
    return lines


def _write_csv(path: str, header_lines: list[str], columns: list[str],
               rows) -> None:
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def _write_svg(path: str, renderer: str, *args, **kwargs) -> bool:
    """Write ``svgplot.<renderer>(*args, **kwargs)`` to ``path``; False,
    with the failure reported, when either step fails.  The renderer is
    looked up at call time, so a wrapper installed on svgplot is called."""
    try:
        from . import svgplot
        svg = getattr(svgplot, renderer)(*args, **kwargs)
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
    for eq in all_equilibria(p):
        cls = classify(p, eq)
        loc = f"({eq.location[0]:.6f}, {eq.location[1]:.6f})"
        note = "" if eq.in_domain else "  [outside domain]"
        print(f"  {eq.id:<15} {loc:<24} {cls.describe()}{note}")
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
    if is_global_extinction(p):
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
    """Curves and glyph list for a portrait; shared by SVG and CSV."""
    (u0, u1), _ = window
    curves: dict[str, np.ndarray] = {}
    us = np.linspace(max(0.0, u0), min(1.0, u1), 201)
    curves["prey_nullcline"] = np.column_stack(
        [us, (1.0 - us) * (us - p.M) / p.Q])
    curves["predator_nullcline"] = np.column_stack([us, us + p.C])
    glyphs = []
    interior_attractor = None
    for eq in all_equilibria(p):
        if not eq.in_domain:
            continue
        cls = classify(p, eq)
        glyphs.append((eq.location[0], eq.location[1], cls.tag))
        if eq.kind.value.startswith("interior"):
            interior_attractor = eq
    try:
        sep = separatrix(p, cfg)
        if len(sep.polyline) > 1:
            curves["separatrix"] = sep.polyline
    except GapUndefinedError:
        pass
    if interior_attractor is not None:
        cyc = find_limit_cycle(p, _cycle_seed(interior_attractor), cfg)
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
            rows.append((name, i, f"{u!r}", f"{v!r}"))
    header = _header_lines(args, p, cfg, {"window": args.window})
    _write_csv(os.path.join(out, "portrait.csv"), header,
               ["curve", "index", "u", "v"], rows)
    if not _write_svg(os.path.join(out, "portrait.svg"), "render_portrait",
                      window, curves, glyphs, comments=header):
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
    diagram = compute_diagram(q, c, m_window, s_window,
                              n_hopf=args.hopf_points,
                              n_hom=args.hom_points, cfg=cfg)
    out = _out_dir(args)
    header = _header_lines(args, None, cfg,
                           {"Q": q, "C": c, "m_window": args.m_window,
                            "s_window": args.s_window})
    _write_csv(os.path.join(out, "saddle_node.csv"), header, ["M"],
               [(f"{m!r}",) for m in sorted(diagram.sn)])
    _write_csv(os.path.join(out, "bt_point.csv"), header, ["M", "S"],
               [(f"{diagram.bt[0]!r}", f"{diagram.bt[1]!r}")]
               if diagram.bt else [])
    hopf_sorted = diagram.hopf[np.argsort(diagram.hopf[:, 0])] \
        if len(diagram.hopf) else diagram.hopf
    _write_csv(os.path.join(out, "hopf.csv"), header, ["M", "S"],
               [(f"{float(m)!r}", f"{float(s)!r}") for m, s in hopf_sorted])
    n_fail = sum(1 for _, s in diagram.hom if s is None)
    _write_csv(os.path.join(out, "homoclinic.csv"), header,
               ["M", "S", "converged"],
               [(f"{m!r}", "" if s is None else f"{s!r}",
                 int(s is not None))
                for m, s in sorted(diagram.hom)])
    if n_fail:
        print(f"warning: no homoclinic S found at {n_fail} of "
              f"{len(diagram.hom)} grid points", file=sys.stderr)
    grid = []
    for m in np.linspace(m_window[0], m_window[1], nm * 2 + 1)[1::2]:
        for s in np.linspace(s_window[0], s_window[1], ns * 2 + 1)[1::2]:
            p = Params(float(m), float(s), q, c)
            grid.append((float(m), float(s), region_classify(p, cfg)))
    _write_csv(os.path.join(out, "regions.csv"), header,
               ["M", "S", "region"],
               [(f"{m!r}", f"{s!r}", lab.value) for m, s, lab in grid])
    if not _write_svg(os.path.join(out, "diagram.svg"), "render_bifurcation",
                      diagram, grid, comments=header):
        return EXIT_RENDER
    print(f"wrote loci CSVs and diagram.svg to {out}")
    return EXIT_OK


# ------------------------------------------------------------------ basin

def cmd_basin(args) -> int:
    p = resolve_params(args)
    cfg = resolve_config(args)
    out = _out_dir(args)
    raster = compute_basins(p, args.resolution, cfg)
    fractions = basin_fractions(raster)
    header = _header_lines(args, p, cfg,
                           {"resolution": args.resolution,
                            "raster_hash": raster.config_hash})
    _write_csv(os.path.join(out, "fractions.csv"), header,
               ["attractor", "fraction"],
               [(k, f"{v!r}") for k, v in sorted(fractions.items())])
    save_raster(raster, os.path.join(out, "basin.bin"))
    sep_poly = None
    try:
        sep_poly = separatrix(p, cfg).polyline
    except GapUndefinedError:
        pass
    if not _write_svg(os.path.join(out, "basin.svg"), "render_basin",
                      raster, sep_poly, comments=header):
        return EXIT_RENDER
    print(f"wrote basin.bin, basin.svg, fractions.csv to {out}")
    if raster.undecided_fraction > 0.20:
        print(f"quality failure: undecided fraction "
              f"{raster.undecided_fraction:.1%} exceeds 20%", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _parse_sweep(spec: str) -> tuple[str, np.ndarray]:
    try:
        key, rng = spec.split("=", 1)
        start, stop, count = rng.split(":")
        key = key.strip()
        if key not in _NONDIM_KEYS:
            raise ValueError(f"swept parameter must be one of {_NONDIM_KEYS}")
        n = int(count)
        if n < 1:
            raise ValueError(f"count must be >= 1, got {n}")
        return key, np.linspace(float(start), float(stop), n)
    except ValueError as exc:
        raise ParameterError(f"bad sweep spec {spec!r}: {exc}")


def _interior_fraction(fractions: dict[str, float]) -> float:
    return sum(fractions.get(k, 0.0)
               for k in ("interior_low", "interior_high", "interior_double",
                         "cycle"))


def cmd_sweep(args) -> int:
    if not 1 <= len(args.sweep) <= 2:
        raise ParameterError("give --sweep once or twice")
    base = resolve_params(args)
    cfg = resolve_config(args)
    axes = [_parse_sweep(s) for s in args.sweep]
    out = _out_dir(args)
    names = [k for k, _ in axes]
    columns = names + ["region", "interior_fraction"]
    rows = []
    if len(axes) == 1:
        points = [((names[0], float(v)),) for v in axes[0][1]]
    else:
        points = [((names[0], float(a)), (names[1], float(b)))
                  for a in axes[0][1] for b in axes[1][1]]
    for point in points:
        values = dict(zip(_NONDIM_KEYS, base))
        values.update(dict(point))
        p = validate_params(Params(values["M"], values["S"], values["Q"],
                                   values["C"]))
        region = region_classify(p, cfg)
        raster = compute_basins(p, args.resolution, cfg)
        frac = _interior_fraction(basin_fractions(raster))
        rows.append([f"{v!r}" for _, v in point] + [region.value, f"{frac!r}"])
    header = _header_lines(args, base, cfg,
                           {"sweep": ";".join(args.sweep),
                            "resolution": args.resolution,
                            "interior_fraction":
                               "interior_low+interior_high+interior_double+cycle"})
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
        return _COMMANDS[args.command](args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
