"""Basin-of-attraction rasters over the trapping square.

The raster samples cell centers of a regular grid on Phi = [0,1]^2 (bounds
configurable), classifies each forward limit set, and stores one unsigned
byte per cell (0 = undecided).  Identical inputs produce byte-identical
rasters: all cells advance in lockstep with elementwise float arithmetic,
in the scalar integrator's order of operations, so a cell's label does not
depend on which cells share its batch; the last few cells finish in the
scalar loop from their exact state.  A raster larger than one lockstep pool
is split over the available CPUs by forked worker processes, with the same
labels.  The output is reproducible and cacheable.

Raster file layout (version 1):

    bytes 0..7    magic  b"PPBASIN1"
    bytes 8..11   little-endian uint32 JSON header length L
    bytes 12..12+L  UTF-8 JSON: version, bounds, resolution, params,
                    attractor table, config hash, undecided fraction
    remainder     resolution*resolution label bytes, row-major, row 0 at
                  the lowest v, column 0 at the lowest u
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import __version__, flow
from .equilibria import all_equilibria
# classify_omega_limit is the per-cell reference of the lockstep raster;
# perfbench/tracing.py wraps it here, as it does all_equilibria
from .flow import IntegratorConfig, _context, _section_interval, \
    classify_omega_limit
from .manifolds import Separatrix
from .model import ParameterError, Params, validate_params

if TYPE_CHECKING:
    import numpy as np

MAGIC = b"PPBASIN1"
FORMAT_VERSION = 1
# Part of the cache key: bump it with any change that can move a label.
ALGORITHM_VERSION = 5

Bounds = tuple[tuple[float, float], tuple[float, float]]
PHI: Bounds = ((0.0, 1.0), (0.0, 1.0))


@dataclass(frozen=True)
class AttractorInfo:
    code: int
    id: str
    kind: str                      # "equilibrium" | "cycle"
    location: tuple[float, float] | None = None


@dataclass(frozen=True)
class BasinRaster:
    params: Params
    bounds: Bounds
    resolution: int
    labels: np.ndarray             # (res, res) uint8, [i_v, i_u]
    attractors: tuple[AttractorInfo, ...]
    config_hash: str

    @property
    def undecided_fraction(self) -> float:
        import numpy as np
        return float(np.count_nonzero(self.labels == 0) / self.labels.size)

    def cell_width(self) -> tuple[float, float]:
        (u0, u1), (v0, v1) = self.bounds
        return (u1 - u0) / self.resolution, (v1 - v0) / self.resolution


def _check_bounds(bounds) -> None:
    """Raise ParameterError unless ``bounds`` is two finite (low, high)
    pairs with low < high."""
    try:
        (u0, u1), (v0, v1) = bounds
        ok = (all(math.isfinite(x) for x in (u0, u1, v0, v1))
              and u0 < u1 and v0 < v1)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ParameterError(f"bounds must be two finite (low, high) pairs "
                             f"with low < high, got {bounds!r}")


def _check_resolution(resolution) -> int:
    """``resolution`` as an int; ParameterError unless it is an integer
    >= 1."""
    try:
        resolution = operator.index(resolution)
    except TypeError:
        resolution = 0   # not an integer
    if resolution < 1:
        raise ParameterError("resolution must be an integer >= 1")
    return resolution


def inputs_hash(p: Params, cfg: IntegratorConfig) -> str:
    """Stable digest of the package version, parameters and tolerances:
    the inputs of every output that has parameters, without the raster
    algorithm's version."""
    key = (f"version={__version__};"
           f"M={p.M!r};S={p.S!r};Q={p.Q!r};C={p.C!r};"
           f"rtol={cfg.rel_tol!r};atol={cfg.abs_tol!r};"
           f"tau_max={cfg.tau_max!r};rho_eq={cfg.rho_eq!r};"
           f"rho_cyc={cfg.rho_cyc!r}")
    return hashlib.sha256(key.encode()).hexdigest()


def config_hash(p: Params, bounds: Bounds, resolution: int,
                cfg: IntegratorConfig) -> str:
    """Stable digest of everything the raster depends on."""
    key = (f"inputs={inputs_hash(p, cfg)};algorithm={ALGORITHM_VERSION};"
           f"bounds={bounds!r};res={resolution}")
    return hashlib.sha256(key.encode()).hexdigest()


def compute_basins(p: Params, resolution: int,
                   cfg: IntegratorConfig | None = None,
                   bounds: Bounds = PHI,
                   cache_dir: str | None = None) -> BasinRaster:
    """Rasterize basins by classifying every cell center.

    Deterministic for fixed (p, resolution, cfg, bounds).  When
    ``cache_dir`` is given, a previously stored raster with the same
    configuration hash is loaded instead of recomputed; an entry that
    fails to load is recomputed and replaced.
    """
    import numpy as np
    ctx = _context(p)
    resolution = _check_resolution(resolution)
    _check_bounds(bounds)
    cfg = cfg or IntegratorConfig()
    digest = config_hash(p, bounds, resolution, cfg)
    cache_path = None
    if cache_dir is not None:
        cache_path = os.path.join(cache_dir, f"basin_{digest[:16]}.bin")
        try:
            raster = load_raster(cache_path)
        except (FileNotFoundError, ValueError):
            raster = None   # no entry, or a corrupt one to replace
        if raster is not None and raster.config_hash == digest:
            return raster

    # after the cache lookup: a cached raster pays for no cycle hunt
    ctx = ctx._replace(interval=_section_interval(ctx, cfg))
    infos = [AttractorInfo(t.code, t.id, "equilibrium", (t.u, t.v))
             for t in ctx.targets if t.code]
    (u0, u1), (v0, v1) = bounds
    du = (u1 - u0) / resolution
    dv = (v1 - v0) / resolution
    steps = np.arange(resolution) + 0.5
    vs, us = np.meshgrid(v0 + steps * dv, u0 + steps * du, indexing="ij")
    seeds = np.column_stack((us.ravel(), vs.ravel()))
    labels = _split_lockstep(ctx, seeds, cfg).reshape(resolution, resolution)
    if (labels == ctx.cycle_code).any():
        infos.append(AttractorInfo(ctx.cycle_code, "cycle", "cycle", None))

    raster = BasinRaster(p, bounds, resolution, labels, tuple(infos), digest)
    if cache_path is not None:
        os.makedirs(cache_dir, exist_ok=True)
        save_raster(raster, cache_path)
    return raster


def _workers(n: int) -> int:
    """Processes for a raster of n cells: one per CPU this process may run
    on, and no more than the lockstep pools the raster fills.  A raster
    that fits one pool runs in process: below that size a split gained
    little or lost (see ``flow._POOL``)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    k = min(len(os.sched_getaffinity(0)), -(-n // flow._POOL))
    if k == 1:
        return 1
    # imported for a split only: at start-up it takes ~30 ms
    import multiprocessing
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1   # no fork, or a daemon, which may not have children
    return k


_job = None   # (ctx, seeds, cfg, k), in a forked worker


def _take_job(job) -> None:
    global _job
    _job = job


def _part(i: int) -> np.ndarray:
    """Labels of seeds i, i + k, i + 2k, ... of a forked worker's job.
    Neighbouring cells cost about the same, so interleaved parts take about
    the same time."""
    ctx, seeds, cfg, k = _job
    return flow._lockstep(ctx, seeds[i::k], cfg)


def _split_lockstep(ctx, seeds: np.ndarray,
                    cfg: IntegratorConfig) -> np.ndarray:
    """``flow._lockstep`` over ``seeds``, split into ``_workers``
    interleaved parts.  The job holds the RHS closure, which cannot be
    pickled, so workers inherit it through fork; only a part's index and
    its labels cross the pipe.  Labels do not depend on which cells share a
    batch, so they are the in-process labels byte for byte."""
    k = _workers(len(seeds))
    if k == 1:
        return flow._lockstep(ctx, seeds, cfg)
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    import numpy as np
    labels = np.empty(len(seeds), dtype=np.uint8)
    # leaving the block joins every worker, also when a part raised
    with ProcessPoolExecutor(k, mp_context=get_context("fork"),
                             initializer=_take_job,
                             initargs=((ctx, seeds, cfg, k),)) as pool:
        for i, part in enumerate(pool.map(_part, range(k))):
            labels[i::k] = part
    return labels


def basin_fractions(raster: BasinRaster) -> dict[str, float]:
    """Fraction of cells per attractor id (plus 'undecided'); sums to 1."""
    import numpy as np
    total = raster.labels.size
    out = {"undecided": float(np.count_nonzero(raster.labels == 0) / total)}
    for info in raster.attractors:
        out[info.id] = float(
            np.count_nonzero(raster.labels == info.code) / total)
    return out


def boundary_cells(raster: BasinRaster) -> np.ndarray:
    """Centers of labeled cells with a differently-labeled 4-neighbor."""
    import numpy as np
    lab = raster.labels
    diff = np.zeros_like(lab, dtype=bool)
    diff[:-1, :] |= lab[:-1, :] != lab[1:, :]
    diff[1:, :] |= lab[1:, :] != lab[:-1, :]
    diff[:, :-1] |= lab[:, :-1] != lab[:, 1:]
    diff[:, 1:] |= lab[:, 1:] != lab[:, :-1]
    diff &= lab != 0
    iv, iu = np.nonzero(diff)
    (u0, u1), (v0, v1) = raster.bounds
    du, dv = raster.cell_width()
    return np.column_stack([u0 + (iu + 0.5) * du, v0 + (iv + 0.5) * dv])


def _dist_to_polyline(points: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Min distance from each point to a polyline, vectorized per segment."""
    import numpy as np
    a = poly[:-1]
    b = poly[1:]
    ab = b - a
    ab2 = (ab ** 2).sum(axis=1)
    ab2[ab2 == 0.0] = 1e-300
    best = np.full(len(points), np.inf)
    for k in range(len(a)):
        ap = points - a[k]
        t = np.clip((ap @ ab[k]) / ab2[k], 0.0, 1.0)
        proj = a[k] + t[:, None] * ab[k]
        d = np.hypot(points[:, 0] - proj[:, 0], points[:, 1] - proj[:, 1])
        np.minimum(best, d, out=best)
    return best


def boundary_vs_separatrix(raster: BasinRaster, sep: Separatrix) -> float:
    """Largest distance from any basin-boundary cell to the separatrix.

    One-sided (boundary cells toward the polyline).  Rejects rasters that
    do not actually contain two distinct basins.
    """
    import numpy as np
    present = {int(c) for c in np.unique(raster.labels)} - {0}
    if len(present) < 2:
        raise ValueError("raster has fewer than two distinct basins")
    cells = boundary_cells(raster)
    if len(sep.polyline) < 2:
        raise ValueError("separatrix polyline is degenerate")
    return float(_dist_to_polyline(cells, np.asarray(sep.polyline)).max())


def save_raster(raster: BasinRaster, path: str) -> None:
    header = {
        "version": FORMAT_VERSION,
        "bounds": [list(raster.bounds[0]), list(raster.bounds[1])],
        "resolution": raster.resolution,
        "params": raster.params._asdict(),
        "attractors": [
            {"code": a.code, "id": a.id, "kind": a.kind,
             "location": list(a.location) if a.location else None}
            for a in raster.attractors],
        "config_hash": raster.config_hash,
        "undecided_fraction": raster.undecided_fraction,
    }
    blob = json.dumps(header, sort_keys=True).encode()
    # write beside the target, then rename over it: a reader never sees a
    # partly written raster
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(raster.labels.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _attractor_info(a) -> AttractorInfo:
    """A header's attractor row: an int code in 1..255, a string id, and an
    equilibrium at two finite floats or a cycle at null; else ValueError."""
    code, loc = a["code"], a["location"]
    if a["kind"] == "equilibrium":
        ok = (isinstance(loc, list) and len(loc) == 2 and all(
            isinstance(x, float) and math.isfinite(x) for x in loc))
    else:
        ok = a["kind"] == "cycle" and loc is None
    if not (ok and type(code) is int and 1 <= code <= 255
            and isinstance(a["id"], str)):
        raise ValueError(f"bad attractor {a!r}")
    return AttractorInfo(code, a["id"], a["kind"], loc and tuple(loc))


def load_raster(path: str) -> BasinRaster:
    """Read a raster file, rejecting any that is malformed."""
    import numpy as np
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != MAGIC:
        raise ValueError(f"not a basin raster file: bad magic {data[:8]!r}")
    if len(data) < 12:
        raise ValueError("truncated raster file: no header length")
    (length,) = struct.unpack_from("<I", data, 8)
    body = 12 + length
    if len(data) < body:
        raise ValueError(f"truncated raster file: header of {length} bytes "
                         f"has {len(data) - 12}")
    header = json.loads(data[12:body].decode())
    # a well-framed header can still be any JSON value, or lack a field
    try:
        if header["version"] != FORMAT_VERSION:
            raise ValueError(
                f"unsupported raster version {header['version']}")
        res = header["resolution"]
        pd = header["params"]
        params = validate_params(Params(pd["M"], pd["S"], pd["Q"], pd["C"]))
        bounds = (tuple(header["bounds"][0]), tuple(header["bounds"][1]))
        _check_bounds(bounds)
        attractors = tuple(map(_attractor_info, header["attractors"]))
        if len({a.code for a in attractors}) < len(attractors):
            raise ValueError("repeated attractor code")
        if len({a.id for a in attractors}) < len(attractors):
            raise ValueError("repeated attractor id")
        digest = header["config_hash"]
        if not isinstance(digest, str):
            raise TypeError(f"config hash {digest!r} is not a string")
        if type(res) is not int or res < 1:
            raise ValueError(f"bad raster resolution {res!r}")
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed raster header: {exc!r}") from None
    size = len(data) - body
    if size < res * res:
        raise ValueError(f"truncated raster file: {size} label bytes, "
                         f"expected {res * res}")
    if size > res * res:
        raise ValueError(f"{size - res * res} trailing bytes after the "
                         f"{res * res} label bytes")
    labels = np.frombuffer(data, dtype=np.uint8, offset=body).reshape(
        res, res).copy()
    unknown = set(np.unique(labels).tolist()) - {0} - {
        a.code for a in attractors}
    if unknown:
        raise ValueError(f"label bytes {sorted(unknown)} are neither 0 nor "
                         f"an attractor code")
    return BasinRaster(params, bounds, res, labels, attractors, digest)
