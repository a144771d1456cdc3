import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alleetanner import (
    IntegratorConfig,
    Params,
    basin_fractions,
    boundary_vs_separatrix,
    classify_omega_limit,
    compute_basins,
    load_raster,
    save_raster,
    separatrix,
)
from alleetanner.basin import AttractorInfo, BasinRaster, boundary_cells, \
    config_hash

from conftest import BISTABLE, EXTINCTION, FAST_CFG


def test_extinction_raster_single_basin():
    r = compute_basins(EXTINCTION, 25, FAST_CFG)
    fr = basin_fractions(r)
    assert fr["predator_only"] == 1.0
    assert fr["undecided"] == 0.0


def test_resolution_one_single_cell():
    r = compute_basins(EXTINCTION, 1, FAST_CFG)
    assert r.labels.shape == (1, 1)
    lab = classify_omega_limit(EXTINCTION, (0.5, 0.5), FAST_CFG)
    code = {a.id: a.code for a in r.attractors}[lab.id]
    assert r.labels[0, 0] == code


def test_two_basins_at_bistable_point(raster_bistable_200):
    fr = basin_fractions(raster_bistable_200)
    assert fr["predator_only"] > 0.05
    assert fr["interior_high"] > 0.05


def test_fractions_sum_to_one(raster_bistable_200):
    assert sum(basin_fractions(raster_bistable_200).values()) \
        == pytest.approx(1.0, abs=1e-12)


def test_undecided_small_away_from_loci(raster_bistable_200):
    assert raster_bistable_200.undecided_fraction < 0.01


def test_undecided_small_in_cycle_region():
    # generic blue-region point (the W2c cycle point sits on the locus where
    # the saddle collides with (0,C); its deep axis excursions give a
    # multiplier of ~6e-12, so its return map sits at the noise floor from
    # the first revolution and the cycle is found by a difference's sign flip)
    p = Params(0.04, 0.082, 0.45, 0.07)
    r = compute_basins(p, 40, FAST_CFG)
    assert r.undecided_fraction < 0.05
    assert basin_fractions(r)["cycle"] > 0.1


def test_determinism_and_roundtrip(tmp_path):
    r1 = compute_basins(BISTABLE, 30, FAST_CFG)
    r2 = compute_basins(BISTABLE, 30, FAST_CFG)
    assert np.array_equal(r1.labels, r2.labels)
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_raster(r1, str(p1))
    save_raster(r2, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    loaded = load_raster(str(p1))
    assert np.array_equal(loaded.labels, r1.labels)
    assert loaded.params == r1.params
    assert loaded.config_hash == r1.config_hash
    assert loaded.attractors == r1.attractors


def test_cache_hit_returns_identical_raster(tmp_path):
    r1 = compute_basins(BISTABLE, 20, FAST_CFG, cache_dir=str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    r2 = compute_basins(BISTABLE, 20, FAST_CFG, cache_dir=str(tmp_path))
    assert np.array_equal(r1.labels, r2.labels)
    assert list(tmp_path.iterdir()) == files


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    r1 = compute_basins(BISTABLE, 20, FAST_CFG, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    path.write_bytes(path.read_bytes()[:-2])
    r2 = compute_basins(BISTABLE, 20, FAST_CFG, cache_dir=str(tmp_path))
    assert np.array_equal(r2.labels, r1.labels)
    assert np.array_equal(load_raster(str(path)).labels, r1.labels)
    assert list(tmp_path.iterdir()) == [path]


def test_config_hash_sensitive_to_tolerances():
    h1 = config_hash(BISTABLE, ((0.0, 1.0), (0.0, 1.0)), 50,
                     IntegratorConfig())
    h2 = config_hash(BISTABLE, ((0.0, 1.0), (0.0, 1.0)), 50,
                     IntegratorConfig(rel_tol=1e-8))
    assert h1 != h2


def test_boundary_follows_separatrix(raster_bistable_100):
    sep = separatrix(BISTABLE)
    dev = boundary_vs_separatrix(raster_bistable_100, sep)
    cell = raster_bistable_100.cell_width()[0]
    assert dev <= 2.0 * cell


def test_boundary_deviation_does_not_grow_with_resolution(
        raster_bistable_100, raster_bistable_200):
    sep = separatrix(BISTABLE)
    d100 = boundary_vs_separatrix(raster_bistable_100, sep)
    d200 = boundary_vs_separatrix(raster_bistable_200, sep)
    assert d200 <= d100 + 1e-9


def test_boundary_vs_separatrix_rejects_single_basin():
    r = compute_basins(EXTINCTION, 10, FAST_CFG)
    sep = separatrix(BISTABLE)
    with pytest.raises(ValueError):
        boundary_vs_separatrix(r, sep)


def test_boundary_cells_touch_both_basins(raster_bistable_100):
    cells = boundary_cells(raster_bistable_100)
    assert len(cells) > 50


def test_fraction_refinement_converges(raster_bistable_100,
                                       raster_bistable_200,
                                       raster_bistable_400):
    f = [basin_fractions(r)["interior_high"]
         for r in (raster_bistable_100, raster_bistable_200,
                   raster_bistable_400)]
    assert abs(f[2] - f[1]) <= abs(f[1] - f[0])


def test_bad_resolution_rejected():
    with pytest.raises(ValueError):
        compute_basins(EXTINCTION, 0, FAST_CFG)


def _saved(tmp_path):
    path = tmp_path / "r.bin"
    save_raster(compute_basins(EXTINCTION, 4, FAST_CFG), str(path))
    return path


def test_load_rejects_unknown_label_byte(tmp_path):
    path = _saved(tmp_path)
    data = bytearray(path.read_bytes())
    data[-1] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="neither 0 nor an attractor code"):
        load_raster(str(path))


def test_load_rejects_trailing_bytes(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_raster(str(path))


def test_load_rejects_truncated_file(tmp_path):
    path = _saved(tmp_path)
    data = path.read_bytes()
    for cut in (1, 16, len(data) - 10):
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="truncated"):
            load_raster(str(path))


def _rewrite_header(path, edit):
    """Replace a saved raster's JSON header by ``edit(header)``, keeping the
    file well framed."""
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, 8)
    blob = json.dumps(edit(json.loads(data[12:12 + length]))).encode()
    path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob
                     + data[12 + length:])


def _without(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _row(**fields):
    """An edit that replaces the first attractor row's ``fields``."""
    return lambda h: dict(h, attractors=[dict(h["attractors"][0], **fields)])


@pytest.mark.parametrize("edit", [
    lambda h: [h],
    lambda h: None,
    _without("params"),
    _without("bounds"),
    _without("attractors"),
    lambda h: dict(h, params=[0.04, 0.12, 0.45, 0.07]),
    lambda h: dict(h, bounds=[[0.0, 1.0]]),
    lambda h: dict(h, attractors=[7]),
    lambda h: dict(h, params=dict(h["params"], M="x")),
    lambda h: dict(h, params=dict(h["params"], M=5.0, S=-1)),
    lambda h: dict(h, bounds=[[0, "a"], [0, 1]]),
    lambda h: dict(h, bounds=[[1, 0], [0, 1]]),
    lambda h: dict(h, config_hash=5),
    _row(id=5, kind="nope", location=[1, 2, 3]),
    _row(id=5),
    _row(kind="nope"),
    _row(location=[0.0, 0.5, 1.0]),
    _row(location=[0.0, math.nan]),
    _row(location=["0", 0.5]),
    _row(location=None),
    _row(kind="cycle"),
    _row(code=0),
    _row(code=256),
    _row(code=1.0),
    _row(code=True),
    lambda h: dict(h, attractors=h["attractors"] + [
        dict(h["attractors"][0], id="other")]),
    lambda h: dict(h, resolution=True),
    lambda h: dict(h, resolution=4.0),
], ids=["list", "null", "no-params", "no-bounds", "no-attractors",
        "params-list", "one-bound", "attractor-not-object", "params-str",
        "params-outside-domain", "bound-str", "bounds-reversed",
        "hash-int", "attractor-all-wrong", "attractor-id-int",
        "attractor-kind", "equilibrium-three-coords", "equilibrium-nan",
        "equilibrium-str-coord", "equilibrium-no-location",
        "cycle-with-location", "code-0", "code-256", "code-float",
        "code-bool", "repeated-code", "resolution-bool",
        "resolution-float"])
def test_load_rejects_malformed_header(edit, tmp_path):
    path = _saved(tmp_path)
    _rewrite_header(path, edit)
    with pytest.raises(ValueError, match="malformed raster header"):
        load_raster(str(path))


def test_load_rejects_repeated_attractor_ids(tmp_path):
    # two rows with one id would share one key in basin_fractions, whose
    # shares would then no longer sum to 1
    path = _saved(tmp_path)
    _rewrite_header(path, lambda h: dict(h, attractors=h["attractors"] + [
        dict(h["attractors"][0], code=h["attractors"][0]["code"] + 1)]))
    with pytest.raises(ValueError, match="repeated attractor id"):
        load_raster(str(path))


def test_cache_entry_without_params_is_recomputed(tmp_path):
    r1 = compute_basins(EXTINCTION, 4, FAST_CFG, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    _rewrite_header(path, _without("params"))
    r2 = compute_basins(EXTINCTION, 4, FAST_CFG, cache_dir=str(tmp_path))
    assert np.array_equal(r2.labels, r1.labels)
    assert load_raster(str(path)).params == EXTINCTION
    assert list(tmp_path.iterdir()) == [path]


def test_cache_entry_with_malformed_attractor_table_is_recomputed(tmp_path):
    r1 = compute_basins(EXTINCTION, 4, FAST_CFG, cache_dir=str(tmp_path))
    (path,) = tmp_path.iterdir()
    _rewrite_header(path, _row(id=5, kind="nope", location=[1, 2, 3]))
    r2 = compute_basins(EXTINCTION, 4, FAST_CFG, cache_dir=str(tmp_path))
    assert r2.attractors == r1.attractors
    assert np.array_equal(r2.labels, r1.labels)
    assert load_raster(str(path)).attractors == r1.attractors


def test_config_hash_sensitive_to_algorithm_version(monkeypatch):
    from alleetanner import basin
    h1 = config_hash(BISTABLE, basin.PHI, 50, IntegratorConfig())
    monkeypatch.setattr(basin, "ALGORITHM_VERSION",
                        basin.ALGORITHM_VERSION + 1)
    assert config_hash(BISTABLE, basin.PHI, 50, IntegratorConfig()) != h1


finite = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def rasters(draw):
    res = draw(st.integers(1, 6))
    (u0, v0), (du, dv) = (draw(st.tuples(finite, finite)) for _ in range(2))
    bounds = ((u0, u0 + abs(du) + 1.0), (v0, v0 + abs(dv) + 1.0))
    # in the model's domain: a header outside it is rejected when loaded
    params = Params(draw(st.floats(-1.0, 1.0, exclude_min=True,
                                   exclude_max=True)),
                    *draw(st.tuples(*[st.floats(0.0, 10.0, exclude_min=True)
                                      for _ in range(3)])))
    table = []
    codes = sorted(draw(st.sets(st.integers(1, 255), max_size=5)))
    # a header whose ids repeat is rejected when loaded
    ids = draw(st.lists(st.text("abcdefgh_", min_size=1, max_size=12),
                        min_size=len(codes), max_size=len(codes),
                        unique=True))
    for code, name in zip(codes, ids):
        loc = draw(st.none() | st.tuples(finite, finite))
        table.append(AttractorInfo(
            code, name, "cycle" if loc is None else "equilibrium", loc))
    cells = draw(st.lists(st.sampled_from([0] + [a.code for a in table]),
                          min_size=res * res, max_size=res * res))
    labels = np.array(cells, dtype=np.uint8).reshape(res, res)
    digest = draw(st.text("0123456789abcdef", min_size=64, max_size=64))
    return BasinRaster(params, bounds, res, labels, tuple(table), digest)


@settings(max_examples=25, deadline=None)
@given(rasters(), st.data())
def test_save_load_round_trip_of_drawn_rasters(raster, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.bin")
        save_raster(raster, path)
        back = load_raster(path)
        assert np.array_equal(back.labels, raster.labels)
        assert (back.params, back.bounds, back.resolution, back.attractors,
                back.config_hash) == (raster.params, raster.bounds,
                                      raster.resolution, raster.attractors,
                                      raster.config_hash)
        # a byte that is neither 0 nor in the table is rejected
        codes = {a.code for a in raster.attractors}
        bad = data.draw(st.integers(1, 255).filter(lambda b: b not in codes))
        cell = data.draw(st.integers(0, raster.labels.size - 1))
        raster.labels.flat[cell] = bad
        save_raster(raster, path)
        with pytest.raises(ValueError, match="neither 0 nor"):
            load_raster(path)
