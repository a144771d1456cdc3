import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alleetanner import IntegratorConfig, cli

GOLDEN = Path(__file__).parent / "golden"

FAST_FLAGS = ["--rel-tol", "1e-6", "--abs-tol", "1e-9", "--rho-eq", "1e-5"]


def run(argv):
    return cli.main(argv)


def read_csv_rows(path):
    rows = [line.rstrip("\n") for line in Path(path).read_text().splitlines()
            if not line.startswith("#")]
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


@pytest.mark.parametrize("args,fixture", [
    (["classify", "-M", "0.04", "-S", "0.12", "-Q", "0.45", "-C", "0.07"],
     "classify_bistable.txt"),
    (["classify", "-M", "0", "-S", "0.1", "-Q", "1.2", "-C", "0.5"],
     "classify_extinction.txt"),
    (["classify", "-M", "-0.055", "-S", "0.15", "-Q", "0.55", "-C", "0.1"],
     "classify_single.txt"),
    # a slowly attracting cycle: its section interval is certified within
    # the short horizon, where the hunt alone would not converge
    (["classify", "-M", "0.04", "-S", "0.082", "-Q", "0.45", "-C", "0.07",
      "--tau-max", "2500"],
     "classify_slow_cycle.txt"),
])
def test_classify_golden(capsys, args, fixture):
    assert run(args) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / fixture).read_text()


def test_classify_lists_a_singular_point_unclassified(capsys):
    # at M = -C the point (M, 0) lies on u = -C, where the field is not
    # defined: listed outside the domain, with no classification
    assert run(["classify", "-M", "-0.5", "-S", "1", "-Q", "1",
                "-C", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (row,) = [line for line in lines if "prey_allee" in line]
    assert row.split()[3:] == ["not", "classified", "[outside", "domain]"]
    assert any(line.split()[0] == "predator_only" for line in lines)


def test_classify_withholds_the_note_where_predator_only_is_degenerate(
        capsys):
    # M + C*Q = 0: (0, C) is not hyperbolic, so neither the note nor the
    # raster claims it; where it attracts, the note stays (see the
    # classify_extinction golden)
    assert run(["classify", "-M", "-0.5", "-S", "1", "-Q", "1",
                "-C", "0.5"]) == 0
    out = capsys.readouterr().out
    (row,) = [line for line in out.splitlines() if "predator_only" in line]
    assert row.endswith("non hyperbolic")
    assert "globally asymptotically stable" not in out
    assert "globally asymptotically stable" in (
        GOLDEN / "classify_extinction.txt").read_text()


def test_classify_rejects_bad_allee_threshold(capsys):
    assert run(["classify", "-M", "1.5", "-S", "0.1", "-Q", "0.45",
                "-C", "0.07"]) == 2


def test_classify_requires_complete_parameters():
    assert run(["classify", "-M", "0.1", "-S", "0.1"]) == 2


BASE = ["-M", "0.04", "-S", "0.12", "-Q", "0.45", "-C", "0.07"]
# the same point in dimensional form
DIMENSIONAL = ["-r", "2", "-s", "0.24", "-q", "0.9", "-n", "1", "-K", "1",
               "-m", "0.04", "-c", "0.07"]
BIF = ["bifurcation", "-Q", "0.5", "-C", "0.1"]


@pytest.mark.parametrize("argv", [
    BIF + ["--grid", "16"],
    BIF + ["--m-window=abc"],
    BIF + ["--s-window=x,0.2"],
    BIF + ["--rel-tol", "0"],
    ["classify", *BASE, "--rel-tol", "0"],
    ["classify", *BASE, "--tau-max", "-1"],
    ["basin", *BASE, "--resolution", "0"],
    ["sweep", *BASE, "--sweep", "M=0.04:0.05:2", "--resolution", "0"],
    ["sweep", *BASE, "--sweep", "M=0:1:0"],
    ["sweep", *BASE, "--sweep", "M=0.04:0.05:-2"],
    BIF + ["--hopf-points", "-1"],
    BIF + ["--hopf-points", "0"],
    BIF + ["--hom-points", "-1"],
    BIF + ["--hom-points", "0"],
    ["basin", *BASE, "--resolution", "4", "--rho-cyc", "inf"],
    ["classify", "-M", "0.04", "-S", "0.12", "-Q", "inf", "-C", "0.07"],
    ["bifurcation", "-Q", "nan", "-C", "0.1", "--grid", "1x1",
     "--hopf-points", "1", "--hom-points", "1"],
    BIF + ["--m-window=nan,0.01"],
    BIF + ["--s-window=0.005,inf"],
    BIF + ["--s-window=-1,0.1", "--grid", "1x1", "--hopf-points", "1",
           "--hom-points", "1"],
    BIF + ["--m-window=-3,0.01", "--grid", "1x1", "--hopf-points", "1",
           "--hom-points", "1"],
    ["portrait", *BASE, "--n-orbits", "-1"],
], ids=["grid", "m-window", "s-window", "bifurcation-rel-tol", "rel-tol",
        "tau-max", "basin-resolution", "sweep-resolution", "sweep-count-zero",
        "sweep-count-neg", "hopf-points-neg",
        "hopf-points-zero", "hom-points-neg", "hom-points-zero",
        "rho-cyc-inf", "q-inf", "bifurcation-q-nan", "m-window-nan",
        "s-window-inf", "s-window-negative", "m-window-below-domain",
        "n-orbits-neg"])
def test_malformed_arguments_are_parameter_errors(argv, tmp_path, capsys):
    assert run(argv + ["--out-dir", str(tmp_path)]) == 2
    assert "parameter error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,field", [
    ("--rel-tol", "rel_tol"), ("--abs-tol", "abs_tol"),
    ("--tau-max", "tau_max"), ("--rho-eq", "rho_eq"),
    ("--rho-cyc", "rho_cyc"),
])
def test_integrator_flag_sets_its_own_field(flag, field):
    default = IntegratorConfig()
    value = 0.5 * getattr(default, field)
    args = cli.build_parser().parse_args(["classify", flag, repr(value)])
    assert cli.resolve_config(args) == dataclasses.replace(
        default, **{field: value})


def test_classify_dimensional_mode(capsys):
    code = run(["classify", "-r", "2", "-s", "1", "-q", "0.9", "-n", "1",
                "-K", "1", "-m", "0.04", "-c", "0.07"])
    assert code == 0
    out = capsys.readouterr().out
    assert "nondimensional: M=0.04 S=0.5 Q=0.45 C=0.07" in out.splitlines()[0]


def test_params_file_and_dimensional_flags_do_not_mix(tmp_path, capsys):
    # neither form may silently win over the other
    cfgfile = tmp_path / "params.txt"
    cfgfile.write_text("M=0.04\nS=0.12\nQ=0.45\nC=0.07\n")
    assert run(["classify", "--params-file", str(cfgfile),
                *DIMENSIONAL]) == 2
    captured = capsys.readouterr()
    assert "nondimensional ['M', 'S', 'Q', 'C']" in captured.err
    assert "dimensional ['r', 's', 'q', 'n', 'K', 'm', 'c']" in captured.err
    assert captured.out == ""


def test_params_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "params.txt"
    cfgfile.write_text("M=0.2\nS=0.1\nQ=0.45\n# comment\nC=0.07\n")
    assert run(["classify", "--params-file", str(cfgfile),
                "-M", "0.04"]) == 0
    out = capsys.readouterr().out
    assert "params: M=0.04 S=0.1 Q=0.45 C=0.07" in out


@pytest.mark.parametrize("content", ["M=abc\nS=0.1\nQ=0.45\nC=0.07\n",
                                     "S=\n", None, "dir", b"M=0.04\xff\n"],
                         ids=["not-a-number", "empty-value", "missing",
                              "directory", "not-utf8"])
def test_bad_params_file_is_parameter_error(content, tmp_path, capsys):
    cfgfile = tmp_path / "params.txt"
    if content == "dir":
        cfgfile.mkdir()
    elif isinstance(content, bytes):
        cfgfile.write_bytes(content)
    elif content is not None:
        cfgfile.write_text(content)
    assert run(["classify", "--params-file", str(cfgfile)]) == 2
    assert "parameter error" in capsys.readouterr().err


def test_portrait_outputs(tmp_path, capsys):
    code = run(["portrait", "-M", "0.04", "-S", "0.12", "-Q", "0.45",
                "-C", "0.07", "--n-orbits", "4", "--out-dir", str(tmp_path)]
               + FAST_FLAGS)
    assert code == 0
    svg = (tmp_path / "portrait.svg").read_text()
    assert 'class="separatrix"' in svg
    assert svg.count('class="eq-attractor"') == 2
    assert 'class="prey_nullcline"' in svg
    # CSV row count equals the total number of polyline points
    cols, rows = read_csv_rows(tmp_path / "portrait.csv")
    assert cols == ["curve", "index", "u", "v"]
    counts = {}
    for curve, idx, u, v in rows:
        counts[curve] = counts.get(curve, 0) + 1
        assert int(idx) == counts[curve] - 1
        # numbers, NumPy's included, as Python's shortest round-trip repr
        assert repr(float(u)) == u and repr(float(v)) == v
    assert sum(counts.values()) == len(rows)
    assert "separatrix" in counts and counts["separatrix"] > 10


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered",
                                                        "buffered"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # stdout on a pipe whose reader has gone, as under ``| head -n 1``:
    # unbuffered, the first print fails; buffered, the flush at exit does
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "alleetanner.cli", "classify", "-M", "0",
             "-S", "0.1", "-Q", "1.2", "-C", "0.5"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_portrait_cycle_curve(tmp_path):
    code = run(["portrait", "-M", "-0.055", "-S", "0.03", "-Q", "0.55",
                "-C", "0.1", "--n-orbits", "2", "--out-dir", str(tmp_path)]
               + FAST_FLAGS)
    assert code == 0
    svg = (tmp_path / "portrait.svg").read_text()
    assert 'class="cycle"' in svg


@pytest.mark.parametrize("renderer,argv,csv,svg", [
    ("render_portrait", ["portrait", *BASE, "--n-orbits", "2"],
     "portrait.csv", "portrait.svg"),
    ("render_basin", ["basin", *BASE, "--resolution", "4"],
     "fractions.csv", "basin.svg"),
    ("render_bifurcation", BIF + ["--grid", "1x1", "--hopf-points", "3",
                                  "--hom-points", "1"],
     "regions.csv", "diagram.svg"),
], ids=["portrait", "basin", "bifurcation"])
def test_render_failure_keeps_csv(renderer, argv, csv, svg, tmp_path,
                                  monkeypatch, capsys):
    import alleetanner.svgplot as svgplot

    def boom(*a, **k):
        raise RuntimeError("injected")

    monkeypatch.setattr(svgplot, renderer, boom)
    assert run(argv + ["--out-dir", str(tmp_path)] + FAST_FLAGS) == 3
    assert (tmp_path / csv).exists()
    assert not (tmp_path / svg).exists()
    assert "render failure: injected" in capsys.readouterr().err


def test_basin_outputs_and_determinism(tmp_path):
    args = ["basin", "-M", "0.2", "-S", "0.3", "-Q", "0.9", "-C", "0.5",
            "--resolution", "25"] + FAST_FLAGS
    assert run(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run(args + ["--out-dir", str(tmp_path / "b")]) == 0
    ba = (tmp_path / "a" / "basin.bin").read_bytes()
    bb = (tmp_path / "b" / "basin.bin").read_bytes()
    assert ba == bb
    cols, rows = read_csv_rows(tmp_path / "a" / "fractions.csv")
    assert cols == ["attractor", "fraction"]
    fr = {r[0]: float(r[1]) for r in rows}
    assert fr["predator_only"] == 1.0
    svg = (tmp_path / "a" / "basin.svg").read_text()
    assert 'class="basin-predator_only"' in svg


def test_basin_quality_gate(tmp_path):
    # degenerate predator-only point attracts only algebraically here, so
    # most cells stay undecided within the short horizon
    code = run(["basin", "-M", "-0.055", "-S", "0.01", "-Q", "0.55",
                "-C", "0.1", "--resolution", "10", "--tau-max", "2000",
                "--out-dir", str(tmp_path)] + FAST_FLAGS)
    assert code == 4
    assert (tmp_path / "basin.bin").exists()


def test_bifurcation_outputs(tmp_path, capsys):
    code = run(["bifurcation", "-Q", "0.5", "-C", "0.1",
                "--m-window=-0.03,0.05", "--s-window", "0.01,0.2",
                "--hom-points", "3", "--hopf-points", "31",
                "--grid", "6x5", "--out-dir", str(tmp_path)] + FAST_FLAGS)
    assert code == 0
    cols, rows = read_csv_rows(tmp_path / "bt_point.csv")
    assert cols == ["M", "S"]
    assert float(rows[0][0]) == pytest.approx(0.01676, abs=1e-4)
    assert float(rows[0][1]) == pytest.approx(0.12919, abs=1e-4)
    for name in ("hopf.csv", "homoclinic.csv", "saddle_node.csv"):
        cols, rows = read_csv_rows(tmp_path / name)
        ms = [float(r[0]) for r in rows]
        assert ms == sorted(ms)
    svg = (tmp_path / "diagram.svg").read_text()
    assert 'class="bt-point"' in svg
    assert 'class="hopf-locus"' in svg
    assert 'class="region-' in svg


def test_bifurcation_regions_golden(tmp_path):
    # the benchmark window's 16 x 12 region grid at the test tolerances:
    # every label and every coordinate's bytes (the loci do not enter it,
    # so one homoclinic point keeps the run short)
    assert run(["bifurcation", "-Q", "0.5", "-C", "0.1",
                "--m-window=-0.04,0.01", "--s-window=0.005,0.15",
                "--hom-points", "1", "--out-dir", str(tmp_path)]
               + FAST_FLAGS) == 0
    rows = [line for line in (tmp_path / "regions.csv").read_text()
            .splitlines(keepends=True) if not line.startswith("#")]
    assert "".join(rows) == (GOLDEN / "regions_benchmark.csv").read_text()


def test_classify_and_bifurcation_never_import_numpy(tmp_path):
    # these, and portrait, run on closed forms and plain-float steps; numpy
    # is only for rasters, and its import is about half of a start-up
    runs = [["classify", "-M", "0.04", "-S", "0.12", "-Q", "0.45",
             "-C", "0.07"],
            ["classify", "-M", "0", "-S", "0.1", "-Q", "1.2", "-C", "0.5"],
            ["classify", "-M", "-0.055", "-S", "0.15", "-Q", "0.55",
             "-C", "0.1"],
            [*BIF, "--grid", "2x2", "--hopf-points", "3", "--hom-points", "2",
             "--out-dir", str(tmp_path), *FAST_FLAGS],
            ["portrait", "-M", "0.04", "-S", "0.12", "-Q", "0.45",
             "-C", "0.07", "--n-orbits", "2", "--out-dir",
             str(tmp_path / "bistable"), *FAST_FLAGS],
            ["portrait", "-M", "-0.055", "-S", "0.03", "-Q", "0.55",
             "-C", "0.1", "--n-orbits", "2", "--out-dir",
             str(tmp_path / "cycle"), *FAST_FLAGS]]
    script = ("import json, sys\n"
              "from alleetanner import cli\n"
              "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "print(codes, 'numpy' in sys.modules)\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, env=env, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] False"


def test_sweep_strong_allee_shrinks_interior_basin(tmp_path):
    code = run(["sweep", "-S", "0.12", "-Q", "0.45", "-C", "0.07",
                "-M", "0", "--sweep", "M=-0.01:0.04:2",
                "--resolution", "40", "--out-dir", str(tmp_path)]
               + FAST_FLAGS)
    assert code == 0
    cols, rows = read_csv_rows(tmp_path / "sweep.csv")
    assert cols == ["M", "region", "interior_fraction"]
    fr = {float(r[0]): float(r[2]) for r in rows}
    assert fr[0.04] < fr[-0.01]


def test_sweep_region_transitions_in_s(tmp_path):
    code = run(["sweep", "-M", "0.04", "-Q", "0.45", "-C", "0.07",
                "-S", "0.1", "--sweep", "S=0.024:0.14:3",
                "--resolution", "12", "--out-dir", str(tmp_path)]
               + FAST_FLAGS)
    assert code == 0
    _, rows = read_csv_rows(tmp_path / "sweep.csv")
    regions = [r[1] for r in rows]
    assert regions == ["repeller", "cycle", "bistable"]


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
    code = run(["basin", "-M", "0.2", "-S", "0.3", "-Q", "0.9", "-C", "0.5",
                "--resolution", "5"] + FAST_FLAGS)
    assert code == 0
    assert (tmp_path / "envout" / "basin.bin").exists()


@pytest.mark.parametrize("argv", [
    ["portrait", *BASE, "--n-orbits", "1"],
    BIF + ["--grid", "1x1", "--hopf-points", "3", "--hom-points", "1"],
    ["basin", *BASE, "--resolution", "2"],
    ["sweep", *BASE, "--sweep", "S=0.1:0.12:2", "--resolution", "2"],
], ids=["portrait", "bifurcation", "basin", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unusable_out_dir_is_a_parameter_error(argv, below, tmp_path,
                                               capsys):
    # a regular file, or a path below one, cannot hold the outputs
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    out_dir = target / "sub" if below else target
    assert run(argv + ["--out-dir", str(out_dir)] + FAST_FLAGS) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err
    assert "Traceback" not in err
    assert target.read_text() == "not a directory\n"


def test_bifurcation_checks_its_out_dir_before_computing(tmp_path,
                                                         monkeypatch,
                                                         capsys):
    def never(*a, **k):
        raise AssertionError("the diagram was computed")

    monkeypatch.setattr(cli, "compute_diagram", never)
    target = tmp_path / "taken"
    target.write_text("")
    assert run(BIF + ["--out-dir", str(target)] + FAST_FLAGS) == 2
    assert "parameter error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    BIF + ["-Q", "nan"],
    BIF + ["--m-window=-2,0.01"],
    ["basin", *BASE, "--resolution", "0"],
    ["sweep", *BASE, "--sweep", "S=0.1:0.12:2", "--resolution", "0"],
    ["sweep", *BASE, "--sweep", "M=-2:0:3", "--resolution", "2"],
    # the bad point last: the earlier ones are not computed either
    ["sweep", *BASE, "--sweep", "M=0:-2:3", "--resolution", "2"],
    ["sweep", *BASE, "--sweep", "M=0.03:0.04:2", "--sweep", "M=0.01:0.02:2",
     "--resolution", "2"],
    ["basin", *BASE, *DIMENSIONAL],
], ids=["bifurcation-Q", "bifurcation-window", "basin-resolution",
        "sweep-resolution", "sweep-domain", "sweep-domain-last",
        "sweep-twice", "mixed-forms"])
def test_bad_input_leaves_no_out_dir(argv, tmp_path, monkeypatch, capsys):
    # every input is checked before the output directory is made
    def never(*a, **k):
        raise AssertionError("computed before every input was checked")

    for name in ("compute_diagram", "compute_basins", "region_classify"):
        monkeypatch.setattr(cli, name, never)
    out_dir = tmp_path / "new" / "sub"
    assert run(argv + ["--out-dir", str(out_dir)] + FAST_FLAGS) == 2
    err = capsys.readouterr().err
    assert "parameter error" in err
    assert not (tmp_path / "new").exists()


def test_headers_embed_configuration(tmp_path):
    run(["basin", "-M", "0.2", "-S", "0.3", "-Q", "0.9", "-C", "0.5",
         "--resolution", "5", "--seed", "7", "--out-dir", str(tmp_path)]
        + FAST_FLAGS)
    text = (tmp_path / "fractions.csv").read_text()
    assert "# tool: alleetanner" in text
    assert "# params: M=0.2 S=0.3 Q=0.9 C=0.5" in text
    assert "# seed: 7" in text
    assert "# config_hash:" in text


@pytest.mark.parametrize("argv,files", [
    (["portrait", "-M", "-0.055", "-S", "0.03", "-Q", "0.55", "-C", "0.1",
      "--n-orbits", "2"], {"portrait.csv": False, "portrait.svg": False}),
    (["basin", *BASE, "--resolution", "4"],
     {"fractions.csv": True, "basin.svg": True}),
    (["sweep", *BASE, "--sweep", "S=0.1:0.12:2", "--resolution", "3"],
     {"sweep.csv": True}),
], ids=["portrait", "basin", "sweep"])
def test_only_raster_outputs_name_the_algorithm_version(argv, files,
                                                         tmp_path,
                                                         monkeypatch):
    # a portrait does not depend on the raster algorithm, so its bytes do
    # not either; raster outputs differ in their raster_hash line alone
    from alleetanner import basin
    texts = []
    for version in (4, 5):
        monkeypatch.setattr(basin, "ALGORITHM_VERSION", version)
        out = tmp_path / str(version)
        assert run(argv + ["--out-dir", str(out)] + FAST_FLAGS) == 0
        texts.append({name: (out / name).read_text() for name in files})
    for name, raster in files.items():
        if not raster:
            assert texts[0][name] == texts[1][name]
            continue
        a, b = (t[name].splitlines() for t in texts)
        moved = [x for x, y in zip(a, b) if x != y]
        assert len(a) == len(b)
        assert len(moved) == 1 and "raster_hash: " in moved[0]
