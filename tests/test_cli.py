"""End-to-end command-line tests driven through main(argv)."""

import argparse
import json
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import modalband
from modalband.cli import build_parser, main
from modalband.kde import Dataset
from modalband.pipeline import atomic_write_text, fit_band, load_model, read_csv
from modalband.simulate import gen_dist1
from modalband.spline import SplineBasis


def philox(*key):
    return np.random.Philox(np.random.SeedSequence(list(key)))


def write_xy_csv(path, data):
    lines = ["x,y"] + [f"{float(x)!r},{float(y)!r}" for x, y in zip(data.x, data.y)]
    path.write_text("\n".join(lines) + "\n")


def read_table(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def no_temp_leftovers(directory):
    return not [p.name for p in directory.iterdir() if p.name.startswith(".tmp-")]


def write_band_csv(path, x, mid):
    lines = ["x,lower,upper,midpoint"]
    for k in range(len(x)):
        m = float(mid[k])
        lines.append(f"{float(x[k])!r},{m - 0.5!r},{m + 0.5!r},{m!r}")
    path.write_text("\n".join(lines) + "\n")


def write_hourly_csv(path):
    """The paper's hourly design: hours 0..240 twice, log-normal responses."""
    x = np.repeat(np.arange(0, 241.0), 2)
    y = np.exp(1.0 + 0.3 * np.sin(2.0 * np.pi * x / 24.0)
               + np.random.default_rng(7).normal(0.0, 0.4, x.size))
    write_xy_csv(path, Dataset(x, y))


@pytest.fixture(scope="module")
def xy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "train.csv"
    write_xy_csv(path, gen_dist1(120, philox(5)))
    return path


def run_fit(xy_csv, tmp_path, *extra):
    model = tmp_path / "model.json"
    band = tmp_path / "band.csv"
    code = main([
        "fit", "--input", str(xy_csv), "--model", str(model),
        "--band", str(band), "--segments", "10", "--seed", "0", *extra,
    ])
    assert code == 0
    return model, band


# ---------------------------------------------------------------------------
# fit and band
# ---------------------------------------------------------------------------

def test_fit_writes_model_and_band(xy_csv, tmp_path, capsys):
    model, band = run_fit(xy_csv, tmp_path)
    out = capsys.readouterr().out
    assert f"model written to {model}" in out
    assert f"band written to {band}" in out

    payload = json.loads(model.read_text())
    assert payload["degree"] == 3
    assert payload["smoothness"] == 2
    assert len(payload["knots"]) == 11
    assert len(payload["upper"]) == len(payload["lower"]) == 40
    assert payload["config"]["alpha"] == 0.5

    header, rows = read_table(band)
    assert header == "x,lower,upper,midpoint"
    assert len(rows) == 201
    assert no_temp_leftovers(tmp_path)


def test_band_csv_upper_dominates_lower(xy_csv, tmp_path):
    _, band = run_fit(xy_csv, tmp_path)
    _, rows = read_table(band)
    for row in rows:
        x, lower, upper, mid = map(float, row)
        assert upper >= lower
        assert abs(mid - 0.5 * (lower + upper)) <= 1e-8 * (1.0 + abs(mid))


def test_band_command_matches_fit_band_output(xy_csv, tmp_path, capsys):
    model, band = run_fit(xy_csv, tmp_path)
    again = tmp_path / "band2.csv"
    assert main(["band", "--model", str(model), "--output", str(again)]) == 0
    assert again.read_bytes() == band.read_bytes()
    assert no_temp_leftovers(tmp_path)
    capsys.readouterr()


def test_saved_model_round_trips_exactly(xy_csv, tmp_path):
    model, _ = run_fit(xy_csv, tmp_path)
    data = gen_dist1(120, philox(5))
    basis = SplineBasis.uniform(data.x.min(), data.x.max(), segments=10)
    expected, _ = fit_band(data, lam=1e-2, basis=basis, rng=0)
    loaded, config = load_model(str(model))
    assert np.array_equal(loaded.upper, expected.upper)
    assert np.array_equal(loaded.lower, expected.lower)
    assert np.array_equal(loaded.basis.knots, expected.basis.knots)
    assert config["seed"] == 0

    grid = np.linspace(loaded.basis.knots[0], loaded.basis.knots[-1], 1000)
    assert np.max(np.abs(loaded.upper_at(grid) - expected.upper_at(grid))) <= 1e-12
    assert np.max(np.abs(loaded.lower_at(grid) - expected.lower_at(grid))) <= 1e-12


def test_band_respects_grid_flags(xy_csv, tmp_path, capsys):
    model, _ = run_fit(xy_csv, tmp_path)
    out = tmp_path / "sub.csv"
    code = main([
        "band", "--model", str(model), "--output", str(out),
        "--grid-min", "2.0", "--grid-max", "4.0", "--grid-points", "5",
    ])
    assert code == 0
    _, rows = read_table(out)
    assert [float(r[0]) for r in rows] == pytest.approx([2.0, 2.5, 3.0, 3.5, 4.0])
    capsys.readouterr()


def test_fit_one_segment_writes_one_cubic_band(xy_csv, tmp_path, capsys, recwarn):
    model, band = run_fit(xy_csv, tmp_path, "--segments", "1")
    payload = json.loads(model.read_text())
    assert len(payload["knots"]) == 2
    assert len(payload["upper"]) == len(payload["lower"]) == 4
    assert np.all(np.isfinite(payload["upper"] + payload["lower"]))
    _, rows = read_table(band)
    assert all(float(upper) >= float(lower) for _, lower, upper, _ in rows)
    assert not recwarn.list  # no crossing warning
    capsys.readouterr()


# A cubic model file as every earlier release wrote it: "degree" and
# "smoothness" beside the knots, and the last iterate's residuals.
PARENT_MODEL = {
    "knots": [0.0, 5.0, 10.0], "degree": 3, "smoothness": 2,
    "upper": [2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 0.0, 0.0],
    "lower": [0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
    "config": {"alpha": 0.5, "lambda": 0.01},
    "residuals": {"iterations": 1000, "primal": 1e-3, "dual": 2e-2, "noncross_violation": 0.0},
}


def test_a_cubic_model_file_of_an_earlier_release_loads_unchanged(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(PARENT_MODEL, indent=2) + "\n")
    band, config = load_model(str(model))
    assert np.array_equal(band.basis.knots, PARENT_MODEL["knots"])
    assert np.array_equal(band.upper, PARENT_MODEL["upper"])
    assert np.array_equal(band.lower, PARENT_MODEL["lower"])
    assert (band.iterations, band.dual_residual) == (1000, 2e-2)
    assert config == PARENT_MODEL["config"]
    assert band.upper_at(7.5) == pytest.approx(3.5)


@pytest.mark.parametrize("field, value", [("degree", 2), ("smoothness", 1)])
def test_a_model_file_that_is_no_c2_cubic_is_refused_by_name(tmp_path, capsys, field, value):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({**PARENT_MODEL, field: value}))
    order = {"degree": 3, "smoothness": 2, field: value}
    message = (f"model file {model} holds splines of degree {order['degree']} and "
               f"smoothness {order['smoothness']}; only C^2 cubics (degree 3, smoothness 2) load")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_model(str(model))
    out = tmp_path / "out.csv"
    assert main(["band", "--model", str(model), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_band_rejects_grid_outside_fitted_domain(xy_csv, tmp_path, capsys):
    model, _ = run_fit(xy_csv, tmp_path)
    code = main([
        "band", "--model", str(model), "--output", str(tmp_path / "out.csv"),
        "--grid-max", "1e6",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "leaves the fitted domain" in err


def test_band_rejects_degenerate_grids(xy_csv, tmp_path, capsys):
    model, _ = run_fit(xy_csv, tmp_path)
    out = str(tmp_path / "out.csv")
    assert main(["band", "--model", str(model), "--output", out,
                 "--grid-points", "1"]) == 1
    assert "--grid-points must be at least 2" in capsys.readouterr().err
    assert main(["band", "--model", str(model), "--output", out,
                 "--grid-min", "3.0", "--grid-max", "3.0"]) == 1
    assert "empty evaluation range" in capsys.readouterr().err


def test_band_missing_model_file(tmp_path, capsys):
    code = main(["band", "--model", str(tmp_path / "nope.json"),
                 "--output", str(tmp_path / "out.csv")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_load_model_names_a_file_it_cannot_read(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValueError, match=f"^cannot read {re.escape(str(missing))}: "):
        load_model(str(missing))


@pytest.mark.parametrize("payload, message", [
    ({"knots": [0.0, 1.0], "degree": 3, "smoothness": 2, "lower": [0.0] * 4},
     "is missing field 'upper'"),
    ({"knots": [0.0, 1.0], "degree": 3, "smoothness": 2,
      "upper": [0.0] * 4, "lower": [0.0] * 3},
     "has inconsistent coefficient counts"),
], ids=["no-upper", "counts"])
def test_load_model_refuses_a_model_it_cannot_use(tmp_path, payload, message):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"^model file {re.escape(str(path))} {message}$"):
        load_model(str(path))


@pytest.mark.parametrize("flag, value, message", [
    ("--iters", "0", "iteration budget must be at least 1, got 0"),
    ("--penalty", "0", "penalty strength must be positive and finite, got 0.0"),
    ("--penalty", "inf", "penalty strength must be positive and finite, got inf"),
], ids=["iters", "penalty", "penalty-inf"])
def test_fit_rejects_bad_solver_settings_before_stage_one(
    xy_csv, tmp_path, capsys, monkeypatch, flag, value, message
):
    def stage_one(*args, **kwargs):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(modalband.pipeline, "run_step1", stage_one)
    code = main(["fit", "--input", str(xy_csv), "--model", str(tmp_path / "m.json"),
                 flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.json").exists()


def refuse_bandwidth(monkeypatch):
    def bandwidth(*args, **kwargs):
        raise AssertionError("bandwidth selected")

    monkeypatch.setattr(modalband.pipeline, "select_bandwidth", bandwidth)


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "1.5"], "coverage level must lie in (0, 1), got 1.5"),
], ids=["alpha"])
def test_fit_rejects_bad_stage_one_input_before_the_bandwidth(
    xy_csv, tmp_path, capsys, monkeypatch, flags, message
):
    refuse_bandwidth(monkeypatch)
    code = main(["fit", "--input", str(xy_csv), "--model", str(tmp_path / "m.json"), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("fit", ["--segments", "0"], "segments must be at least 1, got 0"),
    ("cv", ["--segments", "0"], "segments must be at least 1, got 0"),
], ids=["no-segments-fit", "no-segments-cv"])
def test_fit_and_cv_refuse_an_unfittable_basis_before_the_bandwidth(
    xy_csv, tmp_path, capsys, recwarn, monkeypatch, command, flags, message
):
    refuse_bandwidth(monkeypatch)
    out = tmp_path / "out"
    argv = {
        "fit": ["fit", "--input", str(xy_csv), "--model", str(out)],
        "cv": ["cv", "--input", str(xy_csv), "--output", str(out), "--seed", "1"],
    }[command]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert len(err.splitlines()) == 1
    assert not recwarn.list  # nothing was fitted
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("outputs", [
    ["--model", "{missing}/m.json"],
    ["--model", "{tmp}/m.json", "--band", "{missing}/b.csv"],
], ids=["model", "band"])
def test_fit_refuses_a_missing_output_directory_before_any_work(
    xy_csv, tmp_path, capsys, monkeypatch, outputs
):
    refuse_bandwidth(monkeypatch)
    outputs = [o.format(tmp=tmp_path, missing=tmp_path / "missing") for o in outputs]
    assert main(["fit", "--input", str(xy_csv), *outputs]) == 1
    err = capsys.readouterr().err
    assert err == f"error: cannot write {outputs[-1]}: no such directory\n"
    assert not list(tmp_path.iterdir())


def test_cv_refuses_a_missing_output_directory_before_any_work(
    xy_csv, tmp_path, capsys, recwarn, monkeypatch
):
    refuse_bandwidth(monkeypatch)
    out = tmp_path / "missing" / "cv.csv"
    assert main(["cv", "--input", str(xy_csv), "--output", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: no such directory\n"
    assert not recwarn.list  # no fold was fitted
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["band", "rhythm"])
def test_band_and_rhythm_refuse_a_missing_output_directory_before_reading(
    tmp_path, capsys, command
):
    # the input does not exist either: the output is checked first
    source = {"band": "--model", "rhythm": "--input"}[command]
    out = tmp_path / "missing" / "out.csv"
    assert main([command, source, str(tmp_path / "absent"), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: no such directory\n"


def test_atomic_write_names_the_target_it_cannot_write(tmp_path):
    target = tmp_path / "missing" / "out.txt"
    with pytest.raises(OSError, match=f"^cannot write {target}: "):
        atomic_write_text(str(target), "text\n")
    assert not (tmp_path / "missing").exists()


def test_outputs_get_the_mode_the_umask_allows(xy_csv, tmp_path):
    old = os.umask(0o022)
    try:
        model, band = run_fit(xy_csv, tmp_path)
        assert stat.S_IMODE(model.stat().st_mode) == 0o644
        assert stat.S_IMODE(band.stat().st_mode) == 0o644
        model.chmod(0o640)
        run_fit(xy_csv, tmp_path)  # an overwritten file keeps its mode
        assert stat.S_IMODE(model.stat().st_mode) == 0o640
        assert stat.S_IMODE(band.stat().st_mode) == 0o644
    finally:
        os.umask(old)


def test_atomic_write_onto_a_directory_names_the_target(tmp_path):
    target = tmp_path / "adir"
    target.mkdir()
    with pytest.raises(OSError, match=f"^cannot write {re.escape(str(target))}: "):
        atomic_write_text(str(target), "text\n")
    assert not list(target.iterdir())
    assert no_temp_leftovers(tmp_path)


def refuse_stage_one(monkeypatch):
    def stage_one(*args, **kwargs):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(modalband.pipeline, "run_step1", stage_one)
    monkeypatch.setattr(modalband.model_select, "run_step1", stage_one)


def files_of(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir() if p.is_file()}


def command_inputs(xy_csv, tmp_path):
    """Each kind of command input in ``tmp_path``: data, model and band CSV,
    and a link to the data; returns their bytes by name."""
    (tmp_path / "in.csv").write_bytes(xy_csv.read_bytes())
    (tmp_path / "link.csv").symlink_to("in.csv")
    (tmp_path / "m.json").write_text(json.dumps(PARENT_MODEL))
    x = np.arange(0.0, 48.0)
    write_band_csv(tmp_path / "b.csv", x, np.sin(2 * np.pi * x / 24))
    return files_of(tmp_path)


@pytest.mark.parametrize("argv, path, reason", [
    (["fit", "--input", "{d}/in.csv", "--model", "{d}/in.csv"], "in.csv",
     "it is also an input"),
    (["fit", "--input", "{d}/in.csv", "--model", "{d}/link.csv"], "link.csv",
     "it is also an input"),
    (["fit", "--input", "{d}/in.csv", "--model", "{d}/o.json", "--band", "{d}/o.json"], "o.json",
     "it is named twice as an output"),
    (["cv", "--input", "{d}/in.csv", "--output", "{d}/in.csv", "--seed", "1"], "in.csv",
     "it is also an input"),
    (["band", "--model", "{d}/m.json", "--output", "{d}/m.json"], "m.json",
     "it is also an input"),
    (["rhythm", "--input", "{d}/b.csv", "--output", "{d}/b.csv"], "b.csv",
     "it is also an input"),
], ids=["fit-input", "fit-linked-input", "fit-model-band", "cv", "band", "rhythm"])
def test_an_output_that_names_an_input_or_another_output_is_refused_before_reading(
    xy_csv, tmp_path, capsys, recwarn, monkeypatch, argv, path, reason
):
    refuse_stage_one(monkeypatch)
    before = command_inputs(xy_csv, tmp_path)
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / path}: {reason}\n"
    assert files_of(tmp_path) == before
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ["fit", "--input", "{d}/in.csv", "--model", "{d}/adir"],
    ["fit", "--input", "{d}/in.csv", "--model", "{d}/o.json", "--band", "{d}/adir"],
    ["cv", "--input", "{d}/in.csv", "--output", "{d}/adir", "--seed", "1"],
    ["band", "--model", "{d}/m.json", "--output", "{d}/adir"],
    ["rhythm", "--input", "{d}/b.csv", "--output", "{d}/adir"],
], ids=["fit-model", "fit-band", "cv", "band", "rhythm"])
def test_a_directory_as_output_is_refused_before_reading(
    xy_csv, tmp_path, capsys, recwarn, monkeypatch, argv
):
    refuse_stage_one(monkeypatch)
    before = command_inputs(xy_csv, tmp_path)
    (tmp_path / "adir").mkdir()
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    assert capsys.readouterr().err == f"error: cannot write {tmp_path / 'adir'}: is a directory\n"
    assert files_of(tmp_path) == before
    assert not list((tmp_path / "adir").iterdir())
    assert not recwarn.list


@pytest.mark.parametrize("stage", ["run_step1", "run_step2"])
def test_running_out_of_memory_in_cv_is_one_error_line(
    xy_csv, tmp_path, capsys, recwarn, monkeypatch, stage
):
    # a fold fit is excused only for the library's own refusals
    def fit(*args, **kwargs):
        raise MemoryError("synthetic")

    monkeypatch.setattr(modalband.model_select, stage, fit)
    out = tmp_path / "cv.csv"
    assert main(["cv", "--input", str(xy_csv), "--output", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err == "error: out of memory: synthetic\n"
    assert not recwarn.list
    assert not list(tmp_path.iterdir())


_STAGE_ONE_NEVER_RUNS = """
import resource, sys
soft = 4_000_000 * 1024  # 4 GB of address space, as ulimit -v 4000000
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (soft if hard == resource.RLIM_INFINITY
                                        else min(soft, hard), hard))
import modalband.model_select, modalband.pipeline
from modalband.cli import main

def stage_one(*args, **kwargs):
    sys.exit(3)

modalband.pipeline.run_step1 = modalband.model_select.run_step1 = stage_one
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_a_grid_too_large_for_memory_is_refused_before_stage_one(xy_csv, tmp_path, command):
    # 30 000 segments need a 26.8 GiB B-spline map: one error line, no file,
    # and no stage 1 (which exits 3), under a 4 GB address-space limit
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(modalband.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = str(tmp_path / "out")
    argv = {"fit": ["fit", "--input", str(xy_csv), "--model", out],
            "cv": ["cv", "--input", str(xy_csv), "--output", out, "--seed", "1"]}[command]
    run = subprocess.run([sys.executable, "-c", _STAGE_ONE_NEVER_RUNS, *argv,
                          "--segments", "30000"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("error: out of memory: ")
    assert len(run.stderr.splitlines()) == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("scale", [1e50, 1e-50])
def test_fit_on_a_covariate_of_extreme_scale_ends_in_a_model_or_one_error_line(
    tmp_path, capsys, recwarn, scale
):
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 10.0, 300)
    data = tmp_path / "xy.csv"
    write_xy_csv(data, Dataset(x * scale, np.sin(x) + rng.normal(0.0, 0.3, x.size)))
    model = tmp_path / "m.json"
    code = main(["fit", "--input", str(data), "--model", str(model)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == "" and model.is_file()
    else:
        assert code == 1 and err.startswith("error: ") and len(err.splitlines()) == 1
        assert not model.exists()
    assert not recwarn.list


@pytest.mark.parametrize("case", ["tiny-unit", "cauchy"])
def test_a_singular_normal_matrix_is_one_error_naming_its_cause(tmp_path, capsys, case):
    if case == "tiny-unit":
        # every segment holds data, but at x * 1e-5 the curvature penalty's
        # entries are ~1e14 times the data term's
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 10.0, 300)
        data = Dataset(x * 1e-5, np.sin(x) + rng.normal(0.0, 0.3, x.size))
    else:
        # 18 of the 20 segments over the Cauchy draw's span hold no observation
        rng = np.random.default_rng(5)
        x = rng.standard_cauchy(500)
        data = Dataset(x, np.arctan(x) + rng.normal(0.0, 0.3, x.size))
    source = tmp_path / "xy.csv"
    write_xy_csv(source, data)
    model = tmp_path / "m.json"
    assert main(["fit", "--input", str(source), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and not model.exists()
    if case == "tiny-unit":
        # the pivot check or, on another LAPACK, the Cholesky factorization refuses it
        assert re.fullmatch(r"error: rank-deficient constraints: [^;]+; the penalty term "
                            r"outweighs the data term \S+e\+14 to 1 \(largest entries of "
                            r"2 lam P'QP and A'A\); rescaling x or lowering --penalty helps\n",
                            err), err
    else:
        assert err == ("error: rank-deficient constraints: singular normal matrix; "
                       "18 of 20 knot segments hold no observation\n")


def test_running_out_of_memory_is_one_error_line(xy_csv, tmp_path, capsys, monkeypatch):
    message = "Unable to allocate 26.8 GiB for an array with shape (120000, 30003)"

    def fit_band(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(modalband.cli, "fit_band", fit_band)
    assert main(["fit", "--input", str(xy_csv), "--model", str(tmp_path / "m.json")]) == 1
    assert capsys.readouterr().err == f"error: out of memory: {message}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("payload", [
    [],
    {"knots": [0.0, 1.0], "degree": None, "smoothness": 2,
     "upper": [0.0] * 4, "lower": [0.0] * 4},
    pytest.param("x,lower,upper,midpoint\n0.0,1.0,2.0,1.5\n", id="not-json"),
    # json writes these as the non-standard NaN and Infinity, which it reads back
    pytest.param({"knots": [0.0, 1.0], "degree": 3, "smoothness": 2,
                  "upper": [0.0, float("nan"), 0.0, 0.0], "lower": [0.0] * 4}, id="nan-upper"),
    pytest.param({"knots": [0.0, 1.0], "degree": 3, "smoothness": 2,
                  "upper": [1.0] * 4, "lower": [0.0, 0.0, 0.0, -float("inf")]}, id="inf-lower"),
])
def test_band_rejects_malformed_model_in_one_line(tmp_path, capsys, payload):
    model = tmp_path / "m.json"
    model.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main(["band", "--model", str(model), "--output", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert str(model) in err
    assert not (tmp_path / "out.csv").exists()
    if isinstance(payload, dict) and payload["degree"] == 3:
        assert err == f"error: model file {model} holds non-finite coefficients\n"


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------

def test_missing_input_file(tmp_path, capsys):
    code = main(["fit", "--input", str(tmp_path / "absent.csv"),
                 "--model", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "cannot read" in err


@pytest.mark.parametrize("text,fragment", [
    ("", "empty file"),
    ("a,b\n1,2\n", "line 1: expected header 'x,y'"),
    ("x,y\n1,2\n3,4,5\n", "line 3: expected 2 fields, got 3"),
    ("x,y\n1,abc\n", "line 2: non-numeric value 'abc'"),
    ("x,y\n", "no data rows"),
])
def test_malformed_csv_reports_line(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    code = main(["fit", "--input", str(bad), "--model", str(tmp_path / "m.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert fragment in err


def test_a_blank_line_between_csv_rows_is_skipped(tmp_path):
    path = tmp_path / "xy.csv"
    path.write_text("x,y\n1,2\n\n3,4\n")
    cols = read_csv(str(path), ("x", "y"))
    assert cols["x"].tolist() == [1.0, 3.0] and cols["y"].tolist() == [2.0, 4.0]


def test_dataset_errors_name_the_file(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("x,y\n1,nan\n2,3\n")
    assert main(["fit", "--input", str(bad),
                 "--model", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "non-finite" in err
    assert "line 2" in err


@pytest.mark.parametrize("text,message", [
    ('x,y\n"1\n",2\n3,abc\n', "line 4: non-numeric value 'abc'"),
    ('x,y\n"1\n",2\n3,4,5\n', "line 4: expected 2 fields, got 3"),
], ids=["non-numeric", "field-count"])
def test_errors_after_a_multi_line_field_name_the_file_line(tmp_path, capsys, text, message):
    # the quoted field spans lines 2 and 3, so the faulty row is on line 4
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    model = tmp_path / "m.json"
    assert main(["fit", "--input", str(bad), "--model", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not model.exists()


@pytest.mark.parametrize("command", ["fit", "cv", "rhythm"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_a_non_finite_value_names_its_line(tmp_path, capsys, command, cell):
    header = "x,lower,upper,midpoint" if command == "rhythm" else "x,y"
    commas = header.count(",")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{header}\n" + "1.0," * commas + "1.0\n" + "2.0," * commas + f"{cell}\n")
    out = tmp_path / "out"
    argv = {"fit": ["fit", "--input", str(bad), "--model", str(out)],
            "cv": ["cv", "--input", str(bad), "--output", str(out), "--seed", "1"],
            "rhythm": ["rhythm", "--input", str(bad), "--output", str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {bad}: line 3: non-finite value {cell!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "rhythm"])
def test_a_byte_order_mark_before_the_header_is_skipped(xy_csv, tmp_path, capsys, command):
    # a spreadsheet's "CSV UTF-8" export starts with the mark U+FEFF
    plain = xy_csv
    if command == "rhythm":
        plain, x = tmp_path / "band.csv", np.arange(241.0)
        write_band_csv(plain, x, 2.0 + np.sin(2.0 * np.pi * x / 28.0))
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for source in (plain, marked):
        out = tmp_path / f"{source.stem}-out.csv"
        if command == "fit":
            argv = ["fit", "--input", str(source), "--model", str(tmp_path / "m.json"),
                    "--band", str(out), "--segments", "10"]
        else:
            argv = ["rhythm", "--input", str(source), "--output", str(out)]
        assert main(argv) == 0, capsys.readouterr().err
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["fit", "rhythm"])
@pytest.mark.parametrize("fault, line, message", [
    ("oversized", 3, "field larger than field limit (131072)"),
    ("latin-1", 2, "byte 0xe9 is not UTF-8"),
], ids=["oversized", "latin-1"])
def test_an_unreadable_csv_line_is_one_error_that_names_the_file(
    tmp_path, capsys, command, fault, line, message
):
    header = {"fit": "x,y", "rhythm": "x,lower,upper,midpoint"}[command]
    row = ",".join(["1.0"] * len(header.split(",")))
    body = {"oversized": f"{row}\n{'9' * 200_000},2.0\n",
            "latin-1": "1.0,caf\xe9\n"}[fault]
    source = tmp_path / "in.csv"
    source.write_bytes((header + "\n" + body).encode("latin-1"))
    out = tmp_path / "out.csv"
    argv = {"fit": ["fit", "--input", str(source), "--model", str(out)],
            "rhythm": ["rhythm", "--input", str(source), "--output", str(out)]}[command]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {source}: line {line}: {message}\n"
    assert not out.exists()


def test_a_byte_order_mark_leaves_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    # the mark's three bytes are decoded, then dropped, so 0xe9 is on line 2
    source = tmp_path / "in.csv"
    source.write_bytes(b"\xef\xbb\xbfx,y\n\xe9,1\n")
    model = tmp_path / "m.json"
    assert main(["fit", "--input", str(source), "--model", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {source}: line 2: byte 0xe9 is not UTF-8\n"
    assert not model.exists()


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_csv_lines_may_end_in_a_carriage_return(tmp_path, end):
    path = tmp_path / "xy.csv"
    path.write_bytes(end.join(["x,y", "1,2", "3,4"]).encode())
    cols = read_csv(str(path), ("x", "y"))
    assert cols["x"].tolist() == [1.0, 3.0] and cols["y"].tolist() == [2.0, 4.0]
    # the quoted field spans lines 2 and 3, so the faulty row is on line 4
    path.write_bytes(end.join(["x,y", '"1', '",2', "3,abc", ""]).encode())
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 4: non-numeric"):
        read_csv(str(path), ("x", "y"))


def test_a_model_saved_with_a_byte_order_mark_loads(xy_csv, tmp_path, capsys):
    model, _ = run_fit(xy_csv, tmp_path)
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    outputs = []
    for source in (model, marked):
        out = tmp_path / f"{source.stem}-band.csv"
        assert main(["band", "--model", str(source), "--output", str(out)]) == 0, \
            capsys.readouterr().err
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


def test_a_model_byte_that_is_not_utf8_is_one_error_naming_its_line(xy_csv, tmp_path, capsys):
    model, _ = run_fit(xy_csv, tmp_path)
    first, rest = model.read_bytes().split(b"\n", 1)
    model.write_bytes(first + b'\n  "note": "caf\xe9",\n' + rest)
    out = tmp_path / "out.csv"
    assert main(["band", "--model", str(model), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {model}: line 2: byte 0xe9 is not UTF-8\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_model_that_cannot_be_read_is_one_error_naming_it(tmp_path, capsys, kind):
    model = tmp_path / "m.json"
    if kind == "directory":
        model.mkdir()
    assert main(["band", "--model", str(model), "--output", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {model}: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


def test_invalid_lambda_list(xy_csv, tmp_path, capsys):
    out = str(tmp_path / "cv.csv")
    assert main(["cv", "--input", str(xy_csv), "--output", out,
                 "--seed", "1", "--lambdas", "1e-2,oops"]) == 1
    assert "invalid --lambdas" in capsys.readouterr().err
    assert main(["cv", "--input", str(xy_csv), "--output", out,
                 "--seed", "1", "--lambdas", ","]) == 1
    assert "--lambdas must list at least one value" in capsys.readouterr().err


def test_seed_is_required_for_cv_and_simulate(xy_csv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cv", "--input", str(xy_csv), "--output", str(tmp_path / "o.csv")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dist", "1", "--n", "100"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["fit", "cv", "simulate"])
def test_negative_seed_is_refused_before_any_work(xy_csv, tmp_path, capsys, recwarn, command):
    argv = {
        "fit": ["fit", "--input", str(xy_csv), "--model", str(tmp_path / "m.json")],
        "cv": ["cv", "--input", str(xy_csv), "--output", str(tmp_path / "cv.csv")],
        "simulate": ["simulate", "--dist", "1", "--n", "100", "--reps", "2",
                     "--out-dir", str(tmp_path)],
    }[command]
    code = main(argv + ["--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not recwarn.list  # nothing was fitted
    assert not list(tmp_path.iterdir())


def test_cli_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(modalband.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, modalband.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


def test_fit_imports_neither_numpy_ma_nor_statistics(tmp_path):
    # np.percentile's first call imports numpy.ma (10-17 ms), and statistics
    # takes 3-5 ms: neither is needed to fit the hourly design
    data, model = tmp_path / "hourly.csv", tmp_path / "m.json"
    write_hourly_csv(data)
    src = os.path.dirname(os.path.dirname(modalband.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from modalband.cli import main; "
            f"assert main(['fit', '--input', {str(data)!r}, '--model', {str(model)!r}]) == 0; "
            "print(sorted({'numpy.ma', 'statistics'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# cv
# ---------------------------------------------------------------------------

def test_cv_writes_score_table(xy_csv, tmp_path, capsys):
    out = tmp_path / "cv.csv"
    code = main([
        "cv", "--input", str(xy_csv), "--output", str(out),
        "--lambdas", "1e-2,1e-1", "--folds", "2", "--seed", "3",
        "--segments", "10", "--iters", "500",
    ])
    assert code == 0
    header, rows = read_table(out)
    assert header == "lambda,mean_mcwc,selected"
    assert [float(r[0]) for r in rows] == [1e-2, 1e-1]
    scores = [float(r[1]) for r in rows]
    assert all(np.isfinite(scores)) and min(scores) > 0.0
    assert sorted(r[2] for r in rows) == ["0", "1"]

    selected = next(float(r[0]) for r in rows if r[2] == "1")
    assert f"selected lambda {selected:.9g}".rstrip("0") in capsys.readouterr().out
    assert scores.index(min(scores)) == [r[2] for r in rows].index("1")
    assert no_temp_leftovers(tmp_path)


@pytest.mark.parametrize("flag, value, message", [
    ("--iters", "0", "iteration budget must be at least 1, got 0"),
    ("--alpha", "1.5", "coverage level must lie in (0, 1), got 1.5"),
    ("--lambdas", "nan,1e-2", "penalty strength must be positive and finite, got nan"),
    ("--lambdas", "inf,1e-2", "penalty strength must be positive and finite, got inf"),
], ids=["iters", "alpha", "lambda-nan", "lambda-inf"])
def test_cv_rejects_bad_solver_settings_before_fitting(
    xy_csv, tmp_path, capsys, recwarn, flag, value, message
):
    code = main(["cv", "--input", str(xy_csv), "--output", str(tmp_path / "cv.csv"),
                 "--seed", "1", flag, value])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not recwarn.list  # no fold was fitted
    assert not (tmp_path / "cv.csv").exists()


@pytest.mark.parametrize("command", ["cv", "simulate"])
def test_a_repeated_penalty_is_refused_before_fitting(xy_csv, tmp_path, capsys, recwarn, command):
    # 1e-2 and 0.01 are one value: each fold, or the replication, would fit it twice
    out = tmp_path / "out"
    argv = {"cv": ["cv", "--input", str(xy_csv), "--output", str(out), "--seed", "1"],
            "simulate": ["simulate", "--dist", "1", "--n", "150", "--reps", "1",
                         "--seed", "0", "--out-dir", str(out)]}[command]
    assert main(argv + ["--lambdas", "1e-2,0.01,1e-1"]) == 1
    assert capsys.readouterr().err == "error: penalty grid repeats 0.01\n"
    assert not recwarn.list  # nothing was fitted
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_outputs_are_reproducible(xy_csv, tmp_path, capsys):
    def run(out_dir):
        code = main([
            "simulate", "--dist", "1", "--n", "120", "--reps", "1",
            "--lambdas", "1e-2", "--test-size", "100", "--seed", "7",
            "--out-dir", str(out_dir),
        ])
        assert code == 0

    def drop_timing_fields(path):
        lines = path.read_text().splitlines()
        return [",".join(line.split(",")[:-2]) for line in lines]

    first = tmp_path / "run1"
    second = tmp_path / "run2"
    run(first)
    run(second)
    out = capsys.readouterr().out
    assert str(first / "replications.csv") in out
    assert str(second / "summary.csv") in out

    for name in ("replications.csv", "summary.csv"):
        masked1 = drop_timing_fields(first / name)
        masked2 = drop_timing_fields(second / name)
        assert masked1 == masked2

    header, rows = read_table(first / "replications.csv")
    assert header == "method,dist,n,lambda,rep,rmse,cp,aiw,step1_s,step2_s"
    assert [r[0] for r in rows] == ["kde_mir", "kde"]
    assert rows[1][3] == ""
    assert no_temp_leftovers(first)


def test_simulate_refuses_a_file_as_output_directory_before_any_replication(
    tmp_path, capsys, monkeypatch
):
    def refuse(config):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("modalband.cli.run_replications", refuse)
    afile = tmp_path / "afile"
    afile.write_text("")
    code = main(["simulate", "--dist", "1", "--n", "100", "--reps", "2", "--seed", "0",
                 "--out-dir", str(afile)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: cannot create output directory {afile}: File exists\n")


def test_simulate_refuses_a_directory_as_an_output_before_any_replication(
    tmp_path, capsys, monkeypatch
):
    def refuse(config):
        raise AssertionError("a replication ran")

    monkeypatch.setattr("modalband.cli.run_replications", refuse)
    target = tmp_path / "replications.csv"
    target.mkdir()
    code = main(["simulate", "--dist", "1", "--n", "100", "--reps", "2", "--seed", "0",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: cannot write {target}: is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["replications.csv"]
    assert not list(target.iterdir())


def test_simulate_rejects_zero_iterations_before_fitting(tmp_path, capsys, recwarn):
    code = main(["simulate", "--dist", "1", "--n", "100", "--reps", "2",
                 "--iters", "0", "--seed", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: iteration budget must be at least 1, got 0\n"
    assert not recwarn.list  # no replication was run
    assert not (tmp_path / "replications.csv").exists()


def test_simulate_rejects_non_finite_penalty_before_fitting(tmp_path, capsys, recwarn):
    code = main(["simulate", "--dist", "1", "--n", "100", "--reps", "2",
                 "--lambdas", "nan", "--seed", "0", "--out-dir", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: penalty strength must be positive and finite, got nan\n")
    assert not recwarn.list  # no replication was run
    assert not (tmp_path / "replications.csv").exists()


# Settings that are constants now: stage 1's 1000-point source, fit's knot
# range (the data's x range) and 201-point band grid, cv's penalty rate 20,
# the rhythm grades 1.25 and 1.5, and simulate's comparator arm.
REMOVED_SETTINGS = [
    ("fit", ["--cap", "1000"]), ("cv", ["--cap", "1000"]), ("simulate", ["--cap", "1000"]),
    ("fit", ["--knot-min", "0"]), ("fit", ["--knot-max", "10"]),
    ("fit", ["--grid-points", "201"]), ("cv", ["--eta", "20"]),
    ("simulate", ["--no-raw-kde"]),
    ("rhythm", ["--mild", "1.25"]), ("rhythm", ["--significant", "1.5"]),
]


@pytest.mark.parametrize("command, flags", REMOVED_SETTINGS,
                         ids=[f"{c}-{f[0][2:]}" for c, f in REMOVED_SETTINGS])
def test_a_removed_setting_is_no_option(xy_csv, tmp_path, capsys, command, flags):
    argv = {"fit": ["--input", str(xy_csv), "--model", str(tmp_path / "m.json"),
                    "--band", str(tmp_path / "band.csv")],
            "cv": ["--input", str(xy_csv), "--output", str(tmp_path / "cv.csv"), "--seed", "0"],
            "simulate": ["--dist", "1", "--n", "100", "--reps", "1", "--seed", "0",
                         "--out-dir", str(tmp_path)],
            "rhythm": ["--input", str(xy_csv), "--output", str(tmp_path / "cycles.csv")],
            }[command]
    with pytest.raises(SystemExit) as exit_info:
        main([command, *argv, *flags])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# Every option of each subcommand, so that a new or a removed one shows here.
OPTIONS = {
    "fit": ["--alpha", "--band", "--input", "--iters", "--model", "--penalty", "--seed",
            "--segments"],
    "cv": ["--alpha", "--folds", "--input", "--iters", "--lambdas", "--output", "--seed",
           "--segments"],
    "simulate": ["--alpha", "--dist", "--iters", "--lambdas", "--n", "--out-dir", "--reps",
                 "--seed", "--test-size"],
    "band": ["--grid-max", "--grid-min", "--grid-points", "--model", "--output"],
    "rhythm": ["--input", "--output", "--window"],
}


def test_each_subcommand_has_exactly_its_options():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert sorted(commands) == sorted(OPTIONS)
    for name, sub in commands.items():
        found = sorted(s for action in sub._actions for s in action.option_strings)
        assert found == sorted(OPTIONS[name] + ["--help", "-h"]), name


# ---------------------------------------------------------------------------
# rhythm
# ---------------------------------------------------------------------------

def test_rhythm_detects_daily_cycles_in_a_band_csv(tmp_path, capsys):
    x = np.arange(241.0)
    band = tmp_path / "band.csv"
    write_band_csv(band, x, 2.0 + np.sin(2.0 * np.pi * x / 28.0))

    out = tmp_path / "cycles.csv"
    assert main(["rhythm", "--input", str(band), "--output", str(out)]) == 0
    assert "7 cycles written" in capsys.readouterr().out

    header, rows = read_table(out)
    assert header == "trough1_x,peak_x,trough2_x,ratio1,ratio2,classification,ratio_undefined"
    assert len(rows) == 7
    for k, row in enumerate(rows):
        assert float(row[1]) == 35.0 + 28.0 * k
        assert float(row[2]) - float(row[0]) == pytest.approx(28.0, abs=2.0)
        assert float(row[3]) == pytest.approx(3.0, rel=1e-6)
        assert row[5] == "significant"
        assert row[6] == "0"
    assert no_temp_leftovers(tmp_path)


def test_rhythm_names_the_file_whose_x_decreases(tmp_path, capsys):
    bad = tmp_path / "band.csv"
    write_band_csv(bad, [2.0, 1.0, 0.0], [0.0, 1.0, 0.0])
    out = tmp_path / "o.csv"
    assert main(["rhythm", "--input", str(bad), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: curve x values must be strictly increasing\n"
    assert not out.exists()


def test_rhythm_rejects_wrong_header(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    assert main(["rhythm", "--input", str(bad),
                 "--output", str(tmp_path / "o.csv")]) == 1
    assert "expected header 'x,lower,upper,midpoint'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runtime dependencies
# ---------------------------------------------------------------------------

_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ModuleNotFoundError
from modalband.cli import main

data, out = sys.argv[1], sys.argv[2]
for argv in (
    ["fit", "--input", data, "--model", out + "/m.json", "--band", out + "/band.csv",
     "--segments", "10"],
    ["band", "--model", out + "/m.json", "--output", out + "/band2.csv"],
    ["rhythm", "--input", out + "/band.csv", "--output", out + "/cycles.csv",
     "--window", "1"],
    ["cv", "--input", data, "--output", out + "/cv.csv", "--lambdas", "1e-2",
     "--folds", "2", "--seed", "1", "--segments", "10", "--iters", "100"],
    ["simulate", "--dist", "2", "--n", "120", "--reps", "1", "--lambdas", "1e-2",
     "--test-size", "100", "--seed", "1", "--out-dir", out + "/sim"],
):
    if main(argv) != 0:
        sys.exit(argv[0] + " failed")
"""


def test_commands_run_without_scipy(xy_csv, tmp_path):
    src = os.path.dirname(os.path.dirname(modalband.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(xy_csv), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    for name in ("m.json", "band.csv", "band2.csv", "cycles.csv", "cv.csv",
                 "sim/replications.csv", "sim/summary.csv"):
        assert (tmp_path / name).is_file(), name


# ---------------------------------------------------------------------------
# known faults
# ---------------------------------------------------------------------------

_ADMM_CROSSES = ("ROADMAP item 2: ADMM's fixed 1000 iterations stop short of the "
                 "optimum, and this band crosses; an exact solver passes")


def _crossings(caught):
    return [str(w.message) for w in caught if "non-crossing violated" in str(w.message)]


@pytest.mark.xfail(strict=True, reason=_ADMM_CROSSES)
def test_cv_on_the_hourly_design_fits_no_crossing_band(tmp_path, capsys):
    # today one fold fit crosses by 5.385e-06
    data = tmp_path / "hourly.csv"
    write_hourly_csv(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["cv", "--input", str(data), "--output", str(tmp_path / "cv.csv"),
                     "--seed", "1"]) == 0
    assert not _crossings(caught)


@pytest.mark.xfail(strict=True, reason=_ADMM_CROSSES)
def test_simulate_dist_two_fits_no_crossing_band(tmp_path, capsys):
    # today one replication's fit crosses by 3.344e-05
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--dist", "2", "--n", "1000", "--reps", "2", "--seed", "0",
                     "--out-dir", str(tmp_path)]) == 0
    assert not _crossings(caught)
