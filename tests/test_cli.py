"""End-to-end command-line tests driven through main(argv)."""

import argparse
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import modalband
from modalband.cli import build_parser, main
from modalband.pipeline import atomic_write_text, fit_band, load_model
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


def test_dataset_errors_name_the_file(tmp_path, capsys):
    bad = tmp_path / "nan.csv"
    bad.write_text("x,y\n1,nan\n2,3\n")
    assert main(["fit", "--input", str(bad),
                 "--model", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert "non-finite" in err


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
