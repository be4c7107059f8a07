"""Command-line interface tests: JSON/CSV contracts, exit codes, and
determinism.  Commands run in-process through main(argv), except where
a fresh interpreter must see the exit code, the traceback or a warning."""
import csv
import json
import os
import subprocess
import sys

import pytest

import grsklab
from grsklab.cli import EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, main
from grsklab.contour import default_contours


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def run_process(*argv, python_flags=()):
    """Run the CLI in a fresh interpreter, so that exit codes, tracebacks
    and interpreter warnings are seen as a shell user would see them."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grsklab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "grsklab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def ones2x2(tmp_path):
    p = tmp_path / "w.json"
    p.write_text(json.dumps({"rows": [[1.0, 1.0], [1.0, 1.0]]}))
    return str(p)


# ---------------------------------------------------------------------------
# array commands
# ---------------------------------------------------------------------------


def test_grsk_all_ones(capsys, ones2x2):
    code, doc = run_json(capsys, "grsk", ones2x2)
    assert code == EXIT_OK
    # two paths of weight 1 meet at the outer corner
    assert doc["corner_values"]["t_2_2"] == pytest.approx(2.0)
    # energy identity: sum of 1/w over the four unit cells
    assert doc["energy"] == pytest.approx(4.0)
    assert doc["type_vectors"]["row_type"] == [1.0, 1.0]
    assert doc["array"]["corners"] == [[2, 2]]


def test_grsk_polygonal_flag_is_gone(ones2x2):
    proc = run_process("grsk", ones2x2, "--polygonal")
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_grsk_malformed_corners(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(
        {"corners": [[2, 1], [1, 2]], "rows": [[1.0], [1.0, 1.0]]}
    ))
    code, _ = run(capsys, "grsk", str(p))
    assert code == EXIT_INPUT


@pytest.mark.parametrize("doc", [
    {"rows": [[1, "x"], [2, 3]]},
    {"rows": [[1, True], [2, 3]]},
    {"rows": [[1, None], [2, 3]]},
    {"rows": [[1, 2], 3]},
    {"rows": [[1, 2], [3, 4]], "corners": [[None, 2]]},
    {"rows": [[1, 2], [3, 4]], "corners": 5},
])
def test_grsk_bad_array_is_input_error(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    proc = run_process("grsk", str(p))
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr


def test_grsk_overflow_is_compute_error_not_nan(tmp_path):
    # the corner value overflows to inf and the energy to nan; neither may
    # be printed as JSON (NaN and Infinity are not JSON)
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"rows": [[1e300, 1e300], [1e300, 1e300]]}))
    proc = run_process("grsk", str(p))
    assert proc.returncode == EXIT_COMPUTE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_grsk_rejects_triangular(capsys, tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps({"triangular": 2, "rows": [[1.0, 1.0], [1.0]]}))
    code, _ = run(capsys, "grsk", str(p))
    assert code == EXIT_INPUT


def test_gpng_triangular(capsys, tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps({"triangular": 2, "rows": [[1.0, 1.0], [1.0]]}))
    code, doc = run_json(capsys, "gpng", str(p))
    assert code == EXIT_OK
    assert doc["array"]["triangular"] == 2
    assert doc["energy"] == pytest.approx(3.0)


def test_output_file(tmp_path, capsys, ones2x2):
    out = tmp_path / "out.json"
    code, text = run(capsys, "grsk", ones2x2, "-o", str(out))
    assert code == EXIT_OK and text == ""
    doc = json.loads(out.read_text())
    assert doc["corner_values"]["t_2_2"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# sample / laplace / fredholm / airy2
# ---------------------------------------------------------------------------


def test_sample_schema_and_determinism(capsys):
    args = ["sample", "--points", "2,2", "--u", "1.0", "--gamma", "1.0",
            "--samples", "2000", "--seed", "7"]
    code, a = run_json(capsys, *args)
    assert code == EXIT_OK
    assert set(a) >= {"mean", "stderr", "n", "seed", "points", "u"}
    assert 0 < a["mean"] < 1 and a["stderr"] > 0
    assert a["n"] == 2000 and a["seed"] == 7
    _, b = run_json(capsys, *args)
    assert a == b
    _, c = run_json(capsys, *args[:-1], "8")
    assert c["mean"] != a["mean"]


@pytest.mark.parametrize("argv", [
    ["sample", "--points", "2,2", "--u", "nan"],
    ["sample", "--points", "2,2", "--u", "inf"],
    ["sample", "--points", "2,2", "--u", "1.0", "--gamma", "nan"],
    ["sample", "--points", "2,2", "--u", "1.0", "--alpha", "0,nan"],
    ["laplace", "--points", "2,2", "--u", "nan"],
    ["laplace", "--points", "2,2", "--u", "1.0", "--gamma", "inf"],
    ["fredholm", "--points", "2,2", "--u", "nan"],
])
def test_non_finite_input_is_usage_error(argv):
    proc = run_process(*argv)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["laplace", "--points", "2,2", "--u", "1.0", "--L", "nan"],
    ["laplace", "--points", "2,2", "--u", "1.0", "--L", "inf"],
    ["laplace", "--points", "2,2", "--u", "1.0", "--delta", "nan"],
    ["fredholm", "--points", "2,2", "--u", "1.0", "--L", "nan"],
    ["fredholm", "--points", "2,2", "--u", "1.0", "--delta1", "nan"],
    ["fredholm", "--points", "2,2", "--u", "1.0", "--delta2", "inf"],
])
def test_non_finite_contour_geometry_is_usage_error(argv):
    proc = run_process(*argv)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_threads_flag_is_gone():
    proc = run_process("--threads", "2", "sample", "--points", "2,2",
                       "--u", "1.0", "--samples", "1000")
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr


def test_laplace_one_point_with_mc_check(capsys):
    code, doc = run_json(
        capsys, "laplace", "--points", "2,2", "--u", "1.0",
        "--gamma", "1.0", "--mc-check", "--samples", "20000",
    )
    assert code == EXIT_OK
    assert 0 < doc["value"] < 1
    assert doc["error_estimate"] < 1e-5
    assert abs(doc["value_imag"]) < 1e-12
    assert abs(doc["mc_z_score"]) < 4.0


def test_laplace_two_point_routes_and_custom_nodes(capsys):
    code, a = run_json(
        capsys, "laplace", "--points", "1,2,2,1", "--u", "0.5,0.5",
        "--gamma", "1.0",
    )
    assert code == EXIT_OK
    code, b = run_json(
        capsys, "laplace", "--points", "1,4,2,3", "--u", "0.4,0.6",
        "--gamma", "1.0", "--nodes", "400",
    )
    assert code == EXIT_OK
    assert 0 < b["value"] < a["value"] < 1


def test_laplace_input_errors(capsys):
    code, _ = run(capsys, "laplace", "--points", "2,2", "--u", "1.0,2.0")
    assert code == EXIT_INPUT  # u-count mismatch
    code, _ = run(capsys, "laplace", "--points", "1,2,2,1,3,1",
                  "--u", "1,1,1")
    assert code == EXIT_INPUT  # three points unsupported
    code, _ = run(capsys, "laplace", "--points", "2,2", "--u", "-1.0")
    assert code == EXIT_INPUT


def test_fredholm_matches_laplace(capsys):
    _, f = run_json(capsys, "fredholm", "--points", "2,2", "--u", "1.0",
                    "--gamma", "1.0")
    _, l = run_json(capsys, "laplace", "--points", "2,2", "--u", "1.0",
                    "--gamma", "1.0")
    assert f["value"] == pytest.approx(l["value"], abs=1e-4)


def test_airy2_kernel_mode(capsys):
    code, doc = run_json(capsys, "airy2", "--t1", "0.0", "--t2", "1.0",
                         "--x1", "0.0", "--x2", "0.0")
    assert code == EXIT_OK
    assert len(doc["partial_sums"]) == 4
    assert doc["partial_sums"][0] == 1.0
    assert 0 < doc["value"] < 1
    assert doc["error_estimate"] < 1e-3


def test_airy2_value_is_the_determinant(capsys):
    # the order-3 partial sum is negative here; the reported value is not
    code, doc = run_json(capsys, "airy2", "--t1", "0.0", "--t2", "1.0",
                         "--x1", "-3.0", "--x2", "-3.0")
    assert code == EXIT_OK
    assert doc["partial_sums"][-1] < 0
    assert doc["value"] == pytest.approx(0.017540, abs=1e-6)
    assert doc["error_estimate"] < 1e-8


def test_airy2_scaling_mode(capsys):
    code, doc = run_json(capsys, "airy2", "--t1", "0.2", "--t2", "0.4",
                         "--gamma", "1.0", "--r1", "0.0", "--r2", "0.0")
    assert code == EXIT_OK
    assert 0 < doc["value"] < 1
    assert doc["gamma"] == 1.0


def test_airy2_order_rejected_in_scaling_mode(capsys):
    # the scaling route returns the full determinant, which has no order
    code, _ = run(capsys, "airy2", "--t1", "0.2", "--t2", "0.4",
                  "--gamma", "1.0", "--order", "2")
    assert code == EXIT_INPUT


def test_airy2_threshold_window_error(capsys):
    code, _ = run(capsys, "airy2", "--t1", "0.0", "--t2", "1.0",
                  "--x1", "-9.0")
    assert code == EXIT_INPUT


def test_airy2_non_finite_threshold_error(capsys):
    code, _ = run(capsys, "airy2", "--t1", "0.0", "--t2", "1.0",
                  "--x1", "nan")
    assert code == EXIT_INPUT


def test_laplace_rejects_delta1_without_traceback():
    # laplace has no --delta1 (the two-point integrals take one offset,
    # --delta), so argparse rejects it as a usage error
    proc = run_process("laplace", "--points", "1,3,3,1", "--u", "1,1",
                       "--delta1", "0.05")
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert "--delta1" in proc.stderr


def test_laplace_reports_default_delta1(capsys):
    code, doc = run_json(capsys, "laplace", "--points", "1,1", "--u", "1.0")
    assert code == EXIT_OK
    assert doc["contours"]["delta1"] == default_contours(1.0).delta1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("suite", ["combinatorial", "analytic"])
def test_verify_suites_pass(capsys, suite):
    code, doc = run_json(capsys, "verify", "--suite", suite)
    assert code == EXIT_OK
    assert doc["all_pass"] is True
    assert all(p["observed"] <= p["tolerance"] for p in doc["properties"])


def test_verify_failure_exit_code(capsys):
    # an impossible tolerance makes the suite report failure with exit 1
    code, doc = run_json(capsys, "verify", "--suite", "combinatorial",
                         "--tolerance", "1e-300")
    assert code == EXIT_COMPUTE
    assert doc["all_pass"] is False


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_rows(tmp_path, capsys, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    code = main(["sweep", str(p), "-o", str(out)])
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    return code, rows


def test_sweep_contour_monotone(tmp_path, capsys):
    cfg = {"points": [[2, 2]], "gamma": 1.0, "op": "contour",
           "grid": {"u1": [0.5, 1.0, 2.0]}}
    code, rows = sweep_rows(tmp_path, capsys, cfg)
    assert code == EXIT_OK
    assert rows[0] == ["u1", "u2", "value", "error", "wall_time_s", "failure"]
    vals = [float(r[2]) for r in rows[1:]]
    assert vals == sorted(vals, reverse=True)


def test_sweep_empty_grid_header_only(tmp_path, capsys):
    cfg = {"points": [[2, 2]], "grid": {"u1": []}}
    code, rows = sweep_rows(tmp_path, capsys, cfg)
    assert code == EXIT_OK
    assert len(rows) == 1


def test_sweep_partial_failure_continues(tmp_path, capsys):
    cfg = {"points": [[2, 2]], "op": "mc", "samples": 2000,
           "grid": {"u1": [0.5, -1.0, 2.0]}}
    code, rows = sweep_rows(tmp_path, capsys, cfg)
    assert code == EXIT_OK
    assert len(rows) == 4
    ok = [r for r in rows[1:] if r[5] == ""]
    bad = [r for r in rows[1:] if r[5] != ""]
    assert len(ok) == 2 and len(bad) == 1
    assert bad[0][0] == "-1.0" and bad[0][2] == ""


def test_sweep_mc_reproducible(tmp_path, capsys):
    cfg = {"points": [[1, 2], [2, 1]], "op": "mc", "seed": 5,
           "samples": 2000, "grid": {"u1": [0.5], "u2": [0.5, 1.0]}}
    _, a = sweep_rows(tmp_path, capsys, cfg, "a.json")
    _, b = sweep_rows(tmp_path, capsys, cfg, "b.json")
    # identical up to the wall-time column
    strip = lambda rows: [r[:4] + r[5:] for r in rows]
    assert strip(a) == strip(b)


def test_sweep_output_file_is_closed(tmp_path):
    # an unclosed -o file shows up as a ResourceWarning when it is
    # collected; turned into an error it is reported on stderr
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"points": [[1, 1]], "grid": {"u1": [1.0]}}))
    out = tmp_path / "out.csv"
    proc = run_process("sweep", str(p), "-o", str(out),
                       python_flags=("-W", "error::ResourceWarning"))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2 and rows[1][5] == ""


def test_sweep_bad_config(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _ = run(capsys, "sweep", str(p))
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# environment overrides
# ---------------------------------------------------------------------------


def test_env_default_invalid(monkeypatch, capsys):
    monkeypatch.setenv("GRSKLAB_SAMPLES", "not-a-number")
    with pytest.raises(SystemExit):
        main(["sample", "--points", "2,2", "--u", "1.0"])


def test_env_default_applies(monkeypatch, capsys):
    monkeypatch.setenv("GRSKLAB_SAMPLES", "2000")
    code, doc = run_json(capsys, "sample", "--points", "2,2", "--u", "1.0")
    assert code == EXIT_OK
    assert doc["n"] == 2000


@pytest.mark.parametrize("argv", [
    ["laplace", "--points", "2,2", "--u", "1e-12"],
    ["fredholm", "--points", "2,2", "--u", "1e8"],
])
def test_transform_outside_unit_interval_is_compute_error(argv):
    proc = run_process(*argv)
    assert proc.returncode == EXIT_COMPUTE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
