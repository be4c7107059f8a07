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
from grsklab.airy import conjecture_rhs, limit_term
from grsklab.cli import (EXIT_COMPUTE, EXIT_INPUT, EXIT_OK, _array_doc,
                         _load_array, main)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def _process_env():
    """The environment with this checkout's grsklab first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(grsklab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_process(*argv, python_flags=()):
    """Run the CLI in a fresh interpreter, so that exit codes, tracebacks
    and interpreter warnings are seen as a shell user would see them."""
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "grsklab.cli", *argv],
        capture_output=True, text=True, env=_process_env(), timeout=120)


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


def test_gpng_triangular(capsys, tmp_path):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps({"triangular": 2, "rows": [[1.0, 1.0], [1.0]]}))
    code, doc = run_json(capsys, "gpng", str(p))
    assert code == EXIT_OK
    assert doc["array"]["triangular"] == 2
    assert doc["energy"] == pytest.approx(3.0)


@pytest.mark.parametrize("doc, array_format", [
    ({"triangular": 3, "rows": [[1.5, 0.5, 2.0], [1.0, 3.0], [0.25]]},
     {"triangular": 3}),
    ({"rows": [[1.5, 0.5, 2.0, 1.25], [1.0, 3.0, 0.5], [0.25, 2.5, 0.75],
               [1.75]]},
     {"corners": [[1, 4], [3, 3], [4, 1]]}),
])
def test_grsk_matches_gpng_in_the_input_format(capsys, tmp_path, doc,
                                               array_format):
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc))
    code, grsk_doc = run_json(capsys, "grsk", str(p))
    assert code == EXIT_OK
    code, gpng_doc = run_json(capsys, "gpng", str(p))
    assert code == EXIT_OK
    assert grsk_doc["array"] == gpng_doc["array"]
    for key, value in array_format.items():
        assert grsk_doc["array"][key] == value


@pytest.mark.parametrize("doc", [
    {"triangular": 2, "rows": [[1.0, 1.0], [1.0, 1.0]]},   # no shrink
    {"triangular": 3, "rows": [[1.0, 1.0, 1.0], [1.0], [1.0]]},
    {"triangular": 3, "rows": [[1.0, 1.0], [1.0]]},        # row count
    {"triangular": 0, "rows": []},
])
@pytest.mark.parametrize("command", ["grsk", "gpng"])
def test_bad_triangular_file_is_input_error(capsys, tmp_path, doc, command):
    p = tmp_path / "tri.json"
    p.write_text(json.dumps(doc))
    code, out = run(capsys, command, str(p))
    assert code == EXIT_INPUT
    assert out == ""


@pytest.mark.parametrize("doc", [
    {"triangular": 3, "rows": [[1.5, 0.5, 2.0], [1.0, 3.0], [0.25]]},
    {"corners": [[2, 3], [3, 1]],
     "rows": [[1.5, 0.5, 2.0], [1.0, 3.0, 0.5], [0.25]]},
])
def test_gpng_output_reads_back(capsys, tmp_path, doc):
    p = tmp_path / "w.json"
    p.write_text(json.dumps(doc))
    code, out = run_json(capsys, "gpng", str(p))
    assert code == EXIT_OK
    back = tmp_path / "back.json"
    back.write_text(json.dumps(out["array"]))
    H, triangular = _load_array(str(back))
    assert triangular == ("triangular" in doc)
    assert H.rows() == out["array"]["rows"]
    assert _array_doc(H, triangular) == out["array"]


@pytest.mark.parametrize("argv", [
    ["grsk", "ARRAY"],
    ["gpng", "ARRAY"],
    ["sample", "--points", "2,2", "--u", "1.0", "--samples", "1000"],
    ["laplace", "--points", "1,1", "--u", "1.0"],
    ["fredholm", "--points", "2,2", "--u", "1.0"],
    ["airy2", "--t1", "0.2", "--t2", "0.4", "--gamma", "1.0"],
    ["verify", "--suite", "combinatorial", "--max-size", "2"],
    ["sweep", "CONFIG"],
], ids=lambda argv: argv[0])
def test_every_command_writes_to_output(tmp_path, capsys, ones2x2, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": [[1, 1]], "grid": {"u1": [1.0]}}))
    argv = [{"ARRAY": ones2x2, "CONFIG": str(cfg)}.get(a, a) for a in argv]

    def document(text):
        # the same document up to its wall times
        if argv[0] == "sweep":
            return [row[:4] + row[5:] for row in csv.reader(text.splitlines())]
        doc = json.loads(text)
        doc.pop("wall_time_s", None)
        return doc

    code, printed = run(capsys, *argv)
    assert code == EXIT_OK
    out = tmp_path / "out.txt"
    code, text = run(capsys, *argv, "-o", str(out))
    assert code == EXIT_OK and text == ""
    assert document(out.read_text()) == document(printed)


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
    # rejected before the suite runs, not after it as a non-finite result
    ["verify", "--suite", "analytic", "--tolerance", "nan"],
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


@pytest.mark.parametrize("argv", [
    ["fredholm", "--points", "2,2,3,1", "--u", "1"],
    ["fredholm", "--points", "2,2", "--u", "1,2"],
    ["fredholm", "--points", "2,2", "--u", "1", "--order", "-1"],
    # partial sums stop at order 3; order >= n is the whole determinant
    ["fredholm", "--points", "5,5", "--u", "1", "--order", "4"],
])
def test_fredholm_extra_input_or_negative_order_is_usage_error(argv):
    proc = run_process(*argv)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["sample", "laplace", "fredholm"])
def test_polymer_commands_share_options(capsys, command):
    extra = ["--samples", "1000"] if command == "sample" else []
    code, _ = run_json(capsys, command, "--points", "2,2", "--u", "1.0",
                       "--alpha", "0.1,0.0", "--alphahat", "1.0,0.9", *extra)
    assert code == EXIT_OK
    code = main([command, "--points", "2,2", "--u", "1.0,2.0", *extra])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "need one --u value per point" in captured.err


def test_out_of_memory_is_compute_error(capsys, monkeypatch):
    # an allocation too large for the machine (--nodes 10^12 asks numpy
    # for 9.7 TiB) is a computational failure with a one-line message;
    # the real allocation could succeed under memory overcommit
    import grsklab.cli as cli

    def allocate(*args, **kwargs):
        raise MemoryError("Unable to allocate 9.70 TiB")

    monkeypatch.setattr(cli, "_laplace1", allocate)
    assert main(["laplace", "--points", "1,1", "--u", "1.0"]) == EXIT_COMPUTE
    assert capsys.readouterr() == ("", "computational failure: out of memory: "
                                       "Unable to allocate 9.70 TiB\n")


def test_streams_flag_is_gone():
    # every block has its own stream, so the budget is never split
    proc = run_process("sample", "--points", "2,2", "--u", "1.0",
                       "--samples", "1000", "--streams", "2")
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_sample_count_above_2_pow_53_is_usage_error():
    # an input error, caught before any block is laid out
    proc = run_process("sample", "--points", "1,1", "--u", "1",
                       "--samples", "1" + "0" * 400)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "2**53" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["sample", "--points", "2,2", "--u", "1.0", "--samples", "1000"],
    ["laplace", "--points", "2,2", "--u", "1.0", "--mc-check"],
    ["verify", "--suite", "analytic"],
])
def test_negative_seed_is_usage_error(argv):
    # rejected by the parser, before any transform or draw, with the option
    # named in the message
    proc = run_process(*argv, "--seed", "-1")
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "--seed" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("seed", ["1.5", "x", "1e3"])
def test_non_integer_seed_is_usage_error(seed):
    proc = run_process("sample", "--points", "2,2", "--u", "1.0",
                       "--samples", "1000", "--seed", seed)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "--seed" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_without_traceback(ones2x2):
    # the reader closes the pipe before the child writes, as
    # `grsklab ... | head` can: the write fails with EPIPE, which must end
    # in exit 0 and an empty stderr
    proc = subprocess.Popen(
        [sys.executable, "-m", "grsklab.cli", "grsk", ones2x2],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_process_env())
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert err == b""


def test_sample_reports_stream_layout(capsys):
    code, doc = run_json(capsys, "sample", "--points", "2,2", "--u", "1.0",
                         "--samples", "2000")
    assert code == EXIT_OK
    # block b draws from spawn key (0, b): block and seed give the layout
    assert doc["generator"] == "PCG64" and doc["block"] > 0
    assert set(doc) == {"mean", "stderr", "n", "seed", "generator", "block",
                        "points", "u"}


def test_import_leaves_numpy_random_unloaded():
    # the commands that never sample do not pay for importing numpy.random
    src = os.path.dirname(os.path.dirname(os.path.abspath(grsklab.__file__)))
    code = ("import sys, numpy; before = 'numpy.random' in sys.modules; "
            "import grsklab.cli; print(before, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=120)
    before, after = proc.stdout.split()
    assert after == before


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


@pytest.mark.parametrize("u, ref", [
    # laplace2 at (1,4),(2,3) with delta' in {0.9, 1.2} at 40 to 80 nodes
    # per unit agree to 3e-15
    (0.25, 0.072648692465633), (1.0, 0.0152742691419596),
    (4.0, 0.00158350099849129),
])
def test_laplace_case_b_within_its_error_estimate(capsys, u, ref):
    code, doc = run_json(capsys, "laplace", "--points", "1,4,2,3",
                         "--u", f"{u},{u}")
    assert code == EXIT_OK
    assert doc["value"] == pytest.approx(ref, rel=1e-3)
    assert doc["error_estimate"] >= abs(doc["value"] - ref)


def test_laplace_points_above_the_diagonal(capsys):
    # the transposed pair at swapped u gives the same value
    code, above = run_json(capsys, "laplace", "--points", "3,2,4,1",
                           "--u", "0.3,0.5")
    assert code == EXIT_OK
    code, below = run_json(capsys, "laplace", "--points", "1,4,2,3",
                           "--u", "0.5,0.3")
    assert code == EXIT_OK
    assert above["value"] == below["value"]


def test_fredholm_partial_sum_outside_unit_interval(capsys):
    # a partial sum of the Fredholm series is not a transform: no range check
    code, doc = run_json(capsys, "fredholm", "--points", "2,2", "--u", "1",
                         "--order", "1")
    assert code == EXIT_OK
    assert doc["value"] == pytest.approx(-0.6563562127124616, rel=0, abs=1e-13)
    assert doc["error_estimate"] <= 1e-12


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


def test_fredholm_reports_its_contours(capsys):
    code, doc = run_json(capsys, "fredholm", "--points", "2,2", "--u", "1.0")
    assert code == EXIT_OK
    assert doc["contours"] == {"delta1": 0.25, "delta2": 0.5, "n_circle": 58,
                               "n_line": 480, "length": 12.0}
    code, doc = run_json(capsys, "fredholm", "--points", "2,2", "--u", "1.0",
                         "--alphahat", "0.7,1.3", "--L", "6")
    assert code == EXIT_OK
    assert doc["contours"] == {"delta1": 0.4, "delta2": 0.5, "n_circle": 176,
                               "n_line": 240, "length": 6.0}


def test_fredholm_circle_near_its_bound(capsys):
    # at a fixed 128 nodes --delta1 0.45 exited 1 on a rounding guard
    code, doc = run_json(capsys, "fredholm", "--points", "2,2", "--u", "1",
                         "--delta1", "0.45")
    assert code == EXIT_OK and doc["contours"]["n_circle"] == 372
    _, lap = run_json(capsys, "laplace", "--points", "2,2", "--u", "1")
    assert doc["value"] == pytest.approx(lap["value"], abs=1e-12)
    proc = run_process("fredholm", "--points", "2,2", "--u", "1", "--delta1", "0.495")
    assert proc.returncode == EXIT_COMPUTE
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "delta1 = 0.495" in proc.stderr and "under 0.46" in proc.stderr


def test_fredholm_error_estimate_covers_rounding(capsys):
    # the converged transform is 3.0566e-14; at (8,8) the determinant's
    # rounding noise is larger, and the reported estimate must cover it
    code, doc = run_json(capsys, "fredholm", "--points", "8,8", "--u", "1.0")
    assert code == EXIT_OK
    assert doc["error_estimate"] >= abs(doc["value"] - 3.0566e-14)


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
    # one route from gamma to the Airy probability
    assert doc["value"] == conjecture_rhs(0.2, 0.4, 0.0, 0.0, 1.0)
    assert doc["error_estimate"] < 1e-8


@pytest.mark.parametrize("gamma", ["1.0", "0.3"])
def test_airy2_scaling_partial_sums_are_the_limit_series(capsys, gamma):
    # the j-th partial sum is 1 + the sum of I_{m,n} over 1 <= m + n <= j
    code, doc = run_json(capsys, "airy2", "--t1", "0.5", "--t2", "0.5",
                         "--gamma", gamma, "--r1", "0.3", "--r2", "-0.2")
    assert code == EXIT_OK
    args = (0.5, 0.5, 0.3, -0.2, float(gamma))
    sums = [sum(limit_term(m, j - m, *args) for j in range(k + 1)
                for m in range(j + 1)) for k in range(4)]
    assert doc["order"] == 3
    assert doc["partial_sums"] == pytest.approx(sums, rel=0, abs=1e-14)
    assert doc["value"] == pytest.approx(sums[-1], abs=1e-6)


@pytest.mark.parametrize("argv", [
    ["--gamma", "1.0", "--x1", "0.5"],
    ["--gamma", "1.0", "--x2", "0.0"],
    ["--r1", "0.5"],
    ["--r2", "0.0"],
])
def test_airy2_rejects_thresholds_its_mode_ignores(capsys, argv):
    # scaling mode reads --r1/--r2 and kernel mode --x1/--x2: the other
    # pair would do nothing, even at its default value
    assert main(["airy2", "--t1", "0.2", "--t2", "0.4", *argv]) == EXIT_INPUT
    assert "does nothing" in capsys.readouterr().err


def test_airy2_threshold_window_error(capsys):
    code, _ = run(capsys, "airy2", "--t1", "0.0", "--t2", "1.0",
                  "--x1", "-9.0")
    assert code == EXIT_INPUT


def test_airy2_non_finite_threshold_error(capsys):
    code, _ = run(capsys, "airy2", "--t1", "0.0", "--t2", "1.0",
                  "--x1", "nan")
    assert code == EXIT_INPUT


def test_airy2_overflowing_time_is_usage_error():
    # the threshold c1 r1 + c2 t1^2 overflows: an input out of range, not
    # a failed computation (it raised OverflowError and exited 1)
    proc = run_process("airy2", "--t1", "1e200", "--t2", "0.4",
                       "--gamma", "1.0")
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_laplace_rejects_delta1_without_traceback():
    # laplace has no --delta1 (the two-point integrals take one offset,
    # --delta), so argparse rejects it as a usage error
    proc = run_process("laplace", "--points", "1,3,3,1", "--u", "1,1",
                       "--delta1", "0.05")
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert "--delta1" in proc.stderr


def test_laplace_reports_its_contours(capsys):
    # delta is the --delta passed on (null where the evaluator chose it),
    # and the density is 4/3 of --nodes/--L, or of 20
    code, doc = run_json(capsys, "laplace", "--points", "1,1", "--u", "1.0")
    assert code == EXIT_OK
    assert doc["contours"] == {"delta": None, "length": 12.0,
                               "nodes_per_unit": 20.0 * 4.0 / 3.0}
    code, doc = run_json(capsys, "laplace", "--points", "1,3,3,1",
                         "--u", "1,1", "--delta", "0.3", "--L", "10",
                         "--nodes", "250")
    assert code == EXIT_OK
    assert doc["contours"] == {"delta": 0.3, "length": 10.0,
                               "nodes_per_unit": 25.0 * 4.0 / 3.0}


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


@pytest.mark.parametrize("size", ["1", "10"])
def test_verify_max_size_out_of_range_is_usage_error(size):
    # size 1 failed in numpy's integers(2, 2); size 10 ran 53 s and then
    # raised the oracle's EnumerationCapExceeded
    proc = run_process("verify", "--suite", "combinatorial",
                       "--max-size", size)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "2..8" in proc.stderr


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


def test_sweep_points_above_the_diagonal(tmp_path, capsys):
    cfg = {"points": [[3, 2], [4, 1]], "grid": {"u1": [0.3], "u2": [0.5]}}
    code, rows = sweep_rows(tmp_path, capsys, cfg)
    assert code == EXIT_OK
    assert len(rows) == 2 and rows[1][5] == ""
    assert 0 < float(rows[1][2]) < 1


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


@pytest.mark.parametrize("cfg", [
    {"points": 5},
    {"points": [[2, 2]], "grid": 5},
    {"points": [[2, 2]], "grid": {"u1": 5}},
    [[2, 2]],
    {"points": [[2, 2]], "op": "mcc", "grid": {"u1": [1.0]}},
    {"points": [[2, 2]], "op": "mc", "seed": -1, "grid": {"u1": [1.0]}},
    {"points": [[2, 2]], "op": "mc", "seed": 1.5, "grid": {"u1": [1.0]}},
], ids=["points-int", "grid-int", "u1-int", "top-level-list", "unknown-op",
        "negative-seed", "float-seed"])
def test_sweep_malformed_config_is_usage_error(tmp_path, cfg):
    # each printed a traceback and exited 1, ran the contour route for
    # an unknown op, or failed every mc row of a negative seed
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    proc = run_process("sweep", str(p))
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_sweep_contour_rows_report_laplace_estimate(tmp_path, capsys):
    # a contour row carries the value and error estimate that grsklab
    # laplace prints for the same input, not an error of 0.0
    cfg = {"points": [[2, 2]], "grid": {"u1": [1.0]}}
    _, rows = sweep_rows(tmp_path, capsys, cfg)
    _, doc = run_json(capsys, "laplace", "--points", "2,2", "--u", "1.0")
    assert float(rows[1][2]) == doc["value"]
    assert float(rows[1][3]) == doc["error_estimate"] > 0.0


def test_sweep_rows_read_the_environment_defaults(tmp_path, capsys,
                                                 monkeypatch):
    # contour rows ran at L = 12 and the default density whatever
    # GRSKLAB_LENGTH and GRSKLAB_NODES said, and mc rows at 10^5 samples
    monkeypatch.setenv("GRSKLAB_LENGTH", "4")
    monkeypatch.setenv("GRSKLAB_NODES", "60")
    monkeypatch.setenv("GRSKLAB_SAMPLES", "2000")
    _, rows = sweep_rows(tmp_path, capsys,
                         {"points": [[2, 2]], "grid": {"u1": [1.0]}})
    _, doc = run_json(capsys, "laplace", "--points", "2,2", "--u", "1.0")
    assert doc["contours"]["length"] == 4.0
    assert float(rows[1][2]) == doc["value"]
    assert float(rows[1][3]) == doc["error_estimate"]
    # a config "samples" wins over GRSKLAB_SAMPLES
    for cfg_samples, n in [({}, "2000"), ({"samples": 1000}, "1000")]:
        cfg = {"points": [[2, 2]], "op": "mc", "grid": {"u1": [1.0]},
               **cfg_samples}
        _, rows = sweep_rows(tmp_path, capsys, cfg)
        _, doc = run_json(capsys, "sample", "--points", "2,2", "--u", "1.0",
                          "--samples", n)
        assert [float(x) for x in rows[1][2:4]] == [doc["mean"], doc["stderr"]]


@pytest.mark.parametrize("argv, lines", [
    (["laplace", "--points", "2,2", "--u", "1.0"], 1),
    (["laplace", "--points", "1,4,2,3", "--u", "0.25,0.25"], 2),
    (["sweep"], 1),
], ids=["one-point", "two-point", "sweep-row"])
def test_contour_commands_evaluate_once(tmp_path, capsys, monkeypatch, argv,
                                        lines):
    # each line's per-axis weights are built once: the error estimate
    # comes from the same nodes, not from a second pass at another density
    import grsklab.contour as contour
    built = []
    original = contour._axis_weights
    monkeypatch.setattr(contour, "_axis_weights",
                        lambda *a, **k: built.append(a) or original(*a, **k))
    if argv == ["sweep"]:
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"points": [[2, 2]], "grid": {"u1": [1.0]}}))
        argv = ["sweep", str(p), "-o", str(tmp_path / "out.csv")]
    assert main(argv) == EXIT_OK
    assert len(built) == lines


@pytest.mark.parametrize("points, u", [
    ([(2, 2)], 1.0), ([(3, 3)], 0.25), ([(1, 3), (3, 2)], 0.25),
    ([(1, 4), (2, 3)], 0.25),
], ids=["2,2", "3,3", "case-a", "case-b"])
def test_laplace_error_estimate_covers_truncation(capsys, points, u):
    # on short lines the truncation error dominates; a reference on long,
    # dense lines checks that the estimate sees it
    from grsklab.contour import laplace1, laplace2
    fine = {"nodes_per_unit": 80.0, "length": 20.0}
    alpha, alphahat = [0.0] * 4, [1.0] * 4
    if len(points) == 1:
        ref = laplace1(*points[0], u, alpha, alphahat, **fine)
    else:
        (m1, n1), (m2, n2) = points
        ref = laplace2(m1, n1, m2, n2, u, u, alpha, alphahat, 1.0, **fine)
    pts = ",".join(f"{m},{n}" for m, n in points)
    for length in ("4", "6", "8", "12"):
        code, doc = run_json(capsys, "laplace", "--points", pts,
                             "--u", ",".join([str(u)] * len(points)),
                             "--L", length)
        assert code == EXIT_OK
        assert doc["error_estimate"] >= abs(doc["value"] - ref.real), length


# ---------------------------------------------------------------------------
# environment overrides
# ---------------------------------------------------------------------------


def test_env_default_invalid(monkeypatch, capsys):
    # an unparsable variable is an input error, like an unparsable option
    monkeypatch.setenv("GRSKLAB_SAMPLES", "not-a-number")
    assert main(["sample", "--points", "2,2", "--u", "1.0"]) == EXIT_INPUT
    assert "invalid GRSKLAB_SAMPLES='not-a-number'" in capsys.readouterr().err


def test_env_default_applies(monkeypatch, capsys):
    monkeypatch.setenv("GRSKLAB_SAMPLES", "2000")
    code, doc = run_json(capsys, "sample", "--points", "2,2", "--u", "1.0")
    assert code == EXIT_OK
    assert doc["n"] == 2000


def test_env_default_read_on_every_call(monkeypatch, capsys):
    # the parser is built once per process; the GRSKLAB_ defaults are not
    argv = ("laplace", "--points", "1,1", "--u", "1.0")
    monkeypatch.delenv("GRSKLAB_LENGTH", raising=False)
    run_json(capsys, *argv)
    monkeypatch.setenv("GRSKLAB_LENGTH", "6")
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_OK and doc["contours"]["length"] == 6.0
    monkeypatch.delenv("GRSKLAB_LENGTH")
    code, doc = run_json(capsys, *argv)
    assert code == EXIT_OK and doc["contours"]["length"] == 12.0


@pytest.mark.parametrize("argv", [
    # the real part reads -8.71 and -82.5 at the two node densities
    ["laplace", "--points", "2,2", "--u", "1e-20"],
    # the coefficients of det(I + z K) that must vanish read above 1
    ["fredholm", "--points", "2,2", "--u", "1e20"],
])
def test_transform_outside_unit_interval_is_compute_error(argv):
    proc = run_process(*argv)
    assert proc.returncode == EXIT_COMPUTE
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
