import math
import os
import subprocess
import sys

import pytest

from qspec import io, rand
from qspec.cli import main
from qspec.operators import MultiplicationOperator, ShiftOperator
from qspec.qlinalg import QMatrix, QVector
from qspec.quat import Quaternion
from qspec.sliceseries import SliceSeries

ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)


def test_quaternion_literal_roundtrip():
    q = Quaternion(1.5, -2.25, 1e-3, 7.0)
    assert io.parse_quaternion(io.format_quaternion(q)) == q
    assert io.parse_quaternion("1,0,0,0") == ONE
    with pytest.raises(ValueError):
        io.parse_quaternion("1,2,3")


def test_qvec_roundtrip(tmp_path):
    rng = rand.generator(211, 0)
    v = rand.rand_qvector(rng, 5)
    text = io.format_qvec(v)
    w = io.parse_qvec(text)
    assert (v - w).norm() < 1e-15
    path = tmp_path / "v.qvec"
    io.write_text(str(path), text)
    assert (io.parse_qvec(io.read_text(str(path))) - v).norm() < 1e-15


def test_qmat_roundtrip():
    rng = rand.generator(223, 0)
    a = rand.rand_qmatrix(rng, 3, 2)
    b = io.parse_qmat(io.format_qmat(a))
    assert b.shape == (3, 2)
    import numpy as np

    assert np.allclose(a.c1, b.c1) and np.allclose(a.c2, b.c2)


def test_qmat_rejects_bad_header():
    with pytest.raises(ValueError):
        io.parse_qmat("2\n1,0,0,0 0,1,0,0")


def test_qfun_roundtrip():
    m = MultiplicationOperator(("a", "b"), (I, 2 * ONE))
    back = io.parse_qfun(io.format_qfun(m))
    assert back.labels == ("a", "b")
    assert back.values[0] == I


def test_series_roundtrip():
    f = SliceSeries(Quaternion(0.5), (ONE, I), radius=2.0)
    g = io.parse_series(io.format_series(f))
    assert g.center == f.center
    assert g.radius == 2.0
    assert g.coefficients == f.coefficients
    # bare format without radius line
    h = io.parse_series("center: 0,0,0,0\n1,0,0,0\n")
    assert math.isinf(h.radius)


def test_parse_operator_spec(tmp_path):
    p = tmp_path / "m.qmat"
    io.write_text(str(p), "1 1\n0,1,0,0\n")
    op = io.parse_operator_spec(f"dense:{p}")
    assert op.dim == 1
    sh = io.parse_operator_spec("shift:left:32")
    assert isinstance(sh, ShiftOperator) and sh.window == 32
    with pytest.raises(ValueError):
        io.parse_operator_spec("banana:x")


def test_parse_grid():
    g = io.parse_grid("-1.5,1.5,1.2,64x32")
    assert (g.nx, g.ny) == (64, 32)
    g2 = io.parse_grid("0,1,1,16")
    assert (g2.nx, g2.ny) == (16, 16)
    with pytest.raises(ValueError):
        io.parse_grid("0,1,-1,16")


# -- command line ----------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_spectrum_identity(tmp_path, capsys):
    p = tmp_path / "eye.qmat"
    io.write_text(str(p), "2 2\n1,0,0,0 0,0,0,0\n0,0,0,0 1,0,0,0\n")
    code, out, _ = run_cli(capsys, "spectrum", "--op", f"dense:{p}")
    assert code == 0
    assert out == "1 0 p a c s\n"


def test_cli_spectrum_sorted_lines(tmp_path, capsys):
    p = tmp_path / "d.qmat"
    io.write_text(str(p), "2 2\n0,1,0,0 0,0,0,0\n0,0,0,0 0,0,2,0\n")
    code, out, _ = run_cli(capsys, "spectrum", "--op", f"dense:{p}")
    assert code == 0
    assert out.splitlines() == ["0 1 p a c s", "0 2 p a c s"]


def test_cli_classify_has_verdicts(tmp_path, capsys):
    p = tmp_path / "d.qmat"
    io.write_text(str(p), "1 1\n0,1,0,0\n")
    code, out, _ = run_cli(capsys, "classify", "--op", f"dense:{p}")
    assert code == 0
    assert "decomposability PASS" in out
    assert "annulus ok" in out


def test_cli_local(tmp_path, capsys):
    m = tmp_path / "d.qmat"
    io.write_text(str(m), "2 2\n0,1,0,0 0,0,0,0\n0,0,0,0 0,0,2,0\n")
    v = tmp_path / "v.qvec"
    io.write_text(str(v), "2\n0,1,0,0\n0,0,0,0\n")
    code, out, _ = run_cli(capsys, "local", "--op", f"dense:{m}",
                           "--vector", str(v))
    assert code == 0
    assert out == "0 1\n"


def test_cli_series(tmp_path, capsys):
    p = tmp_path / "f.series"
    io.write_text(str(p), "center: 0,0,0,0\n" + "".join(
        f"{0.5 ** n},0,0,0\n" for n in range(16)))
    code, out, _ = run_cli(capsys, "series", "--input", str(p),
                           "--at", "0.5,0,0,0")
    assert code == 0
    assert "coefficients 16" in out
    assert "estimated-radius 2" in out
    assert "value" in out


def test_cli_portrait_deterministic(tmp_path, capsys):
    args = ("portrait", "--op", "shift:right", "--grid=-1,1,1,8x4",
            "--window", "16")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "x,y,kappa"
    assert len(out1.splitlines()) == 1 + 8 * 4


def test_cli_portrait_rejects_negative_height(capsys):
    code, _, err = run_cli(capsys, "portrait", "--op", "shift:right",
                           "--grid=-1,1,-0.5,8x4")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("window", ["0", "3", "-1"])
def test_cli_portrait_rejects_small_shift_window(capsys, window):
    code, out, err = run_cli(capsys, "portrait", "--op", "shift:right",
                             "--grid=-1,1,1,4x2", "--window", window)
    assert code == 2
    assert out == ""
    assert "window must be at least 4" in err


def test_cli_portrait_window_defaults_to_the_operators(capsys):
    grid = "--grid=-1,1,1,5x3"
    code, own, _ = run_cli(capsys, "portrait", "--op", "shift:left:16", grid)
    assert code == 0
    assert own == run_cli(capsys, "portrait", "--op", "shift:left", grid,
                          "--window", "16")[1]
    assert own != run_cli(capsys, "portrait", "--op", "shift:left", grid)[1]
    # the smallest window a shift accepts
    assert run_cli(capsys, "portrait", "--op", "shift:left", grid, "--window", "4")[0] == 0


def test_cli_portrait_dense_ignores_window(tmp_path, capsys):
    p = tmp_path / "d.qmat"
    io.write_text(str(p), "2 2\n0,1,0,0 0,0,0,0\n0,0,0,0 0.5,0,0,0\n")
    args = ("portrait", "--op", f"dense:{p}", "--grid=-1,1,1,5x3")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert run_cli(capsys, *args, "--window", "0") == (0, out, "")


def test_cli_spectrum_rejects_shift(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--op", "shift:left")
    assert code == 2


def test_cli_check_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "check", "--suite", "nope")
    assert code == 2
    assert "available" in err


def test_cli_check_runs_suite(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "scalar-algebra",
                           "--trials", "5", "--seed", "7")
    assert code == 0
    assert out.startswith("suite scalar-algebra")
    assert "total: 1/1 suites" in out


def test_cli_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "check", "--suite", "scalar-algebra",
                           "--trials", "3", "--seed", "7",
                           "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("suite scalar-algebra")


def test_cli_missing_file_is_config_error(capsys):
    code, _, err = run_cli(capsys, "spectrum", "--op", "dense:/nope/missing.qmat")
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qspec", "check", "--suite",
         "scalar-algebra", "--trials", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "scalar-algebra" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded on first use by spectral_projections, not by importing
    # the command line
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, qspec.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_main_twice_in_one_process_matches_separate_runs(tmp_path, capsys):
    # the parser is built once per process and reused across calls
    p = tmp_path / "a.qmat"
    io.write_text(str(p), io.format_qmat(rand.rand_qmatrix(rand.generator(227, 0), 3, 3)))
    calls = [["spectrum", "--op", f"dense:{p}"],
             ["check", "--suite", "scalar-algebra", "--trials", "2"]]
    in_process = []
    for argv in calls:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        in_process.append(out)
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(q for q in (src, os.environ.get("PYTHONPATH")) if q)
    for argv, out in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "qspec", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out


def test_cli_check_has_its_own_tol_default():
    from qspec.cli import _build_parser, _config

    parser = _build_parser()
    assert _config(parser.parse_args(["check"])).tol == 1e-6
    assert _config(parser.parse_args(["check", "--tol", "1e-8"])).tol == 1e-8
    assert _config(parser.parse_args(["spectrum", "--op", "x"])).tol == 1e-8
