import dataclasses
import importlib
import inspect
import math
import os
import subprocess
import sys
import warnings

import pytest

from qspec import io, rand, spectral
from qspec.cli import main
from qspec.operators import MultiplicationOperator, ShiftOperator
from qspec.qlinalg import RESOLVENT_OVERFLOW, QMatrix, QVector, orthonormalize
from qspec.quat import EigenSphere, Quaternion
from qspec.sliceseries import SliceSeries
from qspec.spectral import GridSpec, SlicePortrait

import file_forms
import spectral_reference as ref
from test_golden import build_case

ONE = Quaternion(1)
I = Quaternion(0, 1, 0, 0)


def test_quaternion_literal_roundtrip():
    q = Quaternion(1.5, -2.25, 1e-3, 7.0)
    assert io.parse_quaternion(io.format_quaternion(q)) == q
    assert io.parse_quaternion("1,0,0,0") == ONE
    with pytest.raises(ValueError):
        io.parse_quaternion("1,2,3")
    for text in ("nan,0,0,0", "0,inf,0,0", "0,0,-inf,0", "0,0,0,NaN"):
        with pytest.raises(ValueError, match=f"{text!r} is not finite"):
            io.parse_quaternion(text)


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
    back = io.parse_qfun(file_forms.format_qfun(m))
    assert back.labels == ("a", "b")
    assert back.values[0] == I


def test_series_roundtrip():
    f = SliceSeries(Quaternion(0.5), (ONE, I), radius=2.0)
    g = io.parse_series(file_forms.format_series(f))
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
    sh = io.parse_operator_spec("shift:left")
    assert isinstance(sh, ShiftOperator) and sh.side == "left"
    # the window is portrait's --window, not part of the spec
    with pytest.raises(ValueError, match="--window"):
        io.parse_operator_spec("shift:left:32")
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
        io.parse_operator_spec("shift:up")
    with pytest.raises(ValueError):
        io.parse_operator_spec("banana:x")


def test_operator_spec_paths_may_hold_colons(tmp_path, capsys):
    folder = tmp_path / "run:3"
    folder.mkdir()
    io.write_text(str(folder / "a.qmat"), "1 1\n0,1,0,0\n")
    io.write_text(str(folder / "a.qfun"), "p 0,1,0,0\n")
    for spec in (f"dense:{folder / 'a.qmat'}", f"mult:{folder / 'a.qfun'}"):
        assert io.parse_operator_spec(spec).dim == 1
        assert run_cli(capsys, "spectrum", "--op", spec) == (0, "0 1 p a c s\n", "")


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


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_cli_annulus_slack_scales_with_the_radius(tmp_path, capsys, scale):
    # the bounds and the moduli of a scaled unitary round at about eps |A|,
    # past an absolute slack of 1e-6 from 1e9 on; the slack scales with r_S(A)
    for seed in range(3):
        a = orthonormalize(rand.rand_qmatrix(rand.generator(seed, 9), 5, 5)).scale(scale)
        p = tmp_path / f"u{seed}.qmat"
        io.write_text(str(p), io.format_qmat(a))
        code, out, err = run_cli(capsys, "classify", "--op", f"dense:{p}")
        assert (code, err) == (0, "")
        assert "annulus ok" in out.splitlines(), out


def test_annulus_check_still_sees_a_sphere_past_a_bound():
    # a sphere 1e-3 r_S(A) outside the annulus is far past the rounding
    for scale in (1.0, 1e9):
        a = orthonormalize(rand.rand_qmatrix(rand.generator(0, 9), 5, 5)).scale(scale)
        report = spectral.classify(a)
        assert spectral.annulus_check(report).ok
        sphere = report.part("approximate")[0]
        modulus, off = sphere.abs_value(), 1e-3 * report.radius
        for moved in (dataclasses.replace(report, radius=modulus - off),
                      dataclasses.replace(report, lower_bound=modulus + off)):
            verdict = spectral.annulus_check(moved)
            assert not verdict.ok and sphere in verdict.violations, scale


#: (command line, file text, message) of malformed inputs: FILE in the
#: command line names a file holding the text, and ``qspec`` must print
#: ``error: <message>`` alone and exit 2
MALFORMED = [
    (["local", "--op", "dense:ONE", "--vector", "FILE"], "# no data\n", "empty vector file"),
    (["local", "--op", "dense:ONE", "--vector", "FILE"], "two\n1,0,0,0\n",
     "bad vector header 'two'"),
    (["local", "--op", "dense:ONE", "--vector", "FILE"], "2\n1,0,0,0\n",
     "vector header says 2 entries, file has 1"),
    (["local", "--op", "dense:ONE", "--vector", "FILE"], "-1\n",
     "vector header says -1 entries, file has 0"),
    (["spectrum", "--op", "dense:FILE"], "\n# no data\n", "empty matrix file"),
    (["spectrum", "--op", "dense:FILE"], "2\n1,0,0,0\n",
     "matrix header must be 'rows cols', got '2'"),
    (["spectrum", "--op", "dense:FILE"], "2 x\n1,0,0,0\n", "bad matrix header '2 x'"),
    (["spectrum", "--op", "dense:FILE"], "2 2\n1,0,0,0 0,0,0,0\n",
     "matrix header says 2 rows, file has 1"),
    (["spectrum", "--op", "dense:FILE"], "-1 2\n", "matrix header says -1 rows, file has 0"),
    (["spectrum", "--op", "dense:FILE"], "1 2\n1,0,0,0\n", "row has 1 entries, expected 2"),
    (["spectrum", "--op", "mult:FILE"], "# no data\n", "empty point-function file"),
    (["spectrum", "--op", "mult:FILE"], "a 1,0,0,0 b\n",
     "point-function line must be 'label literal': 'a 1,0,0,0 b'"),
    (["series", "--input", "FILE"], "1,0,0,0\n",
     "series file must open with 'center: w,x,y,z'"),
    (["series", "--input", "FILE"], "center: 0,0,0,0\nradius: wide\n1,0,0,0\n",
     "bad radius line 'radius: wide'"),
    (["series", "--input", "FILE"], "center: 0,0,0,0\nradius: 2\n",
     "series file has no coefficients"),
    (["spectrum", "--op", "dense:"], None, "dense spec must be dense:FILE, got 'dense:'"),
    (["classify", "--op", "mult:"], None, "mult spec must be mult:FILE, got 'mult:'"),
    (["portrait", "--op", "shift:right", "--grid=0,1,1"], None,
     "grid must be 'x0,x1,y1,RES', got '0,1,1'"),
    (["portrait", "--op", "shift:right", "--grid=a,1,1,4"], None,
     "bad grid bounds in 'a,1,1,4'"),
    (["portrait", "--op", "shift:right", "--grid=0,1,1,4xq"], None,
     "bad grid resolution '4xq'"),
    (["portrait", "--op", "shift:right", "--grid=1,0,1,4"], None, "x1 must not be below x0"),
    (["portrait", "--op", "shift:right", "--grid=0,1,1,0"], None,
     "grid resolution must be positive"),
    (["portrait", "--op", "shift:right", "--grid=0,1,1,4x0"], None,
     "grid resolution must be positive"),
]


@pytest.mark.parametrize("argv, text, message", MALFORMED,
                         ids=[message for _, _, message in MALFORMED])
def test_cli_malformed_input_names_its_fault(tmp_path, capsys, argv, text, message):
    one = tmp_path / "one.qmat"
    io.write_text(str(one), "1 1\n0,1,0,0\n")
    bad = tmp_path / "bad.txt"
    if text is not None:
        io.write_text(str(bad), text)
    argv = [arg.replace("FILE", str(bad)).replace("ONE", str(one)) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_library_input_checks():
    f = SliceSeries(Quaternion(0), tuple(rand.rand_qvector(rand.generator(5, 0), 2)
                                         for _ in range(3)))
    assert f.is_vector
    with pytest.raises(ValueError, match="^only scalar series have a file form$"):
        file_forms.format_series(f)
    # rounding below zero is clamped; a clearly negative im is refused
    clamped = EigenSphere(1.0, -1e-12)
    assert clamped.im == 0.0 and repr(clamped.im) == "0.0"
    with pytest.raises(ValueError, match=r"^eigen-sphere needs im >= 0, got -2e-09$"):
        EigenSphere(1.0, -2e-9)


def _golden_g00(tmp_path) -> str:
    """The spec of golden case g00, a dense n = 3 matrix, written out."""
    name, op, text, _ = build_case(0)
    assert name == "g00-generic-dense-n3" and op == "dense"
    p = tmp_path / "g00.qmat"
    io.write_text(str(p), text)
    return f"dense:{p}"


def test_cli_decomposability_verdict_does_not_read_tol(tmp_path, capsys):
    # a finite matrix is decomposable: the verdict reads its parts at
    # MEMBER_TOL whatever --tol sets the printed flags to, so at 1e-30,
    # where no sphere is flagged approximate, it still passes
    spec = _golden_g00(tmp_path)
    verdicts = []
    for tol in ("1e-30", "1e-8", "1e-4"):
        code, out, _ = run_cli(capsys, "classify", "--op", spec, "--tol", tol)
        assert code == 0, tol
        lines = out.splitlines()
        verdicts.append(lines[-1])
        if tol == "1e-30":
            assert not any(" a " in line for line in lines[:3])
    assert verdicts == ["decomposability PASS"] * 3


def test_cli_prints_the_witness_of_a_failed_verdict(tmp_path, capsys, monkeypatch):
    # a local union that misses one sphere fails the verdict at that sphere
    from qspec import localspec, spectral

    largest = localspec._largest_columns

    def hiding(*args):
        tops = largest(*args)
        tops[1] = 0.0
        return tops

    monkeypatch.setattr(localspec, "_largest_columns", hiding)
    spec = _golden_g00(tmp_path)
    hidden = spectral.s_spectrum(io.parse_operator_spec(spec).finite_section(3))[1]
    verdict = localspec.decomposability_necessary(io.parse_operator_spec(spec))
    assert verdict.status == "FAIL" and verdict.witness == hidden
    assert verdict.detail.startswith("sigma_S and local union differ")
    code, out, _ = run_cli(capsys, "classify", "--op", spec)
    assert code == 0
    assert out.splitlines()[-1] == (f"decomposability FAIL witness "
                                    f"{spectral._fmt(hidden.re)} {spectral._fmt(hidden.im)}")


def test_cli_local(tmp_path, capsys):
    m = tmp_path / "d.qmat"
    io.write_text(str(m), "2 2\n0,1,0,0 0,0,0,0\n0,0,0,0 0,0,2,0\n")
    v = tmp_path / "v.qvec"
    io.write_text(str(v), "2\n0,1,0,0\n0,0,0,0\n")
    code, out, _ = run_cli(capsys, "local", "--op", f"dense:{m}",
                           "--vector", str(v))
    assert code == 0
    assert out == "0 1\n"


def test_cli_diagonal_matrix_prints_alike_as_dense_and_mult(tmp_path, capsys):
    # is_diagonal reads the matrix, not the spec kind: a dense file holding
    # a diagonal matrix takes the closed form too
    values = [Quaternion(0.0, 0.6, 0.0, 0.8), Quaternion(0.0, 0.0, -1.0, 0.0),
              Quaternion(1.5, 0.3, 0.4, 0.0), Quaternion(-0.25), Quaternion(1.5, 0.0, 0.0, -0.5),
              Quaternion(0.0, 0.0, 0.0, 2.0)]
    op = MultiplicationOperator([f"x{k}" for k in range(len(values))], values)
    dense, mult = tmp_path / "d.qmat", tmp_path / "d.qfun"
    io.write_text(str(dense), io.format_qmat(op.as_qmatrix()))
    io.write_text(str(mult), file_forms.format_qfun(op))
    vectors = []
    for k, entries in enumerate(([Quaternion(0.5, -1.0, 0.25, 2.0)] * len(values),
                                 [Quaternion(0.0)] * 2 + [I] + [Quaternion(0.0)] * 3)):
        vectors.append(tmp_path / f"v{k}.qvec")
        io.write_text(str(vectors[-1]), io.format_qvec(QVector.from_quaternions(entries)))
    runs = [("spectrum",), ("classify",)] + [("local", "--vector", str(v)) for v in vectors]
    for command, *rest in runs:
        outs = [run_cli(capsys, command, "--op", spec, *rest)
                for spec in (f"dense:{dense}", f"mult:{mult}")]
        assert outs[0] == outs[1] and outs[0][0] == 0, command
        assert outs[0][1].count("\n") >= 2 or command == "local"
    assert run_cli(capsys, "local", "--op", f"mult:{mult}", "--vector", str(vectors[1]))[1] == \
        "1.5 0.5\n"


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


# the messages the object-by-object parser gave, read from the first bad
# literal in file order
BAD_SERIES = {
    "three components": ("1,0,0,0\n1,2,3\n",
                         "quaternion literal needs four components: '1,2,3'"),
    "nan": ("1,0,0,0\nnan,0,0,0\n", "quaternion literal 'nan,0,0,0' is not finite"),
    "stray token": ("1,0,0,0\n1,0,0,0 x\n0,1,0,0\n",
                    "bad quaternion literal '1,0,0,0 x': could not convert string "
                    "to float: '0 x'"),
    "radius 0": ("radius: 0\n1,0,0,0\n", "declared radius must be positive"),
    "radius -1": ("radius: -1\n1,0,0,0\n", "declared radius must be positive"),
}


@pytest.mark.parametrize("case", sorted(BAD_SERIES))
def test_bad_series_files_keep_their_messages(case, tmp_path, capsys):
    body, message = BAD_SERIES[case]
    with pytest.raises(ValueError) as exc:
        io.parse_series("center: 0,0,0,0\n" + body)
    assert str(exc.value) == message
    p = tmp_path / "f.series"
    io.write_text(str(p), "center: 0,0,0,0\n" + body)
    code, out, err = run_cli(capsys, "series", "--input", str(p))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_series_command_loads_only_the_series_layers(tmp_path):
    p = tmp_path / "f.series"
    io.write_text(str(p), "center: 0,0,0,0\nradius: 2.0\n1,0,0,0\n0,0.5,0,0\n")
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(x for x in (src, os.environ.get("PYTHONPATH")) if x)
    code = ("import contextlib, io, sys\n"
            "import qspec\n"
            "from qspec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main(['series', '--input', {str(p)!r}, '--at', '0.5,0,0,0'])\n"
            "print(status, sorted(m for m in sys.modules if m.startswith('qspec.')))\n"
            "print(all(getattr(qspec, name) is not None for name in qspec.__all__),\n"
            "      set(qspec.__all__) <= set(dir(qspec)), hasattr(qspec, 'nothing'))\n"
            "print(sorted(m for m in sys.modules if m.startswith('qspec.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    loaded, resolved, everything = proc.stdout.splitlines()
    assert loaded == ("0 ['qspec.cli', 'qspec.errors', 'qspec.io', 'qspec.quat', "
                      "'qspec.qvector', 'qspec.sliceseries']")
    assert resolved == "True True False"
    for module in ("localspec", "operators", "rand", "spectral", "suites"):
        assert f"'qspec.{module}'" in everything
    # and no matrix command loads the series engine
    m, v = tmp_path / "a.qmat", tmp_path / "v.qvec"
    io.write_text(str(m), "2 2\n0,1,0,0 0,0,0,0\n1,0,0,0 0,0,2,0\n")
    io.write_text(str(v), "2\n0,1,0,0\n0,0,0,1\n")
    commands = [[command, "--op", f"dense:{m}"] for command in ("classify", "spectrum")]
    commands += [["local", "--op", f"dense:{m}", "--vector", str(v)],
                 ["portrait", "--op", f"dense:{m}", "--grid=-1,1,1,3x2"]]
    code = ("import contextlib, io, sys\n"
            "from qspec import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = [cli.main(argv) for argv in {commands!r}]\n"
            "print(status, 'qspec.spectral' in sys.modules, 'qspec.sliceseries' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0, 0] True False\n"


def test_series_layers_leave_the_matrix_layer_unloaded():
    # QVector has a module of its own, so the CLI and the series engine
    # import (and compile) no qlinalg; qlinalg and the package still name it
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(x for x in (src, os.environ.get("PYTHONPATH")) if x)
    code = ("import sys\n"
            "import qspec.cli, qspec.sliceseries\n"
            "print('qspec.qlinalg' in sys.modules, 'qspec.qvector' in sys.modules)\n"
            "import qspec, qspec.qlinalg, qspec.qvector\n"
            "print(qspec.QVector is qspec.qlinalg.QVector is qspec.qvector.QVector)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False True\nTrue\n"


def test_cli_portrait_deterministic(tmp_path, capsys):
    args = ("portrait", "--op", "shift:right", "--grid=-1,1,1,8x4",
            "--window", "16")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "x,y,kappa"
    assert len(out1.splitlines()) == 1 + 8 * 4


@pytest.mark.parametrize("kind", ["dense", "mult"])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, kind):
    p = tmp_path / "bad"
    body = ("2 2\n0,1,0,0 0,0,0,0\n0,0,0,0 nan,0,0,0\n" if kind == "dense"
            else "a 0,1,0,0\nb nan,0,0,0\n")
    io.write_text(str(p), body)
    for command in ("spectrum", "classify", "local"):
        extra = ("--vector", str(p)) if command == "local" else ()
        code, out, err = run_cli(capsys, command, "--op", f"{kind}:{p}", *extra)
        assert (code, out) == (2, "")
        assert err == "error: quaternion literal 'nan,0,0,0' is not finite\n"


@pytest.mark.parametrize("grid, bound", [("nan,1,1,2x1", "x0 = nan"),
                                         ("0,inf,1,2x1", "x1 = inf"),
                                         ("-1,1,-inf,2x1", "y1 = -inf")])
def test_cli_portrait_rejects_non_finite_grid(capsys, grid, bound):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "portrait", "--op", "shift:right", f"--grid={grid}")
    assert (code, out) == (2, "")
    assert err == f"error: grid bound {bound} is not finite\n"


@pytest.mark.parametrize("size", [1e150, 1e200])
def test_cli_overflowing_entries_fail_loudly(tmp_path, capsys, size):
    # at 1e150 R_q's singular values near 1e300 are still doubles, and so is
    # |R_q|_F, summed over the values scaled by the largest: every command
    # prints, with no numpy warning and no inf or nan; at 1e200 R_q itself
    # passes double precision, a numerical failure that names the overflow
    p = tmp_path / "huge.qmat"
    io.write_text(str(p), f"2 2\n{size!r},0.3,0,0 1,0,0.5,0\n0,0,0,0.2 {-size!r},0,0.1,0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = {command: run_cli(capsys, command, "--op", f"dense:{p}")
                for command in ("classify", "spectrum", "portrait")}
    if size > 1e160:
        for command, (code, out, err) in runs.items():
            assert (code, out) == (2, ""), command
            assert err.startswith("numerical failure: ") and "overflow" in err, (command, err)
        return
    for command, (code, out, err) in runs.items():
        assert (code, err) == (0, ""), command
        assert "inf" not in out and "nan" not in out, (command, out)
    spheres = runs["spectrum"][1].splitlines()
    assert [line.split()[0] for line in spheres] == [f"{-size:.12g}", f"{size:.12g}"]
    assert all(line.endswith(" p a c s") for line in spheres)
    assert runs["classify"][1].splitlines()[:2] == spheres
    assert "annulus ok" in runs["classify"][1].splitlines()
    # kappa near 1e300 is still a double, and prints as one
    kappas = [float(line.split(",")[2]) for line in runs["portrait"][1].splitlines()[1:]]
    assert kappas and all(1e299 < k < 1e301 for k in kappas)


@pytest.mark.parametrize("side", ["left", "right"])
def test_cli_shift_portrait_overflow_rule(capsys, side):
    # at 1e200 r2 = |q|^2, an entry of R_q, passes double precision: the
    # R_q overflow failure, before any symbol arithmetic
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "portrait", "--op", f"shift:{side}",
                                 "--grid=-1e200,1e200,1e200,3x2")
    assert (code, out) == (2, "")
    assert err == f"numerical failure: {RESOLVENT_OVERFLOW}\n"
    # at 1e100 R_q is finite and the symbol's terms are not: those cells
    # take the band, and print what one banded solve per point gives
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "portrait", "--op", f"shift:{side}",
                                 "--grid=-1e100,1e100,1e100,3x2")
    assert (code, err) == (0, "")
    grid = GridSpec(-1e100, 1e100, 1e100, 3, 2)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    want = ref.band_kappas(side, 128, xs, ys)
    p = SlicePortrait(grid=grid, window=128, norm_scale=1.0, values=want)
    assert out == "\n".join(p.csv_lines()) + "\n"


def test_cli_left_shift_portrait_near_the_imaginary_axis(capsys):
    # the middle column sits at x = 0.1 with |q| = 1e7, where the paired
    # symbol values merge in rounding and the Gram route cannot split them:
    # those cells take the band, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "portrait", "--op", "shift:left",
                                 "--grid=-1e7,1.00000002e7,1e7,3x2")
    assert (code, err) == (0, "")
    grid = GridSpec(-1e7, 1.00000002e7, 1e7, 3, 2)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    want = ref.band_kappas("left", 128, xs, ys)
    p = SlicePortrait(grid=grid, window=128, norm_scale=1.0, values=want)
    assert out == "\n".join(p.csv_lines()) + "\n"


def test_cli_left_shift_portrait_where_a_probe_meets_a_pole():
    # at x = +-sqrt(10), y = sqrt(10) 1e6 and W = 64 the paired symbol values
    # d_(1), d_(2) lie 10 ulps apart, so the first probe, just below d_(2),
    # lands on d_(1) and its sums are not finite: those cells take the band,
    # with no numpy warning, in a fresh interpreter that turns every
    # RuntimeWarning into an error
    grid_arg = "-3.162277660168379,3.162277660168379,3162277.660168379,3x2"
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(x for x in (src, os.environ.get("PYTHONPATH")) if x)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qspec", "portrait",
         "--op", "shift:left", "--window", "64", f"--grid={grid_arg}"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    grid = GridSpec(-3.162277660168379, 3.162277660168379, 3162277.660168379, 3, 2)
    xs, ys = grid.xs()[None, :], grid.ys()[:, None]
    want = ref.band_kappas("left", 64, xs, ys)
    p = SlicePortrait(grid=grid, window=64, norm_scale=1.0, values=want)
    assert proc.stdout == "\n".join(p.csv_lines()) + "\n"


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


def test_cli_portrait_window_defaults_to_128(capsys):
    grid = "--grid=-1,1,1,5x3"
    code, own, _ = run_cli(capsys, "portrait", "--op", "shift:left", grid)
    assert code == 0
    assert own == run_cli(capsys, "portrait", "--op", "shift:left", grid,
                          "--window", "128")[1]
    assert own != run_cli(capsys, "portrait", "--op", "shift:left", grid,
                          "--window", "16")[1]
    # the smallest window a shift accepts
    assert run_cli(capsys, "portrait", "--op", "shift:left", grid, "--window", "4")[0] == 0


def test_cli_shift_spec_takes_no_window(capsys):
    grid = "--grid=-1,1,1,5x3"
    code, out, err = run_cli(capsys, "portrait", "--op", "shift:left:16", grid)
    assert (code, out) == (2, "")
    assert "--window" in err
    # a bad side keeps the operator's own message
    code, out, err = run_cli(capsys, "portrait", "--op", "shift:up", grid)
    assert (code, out) == (2, "")
    assert err == "error: side must be 'left' or 'right', got 'up'\n"


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
    from qspec.suites import available_suites

    code, out, err = run_cli(capsys, "check", "--suite", "nope")
    assert code == 2 and out == ""
    # the message itself, not the repr that str(KeyError) gives it
    assert err == f"error: unknown suite 'nope'; available: {', '.join(available_suites())}\n"


@pytest.mark.parametrize("name", ["scalar-algebra", "all"])
def test_cli_check_lets_a_key_error_inside_a_suite_propagate(monkeypatch, name):
    # a bug in a suite is not a mistyped name: it must not exit 2 with error:
    from qspec import suites

    def broken(cfg):
        raise KeyError("inside the suite")

    monkeypatch.setitem(suites.SUITES, "scalar-algebra", broken)
    with pytest.raises(KeyError, match="inside the suite"):
        main(["check", "--suite", name, "--trials", "1"])


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


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # neither importing the command line nor running matrix commands loads
    # a scipy module: the Schur form behind classify and the suites takes
    # its LAPACK from scipy's _flapack, loaded by file path
    p = tmp_path / "a.qmat"
    io.write_text(str(p), io.format_qmat(rand.rand_qmatrix(rand.generator(227, 0), 3, 3)))
    src = os.path.dirname(os.path.dirname(io.__file__))
    path = os.pathsep.join(x for x in (src, os.environ.get("PYTHONPATH")) if x)
    code = ("import contextlib, io, sys\n"
            "from qspec import cli, qlinalg\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(['classify', '--op', 'dense:{p}']),\n"
            "             cli.main(['check', '--suite', 'all', '--trials', '1'])]\n"
            "print(codes, qlinalg._lapack().__name__, scipy())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[0, 0] qspec._flapack []"]


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


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_check_rejects_trials_below_one(capsys, trials):
    code, out, err = run_cli(capsys, "check", "--suite", "scalar-algebra",
                             "--trials", trials)
    assert (code, out) == (2, "")
    assert err == f"error: trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--op", "shift:right", "--seed", "1"],
    ["portrait", "--op", "shift:right", "--tol", "1e-3"],
    ["series", "--input", "f.series", "--tol", "1e-3"],
    ["spectrum", "--op", "shift:right", "--seed", "1"],
    ["local", "--op", "shift:right", "--vector", "v.qvec", "--seed", "1"],
    # a portrait is the same on every slice
    ["portrait", "--op", "shift:right", "--slice", "i"],
])
def test_cli_rejects_flags_the_command_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_help_lists_seed_and_tol_only_where_read(capsys):
    helps = {}
    for cmd in ("spectrum", "classify", "portrait", "local", "series", "check"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        helps[cmd] = capsys.readouterr().out
    assert {c for c, text in helps.items() if "--seed" in text} == {"check"}
    assert ({c for c, text in helps.items() if "--tol" in text}
            == {"spectrum", "classify", "local", "check"})
    assert not any("--slice" in text for text in helps.values())


def test_cli_tol_and_seed_still_work_where_read(tmp_path, capsys):
    p = tmp_path / "i.qmat"
    io.write_text(str(p), "1 1\n0,1,0,0\n")
    assert run_cli(capsys, "spectrum", "--op", f"dense:{p}", "--tol", "1e-8") == (
        0, "0 1 p a c s\n", "")
    code, out, _ = run_cli(capsys, "check", "--suite", "scalar-algebra",
                           "--trials", "2", "--seed", "7")
    assert code == 0 and out.startswith("suite scalar-algebra")


#: functions deleted along with their settings, or moved out of the library
#: (``_j_conj`` is ``tests/spectral_reference.py``'s ``j_conj``)
GONE = {"lower_bound_i", "_j_conj", "cluster_spheres"}


@pytest.mark.parametrize("module, function, name", [
    ("spectral", "classify", "n_max"),
    ("spectral", "threshold_region", "tol"),
    ("spectral", "_region_cut", "tol"),
    ("spectral", "portrait", "label"),
    ("spectral", "SlicePortrait", "op_label"),
    ("spectral", "growth_bounds", "window"),
    ("spectral", "spectral_radius", "window"),
    ("spectral", "lower_bound_i", "window"),
    ("localspec", "decomposability_necessary", "tol"),
    ("localspec", "global_subspace", "tol"),
    ("localspec", "local_resolvent_diag", "tol"),
    ("qlinalg", "inverse_matrix", "tol"),
    ("qlinalg", "_j_conj", "out"),
    ("operators", "restrict", "tol"),
    ("operators", "quotient", "tol"),
    ("sliceseries", "cr_residual", "h"),
    ("sliceseries", "sigma_radius", "tail_fraction"),
    ("io", "parse_operator_spec", "base_dir"),
    ("rand", "rand_invertible", "floor"),
    ("rand", "rand_invertible", "attempts"),
    ("rand", "rand_qvector", "scale"),
    ("rand", "rand_commutant", "degree"),
    ("suites", "_separated_diag", "gap"),
    ("suites", "_rand_series", "scale"),
    ("suites", "_Runner.run", "trials"),
    ("sliceseries", "_sample_rows", "units"),
    ("qlinalg", "SubspaceBasis", "space_dim"),
    ("localspec", "spectral_projections", "decomposition"),
    ("localspec", "local_spectrum", "projections"),
    ("localspec", "local_subspace", "projections"),
    ("localspec", "global_subspace", "projections"),
    ("localspec", "check_combination", "projections"),
    ("localspec", "check_commutant", "projections"),
    ("spectral", "SpectrumReport", "decomposition"),
    ("spectral", "portrait", "slice_unit"),
    ("spectral", "SlicePortrait", "slice_unit"),
    ("operators", "DenseOperator", "label"),
    ("operators", "MultiplicationOperator", "label"),
    ("operators", "ShiftOperator", "window"),
    ("spectral", "growth_bounds", "n_max"),
    ("spectral", "spectral_radius", "n_max"),
    ("spectral", "lower_bound_i", "n_max"),
    ("sliceseries", "h_metric", "center"),
    ("rand", "rand_qmatrix", "scale"),
    ("localspec", "decomposability_necessary", "report"),
    ("quat", "merge_spheres", "tol"),
    ("quat", "cluster_spheres", "tol"),
])
def test_library_takes_no_parameter_that_no_caller_sets(module, function, name):
    # each was a constant in every call outside the tests: thresholds are
    # fixed where the verdicts are decided, the growth bounds take eight
    # powers of a matrix, and a shift's window is portrait's; a dataclass's
    # signature lists its fields
    fn = importlib.import_module(f"qspec.{module}")
    for attr in function.split("."):
        fn = getattr(fn, attr, None)
    if function in GONE:
        assert fn is None
    else:
        assert name not in inspect.signature(fn).parameters


#: every defaulted parameter of the names qspec exports; a setting added to
#: the library joins this table in the same change, with the caller outside
#: the tests that sets it
EXPORTED_DEFAULTS = {
    "CompactExhaustion": ("limit",),
    "Quaternion": ("w", "x", "y", "z"),
    "SlicePortrait": ("hard_cells",),
    "SliceSeries": ("radius",),
    "SuiteConfig": ("seed", "trials", "tol"),
    "annulus_check": ("tol",),
    "classify": ("tol",),
    "default_exhaustion": ("radius", "levels"),
    "h_metric": ("exhaustion",),
    "kernel_basis": ("tol",),
    "local_spectrum": ("tol",),
    "portrait": ("window",),
}


def test_exported_defaults_are_the_table():
    import qspec

    found = {}
    for name in qspec.__all__:
        try:
            params = inspect.signature(getattr(qspec, name)).parameters.values()
        except (TypeError, ValueError):    # constants, and exceptions without __init__
            continue
        defaults = tuple(p.name for p in params if p.default is not inspect.Parameter.empty)
        if defaults:
            found[name] = defaults
    assert found == EXPORTED_DEFAULTS
    assert sum(map(len, found.values())) == 18


def test_cli_check_has_its_own_tol_default():
    from qspec.cli import _build_parser

    parser = _build_parser()
    assert parser.parse_args(["check"]).tol == 1e-6
    assert parser.parse_args(["check", "--tol", "1e-8"]).tol == 1e-8
    assert parser.parse_args(["spectrum", "--op", "x"]).tol == 1e-8


# -- array-native parsing against the literal-by-literal route ---------------


def _qmat_by_literals(text: str):
    """The matrix parser as one ``parse_quaternion`` per literal."""
    lines = io._data_lines(text)
    rows, cols = (int(t) for t in lines[0].split())
    entries = []
    for line in lines[1:]:
        cells = line.split()
        if len(cells) != cols:
            raise ValueError(f"row has {len(cells)} entries, expected {cols}")
        entries.append([io.parse_quaternion(c) for c in cells])
    return QMatrix.from_quaternions(entries)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _same_bits(a, b) -> bool:
    return (a.c1.shape == b.c1.shape and a.c1.tobytes() == b.c1.tobytes()
            and a.c2.tobytes() == b.c2.tobytes())


SPELLINGS = ["1,0,0,0", "-0.0,0.0,-0.0,+0.0", "1_0,2e-300,-3E+2,.5",
             "4.9e-324,1.7976931348623157e308,-1,7", "0x1,0,0,0", "1,2,3",
             "1,2,3,4,5", "1,,2,3", "nan,0,0,0", "0,0,0,-inf", "1,2,3,1e999",
             "1,2,x,3"]


@pytest.mark.parametrize("bad", SPELLINGS)
def test_array_parsing_matches_literal_parsing(bad):
    good = "0.25,-1.5,3,-0.0"
    texts = [f"2 2\n{good} {bad}\n{bad} {good}\n",
             f"2 2\n{good} {good}\n{good} {bad}\n",
             # a short row below a bad literal: the literal is reported
             f"2 2\n{good} {bad}\n{good}\n",
             f"2 2\n{good}\n{good} {bad}\n"]
    for text in texts:
        got, want = _outcome(io.parse_qmat, text), _outcome(_qmat_by_literals, text)
        if isinstance(want, str):
            assert got == want, text
        else:
            assert _same_bits(got, want), text
    qvec = f"3\n{good}\n  {bad}  \n{good}\n"
    got = _outcome(io.parse_qvec, qvec)
    want = _outcome(lambda t: io.QVector.from_quaternions(
        [io.parse_quaternion(l) for l in io._data_lines(t)[1:]]), qvec)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.c1.tobytes() == want.c1.tobytes() and got.c2.tobytes() == want.c2.tobytes()
    qfun = f"a {good}\nb {bad}\nc\n"
    try:
        io.parse_quaternion(bad)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            io.parse_qfun(qfun)
        assert str(info.value) == str(exc)
    else:
        with pytest.raises(ValueError, match="must be 'label literal'"):
            io.parse_qfun(qfun)
        op = io.parse_qfun(f"a {good}\nb {bad}\n")
        assert op.values == (io.parse_quaternion(good), io.parse_quaternion(bad))


def test_array_parsing_of_random_files_is_bit_exact():
    rng = rand.generator(227, 0)
    for n in (1, 3, 14):
        a = rand.rand_qmatrix(rng, n, n)
        text = io.format_qmat(a)
        assert _same_bits(io.parse_qmat(text), a)
        assert _same_bits(io.parse_qmat(text), _qmat_by_literals(text))
    assert io.parse_qmat("0 0\n").shape == (0, 0)
    assert io.parse_qvec("0\n").n == 0


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "-1e-9"])
def test_cli_rejects_bad_tolerances(tmp_path, capsys, tol):
    # with a nan threshold every comparison is False: the 1x1 matrix [i]
    # lost its part letters and failed decomposability, exit 0
    p = tmp_path / "i.qmat"
    io.write_text(str(p), "1 1\n0,1,0,0\n")
    v = tmp_path / "v.qvec"
    io.write_text(str(v), "1\n1,0,0,0\n")
    for argv in (["spectrum", "--op", f"dense:{p}"], ["classify", "--op", f"dense:{p}"],
                 ["local", "--op", f"dense:{p}", "--vector", str(v)],
                 ["check", "--suite", "scalar-algebra", "--trials", "1"]):
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert (code, out) == (2, ""), argv
        assert err == f"error: --tol must be finite and positive, got {float(tol)!r}\n"
    code, out, _ = run_cli(capsys, "classify", "--op", f"dense:{p}", "--tol=1e-8")
    assert code == 0 and out.startswith("0 1 p a c s\n")


def test_cli_rejects_a_matrix_with_no_rows_but_columns(tmp_path, capsys):
    # the header "0 3" once read as a 0x0 matrix: an empty line and exit 0
    assert io.parse_qmat("0 3\n").shape == (0, 3)
    p = tmp_path / "z.qmat"
    io.write_text(str(p), "0 3\n")
    for command in ("spectrum", "classify"):
        code, out, err = run_cli(capsys, command, "--op", f"dense:{p}")
        assert (code, out, err) == (2, "", "error: dense operators must be square\n")
    io.write_text(str(p), "0 0\n")
    code, out, _ = run_cli(capsys, "spectrum", "--op", f"dense:{p}")
    assert (code, out) == (0, "\n")


def test_cli_portrait_rejects_an_empty_matrix(tmp_path, capsys):
    from qspec import spectral
    from qspec.operators import DenseOperator

    # the empty section once reached the SVD block size as a ZeroDivisionError
    p = tmp_path / "e.qmat"
    io.write_text(str(p), "0 0\n")
    code, out, err = run_cli(capsys, "portrait", "--op", f"dense:{p}")
    assert (code, out, err) == (2, "", "error: the operator has dimension 0\n")
    with pytest.raises(ValueError):
        spectral.window_kappa(DenseOperator(QMatrix.zeros(0)), Quaternion(1.0), 8)
