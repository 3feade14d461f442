"""The example scripts under scripts/ run end to end on the public names."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, *args):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    return run


def test_decomposability_demo_verdicts():
    run = _run_script("decomposability_demo.py")
    exhibits = {block.splitlines()[0]: block for block in run.stdout.split("== ")[1:]}
    for title in ("random 5x5 matrix", "multiplication operator on 4 points"):
        assert "   status  PASS\n" in exhibits[title]
    for side in ("right", "left"):
        block = exhibits[f"{side} shift (symbol limit)"]
        assert "   status  FAIL\n" in block
        assert "   witness (0.500, 0.000)\n" in block


def test_shift_portrait_writes_both_csvs(tmp_path):
    _run_script("shift_portrait.py", "--grid=-1.5,1.5,1.5,16x8", "--windows", "16,32",
                "--outdir", str(tmp_path))
    for side in ("right", "left"):
        lines = (tmp_path / f"portrait_{side}_32.csv").read_text().splitlines()
        assert lines[0] == "x,y,kappa" and len(lines) == 1 + 16 * 8


def test_output_gate_compares_gates_by_name(tmp_path):
    base = "matrix 504 commands  sha256 aa  lines 5\ncheck 2 commands  sha256 bb  lines 3\n"
    cases = {
        "same, one new": (base + "series 112 commands  sha256 cc  lines 9\n", 0),
        "changed digest": (base.replace("bb", "bd"), 1),
        "dropped gate": ("matrix 504 commands  sha256 aa  lines 5\n", 1),
    }
    (tmp_path / "base.txt").write_text(base)
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name, (head, code) in cases.items():
        (tmp_path / "head.txt").write_text(head)
        run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "output_gate.py"),
                              "--compare", str(tmp_path / "base.txt"), str(tmp_path / "head.txt")],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == code, (name, run.stdout, run.stderr)
        if name == "same, one new":
            assert "new gate  series" in run.stdout
        if name == "dropped gate":
            assert "FAIL check: gate dropped by the head" in run.stdout


def test_output_gate_local_requests_pair_each_dense_input(tmp_path):
    # every classify input of seeds 51-53 keeps a file of its own, and each
    # .qmat one gets a seeded vector, then a basis vector; one pair runs
    # through the CLI
    probe = (
        "import collections, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import output_gate\n"
        "from qspec import cli, io\n"
        "seeded = output_gate.seeded_matrix_requests(sys.argv[2])\n"
        "assert len({r.argv[2] for rs in seeded.values() for r in rs}) == 504\n"
        "reqs = output_gate.local_requests(seeded)\n"
        "mats = collections.Counter(r[2] for r in reqs)\n"
        "assert len(reqs) == 504 and len(mats) == 252, (len(reqs), len(mats))\n"
        "assert set(mats.values()) == {2} and all(m.startswith('dense:') for m in mats)\n"
        "for seeded, basis in zip(reqs[::2], reqs[1::2]):\n"
        "    assert seeded[:3] == basis[:3]\n"
        "    e = io.parse_qvec(io.read_text(basis[4])).to_components()\n"
        "    assert sorted(e.ravel().tolist()) == [0.0] * (e.size - 1) + [1.0]\n"
        "assert cli.main(reqs[0]) == 0 and cli.main(reqs[1]) == 0\n")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", probe, os.path.join(ROOT, "scripts"),
                          str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) >= 4


def test_output_gate_local_requests_pair_each_mult_input(tmp_path):
    # the local-mult gate: each .qfun input gets a seeded vector, then a
    # basis vector, of its length; every pair of the first seed runs
    # through the CLI
    probe = (
        "import collections, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import output_gate\n"
        "from qspec import cli, io\n"
        "seeded = output_gate.seeded_matrix_requests(sys.argv[2])\n"
        "assert len({r.argv[2] for rs in seeded.values() for r in rs}) == 504\n"
        "reqs = output_gate.local_requests(seeded, 'mult')\n"
        "mats = collections.Counter(r[2] for r in reqs)\n"
        "assert len(reqs) == 504 and len(mats) == 252, (len(reqs), len(mats))\n"
        "assert set(mats.values()) == {2} and all(m.startswith('mult:') for m in mats)\n"
        "for seeded, basis in zip(reqs[::2], reqs[1::2]):\n"
        "    assert seeded[:3] == basis[:3]\n"
        "    e = io.parse_qvec(io.read_text(basis[4])).to_components()\n"
        "    assert sorted(e.ravel().tolist()) == [0.0] * (e.size - 1) + [1.0]\n"
        "assert all(cli.main(r) == 0 for r in reqs[:168])\n")
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", probe, os.path.join(ROOT, "scripts"),
                          str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) >= 4


def test_layer_times_runs_one_round_on_two_checkouts():
    # one worker per side, both on this checkout: every layer is timed
    run = _run_script("layer_times.py", ROOT, ROOT, "--rounds", "1")
    report = json.loads(run.stdout)
    assert (report["seed"], report["rounds"]) == (51, 1)
    assert list(report["layers"]) == ["growth_bounds", "spectral_decomposition",
                                      "spectral_projections", "classify"]
    for layer in report["layers"].values():
        assert layer["base_us"] > 0 and layer["head_us"] > 0
        assert layer["head_wins"] in (0, 1)
