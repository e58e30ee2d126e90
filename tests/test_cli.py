"""Command-line interface: subcommands, exit codes, deterministic output."""

import io
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import formcalc
from formcalc import cli, meshes
from formcalc.cli import main
from formcalc.cochain import Cochain, cochain_to_csv
from formcalc.parity import Parity
from formcalc.scenarios import SCENARIOS, ScenarioResult, stokes_disk_cochain
from formcalc.simplicial import mesh_to_text


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("FORMCALC_OUTDIR", str(tmp_path))
    return tmp_path


def test_mesh_info(capsys):
    assert main(["mesh-info", "torus"]) == 0
    out = capsys.readouterr().out
    assert "euler characteristic: 0" in out
    assert "orientable: True" in out


def test_mesh_info_from_file(tmp_path, capsys):
    path = tmp_path / "annulus.mesh"
    path.write_text(mesh_to_text(meshes.annulus()))
    assert main(["mesh-info", str(path)]) == 0
    assert "euler characteristic: 0" in capsys.readouterr().out


def test_mesh_info_on_non_pseudo_manifold(tmp_path, capsys):
    # three triangles sharing one edge
    path = tmp_path / "fan.mesh"
    path.write_text("dim 2\nv 0 0\nv 1 0\nv 0 1\nv 1 1\nv -1 1\n"
                    "s 0 1 2\ns 0 1 3\ns 0 1 4\n")
    assert main(["mesh-info", str(path)]) == 0
    captured = capsys.readouterr()
    assert "pseudo-manifold: False" in captured.out
    assert "orientable: False" in captured.out
    assert captured.err == ""


def test_vertex_in_no_simplex_is_a_component(tmp_path, capsys):
    """Every v line is a 0-simplex: a triangle plus a lone vertex has two
    components and Euler characteristic 4 - 3 + 1 = 2."""
    path = tmp_path / "lone.mesh"
    path.write_text("dim 2\nv 0 0\nv 1 0\nv 0 1\nv 5 5\ns 0 1 2\n")
    assert main(["mesh-info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "cells per degree: 4 3 1" in out and "euler characteristic: 2" in out
    assert main(["cohomology", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split() == ["0", "2", "-"]
    assert "euler characteristic: 2" in out


def test_cohomology_table(capsys):
    assert main(["cohomology", "torus"]) == 0
    out = capsys.readouterr().out
    assert "1" in out and "2" in out


def test_integrate_and_parity_error(tmp_path, capsys):
    cx = meshes.mobius_minimal()
    twisted = Cochain(2, tuple(Fraction(1) for _ in cx.simplices[2]),
                      Parity.TWISTED, "exact")
    path = tmp_path / "tw.csv"
    path.write_text(cochain_to_csv(twisted))
    assert main(["integrate", "mobius", str(path)]) == 0
    assert "integral: 5" in capsys.readouterr().out

    straight = Cochain(2, tuple(Fraction(1) for _ in cx.simplices[2]),
                       Parity.STRAIGHT, "exact")
    path2 = tmp_path / "st.csv"
    path2.write_text(cochain_to_csv(straight))
    assert main(["integrate", "mobius", str(path2)]) == 2


def test_stokes_check(tmp_path, capsys):
    cx = meshes.disk()
    path = tmp_path / "omega.csv"
    path.write_text(cochain_to_csv(stokes_disk_cochain(cx)))
    assert main(["stokes-check", "disk", str(path)]) == 0
    out = capsys.readouterr().out
    assert "-7" in out


@pytest.mark.parametrize("mesh", ["disk", "annulus", "sphere", "torus", "mobius"])
def test_stokes_check_float_mode_passes_within_its_tolerance(tmp_path, capsys,
                                                             monkeypatch, mesh):
    """A float cochain's two Stokes sums differ by rounding (on the sphere
    5.55e-17 against 0.0); they pass within 1e-12 * sum |omega|, and only
    by that tolerance."""
    cx = meshes.BUILDERS[mesh]()
    rng = random.Random(5)
    omega = Cochain(1, tuple(rng.random() / 7 for _ in cx.simplices[1]),
                    Parity.TWISTED, "float")
    path = tmp_path / "omega.csv"
    path.write_text(cochain_to_csv(omega))
    assert main(["stokes-check", mesh, str(path)]) == 0
    lhs, rhs = (float(line.split(" = ")[1]) for line in capsys.readouterr().out.splitlines())
    assert lhs != rhs
    monkeypatch.setattr(cli, "STOKES_FLOAT_RTOL", 0.0)
    assert main(["stokes-check", mesh, str(path)]) == 1
    # values whose sums overflow: a verdict, not an OverflowError
    path.write_text(cochain_to_csv(omega.scale(1e308)))
    assert main(["stokes-check", mesh, str(path)]) in (0, 1)


def test_hodge_subcommand(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("n=4 p=2 parity=straight; [0,1]: 1\n")
    assert main(["hodge", str(path), "--metric", "diag(-1,1,1,1)"]) == 0
    out = capsys.readouterr().out
    assert "parity=twisted" in out and "[2,3]: -1" in out


def test_lorentz_subcommand(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("n=4 p=2 parity=straight; [0,1]: 2\n")
    assert main(["lorentz", str(path), "--charge", "3",
                 "--velocity", "1,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "g(force, velocity): 0" in out


def test_lorentz_takes_negative_values_in_the_equals_spelling(tmp_path, capsys):
    # argparse reads "-5/4,..." after a space as an option; "=" keeps it a value
    path = tmp_path / "f.txt"
    path.write_text("n=4 p=2; [0,1]: 2; [2,3]: 3\n")
    assert main(["lorentz", str(path), "--charge=-3/2",
                 "--velocity=-5/4,3/4,0,0"]) == 0
    assert capsys.readouterr().out == (
        "force covector: n=4 p=1 parity=straight; [0]: 9/4; [1]: 15/4\n"
        "force vector: (-9/4, 15/4, 0, 0)\n"
        "g(force, velocity): 0\n")
    with pytest.raises(SystemExit) as info:
        main(["lorentz", str(path), "--velocity", "-5/4,3/4,0,0"])
    assert info.value.code == 2
    assert "--velocity: expected one argument" in capsys.readouterr().err


def test_lorentz_under_a_metric_without_negative_diagonal_entry(tmp_path, capsys):
    # g(v, v) = 2 v0 v1 = -1: a unit timelike velocity, though no g_tt < 0
    path = tmp_path / "f.txt"
    path.write_text("n=2 p=2; [0,1]: 1\n")
    assert main(["lorentz", str(path), "--metric", "0 1; 1 0",
                 "--velocity", "1,-1/2"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ("force covector: n=2 p=1 parity=straight; [0]: 1/2; [1]: 1\n"
                            "force vector: (1, 1/2)\n"
                            "g(force, velocity): 0\n")
    assert captured.err == ""


def test_hodge_under_a_non_diagonal_metric(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("n=3 p=1; [0]: x1; [2]: 1\n")
    assert main(["hodge", str(path), "--metric", "2 1 0; 1 2 0; 0 0 3"]) == 0
    assert capsys.readouterr().out == (
        "n=3 p=2 parity=twisted; [0,1]: 1; [0,2]: x1; [1,2]: 2*x1\n")


def test_hodge_of_one_term_in_24_dimensions_is_quick(monkeypatch, capsys):
    # the tables are built for the index sets of the form, not for all
    # C(24, 12) = 2704156 of its degree
    evens = ",".join(str(i) for i in range(0, 24, 2))
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"n=24 p=12; [{evens}]: 3*x0\n"))
    metric = "diag(-1" + ",1" * 23 + ")"
    start = time.perf_counter()
    assert main(["hodge", "-", "--metric", metric]) == 0
    assert time.perf_counter() - start < 2.0
    odds = ",".join(str(i) for i in range(1, 24, 2))
    assert capsys.readouterr().out == f"n=24 p=12 parity=twisted; [{odds}]: -3*x0\n"


def test_demo_pass_and_unknown(capsys):
    assert main(["demo", "ffwedge-4d"]) == 0
    assert "PASS ffwedge-4d" in capsys.readouterr().out
    assert main(["demo", "all"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines()] == [
        ["PASS", name] for name in SCENARIOS]
    assert "Fraction(" not in out
    with pytest.raises(SystemExit) as info:
        main(["demo", "no-such-demo"])
    assert info.value.code == 2


def test_demo_all_runs_every_id_after_a_failure(monkeypatch, capsys):
    broken = ScenarioResult("broken", False, {"half": Fraction(1, 2)}, "half = 1")
    monkeypatch.setattr(cli, "SCENARIOS",
                        {"broken": lambda: broken, "ffwedge-4d": SCENARIOS["ffwedge-4d"]})
    assert main(["demo", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["FAIL broken  (half = 1/2)", "  claim: half = 1"]
    assert lines[2].startswith("PASS ffwedge-4d")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.mesh"
    bad.write_text("not a mesh\n")
    assert main(["mesh-info", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err


def test_unreadable_input_exit_code(tmp_path, capsys):
    assert main(["mesh-info", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error:")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_maxwell_static_csv_deterministic(outdir, capsys):
    args = ["maxwell-static-b", "--cells", "24", "--current", "2.0",
            "--radii", "3,6"]
    assert main(args) == 0
    first = (outdir / "magnetostatics_circulation.csv").read_bytes()
    assert main(args) == 0
    second = (outdir / "magnetostatics_circulation.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize("args", [
    ["maxwell-static-e", "--cells", "16", "--radii", "3,6", "--charge=1e200"],
    ["maxwell-static-e", "--cells", "16", "--radii", "3,6", "--charge=1e-300"],
    ["maxwell-static-b", "--cells", "32", "--radii", "4,9", "--current=1e200"],
    ["maxwell-static-b", "--cells", "32", "--radii", "4,9", "--current=1e-300"],
], ids=["charge-1e200", "charge-1e-300", "current-1e200", "current-1e-300"])
def test_maxwell_static_at_extreme_source_sizes(outdir, capsys, args):
    """A source whose squares overflow or underflow a float still solves:
    every box returns it to 1e-12."""
    assert main(args) == 0
    out = capsys.readouterr().out
    errors = [float(line.rsplit("relative error ", 1)[1].rstrip(")"))
              for line in out.splitlines() if line.startswith("radius")]
    assert len(errors) == 2 and max(errors) <= 1e-12


def test_maxwell_evolve_writes_diagnostics(outdir, capsys):
    assert main(["maxwell-evolve", "--cells", "16", "--steps", "8"]) == 0
    text = (outdir / "evolution_diagnostics.csv").read_text()
    assert text.startswith("step,time,energy,max_divB")
    assert len(text.strip().splitlines()) == 9


def float_csv(degree: int, parity: str, values) -> str:
    rows = "".join(f"{i},{v}\n" for i, v in enumerate(values))
    return f"# degree={degree} parity={parity} mode=float\nsimplex_index,value\n" + rows


@pytest.mark.parametrize("command, text", [
    ("integrate mobius", "simplex_index,value\n0,1\n"),
    ("integrate mobius", "# parity=straight mode=exact\nsimplex_index,value\n"),
    ("integrate mobius", "# degree=2 parity=sideways mode=exact\n"),
    ("integrate mobius", "# degree=2 parity=twisted mode=exact\n0,one half\n"),
    ("hodge", "n=four p=2; [0,1]: 1\n"),
    ("integrate mobius", "# degree=2 parity=twisted mode=exact\n-1,5\n"),
    ("integrate mobius", "# degree=2 parity=twisted mode=exact\n0,1\n1,1\n"),
    ("stokes-check disk", "# degree=1 parity=twisted mode=exact\n0,1\n"),
    ("hodge", "n=3 p=1; [0]: x-1\n"),
    ("hodge", "n=2 p=1; [0]: 1; [0]: 2\n"),
    ("hodge", "n=3 p=1; [0]: x0^100000000000\n"),
    ("integrate mobius", "# degree=2 parity=twisted mode=exact\n0,1\n1,1\n2,1\n3,1\n4,1\n4,2\n"),
    ("integrate annulus", "# degree=-1 parity=straight mode=exact\nsimplex_index,value\n"),
    ("stokes-check annulus", "# degree=-1 parity=straight mode=exact\nsimplex_index,value\n"),
    ("integrate annulus", "# degree=5 parity=straight mode=exact\n"),
    ("stokes-check annulus", "# degree=5 parity=straight mode=exact\n"),
    ("integrate mobius", "# degree=2 parity=twisted mode=exact\nsimplex_index,value\n3000000,1\n"),
    ("integrate mobius", "# degree=2 parity=twisted mode=exact\n0,1\n1,1\n2,1\n4,1\n"),
    ("integrate mobius", float_csv(2, "twisted", [1, 1, "nan", 1, 1])),
    ("integrate mobius", float_csv(2, "twisted", [1, 1, 1, 1, "inf"])),
    ("integrate mobius", float_csv(2, "twisted", ["-inf", 1, 1, 1, 1])),
    ("stokes-check annulus", float_csv(1, "straight", [0.5] * 15 + ["nan"])),
], ids=["cochain-no-header", "cochain-no-degree", "cochain-unknown-parity",
        "cochain-not-rational", "form-bad-header", "cochain-negative-index",
        "cochain-short-integrate", "cochain-short-stokes", "form-negative-variable",
        "form-repeated-index-set", "form-huge-exponent", "cochain-repeated-index",
        "cochain-negative-degree-integrate", "cochain-negative-degree-stokes",
        "cochain-degree-above-mesh-integrate", "cochain-degree-above-mesh-stokes",
        "cochain-huge-index", "cochain-index-gap", "cochain-nan-integrate",
        "cochain-inf-integrate", "cochain-minus-inf-integrate", "cochain-nan-stokes"])
def test_malformed_input_is_parse_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    start = time.perf_counter()
    assert main(command.split() + [str(path)]) == 3
    # refused before any work proportional to a simplex_index
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("parse error:")


@pytest.mark.parametrize("command", ["maxwell-evolve", "maxwell-static-e",
                                     "maxwell-static-b"])
def test_nonpositive_cells_is_usage_error(outdir, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--cells", "0"])
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ["maxwell-evolve", "--cells", "4", "--steps", "-1"],
    ["maxwell-static-e", "--cells", "4", "--radii", "2,x"],
    ["maxwell-static-b", "--cells", "4", "--radii", "2,x"],
    ["integrate", "mobius", "unused.csv", "--parity", "twisted"],
], ids=["evolve-negative-steps", "static-e-bad-radii", "static-b-bad-radii",
        "integrate-no-parity-option"])
def test_malformed_argument_is_usage_error(outdir, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2


def test_maxwell_evolve_zero_steps_is_one_period(outdir, capsys):
    assert main(["maxwell-evolve", "--cells", "16", "--steps", "0"]) == 0
    steps = int(capsys.readouterr().out.split()[1])
    rows = (outdir / "evolution_diagnostics.csv").read_text().strip().splitlines()
    assert steps > 0 and len(rows) == steps + 1


@pytest.mark.parametrize("argv", [
    ["maxwell-static-e", "--cells", "4", "--charge", "0"],
    ["maxwell-static-b", "--cells", "4", "--current", "0"],
    ["maxwell-static-e", "--cells", "4", "--tol", "-1"],
    ["maxwell-static-b", "--cells", "4", "--tol", "-1"],
    ["hodge", "FORM", "--metric", "diag(1,x)"],
    ["hodge", "FORM", "--metric", ";"],
    ["lorentz", "FORM", "--velocity", "1,0,0,0", "--metric", "hodge"],
    ["lorentz", "FORM", "--velocity", "1,a,0,0"],
], ids=["static-e-zero-charge", "static-b-zero-current", "static-e-negative-tol",
        "static-b-negative-tol", "hodge-bad-metric", "hodge-empty-metric",
        "lorentz-bad-metric",
        "lorentz-bad-velocity"])
def test_bad_argument_value_is_usage_error(tmp_path, outdir, capsys, argv):
    form = tmp_path / "form.txt"
    form.write_text("n=4 p=2 parity=straight; [0,1]: 1\n")
    with pytest.raises(SystemExit) as info:
        main([str(form) if a == "FORM" else a for a in argv])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1


@pytest.mark.parametrize("argv", [
    ["maxwell-static-e", "--cells", "4", "--radii", "50"],
    ["maxwell-static-b", "--cells", "4", "--radii", "1,50"],
    ["maxwell-static-e", "--cells", "8", "--radii", "4"],
    ["maxwell-static-b", "--cells", "8", "--radii", "4"],
], ids=["static-e-cells-4", "static-b-cells-4", "static-e-whole-grid",
        "static-b-whole-grid"])
def test_box_reaching_grounded_boundary_is_usage_error(outdir, capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "flux" not in captured.out and "circulation" not in captured.out


@pytest.mark.parametrize("argv, csv_name", [
    (["maxwell-static-e", "--cells", "2", "--radii", "0", "--charge", "3.0"],
     "electrostatics_flux.csv"),
    (["maxwell-static-b", "--cells", "2", "--radii", "0", "--current", "3.0"],
     "magnetostatics_circulation.csv"),
], ids=["static-e", "static-b"])
def test_two_cell_grid_recovers_its_source(outdir, capsys, argv, csv_name):
    """Two cells per axis leave a single free node, the center."""
    assert main(argv) == 0
    rows = (outdir / csv_name).read_text().strip().splitlines()
    radius, value = rows[1].split(",")
    assert radius == "0" and abs(float(value) - 3.0) <= 1e-12 * 3.0


def test_largest_box_inside_grounded_boundary_runs(outdir, capsys):
    assert main(["maxwell-static-e", "--cells", "8", "--radii", "3"]) == 0
    assert main(["maxwell-static-b", "--cells", "8", "--radii", "3"]) == 0


@pytest.mark.parametrize("argv, field", [
    (["hodge", "FORM", "--metric", "diag(1,1)"], "n=4 p=2 parity=straight; [0,1]: 1\n"),
    (["lorentz", "FORM", "--velocity", "1,0"], "n=4 p=2 parity=straight; [0,1]: 2\n"),
    (["lorentz", "FORM", "--velocity", "1,0,0,0"], "n=3 p=2 parity=straight; [0,1]: 2\n"),
    # the arguments fit the metric's dimension but not the Lorentz force
    (["lorentz", "FORM", "--velocity", "0,1,0,0"], "n=4 p=2 parity=straight; [0,1]: 2\n"),
    (["lorentz", "FORM", "--velocity", "2,0,0,0"], "n=4 p=2 parity=straight; [0,1]: 2\n"),
    (["lorentz", "FORM", "--velocity", "0,0,0,0"], "n=4 p=2 parity=straight; [0,1]: 2\n"),
    (["lorentz", "FORM", "--velocity", "1,0,0,0"], "n=4 p=1 parity=straight; [0]: 2\n"),
    (["lorentz", "FORM", "--velocity", "1,0,0,0", "--metric", "diag(-1,-1,1,1)"],
     "n=4 p=2 parity=straight; [0,1]: 2\n"),
    (["hodge", "FORM", "--metric", "diag(2,1,1)"], "n=3 p=1 parity=straight; [0]: 1\n"),
    (["stokes-check", "disk", "FORM"],
     "# degree=2 parity=twisted mode=exact\n" + "".join(f"{i},1\n" for i in range(8))),
    (["integrate", "disk", "FORM"],
     "# degree=1 parity=twisted mode=exact\n" + "".join(f"{i},1\n" for i in range(16))),
    (["lorentz", "FORM", "--velocity", "1,0,0,0"], "n=4 p=2; [0,1]: x1\n"),
    (["lorentz", "FORM", "--velocity", "1,0,0,0", "--metric", "diag(1,1,1,1)"],
     "n=4 p=2 parity=straight; [0,1]: 2\n"),
], ids=["hodge-metric", "lorentz-velocity", "lorentz-field", "lorentz-not-timelike",
        "lorentz-not-unit", "lorentz-zero-velocity", "lorentz-one-form-field",
        "lorentz-two-time-axes", "hodge-irrational-volume", "stokes-top-cochain",
        "integrate-edge-cochain", "lorentz-nonconstant-field", "lorentz-riemannian"])
def test_dimension_mismatch_is_usage_error(tmp_path, capsys, argv, field):
    form = tmp_path / "form.txt"
    form.write_text(field)
    assert main([str(form) if a == "FORM" else a for a in argv]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert captured.out == ""


def test_cli_and_solvers_never_import_scipy(tmp_path):
    """The runtime needs numpy and the standard library only: in a fresh
    interpreter, the CLI, a statics solve, Betti numbers and an exactness
    test load no SciPy module (importing SciPy would double the start-up
    of every run).  Nor do they load ``concurrent.futures``, whose import
    of ``logging`` costs about 10 ms: ``evolve_leapfrog`` imports its
    thread pool when it makes one."""
    code = ("import sys\n"
            "from formcalc import cli, maxwell, meshes\n"
            "from formcalc.cochain import Cochain, coboundary\n"
            "from formcalc.cohomology import betti_numbers, is_exact\n"
            "assert cli.main(['maxwell-static-e', '--cells', '8', '--radii', '1,3']) == 0\n"
            "cx = meshes.uniform_refine(meshes.annulus())\n"
            "assert betti_numbers(cx).betti == (1, 1, 0)\n"
            "f = Cochain(0, tuple(range(cx.num_simplices(0))))\n"
            "assert is_exact(coboundary(f, cx), cx)['exact']\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'\n"
            "             or m in ('concurrent.futures', 'logging')))\n")
    src = os.path.dirname(os.path.dirname(formcalc.__file__))
    env = dict(os.environ, PYTHONPATH=src, FORMCALC_OUTDIR=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"
