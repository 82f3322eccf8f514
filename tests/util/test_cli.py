"""CLI: the artifact's `<app_binary> <config_file>` workflow."""
import pytest

from repro.cli import main


def test_mesh_generation(tmp_path, capsys):
    out = tmp_path / "duct.dat"
    assert main(["mesh", "--nx", "2", "--ny", "2", "--nz", "3",
                 "--out", str(out)]) == 0
    assert out.exists()
    assert "72 cells" in capsys.readouterr().out
    from repro.mesh import load_mesh
    assert load_mesh(out).n_cells == 72


def test_fempic_run_with_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("""
    # Mini-FEM-PIC laptop run
    nx = 2
    ny = 2
    nz = 6
    n_steps = 3
    plasma_den = 2e3
    n0 = 2e3
    """)
    assert main(["fempic", str(cfgfile)]) == 0
    out = capsys.readouterr().out
    assert "Mini-FEM-PIC: 144 cells, 3 steps" in out
    assert "DepositCharge" in out


def test_fempic_flag_overrides_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("nx = 2\nny = 2\nnz = 6\nn_steps = 9\n"
                       "plasma_den = 2e3\nn0 = 2e3\n")
    assert main(["fempic", str(cfgfile), "--steps", "2",
                 "--move", "dh"]) == 0
    out = capsys.readouterr().out
    assert "2 steps" in out and "move=dh" in out


def test_fempic_vtk_output(tmp_path, capsys):
    assert main(["fempic", "--steps", "2", "--vtk",
                 str(tmp_path / "viz"), "--quiet"]) == 0
    assert (tmp_path / "viz" / "fempic_mesh.vtk").exists()
    assert (tmp_path / "viz" / "fempic_ions.vtk").exists()


def test_cabana_run_and_validate(capsys):
    assert main(["cabana", "--steps", "4", "--ppc", "4"]) == 0
    out = capsys.readouterr().out
    assert "CabanaPIC" in out and "Move_Deposit" in out
    assert main(["cabana", "--steps", "4", "--ppc", "4", "--quiet",
                 "--validate"]) == 0
    assert "validation" in capsys.readouterr().out


def test_cabana_pusher_flag(capsys):
    assert main(["cabana", "--steps", "2", "--ppc", "2",
                 "--pusher", "vay"]) == 0
    assert "pusher=vay" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["warpx"])


@pytest.mark.parametrize("argv", [
    ["fempic", "--backend", "mp"],
    ["cabana", "--backend", "mp"],
    # argparse expands unambiguous prefixes, so "--nwork" reached the
    # retired worker-count flag as surely as its full name did
    ["fempic", "--nwork", "2"],
    ["cabana", "--backend", "vec", "--nwork", "2"],
    ["validate", "--strategy", "default"],
    ["serve", "--backend", "mp"],
])
def test_retired_backend_and_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'mp'" in err or "unrecognized arguments" in err


def test_module_entrypoint(tmp_path):
    import subprocess
    import sys
    out = tmp_path / "m.npz"
    r = subprocess.run([sys.executable, "-m", "repro", "mesh",
                        "--nx", "1", "--ny", "1", "--nz", "2",
                        "--out", str(out)],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert out.exists()


def test_advec_subcommand(capsys):
    assert main(["advec", "--steps", "5", "--flow", "rotation"]) == 0
    out = capsys.readouterr().out
    assert "flow=rotation" in out and "hops" in out


def test_twod_subcommand(capsys):
    assert main(["twod", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "sheet model" in out and "field energy" in out
