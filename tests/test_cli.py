import json

import numpy as np
import pytest

from matchlab import analysis
from matchlab.cli import main
from matchlab.core import load_report, save_instance
from matchlab.instances import worked_example


@pytest.fixture
def table1_file(tmp_path):
    path = tmp_path / "table1.json"
    save_instance(str(path), worked_example())
    return str(path)


class TestSolveCommand:
    def test_table1(self, table1_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--instance", table1_file, "--out", str(out)])
        assert code == 0
        data = json.loads((out / "solution.json").read_text())
        assert np.allclose(data["utilities"], [1, 2, 1], atol=1e-8)
        meta = data["metadata"]
        assert {"instance_hash", "seed", "tol", "version"} <= set(meta)

    def test_restricted_agents(self, table1_file, capsys):
        code = main(["solve", "--instance", table1_file, "--agents", "a,b"])
        assert code == 0
        assert "1.5" in capsys.readouterr().out

    def test_missing_file_exit_1(self, capsys):
        code = main(["solve", "--instance", "/no/such/file.json"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_solver_failure_exit_2(self, capsys):
        # An unreachable tolerance on a generic instance (whose optimum is
        # irrational, so the certificate residual cannot be exactly zero).
        code = main(["solve", "--gen", "random:6", "--seed", "4",
                     "--tol", "1e-300"])
        assert code == 2
        assert "solver error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_1(self, tol, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--gen", "random:5", "--seed", "0", "--tol", tol,
                     "--out", str(out)])
        assert code == 1
        assert "tol must be finite" in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    def test_non_finite_env_tol_exit_1(self, monkeypatch, capsys):
        monkeypatch.setenv("MATCHLAB_TOL", "nan")
        assert main(["solve", "--gen", "random:5", "--seed", "0"]) == 1

    def test_non_numeric_env_tol_exit_1(self, monkeypatch, capsys):
        monkeypatch.setenv("MATCHLAB_TOL", "abc")
        assert main(["solve", "--gen", "random:3", "--seed", "0"]) == 1
        assert "MATCHLAB_TOL is not a number: 'abc'" in capsys.readouterr().err

    def test_trace_written(self, table1_file, tmp_path):
        out = tmp_path / "o"
        code = main(["solve", "--instance", table1_file, "--out", str(out),
                     "--trace"])
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,mu"
        assert len(lines) > 2

    def test_trace_header_names_mu_on_the_primal_dual_path(self, tmp_path):
        # 13 x 13 = 169 pairs: the third column holds mu.
        out = tmp_path / "o"
        code = main(["solve", "--gen", "random:13", "--seed", "1", "--out", str(out),
                     "--trace"])
        assert code == 0
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,objective,mu"
        assert len(lines) > 2


class TestMechCommand:
    def test_rsd_worst_exact(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["mech", "rsd", "--gen", "rsd-worst:5,0.001", "--exact",
                     "--seed", "3", "--out", str(out)])
        assert code == 0
        rep = load_report(str(out / "mech_rsd.json"))
        assert rep.ratios is not None
        assert max(rep.ratios) == pytest.approx(5.0, rel=0.02)

    def test_rsd_zero_samples_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["mech", "rsd", "--gen", "random:4", "--seed", "0",
                     "--samples", "0", "--out", str(out)])
        assert code == 1
        assert not (out / "mech_rsd.json").exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_rpi_reps_below_one_exit_1(self, reps, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["mech", "rpi", "--gen", "random:4", "--seed", "0",
                     "--reps", reps, "--out", str(out)])
        assert code == 1
        assert "--reps must be at least 1" in capsys.readouterr().err
        assert not (out / "mech_rpi.json").exists()

    def test_ps_single_agent(self, capsys):
        code = main(["mech", "ps", "--gen", "random:1", "--seed", "0"])
        assert code == 0

    def test_rpi_with_reps(self, tmp_path):
        out = tmp_path / "o"
        code = main(["mech", "rpi", "--gen", "random:5", "--seed", "1",
                     "--reps", "25", "--out", str(out)])
        assert code == 0
        rep = load_report(str(out / "mech_rpi.json"))
        assert "mean_utilities" in rep.metadata
        assert "stderr" in rep.metadata
        assert len(rep.metadata["mean_utilities"]) == 5

    def test_rpi_reps_pass_tol_and_label_sources(self, tmp_path, monkeypatch):
        tols = []
        real_run = analysis.rpi_run

        def rpi_run(*args, **kwargs):
            tols.append(kwargs["tol"])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(analysis, "rpi_run", rpi_run)
        out = tmp_path / "o"
        code = main(["mech", "rpi", "--gen", "random:5", "--seed", "1",
                     "--reps", "3", "--tol", "1e-9", "--out", str(out)])
        assert code == 0
        assert tols == [1e-9] * 3
        meta = load_report(str(out / "mech_rpi.json")).metadata
        assert meta["probs_source"] == "single draw at seed 1"
        assert meta["utilities_source"] == "mean over 3 draws"

    def test_lottery_attached(self, table1_file, tmp_path):
        out = tmp_path / "o"
        code = main(["mech", "ps", "--instance", table1_file, "--seed", "0",
                     "--lottery", "--out", str(out)])
        assert code == 0
        rep = load_report(str(out / "mech_ps.json"))
        assert len(rep.metadata["lottery"]) >= 1


class TestRhoCommand:
    def test_single_instance(self, table1_file, capsys):
        code = main(["rho", "--instance", table1_file])
        assert code == 0
        assert "1.33333333" in capsys.readouterr().out

    def test_scan(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["rho", "--gen", "random:3", "--trials", "4",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        scan = json.loads((out / "rho_scan.json").read_text())
        assert scan["trials"] == 4
        assert scan["skipped_pairs"] == 0
        assert "0 degenerate (subset, agent) pairs skipped" in capsys.readouterr().out
        hist = (out / "rho_hist.csv").read_text().splitlines()
        assert hist[0] == "bin_left,bin_right,count"


    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_below_one_exit_1(self, trials, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["rho", "--gen", "random:4", "--seed", "0",
                     "--trials", trials, "--out", str(out)])
        assert code == 1
        assert "--trials must be at least 1" in capsys.readouterr().err
        assert not (out / "rho.json").exists()
        assert not (out / "rho_scan.json").exists()


class TestAuditCommand:
    def test_pa(self, capsys):
        code = main(["audit", "pa", "--gen", "random:3", "--seed", "3",
                     "--misreports", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "worst gain" in out

    @pytest.mark.parametrize("command,shown", [
        pytest.param("mech", "max ratio 1", id="mech"),
        pytest.param("audit", "worst gain 0.000e+00", id="audit")])
    def test_pa_single_agent(self, command, shown, capsys):
        # One agent: PA gives her the whole share, and no misreport gains.
        code = main([command, "pa", "--gen", "random:1", "--seed", "0"])
        assert code == 0
        assert shown in capsys.readouterr().out

    def test_zero_misreports_exit_1(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["audit", "pa", "--gen", "random:3", "--seed", "3",
                     "--misreports", "0", "--out", str(out)])
        assert code == 1
        assert not (out / "audit_pa.json").exists()


class TestLowerboundCommand:
    def test_certify_bundle(self, tmp_path, capsys):
        out = tmp_path / "lb"
        code = main(["lowerbound", "--s", "1", "--certify", "--out",
                     str(out)])
        assert code == 0
        certs = json.loads((out / "certificates.json").read_text())
        assert all(c["residual"] <= 1e-9 for c in certs)
        assert (out / "params.json").exists()


class TestGenCommand:
    def test_deterministic_output(self, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "random:3,grid,2", "--seed", "7",
                     "--out-file", str(f1)]) == 0
        assert main(["gen", "random:3,grid,2", "--seed", "7",
                     "--out-file", str(f2)]) == 0
        assert f1.read_text() == f2.read_text()

    @pytest.mark.parametrize("argv", [["gen", "random:3,grid,inf", "--out-file"],
                                      ["solve", "--gen", "random:3,grid,1e400", "--out"],
                                      ["gen", "random:5,grid,2.5", "--out-file"]],
                             ids=["gen-inf", "solve-1e400", "gen-2.5"])
    def test_bad_grid_resolution_exit_1(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([*argv, str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grid resolution" in err
        assert "Traceback" not in err and not out.exists()


class TestDecomposeCommand:
    def test_three_cycle(self, tmp_path, capsys):
        probs = tmp_path / "p.json"
        probs.write_text(json.dumps(
            {"probs": [[0.5, 0.5, 0], [0.5, 0, 0.5], [0, 0.5, 0.5]]}))
        out = tmp_path / "o"
        code = main(["decompose", "--probs", str(probs), "--seed", "1",
                     "--sample", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "lottery.json").read_text())
        assert len(data["terms"]) == 2

    def test_bad_json_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["decompose", "--probs", str(bad)]) == 1

    @pytest.mark.parametrize("entry", ["NaN", "-0.5"])
    def test_invalid_entry_exit_1(self, tmp_path, capsys, entry):
        # json reads NaN as a float; neither entry is clipped to zero.
        probs = tmp_path / "p.json"
        probs.write_text(f'{{"probs": [[{entry}, 1], [1, 0]]}}')
        out = tmp_path / "o"
        assert main(["decompose", "--probs", str(probs), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "lottery.json").exists()


class TestEnvTol:
    def test_env_override(self, table1_file, monkeypatch, tmp_path):
        monkeypatch.setenv("MATCHLAB_TOL", "1e-5")
        out = tmp_path / "o"
        code = main(["solve", "--instance", table1_file, "--out", str(out)])
        assert code == 0
        data = json.loads((out / "solution.json").read_text())
        assert data["metadata"]["tol"] == 1e-5
