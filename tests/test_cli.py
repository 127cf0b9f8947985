"""Command-line interface: flag/config resolution, exit codes, outputs."""
import re
from pathlib import Path

import numpy as np
import pytest

from vibqubit.cli import main
from vibqubit.errors import ResourceError
from vibqubit.scenarios import read_csv_header
from vibqubit.verify import CheckResult


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------------------- run


def test_run_writes_csv(tmp_path):
    out = tmp_path / "zeta.csv"
    code = run_cli(
        "run", "--mode", "single-coherence", "--steps", "4", "--t-max", "80",
        "--out", str(out),
    )
    assert code == 0
    metadata, columns = read_csv_header(str(out))
    assert metadata["mode"] == "single-coherence"
    assert columns == ["t", "eta_kappa_t", "zeta"]
    assert len(out.read_text().splitlines()) == 13 + 1 + 4  # metadata, header, rows


def test_run_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--mode", "tqc", "--steps", "2", "--t-max", "10")
    assert code == 0
    assert (tmp_path / "tqc.csv").exists()


def test_run_requires_a_mode():
    assert run_cli("run", "--steps", "2", "--t-max", "10") == 2


def test_stationary_flag_maps_mode(tmp_path):
    out = tmp_path / "st.csv"
    code = run_cli(
        "run", "--mode", "single-coherence", "--stationary",
        "--steps", "2", "--t-max", "10", "--out", str(out),
    )
    assert code == 0
    metadata, columns = read_csv_header(str(out))
    assert metadata["mode"] == "stationary-single-coherence"
    assert columns[1] == "kappa_t"


def test_stationary_flag_rejected_for_mode_correlation(tmp_path):
    code = run_cli(
        "run", "--mode", "mode-correlation", "--stationary",
        "--steps", "2", "--t-max", "10", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_excited_mode_defaults_to_excited_state(tmp_path):
    out = tmp_path / "exc.csv"
    code = run_cli(
        "run", "--mode", "single-coherence-excited",
        "--steps", "2", "--t-max", "10", "--out", str(out),
    )
    assert code == 0
    metadata, _ = read_csv_header(str(out))
    assert metadata["c_e"].startswith("1.0")
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
    assert float(rows[0].split(",")[2]) == pytest.approx(0.0, abs=1e-12)


def test_unrepresentable_inputs_exit_two(tmp_path):
    out = str(tmp_path / "x.csv")
    assert run_cli("run", "--mode", "single-coherence", "--t-max", "inf",
                   "--steps", "3", "--out", out) == 2
    # exp(-alpha_sq) underflows double precision
    assert run_cli("run", "--mode", "single-coherence", "--alpha-sq", "800",
                   "--steps", "3", "--t-max", "10", "--out", out) == 2
    # a NaN amplitude has no norm
    assert run_cli("run", "--mode", "single-coherence", "--ce=nan,0", "--cg=0,0",
                   "--steps", "3", "--t-max", "10", "--out", out) == 2


def test_ce_requires_cg(tmp_path):
    code = run_cli(
        "run", "--mode", "single-coherence", "--ce", "1,0",
        "--steps", "2", "--t-max", "10", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_malformed_ce_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--mode", "single-coherence", "--ce", "banana",
                "--steps", "2", "--t-max", "10")
    assert err.value.code == 2


# ----------------------------------------------------------------- config file


def test_config_single_section(tmp_path):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out.csv"
    cfg.write_text(
        f"[concurrence]\nalpha_sq = 2\nbeta_sq = 2\nsteps = 3\nt_max = 60\nout = {out}\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 0
    metadata, _ = read_csv_header(str(out))
    assert float(metadata["alpha_sq"]) == 2.0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.ini"
    out = tmp_path / "out.csv"
    cfg.write_text(f"[tqc]\nbeta_sq = 2\nsteps = 3\nt_max = 60\nout = {out}\n")
    assert run_cli("run", "--config", str(cfg), "--beta-sq", "4") == 0
    metadata, _ = read_csv_header(str(out))
    assert float(metadata["beta_sq"]) == 4.0


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = tmp_path / "example.ini"
    cfg.write_text(blocks[0])
    out = tmp_path / "out.csv"
    assert run_cli("run", "--config", str(cfg), "--out", str(out)) == 0
    assert out.exists()


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[tqc]\nbogus = 1\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "[tqc]" in err


def test_config_unknown_section(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[warp-drive]\nsteps = 3\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "warp-drive" in capsys.readouterr().err


def test_config_ambiguous_sections(tmp_path, capsys):
    cfg = tmp_path / "two.ini"
    cfg.write_text("[tqc]\nsteps = 3\n\n[concurrence]\nsteps = 3\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "--mode" in capsys.readouterr().err


def test_config_mode_flag_selects_section(tmp_path):
    cfg = tmp_path / "two.ini"
    out = tmp_path / "out.csv"
    cfg.write_text(
        f"[tqc]\nsteps = 3\nt_max = 30\nout = {out}\n\n"
        f"[concurrence]\nsteps = 4\nt_max = 40\nout = {out}\n"
    )
    assert run_cli("run", "--config", str(cfg), "--mode", "concurrence") == 0
    metadata, _ = read_csv_header(str(out))
    assert metadata["mode"] == "concurrence"
    assert int(metadata["n_steps"]) == 4


def test_config_bad_value_type(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[tqc]\nsteps = many\n")
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "steps" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert run_cli("run", "--config", "/nonexistent/path.ini") == 2


# ----------------------------------------------------------------- plot-script


def test_plot_script_roundtrip(tmp_path):
    csv = tmp_path / "curve.csv"
    assert run_cli("run", "--mode", "single-coherence", "--steps", "3",
                   "--t-max", "30", "--out", str(csv)) == 0
    script = tmp_path / "curve.gp"
    assert run_cli("plot-script", str(csv), "--out", str(script)) == 0
    text = script.read_text()
    assert "set yrange [0:1]" in text
    assert str(csv) in text


def test_plot_script_missing_csv(tmp_path):
    assert run_cli("plot-script", str(tmp_path / "absent.csv")) == 2


def test_plot_script_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,zeta\n0,1\n")
    assert run_cli("plot-script", str(bad), "--mode", "single-coherence") == 2


# ---------------------------------------------------------------------- verify


def canned(name, passed):
    return CheckResult(name=name, passed=passed, measured="x 1.0", bound="<= 2.0", seconds=0.0)


def test_verify_exit_zero_when_all_pass(monkeypatch, capsys):
    monkeypatch.setattr("vibqubit.cli.run_all", lambda profile: [canned("alpha", True)])
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "PASS" in out and "1/1 checks passed" in out


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        "vibqubit.cli.run_all",
        lambda profile: [canned("alpha", True), canned("beta", False)],
    )
    assert run_cli("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1/2 checks passed" in out


def test_verify_passes_tail_tol_through(monkeypatch):
    seen = {}

    def fake_run_all(profile):
        seen["tail_tol"] = profile.tail_tol
        return [canned("alpha", True)]

    monkeypatch.setattr("vibqubit.cli.run_all", fake_run_all)
    assert run_cli("verify", "--tail-tol", "1e-6") == 0
    assert seen["tail_tol"] == 1e-6


def test_verify_resource_exit_code(monkeypatch, capsys):
    def exploding(profile):
        raise ResourceError("too big", required_bytes=10**12, budget_bytes=4 << 30)

    monkeypatch.setattr("vibqubit.cli.run_all", exploding)
    assert run_cli("verify") == 3
    assert "required" in capsys.readouterr().err
