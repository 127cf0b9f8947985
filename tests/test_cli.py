"""Command-line interface: flags to scenarios, exit codes, outputs."""
import pytest

from vibqubit.cli import main
from vibqubit.errors import ParameterError, ResourceError
from vibqubit.scenarios import Scenario
from vibqubit.verify import CheckResult


def run_cli(*argv):
    return main(list(argv))


# ------------------------------------------------------------------------- run


def test_run_writes_csv(tmp_path, read_csv):
    out = tmp_path / "zeta.csv"
    code = run_cli(
        "run", "--mode", "single-coherence", "--steps", "4", "--t-max", "80",
        "--out", str(out),
    )
    assert code == 0
    metadata, columns, _ = read_csv(out)
    assert metadata["mode"] == "single-coherence"
    assert columns == ["t", "eta_kappa_t", "zeta"]
    assert len(out.read_text().splitlines()) == 13 + 1 + 4  # metadata, header, rows


def test_run_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run_cli("run", "--mode", "tqc", "--steps", "2", "--t-max", "10")
    assert code == 0
    assert (tmp_path / "tqc.csv").exists()


def test_run_requires_a_mode():
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--steps", "2", "--t-max", "10")
    assert err.value.code == 2


def test_stationary_flag_maps_mode(tmp_path, read_csv):
    out = tmp_path / "st.csv"
    code = run_cli(
        "run", "--mode", "stationary-single-coherence",
        "--steps", "2", "--t-max", "10", "--out", str(out),
    )
    assert code == 0
    metadata, columns, _ = read_csv(out)
    assert metadata["mode"] == "stationary-single-coherence"
    assert columns[1] == "kappa_t"


def test_stationary_flag_rejected_for_mode_correlation(tmp_path):
    # the vibrational mode is essential to mode-correlation: no stationary variant
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--mode", "stationary-mode-correlation",
                "--steps", "2", "--t-max", "10", "--out", str(tmp_path / "x.csv"))
    assert err.value.code == 2


def test_excited_mode_defaults_to_excited_state(tmp_path, read_csv):
    out = tmp_path / "exc.csv"
    code = run_cli(
        "run", "--mode", "single-coherence-excited",
        "--steps", "2", "--t-max", "10", "--out", str(out),
    )
    assert code == 0
    metadata, _, rows = read_csv(out)
    assert metadata["c_e"].startswith("1.0")
    assert rows[0][2] == pytest.approx(0.0, abs=1e-12)
    # an excited mode takes no other initial state
    assert run_cli("run", "--mode", "single-coherence-excited", "--ce=0.6,0", "--cg=0.8,0",
                   "--steps", "2", "--t-max", "10", "--out", str(out)) == 2


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
    # stationary modes never truncate alpha, so only the check on alpha_sq stops these
    for bad in ("nan", "inf"):
        assert run_cli("run", "--mode", "stationary-concurrence", "--alpha-sq", bad,
                       "--steps", "3", "--out", out) == 2


def test_ce_requires_cg(tmp_path):
    code = run_cli(
        "run", "--mode", "single-coherence", "--ce", "1,0",
        "--steps", "2", "--t-max", "10", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    with pytest.raises(ParameterError):
        Scenario(mode="single-coherence", c_e=1)


def test_malformed_ce_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--mode", "single-coherence", "--ce", "banana",
                "--steps", "2", "--t-max", "10")
    assert err.value.code == 2


# ---------------------------------------------------------------------- verify


def canned(name, passed):
    return CheckResult(name=name, passed=passed, measured="x 1.0", bound="<= 2.0", seconds=0.0)


def test_verify_exit_zero_when_all_pass(monkeypatch, capsys):
    monkeypatch.setattr("vibqubit.cli.run_all", lambda: [canned("alpha", True)])
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "PASS" in out and "1/1 checks passed" in out


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        "vibqubit.cli.run_all",
        lambda: [canned("alpha", True), canned("beta", False)],
    )
    assert run_cli("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1/2 checks passed" in out


def test_verify_resource_exit_code(monkeypatch, capsys):
    def exploding():
        raise ResourceError("too big", required_bytes=10**12, budget_bytes=4 << 30)

    monkeypatch.setattr("vibqubit.cli.run_all", exploding)
    assert run_cli("verify") == 3
    assert "required" in capsys.readouterr().err
