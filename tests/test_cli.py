"""Command-line interface: flags to scenarios, exit codes, outputs."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vibqubit
from vibqubit.cli import build_parser, main
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


def test_calls_in_one_process_are_independent(tmp_path, read_csv):
    # every call of a process parses with the same parser; no flag of one
    # call reaches the next, and a rejected flag leaves the next call as is
    assert build_parser() is build_parser()
    first = ("run", "--mode", "mode-correlation", "--alpha-sq", "2", "--ce", "0.6,0",
             "--cg", "0,0.8", "--steps", "3", "--t-max", "50", "--out")
    assert run_cli(*first, str(tmp_path / "first.csv")) == 0
    assert run_cli("run", "--mode", "tqc", "--steps", "4", "--t-max", "20",
                   "--out", str(tmp_path / "second.csv")) == 0
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--mode", "tqc", "--steps", "many", "--out", str(tmp_path / "bad.csv"))
    assert err.value.code == 2
    assert not (tmp_path / "bad.csv").exists()
    assert run_cli(*first, str(tmp_path / "again.csv")) == 0
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()
    metadata, columns, rows = read_csv(tmp_path / "second.csv")
    defaults = Scenario(mode="tqc")
    assert metadata["alpha_sq"] == f"{defaults.alpha_sq:.8e}"
    assert metadata["c_e"] == f"{defaults.c_e.real:.8e},0.00000000e+00"
    assert columns == ["t", "eta_kappa_t", "value"] and len(rows) == 4
    metadata, columns, rows = read_csv(tmp_path / "first.csv")
    assert metadata["alpha_sq"] == "2.00000000e+00" and metadata["c_g"] == "0.00000000e+00,8.00000000e-01"
    assert columns[2:] == ["n_a", "n_b", "joint", "cross_corr", "g2"] and len(rows) == 3


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
    # theta ~ 1e298 rad: a double holds no phase there
    assert run_cli("run", "--mode", "single-coherence", "--t-max", "1e300",
                   "--steps", "3", "--out", out) == 2
    # a NaN amplitude has no norm
    assert run_cli("run", "--mode", "single-coherence", "--ce=nan,0", "--cg=0,0",
                   "--steps", "3", "--t-max", "10", "--out", out) == 2
    # stationary modes never truncate alpha, so only the check on alpha_sq stops these
    for bad in ("nan", "inf"):
        assert run_cli("run", "--mode", "stationary-concurrence", "--alpha-sq", bad,
                       "--steps", "3", "--out", out) == 2


def test_intensity_past_the_grid_limit_exits_three(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    # past exp(-alpha_sq)'s double-precision limit the windowed grid still runs
    assert run_cli("run", "--mode", "single-coherence", "--alpha-sq", "800",
                   "--steps", "3", "--t-max", "10", "--out", out) == 0
    # about 14,000 levels per mode: 1.6 GB per grid
    assert run_cli("run", "--mode", "single-coherence", "--alpha-sq", "1e6", "--beta-sq", "1e6",
                   "--steps", "3", "--t-max", "10", "--out", out) == 3
    assert "14264 x 14264 levels needs 1627693568 bytes" in capsys.readouterr().err


def test_unwritable_out_exits_two(tmp_path, capsys):
    # a missing directory and a directory: an error line, no traceback, exit 2
    for out, reason in ((tmp_path / "no" / "such" / "x.csv", "No such file or directory"),
                        (tmp_path, "Is a directory")):
        assert run_cli("run", "--mode", "single-coherence", "--steps", "3", "--t-max", "10",
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: {reason}\n"
        assert captured.out == ""
    assert not (tmp_path / "no").exists()


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
    monkeypatch.setattr("vibqubit.verify.run_all", lambda: [canned("alpha", True)])
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "PASS" in out and "1/1 checks passed" in out


def test_verify_exit_one_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(
        "vibqubit.verify.run_all",
        lambda: [canned("alpha", True), canned("beta", False)],
    )
    assert run_cli("verify") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "1/2 checks passed" in out


def test_verify_resource_exit_code(monkeypatch, capsys):
    def exploding():
        raise ResourceError("too big", required_bytes=10**12, budget_bytes=4 << 30)

    monkeypatch.setattr("vibqubit.verify.run_all", exploding)
    assert run_cli("verify") == 3
    assert "required" in capsys.readouterr().err


# ------------------------------------------------------------------ cold start

SRC = str(Path(vibqubit.__file__).resolve().parents[1])

#: fresh-interpreter prelude: `vibqubit.verify` loads as usual, then its
#: run_all is swapped for one canned passing check
STUB_SUITE = """
import importlib.machinery, sys

class StubSuite:
    def find_spec(self, name, path, target=None):
        if name != "vibqubit.verify":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        load = spec.loader.exec_module

        def exec_module(module):
            load(module)
            module.run_all = lambda: [module.CheckResult("alpha", True, "x 1.0", "<= 2.0", 0.0)]

        spec.loader.exec_module = exec_module
        return spec

sys.meta_path.insert(0, StubSuite())
"""


def fresh_modules(tmp_path, code):
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def scipy_modules(names):
    return sorted(n for n in names if n == "scipy" or n.startswith("scipy."))


def test_run_loads_no_scipy(tmp_path):
    # a short sweep walks; one of SPECTRAL_MIN_TIMES steps takes the spectral sums
    names = fresh_modules(tmp_path, (
        "from vibqubit.cli import main\n"
        "from vibqubit.dynamics import SPECTRAL_MIN_TIMES\n"
        "assert main(['run', '--mode', 'single-coherence', '--steps', '21',"
        " '--t-max', '100', '--out', 'x.csv']) == 0\n"
        "for mode in ('concurrence', 'mode-correlation'):\n"
        "    assert main(['run', '--mode', mode, '--steps', str(SPECTRAL_MIN_TIMES),"
        " '--t-max', '2500', '--out', mode + '.csv']) == 0\n"
    ))
    assert all((tmp_path / name).exists() for name in ("x.csv", "concurrence.csv", "mode-correlation.csv"))
    assert "vibqubit.cli" in names
    assert scipy_modules(names) == []


def test_package_import_loads_no_scipy(tmp_path):
    names = fresh_modules(tmp_path, "import vibqubit\n")
    assert "vibqubit" in names
    assert scipy_modules(names) == []


def test_verify_loads_the_suite_on_demand(tmp_path):
    names = fresh_modules(tmp_path, STUB_SUITE + (
        "from vibqubit.cli import main\n"
        "assert 'vibqubit.verify' not in sys.modules\n"
        "assert main(['verify']) == 0\n"
    ))
    assert {"vibqubit.verify", "vibqubit.oracle", "scipy.sparse.linalg"} <= names


def test_time_grid_past_memory_exits_three(tmp_path):
    # 400 million times need 3.2 GB, past a 2 GiB address space: one error
    # line and exit 3, not a traceback and exit 1
    resource = pytest.importorskip("resource")
    limit = 2 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "vibqubit", "run", "--mode", "single-coherence",
         "--steps", "400000000", "--t-max", "100", "--out", "steps.csv"],
        cwd=tmp_path, capture_output=True, text=True, preexec_fn=cap_address_space,
        env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "resource limit: out of memory\n"
    assert not (tmp_path / "steps.csv").exists()
