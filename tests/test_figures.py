"""The figure script: one CSV and one gnuplot script per curve."""
import runpy
from pathlib import Path

import pytest

from vibqubit.cli import main as cli_main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    module = runpy.run_path(str(SCRIPT))
    out = tmp_path_factory.mktemp("figures")
    assert module["main"](["--out-dir", str(out), "--steps", "21", "--beta-sq", "1"]) == 0
    return module, out


def test_figure_script_writes_every_curve(figures):
    _, out = figures
    # 5 vibrating modes and 4 stationary ones, one intensity each
    assert len(list(out.glob("*.csv"))) == 9
    assert len(list(out.glob("*.csv.gp"))) == 9


@pytest.mark.parametrize("mode", ["single-coherence-excited", "stationary-single-coherence-excited"])
def test_excited_curves_start_in_the_excited_state(figures, mode, tmp_path, read_csv):
    module, out = figures
    csv = out / f"{mode}-beta1.csv"
    metadata, _, rows = read_csv(csv)
    assert metadata["c_e"] == "1.00000000e+00,0.00000000e+00"
    assert metadata["c_g"] == "0.00000000e+00,0.00000000e+00"
    assert rows[0][2] == 0.0  # zeta(0) of |e>

    stationary = mode.startswith("stationary-")
    t_max = module["STATIONARY_T_MAX"] if stationary else 2500.0
    steps = module["STATIONARY_STEPS"] if stationary else 21
    reference = tmp_path / "cli.csv"
    assert cli_main(["run", "--mode", mode, "--alpha-sq", "1", "--beta-sq", "1",
                     "--t-max", repr(t_max), "--steps", str(steps), "--out", str(reference)]) == 0
    assert csv.read_bytes() == reference.read_bytes()
