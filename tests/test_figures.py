"""The figure script: one CSV and one gnuplot script per curve."""
import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_figures.py"


def test_figure_script_writes_every_curve(tmp_path):
    main = runpy.run_path(str(SCRIPT))["main"]
    out = tmp_path / "figures"
    assert main(["--out-dir", str(out), "--steps", "21", "--beta-sq", "1"]) == 0
    # 5 vibrating modes and 4 stationary ones, one intensity each
    assert len(list(out.glob("*.csv"))) == 9
    assert len(list(out.glob("*.csv.gp"))) == 9
