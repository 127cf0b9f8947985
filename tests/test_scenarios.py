"""Scenario sweeps: determinism, CSV format, per-mode columns."""
import math

import numpy as np
import pytest

from vibqubit import ParameterError
from vibqubit.scenarios import (
    ALL_MODES,
    Scenario,
    emit_plot_script,
    read_csv_header,
    render_csv,
    run_scenario,
    stationary_variant,
    write_csv,
)

HALF = 2.0**-0.5


def small(mode, **kw):
    kw.setdefault("n_steps", 5)
    kw.setdefault("t_max", 100.0)
    return Scenario(mode=mode, **kw)


# -------------------------------------------------------------------- scenarios


def test_all_modes_run():
    for mode in ALL_MODES:
        rows = run_scenario(small(mode))
        assert len(rows) == 5
        columns = Scenario(mode=mode).columns()
        assert all(len(row) == len(columns) for row in rows)


def test_time_grid_is_exact():
    s = small("single-coherence", n_steps=11, t_max=50.0)
    rows = run_scenario(s)
    for i, row in enumerate(rows):
        assert row[0] == pytest.approx(i * 50.0 / 10.0, abs=1e-12)


def test_dimensionless_axis():
    vib = run_scenario(small("single-coherence", eta=0.02, kappa=1.0))
    assert vib[-1][1] == pytest.approx(0.02 * 100.0)
    stat = run_scenario(small("stationary-single-coherence", eta=0.02, kappa=1.0))
    assert stat[-1][1] == pytest.approx(100.0)


def test_first_row_anchors():
    zeta = run_scenario(small("single-coherence"))[0]
    assert zeta[2] == pytest.approx(1.0, abs=1e-12)

    excited = run_scenario(small("single-coherence-excited", c_e=1.0, c_g=0.0))[0]
    assert excited[2] == pytest.approx(0.0, abs=1e-12)

    corr = run_scenario(small("mode-correlation"))[0]
    assert corr[5] == pytest.approx(0.0, abs=1e-12)

    # the two-qubit rows go through the truncated process matrices, which
    # cost one tail mass each; the rendered value still reads 1.000000
    bell = run_scenario(small("concurrence"))[0]
    assert bell[2] == pytest.approx(1.0, abs=1e-9)

    tqc = run_scenario(small("tqc"))[0]
    assert tqc[2] == pytest.approx(1.0, abs=1e-9)


def test_g2_column_is_nan_when_undefined():
    rows = run_scenario(small("mode-correlation", alpha_sq=0.0, beta_sq=0.0, c_e=1.0, c_g=0.0))
    assert math.isnan(rows[0][6])  # both modes empty at t = 0
    assert not math.isnan(rows[1][6])


def test_worker_counts_agree():
    base = small("concurrence", n_steps=9)
    rows1 = run_scenario(base)
    rows3 = run_scenario(base, workers=3)
    assert rows1 == rows3


def test_scenario_validation():
    with pytest.raises(ParameterError):
        Scenario(mode="nonsense")
    with pytest.raises(ParameterError):
        Scenario(mode="tqc", n_steps=1)
    with pytest.raises(ParameterError):
        Scenario(mode="tqc", t_max=0.0)
    with pytest.raises(ParameterError):
        Scenario(mode="single-coherence", t_max=math.inf)
    with pytest.raises(ParameterError):
        Scenario(mode="tqc", mu=1.5)
    with pytest.raises(ParameterError):
        Scenario(mode="tqc", bell_kind="chi")
    with pytest.raises(ParameterError):
        Scenario(mode="tqc", alpha_sq=-1.0)
    with pytest.raises(ParameterError):
        run_scenario(small("tqc"), workers=0)
    with pytest.raises(ParameterError):
        Scenario(mode="single-coherence", c_e=1.0, c_g=1.0)


def test_stationary_variant_mapping():
    assert stationary_variant("single-coherence") == "stationary-single-coherence"
    assert stationary_variant("stationary-tqc") == "stationary-tqc"
    with pytest.raises(ParameterError):
        stationary_variant("mode-correlation")


def test_upsilon_complements_mu():
    s = small("concurrence", mu=0.6)
    assert s.upsilon == pytest.approx(0.8)


# -------------------------------------------------------------------------- CSV


def test_csv_reruns_are_byte_identical(tmp_path):
    s = small("single-coherence")
    text1 = render_csv(s, run_scenario(s))
    text2 = render_csv(s, run_scenario(s))
    assert text1 == text2


def test_csv_identical_across_worker_counts(tmp_path):
    s = small("mode-correlation")
    rows = {workers: render_csv(s, run_scenario(s, workers)) for workers in (1, 2, 4)}
    assert rows[1] == rows[2] == rows[4]


def test_csv_metadata_carries_full_parameter_set(tmp_path):
    s = small("tqc", alpha_sq=2.0, beta_sq=3.0, mu=0.6)
    path = tmp_path / "out.csv"
    write_csv(s, run_scenario(s), str(path))
    metadata, columns = read_csv_header(str(path))
    assert metadata["mode"] == "tqc"
    assert float(metadata["alpha_sq"]) == 2.0
    assert float(metadata["beta_sq"]) == 3.0
    assert float(metadata["mu"]) == 0.6
    assert float(metadata["upsilon"]) == pytest.approx(0.8)
    assert metadata["bell"] == "phi"
    assert float(metadata["eta"]) == 0.02
    assert float(metadata["kappa"]) == 1.0
    assert float(metadata["t_max"]) == 100.0
    assert int(metadata["n_steps"]) == 5
    assert float(metadata["tail_tol"]) == 1e-12
    assert "c_e" in metadata and "c_g" in metadata
    assert columns == ["t", "eta_kappa_t", "value"]
    # worker count and output path must not leak into the bytes
    assert "workers" not in metadata and "out" not in metadata


def test_csv_numeric_format():
    s = small("single-coherence")
    text = render_csv(s, run_scenario(s))
    first_data = text.splitlines()[-1].split(",")
    for field in first_data:
        mantissa, _, exponent = field.partition("e")
        assert len(mantissa.lstrip("-").replace(".", "")) == 9


def test_columns_per_mode():
    assert Scenario(mode="single-coherence").columns() == ("t", "eta_kappa_t", "zeta")
    assert Scenario(mode="stationary-single-coherence").columns() == ("t", "kappa_t", "zeta")
    assert Scenario(mode="mode-correlation").columns() == (
        "t", "eta_kappa_t", "n_a", "n_b", "joint", "cross_corr", "g2",
    )
    assert Scenario(mode="concurrence").columns() == ("t", "eta_kappa_t", "value")


def test_read_csv_header_errors(tmp_path):
    with pytest.raises(ParameterError):
        read_csv_header(str(tmp_path / "missing.csv"))
    empty = tmp_path / "empty.csv"
    empty.write_text("# mode = tqc\n")
    with pytest.raises(ParameterError):
        read_csv_header(str(empty))


# ------------------------------------------------------------------ plot script


def test_plot_script_generation(tmp_path):
    for mode in ("single-coherence", "mode-correlation", "concurrence", "tqc"):
        s = small(mode)
        path = tmp_path / f"{mode}.csv"
        write_csv(s, run_scenario(s), str(path))
        script = emit_plot_script(str(path))
        assert "set datafile separator ','" in script
        assert str(path) in script
    # y-range pinned to [0, 1] for coherence and concurrence curves
    for mode in ("single-coherence", "concurrence"):
        script = emit_plot_script(str(tmp_path / f"{mode}.csv"))
        assert "set yrange [0:1]" in script
    corr_script = emit_plot_script(str(tmp_path / "mode-correlation.csv"))
    assert "using 2:6" in corr_script  # cross_corr column


def test_plot_script_rejects_mismatched_mode(tmp_path):
    s = small("single-coherence")
    path = tmp_path / "zeta.csv"
    write_csv(s, run_scenario(s), str(path))
    with pytest.raises(ParameterError):
        emit_plot_script(str(path), mode="mode-correlation")
