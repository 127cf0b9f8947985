"""Scenario sweeps: determinism, CSV format, per-mode columns."""
import math

import numpy as np
import pytest

from vibqubit import ParameterError, dynamics
from vibqubit.fock import TAIL_TOL, windowed_amplitudes
from vibqubit.scenarios import (
    ALL_MODES,
    Scenario,
    emit_plot_script,
    render_csv,
    run_scenario,
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
        table = run_scenario(small(mode))
        assert isinstance(table, np.ndarray) and table.dtype == float
        assert table.shape == (5, len(Scenario(mode=mode).columns()))


def test_pairs_conserved_past_the_old_intensity_limit():
    # a and b are created and destroyed in pairs, so <n_a> - <n_b> keeps its
    # initial value, which the truncation tails move by at most (n_max + 1) tail
    s = small("mode-correlation", alpha_sq=2000.0, beta_sq=1.0, t_max=60.0)
    wa, wb = (windowed_amplitudes(x, TAIL_TOL) for x in (s.alpha_sq, s.beta_sq))
    assert wa.n_min > 0
    tol = sum((w.n_max + 1) * w.tail_mass / (1 - w.tail_mass) for w in (wa, wb))
    rows = run_scenario(s)
    assert np.all(np.isfinite(rows))
    drift = rows[:, 2] - rows[:, 3] - (s.alpha_sq - s.beta_sq)
    assert np.max(np.abs(drift)) <= tol + 64 * np.finfo(float).eps * s.alpha_sq


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


def chunked(mode):
    """A scenario whose default chunks each hold many times, short enough
    to be walked."""
    amplitudes = {} if mode.endswith("-excited") else {"c_e": 0.6, "c_g": 0.8j}
    assert 301 < dynamics.SPECTRAL_MIN_TIMES
    return Scenario(mode=mode, alpha_sq=1.0, beta_sq=4.0, n_steps=301, t_max=900.0,
                    **amplitudes)


def test_rows_identical_across_chunk_lengths(monkeypatch):
    default = {mode: run_scenario(chunked(mode)) for mode in ALL_MODES}
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 1)  # one time per chunk
    for mode in ALL_MODES:
        assert run_scenario(chunked(mode)).tobytes() == default[mode].tobytes(), mode


def test_scenario_validation():
    with pytest.raises(ParameterError):
        Scenario(mode="nonsense")
    with pytest.raises(ParameterError):
        Scenario(mode="tqc", n_steps=1)
    # a step count must be an integer: 2.5 used to give rows past t_max
    for bad in (2.5, math.nan, "5"):
        with pytest.raises(ParameterError):
            Scenario(mode="single-coherence", n_steps=bad, t_max=10.0)
    assert Scenario(mode="tqc", n_steps=np.int64(5)).times().size == 5
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
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError):
            Scenario(mode="stationary-concurrence", alpha_sq=bad)
        with pytest.raises(ParameterError):
            Scenario(mode="tqc", beta_sq=bad)
    for mode in ("single-coherence", "concurrence"):
        with pytest.raises(ParameterError):
            Scenario(mode=mode, c_e=1.0, c_g=1.0)
        with pytest.raises(ParameterError):
            Scenario(mode=mode, c_e=math.nan, c_g=0.0)


def test_initial_state_follows_the_mode():
    balanced = Scenario(mode="single-coherence")
    assert (balanced.c_e, balanced.c_g) == (HALF, HALF)
    for mode in ("single-coherence-excited", "stationary-single-coherence-excited"):
        excited = Scenario(mode=mode)
        assert (excited.c_e, excited.c_g) == (1.0, 0.0)
        assert Scenario(mode=mode, c_e=1.0, c_g=0.0) == excited
        with pytest.raises(ParameterError):
            Scenario(mode=mode, c_e=0.6, c_g=0.8)
    with pytest.raises(ParameterError):
        Scenario(mode="single-coherence", c_g=1.0)


def test_upsilon_complements_mu():
    s = small("concurrence", mu=0.6)
    assert s.upsilon == pytest.approx(0.8)


# -------------------------------------------------------------------------- CSV


def test_csv_reruns_are_byte_identical(tmp_path):
    s = small("single-coherence")
    text1 = render_csv(s, run_scenario(s))
    text2 = render_csv(s, run_scenario(s))
    assert text1 == text2


def test_csv_identical_across_chunk_lengths(monkeypatch):
    default = {mode: render_csv(chunked(mode), run_scenario(chunked(mode))) for mode in ALL_MODES}
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 1)  # one time per chunk
    for mode in ALL_MODES:
        s = chunked(mode)
        assert render_csv(s, run_scenario(s)) == default[mode], mode


def test_csv_metadata_carries_full_parameter_set(tmp_path, read_csv):
    s = small("tqc", alpha_sq=2.0, beta_sq=3.0, mu=0.6)
    path = tmp_path / "out.csv"
    write_csv(s, run_scenario(s), str(path))
    metadata, columns, _ = read_csv(path)
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
    # the output path must not leak into the bytes
    assert "out" not in metadata


@pytest.mark.parametrize("intensity", [0.0, 1.0], ids=["nan", "negative"])
def test_csv_rows_format_each_value_as_written(intensity):
    # the one format over the flat table writes what formatting each value
    # alone writes: with both modes empty g2 is undefined at t = 0, and from
    # unit intensities cross_corr goes negative
    s = small("mode-correlation", alpha_sq=intensity, beta_sq=intensity, c_e=1.0, c_g=0.0)
    table = run_scenario(s)
    rows = render_csv(s, table).splitlines()[-len(table):]
    assert rows == [",".join(f"{x:.8e}" for x in row) for row in table.tolist()]
    if intensity == 0.0:
        assert rows[0].endswith(",nan")
    else:
        assert (table[:, 5] < 0).any()


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


# ------------------------------------------------------------------ plot script


def test_plot_script_generation():
    for mode in ("single-coherence", "mode-correlation", "concurrence", "tqc"):
        script = emit_plot_script(small(mode), f"{mode}.csv")
        assert "set datafile separator ','" in script
        assert f"plot '{mode}.csv' " in script
    # y-range pinned to [0, 1] for coherence and concurrence curves
    for mode in ("single-coherence", "concurrence"):
        assert "set yrange [0:1]" in emit_plot_script(small(mode), "x.csv")
    assert "using 2:6" in emit_plot_script(small("mode-correlation"), "x.csv")  # cross_corr
    assert "set xlabel 'kappa*t'" in emit_plot_script(small("stationary-tqc"), "x.csv")
