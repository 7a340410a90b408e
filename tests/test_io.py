import math

import numpy as np
import pytest

from sfradar import (
    PulseShape,
    RadarConfig,
    RangeProfile,
    TrmDimensionError,
    TrmFileError,
    TrmHeaderError,
    TrmSampleError,
    build_trm,
    export_profile,
    load_profile_csv,
    load_trm_file,
    random_missing_schedule,
    range_axis,
    write_trm_file,
)
from sfradar.solvers import RecoveryResult
from conftest import sparse_profile


@pytest.fixture
def schedule():
    return random_missing_schedule(32, 12, seed=8)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def header(m=20, s=18, dt=1 / 24e6):
    return f"SFRTRM v1 M={m} S={s} dt={dt:.17g} order=row-major"


def test_trm_round_trip(tmp_path, cfg32, ideal_shape, schedule):
    rng = np.random.default_rng(61)
    profile = RangeProfile(sparse_profile(cfg32, 10, rng), cfg32)
    trm = build_trm(profile, schedule, ideal_shape)
    dest = tmp_path / "capture.trm"
    write_trm_file(trm, dest)
    loaded = load_trm_file(dest, cfg32, schedule)
    assert np.array_equal(loaded.data, trm.data)
    assert loaded.row_pulse_indices == schedule.valid_indices


def test_trm_single_column_round_trip(tmp_path):
    # S = 1: the file has no column spacing to record
    cfg = RadarConfig(
        f_c=5e9, delta_f=16e6, n_pulses=8, pulse_bandwidth=24e6, l_bins=1,
        delta_t=1 / 16e6,
    )
    assert cfg.n_samples == 1
    schedule = random_missing_schedule(8, 3, seed=2)
    rng = np.random.default_rng(62)
    profile = RangeProfile(sparse_profile(cfg, 3, rng), cfg)
    trm = build_trm(profile, schedule, PulseShape.ideal_sinc(24e6))
    dest = tmp_path / "one_column.trm"
    write_trm_file(trm, dest)
    loaded = load_trm_file(dest, cfg, schedule)
    assert np.array_equal(loaded.data, trm.data)
    assert np.array_equal(loaded.col_instants, trm.col_instants)


def test_trm_all_zero_file(tmp_path, cfg32, schedule):
    lines = [header()] + ["0,0"] * (20 * 18)
    dest = tmp_path / "zeros.trm"
    write_lines(dest, lines)
    trm = load_trm_file(dest, cfg32, schedule)
    assert trm.data.shape == (20, 18)
    assert np.all(trm.data == 0)


def test_trm_sample_count_mismatch(tmp_path, cfg32, schedule):
    lines = [header()] + ["0,0"] * (20 * 18 - 1)
    dest = tmp_path / "short.trm"
    write_lines(dest, lines)
    with pytest.raises(TrmDimensionError) as err:
        load_trm_file(dest, cfg32, schedule)
    assert "360" in str(err.value) and "359" in str(err.value)


def test_trm_header_dimension_mismatch(tmp_path, cfg32, schedule):
    lines = [header(m=19)] + ["0,0"] * (19 * 18)
    dest = tmp_path / "wrongm.trm"
    write_lines(dest, lines)
    with pytest.raises(TrmDimensionError):
        load_trm_file(dest, cfg32, schedule)


def test_trm_dt_mismatch(tmp_path, cfg32, schedule):
    lines = [header(dt=1 / 20e6)] + ["0,0"] * (20 * 18)
    dest = tmp_path / "wrongdt.trm"
    write_lines(dest, lines)
    with pytest.raises(TrmDimensionError):
        load_trm_file(dest, cfg32, schedule)


@pytest.mark.parametrize(
    "bad",
    [
        "SFRTRM v2 M=20 S=18 dt=4.2e-08 order=row-major",
        "TRM v1 M=20 S=18 dt=4.2e-08 order=row-major",
        "SFRTRM v1 M=twenty S=18 dt=4.2e-08 order=row-major",
        "SFRTRM v1 M=20 S=18 dt=4.2e-08 order=column-major",
        "SFRTRM v1 M=20 S=18 dt=4.2e-08",
        "",
    ],
)
def test_trm_malformed_header(tmp_path, cfg32, schedule, bad):
    dest = tmp_path / "bad.trm"
    lines = ([bad] if bad else []) + ["0,0"] * (20 * 18)
    write_lines(dest, lines)
    with pytest.raises(TrmHeaderError):
        load_trm_file(dest, cfg32, schedule)


@pytest.mark.parametrize("sample", ["nan,0", "0,inf", "abc,0", "1.0", "1,2,3"])
def test_trm_bad_samples(tmp_path, cfg32, schedule, sample):
    lines = [header()] + ["0,0"] * (20 * 18 - 1) + [sample]
    dest = tmp_path / "badsample.trm"
    write_lines(dest, lines)
    with pytest.raises(TrmSampleError):
        load_trm_file(dest, cfg32, schedule)


def test_trm_sample_error_names_its_line_in_the_file(tmp_path, cfg32, schedule):
    # blank lines after the header still count: the bad sample is on line 5
    lines = [header(), "", "", "0,0", "abc,0"] + ["0,0"] * (20 * 18 - 2)
    dest = tmp_path / "blank_lines.trm"
    write_lines(dest, lines)
    with pytest.raises(TrmSampleError, match=r"blank_lines\.trm:5: unparseable"):
        load_trm_file(dest, cfg32, schedule)


def test_trm_error_hierarchy():
    assert issubclass(TrmHeaderError, TrmFileError)
    assert issubclass(TrmDimensionError, TrmFileError)
    assert issubclass(TrmSampleError, TrmFileError)
    assert issubclass(TrmFileError, ValueError)


def test_export_profile_layout(tmp_path, cfg32):
    axis = range_axis(cfg32)
    values = np.zeros(cfg32.n_cells, dtype=complex)
    dest = tmp_path / "zero.csv"
    export_profile(values, axis, dest)
    lines = dest.read_text().strip().split("\n")
    assert lines[0] == "range_m,magnitude,phase_rad"
    assert len(lines) == 1 + cfg32.n_cells
    assert all(ln.split(",")[1] == "0" for ln in lines[1:])


def test_export_profile_round_trip(tmp_path, cfg32):
    rng = np.random.default_rng(62)
    values = rng.standard_normal(cfg32.n_cells) + 1j * rng.standard_normal(
        cfg32.n_cells
    )
    axis = range_axis(cfg32)
    dest = tmp_path / "profile.csv"
    export_profile(values, axis, dest)
    loaded = load_profile_csv(dest)
    assert loaded.shape == values.shape
    assert np.max(np.abs(loaded - values)) <= 1e-8 * np.max(np.abs(values))


def test_export_profile_bytes_match_per_row_formatting(tmp_path):
    rng = np.random.default_rng(63)
    n = 400
    values = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(
        -300, 300, n
    )
    values[:40] = 0.0
    values[40:50] = complex(-0.0, -0.0)
    values[50:70] = -rng.uniform(0.1, 5.0, 20)  # phase +pi
    values.imag[60:70] = -0.0  # phase -pi
    values[70:75] = [5e-324, 1e-310j, 1.7e308, -1.7e308j, 1e-300 + 1e300j]
    axis = np.linspace(1234.5, 1234.5 + 0.29 * (n - 1), n)
    dest = tmp_path / "profile.csv"
    export_profile(values, axis, dest)

    expected = "range_m,magnitude,phase_rad\n" + "".join(
        f"{r:.9g},{abs(z):.9g},{math.atan2(z.imag, z.real):.9g}\n"
        for r, z in zip(axis, values)
    )
    assert dest.read_bytes() == expected.encode("ascii")
    assert {"3.14159265", "-3.14159265"} <= {
        ln.split(",")[2] for ln in expected.splitlines()[1:]
    }


def test_export_profile_accepts_result_and_profile(tmp_path, cfg32):
    values = np.ones(cfg32.n_cells, dtype=complex)
    axis = range_axis(cfg32)
    rec = RecoveryResult(
        h_est=values, method="least_squares", residual_l2=0.0,
        iterations=0, converged=True,
    )
    export_profile(rec, axis, tmp_path / "a.csv")
    export_profile(RangeProfile(values, cfg32), axis, tmp_path / "b.csv")
    assert np.array_equal(
        load_profile_csv(tmp_path / "a.csv"), load_profile_csv(tmp_path / "b.csv")
    )


def test_export_profile_length_mismatch(tmp_path, cfg32):
    axis = range_axis(cfg32)
    with pytest.raises(ValueError):
        export_profile(np.ones(3, dtype=complex), axis, tmp_path / "bad.csv")


def test_load_profile_rejects_wrong_header(tmp_path):
    dest = tmp_path / "bad.csv"
    dest.write_text("wrong,header,line\n0,0,0\n")
    with pytest.raises(ValueError):
        load_profile_csv(dest)


@pytest.mark.parametrize("row, message", [
    ("0,1", r"q\.csv:5: expected 3 columns"),
    ("0,abc,0", r"q\.csv:5: could not convert string to float: 'abc'"),
], ids=["columns", "value"])
def test_profile_row_error_names_its_line_in_the_file(tmp_path, row, message):
    # blank lines after the header still count: the bad row is on line 5
    dest = tmp_path / "q.csv"
    dest.write_text(f"range_m,magnitude,phase_rad\n\n\n0,1,0\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_profile_csv(dest)
