import math

import numpy as np
import pytest

from sfradar import (
    NoiseModel,
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


def test_trm_round_trip_keeps_noise_level(tmp_path, cfg32, ideal_shape, schedule):
    rng = np.random.default_rng(63)
    profile = RangeProfile(sparse_profile(cfg32, 10, rng), cfg32)
    trm = build_trm(profile, schedule, ideal_shape, NoiseModel(snr_db=15.0, seed=4))
    dest = tmp_path / "noisy.trm"
    write_trm_file(trm, dest)
    first = dest.read_text(encoding="ascii").splitlines()[0]
    assert first == header() + f" sigma={trm.noise_sigma:.17g}"
    loaded = load_trm_file(dest, cfg32, schedule)
    assert trm.noise_sigma > 0 and loaded.noise_sigma == trm.noise_sigma
    assert np.array_equal(loaded.data, trm.data)


def test_trm_header_without_sigma_has_no_noise_level(tmp_path, cfg32, schedule):
    dest = tmp_path / "old.trm"
    write_lines(dest, [header()] + ["0,0"] * (20 * 18))
    assert load_trm_file(dest, cfg32, schedule).noise_sigma is None


@pytest.mark.parametrize("sigma", ["-0.1", "inf", "nan", "abc"])
def test_trm_bad_sigma(tmp_path, cfg32, schedule, sigma):
    dest = tmp_path / "bad_sigma.trm"
    write_lines(dest, [header() + f" sigma={sigma}"] + ["0,0"] * (20 * 18))
    with pytest.raises(TrmHeaderError, match="sigma (must|value)") as err:
        load_trm_file(dest, cfg32, schedule)
    assert str(err.value).startswith(f"{dest}: ")


def test_trm_single_column_round_trip(tmp_path):
    # S = 1: the file carries the real dt, and a one-column file written
    # with dt=0 still loads, since one column has no spacing to check
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
    assert loaded.delta_t == trm.delta_t == cfg.delta_t
    first, *samples = dest.read_text(encoding="ascii").splitlines()
    assert f" dt={cfg.delta_t:.17g} " in first
    write_lines(dest, [first.replace(f"dt={cfg.delta_t:.17g}", "dt=0")] + samples)
    assert np.array_equal(load_trm_file(dest, cfg, schedule).data, trm.data)


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
        "SFRTRM v1 M=20 S=18 dt=4.2e-08 order=row-major noise=0.1",
        "SFRTRM v1 M=20 S=18 dt=4.2e-08 order=row-major sigma=0 sigma=0",
        "SFRTRM v1 M=0 S=18 dt=4.2e-08 order=row-major",
        "SFRTRM v1 M=20 S=0 dt=4.2e-08 order=row-major",
        "",
        None,
    ],
)
def test_trm_malformed_header(tmp_path, cfg32, schedule, bad):
    # "" drops the header line; None leaves a file of one blank line
    dest = tmp_path / "bad.trm"
    lines = [""] if bad is None else ([bad] if bad else []) + ["0,0"] * (20 * 18)
    write_lines(dest, lines)
    with pytest.raises(TrmHeaderError) as err:
        load_trm_file(dest, cfg32, schedule)
    assert str(err.value).startswith(f"{dest}: ")


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


@pytest.mark.parametrize("kind", ["capture", "profile"])
def test_non_ascii_byte_names_its_file_and_line(tmp_path, cfg32, schedule, kind):
    # a UTF-8 e-acute in the second row, line 4 with the blank line counted;
    # a capture's error stays a TrmFileError
    if kind == "capture":
        first, rows = header(), ["0,0"] * (20 * 18)
        load, error = lambda: load_trm_file(dest, cfg32, schedule), TrmFileError
    else:
        first, rows = "range_m,magnitude,phase_rad", ["0,1,0"] * 3
        load, error = lambda: load_profile_csv(dest), ValueError
    rows[1] = "0.5\u00e9,0" if kind == "capture" else "0,0.5\u00e9,0"
    dest = tmp_path / f"{kind}.txt"
    dest.write_bytes("\n".join([first, ""] + rows).encode("utf-8") + b"\n")
    with pytest.raises(error) as err:
        load()
    assert str(err.value).startswith(f"{dest}:4: non-ASCII byte 0xc3")


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
    ("abc,1,0", r"q\.csv:5: could not convert string to float: 'abc'"),
    ("0,inf,0", r"q\.csv:5: non-finite value in '0,inf,0'"),
    ("0,1,nan", r"q\.csv:5: non-finite value in '0,1,nan'"),
    ("-inf,1,0", r"q\.csv:5: non-finite value in '-inf,1,0'"),
], ids=["columns", "value", "range", "inf", "nan", "range-inf"])
def test_profile_row_error_names_its_line_in_the_file(tmp_path, row, message):
    # blank lines after the header still count: the bad row is on line 5
    dest = tmp_path / "q.csv"
    dest.write_text(f"range_m,magnitude,phase_rad\n\n\n0,1,0\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_profile_csv(dest)
