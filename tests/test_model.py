import math

import numpy as np
import pytest

from sfradar import (
    ConfigError,
    PulseShape,
    RadarConfig,
    pulse_shape_eval,
    range_axis,
)

C_EXACT = 299_792_458.0


def test_range_axis_spacing_rounded_constants():
    # with c = 3e8 the 512 MHz synthetic bandwidth gives ~0.2929 m cells
    cfg = RadarConfig(
        f_c=5e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12,
        c_light=3e8,
    )
    axis = range_axis(cfg)
    spacing = axis[1] - axis[0]
    assert spacing == pytest.approx(3e8 / (2 * 32 * 16e6), rel=1e-15)
    assert spacing == pytest.approx(0.2929, abs=5e-4)


def test_range_axis_spacing_exact_speed_of_light(cfg32):
    spacing = range_axis(cfg32)[1] - range_axis(cfg32)[0]
    assert spacing == pytest.approx(C_EXACT / (2 * 32 * 16e6), rel=1e-15)
    assert abs(spacing - 0.29277) <= 1e-5


def test_range_axis_starts_at_zero_without_gate_offset(cfg32):
    assert cfg32.q_start == 0
    assert range_axis(cfg32)[0] == 0.0


def test_range_axis_gate_offset():
    cfg = RadarConfig(
        f_c=5e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=2,
        q_start=3,
    )
    assert range_axis(cfg)[0] == pytest.approx(3 * cfg.c_light / (2 * 16e6))


def test_gate_depth_matches_direct_formula():
    cfg = RadarConfig(
        f_c=5e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12,
        c_light=3e8,
    )
    depth = 3e8 * 12 / (2 * 16e6)  # independent evaluation
    assert depth == 112.5
    assert cfg.gate_depth == pytest.approx(depth, rel=1e-15)
    # axis spacing times number of cells covers the gate depth
    axis = range_axis(cfg)
    spacing = axis[1] - axis[0]
    assert spacing * cfg.n_cells == pytest.approx(depth, rel=1e-12)


def test_coarse_bin_is_n_fine_cells(cfg32):
    assert cfg32.range_resolution * cfg32.n_pulses == cfg32.coarse_bin_extent


def test_sample_count_matches_direct_formula(cfg32):
    # 2 * gate_depth / (c * delta_t), evaluated independently
    s = round(2 * cfg32.gate_depth / (cfg32.c_light * cfg32.delta_t))
    assert s == 18
    assert cfg32.n_samples == s


def test_default_sampling_interval(cfg32):
    assert cfg32.delta_t == pytest.approx(1 / 24e6, rel=1e-15)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(delta_f=0.0),
        dict(delta_f=-1e6),
        dict(n_pulses=1),
        dict(l_bins=0),
        dict(pulse_bandwidth=0.0),
        dict(q_start=-1),
        dict(delta_t=0.0),
        dict(c_light=math.inf),
        dict(f_c=math.nan),
        dict(f_c=-1.0),
        dict(f_c=math.inf),
        # l_bins / (delta_f * delta_t) overflows, or the product underflows
        dict(delta_f=1e-300),
        dict(delta_f=1e-300, delta_t=1e-300),
    ],
)
def test_config_invariants_rejected(kwargs):
    base = dict(f_c=5e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        RadarConfig(**base)


def test_config_without_fast_time_samples_rejected():
    # one coarse bin sampled every 1 us: l_bins / (delta_f delta_t) = 1/16
    with pytest.raises(ConfigError, match="no fast-time sample"):
        RadarConfig(
            f_c=5e9, delta_f=16e6, n_pulses=8, pulse_bandwidth=24e6, l_bins=1,
            delta_t=1e-6,
        )


def test_ideal_sinc_values():
    shape = PulseShape.ideal_sinc(24e6)
    assert pulse_shape_eval(shape, 0.0) == 1.0
    assert pulse_shape_eval(shape, 1 / 24e6) == pytest.approx(0.0, abs=1e-15)
    # half-null point: sin(pi/2) / (pi/2)
    expected = math.sin(math.pi / 2) / (math.pi / 2)
    assert pulse_shape_eval(shape, 1 / (2 * 24e6)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2 / math.pi, rel=1e-15)


def test_ideal_sinc_nulls_at_integer_lags():
    shape = PulseShape.ideal_sinc(24e6)
    for k in (-3, -2, -1, 1, 2, 3):
        assert pulse_shape_eval(shape, k / 24e6) == pytest.approx(0.0, abs=1e-12)


def test_pulse_shape_peak_dominates_dense_grid():
    taus = np.linspace(-4 / 24e6, 4 / 24e6, 4001)
    for shape in (
        PulseShape.ideal_sinc(24e6),
        PulseShape.windowed_sinc(24e6, "hamming", 2 / 24e6),
        PulseShape.windowed_sinc(24e6, "hann", 2 / 24e6),
        PulseShape.windowed_sinc(24e6, "rect", 2 / 24e6),
    ):
        vals = pulse_shape_eval(shape, taus)
        assert np.max(np.abs(vals)) <= pulse_shape_eval(shape, 0.0) + 1e-12


def test_pulse_shape_even_symmetry():
    # real-valued even shape: value at -tau equals the conjugate at +tau
    taus = np.linspace(0, 3 / 24e6, 301)
    for shape in (
        PulseShape.ideal_sinc(24e6),
        PulseShape.windowed_sinc(24e6, "hann", 1.5 / 24e6),
    ):
        left = pulse_shape_eval(shape, -taus)
        right = pulse_shape_eval(shape, taus)
        assert np.allclose(left, np.conj(right), atol=1e-15)


def test_windowed_sinc_zero_outside_support():
    shape = PulseShape.windowed_sinc(24e6, "hamming", 1 / 24e6)
    assert pulse_shape_eval(shape, 1.0001 / 24e6) == 0.0
    assert pulse_shape_eval(shape, -5 / 24e6) == 0.0
    assert pulse_shape_eval(shape, 0.999 / 24e6) != 0.0


def test_windowed_sinc_validation():
    with pytest.raises(ConfigError):
        PulseShape.windowed_sinc(24e6, "blackman", 1e-6)
    with pytest.raises(ConfigError):
        PulseShape(bandwidth=24e6, kind="windowed_sinc", window="hann")
    with pytest.raises(ConfigError):
        PulseShape(bandwidth=-1.0)
