import numpy as np
import pytest

from sfradar import ConfigError, PulseShape, RadarConfig, pulse_shape_eval


@pytest.fixture
def cfg32():
    # 32 x 16 MHz steps (512 MHz synthetic bandwidth), 24 MHz single-pulse
    # bandwidth sampled at the bandwidth, 12 coarse bins
    return RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12
    )


@pytest.fixture
def small_cfg():
    return RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=3
    )


@pytest.fixture
def ideal_shape(cfg32):
    return PulseShape.ideal_sinc(cfg32.pulse_bandwidth)


def sparse_profile(cfg, n_scatterers, rng):
    values = np.zeros(cfg.n_cells, dtype=np.complex128)
    cells = rng.choice(cfg.n_cells, size=n_scatterers, replace=False)
    values[cells] = rng.standard_normal(n_scatterers) + 1j * rng.standard_normal(
        n_scatterers
    )
    return values


def synthesize_echo_sample(profile, pulse_index, tau, shape):
    """Noise-free baseband echo of one pulse at one sampling instant.

    The independent reference for echo synthesis and the sensing operator:
    sums, over every fine cell p, the cell reflectivity times the pulse
    shape at (tau - p / (N delta_f)) times the stepped-carrier phase
    exp(-j 2 pi pulse_index p / N). tau is referenced to the gate start.
    """
    cfg = profile.cfg
    if not 0 <= pulse_index < cfg.n_pulses:
        raise ConfigError(
            f"pulse index {pulse_index} out of range [0, {cfg.n_pulses})"
        )
    p = np.arange(cfg.n_cells)
    envelope = pulse_shape_eval(shape, tau - p * cfg.fine_delay_spacing)
    phase = np.exp(-2j * np.pi * pulse_index * p / cfg.n_pulses)
    return complex(np.sum(profile.values * envelope * phase))
