import tracemalloc

import numpy as np
import pytest

from sfradar import (
    ConfigError,
    PulseSchedule,
    RangeProfile,
    Trm,
    build_sensing_system,
    build_trm,
    random_missing_schedule,
)
from sfradar.echo import _Radar
from conftest import sparse_profile, synthesize_echo_sample


def build_system(cfg, shape, n_missing, rng, n_scatterers=8, seed=0):
    values = sparse_profile(cfg, n_scatterers, rng)
    profile = RangeProfile(values, cfg)
    schedule = random_missing_schedule(cfg.n_pulses, n_missing, seed=seed)
    trm = build_trm(profile, schedule, shape)
    return values, schedule, trm, build_sensing_system(cfg, shape, schedule, trm)


def test_system_zero_trm(cfg32, ideal_shape):
    profile = RangeProfile(np.zeros(cfg32.n_cells, dtype=complex), cfg32)
    schedule = PulseSchedule.full(32)
    trm = build_trm(profile, schedule, ideal_shape)
    sys_ = build_sensing_system(cfg32, ideal_shape, schedule, trm)
    assert np.all(sys_.y == 0)
    assert sys_.y.size == 32 * 18


def test_system_dimensions_missing_pulses(cfg32, ideal_shape):
    rng = np.random.default_rng(22)
    _, schedule, _, sys_ = build_system(cfg32, ideal_shape, 12, rng)
    assert schedule.m_count == 20
    assert sys_.phi.shape == (360, 384)
    assert sys_.n_rows < sys_.n_cells


def test_system_dimensions_full_pulses(cfg32, ideal_shape):
    rng = np.random.default_rng(23)
    _, _, _, sys_ = build_system(cfg32, ideal_shape, 0, rng)
    assert sys_.phi.shape == (576, 384)
    assert sys_.n_rows > sys_.n_cells


def test_row_keys_are_sample_major(cfg32, ideal_shape):
    rng = np.random.default_rng(24)
    _, schedule, trm, sys_ = build_system(cfg32, ideal_shape, 12, rng)
    m = schedule.m_count
    # row i is (pulse pulses[i % M], sample i // M)
    keys = [(int(sys_.pulses[i % m]), i // m) for i in range(sys_.n_rows)]
    # first block is sample 0 for every valid pulse, in schedule order
    assert keys[:m] == [(c, 0) for c in schedule.valid_indices]
    assert keys[m : 2 * m] == [(c, 1) for c in schedule.valid_indices]
    assert np.array_equal(sys_.y, trm.data.flatten(order="F"))


def test_rows_match_projection_row(cfg32, ideal_shape):
    # the row of (pulse c, sample s) is the linear map from a profile to the
    # echo of pulse c at s * delta_t: its inner product with the unit
    # profile of cell p is the echo of a lone scatterer in cell p
    rng = np.random.default_rng(25)
    _, schedule, trm, sys_ = build_system(cfg32, ideal_shape, 20, rng)
    unit = np.eye(cfg32.n_cells, dtype=complex)
    m = schedule.m_count
    for i in (0, 5, sys_.n_rows - 1):
        c_m, s = int(sys_.pulses[i % m]), i // m
        want = [
            synthesize_echo_sample(
                RangeProfile(unit[p], cfg32), c_m, s * cfg32.delta_t, ideal_shape
            )
            for p in range(cfg32.n_cells)
        ]
        assert np.allclose(sys_.phi[i], want, atol=1e-15)


def test_operator_equals_trm_vectorization(cfg32, ideal_shape):
    # central consistency check between the operator and echo synthesis
    rng = np.random.default_rng(26)
    for trial in range(25):
        values, schedule, trm, sys_ = build_system(
            cfg32, ideal_shape, int(rng.integers(0, 25)), rng, seed=trial
        )
        lhs = sys_.phi @ values
        rhs = sys_.y
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_adjoint_consistency(cfg32, ideal_shape):
    rng = np.random.default_rng(27)
    _, _, _, sys_ = build_system(cfg32, ideal_shape, 12, rng)
    for _ in range(10):
        h = rng.standard_normal(384) + 1j * rng.standard_normal(384)
        v = rng.standard_normal(360) + 1j * rng.standard_normal(360)
        lhs = np.vdot(v, sys_.phi @ h)
        rhs = np.vdot(sys_.adjoint(v), h)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)


def test_build_does_not_materialise_phi(cfg32, ideal_shape):
    rng = np.random.default_rng(31)
    profile = RangeProfile(sparse_profile(cfg32, 24, rng), cfg32)
    schedule = PulseSchedule.full(cfg32.n_pulses)
    trm = build_trm(profile, schedule, ideal_shape)
    tracemalloc.start()
    try:
        sys_ = build_sensing_system(cfg32, ideal_shape, schedule, trm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys_.phi.nbytes / 4


def test_no_dead_columns(cfg32, ideal_shape):
    rng = np.random.default_rng(28)
    _, _, _, sys_ = build_system(cfg32, ideal_shape, 12, rng)
    norms = np.linalg.norm(sys_.phi, axis=0)
    assert np.all(norms > 0)
    assert np.all(np.isfinite(norms))


def test_shared_factors_are_read_only(cfg32, ideal_shape):
    rng = np.random.default_rng(26)
    _, _, _, sys_ = build_system(cfg32, ideal_shape, 4, rng)
    _, _, _, other = build_system(cfg32, ideal_shape, 20, rng, seed=1)
    # every system of one radar and pulse shape holds the same arrays
    assert other.radar.envelopes is sys_.radar.envelopes
    assert other.radar.blocks is sys_.radar.blocks
    with pytest.raises(ValueError, match="read-only"):
        sys_.radar.envelopes[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sys_.radar.blocks[0] = 0.0


def test_system_rejects_mismatched_trm(cfg32, ideal_shape):
    rng = np.random.default_rng(29)
    values = sparse_profile(cfg32, 4, rng)
    profile = RangeProfile(values, cfg32)
    schedule_a = random_missing_schedule(32, 12, seed=1)
    schedule_b = random_missing_schedule(32, 12, seed=2)
    trm = build_trm(profile, schedule_a, ideal_shape)
    assert schedule_a.valid_indices != schedule_b.valid_indices
    with pytest.raises(ConfigError, match="row pulse indices"):
        build_sensing_system(cfg32, ideal_shape, schedule_b, trm)
    # a schedule for another pulse count, and a TRM one sample short
    with pytest.raises(ConfigError, match="schedule is for 16 pulses"):
        build_sensing_system(cfg32, ideal_shape, PulseSchedule.full(16), trm)
    short = Trm(trm.data[:, 1:], trm.row_pulse_indices, trm.delta_t)
    with pytest.raises(ConfigError, match="TRM shape"):
        build_sensing_system(cfg32, ideal_shape, schedule_a, short)


def test_radar_rejects_non_finite_shape_matrix():
    # checked once when the radar is built, so a system need only check y
    envelopes = np.array([[1.0, 0.5, -0.25, 2.0], [0.0, np.nan, 0.0, 0.0]])
    with pytest.raises(ConfigError, match="non-finite"):
        _Radar(envelopes, 2)
