import math

import numpy as np
import pytest

from sfradar import (
    ConfigError,
    NoiseModel,
    PulseSchedule,
    RangeProfile,
    Trm,
    build_trm,
    random_missing_schedule,
)
from sfradar.echo import _unit_noise
from conftest import sparse_profile, synthesize_echo_sample


def naive_echo(values, cfg, shape_bandwidth, pulse_index, tau):
    """Direct summation oracle: plain python loop, own sinc evaluation."""
    total = 0.0 + 0.0j
    for p in range(cfg.n_cells):
        lag = tau - p / (cfg.n_pulses * cfg.delta_f)
        x = shape_bandwidth * lag
        envelope = 1.0 if x == 0 else math.sin(math.pi * x) / (math.pi * x)
        phase = complex(
            math.cos(2 * math.pi * pulse_index * p / cfg.n_pulses),
            -math.sin(2 * math.pi * pulse_index * p / cfg.n_pulses),
        )
        total += values[p] * envelope * phase
    return total


@pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
def test_trm_rejects_a_bad_noise_level(cfg32, sigma):
    # the rule of a capture's sigma= header, for every TRM: a negative or
    # non-finite noise level gave the sparse route a budget it never met
    data = np.zeros((cfg32.n_pulses, cfg32.n_samples), dtype=complex)
    with pytest.raises(ConfigError, match="^noise_sigma must be finite and >= 0"):
        Trm(data, tuple(range(cfg32.n_pulses)), cfg32.delta_t, noise_sigma=sigma)


def test_profile_length_enforced(cfg32):
    with pytest.raises(ConfigError):
        RangeProfile(np.zeros(cfg32.n_cells - 1, dtype=complex), cfg32)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_profile_rejects_non_finite_cells(cfg32, bad):
    values = np.zeros(cfg32.n_cells, dtype=complex)
    values[5] = bad
    with pytest.raises(ConfigError, match="non-finite"):
        RangeProfile(values, cfg32)


def test_profile_sparsity(cfg32):
    values = np.zeros(cfg32.n_cells, dtype=complex)
    values[[3, 7, 100]] = [1.0, 2j, -1.0 + 1j]
    assert np.count_nonzero(RangeProfile(values, cfg32).values) == 3


def test_schedule_validation():
    with pytest.raises(ConfigError):
        PulseSchedule((), 32)
    with pytest.raises(ConfigError):
        PulseSchedule((0, 0, 1), 32)
    with pytest.raises(ConfigError):
        PulseSchedule((3, 1), 32)
    with pytest.raises(ConfigError):
        PulseSchedule((0, 32), 32)
    full = PulseSchedule.full(32)
    assert full.valid_indices == tuple(range(32))
    assert full.m_count == full.n_pulses == 32


def test_echo_zero_profile(cfg32, ideal_shape):
    profile = RangeProfile(np.zeros(cfg32.n_cells, dtype=complex), cfg32)
    assert synthesize_echo_sample(profile, 0, 0.0, ideal_shape) == 0
    assert synthesize_echo_sample(profile, 17, 3e-7, ideal_shape) == 0


def test_echo_single_cell_at_origin(cfg32, ideal_shape):
    values = np.zeros(cfg32.n_cells, dtype=complex)
    values[0] = 1.0
    profile = RangeProfile(values, cfg32)
    assert synthesize_echo_sample(profile, 0, 0.0, ideal_shape) == pytest.approx(1.0)


def test_echo_phase_wraps_at_full_turn(cfg32, ideal_shape):
    # cell index equal to the pulse count makes the phase a whole turn
    n = cfg32.n_pulses
    values = np.zeros(cfg32.n_cells, dtype=complex)
    values[n] = 1.0
    profile = RangeProfile(values, cfg32)
    out = synthesize_echo_sample(profile, 3, 1 / cfg32.delta_f, ideal_shape)
    assert out == pytest.approx(1.0, abs=1e-12)


def test_echo_matches_naive_oracle(cfg32, ideal_shape):
    rng = np.random.default_rng(11)
    values = sparse_profile(cfg32, 10, rng)
    profile = RangeProfile(values, cfg32)
    for _ in range(20):
        n = int(rng.integers(0, cfg32.n_pulses))
        tau = float(rng.uniform(0, cfg32.n_samples * cfg32.delta_t))
        got = synthesize_echo_sample(profile, n, tau, ideal_shape)
        want = naive_echo(values, cfg32, 24e6, n, tau)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_echo_pulse_index_range(cfg32, ideal_shape):
    profile = RangeProfile(np.zeros(cfg32.n_cells, dtype=complex), cfg32)
    with pytest.raises(ConfigError):
        synthesize_echo_sample(profile, cfg32.n_pulses, 0.0, ideal_shape)


def test_trm_zero_profile(cfg32, ideal_shape):
    profile = RangeProfile(np.zeros(cfg32.n_cells, dtype=complex), cfg32)
    trm = build_trm(profile, PulseSchedule.full(32), ideal_shape)
    assert trm.data.shape == (32, 18)
    assert np.all(trm.data == 0)
    assert trm.noise_sigma == 0.0


def test_trm_dimensions_and_row_tags(cfg32, ideal_shape):
    rng = np.random.default_rng(5)
    profile = RangeProfile(sparse_profile(cfg32, 8, rng), cfg32)
    schedule = random_missing_schedule(32, 12, seed=9)
    trm = build_trm(profile, schedule, ideal_shape)
    assert schedule.m_count == 20
    assert trm.data.shape == (20, 18)
    assert trm.row_pulse_indices == schedule.valid_indices
    assert trm.delta_t == 1 / 24e6
    with pytest.raises(ConfigError, match="does not match 20 rows"):
        Trm(trm.data[1:], trm.row_pulse_indices, trm.delta_t)


def test_trm_entries_match_echo_samples(cfg32, ideal_shape):
    rng = np.random.default_rng(6)
    profile = RangeProfile(sparse_profile(cfg32, 8, rng), cfg32)
    schedule = random_missing_schedule(32, 25, seed=2)
    trm = build_trm(profile, schedule, ideal_shape)
    for m, c_m in enumerate(schedule.valid_indices):
        for s in (0, 7, 17):
            want = synthesize_echo_sample(
                profile, c_m, s * cfg32.delta_t, ideal_shape
            )
            assert abs(trm.data[m, s] - want) <= 1e-12 * max(abs(want), 1.0)


def test_trm_row_deletion_equals_direct_reduced(cfg32, ideal_shape):
    rng = np.random.default_rng(7)
    profile = RangeProfile(sparse_profile(cfg32, 12, rng), cfg32)
    full = build_trm(profile, PulseSchedule.full(32), ideal_shape)
    schedule = random_missing_schedule(32, 12, seed=13)
    reduced = build_trm(profile, schedule, ideal_shape)
    rows = [full.data[c_m] for c_m in schedule.valid_indices]
    assert np.array_equal(np.stack(rows), reduced.data)


def test_trm_linearity(cfg32, ideal_shape):
    rng = np.random.default_rng(8)
    h1 = sparse_profile(cfg32, 9, rng)
    h2 = sparse_profile(cfg32, 9, rng)
    a, b = 1.7 - 0.3j, -0.4 + 2.2j
    schedule = random_missing_schedule(32, 10, seed=3)

    def trm_of(values):
        return build_trm(RangeProfile(values, cfg32), schedule, ideal_shape).data

    combined = trm_of(a * h1 + b * h2)
    split = a * trm_of(h1) + b * trm_of(h2)
    scale = np.linalg.norm(split)
    assert np.linalg.norm(combined - split) <= 1e-12 * scale


def test_noise_power_matches_request(cfg32, ideal_shape):
    rng = np.random.default_rng(9)
    profile = RangeProfile(sparse_profile(cfg32, 24, rng), cfg32)
    schedule = PulseSchedule.full(32)
    clean = build_trm(profile, schedule, ideal_shape).data
    # pool draws from many seeds: 576 entries per train, >= 1e4 total
    samples = []
    sigma = None
    for seed in range(20):
        noisy = build_trm(
            profile, schedule, ideal_shape, NoiseModel(snr_db=15.0, seed=seed)
        )
        sigma = noisy.noise_sigma
        samples.append(noisy.data - clean)
    samples = np.concatenate([s.ravel() for s in samples])
    assert samples.size >= 10_000
    empirical = float(np.mean(np.abs(samples) ** 2))
    assert empirical == pytest.approx(sigma**2, rel=0.05)


def test_noise_sigma_follows_snr_definition(cfg32, ideal_shape):
    rng = np.random.default_rng(10)
    profile = RangeProfile(sparse_profile(cfg32, 24, rng), cfg32)
    schedule = PulseSchedule.full(32)
    clean = build_trm(profile, schedule, ideal_shape).data
    noisy = build_trm(
        profile, schedule, ideal_shape, NoiseModel(snr_db=15.0, seed=0)
    )
    p_sig = np.mean(np.abs(clean) ** 2)
    assert noisy.noise_sigma == pytest.approx(
        math.sqrt(p_sig * 10 ** (-1.5)), rel=1e-12
    )


@pytest.mark.parametrize("snr_db", [math.nan, math.inf, -math.inf])
def test_noise_model_rejects_non_finite_snr(snr_db):
    with pytest.raises(ConfigError, match="snr_db"):
        NoiseModel(snr_db=snr_db, seed=0)


def test_noise_draws_keyed_by_pulse_and_sample(cfg32, ideal_shape):
    # unit draws for a surviving pulse must not depend on the schedule
    rng = np.random.default_rng(12)
    profile = RangeProfile(sparse_profile(cfg32, 24, rng), cfg32)
    noise = NoiseModel(snr_db=10.0, seed=77)
    full_sched = PulseSchedule.full(32)
    sub_sched = random_missing_schedule(32, 12, seed=4)

    def unit_draws(schedule):
        clean = build_trm(profile, schedule, ideal_shape).data
        noisy = build_trm(profile, schedule, ideal_shape, noise)
        return (noisy.data - clean) / noisy.noise_sigma

    full_units = unit_draws(full_sched)
    sub_units = unit_draws(sub_sched)
    for m, c_m in enumerate(sub_sched.valid_indices):
        assert np.allclose(sub_units[m], full_units[c_m], atol=1e-12)


def test_a_kept_pulse_gets_the_same_noise_row_under_any_schedule(cfg32, ideal_shape):
    # the TRM takes its valid pulses' rows of one (N x S) unit-noise grid
    # drawn from the seed, so two schedules that both keep pulse c add c
    # the same unit noise, bit for bit
    rng = np.random.default_rng(14)
    profile = RangeProfile(sparse_profile(cfg32, 24, rng), cfg32)
    noise = NoiseModel(snr_db=10.0, seed=78)
    grid = _unit_noise(noise.seed, cfg32.n_pulses, cfg32.n_samples)
    a = random_missing_schedule(32, 12, seed=5)
    b = random_missing_schedule(32, 20, seed=6)
    shared = sorted(set(a.valid_indices) & set(b.valid_indices))
    assert shared and a.valid_indices != b.valid_indices
    units = []
    for schedule in (a, b):
        kept = list(schedule.valid_indices)
        clean = build_trm(profile, schedule, ideal_shape).data
        noisy = build_trm(profile, schedule, ideal_shape, noise)
        assert np.array_equal(noisy.data, clean + noisy.noise_sigma * grid[kept])
        units.append(dict(zip(kept, (noisy.data - clean) / noisy.noise_sigma)))
    for c in shared:
        assert np.allclose(units[0][c], units[1][c], rtol=0, atol=1e-12)


def test_noise_deterministic_per_seed(cfg32, ideal_shape):
    rng = np.random.default_rng(13)
    profile = RangeProfile(sparse_profile(cfg32, 6, rng), cfg32)
    schedule = random_missing_schedule(32, 5, seed=1)
    noise = NoiseModel(snr_db=20.0, seed=123)
    a = build_trm(profile, schedule, ideal_shape, noise)
    b = build_trm(profile, schedule, ideal_shape, noise)
    assert np.array_equal(a.data, b.data)


def test_random_missing_schedule_boundaries():
    assert random_missing_schedule(32, 0, seed=5).valid_indices == tuple(range(32))
    single = random_missing_schedule(32, 31, seed=5)
    assert single.m_count == 1
    with pytest.raises(ConfigError):
        random_missing_schedule(32, 32, seed=5)
    with pytest.raises(ConfigError):
        random_missing_schedule(32, -1, seed=5)
    with pytest.raises(ConfigError, match="n_missing must be an integer"):
        random_missing_schedule(16, 2.5, seed=5)


def test_random_missing_schedule_shape_and_determinism():
    a = random_missing_schedule(32, 12, seed=42)
    b = random_missing_schedule(32, 12, seed=42)
    c = random_missing_schedule(32, 12, seed=43)
    assert a.valid_indices == b.valid_indices
    assert a.m_count == 20
    assert len(set(a.valid_indices)) == 20
    assert all(0 <= i < 32 for i in a.valid_indices)
    assert list(a.valid_indices) == sorted(a.valid_indices)
    assert a.valid_indices != c.valid_indices  # overwhelmingly likely


def test_schedule_config_mismatch(cfg32, small_cfg, ideal_shape):
    profile = RangeProfile(np.zeros(cfg32.n_cells, dtype=complex), cfg32)
    with pytest.raises(ConfigError):
        build_trm(profile, PulseSchedule.full(small_cfg.n_pulses), ideal_shape)
