"""Property tests over small random inputs.

Most examples draw a gate (pulses, coarse bins, sampling rate), a pulse
shape and a pulse schedule, and check the matrix-free operator, its
normal matrices, its norm bound and the identities the solvers rely on
against the dense oracle phi. The rest check the soft-threshold prox and
the independence of the per-trial seed streams.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sfradar import (
    PulseSchedule,
    PulseShape,
    RadarConfig,
    RangeProfile,
    SolverOptions,
    build_sensing_system,
    build_trm,
    random_missing_schedule,
    soft_threshold,
    solve_least_squares,
)
from sfradar.echo import Trm, _unit_noise
from sfradar.harness import child_seed, draw_synthetic_target
from sfradar.model import WINDOWS
from sfradar.solvers import operator_norm_sq

DELTA_F = 16e6


# whether a system's size falls in a regime, given its missing-pulse rows
# S(N - M), kept rows S*M and cells NL: the regime names the smallest of
# the three, ties going to the earlier. Rows fewer than cells leave the
# ridge to fix the null space; cells fewer than rows give an overdetermined
# solve
SMALLEST = {
    "complement": lambda k, m, nl: k <= m and k <= nl,
    "rows": lambda k, m, nl: m < k and m <= nl,
    "columns": lambda k, m, nl: nl < k and nl < m,
}


@st.composite
def systems(draw, full=None, regime=None):
    """(config, profile values, system) for a random gate, shape and schedule.

    With regime given, the number of kept pulses is drawn among those for
    which the system falls in that regime of SMALLEST.
    """
    n_pulses = draw(st.integers(2, 8))
    l_bins = draw(st.integers(1, 4))
    bandwidth = DELTA_F * draw(st.sampled_from([1.0, 1.5, 2.0, 2.5]))
    oversample = draw(st.sampled_from([1.0, 1.3, 2.0]))
    cfg = RadarConfig(
        f_c=5e9, delta_f=DELTA_F, n_pulses=n_pulses, pulse_bandwidth=bandwidth,
        delta_t=1.0 / (bandwidth * oversample), l_bins=l_bins,
    )
    if draw(st.booleans()):
        shape = PulseShape.ideal_sinc(bandwidth)
    else:
        shape = PulseShape(
            bandwidth, "windowed_sinc", draw(st.sampled_from(WINDOWS)),
            draw(st.floats(0.5, 4.0)) / bandwidth,
        )
    if regime is None and full is None:
        full = draw(st.booleans())
    if regime is not None:
        s_count = cfg.n_samples
        counts = [
            m for m in range(1, n_pulses + 1)
            if SMALLEST[regime](s_count * (n_pulses - m), s_count * m, cfg.n_cells)
        ]
        assume(counts)
        m_count = draw(st.sampled_from(counts))
        kept = draw(st.permutations(range(n_pulses)))[:m_count]
        schedule = PulseSchedule(tuple(sorted(kept)), n_pulses)
    elif full:
        schedule = PulseSchedule.full(n_pulses)
    else:
        kept = draw(st.sets(st.integers(0, n_pulses - 1), min_size=1))
        schedule = PulseSchedule(tuple(sorted(kept)), n_pulses)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(cfg.n_cells) + 1j * rng.standard_normal(cfg.n_cells)
    trm = build_trm(RangeProfile(values, cfg), schedule, shape)
    return cfg, values, build_sensing_system(cfg, shape, schedule, trm)


# fixed examples and no example database: tier-1 runs read the same each time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(systems())
def test_operator_reproduces_echo_synthesis(case):
    _, values, sys_ = case
    atol = 1e-12 * float(np.abs(values).sum())
    assert np.allclose(sys_.phi @ values, sys_.y, rtol=0, atol=atol)


@PROPERTY
@given(systems())
def test_trm_is_the_operator_applied_to_the_profile(case):
    # echo synthesis and the operator share one kernel: no roundoff apart
    _, values, sys_ = case
    assert np.array_equal(sys_.apply(values), sys_.y)


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense(case, seed):
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(sys_.n_cells) + 1j * rng.standard_normal(sys_.n_cells)
    bound = 1e-12 * np.linalg.norm(sys_.phi) * np.linalg.norm(h)
    assert np.linalg.norm(sys_.apply(h) - sys_.phi @ h) <= bound


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_adjoint_matches_dense(case, seed):
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sys_.n_rows) + 1j * rng.standard_normal(sys_.n_rows)
    bound = 1e-12 * np.linalg.norm(sys_.phi) * np.linalg.norm(v)
    assert np.linalg.norm(sys_.adjoint(v) - sys_.phi.conj().T @ v) <= bound


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(case, seed):
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(sys_.n_cells) + 1j * rng.standard_normal(sys_.n_cells)
    v = rng.standard_normal(sys_.n_rows) + 1j * rng.standard_normal(sys_.n_rows)
    lhs = np.vdot(v, sys_.apply(h))
    rhs = np.vdot(sys_.adjoint(v), h)
    scale = np.linalg.norm(v) * np.linalg.norm(sys_.phi) * np.linalg.norm(h)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_normal_is_adjoint_of_apply(case, seed):
    # the normal operator least squares iterates with, on the full pulse
    # grid with the missing pulses zeroed, against the dense Phi^H Phi and
    # the matrix-free pair
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(sys_.n_cells) + 1j * rng.standard_normal(sys_.n_cells)
    radar = sys_.radar
    mask = np.zeros((radar.n_pulses, 1))
    mask[sys_.pulses] = 1.0
    normal = radar.backproject_grid(mask * radar.pulse_grid(h))
    bound = 1e-12 * np.linalg.norm(sys_.phi) ** 2 * np.linalg.norm(h)
    assert np.linalg.norm(normal - sys_.phi.conj().T @ (sys_.phi @ h)) <= bound
    assert np.linalg.norm(normal - sys_.adjoint(sys_.apply(h))) <= bound


@PROPERTY
@given(systems(full=True))
def test_operator_norm_sq_is_exact(case):
    # on a full schedule the full train's norm is this system's
    _, _, sys_ = case
    exact = np.linalg.norm(sys_.phi, 2) ** 2
    assert operator_norm_sq(sys_) == pytest.approx(exact, rel=1e-10)


@PROPERTY
@given(systems())
def test_operator_norm_sq_bounds_the_exact_norm(case):
    # the full train's norm: a schedule deletes rows, which cannot raise it
    _, _, sys_ = case
    exact = np.linalg.norm(sys_.phi, 2) ** 2
    assert operator_norm_sq(sys_) >= exact * (1 - 1e-12)


@PROPERTY
@given(systems(full=True))
def test_gram_blocks_are_the_fine_major_gram(case):
    cfg, _, sys_ = case
    n, l_bins = cfg.n_pulses, cfg.l_bins
    # fine-major position n L + l holds cell l N + n
    order = (np.arange(l_bins)[None, :] * n + np.arange(n)[:, None]).ravel()
    gram = (sys_.phi.conj().T @ sys_.phi)[np.ix_(order, order)]
    blocks = np.zeros_like(gram)
    for i, block in enumerate(sys_.radar.blocks):
        blocks[i * l_bins:(i + 1) * l_bins, i * l_bins:(i + 1) * l_bins] = block
    scale = max(float(np.max(np.abs(gram))), np.finfo(float).tiny)
    assert np.max(np.abs(gram - blocks)) <= 1e-12 * scale


@pytest.mark.parametrize("regime", ["complement", "rows", "columns"])
@PROPERTY
@given(data=st.data())
def test_least_squares_matches_dense_ridge_solution(regime, data):
    _, _, sys_ = data.draw(systems(regime=regime))
    assert_least_squares_matches_dense_ridge_solution(sys_)


def assert_least_squares_matches_dense_ridge_solution(sys_):
    phi = sys_.phi
    ridge = 1e-6 * np.linalg.norm(phi, 2) ** 2
    gram = phi.conj().T @ phi + ridge * np.eye(sys_.n_cells)
    dense = np.linalg.solve(gram, phi.conj().T @ sys_.y)
    h = solve_least_squares(sys_, SolverOptions(ls_ridge=ridge)).h_est
    assert np.linalg.norm(h - dense) <= 1e-8 * np.linalg.norm(dense)


def test_least_squares_matches_dense_ridge_solution_on_an_ill_conditioned_gate():
    # one example of the property above, found by search: pulse 1 of 2
    # kept, with a narrow windowed sinc. A Woodbury solve that corrected
    # the full train's ridge-shifted blocks for the missing pulse landed
    # about 4.5e-6 from the dense ridge solve, relative
    cfg = RadarConfig(
        f_c=5e9, delta_f=DELTA_F, n_pulses=2, pulse_bandwidth=DELTA_F,
        delta_t=6.25e-8, l_bins=3,
    )
    shape = PulseShape(DELTA_F, "windowed_sinc", "rect", 3.125e-8)
    schedule = PulseSchedule((1,), 2)
    rng = np.random.default_rng(3)
    values = rng.standard_normal(cfg.n_cells) + 1j * rng.standard_normal(cfg.n_cells)
    trm = build_trm(RangeProfile(values, cfg), schedule, shape)
    sys_ = build_sensing_system(cfg, shape, schedule, trm)
    assert_least_squares_matches_dense_ridge_solution(sys_)


# -- the soft-threshold prox ----------------------------------------------------

def complex_vector(seed, size=16):
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.01, 10.0)
    return scale * (rng.standard_normal(size) + 1j * rng.standard_normal(size))


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
def test_soft_threshold_is_firmly_non_expansive(seed_a, seed_b, t):
    a, b = complex_vector(seed_a), complex_vector(seed_b)
    da, db = soft_threshold(a, t), soft_threshold(b, t)
    gap = np.linalg.norm(da - db)
    assert gap <= np.linalg.norm(a - b) * (1 + 1e-12)
    # firm non-expansiveness, which characterises a proximal map
    assert np.vdot(da - db, a - b).real >= gap**2 - 1e-12 * np.linalg.norm(a - b) ** 2


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 3.0))
def test_soft_threshold_minimises_the_prox_objective(seed, t):
    # prox of t|.| at z: the minimiser of 0.5 |u - z|^2 + t |u|, which lies
    # on the ray through z; scan that ray by brute force
    z = complex_vector(seed, size=4)
    u = soft_threshold(z, t)
    radii = np.linspace(0.0, np.abs(z).max() + t, 100_001)
    for zi, ui in zip(z, u):
        ray = radii * np.exp(1j * np.angle(zi))
        scan = 0.5 * np.abs(ray - zi) ** 2 + t * radii
        best = 0.5 * abs(ui - zi) ** 2 + t * abs(ui)
        assert best <= scan.min() + 1e-12 * (1 + abs(zi) ** 2)
        assert abs(abs(ui) - radii[np.argmin(scan)]) <= radii[1]


# -- the batched pulse-grid operator ---------------------------------------------

# the benchmark's two gates: N=32, L=12 and N=64, L=16
BATCH_GATES = {
    f"N{n}_L{l}": RadarConfig(
        f_c=5e9, delta_f=DELTA_F, n_pulses=n, pulse_bandwidth=24e6, l_bins=l
    )
    for n, l in ((32, 12), (64, 16))
}


@pytest.mark.parametrize("k", range(1, 14))
@pytest.mark.parametrize("gate", BATCH_GATES)
@settings(PROPERTY, max_examples=4)
@given(st.integers(0, 2**32 - 1))
def test_batched_normal_matches_single_calls_bit_for_bit(gate, k, seed):
    # the sparse solver applies Phi and Phi^H to a batch of systems on the
    # full pulse grid, each with its own schedule masked in; every row must
    # carry the digits of its own system's apply and adjoint
    cfg = BATCH_GATES[gate]
    shape = PulseShape.ideal_sinc(cfg.pulse_bandwidth)
    rng = np.random.default_rng(seed)
    systems = []
    mask = np.zeros((k, cfg.n_pulses, 1))
    for j in range(k):
        schedule = random_missing_schedule(
            cfg.n_pulses, int(rng.integers(cfg.n_pulses)), int(rng.integers(2**32))
        )
        trm = Trm(np.zeros((schedule.m_count, cfg.n_samples)), schedule.valid_indices,
                  cfg.delta_t)
        systems.append(build_sensing_system(cfg, shape, schedule, trm))
        mask[j, systems[-1].pulses] = 1.0
    radar = systems[0].radar
    h = rng.standard_normal((k, cfg.n_cells)) + 1j * rng.standard_normal((k, cfg.n_cells))
    grid = radar.pulse_grid(h) * mask
    for s, row, g in zip(systems, h, grid):
        assert np.array_equal(g[s.pulses].T.ravel(), s.apply(row))
    batched = radar.backproject_grid(grid)
    single = np.stack([s.adjoint(s.apply(row)) for s, row in zip(systems, h)])
    assert np.array_equal(batched, single)


# -- per-trial seed streams -------------------------------------------------------

@PROPERTY
@given(st.integers(0, 2**63 - 1))
def test_sweep_points_draw_independently(seed):
    cfg = RadarConfig(
        f_c=5e9, delta_f=DELTA_F, n_pulses=16, pulse_bandwidth=24e6, l_bins=3
    )
    sweep, trials, streams = (2, 5, 9), range(2), (1, 2, 3)
    seeds = {
        (missing, trial, stream): child_seed(seed, missing, trial, stream)
        for missing in sweep for trial in trials for stream in streams
    }
    assert len(set(seeds.values())) == len(seeds)
    draws = []
    for missing in sweep:
        for trial in trials:
            target = draw_synthetic_target(cfg, 8, seeds[missing, trial, 1]).values
            kept = random_missing_schedule(
                cfg.n_pulses, missing, seeds[missing, trial, 2]
            ).valid_indices
            unit = _unit_noise(seeds[missing, trial, 3], cfg.n_pulses, cfg.n_samples)
            noise = unit[list(kept)]
            draws.append((target[target != 0], noise[:, 0]))
    for i, (target_a, noise_a) in enumerate(draws):
        for target_b, noise_b in draws[i + 1:]:
            assert not np.isin(target_a, target_b).any()
            assert not np.isin(noise_a, noise_b).any()
