import tracemalloc

import numpy as np
import pytest

from sfradar import (
    PulseSchedule,
    PulseShape,
    RadarConfig,
    RangeProfile,
    SensingSystem,
    SolverOptions,
    build_sensing_system,
    build_trm,
    random_missing_schedule,
    soft_threshold,
    solve_least_squares,
    solve_sparse_l1,
    solve_stretch_idft,
)
from sfradar.echo import Trm, _Radar
from sfradar.harness import ExperimentSpec, SyntheticSparse, draw_trial
from sfradar.solvers import operator_norm_sq, prox_gradient_l1
from conftest import sparse_profile


def with_y(sys_, y):
    """The same operator as sys_ observing y."""
    return SensingSystem(y, sys_.noise_sigma, sys_.radar, sys_.pulses)


def random_system(s_count, n_pulses, l_bins, m_count, rng, k=5, noise=0.0):
    """A k-sparse x and a system observing it: a random real shape matrix
    (s_count x n_pulses * l_bins) on a random subset of m_count pulses."""
    n = n_pulses * l_bins
    rows = s_count * m_count
    envelopes = rng.standard_normal((s_count, n)) / np.sqrt(rows)
    pulses = np.sort(rng.choice(n_pulses, m_count, replace=False))
    x = np.zeros(n, dtype=complex)
    x[rng.choice(n, k, replace=False)] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    radar = _Radar(envelopes, n_pulses)
    sys_ = SensingSystem(np.zeros(rows, dtype=complex), noise, radar, pulses)
    y = sys_.apply(x)
    if noise:
        y = y + noise * (rng.standard_normal(rows) + 1j * rng.standard_normal(rows))
    return x, with_y(sys_, y)


def radar_system(cfg, shape, n_missing, rng, n_scatterers, noise=None, seed=0):
    values = sparse_profile(cfg, n_scatterers, rng)
    profile = RangeProfile(values, cfg)
    schedule = random_missing_schedule(cfg.n_pulses, n_missing, seed=seed)
    trm = build_trm(profile, schedule, shape, noise)
    return values, trm, build_sensing_system(cfg, shape, schedule, trm)


def full_train_norm_sq(cfg, shape):
    """Dense squared norm of the operator with every pulse present."""
    _, _, sys_ = radar_system(cfg, shape, 0, np.random.default_rng(0), 1)
    return np.linalg.norm(sys_.phi, 2) ** 2


# -- complex soft-thresholding ------------------------------------------------

def test_soft_threshold_closed_form():
    rng = np.random.default_rng(31)
    z = rng.standard_normal(50) + 1j * rng.standard_normal(50)
    t = 0.7
    out = soft_threshold(z, t)
    expected = z * np.maximum(1 - t / np.abs(z), 0)
    assert np.allclose(out, expected, atol=1e-15)
    assert soft_threshold(np.zeros(3, dtype=complex), 0.5) == pytest.approx(0)


def test_soft_threshold_against_grid_minimization():
    # prox of t*|u| at z: minimize 0.5|u - z|^2 + t|u| along the phase ray
    rng = np.random.default_rng(32)
    for _ in range(20):
        z = complex(rng.standard_normal(), rng.standard_normal()) * rng.uniform(0.1, 3)
        t = rng.uniform(0.05, 2.0)
        prox = soft_threshold(np.array([z]), t)[0]
        radii = np.linspace(0.0, abs(z) + t, 200_001)
        objective = 0.5 * (radii - abs(z)) ** 2 + t * radii
        best = radii[int(np.argmin(objective))]
        assert abs(abs(prox) - best) <= 1e-5 * max(1.0, abs(z))
        if abs(prox) > 0:
            # phase preserved
            assert abs(prox / abs(prox) - z / abs(z)) <= 1e-12


def test_soft_threshold_phase_ray_is_optimal():
    # coarse 2-d scan: nothing off the phase ray beats the prox output
    z = 1.1 - 0.6j
    t = 0.4
    prox = soft_threshold(np.array([z]), t)[0]
    prox_obj = 0.5 * abs(prox - z) ** 2 + t * abs(prox)
    radii = np.linspace(0, abs(z) + t, 301)
    angles = np.linspace(0, 2 * np.pi, 361)
    u = radii[:, None] * np.exp(1j * angles[None, :])
    objective = 0.5 * np.abs(u - z) ** 2 + t * np.abs(u)
    assert prox_obj <= np.min(objective) + 1e-6


# -- operator norm ------------------------------------------------------------

def test_operator_norm_sq_cached_on_system(cfg32, ideal_shape, monkeypatch):
    rng = np.random.default_rng(44)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 8, rng, 24)
    first = operator_norm_sq(sys_)
    # the full train's norm, never below this schedule's
    assert first == pytest.approx(full_train_norm_sq(cfg32, ideal_shape), rel=1e-10)
    assert first >= np.linalg.norm(sys_.phi, 2) ** 2 * (1 - 1e-12)

    def no_eigvalsh(*args):
        raise AssertionError("norm recomputed for a radar already measured")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    assert operator_norm_sq(sys_) == first
    # another schedule of the same radar and pulse shape shares it
    _, _, other = radar_system(cfg32, ideal_shape, 20, rng, 24, seed=3)
    assert operator_norm_sq(other) == first


@pytest.mark.parametrize("shape_args", [
    (), ("rect", 2 / 24e6), ("hamming", 2 / 24e6), ("hann", 2 / 24e6),
], ids=["ideal_sinc", "rect", "hamming", "hann"])
def test_operator_norm_sq_is_at_least_the_pulse_count(cfg32, shape_args):
    # E[0, 0] is the pulse shape at tau = 0, 1 for every shape, so column 0
    # of the full train has squared norm >= N; the default LS ridge,
    # 1e-6 * norm_sq, is therefore always positive
    shape = (PulseShape.windowed_sinc(24e6, *shape_args) if shape_args
             else PulseShape.ideal_sinc(24e6))
    _, _, sys_ = radar_system(cfg32, shape, 12, np.random.default_rng(5), 24)
    assert operator_norm_sq(sys_) >= cfg32.n_pulses


@pytest.mark.parametrize("n_missing", [0, 4, 8, 12, 16, 20])
def test_small_normal_forms_skip_the_column_gram(cfg32, ideal_shape, monkeypatch,
                                                 n_missing):
    # the norm comes from the full train's L x L blocks on every schedule;
    # LS solves S(N - M) x S(N - M) (complement) or S*M x S*M (rows), never NL x NL
    rng = np.random.default_rng(47)
    _, _, sys_ = radar_system(cfg32, ideal_shape, n_missing, rng, 24)
    exact = np.linalg.norm(sys_.phi, 2) ** 2
    full = full_train_norm_sq(cfg32, ideal_shape)
    row_grams = []
    row_gram = SensingSystem.row_gram

    def no_gram(self):
        raise AssertionError("Gram matrix built for the norm")

    monkeypatch.setattr(SensingSystem, "gram", no_gram)
    monkeypatch.setattr(SensingSystem, "row_gram", no_gram)
    norm = operator_norm_sq(sys_)
    assert norm == pytest.approx(full, rel=1e-10)
    assert norm >= exact * (1 - 1e-12)

    def counted_row_gram(self):
        row_grams.append(self)
        return row_gram(self)

    monkeypatch.setattr(SensingSystem, "row_gram", counted_row_gram)
    fresh = with_y(sys_, sys_.y)  # no norm cached yet
    assert solve_least_squares(fresh).converged
    # only the row form (20 missing: S*M = 216 < S(N - M) = 360) builds it,
    # once, for the solve
    assert len(row_grams) == (1 if n_missing == 20 else 0)


def test_row_gram_memory(cfg32, ideal_shape):
    rng = np.random.default_rng(48)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 20, rng, 24)
    tracemalloc.start()
    try:
        gram = sys_.row_gram()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram.shape == (sys_.n_rows, sys_.n_rows)
    assert peak < 1.5 * gram.nbytes


def test_large_gate_least_squares_stays_below_one_column_gram(monkeypatch):
    # N=64, L=16, 16 missing: the complement form (384 rows) against a
    # 1024 x 1024 column Gram
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=64, pulse_bandwidth=24e6, l_bins=16
    )
    shape = PulseShape.ideal_sinc(cfg.pulse_bandwidth)
    rng = np.random.default_rng(49)
    _, _, sys_ = radar_system(cfg, shape, 16, rng, 24, seed=5)

    def no_gram(self):
        raise AssertionError("NL x NL Gram matrix built")

    monkeypatch.setattr(SensingSystem, "gram", no_gram)
    tracemalloc.start()
    try:
        h = solve_least_squares(sys_).h_est
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys_.n_cells**2 * np.dtype(np.complex128).itemsize

    phi = sys_.phi
    ridge = 1e-6 * operator_norm_sq(sys_)
    gram = phi.conj().T @ phi
    gram[np.diag_indices_from(gram)] += ridge
    dense = np.linalg.solve(gram, phi.conj().T @ sys_.y)
    assert np.linalg.norm(h - dense) <= 1e-8 * np.linalg.norm(dense)


@pytest.mark.parametrize("n_missing", [0, 8, 20])
def test_ls_ridge_values_on_one_radar_match_dense(cfg32, ideal_shape, n_missing):
    # complement form at 0 and 8 missing, row form at 20; the ridge-shifted
    # factors are kept per ridge, so the second value must not reuse the first
    from sfradar import NoiseModel

    rng = np.random.default_rng(50)
    _, _, sys_ = radar_system(
        cfg32, ideal_shape, n_missing, rng, 24, noise=NoiseModel(snr_db=15.0, seed=2)
    )
    phi = sys_.phi
    gram = phi.conj().T @ phi
    rhs = phi.conj().T @ sys_.y
    norm = operator_norm_sq(sys_)
    for ridge in (1e-6 * norm, 1e-2 * norm, 1e-6 * norm):
        h = solve_least_squares(sys_, SolverOptions(ls_ridge=ridge)).h_est
        dense = np.linalg.solve(gram + ridge * np.eye(sys_.n_cells), rhs)
        assert np.linalg.norm(h - dense) <= 1e-8 * np.linalg.norm(dense)


# -- sparse recovery ----------------------------------------------------------

def test_sparse_zero_observation():
    rng = np.random.default_rng(34)
    _, sys_ = random_system(4, 10, 3, 5, rng)  # 20 rows, 30 cells
    sys_zero = with_y(sys_, np.zeros(20, dtype=complex))
    rec = solve_sparse_l1(sys_zero, SolverOptions(epsilon=0.0))
    assert np.all(rec.h_est == 0)
    assert rec.residual_l2 == 0.0
    assert rec.converged
    assert rec.epsilon_used == 0.0


def test_sparse_noiseless_exact_recovery():
    # 20-of-32 pulses, 4 coarse bins, 5 scatterers: expect near-exact recovery
    cfg = RadarConfig(f_c=5e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=4)
    shape = PulseShape.ideal_sinc(24e6)
    failures = 0
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        values, _, sys_ = radar_system(cfg, shape, 12, rng, 5, seed=trial)
        eps = 1e-6 * float(np.linalg.norm(sys_.y))
        rec = solve_sparse_l1(sys_, SolverOptions(epsilon=eps))
        rel = np.linalg.norm(rec.h_est - values) / np.linalg.norm(values)
        failures += rel > 1e-3
    assert failures <= 1


def test_sparse_converged_meets_budget(cfg32, ideal_shape):
    from sfradar import NoiseModel

    rng = np.random.default_rng(35)
    _, _, sys_ = radar_system(
        cfg32, ideal_shape, 12, rng, 24, noise=NoiseModel(snr_db=15.0, seed=1)
    )
    rec = solve_sparse_l1(sys_)
    assert rec.converged
    assert rec.residual_l2 <= 1.001 * rec.epsilon_used
    # residual reported from the returned estimate, not solver internals
    manual = float(np.linalg.norm(sys_.y - sys_.phi @ rec.h_est))
    assert rec.residual_l2 == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("trial", [0, 2, 14])
def test_sparse_many_missing_pulses_converge_quickly(cfg32, trial):
    # README gate, 20 of 32 pulses missing at 15 dB: without the momentum
    # restart these trials oscillate through 433, 527 and 660 iterations
    spec = ExperimentSpec(
        radar=cfg32, target=SyntheticSparse(24), sweep=(20,), snr_db=(15.0,),
        trials_per_point=trial + 1, seed=1, solvers=("sparse_l1",),
    )
    _, _, sys_ = draw_trial(spec, 20, 15.0, trial)
    rec = solve_sparse_l1(sys_, spec.solver_opts)
    assert rec.converged
    assert rec.residual_l2 <= rec.epsilon_used
    assert rec.iterations <= 260


def test_sparse_infeasible_budget_returns_best_iterate():
    # inconsistent overdetermined system: no estimate reaches a zero residual
    rng = np.random.default_rng(36)
    _, sys_ = random_system(8, 5, 2, 5, rng, k=3, noise=0.1)  # 40 rows, 10 cells
    rec = solve_sparse_l1(sys_, SolverOptions(epsilon=1e-12, lambda_path_steps=4))
    assert not rec.converged
    assert rec.h_est.shape == (10,)
    assert np.isfinite(rec.residual_l2)
    assert rec.residual_l2 > 1e-12


def test_sparse_orthogonal_observation_degenerate():
    # y exactly orthogonal to the operator range: sample 1 has an all-zero
    # shape row and y lives only on its rows, so correlations vanish
    envelopes = np.array([[1.0, 0.5, -0.25, 2.0], [0.0, 0.0, 0.0, 0.0]])
    y = np.array([0.0, 0.0, 0.6, 0.8j], dtype=complex)
    sys_ = SensingSystem(y, 0.0, _Radar(envelopes, 2), pulses=(0, 1))
    assert np.all(sys_.adjoint(y) == 0)
    rec = solve_sparse_l1(sys_, SolverOptions(epsilon=0.5))
    assert np.all(rec.h_est == 0)
    assert not rec.converged  # ||y|| = 1 > 0.5, yet nothing can reduce it
    assert rec.residual_l2 == pytest.approx(1.0)


def test_sparse_rejects_non_finite():
    rng = np.random.default_rng(38)
    _, sys_ = random_system(2, 5, 3, 5, rng)  # 10 rows, 15 cells
    bad = with_y(sys_, sys_.y.copy())
    bad.y[0] = np.nan
    with pytest.raises(ValueError):
        solve_sparse_l1(bad)


def test_sparse_forms_the_adjoint_once(cfg32, ideal_shape, monkeypatch):
    # noiseless, so eps = 0 and every penalty level of the path runs
    rng = np.random.default_rng(41)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 12, rng, 24)
    calls = []
    adjoint = SensingSystem.adjoint

    def counted(self, v):
        calls.append(v)
        return adjoint(self, v)

    monkeypatch.setattr(SensingSystem, "adjoint", counted)
    rec = solve_sparse_l1(sys_)
    assert rec.epsilon_used == 0.0 and not rec.converged
    assert len(calls) == 1


def test_every_route_rejects_a_non_finite_trm(cfg32, ideal_shape):
    # built by hand: build_trm and load_trm_file never give a NaN sample
    schedule = random_missing_schedule(32, 4, seed=5)
    data = np.zeros((schedule.m_count, cfg32.n_samples), dtype=complex)
    data[3, 5] = np.nan
    instants = np.arange(cfg32.n_samples) * cfg32.delta_t
    trm = Trm(data, schedule.valid_indices, instants)
    sys_ = build_sensing_system(cfg32, ideal_shape, schedule, trm)
    for solve in (solve_sparse_l1, solve_least_squares):
        with pytest.raises(ValueError, match="non-finite"):
            solve(sys_)
    with pytest.raises(ValueError, match="non-finite"):
        solve_stretch_idft(trm, cfg32, ideal_shape)


def test_prox_gradient_objective_monotone_without_acceleration():
    rng = np.random.default_rng(39)
    x_true, sys_ = random_system(6, 9, 5, 5, rng, k=4)  # 30 rows, 45 cells
    lam = 0.05 * float(np.max(np.abs(sys_.phi.conj().T @ sys_.y)))
    step = 1.0 / (1.01 * np.linalg.norm(sys_.phi, 2) ** 2)

    def objective(x):
        r = sys_.y - sys_.phi @ x
        return 0.5 * float(np.vdot(r, r).real) + lam * float(np.sum(np.abs(x)))

    # plain ISTA one iteration per call, each call started from the last iterate
    x, history = np.zeros(45, dtype=complex), []
    for _ in range(500):
        x, _ = prox_gradient_l1(
            sys_, sys_.adjoint(sys_.y), lam, step, x, 1, 1e-12, accelerate=False
        )
        history.append(objective(x))
    history = np.asarray(history)
    increases = np.diff(history)
    assert np.all(increases <= 1e-10 * np.maximum(history[:-1], 1.0))


def test_prox_gradient_fixed_point_optimality():
    # at the minimizer, the support gradient balances the shrinkage force
    rng = np.random.default_rng(40)
    _, sys_ = random_system(6, 16, 4, 8, rng, k=5)  # 48 rows, 64 cells
    lam = 0.05 * float(np.max(np.abs(sys_.phi.conj().T @ sys_.y)))
    step = 1.0 / (1.01 * np.linalg.norm(sys_.phi, 2) ** 2)
    x, _ = prox_gradient_l1(
        sys_, sys_.adjoint(sys_.y), lam, step, np.zeros(64, dtype=complex), 50_000, 1e-14
    )
    support = np.abs(x) > 1e-9 * np.max(np.abs(x))
    grad = sys_.phi.conj().T @ (sys_.phi @ x - sys_.y)
    stationarity = grad[support] + lam * x[support] / np.abs(x[support])
    assert np.max(np.abs(stationarity)) <= 1e-3 * lam
    # off the support the correlation cannot exceed the threshold
    assert np.max(np.abs(grad[~support])) <= lam * (1 + 1e-6)


def test_prox_gradient_does_not_copy_the_operator(cfg32, ideal_shape):
    rng = np.random.default_rng(43)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 8, rng, 24)
    lam = 0.05 * float(np.max(np.abs(sys_.adjoint(sys_.y))))
    step = 1.0 / (1.01 * operator_norm_sq(sys_))
    x0 = np.zeros(sys_.n_cells, dtype=complex)
    tracemalloc.start()
    try:
        _, iters = prox_gradient_l1(
            sys_, sys_.adjoint(sys_.y), lam, step, x0, 20, 1e-14
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iters == 20
    assert peak < sys_.phi.nbytes / 4


def test_solvers_never_build_the_dense_operator(cfg32, ideal_shape):
    rng = np.random.default_rng(46)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 8, rng, 24)
    solve_sparse_l1(sys_)
    solve_least_squares(sys_)
    # phi is built on first access and then kept on the system
    assert "phi" not in vars(sys_)


# -- least squares ------------------------------------------------------------

def test_ls_zero_observation():
    rng = np.random.default_rng(41)
    _, sys_ = random_system(4, 5, 2, 5, rng)  # 20 rows, 10 cells
    sys_zero = with_y(sys_, np.zeros(20, dtype=complex))
    rec = solve_least_squares(sys_zero)
    assert np.allclose(rec.h_est, 0)
    assert rec.converged


def test_ls_recovers_full_rank_noiseless(cfg32, ideal_shape):
    rng = np.random.default_rng(42)
    values, _, sys_ = radar_system(cfg32, ideal_shape, 0, rng, 24)
    # confirm the full-pulse operator actually has full column rank
    smallest_sv = np.linalg.svd(sys_.phi, compute_uv=False)[-1]
    assert smallest_sv > 1e-6
    rec = solve_least_squares(sys_, SolverOptions(ls_ridge=1e-12))
    rel = np.linalg.norm(rec.h_est - values) / np.linalg.norm(values)
    assert rel <= 1e-6


def test_ls_satisfies_normal_equations(cfg32, ideal_shape):
    from sfradar import NoiseModel

    rng = np.random.default_rng(43)
    _, _, sys_ = radar_system(
        cfg32, ideal_shape, 12, rng, 24, noise=NoiseModel(snr_db=15.0, seed=2)
    )
    opts = SolverOptions(ls_ridge=1e-6 * operator_norm_sq(sys_))
    rec = solve_least_squares(sys_, opts)
    gram = sys_.phi.conj().T @ sys_.phi + opts.ls_ridge * np.eye(sys_.n_cells)
    rhs = sys_.phi.conj().T @ sys_.y
    lhs = gram @ rec.h_est
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_ls_scaling_equivariance():
    rng = np.random.default_rng(44)
    _, sys_ = random_system(6, 5, 4, 5, rng, noise=0.05)  # 30 rows, 20 cells
    alpha = 2.5 - 1.25j
    opts = SolverOptions(ls_ridge=1e-4)
    base = solve_least_squares(sys_, opts)
    scaled_sys = with_y(sys_, alpha * sys_.y)
    scaled = solve_least_squares(scaled_sys, opts)
    assert np.allclose(scaled.h_est, alpha * base.h_est, rtol=1e-10, atol=1e-14)


def test_ls_residual_recomputed(cfg32, ideal_shape):
    rng = np.random.default_rng(45)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 8, rng, 10)
    rec = solve_least_squares(sys_)
    manual = float(np.linalg.norm(sys_.y - sys_.phi @ rec.h_est))
    assert rec.residual_l2 == pytest.approx(manual, rel=1e-12)


# -- stretch processing -------------------------------------------------------

def naive_idft(x):
    n = x.size
    out = np.empty(n, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for i in range(n):
            acc += x[i] * np.exp(2j * np.pi * i * k / n)
        out[k] = acc / n
    return out


def test_stretch_zero_trm(cfg32, ideal_shape):
    profile = RangeProfile(np.zeros(cfg32.n_cells, dtype=complex), cfg32)
    trm = build_trm(profile, PulseSchedule.full(32), ideal_shape)
    rec = solve_stretch_idft(trm, cfg32, ideal_shape)
    assert np.all(rec.h_est == 0)
    assert rec.converged


def test_stretch_peak_at_aligned_cell():
    # sampling grid aligned to the cell grid: bandwidth 32 MHz, so one cell
    # is exactly 1/16 of a sample and cell 16 falls on sample instant 1
    cfg = RadarConfig(f_c=5e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=32e6, l_bins=4)
    shape = PulseShape.ideal_sinc(32e6)
    values = np.zeros(cfg.n_cells, dtype=complex)
    values[16] = 1.0
    profile = RangeProfile(values, cfg)
    trm = build_trm(profile, PulseSchedule.full(32), shape)
    rec = solve_stretch_idft(trm, cfg, shape)
    assert int(np.argmax(np.abs(rec.h_est))) == 16
    assert rec.converged


def test_stretch_matches_naive_dft_oracle(cfg32, ideal_shape):
    from sfradar.solvers import stretch_bin_columns

    rng = np.random.default_rng(47)
    values = sparse_profile(cfg32, 12, rng)
    profile = RangeProfile(values, cfg32)
    trm = build_trm(profile, PulseSchedule.full(32), ideal_shape)
    rec = solve_stretch_idft(trm, cfg32, ideal_shape)
    cols = stretch_bin_columns(cfg32)
    expected = np.concatenate([naive_idft(trm.data[:, c]) for c in cols])
    scale = np.linalg.norm(expected)
    assert np.linalg.norm(rec.h_est - expected) <= 1e-12 * scale


def test_stretch_zero_fills_missing_rows(cfg32, ideal_shape):
    rng = np.random.default_rng(48)
    values = sparse_profile(cfg32, 12, rng)
    profile = RangeProfile(values, cfg32)
    schedule = random_missing_schedule(32, 12, seed=3)
    trm = build_trm(profile, schedule, ideal_shape)
    rec = solve_stretch_idft(trm, cfg32, ideal_shape)
    assert not rec.converged  # degraded: rows had to be zero-filled
    # oracle: embed rows into a full zero grid and transform per bin
    from sfradar.solvers import stretch_bin_columns

    grid = np.zeros((32, 18), dtype=complex)
    grid[list(schedule.valid_indices)] = trm.data
    cols = stretch_bin_columns(cfg32)
    expected = np.concatenate([naive_idft(grid[:, c]) for c in cols])
    assert np.allclose(rec.h_est, expected, atol=1e-12)


def test_stretch_residual_recomputed(cfg32, ideal_shape):
    rng = np.random.default_rng(49)
    values = sparse_profile(cfg32, 6, rng)
    profile = RangeProfile(values, cfg32)
    schedule = PulseSchedule.full(32)
    trm = build_trm(profile, schedule, ideal_shape)
    sys_ = build_sensing_system(cfg32, ideal_shape, schedule, trm)
    rec = solve_stretch_idft(trm, cfg32, ideal_shape)
    manual = float(np.linalg.norm(sys_.y - sys_.phi @ rec.h_est))
    assert rec.residual_l2 == pytest.approx(manual, rel=1e-12)


# -- options ------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_iters=0),
        dict(rel_change_tol=0.0),
        dict(lambda_ratio=1.0),
        dict(lambda_path_steps=0),
        dict(epsilon=-1.0),
        dict(ls_ridge=0.0),
        dict(epsilon_factor=-0.5),
    ],
)
def test_solver_options_validation(kwargs):
    with pytest.raises(ValueError):
        SolverOptions(**kwargs)


def test_epsilon_from_noise_level():
    rng = np.random.default_rng(50)
    _, sys_ = random_system(5, 8, 5, 5, rng, noise=0.3)  # 25 rows, 40 cells
    opts = SolverOptions()
    assert opts.resolve_epsilon(sys_) == pytest.approx(1.1 * 0.3 * np.sqrt(25))
    explicit = SolverOptions(epsilon=0.123)
    assert explicit.resolve_epsilon(sys_) == 0.123
