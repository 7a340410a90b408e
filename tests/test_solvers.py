import sys
import threading
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
    solve_least_squares_batch,
    solve_sparse_l1,
    solve_sparse_l1_batch,
    solve_stretch_idft,
)
from sfradar.echo import Trm, _Radar, _radar_model
from sfradar.model import ConfigError
from sfradar.harness import ExperimentSpec, SyntheticSparse, draw_trial
from sfradar import solvers
from sfradar.solvers import RIDGE_FLOOR, operator_norm_sq
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
    shape = (PulseShape(24e6, "windowed_sinc", *shape_args) if shape_args
             else PulseShape.ideal_sinc(24e6))
    _, _, sys_ = radar_system(cfg32, shape, 12, np.random.default_rng(5), 24)
    assert operator_norm_sq(sys_) >= cfg32.n_pulses


@pytest.mark.parametrize("n_missing", [0, 4, 8, 12, 16, 20])
def test_operator_norm_sq_is_the_full_train_norm_on_every_schedule(cfg32, ideal_shape,
                                                                   n_missing):
    # the norm comes from the full train's L x L blocks on every schedule,
    # bounds this schedule's, and is all that least squares needs of Phi
    # besides the apply/adjoint pair
    rng = np.random.default_rng(47)
    _, _, sys_ = radar_system(cfg32, ideal_shape, n_missing, rng, 24)
    exact = np.linalg.norm(sys_.phi, 2) ** 2
    full = full_train_norm_sq(cfg32, ideal_shape)
    norm = operator_norm_sq(sys_)
    assert norm == pytest.approx(full, rel=1e-10)
    assert norm >= exact * (1 - 1e-12)

    fresh = with_y(sys_, sys_.y)  # no Phi^H y formed yet
    assert solve_least_squares(fresh).converged
    assert "phi" not in vars(fresh)


def test_large_gate_least_squares_stays_below_one_column_gram():
    # N=64, L=16, 16 missing: the CG state against a 1024 x 1024 column Gram
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=64, pulse_bandwidth=24e6, l_bins=16
    )
    shape = PulseShape.ideal_sinc(cfg.pulse_bandwidth)
    rng = np.random.default_rng(49)
    _, _, sys_ = radar_system(cfg, shape, 16, rng, 24, seed=5)

    tracemalloc.start()
    try:
        h = solve_least_squares(sys_).h_est
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys_.n_cells**2 * np.dtype(np.complex128).itemsize

    # noiseless, so the default ridge is the floor
    phi = sys_.phi
    ridge = RIDGE_FLOOR * operator_norm_sq(sys_)
    gram = phi.conj().T @ phi
    gram[np.diag_indices_from(gram)] += ridge
    dense = np.linalg.solve(gram, phi.conj().T @ sys_.y)
    assert np.linalg.norm(h - dense) <= 1e-8 * np.linalg.norm(dense)


def large_gate_systems(missing_and_seeds, rng, noise=None):
    """Systems of the N=64, L=16 radar, one per (missing count, schedule seed)."""
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=64, pulse_bandwidth=24e6, l_bins=16
    )
    shape = PulseShape.ideal_sinc(cfg.pulse_bandwidth)
    return [
        radar_system(cfg, shape, m, rng, 24, noise=noise, seed=s)[2]
        for m, s in missing_and_seeds
    ]


def test_least_squares_batch_holds_a_few_profiles_per_system():
    # N=64, L=16 at 15 dB, 8 systems in one batch: the CG loop's state is a
    # few arrays of NL cells and a pulse grid per system, against a 384 x
    # 384 capacitance matrix (2.4 MB) per trial before
    from sfradar import NoiseModel

    systems = large_gate_systems([(16, s) for s in range(6, 14)],
                                 np.random.default_rng(51), NoiseModel(15.0, 3))
    for s in systems:
        s.adjoint_y  # formed by the sweep before the solve
    tracemalloc.start()
    try:
        results = solve_least_squares_batch(systems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.converged for r in results)
    profile = systems[0].n_cells * np.dtype(np.complex128).itemsize
    assert peak < 16 * profile * len(systems)


def test_concurrent_least_squares_threads_match_serial_calls(cfg32, ideal_shape):
    # more threads than CPUs, each solving its own system of the one shared
    # radar over and over, with frequent switches
    rng = np.random.default_rng(53)
    systems = [
        radar_system(cfg32, ideal_shape, m, rng, 24, seed=m)[2] for m in (16, 8, 20, 12)
    ]
    assert len({id(s.radar) for s in systems}) == 1
    serial = [solve_least_squares(s).h_est for s in systems]
    ROUNDS = 20
    barrier = threading.Barrier(len(systems), timeout=60)
    outs = [[] for _ in systems]

    def work(s, out):
        barrier.wait()
        for _ in range(ROUNDS):
            out.append(solve_least_squares(s).h_est)

    threads = [threading.Thread(target=work, args=a) for a in zip(systems, outs)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out, ref in zip(outs, serial):
        assert len(out) == ROUNDS
        assert all(np.array_equal(h, ref) for h in out)


def test_both_methods_form_phi_h_y_once(cfg32, ideal_shape, monkeypatch):
    # the least-squares and sparse routes read one cached Phi^H y
    from sfradar import NoiseModel

    _, _, sys_ = radar_system(
        cfg32, ideal_shape, 8, np.random.default_rng(54), 24, NoiseModel(15.0, 3)
    )
    calls = []
    adjoint = SensingSystem.adjoint

    def counted(self, v):
        calls.append(v)
        return adjoint(self, v)

    monkeypatch.setattr(SensingSystem, "adjoint", counted)
    assert solve_sparse_l1(sys_).converged
    solve_least_squares(sys_)
    assert len(calls) == 1
    assert not sys_.adjoint_y.flags.writeable


@pytest.mark.parametrize("n_missing", [0, 8, 20])
def test_ls_ridge_values_on_one_radar_match_dense(cfg32, ideal_shape, n_missing):
    # one radar, three ridges in turn: each solve reads only its own
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
    # README gate, 20 of 32 pulses missing at 15 dB: the count that takes
    # the most iterations
    spec = ExperimentSpec(
        radar=cfg32, target=SyntheticSparse(24), sweep=(20,), snr_db=(15.0,),
        trials_per_point=trial + 1, seed=1, solvers=("sparse_l1",),
    )
    _, _, sys_ = draw_trial(spec, 20, 15.0, trial)
    rec = solve_sparse_l1(sys_, spec.solver_opts)
    assert rec.converged
    assert rec.residual_l2 <= rec.epsilon_used
    assert rec.iterations <= 260


def test_sparse_infeasible_budget_returns_last_iterate():
    # inconsistent overdetermined system: no estimate reaches a zero residual
    rng = np.random.default_rng(36)
    _, sys_ = random_system(8, 5, 2, 5, rng, k=3, noise=0.1)  # 40 rows, 10 cells
    rec = solve_sparse_l1(sys_, SolverOptions(epsilon=1e-12, max_iters=50))
    assert not rec.converged
    assert rec.iterations == 50
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
    y = sys_.y.copy()
    y[0] = np.nan
    # rejected when the system is built, before any solver sees it
    with pytest.raises(ValueError, match="non-finite"):
        with_y(sys_, y)


def test_sparse_forms_the_adjoint_once(cfg32, ideal_shape, monkeypatch):
    # noiseless, so eps = 0: the loop runs to the zero budget's tolerance,
    # and Phi^H y is formed once, for the zero-profile checks
    rng = np.random.default_rng(41)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 12, rng, 24)
    calls = []
    adjoint = SensingSystem.adjoint

    def counted(self, v):
        calls.append(v)
        return adjoint(self, v)

    monkeypatch.setattr(SensingSystem, "adjoint", counted)
    rec = solve_sparse_l1(sys_)
    assert rec.epsilon_used == 0.0 and rec.converged
    assert rec.residual_l2 <= 1e-3 * np.linalg.norm(sys_.y)
    assert len(calls) == 1


def test_every_route_rejects_a_non_finite_trm(cfg32, ideal_shape):
    # built by hand: build_trm and load_trm_file never give a NaN sample.
    # The sparse and LS routes take a system, which rejects it when built;
    # stretch builds its own
    schedule = random_missing_schedule(32, 4, seed=5)
    data = np.zeros((schedule.m_count, cfg32.n_samples), dtype=complex)
    data[3, 5] = np.nan
    trm = Trm(data, schedule.valid_indices, cfg32.delta_t)
    with pytest.raises(ValueError, match="non-finite"):
        build_sensing_system(cfg32, ideal_shape, schedule, trm)
    with pytest.raises(ValueError, match="non-finite"):
        solve_stretch_idft(trm, cfg32, ideal_shape)


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_sparse_meets_the_optimality_conditions(seed, monkeypatch):
    # KKT of min ||h||_1 s.t. ||y - Phi h|| <= eps with the budget active:
    # Phi^H r has one common modulus on the support, where its phase is
    # h's, and no larger modulus off it
    rng = np.random.default_rng(seed)
    _, sys_ = random_system(6, 16, 4, 8, rng, k=5, noise=0.05)  # 48 rows, 64 cells
    eps = 0.3 * float(np.linalg.norm(sys_.y))
    monkeypatch.setattr(solvers, "REL_CHANGE_TOL", 1e-12)
    opts = SolverOptions(epsilon=eps, max_iters=100_000)
    rec = solve_sparse_l1(sys_, opts)
    assert rec.converged and rec.residual_l2 >= 0.99 * eps
    h = rec.h_est
    g = sys_.phi.conj().T @ (sys_.y - sys_.phi @ h)
    support = h != 0
    modulus = np.abs(g[support])
    assert support.sum() >= 3
    assert modulus.min() >= (1 - 1e-6) * modulus.max()
    phase = g[support] / modulus - h[support] / np.abs(h[support])
    assert np.max(np.abs(phase)) <= 1e-6
    assert np.max(np.abs(g[~support])) <= (1 + 1e-6) * modulus.max()


def test_sparse_exits_at_the_budget(cfg32):
    # the README gate at 15 dB, two trials per missing count: the minimiser
    # meets the budget with equality, and the loop stops just inside it
    spec = ExperimentSpec(
        radar=cfg32, target=SyntheticSparse(24), sweep=(0, 4, 8, 12, 16, 20),
        snr_db=(15.0,), trials_per_point=2, seed=1, solvers=("sparse_l1",),
    )
    systems = [draw_trial(spec, m, 15.0, t)[2] for m in spec.sweep for t in range(2)]
    for rec in solve_sparse_l1_batch(systems, spec.solver_opts):
        assert rec.converged
        assert 0.99 * rec.epsilon_used <= rec.residual_l2 <= rec.epsilon_used


def test_sparse_does_not_copy_the_operator(cfg32, ideal_shape):
    from sfradar import NoiseModel

    rng = np.random.default_rng(43)
    _, _, sys_ = radar_system(cfg32, ideal_shape, 8, rng, 24, NoiseModel(15.0, 4))
    tracemalloc.start()
    try:
        rec = solve_sparse_l1(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.converged and rec.iterations > 0
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
    assert np.all(rec.h_est == 0)
    assert rec.converged and rec.iterations == 0


def readme_gate_systems(snr_db, missing=(0, 8, 16), trials=2):
    """Systems of the README gate (N=32, L=12), drawn as the sweep draws them."""
    cfg = RadarConfig(f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12)
    spec = ExperimentSpec(radar=cfg, target=SyntheticSparse(24), sweep=missing,
                          snr_db=snr_db, trials_per_point=trials, seed=1)
    return [draw_trial(spec, m, snr_db, t)[2] for m in missing for t in range(trials)]


def test_ls_reports_its_iterations_and_a_cap_it_hit():
    sys_ = readme_gate_systems(15.0, missing=(8,), trials=1)[0]
    capped = solve_least_squares(sys_, SolverOptions(max_iters=2))
    assert not capped.converged and capped.iterations == 2
    done = solve_least_squares(sys_)
    assert done.converged and 2 < done.iterations < SolverOptions().max_iters


def test_ls_default_ridge_follows_the_noise_level():
    # 15 dB: mu = ||Phi||^2 * 4 n_rows sigma^2 / ||y||^2, about 4 / SNR, and
    # the solve matches the dense one at that mu; an unknown noise level
    # gets the noiseless floor
    sys_ = readme_gate_systems(15.0, missing=(12,), trials=1)[0]
    norm = operator_norm_sq(sys_)
    scale = 4 * sys_.n_rows * sys_.noise_sigma**2 / np.linalg.norm(sys_.y) ** 2
    assert 0.05 < scale < 0.2
    phi = sys_.phi
    gram = phi.conj().T @ phi + scale * norm * np.eye(sys_.n_cells)
    dense = np.linalg.solve(gram, phi.conj().T @ sys_.y)
    h = solve_least_squares(sys_).h_est
    assert np.linalg.norm(h - dense) <= 1e-8 * np.linalg.norm(dense)

    unknown = SensingSystem(sys_.y, None, sys_.radar, sys_.pulses)
    floor = solve_least_squares(unknown, SolverOptions(ls_ridge=RIDGE_FLOOR * norm))
    assert np.array_equal(solve_least_squares(unknown).h_est, floor.h_est)


@pytest.mark.parametrize("snr_db", [5.0, 15.0, 25.0])
def test_ls_default_stop_is_within_its_error_bound(snr_db):
    # the stop certifies a relative error of LS_ERROR_TOL against the exact
    # ridge solution: check it against the dense solve on noisy README-gate
    # and N=64, L=16 systems
    from sfradar import NoiseModel

    batches = [readme_gate_systems(snr_db, missing=(0, 8, 20), trials=1)]
    if snr_db == 15.0:
        batches.append(large_gate_systems([(16, 5), (40, 6)], np.random.default_rng(52),
                                          NoiseModel(snr_db, 4)))
    for batch in batches:
        for sys_, rec in zip(batch, solve_least_squares_batch(batch)):
            assert rec.converged
            phi = sys_.phi
            mu = solvers._ridge(sys_, SolverOptions())
            gram = phi.conj().T @ phi + mu * np.eye(sys_.n_cells)
            dense = np.linalg.solve(gram, phi.conj().T @ sys_.y)
            assert np.linalg.norm(rec.h_est - dense) <= 1e-9 * np.linalg.norm(dense)


def test_ls_floor_ridge_still_stops_on_cg_tol(monkeypatch):
    # at the 1e-6 ||Phi||^2 floor the certified tolerance falls below
    # CG_TOL, so CG_TOL sets the stop: the same iterations and bytes as a
    # solve with no error tolerance at all
    noisy = readme_gate_systems(15.0, missing=(8,), trials=1)[0]
    floor = SolverOptions(ls_ridge=RIDGE_FLOOR * operator_norm_sq(noisy))
    cases = [(s, SolverOptions()) for s in readme_gate_systems(None, missing=(0, 12))]
    cases.append((noisy, floor))
    default = [solve_least_squares(s, opts) for s, opts in cases]
    monkeypatch.setattr(solvers, "LS_ERROR_TOL", 0.0)
    for (s, opts), got in zip(cases, default):
        want = solve_least_squares(s, opts)
        assert got.converged and want.converged
        assert got.iterations == want.iterations
        assert got.h_est.tobytes() == want.h_est.tobytes()


def test_ls_restarts_from_the_recomputed_residual(monkeypatch):
    # at CG_TOL = 1e-15 the recurrence claims the stop on some noiseless
    # README-gate systems before the recomputed residual meets it, and a
    # row that went on from the recurrence's residual ran out of max_iters
    # at 12 missing: each such row restarts from the recomputed residual,
    # and every system stops with that residual certified
    monkeypatch.setattr(solvers, "CG_TOL", 1e-15)
    systems = readme_gate_systems(None, missing=(0, 8, 12, 20))
    opts = SolverOptions(max_iters=3000)
    for sys_, rec in zip(systems, solve_least_squares_batch(systems, opts)):
        mu = solvers._ridge(sys_, opts)
        tol = max(solvers.CG_TOL, solvers.LS_ERROR_TOL * mu / (operator_norm_sq(sys_) + mu))
        b = sys_.adjoint_y
        r = b - sys_.adjoint(sys_.apply(rec.h_est)) - mu * rec.h_est
        assert rec.converged
        assert np.linalg.norm(r) <= tol * np.linalg.norm(b)


# -- the batch contract of both iterative routes -------------------------------

# each batch route with its one-system form and a max_iters cap that some of
# the README-gate systems below hit
BATCH_ROUTES = {
    "sparse": (solve_sparse_l1_batch, solve_sparse_l1, 40),
    "least_squares": (solve_least_squares_batch, solve_least_squares, 60),
}
batch_routes = pytest.mark.parametrize("route", BATCH_ROUTES)


@batch_routes
def test_batch_of_no_systems(route):
    assert BATCH_ROUTES[route][0]([]) == []


@batch_routes
def test_batch_needs_one_radar(route, cfg32, ideal_shape):
    rng = np.random.default_rng(47)
    _, _, radar_sys = radar_system(cfg32, ideal_shape, 8, rng, 24)
    _, other = random_system(6, 9, 5, 5, rng)
    with pytest.raises(ValueError, match="one radar"):
        BATCH_ROUTES[route][0]([radar_sys, other])


@batch_routes
def test_batch_results_do_not_depend_on_the_batch(route):
    # noiseless and 15 dB systems stop at different iterations, some hit the
    # cap, and a zero observation takes the zero-profile exit
    batch_solve, solve, cap = BATCH_ROUTES[route]
    systems = readme_gate_systems(None) + readme_gate_systems(15.0)
    systems.insert(3, with_y(systems[0], np.zeros_like(systems[0].y)))
    for opts in (SolverOptions(), SolverOptions(max_iters=cap)):
        batch = batch_solve(systems, opts)
        alone = [solve(s, opts) for s in systems]
        assert len({r.iterations for r in batch}) > 3
        for got, want in zip(batch, alone):
            assert got.h_est.tobytes() == want.h_est.tobytes()
            assert (got.iterations, got.converged) == (want.iterations, want.converged)
    assert batch[3].iterations == 0 and not np.any(batch[3].h_est)
    assert any(r.iterations == cap for r in batch)
    assert not all(r.converged for r in batch)


# solves README-gate and N=64, L=16 systems and prints a digest of each estimate
BLAS_THREADS_SCRIPT = """
import hashlib
from sfradar import RadarConfig, solve_least_squares
from sfradar.harness import ExperimentSpec, SyntheticSparse, draw_trial
for n, l in ((32, 12), (64, 16)):
    cfg = RadarConfig(f_c=5.0e9, delta_f=16e6, n_pulses=n, pulse_bandwidth=24e6, l_bins=l)
    spec = ExperimentSpec(radar=cfg, target=SyntheticSparse(24), sweep=(n // 4, n // 2),
                          snr_db=(None, 15.0), trials_per_point=1, seed=9)
    for m in spec.sweep:
        for snr in spec.snr_db:
            h = solve_least_squares(draw_trial(spec, m, snr, 0)[2]).h_est
            print(hashlib.sha256(h.tobytes()).hexdigest())
"""


def test_ls_does_not_depend_on_the_blas_thread_count():
    import os
    import subprocess

    import sfradar

    src = os.path.dirname(os.path.dirname(os.path.abspath(sfradar.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 8
    assert digests[0] == digests[1]


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
        dict(epsilon=-1.0),
        dict(ls_ridge=0.0),
        dict(epsilon=float("nan")),
        dict(epsilon=float("inf")),
        dict(ls_ridge=float("inf")),
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
    # an unknown noise level, a capture without sigma=, needs epsilon
    unknown = SensingSystem(sys_.y, None, sys_.radar, sys_.pulses)
    with pytest.raises(ConfigError, match=r"\[solver\] epsilon"):
        solve_sparse_l1(unknown)
    assert explicit.resolve_epsilon(unknown) == 0.123
