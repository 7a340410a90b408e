"""Acceptance suite: one test per release criterion, one printed verdict each.

Verdict lines are written past pytest's capture so they show up in any run;
`pytest tests/test_acceptance.py -v` prints them interleaved with the results.
"""

import numpy as np
import pytest

from sfradar import (
    ExperimentSpec,
    NoiseModel,
    PulseSchedule,
    PulseShape,
    RadarConfig,
    RangeProfile,
    SolverOptions,
    SyntheticSparse,
    build_sensing_system,
    build_trm,
    draw_synthetic_target,
    peak_sidelobe_db,
    random_missing_schedule,
    range_axis,
    run_experiment,
    solve_least_squares,
    solve_sparse_l1,
    solve_stretch_idft,
    write_trials_csv,
)
from sfradar import harness
from sfradar.solvers import operator_norm_sq, stretch_bin_columns
from conftest import sparse_profile


@pytest.fixture
def verdict(capsys):
    def _verdict(number, name, ok, detail):
        line = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, f"criterion {number} ({name}): {detail}"

    return _verdict


@pytest.fixture(scope="module")
def cfg():
    return RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12
    )


@pytest.fixture(scope="module")
def shape():
    return PulseShape.ideal_sinc(24e6)


def test_criterion_1_sensing_oracle_equivalence(cfg, shape, verdict):
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(10_000 + trial)
        values = sparse_profile(cfg, int(rng.integers(1, 30)), rng)
        profile = RangeProfile(values, cfg)
        schedule = random_missing_schedule(32, 12, seed=20_000 + trial)
        trm = build_trm(profile, schedule, shape)
        sys_ = build_sensing_system(cfg, shape, schedule, trm)
        err = np.linalg.norm(sys_.phi @ values - sys_.y) / np.linalg.norm(sys_.y)
        worst = max(worst, float(err))
    verdict(
        1, "sensing oracle equivalence", worst <= 1e-12,
        f"worst rel err {worst:.3e} over 100 profiles, tol 1e-12",
    )


def test_criterion_2_noiseless_exact_recovery(verdict):
    cfg4 = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=4
    )
    shape = PulseShape.ideal_sinc(24e6)
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(30_000 + trial)
        values = sparse_profile(cfg4, 5, rng)
        profile = RangeProfile(values, cfg4)
        schedule = random_missing_schedule(32, 12, seed=40_000 + trial)
        trm = build_trm(profile, schedule, shape)
        sys_ = build_sensing_system(cfg4, shape, schedule, trm)
        eps = 1e-6 * float(np.linalg.norm(sys_.y))
        rec = solve_sparse_l1(sys_, SolverOptions(epsilon=eps))
        rel = np.linalg.norm(rec.h_est - values) / np.linalg.norm(values)
        successes += rel <= 1e-3
    verdict(
        2, "noiseless exact recovery", successes >= 95,
        f"{successes}/100 trials with rel l2 err <= 1e-3, need >= 95",
    )


def test_criterion_3_missing_pulse_trend(cfg, verdict):
    spec = ExperimentSpec(
        radar=cfg,
        target=SyntheticSparse(24),
        sweep=(0, 4, 8, 12, 16, 20),
        snr_db=15.0,
        trials_per_point=20,
        seed=2024,
        solvers=("sparse_l1", "least_squares"),
    )
    records = run_experiment(spec)
    means = {}
    for missing in spec.sweep:
        for method in spec.solvers:
            vals = [
                r.similarity
                for r in records
                if r.missing_count == missing and r.method == method
            ]
            assert len(vals) == 20
            means[(missing, method)] = float(np.mean(vals))

    ordered = all(
        means[(m, "sparse_l1")] >= means[(m, "least_squares")]
        for m in spec.sweep
        if m > 0
    )
    gap_at_zero = abs(means[(0, "sparse_l1")] - means[(0, "least_squares")])
    curve = " ".join(
        f"m={m}:{means[(m, 'sparse_l1')]:.3f}/{means[(m, 'least_squares')]:.3f}"
        for m in spec.sweep
    )
    verdict(
        3, "missing-pulse similarity trend", ordered and gap_at_zero <= 0.02,
        f"sparse/ls mean similarity {curve}; gap at 0 missing {gap_at_zero:.4f}",
    )


def test_criterion_4_sidelobe_direction(cfg, shape, verdict):
    psl_sparse, psl_ls = [], []
    for trial in range(20):
        truth = draw_synthetic_target(cfg, 1, seed=50_000 + trial)
        schedule = random_missing_schedule(32, 12, seed=60_000 + trial)
        trm = build_trm(
            truth, schedule, shape, NoiseModel(snr_db=15.0, seed=70_000 + trial)
        )
        sys_ = build_sensing_system(cfg, shape, schedule, trm)
        psl_sparse.append(peak_sidelobe_db(solve_sparse_l1(sys_).h_est))
        psl_ls.append(peak_sidelobe_db(solve_least_squares(sys_).h_est))
    margin = float(np.mean(psl_ls) - np.mean(psl_sparse))
    verdict(
        4, "sidelobe degradation direction", margin >= 3.0,
        f"mean PSL ls {np.mean(psl_ls):.1f} dB vs sparse "
        f"{np.mean(psl_sparse):.1f} dB, margin {margin:.1f} dB >= 3 dB",
    )


def test_criterion_5_solver_contracts(cfg, shape, verdict):
    rng = np.random.default_rng(80_000)
    values = sparse_profile(cfg, 24, rng)
    profile = RangeProfile(values, cfg)
    schedule = random_missing_schedule(32, 12, seed=81_000)
    trm = build_trm(profile, schedule, shape, NoiseModel(snr_db=15.0, seed=82_000))
    sys_ = build_sensing_system(cfg, shape, schedule, trm)

    sparse = solve_sparse_l1(sys_)
    ok_sparse = sparse.converged and sparse.residual_l2 <= 1.001 * sparse.epsilon_used

    opts = SolverOptions(ls_ridge=1e-6 * operator_norm_sq(sys_))
    ls = solve_least_squares(sys_, opts)
    gram = sys_.phi.conj().T @ sys_.phi + opts.ls_ridge * np.eye(sys_.n_cells)
    rhs = sys_.phi.conj().T @ sys_.y
    ls_resid = float(
        np.linalg.norm(gram @ ls.h_est - rhs) / np.linalg.norm(rhs)
    )
    ok_ls = ls_resid <= 1e-8

    full_trm = build_trm(profile, PulseSchedule.full(32), shape)
    stretch = solve_stretch_idft(full_trm, cfg, shape)
    cols = stretch_bin_columns(cfg)
    n = cfg.n_pulses
    k_idx = np.arange(n)
    oracle = np.concatenate(
        [
            np.array(
                [
                    np.sum(full_trm.data[:, c] * np.exp(2j * np.pi * k_idx * k / n)) / n
                    for k in range(n)
                ]
            )
            for c in cols
        ]
    )
    stretch_err = float(
        np.linalg.norm(stretch.h_est - oracle) / np.linalg.norm(oracle)
    )
    ok_stretch = stretch_err <= 1e-12

    verdict(
        5, "solver contracts", ok_sparse and ok_ls and ok_stretch,
        f"sparse residual {sparse.residual_l2:.4g} <= 1.001*eps "
        f"{1.001 * sparse.epsilon_used:.4g}; ls normal-eq rel resid "
        f"{ls_resid:.2e} <= 1e-8; stretch vs DFT oracle {stretch_err:.2e} <= 1e-12",
    )


def test_criterion_6_determinism(tmp_path, monkeypatch, verdict):
    cfg16 = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=4
    )
    spec = ExperimentSpec(
        radar=cfg16,
        target=SyntheticSparse(6),
        sweep=(0, 4, 8),
        snr_db=15.0,
        trials_per_point=3,
        seed=99,
        solvers=("sparse_l1", "least_squares", "stretch_idft"),
    )

    def csv_bytes(records, name):
        dest = tmp_path / name
        write_trials_csv(records, dest)
        return dest.read_bytes()

    def strip_walltime(raw):
        return b"\n".join(
            line.rsplit(b",", 1)[0] for line in raw.strip().split(b"\n")
        )

    run_a = csv_bytes(run_experiment(spec), "a.csv")
    run_b = csv_bytes(run_experiment(spec), "b.csv")
    byte_identical = strip_walltime(run_a) == strip_walltime(run_b)

    # one trial per batch: a trial's records do not depend on its batch
    monkeypatch.setattr(harness, "BATCH_BYTES", 1)
    run_c = csv_bytes(run_experiment(spec), "c.csv")
    split_identical = strip_walltime(run_a) == strip_walltime(run_c)
    n_records = run_a.count(b"\n") - 1
    verdict(
        6, "experiment determinism", byte_identical and split_identical,
        f"serial reruns byte-identical (excl. wall time): {byte_identical}; "
        f"{n_records} records in one-trial batches byte-identical to one "
        f"batch's: {split_identical}",
    )


def test_criterion_7_resolution_bookkeeping(cfg, verdict):
    axis = range_axis(cfg)
    spacing = float(axis[1] - axis[0])
    err = abs(spacing - 0.29277)
    verdict(
        7, "resolution bookkeeping", err <= 1e-5,
        f"fine cell spacing {spacing:.7f} m within 1e-5 of 0.29277 m",
    )
