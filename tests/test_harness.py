import os
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from sfradar import echo
from sfradar import (
    ConfigError,
    ExperimentSpec,
    FileTarget,
    PulseShape,
    RadarConfig,
    SolverOptions,
    SyntheticSparse,
    draw_synthetic_target,
    export_profile,
    load_experiment_spec,
    range_axis,
    run_experiment,
    write_trials_csv,
)
from sfradar.harness import (
    METHODS,
    TRIALS_CSV_HEADER,
    child_seed,
    format_trial_row,
)


@pytest.fixture
def tiny_spec(small_cfg):
    return ExperimentSpec(
        radar=small_cfg,
        target=SyntheticSparse(4),
        sweep=(0, 5),
        snr_db=15.0,
        trials_per_point=2,
        seed=7,
        solvers=("sparse_l1", "least_squares", "stretch_idft"),
    )


def rows_without_walltime(records):
    return [format_trial_row(r).rsplit(",", 1)[0] for r in records]


def test_child_seed_deterministic_and_distinct():
    assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
    assert child_seed(1, 2, 3, 0) != child_seed(1, 2, 3, 1)
    assert child_seed(1, 2, 3) != child_seed(1, 2, 4)
    assert child_seed(1, 2, 3) != child_seed(2, 2, 3)


def test_draw_synthetic_target_properties(cfg32):
    profile = draw_synthetic_target(cfg32, 24, seed=3)
    assert np.count_nonzero(profile.values) == 24
    again = draw_synthetic_target(cfg32, 24, seed=3)
    assert np.array_equal(profile.values, again.values)
    other = draw_synthetic_target(cfg32, 24, seed=4)
    assert not np.array_equal(profile.values, other.values)


def test_draw_synthetic_target_unit_mean_rayleigh(cfg32):
    mags = []
    for seed in range(200):
        profile = draw_synthetic_target(cfg32, 24, seed=seed)
        mags.extend(np.abs(profile.values[np.abs(profile.values) > 0]))
    assert np.mean(mags) == pytest.approx(1.0, abs=0.05)
    # uniform phases: circular mean near zero
    phases = []
    for seed in range(200):
        profile = draw_synthetic_target(cfg32, 24, seed=seed)
        nz = profile.values[np.abs(profile.values) > 0]
        phases.extend(np.angle(nz))
    assert abs(np.mean(np.exp(1j * np.array(phases)))) < 0.05


def test_draw_synthetic_target_too_many(small_cfg):
    with pytest.raises(ConfigError):
        draw_synthetic_target(small_cfg, small_cfg.n_cells + 1, seed=0)


def test_run_experiment_record_grid(tiny_spec):
    records = run_experiment(tiny_spec, workers=1)
    # 2 sweep points x 2 trials x 3 methods
    assert len(records) == 12
    keys = {(r.missing_count, r.trial, r.method) for r in records}
    assert len(keys) == 12
    assert all(r.wall_time_s >= 0 for r in records)
    assert all(r.snr_db == 15.0 for r in records)
    # sorted by (missing, snr, trial, method)
    sort_keys = [(r.missing_count, r.trial, r.method) for r in records]
    assert sort_keys == sorted(sort_keys)


def test_run_experiment_deterministic(tiny_spec):
    a = rows_without_walltime(run_experiment(tiny_spec, workers=1))
    b = rows_without_walltime(run_experiment(tiny_spec, workers=1))
    assert a == b


def test_run_experiment_thread_count_invariant(tiny_spec, monkeypatch):
    # the threads first, on a cold radar cache and with frequent switches,
    # so that they race to build the shared factors
    echo._radar_model.cache_clear()
    monkeypatch.setenv("SFR_THREADS", "8")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = rows_without_walltime(run_experiment(tiny_spec))
    finally:
        sys.setswitchinterval(interval)
    serial = rows_without_walltime(run_experiment(tiny_spec, workers=1))
    assert serial == threaded


def test_run_experiment_builds_radar_factors_once(monkeypatch):
    # a radar no other test builds, so no earlier trial made its factors
    cfg = RadarConfig(
        f_c=5.123e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=3,
        q_start=5,
    )
    spec = ExperimentSpec(
        radar=cfg, target=SyntheticSparse(4), sweep=(0, 4, 8), snr_db=15.0,
        trials_per_point=3, seed=5, solvers=METHODS,
    )
    shape_evals, eig_calls = [], []
    pulse_shape_eval, eigvalsh = echo.pulse_shape_eval, np.linalg.eigvalsh

    def counted_shape(*args):
        shape_evals.append(args)
        return pulse_shape_eval(*args)

    def counted_eigvalsh(*args):
        eig_calls.append(args)
        return eigvalsh(*args)

    monkeypatch.setattr(echo, "pulse_shape_eval", counted_shape)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    records = run_experiment(spec, workers=1)
    assert len(records) == 9 * len(METHODS)
    # the shape matrix and the full train's norm depend on (radar, shape)
    # alone: nine trials evaluate each once
    assert len(shape_evals) == 1
    assert len(eig_calls) == 1


def test_run_experiment_sweep_insertion_invariance(small_cfg):
    base = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(4), sweep=(5,), snr_db=10.0,
        trials_per_point=2, seed=11, solvers=("least_squares",),
    )
    extended = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(4), sweep=(0, 3, 5), snr_db=10.0,
        trials_per_point=2, seed=11, solvers=("least_squares",),
    )
    solo = rows_without_walltime(run_experiment(base, workers=1))
    both = rows_without_walltime(run_experiment(extended, workers=1))
    subset = [row for row in both if row.split(",")[1] == "5"]
    assert solo == subset


def test_run_experiment_full_pulse_noiseless_sanity(small_cfg):
    # well-posed full-data system: every solver should be near-perfect
    spec = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(5), sweep=(0,), snr_db=None,
        trials_per_point=3, seed=2, solvers=("sparse_l1", "least_squares"),
    )
    records = run_experiment(spec, workers=1)
    for rec in records:
        assert rec.similarity >= 0.999, rec
    assert all(r.snr_db is None for r in records)


def test_run_experiment_snr_list(small_cfg):
    spec = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(4), sweep=(4,), snr_db=(5.0, 25.0),
        trials_per_point=1, seed=3, solvers=("least_squares",),
    )
    records = run_experiment(spec, workers=1)
    assert sorted({r.snr_db for r in records}) == [5.0, 25.0]


def test_run_experiment_file_target(tmp_path, small_cfg):
    truth = draw_synthetic_target(small_cfg, 5, seed=9)
    path = tmp_path / "truth.csv"
    export_profile(truth, range_axis(small_cfg), path)
    spec = ExperimentSpec(
        radar=small_cfg, target=FileTarget(str(path)), sweep=(0,), snr_db=None,
        trials_per_point=2, seed=5, solvers=("least_squares",),
    )
    records = run_experiment(spec, workers=1)
    assert all(r.similarity >= 0.999 for r in records)


# Written by write_trials_csv(run_experiment(GOLDEN_SPEC), path); rewrite it
# only for an intended numeric change, and say by how much the rows moved.
GOLDEN_CSV = os.path.join(os.path.dirname(__file__), "data", "trials_n16_l4.csv")
GOLDEN_SPEC = ExperimentSpec(
    radar=RadarConfig(f_c=5.0e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=4),
    target=SyntheticSparse(5), sweep=(0, 4, 8), snr_db=(None, 15.0),
    trials_per_point=2, seed=2024, solvers=METHODS,
)
FLOAT_COLUMNS = {"similarity", "rel_l2_error", "residual_l2"}


def test_trials_match_golden_records():
    with open(GOLDEN_CSV, encoding="ascii") as f:
        header, *want = [line.split(",") for line in f.read().splitlines()]
    assert header == TRIALS_CSV_HEADER.split(",")
    got = [format_trial_row(r).split(",") for r in run_experiment(GOLDEN_SPEC, workers=1)]
    assert len(got) == len(want) == 36
    for row_got, row_want in zip(got, want):
        # every column but the last, wall_time_s
        for name, a, b in zip(header[:-1], row_got, row_want):
            if name in FLOAT_COLUMNS:
                assert float(a) == pytest.approx(float(b), rel=1e-8), (name, row_want)
            else:
                assert a == b, (name, row_want)


def test_trials_csv_round_shape(tmp_path, tiny_spec):
    records = run_experiment(tiny_spec, workers=1)
    dest = tmp_path / "trials.csv"
    write_trials_csv(records, dest)
    lines = dest.read_text().strip().split("\n")
    assert lines[0].startswith("seed,missing_count,snr_db,trial,method")
    assert len(lines) == 1 + len(records)


def test_spec_validation(small_cfg):
    with pytest.raises(ConfigError):
        ExperimentSpec(radar=small_cfg, sweep=(small_cfg.n_pulses,))
    with pytest.raises(ConfigError):
        ExperimentSpec(radar=small_cfg, trials_per_point=0)
    with pytest.raises(ConfigError):
        ExperimentSpec(radar=small_cfg, solvers=("magic",))
    with pytest.raises(ConfigError):
        ExperimentSpec(radar=small_cfg, solvers=())
    with pytest.raises(ConfigError):
        SyntheticSparse(0)
    with pytest.raises(ConfigError):
        ExperimentSpec(radar=small_cfg, snr_db=(15.0, float("nan")))


def test_spec_rejects_more_scatterers_than_cells(small_cfg):
    # rejected when the spec is built, not by the first trial's draw
    with pytest.raises(ConfigError, match="scatterers"):
        ExperimentSpec(radar=small_cfg, target=SyntheticSparse(small_cfg.n_cells + 1))
    ExperimentSpec(radar=small_cfg, target=SyntheticSparse(small_cfg.n_cells))


@pytest.mark.parametrize("valid_pulses", [(0, 3, 16), (5, 2), ()])
def test_spec_rejects_bad_valid_pulses(small_cfg, valid_pulses):
    # rejected when the spec is built, not when recover makes the schedule
    with pytest.raises(ConfigError, match="pulse"):
        ExperimentSpec(radar=small_cfg, valid_pulses=valid_pulses)
    ExperimentSpec(radar=small_cfg, valid_pulses=(0, 3, 15))


def test_spec_rejects_missing_target_file(tmp_path, small_cfg):
    # rejected when the spec is built, not inside run_experiment
    path = tmp_path / "absent.csv"
    with pytest.raises(ConfigError, match="absent.csv"):
        ExperimentSpec(radar=small_cfg, target=FileTarget(str(path)))


def test_spec_rejects_target_file_of_wrong_length(tmp_path, small_cfg):
    other = replace(small_cfg, l_bins=small_cfg.l_bins + 1)
    path = tmp_path / "truth.csv"
    export_profile(draw_synthetic_target(other, 5, seed=9), range_axis(other), path)
    with pytest.raises(ConfigError, match="profile length 64"):
        ExperimentSpec(radar=small_cfg, target=FileTarget(str(path)))


GOOD_CONFIG = """
[radar]
f_c = 5.0e9
delta_f = 16e6
n_pulses = 32
pulse_bandwidth = 24e6
l_bins = 12

[target]
kind = synthetic
n_scatterers = 24

[experiment]
sweep = 0, 4, 8, 12, 16, 20
snr_db = 15
trials_per_point = 20
seed = 1
solvers = sparse_l1, least_squares

[solver]
max_iters = 4000
lambda_path_steps = 8
"""


def test_load_experiment_spec(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG)
    spec = load_experiment_spec(path)
    assert spec.radar.n_pulses == 32
    assert spec.radar.n_samples == 18
    assert spec.radar.delta_t == pytest.approx(1 / 24e6)
    assert spec.target == SyntheticSparse(24)
    assert spec.sweep == (0, 4, 8, 12, 16, 20)
    assert spec.snr_db == 15.0
    assert spec.trials_per_point == 20
    assert spec.solvers == ("sparse_l1", "least_squares")
    assert spec.solver_opts.max_iters == 4000
    assert spec.shape == PulseShape.ideal_sinc(24e6)


def test_load_experiment_spec_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG.replace("seed = 1", "seed = 1\nsede = 2"))
    with pytest.raises(ConfigError) as err:
        load_experiment_spec(path)
    assert "sede" in str(err.value)


SOLVER_SECTION = "[solver]\nmax_iters = 4000\nlambda_path_steps = 8\n"
# the [radar] keys of GOOD_CONFIG
GOOD_RADAR = dict(f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12)
# a value other than the default, and other than GOOD_CONFIG's, for every
# SolverOptions and RadarConfig field
NON_DEFAULT_OPTIONS = dict(
    max_iters=1234, rel_change_tol=2.5e-7, epsilon=0.125, epsilon_factor=1.75,
    lambda_path_steps=5, lambda_ratio=0.25, ls_ridge=3e-9, accelerate=False,
    f_c=6.5e9, delta_f=8e6, n_pulses=40, pulse_bandwidth=30e6, delta_t=2.5e-8,
    q_start=3, l_bins=10, c_light=2.5e8,
)


# every SolverOptions and RadarConfig field, then a value other than
# GOOD_CONFIG's for every [experiment] key, snr_db as one value, a list
# and none
ROUND_TRIP = [
    pytest.param(f.name, NON_DEFAULT_OPTIONS[f.name], id=f.name)
    for f in fields(SolverOptions) + fields(RadarConfig)
] + [
    pytest.param("sweep", (3, 7), id="sweep"),
    pytest.param("valid_pulses", (0, 2, 5), id="valid_pulses"),
    pytest.param("solvers", ("stretch_idft", "sparse_l1"), id="solvers"),
    pytest.param("trials_per_point", 3, id="trials_per_point"),
    pytest.param("seed", 42, id="seed"),
    pytest.param("snr_db", 7.5, id="snr_db-one"),
    pytest.param("snr_db", (5.0, 25.0), id="snr_db-list"),
    pytest.param("snr_db", None, id="snr_db-none"),
]


def config_text(value) -> str:
    """value as a config file writes it."""
    if isinstance(value, bool):
        return str(value).lower()
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ", ".join(map(str, value))
    return repr(value)


@pytest.mark.parametrize("name, value", ROUND_TRIP)
def test_load_experiment_spec_solver_option_round_trip(tmp_path, name, value):
    text = config_text(value)
    path = tmp_path / "exp.cfg"
    if name in {f.name for f in fields(RadarConfig)}:
        assert value != getattr(RadarConfig(**GOOD_RADAR), name)
        config = re.sub(rf"\n{name} = [^\n]*", "", GOOD_CONFIG)
        path.write_text(config.replace("[radar]\n", f"[radar]\n{name} = {text}\n"))
        got = load_experiment_spec(path).radar
        assert got == RadarConfig(**{**GOOD_RADAR, name: value})
    elif name in {f.name for f in fields(SolverOptions)}:
        assert value != getattr(SolverOptions(), name)
        path.write_text(GOOD_CONFIG.replace(SOLVER_SECTION, f"[solver]\n{name} = {text}\n"))
        got = load_experiment_spec(path).solver_opts
        assert got == replace(SolverOptions(), **{name: value})
    else:
        path.write_text(GOOD_CONFIG)
        good = load_experiment_spec(path)
        assert value != getattr(good, name)
        config = re.sub(rf"\n{name} = [^\n]*", "", GOOD_CONFIG)
        path.write_text(config.replace("[experiment]\n", f"[experiment]\n{name} = {text}\n"))
        got = load_experiment_spec(path)
        assert got == replace(good, **{name: value})
    assert type(getattr(got, name)) is type(value)
    # the items of a tuple too
    assert repr(getattr(got, name)) == repr(value)


def test_load_experiment_spec_unknown_solver_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG.replace(SOLVER_SECTION, SOLVER_SECTION + "lambda_steps = 3\n"))
    with pytest.raises(ConfigError, match="lambda_steps"):
        load_experiment_spec(path)


def test_load_experiment_spec_unknown_section(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError):
        load_experiment_spec(path)


def test_load_experiment_spec_missing_required(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG.replace("sweep = 0, 4, 8, 12, 16, 20\n", ""))
    with pytest.raises(ConfigError):
        load_experiment_spec(path)


def test_load_experiment_spec_noiseless_and_schedule(tmp_path):
    text = GOOD_CONFIG.replace("snr_db = 15", "snr_db = none")
    text = text.replace("seed = 1", "seed = 1\nvalid_pulses = 0, 3, 5")
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    spec = load_experiment_spec(path)
    assert spec.snr_db is None
    assert spec.valid_pulses == (0, 3, 5)


def test_load_experiment_spec_windowed_shape(tmp_path):
    text = GOOD_CONFIG + (
        "\n[pulse_shape]\nkind = windowed_sinc\nwindow = hann\n"
        "truncation_halfwidth = 8.3e-8\n"
    )
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    spec = load_experiment_spec(path)
    assert spec.shape.kind == "windowed_sinc"
    assert spec.shape.window == "hann"


@pytest.mark.parametrize("section, key, kind", [
    ("[pulse_shape]\nkind = ideal_sinc\nwindow = hann\n", "window", "ideal_sinc"),
    ("[pulse_shape]\nkind = ideal_sinc\ntruncation_halfwidth = 8.3e-8\n",
     "truncation_halfwidth", "ideal_sinc"),
    ("[pulse_shape]\nwindow = hann\n", "window", "ideal_sinc"),
    ("[target]\nkind = synthetic\npath = truth.csv\n", "path", "synthetic"),
    ("[target]\nkind = file\npath = truth.csv\nn_scatterers = 4\n",
     "n_scatterers", "file"),
], ids=["ideal_window", "ideal_truncation", "default_window", "synthetic_path",
        "file_n_scatterers"])
def test_load_experiment_spec_rejects_key_the_kind_ignores(tmp_path, section, key, kind):
    text = GOOD_CONFIG.replace("[target]\nkind = synthetic\nn_scatterers = 24\n", "")
    path = tmp_path / "exp.cfg"
    path.write_text(text + "\n" + section)
    with pytest.raises(ConfigError) as err:
        load_experiment_spec(path)
    assert repr(key) in str(err.value) and repr(kind) in str(err.value)


@pytest.mark.parametrize("section, key", [
    ("[pulse_shape]\nkind = windowed_sinc\nwindow = hann\n", "truncation_halfwidth"),
    ("[target]\nkind = file\n", "path"),
], ids=["windowed_sinc", "file"])
def test_load_experiment_spec_kind_requires_key(tmp_path, section, key):
    text = GOOD_CONFIG.replace("[target]\nkind = synthetic\nn_scatterers = 24\n", "")
    path = tmp_path / "exp.cfg"
    path.write_text(text + "\n" + section)
    with pytest.raises(ConfigError, match=f"requires {key}"):
        load_experiment_spec(path)


@pytest.mark.parametrize("old, new, names", [
    ("n_pulses = 32", "n_pulses = abc", "[radar] n_pulses"),
    ("l_bins = 12", "l_bins = 0", "l_bins"),
    ("sweep = 0, 4, 8, 12, 16, 20", "sweep = 0, x", "[experiment] sweep"),
    ("trials_per_point = 20", "trials_per_point = 2.5", "[experiment] trials_per_point"),
    ("max_iters = 4000", "max_iters = 0", "max_iters"),
    ("max_iters = 4000", "accelerate = maybe", "[solver] accelerate"),
], ids=["radar_value", "radar_check", "list_value", "experiment_value",
        "solver_check", "solver_value"])
def test_load_experiment_spec_error_names_file_and_key(tmp_path, old, new, names):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG.replace(old, new))
    with pytest.raises(ConfigError) as err:
        load_experiment_spec(path)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and names in message
    assert message.count(str(path)) == 1


def test_load_experiment_spec_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_experiment_spec(tmp_path / "nope.cfg")


def test_worker_count_env(monkeypatch, small_cfg):
    from sfradar.harness import _worker_count

    monkeypatch.setenv("SFR_THREADS", "3")
    assert _worker_count(None) == 3
    monkeypatch.setenv("SFR_THREADS", "0")
    assert _worker_count(None) >= 1
    monkeypatch.setenv("SFR_THREADS", "junk")
    with pytest.raises(ConfigError):
        _worker_count(None)
    monkeypatch.delenv("SFR_THREADS")
    assert _worker_count(2) == 2


def test_worker_count_defaults_to_one(monkeypatch):
    from sfradar.harness import _worker_count

    monkeypatch.delenv("SFR_THREADS", raising=False)
    assert _worker_count(None) == 1

