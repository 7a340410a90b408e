import os
import re
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
    run_trial,
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
    # too few: no scatterer at all, or a count that is not an integer
    for n_scatterers in (0, 2.5):
        with pytest.raises(ConfigError, match="n_scatterers"):
            draw_synthetic_target(small_cfg, n_scatterers, seed=0)


def test_run_experiment_record_grid(tiny_spec):
    records = run_experiment(tiny_spec)
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
    a = rows_without_walltime(run_experiment(tiny_spec))
    b = rows_without_walltime(run_experiment(tiny_spec))
    assert a == b


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
    records = run_experiment(spec)
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
    solo = rows_without_walltime(run_experiment(base))
    both = rows_without_walltime(run_experiment(extended))
    subset = [row for row in both if row.split(",")[1] == "5"]
    assert solo == subset


def test_run_experiment_full_pulse_noiseless_sanity(small_cfg):
    # well-posed full-data system: every solver should be near-perfect
    spec = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(5), sweep=(0,), snr_db=None,
        trials_per_point=3, seed=2, solvers=("sparse_l1", "least_squares"),
    )
    records = run_experiment(spec)
    for rec in records:
        assert rec.similarity >= 0.999, rec
    assert all(r.snr_db is None for r in records)


def test_run_experiment_snr_list(small_cfg):
    spec = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(4), sweep=(4,), snr_db=(5.0, 25.0),
        trials_per_point=1, seed=3, solvers=("least_squares",),
    )
    records = run_experiment(spec)
    assert sorted({r.snr_db for r in records}) == [5.0, 25.0]


def test_run_experiment_file_target(tmp_path, small_cfg):
    truth = draw_synthetic_target(small_cfg, 5, seed=9)
    path = tmp_path / "truth.csv"
    export_profile(truth.values, range_axis(small_cfg), path)
    spec = ExperimentSpec(
        radar=small_cfg, target=FileTarget(str(path)), sweep=(0,), snr_db=None,
        trials_per_point=2, seed=5, solvers=("least_squares",),
    )
    records = run_experiment(spec)
    assert all(r.similarity >= 0.999 for r in records)


# Noiseless trials (eps = 0) stop on the zero budget's tolerance, and the
# trials stop at different iterations, so rows leave the loop at different
# times. Under the explicit budget the trials whose ||y|| is within it take
# the zero-profile exit while the others iterate.
@pytest.mark.parametrize("opts", [SolverOptions(), SolverOptions(epsilon=5.5)],
                         ids=["noise_budget", "explicit_epsilon"])
def test_records_do_not_depend_on_the_batch(small_cfg, opts):
    spec = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(4), sweep=(0, 5, 10),
        snr_db=(None, 10.0, 30.0), trials_per_point=2, seed=17, solvers=METHODS,
        solver_opts=opts,
    )
    batched = rows_without_walltime(run_experiment(spec))
    alone, sparse = [], {}
    for missing in spec.sweep:
        for snr in spec.snr_db:
            for trial in range(spec.trials_per_point):
                _, records, results = run_trial(spec, missing, snr, trial)
                alone += rows_without_walltime(records)
                sparse[missing, snr, trial] = results[0]
    assert len(batched) == 54
    assert sorted(batched) == sorted(alone)

    iterations = [r.iterations for r in sparse.values()]
    if opts.epsilon is None:
        assert all(r.converged for r in sparse.values())
        noiseless = [r for (_, snr, _), r in sparse.items() if snr is None]
        assert all(r.epsilon_used == 0 for r in noiseless)
        assert len(set(iterations)) > 1
    else:
        assert 0 < iterations.count(0) < len(iterations)


def test_sparse_wall_time_is_the_batch_share_of_iterations(small_cfg):
    spec = ExperimentSpec(
        radar=small_cfg, target=SyntheticSparse(4), sweep=(0, 5, 10), snr_db=15.0,
        trials_per_point=2, seed=17, solvers=("sparse_l1",),
        solver_opts=SolverOptions(epsilon=5.5),
    )
    records = run_experiment(spec)
    per_iteration = [r.wall_time_s / r.iterations for r in records if r.iterations]
    assert 0 < len(per_iteration) < len(records)
    assert max(per_iteration) == pytest.approx(min(per_iteration), rel=1e-9)
    assert all(r.wall_time_s == 0 for r in records if not r.iterations)


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
    got = [format_trial_row(r).split(",") for r in run_experiment(GOLDEN_SPEC)]
    assert len(got) == len(want) == 36
    for row_got, row_want in zip(got, want):
        # every column but the last, wall_time_s
        for name, a, b in zip(header[:-1], row_got, row_want):
            if name in FLOAT_COLUMNS:
                assert float(a) == pytest.approx(float(b), rel=1e-8), (name, row_want)
            else:
                assert a == b, (name, row_want)


def test_trials_csv_round_shape(tmp_path, tiny_spec):
    records = run_experiment(tiny_spec)
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


@pytest.mark.parametrize(
    "snr_db, want",
    [
        pytest.param(np.int64(15), (15,), id="numpy-int"),
        pytest.param(np.float32(7.5), (7.5,), id="numpy-float"),
        pytest.param("x", None, id="string"),
        pytest.param(("x", 15.0), None, id="string-in-list"),
        pytest.param((1j,), None, id="complex"),
    ],
)
def test_snr_db_takes_any_real_scalar_and_names_itself(small_cfg, snr_db, want):
    # a real scalar is one value; anything that is not a real number is a
    # ConfigError naming snr_db, not a TypeError from inside the check
    if want is None:
        with pytest.raises(ConfigError, match="snr_db"):
            ExperimentSpec(radar=small_cfg, snr_db=snr_db)
    else:
        assert ExperimentSpec(radar=small_cfg, snr_db=snr_db).snr_db == want


@pytest.mark.parametrize(
    "field, build",
    [
        ("sweep value", lambda cfg: ExperimentSpec(radar=cfg, sweep=(1.7,))),
        ("seed", lambda cfg: ExperimentSpec(radar=cfg, seed=1.5)),
        ("trials_per_point", lambda cfg: ExperimentSpec(radar=cfg, trials_per_point=1.5)),
        ("pulse index", lambda cfg: echo.PulseSchedule((0, 1.5, 3), 4)),
        ("n_pulses", lambda cfg: replace(cfg, n_pulses=16.0)),
        ("l_bins", lambda cfg: replace(cfg, l_bins=2.5)),
        ("max_iters", lambda cfg: SolverOptions(max_iters=2.5)),
        ("n_scatterers", lambda cfg: SyntheticSparse(2.5)),
        ("seed", lambda cfg: echo.NoiseModel(15.0, seed=-1)),
        # a bool is an int to Python: max_iters=True would run one iteration
        ("max_iters", lambda cfg: SolverOptions(max_iters=True)),
        ("pulse index", lambda cfg: echo.PulseSchedule((0, True), 4)),
        ("l_bins", lambda cfg: replace(cfg, l_bins=True)),
        ("seed", lambda cfg: ExperimentSpec(radar=cfg, seed=False)),
        ("n_scatterers", lambda cfg: SyntheticSparse(True)),
    ],
    ids=["sweep", "spec-seed", "trials", "schedule", "n_pulses", "l_bins",
         "max_iters", "scatterers", "noise-seed", "max_iters-bool",
         "schedule-bool", "l_bins-bool", "spec-seed-bool", "scatterers-bool"],
)
def test_integer_fields_are_checked_when_built(small_cfg, field, build):
    # rejected with the field's name, not truncated, taken as 0 or 1, or
    # failing further on
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        build(small_cfg)


def test_integer_fields_take_numpy_integers(small_cfg):
    cfg = replace(small_cfg, n_pulses=np.int64(16), l_bins=np.int32(3))
    spec = ExperimentSpec(radar=cfg, sweep=(np.int64(2),), seed=np.uint64(5),
                          trials_per_point=np.int16(1))
    assert spec.sweep == (2,) and type(spec.sweep[0]) is int
    echo.PulseSchedule(np.arange(4), np.int64(4))


REAL_RADAR_FIELDS = ("f_c", "delta_f", "pulse_bandwidth", "delta_t", "c_light")
REAL_SOLVER_FIELDS = ("epsilon", "ls_ridge")


@pytest.mark.parametrize(
    "field, build",
    [
        *[(name, lambda cfg, name=name: replace(cfg, **{name: True}))
          for name in REAL_RADAR_FIELDS],
        ("bandwidth", lambda cfg: PulseShape(bandwidth=True)),
        ("truncation_halfwidth",
         lambda cfg: PulseShape(24e6, "windowed_sinc", "hann", True)),
        ("snr_db", lambda cfg: echo.NoiseModel(snr_db=True, seed=1)),
        *[(name, lambda cfg, name=name: SolverOptions(**{name: True}))
          for name in REAL_SOLVER_FIELDS],
        ("snr_db", lambda cfg: ExperimentSpec(radar=cfg, snr_db=True)),
    ],
    ids=[*REAL_RADAR_FIELDS, "bandwidth", "truncation_halfwidth", "noise-snr",
         *REAL_SOLVER_FIELDS, "spec-snr"],
)
def test_real_fields_refuse_a_bool(small_cfg, field, build):
    # a bool is a number to Python: snr_db=True would sweep at 1 dB
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        build(small_cfg)


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
    export_profile(
        draw_synthetic_target(other, 5, seed=9).values, range_axis(other), path
    )
    with pytest.raises(ConfigError, match="profile length 64"):
        ExperimentSpec(radar=small_cfg, target=FileTarget(str(path)))


def test_spec_rejects_an_all_zero_target_file(tmp_path, small_cfg):
    # rejected when the spec is built, naming the file, not by the first
    # batch's scoring once every trial has been solved
    path = tmp_path / "zero.csv"
    export_profile(np.zeros(small_cfg.n_cells), range_axis(small_cfg), path)
    with pytest.raises(ConfigError, match=f"^target file {path}: .*identically zero"):
        ExperimentSpec(radar=small_cfg, target=FileTarget(str(path)))


def test_spec_rejects_repeated_solvers(small_cfg):
    # as sweep and snr_db do: a repeated solver would write each of its
    # rows twice
    with pytest.raises(ConfigError, match="^solvers must list distinct values"):
        ExperimentSpec(radar=small_cfg, solvers=("sparse_l1", "sparse_l1"))
    spec = ExperimentSpec(radar=small_cfg, solvers=("sparse_l1", "least_squares"))
    assert spec.solvers == ("sparse_l1", "least_squares")


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
    assert spec.snr_db == (15.0,)
    assert spec.trials_per_point == 20
    assert spec.solvers == ("sparse_l1", "least_squares")
    assert spec.solver_opts.max_iters == 4000
    assert spec.shape == PulseShape.ideal_sinc(24e6)
    # no valid_pulses: the full train
    assert spec.valid_pulses == tuple(range(32))


def test_load_experiment_spec_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(GOOD_CONFIG.replace("seed = 1", "seed = 1\nsede = 2"))
    with pytest.raises(ConfigError) as err:
        load_experiment_spec(path)
    assert "sede" in str(err.value)


SOLVER_SECTION = "[solver]\nmax_iters = 4000\n"
# the [radar] keys of GOOD_CONFIG
GOOD_RADAR = dict(f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12)
# a value other than the default, and other than GOOD_CONFIG's, for every
# SolverOptions and RadarConfig field
NON_DEFAULT_OPTIONS = dict(
    max_iters=1234, epsilon=0.125, ls_ridge=3e-9,
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
    pytest.param("snr_db", (7.5,), id="snr_db-one"),
    pytest.param("snr_db", (5.0, 25.0), id="snr_db-list"),
    pytest.param("snr_db", (None,), id="snr_db-none"),
]


def config_text(value) -> str:
    """value as a config file writes it."""
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
    assert spec.snr_db == (None,)
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
    ("max_iters = 4000", "max_iters = abc", "[solver] max_iters"),
    ("seed = 1", "seed = -1", "seed"),
    ("delta_f = 16e6", "delta_f = 1e-200", "delta_f"),
    # the primal-dual loop is the only iteration: no key switches it
    ("max_iters = 4000", "max_iters = 4000\naccelerate = true",
     "unknown key 'accelerate' in [solver]"),
    ("max_iters = 4000", "max_iters = 4000\nls_ridge = inf", "ls_ridge must be finite"),
    # the sparse stop and the budget margin are constants of the solvers
    ("max_iters = 4000", "max_iters = 4000\nrel_change_tol = 1e-4",
     "unknown key 'rel_change_tol' in [solver]"),
    ("max_iters = 4000", "max_iters = 4000\nepsilon_factor = 1.1",
     "unknown key 'epsilon_factor' in [solver]"),
    ("l_bins = 12", "l_bins = 12\nc_light = inf", "c_light must be positive and finite"),
    ("kind = synthetic", "kind = bogus", "unknown [target] kind 'bogus'"),
    ("[target]", "[pulse_shape]\nkind = bogus\n\n[target]",
     "unknown [pulse_shape] kind 'bogus'"),
], ids=["radar_value", "radar_check", "list_value", "experiment_value",
        "solver_check", "solver_value", "negative_seed", "shape_too_large",
        "accelerate", "solver_not_finite", "rel_change_tol", "epsilon_factor",
        "radar_not_finite", "target_kind",
        "pulse_shape_kind"])
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

