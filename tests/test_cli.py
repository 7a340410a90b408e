import numpy as np
import pytest

from sfradar import (
    NoiseModel,
    PulseSchedule,
    RadarConfig,
    build_trm,
    draw_synthetic_target,
    export_profile,
    load_experiment_spec,
    load_profile_csv,
    random_missing_schedule,
    range_axis,
    run_experiment,
    similarity,
    write_trm_file,
)
from sfradar import harness
from sfradar.cli import main
from sfradar.harness import METHODS, child_seed
from sfradar.model import PulseShape

CONFIG = """
[radar]
f_c = 5.0e9
delta_f = 16e6
n_pulses = 16
pulse_bandwidth = 24e6
l_bins = 3

[target]
kind = synthetic
n_scatterers = 4

[experiment]
sweep = 0, 5
snr_db = 15
trials_per_point = 2
seed = 9
solvers = sparse_l1, least_squares
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG)
    return str(path)


def read_trials(path):
    lines = path.read_text().strip().split("\n")
    return [ln.rsplit(",", 1)[0] for ln in lines]  # drop wall-time column


def test_simulate_writes_profiles(tmp_path, config_path, capsys):
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", config_path, "--out", str(out)])
    assert rc == 0
    assert (out / "truth_profile.csv").exists()
    assert (out / "profile_sparse_l1.csv").exists()
    assert (out / "profile_least_squares.csv").exists()
    truth = load_profile_csv(out / "truth_profile.csv")
    assert truth.size == 48
    captured = capsys.readouterr().out
    assert "similarity=" in captured


def test_simulate_method_override(tmp_path, config_path):
    out = tmp_path / "sim2"
    rc = main(
        ["simulate", "--config", config_path, "--out", str(out),
         "--method", "stretch_idft"]
    )
    assert rc == 0
    assert (out / "profile_stretch_idft.csv").exists()
    assert not (out / "profile_sparse_l1.csv").exists()


def test_simulate_is_trial_zero_of_the_sweep(tmp_path, capsys):
    # simulate runs trial 0 of the first sweep point and SNR, with the
    # target, schedule and noise the sweep draws for that trial
    config = CONFIG.replace("sweep = 0, 5", "sweep = 5, 0").replace(
        "solvers = sparse_l1, least_squares", "solvers = " + ", ".join(METHODS)
    )
    path = tmp_path / "exp.cfg"
    path.write_text(config)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out

    spec = load_experiment_spec(path)
    truth = load_profile_csv(out / "truth_profile.csv")
    want = draw_synthetic_target(spec.radar, 4, child_seed(9, 5, 0, 1)).values
    assert np.allclose(truth, want, rtol=1e-7, atol=1e-12)
    records = [r for r in run_experiment(spec)
               if r.missing_count == 5 and r.trial == 0]
    assert sorted(r.method for r in records) == sorted(METHODS)
    for rec in records:
        estimate = load_profile_csv(out / f"profile_{rec.method}.csv")
        assert similarity(truth, estimate).similarity == pytest.approx(
            rec.similarity, abs=1e-6
        )
        (line,) = [ln for ln in printed.splitlines() if f" {rec.method}: " in ln]
        assert f"{rec.method}: similarity={rec.similarity:.4f}" in line
        # at 15 dB both iterative routes meet their stop
        assert rec.method == "stretch_idft" or "converged=True" in line


def test_sweep_writes_deterministic_csv(tmp_path, config_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", config_path, "--out", str(out_b)]) == 0
    rows_a = read_trials(out_a / "trials.csv")
    rows_b = read_trials(out_b / "trials.csv")
    assert rows_a == rows_b
    assert len(rows_a) == 1 + 2 * 2 * 2  # header + sweep x trials x methods
    assert "mean similarity" in capsys.readouterr().out


def test_sweep_prints_one_mean_per_missing_count_snr_and_method(tmp_path, capsys):
    config = CONFIG.replace("snr_db = 15", "snr_db = 0, 30").replace(
        "trials_per_point = 2", "trials_per_point = 3"
    ).replace("solvers = sparse_l1, least_squares", "solvers = least_squares")
    path = tmp_path / "two_snr.cfg"
    path.write_text(config)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()[1:]
    records = run_experiment(load_experiment_spec(path))
    want = []
    for missing in (0, 5):
        for snr in (0, 30):
            vals = [r.similarity for r in records
                    if (r.missing_count, r.snr_db) == (missing, snr)]
            want.append(
                f"  missing={missing:3d} snr_db={snr} {'least_squares':>13s}: "
                f"mean similarity {np.mean(vals):.4f} over 3 trials"
            )
    assert printed == want


def test_sweep_seed_override_changes_rows(tmp_path, config_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["sweep", "--config", config_path, "--out", str(out_a)])
    main(["sweep", "--config", config_path, "--out", str(out_b), "--seed", "1234"])
    assert read_trials(out_a / "trials.csv") != read_trials(out_b / "trials.csv")


def test_overrides_read_a_file_target_once(tmp_path, monkeypatch):
    # --seed and --method go into the one construction of the spec, which
    # loads the target file: no second spec rereads it
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=3
    )
    truth = tmp_path / "truth.csv"
    export_profile(draw_synthetic_target(cfg, 4, seed=3).values, range_axis(cfg), truth)
    config = tmp_path / "file.cfg"
    config.write_text(CONFIG.replace(
        "kind = synthetic\nn_scatterers = 4", f"kind = file\npath = {truth}"
    ))
    loads = []

    def counted(path):
        loads.append(path)
        return load_profile_csv(path)

    monkeypatch.setattr(harness, "load_profile_csv", counted)
    rc = main(["simulate", "--config", str(config), "--seed", "5",
               "--method", "sparse_l1", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert loads == [str(truth)]


def test_recover_from_trm_file(tmp_path, capsys):
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=3
    )
    shape = PulseShape.ideal_sinc(24e6)
    schedule = PulseSchedule(tuple(i for i in range(16) if i not in (2, 9, 13)), 16)
    truth = draw_synthetic_target(cfg, 4, seed=21)
    trm = build_trm(truth, schedule, shape)
    trm_path = tmp_path / "capture.trm"
    write_trm_file(trm, trm_path)

    config = CONFIG.replace(
        "seed = 9", "seed = 9\nvalid_pulses = " + ", ".join(
            str(i) for i in schedule.valid_indices
        )
    )
    cfg_path = tmp_path / "rec.cfg"
    cfg_path.write_text(config)

    out = tmp_path / "rec"
    rc = main(
        ["recover", str(trm_path), "--config", str(cfg_path), "--out", str(out),
         "--method", "sparse_l1"]
    )
    assert rc == 0
    recovered = load_profile_csv(out / "recovered_sparse_l1.csv")
    overlap = np.dot(np.abs(truth.values), np.abs(recovered))
    denom = np.linalg.norm(truth.values) * np.linalg.norm(recovered)
    assert overlap / denom > 0.99


@pytest.mark.parametrize("missing", [0, 5])
def test_recover_runs_the_path_simulate_runs(tmp_path, capsys, missing):
    # every method recovers simulate's trial from its capture file to the
    # same bytes that simulate exports: one solve path for both commands
    config = CONFIG.replace("sweep = 0, 5", f"sweep = {missing}, 1").replace(
        "solvers = sparse_l1, least_squares", "solvers = " + ", ".join(METHODS)
    )
    path = tmp_path / "sim.cfg"
    path.write_text(config)
    spec = load_experiment_spec(path)
    _, trm, _ = harness.draw_trial(spec, missing, spec.snr_db[0], 0)
    capture = tmp_path / "capture.trm"
    write_trm_file(trm, capture)
    rec_path = tmp_path / "rec.cfg"
    rec_path.write_text(config.replace(
        "seed = 9", "seed = 9\nvalid_pulses = " + ", ".join(
            str(i) for i in trm.row_pulse_indices
        )
    ))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]) == 0
    for method in METHODS:
        out = tmp_path / method
        argv = ["recover", str(capture), "--config", str(rec_path), "--out", str(out),
                "--method", method]
        capsys.readouterr()
        assert main(argv) == 0
        recovered = (out / f"recovered_{method}.csv").read_bytes()
        assert recovered == (tmp_path / "sim" / f"profile_{method}.csv").read_bytes()
        # the capture carries its noise level: both iterative routes meet
        # the stop it sets
        assert method == "stretch_idft" or "converged=True" in capsys.readouterr().out


DEFAULT_GATE = CONFIG.replace("n_pulses = 16", "n_pulses = 32").replace(
    "l_bins = 3", "l_bins = 12"
)


def test_recovered_captures_sparse_beats_stretch(tmp_path):
    # the paper's check on recorded data: a dozen 15 dB captures of the
    # default gate, 4 to 20 pulses missing, each recovered from its file
    # with the noise level that the file carries
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=32, pulse_bandwidth=24e6, l_bins=12
    )
    shape = PulseShape.ideal_sinc(24e6)
    scores = {"sparse_l1": [], "stretch_idft": []}
    for k in range(12):
        missing = 4 + k * 16 // 11
        truth = draw_synthetic_target(cfg, 24, seed=child_seed(5, missing, k, 1))
        schedule = random_missing_schedule(32, missing, child_seed(5, missing, k, 2))
        noise = NoiseModel(snr_db=15.0, seed=child_seed(5, missing, k, 3))
        trm_path = tmp_path / f"capture{k}.trm"
        write_trm_file(build_trm(truth, schedule, shape, noise), trm_path)
        cfg_path = tmp_path / f"capture{k}.cfg"
        cfg_path.write_text(DEFAULT_GATE.replace(
            "seed = 9", "seed = 9\nvalid_pulses = " + ", ".join(
                str(i) for i in schedule.valid_indices
            )
        ))
        out = tmp_path / f"rec{k}"
        argv = ["recover", str(trm_path), "--config", str(cfg_path), "--out", str(out)]
        for method in scores:
            assert main(argv + ["--method", method]) == 0
            recovered = load_profile_csv(out / f"recovered_{method}.csv")
            scores[method].append(similarity(truth.values, recovered).similarity)
    sparse, stretch = np.mean(scores["sparse_l1"]), np.mean(scores["stretch_idft"])
    assert sparse > stretch, (sparse, stretch)


def test_recover_without_a_noise_level_needs_epsilon(tmp_path, config_path, capsys):
    # a capture in the older header carries no sigma=: sparse has no budget
    # unless the config sets one; stretch reads none
    cfg = load_experiment_spec(config_path).radar
    truth = draw_synthetic_target(cfg, 4, seed=21)
    trm_path = tmp_path / "old.trm"
    trm = build_trm(truth, PulseSchedule.full(16), PulseShape.ideal_sinc(24e6))
    write_trm_file(trm, trm_path)
    text = trm_path.read_text()
    trm_path.write_text(text.replace(" sigma=0\n", "\n", 1))
    argv = ["recover", str(trm_path), "--config", config_path, "--out", str(tmp_path)]
    assert main(argv + ["--method", "sparse_l1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trm_path}: ") and "[solver] epsilon" in err
    assert main(argv + ["--method", "stretch_idft"]) == 0
    # least squares solves at the ridge floor
    capsys.readouterr()
    assert main(argv + ["--method", "least_squares"]) == 0
    out = capsys.readouterr().out
    assert "least_squares: " in out and "converged=True" in out
    with_eps = tmp_path / "eps.cfg"
    with_eps.write_text(CONFIG + "\n[solver]\nepsilon = 0.01\n")
    argv[3] = str(with_eps)
    assert main(argv + ["--method", "sparse_l1"]) == 0


def test_recover_at_a_noise_level_whose_square_overflows(tmp_path, config_path, capsys):
    # sigma=1e160 is finite, but its square is not: the least-squares ridge
    # is held at its ceiling, so every method exits 0 with no overflow and
    # no RuntimeWarning (an error under this suite's warning filter)
    cfg = load_experiment_spec(config_path).radar
    trm = build_trm(
        draw_synthetic_target(cfg, 4, seed=21), PulseSchedule.full(16),
        PulseShape.ideal_sinc(24e6),
    )
    capture = tmp_path / "loud.trm"
    write_trm_file(trm, capture)
    capture.write_text(capture.read_text().replace(" sigma=0\n", " sigma=1e160\n", 1))
    argv = ["recover", str(capture), "--config", config_path, "--out", str(tmp_path)]
    for method in METHODS:
        assert main(argv + ["--method", method]) == 0
        assert f"{method}: " in capsys.readouterr().out
        assert np.all(np.isfinite(load_profile_csv(tmp_path / f"recovered_{method}.csv")))


def test_recover_dimension_error_is_reported(tmp_path, config_path, capsys):
    # and so is a negative noise level or a byte that is not ASCII (UTF-8
    # e-acute): each exits 2 with an error that names the capture
    cfg = load_experiment_spec(config_path).radar
    trm = build_trm(
        draw_synthetic_target(cfg, 4, seed=21), PulseSchedule.full(16),
        PulseShape.ideal_sinc(24e6),
    )
    good = tmp_path / "good.trm"
    write_trm_file(trm, good)
    text = good.read_bytes()
    for name, data in [
        ("dimension", b"SFRTRM v1 M=3 S=18 dt=4.2e-08 order=row-major\n0,0\n"),
        ("negative_sigma", text.replace(b" sigma=0\n", b" sigma=-1\n", 1)),
        ("non_ascii", text.replace(b"\n", b"\n\xc3\xa9", 1)),
    ]:
        bad = tmp_path / f"{name}.trm"
        bad.write_bytes(data)
        rc = main(["recover", str(bad), "--config", config_path,
                   "--out", str(tmp_path / "out")])
        assert rc == 2, name
        assert capsys.readouterr().err.startswith(f"error: {bad}:"), name


@pytest.mark.parametrize("verb", ["simulate", "sweep"])
@pytest.mark.parametrize(
    "old, new",
    [("sweep = 0, 5", "sweep ="), ("sweep = 0, 5", "sweep = 0, 0"),
     ("snr_db = 15", "snr_db ="), ("snr_db = 15", "snr_db = 15, 15"),
     ("solvers = sparse_l1, least_squares", "solvers = sparse_l1, sparse_l1")],
    ids=["empty_sweep", "repeated_sweep", "empty_snr", "repeated_snr",
         "repeated_solvers"],
)
def test_empty_or_repeated_list_is_a_config_error(tmp_path, capsys, verb, old, new):
    path = tmp_path / "exp.cfg"
    path.write_text(CONFIG.replace(old, new))
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {new.split()[0]} must list")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["simulate", "recover"])
def test_repeated_method_is_a_config_error(tmp_path, config_path, capsys, verb):
    # as a repeated config solver is: it would run, and write, twice. The
    # error names the flag, not the config file
    argv = [verb, "--config", config_path, "--out", str(tmp_path / "out"),
            "--method", "sparse_l1", "--method", "sparse_l1"]
    if verb == "recover":
        argv.insert(1, str(tmp_path / "capture.trm"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --method must list distinct values")
    assert str(config_path) not in err
    assert not (tmp_path / "out").exists()


def test_sweep_rejects_an_all_zero_target_file(tmp_path, capsys):
    # refused when the config is read, naming the profile CSV, before any
    # trial is solved
    cfg = RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=16, pulse_bandwidth=24e6, l_bins=3
    )
    truth = tmp_path / "zero.csv"
    export_profile(np.zeros(cfg.n_cells), range_axis(cfg), truth)
    config = tmp_path / "file.cfg"
    config.write_text(CONFIG.replace(
        "kind = synthetic\nn_scatterers = 4", f"kind = file\npath = {truth}"
    ))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: target file {truth}: ")
    assert "identically zero" in err
    assert not out.exists()


def test_recover_takes_no_seed(tmp_path, config_path, capsys):
    # recover draws nothing: a seed would change nothing
    with pytest.raises(SystemExit) as exc:
        main(["recover", str(tmp_path / "capture.trm"), "--config", config_path,
              "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_negative_seed_override_is_a_config_error(tmp_path, config_path, capsys):
    rc = main(["sweep", "--config", config_path, "--out", str(tmp_path), "--seed", "-1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_bad_config_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text("[radar]\nbogus = 1\n")
    rc = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
