"""The benchmark's workloads.

A workload writes its inputs during set-up and then runs passes. One pass
is a fixed batch of operations made from the workload seed, so every pass
of one seed must produce the same records; the pass digest (records
without ``wall_time_s``) checks that. The package is driven only through
``cli.main``, ``run_experiment`` and the I/O writers and readers; the
set-up of ``recover-captures`` also synthesises its captures with the
echo model.

Functions are looked up on their modules at call time (``echo.build_trm``)
so that the traced run sees the calls; the scoring helpers are bound once
at import, before any tracing, so scoring never shows up in a span.
"""

import contextlib
import hashlib
import io as textio
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from sfradar import cli, echo, harness, model, solvers
from sfradar import io as sio
from sfradar.io import load_profile_csv as read_profile
from sfradar.metrics import similarity as score

SNR_DB = 15.0
N_SCATTERERS = 24
SETUP_REPS = 5


@dataclass
class Pass:
    """What one pass did: timed seconds, per-op latencies and its records."""

    batch: int = 0
    seconds: float = 0.0
    latencies_s: dict = field(default_factory=dict)  # op key -> seconds
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    similarity: dict = field(default_factory=dict)  # method -> scores


def radar_section(n_pulses: int, l_bins: int) -> str:
    return (
        "[radar]\nf_c = 5.0e9\ndelta_f = 16e6\n"
        f"n_pulses = {n_pulses}\npulse_bandwidth = 24e6\nl_bins = {l_bins}\n"
    )


def radar_config(n_pulses: int, l_bins: int) -> model.RadarConfig:
    return model.RadarConfig(
        f_c=5.0e9, delta_f=16e6, n_pulses=n_pulses, pulse_bandwidth=24e6,
        l_bins=l_bins,
    )


def cold_start(src_dir: str) -> None:
    """Start the CLI in a fresh interpreter, as a user's first command does."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run(
        [sys.executable, "-m", "sfradar.cli", "--version"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"CLI cold start failed: {done.stderr.strip()}")


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(textio.StringIO()):
        return cli.main(argv)


def finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class Sweep:
    """`sfradar sweep` on seeded configs; one operation is one trial.

    Passes cycle through `batches` configs with sweep seeds 100 * seed + b,
    so one run covers several targets per sweep point while every batch's
    records stay fixed.
    """

    def __init__(self, name, n_pulses, l_bins, sweep, trials, batches, workers,
                 seed, workdir):
        self.name = name
        self.n_pulses, self.l_bins = n_pulses, l_bins
        self.sweep, self.trials = tuple(sweep), trials
        self.batches = batches
        self.workers = workers  # None: the shipped default, one per CPU
        self.seed = seed
        self.workdir = workdir
        self.runs = []  # (config path, output directory) per batch

    @property
    def trial_workers(self) -> int:
        return self.workers or os.cpu_count() or 1

    def setup(self, rep, src_dir) -> None:
        cold_start(src_dir)
        out = os.path.join(self.workdir, f"setup{rep}")
        os.makedirs(out, exist_ok=True)
        self.runs = []
        for b in range(self.batches):
            config = os.path.join(out, f"sweep{b}.cfg")
            with open(config, "w", encoding="ascii") as f:
                f.write(
                    radar_section(self.n_pulses, self.l_bins)
                    + f"[target]\nkind = synthetic\nn_scatterers = {N_SCATTERERS}\n"
                    + "[experiment]\n"
                    + f"sweep = {', '.join(str(m) for m in self.sweep)}\n"
                    + f"snr_db = {SNR_DB:g}\ntrials_per_point = {self.trials}\n"
                    + f"seed = {100 * self.seed + b}\n"
                    + "solvers = sparse_l1, least_squares\n"
                )
            self.runs.append((config, os.path.join(out, f"run{b}")))
        if self.workers is None:
            os.environ.pop(harness.THREADS_ENV, None)
        else:
            os.environ[harness.THREADS_ENV] = str(self.workers)

    def run_pass(self, batch) -> Pass:
        config, out = self.runs[batch]
        p = Pass(batch=batch, attempted=len(self.sweep) * self.trials)
        csv_path = os.path.join(out, "trials.csv")
        if os.path.exists(csv_path):
            os.remove(csv_path)
        t0 = perf_counter()
        try:
            code = quiet_main(["sweep", "--config", config, "--out", out])
        except Exception as exc:  # a crashing op is counted, not fatal
            print(f"{self.name}: sweep raised {exc!r}", file=sys.stderr)
            code = None
        p.seconds = perf_counter() - t0
        if code != 0 or not os.path.exists(csv_path):
            p.failed = p.attempted
            return p

        with open(csv_path, "r", encoding="ascii") as f:
            rows = [ln.rstrip("\n").split(",") for ln in f][1:]
        trial_s, methods = {}, {}
        for row in rows:
            key = (int(row[1]), row[2], int(row[3]))
            sim, rel, res, wall = (float(row[i]) for i in (5, 6, 7, 9))
            ok = finite((sim, rel, res, wall))
            trial_s[key] = trial_s.get(key, 0.0) + wall
            methods.setdefault(key, []).append((row[4], ok))
            p.similarity.setdefault(row[4], []).append(sim)
        for seen in methods.values():
            if sorted(m for m, _ in seen) != ["least_squares", "sparse_l1"] or not all(
                ok for _, ok in seen
            ):
                p.failed += 1
        p.failed += p.attempted - len(methods)  # trials with no record at all
        p.latencies_s = trial_s
        p.digest = hashlib.sha256(
            "\n".join(",".join(row[:-1]) for row in rows).encode()
        ).hexdigest()
        return p

    def check(self, similarity: dict) -> list:
        """Re-run batch 0's first trial in process on one worker; its rows
        must match the CLI's, and sparse recovery must score well."""
        problems = []
        config, out = self.runs[0]
        spec = harness.load_experiment_spec(config)
        spec = replace(spec, sweep=self.sweep[:1], trials_per_point=1)
        ref_csv = os.path.join(out, "reference.csv")
        harness.write_trials_csv(harness.run_experiment(spec, workers=1), ref_csv)
        with open(ref_csv, encoding="ascii") as f:
            ref = [ln.rsplit(",", 1)[0] for ln in f.read().splitlines()[1:]]
        got = []
        if os.path.exists(os.path.join(out, "trials.csv")):
            with open(os.path.join(out, "trials.csv"), encoding="ascii") as f:
                got = [ln.rsplit(",", 1)[0] for ln in f.read().splitlines()[1:]]
        if not set(ref) <= set(got):
            problems.append("sweep rows differ from a one-worker in-process run")
        if similarity.get("sparse_l1", 0.0) < 0.9:
            problems.append("sparse_l1 mean similarity below 0.9 at 15 dB")
        return problems


@dataclass
class Capture:
    trm_path: str
    config: str
    out: str
    truth: np.ndarray


class RecoverCaptures:
    """`sfradar recover --method stretch_idft` on seeded capture files;
    one operation is one capture."""

    name = "recover-captures"
    method = "stretch_idft"
    batches = 1

    def __init__(self, n_pulses, l_bins, missing, seed, workdir):
        self.n_pulses, self.l_bins = n_pulses, l_bins
        self.missing = tuple(missing)
        self.seed = seed
        self.workdir = workdir
        self.captures = []
        self.trial_workers = 1

    def setup(self, rep, src_dir) -> None:
        cold_start(src_dir)
        cfg = radar_config(self.n_pulses, self.l_bins)
        shape = model.PulseShape.ideal_sinc(cfg.pulse_bandwidth)
        out = os.path.join(self.workdir, f"setup{rep}")
        os.makedirs(out, exist_ok=True)
        captures = []
        for k, missing in enumerate(self.missing):
            s_target, s_schedule, s_noise = (
                int(v) for v in np.random.SeedSequence([self.seed, k]).generate_state(3)
            )
            truth = harness.draw_synthetic_target(cfg, N_SCATTERERS, s_target)
            schedule = echo.random_missing_schedule(cfg.n_pulses, missing, s_schedule)
            trm = echo.build_trm(truth, schedule, shape, echo.NoiseModel(SNR_DB, s_noise))
            stem = os.path.join(out, f"capture{k:03d}")
            sio.write_trm_file(trm, stem + ".trm")
            with open(stem + ".cfg", "w", encoding="ascii") as f:
                f.write(
                    radar_section(self.n_pulses, self.l_bins)
                    + "[experiment]\nsweep = 0\n"
                    + f"snr_db = {SNR_DB:g}\ntrials_per_point = 1\nseed = 0\n"
                    + f"solvers = {self.method}\n"
                    + f"valid_pulses = {', '.join(str(i) for i in schedule.valid_indices)}\n"
                )
            captures.append(
                Capture(stem + ".trm", stem + ".cfg", stem + "_out", truth.values)
            )
        self.captures = captures
        self._recover(captures[0])  # warm-up: lazy imports, first-call costs

    def _recover(self, cap: Capture):
        """Exit code of one recover call, or None if it raised."""
        try:
            return quiet_main(["recover", cap.trm_path, "--config", cap.config,
                               "--method", self.method, "--out", cap.out])
        except Exception as exc:  # a crashing op is counted, not fatal
            print(f"{self.name}: recover raised {exc!r}", file=sys.stderr)
            return None

    def _result_path(self, cap: Capture) -> str:
        return os.path.join(cap.out, f"recovered_{self.method}.csv")

    def run_pass(self, batch=0) -> Pass:
        p = Pass(attempted=len(self.captures))
        digest = hashlib.sha256()
        scores = []
        for k, cap in enumerate(self.captures):
            result = self._result_path(cap)
            if os.path.exists(result):
                os.remove(result)
            t0 = perf_counter()
            code = self._recover(cap)
            dt = perf_counter() - t0
            p.seconds += dt
            p.latencies_s[k] = dt
            if code != 0 or not os.path.exists(result):
                p.failed += 1
                continue
            with open(result, "rb") as f:
                data = f.read()
            digest.update(os.path.basename(cap.trm_path).encode() + b"\n" + data)
            profile = read_profile(result)
            if not finite(np.abs(profile)):
                p.failed += 1
                continue
            scores.append(score(cap.truth, profile).similarity)
        p.digest = digest.hexdigest()
        p.similarity = {self.method: scores}
        return p

    def check(self, similarity: dict) -> list:
        """Each exported profile must match the library's stretch solution."""
        problems = []
        for cap in self.captures:
            name = os.path.basename(cap.trm_path)
            if not os.path.exists(self._result_path(cap)):
                problems.append(f"{name}: no exported profile")
                continue
            spec = harness.load_experiment_spec(cap.config)
            schedule = echo.PulseSchedule(spec.valid_pulses, spec.radar.n_pulses)
            trm = sio.load_trm_file(cap.trm_path, spec.radar, schedule)
            want = np.abs(solvers.solve_stretch_idft(trm, spec.radar, spec.shape).h_est)
            got = np.abs(read_profile(self._result_path(cap)))
            if got.shape != want.shape or not np.allclose(got, want, rtol=1e-8, atol=1e-12):
                problems.append(f"{name}: exported profile differs from library")
        return problems


def make(name, seed, workdir, smoke=False):
    """The named workload at full size, or tiny for the smoke test."""
    if name == "sweep-default":
        gate = dict(n_pulses=16, l_bins=3, sweep=(0, 4)) if smoke else dict(
            n_pulses=32, l_bins=12, sweep=(0, 4, 8, 12, 16, 20))
        return Sweep(name, **gate, trials=1 if smoke else 2, batches=2 if smoke else 3,
                     workers=None, seed=seed, workdir=workdir)
    if name == "sweep-large-gate":
        gate = dict(n_pulses=16, l_bins=4, sweep=(4,)) if smoke else dict(
            n_pulses=64, l_bins=16, sweep=(16,))
        return Sweep(name, **gate, trials=1, batches=2 if smoke else 8,
                     workers=1, seed=seed, workdir=workdir)
    if name == "recover-captures":
        if smoke:
            return RecoverCaptures(16, 3, missing=range(5), seed=seed, workdir=workdir)
        # three captures per missing count, 0..20
        return RecoverCaptures(32, 12, missing=tuple(range(21)) * 3, seed=seed,
                               workdir=workdir)
    raise ValueError(f"unknown workload {name!r}")
