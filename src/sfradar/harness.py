"""Experiment engine: seeded sweeps over missing-pulse counts and SNRs.

Each trial draws a target, a pulse schedule and receiver noise from
seeds derived purely from (experiment seed, missing count, trial index),
so re-running a spec reproduces every number except the timing column,
and adding a sweep point never disturbs the others. All solvers within a
trial consume the identical observation vector.
"""

import configparser
import math
import numbers
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .echo import (
    NoiseModel,
    PulseSchedule,
    RangeProfile,
    build_trm,
    random_missing_schedule,
)
from .io import load_profile_csv
from .metrics import similarity
from .model import ConfigError, PulseShape, RadarConfig, check_int
from .sensing import build_sensing_system
from .solvers import (
    SolverOptions,
    solve_least_squares_batch,
    solve_sparse_l1_batch,
    solve_stretch_idft,
)

METHODS = ("sparse_l1", "least_squares", "stretch_idft")
DEFAULT_SOLVERS = ("sparse_l1", "least_squares")
DEFAULT_SCATTERERS = 24
# Unread: bench/ still sets it. ROADMAP item 1 deletes it with that use.
THREADS_ENV = "SFR_THREADS"
# Bytes that the trials of one batch may hold between them. A trial holds
# fewer than 25 complex arrays of NL cells (its truth, TRM, observation,
# results and solver state): tracemalloc put it at 126 kB at N=32, L=12 and
# 335 kB at N=64, L=16 at 15 dB, both at the sparse loop's peak, which the
# least-squares loop's state stays under. 32 MB keeps the README sweep's
# 120 trials in one batch; more trials per batch gained no speed there.
BATCH_BYTES = 32 * 2**20


@dataclass(frozen=True)
class SyntheticSparse:
    """Random sparse target: unit-mean Rayleigh magnitudes, uniform phases,
    cells drawn uniformly without replacement."""

    n_scatterers: int = DEFAULT_SCATTERERS

    def __post_init__(self):
        check_int("n_scatterers", self.n_scatterers, 1)


@dataclass(frozen=True)
class FileTarget:
    """Truth profile loaded from a profile CSV (fixed across trials).

    The ExperimentSpec that holds it loads the file once, when it is built.
    """

    path: str


@dataclass(frozen=True)
class ExperimentSpec:
    radar: RadarConfig
    target: SyntheticSparse | FileTarget = SyntheticSparse()
    sweep: tuple[int, ...] = (0,)
    snr_db: tuple[float | None, ...] = (None,)  # one value or None: a one-entry tuple
    trials_per_point: int = 1
    seed: int = 0
    solvers: tuple[str, ...] = DEFAULT_SOLVERS
    solver_opts: SolverOptions = field(default_factory=SolverOptions)
    shape: PulseShape | None = None
    valid_pulses: tuple[int, ...] | None = None  # recover's schedule; None: the full train

    def __post_init__(self):
        check_int("trials_per_point", self.trials_per_point, 1)
        check_int("seed", self.seed, 0)
        sweep = tuple(check_int("sweep value", v, 0) for v in self.sweep)
        object.__setattr__(self, "sweep", sweep)
        snr = self.snr_db
        single = snr is None or isinstance(snr, (numbers.Real, str))
        snr = (snr,) if single else tuple(snr)
        object.__setattr__(self, "snr_db", snr)
        solvers = tuple(self.solvers)
        object.__setattr__(self, "solvers", solvers)
        for name, values in (("sweep", sweep), ("snr_db", snr), ("solvers", solvers)):
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} must list distinct values, got {values}")
        for v in sweep:
            if not 0 <= v < self.radar.n_pulses:
                raise ConfigError(
                    f"sweep value {v} outside [0, {self.radar.n_pulses - 1}]"
                )
        for v in snr:
            if v is not None and not (isinstance(v, numbers.Real) and math.isfinite(v)):
                raise ConfigError(f"snr_db must be a finite number or None, got {v!r}")
        if isinstance(self.target, FileTarget):
            path = str(self.target.path)
            try:
                truth = RangeProfile(load_profile_csv(path), self.radar)
                if not np.any(truth.values):  # no trial could be scored
                    raise ConfigError("profile is identically zero")
            except (OSError, ValueError) as exc:
                # the file is named once: most loader errors name it already
                message = str(exc) if path in str(exc) else f"target file {path}: {exc}"
                raise ConfigError(message) from exc
            object.__setattr__(self, "_file_truth", truth)
        elif self.target.n_scatterers > self.radar.n_cells:
            raise ConfigError(
                f"cannot place {self.target.n_scatterers} scatterers in "
                f"{self.radar.n_cells} cells"
            )
        for name in solvers:
            if name not in METHODS:
                raise ConfigError(
                    f"unknown solver {name!r}; choose from {METHODS}"
                )
        n_pulses = self.radar.n_pulses
        pulses = range(n_pulses) if self.valid_pulses is None else self.valid_pulses
        schedule = PulseSchedule(pulses, n_pulses)
        object.__setattr__(self, "valid_pulses", schedule.valid_indices)
        if self.shape is None:
            object.__setattr__(
                self, "shape", PulseShape.ideal_sinc(self.radar.pulse_bandwidth)
            )


@dataclass(frozen=True)
class TrialRecord:
    seed: int
    missing_count: int
    snr_db: float | None
    trial: int
    method: str
    similarity: float
    rel_l2_error: float
    residual_l2: float
    iterations: int
    wall_time_s: float


def child_seed(seed: int, missing_count: int, trial: int, stream: int = 0) -> int:
    """Deterministic per-trial seed, independent of sweep ordering."""
    ss = np.random.SeedSequence([int(seed), int(missing_count), int(trial), stream])
    return int(ss.generate_state(1, np.uint64)[0])


def draw_synthetic_target(cfg: RadarConfig, n_scatterers: int, seed: int) -> RangeProfile:
    """Sparse profile with unit-mean Rayleigh magnitudes and uniform phases."""
    check_int("n_scatterers", n_scatterers, 1)
    if n_scatterers > cfg.n_cells:
        raise ConfigError(
            f"cannot place {n_scatterers} scatterers in {cfg.n_cells} cells"
        )
    rng = np.random.default_rng(seed)
    cells = rng.choice(cfg.n_cells, size=n_scatterers, replace=False)
    mags = rng.rayleigh(scale=math.sqrt(2.0 / math.pi), size=n_scatterers)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_scatterers)
    values = np.zeros(cfg.n_cells, dtype=np.complex128)
    values[cells] = mags * np.exp(1j * phases)
    return RangeProfile(values, cfg)


def draw_trial(spec: ExperimentSpec, missing_count: int, snr_db, trial: int) -> tuple:
    """(truth, TRM, sensing system) of one trial of the spec.

    The target, pulse schedule and noise come from child_seed streams 1, 2
    and 3 of (spec.seed, missing_count, trial). A file target is the
    profile the spec loaded when it was built.
    """
    cfg, shape = spec.radar, spec.shape
    if isinstance(spec.target, FileTarget):
        truth = spec._file_truth
    else:
        truth = draw_synthetic_target(
            cfg, spec.target.n_scatterers,
            child_seed(spec.seed, missing_count, trial, 1),
        )
    schedule = random_missing_schedule(
        cfg.n_pulses, missing_count, child_seed(spec.seed, missing_count, trial, 2)
    )
    noise = None
    if snr_db is not None:
        noise = NoiseModel(
            snr_db=snr_db, seed=child_seed(spec.seed, missing_count, trial, 3)
        )
    trm = build_trm(truth, schedule, shape, noise)
    return truth, trm, build_sensing_system(cfg, shape, schedule, trm)


def solve_batch(spec: ExperimentSpec, method: str, trms, systems) -> list:
    """One RecoveryResult per trial of a batch, given as its TRMs and their
    sensing systems: the one dispatch over METHODS. The sparse and the
    least-squares problems of the batch are solved in one loop each; stretch
    maps over the TRMs."""
    if method == "sparse_l1":
        return solve_sparse_l1_batch(systems, spec.solver_opts)
    if method == "least_squares":
        return solve_least_squares_batch(systems, spec.solver_opts)
    return [solve_stretch_idft(trm, spec.radar, spec.shape) for trm in trms]


def run_batch(spec: ExperimentSpec, jobs) -> list:
    """(truth, records, results) of each (missing count, SNR, trial) job:
    every solver of the spec on the trial's one observation, a TrialRecord
    and a RecoveryResult each. Each solver runs once on all the jobs, by
    solve_batch; a job's records do not depend on the others in its batch.
    A trial's wall time is the batch's share of its iterations, an even
    share when none iterated."""
    drawn = [draw_trial(spec, *job) for job in jobs]
    trms, systems = [trm for _, trm, _ in drawn], [sys for _, _, sys in drawn]
    solved = {}
    for method in spec.solvers:
        start = time.perf_counter()
        results = solve_batch(spec, method, trms, systems)
        wall = time.perf_counter() - start
        total = sum(r.iterations for r in results)
        solved[method] = [
            (r, wall * (r.iterations / total if total else 1 / len(results)))
            for r in results
        ]
    trials = []
    for k, ((missing_count, snr_db, trial), (truth, _, _)) in enumerate(zip(jobs, drawn)):
        trial_seed = child_seed(spec.seed, missing_count, trial, 0)
        records, results = [], []
        for method in spec.solvers:
            result, wall = solved[method][k]
            report = similarity(truth.values, result.h_est)
            results.append(result)
            records.append(
                TrialRecord(
                    seed=trial_seed,
                    missing_count=missing_count,
                    snr_db=snr_db,
                    trial=trial,
                    method=method,
                    similarity=report.similarity,
                    rel_l2_error=report.rel_l2_error,
                    residual_l2=result.residual_l2,
                    iterations=result.iterations,
                    wall_time_s=wall,
                )
            )
        trials.append((truth, records, results))
    return trials


def run_trial(spec: ExperimentSpec, missing_count: int, snr_db, trial: int) -> tuple:
    """(truth, records, results) of one trial: the batch of one job."""
    return run_batch(spec, [(missing_count, snr_db, trial)])[0]


def run_experiment(spec: ExperimentSpec, workers=None) -> list:
    """Run every (missing count, SNR, trial) cell of the spec.

    Returns one TrialRecord per requested solver per trial, sorted by
    (missing_count, snr, trial, method). The trials run on one thread, in
    batches that hold at most BATCH_BYTES; records do not depend on the
    batch split.
    """
    # Unread: bench/ still passes workers. ROADMAP item 1 deletes it with that use.
    jobs = [
        (missing, snr, trial)
        for missing in spec.sweep
        for snr in spec.snr_db
        for trial in range(spec.trials_per_point)
    ]
    cfg = spec.radar
    size = max(1, BATCH_BYTES // (16 * 25 * cfg.n_cells))
    done = [run_batch(spec, jobs[i:i + size]) for i in range(0, len(jobs), size)]
    records = [rec for trials in done for _, batch, _ in trials for rec in batch]
    records.sort(
        key=lambda r: (
            r.missing_count,
            -math.inf if r.snr_db is None else r.snr_db,
            r.trial,
            r.method,
        )
    )
    return records


TRIALS_CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


def format_trial_row(rec: TrialRecord) -> str:
    snr = "" if rec.snr_db is None else f"{rec.snr_db:.12g}"
    return (
        f"{rec.seed},{rec.missing_count},{snr},{rec.trial},{rec.method},"
        f"{rec.similarity:.12g},{rec.rel_l2_error:.12g},"
        f"{rec.residual_l2:.12g},{rec.iterations},{rec.wall_time_s:.6g}"
    )


def write_trials_csv(records, path) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(TRIALS_CSV_HEADER + "\n")
        for rec in records:
            f.write(format_trial_row(rec) + "\n")


# -- configuration file -----------------------------------------------------

# section -> kind -> (keys the kind reads, keys it requires). A section
# without kinds has the one kind None; elsewhere the first kind is the
# default. Required keys are explicit, not derived from the field
# defaults: l_bins has one.
_SCHEMA = {
    "radar": {None: ({f.name for f in fields(RadarConfig)},
                     ("f_c", "delta_f", "n_pulses", "pulse_bandwidth", "l_bins"))},
    "pulse_shape": {
        "ideal_sinc": (set(), ()),
        "windowed_sinc": ({"window", "truncation_halfwidth"}, ("truncation_halfwidth",)),
    },
    "target": {"synthetic": ({"n_scatterers"}, ()), "file": ({"path"}, ("path",))},
    "experiment": {None: (
        {"sweep", "snr_db", "trials_per_point", "seed", "solvers", "valid_pulses"},
        ("sweep", "snr_db", "trials_per_point", "seed"))},
    "solver": {None: ({f.name for f in fields(SolverOptions)}, ())},
}
_REQUIRED_SECTIONS = ("radar", "experiment")


def _check_section(section):
    """The kind of a config section, its keys checked against _SCHEMA.

    A key that the kind does not read is an error, not ignored: a window
    on an ideal sinc would otherwise load and change nothing.
    """
    kinds = _SCHEMA[section.name]
    kind = None if None in kinds else section.get("kind", next(iter(kinds)))
    if kind not in kinds:
        raise ConfigError(f"unknown [{section.name}] kind {kind!r}")
    where = f"[{section.name}]" + ("" if kind is None else f" kind {kind!r}")
    reads, requires = kinds[kind]
    for key in section:
        if key not in reads and (kind is None or key != "kind"):
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in requires:
        if key not in section:
            raise ConfigError(f"{where} requires {key}")
    return kind


def _read_tuple(cast):
    """A reader of a comma- or space-separated value, each item read by cast."""
    return lambda text: tuple(map(cast, text.replace(",", " ").split()))


def _read_snr(text: str):
    """(None,) for none (noiseless), else the tuple of values."""
    return (None,) if text.lower() == "none" else _read_tuple(float)(text)


# the reader of a config value for each field annotation
_READERS = {
    int: int, float: float, float | None: float, str: str,
    tuple[int, ...]: _read_tuple(int), tuple[int, ...] | None: _read_tuple(int),
    tuple[str, ...]: _read_tuple(str), tuple[float | None, ...]: _read_snr,
}


def _read_fields(section, cls) -> dict:
    """The keys of a config section that name fields of dataclass cls, each
    read by its field annotation's reader (a KeyError if it has none). A
    value that does not parse names its [section] key."""
    values = {}
    for f in fields(cls):
        if f.name in section:
            try:
                values[f.name] = _READERS[f.type](section[f.name])
            except ValueError as exc:
                raise ConfigError(f"[{section.name}] {f.name}: {exc}") from exc
    return values


def load_experiment_spec(path, **overrides) -> ExperimentSpec:
    """Build an ExperimentSpec from a key-value config file.

    Unknown sections or keys are errors, not warnings: a silent typo
    would corrupt a sweep. Every error is a ConfigError naming the file.
    overrides replace [experiment] values in the one construction of the
    spec, so a file target is read once.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as f:
            cp.read_file(f)
        return _spec_from_parser(cp, overrides)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _spec_from_parser(cp, overrides) -> ExperimentSpec:
    """The spec of a parsed config file with the given [experiment] values
    replaced; load_experiment_spec adds the path."""
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
    for name in _REQUIRED_SECTIONS:
        if name not in cp:
            raise ConfigError(f"missing section [{name}]")
    # an optional section that is absent reads as empty
    cp.read_dict(dict.fromkeys(_SCHEMA, {}))
    kinds = {name: _check_section(cp[name]) for name in _SCHEMA}
    radar = RadarConfig(**_read_fields(cp["radar"], RadarConfig))
    shape = PulseShape(radar.pulse_bandwidth, **_read_fields(cp["pulse_shape"], PulseShape))
    target_cls = FileTarget if kinds["target"] == "file" else SyntheticSparse
    return ExperimentSpec(
        radar=radar,
        target=target_cls(**_read_fields(cp["target"], target_cls)),
        shape=shape,
        **{**_read_fields(cp["experiment"], ExperimentSpec), **overrides},
        solver_opts=SolverOptions(**_read_fields(cp["solver"], SolverOptions)),
    )
