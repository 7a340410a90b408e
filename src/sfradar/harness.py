"""Experiment engine: seeded sweeps over missing-pulse counts and SNRs.

Each trial draws a target, a pulse schedule and receiver noise from
seeds derived purely from (experiment seed, missing count, trial index),
so re-running a spec reproduces every number except the timing column,
and adding a sweep point never disturbs the others. All solvers within a
trial consume the identical observation vector.
"""

import configparser
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
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
from .model import ConfigError, PulseShape, RadarConfig
from .sensing import build_sensing_system
from .solvers import (
    RecoveryResult,
    SolverOptions,
    solve_least_squares,
    solve_sparse_l1,
    solve_stretch_idft,
)

METHODS = ("sparse_l1", "least_squares", "stretch_idft")
DEFAULT_SOLVERS = ("sparse_l1", "least_squares")
DEFAULT_SCATTERERS = 24
THREADS_ENV = "SFR_THREADS"


@dataclass(frozen=True)
class SyntheticSparse:
    """Random sparse target: unit-mean Rayleigh magnitudes, uniform phases,
    cells drawn uniformly without replacement."""

    n_scatterers: int = DEFAULT_SCATTERERS

    def __post_init__(self):
        if self.n_scatterers < 1:
            raise ConfigError(
                f"n_scatterers must be >= 1, got {self.n_scatterers}"
            )


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
    snr_db: float | tuple[float, ...] | None = None
    trials_per_point: int = 1
    seed: int = 0
    solvers: tuple[str, ...] = DEFAULT_SOLVERS
    solver_opts: SolverOptions = field(default_factory=SolverOptions)
    shape: PulseShape | None = None
    valid_pulses: tuple[int, ...] | None = None  # recorded-data schedule (recover)

    def __post_init__(self):
        if self.trials_per_point < 1:
            raise ConfigError(
                f"trials_per_point must be >= 1, got {self.trials_per_point}"
            )
        sweep = tuple(int(v) for v in self.sweep)
        object.__setattr__(self, "sweep", sweep)
        for name, values in (("sweep", sweep), ("snr_db", self.snr_list)):
            if not values or len(set(values)) < len(values):
                raise ConfigError(f"{name} must list distinct values, got {values}")
        for v in sweep:
            if not 0 <= v < self.radar.n_pulses:
                raise ConfigError(
                    f"sweep value {v} outside [0, {self.radar.n_pulses - 1}]"
                )
        for snr in self.snr_list:
            if snr is not None and not math.isfinite(snr):
                raise ConfigError(f"snr_db must be finite, got {snr}")
        if isinstance(self.target, FileTarget):
            path = str(self.target.path)
            try:
                truth = RangeProfile(load_profile_csv(path), self.radar)
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
        solvers = tuple(self.solvers)
        object.__setattr__(self, "solvers", solvers)
        if not solvers:
            raise ConfigError("at least one solver must be requested")
        for name in solvers:
            if name not in METHODS:
                raise ConfigError(
                    f"unknown solver {name!r}; choose from {METHODS}"
                )
        if self.valid_pulses is not None:
            PulseSchedule(self.valid_pulses, self.radar.n_pulses)
        if self.shape is None:
            object.__setattr__(
                self, "shape", PulseShape.ideal_sinc(self.radar.pulse_bandwidth)
            )

    @property
    def snr_list(self) -> tuple:
        if self.snr_db is None or isinstance(self.snr_db, (int, float)):
            return (self.snr_db,)
        return tuple(self.snr_db)


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


def solve_method(spec: ExperimentSpec, method: str, sys, trm) -> RecoveryResult:
    """Run one of METHODS with the spec's solver options on one trial."""
    if method == "sparse_l1":
        return solve_sparse_l1(sys, spec.solver_opts)
    if method == "least_squares":
        return solve_least_squares(sys, spec.solver_opts)
    return solve_stretch_idft(trm, spec.radar, spec.shape)


def _run_trial(spec: ExperimentSpec, missing_count: int, snr_db, trial: int) -> list:
    truth, trm, sys = draw_trial(spec, missing_count, snr_db, trial)
    trial_seed = child_seed(spec.seed, missing_count, trial, 0)
    records = []
    for method in spec.solvers:
        start = time.perf_counter()
        result = solve_method(spec, method, sys, trm)
        wall = time.perf_counter() - start
        report = similarity(truth.values, result.h_est)
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
    return records


def _worker_count(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get(THREADS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if workers <= 0:
        workers = os.cpu_count() or 1
    return workers


def run_experiment(spec: ExperimentSpec, workers: int | None = None) -> list:
    """Run every (missing count, SNR, trial) cell of the spec.

    Returns one TrialRecord per requested solver per trial, sorted by
    (missing_count, snr, trial, method). Trials run on one worker unless
    the SFR_THREADS environment variable asks for a thread pool (0 = one
    worker per CPU); records are identical across worker counts.
    """
    jobs = [
        (missing, snr, trial)
        for missing in spec.sweep
        for snr in spec.snr_list
        for trial in range(spec.trials_per_point)
    ]
    n_workers = _worker_count(workers)
    if n_workers == 1 or len(jobs) <= 1:
        batches = [_run_trial(spec, *job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            batches = list(pool.map(lambda job: _run_trial(spec, *job), jobs))
    records = [rec for batch in batches for rec in batch]
    records.sort(
        key=lambda r: (
            r.missing_count,
            -math.inf if r.snr_db is None else r.snr_db,
            r.trial,
            r.method,
        )
    )
    return records


TRIALS_CSV_HEADER = (
    "seed,missing_count,snr_db,trial,method,similarity,"
    "rel_l2_error,residual_l2,iterations,wall_time_s"
)


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


def _read_bool(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


def _read_tuple(cast):
    """A reader of a comma- or space-separated value, each item read by cast."""
    return lambda text: tuple(map(cast, text.replace(",", " ").split()))


def _read_snr(text: str):
    """none (noiseless), one value, or a tuple of values."""
    if text.lower() == "none":
        return None
    values = _read_tuple(float)(text)
    return values[0] if len(values) == 1 else values


# the reader of a config value for each field annotation
_READERS = {
    bool: _read_bool, int: int, float: float, float | None: float, str: str,
    tuple[int, ...]: _read_tuple(int), tuple[int, ...] | None: _read_tuple(int),
    tuple[str, ...]: _read_tuple(str), float | tuple[float, ...] | None: _read_snr,
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


def load_experiment_spec(path) -> ExperimentSpec:
    """Build an ExperimentSpec from a key-value config file.

    Unknown sections or keys are errors, not warnings: a silent typo
    would corrupt a sweep. Every error is a ConfigError naming the file.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, "r", encoding="utf-8") as f:
            cp.read_file(f)
        return _spec_from_parser(cp)
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _spec_from_parser(cp) -> ExperimentSpec:
    """The spec of a parsed config file; load_experiment_spec adds the path."""
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
        **_read_fields(cp["experiment"], ExperimentSpec),
        solver_opts=SolverOptions(**_read_fields(cp["solver"], SolverOptions)),
    )
