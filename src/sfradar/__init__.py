"""Extended range profiling for stepped-frequency radar with missing pulses."""

__version__ = "0.1.0"

from .echo import (
    NoiseModel,
    PulseSchedule,
    RangeProfile,
    Trm,
    build_trm,
    random_missing_schedule,
)
from .harness import (
    ExperimentSpec,
    FileTarget,
    SyntheticSparse,
    TrialRecord,
    draw_synthetic_target,
    load_experiment_spec,
    run_experiment,
    write_trials_csv,
)
from .io import (
    TrmDimensionError,
    TrmFileError,
    TrmHeaderError,
    TrmSampleError,
    export_profile,
    load_profile_csv,
    load_trm_file,
    write_trm_file,
)
from .metrics import SimilarityReport, peak_sidelobe_db, rel_l2_error, similarity
from .model import (
    ConfigError,
    PulseShape,
    RadarConfig,
    pulse_shape_eval,
    range_axis,
)
from .sensing import SensingSystem, build_sensing_system
from .solvers import (
    RecoveryResult,
    SolverOptions,
    soft_threshold,
    solve_least_squares,
    solve_least_squares_batch,
    solve_sparse_l1,
    solve_sparse_l1_batch,
    solve_stretch_idft,
)

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "FileTarget",
    "NoiseModel",
    "PulseSchedule",
    "PulseShape",
    "RadarConfig",
    "RangeProfile",
    "RecoveryResult",
    "SensingSystem",
    "SimilarityReport",
    "SolverOptions",
    "SyntheticSparse",
    "TrialRecord",
    "Trm",
    "TrmDimensionError",
    "TrmFileError",
    "TrmHeaderError",
    "TrmSampleError",
    "build_sensing_system",
    "build_trm",
    "draw_synthetic_target",
    "export_profile",
    "load_experiment_spec",
    "load_profile_csv",
    "load_trm_file",
    "peak_sidelobe_db",
    "pulse_shape_eval",
    "random_missing_schedule",
    "range_axis",
    "rel_l2_error",
    "run_experiment",
    "similarity",
    "soft_threshold",
    "solve_least_squares",
    "solve_least_squares_batch",
    "solve_sparse_l1",
    "solve_sparse_l1_batch",
    "solve_stretch_idft",
    "write_trials_csv",
    "write_trm_file",
]
