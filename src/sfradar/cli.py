"""Command-line interface.

Verbs:
  simulate  run one trial from a config and dump truth/estimate profiles
  sweep     run the full experiment grid and write trials.csv
  recover   load a recorded TRM file and run one solver on it
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .echo import PulseSchedule
from .harness import (
    ExperimentSpec,
    METHODS,
    load_experiment_spec,
    run_experiment,
    run_trial,
    solve_batch,
    write_trials_csv,
)
from .io import export_profile, load_trm_file
from .model import ConfigError, check_int, range_axis
from .sensing import build_sensing_system


def _outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(spec: ExperimentSpec, args) -> int:
    cfg = spec.radar
    missing, snr = spec.sweep[0], spec.snr_db[0]
    out = _outdir(args)
    truth, records, results = run_trial(spec, missing, snr, 0)
    axis = range_axis(cfg)

    export_profile(truth.values, axis, os.path.join(out, "truth_profile.csv"))
    print(
        f"simulate: N={cfg.n_pulses} L={cfg.l_bins} missing={missing} "
        f"snr_db={snr} seed={spec.seed}"
    )
    for rec, result in zip(records, results):
        dest = os.path.join(out, f"profile_{rec.method}.csv")
        export_profile(result.h_est, axis, dest)
        print(
            f"  {rec.method}: similarity={rec.similarity:.4f} "
            f"rel_l2={rec.rel_l2_error:.4f} residual={rec.residual_l2:.4g} "
            f"iters={rec.iterations} converged={result.converged} -> {dest}"
        )
    return 0


def cmd_sweep(spec: ExperimentSpec, args) -> int:
    records = run_experiment(spec)
    out = _outdir(args)
    dest = os.path.join(out, "trials.csv")
    write_trials_csv(records, dest)
    print(f"sweep: {len(records)} records -> {dest}")
    for missing in spec.sweep:
        for method in spec.solvers:
            vals = [
                r.similarity
                for r in records
                if r.missing_count == missing and r.method == method
            ]
            print(
                f"  missing={missing:3d} {method:>13s}: "
                f"mean similarity {np.mean(vals):.4f} over {len(vals)} trials"
            )
    return 0


def cmd_recover(spec: ExperimentSpec, args) -> int:
    cfg = spec.radar
    schedule = PulseSchedule(spec.valid_pulses, cfg.n_pulses)
    trm = load_trm_file(args.trm_file, cfg, schedule)
    sys_ = build_sensing_system(cfg, spec.shape, schedule, trm)
    out = _outdir(args)
    axis = range_axis(cfg)
    methods = spec.solvers if args.method else (spec.solvers[0],)
    for method in methods:
        try:
            (result,) = solve_batch(spec, method, [trm], [sys_])
        except ConfigError as exc:  # a capture without a noise level, say
            raise ConfigError(f"{args.trm_file}: {exc}") from exc
        dest = os.path.join(out, f"recovered_{method}.csv")
        export_profile(result.h_est, axis, dest)
        print(
            f"  {method}: residual={result.residual_l2:.6g} "
            f"iters={result.iterations} converged={result.converged} -> {dest}"
        )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls."""
    parser = argparse.ArgumentParser(
        prog="sfradar",
        description=(
            "Stepped-frequency radar range profiling with missing pulses: "
            "sparse recovery against least-squares and stretch baselines."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: .)")

    p = sub.add_parser("simulate", help="one trial, dump truth and estimate profiles")
    common(p)
    p.add_argument(
        "--method", action="append", choices=METHODS,
        help="solver to run (repeatable; default: config solvers)",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run the experiment grid, write trials.csv")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("recover", help="reconstruct a profile from a TRM file")
    p.add_argument("trm_file", help="recorded TRM file (SFRTRM v1)")
    common(p)
    p.add_argument(
        "--method", action="append", choices=METHODS,
        help="solver to run (repeatable; default: first config solver)",
    )
    p.set_defaults(func=cmd_recover)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # flags are checked here, so that their errors do not name the config file
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = check_int("seed", args.seed, 0)
        if getattr(args, "method", None):
            overrides["solvers"] = methods = tuple(args.method)
            if len(set(methods)) < len(methods):
                raise ConfigError(f"--method must list distinct values, got {methods}")
        return args.func(load_experiment_spec(args.config, **overrides), args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
