"""sfradar benchmark: one workload, end-to-end or traced per-layer metrics.

    python3 bench/run.py --workload sweep-default --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/`` directory. BLAS is pinned to one thread before numpy loads.
After set-up (repeated; ``setup_s`` is the median), the workload runs
passes until ``--seconds`` have gone. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced for half the time, then
traced for the other half, and reports the per-layer metrics and the
tracing overhead. Every run checks its outputs: all passes of a seed must
digest alike, and alike across runs of the same code, and each workload
compares its output against an in-process reference. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See NOTES.md for the workloads and the metric map.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BLAS_THREADS = 1

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, for the metrics BENCHMARK.json declares for
    an untraced (end_to_end) or a traced (per_layer) run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny problem sizes, for the smoke test")
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                   help="directory for generated inputs, outputs and records")
    return p.parse_args(argv)


def import_package() -> None:
    """Import sfradar from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "sfradar", "__init__.py")):
        sys.exit(f"error: no sfradar package under {SRC}")
    sys.path.insert(0, SRC)
    import sfradar

    where = os.path.dirname(os.path.abspath(sfradar.__file__))
    if where != os.path.join(SRC, "sfradar"):
        sys.exit(f"error: imported sfradar from {where}, not from {SRC}")


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "sfradar", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, args, workload) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_runtime": blas_runtime_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "trial_workers": workload.trial_workers,
        "code": code_hash(),
    }


def measure(workload, seconds) -> list:
    """Run passes, cycling through the batches, until `seconds` have gone
    and every batch has run at least once."""
    passes = []
    start = perf_counter()
    while len(passes) < workload.batches or perf_counter() - start < seconds:
        passes.append(workload.run_pass(len(passes) % workload.batches))
    return passes


def quartiles(values) -> list:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def rate(passes) -> float:
    """Operations per second inside the timed calls that 3 of 4 passes
    reach: the lower quartile over passes. The shared host runs faster in
    bursts of seconds to a minute; those move a median more than this."""
    return quartiles([p.attempted / p.seconds for p in passes])[0]


def op_latencies(passes) -> list:
    """Latency of each distinct operation that 3 of 4 of its runs stay
    within: the upper quartile over the passes that ran it. An op keeps
    its usual time when a neighbour delays, or a burst of host speed
    hastens, a minority of its runs."""
    runs = {}
    for p in passes:
        for op, seconds in p.latencies_s.items():
            runs.setdefault((p.batch, op), []).append(seconds)
    return [quartiles(v)[2] for v in runs.values()]


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def digest_check(passes, key, cache_path) -> list:
    """Clean passes of one batch digest alike, and alike with earlier runs
    of the same code."""
    known = {}
    if os.path.exists(cache_path):
        with open(cache_path, encoding="ascii") as f:
            known = json.load(f)
    problems = []
    for batch in sorted({p.batch for p in passes}):
        digests = {p.digest for p in passes if p.batch == batch and p.failed == 0}
        if len(digests) != 1:
            problems.append(f"batch {batch}: {len(digests)} distinct clean record sets")
            continue
        digest = digests.pop()
        batch_key = f"{key}|batch={batch}"
        if known.setdefault(batch_key, digest) != digest:
            problems.append(f"records differ from an earlier run of the same code ({batch_key})")
    tmp = cache_path + f".{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    os.replace(tmp, cache_path)
    return problems


def first_of_each_batch(passes) -> list:
    firsts = {}
    for p in passes:
        firsts.setdefault(p.batch, p)
    return list(firsts.values())


def method_similarity(passes) -> dict:
    """Mean similarity per method over one pass of each batch."""
    scores = {}
    for p in first_of_each_batch(passes):
        for method, values in p.similarity.items():
            scores.setdefault(method, []).extend(values)
    return {m: statistics.fmean(v) for m, v in scores.items() if v}


def end_to_end(passes, setup_times) -> dict:
    latencies = op_latencies(passes)
    scores = [s for p in first_of_each_batch(passes) for v in p.similarity.values() for s in v]
    return {
        "trials_per_s": rate(passes),
        "trial_ms_p50": statistics.median(latencies) * 1e3 if latencies else 0.0,
        "trial_ms_p90": p90(latencies) * 1e3 if latencies else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "similarity_mean": statistics.fmean(scores) if scores else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_metrics(args.trace)
    import_package()
    import numpy as np

    import spans
    import workloads

    workdir = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    wl = workloads.make(args.workload, args.seed, workdir, smoke=args.smoke)
    env = environment(np, args, wl)
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    setup_times = []
    for rep in range(workloads.SETUP_REPS):
        t0 = perf_counter()
        wl.setup(rep, SRC)
        setup_times.append(perf_counter() - t0)

    if args.trace == 0:
        passes = measure(wl, args.seconds)
        metrics = end_to_end(passes, setup_times)
    else:
        untraced = measure(wl, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.phase = "setup"
            wl.setup("traced", SRC)
            tracer.phase = "op"
            traced = measure(wl, args.seconds / 2)
        finally:
            tracer.uninstall()
        if tracer.absent:
            print(f"absent functions: {', '.join(tracer.absent)}", file=sys.stderr)
        passes = untraced + traced
        metrics = spans.layer_metrics(tracer, sum(p.attempted for p in traced))
        sims = method_similarity(passes)
        for method, fn in (("sparse_l1", "solve_sparse_l1"),
                           ("least_squares", "solve_least_squares"),
                           ("stretch_idft", "solve_stretch_idft")):
            metrics[f"solvers.{fn}.similarity_mean"] = sims.get(method, 0.0)
        metrics["trace.overhead_ms_per_op"] = 1e3 / rate(traced) - 1e3 / rate(untraced)

    key = f"{args.workload}|{'smoke' if args.smoke else 'full'}|seed={args.seed}|code={env['code']}"
    problems = digest_check(passes, key, os.path.join(args.out, "digests.json"))
    problems += wl.check(method_similarity(passes))
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    latencies = sum(len(p.latencies_s) for p in passes)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {attempted} ops, "
          f"{failed} failed (failed_frac {failed / attempted:.4g}), "
          f"{latencies} latency samples, similarity by method "
          f"{json.dumps(method_similarity(passes), sort_keys=True)}")
    for name in sorted(set(units) - set(metrics)):
        print(f"absent: {name}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items() if name in units
        },
    }
    os.makedirs(os.path.join(args.out, "records"), exist_ok=True)
    record = os.path.join(args.out, "records",
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="ascii") as f:
        json.dump({"env": env, "problems": problems, "setup_s": setup_times,
                   "passes": [[p.batch, p.attempted, p.seconds] for p in passes],
                   **result}, f, indent=1, sort_keys=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
