"""Span tracing for the benchmark's traced run, from outside the package.

The tracer swaps each listed package function for a timing wrapper. The
package's modules bind imported names of their own (``harness`` calls its
own ``build_trm``, ``solvers`` its own ``build_sensing_system``), so the
wrapper replaces the function in every loaded ``sfradar`` module that
holds it, not only where it is defined. A name that no longer exists is
recorded as absent and the metrics that need it are left out.

Every span records its name, start, end, parent span and thread. Spans
started on a worker thread with no open span of their own are parented
to the innermost span open on the installing thread: that is the
``run_experiment`` call whose thread pool started them.
"""

import os
import statistics
import sys
import threading
from collections import defaultdict
from functools import wraps
from time import perf_counter

# <module>.<function>, for every function the traced run wraps
TARGETS = (
    "cli.main",
    "harness.run_experiment",
    "harness.draw_synthetic_target",
    "harness.load_experiment_spec",
    "echo.build_trm",
    "echo.random_missing_schedule",
    "sensing.build_sensing_system",
    "solvers.operator_norm_sq",
    "solvers.prox_gradient_l1",
    "solvers.solve_sparse_l1",
    "solvers.solve_least_squares",
    "solvers.solve_stretch_idft",
    "metrics.similarity",
    "io.load_trm_file",
    "io.export_profile",
)
MODULES = ("solvers", "sensing", "echo", "io", "metrics", "harness", "cli")
PACKAGE = "sfradar"


def _sparse_info(args, kwargs, result):
    eps = result.epsilon_used
    return {
        "iterations": result.iterations,
        "converged": bool(result.converged),
        "residual_over_eps": result.residual_l2 / eps if eps else None,
    }


# extra facts taken from a call's arguments or result
INFO = {
    "solvers.prox_gradient_l1": lambda args, kwargs, result: {"iterations": result[1]},
    "solvers.solve_sparse_l1": _sparse_info,
    "io.load_trm_file": lambda args, kwargs, result: {"bytes": os.path.getsize(args[0])},
}


class Span:
    __slots__ = ("name", "parent", "thread", "phase", "t0", "t1", "info")

    def __init__(self, name, parent, thread, phase):
        self.name, self.parent, self.thread, self.phase = name, parent, thread, phase
        self.t0 = self.t1 = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Installs timing wrappers; spans stay in memory until read."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self.phase = "op"
        self._local = threading.local()
        self._home_thread = threading.get_ident()
        self._home_stack = self._stack()
        self._patches = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        info = INFO.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._home_thread and tracer._home_stack:
                parent = tracer._home_stack[-1]
            else:
                parent = None
            span = Span(name, parent, threading.get_ident(), tracer.phase)
            stack.append(span)
            span.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    span.info = None
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


def self_times(spans) -> dict:
    """Span -> time its own code ran, in thread-seconds.

    A span whose children ran on k threads offered k threads' worth of
    time; what the children did not use (pool start-up, idle workers,
    unwrapped code) is its self time. With children on its own thread
    this is the usual duration minus the children's durations.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        kids = children.get(id(s), ())
        lanes = len({k.thread for k in kids}) or 1
        out[id(s)] = s.duration * lanes - sum(k.duration for k in kids)
    return out


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Counts and self times use spans of the "op" phase, divided by the
    operations run in it; medians of durations use every span of a name,
    so functions that run only during set-up still get one. A metric
    whose function is absent is left out; one whose function never ran
    reads 0.
    """
    ops = max(n_ops, 1)
    op_spans = [s for s in tracer.spans if s.phase == "op"]
    every, in_ops = defaultdict(list), defaultdict(list)
    for s in tracer.spans:
        every[s.name].append(s)
    for s in op_spans:
        in_ops[s.name].append(s)
    selfs = self_times(op_spans)
    absent = set(tracer.absent)
    out = {}

    def put(metric, needs, value):
        if needs not in absent:
            out[metric] = value()

    def ms_p50(name):
        put(f"{name}.ms_p50", name, lambda: _p50_ms([s.duration for s in every[name]]))

    def calls_per_op(name):
        put(f"{name}.calls_per_op", name, lambda: len(in_ops[name]) / ops)

    def infos(name, key):
        return [s.info[key] for s in every[name] if s.info and s.info.get(key) is not None]

    for name in ("solvers.operator_norm_sq", "solvers.solve_sparse_l1",
                 "solvers.solve_least_squares", "solvers.solve_stretch_idft",
                 "sensing.build_sensing_system", "echo.build_trm",
                 "echo.random_missing_schedule", "io.load_trm_file",
                 "io.export_profile", "metrics.similarity",
                 "harness.draw_synthetic_target", "harness.load_experiment_spec"):
        ms_p50(name)
    for name in ("solvers.operator_norm_sq", "solvers.prox_gradient_l1",
                 "sensing.build_sensing_system"):
        calls_per_op(name)

    prox = "solvers.prox_gradient_l1"

    def us_per_iter():
        iters = sum(infos(prox, "iterations"))
        busy = sum(s.duration for s in every[prox] if s.info)
        return busy / iters * 1e6 if iters else 0.0

    put(f"{prox}.us_per_iter", prox, us_per_iter)

    sparse = "solvers.solve_sparse_l1"
    put(f"{sparse}.iterations_mean", sparse, lambda: _mean(infos(sparse, "iterations")))
    put(f"{sparse}.converged_frac", sparse, lambda: _mean(infos(sparse, "converged")))
    put(f"{sparse}.residual_over_eps_mean", sparse,
        lambda: _mean(infos(sparse, "residual_over_eps")))

    load = "io.load_trm_file"

    def mb_per_s():
        mb = sum(infos(load, "bytes")) / 1e6
        busy = sum(s.duration for s in every[load] if s.info)
        return mb / busy if busy else 0.0

    put(f"{load}.mb_per_s", load, mb_per_s)

    run = "harness.run_experiment"
    put(f"{run}.self_ms_per_trial", run,
        lambda: sum(selfs[id(s)] for s in in_ops[run]) * 1e3 / ops)
    put("cli.main.self_ms_p50", "cli.main",
        lambda: _p50_ms([selfs[id(s)] for s in in_ops["cli.main"]]))

    total = sum(selfs.values())
    for mod in MODULES:
        own = sum(selfs[id(s)] for s in op_spans if s.name.startswith(mod + "."))
        out[f"{mod}.self_share"] = own / total if total > 0 else 0.0
    return out
