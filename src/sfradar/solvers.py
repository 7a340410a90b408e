"""Profile reconstruction algorithms over a sensing system.

Three routes to an estimated range profile:

* ``solve_sparse_l1``: minimize the l1 norm of the profile subject to a
  residual budget, via accelerated proximal-gradient iteration (FISTA,
  Beck & Teboulle 2009) with gradient-scheme adaptive restart
  (O'Donoghue & Candes 2015) and complex soft-thresholding, on a
  geometrically decreasing penalty continuation path. The iteration runs
  on a batch of systems of one radar at once (solve_sparse_l1_batch, the
  sweep's route); one system is the batch of one, and a system's result
  does not depend on the batch it is solved in.
* ``solve_least_squares``: ridge-regularized least squares on the same
  linear model, solved through the normal equations.
* ``solve_stretch_idft``: the classical per-column inverse DFT of the
  TRM, mapping each coarse bin to the column sampled nearest its centre.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .echo import PulseSchedule, Trm
from .model import ConfigError, PulseShape, RadarConfig, check_int
from .sensing import SensingSystem, _ridge_solve, build_sensing_system

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the reconstruction routines.

    epsilon picks the residual budget explicitly; when None it is derived
    from the system noise level as epsilon_factor * sigma * sqrt(n_rows).
    Every value must be finite.
    ls_ridge defaults to 1e-6 times the squared operator norm of the full
    pulse train (operator_norm_sq), a property of the radar and the pulse
    shape that is the same on every schedule. max_iters caps the inner
    iterations spent at each penalty level.
    """

    max_iters: int = 5000
    rel_change_tol: float = 1e-6
    epsilon: float | None = None
    epsilon_factor: float = 1.1
    lambda_path_steps: int = 8
    lambda_ratio: float = 0.1
    ls_ridge: float | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        check_int("max_iters", self.max_iters, 1)
        check_int("lambda_path_steps", self.lambda_path_steps, 1)
        for name in ("rel_change_tol", "epsilon_factor", "lambda_ratio"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        if self.lambda_ratio >= 1:
            raise ConfigError(f"lambda_ratio must be < 1, got {self.lambda_ratio}")
        if self.epsilon is not None and self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.ls_ridge is not None and not self.ls_ridge > 0:
            raise ConfigError(f"ls_ridge must be positive, got {self.ls_ridge}")

    def resolve_epsilon(self, sys: SensingSystem) -> float:
        """The residual budget: epsilon, else one from the noise level of the
        observation. With neither known there is no budget to solve to."""
        if self.epsilon is not None:
            return self.epsilon
        if sys.noise_sigma is None:
            raise ConfigError(
                "no residual budget: the observation carries no noise level "
                "(sigma=) and [solver] epsilon is not set"
            )
        return self.epsilon_factor * sys.noise_sigma * math.sqrt(sys.n_rows)


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Reconstructed profile plus solver diagnostics.

    residual_l2 is always recomputed from the returned estimate, never
    taken from solver internals. For the sparse route, converged means
    the residual budget was met; for the stretch route it means no rows
    had to be zero-filled.
    """

    h_est: np.ndarray
    residual_l2: float
    iterations: int
    converged: bool
    epsilon_used: float | None = None


def soft_threshold(z: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
    """Complex soft-thresholding: shrink moduli by t, preserve phases.

    Proximal operator of t * ||.||_1 for complex vectors:
    z * max(1 - t / |z|, 0) elementwise, with 0 where z = 0. t may be an
    array that broadcasts against z, one threshold per row. The result is
    written to out, which may be z, else to a new array.
    """
    scale = np.abs(z)
    np.maximum(scale, TINY, out=scale)
    np.divide(t, scale, out=scale)
    np.subtract(1.0, scale, out=scale)
    np.maximum(scale, 0.0, out=scale)
    return np.multiply(z, scale, out=out)


def operator_norm_sq(op: SensingSystem) -> float:
    """Squared operator norm of the full pulse train, a bound for Phi's.

    The top eigenvalue of the full train's Phi^H Phi, which is N diagonal
    L x L blocks over the fine index: exact on a full schedule and never
    below the largest squared singular value of Phi otherwise, since a
    schedule only deletes rows. Computed once per radar and pulse shape
    (_Radar.norm_sq), so later calls on any of its systems cost nothing.
    """
    return op.radar.norm_sq


def _prox_gradient(radar, circulants, b, lam, step, x0, max_iters, rel_change_tol):
    """Proximal-gradient descent on 0.5 ||y_k - Phi_k x||^2 + lam_k ||x||_1
    for K systems of one radar at once: row k of circulants (K x N x N), b
    (Phi^H y, formed once by the caller) and x0 (the warm start), and entry
    k of the sequences lam and step, belong to system k.

    Accelerated by FISTA momentum (Beck & Teboulle, SIAM J. Imaging Sci.
    2009), reset whenever the step from the last iterate points against
    the momentum, Re<z - x_new, x_new - x> > 0, the gradient-scheme
    adaptive restart of O'Donoghue & Candes (Found. Comput. Math. 2015).
    The restart stops the oscillation of the iterates on ill-conditioned
    schedules and leaves the fixed point as it was. The first iteration
    of a call carries no momentum, so a one-iteration call is a plain
    proximal-gradient step. The gradient Phi^H Phi z - b is taken on the
    radar's normal operator with the system's circulant.

    Each row keeps its momentum, restart and stopping test as Python
    floats and leaves the arrays when it stops. The batched products and
    the per-row inner products (np.vecdot sums like np.vdot) give each row
    the digits it would get alone. step must not exceed the reciprocal of
    the largest squared singular value of Phi_k. Returns (x, iterations):
    x a new (K x n_cells) array, iterations a list of K counts.
    """
    x_out = np.empty_like(x0, dtype=np.complex128)
    iterations = [max_iters] * len(x0)
    rows = np.arange(len(x0))  # the output row of each running system
    x = x0.astype(np.complex128, copy=True)
    z = x.copy()
    t = [1.0] * len(x0)
    thresh = np.array(lam)[:, None] * np.array(step)[:, None]
    # complex, as the products with complex arrays would cast them anyway
    step = np.array(step, dtype=np.complex128)[:, None]
    tol_sq = rel_change_tol * rel_change_tol
    for k in range(1, max_iters + 1):
        # the proximal step from z, z - step (Phi^H Phi z - b), in one
        # buffer: the same operations as on new arrays, without allocating
        x_new = radar.normal(circulants, z)
        x_new -= b
        np.multiply(step, x_new, out=x_new)
        np.subtract(z, x_new, out=x_new)
        soft_threshold(x_new, thresh, out=x_new)
        delta = np.subtract(x_new, x, out=x)  # x and z are spent: reuse them
        np.subtract(z, x_new, out=z)
        uphill = np.vecdot(z, delta).tolist()
        moved = np.vecdot(delta, delta).tolist()
        size = np.vecdot(x_new, x_new).tolist()
        momentum, running, stopped = [], [], []
        for j, t_j in enumerate(t):
            if uphill[j].real > 0:
                # the momentum points uphill: restart it
                t_j = 1.0
            t[j] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_j * t_j))
            momentum.append((t_j - 1.0) / t[j])
            # ||delta|| < tol * max(||x||, 1e-12), on squared norms
            if moved[j].real < tol_sq * max(size[j].real, 1e-24):
                stopped.append(j)
            else:
                running.append(j)
        np.multiply(np.array(momentum, dtype=np.complex128)[:, None], delta, out=delta)
        z = np.add(x_new, delta, out=delta)
        x = x_new
        if stopped:
            x_out[rows[stopped]] = x[stopped]
            for j in stopped:
                iterations[rows[j]] = k
            if not running:
                return x_out, iterations
            rows, x, z, b, circulants = (a[running] for a in (rows, x, z, b, circulants))
            step, thresh = step[running], thresh[running]
            t = [t[j] for j in running]
    x_out[rows] = x
    return x_out, iterations


def prox_gradient_l1(
    op: SensingSystem,
    b: np.ndarray,
    lam: float,
    step: float,
    x0: np.ndarray,
    max_iters: int,
    rel_change_tol: float,
):
    """Proximal-gradient descent on 0.5 ||y - Phi x||^2 + lam ||x||_1 for one
    system: the one-row case of the batched iteration, _prox_gradient.
    Returns (x, iterations), x a new array.

    Parameters
    ----------
    op : SensingSystem
        Supplies Phi^H Phi through its radar and circulant.
    b : ndarray
        Phi^H y.
    step : float
        Gradient step size; must not exceed the reciprocal of the largest
        squared singular value of Phi.
    x0 : ndarray
        Warm start.
    """
    x, iterations = _prox_gradient(
        op.radar, op.circulant[None], b[None], [lam], [step], x0[None],
        max_iters, rel_change_tol,
    )
    return x[0], iterations[0]


def _result(sys, h, iterations, eps, converged=None) -> RecoveryResult:
    """The RecoveryResult of estimate h, its residual recomputed on sys;
    converged, unless given, is whether that residual meets the budget eps."""
    residual = float(np.linalg.norm(sys.y - sys.apply(h)))
    if converged is None:
        converged = residual <= eps
    return RecoveryResult(h, residual, iterations, converged, eps)


def solve_sparse_l1(sys: SensingSystem, opts: SolverOptions | None = None) -> RecoveryResult:
    """Sparse recovery of one system: the one-system case of
    solve_sparse_l1_batch."""
    return solve_sparse_l1_batch([sys], opts)[0]


def solve_sparse_l1_batch(systems, opts: SolverOptions | None = None) -> list:
    """Sparse recovery: min ||h||_1 subject to ||y - phi h||_2 <= epsilon,
    for each of several systems of one radar, in one iteration loop.

    Solved through the penalized form on a geometric continuation path:
    starting just below the penalty that zeroes everything, each level is
    solved by adaptive-restart accelerated proximal gradient
    (_prox_gradient) warm-started from the last, and a system's path stops
    at the largest penalty whose solution meets its residual budget. If no
    level meets it the last level's iterate is returned with
    converged=False. Each system keeps its own budget, Phi^H y, penalty
    and step; the systems still over budget step to the next level
    together. A system's result does not depend on the others it is
    solved with. Returns one RecoveryResult per system, in order.
    """
    opts = opts or SolverOptions()
    radar = systems[0].radar
    if any(s.radar is not radar for s in systems):
        raise ValueError("the systems of one sparse batch must share one radar")
    results = [None] * len(systems)
    path = []  # (index, Phi^H y, penalty that zeroes everything, eps)
    for i, sys in enumerate(systems):
        eps = float(opts.resolve_epsilon(sys))
        b = sys.adjoint_y
        lam_max = float(np.max(np.abs(b)))
        if float(np.linalg.norm(sys.y)) <= eps or lam_max == 0.0:
            # either the zero profile meets the budget, and it minimizes the
            # l1 norm, or y is orthogonal to the operator range and no
            # estimate can shrink the residual below ||y||, which exceeds eps
            results[i] = _result(sys, np.zeros(sys.n_cells, dtype=np.complex128), 0, eps)
        else:
            path.append((i, b, lam_max, eps))
    if not path:
        return results

    index, b, lam_max, eps = (list(v) for v in zip(*path))
    b = np.stack(b)
    circulants = np.stack([systems[i].circulant for i in index])
    step = [1.0 / (1.01 * operator_norm_sq(systems[i])) for i in index]
    x = np.zeros_like(b)
    total_iters = [0] * len(index)
    for k in range(1, opts.lambda_path_steps + 1):
        lam = [m * opts.lambda_ratio**k for m in lam_max]
        x, iters = _prox_gradient(
            radar, circulants, b, lam, step, x, opts.max_iters, opts.rel_change_tol
        )
        over = []
        for j, i in enumerate(index):
            total_iters[j] += iters[j]
            results[i] = _result(systems[i], x[j], total_iters[j], eps[j])
            if not results[i].converged:
                over.append(j)
        if not over:
            break
        b, circulants, x = b[over], circulants[over], x[over]
        index, lam_max, eps, step, total_iters = (
            [v[j] for j in over] for v in (index, lam_max, eps, step, total_iters)
        )
    return results


def solve_least_squares(sys: SensingSystem, opts: SolverOptions | None = None) -> RecoveryResult:
    """Ridge-regularized least squares through the normal equations.

    Minimizes ||y - phi h||^2 + ridge * ||h||^2; deterministic, and exact
    up to factorization roundoff. The normal system is the smallest of the
    complement, row and column forms (see sensing._ridge_solve); none is
    NL x NL at the default sampling.
    """
    opts = opts or SolverOptions()
    ridge = opts.ls_ridge
    if ridge is None:
        ridge = 1e-6 * operator_norm_sq(sys)
    return _result(sys, _ridge_solve(sys, ridge), 0, None, True)


def stretch_bin_columns(cfg: RadarConfig) -> list:
    """Column index feeding each coarse bin: nearest sample to bin centre.

    When the sampling rate oversamples the coarse bins, surplus columns
    are discarded.
    """
    instants = np.arange(cfg.n_samples) * cfg.delta_t
    centres = (np.arange(cfg.l_bins) + 0.5) / cfg.delta_f
    return np.argmin(np.abs(instants - centres[:, None]), axis=1).tolist()


def solve_stretch_idft(trm: Trm, cfg: RadarConfig, shape: PulseShape) -> RecoveryResult:
    """Stretch processing: per-column inverse DFT over the pulse index.

    Missing pulses are zero-filled to a full train first (the classical
    degraded case, flagged converged=False). Each coarse bin takes the
    inverse DFT of its selected column as its block of fine cells. The
    pulse shape is only used to recompute the model residual.
    """
    schedule = PulseSchedule(trm.row_pulse_indices, cfg.n_pulses)
    sys = build_sensing_system(cfg, shape, schedule, trm)
    grid = np.zeros((cfg.n_pulses, trm.data.shape[1]), dtype=np.complex128)
    grid[sys.pulses, :] = trm.data

    # (L, N): bin-wise inverse DFTs, (1/N) sum_n x_n exp(+j 2 pi n k / N)
    segments = np.fft.ifft(grid[:, stretch_bin_columns(cfg)].T)
    full = schedule.m_count == cfg.n_pulses
    return _result(sys, segments.reshape(-1), 0, None, full)
