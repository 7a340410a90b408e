"""Profile reconstruction algorithms over a sensing system.

Three routes to an estimated range profile:

* ``solve_sparse_l1``: minimize the l1 norm of the profile subject to a
  residual budget, via accelerated proximal-gradient iteration (FISTA,
  Beck & Teboulle 2009) with gradient-scheme adaptive restart
  (O'Donoghue & Candes 2015) and complex soft-thresholding, on a
  geometrically decreasing penalty continuation path.
* ``solve_least_squares``: ridge-regularized least squares on the same
  linear model, solved through the normal equations.
* ``solve_stretch_idft``: the classical per-column inverse DFT of the
  TRM, mapping each coarse bin to the column sampled nearest its centre.
"""

import math
from dataclasses import dataclass

import numpy as np

from .echo import PulseSchedule, Trm
from .model import ConfigError, PulseShape, RadarConfig
from .sensing import SensingSystem, _ridge_solve, build_sensing_system

TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the reconstruction routines.

    epsilon picks the residual budget explicitly; when None it is derived
    from the system noise level as epsilon_factor * sigma * sqrt(n_rows).
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
    accelerate: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        for name in ("rel_change_tol", "epsilon_factor", "lambda_ratio"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        if self.lambda_ratio >= 1:
            raise ConfigError(f"lambda_ratio must be < 1, got {self.lambda_ratio}")
        if self.lambda_path_steps < 1:
            raise ConfigError(
                f"lambda_path_steps must be >= 1, got {self.lambda_path_steps}"
            )
        if self.epsilon is not None and self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.ls_ridge is not None and not self.ls_ridge > 0:
            raise ConfigError(f"ls_ridge must be positive, got {self.ls_ridge}")

    def resolve_epsilon(self, sys: SensingSystem) -> float:
        if self.epsilon is not None:
            return self.epsilon
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
    method: str
    residual_l2: float
    iterations: int
    converged: bool
    epsilon_used: float | None = None


def soft_threshold(z: np.ndarray, t: float) -> np.ndarray:
    """Complex soft-thresholding: shrink moduli by t, preserve phases.

    Proximal operator of t * ||.||_1 for complex vectors:
    z * max(1 - t / |z|, 0) elementwise, with 0 where z = 0.
    """
    mag = np.abs(z)
    scale = np.maximum(1.0 - t / np.maximum(mag, TINY), 0.0)
    return z * scale


def operator_norm_sq(op: SensingSystem) -> float:
    """Squared operator norm of the full pulse train, a bound for Phi's.

    The top eigenvalue of the full train's Phi^H Phi, which is N diagonal
    L x L blocks over the fine index: exact on a full schedule and never
    below the largest squared singular value of Phi otherwise, since a
    schedule only deletes rows. Computed once per radar and pulse shape
    (_Radar.norm_sq), so later calls on any of its systems cost nothing.
    """
    return op.radar.norm_sq


def prox_gradient_l1(
    op: SensingSystem,
    b: np.ndarray,
    lam: float,
    step: float,
    x0: np.ndarray,
    max_iters: int,
    rel_change_tol: float,
    accelerate: bool = True,
):
    """Proximal-gradient descent on 0.5 ||y - Phi x||^2 + lam ||x||_1.

    Accelerated by default: FISTA momentum (Beck & Teboulle, SIAM J.
    Imaging Sci. 2009), reset whenever the step from the last iterate
    points against the momentum, Re<z - x_new, x_new - x> > 0, the
    gradient-scheme adaptive restart of O'Donoghue & Candes (Found.
    Comput. Math. 2015). The restart stops the oscillation of the
    iterates on ill-conditioned schedules and leaves the fixed point as it
    was. accelerate=False gives the plain iteration whose objective is
    non-increasing. The gradient Phi^H Phi z - b is taken on the normal
    operator, with b = Phi^H y formed once by the caller. Returns
    (x, iterations), x a new array.

    Parameters
    ----------
    op : SensingSystem
        Supplies Phi^H Phi through its normal operator.
    step : float
        Gradient step size; must not exceed the reciprocal of the largest
        squared singular value of Phi.
    x0 : ndarray
        Warm start.
    """
    x = x0.astype(np.complex128, copy=True)
    z = x.copy()
    t = 1.0
    iters = 0
    tol_sq = rel_change_tol * rel_change_tol
    for k in range(max_iters):
        grad = op.normal(z) - b
        x_new = soft_threshold(z - step * grad, lam * step)
        iters = k + 1
        delta = x_new - x
        if accelerate:
            if np.vdot(z - x_new, delta).real > 0:
                # the momentum points uphill: restart it
                t = 1.0
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            z = x_new + ((t - 1.0) / t_new) * delta
            t = t_new
        else:
            z = x_new
        x = x_new
        # ||delta|| < tol * max(||x||, 1e-12), on squared norms
        if np.vdot(delta, delta).real < tol_sq * max(np.vdot(x, x).real, 1e-24):
            break
    return x, iters


def _check_finite(sys: SensingSystem) -> None:
    """Reject a non-finite observation; the radar checked its shape matrix."""
    if not np.all(np.isfinite(sys.y)):
        raise ValueError("sensing system contains non-finite entries")


def _result(sys, method, h, iterations, converged, eps) -> RecoveryResult:
    """The RecoveryResult of estimate h, its residual recomputed on sys."""
    residual = float(np.linalg.norm(sys.y - sys.apply(h)))
    return RecoveryResult(h, method, residual, iterations, converged, eps)


def solve_sparse_l1(sys: SensingSystem, opts: SolverOptions | None = None) -> RecoveryResult:
    """Sparse recovery: min ||h||_1 subject to ||y - phi h||_2 <= epsilon.

    Solved through the penalized form on a geometric continuation path:
    starting just below the penalty that zeroes everything, each level is
    solved by adaptive-restart accelerated proximal gradient
    (prox_gradient_l1) warm-started from the last,
    and the path stops at the largest penalty whose solution meets the
    residual budget. If no level meets it the best (smallest-residual)
    iterate is returned with converged=False.
    """
    opts = opts or SolverOptions()
    _check_finite(sys)
    eps = float(opts.resolve_epsilon(sys))
    b = sys.adjoint(sys.y)
    lam_max = float(np.max(np.abs(b)))
    x = np.zeros(sys.n_cells, dtype=np.complex128)
    feasible = float(np.linalg.norm(sys.y)) <= eps
    if feasible or lam_max == 0.0:
        # either the zero profile meets the budget, and it minimizes the l1
        # norm, or y is orthogonal to the operator range and no estimate
        # can shrink the residual below ||y||, which exceeds eps
        return _result(sys, "sparse_l1", x, 0, feasible, eps)

    step = 1.0 / (1.01 * operator_norm_sq(sys))
    total_iters = 0
    best_residual, best_x = math.inf, x
    for k in range(1, opts.lambda_path_steps + 1):
        lam = lam_max * opts.lambda_ratio**k
        x, iters = prox_gradient_l1(
            sys, b, lam, step, x, opts.max_iters, opts.rel_change_tol,
            accelerate=opts.accelerate,
        )
        total_iters += iters
        residual = float(np.linalg.norm(sys.y - sys.apply(x)))
        if residual <= eps:
            return _result(sys, "sparse_l1", x, total_iters, True, eps)
        if residual < best_residual:
            best_residual, best_x = residual, x
    return _result(sys, "sparse_l1", best_x, total_iters, False, eps)


def solve_least_squares(sys: SensingSystem, opts: SolverOptions | None = None) -> RecoveryResult:
    """Ridge-regularized least squares through the normal equations.

    Minimizes ||y - phi h||^2 + ridge * ||h||^2; deterministic, and exact
    up to factorization roundoff. The normal system is the smallest of the
    complement, row and column forms (see sensing._ridge_solve); none is
    NL x NL at the default sampling.
    """
    opts = opts or SolverOptions()
    _check_finite(sys)
    ridge = opts.ls_ridge
    if ridge is None:
        ridge = 1e-6 * operator_norm_sq(sys)
    return _result(sys, "least_squares", _ridge_solve(sys, ridge), 0, True, None)


def stretch_bin_columns(cfg: RadarConfig) -> list:
    """Column index feeding each coarse bin: nearest sample to bin centre.

    When the sampling rate oversamples the coarse bins, surplus columns
    are discarded.
    """
    instants = np.arange(cfg.n_samples) * cfg.delta_t
    centres = (np.arange(cfg.l_bins) + 0.5) / cfg.delta_f
    return np.argmin(np.abs(instants - centres[:, None]), axis=1).tolist()


def solve_stretch_idft(
    trm: Trm, cfg: RadarConfig, shape: PulseShape | None = None
) -> RecoveryResult:
    """Stretch processing: per-column inverse DFT over the pulse index.

    Missing pulses are zero-filled to a full train first (the classical
    degraded case, flagged converged=False). Each coarse bin takes the
    inverse DFT of its selected column as its block of fine cells. The
    pulse shape, defaulting to the ideal sinc at the configured
    bandwidth, is only used to recompute the model residual.
    """
    shape = shape or PulseShape.ideal_sinc(cfg.pulse_bandwidth)
    schedule = PulseSchedule(trm.row_pulse_indices, cfg.n_pulses)
    sys = build_sensing_system(cfg, shape, schedule, trm)
    _check_finite(sys)
    grid = np.zeros((cfg.n_pulses, trm.data.shape[1]), dtype=np.complex128)
    grid[sys.pulses, :] = trm.data

    # (L, N): bin-wise inverse DFTs, (1/N) sum_n x_n exp(+j 2 pi n k / N)
    segments = np.fft.ifft(grid[:, stretch_bin_columns(cfg)].T)
    full = schedule.m_count == cfg.n_pulses
    return _result(sys, "stretch_idft", segments.reshape(-1), 0, full, None)
