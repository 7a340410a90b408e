"""Profile reconstruction algorithms over a sensing system.

Three routes to an estimated range profile:

* ``solve_sparse_l1``: minimize the l1 norm of the profile subject to a
  residual budget, by primal-dual hybrid gradient iteration (Chambolle &
  Pock, J. Math. Imaging Vis. 40, 2011) on that constrained problem
  itself, with complex soft-thresholding as the primal step and the
  projection onto the budget ball as the dual one.
* ``solve_least_squares``: ridge-regularized least squares on the same
  linear model, by conjugate gradients (Hestenes & Stiefel, J. Res. NBS
  49, 1952) on its normal equations, with the ridge matched to the noise
  level.
* ``solve_stretch_idft``: the classical per-column inverse DFT of the
  TRM, mapping each coarse bin to the column sampled nearest its centre.

The iterative routes solve a batch of systems of one radar at once (the
*_batch functions; one system is the batch of one) in one frame, _Batch,
and a system's result does not depend on its batch.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .echo import PulseSchedule, Trm
from .model import ConfigError, PulseShape, RadarConfig, check_int
from .sensing import SensingSystem, build_sensing_system

TINY = np.finfo(float).tiny
# The primal step of the sparse iteration is PRIMAL_STEP / ||Phi||, and the
# product of the primal and dual steps 0.99 / ||Phi||^2, under the
# 1 / ||Phi||^2 that convergence needs. On the README config at 15 dB (120
# trials) 0.3 took 4158 iterations in all, against 10261 at 0.1, 5863 at 1
# and 18792 at 3.
PRIMAL_STEP = 0.3
# The dual step projects onto a ball BALL_MARGIN inside the budget, so the
# iterates approach the budget from inside. On the same trials the exits
# landed at 0.998-1.000 of it; with no margin 2 of 120 circled it from
# outside until max_iters, and with 1e-2 they exited at 0.989-0.993.
BALL_MARGIN = 1e-3
# With a zero budget no iterate meets it exactly: the loop stops, and the
# result counts as converged, once the residual is at most ZERO_BUDGET_TOL
# of ||y||. All 120 noiseless README-config trials met it, each within
# 8.2e-4 of the similarity of a solve to a residual of 1e-7-3e-5 ||y||.
ZERO_BUDGET_TOL = 1e-3
# Least squares stops once ||b - A x|| <= tol ||b||, with A = Phi^H Phi + mu
# and b = Phi^H y, the residual recomputed from x. Since mu <= A <=
# ||Phi||^2 + mu, tol = LS_ERROR_TOL mu / (||Phi||^2 + mu) bounds the error
# of x by LS_ERROR_TOL of the exact solution's norm. On the README config
# (120 trials) that cut the median CG iterations from 17 to 12 at 5 dB, 39
# to 29 at 15 dB and 65 to 59 at 25 dB against a stop at CG_TOL alone, and
# no estimate moved by more than 6.7e-10 of its norm.
LS_ERROR_TOL = 1e-9
# tol is never below CG_TOL, which binds near the ridge floor, where the
# bound above asks for more digits than the recomputed residual holds. At
# 1e-12 two of 800 drawn property-test gates at the floor missed the dense
# ridge solve's 1e-8 bound (the worst by 2.3e-7); at 1e-13 all met it, the
# worst at 5.6e-10.
CG_TOL = 1e-13
# The default ridge is ||Phi||^2 max(RIDGE_FLOOR, 4 n_rows sigma^2 / ||y||^2):
# about 4 / SNR, near the ridge at which the residual meets the noise (the
# discrepancy principle, Morozov 1966). On the README config at 5, 15 and
# 25 dB, a ridge bisected to that point scored within 0.02 of this one at
# every missing count, at about 10x the iterations; at 15 dB (120 trials)
# mean similarity moved by at most 0.012 per count over 0.03-0.3 ||Phi||^2.
# Noiseless systems and those of unknown noise level get the floor.
RIDGE_FLOOR = 1e-6


@dataclass(frozen=True)
class SolverOptions:
    """Tuning knobs shared by the reconstruction routines.

    epsilon picks the residual budget explicitly; when None it is derived
    from the system noise level as epsilon_factor * sigma * sqrt(n_rows).
    Every value must be finite.
    ls_ridge picks the least-squares ridge explicitly; when None it is
    matched to the noise level of the observation (see RIDGE_FLOOR) and
    scaled by the squared operator norm of the full pulse train
    (operator_norm_sq), with 1e-6 of that norm when the system is
    noiseless or its noise level unknown. max_iters caps the iterations of
    both iterative solvers. rel_change_tol is the sparse solver's
    primal-change tolerance: a system stops once an iteration moves its
    estimate by at most that fraction of its norm and its residual meets
    the budget. On the README config, 1e-6 took 1.7x the iterations of
    1e-4 in all at 15 dB and 2.0x noiseless. No option sets the
    least-squares stop: a system stops once its residual certifies an
    error of at most LS_ERROR_TOL of the solution (CG_TOL near the ridge
    floor).
    """

    max_iters: int = 5000
    rel_change_tol: float = 1e-4
    epsilon: float | None = None
    epsilon_factor: float = 1.1
    ls_ridge: float | None = None

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None and not math.isfinite(v):
                raise ConfigError(f"{f.name} must be finite, got {v}")
        check_int("max_iters", self.max_iters, 1)
        for name in ("rel_change_tol", "epsilon_factor"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v}")
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
    the residual budget was met (with a zero budget, a residual of at most
    ZERO_BUDGET_TOL ||y||); for least squares, that the recomputed
    normal-equation residual met its stop within max_iters: at most
    max(CG_TOL, LS_ERROR_TOL mu / (||Phi||^2 + mu)) of ||Phi^H y||, an
    estimate within LS_ERROR_TOL of the exact ridge solution, relative to
    its norm, unless CG_TOL binds; for the stretch route, that no rows had
    to be zero-filled.
    """

    h_est: np.ndarray
    residual_l2: float
    iterations: int
    converged: bool
    epsilon_used: float | None = None


def soft_threshold(z: np.ndarray, t, out: np.ndarray | None = None) -> np.ndarray:
    """Complex soft-thresholding: shrink moduli by t, preserve phases.

    Proximal operator of t * ||.||_1 for complex vectors:
    z * max(1 - t / |z|, 0) elementwise, with 0 where z = 0; t may be an
    array that broadcasts against z. The result is written to out, which
    may be z, else to a new array.
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


def prox_gradient_l1(*args, **kwargs):
    """Removed with the penalty path; solve_sparse_l1 solves the problem."""
    # Unread: bench/spans.py wraps this name, and its two metrics have read 0
    # since the sweeps went batched. The proximal-gradient path, with its
    # momentum and restart, is gone. ROADMAP item 1 deletes this stub with
    # that use.
    raise NotImplementedError("prox_gradient_l1 is gone; use solve_sparse_l1")


def _budget(eps: float, sys: SensingSystem) -> float:
    """The residual a sparse estimate must meet: eps, or with a zero eps,
    ZERO_BUDGET_TOL ||y||."""
    return eps if eps > 0 else ZERO_BUDGET_TOL * float(np.linalg.norm(sys.y))


def _result(sys, h, iterations, eps, converged=None) -> RecoveryResult:
    """The RecoveryResult of estimate h, its residual recomputed on sys;
    converged, unless given, is whether that residual meets the budget
    of eps."""
    residual = float(np.linalg.norm(sys.y - sys.apply(h)))
    if converged is None:
        converged = residual <= _budget(eps, sys)
    return RecoveryResult(h, residual, iterations, converged, eps)


class _Batch:
    """The bookkeeping of a batched solve over systems of one radar.

    screen picks the systems that iterate, stop retires their rows as they
    stop, and results gives every system its (estimate, iterations, met),
    in order; a screened one gets the zero profile, 0 iterations and met.
    """

    def __init__(self, systems, route: str):
        if any(s.radar is not systems[0].radar for s in systems):
            raise ValueError(f"the systems of one {route} batch must share one radar")
        self.systems = systems

    def screen(self, iterate) -> tuple:
        """(systems, mask) of the systems whose iterate flag is set, in
        order: they become the running rows, and mask (K x N x 1) holds
        their valid pulses on the full pulse grid."""
        iterate = list(iterate)
        self.h = [None if f else np.zeros(s.n_cells, dtype=np.complex128)
                  for s, f in zip(self.systems, iterate)]
        self.iterations, self.met = [0] * len(iterate), [True] * len(iterate)
        self.rows = np.flatnonzero(iterate)  # the system of each running row
        live = [self.systems[i] for i in self.rows]
        mask = np.zeros((len(live), live[0].radar.n_pulses, 1)) if live else None
        for j, sys in enumerate(live):
            mask[j, sys.pulses] = 1.0
        return live, mask

    def stop(self, stopped, it, met, *state) -> tuple:
        """Retire the running rows where stopped is set: each one's system
        gets its row of state[0], the estimate, it iterations and met.
        Returns the running rows of each state array."""
        for i, h in zip(self.rows[stopped].tolist(), state[0][stopped]):
            self.h[i], self.iterations[i], self.met[i] = h, it, met
        running = ~stopped
        self.rows = self.rows[running]
        return tuple(a[running] for a in state)

    def results(self):
        """(estimate, iterations, met) of each system, in order."""
        return zip(self.h, self.iterations, self.met)


def solve_sparse_l1(sys: SensingSystem, opts: SolverOptions | None = None) -> RecoveryResult:
    """Sparse recovery of one system: the one-system case of
    solve_sparse_l1_batch."""
    return solve_sparse_l1_batch([sys], opts)[0]


def solve_sparse_l1_batch(systems, opts: SolverOptions | None = None) -> list:
    """Sparse recovery: min ||h||_1 subject to ||y - phi h||_2 <= epsilon,
    for each of several systems of one radar, in one iteration loop.

    Primal-dual hybrid gradient on the constrained problem. With x the
    estimate, x_bar its extrapolation, zeta the scaled dual and y, zeta
    and Phi x on the full (N x S) pulse grid, zero on the missing pulses,
    one iteration is

        u = zeta + Phi x_bar - y
        zeta = (1 - min(1, eps' / ||u||)) u
        x_new = soft(x - tau sigma Phi^H zeta, tau)
        x_bar = 2 x_new - x

    with tau = PRIMAL_STEP / ||Phi||, tau sigma = 0.99 / ||Phi||^2, one
    pair for the radar, and eps' = (1 - BALL_MARGIN) eps: one apply, of
    x_new (Phi x_bar is 2 Phi x_new - Phi x), and one adjoint, both taken
    from the radar's pulse-grid forms. A system stops once its estimate
    moves by at most rel_change_tol of its norm and its residual meets its
    budget, or after max_iters iterations. A system whose zero profile
    meets the budget, or whose Phi^H y is zero (no estimate shrinks its
    residual), gets the zero profile without iterating. Returns one
    RecoveryResult per system, in order; converged is whether its
    residual meets its budget.
    """
    opts = opts or SolverOptions()
    batch = _Batch(systems, "sparse")
    eps = [float(opts.resolve_epsilon(s)) for s in systems]
    budget = [_budget(e, s) for e, s in zip(eps, systems)]
    live, mask = batch.screen(
        float(np.linalg.norm(s.y)) > b and np.any(s.adjoint_y)
        for s, b in zip(systems, budget)
    )
    if live:
        radar = live[0].radar
        y = np.stack([radar.scatter(s.y, s.pulses) for s in live])
        # one radar, one ||Phi||^2, but asked of each system: bench/ counts
        # the operator_norm_sq calls of a trial
        norm_sq = max(operator_norm_sq(s) for s in live)
        tau, tau_sigma = PRIMAL_STEP / np.sqrt(norm_sq), 0.99 / norm_sq
        ball = ((1.0 - BALL_MARGIN) * np.array(eps)[batch.rows])[:, None, None]
        budget_sq = np.array(budget)[batch.rows] ** 2
        tol_sq = opts.rel_change_tol**2

        x = np.zeros((len(live), live[0].n_cells), dtype=np.complex128)
        ax = np.zeros_like(y)  # Phi x
        zeta = np.zeros_like(y)  # becomes u, then the new zeta, in place
        ax_bar = ax
        for it in range(1, opts.max_iters + 1):
            zeta += ax_bar
            zeta -= y
            u_norm = np.sqrt(_row_sq(zeta))[:, None, None]
            zeta *= 1.0 - np.minimum(1.0, ball / np.maximum(u_norm, TINY))
            x_new = radar.backproject_grid(zeta)
            x_new *= tau_sigma
            np.subtract(x, x_new, out=x_new)
            soft_threshold(x_new, tau, out=x_new)
            ax_new = radar.pulse_grid(x_new)
            ax_new *= mask
            ax_bar = np.subtract(ax_new, ax, out=ax)
            ax_bar += ax_new
            delta = np.subtract(x_new, x, out=x)
            x, ax = x_new, ax_new
            stopped = _row_sq(delta) <= tol_sq * _row_sq(x)
            if not stopped.any():
                continue
            # the residual test, only on the rows that have settled
            stopped[stopped] = _row_sq(y[stopped] - ax[stopped]) <= budget_sq[stopped]
            if stopped.any():
                x, ax, ax_bar, zeta, y, mask, ball, budget_sq = batch.stop(
                    stopped, it, True, x, ax, ax_bar, zeta, y, mask, ball, budget_sq
                )
                if not len(x):
                    break
        batch.stop(np.ones(len(x), dtype=bool), opts.max_iters, False, x)
    return [_result(s, h, n, e) for s, e, (h, n, _) in zip(systems, eps, batch.results())]


def _row_sq(a: np.ndarray) -> np.ndarray:
    """The squared l2 norm of each row of a (K x ...), summed like np.vdot,
    with the digits each row gets on its own."""
    flat = a.reshape(len(a), -1)
    return np.vecdot(flat, flat).real


def _ridge(sys: SensingSystem, opts: SolverOptions) -> float:
    """The least-squares ridge of a system: ls_ridge, else ||Phi||^2 times
    the larger of RIDGE_FLOOR and 4 n_rows sigma^2 / ||y||^2."""
    if opts.ls_ridge is not None:
        return opts.ls_ridge
    scale = RIDGE_FLOOR
    if sys.noise_sigma:
        y_sq = float(np.vdot(sys.y, sys.y).real)
        scale = max(scale, 4.0 * sys.n_rows * sys.noise_sigma**2 / y_sq)
    return scale * operator_norm_sq(sys)


def solve_least_squares(sys: SensingSystem, opts: SolverOptions | None = None) -> RecoveryResult:
    """Ridge least squares of one system: the one-system case of
    solve_least_squares_batch."""
    return solve_least_squares_batch([sys], opts)[0]


def solve_least_squares_batch(systems, opts: SolverOptions | None = None) -> list:
    """Ridge least squares: min ||y - Phi h||^2 + mu ||h||^2, for each of
    several systems of one radar, in one conjugate-gradient loop.

    CG on the normal equations (Phi^H Phi + mu I) h = Phi^H y, with mu
    from _ridge. The operator is one pulse_grid, the zeroing of the
    missing pulses and one backproject_grid of the radar, plus mu h: the
    pair the sparse loop iterates with. A system stops once its residual
    b - A h, recomputed from h rather than taken from the recurrence, is
    at most tol = max(CG_TOL, LS_ERROR_TOL mu / (||Phi||^2 + mu)) of
    b = Phi^H y, which bounds the error of h by LS_ERROR_TOL of the exact
    solution's norm wherever CG_TOL does not bind; when the recurrence
    claims that and the recomputed residual disagrees, the system restarts
    from the recomputed one. A system that has not stopped after max_iters
    iterations is returned with converged=False. A system whose Phi^H y is
    zero gets the zero profile without iterating. Returns one
    RecoveryResult per system, in order.
    """
    opts = opts or SolverOptions()
    batch = _Batch(systems, "least-squares")
    live, mask = batch.screen(np.any(s.adjoint_y) for s in systems)
    if live:
        radar = live[0].radar
        b = np.stack([s.adjoint_y for s in live])
        mu = np.array([_ridge(s, opts) for s in live])[:, None]
        # ||Phi||^2 as operator_norm_sq gives it, read off the radar: bench/
        # counts the operator_norm_sq calls of a trial
        norm_sq = radar.norm_sq
        tol = np.maximum(CG_TOL, LS_ERROR_TOL * mu[:, 0] / (norm_sq + mu[:, 0]))
        tol_sq = tol**2 * _row_sq(b)

        def normal(p, mask, mu):
            """(Phi^H Phi + mu I) p, row by row."""
            grid = radar.pulse_grid(p)
            grid *= mask
            ap = radar.backproject_grid(grid)
            ap += mu * p
            return ap

        x = np.zeros_like(b)
        r = b.copy()
        p = r.copy()
        r_sq = _row_sq(r)
        for it in range(1, opts.max_iters + 1):
            ap = normal(p, mask, mu)
            alpha = (r_sq / np.vecdot(p, ap).real)[:, None]
            x += alpha * p
            r -= alpha * ap
            r_sq_new = _row_sq(r)
            claimed = r_sq_new <= tol_sq
            stopped = np.zeros(len(x), dtype=bool)
            if claimed.any():
                true_r = b[claimed] - normal(x[claimed], mask[claimed], mu[claimed])
                true_sq = _row_sq(true_r)
                met = true_sq <= tol_sq[claimed]
                stopped[claimed] = met
                # the others restart from the recomputed residual
                restart = np.flatnonzero(claimed)[~met]
                r[restart] = true_r[~met]
                r_sq_new[restart] = true_sq[~met]
            beta = (r_sq_new / r_sq)[:, None]
            beta[claimed & ~stopped] = 0.0
            p *= beta
            p += r
            r_sq = r_sq_new
            if stopped.any():
                x, r, p, r_sq, b, mask, mu, tol_sq = batch.stop(
                    stopped, it, True, x, r, p, r_sq, b, mask, mu, tol_sq
                )
                if not len(x):
                    break
        batch.stop(np.ones(len(x), dtype=bool), opts.max_iters, False, x)
    return [_result(s, h, n, None, met) for s, (h, n, met) in zip(systems, batch.results())]


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

    The TRM is laid on the full pulse grid by the radar's scatter, as the
    sparse loop lays its observation, so missing pulses are zero-filled
    (the classical degraded case, flagged converged=False). Each coarse bin
    takes the inverse DFT of its selected column as its block of fine
    cells. The pulse shape is only used to recompute the model residual.
    """
    schedule = PulseSchedule(trm.row_pulse_indices, cfg.n_pulses)
    sys = build_sensing_system(cfg, shape, schedule, trm)
    grid = sys.radar.scatter(sys.y, sys.pulses)

    # (L, N): bin-wise inverse DFTs, (1/N) sum_n x_n exp(+j 2 pi n k / N)
    segments = np.fft.ifft(grid[:, stretch_bin_columns(cfg)].T)
    full = schedule.m_count == cfg.n_pulses
    return _result(sys, segments.reshape(-1), 0, None, full)
