"""Baseband echo synthesis for a stationary scatterer profile.

A complex reflectivity profile over the fine range cells, sampled by a
train of stepped-frequency pulses, produces a target response matrix
(TRM): one row per valid pulse, one column per fast-time sample. All
sample instants are referenced to the start of the range gate, so the
bulk gate delay never enters the numerics. The echoes come from the
radar model (_Radar) whose kernels are also the sensing operator's.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import (
    ConfigError,
    PulseShape,
    RadarConfig,
    check_int,
    is_finite_real,
    pulse_shape_eval,
)


@dataclass(frozen=True, eq=False)
class RangeProfile:
    """Complex reflectivity over the n_cells fine range cells of a gate,
    every cell finite."""

    values: np.ndarray
    cfg: RadarConfig

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size != self.cfg.n_cells:
            raise ConfigError(
                f"profile length {values.size} does not match "
                f"n_pulses * l_bins = {self.cfg.n_cells}"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigError("profile has non-finite cells")


@dataclass(frozen=True)
class PulseSchedule:
    """Indices of the valid (received) pulses out of n_pulses transmitted."""

    valid_indices: tuple
    n_pulses: int

    def __post_init__(self):
        check_int("n_pulses", self.n_pulses, 1)
        idx = tuple(check_int("pulse index", i, 0) for i in self.valid_indices)
        object.__setattr__(self, "valid_indices", idx)
        m = len(idx)
        if not 1 <= m <= self.n_pulses:
            raise ConfigError(
                f"schedule must keep between 1 and {self.n_pulses} pulses, got {m}"
            )
        if any(not 0 <= i < self.n_pulses for i in idx):
            raise ConfigError(
                f"pulse indices must lie in [0, {self.n_pulses}), got {idx}"
            )
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ConfigError(f"pulse indices must be strictly increasing, got {idx}")

    @classmethod
    def full(cls, n_pulses: int) -> "PulseSchedule":
        return cls(tuple(range(n_pulses)), n_pulses)

    @property
    def m_count(self) -> int:
        return len(self.valid_indices)


@dataclass(frozen=True)
class NoiseModel:
    """Circular complex white Gaussian receiver noise at a given SNR.

    The per-sample variance is set against the mean squared modulus of
    the noiseless TRM being built: sigma^2 = P_sig / 10^(snr_db / 10).
    One generator seeded by seed draws unit noise for every pulse of the
    train, and the TRM takes the rows of its valid pulses, so the noise
    hitting a given pulse/sample depends on the seed alone, not on which
    other pulses survived.
    """

    snr_db: float
    seed: int

    def __post_init__(self):
        if not is_finite_real(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        check_int("seed", self.seed, 0)

    def sigma_for(self, signal_power: float) -> float:
        return float(np.sqrt(signal_power * 10.0 ** (-self.snr_db / 10.0)))


def check_noise_sigma(name: str, value, error=ConfigError):
    """value, rejected with error unless it is None (an unknown noise level)
    or a finite real number >= 0."""
    if value is not None and not (is_finite_real(value) and value >= 0):
        raise error(f"{name} must be finite and >= 0, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class Trm:
    """Target response matrix: m_count rows by n_samples columns.

    row_pulse_indices carries the schedule index of each row; column s
    is sampled at s * delta_t after the start of the gate.
    noise_sigma is the per-sample noise std actually injected (0 when
    noiseless), finite and >= 0, or None when it is unknown: a capture
    file without one.
    """

    data: np.ndarray
    row_pulse_indices: tuple
    delta_t: float
    noise_sigma: float | None = 0.0

    def __post_init__(self):
        check_noise_sigma("noise_sigma", self.noise_sigma)
        data = np.asarray(self.data, dtype=np.complex128)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] != len(self.row_pulse_indices):
            raise ConfigError(
                f"TRM shape {data.shape} does not match "
                f"{len(self.row_pulse_indices)} rows"
            )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Radar:
    """The part of y = Phi h fixed by the radar and the pulse shape alone.

    envelopes is the shape matrix E (S x NL), E[s, p] the pulse shape at
    sample instant s less the delay of cell p; stack is E as (N, S, L),
    [n, s, l] = E[s, lN + n]. Both are read-only and checked finite here.
    Echo synthesis and every sensing system of the radar share one
    instance: its kernels, and the full train's blocks and norm, built on
    first use. It holds no solver state, so callers in any thread may
    share it.
    """

    def __init__(self, envelopes: np.ndarray, n_pulses: int):
        if not np.all(np.isfinite(envelopes)):
            raise ConfigError("pulse shape matrix has non-finite entries")
        s_count = envelopes.shape[0]
        stack = envelopes.reshape(s_count, -1, n_pulses).transpose(2, 0, 1)
        self.envelopes = _read_only(envelopes)
        self.stack = _read_only(np.ascontiguousarray(stack))
        self.n_pulses = n_pulses

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Shape-weighted profiles folded over the coarse bins, (... x N x S).

        Entry (n, s) sums E[s, lN + n] h[lN + n] over l: stack[n] times the
        coarse bins of fine index n, one real (S x L) by (L x 2) product per
        n. Leading axes of values are a batch of profiles, each folded by
        the same products as on its own.
        """
        n_pulses, _, l_bins = self.stack.shape
        h = np.ascontiguousarray(values, dtype=np.complex128)
        lead = h.shape[:-1]
        # the (L x 2) real matrices of the fine indices, strided views of h:
        # BLAS reads them in place, with the digits of a contiguous copy
        h = h.view(np.float64).reshape(*lead, l_bins, n_pulses, 2).swapaxes(-2, -3)
        return (self.stack @ h).view(np.complex128)[..., 0]

    def unfold(self, grid: np.ndarray) -> np.ndarray:
        """Adjoint of fold: the profiles that (... x N x S) grids back to.

        Weights each sample by its shape, one real (L x S) by (S x 2) product
        per fine index, and lays the result out over the cells lN + n. The
        products run on the transposed view of the stack, never a copy: a
        contiguous copy takes another BLAS path and moves last digits.
        """
        n_pulses, s_count, _ = self.stack.shape
        lead = grid.shape[:-2]
        w = grid.view(np.float64).reshape(*lead, n_pulses, s_count, 2)
        g = (self.stack.transpose(0, 2, 1) @ w).view(np.complex128)[..., 0]
        return g.swapaxes(-1, -2).reshape(*lead, -1)

    def pulse_grid(self, values: np.ndarray) -> np.ndarray:
        """Noiseless echoes of each profile on every pulse, (... x N x S).

        Cell p = lN + n carries the phase exp(-j 2 pi c n / N) for pulse c,
        which does not depend on the coarse bin l. So each sample folds the
        shape-weighted profile over the coarse bins, and an N-point FFT over
        n gives every pulse at once. Leading axes of values are a batch of
        profiles, each with the digits it gets on its own.
        """
        return np.fft.fft(self.fold(values), axis=-2)

    def backproject_grid(self, grid: np.ndarray) -> np.ndarray:
        """Adjoint of pulse_grid: an unscaled inverse FFT over the pulses of
        each (N x S) grid, then unfold. Batched as pulse_grid is."""
        return self.unfold(np.fft.ifft(grid, axis=-2, norm="forward"))

    def scatter(self, v: np.ndarray, pulse_indices) -> np.ndarray:
        """Sample-major v (S x M) laid on the given pulses of a full (N x S)
        pulse grid, zero on the others."""
        n_pulses, s_count, _ = self.stack.shape
        grid = np.zeros((n_pulses, s_count), dtype=np.complex128)
        grid[pulse_indices] = v.reshape(s_count, -1).T
        return grid

    @cached_property
    def blocks(self) -> np.ndarray:
        """Phi^H Phi of the full pulse train as its N diagonal L x L blocks.

        With every pulse present P^H P is N times the identity over the
        fine index, so the full train's Phi^H Phi only couples cells with
        the same n = p mod N: block n is N stack[n]^T stack[n], over the
        coarse bins l of the cells p = lN + n.
        """
        stack = self.stack
        return _read_only(stack.shape[0] * (stack.transpose(0, 2, 1) @ stack))

    @cached_property
    def norm_sq(self) -> float:
        """Squared norm of the full pulse train's Phi, the largest top
        eigenvalue of its blocks: one batched L x L eigvalsh."""
        return float(np.linalg.eigvalsh(self.blocks)[:, -1].max())


@lru_cache(maxsize=8)
def _radar_model(cfg: RadarConfig, shape: PulseShape) -> _Radar:
    """The shared _Radar of a radar and pulse shape, keyed by their values."""
    tau = np.arange(cfg.n_samples)[:, None] * cfg.delta_t
    delays = np.arange(cfg.n_cells, dtype=float)[None, :] * cfg.fine_delay_spacing
    return _Radar(pulse_shape_eval(shape, tau - delays), cfg.n_pulses)


def build_trm(
    profile: RangeProfile,
    schedule: PulseSchedule,
    shape: PulseShape,
    noise: NoiseModel | None = None,
) -> Trm:
    """Assemble the TRM of a profile under a pulse schedule.

    Entry (m, s) is the echo of valid pulse schedule[m] sampled at
    s * delta_t, plus an optional seeded circular complex Gaussian term.
    Rows follow schedule order; columns enumerate s = 0 .. S-1. The
    noiseless part comes from the fold-and-FFT kernel that the sensing
    operator applies, so it equals Phi h exactly.
    """
    cfg = profile.cfg
    if schedule.n_pulses != cfg.n_pulses:
        raise ConfigError(
            f"schedule is for {schedule.n_pulses} pulses, config has {cfg.n_pulses}"
        )
    kept = list(schedule.valid_indices)
    data = _radar_model(cfg, shape).pulse_grid(profile.values)[kept]

    sigma = 0.0
    if noise is not None:
        signal_power = float(np.mean(np.abs(data) ** 2))
        sigma = noise.sigma_for(signal_power)
        if sigma > 0:
            unit = _unit_noise(noise.seed, cfg.n_pulses, cfg.n_samples)
            data = data + sigma * unit[kept]

    return Trm(
        data=data,
        row_pulse_indices=schedule.valid_indices,
        delta_t=cfg.delta_t,
        noise_sigma=sigma,
    )


def _unit_noise(seed: int, n_pulses: int, s_count: int) -> np.ndarray:
    """Unit-power circular complex Gaussian draws on the full (N x S) pulse
    grid.

    One PCG64 seeded by seed draws an (N, 2, S) array: for pulse c in
    order, its S real parts, then its S imaginary parts. So row c depends
    on the seed and c alone, whichever rows a caller then takes.
    """
    z = np.random.default_rng(seed).standard_normal((n_pulses, 2, s_count))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def random_missing_schedule(
    n_pulses: int, n_missing: int, seed: int
) -> PulseSchedule:
    """Schedule left after discarding a uniform random subset of pulses.

    Deterministic per seed; n_missing = 0 returns the full schedule.
    """
    n_missing = check_int("n_missing", n_missing, 0)
    if n_missing >= n_pulses:
        raise ConfigError(
            f"n_missing must lie in [0, {n_pulses}), got {n_missing}"
        )
    rng = np.random.default_rng(seed)
    kept = np.ones(n_pulses, dtype=bool)
    kept[rng.choice(n_pulses, size=n_missing, replace=False)] = False
    return PulseSchedule(tuple(np.flatnonzero(kept).tolist()), n_pulses)
