"""Baseband echo synthesis for a stationary scatterer profile.

A complex reflectivity profile over the fine range cells, sampled by a
train of stepped-frequency pulses, produces a target response matrix
(TRM): one row per valid pulse, one column per fast-time sample. All
sample instants are referenced to the start of the range gate, so the
bulk gate delay never enters the numerics. The echoes come from the
radar model (_Radar) whose kernels are also the sensing operator's.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .model import ConfigError, PulseShape, RadarConfig, pulse_shape_eval


@dataclass(frozen=True, eq=False)
class RangeProfile:
    """Complex reflectivity over the n_cells fine range cells of a gate."""

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


@dataclass(frozen=True)
class PulseSchedule:
    """Indices of the valid (received) pulses out of n_pulses transmitted."""

    valid_indices: tuple
    n_pulses: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.valid_indices)
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
    Draws are keyed by (seed, pulse index, sample index), so the noise
    hitting a given pulse/sample does not depend on which other pulses
    survived.
    """

    snr_db: float
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")

    def sigma_for(self, signal_power: float) -> float:
        return float(np.sqrt(signal_power * 10.0 ** (-self.snr_db / 10.0)))


@dataclass(frozen=True, eq=False)
class Trm:
    """Target response matrix: m_count rows by n_samples columns.

    row_pulse_indices carries the schedule index of each row;
    col_instants the gate-referenced sample instant of each column.
    noise_sigma is the per-sample noise std actually injected (0 when
    noiseless).
    """

    data: np.ndarray
    row_pulse_indices: tuple
    col_instants: np.ndarray
    snr_db: float | None = None
    noise_sigma: float = 0.0

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        object.__setattr__(self, "data", data)
        object.__setattr__(
            self, "col_instants", np.asarray(self.col_instants, dtype=float)
        )
        if data.shape != (len(self.row_pulse_indices), self.col_instants.size):
            raise ConfigError(
                f"TRM shape {data.shape} does not match {len(self.row_pulse_indices)} "
                f"rows x {self.col_instants.size} columns"
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
    instance: its kernels, and the full train's blocks and norm, the row
    kernels and the per-ridge complement factors, built on first use.
    """

    def __init__(self, envelopes: np.ndarray, n_pulses: int):
        if not np.all(np.isfinite(envelopes)):
            raise ConfigError("pulse shape matrix has non-finite entries")
        s_count = envelopes.shape[0]
        stack = envelopes.reshape(s_count, -1, n_pulses).transpose(2, 0, 1)
        self.envelopes = _read_only(envelopes)
        self.stack = _read_only(np.ascontiguousarray(stack))
        self.n_pulses = n_pulses
        self.complement = lru_cache(maxsize=4)(self._complement)

    def fold(self, values: np.ndarray) -> np.ndarray:
        """Shape-weighted profile folded over the coarse bins, (N x S).

        Entry (n, s) sums E[s, lN + n] h[lN + n] over l: one real (S x L) by
        (L x 2) product per fine index n.
        """
        n_pulses, _, l_bins = self.stack.shape
        h = np.asarray(values, dtype=np.complex128).reshape(l_bins, n_pulses)
        h = np.ascontiguousarray(h.T).view(np.float64).reshape(n_pulses, l_bins, 2)
        return (self.stack @ h).view(np.complex128)[..., 0]

    def unfold(self, grid: np.ndarray) -> np.ndarray:
        """Adjoint of fold: the profile that an (N x S) grid backs to.

        Weights each sample by its shape, one real (L x S) by (S x 2) product
        per fine index, and lays the result out over the cells lN + n.
        """
        n_pulses, s_count, _ = self.stack.shape
        w = grid.view(np.float64).reshape(n_pulses, s_count, 2)
        g = (self.stack.transpose(0, 2, 1) @ w).view(np.complex128)[..., 0]
        return g.T.ravel()

    def echoes(self, values: np.ndarray, pulse_indices) -> np.ndarray:
        """Noiseless echoes (M x S) of a profile for the given pulse indices.

        Cell p = lN + n carries the phase exp(-j 2 pi c n / N) for pulse c,
        which does not depend on the coarse bin l. So each sample folds the
        shape-weighted profile over the coarse bins, and an N-point FFT over
        n gives every pulse at once; the rows of pulse_indices are kept.
        """
        return np.fft.fft(self.fold(values), axis=0)[pulse_indices]

    def backproject(self, v: np.ndarray, pulse_indices) -> np.ndarray:
        """Adjoint of echoes: the profile that sample-major v (S x M) backs to.

        Scatters v onto the given pulses of a full (N x S) pulse grid, runs an
        unscaled inverse FFT over the pulses, and unfolds.
        """
        n_pulses, s_count, _ = self.stack.shape
        grid = np.zeros((n_pulses, s_count), dtype=np.complex128)
        grid[pulse_indices] = v.reshape(s_count, -1).T
        return self.unfold(np.fft.ifft(grid, axis=0, norm="forward"))

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

    @cached_property
    def row_kernels(self) -> np.ndarray:
        """FFT over n of stack[n] stack[n]^T, the kernels of Phi Phi^H."""
        stack = self.stack
        return _read_only(np.fft.fft(stack @ stack.transpose(0, 2, 1), axis=0))

    def _complement(self, ridge: float) -> tuple:
        """(A^-1, FFT over n of -stack[n] A_n^-1 stack[n]^T), A = blocks + ridge I."""
        stack = self.stack
        a_inv = np.linalg.inv(self.blocks + ridge * np.eye(stack.shape[2]))
        kernels = np.fft.fft(-stack @ a_inv @ stack.transpose(0, 2, 1), axis=0)
        return _read_only(a_inv), _read_only(kernels)


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
    s_count = cfg.n_samples
    instants = np.arange(s_count) * cfg.delta_t
    data = _radar_model(cfg, shape).echoes(
        profile.values, list(schedule.valid_indices)
    )

    sigma = 0.0
    snr_db = None
    if noise is not None:
        snr_db = noise.snr_db
        signal_power = float(np.mean(np.abs(data) ** 2))
        sigma = noise.sigma_for(signal_power)
        if sigma > 0:
            data = data + sigma * _unit_noise(
                noise.seed, schedule.valid_indices, s_count
            )

    return Trm(
        data=data,
        row_pulse_indices=schedule.valid_indices,
        col_instants=instants,
        snr_db=snr_db,
        noise_sigma=sigma,
    )


def _unit_noise(seed: int, pulse_indices, s_count: int) -> np.ndarray:
    """Unit-power circular complex Gaussian draws keyed per (pulse, sample).

    Pulse c draws its S real parts, then its S imaginary parts, from a
    PCG64 seeded by SeedSequence([seed, c]), straight into its row.
    """
    z = np.empty((len(pulse_indices), 2, s_count))
    for row, c_m in zip(z, pulse_indices):
        bits = np.random.PCG64(np.random.SeedSequence([seed, int(c_m)]))
        np.random.Generator(bits).standard_normal(out=row)
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


def random_missing_schedule(
    n_pulses: int, n_missing: int, seed: int
) -> PulseSchedule:
    """Schedule left after discarding a uniform random subset of pulses.

    Deterministic per seed; n_missing = 0 returns the full schedule.
    """
    if not 0 <= n_missing < n_pulses:
        raise ConfigError(
            f"n_missing must lie in [0, {n_pulses}), got {n_missing}"
        )
    rng = np.random.default_rng(seed)
    missing = rng.choice(n_pulses, size=n_missing, replace=False)
    keep = np.setdiff1d(np.arange(n_pulses), missing)
    return PulseSchedule(tuple(int(i) for i in keep), n_pulses)
