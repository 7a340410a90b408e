"""Linear measurement model linking a range profile to TRM samples.

Every TRM entry is a linear projection of the profile, and stacking the
entries sample-major gives the observation vector y = Phi h. Row
(sample s, valid pulse c) of Phi is E[s] * exp(-j 2 pi c p / N) over the
cells p: the pulse shape at that sample times a carrier phase that only
depends on p mod N. So Phi h folds the shape-weighted profile over the
coarse bins and takes one N-point FFT across the fine index (the kernel
echo synthesis uses), and Phi^H v runs the same steps backwards; Phi is
never stored. The dense matrix is still available, built on demand, as a
test oracle. With pulses missing the system has fewer rows than unknowns
and reconstruction needs a prior.

The shape matrix and every kernel that depends on it alone live in
echo's _Radar, built once per (RadarConfig, PulseShape) value by
_radar_model and shared by the echo synthesis and every system of that
radar. A SensingSystem adds the observation and the schedule, and forms
Phi^H y once for every solver that reads it.
"""

from functools import cached_property

import numpy as np

from .echo import PulseSchedule, Trm, _Radar, _radar_model, _read_only
from .model import ConfigError, PulseShape, RadarConfig


class SensingSystem:
    """Measurement operator Phi and observation vector y.

    Rows are ordered column-major over the TRM: all valid pulses of
    sample s = 0 first, then s = 1, and so on, so row i is
    (pulse pulses[i % M], sample i // M). The system is matrix-free: it
    holds its radar's shared _Radar and adds the valid pulse indices. It
    rejects a non-finite observation, so no solver sees one.
    """

    def __init__(self, y, noise_sigma, radar: _Radar, pulses):
        if not np.all(np.isfinite(y)):
            raise ValueError("sensing system contains non-finite entries")
        self.y = y
        self.noise_sigma = noise_sigma
        self.radar = radar
        self.pulses = np.asarray(pulses, dtype=np.intp)

    @property
    def n_rows(self) -> int:
        return self.y.size

    @property
    def n_cells(self) -> int:
        return self.radar.envelopes.shape[1]

    @cached_property
    def phi(self) -> np.ndarray:
        """Dense Phi (S*M x NL), built on first use and kept: a test oracle.

        No solver touches it; at N=128, L=32 it would need about 400 MB.
        """
        cells = np.arange(self.n_cells, dtype=float)
        pulses = self.pulses.astype(float)[:, None]
        phases = np.exp(-2j * np.pi * pulses * cells / self.radar.n_pulses)
        e = self.radar.envelopes
        return (e[:, None, :] * phases[None, :, :]).reshape(-1, self.n_cells)

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Phi h, sample-major like y."""
        return self.radar.pulse_grid(h)[self.pulses].ravel(order="F")

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Phi^H v."""
        return self.radar.backproject_grid(self.radar.scatter(v, self.pulses))

    @cached_property
    def adjoint_y(self) -> np.ndarray:
        """Phi^H y, read-only: formed once per system and read by the sparse
        and the least-squares routes alike."""
        return _read_only(self.adjoint(self.y))


def build_sensing_system(
    cfg: RadarConfig,
    shape: PulseShape,
    schedule: PulseSchedule,
    trm: Trm,
) -> SensingSystem:
    """Pair the matrix-free operator with the vectorized TRM.

    The observation vector is the TRM flattened column-major (sample-major),
    matching the row order of the operator. The noise level tag of the TRM
    is carried over for residual-tolerance selection in the solvers.
    """
    if schedule.n_pulses != cfg.n_pulses:
        raise ConfigError(
            f"schedule is for {schedule.n_pulses} pulses, config has {cfg.n_pulses}"
        )
    m_count = schedule.m_count
    s_count = cfg.n_samples
    if trm.data.shape != (m_count, s_count):
        raise ConfigError(
            f"TRM shape {trm.data.shape} does not match schedule/config "
            f"({m_count} x {s_count})"
        )
    if tuple(trm.row_pulse_indices) != tuple(schedule.valid_indices):
        raise ConfigError("TRM row pulse indices do not match the schedule")

    return SensingSystem(
        y=trm.data.flatten(order="F"),
        noise_sigma=trm.noise_sigma,
        radar=_radar_model(cfg, shape),
        pulses=schedule.valid_indices,
    )
