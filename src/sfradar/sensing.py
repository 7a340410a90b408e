"""Linear measurement model linking a range profile to TRM samples.

Every TRM entry is a linear projection of the profile: stacking the
projection rows for each (valid pulse, sample instant) pair gives a
dense complex operator, and vectorizing the TRM in the same order gives
the observation vector. With pulses missing the stacked system has
fewer rows than unknowns and reconstruction needs a prior.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .echo import PulseSchedule, Trm, _phase_matrix, _shape_matrix
from .model import ConfigError, PulseShape, RadarConfig, pulse_shape_eval

# Columns of E^T E formed at a time when assembling the Gram matrix. A
# full NL x NL real temporary beside the result raised the peak RSS of a
# 1024-cell sweep by about 7 MB (7%); a 128-column block needs at most 1 MB.
GRAM_BLOCK = 128


@dataclass(frozen=True, eq=False)
class SensingSystem:
    """Stacked measurement operator and observation vector.

    Rows are ordered column-major over the TRM: all valid pulses of
    sample s = 0 first, then s = 1, and so on. row_keys records the
    (pulse index, sample index) of every row so the ordering is
    reproducible downstream.

    A system from build_sensing_system also keeps the two factors of phi:
    envelopes E (S x NL, pulse shape per sample and cell) and phases P
    (M x NL, carrier phase per valid pulse and cell), with row s*M + m of
    phi equal to E[s] * P[m].
    """

    phi: np.ndarray
    y: np.ndarray
    row_keys: tuple
    noise_sigma: float
    underdetermined: bool
    envelopes: np.ndarray | None = None
    phases: np.ndarray | None = None

    @property
    def n_rows(self) -> int:
        return self.phi.shape[0]

    @property
    def n_cells(self) -> int:
        return self.phi.shape[1]

    def gram(self) -> np.ndarray:
        """Phi^H Phi as a new array, which the caller may overwrite.

        From the factors this is (P^H P) * (E^T E), elementwise: an
        (NL x NL) product over M and S rows instead of over all S*M rows
        of phi. E^T E is folded in a block of columns at a time, so the
        only NL x NL array is the result.
        """
        if self.envelopes is None or self.phases is None:
            return self.phi.conj().T @ self.phi
        g = self.phases.conj().T @ self.phases
        e = self.envelopes
        for j in range(0, g.shape[1], GRAM_BLOCK):
            g[:, j:j + GRAM_BLOCK] *= e.T @ e[:, j:j + GRAM_BLOCK]
        return g

    @cached_property
    def norm_sq(self) -> float:
        """Largest squared singular value of phi, computed once.

        The top eigenvalue of the Gram matrix, exact to roundoff; it is
        the Lipschitz constant of the least-squares gradient.
        """
        return float(np.linalg.eigvalsh(self.gram())[-1])


def adjoint(phi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """phi^H v without materialising the conjugate transpose of phi.

    Only the vector v is conjugated, so the cost is one product with phi
    as stored.
    """
    return (v.conj() @ phi).conj()


def projection_row(
    cfg: RadarConfig, shape: PulseShape, c_m: int, tau: float
) -> np.ndarray:
    """Measurement row for one pulse index at one gate-referenced instant.

    Element p is pulse_shape(tau - p / (N delta_f)) times
    exp(-j 2 pi c_m p / N); its inner product with a profile equals the
    noise-free echo sample of that pulse at that instant.
    """
    if not 0 <= c_m < cfg.n_pulses:
        raise ConfigError(f"pulse index {c_m} out of range [0, {cfg.n_pulses})")
    p = np.arange(cfg.n_cells)
    envelope = pulse_shape_eval(shape, tau - p * cfg.fine_delay_spacing)
    phase = np.exp(-2j * np.pi * c_m * p / cfg.n_pulses)
    return envelope * phase


def build_sensing_system(
    cfg: RadarConfig,
    shape: PulseShape,
    schedule: PulseSchedule,
    trm: Trm,
) -> SensingSystem:
    """Stack projection rows and vectorize the TRM into one linear system.

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

    instants = np.arange(s_count) * cfg.delta_t
    phases = _phase_matrix(cfg, schedule.valid_indices)       # (M, NL)
    envelopes = _shape_matrix(cfg, shape, instants)           # (S, NL)
    # (S, M, NL) -> (S*M, NL): row i = (m = i mod M, s = i // M)
    phi = (envelopes[:, None, :] * phases[None, :, :]).reshape(
        s_count * m_count, cfg.n_cells
    )
    y = trm.data.flatten(order="F")
    row_keys = tuple(
        (schedule.valid_indices[i % m_count], i // m_count)
        for i in range(m_count * s_count)
    )
    return SensingSystem(
        phi=phi,
        y=y,
        row_keys=row_keys,
        noise_sigma=trm.noise_sigma,
        underdetermined=m_count * s_count < cfg.n_cells,
        envelopes=envelopes,
        phases=phases,
    )
