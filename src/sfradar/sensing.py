"""Linear measurement model linking a range profile to TRM samples.

Every TRM entry is a linear projection of the profile, and stacking the
entries sample-major gives the observation vector y = Phi h. Row
(sample s, valid pulse c) of Phi is E[s] * exp(-j 2 pi c p / N) over the
cells p: the pulse shape at that sample times a carrier phase that only
depends on p mod N. So Phi h folds the shape-weighted profile over the
coarse bins and takes one N-point FFT across the fine index (the kernel
echo synthesis uses), Phi^H v runs the same steps backwards, and
Phi^H Phi is the schedule's N x N circulant P^H P over the fine index,
weighted by the folds; Phi is never stored. The dense matrix is still
available, built on demand, as a test oracle. With pulses missing the
system has fewer rows than unknowns and reconstruction needs a prior.

The shape matrix and every kernel and factor that depends on it alone
live in echo's _Radar, built once per (RadarConfig, PulseShape) value by
_radar_model and shared by the echo synthesis and every system of that
radar. A SensingSystem adds the observation and the schedule, and forms
Phi^H y once for every solver that reads it.
"""

from functools import cached_property

import numpy as np

from .echo import PulseSchedule, Trm, _Radar, _radar_model, _read_only
from .model import ConfigError, PulseShape, RadarConfig

# Columns of E^T E formed at a time when assembling the Gram matrix. A
# full NL x NL real temporary beside the result raised the peak RSS of a
# 1024-cell sweep by about 7 MB (7%); a 128-column block needs at most 1 MB.
GRAM_BLOCK = 128


class SensingSystem:
    """Measurement operator Phi and observation vector y.

    Rows are ordered column-major over the TRM: all valid pulses of
    sample s = 0 first, then s = 1, and so on, so row i is
    (pulse pulses[i % M], sample i // M). The system is matrix-free: it
    holds its radar's shared _Radar and adds the valid pulse indices,
    their circulant and their gathers. It rejects a non-finite
    observation, so no solver sees one.
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

    @cached_property
    def circulant(self) -> np.ndarray:
        """P^H P over the fine index, N x N: entry (n, n') is c[(n - n') mod N].

        c is the unscaled inverse FFT of the valid-pulse mask, so this is
        the N-point FFT, the zeroing of the missing pulses and the inverse
        FFT as one Hermitian matrix.
        """
        n = self.radar.n_pulses
        mask = np.zeros(n)
        mask[self.pulses] = 1.0
        c = np.fft.ifft(mask, norm="forward")
        k = np.arange(n)
        return c[(k[:, None] - k[None, :]) % n]

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Phi h, sample-major like y."""
        return self.radar.echoes(h, self.pulses).ravel(order="F")

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Phi^H v."""
        return self.radar.backproject(v, self.pulses)

    @cached_property
    def adjoint_y(self) -> np.ndarray:
        """Phi^H y, read-only: formed once per system and read by the sparse
        and the least-squares routes alike."""
        return _read_only(self.adjoint(self.y))

    def gram(self) -> np.ndarray:
        """Phi^H Phi as a new array, which the caller may overwrite.

        From the factors this is (P^H P) * (E^T E), elementwise. P^H P is
        circulant in the fine index, so it is the schedule's N x N
        circulant tiled over the coarse bins. E^T E is folded in a block of columns
        at a time, so the only NL x NL array is the result.
        """
        l_bins = self.n_cells // self.radar.n_pulses
        g = np.tile(self.circulant, (l_bins, l_bins))
        e = self.radar.envelopes
        for j in range(0, g.shape[1], GRAM_BLOCK):
            g[:, j:j + GRAM_BLOCK] *= e.T @ e[:, j:j + GRAM_BLOCK]
        return g


def _pulse_gram(b: np.ndarray, pulse_indices, out=None) -> np.ndarray:
    """Sample-major matrix over (sample, pulse) pairs from N real S x S kernels.

    Entry (s, m; s', m') is sum_n exp(-j 2 pi (c_m - c_m') n / N) kernels[n, s, s'],
    that is b[(c_m - c_m') mod N, s, s'] with b the FFT of the kernels over
    n, which the caller passes. The matrix is column-major, the order
    np.linalg.solve copies its input into for the LU, so that copy reads
    straight through. Each pulse m' gathers its column of b into out, a
    C-contiguous square array that holds the matrix transposed (a new one
    if out is None), and the matrix is returned as out.T. Gathering all
    pulses at once measured slower and needs a temporary as large as the
    matrix.
    """
    n_pulses, s_count, _ = b.shape
    k = (pulse_indices[:, None] - pulse_indices[None, :]) % n_pulses
    m_count = k.shape[0]
    if out is None:
        out = np.empty((s_count * m_count,) * 2, dtype=np.complex128)
    g_t = out.reshape(s_count, m_count, s_count, m_count)  # entry (s', m'; s, m)
    for m in range(m_count):
        g_t[:, m] = b[k[:, m]].transpose(2, 1, 0)
    return out.T


def _normal_form(sys: SensingSystem) -> str:
    """The smallest ridge-shifted normal system of Phi that _ridge_solve factors.

    "complement", of size S(N - M): the missing pulses' rows against the
    full train, none on a full schedule. "rows", of size S*M: Phi Phi^H.
    "columns", of size NL: Phi^H Phi. Ties go to the earlier form. The
    default sampling gives S*N = 1.5 NL, so the column form is only picked
    on oversampled gates, where it is the smallest.
    """
    radar = sys.radar
    sizes = {
        "complement": radar.envelopes.shape[0] * (radar.n_pulses - sys.pulses.size),
        "rows": sys.n_rows,
        "columns": sys.n_cells,
    }
    return min(sizes, key=sizes.get)


def _ridge_solve(sys: SensingSystem, ridge: float) -> np.ndarray:
    """(Phi^H Phi + ridge I)^-1 Phi^H y from the smallest normal system.

    "rows": the push-through identity
    (Phi^H Phi + r I)^-1 Phi^H = Phi^H (Phi Phi^H + r I)^-1, Phi Phi^H from
    the row kernels stack[n] stack[n]^T (see _pulse_gram). "columns": the
    NL x NL normal equations. "complement": with A the full train's
    Phi^H Phi + r I, block-diagonal over the fine index, and U the rows of
    the missing pulses, Phi^H Phi + r I = A - U^H U, and Woodbury gives
    (A - U^H U)^-1 = A^-1 + A^-1 U^H (I - U A^-1 U^H)^-1 U A^-1. A^-1 is N
    inverses of L x L; the capacitance matrix I - U A^-1 U^H comes from the
    same construction over stack[n] A_n^-1 stack[n]^T. U and U^H are the
    fold-and-FFT kernels restricted to the missing pulses. A^-1 and the
    capacitance kernels depend on the radar and the ridge only, and come
    from sys.radar, which keeps them per ridge.
    """
    form = _normal_form(sys)
    if form == "rows":
        return _pulse_solve(sys.radar, sys.radar.row_kernels, sys.pulses, ridge, sys.y)
    rhs = sys.adjoint_y
    if form == "columns":
        g = sys.gram()
        g[np.diag_indices_from(g)] += ridge
        return np.linalg.solve(g, rhs)
    radar = sys.radar
    a_inv, kernels = radar.complement(ridge)
    kept = np.zeros(radar.n_pulses, dtype=bool)
    kept[sys.pulses] = True
    missing = np.flatnonzero(~kept)
    x = radar.apply_blocks(a_inv, rhs)
    u_x = radar.echoes(x, missing).ravel(order="F")
    v = _pulse_solve(radar, kernels, missing, 1.0, u_x)
    return x + radar.apply_blocks(a_inv, v)


def _pulse_solve(radar: _Radar, kernels, pulse_indices, shift: float, rhs):
    """Phi_c^H (g + shift I)^-1 rhs, Phi_c the rows of the given pulses and g
    the sample-major _pulse_gram matrix of the kernels over them, gathered
    into the radar's workspace for this thread."""
    size = kernels.shape[1] * len(pulse_indices)
    g = _pulse_gram(kernels, pulse_indices, radar.workspace(size))
    g[np.diag_indices_from(g)] += shift
    return radar.backproject(np.linalg.solve(g, rhs), pulse_indices)


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
