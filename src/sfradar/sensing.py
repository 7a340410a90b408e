"""Linear measurement model linking a range profile to TRM samples.

Every TRM entry is a linear projection of the profile, and stacking the
entries sample-major gives the observation vector y = Phi h. Row
(sample s, valid pulse c) of Phi is E[s] * exp(-j 2 pi c p / N) over the
cells p: the pulse shape at that sample times a carrier phase that only
depends on p mod N. So Phi h folds the shape-weighted profile over the
coarse bins and takes one N-point FFT across the fine index (the kernel
echo synthesis uses), Phi^H v runs the same steps backwards, and
Phi^H Phi h folds, multiplies by the schedule's N x N circulant P^H P and
unfolds; Phi is never stored. The dense matrix is still available, built
on demand, as a test oracle. With pulses missing the system has fewer
rows than unknowns and reconstruction needs a prior.

The shape matrix and every kernel and factor that depends on it alone
live in echo's _Radar, built once per (RadarConfig, PulseShape) value by
_radar_model and shared by the echo synthesis and every system of that
radar. A SensingSystem adds the observation and the schedule.
"""

from functools import cached_property

import numpy as np

from .echo import PulseSchedule, Trm, _Radar, _radar_model
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
    their circulant and their gathers.
    """

    def __init__(self, y, noise_sigma, radar: _Radar, pulses):
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
    def _circulant(self) -> np.ndarray:
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

    def all_finite(self) -> bool:
        """Whether y is finite; the radar checked its shape matrix when built."""
        return bool(np.all(np.isfinite(self.y)))

    def apply(self, h: np.ndarray) -> np.ndarray:
        """Phi h, sample-major like y."""
        return self.radar.echoes(h, self.pulses).ravel(order="F")

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """Phi^H v."""
        return self.radar.backproject(v, self.pulses)

    def normal(self, h: np.ndarray) -> np.ndarray:
        """Phi^H Phi h, without leaving the full pulse grid.

        Folds, multiplies by the circulant P^H P over the fine index and
        unfolds: adjoint(apply(h)) without the FFTs, the gather into
        sample-major rows and the scatter back.
        """
        return self.radar.unfold(self._circulant @ self.radar.fold(h))

    def gram(self) -> np.ndarray:
        """Phi^H Phi as a new array, which the caller may overwrite.

        From the factors this is (P^H P) * (E^T E), elementwise. P^H P is
        circulant in the fine index, so it is the N x N block of normal
        tiled over the coarse bins. E^T E is folded in a block of columns
        at a time, so the only NL x NL array is the result.
        """
        l_bins = self.n_cells // self.radar.n_pulses
        g = np.tile(self._circulant, (l_bins, l_bins))
        e = self.radar.envelopes
        for j in range(0, g.shape[1], GRAM_BLOCK):
            g[:, j:j + GRAM_BLOCK] *= e.T @ e[:, j:j + GRAM_BLOCK]
        return g

    def row_gram(self) -> np.ndarray:
        """Phi Phi^H (S*M x S*M), sample-major like y, as a new array.

        Entry (s, m; s', m') sums E[s, p] E[s', p] exp(-j 2 pi (c_m - c_m') p / N)
        over the cells; the phase only depends on n = p mod N, so it comes
        from the S x S products stack[n] stack[n]^T (see _pulse_gram).
        """
        return _pulse_gram(self.radar.row_kernels, self.pulses)


def _pulse_gram(b: np.ndarray, pulse_indices) -> np.ndarray:
    """Sample-major matrix over (sample, pulse) pairs from N real S x S kernels.

    Entry (s, m; s', m') is sum_n exp(-j 2 pi (c_m - c_m') n / N) kernels[n, s, s'],
    that is b[(c_m - c_m') mod N, s, s'] with b the FFT of the kernels over
    n, which the caller passes. Each pulse m gathers its row of b straight
    into the final (S, M, S, M) layout.
    """
    n_pulses, s_count, _ = b.shape
    k = (pulse_indices[:, None] - pulse_indices[None, :]) % n_pulses
    m_count = k.shape[0]
    g = np.empty((s_count, m_count, s_count, m_count), dtype=np.complex128)
    for m in range(m_count):
        g[:, m] = b[k[m]].transpose(1, 2, 0)
    return g.reshape(s_count * m_count, s_count * m_count)


def _blocks_apply(blocks: np.ndarray, h: np.ndarray) -> np.ndarray:
    """A real block-diagonal matrix (N x L x L) times a profile.

    Block n acts on the coarse bins of fine index n, cells lN + n; the
    complex profile goes in as two real columns per block.
    """
    n_pulses, l_bins, _ = blocks.shape
    h = np.ascontiguousarray(h.reshape(l_bins, n_pulses).T)
    x = blocks @ h.view(np.float64).reshape(n_pulses, l_bins, 2)
    return x.view(np.complex128)[..., 0].T.ravel()


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
    (Phi^H Phi + r I)^-1 Phi^H = Phi^H (Phi Phi^H + r I)^-1. "columns": the
    NL x NL normal equations. "complement": with A the full train's
    Phi^H Phi + r I, block-diagonal over the fine index, and U the rows of
    the missing pulses, Phi^H Phi + r I = A - U^H U, and Woodbury gives
    (A - U^H U)^-1 = A^-1 + A^-1 U^H (I - U A^-1 U^H)^-1 U A^-1. A^-1 is N
    inverses of L x L; the capacitance matrix I - U A^-1 U^H comes from the
    row_gram construction over stack[n] A_n^-1 stack[n]^T. U and U^H are the
    fold-and-FFT kernels restricted to the missing pulses. A^-1 and the
    capacitance kernels depend on the radar and the ridge only, and come
    from sys.radar, which keeps them per ridge.
    """
    form = _normal_form(sys)
    if form == "rows":
        g = sys.row_gram()
        g[np.diag_indices_from(g)] += ridge
        return sys.adjoint(np.linalg.solve(g, sys.y))
    rhs = sys.adjoint(sys.y)
    if form == "columns":
        g = sys.gram()
        g[np.diag_indices_from(g)] += ridge
        return np.linalg.solve(g, rhs)
    radar = sys.radar
    a_inv, kernels = radar.complement(ridge)
    missing = np.setdiff1d(np.arange(radar.n_pulses), sys.pulses)
    x = _blocks_apply(a_inv, rhs)
    cap = _pulse_gram(kernels, missing)
    cap[np.diag_indices_from(cap)] += 1.0
    z = np.linalg.solve(cap, radar.echoes(x, missing).ravel(order="F"))
    return x + _blocks_apply(a_inv, radar.backproject(z, missing))


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
