"""Waveform and geometry configuration for a stepped-frequency pulse train.

Everything here is deterministic bookkeeping derived from the radar
parameters: the range-gate geometry, the fine range axis spanned by the
synthetic bandwidth, and the compressed (baseband) pulse shape.
"""

import math
from dataclasses import dataclass

import numpy as np

C_LIGHT = 299_792_458.0  # m/s


class ConfigError(ValueError):
    """Invalid radar configuration or out-of-range index."""


@dataclass(frozen=True)
class RadarConfig:
    """Stepped-frequency waveform and range-gate geometry.

    Parameters
    ----------
    f_c : float
        Carrier start frequency in Hz. Pure bookkeeping: the baseband
        measurement model depends only on the step index schedule.
    delta_f : float
        Carrier frequency step in Hz.
    n_pulses : int
        Number of carrier steps in one coherent train.
    pulse_bandwidth : float
        Compressed single-pulse bandwidth in Hz.
    delta_t : float, optional
        Baseband sampling interval in seconds. Defaults to
        1 / pulse_bandwidth (sampling rate equal to the single-pulse
        bandwidth).
    q_start : int
        Range-gate start index; the gate starts at
        c * q_start / (2 * delta_f) metres.
    l_bins : int
        Number of coarse range bins covered by the gate.
    c_light : float
        Propagation speed in m/s.
    """

    f_c: float
    delta_f: float
    n_pulses: int
    pulse_bandwidth: float
    delta_t: float | None = None
    q_start: int = 0
    l_bins: int = 1
    c_light: float = C_LIGHT

    def __post_init__(self):
        if self.delta_t is None and self.pulse_bandwidth > 0:
            object.__setattr__(self, "delta_t", 1.0 / self.pulse_bandwidth)
        # pulse_bandwidth before delta_t, which stays None if it is not positive
        for name in ("f_c", "delta_f", "pulse_bandwidth", "delta_t", "c_light"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.n_pulses < 2:
            raise ConfigError(f"n_pulses must be >= 2, got {self.n_pulses}")
        if self.l_bins < 1:
            raise ConfigError(f"l_bins must be >= 1, got {self.l_bins}")
        if self.q_start < 0:
            raise ConfigError(f"q_start must be >= 0, got {self.q_start}")
        # the product of two tiny positive steps can underflow to zero
        step = self.delta_f * self.delta_t
        samples = self.l_bins / step if step > 0 else math.inf
        if not math.isfinite(samples):
            raise ConfigError(
                f"l_bins / (delta_f * delta_t) = {samples:.3g} is not a finite "
                "fast-time sample count"
            )
        if round(samples) < 1:
            raise ConfigError(
                "the gate holds no fast-time sample: l_bins / (delta_f * delta_t)"
                f" = {samples:.3g} rounds to 0"
            )

    @property
    def coarse_bin_extent(self) -> float:
        """Range extent of one coarse bin, c / (2 delta_f), in metres."""
        return self.c_light / (2.0 * self.delta_f)

    @property
    def range_resolution(self) -> float:
        """Fine range cell size, c / (2 N delta_f): coarse extent over N."""
        return self.coarse_bin_extent / self.n_pulses

    @property
    def gate_start_range(self) -> float:
        """Range at which the gate starts, c q_start / (2 delta_f)."""
        return self.q_start * self.coarse_bin_extent

    @property
    def gate_depth(self) -> float:
        """Total gate depth in metres, l_bins coarse bins."""
        return self.l_bins * self.coarse_bin_extent

    @property
    def n_cells(self) -> int:
        """Number of fine range cells across the gate, n_pulses * l_bins."""
        return self.n_pulses * self.l_bins

    @property
    def n_samples(self) -> int:
        """Fast-time samples per pulse covering the gate.

        Nearest integer of 2 * gate_depth / (c * delta_t); exact for the
        default sampling interval.
        """
        return round(self.l_bins / (self.delta_f * self.delta_t))

    @property
    def fine_delay_spacing(self) -> float:
        """Two-way delay between adjacent fine cells, 1 / (N delta_f)."""
        return 1.0 / (self.n_pulses * self.delta_f)


def range_axis(cfg: RadarConfig) -> np.ndarray:
    """Range of each fine cell across the gate.

    Cell p sits at gate_start_range + p * range_resolution; the returned
    axis has n_cells entries with exactly constant spacing.
    """
    p = np.arange(cfg.n_cells)
    return cfg.gate_start_range + p * cfg.range_resolution


WINDOWS = ("rect", "hamming", "hann")


@dataclass(frozen=True)
class PulseShape:
    """Compressed baseband pulse shape evaluated against two-way delay.

    ``ideal_sinc`` is sin(pi B tau) / (pi B tau) with unit peak and nulls
    at every nonzero multiple of 1/B. ``windowed_sinc`` multiplies the
    sinc by a symmetric window over |tau| <= truncation_halfwidth and is
    zero outside that support.
    """

    bandwidth: float
    kind: str = "ideal_sinc"
    window: str = "rect"
    truncation_halfwidth: float | None = None

    def __post_init__(self):
        if not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.kind not in ("ideal_sinc", "windowed_sinc"):
            raise ConfigError(f"unknown pulse shape kind {self.kind!r}")
        if self.kind == "windowed_sinc":
            if self.window not in WINDOWS:
                raise ConfigError(f"unknown window {self.window!r}")
            if self.truncation_halfwidth is None or not self.truncation_halfwidth > 0:
                raise ConfigError(
                    "windowed_sinc requires a positive truncation_halfwidth"
                )

    @classmethod
    def ideal_sinc(cls, bandwidth: float) -> "PulseShape":
        return cls(bandwidth=bandwidth)

    @classmethod
    def windowed_sinc(
        cls, bandwidth: float, window: str, truncation_halfwidth: float
    ) -> "PulseShape":
        return cls(
            bandwidth=bandwidth,
            kind="windowed_sinc",
            window=window,
            truncation_halfwidth=truncation_halfwidth,
        )


def pulse_shape_eval(shape: PulseShape, tau):
    """Evaluate the pulse shape at delay tau (scalar or array), in seconds.

    Real-valued and even in tau, so it is trivially Hermitian-symmetric.
    The removable singularity at tau = 0 evaluates to 1.
    """
    tau = np.asarray(tau, dtype=float)
    # np.sinc(x) = sin(pi x) / (pi x)
    out = np.sinc(shape.bandwidth * tau)
    if shape.kind == "windowed_sinc":
        half = shape.truncation_halfwidth
        inside = np.abs(tau) <= half
        if shape.window == "hamming":
            win = 0.54 + 0.46 * np.cos(np.pi * tau / half)
        elif shape.window == "hann":
            win = 0.5 * (1.0 + np.cos(np.pi * tau / half))
        else:
            win = np.ones_like(out)
        out = np.where(inside, out * win, 0.0)
    if out.ndim == 0:
        return float(out)
    return out
