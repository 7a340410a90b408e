"""File formats: recorded-TRM ingestion and profile CSV dumps.

TRM files carry one header line

    SFRTRM v1 M=<int> S=<int> dt=<float> order=row-major sigma=<float>

followed by M*S lines of ``re,im`` decimal pairs in row-major order.
dt is the spacing of the sample columns; a one-column TRM's dt is not
checked on reading.
sigma is the per-sample noise std, finite and >= 0; a file without it
(the older header) has no known noise level.
Profiles are exported as ``range_m,magnitude,phase_rad`` CSV with nine
significant digits.
"""

import math

import numpy as np

from .echo import PulseSchedule, Trm, check_noise_sigma
from .model import RadarConfig

TRM_MAGIC = "SFRTRM"
TRM_VERSION = "v1"


class TrmFileError(ValueError):
    """Problem ingesting a recorded TRM file."""


class TrmHeaderError(TrmFileError):
    """Malformed or unsupported TRM header line."""


class TrmDimensionError(TrmFileError):
    """TRM dimensions do not match the expected configuration."""


class TrmSampleError(TrmFileError):
    """Unparseable or non-finite sample in a TRM file."""


def _numbered_lines(path, error=ValueError) -> list:
    """(line number in the file, text) of the non-blank lines of an ASCII file;
    a line holding any other byte raises error, naming the file and line."""
    # a byte over 0x7f reads as one lone surrogate, U+DC80 to U+DCFF
    with open(path, "r", encoding="ascii", errors="surrogateescape") as f:
        lines = [(n, ln) for n, ln in enumerate(map(str.strip, f), 1) if ln]
    for n, ln in lines:
        if not ln.isascii():
            byte = next(ord(c) - 0xDC00 for c in ln if not c.isascii())
            raise error(f"{path}:{n}: non-ASCII byte {byte:#04x}")
    return lines


def _parse_header(line: str) -> dict:
    fields = line.split()
    if len(fields) not in (6, 7) or fields[0] != TRM_MAGIC or fields[1] != TRM_VERSION:
        raise TrmHeaderError(
            f"expected header '{TRM_MAGIC} {TRM_VERSION} M=<int> S=<int> "
            f"dt=<float> order=row-major [sigma=<float>]', got {line!r}"
        )
    out = {"sigma": None}
    for token, key, cast in zip(
        fields[2:], ("M", "S", "dt", "order", "sigma"), (int, int, float, str, float)
    ):
        prefix = key + "="
        if not token.startswith(prefix):
            raise TrmHeaderError(f"expected '{prefix}...' in header, got {token!r}")
        try:
            out[key] = cast(token[len(prefix):])
        except ValueError as exc:
            raise TrmHeaderError(f"bad {key} value in header: {token!r}") from exc
    if out["order"] != "row-major":
        raise TrmHeaderError(f"unsupported sample order {out['order']!r}")
    if out["M"] < 1 or out["S"] < 1:
        raise TrmHeaderError(f"header dimensions must be positive, got {line!r}")
    check_noise_sigma("header sigma", out["sigma"], TrmHeaderError)
    return out


def load_trm_file(path, cfg: RadarConfig, schedule: PulseSchedule) -> Trm:
    """Parse a recorded TRM file and validate it against cfg and schedule.

    Raises TrmHeaderError, TrmDimensionError or TrmSampleError with a
    diagnostic naming what was expected and what was found, and a plain
    TrmFileError for a byte that is not ASCII.
    """
    lines = _numbered_lines(path, TrmFileError)
    if not lines:
        raise TrmHeaderError(f"{path}: empty file")
    try:
        header = _parse_header(lines[0][1])
    except TrmHeaderError as exc:
        raise TrmHeaderError(f"{path}: {exc}") from exc

    m_expected, s_expected = schedule.m_count, cfg.n_samples
    if header["M"] != m_expected or header["S"] != s_expected:
        raise TrmDimensionError(
            f"{path}: header declares {header['M']} x {header['S']}, "
            f"expected {m_expected} x {s_expected} from schedule/config"
        )
    dt_ok = math.isclose(header["dt"], cfg.delta_t, rel_tol=1e-9)
    if s_expected > 1 and not dt_ok:
        raise TrmDimensionError(
            f"{path}: header dt={header['dt']!r} does not match "
            f"configured delta_t={cfg.delta_t!r}"
        )

    expected = m_expected * s_expected
    found = len(lines) - 1
    if found != expected:
        raise TrmDimensionError(
            f"{path}: expected {expected} samples, found {found}"
        )

    samples = np.empty(expected, dtype=np.complex128)
    for i, (n, ln) in enumerate(lines[1:]):
        parts = ln.split(",")
        if len(parts) != 2:
            raise TrmSampleError(f"{path}:{n}: expected 're,im', got {ln!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise TrmSampleError(f"{path}:{n}: unparseable sample {ln!r}") from exc
        if not (math.isfinite(re) and math.isfinite(im)):
            raise TrmSampleError(f"{path}:{n}: non-finite sample {ln!r}")
        samples[i] = complex(re, im)

    return Trm(
        data=samples.reshape(m_expected, s_expected),
        row_pulse_indices=schedule.valid_indices,
        delta_t=cfg.delta_t,
        noise_sigma=header["sigma"],
    )


def write_trm_file(trm: Trm, path) -> None:
    """Write a TRM in the ingestion format (full double precision), with
    its noise level as sigma= unless that is unknown."""
    m_count, s_count = trm.data.shape
    sigma = "" if trm.noise_sigma is None else f" sigma={trm.noise_sigma:.17g}"
    with open(path, "w", encoding="ascii") as f:
        f.write(
            f"{TRM_MAGIC} {TRM_VERSION} M={m_count} S={s_count} "
            f"dt={trm.delta_t:.17g} order=row-major{sigma}\n"
        )
        for z in trm.data.reshape(-1):
            f.write(f"{z.real:.17g},{z.imag:.17g}\n")


PROFILE_HEADER = "range_m,magnitude,phase_rad"


def export_profile(values, axis: np.ndarray, path) -> None:
    """Dump a complex profile as range/magnitude/phase CSV, nine significant
    digits."""
    values = np.asarray(values, dtype=np.complex128)
    axis = np.asarray(axis, dtype=float)
    if values.size != axis.size:
        raise ValueError(
            f"profile has {values.size} cells but axis has {axis.size}"
        )
    # libm's hypot and atan2 per cell: numpy's vectorised loops may round
    # the last bit differently, and nine digits can show it
    table = np.column_stack([
        axis,
        list(map(abs, values.tolist())),
        list(map(math.atan2, values.imag.tolist(), values.real.tolist())),
    ])
    with open(path, "w", encoding="ascii") as f:
        f.write(PROFILE_HEADER + "\n")
        f.write(("%.9g,%.9g,%.9g\n" * axis.size) % tuple(table.ravel().tolist()))


def load_profile_csv(path) -> np.ndarray:
    """Read back a profile CSV into a complex vector.

    A row whose three columns do not all parse to finite numbers raises
    ValueError naming its line in the file, blank lines counted.
    """
    lines = _numbered_lines(path)
    if not lines or lines[0][1] != PROFILE_HEADER:
        raise ValueError(
            f"{path}: expected header {PROFILE_HEADER!r}, "
            f"got {lines[0][1] if lines else ''!r}"
        )
    values = []
    for n, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{n}: expected 3 columns, got {ln!r}")
        try:
            range_m, mag, phase = map(float, parts)
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from exc
        if not all(map(math.isfinite, (range_m, mag, phase))):
            raise ValueError(f"{path}:{n}: non-finite value in {ln!r}")
        values.append(mag * complex(math.cos(phase), math.sin(phase)))
    return np.asarray(values, dtype=np.complex128)
