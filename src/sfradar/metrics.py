"""Profile-quality metrics.

The headline score is the normalized cross-correlation of magnitude
profiles, maximized over a bounded circular shift: global phase and
scale carry no profiling information, and a small alignment search
absorbs off-by-a-cell placement. A relative l2 error on the complex
values rounds out the report; peak_sidelobe_db is a separate diagnostic.
"""

import math
from dataclasses import dataclass

import numpy as np

SHIFT_BOUND_DIVISOR = 8  # alignment search spans +/- n_cells / 8
PSL_FLOOR_DB = -300.0


@dataclass(frozen=True)
class SimilarityReport:
    similarity: float
    rel_l2_error: float


def _magnitudes(profile) -> np.ndarray:
    return np.abs(np.asarray(profile, dtype=np.complex128))


def similarity(truth, estimate) -> SimilarityReport:
    """Score an estimated profile against the truth.

    similarity is max over circular shifts d in [-n/8, n/8] of
    <|truth|, shift(|estimate|, d)> / (|||truth||| * |||estimate|||),
    which is 1 exactly when the magnitude profiles are positive scalar
    multiples of each other at the best shift, and 0 for a zero-valued
    estimate.
    """
    error = rel_l2_error(truth, estimate)  # checks the lengths and the truth
    a = _magnitudes(truth)
    b = _magnitudes(estimate)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))

    best_score = 0.0
    if norm_b > 0.0:
        n = a.size
        bound = n // SHIFT_BOUND_DIVISOR
        # score k is <a, np.roll(b, bound - k)>, so the scores span the
        # shifts d in [-bound, bound]: the length-n windows of b padded
        # circularly by bound on each side, one BLAS dot per window
        padded = np.concatenate((b[n - bound:], b, b[:bound]))
        scores = np.correlate(padded, a, "valid") / (norm_a * norm_b)
        best_score = min(float(scores.max()), 1.0)

    return SimilarityReport(similarity=best_score, rel_l2_error=error)


def rel_l2_error(truth, estimate) -> float:
    """||truth - estimate||_2 / ||truth||_2 on complex values, unaligned."""
    t = np.asarray(truth, dtype=np.complex128)
    e = np.asarray(estimate, dtype=np.complex128)
    if t.size != e.size:
        raise ValueError(f"profile lengths differ: {t.size} vs {e.size}")
    norm_t = float(np.linalg.norm(t))
    if norm_t == 0.0:
        raise ValueError("truth profile is identically zero")
    return float(np.linalg.norm(t - e)) / norm_t


def peak_sidelobe_db(profile, mainlobe_halfwidth: int = 1) -> float:
    """Highest magnitude outside the mainlobe, in dB relative to the peak.

    The mainlobe is the +/- mainlobe_halfwidth cells around the global
    magnitude peak. An estimate with nothing outside the mainlobe reports
    the -300 dB floor.
    """
    mag = _magnitudes(profile)
    peak = float(np.max(mag)) if mag.size else 0.0
    if peak == 0.0:
        raise ValueError("profile is identically zero")
    k = int(np.argmax(mag))
    cells = np.arange(mag.size)
    outside = mag[np.abs(cells - k) > mainlobe_halfwidth]
    top = float(np.max(outside)) if outside.size else 0.0
    if top == 0.0:
        return PSL_FLOOR_DB
    return max(20.0 * math.log10(top / peak), PSL_FLOOR_DB)
