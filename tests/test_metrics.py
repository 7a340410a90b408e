import numpy as np
import pytest

from sfradar import peak_sidelobe_db, rel_l2_error, similarity


def brute_force_similarity(a, b, bound):
    """All-shifts oracle with explicit modular indexing."""
    a = np.abs(np.asarray(a))
    b = np.abs(np.asarray(b))
    n = a.size
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    best = 0.0
    for d in range(-bound, bound + 1):
        acc = 0.0
        for i in range(n):
            acc += a[i] * b[(i - d) % n]
        best = max(best, acc / denom)
    return best


def test_similarity_identity():
    rng = np.random.default_rng(51)
    h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    report = similarity(h, h)
    assert report.similarity == pytest.approx(1.0, abs=1e-12)
    assert report.rel_l2_error == 0.0


def test_similarity_scale_invariant():
    rng = np.random.default_rng(52)
    h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert similarity(h, 3.7 * h).similarity == pytest.approx(1.0, abs=1e-12)
    # arbitrary complex scale: global phase means nothing for magnitudes
    c = 0.3 - 2.1j
    assert similarity(h, c * h).similarity == pytest.approx(1.0, abs=1e-12)


def test_similarity_disjoint_supports_and_shift_search():
    n = 64
    truth = np.zeros(n, dtype=complex)
    estimate = np.zeros(n, dtype=complex)
    truth[2::8] = 1.0
    estimate[3::8] = 1.0  # same comb, one cell late
    # at shift 0 the supports are disjoint
    overlap_zero = float(np.dot(np.abs(truth), np.abs(estimate)))
    assert overlap_zero == 0.0
    report = similarity(truth, estimate)
    oracle = brute_force_similarity(truth, estimate, n // 8)
    assert report.similarity == pytest.approx(oracle, abs=1e-12)
    assert report.similarity == pytest.approx(1.0, abs=1e-12)  # comb realigns


def test_similarity_matches_brute_force_on_random_profiles():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        b = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        got = similarity(a, b).similarity
        want = brute_force_similarity(a, b, 48 // 8)
        assert got == pytest.approx(min(want, 1.0), abs=1e-12)


def shift_search_oracle(a, b):
    """The best score of a loop over the shifts d in [-n // 8, n // 8]."""
    a = np.abs(np.asarray(a))
    b = np.abs(np.asarray(b))
    n = a.size
    cells = np.arange(n)
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    best = 0.0
    for d in range(-(n // 8), n // 8 + 1):
        score = float(np.dot(a, b[(cells - d) % n])) / denom
        best = max(best, score)
    return best


@pytest.mark.parametrize("n", [384, 1024])
def test_similarity_shift_search_matches_loop_oracle(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        truth = np.zeros(n, dtype=complex)
        cells = rng.choice(n, n // 16, replace=False)
        truth[cells] = rng.standard_normal(cells.size) + 1j * rng.standard_normal(cells.size)
        # a shifted copy with spurious cells, as a misplaced estimate looks
        estimate = np.roll(truth, rng.integers(-(n // 8), n // 8 + 1))
        extra = rng.choice(n, n // 32, replace=False)
        estimate[extra] += 0.3 * rng.standard_normal(extra.size)
        report = similarity(truth, estimate)
        score = shift_search_oracle(truth, estimate)
        assert report.similarity == pytest.approx(min(score, 1.0), rel=1e-12)


def roll_oracle(a, b):
    """The best score over explicit np.roll copies of |b|, d in [-n // 8, n // 8]."""
    a = np.abs(np.asarray(a))
    b = np.abs(np.asarray(b))
    n = a.size
    norm_b = np.linalg.norm(b)
    if norm_b == 0:
        return 0.0
    scores = [a @ np.roll(b, d) for d in range(-(n // 8), n // 8 + 1)]
    return min(max(scores) / (np.linalg.norm(a) * norm_b), 1.0)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 384, 1024])
def test_similarity_matches_a_roll_oracle(n):
    # n = 1 and 7 search no shift, 8 and 9 one each way
    rng = np.random.default_rng(n + 1)
    for _ in range(5):
        truth = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        estimate = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        estimate[rng.random(n) < 0.5] = 0
        got = similarity(truth, estimate).similarity
        assert got == pytest.approx(roll_oracle(truth, estimate), abs=1e-12)
    zero = np.zeros(n, dtype=complex)
    assert similarity(truth, zero).similarity == roll_oracle(truth, zero) == 0.0


def test_similarity_shift_tie_scores_one_spike():
    truth = np.zeros(64, dtype=complex)
    truth[20] = 1.0
    estimate = np.zeros(64, dtype=complex)
    estimate[[17, 23]] = 1.0  # shifts -3 and +3 align one spike each
    report = similarity(truth, estimate)
    assert report.similarity == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_similarity_symmetric():
    rng = np.random.default_rng(54)
    a = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    b = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    assert similarity(a, b).similarity == pytest.approx(
        similarity(b, a).similarity, abs=1e-12
    )


def test_similarity_never_exceeds_one():
    rng = np.random.default_rng(55)
    for _ in range(50):
        a = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        assert similarity(a, a * rng.uniform(0.1, 10)).similarity <= 1.0 + 1e-12


def test_similarity_zero_estimate():
    truth = np.ones(32, dtype=complex)
    report = similarity(truth, np.zeros(32, dtype=complex))
    assert report.similarity == 0.0
    assert report.rel_l2_error == 1.0


def test_similarity_errors():
    with pytest.raises(ValueError):
        similarity(np.ones(8), np.ones(9))
    with pytest.raises(ValueError):
        similarity(np.zeros(8), np.ones(8))


def test_rel_l2_error_cases():
    rng = np.random.default_rng(56)
    h = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    assert rel_l2_error(h, h) == 0.0
    assert rel_l2_error(h, np.zeros_like(h)) == pytest.approx(1.0)
    bump = np.zeros_like(h)
    bump[5] = np.linalg.norm(h)
    assert rel_l2_error(h, h + bump) == pytest.approx(1.0)


def test_peak_sidelobe_single_cell_floor():
    profile = np.zeros(64, dtype=complex)
    profile[10] = 2.0 - 1.0j
    assert peak_sidelobe_db(profile, mainlobe_halfwidth=1) == -300.0


def test_peak_sidelobe_two_equal_peaks():
    profile = np.zeros(64, dtype=complex)
    profile[5] = 1.0
    profile[50] = 1.0
    assert peak_sidelobe_db(profile, mainlobe_halfwidth=1) == pytest.approx(0.0)


def test_peak_sidelobe_matches_brute_force_scan():
    # zero-filled complex exponential column: 20 of 32 pulses survive
    rng = np.random.default_rng(57)
    keep = np.sort(rng.choice(32, 20, replace=False))
    column = np.zeros(32, dtype=complex)
    column[keep] = np.exp(-2j * np.pi * keep * 7 / 32)
    profile = np.fft.ifft(column)
    got = peak_sidelobe_db(profile, mainlobe_halfwidth=1)
    # independent scan over magnitudes
    mags = np.abs(profile)
    peak_idx = max(range(32), key=lambda i: mags[i])
    lobes = [m for i, m in enumerate(mags) if abs(i - peak_idx) > 1]
    expected = 20 * np.log10(max(lobes) / mags[peak_idx])
    assert got == pytest.approx(expected, rel=1e-12)


def test_peak_sidelobe_rejects_zero_profile():
    with pytest.raises(ValueError):
        peak_sidelobe_db(np.zeros(16, dtype=complex))
