"""Property tests of the sensing operator over small random gates.

Each example draws a gate (pulses, coarse bins, sampling rate), a pulse
shape and a pulse schedule, and checks the matrix-free operator and the
identities the solvers rely on against the dense oracle phi.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfradar import (
    PulseSchedule,
    PulseShape,
    RadarConfig,
    RangeProfile,
    build_sensing_system,
    build_trm,
)
from sfradar.model import WINDOWS
from sfradar.solvers import operator_norm_sq

DELTA_F = 16e6


@st.composite
def systems(draw, full=None):
    """(config, profile values, system) for a random gate, shape and schedule."""
    n_pulses = draw(st.integers(2, 8))
    l_bins = draw(st.integers(1, 4))
    bandwidth = DELTA_F * draw(st.sampled_from([1.0, 1.5, 2.0, 2.5]))
    oversample = draw(st.sampled_from([1.0, 1.3, 2.0]))
    cfg = RadarConfig(
        f_c=5e9, delta_f=DELTA_F, n_pulses=n_pulses, pulse_bandwidth=bandwidth,
        delta_t=1.0 / (bandwidth * oversample), l_bins=l_bins,
    )
    if draw(st.booleans()):
        shape = PulseShape.ideal_sinc(bandwidth)
    else:
        shape = PulseShape.windowed_sinc(
            bandwidth, draw(st.sampled_from(WINDOWS)),
            draw(st.floats(0.5, 4.0)) / bandwidth,
        )
    if full is None:
        full = draw(st.booleans())
    if full:
        schedule = PulseSchedule.full(n_pulses)
    else:
        kept = draw(st.sets(st.integers(0, n_pulses - 1), min_size=1))
        schedule = PulseSchedule(tuple(sorted(kept)), n_pulses)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal(cfg.n_cells) + 1j * rng.standard_normal(cfg.n_cells)
    trm = build_trm(RangeProfile(values, cfg), schedule, shape)
    return cfg, values, build_sensing_system(cfg, shape, schedule, trm)


def structural_bound(cfg, sys_) -> float:
    """N max_n lambda_max(K_n), K_n[l, l'] = sum_s E[s, lN+n] E[s, l'N+n].

    This is the squared norm of the operator with every pulse present,
    where the sum over pulses decouples the cells by n = p mod N; dropping
    pulses can only lower it.
    """
    n, l_bins = cfg.n_pulses, cfg.l_bins
    e = sys_.envelopes.reshape(-1, l_bins, n)  # e[s, l, n] = E[s, l N + n]
    k = np.einsum("sln,skn->nlk", e, e)
    return n * float(np.max(np.linalg.eigvalsh(k)[:, -1]))


# fixed examples and no example database: tier-1 runs read the same each time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(systems())
def test_operator_reproduces_echo_synthesis(case):
    _, values, sys_ = case
    atol = 1e-12 * float(np.abs(values).sum())
    assert np.allclose(sys_.phi @ values, sys_.y, rtol=0, atol=atol)


@PROPERTY
@given(systems())
def test_trm_is_the_operator_applied_to_the_profile(case):
    # echo synthesis and the operator share one kernel: no roundoff apart
    _, values, sys_ = case
    assert np.array_equal(sys_.apply(values), sys_.y)


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_apply_matches_dense(case, seed):
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(sys_.n_cells) + 1j * rng.standard_normal(sys_.n_cells)
    bound = 1e-12 * np.linalg.norm(sys_.phi) * np.linalg.norm(h)
    assert np.linalg.norm(sys_.apply(h) - sys_.phi @ h) <= bound


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_adjoint_matches_dense(case, seed):
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(sys_.n_rows) + 1j * rng.standard_normal(sys_.n_rows)
    bound = 1e-12 * np.linalg.norm(sys_.phi) * np.linalg.norm(v)
    assert np.linalg.norm(sys_.adjoint(v) - sys_.phi.conj().T @ v) <= bound


@PROPERTY
@given(systems())
def test_gram_from_factors_matches_dense(case):
    _, _, sys_ = case
    dense = sys_.phi.conj().T @ sys_.phi
    scale = max(float(np.max(np.abs(dense))), np.finfo(float).tiny)
    assert np.max(np.abs(sys_.gram() - dense)) <= 1e-12 * scale


@PROPERTY
@given(systems(), st.integers(0, 2**32 - 1))
def test_adjoint_identity(case, seed):
    _, _, sys_ = case
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(sys_.n_cells) + 1j * rng.standard_normal(sys_.n_cells)
    v = rng.standard_normal(sys_.n_rows) + 1j * rng.standard_normal(sys_.n_rows)
    lhs = np.vdot(v, sys_.apply(h))
    rhs = np.vdot(sys_.adjoint(v), h)
    scale = np.linalg.norm(v) * np.linalg.norm(sys_.phi) * np.linalg.norm(h)
    assert abs(lhs - rhs) <= 1e-12 * scale


@PROPERTY
@given(systems())
def test_operator_norm_sq_is_exact(case):
    _, _, sys_ = case
    exact = np.linalg.norm(sys_.phi, 2) ** 2
    assert operator_norm_sq(sys_) == pytest.approx(exact, rel=1e-10)


@PROPERTY
@given(systems())
def test_operator_norm_sq_within_structural_bound(case):
    cfg, _, sys_ = case
    assert operator_norm_sq(sys_) <= structural_bound(cfg, sys_) * (1 + 1e-10)


@PROPERTY
@given(systems(full=True))
def test_structural_bound_exact_on_full_schedule(case):
    cfg, _, sys_ = case
    bound = structural_bound(cfg, sys_)
    assert operator_norm_sq(sys_) == pytest.approx(bound, rel=1e-10)
