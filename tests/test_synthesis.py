"""Seeded path synthesis and periodicity classification."""

import numpy as np
import pytest

from circlenoise import (
    AllZeroKernel,
    SpectralSequence,
    UnderResolved,
    classify_periodicity,
    draw_coefficients,
    rng_from_seed,
    sample_H,
    sample_H0,
)


def brute_force_path(seq, N, draw):
    # direct trigonometric sum; the fft route must agree to round-off
    c = seq.coeffs
    L = seq.domain_length
    t = np.arange(N) * (L / N)
    x = np.full(N, c[0] * draw.Yp[0], dtype=float)
    for k in range(1, c.size):
        ang = 2.0 * np.pi * k * t / L
        x += c[k] * np.sqrt(2.0) * (np.sin(ang) * draw.Y[k - 1] + np.cos(ang) * draw.Yp[k])
    return x / L


def test_draw_consumes_stream_in_documented_order():
    K, seed = 5, 123
    draw = draw_coefficients(K, seed)
    z = rng_from_seed(seed).standard_normal(2 * K + 1)
    assert draw.Yp[0] == z[0]
    np.testing.assert_array_equal(draw.Y, z[1::2])
    np.testing.assert_array_equal(draw.Yp[1:], z[2::2])


def test_draw_moments_at_scale():
    draws = draw_coefficients(20000, seed=99)
    z = np.concatenate([draws.Y, draws.Yp])
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_sample_matches_brute_force():
    seq = SpectralSequence([0.7, 1.1, 0.0, 0.4], domain_length=2.0)
    draw = draw_coefficients(3, seed=42)
    path = sample_H(seq, N=64, draw=draw)
    np.testing.assert_allclose(path.values, brute_force_path(seq, 64, draw), atol=1e-12)
    assert path.t_step == pytest.approx(2.0 / 64)
    np.testing.assert_allclose(path.grid_points, np.arange(64) * (2.0 / 64))


def test_seeded_paths_reproducible():
    seq = SpectralSequence([1.0, 0.5, 0.2], domain_length=1.0)
    a = sample_H(seq, N=32, seed=7)
    b = sample_H(seq, N=32, seed=7)
    np.testing.assert_array_equal(a.values, b.values)
    c = sample_H(seq, N=32, seed=8)
    assert np.any(a.values != c.values)


def test_conditioned_path_starts_at_zero():
    seq = SpectralSequence([1.0, 0.5, 0.2], domain_length=1.0)
    for seed in range(5):
        path = sample_H0(seq, N=64, seed=seed)
        assert path.values[0] == 0.0


def test_conditioning_is_projection_correction():
    seq = SpectralSequence([1.0, 0.5, 0.2], domain_length=1.0)
    draw = draw_coefficients(2, seed=3)
    x = sample_H(seq, N=64, draw=draw).values
    y = sample_H0(seq, N=64, draw=draw).values
    C = seq.variance_weights()
    t = np.arange(64) / 64
    profile = C[0] + C[1] * np.cos(2 * np.pi * t) + C[2] * np.cos(4 * np.pi * t)
    want = x - x[0] * profile / seq.total_variance()
    np.testing.assert_allclose(y, want, atol=1e-12)


def test_under_resolved_grid_rejected():
    seq = SpectralSequence(np.ones(9), domain_length=1.0)
    with pytest.raises(UnderResolved):
        sample_H(seq, N=17, seed=0)
    sample_H(seq, N=18, seed=0)


def test_zero_sequence_cannot_be_conditioned():
    seq = SpectralSequence(np.zeros(4), domain_length=1.0)
    with pytest.raises(AllZeroKernel):
        sample_H0(seq, N=16, seed=0)


def test_variance_is_time_independent():
    seq = SpectralSequence([0.8, 1.2, 0.3, 0.6], domain_length=1.0)
    reps, N = 4000, 16
    vals = np.empty((reps, N))
    for i in range(reps):
        vals[i] = sample_H(seq, N=N, seed=i).values
    var = vals.var(axis=0)
    want = seq.total_variance()
    # chi-square spread of a variance estimate: sd ~ want * sqrt(2/reps)
    assert np.max(np.abs(var - want)) < 5.0 * want * np.sqrt(2.0 / reps)


def test_odd_support_paths_antiperiodic_on_half_turn():
    seq = SpectralSequence([0.0, 1.0, 0.0, 0.5], domain_length=2.0)
    path = sample_H(seq, N=128, seed=11)
    np.testing.assert_allclose(
        path.values[64:], -path.values[:64], atol=1e-12
    )


def test_even_support_paths_repeat_on_half_turn():
    seq = SpectralSequence([0.0, 0.0, 1.0, 0.0, 0.5], domain_length=2.0)
    path = sample_H(seq, N=128, seed=11)
    np.testing.assert_allclose(path.values[64:], path.values[:64], atol=1e-12)


@pytest.mark.parametrize(
    "coeffs,kind,divisor",
    [
        ([0.0, 1.0, 0.0, 0.5, 0.0, 0.2], "antiperiodic", None),
        ([0.3, 0.0, 1.0, 0.0, 0.5, 0.0, 0.2], "periodic", 2),
        ([0.0, 1.0, 0.5], "mixed", None),
        ([1.5], "periodic", 1),
        ([0.2, 0.0, 0.0, 1.0, 0.0, 0.0, 0.4], "periodic", 3),
        ([0.5, 1.0, 0.0, 0.5], "mixed", None),
        # c_0 = L sqrt(A_0) with A_0 at rounding scale, as check_generator returns it
        ([1e-9, 1.0, 0.0, 0.5, 0.0, 0.2], "antiperiodic", None),
    ],
)
def test_classify_periodicity(coeffs, kind, divisor):
    got = classify_periodicity(SpectralSequence(coeffs, domain_length=2.0))
    assert got.kind == kind
    if divisor is not None:
        assert got.divisor == divisor


def test_classify_rejects_all_zero():
    with pytest.raises(AllZeroKernel):
        classify_periodicity(SpectralSequence(np.zeros(3), domain_length=1.0))
