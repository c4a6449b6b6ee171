"""Coefficient <-> covariogram conversions, conditioning, Fourier blocks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from circlenoise import (
    CovarianceKernel,
    NotPositiveDefinite,
    PreconditionViolation,
    SpectralSequence,
    coeffs_from_covariogram,
    condition_at_zero,
    covariogram_from_coeffs,
    fourier_matrices,
    operator_oracle,
    sample_H,
    sample_H0,
)
from circlenoise.spectral import basis_matrices, lag_table, trapezoid_nodes

from conftest import conditioned_kernel, random_spectrum


def tent(tau):
    # triangle wave on circumference 2: 1/4 at 0, -1/4 at 1
    d = np.abs(np.asarray(tau, dtype=float)) % 2.0
    d = np.minimum(d, 2.0 - d)
    return 0.25 - 0.5 * d


def test_sequence_validation():
    with pytest.raises(ValueError):
        SpectralSequence([1.0, -0.5], domain_length=1.0)
    with pytest.raises(ValueError):
        SpectralSequence([1.0, np.inf], domain_length=1.0)
    with pytest.raises(ValueError):
        SpectralSequence([[1.0, 0.5]], domain_length=1.0)
    with pytest.raises(ValueError):
        SpectralSequence([1.0, 0.5], domain_length=0.0)


def test_variance_weight_arithmetic():
    seq = SpectralSequence([1.0, 2.0], domain_length=2.0)
    np.testing.assert_allclose(seq.variance_weights(), [0.25, 2.0])
    np.testing.assert_allclose(seq.kl_variances(), [0.25, 1.0])
    assert seq.total_variance() == pytest.approx(2.25)
    assert list(seq.support()) == [1]


def test_covariogram_constant_and_single_cosine():
    const = covariogram_from_coeffs(SpectralSequence([3.0], domain_length=1.5))
    tau = np.linspace(0.0, 1.5, 7)
    np.testing.assert_allclose(const.evaluate(tau), 4.0 * np.ones(7))

    seq = SpectralSequence([0.0, 1.0], domain_length=1.0)
    cov = covariogram_from_coeffs(seq)
    np.testing.assert_allclose(cov.evaluate(tau), 2.0 * np.cos(2.0 * np.pi * tau), atol=1e-14)


def test_trapezoid_weights_normalized():
    t, w = trapezoid_nodes(2.0, 16)
    assert t.shape == w.shape == (17,)
    assert w.sum() == pytest.approx(1.0)
    # exact for trigonometric polynomials below the Nyquist index
    for k in range(1, 8):
        assert abs(np.sum(w * np.cos(np.pi * k * t))) < 1e-14


def test_basis_orthonormal_under_quadrature():
    K, L, M = 6, 1.0, 64
    t, w = trapezoid_nodes(L, M)
    Cb, Sb = basis_matrices(K, t, L)
    np.testing.assert_allclose((Cb * w) @ Cb.T, np.eye(K + 1), atol=1e-13)
    np.testing.assert_allclose((Sb * w) @ Sb.T, np.eye(K), atol=1e-13)
    np.testing.assert_allclose((Sb * w) @ Cb.T, np.zeros((K, K + 1)), atol=1e-13)


def test_tent_covariogram_has_odd_reciprocal_coefficients():
    kernel = CovarianceKernel(evaluate=tent, domain_length=2.0, kind="stationary")
    seq = coeffs_from_covariogram(kernel, K=15, M=4096)
    n = np.arange(16)
    expected = np.where(n % 2 == 1, 2.0 / (np.pi * np.maximum(n, 1)), 0.0)
    assert seq.domain_length == 2.0
    np.testing.assert_allclose(seq.coeffs, expected, atol=2e-5)


def test_tent_round_trip_back_to_covariogram():
    seq = SpectralSequence(
        np.where(np.arange(200) % 2 == 1, 2.0 / (np.pi * np.maximum(np.arange(200), 1)), 0.0),
        domain_length=2.0,
    )
    cov = covariogram_from_coeffs(seq)
    tau = np.linspace(0.0, 2.0, 101)
    np.testing.assert_allclose(cov.evaluate(tau), tent(tau), atol=1e-3)


def test_round_trip_random_spectrum(rng):
    for L in (1.0, 2.0):
        seq = random_spectrum(rng, K=32, L=L)
        got = coeffs_from_covariogram(covariogram_from_coeffs(seq), K=32, M=16 * 32)
        np.testing.assert_allclose(got.coeffs, seq.coeffs, rtol=1e-8, atol=1e-8)


def test_negative_coefficient_clamped_or_rejected():
    base = SpectralSequence([1.0, 0.5], domain_length=1.0)
    C0 = base.total_variance()

    def dented(eps):
        def C(tau):
            t = np.asarray(tau, dtype=float)
            return covariogram_from_coeffs(base).evaluate(t) - eps * np.cos(4.0 * np.pi * t)
        return CovarianceKernel(evaluate=C, domain_length=1.0, kind="stationary")

    # a dent below the clamp threshold is zeroed, a visible one raises
    got, diag = coeffs_from_covariogram(dented(1e-12 * C0), K=4, return_diagnostics=True)
    assert got.coeffs[2] == 0.0
    assert 2 in diag["clamped_indices"]
    with pytest.raises(NotPositiveDefinite):
        coeffs_from_covariogram(dented(1e-3 * C0), K=4)


def test_condition_at_zero_vanishes_on_axes(rng):
    seq = random_spectrum(rng, K=6)
    R = conditioned_kernel(seq)
    t = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(R.pair(np.zeros_like(t), t))) < 1e-12
    assert np.max(np.abs(R.pair(t, np.zeros_like(t)))) < 1e-12
    # symmetric
    s = rng.uniform(0.0, 1.0, size=40)
    u = rng.uniform(0.0, 1.0, size=40)
    np.testing.assert_allclose(R.pair(s, u), R.pair(u, s), atol=1e-14)


def test_condition_matches_direct_formula(rng):
    seq = random_spectrum(rng, K=5)
    C = covariogram_from_coeffs(seq)
    R = condition_at_zero(C)
    s, t = 0.3, 0.8
    want = C.evaluate(t - s) - C.evaluate(s) * C.evaluate(t) / C.evaluate(0.0)
    assert R.pair(s, t) == pytest.approx(want, rel=1e-14)


def test_condition_requires_stationary_kernel():
    R = CovarianceKernel(lambda s, t: np.minimum(s, t), 1.0, "conditioned")
    with pytest.raises(PreconditionViolation):
        condition_at_zero(R)


def test_validate_stationary_rejects_nonperiodic():
    bad = CovarianceKernel(lambda tau: 1.0 - np.asarray(tau) ** 2, 1.0, "stationary")
    with pytest.raises(PreconditionViolation):
        bad.validate_stationary()


def test_fourier_matrices_of_sine_product():
    R = CovarianceKernel(
        lambda s, t: np.sin(2.0 * np.pi * np.asarray(s)) * np.sin(2.0 * np.pi * np.asarray(t)),
        1.0,
        "conditioned",
    )
    mats = fourier_matrices(R, K=3, M=512)
    want_ss = np.zeros((3, 3))
    want_ss[0, 0] = 0.5
    np.testing.assert_allclose(mats.rss, want_ss, atol=1e-12)
    np.testing.assert_allclose(mats.rcc, np.zeros((4, 4)), atol=1e-12)
    np.testing.assert_allclose(mats.rsc, np.zeros((3, 4)), atol=1e-12)


def test_mixed_blocks_vanish_for_conditioned_kernels(rng):
    seq = random_spectrum(rng, K=5)
    mats = fourier_matrices(conditioned_kernel(seq), K=5)
    scale = mats.scale()
    assert np.max(np.abs(mats.rsc)) < 1e-10 * scale
    assert np.max(np.abs(mats.rcs)) < 1e-10 * scale


def test_discretized_conditioned_kernel_near_psd(rng):
    seq = random_spectrum(rng, K=6)
    R = conditioned_kernel(seq)
    grid = np.linspace(0.0, 1.0, 129)[:-1]
    eigs = np.linalg.eigvalsh(R.matrix(grid) / grid.size)
    assert eigs.min() >= -1e-8


# --- lag-table tabulation against the pointwise path ---------------------

# (K, n): n below 2K aliases frequencies at or above n / 2 onto the grid
LAG_SIZES = [(0, 1), (3, 2), (5, 8), (7, 7), (9, 10), (20, 16), (40, 17), (64, 300)]


def opaque(kernel):
    return dataclasses.replace(kernel, spectrum=None)


@pytest.mark.parametrize("L", [1.0, 2.0])
@pytest.mark.parametrize("K,n", LAG_SIZES)
def test_lag_table_matches_pointwise_covariogram(rng, K, n, L):
    seq = random_spectrum(rng, K=K, L=L)
    C = covariogram_from_coeffs(seq)
    want = C.evaluate(np.arange(n) * (L / n))
    np.testing.assert_allclose(lag_table(seq, n), want, rtol=0, atol=1e-12 * C.evaluate(0.0))


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("conditioned", [False, True])
@pytest.mark.parametrize("L", [1.0, 2.0])
@pytest.mark.parametrize("K,n", LAG_SIZES[1:])
def test_grid_matrix_matches_pointwise_matrix(rng, K, n, L, conditioned, closed):
    seq = random_spectrum(rng, K=K, L=L)
    C = covariogram_from_coeffs(seq)
    kernel = condition_at_zero(C) if conditioned else C
    grid = np.linspace(0.0, L, n + 1)[: n + closed]
    got = kernel.grid_matrix(n, closed)
    assert got.shape == (grid.size, grid.size)
    np.testing.assert_allclose(got, kernel.matrix(grid), rtol=0, atol=1e-12 * C.evaluate(0.0))
    np.testing.assert_array_equal(opaque(kernel).grid_matrix(n, closed), kernel.matrix(grid))


@pytest.mark.parametrize("L", [1.0, 2.0])
@pytest.mark.parametrize("K,M", [(4, None), (16, 64), (33, 140)])
def test_fourier_matrices_match_opaque_kernel(rng, K, M, L):
    kernel = conditioned_kernel(random_spectrum(rng, K=K, L=L))
    got = fourier_matrices(kernel, K=K, M=M)
    want = fourier_matrices(opaque(kernel), K=K, M=M)
    for block in ("rcc", "rss", "rsc", "rcs"):
        np.testing.assert_allclose(
            getattr(got, block), getattr(want, block), rtol=0, atol=1e-12 * want.scale()
        )


def test_operator_oracle_matches_opaque_kernel(rng):
    kernel = conditioned_kernel(random_spectrum(rng, K=24, L=2.0))
    got = operator_oracle(kernel, m=160)
    want = operator_oracle(opaque(kernel), m=160)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * want[0])


@pytest.mark.parametrize("N", [64, 65])
def test_sample_H0_matches_pointwise_conditioning(rng, N):
    seq = random_spectrum(rng, K=20, L=2.0)
    x = sample_H(seq, N, seed=11).values
    profile = covariogram_from_coeffs(seq).evaluate(np.arange(N) * (2.0 / N))
    want = x - x[0] * profile / profile[0]
    got = sample_H0(seq, N, seed=11).values
    assert got[0] == 0.0
    np.testing.assert_allclose(got[1:], want[1:], rtol=0, atol=1e-12 * np.abs(x).max())


def test_fourier_matrices_memory_stays_quadratic_in_grid(rng):
    # the pointwise path holds an (M+1)^2 x (K+1) cosine temporary: 2 GB here
    kernel = conditioned_kernel(random_spectrum(rng, K=256))
    tracemalloc.start()
    try:
        fourier_matrices(kernel, K=256, M=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


# --- forward transform against the trapezoid cosine sum -------------------


def cosine_sum_coeffs(kernel, K, M):
    # c_n^2 = L^2 sum_i w_i C(t_i) cos(2 pi n t_i / L), term by term
    L = kernel.domain_length
    t, w = trapezoid_nodes(L, M)
    cosines = np.cos((2.0 * np.pi / L) * np.multiply.outer(np.arange(K + 1), t))
    return L**2 * (cosines @ (w * kernel.evaluate(t)))


def tilted_table_kernel(seq, points):
    # linear interpolation of a sampled covariogram plus a small linear
    # tilt, read without wrapping, so the table's end values differ
    L = seq.domain_length
    grid = np.linspace(0.0, L, points)
    values = covariogram_from_coeffs(seq).evaluate(grid) + 1e-3 * grid / L
    return CovarianceKernel(
        evaluate=lambda tau: np.interp(tau, grid, values), domain_length=L, grid_resolution=points
    )


@pytest.mark.parametrize("L", [1.0, 2.0])
@pytest.mark.parametrize("K,M", [(20, None), (20, 80), (7, 45)])
def test_coeffs_from_covariogram_is_the_trapezoid_cosine_sum(rng, K, M, L):
    seq = SpectralSequence(rng.uniform(0.5, 2.0, size=K + 1), domain_length=L)
    quad = max(4 * K, 512) if M is None else M
    for kernel in (covariogram_from_coeffs(seq), tilted_table_kernel(seq, 61)):
        ends = kernel.evaluate(np.array([0.0, L]))
        want = cosine_sum_coeffs(kernel, K, quad)
        assert want.min() > 0.0
        got = coeffs_from_covariogram(kernel, K, M=M).coeffs ** 2
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * ends[0])
    # the table kernel is not periodic on its own grid
    assert ends[0] != ends[1]
