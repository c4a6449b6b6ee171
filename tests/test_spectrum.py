"""Secular-equation spectrum of the conditioned operator vs a dense oracle."""

import tracemalloc
import warnings

import numpy as np
import pytest

from circlenoise import (
    ClusterAmbiguity,
    PreconditionViolation,
    SpectralSequence,
    conditioned_spectrum,
    operator_oracle,
    secular_value,
    verify_interlacing,
)

from circlenoise.spectrum import GRAY_ZONE_FACTOR

from conftest import conditioned_kernel, random_spectrum

# two-gap fixture a = (0.5, 0.2, 0.05); roots frozen from a converged solve
THREE_VAR = np.sqrt([0.5, 0.2, 0.05])
ROOT_HI = 0.3418735465037669
ROOT_LO = 0.07312645349623313


def test_secular_value_at_zero_is_total_variance():
    a = np.array([0.5, 0.2, 0.05])
    assert secular_value(a, 0.0) == pytest.approx(1.0)
    assert secular_value(2.0 * a, 0.0) == pytest.approx(2.0)


def test_frozen_roots_satisfy_secular_equation():
    a = np.array([0.5, 0.2, 0.05])
    assert secular_value(a, ROOT_HI) == pytest.approx(1.0, abs=1e-12)
    assert secular_value(a, ROOT_LO) == pytest.approx(1.0, abs=1e-12)


def test_three_variance_spectrum():
    seq = SpectralSequence(THREE_VAR, domain_length=1.0)
    sys = conditioned_spectrum(seq)

    assert sorted(v for v, _ in sys.sine_pairs) == pytest.approx([0.05, 0.2])
    even = sorted(v for v, _ in sys.even_pairs)
    assert even == pytest.approx([ROOT_LO, ROOT_HI], rel=1e-10)
    assert sys.multiplicity_pairs == ()
    assert sys.normalization_scale == pytest.approx(1.0)

    # roots interlace the variances strictly
    assert 0.2 < even[1] < 0.5
    assert 0.05 < even[0] < 0.2
    report = verify_interlacing(sys, seq)
    assert report.passed, report.violations

    for resid in sys.diagnostics["secular_residuals"]:
        assert abs(resid) < 1e-9


def test_even_eigenfunctions_vanish_at_origin():
    seq = SpectralSequence(THREE_VAR, domain_length=1.0)
    sys = conditioned_spectrum(seq)
    for _, f in sys.even_pairs:
        assert abs(f[0] + np.sqrt(2.0) * f[1:].sum()) < 1e-10
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)


def test_sine_only_sequence_has_empty_even_spectrum():
    sys = conditioned_spectrum(SpectralSequence([0.0, 2.0**-0.5], domain_length=1.0))
    assert [(v, k) for v, k in sys.sine_pairs] == [(pytest.approx(0.5), 1)]
    assert sys.even_pairs == ()
    assert sys.multiplicity_pairs == ()


def test_repeated_variance_keeps_m_minus_one_copies():
    # a = (0, 1/4, 1/4): one repeated pair, no gaps, no secular roots
    sys = conditioned_spectrum(SpectralSequence([0.0, 0.5, 0.5], domain_length=1.0))
    assert sys.even_pairs == ()
    ((value, count, basis),) = sys.multiplicity_pairs
    assert value == pytest.approx(0.25)
    assert count == 1
    assert basis.shape == (1, 3)
    # the kept directions are orthogonal to the constraint weights on the support
    w = np.array([0.0, np.sqrt(2.0) * 0.25, np.sqrt(2.0) * 0.25])
    assert abs(basis[0] @ w) < 1e-12


def test_repeated_variance_with_flanking_gaps():
    # a = (0.36, 0.25, 0.25, 0.04): two secular roots plus one kept copy
    seq = SpectralSequence(np.sqrt([0.36, 0.25, 0.25, 0.04]), domain_length=1.0)
    sys = conditioned_spectrum(seq)
    assert len(sys.even_pairs) == 2
    ((value, count, _),) = sys.multiplicity_pairs
    assert value == pytest.approx(0.25)
    assert count == 1
    a = np.array([0.36, 0.25, 0.25, 0.04])
    norm = a[0] + 2.0 * a[1:].sum()
    for v, _ in sys.even_pairs:
        assert secular_value(a / norm, v / norm) == pytest.approx(1.0, abs=1e-8)
    report = verify_interlacing(sys, seq)
    assert report.passed, report.violations


def test_matches_dense_operator(rng):
    for trial in range(3):
        seq = random_spectrum(rng, K=6, L=1.0 if trial < 2 else 2.0)
        sys = conditioned_spectrum(seq)
        mine = sys.all_eigenvalues()
        dense = operator_oracle(conditioned_kernel(seq), m=800)[: mine.size]
        np.testing.assert_allclose(mine, dense, rtol=1e-3)


def test_scale_invariance():
    seq = SpectralSequence(THREE_VAR, domain_length=1.0)
    scaled = SpectralSequence(3.0 * THREE_VAR, domain_length=1.0)
    a = conditioned_spectrum(seq).all_eigenvalues()
    b = conditioned_spectrum(scaled).all_eigenvalues()
    np.testing.assert_allclose(b, 9.0 * a, rtol=1e-12)
    assert conditioned_spectrum(scaled).normalization_scale == pytest.approx(9.0)


def test_gray_zone_spacing_is_refused():
    # a_max = 0.5 so cluster_tol = 5e-10; spacing 2e-9 sits in [tol, 10 tol)
    a = np.array([0.5, 0.2, 0.2 + 2e-9, 0.05])
    with pytest.raises(ClusterAmbiguity):
        conditioned_spectrum(SpectralSequence(np.sqrt(a), domain_length=1.0))
    # spacing below tol merges, spacing above the zone resolves
    merged = conditioned_spectrum(
        SpectralSequence(np.sqrt([0.5, 0.2, 0.2 + 2e-10, 0.05]), domain_length=1.0)
    )
    assert len(merged.multiplicity_pairs) == 1
    split = conditioned_spectrum(
        SpectralSequence(np.sqrt([0.5, 0.2, 0.2 + 1e-8, 0.05]), domain_length=1.0)
    )
    assert len(split.even_pairs) == 3


def test_interlacing_detects_corruption():
    seq = SpectralSequence(THREE_VAR, domain_length=1.0)
    sys = conditioned_spectrum(seq)
    fake_pairs = tuple((v + 0.2, f) for v, f in sys.even_pairs)
    corrupted = type(sys)(
        sine_pairs=sys.sine_pairs,
        even_pairs=fake_pairs,
        multiplicity_pairs=sys.multiplicity_pairs,
        normalization_scale=sys.normalization_scale,
        truncation=sys.truncation,
        diagnostics=sys.diagnostics,
    )
    report = verify_interlacing(corrupted, seq)
    assert not report.passed
    assert report.violations


def test_all_zero_sequence_rejected():
    with pytest.raises(Exception):
        conditioned_spectrum(SpectralSequence(np.zeros(3), domain_length=1.0))


# --- the paper's power laws c_k = k^-p at realistic sizes -----------------


def power_law(K, p, c0=0.37):
    c = np.arange(K + 1, dtype=float)
    c[1:] = c[1:] ** -p
    c[0] = c0
    return SpectralSequence(c, domain_length=1.0)


def even_block(seq):
    """Unit-variance a and u of the even block diag(a) - outer(u, u)."""
    avals = seq.kl_variances()
    a = avals / seq.total_variance()
    u = a.copy()
    u[1:] *= np.sqrt(2.0)
    return a, u


def dense_spectrum(seq):
    # dense eigvalsh of the even block; its null vector (the constraint) dropped
    a, u = even_block(seq)
    even = np.linalg.eigvalsh(np.diag(a) - np.outer(u, u))[1:] * seq.total_variance()
    sines = seq.kl_variances()[1:]
    return np.sort(np.concatenate([even, sines[sines > 0.0]]))[::-1]


@pytest.mark.parametrize("p", [0.5, 0.75, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("K", [64, 256, 1024, 4096])
def test_power_law_eigensystem(K, p):
    seq = power_law(K, p)
    sys = conditioned_spectrum(seq)
    assert verify_interlacing(sys, seq).passed
    assert sys.diagnostics["min_spacing_over_tol"] >= GRAY_ZONE_FACTOR
    assert 1 <= sys.diagnostics["secular_iterations"] <= 8
    assert len(sys.diagnostics["gaps"]) == len(sys.even_pairs) == K

    # the even eigenvectors are rows of one K x (K+1) array
    F = sys.even_pairs[0][1].base
    assert F.shape == (K, K + 1)
    assert all(f.base is F for _, f in sys.even_pairs)

    a, u = even_block(seq)
    total = seq.total_variance()
    lam = np.array([v for v, _ in sys.even_pairs]) / total
    gram = F @ F.T
    gram[np.diag_indices(K)] -= 1.0
    assert np.abs(gram).max() <= 1e-12 * K
    del gram
    for i in range(0, K, 512):
        B = F[i : i + 512]
        residual = B * a - np.outer(B @ u, u) - lam[i : i + 512, None] * B
        assert np.abs(residual).max() <= 1e-12
    assert np.abs(F[:, 0] + np.sqrt(2.0) * F[:, 1:].sum(axis=1)).max() <= 1e-12
    # the 0 root adds nothing to the trace of the even block
    assert lam.sum() == pytest.approx(a.sum() - u @ u, rel=1e-12)
    assert max(sys.diagnostics["secular_residuals"]) <= 1e-12

    if K <= 1024 or p == 2.0:
        dense = dense_spectrum(seq)
        mine = sys.all_eigenvalues()
        assert mine.shape == dense.shape
        assert np.abs(mine - dense).max() <= 1e-10 * dense[0]


def test_tiny_cluster_tol_keeps_power_law_orthonormal():
    # k^-1.5 at K=1024 with every variance its own group: the per-gap
    # solver returned max |F F^T - I| = 0.38 here
    K = 1024
    sys = conditioned_spectrum(power_law(K, 1.5), cluster_tol=1e-30)
    F = np.array([f for _, f in sys.even_pairs])
    assert F.shape == (K, K + 1)
    assert np.abs(F @ F.T - np.eye(K)).max() <= 1e-12 * K


def test_peak_memory_is_the_eigenvector_matrix():
    # the K x (K+1) eigenvector matrix alone is 134 MB at K=4096
    seq = power_law(4096, 1.0)
    tracemalloc.start()
    try:
        conditioned_spectrum(seq)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 150e6


def test_merged_variances_split_along_the_constraint_pattern():
    # 0.2 and 0.2 (1 + 5e-10) share a group under the relative tolerance;
    # the secular vectors stay orthogonal to its kept direction and vanish
    # at the origin exactly
    a = np.array([0.5, 0.2, 0.2 * (1.0 + 5e-10), 0.05])
    seq = SpectralSequence(np.sqrt(a), domain_length=1.0)
    sys = conditioned_spectrum(seq)
    assert verify_interlacing(sys, seq).passed
    ((_, count, basis),) = sys.multiplicity_pairs
    assert count == 1
    F = np.array([f for _, f in sys.even_pairs] + list(basis))
    np.testing.assert_allclose(F @ F.T, np.eye(len(F)), atol=1e-14)
    assert np.abs(F[:, 0] + np.sqrt(2.0) * F[:, 1:].sum(axis=1)).max() < 1e-14


def test_variance_below_the_overflow_floor_is_refused():
    # a_1 = 1e-320 C(0) overflowed sqrt(V)^2 / (d - x)^2 in the solve
    seq = SpectralSequence([1.0, 1e-160, 1e-155], domain_length=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionViolation, match=r"variance a_1 is 1\.000e-320 of C\(0\)"):
            conditioned_spectrum(seq)


def test_small_variances_above_the_floor_still_solve():
    seq = SpectralSequence([1.0, 1e-140, 1e-135], domain_length=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sys = conditioned_spectrum(seq)
    assert verify_interlacing(sys, seq).passed
    assert sys.all_eigenvalues()[-1] > 0.0
