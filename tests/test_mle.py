"""Exact spectral likelihood for the power-law model and its fits."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import brentq

from circlenoise import (
    AllZeroEnergies,
    FrequencyEnergies,
    LengthMismatch,
    NoRoot,
    PowerLawModel,
    asymptotics,
    energies,
    fit_joint,
    fit_known_a,
    fit_known_p,
    loglik,
    rng_from_seed,
    sample_model,
    score,
)
from circlenoise.mle import P_SEARCH


def model_energies(a, p, n, seed):
    return energies(sample_model(PowerLawModel(a, p, n), seed))


def test_model_validation():
    with pytest.raises(ValueError):
        PowerLawModel(a=0.0, p=1.0, n=4)
    with pytest.raises(ValueError):
        PowerLawModel(a=1.0, p=1.0, n=0)
    m = PowerLawModel(a=2.0, p=1.0, n=3)
    np.testing.assert_allclose(m.amplitudes(), [2.0, 1.0, 2.0 / 3.0])


def test_energies_of_pure_sine():
    n = 8
    t = np.arange(2 * n + 1) / (2 * n + 1)
    from circlenoise import SamplePath

    path = SamplePath(
        grid_points=t, values=np.sin(2 * np.pi * t), t_step=1.0 / (2 * n + 1), seed=None
    )
    e = energies(path)
    assert e.n == n
    assert e.y1[0] == pytest.approx(1.0, abs=1e-12)
    assert e.o[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(e.y1[1:])) < 1e-12
    assert np.max(np.abs(e.y2)) < 1e-12


def test_energies_recover_the_seeded_draws_exactly():
    a, p, n, seed = 1.3, 0.8, 24, 77
    path = sample_model(PowerLawModel(a, p, n), seed)
    e = energies(path)
    z = rng_from_seed(seed).standard_normal(2 * n)
    amps = a / np.arange(1, n + 1, dtype=float) ** p
    np.testing.assert_allclose(e.y1, amps * z[0::2], atol=1e-12)
    np.testing.assert_allclose(e.y2, amps * z[1::2], atol=1e-12)
    np.testing.assert_allclose(e.o, e.y1**2 + e.y2**2, atol=0)


def test_energies_require_odd_grid():
    from circlenoise import SamplePath

    path = SamplePath(
        grid_points=np.arange(16) / 16.0, values=np.zeros(16), t_step=1.0 / 16, seed=None
    )
    with pytest.raises(LengthMismatch):
        energies(path)


def test_loglik_literal():
    assert loglik(np.array([2.0]), a=1.0, p=3.7) == pytest.approx(-math.log(2 * math.pi) - 1.0)


def test_score_vanishes_at_noise_free_energies():
    n, a, p = 12, 1.7, 1.1
    k = np.arange(1, n + 1, dtype=float)
    o = 2.0 * a**2 / k ** (2 * p)
    da, dp = score(o, a, p)
    assert abs(da) < 1e-12
    assert abs(dp) < 1e-12


def test_known_p_amplitude_closed_form():
    o = np.array([1.0, 1.0, 1.0, 1.0])
    assert fit_known_p(o, 0.0) == pytest.approx(math.sqrt(0.5))
    # k^2 weights at p = 1
    assert fit_known_p(o, 1.0) == pytest.approx(math.sqrt((1 + 4 + 9 + 16) / 8))


def test_known_p_rejects_zero_energies():
    with pytest.raises(AllZeroEnergies):
        fit_known_p(np.zeros(4), 1.0)


def test_noise_free_joint_fit_is_exact():
    n, a, p = 20, 0.9, 1.4
    k = np.arange(1, n + 1, dtype=float)
    o = 2.0 * a**2 / k ** (2 * p)
    fit = fit_joint(o)
    assert fit.converged
    assert fit.p_hat == pytest.approx(p, abs=1e-10)
    assert fit.a_hat == pytest.approx(a, abs=1e-10)
    assert max(abs(r) for r in fit.score_residual) < 1e-10


def test_profile_consistency(rng):
    for seed in range(5):
        e = model_energies(1.0, 1.0, 32, seed)
        fit = fit_joint(e.o)
        assert fit.a_hat == pytest.approx(fit_known_p(e.o, fit.p_hat), abs=1e-12)


def test_known_a_agrees_with_joint_at_true_amplitude():
    # at the fitted amplitude the profile root is the joint root
    e = model_energies(1.0, 1.0, 64, seed=5)
    fit = fit_joint(e.o)
    assert fit_known_a(e.o, fit.a_hat) == pytest.approx(fit.p_hat, abs=1e-9)


def test_amplitude_law_is_chi_square():
    n, a0, p0, reps = 16, 1.0, 1.0, 300
    stat = np.array(
        [2 * n * fit_known_p(model_energies(a0, p0, n, s).o, p0) ** 2 / a0**2 for s in range(reps)]
    )
    assert abs(stat.mean() - 2 * n) < 4.0 * math.sqrt(4.0 * n / reps) + 1.0
    assert stats.kstest(stat, stats.chi2(2 * n).cdf).pvalue > 0.01


def test_estimates_tighten_with_sample_size():
    medians = []
    for n in (20, 40, 80, 160):
        errs = [abs(fit_joint(model_energies(1.0, 1.0, n, s).o).p_hat - 1.0) for s in range(200)]
        medians.append(np.median(errs))
    assert medians[0] > medians[1] > medians[2] > medians[3]


def test_scaling_moves_amplitude_not_exponent():
    e = model_energies(1.0, 0.7, 40, seed=9)
    base = fit_joint(e.o)
    scaled = fit_joint(25.0 * e.o)
    assert scaled.p_hat == pytest.approx(base.p_hat, abs=1e-9)
    assert scaled.a_hat == pytest.approx(5.0 * base.a_hat, rel=1e-9)


def test_fisher_information_at_forty():
    S2 = sum(math.log(k) ** 2 for k in range(1, 41))
    assert S2 == pytest.approx(334.0158382489026, abs=1e-10)
    asym = asymptotics(PowerLawModel(1.0, 1.0, 40))
    assert asym.info_p == pytest.approx(4.0 * S2)
    assert asym.scale_p == pytest.approx(1.0 / (2.0 * math.sqrt(S2)))
    S1 = sum(math.log(k) for k in range(1, 41))
    assert asym.fisher_correlation == pytest.approx(S1 / math.sqrt(40 * S2))
    assert asym.predicted_correlation_sign == 1
    assert asym.joint_std_p == pytest.approx(math.sqrt(40 / (4 * (40 * S2 - S1**2))))


def test_single_frequency_inference_is_degenerate():
    asym = asymptotics(PowerLawModel(1.0, 1.0, 1))
    assert asym.degenerate
    assert asym.scale_p == np.inf


def test_pathological_energies_report_no_root():
    o = np.full(4, 1e-40)
    o[0] = 1e40
    with pytest.raises(NoRoot):
        fit_joint(o)


def test_energy_container_validation():
    with pytest.raises(ValueError):
        FrequencyEnergies(o=np.ones(3), y1=np.ones(2), y2=np.ones(3), n=3)


def seeded_energies(a, p, n, seed):
    z = rng_from_seed(seed).standard_normal(2 * n)
    return (a / np.arange(1, n + 1, dtype=float) ** p) ** 2 * (z[0::2] ** 2 + z[1::2] ** 2)


def brentq_root(f):
    lo, hi = P_SEARCH
    if f(lo) * f(hi) > 0.0:
        lo, hi = 2.0 * lo, 2.0 * hi
    return brentq(f, lo, hi, xtol=1e-15, rtol=4.0 * np.finfo(float).eps, maxiter=500)


@pytest.mark.parametrize(
    "n, p, seed",
    [(2, 1.0, 3), (40, 1.0, 4), (40, 0.4, 5), (1000, 1.0, 6), (4000, 1.5, 7), (40, 12.0, 8)],
)
def test_exponent_solver_matches_brentq(n, p, seed):
    # the last case puts both roots in the widened bracket
    a0 = 0.8
    o = seeded_energies(a0, p, n, seed)
    k = np.arange(1, n + 1, dtype=float)
    logk = np.log(k)

    def profile(q):
        w = k ** (2.0 * q) * o
        return 2.0 * logk.sum() - 2.0 * n * np.sum(logk * w) / np.sum(w)

    def known_a(q):
        return 2.0 * logk.sum() - np.sum(logk * k ** (2.0 * q) * o) / a0**2

    p_ref = brentq_root(profile)
    fit = fit_joint(o)
    assert fit.p_hat == pytest.approx(p_ref, abs=1e-12)
    assert fit.a_hat == pytest.approx(math.sqrt(np.sum(k ** (2.0 * p_ref) * o) / (2 * n)), rel=1e-12)
    assert 1 <= fit.iterations <= 8
    assert fit_known_a(o, a0) == pytest.approx(brentq_root(known_a), abs=1e-12)
    if p > 10.0:
        assert p_ref > P_SEARCH[1]
