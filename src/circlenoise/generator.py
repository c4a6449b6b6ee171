"""Deciding whether a conditioned covariance comes from a stationary
generator, and recovering the generator when it does.

A stationary sequence with variance weights A_0 = c_0^2/L^2,
A_k = 2 c_k^2/L^2 conditioned at zero has Fourier blocks (against the
normalized trigonometric basis)

    rss = diag(d_1, ..., d_K),          d_k = A_k / 2,
    rsc = rcs = 0,
    rcc = diag(A_0, d_1, ..., d_K) - outer(u, u) / v,

with u = (A_0, sqrt(2) d_1, ..., sqrt(2) d_K) and v the total variance
A_0 + sum_k A_k over *all* frequencies.  With rbar = sum_{k<=K} d_k, the
truncated frequencies give v >= A_0 + 2 rbar, with equality exactly when
the spectrum is bandlimited to the truncation, and rcc_00 =
A_0 (v - A_0) / v < 2 rbar whenever that equality holds.  The decision
procedure checks the four structural conditions in a fixed order (mixed
blocks null, ss block a nonnegative diagonal, the rbar bound, the cc
reconstruction) and names the first failure; v and A_0 are estimated
from the cc block's rank-one deviation (see ``_fit_rank_one``), which
stays exact for kernels with spectral mass beyond the truncation.  On
success the generator is unique in law with coefficients
c_0 = L sqrt(A_0), c_k = L sqrt(d_k) and total variance x = v.

The Brownian bridge min(s,t)(1 - max(s,t)) on [0,1] is the canonical
rejected input: its blocks give rcc_00 = 1/12 while 2 rbar increases to
1/12 strictly from below, so the rbar bound fails at every truncation.
The bridge does extend: reflecting with a sign flip onto [0,2] yields an
antiperiodic kernel whose generator has coefficients 2/(pi n) at odd
frequencies n, and the dichotomy below recovers exactly one of the two
candidate extensions for any admissible input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroKernel, BothSucceed, PreconditionViolation
from .spectral import (
    CONDITIONED,
    CovarianceKernel,
    FourierMatrices,
    SpectralSequence,
    fourier_matrices,
)

# Condition names, in check order.
COND_MIXED = "mixed"
COND_SS_SHAPE = "ss-shape"
COND_RBAR_BOUND = "rbar-bound"
COND_CC_RECONSTRUCTION = "cc-reconstruction"

# Below this absolute magnitude the kernel is treated as identically zero.
ZERO_FLOOR = 1e-14

EXT_ANTIPERIODIC = "antiperiodic"
EXT_PERIODIC = "periodic"
EXT_NONE = "none"


@dataclass(frozen=True)
class GeneratorVerdict:
    """Outcome of the generator decision procedure.

    decision is "unique" or "no-generator".  For a unique generator,
    ``spectrum`` holds the recovered sequence, ``total_variance`` its
    variance x = C(0) including any spectral mass beyond the truncation,
    and ``proportions`` the weights p_k = A_k normalized over the
    represented frequencies (summing to one).  ``reasons`` names the
    first violated condition when no generator exists.  ``diagnostics``
    always carries the per-condition residuals that were computable.
    """

    decision: str
    spectrum: SpectralSequence | None = None
    total_variance: float | None = None
    proportions: np.ndarray | None = None
    reasons: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def is_unique(self) -> bool:
        return self.decision == "unique"


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of the reflection dichotomy on [0, 2].

    kind is "antiperiodic", "periodic", or "none"; ``spectrum`` is the
    generator of the successful extension.  ``verdicts`` keeps both
    candidate verdicts for inspection.
    """

    kind: str
    spectrum: SpectralSequence | None
    verdicts: dict[str, GeneratorVerdict]


def check_generator(mats: FourierMatrices, tol: float | None = None) -> GeneratorVerdict:
    """Decide whether the kernel behind ``mats`` has a stationary generator.

    Conditions are checked in a fixed order so the reported failure is
    deterministic: (i) both mixed blocks vanish; (ii) the sine block is a
    nonnegative diagonal; (iii) rcc_00 < 2 rbar; (iv) the cosine block
    equals its reconstruction from the sine diagonal.  tol defaults to
    1e-6 * (trace rss + rcc_00).
    """
    rcc, rss, rsc, rcs = mats.rcc, mats.rss, mats.rsc, mats.rcs
    L = mats.domain_length

    magnitude = max(
        float(np.max(np.abs(b))) if b.size else 0.0 for b in (rcc, rss, rsc, rcs)
    )
    if magnitude <= ZERO_FLOOR:
        raise AllZeroKernel("every Fourier block vanishes; the zero kernel is excluded")

    if tol is None:
        tol = 1e-6 * mats.scale()

    diagnostics: dict = {"tol": float(tol)}

    def reject(name: str) -> GeneratorVerdict:
        return GeneratorVerdict(
            decision="no-generator", reasons=(name,), diagnostics=diagnostics
        )

    mixed_max = max(
        float(np.max(np.abs(rsc))) if rsc.size else 0.0,
        float(np.max(np.abs(rcs))) if rcs.size else 0.0,
    )
    diagnostics["mixed_max"] = mixed_max
    if mixed_max > tol:
        return reject(COND_MIXED)

    off = rss - np.diag(np.diag(rss))
    ss_offdiag_max = float(np.max(np.abs(off))) if off.size else 0.0
    d = np.diag(rss).copy()
    negativity_margin = float(d.min()) if d.size else 0.0
    diagnostics["ss_offdiag_max"] = ss_offdiag_max
    diagnostics["negativity_margin"] = negativity_margin
    if ss_offdiag_max > tol or negativity_margin < -tol:
        return reject(COND_SS_SHAPE)
    d = np.clip(d, 0.0, None)

    rbar = float(d.sum())
    rcc00 = max(float(rcc[0, 0]), 0.0)
    rbar_margin = 2.0 * rbar - rcc00
    diagnostics["rbar"] = rbar
    diagnostics["rcc00"] = rcc00
    diagnostics["rbar_margin"] = rbar_margin
    if rbar_margin <= tol:
        return reject(COND_RBAR_BOUND)

    A0, v = _fit_rank_one(rcc, d, rbar, rbar_margin, rcc00)
    diagnostics["a0_hat"] = A0
    diagnostics["v_hat"] = v
    diagnostics["variance_deficit"] = v - (A0 + 2.0 * rbar)
    if A0 < -tol or v <= 0.0 or diagnostics["variance_deficit"] < -tol:
        return reject(COND_CC_RECONSTRUCTION)
    A0 = max(A0, 0.0)

    u = np.concatenate(([A0], math.sqrt(2.0) * d))
    target = np.diag(np.concatenate(([A0], d))) - np.outer(u, u) / v
    cc_residual = float(np.max(np.abs(rcc - target)))
    diagnostics["cc_residual"] = cc_residual
    if cc_residual > tol:
        return reject(COND_CC_RECONSTRUCTION)

    coeffs = L * np.sqrt(np.concatenate(([A0], d)))
    proportions = np.concatenate(([A0], 2.0 * d)) / (A0 + 2.0 * rbar)
    return GeneratorVerdict(
        decision="unique",
        spectrum=SpectralSequence(coeffs, domain_length=L),
        total_variance=v,
        proportions=proportions,
        diagnostics=diagnostics,
    )


def _fit_rank_one(
    rcc: np.ndarray, d: np.ndarray, rbar: float, rbar_margin: float, rcc00: float
) -> tuple[float, float]:
    """Estimate (A_0, v) from the cosine block's rank-one structure.

    Every deviation entry rcc_kj - d_k delta_kj (k, j >= 1) equals
    -2 d_k d_j / v, so 1/v is a linear least-squares fit; A_0 then follows
    linearly from row zero, rcc_0j = -sqrt(2) A_0 d_j / v.  Fitting v from
    the block itself rather than forcing v = A_0 + 2 rbar keeps the check
    exact when the kernel carries spectral mass beyond the truncation:
    the entries are integrals of the full kernel, so they encode the full
    variance, while the truncated sine diagonal cannot.  For bandlimited
    kernels the fit reproduces A_0 + 2 rbar to rounding, and the caller
    verifies v >= A_0 + 2 rbar (the deficit is the nonnegative tail mass).

    Falls back to the closed forms A_0 = 2 rbar rcc00 / (2 rbar - rcc00),
    v = A_0 + 2 rbar when the block carries no usable rank-one signal
    (fewer than two positive sine variances).
    """
    dd = np.outer(d, d)
    denom = 2.0 * float(np.sum(dd**2))
    deviation = rcc[1:, 1:] - np.diag(d)
    fallback_a0 = 2.0 * rbar * rcc00 / rbar_margin
    fallback = (fallback_a0, fallback_a0 + 2.0 * rbar)
    if denom <= 0.0 or np.count_nonzero(d > 0.0) < 2:
        return fallback
    omega = -float(np.sum(deviation * dd)) / denom
    if not (omega > 0.0) or not np.isfinite(omega):
        return fallback
    d_sq = float(np.sum(d**2))
    A0 = -float(np.sum(rcc[0, 1:] * d)) / (math.sqrt(2.0) * omega * d_sq)
    return A0, 1.0 / omega


def _reflected(kernel: CovarianceKernel, sign: float) -> CovarianceKernel:
    """Extend a conditioned kernel from [0,1]^2 to [0,2]^2 by reflection.

    Points past 1 map back as u -> u - 1 and pick up ``sign`` (+1 gives the
    periodic candidate, -1 the antiperiodic one).
    """
    R = kernel.evaluate

    def fold(u):
        u = np.asarray(u, dtype=float)
        inner = u > 1.0
        return np.where(inner, u - 1.0, u), np.where(inner, sign, 1.0)

    def extended(s, t):
        s_hat, eps_s = fold(s)
        t_hat, eps_t = fold(t)
        return eps_s * eps_t * np.asarray(R(*np.broadcast_arrays(s_hat, t_hat)), dtype=float)

    return CovarianceKernel(evaluate=extended, domain_length=2.0, kind=CONDITIONED)


def extension_dichotomy(
    kernel: CovarianceKernel,
    K: int,
    M: int | None = None,
    tol: float | None = None,
    boundary_tol: float | None = None,
) -> ExtensionResult:
    """Try both signed reflections of a kernel vanishing on the boundary.

    The input must be a conditioned kernel on [0,1] with R(s, 1) = 0; both
    candidate extensions to [0,2] are run through the generator check.  At
    most one can succeed; both succeeding means the tolerance is too loose
    and raises BothSucceed rather than guessing.
    """
    if kernel.kind != CONDITIONED:
        raise PreconditionViolation("extension dichotomy applies to conditioned kernels")
    if abs(kernel.domain_length - 1.0) > 1e-12:
        raise PreconditionViolation("extension dichotomy is defined for kernels on [0,1]")

    s_check = np.linspace(0.0, 1.0, 201)
    scale = float(np.max(np.abs(kernel.grid_matrix(s_check.size - 1))))
    if boundary_tol is None:
        boundary_tol = 1e-6 * max(scale, 1e-300)
    boundary = float(np.max(np.abs(np.asarray(kernel.pair(s_check, np.ones_like(s_check))))))
    if boundary > boundary_tol:
        raise PreconditionViolation(
            f"kernel does not vanish on the boundary: max |R(s,1)| = {boundary:.3e}"
        )

    verdicts: dict[str, GeneratorVerdict] = {}
    for name, sign in ((EXT_PERIODIC, 1.0), (EXT_ANTIPERIODIC, -1.0)):
        mats = fourier_matrices(_reflected(kernel, sign), K, M)
        try:
            verdicts[name] = check_generator(mats, tol)
        except AllZeroKernel:
            return ExtensionResult(kind=EXT_NONE, spectrum=None, verdicts={})

    winners = [name for name, v in verdicts.items() if v.is_unique]
    if len(winners) == 2:
        raise BothSucceed("both reflections passed the generator check; tighten tol")
    if not winners:
        return ExtensionResult(kind=EXT_NONE, spectrum=None, verdicts=verdicts)
    name = winners[0]
    return ExtensionResult(kind=name, spectrum=verdicts[name].spectrum, verdicts=verdicts)


def brownian_bridge_kernel() -> CovarianceKernel:
    """The bridge covariance min(s,t)(1 - max(s,t)) on [0,1]^2."""

    def R(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return np.minimum(s, t) - s * t

    return CovarianceKernel(evaluate=R, domain_length=1.0, kind=CONDITIONED)


def brownian_bridge_generator(K: int) -> SpectralSequence:
    """Antiperiodic generator of the bridge, truncated.

    Coefficients 2 / (pi n) at odd frequencies n = 1, 3, ..., 2K + 1 on a
    circle of circumference 2.  Every odd frequency including n = 1 must
    be present: dropping it changes the conditioned kernel away from the
    bridge.  As K grows the conditioned kernel converges to
    min(s,t)(1 - max(s,t)) uniformly on [0,1]^2.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    coeffs = np.zeros(2 * K + 2)
    n = np.arange(1, 2 * K + 2, 2, dtype=float)
    coeffs[1::2] = 2.0 / (np.pi * n)
    return SpectralSequence(coeffs, domain_length=2.0)
