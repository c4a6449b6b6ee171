"""Spectral representation of stationary periodic Gaussian processes.

A process on a circle of circumference L is specified by a truncated
sequence of nonnegative coefficients (c_0, ..., c_K).  Against the
orthonormal trigonometric basis of L^2([0, L], dt/L),

    phi_0(t) = 1,
    phi_k^c(t) = sqrt(2) cos(2 pi k t / L),
    phi_k^s(t) = sqrt(2) sin(2 pi k t / L),

the process is x_t = (1/L) [c_0 Y'_0 + sum_k c_k (phi_k^s(t) Y_k
+ phi_k^c(t) Y'_k)] with iid standard normal Y, Y'.  Its covariogram is

    C(tau) = (c_0^2 + 2 sum_k c_k^2 cos(2 pi k tau / L)) / L^2,

so each basis component carries KL variance a_k = c_k^2 / L^2 and the
inverse transform reads c_n^2 = L * integral_0^L C(s) cos(2 pi n s / L) ds
for every n >= 0.  Conditioning the process to vanish at t = 0 replaces
C(t - s) by R(s, t) = C(t - s) - C(s) C(t) / C(0).

Quadrature throughout uses the closed trapezoid rule on M + 1 equally
spaced points of [0, L]; for L-periodic integrands this coincides with the
M-point periodic rectangle rule and is exact for trigonometric polynomials
of frequency below M / 2.

A kernel built from coefficients keeps its sequence, so on a uniform grid
t_i = i L / n it is tabulated from one lag table C(j L / n), j < n, taken
by a single inverse FFT of the variance weights: a Toeplitz gather of that
table (minus a rank-one outer product once conditioned) fills the matrix
in O(n^2) time and memory.  Opaque kernels (closed forms such as the
Brownian bridge, interpolated tables) are evaluated pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import toeplitz

from .errors import AllZeroKernel, NotPositiveDefinite, PreconditionViolation

STATIONARY = "stationary"
CONDITIONED = "conditioned"

# Relative threshold below which a slightly negative squared coefficient is
# treated as quadrature noise and clamped to zero.
CLAMP_REL = 1e-10


@dataclass(frozen=True)
class SpectralSequence:
    """Truncated coefficient sequence (c_0, ..., c_K) on a circle of
    circumference ``domain_length``.

    Coefficients are canonically nonnegative; signs are absorbed by the
    Gaussian draws.  Index k corresponds to frequency k, i.e. angular
    frequency 2 pi k / domain_length.
    """

    coeffs: np.ndarray
    domain_length: float = 1.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        if np.any(c < 0):
            raise ValueError("coeffs must be nonnegative")
        if not (np.isfinite(self.domain_length) and self.domain_length > 0):
            raise ValueError("domain_length must be positive")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation(self) -> int:
        """Largest represented frequency K."""
        return self.coeffs.size - 1

    def variance_weights(self) -> np.ndarray:
        """Weights (A_0, ..., A_K) with C(tau) = sum_k A_k cos(2 pi k tau / L).

        A_0 = c_0^2 / L^2 and A_k = 2 c_k^2 / L^2 for k >= 1.
        """
        L = self.domain_length
        A = 2.0 * self.coeffs**2 / L**2
        A[0] /= 2.0
        return A

    def kl_variances(self) -> np.ndarray:
        """Per-component variances a_n = c_n^2 / L^2, n = 0..K.

        Each of the sine and cosine components at frequency n >= 1 carries
        variance a_n; the constant component carries a_0.  The process
        variance is C(0) = a_0 + 2 * sum_{n>=1} a_n.
        """
        return self.coeffs**2 / self.domain_length**2

    def total_variance(self) -> float:
        a = self.kl_variances()
        return float(a[0] + 2.0 * a[1:].sum())

    def support(self, rtol: float = 1e-12) -> np.ndarray:
        """Frequencies k >= 1 with c_k above round-off.

        Sequences recovered from quadrature carry O(eps) residue on absent
        frequencies; entries at or below ``rtol`` times the largest
        coefficient do not count as support.
        """
        floor = rtol * float(np.max(np.abs(self.coeffs), initial=0.0))
        (idx,) = np.nonzero(np.abs(self.coeffs[1:]) > floor)
        return idx + 1


@dataclass(frozen=True)
class CovarianceKernel:
    """A covariance function on the circle of circumference ``domain_length``.

    ``kind`` is "stationary" (``evaluate`` maps a lag tau to C(tau)) or
    "conditioned" (``evaluate`` maps a pair (s, t) to R(s, t)).
    ``grid_resolution`` records the table size when the kernel was built
    from sampled values rather than a closed form.  ``spectrum`` is the
    coefficient sequence the kernel was built from, if any; it lets
    ``grid_matrix`` tabulate from a lag table instead of pointwise.
    """

    evaluate: Callable[..., np.ndarray]
    domain_length: float = 1.0
    kind: str = STATIONARY
    grid_resolution: int | None = None
    spectrum: SpectralSequence | None = None

    def __post_init__(self):
        if self.kind not in (STATIONARY, CONDITIONED):
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    def covariogram(self, tau):
        """One-argument form C(tau); stationary kernels only."""
        if self.kind != STATIONARY:
            raise PreconditionViolation("covariogram requires a stationary kernel")
        return self.evaluate(tau)

    def pair(self, s, t):
        """Two-argument covariance C(s, t)."""
        if self.kind == STATIONARY:
            return self.evaluate(np.asarray(t) - np.asarray(s))
        return self.evaluate(s, t)

    def matrix(self, grid: np.ndarray) -> np.ndarray:
        """Covariance matrix of the process sampled on ``grid``."""
        g = np.asarray(grid, dtype=float)
        return np.asarray(self.pair(g[:, None], g[None, :]), dtype=float)

    def grid_matrix(self, n: int, closed: bool = True) -> np.ndarray:
        """Covariance matrix on the uniform grid t_i = i L / n.

        The grid runs over i = 0..n - 1, and on to i = n (t = L) when
        ``closed``.  A kernel that carries its spectrum is tabulated from
        ``lag_table`` in O(n^2) time and memory; an opaque kernel goes
        through ``matrix`` at the points of ``np.linspace(0, L, n + 1)``.
        """
        size = n + 1 if closed else n
        if self.spectrum is None:
            return self.matrix(np.linspace(0.0, self.domain_length, n + 1)[:size])
        table = lag_table(self.spectrum, n)
        profile = table[np.arange(size) % n]
        R = toeplitz(profile)
        if self.kind == CONDITIONED:
            R -= np.outer(profile, profile / table[0])
        return R

    def validate_stationary(self, n_points: int = 257, rtol: float = 1e-8) -> None:
        """Spot-check periodicity and the peak-at-zero property on a grid."""
        if self.kind != STATIONARY:
            raise PreconditionViolation("validation applies to stationary kernels")
        L = self.domain_length
        tau = np.linspace(0.0, L, n_points)
        v = np.asarray(self.evaluate(tau), dtype=float)
        v_shift = np.asarray(self.evaluate(tau + L), dtype=float)
        scale = max(abs(float(v[0])), 1e-300)
        if np.max(np.abs(v - v_shift)) > rtol * scale:
            raise PreconditionViolation("covariogram is not domain_length-periodic")
        if np.max(np.abs(v)) > (1.0 + rtol) * scale:
            raise PreconditionViolation("covariogram exceeds its value at lag zero")


@dataclass(frozen=True)
class FourierMatrices:
    """Fourier blocks of a two-argument kernel against the normalized basis.

    Entries are r^{xy}_{ij} = (1/L^2) * integral integral R(s, t)
    phi_i^x(s) phi_j^y(t) ds dt.  ``rcc`` has shape (K+1, K+1) with row and
    column index equal to frequency; ``rss`` has shape (K, K) where index i
    stands for frequency i + 1; the mixed blocks ``rsc`` (sine rows, cosine
    columns) and ``rcs`` follow the same offsets.
    """

    rcc: np.ndarray
    rss: np.ndarray
    rsc: np.ndarray
    rcs: np.ndarray
    truncation: int
    domain_length: float = 1.0

    def scale(self) -> float:
        """Magnitude reference used for relative tolerances."""
        return float(np.trace(self.rss) + self.rcc[0, 0])


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def lag_table(seq: SpectralSequence, n: int) -> np.ndarray:
    """Covariogram on the uniform lags: C(j L / n) for j = 0..n - 1.

    One inverse real FFT of the variance weights.  Frequencies at or above
    n / 2 alias on the grid: k folds onto k mod n, and then onto
    min(k, n - k) because C is even.
    """
    if n < 1:
        raise ValueError("lag table needs at least one lag")
    A = seq.variance_weights()
    k = np.arange(A.size) % n
    folded = np.bincount(np.minimum(k, n - k), weights=A, minlength=n // 2 + 1)
    # irfft doubles every bin strictly between 0 and Nyquist
    folded[1 : (n + 1) // 2] *= 0.5
    return n * np.fft.irfft(folded, n)


def covariogram_from_coeffs(seq: SpectralSequence) -> CovarianceKernel:
    """Closed-form covariogram C(tau) of a coefficient sequence."""
    A = seq.variance_weights()
    L = seq.domain_length
    k = np.arange(A.size, dtype=float)

    def C(tau):
        t, scalar = _as_array(tau)
        vals = np.cos((2.0 * np.pi / L) * np.multiply.outer(t, k)) @ A
        return float(vals) if scalar else vals

    return CovarianceKernel(evaluate=C, domain_length=L, kind=STATIONARY, spectrum=seq)


def trapezoid_nodes(L: float, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Closed trapezoid nodes and weights for (1/L) * integral_0^L.

    Weights sum to one; for L-periodic integrands the rule equals the
    M-point periodic rectangle rule.
    """
    t = np.linspace(0.0, L, M + 1)
    w = np.full(M + 1, 1.0 / M)
    w[0] *= 0.5
    w[-1] *= 0.5
    return t, w


def coeffs_from_covariogram(
    kernel: CovarianceKernel,
    K: int,
    M: int | None = None,
    return_diagnostics: bool = False,
):
    """Recover (c_0, ..., c_K) from a stationary kernel by quadrature.

    c_n^2 = L * integral_0^L C(s) cos(2 pi n s / L) ds, evaluated with the
    normalized trapezoid rule as L^2 * sum_i w_i C(t_i) cos(2 pi n t_i / L).
    The rule's two end nodes share the cosine's value, so the sum is one
    real FFT of the M samples with the end values averaged into the first.
    Squared coefficients that come out slightly negative (within CLAMP_REL
    of C(0)) are clamped to zero and reported; materially negative values
    raise NotPositiveDefinite.
    """
    if kernel.kind != STATIONARY:
        raise PreconditionViolation("coefficient recovery requires a stationary kernel")
    if K < 0:
        raise ValueError("K must be nonnegative")
    if M is None:
        M = max(4 * K, 512)
    if M < 4 * K:
        raise PreconditionViolation(f"need M >= 4K for reliable quadrature, got M={M}, K={K}")

    L = kernel.domain_length
    t, _ = trapezoid_nodes(L, M)
    vals = np.asarray(kernel.evaluate(t), dtype=float)
    samples = vals[:M].copy()
    samples[0] = 0.5 * (vals[0] + vals[M])
    c2 = L**2 * np.fft.rfft(samples).real[: K + 1] / M

    c0_scale = abs(float(vals[0]))
    clamp = CLAMP_REL * max(c0_scale, 1e-300)
    negative = c2 < 0
    bad = c2 < -clamp
    if np.any(bad):
        worst = float(c2.min())
        raise NotPositiveDefinite(
            f"squared coefficient {worst:.3e} below -{clamp:.3e} at index {int(c2.argmin())}"
        )
    clamped = np.nonzero(negative)[0]
    c2[negative] = 0.0
    seq = SpectralSequence(np.sqrt(c2), domain_length=L)
    if return_diagnostics:
        return seq, {"clamped_indices": clamped.tolist(), "quadrature_points": M}
    return seq


def condition_at_zero(kernel: CovarianceKernel) -> CovarianceKernel:
    """Covariance of the process conditioned to vanish at t = 0.

    R(s, t) = C(t - s) - C(s) C(t) / C(0).
    """
    if kernel.kind != STATIONARY:
        raise PreconditionViolation("conditioning requires a stationary kernel")
    C = kernel.evaluate
    c0 = float(C(0.0))
    if c0 <= 0.0:
        raise AllZeroKernel("cannot condition a kernel with zero variance at lag 0")

    def R(s, t):
        s_arr, s_scalar = _as_array(s)
        t_arr, t_scalar = _as_array(t)
        out = np.asarray(C(t_arr - s_arr), dtype=float) - (
            np.asarray(C(s_arr), dtype=float) * np.asarray(C(t_arr), dtype=float) / c0
        )
        return float(out) if (s_scalar and t_scalar) else out

    return CovarianceKernel(
        evaluate=R,
        domain_length=kernel.domain_length,
        kind=CONDITIONED,
        spectrum=kernel.spectrum,
    )


def basis_matrices(K: int, t: np.ndarray, L: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows of cosine basis (frequencies 0..K) and sine basis (1..K) at t."""
    ang = (2.0 * np.pi / L) * np.multiply.outer(np.arange(K + 1, dtype=float), t)
    Cb = np.sqrt(2.0) * np.cos(ang)
    Cb[0] = 1.0
    Sb = np.sqrt(2.0) * np.sin(ang[1:])
    return Cb, Sb


def fourier_matrices(kernel: CovarianceKernel, K: int, M: int | None = None) -> FourierMatrices:
    """All four Fourier blocks of a kernel up to frequency K.

    Uses the closed trapezoid rule with M + 1 points per axis; default
    M = max(4K, 512).  The kernel is tabulated once on that grid and
    multiplied by each weighted basis once; the four blocks share those
    two products.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if M is None:
        M = max(4 * K, 512)
    if M < 4 * K:
        raise PreconditionViolation(f"need M >= 4K for reliable quadrature, got M={M}, K={K}")

    L = kernel.domain_length
    R = kernel.grid_matrix(M, closed=True)
    t, w = trapezoid_nodes(L, M)
    Cb, Sb = basis_matrices(K, t, L)
    Cw = Cb * w
    Sw = Sb * w

    RC = R @ Cw.T
    RS = R @ Sw.T
    rcc = Cw @ RC
    rss = Sw @ RS
    rsc = Sw @ RC
    rcs = Cw @ RS
    return FourierMatrices(
        rcc=rcc, rss=rss, rsc=rsc, rcs=rcs, truncation=K, domain_length=L
    )
