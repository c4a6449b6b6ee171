"""Path synthesis from a spectral sequence.

Draw order is fixed and documented so seeded runs are reproducible across
platforms: with K + 1 coefficients, a single vector z of 2K + 1 standard
normals is consumed as

    Y'_0 = z[0],   Y_k = z[2k - 1],   Y'_k = z[2k]   (k = 1..K),

where Y_k multiplies the sine component at frequency k and Y'_k the cosine
component.  The generator is counter-based (Philox) keyed directly by the
seed, so streams are stable under numpy upgrades of the default generator.

Sampling evaluates x_t on the closed-open uniform grid t_i = i L / N via an
inverse real FFT, which is exact (to rounding) whenever N >= 2 (K + 1).
The power-law sampler ``mle.sample_model`` draws in its own documented
order and calls the same FFT body, ``_synthesize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllZeroKernel, UnderResolved
from .spectral import SpectralSequence, lag_table

PERIODIC = "periodic"
ANTIPERIODIC = "antiperiodic"
MIXED = "mixed"


@dataclass(frozen=True)
class GaussianDraw:
    """The (Y, Y') coefficient draws for one path.

    Y has length K (sine components, frequencies 1..K); Yp has length K + 1
    (Yp[0] multiplies the constant, Yp[k] the cosine at frequency k).
    """

    Y: np.ndarray
    Yp: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        Y = np.asarray(self.Y, dtype=float)
        Yp = np.asarray(self.Yp, dtype=float)
        if Yp.size != Y.size + 1:
            raise ValueError("Yp must have exactly one more entry than Y")
        Y = Y.copy()
        Yp = Yp.copy()
        Y.setflags(write=False)
        Yp.setflags(write=False)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Yp", Yp)

    @property
    def truncation(self) -> int:
        return self.Y.size


@dataclass(frozen=True)
class SamplePath:
    """A path sampled on the closed-open grid t_i = i * t_step."""

    grid_points: np.ndarray
    values: np.ndarray
    t_step: float
    seed: int | None = None
    model_tag: str | None = None

    def __post_init__(self):
        g = np.asarray(self.grid_points, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.shape != v.shape or g.ndim != 1:
            raise ValueError("grid_points and values must be 1-d arrays of equal length")
        g = g.copy()
        v = v.copy()
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "grid_points", g)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Periodicity:
    """Classification of a spectral sequence's translation symmetry.

    kind is "periodic" (x repeats with period L / divisor, divisor maximal),
    "antiperiodic" (x_{t + L/2} = -x_t), or "mixed" (neither beyond the
    trivial full period).
    """

    kind: str
    divisor: int | None = None


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=seed))


def draw_coefficients(K: int, seed: int) -> GaussianDraw:
    """Draw (Y, Y') for truncation K in the documented fixed order."""
    z = rng_from_seed(seed).standard_normal(2 * K + 1)
    Yp = np.empty(K + 1)
    Y = np.empty(K)
    Yp[0] = z[0]
    if K:
        Y[:] = z[1::2]
        Yp[1:] = z[2::2]
    return GaussianDraw(Y=Y, Yp=Yp, seed=seed)


def _synthesize(scale: np.ndarray, draw: GaussianDraw, N: int) -> np.ndarray:
    """Evaluate scale_0 Y'_0 + sum_k scale_k (Y_k sin + Y'_k cos) on the N-point grid.

    One inverse real FFT; ``scale`` has K + 1 entries and frequency k lands
    in bin k, so N >= 2K + 1 keeps every frequency apart.
    """
    K = draw.truncation
    spec = np.zeros(N // 2 + 1, dtype=complex)
    spec[0] = N * scale[0] * draw.Yp[0]
    spec[1 : K + 1] = (N / 2.0) * (scale[1:] * (draw.Yp[1:] - 1j * draw.Y))
    return np.fft.irfft(spec, n=N)


def sample_H(
    seq: SpectralSequence,
    N: int,
    seed: int | None = None,
    draw: GaussianDraw | None = None,
    model_tag: str | None = None,
) -> SamplePath:
    """Sample the stationary process on N closed-open grid points.

    Provide either a seed or an explicit draw (for fixed-draw comparisons
    across spectra).  Requires N >= 2 (K + 1) so every represented
    frequency sits below Nyquist.
    """
    K = seq.truncation
    if N < 2 * (K + 1):
        raise UnderResolved(f"N={N} cannot resolve truncation K={K}; need N >= {2 * (K + 1)}")
    if draw is None:
        if seed is None:
            raise ValueError("provide a seed or an explicit draw")
        draw = draw_coefficients(K, seed)
    elif draw.truncation != K:
        raise ValueError("draw truncation does not match the sequence")

    L = seq.domain_length
    scale = math.sqrt(2.0) * seq.coeffs / L
    scale[0] = seq.coeffs[0] / L
    values = _synthesize(scale, draw, N)
    step = L / N
    grid = np.arange(N) * step
    tag = model_tag or f"H(K={K},L={L:g})"
    return SamplePath(grid_points=grid, values=values, t_step=step, seed=draw.seed, model_tag=tag)


def sample_H0(
    seq: SpectralSequence,
    N: int,
    seed: int | None = None,
    draw: GaussianDraw | None = None,
    model_tag: str | None = None,
) -> SamplePath:
    """Sample the process conditioned to vanish at t = 0.

    Uses the pathwise form y_t = x_t - x_0 * C(t) / C(0), which has exactly
    the conditioned covariance; values[0] is exactly zero.
    """
    if seq.total_variance() == 0.0:
        raise AllZeroKernel("cannot condition an all-zero sequence")
    path = sample_H(seq, N, seed=seed, draw=draw)
    profile = lag_table(seq, N)
    values = path.values - path.values[0] * profile / profile[0]
    values[0] = 0.0
    K = seq.truncation
    tag = model_tag or f"H0(K={K},L={seq.domain_length:g})"
    return SamplePath(
        grid_points=path.grid_points,
        values=values,
        t_step=path.t_step,
        seed=path.seed,
        model_tag=tag,
    )


def classify_periodicity(seq: SpectralSequence) -> Periodicity:
    """Translation symmetry of the process generated by ``seq``.

    Rules, in precedence order over the support S = {k >= 1 : c_k > 0}:
    empty S means a constant process, reported Periodic(1); gcd(S) = m >= 2
    means Periodic(m) regardless of c_0 (a constant offset repeats with any
    period); otherwise all-odd S with c_0 = 0 means antiperiodic; anything
    else is mixed.  All-zero sequences are rejected.
    """
    c = seq.coeffs
    if not np.any(c > 0):
        raise AllZeroKernel("all-zero sequence has no defined symmetry class")
    support = seq.support()
    if support.size == 0:
        return Periodicity(kind=PERIODIC, divisor=1)
    m = int(np.gcd.reduce(support))
    if m >= 2:
        return Periodicity(kind=PERIODIC, divisor=m)
    # The round-off floor applies to variances c^2: recovered sequences
    # carry c_0 = L sqrt(A_0) with A_0 at machine-noise scale, so O(eps)
    # noise in A_0 shows in c_0 at about 1e-9 of the largest coefficient.
    if c[0] ** 2 <= 1e-12 * float(np.max(c**2)) and np.all(support % 2 == 1):
        return Periodicity(kind=ANTIPERIODIC)
    return Periodicity(kind=MIXED)
