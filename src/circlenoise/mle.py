"""Maximum likelihood for the power-law model.

The model is x_t = sum_{k=1}^n (a / k^p) (Y_k sin(2 pi k t)
+ Y'_k cos(2 pi k t)) with iid standard normal draws and unnormalized
sin/cos.  Sampling uses N = 2n + 1 equispaced points of [0, 1): on that
grid the discrete sine/cosine system is exactly orthogonal with no
Nyquist bin, so the Fourier analysis step recovers y1_k = (a/k^p) Y_k and
y2_k = (a/k^p) Y'_k to round-off rather than approximately.  With
energies o_k = y1_k^2 + y2_k^2 the log-likelihood is

    l(a, p) = -n log(2 pi) - 2n log a + 2p sum log k
              - (1 / 2a^2) sum k^{2p} o_k.

Amplitude has a closed form at any fixed p, a_hat(p)^2
= (1/2n) sum k^{2p} o_k, so the joint fit profiles a out and solves the
1-D score 2 sum log k = 2n * (weighted mean of log k under weights
k^{2p} o_k), which is strictly decreasing in p.  So is the score in p at
a known amplitude.  Both exponent fits use one solver: Newton steps from
the log-log least-squares slope of o_k against k, kept inside a bracket
on p that starts as P_SEARCH (widened once to twice its size) and
shrinks with the sign of the score, bisecting when a step leaves it.

Draw order: z = standard_normal(2n) consumed as Y_k = z[2k-2],
Y'_k = z[2k-1] (sine then cosine per frequency), Philox-keyed by seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AllZeroEnergies, LengthMismatch, NoRoot, NotConverged
from .synthesis import GaussianDraw, SamplePath, _synthesize, rng_from_seed

SCORE_TOL = 1e-8
P_SEARCH = (-10.0, 10.0)
# The exponent solver stops after a step of at most XTOL in p.
XTOL = 1e-12
MAX_ITERATIONS = 100


@dataclass(frozen=True)
class PowerLawModel:
    """Amplitude a > 0, decay exponent p, frequency count n >= 1.

    Joint estimation additionally needs n >= 2 (two distinct frequencies
    identify p); single-frequency models are allowed for the closed-form
    and degenerate-information cases.
    """

    a: float
    p: float
    n: int

    def __post_init__(self):
        if not (self.a > 0):
            raise ValueError("amplitude a must be positive")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))

    def amplitudes(self) -> np.ndarray:
        k = np.arange(1, self.n + 1, dtype=float)
        return self.a / k**self.p


@dataclass(frozen=True)
class FrequencyEnergies:
    """Per-frequency energies o_k = y1_k^2 + y2_k^2, k = 1..n."""

    o: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    n: int

    def __post_init__(self):
        for name in ("o", "y1", "y2"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            if arr.shape != (self.n,):
                raise ValueError(f"{name} must have shape ({self.n},)")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class FitResult:
    a_hat: float
    p_hat: float
    score_residual: tuple[float, float]
    iterations: int
    converged: bool
    asymptotic: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FisherAsymptotics:
    """Asymptotic scales from the information matrix.

    info_p = 4 sum log^2 k is the one-parameter Fisher information for p
    at known amplitude; scale_p = 1/sqrt(info_p) and scale_a = a0/(2 sqrt n)
    are the matching standard deviations.  In units of those scales the
    joint information matrix is [[1, -g], [-g, 1]] with
    g = S1 / sqrt(n S2) -> 1, so the inverse blows up along a single
    common direction: standardized errors of (a_hat, p_hat) collapse onto
    degeneracy_direction with correlation approaching
    predicted_correlation_sign * 1.
    """

    info_p: float
    scale_p: float
    scale_a: float
    s1: float
    s2: float
    fisher_correlation: float
    joint_std_p: float
    joint_std_a: float
    degeneracy_direction: tuple[float, float]
    predicted_correlation_sign: int
    degenerate: bool


def sample_model(model: PowerLawModel, seed: int) -> SamplePath:
    """Sample the model on N = 2n + 1 equispaced points of [0, 1)."""
    n = model.n
    N = 2 * n + 1
    z = rng_from_seed(seed).standard_normal(2 * n)
    draw = GaussianDraw(Y=z[0::2], Yp=np.concatenate(([0.0], z[1::2])), seed=seed)
    values = _synthesize(np.concatenate(([0.0], model.amplitudes())), draw, N)
    return SamplePath(
        grid_points=np.arange(N) / N,
        values=values,
        t_step=1.0 / N,
        seed=seed,
        model_tag=f"powerlaw(a={model.a:g},p={model.p:g},n={n})",
    )


def energies(path: SamplePath, n: int | None = None) -> FrequencyEnergies:
    """Fourier analysis at frequencies 1..n, exact on 2n + 1 points.

    y1_k and y2_k are the sine and cosine coefficients; for data generated
    by sample_model they equal (a/k^p) Y_k and (a/k^p) Y'_k to round-off.
    """
    N = len(path)
    if n is None:
        if N % 2 == 0:
            raise LengthMismatch(f"cannot infer n from an even sample count {N}")
        n = (N - 1) // 2
    if N != 2 * n + 1:
        raise LengthMismatch(f"expected N = 2n + 1 = {2 * n + 1} samples, got {N}")
    X = np.fft.rfft(path.values)
    y1 = -2.0 * X[1 : n + 1].imag / N
    y2 = 2.0 * X[1 : n + 1].real / N
    return FrequencyEnergies(o=y1**2 + y2**2, y1=y1, y2=y2, n=n)


def _as_energy_array(o) -> np.ndarray:
    if isinstance(o, FrequencyEnergies):
        return o.o
    return np.asarray(o, dtype=float)


def loglik(o, a: float, p: float) -> float:
    """l(a, p), with o either FrequencyEnergies or a raw energy array."""
    if not a > 0:
        raise ValueError("a must be positive")
    ovals = _as_energy_array(o)
    n = ovals.size
    k = np.arange(1, n + 1, dtype=float)
    logk = np.log(k)
    return float(
        -n * math.log(2.0 * math.pi)
        - 2.0 * n * math.log(a)
        + 2.0 * p * logk.sum()
        - 0.5 * np.sum(k ** (2.0 * p) * ovals) / a**2
    )


def score(o, a: float, p: float) -> tuple[float, float]:
    """(dl/da, dl/dp) at (a, p)."""
    ovals = _as_energy_array(o)
    n = ovals.size
    k = np.arange(1, n + 1, dtype=float)
    logk = np.log(k)
    weighted = k ** (2.0 * p) * ovals
    s_a = -2.0 * n / a + np.sum(weighted) / a**3
    s_p = 2.0 * logk.sum() - np.sum(logk * weighted) / a**2
    return float(s_a), float(s_p)


def fit_known_p(o, p0: float) -> float:
    """Closed-form amplitude at known decay: a^2 = (1/2n) sum k^{2 p0} o_k.

    The scaled statistic 2n a_hat^2 / a0^2 is exactly chi-squared with 2n
    degrees of freedom under the model.
    """
    ovals = _as_energy_array(o)
    if not np.any(ovals > 0.0):
        raise AllZeroEnergies("all energies vanish; amplitude unidentifiable")
    n = ovals.size
    k = np.arange(1, n + 1, dtype=float)
    return float(math.sqrt(np.sum(k ** (2.0 * p0) * ovals) / (2.0 * n)))


def _log_slope_start(ovals: np.ndarray) -> float:
    """Exponent from the least-squares line of log o_k against log k.

    Under the model log o_k = const - 2p log k + noise, so minus half the
    slope is a start within a few Newton steps of the root; fewer than two
    positive energies give the bracket midpoint 0.
    """
    pos = np.nonzero(ovals > 0.0)[0]
    if pos.size < 2:
        return 0.0
    logk = np.log(pos + 1.0)
    logk -= logk.mean()
    return float(-0.5 * (logk @ np.log(ovals[pos])) / (logk @ logk))


def _decreasing_root(f, start: float, label: str) -> tuple[float, int]:
    """Root of a strictly decreasing f(p) -> (value, slope) by safeguarded Newton.

    The bracket is P_SEARCH, widened once to twice its size when f has no
    sign change there.  Newton steps from ``start`` shrink the bracket as
    the sign of f is seen, and a step that leaves the bracket bisects it
    instead ("rtsafe", Press et al., Numerical Recipes, section 9.4).
    Stops once a step moves p by at most XTOL.  Returns the root and the
    number of steps.
    """
    lo, hi = P_SEARCH
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    if f_lo * f_hi > 0.0:
        lo, hi = 2.0 * lo, 2.0 * hi
        f_lo, f_hi = f(lo)[0], f(hi)[0]
        if f_lo * f_hi > 0.0:
            raise NoRoot(f"{label} has no sign change in [{lo}, {hi}]")
    if f_lo == 0.0:
        return lo, 0
    if f_hi == 0.0:
        return hi, 0
    p = start if lo < start < hi else 0.5 * (lo + hi)
    for iteration in range(1, MAX_ITERATIONS + 1):
        value, slope = f(p)
        if value > 0.0:
            lo = p
        elif value < 0.0:
            hi = p
        else:
            return p, iteration
        step = p - value / slope if slope < 0.0 else math.nan
        if not lo <= step <= hi:
            step = 0.5 * (lo + hi)
        if abs(step - p) <= XTOL:
            return step, iteration
        p = step
    raise NotConverged(f"{label}: no convergence in {MAX_ITERATIONS} steps")


def fit_known_a(o, a0: float) -> float:
    """Decay exponent at known amplitude: root of dl/dp with a = a0.

    h(p) = 2 sum log k - (1/a0^2) sum log k * k^{2p} o_k is strictly
    decreasing, so the root is unique when it exists in the search
    interval.  This is the estimator whose error is asymptotically
    normal on the scale 1/sqrt(4 sum log^2 k); the jointly fitted p
    shares the scale but not the unit variance, its standardized error
    growing with n through the amplitude degeneracy.
    """
    ovals = _as_energy_array(o)
    if not np.any(ovals > 0.0):
        raise AllZeroEnergies("all energies vanish")
    n = ovals.size
    k = np.arange(1, n + 1, dtype=float)
    logk = np.log(k)
    two_s1 = 2.0 * logk.sum()

    def h(p: float) -> tuple[float, float]:
        w = logk * k ** (2.0 * p) * ovals / a0**2
        return two_s1 - float(w.sum()), -2.0 * float(logk @ w)

    return _decreasing_root(h, _log_slope_start(ovals), "known-amplitude score")[0]


def fit_joint(o) -> FitResult:
    """Profile-likelihood joint fit of (a, p).

    Solves the strictly decreasing profile score
    g(p) = 2 sum log k - 2n E_w[log k], g'(p) = -4n Var_w(log k), under the
    weights w_k proportional to k^{2p} o_k, formed as
    exp(2p log k + log o_k - max) so that no |p| overflows them, then
    recovers the amplitude from its closed form at p_hat.  Needs energy at
    two or more distinct frequencies.
    """
    ovals = _as_energy_array(o)
    if np.count_nonzero(ovals > 0.0) < 2:
        raise AllZeroEnergies("need positive energy at two distinct frequencies")
    n = ovals.size
    logk = np.log(np.arange(1, n + 1, dtype=float))
    logk2 = logk**2
    two_s1 = 2.0 * logk.sum()
    with np.errstate(divide="ignore"):
        logo = np.log(ovals)

    def g(p: float) -> tuple[float, float]:
        e = 2.0 * p * logk + logo
        w = np.exp(e - e.max())
        total = w.sum()
        mean = (logk @ w) / total
        second = (logk2 @ w) / total
        return two_s1 - 2.0 * n * mean, -4.0 * n * (second - mean**2)

    p_hat, iterations = _decreasing_root(g, _log_slope_start(ovals), "profile score")
    a_hat = fit_known_p(ovals, p_hat)
    s_a, s_p = score(ovals, a_hat, p_hat)
    converged = max(abs(s_a), abs(s_p)) < SCORE_TOL
    if not converged:
        raise NotConverged(f"score residual ({s_a:.3e}, {s_p:.3e}) above {SCORE_TOL}")

    asym = asymptotics(PowerLawModel(a=a_hat, p=p_hat, n=n))
    return FitResult(
        a_hat=float(a_hat),
        p_hat=float(p_hat),
        score_residual=(s_a, s_p),
        iterations=iterations,
        converged=converged,
        asymptotic={
            "scale_a": asym.scale_a,
            "scale_p": asym.scale_p,
            "predicted_correlation_sign": asym.predicted_correlation_sign,
        },
    )


def asymptotics(model: PowerLawModel) -> FisherAsymptotics:
    """Information-matrix scales for the model at (a0, p0).

    The information for (a, p) per sample of 2n coefficients is
    [[4n/a0^2, -4 S1/a0], [-4 S1/a0, 4 S2]] with S1 = sum log k,
    S2 = sum log^2 k.  Standardizing by (a0/(2 sqrt n), 1/(2 sqrt S2))
    gives [[1, -g], [-g, 1]], g = S1/sqrt(n S2): the inverse correlation
    of the joint errors is +g, which tends to one, and the standardized
    error vector collapses onto the common direction (1, 1)/sqrt(2).
    n = 1 carries zero information about p and is flagged degenerate.
    """
    n = model.n
    logk = np.log(np.arange(1, n + 1, dtype=float))
    s1 = float(logk.sum())
    s2 = float(np.sum(logk**2))
    info_p = 4.0 * s2
    degenerate = info_p == 0.0
    scale_p = math.inf if degenerate else 1.0 / (2.0 * math.sqrt(s2))
    scale_a = model.a / (2.0 * math.sqrt(n))

    if degenerate:
        gamma = 0.0
        joint_std_p = math.inf
        joint_std_a = scale_a
    else:
        det = n * s2 - s1**2
        if det <= 0.0:
            gamma = 1.0
            joint_std_p = math.inf
            joint_std_a = math.inf
        else:
            gamma = s1 / math.sqrt(n * s2)
            joint_std_p = math.sqrt(n / (4.0 * det))
            joint_std_a = model.a * math.sqrt(s2 / (4.0 * det))

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return FisherAsymptotics(
        info_p=info_p,
        scale_p=scale_p,
        scale_a=scale_a,
        s1=s1,
        s2=s2,
        fisher_correlation=gamma,
        joint_std_p=joint_std_p,
        joint_std_a=joint_std_a,
        degeneracy_direction=(inv_sqrt2, inv_sqrt2),
        predicted_correlation_sign=1,
        degenerate=degenerate,
    )
