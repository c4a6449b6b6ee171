"""Eigen-decomposition of the conditioned covariance operator.

Work in units where the process variance C(0) = a_0 + 2 sum a_k equals
one (inputs are rescaled internally and eigenvalues scaled back).  The
operator splits over the sine/cosine subspaces.  Sines pass through
untouched: each a_k > 0 is an eigenvalue with eigenfunction
sqrt(2) sin(2 pi k t / L).  On the even subspace, spanned by the constant
and the cosines, the operator is diag(a_0, ..., a_K) - outer(u, u) with
u = (a_0, sqrt(2) a_1, ..., sqrt(2) a_K), a diagonal minus a rank-one
update.  Its spectrum is classical:

  * a variance repeated over a support S of size m keeps m - 1 copies,
    with eigenvectors supported on S and orthogonal to u there;
  * between each pair of consecutive distinct variances lies exactly one
    new eigenvalue, the unique root of the secular equation
    S(x) = a_0^2/(a_0 - x) + 2 sum a_n^2/(a_n - x) = 1 in that gap, with
    eigenfunction f_0 = a_0/(a_0 - x), f_n = sqrt(2) a_n/(a_n - x);
  * no eigenvalue lies above the largest variance or below the smallest
    positive one, and x = 0 always solves S(x) = 1 (the conditioning
    constraint direction).

Every even eigenfunction obeys f_0 + sqrt(2) sum f_n = 0, which is the
statement that eigenfunctions of the conditioned operator vanish at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import brentq

from .errors import AllZeroKernel, ClusterAmbiguity, FitError, PreconditionViolation
from .spectral import CovarianceKernel, SpectralSequence

# Gaps at least this many cluster tolerances wide count as distinct.
GRAY_ZONE_FACTOR = 10.0


@dataclass(frozen=True)
class EigenSystem:
    """Spectrum of the conditioned operator, in the input's variance units.

    sine_pairs: (eigenvalue, frequency) for every positive sine variance.
    even_pairs: (eigenvalue, coefficient vector (f_0, f_1^c, ..., f_K^c))
        for the secular roots, unit-norm coefficients.
    multiplicity_pairs: (eigenvalue, m - 1, basis) for each variance
        repeated m >= 2 times; basis rows are orthonormal coefficient
        vectors.
    normalization_scale: the C(0) that was divided out so the secular
        solve ran at unit variance (1.0 means the input was already
        normalized).
    diagnostics: secular residuals, gap list, truncation tail bound.
    """

    sine_pairs: tuple
    even_pairs: tuple
    multiplicity_pairs: tuple
    normalization_scale: float
    truncation: int
    diagnostics: dict = field(default_factory=dict)

    def all_eigenvalues(self) -> np.ndarray:
        """Full positive spectrum, multiplicities expanded, descending."""
        vals = [v for v, _ in self.sine_pairs]
        vals += [v for v, _ in self.even_pairs]
        for v, count, _ in self.multiplicity_pairs:
            vals += [v] * count
        return np.sort(np.asarray(vals, dtype=float))[::-1]


@dataclass(frozen=True)
class InterlacingReport:
    passed: bool
    violations: tuple[str, ...]
    checked_gaps: int


def secular_value(avals: np.ndarray, x: float) -> float:
    """S(x) = a_0^2/(a_0 - x) + 2 sum_{n>=1} a_n^2/(a_n - x)."""
    weights = np.full(avals.size, 2.0)
    weights[0] = 1.0
    return float(np.sum(weights * avals**2 / (avals - x)))


def _secular_derivative(avals: np.ndarray, x: float) -> float:
    weights = np.full(avals.size, 2.0)
    weights[0] = 1.0
    return float(np.sum(weights * avals**2 / (avals - x) ** 2))


def _group_variances(avals: np.ndarray, cluster_tol: float) -> list[dict]:
    """Cluster the positive variances into equal-value groups.

    Returns groups sorted descending by value, each with its member
    indices into the (K+1)-vector (index 0 is the constant component).
    Spacing inside [cluster_tol, GRAY_ZONE_FACTOR * cluster_tol) is
    ambiguous and refused.
    """
    idx = np.nonzero(avals > 0.0)[0]
    order = idx[np.argsort(avals[idx])[::-1]]
    groups: list[dict] = []
    for i in order:
        v = float(avals[i])
        if groups and groups[-1]["value"] - v < cluster_tol:
            groups[-1]["members"].append(int(i))
            continue
        if groups:
            gap = groups[-1]["value"] - v
            if gap < GRAY_ZONE_FACTOR * cluster_tol:
                raise ClusterAmbiguity(
                    f"variance spacing {gap:.3e} is inside the gray zone "
                    f"[{cluster_tol:.3e}, {GRAY_ZONE_FACTOR * cluster_tol:.3e})"
                )
        groups.append({"value": v, "members": [int(i)]})
    return groups


def _solve_gap(avals: np.ndarray, lo: float, hi: float, xtol: float) -> float:
    """Unique root of S(x) = 1 in the open gap (lo, hi).

    Brackets shrink from the pole endpoints by 1e-14 of the gap width (S
    has simple poles there); a guarded Newton polish pushes the residual
    to solver precision.  S is strictly increasing between its poles, so
    the bracket is sign-definite once clear of them.  The shrink is
    floored at a few ulps of the endpoints so narrow gaps still produce
    probes distinct from the poles.
    """
    gap = hi - lo
    shrink = max(1e-14 * gap, 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi)))
    g = lambda x: secular_value(avals, x) - 1.0
    a, b = lo + shrink, hi - shrink
    for _ in range(6):
        if g(a) < 0.0 and g(b) > 0.0:
            break
        shrink *= 10.0
        a, b = lo + shrink, hi - shrink
    else:
        raise FitError(f"could not bracket the secular root in ({lo:.6e}, {hi:.6e})")
    root = brentq(g, a, b, xtol=xtol, maxiter=200)

    for _ in range(3):
        resid = g(root)
        if abs(resid) < 1e-15:
            break
        candidate = root - resid / _secular_derivative(avals, root)
        if not (lo < candidate < hi):
            break
        root = candidate
    return float(root)


def conditioned_spectrum(
    seq: SpectralSequence, cluster_tol: float | None = None
) -> EigenSystem:
    """Full eigen-decomposition of the covariance operator conditioned at 0.

    cluster_tol defaults to 1e-9 times the largest variance.  Eigenvalues
    are returned in the input's units; the secular solve itself runs at
    C(0) = 1.
    """
    avals = seq.kl_variances()
    c0_total = float(avals[0] + 2.0 * avals[1:].sum())
    if c0_total <= 0.0:
        raise AllZeroKernel("all-zero sequence has an empty spectrum")
    a = avals / c0_total

    a_max = float(a.max())
    if cluster_tol is None:
        cluster_tol = 1e-9 * a_max

    sine_pairs = tuple(
        (float(avals[k]), int(k)) for k in range(1, avals.size) if avals[k] > 0.0
    )

    groups = _group_variances(a, cluster_tol)

    multiplicity_pairs = []
    for grp in groups:
        members = grp["members"]
        m = len(members)
        if m < 2:
            continue
        # Eigenvectors live on the support, orthogonal to u there; u is
        # proportional to (1, sqrt2, ..., sqrt2) when the constant
        # component belongs to the group and to all-ones otherwise.
        w = np.full(m, np.sqrt(2.0) if 0 in members else 1.0)
        if 0 in members:
            w[members.index(0)] = 1.0
        basis_local = null_space(w[None, :])
        basis = np.zeros((m - 1, avals.size))
        for col in range(m - 1):
            basis[col, members] = basis_local[:, col]
        multiplicity_pairs.append(
            (float(grp["value"] * c0_total), m - 1, basis)
        )

    xtol = 1e-12 * a_max
    even_pairs = []
    residuals = []
    gaps = []
    values_desc = [grp["value"] for grp in groups]
    for hi, lo in zip(values_desc[:-1], values_desc[1:]):
        root = _solve_gap(a, lo, hi, xtol)
        residuals.append(abs(secular_value(a, root) - 1.0))
        gaps.append((lo, hi))
        # The root is strictly interior to the gap, so a - root never
        # vanishes; zero variances contribute zero coefficients.
        f = np.sqrt(2.0) * a / (a - root)
        f[0] = a[0] / (a[0] - root)
        f /= np.linalg.norm(f)
        even_pairs.append((float(root * c0_total), f))

    return EigenSystem(
        sine_pairs=sine_pairs,
        even_pairs=tuple(even_pairs),
        multiplicity_pairs=tuple(multiplicity_pairs),
        normalization_scale=c0_total,
        truncation=seq.truncation,
        diagnostics={
            "secular_residuals": residuals,
            "gaps": gaps,
            "cluster_tol": cluster_tol,
            # Finite input sequence: the secular sum is exact, no tail.
            "truncation_tail_bound": 0.0,
        },
    )


def operator_oracle(kernel: CovarianceKernel, m: int) -> np.ndarray:
    """Brute-force eigenvalues of the covariance operator by discretization.

    The kernel is evaluated on the m-point closed-open uniform grid,
    symmetrized, and densely diagonalized; scaling by 1/m makes the
    results eigenvalues of f -> (1/L) integral_0^L R(t, s) f(s) ds, the
    same normalized-measure units the analytic spectrum uses.  Exact up
    to rounding for bandlimited kernels resolved by the grid.
    """
    if m < 100:
        raise PreconditionViolation(f"oracle grid too coarse: m={m} < 100")
    R = kernel.grid_matrix(m, closed=False)
    R = 0.5 * (R + R.T)
    eig = np.linalg.eigvalsh(R) / m
    return np.sort(eig)[::-1]


def verify_interlacing(sys: EigenSystem, seq: SpectralSequence) -> InterlacingReport:
    """Check the interlacing structure of an eigensystem against its input.

    Secular eigenvalues must fall strictly between consecutive distinct
    variances; repeated variances must contribute exactly multiplicity
    minus one flat eigenvalues; nothing may exceed the largest variance or
    undercut the smallest positive one.
    """
    avals = seq.kl_variances()
    cluster_tol = sys.diagnostics.get("cluster_tol")
    scale = sys.normalization_scale
    a = avals / scale
    groups = _group_variances(a, cluster_tol if cluster_tol is not None else 1e-9 * a.max())
    values_desc = np.array([g["value"] for g in groups]) * scale

    violations: list[str] = []
    evens = sorted((v for v, _ in sys.even_pairs), reverse=True)
    n_gaps = len(values_desc) - 1
    if len(evens) != n_gaps:
        violations.append(
            f"expected {n_gaps} secular eigenvalues for {len(values_desc)} distinct "
            f"variances, got {len(evens)}"
        )
    for i, ev in enumerate(evens):
        if i < n_gaps:
            hi, lo = values_desc[i], values_desc[i + 1]
            if not (lo < ev < hi):
                violations.append(
                    f"eigenvalue {ev:.6e} not strictly inside gap ({lo:.6e}, {hi:.6e})"
                )

    vmax = float(values_desc[0])
    vmin = float(values_desc[-1])
    for ev in evens:
        if ev >= vmax:
            violations.append(f"eigenvalue {ev:.6e} at or above the largest variance {vmax:.6e}")
        if ev <= vmin:
            violations.append(
                f"eigenvalue {ev:.6e} at or below the smallest positive variance {vmin:.6e}"
            )

    expected_mult = sorted(
        (float(g["value"] * scale), len(g["members"]) - 1)
        for g in groups
        if len(g["members"]) > 1
    )
    seen_mult = sorted((float(v), int(count)) for v, count, _ in sys.multiplicity_pairs)
    if len(expected_mult) != len(seen_mult):
        violations.append(
            f"expected {len(expected_mult)} repeated-variance groups, got {len(seen_mult)}"
        )
    else:
        for (v_exp, c_exp), (v_got, c_got) in zip(expected_mult, seen_mult):
            if abs(v_exp - v_got) > 1e-12 * max(abs(v_exp), 1.0) or c_exp != c_got:
                violations.append(
                    f"repeated variance {v_exp:.6e} should contribute {c_exp} "
                    f"eigenvalues, got {c_got} at {v_got:.6e}"
                )

    return InterlacingReport(
        passed=not violations, violations=tuple(violations), checked_gaps=n_gaps
    )
