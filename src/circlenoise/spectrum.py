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

Variances count as repeated when they agree to a relative tolerance:
adjacent values v_hi > v_lo share a group when v_hi - v_lo < cluster_tol
* v_hi.  All gaps are solved together, block by block, as in LAPACK's
dlaed4 (R.-C. Li, LAWN 89, 1993): the constraint root x = 0 is divided
out of S(x) - 1, each root is measured from its nearer pole, so its
distance to that pole keeps full relative accuracy, and it is found by
two-pole rational steps inside the gap's bracket.  The
eigenvectors use the weights recomputed from all roots (Gu & Eisenstat,
SIAM J. Matrix Anal. Appl. 15(4), 1994), which keeps them orthogonal to
working precision however close the roots sit to the poles.

Every even eigenfunction obeys f_0 + sqrt(2) sum f_n = 0, which is the
statement that eigenfunctions of the conditioned operator vanish at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import null_space

from .errors import AllZeroKernel, ClusterAmbiguity, FitError, PreconditionViolation
from .spectral import CovarianceKernel, SpectralSequence

# Default relative spacing below which adjacent variances count as equal.
CLUSTER_TOL = 2e-9
# Relative spacings at least this many cluster tolerances wide count as distinct.
GRAY_ZONE_FACTOR = 10.0
# Gaps solved together: a block of rows x (K+1) doubles stays in cache.
BLOCK_ROWS = 32
MAX_SECULAR_ITERATIONS = 64
_EPS = np.finfo(float).eps
_MAX = np.finfo(float).max


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
    diagnostics: secular residuals and iterations, gap list, cluster
        tolerance and closest kept spacing, truncation tail bound.
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


def _group_variances(avals: np.ndarray, cluster_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster the positive variances into equal-value groups.

    Returns (order, starts): the indices of the positive entries sorted by
    descending value, and the positions in ``order`` where each group
    begins.  Adjacent values v_hi > v_lo share a group when
    v_hi - v_lo < cluster_tol * v_hi; a relative spacing inside
    [cluster_tol, GRAY_ZONE_FACTOR * cluster_tol) is ambiguous and refused.
    """
    idx = np.nonzero(avals > 0.0)[0]
    order = idx[np.argsort(avals[idx])[::-1]]
    v = avals[order]
    spacing = v[:-1] - v[1:]
    split = spacing >= cluster_tol * v[:-1]
    gray = split & (spacing < GRAY_ZONE_FACTOR * cluster_tol * v[:-1])
    if gray.any():
        i = int(np.argmax(gray))
        raise ClusterAmbiguity(
            f"relative spacing {spacing[i] / v[i]:.3e} between variances {v[i]:.6e} "
            f"and {v[i + 1]:.6e} is inside the gray zone "
            f"[{cluster_tol:.3e}, {GRAY_ZONE_FACTOR * cluster_tol:.3e})"
        )
    starts = np.concatenate(([0], np.nonzero(split)[0] + 1))
    return order, starts


def _secular_terms(q, sv, i0, i1, lower):
    """The reduced secular function h(x) = sum_g V_g/(d_g - x) for gaps i0..i1-1.

    ``q`` holds d - x for each row of the block, taken in shifted form, and
    is overwritten; ``sv`` holds the square roots of the weights V.  The
    terms are positive for the poles above x (phi) and negative for those
    below (psi): the columns left of the block are all above every row,
    the columns from i1 on all below, and the block's own columns split
    along the staircase ``lower``.  Returns h, psi, phi and the
    derivatives dpsi, dphi.
    """
    np.divide(sv, q, out=q)  # sqrt(V) / (d - x)
    left, right, stair = q[:, :i0], q[:, i1:], q[:, i0:i1]
    phi = left @ sv[:i0]
    psi = right @ sv[i1:]
    dphi = np.einsum("ij,ij->i", left, left)
    dpsi = np.einsum("ij,ij->i", right, right)
    terms = stair * sv[i0:i1]
    phi += np.where(lower, terms, 0.0).sum(axis=1)
    psi += np.where(lower, 0.0, terms).sum(axis=1)
    np.square(stair, out=terms)
    dphi += np.where(lower, terms, 0.0).sum(axis=1)
    dpsi += np.where(lower, 0.0, terms).sum(axis=1)
    return psi + phi, psi, phi, dpsi, dphi


def _solve_block(d, sv, i0, i1, staircase):
    """Roots of h(x) = 0 in gaps i0..i1-1, gap i lying between d[i] > d[i+1].

    Each gap's origin is the pole nearer its root, read from the sign of h
    at the midpoint, and the root is iterated as tau = x - origin against
    the offsets d - origin, formed once.  Steps solve the model that keeps
    the two poles of the gap and matches psi and phi to first order (the
    "middle way"); a step that leaves the bracket bisects towards its far
    side.  A gap stops when |h| is within rounding of its terms or after a
    step below 4 eps |x|, and does not move again.

    Returns origin, tau, |S - 1| = |x h(x)| at the returned root, iteration
    counts and the pole offsets.
    """
    rows = np.arange(i0, i1)
    hi, lo = d[rows], d[rows + 1]
    half = 0.5 * (hi - lo)
    local = np.arange(rows.size)
    lower = staircase[: rows.size, : rows.size]

    mid = lo + half
    h, psi, phi, dpsi, dphi = _secular_terms(d - mid[:, None], sv, i0, i1, lower)
    near_hi = h < 0.0
    origin = np.where(near_hi, hi, lo)
    delta = d - origin[:, None]
    tau = np.where(near_hi, -half, half)
    lb = np.where(near_hi, -half, 0.0)
    ub = np.where(near_hi, 0.0, half)
    d_hi, d_lo = delta[local, rows], delta[local, rows + 1]
    widths = d_hi - d_lo
    resid = np.abs(mid * h)
    iterations = np.zeros(rows.size, dtype=int)

    # Offsets and staircase of the rows still iterating, compacted only
    # when a row drops out.
    act = local
    active_delta, active_lower = delta, lower
    keep = np.abs(h) > 8.0 * _EPS * (phi - psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for count in range(1, MAX_SECULAR_ITERATIONS + 1):
            if not keep.all():
                act = act[keep]
                if not act.size:
                    break
                active_delta, active_lower = delta[act], lower[act]
                h, psi, phi, dpsi, dphi = (v[keep] for v in (h, psi, phi, dpsi, dphi))
            # The model c + w_lo/(d_lo - x) + w_hi/(d_hi - x), solved for the
            # new tau itself in units of the gap width: one pole offset is
            # 0, so a root close to the origin keeps full relative accuracy.
            t, p_lo, p_hi, width = tau[act], d_lo[act], d_hi[act], widths[act]
            dl, dh = p_lo - t, p_hi - t
            c = h - dl * dpsi - dh * dphi
            w_lo, w_hi = (dl / width) * (dl * dpsi), (dh / width) * (dh * dphi)
            p_lo, p_hi = p_lo / width, p_hi / width
            a = c * (p_lo + p_hi) + w_lo + w_hi
            b = c * p_lo * p_hi + w_lo * p_hi + w_hi * p_lo
            disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
            step = width * np.where(a <= 0.0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc))
            inside = (step > lb[act]) & (step < ub[act])
            step = np.where(inside, step, 0.5 * (t + np.where(h < 0.0, ub[act], lb[act])))
            x = origin[act] + step
            small = np.abs(step - t) <= 4.0 * _EPS * np.abs(x)
            tau[act] = step
            iterations[act] = count

            h, psi, phi, dpsi, dphi = _secular_terms(
                active_delta - step[:, None], sv, i0, i1, active_lower
            )
            resid[act] = np.abs(x * h)
            lb[act] = np.where(h < 0.0, step, lb[act])
            ub[act] = np.where(h > 0.0, step, ub[act])
            keep = (np.abs(h) > 8.0 * _EPS * (phi - psi)) & ~small
        else:
            if keep.any():
                i = act[keep][0]
                raise FitError(
                    f"secular iteration did not converge in {MAX_SECULAR_ITERATIONS} "
                    f"steps in gap ({lo[i]:.6e}, {hi[i]:.6e})"
                )
    return origin, tau, resid, iterations, delta


def _secular_roots(d, V):
    """Roots of S(x) = 1 in every gap, and the weights they imply.

    d holds the distinct positive variances, descending, and V weights
    that add up to one, so that S(x) = sum_g d_g V_g/(d_g - x) has
    S(0) = 1.  Then S(x) - 1 = x h(x) with h(x) = sum_g V_g/(d_g - x): the
    root x = 0 of the conditioning constraint is divided out exactly, and
    each gap root is the root of h there, free of the cancellation against
    the constant 1 that would cost the small roots their accuracy.

    The matrix diag(d) - outer(uhat, uhat) with these G - 1 roots mu_i and
    the root 0 has the weights (Gu & Eisenstat)
        uhat_g^2 = prod_i (d_g - mu_i) / prod_{k != g} (d_g - d_k),
    taken as d_g times a product of ratios in (0, 1), each gap root paired
    with the pole of its gap on the far side of d_g.  Its eigenvector for
    mu_i is uhat / (d - mu_i).

    Returns origin and tau (mu = origin + tau), uhat, |S - 1| at each root
    and the iteration counts.
    """
    n = d.size - 1
    sv = np.sqrt(V)
    staircase = np.tri(BLOCK_ROWS, dtype=bool)
    origin, tau = np.empty(n), np.empty(n)
    resid, iterations = np.empty(n), np.empty(n, dtype=int)
    ratios = np.ones(d.size)
    for i0 in range(0, n, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n)
        rows = np.arange(i0, i1)
        block = _solve_block(d, sv, i0, i1, staircase)
        origin[rows], tau[rows], resid[rows], iterations[rows], delta = block
        # d_g - d_k for the pole k of each gap on the far side of d_g
        far = np.empty_like(delta)
        np.subtract(d[:i0], d[rows + 1, None], out=far[:, :i0])
        np.subtract(d[i0:], d[rows, None], out=far[:, i0:])
        below = staircase[: rows.size, : rows.size]
        far[:, i0:i1][below] = (d[i0:i1] - d[rows + 1, None])[below]
        delta -= tau[rows, None]
        np.divide(delta, far, out=delta)
        ratios *= delta.prod(axis=0)
    # uhat = d sqrt(ratios / d): the product stays near d |pattern|^2, so
    # nothing underflows before the square root.
    return origin, tau, d * np.sqrt(ratios / d), resid, iterations


def conditioned_spectrum(
    seq: SpectralSequence, cluster_tol: float | None = None
) -> EigenSystem:
    """Full eigen-decomposition of the covariance operator conditioned at 0.

    cluster_tol is relative: adjacent variances v_hi > v_lo count as one
    repeated value when v_hi - v_lo < cluster_tol * v_hi (default
    CLUSTER_TOL = 2e-9), and relative spacings in [cluster_tol,
    GRAY_ZONE_FACTOR * cluster_tol) raise ClusterAmbiguity.  Eigenvalues
    are returned in the input's units; the secular solve itself runs at
    C(0) = 1.  A cluster_tol that is not finite and positive, or a positive
    variance so small against C(0) that the solve would overflow (below
    about 1e-291 C(0) at K = 2 and the default tolerance), raises
    PreconditionViolation.
    """
    avals = seq.kl_variances()
    c0_total = float(avals[0] + 2.0 * avals[1:].sum())
    if c0_total <= 0.0:
        raise AllZeroKernel("all-zero sequence has an empty spectrum")
    a = avals / c0_total
    if cluster_tol is None:
        cluster_tol = CLUSTER_TOL
    if not 0.0 < cluster_tol < np.inf:
        raise PreconditionViolation(f"cluster_tol must be finite and positive, got {cluster_tol}")
    # The solve squares sqrt(V_g)/(d_g - x), where V_g = d_g n_g with
    # d_g = a_k/C(0), and the pattern norms n_g add up to at most
    # M = 2K + 1.  Poles kept apart differ by a relative rho, at least
    # GRAY_ZONE_FACTOR * cluster_tol and at least eps/2 as distinct
    # doubles, so near d_g the other terms of h(x) add up to at most 2M/rho
    # and the root stays V_g rho/(2M) from d_g: the squares stay below
    # (2M/rho)^2 / d_g, finite above this floor.
    rho = max(GRAY_ZONE_FACTOR * cluster_tol, 0.5 * _EPS)
    floor = (2.0 * (2 * seq.truncation + 1) / rho) ** 2 / _MAX
    tiny = np.nonzero((a > 0.0) & (a < floor))[0]
    if tiny.size:
        k = int(tiny[0])
        raise PreconditionViolation(
            f"variance a_{k} is {a[k]:.3e} of C(0), below the floor {floor:.3e} "
            "where the secular solve's squared terms overflow"
        )

    sine_pairs = tuple(
        (float(avals[k]), int(k)) for k in range(1, avals.size) if avals[k] > 0.0
    )

    order, starts = _group_variances(a, cluster_tol)
    sizes = np.diff(np.append(starts, order.size))
    group = np.repeat(np.arange(starts.size), sizes)

    multiplicity_pairs = []
    for g in np.nonzero(sizes > 1)[0]:
        members = order[starts[g] : starts[g] + sizes[g]].tolist()
        m = len(members)
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
        multiplicity_pairs.append((float(a[members[0]] * c0_total), m - 1, basis))

    # Each group enters the secular solve once, at its largest value, along
    # the constraint pattern (1, sqrt2, ..., sqrt2) over its members, the
    # direction its repeated-variance basis is orthogonal to.  Its weight
    # V_g = d_g |pattern_g|^2 is that of the operator conditioned with the
    # group's variances made equal, scaled to S(0) = 1; zero variances
    # drop out.
    pattern = np.sqrt(2.0) * np.ones(avals.size)
    pattern[0] = 1.0
    d = a[order[starts]]
    norms = np.sqrt(np.add.reduceat(pattern[order] ** 2, starts))
    V = d * norms**2
    origin, tau, uhat, residuals, iterations = _secular_roots(d, V / V.sum())

    # Unit eigenvectors uhat / (d - mu), written block by block straight
    # into the (K+1)-vectors; zero variances keep zero weight.
    poles = np.zeros(avals.size)
    poles[order] = d[group]
    weights = np.zeros(avals.size)
    weights[order] = (uhat / norms)[group] * pattern[order]
    coefficients = np.empty((origin.size, avals.size))
    for i0 in range(0, origin.size, BLOCK_ROWS):
        rows = slice(i0, i0 + BLOCK_ROWS)
        f = coefficients[rows]
        np.subtract(poles, origin[rows, None], out=f)
        f -= tau[rows, None]
        np.divide(weights, f, out=f)
        f *= 1.0 / np.sqrt(np.einsum("ij,ij->i", f, f))[:, None]
    roots = origin + tau
    even_pairs = tuple(
        (float(root * c0_total), f) for root, f in zip(roots, coefficients)
    )

    kept = starts[1:]
    v = a[order]
    spacing = (v[kept - 1] - v[kept]) / v[kept - 1]
    return EigenSystem(
        sine_pairs=sine_pairs,
        even_pairs=even_pairs,
        multiplicity_pairs=tuple(multiplicity_pairs),
        normalization_scale=c0_total,
        truncation=seq.truncation,
        diagnostics={
            "secular_residuals": residuals.tolist(),
            "secular_iterations": int(iterations.max(initial=0)),
            "gaps": list(zip(d[1:].tolist(), d[:-1].tolist())),
            "cluster_tol": cluster_tol,
            # Closest pair of variances kept apart, in cluster tolerances;
            # below GRAY_ZONE_FACTOR it would have been refused.
            "min_spacing_over_tol": (
                float(spacing.min() / cluster_tol) if spacing.size else None
            ),
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
    undercut the smallest positive one.  Variances are grouped with the
    eigensystem's own relative cluster tolerance.
    """
    avals = seq.kl_variances()
    cluster_tol = sys.diagnostics.get("cluster_tol")
    scale = sys.normalization_scale
    a = avals / scale
    order, starts = _group_variances(a, CLUSTER_TOL if cluster_tol is None else cluster_tol)
    sizes = np.diff(np.append(starts, order.size))
    values_desc = a[order[starts]] * scale

    violations: list[str] = []
    evens = np.sort(np.array([v for v, _ in sys.even_pairs], dtype=float))[::-1]
    n_gaps = values_desc.size - 1
    if evens.size != n_gaps:
        violations.append(
            f"expected {n_gaps} secular eigenvalues for {values_desc.size} distinct "
            f"variances, got {evens.size}"
        )
    m = min(evens.size, n_gaps)
    hi, lo = values_desc[:m], values_desc[1 : m + 1]
    for i in np.nonzero(~((lo < evens[:m]) & (evens[:m] < hi)))[0]:
        violations.append(
            f"eigenvalue {evens[i]:.6e} not strictly inside gap ({lo[i]:.6e}, {hi[i]:.6e})"
        )

    vmax = float(values_desc[0])
    vmin = float(values_desc[-1])
    for ev in evens[evens >= vmax]:
        violations.append(f"eigenvalue {ev:.6e} at or above the largest variance {vmax:.6e}")
    for ev in evens[evens <= vmin]:
        violations.append(
            f"eigenvalue {ev:.6e} at or below the smallest positive variance {vmin:.6e}"
        )

    repeated = sizes > 1
    expected_mult = sorted(
        (float(v), int(size) - 1) for v, size in zip(values_desc[repeated], sizes[repeated])
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
