"""Spectral decompositions, Green's-function forms, Stieltjes transforms, the
free-convolution fixed point, classical locations, and covariance forms.

Spectral parameters are plain complex numbers z = E + i*eta with eta >= 0;
eta = 0 is legal only through the free-convolution fixed point at t > 0,
which extends continuously to the real axis.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

ORTHO_TOL = 1e-10
RECON_TOL = 1e-8
FIXED_POINT_TOL = 1e-12
FIXED_POINT_DAMPING = 0.5
FIXED_POINT_CAP = 10_000
# Spectral parameters per vectorized fixed-point solve.  Each chunk allocates
# one complex (N x chunk) work buffer, 1 MB at N = 500, and every iteration of
# its solve, cold or warm, computes its reciprocals in place there: fresh
# temporaries that size would sit above glibc's mmap threshold and be mapped
# afresh at every step.
FIXED_POINT_CHUNK = 128
# Classical locations: stop when every |F(gamma_i) - (i - 1/2)/N| is below
# QUANTILE_TOL (the rounding floor of F is about 4e-14 at N = 1000), and raise
# after QUANTILE_ROUNDS safeguarded Newton rounds.
QUANTILE_TOL = 1e-13
QUANTILE_ROUNDS = 100
REGULAR_IM_THRESHOLD = 1e-6
# verify_assumptions' grid: energies across the truncated window, times scales
# geometric from eta_star to 1.
GRID_ENERGIES = 25
GRID_ETAS = 15


@dataclass
class SpectralDecomposition:
    """Ascending eigenvalues plus an orthonormal eigenvector frame.

    Column signs follow a deterministic convention: the largest-magnitude
    coordinate of each eigenvector is positive.  Even moments are unaffected,
    and estimators that need the symmetrized law flip signs explicitly.  The
    frame is N x k: k = N for a full decomposition, fewer for a subset solve.
    """

    eigenvalues: np.ndarray
    frame: np.ndarray

    @property
    def N(self):
        """Dimension of the matrix, whatever the number of eigenpairs held."""
        return self.frame.shape[0]

    def validate(self, source=None):
        """Raise unless the eigenvalues ascend and the columns are orthonormal.

        With the source matrix H, a full frame must reconstruct it entrywise
        and a partial frame must satisfy max|H U - U diag(lambda)| column by
        column, both within RECON_TOL * (1 + max|H|).
        """
        lam, U = self.eigenvalues, self.frame
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        gram_defect = np.max(np.abs(U.T @ U - np.eye(U.shape[1])))
        if not gram_defect <= ORTHO_TOL:
            raise ValueError(f"frame not orthonormal: defect {gram_defect:.3g}")
        if source is not None:
            if U.shape[1] == U.shape[0]:
                resid = np.max(np.abs((U * lam) @ U.T - source))
            else:
                # A partial frame comes from scipy's LAPACK.  Its product runs in
                # scipy's BLAS too: waking numpy's separate BLAS threads while
                # scipy's still spin after the solve cost about 10 ms per N = 500
                # solve on two cores.  dgemm of source.T transposed is source @ U.
                HU = scipy.linalg.blas.dgemm(1.0, source.T, U, trans_a=True)
                resid = np.max(np.abs(HU - U * lam))
            if not resid <= RECON_TOL * (1.0 + np.max(np.abs(source))):
                raise ValueError(f"reconstruction residual {resid:.3g} exceeds tolerance")
        return self


def _fix_signs(U):
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0] = 1.0
    return U * signs


def eig_sym(H, subset=None):
    """Ordered spectral decomposition of a symmetric matrix.

    subset=(lo, hi) solves only the eigenpairs lo..hi (0-based, inclusive, in
    ascending order) with LAPACK's MRRR driver; the frame is then N x
    (hi - lo + 1) and is certified on exactly those columns.
    """
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix has non-finite entries")
    if subset is not None:
        lo, hi = subset
        if not 0 <= lo <= hi < H.shape[0]:
            raise ValueError(f"subset {subset} outside [0, {H.shape[0] - 1}]")
    try:
        if subset is None:
            lam, U = np.linalg.eigh(H)
        else:
            lam, U = scipy.linalg.eigh(H, subset_by_index=(lo, hi), driver="evr",
                                       check_finite=False)
    except np.linalg.LinAlgError as exc:
        resid = float(np.max(np.abs(H - H.T)))
        raise RuntimeError(f"eigensolver failed (symmetry defect {resid:.3g})") from exc
    dec = SpectralDecomposition(lam, _fix_signs(U))
    return dec.validate(source=H)


def _cgs2(cols):
    """Orthonormalize a batch of matrices in place, column by column.

    cols has shape (n, N, b): cols[j] holds column j of all b matrices, so
    every update runs over contiguous rows.  Modified Gram-Schmidt run twice:
    each projection is taken against the already-updated column, and the
    second pass reorthogonalizes.  The result is the Q factor of each matrix
    with a positive diagonal of R.  Raises when the batch Gram defect exceeds
    ORTHO_TOL.
    """
    for j, v in enumerate(cols):
        for _ in range(2):
            for q in cols[:j]:
                v -= (q * v).sum(axis=0) * q
        v /= np.sqrt((v * v).sum(axis=0))
    defect = np.max([np.abs((cols[i] * cols[k]).sum(axis=0) - (i == k))
                     for i in range(len(cols)) for k in range(i + 1)])
    if not defect <= ORTHO_TOL:
        raise RuntimeError(f"Gram-Schmidt lost orthonormality: defect {defect:.3g}")


def stieltjes(dec, z):
    """Empirical Stieltjes transform (1/N) sum_k 1/(lambda_k - z) for Im z > 0."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("boundary evaluation requires free convolution")
    return complex(np.mean(1.0 / (dec.eigenvalues - z)))


def _check_unit(v, name):
    """Raise unless v, or each row of the stack v, has unit norm."""
    nrm = np.atleast_1d(np.linalg.norm(v, axis=-1))
    worst = nrm[np.argmax(np.abs(nrm - 1.0))]
    if abs(worst - 1.0) > ORTHO_TOL:
        raise ValueError(f"{name} must be unit (norm {worst:.12g})")


@dataclass
class RegularityWindow:
    """Spectral window [E0 - r, E0 + r] with smallest scale eta_star, truncation
    kappa, and regularity budget C."""

    E0: float
    r: float
    eta_star: float
    kappa: float
    C: float

    def validate(self, N):
        if not (0.0 < self.kappa < 1.0):
            raise ValueError("kappa must lie in (0, 1)")
        if not (1.0 / N <= self.eta_star <= self.r):
            raise ValueError("scales must satisfy 1/N <= eta_star <= r")
        if self.C <= 0:
            raise ValueError("regularity budget C must be positive")
        return self

    def energy_interval(self):
        """kappa-truncated energy interval."""
        half = (1.0 - self.kappa) * self.r
        return self.E0 - half, self.E0 + half


@dataclass
class FreeConvolutionProfile:
    """Cached free-convolution data for a reference decomposition at time t > 0.

    Holds the fixed-point Stieltjes values, classical locations, and the
    covariance quadratic forms derived from the reference frame.  The cache is
    not thread safe; confine a profile to one thread or guard it.
    """

    reference: SpectralDecomposition
    t: float
    _cache: dict = field(default_factory=dict, repr=False)
    _gamma: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.t <= 0:
            raise ValueError("free convolution requires t > 0")

    def empirical_stieltjes(self, w):
        """m_N evaluated at an array of points with positive imaginary part."""
        lam = self.reference.eigenvalues
        return np.mean(1.0 / (lam[:, None] - np.atleast_1d(w)[None, :]), axis=0)


def _mean_reciprocal(lam, w, work):
    """mean_k 1/(lam_k - w_j) for each column j, leaving 1/(lam_k - w_j) in work.

    work is an (N, w.size) complex buffer that is overwritten in place.
    """
    np.subtract(lam[:, None], w[None, :], out=work)
    np.reciprocal(work, out=work)
    return work.mean(axis=0)


def _newton(profile, zs, m, active, buf, centre=None):
    """Guarded Newton on m[active], in place, until each residual is below
    FIXED_POINT_TOL; raises after FIXED_POINT_CAP steps.

    With centre, a point whose iterate leaves the disc |m - centre| <=
    Im centre / 2 stops there; the indices of those points are returned.
    """
    t, tol = profile.t, FIXED_POINT_TOL
    lam = profile.reference.eigenvalues
    left = [active[:0]]
    for _ in range(FIXED_POINT_CAP):
        work = buf[:, :active.size]
        target = _mean_reciprocal(lam, zs[active] + t * m[active], work)
        resid = np.abs(m[active] - target)
        done = resid <= tol
        if np.all(done):
            return np.concatenate(left)
        deriv = 1.0 - t * np.square(work, out=work).mean(axis=0)
        deriv = np.where(np.abs(deriv) < 1e-14, 1.0, deriv)
        step = (m[active] - target) / deriv
        # Trust cap: fall back toward the damped update on wild steps.
        cap = 0.5 * (1.0 + np.abs(m[active]))
        wild = np.abs(step) > cap
        step = np.where(wild, FIXED_POINT_DAMPING * (m[active] - target), step)
        m[active] = np.where(done, m[active], m[active] - step)
        active = active[~done]
        if centre is not None:
            out = np.abs(m[active] - centre[active]) > 0.5 * centre[active].imag
            left.append(active[out])
            active = active[~out]
    raise RuntimeError(
        "free-convolution fixed point did not converge: "
        f"worst residual {resid.max():.3g}"
    )


def _solve_fixed_point(profile, zs, m0=None):
    """Vectorized solve of m = m_N(z + t m) on the upper-half-plane branch.

    A cold solve starts from m_N(z + i t) and runs damped iteration (factor
    FIXED_POINT_DAMPING) as a globally stable warmup, but its convergence rate
    degenerates to 1 at spectral edges, so a Newton stage polishes the
    residual down to the tolerance; at a branch point the root is double and
    Newton still gains two residual digits per few steps.

    m0, when given, holds the converged m at a nearby z for each point, and
    the solve starts warm: Newton from m0, with no warmup.  The branch's root
    is the only one in the open upper half plane, so a root found inside the
    disc |m - m0| <= Im m0 / 2 is the branch's; a point whose iterate leaves
    that disc solves cold.  So does every point with a real m0 that is not
    already a root: Newton on a real z never leaves the real axis, where the
    equation has spurious real roots between the poles.  Only
    classical_locations' later rounds pass m0; every other caller solves
    cold, so the certificates built on F and on the residual never rest on a
    warm start.
    """
    t, omega = profile.t, FIXED_POINT_DAMPING
    lam = profile.reference.eigenvalues
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if zs.size > FIXED_POINT_CHUNK:
        return np.concatenate(
            [_solve_fixed_point(profile, zs[k:k + FIXED_POINT_CHUNK],
                                None if m0 is None else m0[k:k + FIXED_POINT_CHUNK])
             for k in range(0, zs.size, FIXED_POINT_CHUNK)]
        )
    # Every step writes its (N x active) reciprocals into this one buffer.
    buf = np.empty((lam.size, zs.size), dtype=complex)
    active = np.arange(zs.size)
    if m0 is None:
        m = _mean_reciprocal(lam, zs + 1j * t, buf)
    else:
        m = np.array(m0, dtype=complex)
        active = _newton(profile, zs, m, active, buf, centre=m0)
        m[active] = _mean_reciprocal(lam, zs[active] + 1j * t, buf[:, :active.size])
    for _ in range(min(FIXED_POINT_CAP, 12)):
        if active.size == 0:
            break
        target = _mean_reciprocal(lam, zs[active] + t * m[active], buf[:, :active.size])
        resid = np.abs(m[active] - target)
        m[active] = (1.0 - omega) * m[active] + omega * target
        active = active[resid > FIXED_POINT_TOL]
    _newton(profile, zs, m, active, buf)
    # The branch has Im m >= 0; clip roundoff-level negatives when harmless.
    dirty = m.imag < 0
    if np.any(dirty):
        cleaned = np.where(dirty, m.real + 0.0j, m)
        target = profile.empirical_stieltjes(zs + t * cleaned)
        ok = np.abs(cleaned - target) <= FIXED_POINT_TOL
        m = np.where(dirty & ok, cleaned, m)
        if np.any(m.imag < -FIXED_POINT_TOL):
            raise RuntimeError("fixed point left the upper half plane")
        m = np.where(m.imag < 0, m.real + 0.0j, m)
    return m


def free_convolution_m(profile, z):
    """Fixed point m = m_N(z + t m) with Im m >= 0, valid down to the real axis."""
    z = complex(z)
    if z.imag < 0:
        raise ValueError("spectral parameter must have eta >= 0")
    if z in profile._cache:
        return profile._cache[z]
    m = complex(_solve_fixed_point(profile, z)[0])
    profile._cache[z] = m
    return m


def fixed_point_residual(profile, z):
    """|m - m_N(z + t m)| at the fixed point m, solved cold in one vectorized
    call; a scalar z gives a float, an array of z an array of residuals."""
    zs = np.asarray(z, dtype=complex)
    if np.any(zs.imag < 0):
        raise ValueError("spectral parameter must have eta >= 0")
    flat = zs.ravel()
    m = _solve_fixed_point(profile, flat)
    diff = m - profile.empirical_stieltjes(flat + profile.t * m)
    # A scalar keeps Python's complex abs, which can differ from np.abs in the last bit.
    return abs(complex(diff[0])) if zs.ndim == 0 else np.abs(diff).reshape(zs.shape)


def _cdf_and_density(profile, energies, m0=None):
    """F, F' of mu_N [+] sigma_t at real energies, and the fixed point m there.

    With m the fixed point at E and omega = E + t m, the log potential
    L_t(E) = mean_k log(omega - lambda_k) + t m^2 / 2 satisfies dL_t/dE = -m
    (subordination, Biane 1997), so F(E) = 1 - Im L_t(E + i0) / pi.  L_t is
    stationary in m at the fixed point, so F carries the square of the
    fixed-point error; no quadrature enters.  F' = Im m / pi.  The fixed point
    starts cold unless m0 supplies a warm start.
    """
    t = profile.t
    lam = profile.reference.eigenvalues
    m = _solve_fixed_point(profile, energies, m0)
    omega = energies + t * m
    # omega lies in the closed upper half plane, so each argument runs from pi
    # (left of lambda_k) down to 0; abs() keeps a signed zero from giving -pi.
    args = np.arctan2(np.abs(omega.imag), omega.real - lam[:, None])
    F = 1.0 - (np.mean(args, axis=0) + t * m.real * m.imag) / math.pi
    return F, m.imag / math.pi, m


def _semicircle_quantiles(levels):
    """Quantiles of the unit-variance semicircle law on [-2, 2].

    With x = 2 sin(phi / 2) the distribution function is
    1/2 + (phi + sin phi) / (2 pi), which is bisected in phi.
    """
    target = 2.0 * math.pi * (levels - 0.5)
    lo, hi = np.full(levels.shape, -math.pi), np.full(levels.shape, math.pi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = mid + np.sin(mid) < target
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 2.0 * np.sin(0.25 * (lo + hi))


def classical_locations(profile):
    """Quantiles gamma_i(t) of mu_N [+] sigma_t at levels (i - 1/2)/N.

    Safeguarded Newton on the exact distribution function F (see
    _cdf_and_density), vectorized over i.  It starts from the moment-matched
    semicircle, mean(lambda) + sqrt(var(lambda) + t) times the unit semicircle
    quantile, which is exact for a zero reference.  Each round solves the fixed
    point at the current points, cold in the first round and warm from each
    point's previous m after that, then narrows the bracket [a, b] with
    F(a) < level < F(b), and takes the Newton step only when it lands strictly
    inside the bracket, bisecting otherwise.  Points whose |F - level| reaches
    QUANTILE_TOL stop; a point still short after QUANTILE_ROUNDS raises.
    quantile_defect re-solves cold, independently of the warm rounds.
    """
    if profile._gamma is not None:
        return profile._gamma
    lam = profile.reference.eigenvalues
    t = profile.t
    N = lam.size
    levels = (np.arange(1, N + 1) - 0.5) / N
    # The law is supported in [min lambda - 2 sqrt t, max lambda + 2 sqrt t].
    a = np.full(N, lam.min() - 2.0 * math.sqrt(t))
    b = np.full(N, lam.max() + 2.0 * math.sqrt(t))
    start = lam.mean() + math.sqrt(lam.var() + t) * _semicircle_quantiles(levels)
    gamma = np.clip(start, a, b)
    active = np.arange(N)
    m = np.empty(N, dtype=complex)
    for r in range(QUANTILE_ROUNDS):
        x = gamma[active]
        F, density, m[active] = _cdf_and_density(profile, x, m[active] if r else None)
        miss = F - levels[active]
        done = np.abs(miss) <= QUANTILE_TOL
        below = miss < 0
        a[active] = np.where(below, x, a[active])
        b[active] = np.where(below, b[active], x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - miss / density
        lo, hi = a[active], b[active]
        inside = (newton > lo) & (newton < hi)
        gamma[active] = np.where(done, x, np.where(inside, newton, 0.5 * (lo + hi)))
        active = active[~done]
        if active.size == 0:
            break
    else:
        raise RuntimeError(
            f"classical locations did not converge in {QUANTILE_ROUNDS} rounds: "
            f"worst |F - level| {np.max(np.abs(miss)):.3g}"
        )
    profile._gamma = gamma
    return gamma


def quantile_defect(profile):
    """Max |F(gamma_i) - (i - 1/2)/N| at the classical locations, with the
    exact distribution function F.

    F is evaluated afresh at the locations, independently of how they were
    found.
    """
    gamma = classical_locations(profile)
    N = profile.reference.eigenvalues.size
    levels = (np.arange(1, N + 1) - 0.5) / N
    F, _, _ = _cdf_and_density(profile, gamma)
    return float(np.max(np.abs(F - levels)))


def covariance_form(profile, i, v, w):
    """Quadratic form <v, Im G(gamma_i + t m) w> / Im m of the limiting covariance.

    The form is symmetric and positive semidefinite; it collapses to <v, w>
    when the reference matrix is zero.
    """
    _check_unit(v, "v")
    _check_unit(w, "w")
    gamma = classical_locations(profile)
    if not (0 <= i < profile.reference.N):
        raise ValueError(f"index {i} outside [0, {profile.reference.N})")
    m = free_convolution_m(profile, complex(gamma[i]))
    if m.imag <= REGULAR_IM_THRESHOLD:
        raise ValueError(
            f"outside regular spectrum: Im m = {m.imag:.3g} at index {i}"
        )
    warg = gamma[i] + profile.t * m
    lam = profile.reference.eigenvalues
    U = profile.reference.frame
    a = U.T @ v
    b = U.T @ w
    im_resolvent = warg.imag / np.abs(lam - warg) ** 2
    return float(np.sum(a * b * im_resolvent) / m.imag)


@dataclass
class AssumptionReport:
    """Grid suprema for the spectral regularity checks, with pass flags."""

    N: int
    grid_energies: int
    grid_etas: int
    inf_im_m: float
    sup_im_m: float
    eigenvalue_pass: bool
    sup_green: float
    green_budget: float
    green_pass: bool

    def to_dict(self):
        return {
            "N": self.N,
            "grid-energies": self.grid_energies,
            "grid-etas": self.grid_etas,
            "inf-im-m": self.inf_im_m,
            "sup-im-m": self.sup_im_m,
            "eigenvalue-pass": self.eigenvalue_pass,
            "sup-green": self.sup_green,
            "green-budget": self.green_budget,
            "green-pass": self.green_pass,
        }


def verify_assumptions(dec, window, S, exponent_budget=0.5):
    """Scan |Im m_N| and |<v, Im G w>| over the window grid against the budgets.

    Always produces a report; pass/fail is recorded, never raised.
    """
    window.validate(dec.N)
    lo, hi = window.energy_interval()
    energies = np.linspace(lo, hi, GRID_ENERGIES)
    etas = np.geomspace(window.eta_star, 1.0, GRID_ETAS)
    lam = dec.eigenvalues
    zs = (energies[:, None] + 1j * etas[None, :]).ravel()
    m_vals = np.mean(1.0 / (lam[:, None] - zs[None, :]), axis=0)
    im_abs = np.abs(m_vals.imag)

    S = [np.asarray(v, dtype=float) for v in S]
    for v in S:
        _check_unit(v, "direction")
    sup_green = 0.0
    if S:
        A = dec.frame.T @ np.stack(S, axis=1)
        weights = zs.imag / np.abs(lam[:, None] - zs[None, :]) ** 2
        forms = np.einsum("ka,kz,kb->zab", A, weights, A, optimize=True)
        sup_green = float(np.max(np.abs(forms)))

    budget = dec.N ** exponent_budget
    return AssumptionReport(
        N=dec.N,
        grid_energies=GRID_ENERGIES,
        grid_etas=GRID_ETAS,
        inf_im_m=float(im_abs.min()),
        sup_im_m=float(im_abs.max()),
        eigenvalue_pass=bool(im_abs.min() >= 1.0 / window.C and im_abs.max() <= window.C),
        sup_green=sup_green,
        green_budget=float(budget),
        green_pass=bool(sup_green <= budget),
    )
