"""Time propagation of configuration-space flows and the relaxation
inequalities: Dirichlet forms, L1 growth, Poincare, Nash, ultracontractivity,
and finite speed of propagation.

Operator norms are computed exactly by row/column scans in the appropriate
representation, so every reported bound is a certificate rather than an
estimate from power iteration.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .configspace import (
    assemble_generator,
    config_distance,
    local_neighborhood,
    local_projection,
    pi_symmetrize,
    site_classes,
)

DENSE_SOLVE_GUARD = 3000
KERNEL_REL_TOL = 1e-10
LANCZOS_TOL = 1e-13
RITZ_ROUNDING = 1e-12


@dataclass
class CoefficientSchedule:
    """Symmetric nonnegative jump coefficients c_ij(s), possibly time varying.

    propagate steps either kind; the relaxation inequalities take time-constant
    ones only.  upsilon declares the subquadratic decay rate
    c_ij >= upsilon / |i-j|^2; inequalities that need it refuse to run when it
    is absent.  The caller vouches for the declaration: only inverse_square
    meets it by construction.
    """

    fn: object
    N: int
    upsilon: float | None = None
    tag: str = "full"
    time_dependent: bool = False

    @classmethod
    def constant(cls, C, upsilon=None, tag="full"):
        C = np.asarray(C, dtype=float)
        return cls(fn=lambda s: C, N=C.shape[0], upsilon=upsilon, tag=tag)

    @classmethod
    def from_function(cls, fn, N, tag="full"):
        return cls(fn=fn, N=N, tag=tag, time_dependent=True)

    @classmethod
    def inverse_square(cls, N, upsilon=1.0):
        """c_ij = upsilon / |i-j|^2, the canonical heavy-tailed reference."""
        idx = np.arange(N)
        gaps = idx[:, None] - idx[None, :]
        with np.errstate(divide="ignore"):
            C = upsilon / np.where(gaps == 0, np.inf, gaps.astype(float) ** 2)
        return cls.constant(C, upsilon=upsilon, tag="inverse-square")

    @classmethod
    def from_eigenvalues(cls, lams):
        """Spectral-flow coefficients c_ij = 1 / (2 N (lambda_i - lambda_j)^2).

        This is the weight that pairs the ordered-pair move/exchange operators
        with the matrix flow H + sqrt(s) GOE: the operators count each label
        pair twice (once per ordering), so the coefficient carries the
        compensating 1/2.  Verified against direct-perturbation finite
        differences of the moment observable.
        """
        lams = np.asarray(lams, dtype=float)
        N = lams.shape[0]
        gaps = lams[:, None] - lams[None, :]
        with np.errstate(divide="ignore"):
            C = 1.0 / np.where(gaps == 0, np.inf, 2.0 * N * gaps**2)
        return cls.constant(C, tag="dbm")

    def coefficients(self, s=0.0):
        return np.asarray(self.fn(s), dtype=float)

    def short_range(self, ell, window):
        """Zero out pairs outside the window or farther than ell apart."""
        C = _constant(self, "short-range cutoff")
        return CoefficientSchedule.constant(C * _range_mask(self.N, ell, window),
                                            tag=f"short-range(ell={ell})")


def _constant(schedule, what):
    """The coefficients of a time-constant schedule; `what` names the caller."""
    if schedule.time_dependent:
        raise ValueError(f"{what} expects a time-constant schedule")
    return schedule.coefficients()


def _range_mask(N, ell, window):
    inside = np.zeros(N, dtype=bool)
    inside[np.asarray(window, dtype=np.intp)] = True
    idx = np.arange(N)
    near = np.abs(idx[:, None] - idx[None, :]) <= ell
    return near & inside[:, None] & inside[None, :]


def _symmetrized_eig(space, op):
    """Eigendecomposition of Pi^{1/2} A Pi^{-1/2}; valid for pi-self-adjoint A."""
    w, Q = np.linalg.eigh(pi_symmetrize(space.pi, op.dense()))
    return w, Q, np.sqrt(space.pi)


def _lanczos_steps(rho_tau):
    """Least m at which Hochbruck and Lubich's a-priori bound (SIAM J. Numer.
    Anal. 34, 1997, Thm. 2) on the Lanczos error of e^{tau A} v, for symmetric
    A with spectrum in [-4 rho, 0] and |v| = 1, is at most LANCZOS_TOL:

        10 exp(-m^2 / (5 rho tau))                        sqrt(4 rho tau) <= m <= 2 rho tau
        10 / (rho tau) exp(-rho tau) (e rho tau / m)^m    m >= 2 rho tau
    """
    if rho_tau == 0.0:
        return 1
    m = math.ceil(math.sqrt(5.0 * rho_tau * math.log(10.0 / LANCZOS_TOL)))
    if m <= 2.0 * rho_tau:
        return m
    # The second bound falls with m beyond m = rho tau, so search upwards.
    m = max(1, math.ceil(2.0 * rho_tau))
    while (math.log(10.0 / rho_tau) - rho_tau + m * (1.0 + math.log(rho_tau / m))
           > math.log(LANCZOS_TOL)):
        m += 1
    return m


def _lanczos_apply(space, op, f, times):
    """e^{sB} f for every s in `times` (one row each), from one Lanczos basis.

    Lanczos with full reorthogonalization runs on the symmetric
    S = Pi^{1/2} B Pi^{-1/2}, applied as half * (B @ (v / half)) with no
    symmetrized matrix built, from v_1 = Pi^{1/2} f / ||f||_pi.  Every
    snapshot comes from the same tridiagonal T_m through eigh_tridiagonal.
    The step count m is the a-priori bound of _lanczos_steps for the
    spectrum in [-||B||_inf, 0] at the largest time tau (the bound grows with
    time), capped at the space size, where the basis is complete.  So every
    snapshot is certified to ||error||_pi <= LANCZOS_TOL ||f||_pi.

    Lanczos stops early once tau beta_k <= LANCZOS_TOL: with T_k <= 0 the
    neglected coupling moves no snapshot by more than tau beta_k ||f||_pi,
    and beta_k = 0 is an exactly invariant subspace.  It raises on a Ritz
    value above rounding, which breaks the spectrum assumption, and when
    Saad's a-posteriori estimate s beta_m |e_m^T e^{s T_m} e_1| exceeds
    LANCZOS_TOL at any snapshot time s.
    """
    times = np.asarray(times, dtype=float)
    half = np.sqrt(space.pi)
    g = half * f
    f_norm = math.sqrt(g @ g)
    if f_norm == 0.0:
        return np.zeros((times.size, space.size))
    tau = float(np.max(times, initial=0.0))
    norm_inf = _inf_norm(op)
    m = min(_lanczos_steps(0.25 * tau * norm_inf), space.size)
    V = np.empty((m + 1, space.size))
    alpha, beta = np.empty(m), np.empty(m)
    V[0] = g / f_norm
    for k in range(m):
        w = half * (op.mat @ (V[k] / half))
        # Classical Gram-Schmidt against the whole basis, twice: the first
        # pass gives alpha_k, the second restores orthogonality.
        h = V[:k + 1] @ w
        w -= h @ V[:k + 1]
        w -= (V[:k + 1] @ w) @ V[:k + 1]
        alpha[k] = h[k]
        beta[k] = math.sqrt(w @ w)
        if tau * beta[k] <= LANCZOS_TOL:
            m = k + 1
            break
        V[k + 1] = w / beta[k]
    ritz, Q = eigh_tridiagonal(alpha[:m], beta[:m - 1])
    if ritz[-1] > RITZ_ROUNDING * norm_inf:
        raise RuntimeError(f"Lanczos Ritz value {ritz[-1]:.3g} > 0: B is not negative semidefinite")
    coef = (np.exp(np.multiply.outer(times, ritz)) * Q[0]) @ Q.T
    estimate = float(np.max(times * beta[m - 1] * np.abs(coef[:, m - 1])))
    if estimate > LANCZOS_TOL:
        raise RuntimeError(
            f"Lanczos a-posteriori error estimate {estimate:.3g} > {LANCZOS_TOL:g} after {m} steps")
    return f_norm * (coef @ V[:m]) / half


def operator_norm_11(space, mat):
    """Exact L1 -> L1 norm: max pi-weighted column sum (measure representation)."""
    A = np.asarray(mat)
    meas = np.abs((space.pi[:, None] * A) / space.pi[None, :])
    return float(np.max(meas.sum(axis=0)))


@dataclass
class PropagationResult:
    """Snapshots of a propagated function with their pi-norms."""

    space: object
    times: np.ndarray
    snapshots: np.ndarray

    @property
    def final(self):
        return self.snapshots[-1]


def propagate(space, schedule, f0, s1, s2, steps=64):
    """Solve d/ds f = B(s) f from s1 to s2 with `steps` snapshots.

    Time-constant schedules apply e^{(s - s1) B} to f0 from one Lanczos basis
    of the pi-symmetrized generator for all snapshots, with B never made
    dense.  The Lanczos step count is Hochbruck and Lubich's a-priori bound for
    (s2 - s1) ||B||_inf, so each snapshot is within LANCZOS_TOL ||f0||_pi of
    the exact one in the pi-norm, and an a-posteriori estimate checks it
    (_lanczos_apply).  Time-varying ones march one classical RK4
    that reassembles the generator at each stage time; there `steps` must
    satisfy the stability rule steps >= 4 (s2 - s1) ||B||_inf: it is checked
    at s1 and s2 before the march, and 4 h ||B||_inf <= 1 is checked on every
    stage matrix during it.
    """
    f0 = np.asarray(f0, dtype=float)
    if not (math.isfinite(s1) and math.isfinite(s2) and s1 <= s2):
        raise ValueError(f"s1 and s2 must be finite with s1 <= s2, got {s1}, {s2}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if s2 == s1:
        return PropagationResult(space, np.array([s1]), f0[None, :].copy())
    times = np.linspace(s1, s2, steps + 1)
    snaps = np.empty((steps + 1, space.size))
    snaps[0] = f0
    if not schedule.time_dependent:
        op = assemble_generator(space, schedule.coefficients(s1))
        snaps[1:] = _lanczos_apply(space, op, f0, times[1:] - s1)
        return PropagationResult(space, times, snaps)

    norm_inf = max(_inf_norm(assemble_generator(space, schedule.coefficients(s)))
                   for s in (s1, s2))
    required = math.ceil((s2 - s1) * norm_inf * 4.0)
    if steps < required:
        raise ValueError(f"stability bound violated: need steps >= {required}, got {steps}")
    for k, f in enumerate(_rk4(space, schedule, f0, times), start=1):
        snaps[k] = f
    return PropagationResult(space, times, snaps)


def _inf_norm(op):
    """||B||_inf, the largest absolute row sum, read off the stored data as
    scipy's row sum adds it; an empty row sums to 0."""
    starts = op.mat.indptr[np.flatnonzero(np.diff(op.mat.indptr))]
    return float(np.max(np.add.reduceat(np.abs(op.mat.data), starts), initial=0.0))


def _stage(space, schedule, s, h):
    """B(s)'s stored matrix, once 4 h ||B(s)||_inf <= 1 holds for it."""
    op = assemble_generator(space, schedule.coefficients(s))
    bound = 4.0 * h * _inf_norm(op)
    if bound > 1.0:
        raise ValueError(
            f"stability bound violated at stage time {s:.6g}: 4 h ||B||_inf = {bound:.6g} > 1"
        )
    return op.mat


def _rk4(space, schedule, f, times):
    """Yield the vector f after each classical RK4 step of d/ds f = B(s) f
    along the equally spaced `times`."""
    h = (times[-1] - times[0]) / (len(times) - 1)
    for s in times[:-1]:
        A1 = _stage(space, schedule, s, h)
        A2 = _stage(space, schedule, s + 0.5 * h, h)
        A4 = _stage(space, schedule, s + h, h)
        k1 = A1 @ f
        k2 = A2 @ (f + 0.5 * h * k1)
        k3 = A2 @ (f + 0.5 * h * k2)
        k4 = A4 @ (f + h * k3)
        f = f + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield f


def dirichlet_form(space, generator, f):
    """Energy <f, (-B) f>_pi of a pi-self-adjoint generator."""
    if not generator.is_pi_self_adjoint:
        raise ValueError("Dirichlet form requires a pi-self-adjoint generator")
    f = np.asarray(f, dtype=float)
    return -float(np.sum(space.pi * f * (generator.mat @ f)))


def _local_dirichlet_matrix(space, C, y, ell):
    classes = site_classes(space.N, tuple(y), ell)
    C = C.copy()
    same = classes[:, None] == classes[None, :]
    C[~same] = 0.0
    np.fill_diagonal(C, 0.0)
    op = assemble_generator(space, C)
    loc = local_neighborhood(space, y, ell)
    A = op.dense()[np.ix_(loc, loc)]
    pi_loc = space.pi[loc]
    D = -(pi_loc[:, None] * A)
    return loc, pi_loc, 0.5 * (D + D.T)


def poincare_constant(space, y, ell, schedule):
    """Sharp constant sup_f sum pi |f - Pf|^2 / D_loc(f) on the neighborhood of y.

    Computed by a dense symmetric eigensolve of the two quadratic forms
    restricted to the orthogonal complement of the local kernel.  Singleton
    neighborhoods give 0.
    """
    C = _constant(schedule, "Poincare constant")
    if schedule.upsilon is None:
        raise ValueError("Poincare constant requires a declared heavy-tail rate")
    loc, pi_loc, D = _local_dirichlet_matrix(space, C, y, ell)
    m = loc.size
    if m > DENSE_SOLVE_GUARD:
        raise ValueError(f"neighborhood too large for dense solve ({m} configurations)")
    if m <= 1:
        return 0.0
    P = local_projection(space, y, ell).dense()[np.ix_(loc, loc)]
    R = np.eye(m) - P
    A_quad = R.T @ (pi_loc[:, None] * R)
    A_quad = 0.5 * (A_quad + A_quad.T)

    w, Q = np.linalg.eigh(D)
    scale = max(float(w[-1]), 0.0)
    if scale == 0.0:
        return 0.0
    keep = w > KERNEL_REL_TOL * scale
    kernel_vecs = Q[:, ~keep]
    kernel_leak = float(np.max(np.abs(kernel_vecs.T @ A_quad @ kernel_vecs))) if kernel_vecs.size else 0.0
    if kernel_leak > 1e-8 * max(1.0, float(np.max(np.abs(A_quad)))):
        raise RuntimeError(
            f"local kernel escapes the projection (leak {kernel_leak:.3g}); "
            "the sharp constant is unbounded"
        )
    V = Q[:, keep]
    inv_half = 1.0 / np.sqrt(w[keep])
    reduced = (inv_half[:, None] * (V.T @ A_quad @ V)) * inv_half[None, :]
    return float(np.linalg.eigvalsh(0.5 * (reduced + reduced.T))[-1])


def nash_ratio(space, schedule, f, kernel_op):
    """upsilon ||f - Kf||_2^{2+4/n} / (D(f) ||f||_1^{4/n}); 0 on the kernel."""
    C = _constant(schedule, "Nash ratio")
    if schedule.upsilon is None:
        raise ValueError("Nash ratio requires a declared heavy-tail rate")
    f = np.asarray(f, dtype=float)
    g = f - kernel_op.mat @ f
    g_norm = space.norm_l2(g)
    if g_norm <= 1e-12 * max(space.norm_l2(f), 1.0):
        return 0.0
    D = dirichlet_form(space, assemble_generator(space, C), f)
    n = space.n
    return schedule.upsilon * g_norm ** (2.0 + 4.0 / n) / (D * space.norm_l1(f) ** (4.0 / n))


@dataclass
class UCCurve:
    """Ultracontractive decay ||(1-K) U(0,s)||_{2,inf} along a grid of times."""

    s: np.ndarray
    norms: np.ndarray

    def rows(self):
        return list(zip(self.s.tolist(), self.norms.tolist()))

    def slope(self, smin, smax):
        """Least-squares slope of log norm against log s on [smin, smax]."""
        mask = (self.s >= smin) & (self.s <= smax) & (self.norms > 0) & (self.s > 0)
        if mask.sum() < 2:
            raise ValueError("not enough points in the slope window")
        return float(np.polyfit(np.log(self.s[mask]), np.log(self.norms[mask]), 1)[0])

    def envelope_defect(self):
        """Largest increase along the grid; 0 when the curve is nonincreasing."""
        return float(max(0.0, np.max(np.diff(self.norms))))


def ultracontractivity_curve(space, schedule, s_grid, kernel_op):
    """Exact ||(1-K) e^{s B}||_{2,inf} for a time-constant schedule on a grid
    of finite times s >= 0.

    With Pi^{1/2} B Pi^{-1/2} = Q diag(w) Q^T and
    P = (I - Pi^{1/2} K Pi^{-1/2}) Q, row x of (1-K) e^{sB} has squared
    pi-weighted norm pi_x^{-1} sum_k P_xk^2 e^{2 s w_k}, because Q^T Q = I.
    So the whole grid costs one product with K and one with the exponentials.
    """
    C = _constant(schedule, "ultracontractivity curve")
    if schedule.upsilon is None:
        raise ValueError("ultracontractivity requires a declared heavy-tail rate")
    s_grid = np.asarray(s_grid, dtype=float)
    if not np.all(np.isfinite(s_grid) & (s_grid >= 0)):
        raise ValueError("s_grid must be finite and nonnegative")
    op = assemble_generator(space, C)
    K = kernel_op.dense()
    w, Q, half = _symmetrized_eig(space, op)
    P = Q - half[:, None] * (K @ (Q / half[:, None]))
    rows = (P**2 @ np.exp(2.0 * np.multiply.outer(w, s_grid))) / space.pi[:, None]
    return UCCurve(s=s_grid, norms=np.sqrt(np.max(rows, axis=0, initial=0.0)))


@dataclass
class FSPProfile:
    """Short-range propagator entries against regular configuration distance."""

    dist: np.ndarray
    values: np.ndarray
    schedule: str  # tag of the short-range schedule

    def rows(self):
        return sorted(zip(self.dist.tolist(), self.values.tolist()))

    def max_at_or_beyond(self, d0):
        mask = self.dist >= d0
        return float(np.max(self.values[mask])) if mask.any() else 0.0

    def binned_envelope(self):
        """(distance, max entry at that distance) sorted by distance."""
        out = {}
        for d, v in zip(self.dist.tolist(), self.values.tolist()):
            out[d] = max(out.get(d, 0.0), v)
        return sorted(out.items())


def fsp_profile(space, schedule, y, ell, window, s1, s2):
    """Propagator column |U_S(s1,s2) delta_y| against distance, for the
    short-range cut of a time-constant schedule.

    Requires the proposition's time window s2 - s1 <= ell / N.
    """
    if s2 - s1 > ell / space.N + 1e-12:
        raise ValueError("finite-speed window requires s2 - s1 <= ell / N")
    short = schedule.short_range(ell, window)
    f = propagate(space, short, space.delta(y), s1, s2, 1).final
    return FSPProfile(dist=config_distance(space.configs, y, window), values=np.abs(f),
                      schedule=short.tag)


def l1_growth(space, schedule, s_grid):
    """Exact ||e^{sB}||_{1,1} (max measure-representation column sum) of a
    time-constant schedule at each finite time s >= 0 of the grid."""
    C = _constant(schedule, "L1 growth")
    s_grid = np.asarray(s_grid, dtype=float)
    if not np.all(np.isfinite(s_grid) & (s_grid >= 0)):
        raise ValueError("s_grid must be finite and nonnegative")
    w, Q, half = _symmetrized_eig(space, assemble_generator(space, C))
    g = half[:, None] * Q
    # (e^{sB})^T in the operation order of the tests' dense eig_apply oracle,
    # so the values match it bit for bit.
    out = [operator_norm_11(space, ((np.exp(s * w) * g) @ Q.T / half).T) for s in s_grid]
    return list(zip(s_grid.tolist(), out))
