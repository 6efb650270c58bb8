"""Experiment configs, orchestration of the verification suites, and report
emission.

Each experiment kind assembles a list of named checks (value, target,
tolerance, pass flag) plus raw tables.  Individual check failures never abort
a suite; they are recorded and reflected in the exit code.
"""

import argparse
import csv
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import ansatz as ansatz_mod
from . import configspace as cs
from . import relaxation as rx
from ._rng import stream
from .ensembles import EnsembleSpec, sample_ensemble
from .flow import MomentRequest, estimate_moment, overlap_samples, see_endpoint_ensemble
from .spectral import (
    FIXED_POINT_TOL,
    FreeConvolutionProfile,
    RegularityWindow,
    SpectralDecomposition,
    classical_locations,
    eig_sym,
    fixed_point_residual,
    quantile_defect,
    verify_assumptions,
)

EXPERIMENT_KINDS = (
    "assumptions",
    "generator-validate",
    "operator-suite",
    "mixing",
    "fsp",
    "joint-normality",
    "ansatz-compare",
)

_CSV_COLUMNS = {
    "assumptions": "classical-locations.csv: index, gamma; "
                   "assumption-report.csv: key, value",
    "generator-validate": "finite-difference.csv: config, exact, finite_diff, stderr",
    "operator-suite": "haar-crosscheck.csv: x, y, exact, estimate, stderr",
    "mixing": "poincare.csv: ell, constant, N, n, upsilon, schedule; "
              "ultracontractivity.csv: s, norm, N, n, upsilon, schedule",
    "fsp": "profile.csv: dist, value, N, n, ell, schedule",
    "joint-normality": "moments.csv: check, estimate, target, stderr",
    "ansatz-compare": "ansatz.csv: config, wick, ansatz",
}


@dataclass
class CheckResult:
    name: str
    value: float
    target: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "name": self.name,
            "value": self.value,
            "target": self.target,
            "tol": self.tol,
            "pass": self.passed,
        }


@dataclass
class ExperimentReport:
    config: dict
    checks: list
    tables: dict = field(default_factory=dict)
    wall_clock: float | None = None

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        out = {
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "runtime": self.wall_clock,
        }
        return out


@dataclass
class ExperimentConfig:
    """One experiment run: kind plus the knobs that kind reads.

    Defaults are desk-scale choices, echoed into the report so nothing is
    hidden inside check code.  An unset n takes the kind's default: 4 for
    operator-suite and ansatz-compare, 2 for every other kind.  `threads`
    must be 1, as trial loops run in the calling thread; the field stays so
    that configs naming every field load and reports echo it.
    """

    kind: str
    seed: int = 0
    N: int = 0
    n: int | None = None
    threads: int = 1
    out: str = "out"
    format: str = "csv"
    ensemble: EnsembleSpec | None = None
    window: RegularityWindow | None = None
    t: float = 0.0
    omega_c: float = 0.0
    enforce_scales: bool = False
    trials: int = 0
    paths: int = 0
    delta: float = 1e-3
    dt: float = 1e-5
    directions: int = 2
    exponent_budget: float = 0.5
    haar_samples: int = 200_000
    l1_trials: int = 20
    ells: tuple = ()
    upsilon: float = 1.0
    uc_N: int = 10
    uc_n: int = 4
    nash_bound: float = 50.0
    poincare_spread: float = 4.0
    ell: int = 4
    kappa: float = 0.1
    pairs: int = 5
    mc_trials: int = 400
    mc_N: int = 64
    record_runtime: bool = True

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.threads != 1:
            raise ValueError("threads must be 1: trial loops run in the calling thread")
        _apply_kind_defaults(self)
        if self.enforce_scales and self.window is not None and self.t > 0:
            validate_scale_chain(self.window.eta_star, self.t, self.window.r,
                                 self.N, self.omega_c)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        if "ensemble" in d and d["ensemble"] is not None:
            d["ensemble"] = EnsembleSpec.from_dict(d["ensemble"])
        if "window" in d and d["window"] is not None:
            w = d["window"]
            d["window"] = RegularityWindow(
                E0=float(w["E0"]), r=float(w["r"]), eta_star=float(w["eta-star"]),
                kappa=float(w["kappa"]), C=float(w["C"]),
            )
        if "ells" in d:
            d["ells"] = tuple(d["ells"])
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        out = {}
        for key, val in self.__dict__.items():
            if val is None:
                continue
            if isinstance(val, EnsembleSpec):
                # Every suite draws its matrices from streams of cfg.seed and
                # never reads the spec's own seed, so echo the seed in use.
                out["ensemble"] = {**val.to_dict(), "seed": self.seed}
            elif isinstance(val, RegularityWindow):
                out["window"] = {"E0": val.E0, "r": val.r, "eta-star": val.eta_star,
                                 "kappa": val.kappa, "C": val.C}
            elif isinstance(val, tuple):
                out[key] = list(val)
            else:
                out[key] = val
        return out


def _apply_kind_defaults(cfg):
    k = cfg.kind
    if k == "assumptions":
        cfg.N = cfg.N or 500
        if cfg.ensemble is None:
            cfg.ensemble = EnsembleSpec(kind="goe", N=cfg.N, seed=cfg.seed)
        cfg.N = cfg.ensemble.N
        if cfg.window is None:
            cfg.window = RegularityWindow(E0=0.0, r=1.0, eta_star=cfg.N ** -0.9,
                                          kappa=0.1, C=4.0)
        cfg.t = cfg.t or 0.5
    elif k == "generator-validate":
        cfg.N = cfg.N or 5
        cfg.n = 2
        cfg.paths = cfg.paths or 100_000
    elif k == "operator-suite":
        cfg.N = cfg.N or 8
        cfg.n = cfg.n or 4
    elif k == "mixing":
        cfg.ells = cfg.ells or (8, 16, 32, 64)
        cfg.N = cfg.N or 2 * max(cfg.ells) + 33
    elif k == "fsp":
        cfg.N = cfg.N or 40
        cfg.n = 2
        cfg.t = cfg.t or 1.0
    elif k == "joint-normality":
        cfg.N = cfg.N or 200
        if cfg.ensemble is None:
            cfg.ensemble = EnsembleSpec(kind="generalized-wigner", N=cfg.N,
                                        seed=cfg.seed)
        cfg.N = cfg.ensemble.N
        cfg.trials = cfg.trials or 10_000
    elif k == "ansatz-compare":
        cfg.N = cfg.N or 6
        cfg.n = cfg.n or 4
        cfg.t = cfg.t or 1.0
    if cfg.n is None:
        cfg.n = 2


def validate_scale_chain(eta_star, t, r, N, omega_c):
    """Explicit inequality form of eta_star << t << r."""
    lo = eta_star * N ** omega_c
    hi = r * N ** -omega_c
    if not (lo < t < hi):
        raise ValueError(
            f"scale chain violated: need {lo:.3g} < t = {t:.3g} < {hi:.3g}"
        )
    return True


def _check(checks, name, value, target, tol, passed=None):
    if passed is None:
        passed = abs(value - target) <= tol
    checks.append(CheckResult(name=name, value=float(value), target=float(target),
                              tol=float(tol), passed=bool(passed)))


def _bound_check(checks, name, value, bound):
    """Pass when value <= bound."""
    checks.append(CheckResult(name=name, value=float(value), target=float(bound),
                              tol=0.0, passed=bool(value <= bound)))


def _random_unit(rng, N):
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


def _orthonormal_pair(rng, N, project_out=None):
    v = rng.standard_normal(N)
    w = rng.standard_normal(N)
    if project_out is not None:
        v -= (v @ project_out) * project_out
        w -= (w @ project_out) * project_out
    v /= np.linalg.norm(v)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    return v, w


def zero_reference(N):
    """Decomposition of the zero matrix: the semicircle reference."""
    return SpectralDecomposition(np.zeros(N), np.eye(N))


# ----------------------------------------------------------------------------
# experiment suites


def _assumptions_experiment(cfg):
    checks, tables = [], {}
    H = sample_ensemble(cfg.ensemble, seed=(cfg.seed, 0))
    dec = eig_sym(H)
    rng = stream(cfg.seed, 1)
    S = [_random_unit(rng, cfg.N) for _ in range(cfg.directions)]
    report = verify_assumptions(dec, cfg.window, S, cfg.exponent_budget)
    _bound_check(checks, "im-m-upper", report.sup_im_m, cfg.window.C)
    _bound_check(checks, "im-m-lower-inverse", 1.0 / max(report.inf_im_m, 1e-300),
                 cfg.window.C)
    _bound_check(checks, "green-form-budget", report.sup_green, report.green_budget)

    profile = FreeConvolutionProfile(dec, cfg.t)
    gamma = classical_locations(profile)
    grid = np.linspace(cfg.window.E0 - cfg.window.r, cfg.window.E0 + cfg.window.r, 50)
    resid = float(np.max(fixed_point_residual(profile, np.concatenate([grid, grid + 0.1j]))))
    _bound_check(checks, "fixed-point-residual", resid, FIXED_POINT_TOL)
    _bound_check(checks, "quantile-defect", quantile_defect(profile), 1e-6)
    _bound_check(checks, "gamma-monotone-defect",
                 float(max(0.0, -np.min(np.diff(gamma)))), 0.0)
    tables["classical-locations"] = (["index", "gamma"],
                                     [(i, g) for i, g in enumerate(gamma.tolist())])
    tables["assumption-report"] = (
        ["key", "value"], sorted(report.to_dict().items()))
    return checks, tables


def _generator_validate_experiment(cfg):
    checks, tables = [], {}
    N = cfg.N
    lam0 = np.linspace(-1.0, 1.0, N)
    frame0 = np.eye(N)
    rng = stream(cfg.seed, 2)
    v1 = _random_unit(rng, N)
    v2 = _random_unit(rng, N)

    space = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.from_eigenvalues(lam0)
    B = cs.assemble_generator(space, sched.coefficients())
    site = space.configs[:, 0]  # configuration (i, i) sits at site i
    f0 = N * v1[site] * v2[site]
    exact = B.mat @ f0

    lam_T, U_T = see_endpoint_ensemble(lam0, frame0, cfg.delta, cfg.dt, cfg.paths,
                                       (cfg.seed, 3))
    ov1 = np.einsum("bji,j->bi", U_T, v1)
    ov2 = np.einsum("bji,j->bi", U_T, v2)
    obs = N * ov1 * ov2  # value at configuration (i, i)
    fd = (obs.mean(axis=0) - f0) / cfg.delta
    se = obs.std(axis=0, ddof=1) / math.sqrt(cfg.paths) / cfg.delta

    rows = []
    for ix, x in enumerate(map(tuple, space.configs.tolist())):
        i = x[0]
        _check(checks, f"drift-config-{i}", fd[i], exact[ix], 3.0 * se[i])
        rows.append((str(x), float(exact[ix]), float(fd[i]), float(se[i])))
    tables["finite-difference"] = (["config", "exact", "finite_diff", "stderr"], rows)
    return checks, tables


def _top_eigenvalue(pi, A):
    """Largest eigenvalue of the pi-symmetrized dense A, from A's support only.

    A configuration whose row and column of A are zero has a zero row and
    column in the symmetrized matrix too, so it splits off as an exact
    eigenvalue 0 and leaves the support block.
    """
    nz = A != 0.0
    live = np.flatnonzero(nz.any(axis=0) | nz.any(axis=1))
    S = cs.pi_symmetrize(pi[live], A[np.ix_(live, live)])
    top = float(np.linalg.eigvalsh(S)[-1]) if live.size else 0.0
    return top if live.size == A.shape[0] else max(top, 0.0)


def _stack_expectations(space, partitions):
    """The partitions' conditional expectations E_P stacked into one sparse
    (len(partitions) * size, size) matrix."""
    return sparse.vstack([cs.conditional_expectation(space, part).mat
                          for part in partitions], format="csr")


def _commutation_defect(B, stacked):
    """max |B E_P - E_P B| over the stacked E_P for a CSR B, with every
    commutator formed in one sparse product: kron(I, B) stacked - stacked B.
    kron(I, B) is built straight from B's arrays, block k shifting the
    column indices by k * size and the row pointers by k * nnz."""
    size, nnz = B.shape[0], B.nnz
    k = np.arange(stacked.shape[0] // size)[:, None]
    blocks = sparse.csr_matrix(
        (np.tile(B.data, k.size), (B.indices + k * size).ravel(),
         np.append((B.indptr[:-1] + k * nnz).ravel(), k.size * nnz)),
        shape=(stacked.shape[0], stacked.shape[0]))
    comm = blocks @ stacked - stacked @ B
    return float(np.max(np.abs(comm.data), initial=0.0))


def _operator_suite_experiment(cfg):
    checks, tables = [], {}
    N, n = cfg.N, cfg.n
    space = cs.enumerate_space(N, n)
    configs = list(map(tuple, space.configs.tolist()))  # Python ints for report cells
    rng = stream(cfg.seed, 4)
    C = rng.uniform(0.1, 1.0, size=(N, N))
    C = 0.5 * (C + C.T)
    np.fill_diagonal(C, 0.0)
    B = cs.assemble_generator(space, C)

    _bound_check(checks, "pi-reversibility", B.reversibility_defect(), 1e-12)
    X = cs.chi_matrix(space)
    _bound_check(checks, "kernel-annihilation",
                 float(np.max(np.abs(B.mat @ X))), 1e-12)

    evals = np.linalg.eigvalsh(cs.pi_symmetrize(space.pi, B.dense()))
    _bound_check(checks, "top-eigenvalue", float(evals[-1]), 1e-10)
    null_dim = int(np.sum(np.abs(evals) <= 1e-10 * max(1.0, abs(evals[0]))))
    _check(checks, "nullspace-dimension", null_dim, X.shape[1], 0)

    worst_exch = worst_gap = -math.inf
    for i in range(N):
        for j in range(i + 1, N):
            E = cs.pair_generator(space, i, j, part="exchange-only").dense()
            M = cs.pair_generator(space, i, j, part="move-only").dense()
            worst_exch = max(worst_exch, _top_eigenvalue(space.pi, E))
            worst_gap = max(worst_gap, _top_eigenvalue(space.pi, M - E))
    _bound_check(checks, "exchange-negative-semidefinite", worst_exch, 1e-10)
    _bound_check(checks, "move-below-exchange", worst_gap, 1e-10)

    stacked = _stack_expectations(space, cs.all_partitions(n))
    worst_comm = max(
        _commutation_defect(cs.pair_generator(space, i, j).mat, stacked)
        for i in range(N) for j in range(i + 1, N))
    _bound_check(checks, "generator-expectation-commutation", worst_comm, 1e-12)

    stab_ok = np.array_equal(np.count_nonzero(X, axis=1), np.round(np.sqrt(space.pi)))
    _check(checks, "stabilizer-sqrt-pi", float(stab_ok), 1.0, 0)

    K = cs.kernel_projection(space)
    _bound_check(checks, "kernel-projection-idempotent",
                 float(np.max(np.abs(K.mat @ K.mat - K.mat))), 1e-12)
    _bound_check(checks, "kernel-projection-self-adjoint",
                 K.reversibility_defect(), 1e-12)

    # L1 bound over random schedules and delta initial data.
    bound = len(cs.matchings(n))
    worst_l1 = 0.0
    for trial in range(cfg.l1_trials):
        trng = stream(cfg.seed, 5, trial)
        Ct = trng.uniform(0.0, 1.0, size=(N, N))
        Ct = 0.5 * (Ct + Ct.T)
        np.fill_diagonal(Ct, 0.0)
        sched = rx.CoefficientSchedule.constant(Ct)
        x = configs[int(trng.integers(space.size))]
        s = float(trng.uniform(0.0, 1.0))
        res = rx.propagate(space, sched, space.delta(x), 0.0, s, steps=4)
        worst_l1 = max(worst_l1, space.norm_l1(res.final))
    _bound_check(checks, "l1-growth", worst_l1, bound + 1e-9)

    # Haar cross-check of the exact kernel projection.
    rows = []
    worst_sigma = 0.0
    if n == 2:
        pairs = [(x, y) for x in configs for y in configs]
    else:
        prng = stream(cfg.seed, 6)
        pairs = [
            (configs[int(prng.integers(space.size))],
             configs[int(prng.integers(space.size))])
            for _ in range(20)
        ]
    ests, ses = cs.haar_kernel_entries(N, pairs, cfg.haar_samples, (cfg.seed, 7))
    for (x, y), est, se in zip(pairs, ests, ses):
        exact = cs.delta_pairing(space, K, x, y) * math.sqrt(
            space.pi[space.idx(x)] * space.pi[space.idx(y)]
        )
        if se > 0:
            worst_sigma = max(worst_sigma, abs(est - exact) / se)
        rows.append((str(x), str(y), float(exact), float(est), float(se)))
    _bound_check(checks, "haar-crosscheck-sigmas", worst_sigma, 4.0)
    tables["haar-crosscheck"] = (["x", "y", "exact", "estimate", "stderr"], rows)
    return checks, tables


def _mixing_experiment(cfg):
    checks, tables = [], {}
    # Poincare scaling at n = 2 with the inverse-square reference schedule.
    N = cfg.N
    space2 = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.inverse_square(N, upsilon=cfg.upsilon)
    mid = N // 2
    y = (mid, mid)
    rows = []
    ratios = []
    for ell in cfg.ells:
        const = rx.poincare_constant(space2, y, ell, sched)
        rows.append((ell, const, N, 2, cfg.upsilon, sched.tag))
        ratios.append(const / ell)
    tables["poincare"] = (["ell", "constant", "N", "n", "upsilon", "schedule"], rows)
    spread = max(ratios) / min(ratios)
    _bound_check(checks, "poincare-linear-spread", spread, cfg.poincare_spread)
    _bound_check(checks, "poincare-singleton",
                 rx.poincare_constant(space2, y, 1, sched), 0.0)

    # Nash ratios on the ultracontractivity space.
    space = cs.enumerate_space(cfg.uc_N, cfg.uc_n)
    usched = rx.CoefficientSchedule.inverse_square(cfg.uc_N, upsilon=cfg.upsilon)
    K = cs.kernel_projection(space)
    nrng = stream(cfg.seed, 8)
    worst_nash = 0.0
    for _ in range(200):
        f = nrng.standard_normal(space.size)
        worst_nash = max(worst_nash, rx.nash_ratio(space, usched, f, kernel_op=K))
    worst_nash = max(worst_nash, rx.nash_ratio(space, usched,
                                               space.delta(space.configs[0]),
                                               kernel_op=K))
    _bound_check(checks, "nash-ratio-max", worst_nash, cfg.nash_bound)

    s_grid = np.geomspace(2.0 / cfg.uc_N, 0.5, 12)
    curve = rx.ultracontractivity_curve(space, usched, s_grid, kernel_op=K)
    tables["ultracontractivity"] = (
        ["s", "norm", "N", "n", "upsilon", "schedule"],
        [(s, v, cfg.uc_N, cfg.uc_n, cfg.upsilon, usched.tag) for s, v in curve.rows()])
    slope = curve.slope(2.0 / cfg.uc_N, 0.5)
    _bound_check(checks, "uc-loglog-slope", slope, -cfg.uc_n / 4.0 + 0.3)
    _bound_check(checks, "uc-envelope-defect", curve.envelope_defect(), 1e-10)
    return checks, tables


def _fsp_experiment(cfg):
    checks, tables = [], {}
    N, ell = cfg.N, cfg.ell
    profile = FreeConvolutionProfile(zero_reference(N), cfg.t)
    gamma = classical_locations(profile)
    half_support = 2.0 * math.sqrt(cfg.t)
    lo, hi = -(1 - cfg.kappa) * half_support, (1 - cfg.kappa) * half_support
    window = np.flatnonzero((gamma >= lo) & (gamma <= hi))
    sched = rx.CoefficientSchedule.from_eigenvalues(gamma)
    space = cs.enumerate_space(N, 2)
    mid = N // 2
    y = (mid, mid)
    prof = rx.fsp_profile(space, sched, y, ell, window, 0.0, ell / N)
    tables["profile"] = (
        ["dist", "value", "N", "n", "ell", "schedule"],
        [(d, v, N, 2, ell, prof.schedule) for d, v in prof.rows()])
    _bound_check(checks, "far-field", prof.max_at_or_beyond(4 * ell), 1e-6)
    envelope = prof.binned_envelope()
    worst_rise = max(
        0.0,
        max([b - a for (_, a), (_, b) in zip(envelope, envelope[1:])], default=0.0),
    )
    _bound_check(checks, "envelope-monotone-defect", worst_rise, 1e-9)
    diag = prof.max_at_or_beyond(0) if not envelope else envelope[0][1]
    _check(checks, "diagonal-order-one", diag, 1.0, 1.0)
    return checks, tables


def _joint_normality_experiment(cfg):
    checks, tables = [], {}
    N = cfg.N
    spec = cfg.ensemble
    project = spec.kind in ("erdos-renyi", "p-regular")
    ones = np.ones(N) / math.sqrt(N) if project else None
    rng = stream(cfg.seed, 9)
    vw_pairs = [_orthonormal_pair(rng, N, project_out=ones) for _ in range(cfg.pairs)]
    i_bulk = N // 2
    j_bulk = i_bulk + 5

    # Columns v0, w0, v1, w1, ...; overlaps of u_{i_bulk} and u_{j_bulk}.
    vectors = np.stack([u for pair in vw_pairs for u in pair], axis=1)
    ov = overlap_samples(spec, cfg.t, cfg.seed, cfg.trials, (i_bulk, j_bulk), vectors)
    oi, oj = ov[:, 0], ov[:, 1]
    a_vals = N * oi[:, 0::2] * oi[:, 1::2]
    b_vals = N * oj[:, 0] * oj[:, 1]
    diag_vals = N * oi[:, 0] ** 2
    fourth = N**2 * oi[:, 0] ** 4

    rows = []

    def moment(name, vals, target, tol=None):
        est = float(vals.mean())
        se = float(vals.std(ddof=1) / math.sqrt(cfg.trials))
        _check(checks, name, est, target, 3.0 * se if tol is None else tol)
        rows.append((name, est, target, se))

    for p, (v, w) in enumerate(vw_pairs):
        moment(f"second-moment-pair-{p}", a_vals[:, p], float(v @ w))
    moment("second-moment-diagonal", diag_vals, 1.0)
    moment("fourth-moment", fourth, 3.0, tol=0.3)
    moment("cross-index-factorization",
           (a_vals[:, 0] - a_vals[:, 0].mean()) * (b_vals - b_vals.mean()), 0.0)
    # Wick target for the factorized four-point product across two indices.
    v0, w0 = vw_pairs[0]
    moment("wick-product-target", a_vals[:, 0] * b_vals, float((v0 @ w0) ** 2))

    tables["moments"] = (["check", "estimate", "target", "stderr"], rows)
    return checks, tables


def _ansatz_compare_experiment(cfg):
    checks, tables = [], {}
    N, n = cfg.N, cfg.n
    space = cs.enumerate_space(N, n)
    profile = FreeConvolutionProfile(zero_reference(N), cfg.t)
    rng = stream(cfg.seed, 10)
    V = [_random_unit(rng, N) for _ in range(n)]
    mid = N // 2
    y = tuple([mid] * (n // 2) + [max(mid - 1, 0)] * (n - n // 2))

    rows = []
    worst = 0.0
    for x in map(tuple, space.configs.tolist()):
        wick = ansatz_mod.gaussian_wick_moment(x, V)
        F = ansatz_mod.ansatz_F(x, x, V, profile)
        worst = max(worst, abs(wick - F))
        rows.append((str(x), wick, F))
    _bound_check(checks, "identity-covariance-match", worst, 1e-12)
    tables["ansatz"] = (["config", "wick", "ansatz"], rows)

    Fy = ansatz_mod.ansatz_function(space, y, V, profile)
    worst_kernel = 0.0
    for i in range(N):
        for j in range(i + 1, N):
            Bij = cs.pair_generator(space, i, j)
            worst_kernel = max(worst_kernel, float(np.max(np.abs(Bij.mat @ Fy))))
    _bound_check(checks, "kernel-membership", worst_kernel, 1e-12)

    coefs = ansatz_mod.ansatz_chi_coefficients(y, V, profile, n)
    recon = np.zeros(space.size)
    for sigma, c in coefs.items():
        recon += c * cs.chi_indicator(space, sigma)
    _bound_check(checks, "chi-expansion-reconstruction",
                 float(np.max(np.abs(recon - Fy))), 1e-12)

    # Monte Carlo agreement of moment, ansatz, and Wick for a zero base matrix.
    mcN = cfg.mc_N
    mrng = stream(cfg.seed, 11)
    v, w = _orthonormal_pair(mrng, mcN)
    i_bulk = mcN // 2
    req = MomentRequest(
        configuration=(i_bulk, i_bulk),
        vectors=np.stack([v, w], axis=1),
        ensemble=EnsembleSpec(kind="goe", N=mcN, seed=cfg.seed),
        t=0.0,
        trials=cfg.mc_trials,
        seed=cfg.seed + 12,
    )
    est, se = estimate_moment(req)
    target = ansatz_mod.gaussian_wick_moment((i_bulk, i_bulk), [v, w])
    _check(checks, "moment-vs-wick", est, target, 3.0 * max(se, 1e-12))
    return checks, tables


_RUNNERS = {
    "assumptions": _assumptions_experiment,
    "generator-validate": _generator_validate_experiment,
    "operator-suite": _operator_suite_experiment,
    "mixing": _mixing_experiment,
    "fsp": _fsp_experiment,
    "joint-normality": _joint_normality_experiment,
    "ansatz-compare": _ansatz_compare_experiment,
}


def run_experiment(cfg):
    """Dispatch to the suite for cfg.kind.

    Failing checks are recorded with pass=False and never abort the suite;
    guard violations (bad sizes, missing declarations) raise.
    """
    started = time.perf_counter()
    checks, tables = _RUNNERS[cfg.kind](cfg)
    report = ExperimentReport(config=cfg.to_dict(), checks=checks, tables=tables)
    if cfg.record_runtime:
        report.wall_clock = time.perf_counter() - started
    return report


# ----------------------------------------------------------------------------
# emission


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    raise TypeError(f"not JSON serializable: {type(o)}")


def emit_report(report, fmt="csv", out_dir="out"):
    """Write the JSON summary and the raw tables; byte-stable for equal inputs.

    fmt = "json" embeds the tables in the summary; fmt = "csv" writes one CSV
    per table next to it.  Returns the written paths.
    """
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    summary = report.to_dict()
    if fmt == "json":
        summary["tables"] = {
            name: {"headers": headers, "rows": [list(r) for r in rows]}
            for name, (headers, rows) in sorted(report.tables.items())
        }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    paths.append(summary_path)
    if fmt == "csv":
        for name, (headers, rows) in sorted(report.tables.items()):
            table_path = os.path.join(out_dir, f"{name}.csv")
            with open(table_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(headers)
                writer.writerows(rows)
            paths.append(table_path)
    return paths


def main():
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description="Verification experiments for the colored eigenvector moment flow.",
        epilog="CSV columns per experiment: "
               + "; ".join(f"{k}: {v}" for k, v in sorted(_CSV_COLUMNS.items())),
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} suite "
                                      f"({_CSV_COLUMNS[kind]})")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with ExperimentConfig fields")
        p.add_argument("--seed", type=int, default=None, help="base seed (u64)")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", type=str, choices=("json", "csv"), default=None)
    args = parser.parse_args()

    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        if cfg.kind != args.kind:
            parser.error(f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}")
    else:
        cfg = ExperimentConfig(kind=args.kind, seed=args.seed or 0)
    for name in ("seed", "out", "format"):
        val = getattr(args, name)
        if val is not None:
            setattr(cfg, name, val)

    report = run_experiment(cfg)
    emit_report(report, fmt=cfg.format, out_dir=cfg.out)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: value={c.value:.6g} target={c.target:.6g} tol={c.tol:.6g}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
