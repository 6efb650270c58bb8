"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned here, not computed elsewhere.  Monte Carlo criteria use
fixed seeds; "3 stderr" always means three times the sample standard error of
the estimator in question.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from momentflow import ansatz as az
from momentflow import configspace as cs
from momentflow import ensembles as ens
from momentflow import flow
from momentflow import relaxation as rx
from momentflow import spectral as spx
from momentflow._rng import stream
from momentflow.harness import ExperimentConfig, run_experiment, zero_reference

SEED = 11


def report(num, name, passed, detail):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


def random_coeffs(N, seed):
    rng = stream(seed)
    C = rng.uniform(0.1, 1.0, (N, N))
    C = 0.5 * (C + C.T)
    np.fill_diagonal(C, 0.0)
    return C


def sym_measure(space, mat):
    half = np.sqrt(space.pi)
    S = (half[:, None] * mat) / half[None, :]
    return 0.5 * (S + S.T)


def test_criterion_01_algebraic_suite():
    # pi-reversibility, kernel, nullspace dimension, semidefiniteness,
    # commutation -- exact, for n in {2,4} and N in {6,10}.
    worst = {"rev": 0.0, "chi": 0.0, "top": -np.inf, "exch": -np.inf,
             "gap": -np.inf, "comm": 0.0}
    null_ok = True
    for n in (2, 4):
        for N in (6, 10):
            sp = cs.enumerate_space(N, n)
            B = cs.assemble_generator(sp, random_coeffs(N, (SEED, n, N)))
            worst["rev"] = max(worst["rev"], B.reversibility_defect())
            X = cs.chi_matrix(sp)
            worst["chi"] = max(worst["chi"], float(np.max(np.abs(B.mat @ X))))
            evals = np.linalg.eigvalsh(sym_measure(sp, B.dense()))
            worst["top"] = max(worst["top"], float(evals[-1]))
            null_dim = int(np.sum(np.abs(evals) <= 1e-10 * abs(evals[0])))
            null_ok = null_ok and (null_dim == X.shape[1])
            for i, j in itertools.combinations(range(N), 2):
                E = cs.pair_generator(sp, i, j, part="exchange-only").dense()
                M = cs.pair_generator(sp, i, j, part="move-only").dense()
                worst["exch"] = max(
                    worst["exch"], float(np.linalg.eigvalsh(sym_measure(sp, E))[-1]))
                worst["gap"] = max(
                    worst["gap"], float(np.linalg.eigvalsh(sym_measure(sp, M - E))[-1]))
            if n == 4:
                pairs = (itertools.combinations(range(N), 2) if N == 6
                         else itertools.combinations(range(5), 2))
                partitions = cs.all_partitions(4)
                for i, j in pairs:
                    Bij = cs.pair_generator(sp, i, j).dense()
                    for P in partitions:
                        EP = cs.conditional_expectation(sp, P).dense()
                        worst["comm"] = max(
                            worst["comm"], float(np.max(np.abs(Bij @ EP - EP @ Bij))))
    passed = (worst["rev"] <= 1e-12 and worst["chi"] <= 1e-12 and null_ok
              and worst["top"] <= 1e-10 and worst["exch"] <= 1e-10
              and worst["gap"] <= 1e-10 and worst["comm"] <= 1e-12)
    report(1, "algebraic-suite", passed,
           f"rev={worst['rev']:.2e} chi={worst['chi']:.2e} top={worst['top']:.2e} "
           f"exch={worst['exch']:.2e} gap={worst['gap']:.2e} comm={worst['comm']:.2e} "
           f"nullspace={'ok' if null_ok else 'wrong'}")


def test_criterion_02_l1_bound():
    # 100 random (x, schedule, s <= 1): ||U(0,s) delta_x||_1 <= 3 + 1e-9 at n=4.
    sp = cs.enumerate_space(6, 4)
    bound = len(cs.matchings(4))
    rng = stream(SEED, 100)
    worst = 0.0
    for k in range(100):
        sched = rx.CoefficientSchedule.constant(random_coeffs(6, (SEED, 101, k)))
        x = sp.configs[int(rng.integers(sp.size))]
        s = float(rng.uniform(0.0, 1.0))
        res = rx.propagate(sp, sched, sp.delta(x), 0.0, s, steps=4)
        worst = max(worst, max(sp.norm_l1(f) for f in res.snapshots))
    passed = worst <= bound + 1e-9
    report(2, "l1-bound", passed, f"worst={worst:.12f} bound={bound}+1e-9")


def test_criterion_03_haar_kernel_crosscheck():
    # exact kernel projection vs 1e6-sample Haar Monte Carlo, 4 stderr.
    sp2 = cs.enumerate_space(5, 2)
    K2 = cs.kernel_projection(sp2)
    exact_defect = max(
        abs(cs.delta_pairing(sp2, K2, x, y) - 1.0 / 5.0)
        for x in sp2.configs for y in sp2.configs
    )
    pairs2 = [(x, y) for x in sp2.configs for y in sp2.configs]
    ests, ses = cs.haar_kernel_entries(5, pairs2, 1_000_000, (SEED, 300))
    worst_sig = 0.0
    for (x, y), est, se in zip(pairs2, ests, ses):
        exact = cs.delta_pairing(sp2, K2, x, y) * math.sqrt(
            sp2.pi[sp2.idx(x)] * sp2.pi[sp2.idx(y)])
        worst_sig = max(worst_sig, abs(est - exact) / se)

    sp4 = cs.enumerate_space(6, 4)
    K4 = cs.kernel_projection(sp4)
    prng = stream(SEED, 301)
    pairs4 = [(sp4.configs[int(prng.integers(sp4.size))],
               sp4.configs[int(prng.integers(sp4.size))]) for _ in range(20)]
    ests4, ses4 = cs.haar_kernel_entries(6, pairs4, 1_000_000, (SEED, 302))
    for (x, y), est, se in zip(pairs4, ests4, ses4):
        exact = cs.delta_pairing(sp4, K4, x, y) * math.sqrt(
            sp4.pi[sp4.idx(x)] * sp4.pi[sp4.idx(y)])
        worst_sig = max(worst_sig, abs(est - exact) / se)
    passed = exact_defect <= 1e-12 and worst_sig <= 4.0
    report(3, "haar-kernel-crosscheck", passed,
           f"exact-entry-defect={exact_defect:.2e} worst-sigmas={worst_sig:.2f}")


@pytest.mark.slow
def test_criterion_04_generator_vs_see():
    # N=5, n=2, 1e5 paths, delta=1e-3: drift matches B_s f within 3 stderr.
    N, delta, dt, paths = 5, 1e-3, 1e-5, 100_000
    lam0 = np.linspace(-1.0, 1.0, N)
    rng = stream(SEED, 400)
    v1 = rng.standard_normal(N)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(N)
    v2 /= np.linalg.norm(v2)
    sp = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.from_eigenvalues(lam0)
    B = cs.assemble_generator(sp, sched.coefficients())
    f0 = np.array([N * v1[x[0]] * v2[x[0]] for x in sp.configs])
    exact = B.mat @ f0
    lamT, UT = flow.see_endpoint_ensemble(lam0, np.eye(N), delta, dt, paths,
                                          (SEED, 401))
    obs = N * np.einsum("bji,j->bi", UT, v1) * np.einsum("bji,j->bi", UT, v2)
    fd = (obs.mean(axis=0) - f0) / delta
    se = obs.std(axis=0, ddof=1) / math.sqrt(paths) / delta
    zs = [(fd[x[0]] - exact[ix]) / se[x[0]] for ix, x in enumerate(sp.configs)]
    passed = all(abs(z) <= 3.0 for z in zs)
    report(4, "generator-vs-see", passed,
           "z=" + ",".join(f"{z:+.2f}" for z in zs))


def test_criterion_05_free_convolution():
    # |m_fc,1(0) - i| <= 1e-8; quantiles vs semicircle within 1e-4 at N=1000;
    # residuals <= 1e-12 everywhere sampled.
    prof = spx.FreeConvolutionProfile(zero_reference(1000), 1.0)
    m0 = spx.free_convolution_m(prof, 0.0)
    gamma = spx.classical_locations(prof)

    # independent oracle: closed-form semicircle distribution, cross-checked
    # against direct quadrature on a subset of levels
    def sc_cdf(x):
        x = min(max(x, -2.0), 2.0)
        return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) \
            + math.asin(x / 2.0) / math.pi

    for i in (0, 137, 499, 862, 999):
        level = (i + 0.5) / 1000
        quad_val = quad(lambda e: math.sqrt(max(4 - e * e, 0.0)) / (2 * math.pi),
                        -2.0, gamma[i])[0]
        assert abs(quad_val - sc_cdf(gamma[i])) <= 1e-10
    worst_q = max(
        abs(gamma[i] - brentq(lambda x: sc_cdf(x) - (i + 0.5) / 1000, -2.0, 2.0,
                              xtol=1e-12))
        for i in range(1000)
    )
    grid = [complex(E, eta) for E in np.linspace(-1.9, 1.9, 40)
            for eta in (0.0, 0.05, 0.3)]
    worst_r = max(spx.fixed_point_residual(prof, z) for z in grid)
    passed = abs(m0 - 1j) <= 1e-8 and worst_q <= 1e-4 and worst_r <= 1e-12
    report(5, "free-convolution", passed,
           f"|m(0)-i|={abs(m0-1j):.2e} quantile={worst_q:.2e} residual={worst_r:.2e}")


def test_criterion_06_poincare_scaling():
    # n=2, c=|i-j|^{-2}: constant(ell)/ell within a factor 4 over ell in 8..64.
    ells = (8, 16, 32, 64)
    N = 2 * 64 + 33
    sp = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.inverse_square(N, upsilon=1.0)
    y = (N // 2, N // 2)
    ratios = [rx.poincare_constant(sp, y, ell, sched) / ell for ell in ells]
    spread = max(ratios) / min(ratios)
    passed = spread <= 4.0
    report(6, "poincare-scaling", passed,
           "c/ell=" + ",".join(f"{r:.4f}" for r in ratios) + f" spread={spread:.3f}")


def test_criterion_07_ultracontractivity():
    # n=4, N=10, c=|i-j|^{-2}, upsilon=1: log-log slope on [0.2, 0.5] <= -0.7.
    sp = cs.enumerate_space(10, 4)
    sched = rx.CoefficientSchedule.inverse_square(10, upsilon=1.0)
    curve = rx.ultracontractivity_curve(sp, sched, np.geomspace(0.2, 0.5, 12))
    slope = curve.slope(0.2, 0.5)
    passed = slope <= -0.7
    report(7, "ultracontractivity", passed, f"slope={slope:.4f} target<=-0.7")


def test_criterion_08_finite_speed():
    # N=40, n=2, ell=4, s2-s1=ell/N: entries at dist >= 4 ell are <= 1e-6.
    N, ell = 40, 4
    prof = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    gamma = spx.classical_locations(prof)
    window = np.flatnonzero(np.abs(gamma) <= 1.8)
    sched = rx.CoefficientSchedule.from_eigenvalues(gamma)
    sp = cs.enumerate_space(N, 2)
    profile = rx.fsp_profile(sp, sched, (N // 2, N // 2), ell, window, 0.0, ell / N)
    far = profile.max_at_or_beyond(4 * ell)
    passed = far <= 1e-6
    report(8, "finite-speed", passed, f"max-entry(dist>=16)={far:.2e}")


def _joint_normality(num, name, spec, trials, fourth_three_sigma=False):
    cfg = ExperimentConfig(kind="joint-normality", seed=SEED, trials=trials,
                           ensemble=spec)
    rep = run_experiment(cfg)
    ok = all(c.passed for c in rep.checks)
    if fourth_three_sigma:
        # criterion 11 tightens the fourth moment from the 10% band to 3 stderr
        rows = {r[0]: r for r in rep.tables["moments"][1]}
        _, est, target, se = rows["fourth-moment"]
        ok = ok and abs(est - target) <= 3.0 * se
    detail = "; ".join(
        f"{c.name}={c.value:+.4f} (target {c.target:+.4f}, tol {c.tol:.4f})"
        for c in rep.checks
    )
    report(num, name, ok, detail)


@pytest.mark.slow
def test_criterion_09_joint_normality_generalized_wigner():
    _joint_normality(
        9, "joint-normality-genwig",
        ens.EnsembleSpec(kind="generalized-wigner", N=200, seed=SEED),
        trials=10_000,
    )


def test_criterion_10_ansatz_consistency():
    # F(x;x) with identity covariance equals the Wick moment to 1e-12 on all
    # of Lambda^4_6; x -> F(x;y) annihilated by every B_ij to 1e-12.
    N, n = 6, 4
    sp = cs.enumerate_space(N, n)
    rng = stream(SEED, 500)
    V = []
    for _ in range(n):
        v = rng.standard_normal(N)
        V.append(v / np.linalg.norm(v))
    prof = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    worst_match = max(
        abs(az.gaussian_wick_moment(x, V, N=N) - az.ansatz_F(x, x, V, prof))
        for x in sp.configs
    )
    y = (2, 2, 3, 3)
    Fy = az.ansatz_function(sp, y, V, prof)
    worst_kernel = max(
        float(np.max(np.abs(cs.pair_generator(sp, i, j).mat @ Fy)))
        for i, j in itertools.combinations(range(N), 2)
    )
    passed = worst_match <= 1e-12 and worst_kernel <= 1e-12
    report(10, "ansatz-consistency", passed,
           f"wick-match={worst_match:.2e} kernel={worst_kernel:.2e}")


@pytest.mark.slow
def test_criterion_11_joint_normality_sparse_graph():
    # Known-red at these parameters: sparse-graph second moments carry
    # direction-dependent deterministic corrections of order 1/p ~ 0.02
    # (measured: pair bias +0.012 +- 0.008 pooled over independent runs,
    # vanishing at p=125; estimator excess kurtosis ~9), while 3 stderr at
    # 1e4 trials is 0.03.  The five pair checks are therefore a seed-level
    # coin flip; the criterion is implemented faithfully and left to fail
    # rather than tuned green.  See README and the run's check values.
    print("NOTE criterion 11: desk-scale sparse corrections ~1/p sit at the "
          "3-stderr tolerance; see README for the quantified analysis.",
          flush=True)
    _joint_normality(
        11, "joint-normality-erdos-renyi",
        ens.EnsembleSpec(kind="erdos-renyi", N=500, p=50, seed=SEED),
        trials=10_000, fourth_three_sigma=True,
    )
