"""Ensemble samplers: laws, symmetry, determinism, invariance."""

import math
from dataclasses import replace

import numpy as np
import pytest

from momentflow import ensembles as ens
from momentflow._rng import stream


def test_goe_symmetric_and_deterministic():
    Z = ens.sample_goe(40, seed=7)
    assert np.array_equal(Z, Z.T)
    assert np.all(np.isfinite(Z))
    assert np.array_equal(Z, ens.sample_goe(40, seed=7))
    assert not np.array_equal(Z, ens.sample_goe(40, seed=8))


def test_symmetrize_upper_matches_loop_reference():
    # Row-major strict upper triangle mirrored below, diagonal on its own; the
    # cached flat indices must place every entry exactly, for repeated N too.
    rng = stream(3)
    for N in (1, 2, 7, 7, 30):
        upper = rng.standard_normal(N * (N - 1) // 2)
        diag = rng.standard_normal(N)
        ref = np.diag(diag)
        k = 0
        for i in range(N):
            for j in range(i + 1, N):
                ref[i, j] = ref[j, i] = upper[k]
                k += 1
        assert np.array_equal(ens._symmetrize_upper(upper, diag), ref)


def test_goe_entry_variance_fresh_samples():
    # 1e5 fresh draws of the (1,2) entry at N=40: variance 1/N.
    N, M = 40, 100_000
    vals = np.array([ens.sample_goe(N, seed=(7, k))[0, 1] for k in range(M)])
    sq = vals**2
    stderr = sq.std(ddof=1) / math.sqrt(M)
    assert abs(sq.mean() - 1.0 / N) <= 3 * stderr


def test_goe_entry_variance_large_matrix():
    # Entry ensemble of one N=1000 draw: 499500 iid off-diagonal entries.
    N = 1000
    Z = ens.sample_goe(N, seed=7)
    iu = np.triu_indices(N, k=1)
    sq = Z[iu] ** 2
    stderr = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - 1.0 / N) <= 3 * stderr
    dq = np.diag(Z) ** 2
    assert abs(dq.mean() - 2.0 / N) <= 3 * dq.std(ddof=1) / math.sqrt(N)


def test_goe_orthogonal_invariance_moments():
    # Fixed orthogonal Q: entry moments of Q^T Z Q match Z within 4 stderr.
    N, M = 6, 100_000
    rng = stream(3)
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    raw = np.empty((M, 2))
    rot = np.empty((M, 2))
    for k in range(M):
        Z = ens.sample_goe(N, seed=(11, k))
        W = Q.T @ Z @ Q
        raw[k] = (Z[0, 1] ** 2, Z[0, 1] ** 4)
        rot[k] = (W[0, 1] ** 2, W[0, 1] ** 4)
    for j in range(2):
        se = math.sqrt(raw[:, j].var(ddof=1) / M + rot[:, j].var(ddof=1) / M)
        assert abs(raw[:, j].mean() - rot[:, j].mean()) <= 4 * se


def test_generalized_wigner_flat_profile():
    spec = ens.EnsembleSpec(kind="generalized-wigner", N=64, seed=5)
    H = ens.sample_generalized_wigner(spec)
    assert np.array_equal(H, H.T)
    # Bernoulli law: entries are exactly +-1/sqrt(N)
    offdiag = H[np.triu_indices(64, 1)]
    assert np.allclose(np.abs(offdiag), 1.0 / 8.0)
    # column variance sums exactly 1 under the flat profile
    assert np.allclose((H**2).sum(axis=0), 1.0)


def test_generalized_wigner_flat_matches_profile_formula():
    # The flat sampler scales by the scalar sqrt(1/N); the oracle gathers the
    # square root of an explicit flat profile, as for a custom one.
    N = 200
    iu = np.triu_indices(N, 1)
    sigma = np.sqrt(np.full((N, N), 1.0 / N))
    for law in ("bernoulli", "gaussian"):
        for seed in (0, 1, 2):
            rng = stream(seed)
            if law == "bernoulli":
                upper = (2.0 * rng.integers(0, 2, size=iu[0].size) - 1.0) * sigma[iu]
                diag = (2.0 * rng.integers(0, 2, size=N) - 1.0) * np.diag(sigma)
            else:
                upper = rng.standard_normal(iu[0].size) * sigma[iu]
                diag = rng.standard_normal(N) * np.diag(sigma)
            H = np.diag(diag)
            H[iu] = upper
            H.T[iu] = upper
            spec = ens.EnsembleSpec(kind="generalized-wigner", N=N, seed=seed, entry_law=law)
            assert np.array_equal(ens.sample_generalized_wigner(spec), H)
    # A declared bound below 1 leaves no admissible profile, so the spec is refused.
    with pytest.raises(ValueError, match="non-degeneracy range"):
        ens.EnsembleSpec(kind="generalized-wigner", N=4, profile_bound=0.5)


def test_sample_ensemble_seed_override_keeps_every_field():
    # seed= replaces the spec's seed and nothing else: a spec that sets every
    # optional field samples the same matrix either way.
    N = 30
    gap = np.abs(np.arange(N)[:, None] - np.arange(N)[None, :])
    profile = (1.0 + 0.5 * np.cos(2.0 * np.pi * gap / N)) / N
    spec = ens.EnsembleSpec(kind="generalized-wigner", N=N, variance_profile=profile,
                            entry_law="gaussian", profile_bound=2.0, seed=1)
    for s in (5, (5, 3, 0)):
        assert np.array_equal(ens.sample_ensemble(spec, seed=s),
                              ens.sample_ensemble(replace(spec, seed=s)))


def test_generalized_wigner_two_by_two():
    spec = ens.EnsembleSpec(kind="generalized-wigner", N=2, seed=1)
    H = ens.sample_generalized_wigner(spec)
    assert abs(abs(H[0, 1]) - 1.0 / math.sqrt(2.0)) < 1e-15


def test_generalized_wigner_fourth_moment_stable():
    # sqrt(N) h_ij has fourth moment exactly (N sigma^2)^2 = 1 for Bernoulli.
    N, M = 16, 100_000
    vals = np.array(
        [ens.sample_generalized_wigner(ens.EnsembleSpec(
            kind="generalized-wigner", N=N, seed=k))[0, 1] for k in range(M // 100)]
    )
    fourth = (math.sqrt(N) * vals) ** 4
    assert np.allclose(fourth, 1.0)


def test_generalized_wigner_rejects_bad_profile():
    profile = np.full((4, 4), 0.3)
    with pytest.raises(ValueError, match="normalization"):
        ens.EnsembleSpec(kind="generalized-wigner", N=4, variance_profile=profile)


def test_gaussian_entry_law_variance():
    spec = ens.EnsembleSpec(kind="generalized-wigner", N=32, seed=2,
                            entry_law="gaussian")
    H = ens.sample_generalized_wigner(spec)
    sq = H[np.triu_indices(32, 1)] ** 2
    assert abs(sq.mean() - 1.0 / 32) <= 4 * sq.std(ddof=1) / math.sqrt(sq.size)


def test_erdos_renyi_entries_and_density():
    N, p = 2000, 50
    spec = ens.EnsembleSpec(kind="erdos-renyi", N=N, p=p, seed=9)
    H = ens.sample_sparse_graph(spec)
    assert np.array_equal(H, H.T)
    assert np.all(np.diag(H) == 0)
    vals = np.unique(H[np.triu_indices(N, 1)])
    expected = 1.0 / math.sqrt(p * (1 - p / N))
    assert set(np.round(vals, 14)) == {0.0, round(expected, 14)}
    # binomial count oracle for the edge density
    M = N * (N - 1) // 2
    q = p / N
    count = int(np.count_nonzero(H[np.triu_indices(N, 1)]))
    stderr = math.sqrt(q * (1 - q) / M)
    assert abs(count / M - q) <= 3 * stderr


def test_p_regular_rows():
    spec = ens.EnsembleSpec(kind="p-regular", N=40, p=4, seed=3)
    H = ens.sample_sparse_graph(spec)
    A = H * math.sqrt(3.0)
    assert np.allclose(A, np.round(A))
    assert np.all(A.sum(axis=0) == 4)
    assert np.all(np.diag(A) == 0)
    assert np.array_equal(A, A.T)


def test_p_regular_parity_guard():
    with pytest.raises(ValueError, match="even"):
        ens.EnsembleSpec(kind="p-regular", N=7, p=3)


def test_stable_characteristic_function():
    alpha = 1.5
    rng = stream(13)
    Z = ens.stable_sigma(alpha) * ens.sample_stable(alpha, 1_000_000, rng)
    cf = np.cos(Z)  # real part of e^{itZ} at t = 1; symmetric law
    target = math.exp(-ens.stable_sigma(alpha) ** alpha)
    stderr = cf.std(ddof=1) / 1000.0
    assert abs(cf.mean() - target) <= 4 * stderr


def test_stable_tail_slope():
    alpha = 1.2
    rng = stream(14)
    Z = np.abs(ens.stable_sigma(alpha) * ens.sample_stable(alpha, 1_000_000, rng))
    us = np.quantile(Z, [0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999])
    surv = np.array([(Z > u).mean() for u in us])
    slope = np.polyfit(np.log(us), np.log(surv), 1)[0]
    assert abs(slope + alpha) <= 0.1


def test_stable_symmetry():
    rng = stream(15)
    Z = ens.sample_stable(0.8, 1_000_000, rng)
    signs = np.sign(Z)
    assert abs(signs.mean()) <= 3.0 / 1000.0


def test_levy_matrix_symmetric():
    spec = ens.EnsembleSpec(kind="levy", N=50, alpha=1.0, seed=21)
    H = ens.sample_levy(spec)
    assert np.array_equal(H, H.T)
    assert np.all(np.isfinite(H))


def test_perturbation_variance_and_zero():
    H = ens.sample_goe(30, 1)
    assert np.array_equal(ens.perturb_gaussian(H, 0.0, 5), H)
    t, M = 0.25, 100_000
    vals = np.array([ens.perturb_gaussian(np.zeros((4, 4)), t, (3, k))[0, 1]
                     for k in range(M)])
    sq = vals**2
    stderr = sq.std(ddof=1) / math.sqrt(M)
    assert abs(sq.mean() - t / 4.0) <= 3 * stderr
    # linear growth: independent estimates at t and 4t have ratio 4 within 10%
    vals4 = np.array([ens.perturb_gaussian(np.zeros((4, 4)), 4 * t, (4, k))[0, 1]
                      for k in range(M)])
    ratio = (vals4**2).mean() / sq.mean()
    assert abs(ratio - 4.0) <= 0.4


def test_spec_json_round_trip():
    spec = ens.EnsembleSpec(kind="erdos-renyi", N=100, p=8, seed=4)
    again = ens.EnsembleSpec.from_dict(spec.to_dict())
    assert again == spec
