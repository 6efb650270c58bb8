"""Spectral SDE paths, Brownian-bridge refinement, frame alignment, and moment estimation."""

import math
import threading

import numpy as np
import pytest
from scipy.stats import ks_2samp

from momentflow import configspace as cs
from momentflow import ensembles as ens
from momentflow import flow
from momentflow import relaxation as rx
from momentflow import spectral as spx
from momentflow._rng import stream
from momentflow.harness import ExperimentConfig, run_experiment


def test_integrate_see_zero_time():
    dec = spx.eig_sym(ens.sample_goe(8, 3))
    path = flow.integrate_see(dec, 0.0, 1e-3, seed=1)
    assert path.times.shape == (1,)
    assert np.array_equal(path.frames[0], dec.frame)
    assert np.array_equal(path.eigenvalues[0], dec.eigenvalues)


def test_integrate_see_invariants():
    # The path starts under the gap rule (gap 0.0058 <= 10 h N = 0.02) and refines,
    # so its 1000 nominal steps become more; no accepted step starts from a gap
    # <= 10 h N or ends unordered, and no thread is started.
    dec = spx.eig_sym(ens.sample_goe(20, 7))
    threads = threading.active_count()
    path = flow.integrate_see(dec, 0.1, 1e-4, seed=2)
    assert threading.active_count() == threads
    path.validate()
    gaps = np.diff(path.eigenvalues, axis=1).min(axis=1)
    assert len(path.times) - 1 > 1000
    assert np.all(gaps[:-1] > 10 * np.diff(path.times) * 20) and np.all(gaps[1:] > 0)
    for U in path.frames[:: max(1, len(path.times) // 20)]:
        assert np.max(np.abs(U.T @ U - np.eye(20))) <= 1e-8


def test_integrate_see_collision_floor():
    lam = np.array([0.0, 5e-9, 1.0])
    dec = spx.SpectralDecomposition(lam, np.eye(3))
    with pytest.raises(RuntimeError, match="collision: min gap"):
        flow.integrate_see(dec, 0.01, 1e-4, seed=3)
    with pytest.raises(RuntimeError, match="collision: min gap"):
        flow.see_endpoint_ensemble(lam, np.eye(3), 0.01, 1e-4, 4, seed=3)


def test_see_step_single_path_matches_batch():
    # Batch 1 runs a BLAS product and Householder QR, batch 2 the path-axis
    # contraction and CGS2; both share every other line, and the eigenvalue
    # sums run in one order for every batch size.  N = 27 is the DBM path's.
    h = 1e-3
    for N in (5, 9, 27):
        lam = np.sort(stream(31).standard_normal((2, N)), axis=1).T.copy()
        U = np.stack([spx.eig_sym(ens.sample_goe(N, s)).frame.T for s in (32, 33)], axis=2)
        S = flow._symmetric_noise(stream(34), 2, N)
        lam2, U2 = flow._see_step(lam, U, h, S)
        lam1, U1 = flow._see_step(lam[:, 1:], U[:, :, 1:], h, S[:, :, 1:])
        assert np.array_equal(lam1, lam2[:, 1:])
        assert np.max(np.abs(U1 - U2[:, :, 1:])) <= 1e-14


def test_symmetric_noise_path_last_matches_leading_formula():
    b, N = 7, 5
    G = stream(35).standard_normal((b, N, N))
    leading = (G + G.transpose(0, 2, 1)) / math.sqrt(2.0)
    S = flow._symmetric_noise(stream(35), b, N)
    assert S.shape == (N, N, b) and S.flags.c_contiguous
    assert np.array_equal(S, leading.transpose(1, 2, 0))
    G_buf, S_buf = np.empty((b, N, N)), np.empty((N, N, b))
    assert flow._symmetric_noise(stream(35), b, N, G_buf, S_buf) is S_buf
    assert np.array_equal(S_buf, S)


def test_endpoint_ensemble_matches_serial_steps():
    # The prefetching ensemble against a serial loop of the same draws and steps.
    N, paths, steps, h, seed = 5, 64, 10, 1e-4, 36
    lam0 = np.linspace(-1.0, 1.0, N)
    frame0 = spx.eig_sym(ens.sample_goe(N, 37)).frame
    threads = threading.active_count()
    lamT, UT = flow.see_endpoint_ensemble(lam0, frame0, steps * h, h, paths, seed)
    assert threading.active_count() == threads
    rng = stream(seed)
    lam = np.repeat(lam0[:, None], paths, axis=1)
    U = np.repeat(frame0.T[:, :, None], paths, axis=2)
    for _ in range(steps):
        lam, U = flow._see_step(lam, U, h, flow._symmetric_noise(rng, paths, N))
        assert np.all(np.diff(lam, axis=0) > 0)
    assert np.array_equal(lamT, lam.T)
    assert np.array_equal(UT, U.transpose(2, 1, 0))


def test_endpoint_ensemble_collision_leaves_no_thread():
    # The collision raises inside the prefetch loop, with step 1's draw pending.
    lam = np.array([0.0, 5e-9, 1.0])
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="eigenvalue collision"):
        flow.see_endpoint_ensemble(lam, np.eye(3), 0.01, 1e-4, 64, seed=3)
    assert threading.active_count() == threads


def test_refine_bridge_split(monkeypatch):
    # The halves of a split sum to sqrt(2) S.  Over 1000 splits each half has
    # S's law (variance 1 off the diagonal, 2 on it), the halves are
    # uncorrelated, and a half given S varies by 1/2 off the diagonal: in
    # Brownian terms the midpoint given the increment varies by a quarter of
    # the increment's variance.  Bands are 5 standard errors.
    N, m = 6, 1000
    halves = []
    monkeypatch.setattr(flow, "_see_step", lambda lam, U, h, S: halves.append(S) or (lam, U))
    S = flow._symmetric_noise(stream(40), m, N)
    for p in range(m):
        flow._refine(np.arange(N, dtype=float)[:, None], np.eye(N)[:, :, None], 1e-3,
                     S[:, :, p:p + 1], stream(41, p), None)
    S1, S2 = np.concatenate(halves[0::2], axis=2), np.concatenate(halves[1::2], axis=2)
    full = math.sqrt(2.0) * S
    assert np.max(np.abs(S1 + S2 - full)) <= 1e-15 * np.max(np.abs(full))
    iu, dg = np.triu_indices(N, 1), np.diag_indices(N)
    off1, off2 = S1[iu].ravel(), S2[iu].ravel()
    assert abs(off1.var() - 1.0) <= 0.06 and abs(off2.var() - 1.0) <= 0.06
    assert abs(S1[dg].var() - 2.0) <= 0.18 and abs(S2[dg].var() - 2.0) <= 0.18
    assert abs(np.corrcoef(off1, off2)[0, 1]) <= 0.04
    assert abs((off1 - S[iu].ravel() / math.sqrt(2.0)).var() - 0.5) <= 0.03


def test_refinement_redoes_only_its_path(monkeypatch, caplog):
    # Path 3 is forced to refine at step 2.  Every other path equals a serial
    # loop of plain steps, and path 3 equals `_refine` run by hand on its slice
    # of that step's noise, with the bridge key (seed, step, path, 1).
    N, paths, steps, seed = 5, 16, 5, 36
    t = steps * 1e-4
    h = t / steps
    lam0 = np.linspace(-1.0, 1.0, N)
    frame0 = spx.eig_sym(ens.sample_goe(N, 37)).frame
    rejected, batch_steps = flow._rejected, []

    def forced(lam, lam_new, h):
        bad = rejected(lam, lam_new, h)
        if lam.shape[1] > 1:
            batch_steps.append(h)
            bad[3] |= len(batch_steps) == 3
        return bad

    monkeypatch.setattr(flow, "_rejected", forced)
    with caplog.at_level("WARNING", logger="momentflow.flow"):
        lamT, UT = flow.see_endpoint_ensemble(lam0, frame0, t, h, paths, seed)
    assert "refined 1 of 80 path-steps" in caplog.text
    monkeypatch.undo()
    rng = stream(seed)
    lam = np.repeat(lam0[:, None], paths, axis=1)
    U = np.repeat(frame0.T[:, :, None], paths, axis=2)
    for k in range(steps):
        S = flow._symmetric_noise(rng, paths, N)
        lam_new, U_new = flow._see_step(lam, U, h, S)
        if k == 2:
            plain = lam_new[:, 3].copy()
            lam_new[:, 3:4], U_new[:, :, 3:4] = flow._refine(
                lam[:, 3:4], U[:, :, 3:4], h, S[:, :, 3:4], stream(seed, 2, 3, 1), None)
            assert not np.array_equal(lam_new[:, 3], plain)
        lam, U = lam_new, U_new
    assert np.array_equal(lamT, lam.T)
    assert np.array_equal(UT, U.transpose(2, 1, 0))


def test_refine_steps_no_half_from_rejected_gap(monkeypatch):
    # Gap 0.01 fails the rule at h/2 = 5e-4 (10 h N = 0.015) and passes at
    # h/4, so the first half is split without being stepped: every step
    # `_refine` takes starts from a gap above 10 h N.
    N, h = 3, 1e-3
    taken, see_step = [], flow._see_step

    def spy(lam, U, h, S):
        taken.append(float(np.diff(lam, axis=0).min()) - flow.GAP_STEP_FACTOR * h * N)
        return see_step(lam, U, h, S)

    monkeypatch.setattr(flow, "_see_step", spy)
    flow._refine(np.array([0.0, 0.01, 1.0])[:, None], np.eye(N)[:, :, None], h,
                 flow._symmetric_noise(stream(5), 1, N), stream(6), None)
    assert taken and min(taken) > 0.0


@pytest.mark.parametrize("key", [(731, 9), ((731, 9, 0),), (2**32,), (0, 1), (9, 0, 0),
                                 (9,), (9, 0, 0, 1), (2**40,), (7, (3, 2**63 - 1))])
def test_stream_matches_explicit_philox_key(key):
    # Philox seeded by a SeedSequence derives the key that SeedSequence's
    # generate_state(2, uint64) gives, with counter and buffer at zero.
    entropy = []
    for part in key:
        entropy.extend(part if isinstance(part, tuple) else [part])
    entropy = [int(v) & ((1 << 63) - 1) for v in entropy]
    explicit = np.random.Philox(key=np.random.SeedSequence(entropy).generate_state(2, np.uint64))
    got = stream(*key).bit_generator
    assert got.state["state"]["key"].tolist() == explicit.state["state"]["key"].tolist()
    assert got.state["state"]["counter"].tolist() == explicit.state["state"]["counter"].tolist()
    assert got.random_raw(16).tolist() == explicit.random_raw(16).tolist()


def test_stream_aliases_and_bridge_key(monkeypatch):
    # SeedSequence zero-pads entropy shorter than 4 words and splits integers
    # into 32-bit words, so these keys alias (see `stream`).  The first is live:
    # joint-normality's test vectors and trial 9's matrix share a stream.
    def raw(g):
        return g.bit_generator.random_raw(4).tolist()

    assert raw(stream(731, 9)) == raw(stream((731, 9, 0)))
    assert raw(stream(2**32)) == raw(stream(0, 1))
    assert raw(stream(9, 0, 0)) == raw(stream(9))
    # The bridge stream of path 0 at step 0 (gap 0.01 <= 10 h N = 0.03 at the
    # start) must be neither the macro noise stream nor any zero-padded key.
    keys, refine = [], flow._refine

    def spy(lam, U, h, S, rng, trail):
        keys.append(rng.bit_generator.state["state"]["key"].tolist())
        return refine(lam, U, h, S, rng, trail)

    monkeypatch.setattr(flow, "_refine", spy)
    dec = spx.SpectralDecomposition(np.array([0.0, 0.01, 1.0]), np.eye(3))
    flow.integrate_see(dec, 1e-3, 1e-3, seed=9)
    macro = stream(9).bit_generator.state["state"]["key"].tolist()
    assert keys and keys[0] != macro
    assert keys[0] == stream(9, 0, 0, 1).bit_generator.state["state"]["key"].tolist()


def test_refinement_floor_raises(monkeypatch):
    # A step the rule never accepts is split down to 1e-15, then raises; the
    # ensemble leaves no thread behind.
    monkeypatch.setattr(flow, "_rejected", lambda lam, lam_new, h: np.ones(lam.shape[1], bool))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="refined below"):
        flow.integrate_see(spx.eig_sym(ens.sample_goe(5, 3)), 1e-3, 1e-4, seed=1)
    with pytest.raises(RuntimeError, match="refined below"):
        flow.see_endpoint_ensemble(np.linspace(-1.0, 1.0, 5), np.eye(5), 1e-3, 1e-4, 8, seed=1)
    assert threading.active_count() == threads


def test_endpoint_law_matches_direct_perturbation():
    # Distributional identity: SDE endpoint eigenvalues vs eig(H + sqrt(t) GOE).
    N, t, dt, trials = 8, 0.02, 5e-4, 2000
    lam0 = np.linspace(-1.0, 1.0, N)
    lamT, _ = flow.see_endpoint_ensemble(lam0, np.eye(N), t, dt, trials, seed=9)
    direct = np.empty((trials, N))
    H0 = np.diag(lam0)
    for k in range(trials):
        direct[k] = np.linalg.eigvalsh(ens.perturb_gaussian(H0, t, (17, k)))
    ks = ks_2samp(lamT[:, N // 2], direct[:, N // 2]).statistic
    assert ks <= 0.05


def test_endpoint_ensemble_warns_on_refinement(caplog):
    # At the endpoint-law parameters 65 of 2000 paths refine, over 191 path-steps;
    # at generator-validate's (N = 5, t = 1e-3, dt = 1e-5, seed (0, 3)) none does.
    with caplog.at_level("WARNING", logger="momentflow.flow"):
        flow.see_endpoint_ensemble(np.linspace(-1.0, 1.0, 8), np.eye(8), 0.02, 5e-4, 2000,
                                   seed=9)
        assert "refined 191 of 80000 path-steps" in caplog.text
        caplog.clear()
        flow.see_endpoint_ensemble(np.linspace(-1.0, 1.0, 5), np.eye(5), 1e-3, 1e-5, 2000,
                                   seed=(0, 3))
    assert "refined" not in caplog.text


def test_generator_consistency_finite_difference():
    # The central derivation at reduced path count (acceptance runs 1e5).
    N, delta, dt, paths = 5, 1e-3, 2e-5, 30_000
    lam0 = np.linspace(-1.0, 1.0, N)
    rng = stream(42, 2)
    v1 = rng.standard_normal(N)
    v1 /= np.linalg.norm(v1)
    v2 = rng.standard_normal(N)
    v2 /= np.linalg.norm(v2)
    space = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.from_eigenvalues(lam0)
    B = cs.assemble_generator(space, sched.coefficients())
    f0 = np.array([N * v1[x[0]] * v2[x[0]] for x in space.configs])
    exact = B.mat @ f0
    lamT, UT = flow.see_endpoint_ensemble(lam0, np.eye(N), delta, dt, paths, (99, 1))
    ov1 = np.einsum("bji,j->bi", UT, v1)
    ov2 = np.einsum("bji,j->bi", UT, v2)
    obs = N * ov1 * ov2
    fd = (obs.mean(axis=0) - f0) / delta
    se = obs.std(axis=0, ddof=1) / math.sqrt(paths) / delta
    for ix, x in enumerate(space.configs):
        assert abs(fd[x[0]] - exact[ix]) <= 3.0 * se[x[0]]


def test_generator_matches_direct_perturbation_n4():
    # B f_0 against (E f_delta - f_0) / delta on all 65 configurations of
    # Lambda^4_5, with f = N^{n/2} pi^{-1/2} prod_a <u_{x_a}, v_a> over the
    # eigenvectors of diag(lam0) + sqrt(delta) GOE: the SEE's law at time
    # delta with no Euler error.  At n = 4 the exchange part, and so the sign
    # of "move minus exchange", is live; on Lambda^2 it is empty.  The band
    # |z| <= 4.1 is Bonferroni over the 65 comparisons at the family-wise
    # level of one 3-stderr check.
    N, n, delta, samples = 5, 4, 1e-3, 100_000
    lam0 = np.linspace(-1.0, 1.0, N)
    V = stream(61).standard_normal((N, n))
    V /= np.linalg.norm(V, axis=0)
    G = stream(62).standard_normal((samples, N, N))
    H = np.diag(lam0) + math.sqrt(delta / (2.0 * N)) * (G + G.transpose(0, 2, 1))
    overlaps = np.linalg.eigh(H)[1].transpose(0, 2, 1) @ V  # [s, k, a] = <u_k, v_a>
    space = cs.enumerate_space(N, n)
    B = cs.assemble_generator(space, rx.CoefficientSchedule.from_eigenvalues(lam0).coefficients())
    scale = N ** (n / 2.0) / np.sqrt(space.pi)
    f0 = scale * np.prod(V[space.configs, np.arange(n)], axis=1)
    drift = B.mat @ f0
    z = np.empty(space.size)
    for c, x in enumerate(space.configs):
        f = scale[c] * np.prod(overlaps[:, x, np.arange(n)], axis=1)
        se = f.std(ddof=1) / math.sqrt(samples) / delta
        z[c] = ((f.mean() - f0[c]) / delta - drift[c]) / se
    assert np.max(np.abs(z)) <= 4.1, np.max(np.abs(z))


def _unit_pair(N, seed):
    rng = stream(seed)
    v = rng.standard_normal(N)
    v /= np.linalg.norm(v)
    w = rng.standard_normal(N)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    return v, w


def test_moment_orthogonal_directions_vanish():
    N = 60
    v, w = _unit_pair(N, 20)
    req = flow.MomentRequest(configuration=(N // 2, N // 2),
                             vectors=np.stack([v, w], axis=1),
                             ensemble=ens.EnsembleSpec(kind="goe", N=N, seed=1),
                             t=0.0, trials=1500, seed=5)
    est, se = flow.estimate_moment(req)
    assert abs(est) <= 3 * se


def test_moment_equal_directions_unit():
    N = 60
    v, _ = _unit_pair(N, 21)
    req = flow.MomentRequest(configuration=(N // 2, N // 2),
                             vectors=np.stack([v, v], axis=1),
                             ensemble=ens.EnsembleSpec(kind="goe", N=N, seed=1),
                             t=0.0, trials=1500, seed=6)
    est, se = flow.estimate_moment(req)
    assert abs(est - 1.0) <= 3 * se


def test_moment_fourth_haar():
    # pi^{-1/2} N^2 E<u,v>^4 -> 3/sqrt(9) = 1 (reduced trials; acceptance runs 1e4)
    N = 200
    rng = stream(22)
    v = rng.standard_normal(N)
    v /= np.linalg.norm(v)
    req = flow.MomentRequest(configuration=(N // 2,) * 4,
                             vectors=np.stack([v] * 4, axis=1),
                             ensemble=ens.EnsembleSpec(kind="goe", N=N, seed=2),
                             t=0.0, trials=800, seed=7)
    est, se = flow.estimate_moment(req)
    assert abs(est - 1.0) <= 3 * se


def test_moment_rejects_odd_configuration():
    req = flow.MomentRequest(configuration=(1, 2),
                             vectors=np.stack([np.eye(4)[0], np.eye(4)[1]], axis=1),
                             ensemble=ens.EnsembleSpec(kind="goe", N=4, seed=1),
                             t=0.0, trials=10, seed=1)
    with pytest.raises(ValueError, match="sign symmetry"):
        flow.estimate_moment(req)


def test_moment_sign_flip_invariance(monkeypatch):
    # Flipping eigenvector signs leaves every even-occupancy moment bit-identical.
    N = 30
    x = (10, 10, 12, 12)
    rng = stream(23)
    V = np.stack([rng.standard_normal(N) for _ in range(4)], axis=1)
    V /= np.linalg.norm(V, axis=0)
    req = flow.MomentRequest(configuration=x, vectors=V,
                             ensemble=ens.EnsembleSpec(kind="goe", N=N, seed=9),
                             t=0.0, trials=8, seed=4)
    values = flow.moment_samples(req)
    solve = flow.eig_sym

    def flipped(H, subset=None):
        dec = solve(H, subset=subset)
        signs = np.array([(-1) ** k for k in range(dec.frame.shape[1])])
        return spx.SpectralDecomposition(dec.eigenvalues, dec.frame * signs[None, :])

    monkeypatch.setattr(flow, "eig_sym", flipped)
    assert np.array_equal(flow.moment_samples(req), values)


@pytest.mark.parametrize("x, t", [((15, 15), 0.0), ((12, 12, 17, 17), 0.5)])
def test_moment_samples_match_full_solve(x, t):
    # Reference: a full eigensolve per trial and N = dim H in N^{n/2}.
    N, n, trials = 30, len(x), 6
    rng = stream(26)
    V = np.stack([rng.standard_normal(N) for _ in range(n)], axis=1)
    V /= np.linalg.norm(V, axis=0)
    spec = ens.EnsembleSpec(kind="goe", N=N, seed=6)
    req = flow.MomentRequest(configuration=x, vectors=V, ensemble=spec, t=t,
                             trials=trials, seed=13)
    pi_root = math.sqrt(cs.pi_weight(x, N))
    expected = []
    for k in range(trials):
        H = ens.sample_ensemble(spec, seed=(13, k, 0))
        if t > 0:
            H = ens.perturb_gaussian(H, t, (13, k, 1))
        U = spx.eig_sym(H).frame
        overlaps = [U[:, i] @ V[:, a] for a, i in enumerate(x)]
        expected.append(N ** (n / 2.0) * np.prod(overlaps) / pi_root)
    assert np.max(np.abs(flow.moment_samples(req) - expected)) <= 1e-12


def test_moment_threads_deterministic():
    N = 30
    v, w = _unit_pair(N, 24)
    req = flow.MomentRequest(configuration=(N // 2, N // 2),
                             vectors=np.stack([v, w], axis=1),
                             ensemble=ens.EnsembleSpec(kind="goe", N=N, seed=3),
                             t=0.5, trials=64, seed=8)
    a = flow.moment_samples(req, threads=1)
    b = flow.moment_samples(req, threads=4)
    assert np.array_equal(a, b)
    checks = []
    for threads in (1, 2):
        cfg = ExperimentConfig(kind="joint-normality", seed=8, trials=64, threads=threads,
                               ensemble=ens.EnsembleSpec(kind="goe", N=N, seed=8))
        checks.append([(c.name, c.value, c.tol) for c in run_experiment(cfg).checks])
    assert checks[0] == checks[1]
