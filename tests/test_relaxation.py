"""Propagation, Dirichlet forms, and the relaxation inequalities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import eigh_tridiagonal, expm

from momentflow import configspace as cs
from momentflow import relaxation as rx
from momentflow._rng import stream


def operator_norm_2inf(space, mat):
    """Exact L2 -> Linf norm: max over rows of the pi-weighted row norm."""
    A = np.asarray(mat)
    return float(np.sqrt(np.max(np.sum(A**2 / space.pi[None, :], axis=1))))


def dense_uc_norm(space, eig, K, s):
    """||(1 - K) e^{sB}||_{2,inf} by a row scan of the dense matrix.

    (1 - K) multiplies Pi^{-1/2} Q before the exponentials: e^{sB} keeps an
    O(1) kernel part, and subtracting K e^{sB} after the fact leaves rounding
    of order eps ||e^{sB}||, 1.5e-13 of the norm on Lambda^4_6 at s = 5.
    """
    w, Q, half = eig
    A = ((np.eye(space.size) - K) @ (Q / half[:, None])) * np.exp(s * w) @ (Q.T * half)
    return operator_norm_2inf(space, A)


def eig_apply(eig, F, s):
    """e^{sA} F = Pi^{-1/2} Q e^{s w} Q^T Pi^{1/2} F for eig = (w, Q, half),
    the dense oracle for the Lanczos propagator.

    F is a vector, or a matrix whose columns are each applied; results come
    back as rows, so a matrix gives (e^{sA} F)^T.  For a vector, s may be an
    array of times, one row each.
    """
    w, Q, half = eig
    g = (F.T * half) @ Q
    return (np.exp(np.multiply.outer(s, w)) * g) @ Q.T / half


def random_schedule(N, seed, upsilon=None):
    rng = stream(seed)
    C = rng.uniform(0.1, 1.0, (N, N))
    C = 0.5 * (C + C.T)
    np.fill_diagonal(C, 0.0)
    return rx.CoefficientSchedule.constant(C, upsilon=upsilon)


def test_propagate_identity_and_snapshots():
    sp = cs.enumerate_space(6, 2)
    sched = rx.CoefficientSchedule.inverse_square(6, 1.0)
    f0 = stream(1).standard_normal(sp.size)
    res = rx.propagate(sp, sched, f0, 0.3, 0.3)
    assert res.times.tolist() == [0.3]
    assert np.array_equal(res.snapshots[0], f0)
    res2 = rx.propagate(sp, sched, f0, 0.0, 0.5, steps=10)
    assert np.array_equal(res2.snapshots[0], f0)
    assert len(res2.times) == 11


def test_propagate_kernel_invariance():
    sp = cs.enumerate_space(6, 4)
    X = cs.chi_matrix(sp)
    chi = X[:, 2]
    for sched in (rx.CoefficientSchedule.inverse_square(6, 1.0),
                  random_schedule(6, 2)):
        res = rx.propagate(sp, sched, chi, 0.0, 0.7, steps=8)
        assert np.max(np.abs(res.snapshots - chi[None, :])) <= 1e-9


def test_propagate_l1_bound_delta():
    sp = cs.enumerate_space(6, 4)
    bound = len(cs.matchings(4))
    rng = stream(3)
    for k in range(10):
        sched = random_schedule(6, (4, k))
        x = sp.configs[int(rng.integers(sp.size))]
        s = float(rng.uniform(0.0, 1.0))
        res = rx.propagate(sp, sched, sp.delta(x), 0.0, s, steps=4)
        for f in res.snapshots:
            assert sp.norm_l1(f) <= bound + 1e-9


@pytest.mark.parametrize("N, n", [(6, 4), (10, 2)])
def test_propagate_constant_matches_expm(N, n):
    sp = cs.enumerate_space(N, n)
    sched = random_schedule(N, (7, N, n))
    B = cs.assemble_generator(sp, sched.coefficients()).dense()
    f0 = stream(8, N, n).standard_normal(sp.size)
    res = rx.propagate(sp, sched, f0, 0.1, 0.6, steps=5)
    assert np.array_equal(res.snapshots[0], f0)
    for s, f in zip(res.times, res.snapshots):
        exact = expm((s - 0.1) * B) @ f0
        assert np.max(np.abs(f - exact)) <= 1e-12 * np.max(np.abs(exact))


@pytest.mark.parametrize("N, n", [(6, 4), (10, 2), (8, 4)])
@pytest.mark.parametrize("scaled_time", [0.25, 2, 8, 32, 128])
def test_lanczos_apply_matches_eig_oracle(N, n, scaled_time):
    # One basis serves several snapshot times, up to tau = scaled_time / ||B||_inf,
    # each within the certified LANCZOS_TOL ||f||_pi of the dense oracle.
    sp = cs.enumerate_space(N, n)
    op = cs.assemble_generator(sp, random_schedule(N, (21, N, n)).coefficients())
    eig = rx._symmetrized_eig(sp, op)
    times = scaled_time / rx._inf_norm(op) * np.array([0.0, 0.01, 0.3, 0.75, 1.0])
    rng = stream(22, N, n)
    for f in (rng.standard_normal(sp.size), sp.delta(sp.configs[int(rng.integers(sp.size))])):
        got = rx._lanczos_apply(sp, op, f, times)
        want = eig_apply(eig, f, times)
        assert max(sp.norm_l2(g - w) for g, w in zip(got, want)) <= rx.LANCZOS_TOL * sp.norm_l2(f)


def test_lanczos_steps_meet_the_a_priori_bound():
    # Hochbruck-Lubich's bound at the returned m is <= LANCZOS_TOL and at m - 1
    # above it; rho tau = 8 (s ||B||_inf = 32) needs 39 steps.
    def bound(m, x):
        if math.sqrt(4 * x) <= m <= 2 * x:
            return 10 * math.exp(-m * m / (5 * x))
        if m >= 2 * x:
            return 10 / x * math.exp(-x) * (math.e * x / m) ** m
        return math.inf
    for x in (1e-3, 0.0625, 0.5, 2.0, 8.0, 32.0, 100.0):
        m = rx._lanczos_steps(x)
        assert bound(m, x) <= rx.LANCZOS_TOL < bound(m - 1, x), x
    assert rx._lanczos_steps(8.0) == 39
    assert rx._lanczos_steps(0.0) == 1


def test_lanczos_apply_zero_and_kernel_data(monkeypatch):
    sp = cs.enumerate_space(6, 4)
    op = cs.assemble_generator(sp, random_schedule(6, 23).coefficients())
    times = np.array([0.1, 0.5, 2.0])
    assert np.array_equal(rx._lanczos_apply(sp, op, np.zeros(sp.size), times),
                          np.zeros((3, sp.size)))
    # chi_sigma spans an invariant subspace (B chi = 0): Lanczos stops after
    # one step and every snapshot is chi_sigma.
    sizes = []

    def spy(d, e):
        sizes.append(len(d))
        return eigh_tridiagonal(d, e)

    monkeypatch.setattr(rx, "eigh_tridiagonal", spy)
    chi = cs.chi_matrix(sp)[:, 1]
    got = rx._lanczos_apply(sp, op, chi, times)
    assert sizes == [1]
    assert np.max(np.abs(got - chi)) <= 1e-14


def test_lanczos_apply_checks(monkeypatch):
    sp = cs.enumerate_space(6, 4)
    op = cs.assemble_generator(sp, random_schedule(6, 24).coefficients())
    f = stream(25).standard_normal(sp.size)
    times = np.array([0.5, 1.0])
    # -B breaks the spectrum assumption: its Ritz values are positive.
    with pytest.raises(RuntimeError, match="Ritz value"):
        rx._lanczos_apply(sp, cs.WeightedOperator(sp, -op.mat, is_pi_self_adjoint=True), f, times)
    # Too few steps for the time span: the a-posteriori estimate refuses it.
    monkeypatch.setattr(rx, "_lanczos_steps", lambda rho_tau: 3)
    with pytest.raises(RuntimeError, match="a-posteriori"):
        rx._lanczos_apply(sp, op, f, times)


def test_propagate_constant_never_densifies(monkeypatch):
    # Lambda^4_27 (2133 configurations): the constant branch runs on the CSR
    # generator alone and conserves the pi-mass sum pi f, since B 1 = 0.
    sp = cs.enumerate_space(27, 4)
    sched = random_schedule(27, 26)
    monkeypatch.setattr(cs.WeightedOperator, "dense",
                        lambda self: pytest.fail("constant propagate densified B"))
    f0 = sp.delta(sp.configs[100])
    res = rx.propagate(sp, sched, f0, 0.0, 0.05, steps=3)
    mass = res.snapshots @ sp.pi
    assert np.max(np.abs(mass - mass[0])) <= 1e-12
    assert sp.norm_l1(res.final) <= len(cs.matchings(4)) + 1e-9


def test_propagate_time_dependent_matches_constant():
    sp = cs.enumerate_space(5, 2)
    C = random_schedule(5, 5).coefficients()
    const = rx.CoefficientSchedule.constant(C)
    varying = rx.CoefficientSchedule.from_function(lambda s: C, N=5)
    f0 = stream(6).standard_normal(sp.size)
    a = rx.propagate(sp, const, f0, 0.0, 0.2, steps=8).final
    steps = max(64, rx._stable_steps(sp, varying, 0.0, 0.2))
    b = rx.propagate(sp, varying, f0, 0.0, 0.2, steps=steps).final
    assert np.max(np.abs(a - b)) <= 1e-8


def test_propagate_stability_guard():
    sp = cs.enumerate_space(5, 2)
    varying = rx.CoefficientSchedule.from_function(
        lambda s: rx.CoefficientSchedule.inverse_square(5, 1.0).coefficients(), N=5)
    with pytest.raises(ValueError, match="stability"):
        rx.propagate(sp, varying, np.ones(sp.size), 0.0, 5.0, steps=2)


def test_propagate_stage_guard_catches_midpoint_spike():
    # One step from 0 to T has stages at 0, T/2 and T; the norm spikes only at
    # T/2, so the check at s1 and s2 passes and the stage guard must catch it.
    sp = cs.enumerate_space(5, 2)
    C = random_schedule(5, 15).coefficients()
    T = 1e-3
    calm = rx.CoefficientSchedule.from_function(lambda s: C, N=5)
    spike = rx.CoefficientSchedule.from_function(
        lambda s: 1e4 * C if 0.25 * T < s < 0.75 * T else C, N=5)
    rx.propagate(sp, calm, np.ones(sp.size), 0.0, T, steps=1)
    with pytest.raises(ValueError, match="stability bound violated at stage time 0.0005"):
        rx.propagate(sp, spike, np.ones(sp.size), 0.0, T, steps=1)


def test_pairing_preserved_along_propagation():
    sp = cs.enumerate_space(6, 4)
    sched = random_schedule(6, 7)
    X = cs.chi_matrix(sp)
    f0 = stream(8).standard_normal(sp.size)
    res = rx.propagate(sp, sched, f0, 0.0, 0.5, steps=6)
    before = [sp.inner(X[:, k], f0) for k in range(X.shape[1])]
    after = [sp.inner(X[:, k], res.final) for k in range(X.shape[1])]
    assert np.allclose(before, after, atol=1e-9)


def dirichlet_form_pairs(space, generator, f):
    """Oracle for the Dirichlet form through the difference representation
    (1/2) sum_{x != y} pi(x) pi(y) B_xy (f(x) - f(y))^2."""
    A = generator.dense()
    f = np.asarray(f, dtype=float)
    diff = f[:, None] - f[None, :]
    off = A - np.diag(np.diag(A))
    return 0.5 * float(np.sum(space.pi[:, None] * off * diff**2))


def test_dirichlet_form_values():
    sp = cs.enumerate_space(2, 2)
    B = cs.assemble_generator(sp, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert rx.dirichlet_form(sp, B, np.array([1.0, 0.0])) == pytest.approx(2.0)
    assert rx.dirichlet_form(sp, B, np.ones(2)) == pytest.approx(0.0)
    sp4 = cs.enumerate_space(5, 4)
    B4 = cs.assemble_generator(sp4, random_schedule(5, 9).coefficients())
    rng = stream(10)
    for _ in range(100):
        f = rng.standard_normal(sp4.size)
        D = rx.dirichlet_form(sp4, B4, f)
        assert D >= -1e-10
        assert abs(D - dirichlet_form_pairs(sp4, B4, f)) <= 1e-10 * max(1.0, D)


def test_l2_derivative_is_dirichlet():
    sp = cs.enumerate_space(6, 2)
    sched = rx.CoefficientSchedule.inverse_square(6, 1.0)
    B = cs.assemble_generator(sp, sched.coefficients())
    f0 = stream(11).standard_normal(sp.size)
    res = rx.propagate(sp, sched, f0, 0.0, 0.2, steps=400)
    k = 200
    h = res.times[1] - res.times[0]
    dfdt = (sp.norm_l2(res.snapshots[k + 1]) ** 2
            - sp.norm_l2(res.snapshots[k - 1]) ** 2) / (2 * h)
    D = rx.dirichlet_form(sp, B, res.snapshots[k])
    assert abs(dfdt + 2 * D) <= 1e-3 * max(1.0, abs(D))


def test_short_range_degenerate_cutoff():
    sp = cs.enumerate_space(6, 4)
    full = rx.CoefficientSchedule.inverse_square(6, 1.0)
    short = full.short_range(6, np.arange(6))
    f0 = stream(12).standard_normal(sp.size)
    a = rx.propagate(sp, full, f0, 0.0, 0.4, steps=4).final
    b = rx.propagate(sp, short, f0, 0.0, 0.4, steps=4).final
    assert np.max(np.abs(a - b)) <= 1e-10


def test_duhamel_identity():
    # U - U_S equals the integrated commuted difference on a small instance.
    sp = cs.enumerate_space(8, 2)
    base = rx.CoefficientSchedule.inverse_square(8, 1.0)
    short = base.short_range(2, np.arange(8))
    A_full = cs.assemble_generator(sp, base.coefficients()).dense()
    A_short = cs.assemble_generator(sp, short.coefficients()).dense()
    w, Q, half = rx._symmetrized_eig(sp, cs.assemble_generator(sp, base.coefficients()))
    ws, Qs, _ = rx._symmetrized_eig(sp, cs.assemble_generator(sp, short.coefficients()))

    def U_full(s):
        return (Q * np.exp(s * w)) @ Q.T * (half[None, :] / half[:, None])

    def U_short(s):
        return (Qs * np.exp(s * ws)) @ Qs.T * (half[None, :] / half[:, None])

    s2 = 0.15
    target = U_full(s2) - U_short(s2)
    integral, _ = quad_vec(lambda s: U_full(s2 - s) @ (A_full - A_short) @ U_short(s),
                           0.0, s2, epsabs=1e-12, epsrel=1e-12)
    assert np.max(np.abs(target - integral)) <= 1e-9


def test_poincare_scaling_and_invariances():
    N = 2 * 32 + 17
    sp = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.inverse_square(N, upsilon=1.0)
    y = (N // 2, N // 2)
    consts = {ell: rx.poincare_constant(sp, y, ell, sched) for ell in (8, 16, 32)}
    ratios = [consts[ell] / ell for ell in (8, 16, 32)]
    assert max(ratios) / min(ratios) <= 4.0
    assert rx.poincare_constant(sp, y, 1, sched) == 0.0
    doubled = rx.CoefficientSchedule.inverse_square(N, upsilon=2.0)
    assert rx.poincare_constant(sp, y, 16, doubled) == pytest.approx(
        consts[16] / 2.0)


def test_poincare_quotient_invariance():
    # the deviation/energy ratio is unchanged by adding kernel elements
    N = 20
    sp = cs.enumerate_space(N, 2)
    sched = rx.CoefficientSchedule.inverse_square(N, upsilon=1.0)
    y = (10, 10)
    ell = 5
    loc = cs.local_neighborhood(sp, y, ell)
    P = cs.local_projection(sp, y, ell).dense()
    classes = cs.site_classes(N, y, ell)
    C = sched.coefficients().copy()
    C[classes[:, None] != classes[None, :]] = 0.0
    B = cs.assemble_generator(sp, C)
    rng = stream(13)
    f = np.zeros(sp.size)
    f[loc] = rng.standard_normal(loc.size)
    chi = np.zeros(sp.size)
    chi[loc] = cs.chi_matrix(sp)[loc, 0]
    for g in (f, f + 3.0 * chi):
        dev = float(np.sum(sp.pi[loc] * ((g - P @ g)[loc]) ** 2))
        en = rx.dirichlet_form(sp, B, g)
        if g is f:
            base = dev / en
        else:
            assert dev / en == pytest.approx(base, rel=1e-9)


def test_nash_ratio_cases():
    sp = cs.enumerate_space(10, 4)
    sched = rx.CoefficientSchedule.inverse_square(10, upsilon=1.0)
    K = cs.kernel_projection(sp)
    chi = cs.chi_matrix(sp)[:, 0]
    assert rx.nash_ratio(sp, sched, chi, kernel_op=K) == 0.0
    val = rx.nash_ratio(sp, sched, sp.delta(sp.configs[0]), kernel_op=K)
    assert 0.0 < val < 50.0
    rng = stream(14)
    worst = max(rx.nash_ratio(sp, sched, rng.standard_normal(sp.size), kernel_op=K)
                for _ in range(300))
    assert worst <= 50.0


def test_ultracontractivity_curve():
    sp = cs.enumerate_space(10, 4)
    sched = rx.CoefficientSchedule.inverse_square(10, upsilon=1.0)
    K = cs.kernel_projection(sp)
    grid = np.geomspace(0.2, 0.5, 8)
    curve = rx.ultracontractivity_curve(sp, sched, grid, kernel_op=K)
    assert curve.slope(0.2, 0.5) <= -0.7
    assert curve.envelope_defect() <= 1e-10
    # s -> 0 continuity
    lim = operator_norm_2inf(sp, np.eye(sp.size) - K.dense())
    tiny = rx.ultracontractivity_curve(sp, sched, [1e-9], kernel_op=K).norms[0]
    assert abs(tiny - lim) <= 1e-6
    # quadrupling coefficients rescales time exactly
    s4 = rx.CoefficientSchedule.constant(4.0 * sched.coefficients(), upsilon=4.0)
    a = rx.ultracontractivity_curve(sp, sched, [0.4], kernel_op=K).norms[0]
    b = rx.ultracontractivity_curve(sp, s4, [0.1], kernel_op=K).norms[0]
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("N, n", [(6, 4), (10, 4), (12, 2)])
@pytest.mark.parametrize("kernel", ["default", "projection", "arbitrary"])
def test_ultracontractivity_curve_matches_dense_oracle(N, n, kernel):
    sp = cs.enumerate_space(N, n)
    sched = rx.CoefficientSchedule.inverse_square(N, upsilon=1.0)
    eig = rx._symmetrized_eig(sp, cs.assemble_generator(sp, sched.coefficients()))
    op = {"default": None,
          "projection": cs.kernel_projection(sp),
          # The identity needs only Q^T Q = I, so any operator in K's place works.
          "arbitrary": cs.WeightedOperator(sp, stream(3).standard_normal((sp.size, sp.size))),
          }[kernel]
    K = (op if op is not None else cs.kernel_projection(sp)).dense()
    grid = np.concatenate([[0.0, 1e-9], np.geomspace(2.0 / N, 0.5, 6), [1.0, 5.0]])
    curve = rx.ultracontractivity_curve(sp, sched, grid, kernel_op=op)
    want = np.array([dense_uc_norm(sp, eig, K, s) for s in grid])
    np.testing.assert_allclose(curve.norms, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("grid", [[-0.1], [0.2, -1e-12], [np.nan], [0.2, np.inf]])
def test_ultracontractivity_curve_rejects_negative_or_nonfinite_time(grid):
    # A negative time would evaluate the inverse semigroup.
    sp = cs.enumerate_space(6, 4)
    sched = rx.CoefficientSchedule.inverse_square(6, upsilon=1.0)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        rx.ultracontractivity_curve(sp, sched, grid)


def test_fsp_profile_bounds():
    N, ell, window, sched = _fsp_setup()
    sp = cs.enumerate_space(N, 2)
    profile = rx.fsp_profile(sp, sched, (N // 2, N // 2), ell, window, 0.0, ell / N)
    assert profile.max_at_or_beyond(4 * ell) <= 1e-6
    env = profile.binned_envelope()
    assert env[0][0] == 0 and 0.01 <= env[0][1] <= 3.0
    rises = [b - a for (_, a), (_, b) in zip(env, env[1:])]
    assert max(rises) <= 1e-9
    with pytest.raises(ValueError, match="window"):
        rx.fsp_profile(sp, sched, (N // 2, N // 2), ell, window, 0.0, 1.0)


def _fsp_setup():
    from momentflow.harness import zero_reference
    from momentflow import spectral as spx

    N, ell = 40, 4
    prof = spx.FreeConvolutionProfile(zero_reference(N), 1.0)
    gamma = spx.classical_locations(prof)
    window = np.flatnonzero(np.abs(gamma) <= 1.8)
    return N, ell, window, rx.CoefficientSchedule.from_eigenvalues(gamma)


@pytest.mark.parametrize("kind", ["l1_growth", "fsp_profile"])
def test_time_dependent_constant_schedule_matches_exact(kind):
    if kind == "l1_growth":
        sp = cs.enumerate_space(6, 4)
        const = rx.CoefficientSchedule.inverse_square(6, 1.0)
        C = const.coefficients()
        varying = rx.CoefficientSchedule.from_function(lambda s: C, N=6)
        grid = [0.0, 0.2, 0.6, 1.0]
        a = np.array(rx.l1_growth(sp, const, grid))
        b = np.array(rx.l1_growth(sp, varying, grid))
    else:
        N, ell, window, const = _fsp_setup()
        C = const.coefficients()
        varying = rx.CoefficientSchedule.from_function(lambda s: C, N=N)
        sp = cs.enumerate_space(N, 2)
        y = (N // 2, N // 2)
        a = rx.fsp_profile(sp, const, y, ell, window, 0.0, ell / N).values
        b = rx.fsp_profile(sp, varying, y, ell, window, 0.0, ell / N).values
    assert np.max(np.abs(a - b)) <= 1e-7


@pytest.mark.parametrize("time_dependent", [False, True])
@pytest.mark.parametrize("grid", [[0.5, 0.2], [-0.1, 0.2]])
def test_l1_growth_rejects_unordered_or_negative_grid(time_dependent, grid):
    # A time-dependent march cannot go back in time, so an unordered grid
    # would report the norm of an earlier, larger point.
    sp = cs.enumerate_space(6, 4)
    sched = rx.CoefficientSchedule.inverse_square(6, 1.0)
    if time_dependent:
        C = sched.coefficients()
        sched = rx.CoefficientSchedule.from_function(lambda s: C, N=6)
    with pytest.raises(ValueError, match="nondecreasing"):
        rx.l1_growth(sp, sched, grid)


@pytest.mark.parametrize("N", [6, 8, 10])
def test_l1_growth_constant_matches_two_product_formula(N):
    # The reference forms (e^{sB})^T through eig_apply on the identity.
    sp = cs.enumerate_space(N, 4)
    sched = rx.CoefficientSchedule.inverse_square(N, 1.0)
    eig = rx._symmetrized_eig(sp, cs.assemble_generator(sp, sched.coefficients()))
    grid = [0.0, 0.05, 0.2, 0.6, 1.0, 3.0]
    eye = np.eye(sp.size)
    want = [(s, rx.operator_norm_11(sp, eig_apply(eig, eye, s).T)) for s in grid]
    assert np.array_equal(rx.l1_growth(sp, sched, grid), want)


def test_l1_growth_curve():
    sp = cs.enumerate_space(6, 4)
    sched = rx.CoefficientSchedule.inverse_square(6, 1.0)
    tab = rx.l1_growth(sp, sched, [0.0, 0.2, 0.6, 1.0])
    assert tab[0][1] == pytest.approx(1.0)
    bound = len(cs.matchings(4))
    for _, v in tab:
        assert v <= bound + 1e-9
    # move-only semigroup is stochastic: norm exactly 1
    mv = cs.assemble_generator(sp, sched.coefficients(), part="move-only")
    w, Q, half = rx._symmetrized_eig(sp, mv)
    for s in (0.1, 0.5, 1.0):
        U = (Q * np.exp(s * w)) @ Q.T * (half[None, :] / half[:, None])
        assert rx.operator_norm_11(sp, U) == pytest.approx(1.0, abs=1e-9)
