"""Spectral module: eigensolve conventions, resolvent forms, free convolution."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from momentflow import ansatz as az
from momentflow import ensembles as ens
from momentflow import flow
from momentflow import spectral as spx
from momentflow._rng import stream


def zero_dec(N):
    return spx.SpectralDecomposition(np.zeros(N), np.eye(N))


def unit(rng, N):
    v = rng.standard_normal(N)
    return v / np.linalg.norm(v)


def test_eig_sym_diagonal():
    dec = spx.eig_sym(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])
    # frame is a signed permutation, and the sign convention makes it exact
    assert np.allclose(np.abs(dec.frame), np.eye(3)[:, [1, 2, 0]])
    assert np.all(dec.frame.max(axis=0) == 1.0)


def test_eig_sym_two_by_two():
    dec = spx.eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(dec.frame), s)
    # largest-magnitude coordinate positive in each column
    assert np.all(dec.frame[np.argmax(np.abs(dec.frame), axis=0), [0, 1]] > 0)


def test_eig_sym_reconstruction():
    H = ens.sample_goe(50, 5)
    dec = spx.eig_sym(H)
    recon = (dec.frame * dec.eigenvalues) @ dec.frame.T
    assert np.max(np.abs(recon - H)) <= 1e-8 * (1 + np.max(np.abs(H)))


@pytest.mark.parametrize("N", [8, 64, 200])
def test_eig_sym_subset_matches_full(N):
    H = ens.sample_goe(N, (31, N))
    full = spx.eig_sym(H)
    # [N//2, N//2 + 5] is clipped to the spectrum at N = 8.
    for lo, hi in ((0, 0), (N - 1, N - 1), (N // 2, min(N // 2 + 5, N - 1))):
        part = spx.eig_sym(H, subset=(lo, hi))
        assert part.N == N and part.frame.shape == (N, hi - lo + 1)
        assert np.max(np.abs(part.eigenvalues - full.eigenvalues[lo:hi + 1])) <= 1e-12
        assert np.max(np.abs(part.frame - full.frame[:, lo:hi + 1])) <= 1e-12
    with pytest.raises(ValueError, match="subset"):
        spx.eig_sym(H, subset=(N // 2, N))


@pytest.mark.parametrize("defect, message", [("column", "orthonormal"),
                                             ("eigenvalue", "residual")])
def test_eig_sym_subset_certifies_returned_columns(monkeypatch, defect, message):
    # A solver result off by 1e-6 in one column, or in one eigenvalue (which
    # leaves the columns orthonormal), must not pass the certificate.
    solve = spx.scipy.linalg.eigh

    def perturbed(*args, **kwargs):
        lam, U = solve(*args, **kwargs)
        lam, U = lam.copy(), U.copy()
        if defect == "column":
            U[0, 2] += 1e-6
        else:
            lam[2] += 1e-6
        return lam, U

    H = ens.sample_goe(64, 41)
    assert spx.eig_sym(H, subset=(30, 35)).frame.shape == (64, 6)
    monkeypatch.setattr(spx.scipy.linalg, "eigh", perturbed)
    with pytest.raises(ValueError, match=message):
        spx.eig_sym(H, subset=(30, 35))


def householder_q(A):
    """Q factors of the batch A (b, N, N) with the diagonal of R made positive."""
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.einsum("bii->bi", R))[:, None, :]


def test_cgs2_matches_householder_and_guards_rank():
    for N in (5, 6, 8):
        A = stream(27, N).standard_normal((50, N, N))
        cols = np.ascontiguousarray(A.transpose(2, 1, 0))  # cols[j, i, b] = A[b, i, j]
        spx._cgs2(cols)
        assert np.max(np.abs(cols.transpose(2, 1, 0) - householder_q(A))) <= 1e-12
    cols = np.ascontiguousarray(A.transpose(2, 1, 0))
    cols[3, :, 7] = 0.0
    with np.errstate(invalid="ignore", divide="ignore"), \
            pytest.raises(RuntimeError, match="orthonormality"):
        spx._cgs2(cols)


def test_cgs2_orthonormal_on_ill_conditioned_batch():
    # Nearly dependent columns (condition numbers up to about 1e11): one
    # Gram-Schmidt pass loses orthogonality in proportion to the condition
    # number, the reorthogonalization restores it to rounding level.
    N, b = 6, 40
    A = stream(28).standard_normal((b, N, N))
    A[:, :, 1] = A[:, :, 0] + np.logspace(-9, -3, b)[:, None] * A[:, :, 1]
    cols = np.ascontiguousarray(A.transpose(2, 1, 0))
    spx._cgs2(cols)
    Q = cols.transpose(2, 1, 0)
    gram = np.einsum("bik,bil->bkl", Q, Q)
    assert np.max(np.abs(gram - np.eye(N))) <= 1e-14


def test_stieltjes_values():
    assert spx.stieltjes(zero_dec(4), 1j) == pytest.approx(1j)
    dec1 = spx.SpectralDecomposition(np.array([2.0]), np.eye(1))
    assert spx.stieltjes(dec1, 2 + 1j) == pytest.approx(1j)
    with pytest.raises(ValueError, match="free convolution"):
        spx.stieltjes(zero_dec(4), 1.0 + 0.0j)


def test_stieltjes_semicircle():
    dec = spx.eig_sym(ens.sample_goe(2000, 11))
    m_sc = (-1j + 1j * math.sqrt(5.0)) / 2.0
    assert abs(spx.stieltjes(dec, 1j) - m_sc) < 0.01


def test_free_convolution_center_value():
    prof = spx.FreeConvolutionProfile(zero_dec(100), 1.0)
    m = spx.free_convolution_m(prof, 0.0)
    assert abs(m - 1j) <= 1e-8
    assert spx.fixed_point_residual(prof, 0.0) <= spx.FIXED_POINT_TOL


def test_free_convolution_small_t_degenerate():
    dec = spx.eig_sym(ens.sample_goe(20, 4))
    prof = spx.FreeConvolutionProfile(dec, 1e-8)
    assert abs(spx.free_convolution_m(prof, 1j) - spx.stieltjes(dec, 1j)) <= 1e-6


def test_free_convolution_real_axis_stall_raises(monkeypatch):
    # No silent restart off the axis: a real-axis solve that cannot reach the
    # tolerance within its iteration cap raises.
    prof = spx.FreeConvolutionProfile(spx.eig_sym(ens.sample_goe(40, 12)), 0.5)
    # The warm start is solved under the full cap, before it is cut.
    m0 = spx._solve_fixed_point(prof, np.array([0.35]))
    monkeypatch.setattr(spx, "FIXED_POINT_CAP", 2)
    with pytest.raises(RuntimeError, match="did not converge"):
        spx.free_convolution_m(prof, 0.3)
    assert not prof._cache
    # A warm start skips the warmup but keeps the Newton stage's cap.  The
    # converged m at 0.35 lies well inside its disc, so the warm stage raises.
    with pytest.raises(RuntimeError, match="did not converge"):
        spx._solve_fixed_point(prof, np.array([0.3]), m0=m0)


def test_free_convolution_residual_grid():
    dec = spx.eig_sym(ens.sample_goe(60, 8))
    prof = spx.FreeConvolutionProfile(dec, 0.5)
    pts = [complex(E, eta) for E in np.linspace(-2, 2, 10)
           for eta in (0.0, 0.01, 0.1, 0.5, 1.0)]
    per_point = np.array([spx.fixed_point_residual(prof, z) for z in pts])
    assert per_point.max() <= spx.FIXED_POINT_TOL
    for z in pts:
        assert spx.free_convolution_m(prof, z).imag >= 0
    # One batched cold solve gives the per-point residuals.
    batched = spx.fixed_point_residual(prof, np.array(pts))
    assert batched.shape == (len(pts),)
    assert np.max(np.abs(batched - per_point)) <= 1e-15
    # A scalar and an array take one path: both reject the lower half plane.
    assert type(spx.fixed_point_residual(prof, pts[0])) is float
    for z in (0.3 - 0.1j, np.array([0.3 - 0.1j]), np.array([0.3 + 0.1j, 0.3 - 0.1j])):
        with pytest.raises(ValueError, match="eta >= 0"):
            spx.fixed_point_residual(prof, z)


def test_fixed_point_chunking_is_bitwise(monkeypatch):
    # Every point iterates on its own, so the chunk length cannot move m,
    # cold or warm-started from a neighbour's m.
    prof = spx.FreeConvolutionProfile(spx.eig_sym(ens.sample_goe(40, 12)), 0.5)
    grid = np.linspace(-3.0, 3.0, 1000)
    chunked = spx._solve_fixed_point(prof, grid)
    m0 = chunked[np.r_[1, :grid.size - 1]]
    warm = spx._solve_fixed_point(prof, grid, m0=m0)
    assert grid.size > spx.FIXED_POINT_CHUNK
    monkeypatch.setattr(spx, "FIXED_POINT_CHUNK", 1024)
    assert np.array_equal(chunked, spx._solve_fixed_point(prof, grid))
    assert np.array_equal(warm, spx._solve_fixed_point(prof, grid, m0=m0))


def test_warm_start_matches_cold_at_classical_locations(monkeypatch):
    # Each point starts from its neighbour's converged m, the first from its
    # right neighbour: the warm Newton stage lands on the root the cold solve
    # finds.  Both stop once the residual is below the tolerance, so m agrees
    # to about that tolerance, while F, stationary in m, agrees to rounding.
    prof = spx.FreeConvolutionProfile(spx.eig_sym(ens.sample_goe(500, 7)), 0.5)
    gamma = spx.classical_locations(prof)
    F_cold, _, cold = spx._cdf_and_density(prof, gamma)
    m0 = cold[np.r_[1, :gamma.size - 1]]
    newton, left = spx._newton, []

    def spy(*args, centre=None):
        out = newton(*args, centre=centre)
        if centre is not None:
            left.append(out)
        return out

    monkeypatch.setattr(spx, "_newton", spy)
    F_warm, _, warm = spx._cdf_and_density(prof, gamma, m0)
    # Every point stayed warm: none left its disc for a cold solve.
    assert left and sum(ix.size for ix in left) == 0
    residual = np.abs(warm - prof.empirical_stieltjes(gamma + prof.t * warm))
    assert np.max(residual) <= spx.FIXED_POINT_TOL
    assert np.max(np.abs(warm - cold)) <= 10 * spx.FIXED_POINT_TOL
    assert np.max(np.abs(F_warm - F_cold)) <= 1e-13


@pytest.mark.parametrize("lam, t", [
    (np.r_[np.full(50, -1.0), np.full(50, 1.0)], 0.05),
    (np.r_[np.full(30, -2.0), np.full(40, 0.0), np.full(30, 3.0)], 0.02),
    (np.linalg.eigvalsh(ens.sample_goe(200, 3)), 1e-3),
], ids=["two-cluster", "three-cluster", "goe200-small-t"])
def test_classical_locations_warm_rounds_keep_the_branch(lam, t):
    # The moment-matched start puts points in gaps of the support, where m is
    # real, and later rounds move points by more than their m's imaginary
    # part.  Newton from such an m lands on a spurious real root or on the
    # conjugate root, so those points must solve cold.
    prof = spx.FreeConvolutionProfile(spx.SpectralDecomposition(lam, np.eye(lam.size)), t)
    gamma = spx.classical_locations(prof)
    assert np.all(np.diff(gamma) >= 0)
    assert spx.quantile_defect(prof) <= 1e-12


def test_classical_locations_goe_against_quadrature():
    # Oracle independent of the log-potential CDF: brentq on quad of the
    # density Im m / pi.  The moment-matched semicircle start is off by 0.08
    # here, so this needs the Newton rounds.
    prof = spx.FreeConvolutionProfile(spx.eig_sym(ens.sample_goe(40, 12)), 0.5)
    gamma = spx.classical_locations(prof)

    def density(e):
        return spx.free_convolution_m(prof, e).imag / math.pi

    # Cumulative quadrature between anchors spanning the support; each level
    # is then bracketed by two anchors and brentq integrates from the lower.
    lam = prof.reference.eigenvalues
    anchors = np.linspace(lam[0] - 2.0 * math.sqrt(prof.t) - 0.5,
                          lam[-1] + 2.0 * math.sqrt(prof.t) + 0.5, 81)
    mass = np.concatenate([[0.0], np.cumsum(
        [quad(density, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)[0]
         for a, b in zip(anchors[:-1], anchors[1:])])])
    assert abs(mass[-1] - 1.0) <= 1e-11

    N = lam.size
    for i in (0, 1, 6, 13, 20, 27, 33, 38, 39):
        level = (i + 0.5) / N
        k = int(np.searchsorted(mass, level)) - 1
        a, b = anchors[k], anchors[k + 1]
        oracle = brentq(
            lambda x: mass[k] + quad(density, a, x, epsabs=1e-13, epsrel=1e-12,
                                     limit=200)[0] - level,
            a, b, xtol=1e-12)
        assert abs(gamma[i] - oracle) <= 1e-10


@pytest.mark.parametrize("N", [40, 1000])
def test_classical_locations_semicircle_closed_form(N):
    def sc_cdf(x):
        x = min(max(x, -2.0), 2.0)
        return 0.5 + x * math.sqrt(4.0 - x * x) / (4.0 * math.pi) \
            + math.asin(x / 2.0) / math.pi

    gamma = spx.classical_locations(spx.FreeConvolutionProfile(zero_dec(N), 1.0))
    for i in range(N):
        oracle = brentq(lambda x: sc_cdf(x) - (i + 0.5) / N, -2.0, 2.0, xtol=1e-14)
        assert abs(gamma[i] - oracle) <= 1e-10


def test_quantile_defect_detects_shifted_location():
    prof = spx.FreeConvolutionProfile(spx.eig_sym(ens.sample_goe(40, 12)), 0.5)
    assert spx.quantile_defect(prof) <= spx.QUANTILE_TOL
    # quantile_defect reads the profile's cached locations; shift one there.
    prof._gamma = prof._gamma.copy()
    prof._gamma[17] += 1e-9
    assert spx.quantile_defect(prof) > 1e-12


def semicircle_quantile(level, t=1.0):
    half = 2.0 * math.sqrt(t)

    def cdf(x):
        return quad(lambda e: math.sqrt(max(4 * t - e * e, 0.0)) / (2 * math.pi * t),
                    -half, x)[0]

    return brentq(lambda x: cdf(x) - level, -half, half, xtol=1e-12)


def test_classical_locations_small_N_against_quadrature():
    N = 10
    prof = spx.FreeConvolutionProfile(zero_dec(N), 1.0)
    gamma = spx.classical_locations(prof)
    assert np.all(np.diff(gamma) >= 0)
    assert spx.quantile_defect(prof) <= 1e-6
    for i in range(N):
        oracle = semicircle_quantile((i + 0.5) / N)
        assert abs(gamma[i] - oracle) <= 1e-4


def test_classical_locations_straddle_and_support():
    prof = spx.FreeConvolutionProfile(zero_dec(100), 1.0)
    g = spx.classical_locations(prof)
    assert g[49] < 0 < g[50]
    assert abs(g[49]) <= 2.0 / 100
    assert g[0] >= -2.1 and g[-1] <= 2.1


def test_covariance_form_identity_reference():
    N = 24
    prof = spx.FreeConvolutionProfile(zero_dec(N), 1.0)
    rng = stream(5)
    for _ in range(10):
        v, w = unit(rng, N), unit(rng, N)
        val = spx.covariance_form(prof, N // 2, v, w)
        assert abs(val - v @ w) <= 1e-8


def test_covariance_form_symmetry_and_psd():
    dec = spx.eig_sym(ens.sample_goe(40, 6))
    prof = spx.FreeConvolutionProfile(dec, 0.5)
    rng = stream(6)
    for _ in range(20):
        v, w = unit(rng, 40), unit(rng, 40)
        a = spx.covariance_form(prof, 20, v, w)
        b = spx.covariance_form(prof, 20, w, v)
        assert abs(a - b) <= 1e-12
        assert spx.covariance_form(prof, 20, v, v) >= 0


def test_covariance_form_outside_regular_spectrum(monkeypatch):
    # The edge index of a small-t profile has little density at gamma; a
    # raised threshold puts it outside the regular spectrum.
    prof = spx.FreeConvolutionProfile(zero_dec(8), 0.01)
    v = np.eye(8)[0]
    monkeypatch.setattr(spx, "REGULAR_IM_THRESHOLD", 10.0)
    with pytest.raises(ValueError, match="outside regular spectrum"):
        spx.covariance_form(prof, 0, v, v)


@pytest.mark.parametrize("entry", ["moment_samples", "gaussian_wick_moment",
                                   "covariance_form"])
def test_entry_points_reject_non_unit_vector(entry):
    N = 4
    bad, e1 = 1.001 * np.eye(N)[0], np.eye(N)[1]
    call = {
        "moment_samples": lambda: flow.moment_samples(flow.MomentRequest(
            configuration=(0, 0), vectors=np.column_stack([bad, e1]),
            ensemble=ens.EnsembleSpec(kind="goe", N=N), t=0.0, trials=2, seed=0)),
        "gaussian_wick_moment": lambda: az.gaussian_wick_moment((0, 0), [bad, e1]),
        "covariance_form": lambda: spx.covariance_form(
            spx.FreeConvolutionProfile(zero_dec(N), 1.0), 0, bad, e1),
    }[entry]
    with pytest.raises(ValueError, match="unit"):
        call()


def test_verify_assumptions_goe():
    dec = spx.eig_sym(ens.sample_goe(500, 7))
    window = spx.RegularityWindow(E0=0.0, r=1.0, eta_star=500**-0.9, kappa=0.1, C=4.0)
    rep = spx.verify_assumptions(dec, window, [np.eye(500)[0]])
    assert rep.inf_im_m >= 0.25 and rep.sup_im_m <= 4.0
    assert rep.eigenvalue_pass
    assert rep.sup_green <= 10.0


def test_verify_assumptions_matches_grid_loop():
    # Oracle: one Green-form contraction per grid point, as a Python loop.
    N = 500
    dec = spx.eig_sym(ens.sample_goe(N, 7))
    window = spx.RegularityWindow(E0=0.0, r=1.0, eta_star=N**-0.9, kappa=0.1, C=4.0)
    rng = stream(8)
    S = [unit(rng, N), unit(rng, N)]
    rep = spx.verify_assumptions(dec, window, S)

    lo, hi = window.energy_interval()
    zs = (np.linspace(lo, hi, 25)[:, None] + 1j * np.geomspace(window.eta_star, 1.0, 15)).ravel()
    A = dec.frame.T @ np.stack(S, axis=1)
    oracle = 0.0
    for z in zs:
        weights = z.imag / np.abs(dec.eigenvalues - z) ** 2
        oracle = max(oracle, float(np.max(np.abs(A.T @ (weights[:, None] * A)))))
    assert abs(rep.sup_green - oracle) <= 1e-13 * oracle


def test_verify_assumptions_atomic_fails():
    dec = zero_dec(100)
    window = spx.RegularityWindow(E0=0.5, r=0.4, eta_star=1e-2, kappa=0.1, C=4.0)
    rep = spx.verify_assumptions(dec, window, [])
    assert not rep.eigenvalue_pass
    assert rep.inf_im_m < 0.25
